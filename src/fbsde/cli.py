"""Command-line interface: convergence runs, weight tables, stability, quadrature.

Subcommands
-----------
run         sweep (k, n_steps) cells on a benchmark problem, emit a report
weights     print one multi-step weight row (exact fractions by default)
stability   tabulate root moduli and stability verdicts over a k range
quadrature  print Gauss–Hermite nodes/weights as CSV

``run`` exits 0 on full success (including budget-skipped cells) and 2 when
any cell failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import ExperimentSpec, emit_report, run_experiment
from .fdweights import solve_weights, weights_as_float
from .hermite import gauss_hermite_tensor
from .stability import stability_report
from .stepper import SolverConfig


def _write(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {raw!r}"
        ) from None


def _cmd_weights(args: argparse.Namespace) -> int:
    ws = solve_weights(args.k, args.m)
    if args.format == "frac":
        text = " ".join(str(w) for w in ws.weights)
    elif args.format == "float":
        text = " ".join(repr(w) for w in weights_as_float(ws))
    else:  # csv
        lines = ["k,m,i,weight_fraction,weight_float"]
        for i, (frac, flt) in enumerate(zip(ws.weights, weights_as_float(ws))):
            lines.append(f"{args.k},{args.m},{i},{frac},{flt!r}")
        text = "\n".join(lines)
    _write(text, args.out)
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    rows = []
    for k in range(args.kmin, args.kmax + 1):
        rep = stability_report(k, args.m)
        verdict = "stable" if rep.is_stable else "unstable"
        rows.append((k, rep.max_modulus_excl_one, verdict))
    if args.format == "csv":
        lines = ["k,max_modulus,verdict"]
        lines += [f"{k},{mod!r},{verdict}" for k, mod, verdict in rows]
        text = "\n".join(lines)
    else:  # md
        lines = [
            f"| k | max root modulus (excl. simple unit roots) | verdict (m={args.m}) |",
            "|---|---|---|",
        ]
        lines += [f"| {k} | {mod:.4f} | {verdict} |" for k, mod, verdict in rows]
        text = "\n".join(lines)
    _write(text, args.out)
    return 0


def _cmd_quadrature(args: argparse.Namespace) -> int:
    rule = gauss_hermite_tensor(args.L, args.dim)
    pts, w = rule.points()
    if args.dim == 1:
        lines = ["index,node,weight"]
        for i in range(pts.shape[0]):
            lines.append(f"{i},{pts[i, 0]:.17g},{w[i]:.17g}")
    else:
        head = ",".join(f"node_{ax}" for ax in range(args.dim))
        lines = [f"index,{head},weight"]
        for i in range(pts.shape[0]):
            coords = ",".join(f"{c:.17g}" for c in pts[i])
            lines.append(f"{i},{coords},{w[i]:.17g}")
    _write("\n".join(lines), args.out)
    return 0


#: Report formats of ``run``; the ``format`` setting picks one, "json" if unset.
_RUN_FORMATS = ("json", "csv", "md")

#: ``run`` settings, as flags and config keys, and the :class:`ExperimentSpec`
#: field each sets.  A setting left unset keeps the spec's default, which is
#: the solver's.  ``format`` is the one other setting.
_RUN_FIELDS = {
    "problem": "problem",
    "k": "ks",
    "nt": "n_steps",
    "m_comb": "m_comb",
    "r": "r",
    "gh_points": "gh_points",
    "init_mode": "init_mode",
    "init_substeps": "init_substeps",
}


def _cmd_run(args: argparse.Namespace) -> int:
    keys = [*_RUN_FIELDS, "format"]
    settings: dict = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(settings, dict):
            print(f"error: config {args.config} is not a JSON object", file=sys.stderr)
            return 2
        unknown = set(settings) - set(keys)
        if unknown:
            print(
                f"error: unknown config keys {sorted(unknown)}; "
                f"expected a subset of {sorted(keys)}",
                file=sys.stderr,
            )
            return 2
    # Explicit flags override config-file values.
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    if settings.get("problem") is None:
        print("error: --problem is required (by flag or config file)", file=sys.stderr)
        return 2
    fmt = settings.pop("format", "json")
    if fmt not in _RUN_FORMATS:
        print(
            f"error: format must be one of {list(_RUN_FORMATS)}, got {fmt!r}",
            file=sys.stderr,
        )
        return 2
    try:
        for key in ("k", "nt"):
            if isinstance(settings.get(key), str):
                settings[key] = _int_list(settings[key])
        spec = ExperimentSpec(**{_RUN_FIELDS[key]: v for key, v in settings.items()})
    except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(spec, budget_seconds=args.budget_seconds)
    except KeyError as exc:  # unknown problem key
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    _write(emit_report(report, fmt), args.out)
    failed = [c for c in report.cells if c.status == "failed"]
    for c in failed:
        print(
            f"cell (k={c.k}, n_steps={c.n_steps}) failed: {c.message}",
            file=sys.stderr,
        )
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbsde-bench",
        description="High-order multi-step FBSDE solver benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a (k, n_steps) convergence sweep")
    p_run.add_argument("--problem", help="registry key (example1|example2|example3)")
    p_run.add_argument("--k", type=_int_list, default=None,
                       help="comma-separated scheme orders, e.g. 3,4,5")
    p_run.add_argument("--nt", type=_int_list, default=None,
                       help="comma-separated time-step counts, e.g. 16,20,24,28,32")
    p_run.add_argument("--m-comb", dest="m_comb", type=int, default=None,
                       help=f"combination width (default {SolverConfig.m_comb})")
    p_run.add_argument("--r", type=int, default=None,
                       help="interpolation degree (default max(10, k+1))")
    p_run.add_argument("--gh-points", dest="gh_points", type=int, default=None,
                       help="quadrature nodes per Brownian axis")
    p_run.add_argument("--init-mode", dest="init_mode",
                       choices=["exact", "ramp"], default=None)
    p_run.add_argument("--init-substeps", dest="init_substeps", type=int, default=None,
                       help="ramp substeps S per time step "
                            f"(default {SolverConfig.init_substeps})")
    p_run.add_argument("--config", help="JSON file with run settings (flags override)")
    p_run.add_argument("--budget-seconds", dest="budget_seconds", type=float,
                       default=None,
                       help="skip cells that would start after this much elapsed time")
    p_run.add_argument("--format", choices=_RUN_FORMATS, default=None)
    p_run.add_argument("--out", help="output path (stdout when omitted)")
    p_run.set_defaults(func=_cmd_run)

    p_w = sub.add_parser("weights", help="print one multi-step weight row")
    p_w.add_argument("--k", type=int, required=True, help="scheme order (steps)")
    p_w.add_argument("--m", type=int, default=SolverConfig.m_comb,
                     help=f"combination width (default {SolverConfig.m_comb})")
    p_w.add_argument("--format", choices=["frac", "float", "csv"], default="frac")
    p_w.add_argument("--out", help="output path (stdout when omitted)")
    p_w.set_defaults(func=_cmd_weights)

    p_s = sub.add_parser("stability", help="tabulate root moduli and verdicts")
    p_s.add_argument("--m", type=int, default=SolverConfig.m_comb,
                     help=f"combination width (default {SolverConfig.m_comb})")
    p_s.add_argument("--kmin", type=int, default=1)
    p_s.add_argument("--kmax", type=int, default=9)
    p_s.add_argument("--format", choices=["csv", "md"], default="md")
    p_s.add_argument("--out", help="output path (stdout when omitted)")
    p_s.set_defaults(func=_cmd_stability)

    p_q = sub.add_parser("quadrature", help="print Gauss–Hermite nodes/weights (CSV)")
    p_q.add_argument("--L", type=int, required=True, help="nodes per axis (1..64)")
    p_q.add_argument("--dim", type=int, default=1, help="tensor dimension (default 1)")
    p_q.add_argument("--out", help="output path (stdout when omitted)")
    p_q.set_defaults(func=_cmd_quadrature)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

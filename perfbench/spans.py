"""Per-layer tracing of ``fbsde.solve``, installed from outside the package.

The tracer replaces, for the duration of a ``with installed(tracer):`` block,
the names ``fbsde.stepper`` looks up when it calls into each layer, and wraps
the problem's coefficient callables.  Each wrapped call records one span
(name, start, end, parent, solve id, counts) in memory; nothing is written
until the run ends.  The wrappers only observe arguments and return values,
so a traced solve computes exactly what an untraced one does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import fbsde.stepper as stepper
from fbsde import FbsdeProblem

#: Names in ``fbsde.stepper`` that are wrapped, with their span names.
STEPPER_CALLS = {
    "interpolate_values": "lattice.interpolate_values",
    "build_lattice": "lattice.build_lattice",
    "kahan_sum": "hermite.kahan_sum",
    "solve_weights": "fdweights.solve_weights",
    "initialize_levels": "stepper.initialize_levels",
    "step_decoupled": "stepper.step",
    "step_coupled": "stepper.step",
    "y_update": "stepper.y_update",
    "z_update": "stepper.z_update",
}

#: Coefficient callables of the problem that are wrapped.
COEFFICIENTS = ("a", "b", "f", "g")

#: Count metrics; they must repeat exactly from solve to solve.
COUNT_METRICS = (
    "lattice.interp_calls",
    "lattice.interp_queries",
    "lattice.nodes",
    "hermite.kahan_calls",
    "hermite.kahan_terms",
    "stepper.levels",
    "stepper.passes",
    "stepper.picard_iters",
    "stepper.node_updates",
    "stepper.outer_max",
    "problems.coef_calls",
    "fdweights.weights_calls",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, −1 for a solve's root
    solve: int
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _interp_counts(args, kwargs, out) -> dict:
    lattice = _arg(args, kwargs, 0, "lattice")
    values = _arg(args, kwargs, 1, "values")
    r = _arg(args, kwargs, 3, "r")
    queries = len(out)
    per_node = math.prod(values.shape[lattice.dim:])
    return {
        "queries": queries,
        "gather_bytes": queries * (r + 1) ** lattice.dim * per_node * 8,
    }


def _kahan_counts(args, kwargs, out) -> dict:
    return {"terms": int(np.size(_arg(args, kwargs, 0, "terms")))}


def _y_update_counts(args, kwargs, out) -> dict:
    return {"rows": len(_arg(args, kwargs, 0, "rhs")), "iters": int(out[1])}


COUNTERS: dict[str, Callable] = {
    "lattice.interpolate_values": _interp_counts,
    "hermite.kahan_sum": _kahan_counts,
    "stepper.y_update": _y_update_counts,
}


class Tracer:
    """Collects spans of the solves run inside :meth:`solve`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solve = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._solve)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return traced

    def solve(self, solve_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of solve ``solve_id``."""
        self._solve = solve_id
        try:
            return self.wrap("solve", fn)(*args)
        finally:
            self._solve = -1

    def problem(self, problem: FbsdeProblem) -> FbsdeProblem:
        """A copy of ``problem`` whose coefficient callables record spans."""
        wrapped = {c: self.wrap(f"problems.{c}", getattr(problem, c)) for c in COEFFICIENTS}
        return dataclasses.replace(problem, **wrapped)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "solve": s.solve}
                if s.counts:
                    row.update(s.counts)
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route ``fbsde.stepper``'s calls into each layer through ``tracer``."""
    saved = {name: getattr(stepper, name) for name in STEPPER_CALLS}
    try:
        for name, span_name in STEPPER_CALLS.items():
            setattr(stepper, name, tracer.wrap(span_name, saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(stepper, name, fn)


def _self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it its child spans cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def layer_metrics(spans: list[Span], solve_id: int, diagnostics: dict) -> dict:
    """Per-layer counts and busy times of one traced solve."""
    ids = [i for i, s in enumerate(spans) if s.solve == solve_id]
    own = [spans[i] for i in ids]
    children: dict[int, list[Span]] = {i: [] for i in ids}
    for s in own:
        if s.parent in children:
            children[s.parent].append(s)

    def named(name: str) -> list[Span]:
        return [s for s in own if s.name == name]

    def busy(*names: str) -> float:
        return sum(s.duration for n in names for s in named(n))

    def total(name: str, key: str) -> int:
        return sum(s.counts[key] for s in named(name))

    root = next(s for s in own if s.name == "solve")
    lattice_builds = named("lattice.build_lattice")
    interp_s = busy("lattice.interpolate_values")
    queries = total("lattice.interpolate_values", "queries")
    steps = [i for i in ids if spans[i].name == "stepper.step"]
    coef = [f"problems.{c}" for c in COEFFICIENTS]
    return {
        "lattice.interp_calls": len(named("lattice.interpolate_values")),
        "lattice.interp_queries": queries,
        "lattice.interp_s": interp_s,
        "lattice.interp_qps": queries / interp_s,
        "lattice.gather_mb": total("lattice.interpolate_values", "gather_bytes") / 1e6,
        "lattice.nodes": diagnostics["num_nodes"],
        "hermite.kahan_calls": len(named("hermite.kahan_sum")),
        "hermite.kahan_terms": total("hermite.kahan_sum", "terms"),
        "hermite.kahan_s": busy("hermite.kahan_sum"),
        "stepper.init_s": busy("stepper.initialize_levels"),
        "stepper.cone_s": max(s.end for s in lattice_builds) - root.start,
        "stepper.step_self_s": sum(_self_time(spans[i], children[i]) for i in steps),
        "stepper.update_s": busy("stepper.y_update", "stepper.z_update"),
        "stepper.levels": len(steps),
        "stepper.passes": len(named("stepper.y_update")),
        "stepper.picard_iters": total("stepper.y_update", "iters"),
        "stepper.node_updates": total("stepper.y_update", "rows"),
        "stepper.outer_max": diagnostics["outer_iterations_max"],
        "problems.coef_calls": sum(len(named(n)) for n in coef),
        "problems.coef_s": busy(*coef),
        "fdweights.weights_calls": len(named("fdweights.solve_weights")),
        "fdweights.weights_s": busy("fdweights.solve_weights"),
    }

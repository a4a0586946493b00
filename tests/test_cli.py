"""Command-line interface tests (argument plumbing, formats, exit codes)."""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fbsde
from fbsde import cli
from fbsde.bench import ExperimentSpec
from fbsde.cli import build_parser, main
from fbsde.stepper import SolverConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weights_fractions_default_width(capsys):
    code, out, _ = run_cli(capsys, "weights", "--k", "3")
    assert code == 0
    assert out.strip() == "-4/3 3 -9/4 7/12"


@pytest.mark.parametrize("argv", [["weights", "--k", "3"], ["stability"]])
def test_combination_width_defaults_to_the_solver_config(argv):
    """weights and stability take their --m default from SolverConfig.m_comb,
    as run does through ExperimentSpec."""
    assert build_parser().parse_args(argv).m == SolverConfig.m_comb


def test_weights_fractions_k9(capsys):
    code, out, _ = run_cli(capsys, "weights", "--k", "9", "--m", "4")
    assert code == 0
    tokens = out.split()
    assert tokens[0] == "-6781/2520"
    assert tokens[-3:] == ["953/210", "-106/105", "32/315"]
    assert len(tokens) == 10


def test_weights_float_format(capsys):
    code, out, _ = run_cli(capsys, "weights", "--k", "3", "--m", "2", "--format", "float")
    assert code == 0
    assert out.strip() == "-1.4166666666666667 2.75 -1.75 0.4166666666666667"


def test_weights_csv_format(capsys):
    code, out, _ = run_cli(capsys, "weights", "--k", "2", "--m", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,m,i,weight_fraction,weight_float"
    assert lines[1] == "2,4,0,-3/4,-0.75"
    assert lines[2] == "2,4,1,5/4,1.25"
    assert lines[3] == "2,4,2,-1/2,-0.5"


def test_weights_out_file(tmp_path, capsys):
    target = tmp_path / "w.txt"
    code, out, _ = run_cli(capsys, "weights", "--k", "1", "--m", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "-1/2 1/2\n"


def test_weights_invalid_k_is_clean_error(capsys):
    code, out, err = run_cli(capsys, "weights", "--k", "0", "--m", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "k must be >= 1" in err


def test_quadrature_invalid_npoints_is_clean_error(capsys):
    code, out, err = run_cli(capsys, "quadrature", "--L", "65")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "1..64" in err


def test_out_path_in_missing_directory_is_clean_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "w.txt"
    code, out, err = run_cli(capsys, "weights", "--k", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_stability_markdown_default(capsys):
    code, out, _ = run_cli(capsys, "stability")
    assert code == 0
    lines = out.strip().splitlines()
    assert "verdict (m=4)" in lines[0]
    assert len(lines) == 2 + 9  # header, rule, k = 1..9
    assert "| 9 | 0.9931 | stable |" in lines
    assert all("unstable" not in ln for ln in lines)


def test_stability_csv_shows_flip(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--m", "2", "--kmin", "7", "--kmax", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,max_modulus,verdict"
    assert lines[1].startswith("7,0.99") and lines[1].endswith(",stable")
    assert lines[2].startswith("8,1.126") and lines[2].endswith(",unstable")


def test_stability_m4_flips_at_10(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--kmin", "10", "--kmax", "10", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",unstable")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_single_node(capsys):
    code, out, _ = run_cli(capsys, "quadrature", "--L", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,node,weight"
    assert lines[1] == "0,0,1.7724538509055159"  # weight √π


def test_quadrature_tensor_grid(capsys):
    code, out, _ = run_cli(capsys, "quadrature", "--L", "2", "--dim", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,node_0,node_1,weight"
    assert len(lines) == 5
    # Symmetric two-point rule: all four tensor weights equal π/4.
    weights = {float(ln.split(",")[-1]) for ln in lines[1:]}
    assert len(weights) == 1


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_emits_json_report(capsys):
    code, out, err = run_cli(
        capsys, "run", "--problem", "example1", "--k", "3", "--nt", "8,12"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"] == "example1"
    assert [c["status"] for c in payload["cells"]] == ["ok", "ok"]
    assert err == ""


def test_run_unknown_problem_is_a_clean_error(capsys):
    code, out, err = run_cli(capsys, "run", "--problem", "example9", "--nt", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "unknown problem" in err
    assert "example1" in err  # the listing helps the caller


def test_run_requires_problem(capsys):
    code, _, err = run_cli(capsys, "run", "--nt", "8")
    assert code == 2
    assert "problem is required" in err


def test_run_exposes_every_sweep_setting():
    assert set(cli._RUN_FIELDS.values()) == {f.name for f in dataclasses.fields(ExperimentSpec)}


def test_run_rejects_inadmissible_grid(capsys):
    code, _, err = run_cli(capsys, "run", "--problem", "example1", "--k", "5", "--nt", "6")
    assert code == 2
    assert err.startswith("error:")
    assert "(5, 6)" in err


def test_run_failed_cells_exit_nonzero(capsys):
    # Degree 1 at k = 9 gives h = Δt^5: a 2-D lattice past TooManyNodes.
    code, out, err = run_cli(
        capsys, "run", "--problem", "example3", "--k", "9", "--nt", "12",
        "--r", "1",
    )
    assert code == 2
    assert "failed" in err
    payload = json.loads(out)  # the report is still emitted
    assert payload["cells"][0]["status"] == "failed"


def test_run_ramp_substeps_reach_exact_init_accuracy(capsys):
    """``--init-substeps 4`` marches the ramp on Δt/4 and lands within 5× of
    the exact-init errors, 4.62e-6 and 6.72e-7 at nt = 16 and 32; the crude
    S = 1 ramp gives 1.11e-4 and 2.59e-5."""
    code, out, err = run_cli(
        capsys, "run", "--problem", "example1", "--k", "3", "--nt", "16,32",
        "--init-mode", "ramp", "--init-substeps", "4",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["config"]["init_substeps"] == 4
    cells = payload["cells"]
    assert [c["diagnostics"]["config"]["init_substeps"] for c in cells] == [4, 4]
    for cell, exact in zip(cells, (4.62e-6, 6.72e-7)):
        assert cell["y_errors"][0] <= 5 * exact


def test_run_budget_skip_is_success(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--problem", "example1", "--k", "3", "--nt", "8,12",
        "--budget-seconds", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "skipped" for c in payload["cells"])


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_run_rejects_a_nonsense_budget(capsys, budget):
    code, out, err = run_cli(
        capsys, "run", "--problem", "example1", "--k", "3", "--nt", "8",
        "--budget-seconds", budget,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: budget_seconds") and len(err.splitlines()) == 1


def test_run_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "problem": "example1", "k": "3", "nt": [8, 12], "format": "csv",
    }))
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--nt", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "problem,k,n_steps,metric,value,status,message"
    data_rows = [ln for ln in lines[1:] if not ln.split(",")[2] == ""]
    assert all(ln.split(",")[2] == "8" for ln in data_rows)  # override won


def test_run_config_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "example1", "bogus": 1}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err
    assert "bogus" in err


def test_run_config_unreadable(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent/run.json")
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.parametrize(
    "settings",
    [
        {"problem": "example1", "k": "3,x", "nt": [8]},
        {"problem": "example1", "k": 3, "nt": [8]},
        {"problem": "example1", "nt": [8], "m_comb": "4"},
        {"problem": ["example1"], "nt": [8]},
        {"problem": "example1", "nt": [8], "format": "xml"},
        ["problem"],
        {"problem": "example1", "nt": [8], "r": "12"},
        {"problem": "example1", "nt": [8], "r": 3.5},
        {"problem": "example1", "nt": [8], "r": 0},
        {"problem": "example1", "nt": [8], "gh_points": 0},
        {"problem": "example1", "nt": [8], "m_comb": True},
        {"problem": "example1", "nt": [8], "init_substeps": 0},
        {"problem": "example1", "nt": [8], "init_substeps": True},
        {"problem": "example1", "nt": [8], "init_mode": "Ramp"},
    ],
    ids=[
        "k-not-integers", "k-not-a-list", "m_comb-string", "problem-not-a-string",
        "bad-format", "not-an-object", "r-string", "r-float", "r-zero",
        "gh_points-zero", "m_comb-bool", "init_substeps-zero", "init_substeps-bool",
        "init_mode-unknown",
    ],
)
def test_run_config_wrong_value_is_clean_error(tmp_path, capsys, settings):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(settings))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_run_markdown_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--problem", "example1", "--k", "3", "--nt", "8,12",
        "--format", "md",
    )
    assert code == 0
    assert out.startswith("# Convergence report — example1")
    assert "## k = 3" in out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _child_env():
    # The child imports the same package as this process, installed or not.
    paths = [str(Path(fbsde.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fbsde.cli", "weights", "--k", "1", "--m", "2"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-1/2 1/2"


def test_console_script_installed():
    # Runs the fbsde-bench script that `pip install` puts on the PATH. Where
    # the package is not installed, starts the entry point that pyproject.toml
    # declares under [project.scripts], as the installed wrapper would.
    args = ["stability", "--kmin", "2", "--kmax", "2", "--format", "csv"]
    exe = shutil.which("fbsde-bench")
    if exe:
        cmd, env = [exe], None
    else:
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["fbsde-bench"]
        module, _, func = target.partition(":")
        wrapper = (
            f"import sys; sys.argv[0] = 'fbsde-bench'; "
            f"from {module} import {func}; sys.exit({func}())"
        )
        cmd, env = [sys.executable, "-c", wrapper], _child_env()
    proc = subprocess.run(
        [*cmd, *args], capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("2,0.66")

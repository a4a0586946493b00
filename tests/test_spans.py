"""The benchmark tracer in perfbench/spans.py against the stepper it wraps.

The tracer replaces names in ``fbsde.stepper`` from outside the package, so
a renamed layer call or a level computed without a traced step call would
silently break its per-layer counts.  These tests pin that contract.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import fbsde.stepper as stepper
from fbsde.problems import get_problem
from fbsde.stepper import SolverConfig, solve

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_traced_names_resolve_in_stepper():
    for name in spans.STEPPER_CALLS:
        assert callable(getattr(stepper, name, None)), name


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("example1", SolverConfig(k=3, n_steps=6, init_mode="ramp", init_substeps=2)),
        ("example2", SolverConfig(k=3, n_steps=6)),
    ],
    ids=["example1-ramp", "example2"],
)
def test_traced_solve_is_bit_identical_with_one_step_span_per_level(name, cfg):
    problem = get_problem(name)
    plain = solve(problem, cfg)
    saved = {n: getattr(stepper, n) for n in spans.STEPPER_CALLS}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = tracer.solve(0, solve, tracer.problem(problem), cfg)
    assert all(getattr(stepper, n) is fn for n, fn in saved.items())
    assert np.array_equal(plain.y0, traced.y0)
    assert np.array_equal(plain.z0, traced.z0)

    ramp = 0
    if cfg.init_mode == "ramp":
        ramp = (cfg.k + cfg.m_comb - 2) * cfg.init_substeps
    levels = ramp + traced.diagnostics["levels_marched"]
    steps = [s for s in tracer.spans if s.name == "stepper.step"]
    assert len(steps) == levels
    metrics = spans.layer_metrics(tracer.spans, 0, traced.diagnostics)
    assert metrics["stepper.levels"] == levels
    assert metrics["stepper.passes"] >= levels

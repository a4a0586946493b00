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

import fbsde.lattice
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
    # One march loop: every level, ramp or main march, steps straight
    # under the solve, and initialization steps none.
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "solve")
    assert all(s.parent == root for s in steps)
    init = [i for i, s in enumerate(tracer.spans) if s.name == "stepper.initialize_levels"]
    assert len(init) == 1
    assert not any(s.parent == init[0] for s in steps)
    metrics = spans.layer_metrics(tracer.spans, 0, traced.diagnostics)
    assert metrics["stepper.levels"] == levels
    assert metrics["stepper.passes"] >= levels


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("example1", SolverConfig(k=9, n_steps=32, r=18, gh_points=24)),
        ("example3", SolverConfig(k=3, n_steps=12)),
    ],
    ids=["example1", "example3"],
)
def test_interp_counters_match_the_quadrature_groups(monkeypatch, name, cfg):
    """One kernel call reads a whole quadrature group of a pass, so
    ``lattice.interp_calls`` counts the passes' groups and
    ``lattice.interp_queries`` every span's Q·P Euler points.  These are the
    ``scalar-k9`` and ``system-2d`` settings, whose first passes make two
    groups."""
    groups, queries = [], []
    expectations = stepper.conditional_expectations

    def recording(window, x, t_n, dt, problem, yz, rule, r):
        P, m, width = yz.shape
        span = rule.npoints * P * (m * (1 + width) + 2 * x.shape[1]) * 8
        group = max(1, fbsde.lattice._BLOCK_BYTES // span)
        groups.append(-(-len(window) // group))
        queries.append(len(window) * rule.npoints * P)
        return expectations(window, x, t_n, dt, problem, yz, rule, r)

    monkeypatch.setattr(stepper, "conditional_expectations", recording)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = tracer.solve(0, solve, tracer.problem(get_problem(name)), cfg)
    metrics = spans.layer_metrics(tracer.spans, 0, traced.diagnostics)
    assert metrics["stepper.passes"] == len(groups)
    assert metrics["lattice.interp_calls"] == sum(groups)
    assert metrics["lattice.interp_queries"] == sum(queries)

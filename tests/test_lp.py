"""Tests for the bounded-variable simplex solver."""

import json
from pathlib import Path

import numpy as np
import pytest

from incver import analyzer
from incver.heuristics import BaseHeuristic, HeuristicConfig
from incver.lp import LinearProgram, LpError, LpStatus, solve
from incver.model import load_network
from incver.props import load_property
from incver.verifier import Mode, VerifierConfig, verify
from lp_oracles import random_lp, vertex_minimum

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def box(*pairs):
    return np.array(pairs, dtype=float)


def test_minimize_over_unit_interval():
    lp = LinearProgram([1.0], box([0.0, 1.0]))
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 0.0
    assert np.array_equal(out.point, [0.0])
    assert out.iterations == 0


def test_contradictory_rows_infeasible():
    lp = LinearProgram(
        [1.0],
        box([-10.0, 10.0]),
        [[1.0], [1.0]],
        [">=", "<="],
        [1.0, 0.0],
    )
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_crossed_bounds_infeasible():
    lp = LinearProgram([1.0], box([2.0, 1.0]))
    out = solve(lp)
    assert out.status is LpStatus.INFEASIBLE
    assert out.iterations == 0


def test_unbounded_detection():
    lp = LinearProgram(
        [1.0],
        np.array([[-np.inf, 5.0]]),
        [[1.0]],
        ["<="],
        [0.0],
    )
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_equality_row():
    lp = LinearProgram(
        [1.0, 1.0],
        box([0.0, 1.0], [0.0, 1.0]),
        [[1.0, 1.0]],
        ["="],
        [1.0],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - 1.0) < 1e-9


def test_free_variable():
    lp = LinearProgram(
        [1.0, 1.0],
        np.array([[-np.inf, np.inf], [0.0, 1.0]]),
        [[1.0, 1.0]],
        [">="],
        [2.0],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - 2.0) < 1e-9


def test_fixed_variable_respected():
    lp = LinearProgram(
        [-1.0, 1.0],
        box([0.5, 0.5], [0.0, 2.0]),
        [[1.0, 1.0]],
        [">="],
        [1.0],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.point[0] - 0.5) < 1e-9
    assert abs(out.value - 0.0) < 1e-9


def _agree(lp):
    got = solve(lp)
    want_status, want_value = vertex_minimum(lp)
    if want_status == "infeasible":
        assert got.status is LpStatus.INFEASIBLE, f"solver says {got.status}, oracle infeasible"
        return
    assert got.status is LpStatus.OPTIMAL, f"solver says {got.status}, oracle optimal {want_value}"
    scale = max(1.0, abs(want_value))
    assert abs(got.value - want_value) <= 1e-6 * scale, (
        f"value {got.value} vs oracle {want_value}"
    )
    # returned point must actually achieve the reported value
    assert abs(float(lp.objective @ got.point) - got.value) < 1e-9


def test_random_lps_match_vertex_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        _agree(random_lp(rng, n_max=5, m_max=8, family="feasible"))
    for _ in range(60):
        _agree(random_lp(rng, n_max=4, m_max=6, family="loose"))
    for _ in range(20):
        _agree(random_lp(rng, n_max=4, m_max=4, family="infeasible"))
    for _ in range(10):
        _agree(random_lp(rng, n_max=8, m_max=3, family="feasible"))
    for _ in range(60):
        _agree(random_lp(rng, n_max=6, m_max=6, family="chain"))


def test_crash_basis_pivot_count_on_demo(monkeypatch):
    # Pivots are the deterministic work counter of the simplex.  The demo's
    # baseline first run solves 9 LPs in 53 pivots from the crash basis; the
    # all-artificial start it replaced needed 93.
    net = load_network(FIXTURES / "demo_network.json")
    prop = load_property(FIXTURES / "demo_property.json")
    knobs = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))
    heur = HeuristicConfig(
        base=BaseHeuristic(knobs["heuristic"]),
        alpha=knobs["alpha"],
        theta=knobs["theta"],
        seed=knobs["seed"],
    )
    outcomes = []

    def recording_solve(lp, **kwargs):
        outcomes.append(solve(lp, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(analyzer, "solve", recording_solve)
    run = verify(net, prop, VerifierConfig(mode=Mode.BASELINE, heuristic=heur, timeout=30.0))
    assert (run.metrics.boundings, run.metrics.branchings) == (9, 4)
    assert len(outcomes) == 9
    assert sum(out.iterations for out in outcomes) == 53


def test_weak_duality_by_sampling():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        lp = random_lp(rng, n_max=4, m_max=5, family="feasible")
        out = solve(lp)
        if out.status is not LpStatus.OPTIMAL:
            continue
        checked += 1
        lo, hi = lp.var_bounds[:, 0], lp.var_bounds[:, 1]
        pts = rng.uniform(lo, hi, size=(200, lp.num_vars))
        feas = np.ones(len(pts), dtype=bool)
        for row, rel, rhs in lp.constraints:
            v = pts @ row
            if rel == "<=":
                feas &= v <= rhs + 1e-9
            elif rel == ">=":
                feas &= v >= rhs - 1e-9
            else:
                feas &= np.abs(v - rhs) <= 1e-9
        if feas.any():
            assert np.min(pts[feas] @ lp.objective) >= out.value - 1e-6


def test_objective_scaling():
    rng = np.random.default_rng(17)
    for _ in range(20):
        lp = random_lp(rng, n_max=4, m_max=5, family="feasible")
        out = solve(lp)
        if out.status is not LpStatus.OPTIMAL:
            continue
        lam = float(rng.uniform(0.5, 4.0))
        scaled = LinearProgram(lam * lp.objective, lp.var_bounds, lp.A, lp.rel, lp.rhs)
        out2 = solve(scaled)
        assert out2.status is LpStatus.OPTIMAL
        assert abs(out2.value - lam * out.value) <= 1e-6 * max(1.0, abs(lam * out.value))


def test_redundant_constraint_no_effect():
    rng = np.random.default_rng(23)
    for _ in range(20):
        lp = random_lp(rng, n_max=4, m_max=4, family="feasible")
        out = solve(lp)
        if out.status is not LpStatus.OPTIMAL:
            continue
        # sum of x is at most the sum of upper bounds: implied by the box
        n = lp.num_vars
        red = float(np.sum(lp.var_bounds[:, 1])) + 1.0
        out2 = solve(
            LinearProgram(
                lp.objective,
                lp.var_bounds,
                np.vstack([lp.A, np.ones(n)]),
                [*lp.rel, "<="],
                [*lp.rhs, red],
            )
        )
        assert out2.status is LpStatus.OPTIMAL
        assert abs(out2.value - out.value) <= 1e-6 * max(1.0, abs(out.value))


def test_determinism():
    rng = np.random.default_rng(31)
    for _ in range(10):
        lp = random_lp(rng, n_max=5, m_max=6, family="loose")
        a = solve(lp)
        b = solve(lp)
        assert a.status is b.status
        if a.status is LpStatus.OPTIMAL:
            assert a.value == b.value
            assert np.array_equal(a.point, b.point)


def test_degenerate_problem_terminates():
    # many coincident constraints through the origin force degenerate pivots
    n = 4
    rows = [np.ones(n)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows += [e, e + 0.5]
    lp = LinearProgram(
        -np.ones(n),
        np.column_stack([np.zeros(n), np.ones(n)]),
        rows,
        [">="] * len(rows),
        np.zeros(len(rows)),
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - (-n)) < 1e-8


def test_iteration_cap_raises():
    rng = np.random.default_rng(5)
    lp = random_lp(rng, n_max=5, m_max=8, family="feasible")
    with pytest.raises(LpError):
        solve(lp, max_iter=1)


def test_validation_errors():
    unit = [[0.0, 1.0]]
    cases = [
        ([], np.zeros((0, 2))),
        ([1.0], unit, [[1.0, 2.0]], ["<="], [0.0]),
        ([1.0], unit, [[1.0]], ["<"], [0.0]),
        # the solver would misread each of these and could return a wrong
        # OPTIMAL: a NaN row or rhs is never violated, a NaN lower bound
        # reads as -inf, and crossed infinite bounds read as unbounded
        ([np.nan], unit),
        ([np.inf], unit),
        ([1.0], unit, [[np.nan]], [">="], [0.5]),
        ([1.0], unit, [[-np.inf]], [">="], [0.5]),
        ([1.0], unit, [[1.0]], [">="], [np.nan]),
        ([1.0], unit, [[1.0]], [">="], [np.inf]),
        ([-1.0], [[np.nan, 1.0]]),
        ([1.0], [[0.0, np.nan]]),
        ([1.0], [[np.inf, np.inf]]),
        ([1.0], [[-np.inf, -np.inf]]),
    ]
    for args in cases:
        with pytest.raises(ValueError):
            LinearProgram(*args)
    # infinite bounds on their own side stay legal
    assert solve(LinearProgram([1.0], [[-np.inf, np.inf]], [[1.0]], [">="], [0.5])).value == 0.5


def test_constraints_view_reads_the_arrays():
    lp = LinearProgram(
        [1.0, 0.0], box([0.0, 1.0], [0.0, 1.0]), [[1.0, 2.0], [3.0, 4.0]], ["<=", ">="], [5.0, 6.0]
    )
    rows = lp.constraints
    assert [(r.tolist(), rel, rhs) for r, rel, rhs in rows] == [
        ([1.0, 2.0], "<=", 5.0),
        ([3.0, 4.0], ">=", 6.0),
    ]
    assert all(type(rel) is str and type(rhs) is float for _, rel, rhs in rows)
    assert LinearProgram([1.0], box([0.0, 1.0])).constraints == ()

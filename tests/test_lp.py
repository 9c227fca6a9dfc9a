"""Tests for the bounded-variable simplex solver."""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from incver.analyzer import _build_program, compute_bounds
from incver.heuristics import BaseHeuristic, HeuristicConfig
from incver import lp as lp_module
from incver.lp import (
    _AT_LOWER,
    _AT_UPPER,
    _BASIC,
    _BLAND_TRIGGER,
    _FEAS_TOL,
    _OPT_TOL,
    _PIVOT_TOL,
    LinearProgram,
    LpBasis,
    LpError,
    LpStatus,
    LpTimeout,
    _Tableau,
    price_basis,
    solve,
)
from incver.model import load_network
from incver.props import load_property
from incver.verifier import Mode, VerifierConfig, verify
from lp_oracles import program, random_lp, random_rows, vertex_minimum

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
    # with no rows the simplex still runs: each column whose cost prefers
    # its upper bound flips there, one iteration each
    out = solve(LinearProgram([-1.0, 2.0, -0.5], box([0.0, 1.0], [-1.0, 1.0], [2.0, 3.0])))
    assert (out.status, out.value, out.iterations) == (LpStatus.OPTIMAL, -4.5, 2)
    assert np.array_equal(out.point, [1.0, -1.0, 3.0])


def test_contradictory_rows_infeasible():
    lp = program(
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


def test_equality_row():
    lp = program(
        [1.0, 1.0],
        box([0.0, 1.0], [0.0, 1.0]),
        [[1.0, 1.0]],
        ["="],
        [1.0],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert abs(out.value - 1.0) < 1e-9


def test_fixed_variable_respected():
    lp = program(
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


def test_crash_basis_pivot_count_on_demo():
    # Pivots are the deterministic work counter of the simplex.  The demo's
    # baseline first run settles 3 of its 9 boundings by bound propagation
    # and solves the other 6 LPs in 12 pivots from the crash basis, started
    # at the input corner and relaxation sides of each region's propagation
    # bound.  Started at the lower corner the crash needs 28 on those LPs, a
    # crash that covers only the "=" rows 33, and the all-artificial start
    # before it 57.
    net = load_network(FIXTURES / "demo_network.json")
    prop = load_property(FIXTURES / "demo_property.json")
    knobs = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))
    heur = HeuristicConfig(
        base=BaseHeuristic(knobs["heuristic"]),
        alpha=knobs["alpha"],
        theta=knobs["theta"],
        seed=knobs["seed"],
    )
    run = verify(net, prop, VerifierConfig(mode=Mode.BASELINE, heuristic=heur, timeout=30.0))
    assert (run.metrics.boundings, run.metrics.branchings) == (9, 4)
    assert run.metrics.lps == 6
    assert run.metrics.pivots == 12


def test_demo_root_lp_runs_no_phase1():
    # The demo's root region has no split, so the crash's start point lies
    # inside it: the network evaluated from the input corner that the
    # region's propagation bound read (the upper one here), each ambiguous
    # unit's post on the side of its relaxation that bound read (layer 0's
    # at max(pre, 0), layer 1's on their chords).  Phase 1 has nothing to
    # repair.
    net = load_network(FIXTURES / "demo_network.json")
    prop = load_property(FIXTURES / "demo_property.json")
    bounds = compute_bounds(net, prop.input, {}, objective=prop.output.c)
    assert [p.tolist() for p in bounds.phase] == [[2, 2], [2, 2]]  # all four ambiguous
    out = solve(_build_program(net, prop, bounds))
    assert (out.status, out.phase1) == (LpStatus.OPTIMAL, 0)
    assert round(out.value + prop.output.d, 9) == -7.0  # the root lb the demo pins


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
        scaled = LinearProgram(lam * lp.objective, lp.var_bounds, lp.A, lp.eq, lp.rhs)
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
                np.append(lp.eq, False),
                np.append(lp.rhs, red),
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
    lp = program(
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
    # x + y + z + s = 3 over [0, 1]^3, s >= 0 basic: minimizing -x - y - z
    # flips the three columns to their upper bounds, one pivot each, and a
    # budget of one pivot stops the second.
    def tableau(max_iter):
        hi = np.array([1.0, 1.0, 1.0, np.inf])
        tab = _Tableau(np.ones((1, 4)), np.array([3.0]), np.zeros(4), hi, max_iter)
        tab.basis[0], tab.state[3] = 3, _BASIC
        tab.refresh()
        return tab

    cost = np.array([-1.0, -1.0, -1.0, 0.0])
    tab = tableau(3)
    tab.run(cost)
    assert (tab.iterations, tab.val[:3].tolist(), tab.xb.tolist()) == (3, [1.0, 1.0, 1.0], [0.0])
    with pytest.raises(LpError, match="iteration limit 1 exceeded"):
        tableau(1).run(cost)


def test_validation_errors():
    unit = [[0.0, 1.0]]
    cases = [
        ([], np.zeros((0, 2))),
        ([1.0], unit, [[1.0, 2.0]], [False], [0.0]),
        # a mask of the wrong shape, or one that is not boolean: numpy would
        # read any relation string as True, an "=" row
        ([1.0], unit, [[1.0]], None, [0.0]),
        ([1.0], unit, [[1.0]], [False, False], [0.0]),
        ([1.0], unit, [[1.0]], [[False]], [0.0]),
        ([1.0], unit, [[1.0]], ["<="], [0.0]),
        ([1.0], unit, [[1.0]], [0.0], [0.0]),
        # the solver would misread each of these and could return a wrong
        # OPTIMAL: a NaN row or rhs is never violated, a NaN lower bound
        # reads as -inf, and the solver keeps no column at an infinite bound
        ([np.nan], unit),
        ([np.inf], unit),
        ([1.0], unit, [[np.nan]], [False], [0.5]),
        ([1.0], unit, [[-np.inf]], [False], [0.5]),
        ([1.0], unit, [[1.0]], [False], [np.nan]),
        ([1.0], unit, [[1.0]], [False], [np.inf]),
        ([-1.0], [[np.nan, 1.0]]),
        ([1.0], [[0.0, np.nan]]),
        ([1.0], [[np.inf, np.inf]]),
        ([1.0], [[-np.inf, -np.inf]]),
        ([1.0], [[-np.inf, 1.0]]),
        ([1.0], [[0.0, np.inf]]),
        ([1.0], [[-np.inf, np.inf]], [[1.0]], [False], [0.5]),
        # a start mask of the wrong shape, or one that is not boolean
        ([1.0], unit, None, None, (), [True, False]),
        ([1.0], unit, None, None, (), []),
        ([1.0], unit, None, None, (), [[True]]),
        ([1.0], unit, None, None, (), [1.0]),
        ([1.0], unit, None, None, (), ["upper"]),
    ]
    for args in cases:
        with pytest.raises(ValueError):
            LinearProgram(*args)
    assert LinearProgram([1.0, 2.0], unit * 2).at_upper.tolist() == [False, False]
    assert LinearProgram([1.0], unit, at_upper=np.array([True])).at_upper.tolist() == [True]


def test_constraints_view_reads_the_arrays():
    lp = LinearProgram(
        [1.0, 0.0], box([0.0, 1.0], [0.0, 1.0]), [[1.0, 2.0], [3.0, 4.0]], [False, True], [5.0, 6.0]
    )
    rows = lp.constraints
    assert [(r.tolist(), rel, rhs) for r, rel, rhs in rows] == [
        ([1.0, 2.0], "<=", 5.0),
        ([3.0, 4.0], "=", 6.0),
    ]
    assert all(type(rel) is str and type(rhs) is float for _, rel, rhs in rows)
    assert LinearProgram([1.0], box([0.0, 1.0])).constraints == ()


def test_refresh_solves_only_the_nonbasic_columns():
    # A refresh writes the basic columns of T = Binv A as exact unit vectors
    # and solves the rest; without the tableau it re-solves the basic values
    # alone and leaves T as it was.
    rng = np.random.default_rng(11)
    for m, K in [(1, 3), (4, 9), (7, 12)]:
        A = rng.normal(size=(m, K))
        b = rng.normal(size=m)
        tab = _Tableau(A, b, np.zeros(K), np.ones(K), max_iter=100)
        tab.basis = rng.permutation(K)[:m]
        tab.state[tab.basis] = _BASIC
        tab.val = np.where(tab.state == _BASIC, 0.0, rng.uniform(size=K))
        tab.refresh()
        B = A[:, tab.basis]
        nonbasic = tab.state != _BASIC
        assert np.array_equal(tab.T[:, tab.basis], np.eye(m))
        assert np.allclose(tab.T[:, nonbasic], np.linalg.solve(B, A)[:, nonbasic], rtol=0, atol=1e-12)
        rhs = b - A[:, nonbasic] @ tab.val[nonbasic]
        assert np.allclose(tab.xb, np.linalg.solve(B, rhs), rtol=0, atol=1e-12)

        T = tab.T
        before = T.copy()
        tab.val[nonbasic] = rng.uniform(size=K - m)
        tab.refresh(tableau=False)
        assert tab.T is T and np.array_equal(T, before)
        rhs = b - A[:, nonbasic] @ tab.val[nonbasic]
        assert np.allclose(tab.xb, np.linalg.solve(B, rhs), rtol=0, atol=1e-12)


def oracle_rows():
    """The random programs of test_random_lps_match_vertex_oracle, in order, in relation form."""
    rng = np.random.default_rng(2024)
    for n_max, m_max, family, count in [
        (5, 8, "feasible", 120),
        (4, 6, "loose", 60),
        (4, 4, "infeasible", 20),
        (8, 3, "feasible", 10),
        (6, 6, "chain", 60),
    ]:
        for _ in range(count):
            yield random_rows(rng, n_max=n_max, m_max=m_max, family=family)


def oracle_lps():
    """The random programs of test_random_lps_match_vertex_oracle, in order."""
    for rows in oracle_rows():
        yield program(*rows)


def test_solve_leaves_the_program_as_it_was():
    # solve and price_basis read the program's arrays in place, without a
    # copy: after a cold solve and a read of its basis, every array of
    # every oracle program, and of the basis, holds the bytes it held before.
    for lp in oracle_lps():
        arrays = (lp.objective, lp.var_bounds, lp.A, lp.eq, lp.rhs)
        before = [a.tobytes() for a in arrays]
        out = solve(lp)
        if out.basis is not None:
            kept = [side.tobytes() for side in out.basis]
            price_basis(lp, out.basis)
            assert [side.tobytes() for side in out.basis] == kept
        assert [a.tobytes() for a in arrays] == before


def assert_same_outcome(got, want):
    """Two outcomes agree bit for bit, final basis included."""
    assert (got.status, got.iterations, got.warm) == (want.status, want.iterations, want.warm)
    assert (got.value is None) == (want.value is None)
    if want.value is not None:
        assert got.value.hex() == want.value.hex()
        assert got.point.tobytes() == want.point.tobytes()
    assert (got.basis is None) == (want.basis is None)
    if want.basis is not None:
        assert np.array_equal(got.basis.basic, want.basis.basic)
        assert np.array_equal(got.basis.state, want.basis.state)


def perturbed(rows, rng, scale=1e-3):
    """The program of these relation-form rows, every coefficient and bound moved a little.

    The rows are moved before their relations are applied, so a ">=" row
    moves as written and is then negated.
    """
    objective, var_bounds, A, rels, rhs = rows
    lo, hi = var_bounds.T
    shift = rng.uniform(-scale, scale, size=(2, lo.size))
    lo, hi = lo + shift[0], np.maximum(hi + shift[1], lo + shift[0])
    return program(
        objective + rng.uniform(-scale, scale, objective.size),
        np.column_stack([lo, hi]),
        A + rng.uniform(-scale, scale, A.shape) * (A != 0),
        rels,
        rhs + rng.uniform(-scale, scale, rhs.size),
    )


def test_own_final_basis_restarts_without_a_pivot():
    # An optimal basis is optimal for its own program: price_basis reads it
    # with no pivot, and its outcome is the cold solve's basis, value and
    # point.  Where the cold solve re-solved its final point over the slack
    # columns alone (phase 2 pivots, no artificials), it solved the same
    # system, and the bits are the same; elsewhere they agree to rounding.
    optimal = same_bits = 0
    for lp in oracle_lps():
        cold = solve(lp)
        assert not cold.warm
        if cold.status is LpStatus.INFEASIBLE:
            assert cold.basis is None
            continue
        if cold.basis is None:  # an artificial stayed basic on a dependent row
            continue
        optimal += 1
        m, K = lp.rhs.size, lp.num_vars + int(np.sum(~lp.eq))
        assert cold.basis.basic.shape == (m,) and cold.basis.state.shape == (K,)
        _, again = price_basis(lp, cold.basis)
        assert (again.status, again.iterations, again.phase1, again.factorizations) == (LpStatus.OPTIMAL, 0, 0, 2)
        assert again.warm
        assert np.array_equal(again.basis.basic, cold.basis.basic)
        assert np.array_equal(again.basis.state, cold.basis.state)
        assert abs(again.value - cold.value) <= 1e-12 and np.abs(again.point - cold.point).max() <= 1e-12
        if cold.phase1 == 0 and cold.iterations > 0:
            assert again.value.hex() == cold.value.hex() and again.point.tobytes() == cold.point.tobytes()
            same_bits += 1
    assert optimal >= 150 and same_bits >= 50


def test_an_optimal_start_is_priced_without_building_the_tableau(monkeypatch):
    # A carried basis is priced from its duals: read on its own program it
    # finds no entering column, and it answers with two solves of B, one
    # for the duals and one for the point, and never a tableau (the class
    # is gone while it reads).  The outcome counts those two
    # factorizations.
    solves = []
    linalg_solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(a.shape)
        return linalg_solve(a, b)

    priced = 0
    for lp in oracle_lps():
        cold = solve(lp)
        if cold.basis is None:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "_Tableau", None)
            patch.setattr(np.linalg, "solve", counting_solve)
            solves.clear()
            _, again = price_basis(lp, cold.basis)
        m = lp.rhs.size
        assert solves == [(m, m), (m, m)]
        assert again.warm and (again.iterations, again.factorizations) == (0, len(solves))
        priced += 1
    assert priced >= 150


def test_warm_start_on_a_perturbed_program_matches_the_cold_solve():
    # The case the verifier carries a basis for: the same program on an
    # updated network.  Slightly perturbed, the old basis mostly stays
    # optimal and answers the program; strongly perturbed, it is often
    # primal infeasible there and answers nothing.  Its bound is at most
    # the optimum either way, and an answer is the cold optimum within the
    # solver's tolerance, at a point that achieves its value.
    rng = np.random.default_rng(99)
    answered, bound_only = {1e-3: 0, 0.3: 0}, {1e-3: 0, 0.3: 0}
    for rows in oracle_rows():
        old = solve(program(*rows))
        if old.basis is None:
            continue
        for scale in answered:
            new = perturbed(rows, rng, scale)
            cold = solve(new)
            bound, out = price_basis(new, old.basis)
            assert bound is not None
            if cold.status is LpStatus.INFEASIBLE:
                assert out is None
                continue
            assert bound <= cold.value + 1e-9
            if out is None:
                bound_only[scale] += 1
                continue
            answered[scale] += 1
            assert out.warm and out.status is LpStatus.OPTIMAL
            assert abs(out.value - cold.value) <= 1e-6 * max(1.0, abs(cold.value))
            assert abs(float(new.objective @ out.point) - out.value) < 1e-9
    assert answered[1e-3] >= 150 and answered[0.3] >= 50
    assert bound_only[0.3] >= 50 and sum(answered.values()) + sum(bound_only.values()) >= 250


def test_dual_bound_is_a_lower_bound_from_any_basis():
    # price_basis's bound needs no pivot.  At the program's own optimal
    # basis it is the optimum; carried to a slightly perturbed program,
    # where the basis often stays optimal, and to a strongly perturbed one,
    # where it is often primal infeasible (and so answers nothing), it is
    # at most the optimum.
    rng = np.random.default_rng(7)
    own = carried = infeasible_start = 0
    for rows in oracle_rows():
        lp = program(*rows)
        out = solve(lp)
        if out.basis is None:
            continue
        bound, _ = price_basis(lp, out.basis)
        assert bound is not None and bound <= out.value + 1e-9 and abs(bound - out.value) <= 1e-9
        own += 1
        for scale in (1e-3, 0.3):
            new = perturbed(rows, rng, scale)
            cold = solve(new)
            bound, answer = price_basis(new, out.basis)
            if cold.status is not LpStatus.OPTIMAL or bound is None:
                continue
            assert bound <= cold.value + 1e-9
            carried += 1
            infeasible_start += answer is None
    assert own >= 150 and carried >= 250 and infeasible_start >= 20


def test_a_start_that_does_not_fit_falls_back_to_the_cold_solve():
    # x + y <= 1 and 2x + 2y <= 3 over [0, 2]^2: columns x, y, s0, s1.
    lp = program(
        [-1.0, -2.0], box([0.0, 2.0], [0.0, 2.0]), [[1.0, 1.0], [2.0, 2.0]], ["<=", "<="], [1.0, 3.0]
    )
    cold = solve(lp)
    assert cold.status is LpStatus.OPTIMAL and cold.value == -2.0
    L, U, B = _AT_LOWER, _AT_UPPER, _BASIC
    # the bound reads the basic columns alone; states that do not fit them
    # name no point, and so give the bound of the same columns and no outcome
    y_basic = LpBasis(np.array([1, 3]), np.array([L, B, L, B]))
    want, out = price_basis(lp, y_basic)
    assert abs(want - cold.value) <= 1e-12 and out is not None
    for name, state in {
        "slack at an infinite bound": [L, B, U, B],
        "unknown state": [L, B, 7, B],
        "basic mark on a nonbasic column": [B, B, L, B],
        "basic column not marked basic": [L, L, L, B],
    }.items():
        assert price_basis(lp, LpBasis(y_basic.basic, np.array(state))) == (want, None), name


def test_dual_bound_refuses_a_basis_it_cannot_price():
    # x + y <= 1 and 2x + 2y <= 3 over [0, 2]^2: columns x, y, s0, s1.
    lp = program(
        [-1.0, -2.0], box([0.0, 2.0], [0.0, 2.0]), [[1.0, 1.0], [2.0, 2.0]], ["<=", "<="], [1.0, 3.0]
    )
    cold = solve(lp)
    assert cold.status is LpStatus.OPTIMAL and cold.value == -2.0
    bound, out = price_basis(lp, cold.basis)
    assert abs(bound - cold.value) <= 1e-12 and out.value == cold.value
    L, U, B = _AT_LOWER, _AT_UPPER, _BASIC
    other = solve(program([1.0], box([0.0, 1.0]), [[1.0]], ["<="], [0.5]))
    misfits = {
        "wrong shape": other.basis,
        "repeated basic column": LpBasis(np.array([0, 0]), np.array([B, L, L, L])),
        "singular B": LpBasis(np.array([0, 1]), np.array([B, B, L, L])),
        "column out of range": LpBasis(np.array([4, 3]), np.array([L, L, L, B])),
        "negative column": LpBasis(np.array([-1, 3]), np.array([L, L, L, B])),
    }
    for name, basis in misfits.items():
        assert price_basis(lp, basis) == (None, None), name  # the analyzer then solves cold
    crossed = program([1.0, 1.0], box([0.0, 1.0], [2.0, 1.0]), [[1.0, 1.0]], ["<="], [5.0])
    assert price_basis(crossed, LpBasis(np.array([2]), np.array([L, L, B]))) == (None, None)
    # a basis that is not primal feasible still bounds: x basic on row 0
    # and y at its upper bound 2 put x at -1; its duals give -3, below the
    # optimum -2, and it answers nothing
    bound, out = price_basis(lp, LpBasis(np.array([0, 3]), np.array([B, U, L, B])))
    assert abs(bound + 3.0) <= 1e-12 and out is None


def test_a_bound_that_meets_the_target_ends_the_read(monkeypatch):
    # A bound at or above the target is all the caller needs: the read
    # solves only B^T y = c_B, for the duals, and returns no outcome.  Below
    # the target it prices the basis and solves B x_B = b - N x_N for its
    # point.  NaN and infinite targets read like any other.
    solves = []
    linalg_solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(a.shape)
        return linalg_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    read = 0
    for lp in oracle_lps():
        cold = solve(lp)
        if cold.basis is None:
            continue
        bound, out = price_basis(lp, cold.basis)
        for target, answers in [(bound, False), (bound - 1.0, False), (-np.inf, False), (np.nan, False),
                                (np.nextafter(bound, np.inf), True), (np.inf, True)]:
            solves.clear()
            got = price_basis(lp, cold.basis, target)
            assert got[0] == bound and (got[1] is not None) is answers, target
            assert len(solves) == (2 if answers else 1)
            if answers:
                assert_same_outcome(got[1], out)
        read += 1
    assert read >= 150


def test_infeasible_and_dependent_programs_leave_no_basis():
    # An infeasible program has no basis; a carried one cannot answer it,
    # though its duals still bound it (any bound is below +inf).
    lp = program([1.0], box([-10.0, 10.0]), [[1.0], [1.0]], [">=", "<="], [1.0, 0.0])
    feasible = solve(program([1.0], box([-10.0, 10.0]), [[1.0], [1.0]], [">=", "<="], [0.0, 1.0]))
    cold = solve(lp)
    assert cold.status is LpStatus.INFEASIBLE and cold.basis is None
    bound, out = price_basis(lp, feasible.basis)
    assert bound is not None and out is None
    # A linearly dependent "=" row keeps an artificial basic, pinned at 0;
    # that basis has no columns to name in a start.
    lp = program([1.0, 2.0], box([0.0, 1.0], [0.0, 1.0]), [[1.0, 1.0], [2.0, 2.0]], ["=", "="], [1.0, 2.0])
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL and out.basis is None
    assert abs(out.value - 1.0) < 1e-9


def test_a_nan_reduced_cost_raises_instead_of_reading_as_optimal(monkeypatch):
    # x0 + x1 = 1 over [0, 1]^2, x0 basic and x1 at its lower bound: the
    # tableau is optimal for cost (0, 1).  A NaN reduced cost, in a nonbasic
    # column or through a basic column's cost, must not read as "cannot
    # enter" and end the phase as optimal.
    def tableau():
        tab = _Tableau(np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2), np.ones(2), max_iter=10)
        tab.basis[0], tab.state[0] = 0, _BASIC
        tab.refresh()
        return tab

    tab = tableau()
    tab.run(np.array([0.0, 1.0]))
    assert (tab.iterations, tab.xb.tolist()) == (0, [1.0])
    for cost in ([0.0, np.nan], [np.nan, 1.0]):
        with pytest.raises(LpError, match="NaN"):
            tableau().run(np.array(cost))
    # nor does a carried basis priced at NaN read as optimal: the same
    # basis answers the program, until x1's column reads NaN where the
    # basis is priced (its duals, and so its bound, come from B alone)
    lp = LinearProgram([0.0, 1.0], box([0.0, 1.0], [0.0, 1.0]), [[1.0, 1.0]], [True], [1.0])
    basis = LpBasis(np.array([0]), np.array([_BASIC, _AT_LOWER]))
    bound, out = price_basis(lp, basis)
    assert -1e-12 <= bound <= 0.0 and out.value == 0.0 and out.point.tolist() == [1.0, 0.0]
    monkeypatch.setattr(lp_module, "_slacked", lambda lp: np.array([[1.0, np.nan]]))
    assert price_basis(lp, basis) == (bound, None)


def degenerate_rows():
    """Rows through the origin, a vertex of the box: long runs of zero steps.

    The second program reaches Bland's rule.  In relation form, as
    :func:`oracle_rows`.
    """
    rng = np.random.default_rng(5)
    for _ in range(3):
        n, m = 25, 75
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        cost = -rng.integers(1, 5, size=n).astype(float)
        yield cost, np.column_stack([np.zeros(n), np.ones(n)]), A, ["<="] * m, np.zeros(m)


def outcome_bits(out):
    parts = [out.status.value, str(out.iterations), str(out.warm)]
    if out.value is not None:
        parts += [out.value.hex(), out.point.tobytes().hex()]
    if out.basis is not None:
        parts += [side.astype(np.int64).tobytes().hex() for side in out.basis]
    return "|".join(parts).encode()


# SHA-256 of outcome_bits over the programs of test_outcomes_are_pinned_bit_for_bit
PINNED_OUTCOMES = "ba7b267328e0494ce3d38074681f8fdf1c50d087fc81ca9d02d9fe765d34f6a1"


def test_outcomes_are_pinned_bit_for_bit(monkeypatch):
    # Every pivot, tie-break and refresh shows in these bits: status, pivot
    # count, optimum, point, final basis.  The programs are the oracle
    # family solved cold, each optimal one's perturbation answered by its
    # basis where that is still optimal and solved cold elsewhere, and the
    # degenerate family, which runs Bland's rule.  A change to the solver
    # that keeps this hash takes the same pivots.
    bland = []
    entering = _Tableau._entering

    def recording_entering(self, reduced, use_bland):
        bland.append(use_bland)
        return entering(self, reduced, use_bland)

    monkeypatch.setattr(_Tableau, "_entering", recording_entering)
    digest = hashlib.sha256()
    rng = np.random.default_rng(99)
    for rows in oracle_rows():
        cold = solve(program(*rows))
        digest.update(outcome_bits(cold))
        if cold.basis is not None:
            new = perturbed(rows, rng)
            digest.update(outcome_bits(price_basis(new, cold.basis)[1] or solve(new)))
    for rows in degenerate_rows():
        digest.update(outcome_bits(solve(program(*rows))))
    assert sum(bland) > _BLAND_TRIGGER
    assert digest.hexdigest() == PINNED_OUTCOMES


def reference_entering(tab, reduced, bland):
    """The entering rule rebuilt from the column states and bounds."""
    movable = tab.hi - tab.lo > 0
    eligible = movable & np.where(
        tab.state == _AT_LOWER, reduced < -_OPT_TOL, (tab.state == _AT_UPPER) & (reduced > _OPT_TOL)
    )
    if not eligible.any():
        return None
    if bland:
        return int(np.argmax(eligible))
    return int(np.argmax(np.where(eligible, np.abs(reduced), -1.0)))


def reference_ratio_test(tab, j):
    """The ratio test rebuilt from the basis, the bounds and column j's state."""
    sigma = 1.0 if tab.state[j] == _AT_LOWER else -1.0
    delta = sigma * tab.T[:, j]
    blo, bhi = tab.lo[tab.basis], tab.hi[tab.basis]
    ratios = np.full(tab.m, np.inf)
    dec, inc = delta > _PIVOT_TOL, delta < -_PIVOT_TOL
    ratios[dec] = (tab.xb[dec] - blo[dec]) / delta[dec]
    ratios[inc] = (bhi[inc] - tab.xb[inc]) / (-delta[inc])
    ratios = np.maximum(ratios, 0.0)
    ratios[~np.isfinite(ratios)] = np.inf
    span = tab.hi[j] - tab.lo[j]
    t_rows = float(np.min(ratios, initial=np.inf))
    if span <= t_rows:
        return delta, span, None
    candidates = np.flatnonzero(ratios <= t_rows + 1e-12)
    return delta, t_rows, int(candidates[np.argmin(tab.basis[candidates])])


def test_each_pivot_matches_the_rules_built_from_the_states(monkeypatch):
    # The pivot loop keeps directions and basic bounds instead of rebuilding
    # them.  At every pricing and ratio test of the oracle and degenerate
    # families, and of the oracle programs perturbed, the kept arrays equal
    # the ones built from the states, and the entering column, step and
    # leaving row equal the rules that build them, bit for bit.
    entering, ratio_test = _Tableau._entering, _Tableau._ratio_test
    calls = {"entering": 0, "ratio": 0, "bland": 0}

    def checked_entering(self, reduced, bland):
        movable = self.hi - self.lo > 0
        assert np.array_equal(self.direction, np.select(
            [movable & (self.state == _AT_LOWER), movable & (self.state == _AT_UPPER)], [-1.0, 1.0]
        ))
        assert np.array_equal(self.blo, self.lo[self.basis]) and np.array_equal(self.bhi, self.hi[self.basis])
        got = entering(self, reduced, bland)
        assert got == reference_entering(self, reduced, bland)
        calls["entering"] += 1
        calls["bland"] += bland
        return got

    def checked_ratio_test(self, j, delta):
        want_delta, *want = reference_ratio_test(self, j)
        assert delta.tobytes() == want_delta.tobytes()
        got = ratio_test(self, j, delta)
        assert float(got[0]).hex() == float(want[0]).hex() and got[1] == want[1]
        calls["ratio"] += 1
        return got

    monkeypatch.setattr(_Tableau, "_entering", checked_entering)
    monkeypatch.setattr(_Tableau, "_ratio_test", checked_ratio_test)
    rng = np.random.default_rng(7)
    for rows in [*oracle_rows(), *degenerate_rows()]:
        solve(program(*rows))
        solve(perturbed(rows, rng, scale=1e-1))
    assert calls["ratio"] > 1000 and calls["bland"] > _BLAND_TRIGGER


def test_a_past_deadline_stops_the_simplex_at_its_first_pivot():
    # The deadline is read before each pivot: a solve that needs none ends
    # as without it, one that needs any raises LpTimeout, an LpError.
    past, later = time.perf_counter() - 1.0, time.perf_counter() + 3600.0
    stopped = 0
    for lp in oracle_lps():
        want = solve(lp)
        assert_same_outcome(solve(lp, deadline=later), want)
        if want.iterations == 0:
            assert_same_outcome(solve(lp, deadline=past), want)
            continue
        with pytest.raises(LpTimeout, match="deadline"):
            solve(lp, deadline=past)
        stopped += 1
    assert stopped >= 100
    assert issubclass(LpTimeout, LpError)


def test_a_head_starting_at_its_upper_bound_is_claimed_by_the_row_it_violates():
    # x in [0, 1] starts at its lower bound and y in [0, 2] at its upper one.
    # With a zero cost the outcome is the crash start itself.  y - x <= 0.5
    # is violated at (0, 2) and tight at y = 0.5 inside y's bounds: the row
    # claims y, with no phase 1.  y - x <= 3 holds there: the row starts on
    # its slack and y stays at its upper bound.  y - x <= -0.5 would need
    # y = -0.5, below its bound: the row gets an artificial.
    def start(rhs, at_upper=(False, True)):
        lp = LinearProgram(
            [0.0, 0.0], box([0.0, 1.0], [0.0, 2.0]), [[-1.0, 1.0]], [False], [rhs], np.array(at_upper)
        )
        return solve(lp)

    claimed = start(0.5)
    assert (claimed.iterations, claimed.phase1) == (0, 0)
    assert claimed.point.tolist() == [0.0, 0.5]
    assert claimed.basis.basic.tolist() == [1] and claimed.basis.state.tolist() == [_AT_LOWER, _BASIC, _AT_LOWER]
    satisfied = start(3.0)
    assert (satisfied.iterations, satisfied.point.tolist()) == (0, [0.0, 2.0])
    assert satisfied.basis.basic.tolist() == [2] and satisfied.basis.state.tolist() == [_AT_LOWER, _AT_UPPER, _BASIC]
    beyond = start(-0.5)
    assert beyond.phase1 > 0 and beyond.status is LpStatus.OPTIMAL
    # from the lower corner the same rows hold at (0, 0), except the last
    assert start(0.5, (False, False)).basis.basic.tolist() == [2]
    assert start(-0.5, (False, False)).phase1 > 0


def test_any_start_corner_reaches_the_same_optimum():
    # The mask names a start point, not a constraint: over the oracle family,
    # random start corners give the status of the all-lower start and its
    # optimum within the feasibility tolerance, at a feasible point that
    # achieves it.  Some corners take other pivots, so the start is used.
    rng = np.random.default_rng(24)
    moved = 0
    for lp in oracle_lps():
        lower = solve(lp)
        for at_upper in (rng.random(lp.num_vars) < 0.5, np.ones(lp.num_vars, dtype=bool)):
            out = solve(LinearProgram(lp.objective, lp.var_bounds, lp.A, lp.eq, lp.rhs, at_upper))
            assert out.status is lower.status
            moved += out.iterations != lower.iterations
            if out.status is LpStatus.OPTIMAL:
                assert abs(out.value - lower.value) <= _FEAS_TOL
                assert abs(float(lp.objective @ out.point) - out.value) < 1e-9
    assert moved >= 100


def test_phase1_counts_the_pivots_before_the_first_feasible_basis():
    # Phase 1 runs only for the rows the crash basis leaves uncovered: its
    # pivots are a share of the solve's, on the oracle programs and on
    # their perturbations alike.
    counted = 0
    rng = np.random.default_rng(7)
    for rows in oracle_rows():
        for lp in (program(*rows), perturbed(rows, rng, scale=1e-1)):
            out = solve(lp)
            assert 0 <= out.phase1 <= out.iterations
            counted += out.phase1
    assert counted > 0
    # 0 <= x + y <= 1 holds at the lower bounds: every row starts on its slack
    rows = [[1.0, 1.0], [1.0, 1.0]]
    lp = program([-1.0, -2.0], box([0.0, 2.0], [0.0, 2.0]), rows, ["<=", ">="], [1.0, 0.0])
    out = solve(lp)
    assert (out.phase1, out.iterations) == (0, 1)
    # x + y >= 1 does not, and the crash covers it with y = 1, which makes
    # it tight within y's bounds: no phase 1, and one pivot to the optimum
    out = solve(program([1.0, 2.0], box([0.0, 2.0], [0.0, 2.0]), [[1.0, 1.0]], [">="], [1.0]))
    assert (out.phase1, out.iterations, out.value) == (0, 1, 1.0)
    # x + y >= 3 would need y = 3, beyond its bound: the row starts on an
    # artificial, which phase 1 drives out in two pivots (x flips to its
    # upper bound, then y enters at 1), and that vertex is already optimal
    out = solve(program([1.0, 2.0], box([0.0, 2.0], [0.0, 2.0]), [[1.0, 1.0]], [">="], [3.0]))
    assert (out.phase1, out.iterations, out.value) == (2, 2, 4.0)


def test_a_row_missed_by_rounding_starts_on_its_slack():
    # x in [0, 0.1] starts at its upper bound and y in [0, 1] at its lower
    # one; the crash never visits x + y <= rhs, whose head y starts at its
    # lower bound under a positive coefficient.  With rhs one ulp below 0.1
    # the start point misses the row by rounding only: the row starts on
    # its slack, and the start is already optimal, with no pivot and one
    # factorization.  Missed by twice the feasibility tolerance, the row
    # gets an artificial and phase 1 repairs it.
    def program_with(rhs):
        return LinearProgram(
            [-1.0, 1.0], box([0.0, 0.1], [0.0, 1.0]), [[1.0, 1.0]], [False], [rhs],
            np.array([True, False]),
        )

    rounded = program_with(np.nextafter(0.1, 0.0))
    assert rounded.rhs[0] - 0.1 == -np.spacing(0.1)  # the start point's residual is -1 ulp
    out = solve(rounded)
    assert (out.status, out.phase1, out.iterations, out.factorizations) == (LpStatus.OPTIMAL, 0, 0, 1)
    assert out.basis.basic.tolist() == [2] and out.point.tolist() == [0.1, 0.0]
    status, value = vertex_minimum(rounded)
    assert status == "optimal" and abs(out.value - value) <= 1e-12
    violated = program_with(0.1 - 2 * _FEAS_TOL)
    out = solve(violated)
    assert out.status is LpStatus.OPTIMAL and out.phase1 > 0
    status, value = vertex_minimum(violated)
    assert status == "optimal" and abs(out.value - value) <= 1e-12


def test_a_cold_solve_factorizes_its_crash_basis_and_its_final_point():
    # Phase 2 continues on the tableau phase 1 leaves, and the final point
    # is re-solved only when a pivot moved it: over the oracle family a
    # cold solve that runs phase 1 to an optimum factorizes B twice, one
    # that pivots only in phase 2 twice, one that needs no pivot once, and
    # one that phase 1 proves infeasible once.
    seen = {"phase1": 0, "phase2": 0, "none": 0, "infeasible": 0}
    for lp in oracle_lps():
        out = solve(lp)
        if out.status is LpStatus.INFEASIBLE:
            kind, want = "infeasible", 1
        elif out.iterations == 0:
            kind, want = "none", 1
        else:
            kind, want = ("phase1" if out.phase1 else "phase2"), 2
        assert out.factorizations == want, (kind, out)
        seen[kind] += 1
    assert min(seen.values()) >= 30, seen

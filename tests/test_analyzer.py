"""Tests for bound computation and the LP-based analyzer."""

import math

import numpy as np
import pytest

from incver.analyzer import (
    AnalyzerVerdict,
    PreactBounds,
    Verdict,
    analyze,
    compute_bounds,
)
from incver.model import Affine, Network, Relu, ReluId
from incver.props import InputBox, OutputConstraint, Property
from bound_oracles import (
    brute_force_minimum,
    forward_with_preacts,
    grid_points,
    path_bounds,
    region_minimum,
)


def make_net(dims, rng=None, scale=1.0, name="t"):
    layers = []
    rng = rng or np.random.default_rng(0)
    for i in range(len(dims) - 1):
        layers.append(
            Affine(
                rng.normal(size=(dims[i + 1], dims[i])) * scale,
                rng.normal(size=dims[i + 1]) * scale,
            )
        )
        if i < len(dims) - 2:
            layers.append(Relu())
    return Network(tuple(layers), name=name)


def unit_box(n):
    return InputBox(np.zeros(n), np.ones(n))


def margin_prop(c, d, box):
    return Property(box, OutputConstraint(np.asarray(c, dtype=float), d))


# -------------------------------------------------------------- compute_bounds


def test_affine_only_net_exact_interval():
    net = Network((Affine(np.array([[2.0, -1.0], [0.5, 3.0]]), np.array([1.0, -2.0])),))
    box = InputBox(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    b = compute_bounds(net, box, {})
    # exact interval image: row 0: 2x - y + 1 over x in [0,1], y in [-1,1]
    assert np.allclose(b.out_lb, [0.0, -5.0])
    assert np.allclose(b.out_ub, [4.0, 1.5])


def test_degenerate_box_gives_point_values():
    rng = np.random.default_rng(3)
    net = make_net([2, 3, 2], rng)
    x0 = np.array([0.4, 0.6])
    box = InputBox(x0, x0)
    b = compute_bounds(net, box, {})
    pre, out = forward_with_preacts(net, x0)
    assert np.allclose(b.pre_lb[0], pre[0], atol=1e-9)
    assert np.allclose(b.pre_ub[0], pre[0], atol=1e-9)
    assert np.allclose(b.out_lb, out, atol=1e-9)
    assert np.allclose(b.out_ub, out, atol=1e-9)


def test_bounds_contain_grid_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(10):
        net = make_net([2, 3, 2, 1], rng)
        box = unit_box(2)
        b = compute_bounds(net, box, {})
        pts = grid_points(box, total=10_000)
        for x in pts:
            pre, out = forward_with_preacts(net, x)
            for k in range(len(pre)):
                assert np.all(pre[k] >= b.pre_lb[k] - 1e-9)
                assert np.all(pre[k] <= b.pre_ub[k] + 1e-9)
            assert np.all(out >= b.out_lb - 1e-9)
            assert np.all(out <= b.out_ub + 1e-9)


def test_split_clamps_pre_bounds():
    rng = np.random.default_rng(5)
    net = make_net([2, 4, 1], rng)
    box = unit_box(2)
    plain = compute_bounds(net, box, {})
    rid = ReluId(0, 0)
    if not plain.is_ambiguous(rid):
        pytest.skip("seed produced a stable unit")
    pos = compute_bounds(net, box, {rid: "+"})
    neg = compute_bounds(net, box, {rid: "-"})
    assert pos.pre_lb[0][0] >= 0.0
    assert neg.pre_ub[0][0] <= 0.0
    assert neg.post_ub[0][0] == 0.0


def assert_same_bounds(got, want):
    for name in ("pre_lb", "pre_ub", "post_lb", "post_ub", "kappa"):
        g, w = getattr(got, name), getattr(want, name)
        assert len(g) == len(w)
        assert all(np.array_equal(a, b) for a, b in zip(g, w))
    assert np.array_equal(got.out_lb, want.out_lb)
    assert np.array_equal(got.out_ub, want.out_ub)
    assert got.infeasible == want.infeasible


def test_bounds_nest_along_split_paths():
    # Each child is bounded from its parent: its intervals nest inside the
    # parent's, analyze hands on exactly the bounds compute_bounds gives, and
    # a child of an empty region is that region, unchanged.
    rng = np.random.default_rng(23)
    c = np.array([1.0, -1.0])
    for trial in range(20):
        net = make_net([3, 4, 3, 2], rng)
        box = unit_box(3)
        prop = margin_prop(c, 0.0, box)
        parent_splits = {}
        parent = path_bounds(net, box, parent_splits)
        # walk three levels, always splitting the first ambiguous unit
        for _ in range(3):
            amb = [
                ReluId(i, j)
                for i in range(parent.num_relu_layers())
                for j in range(len(parent.pre_lb[i]))
                if parent.is_ambiguous(ReluId(i, j)) and ReluId(i, j) not in parent_splits
            ]
            if not amb:
                break
            rid = amb[0]
            sign = "+" if rng.random() < 0.5 else "-"
            child_splits = dict(parent_splits)
            child_splits[rid] = sign
            child = path_bounds(net, box, child_splits)
            for k in range(child.num_relu_layers()):
                assert np.all(child.pre_lb[k] >= parent.pre_lb[k] - 1e-12)
                assert np.all(child.pre_ub[k] <= parent.pre_ub[k] + 1e-12)
            assert np.all(child.out_lb >= parent.out_lb - 1e-12)
            assert np.all(child.out_ub <= parent.out_ub + 1e-12)
            with_c = compute_bounds(net, box, child_splits, objective=c, parent=parent)
            if parent.infeasible:
                assert with_c is parent
            else:
                assert_same_bounds(with_c, path_bounds(net, box, child_splits, objective=c))
                assert_same_bounds(analyze(net, prop, child_splits, parent=parent).bounds, with_c)
            parent, parent_splits = child, child_splits


def test_crossing_split_flags_infeasible():
    # pre-activation is identically 1, so the negative branch is empty
    net = Network(
        (
            Affine(np.zeros((1, 1)), np.array([1.0])),
            Relu(),
            Affine(np.array([[1.0]]), np.array([0.0])),
        )
    )
    b = compute_bounds(net, unit_box(1), {ReluId(0, 0): "-"})
    assert b.infeasible


def test_kappa_hand_computed():
    # y = 3 relu(2x); on [-1, 2] the pre-activation spans [-2, 4], ambiguous
    # with identity lower relaxation, so the objective coefficient on the
    # pre-activation is 3
    net = Network(
        (
            Affine(np.array([[2.0]]), np.zeros(1)),
            Relu(),
            Affine(np.array([[3.0]]), np.zeros(1)),
        )
    )
    box = InputBox(np.array([-1.0]), np.array([2.0]))
    b = compute_bounds(net, box, {}, objective=np.array([1.0]))
    assert b.kappa is not None
    assert b.kappa_of(ReluId(0, 0)) == pytest.approx(3.0)


def test_bad_split_ids_rejected():
    net = make_net([2, 2, 1])
    with pytest.raises(ValueError):
        compute_bounds(net, unit_box(2), {ReluId(3, 0): "+"})
    with pytest.raises(ValueError):
        compute_bounds(net, unit_box(2), {ReluId(0, 0): "x"})


# --------------------------------------------------------------------- analyze


def test_constant_objective_verified():
    rng = np.random.default_rng(2)
    net = make_net([2, 3, 2], rng)
    prop = margin_prop([0.0, 0.0], 5.0, unit_box(2))
    v = analyze(net, prop, {})
    assert v.status is Verdict.VERIFIED
    assert v.lb_value == pytest.approx(5.0, abs=1e-9)


def test_soundness_on_sampled_points():
    rng = np.random.default_rng(31)
    for trial in range(15):
        net = make_net([2, 3, 2, 1], rng)
        prop = margin_prop([1.0], float(rng.normal()), unit_box(2))
        v = analyze(net, prop, {})
        if not math.isfinite(v.lb_value):
            continue
        pts = rng.uniform(0.0, 1.0, size=(300, 2))
        for x in pts:
            _, out = forward_with_preacts(net, x)
            assert prop.output.margin(out) >= v.lb_value - 1e-6


def test_soundness_under_splits():
    rng = np.random.default_rng(37)
    for trial in range(10):
        net = make_net([2, 3, 1], rng)
        prop = margin_prop([1.0], 0.0, unit_box(2))
        base = compute_bounds(net, prop.input, {})
        amb = [
            ReluId(0, j)
            for j in range(len(base.pre_lb[0]))
            if base.is_ambiguous(ReluId(0, j))
        ]
        if not amb:
            continue
        rid = amb[0]
        for sign, keep in (("+", lambda p: p >= 0), ("-", lambda p: p < 0)):
            v = analyze(net, prop, {rid: sign})
            if not math.isfinite(v.lb_value):
                continue
            for x in rng.uniform(0.0, 1.0, size=(400, 2)):
                pre, out = forward_with_preacts(net, x)
                if keep(pre[0][rid.neuron]):
                    assert prop.output.margin(out) >= v.lb_value - 1e-6


def test_monotone_under_splitting():
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(30):
        net = make_net([2, 3, 2, 1], rng)
        prop = margin_prop([1.0], float(rng.normal()), unit_box(2))
        splits = {}
        parent = analyze(net, prop, splits)
        for _ in range(4):
            b = path_bounds(net, prop.input, splits)
            amb = [
                ReluId(i, j)
                for i in range(b.num_relu_layers())
                for j in range(len(b.pre_lb[i]))
                if b.is_ambiguous(ReluId(i, j)) and ReluId(i, j) not in splits
            ]
            if not amb:
                break
            rid = amb[int(rng.integers(len(amb)))]
            lefts = dict(splits)
            lefts[rid] = "+"
            rights = dict(splits)
            rights[rid] = "-"
            left = analyze(net, prop, lefts, parent=b)
            right = analyze(net, prop, rights, parent=b)
            child_min = min(left.lb_value, right.lb_value)
            assert child_min >= parent.lb_value - 1e-6
            checked += 1
            # descend into the weaker child to keep stressing the chain
            splits, parent = (lefts, left) if left.lb_value <= right.lb_value else (rights, right)
    assert checked >= 20


def test_unknown_verdict_carries_the_objective_bounds():
    # The verifier picks an Unknown node's split from the verdict's bounds, so
    # they must equal, bit for bit, a separate bounding with the objective.
    rng = np.random.default_rng(67)
    checked = 0
    for trial in range(40):
        net = make_net([2, 3, 2, 1], rng)
        # threshold halfway between the root relaxation's bound and the true
        # minimum, so the root (and often its descendants) is Unknown
        probe = margin_prop([1.0], 0.0, unit_box(2))
        d = -(analyze(net, probe, {}).lb_value + brute_force_minimum(net, probe)) / 2.0
        prop = margin_prop([1.0], d, unit_box(2))
        splits = {}
        # split choices come from a per-trial stream: a verdict that flips on
        # rounding in one trial must not change the networks of later trials
        pick = np.random.default_rng([67, trial])
        for _ in range(4):
            v = analyze(net, prop, splits)
            if v.status is not Verdict.UNKNOWN:
                break
            got = v.bounds
            want = compute_bounds(net, prop.input, splits, objective=prop.output.c)
            assert_same_bounds(got, want)
            checked += 1
            amb = [
                ReluId(i, j)
                for i in range(got.num_relu_layers())
                for j in range(len(got.pre_lb[i]))
                if got.is_ambiguous(ReluId(i, j)) and ReluId(i, j) not in splits
            ]
            if not amb:
                break
            splits[amb[int(pick.integers(len(amb)))]] = "+" if pick.random() < 0.5 else "-"
    assert checked >= 20


def test_counterexamples_are_genuine():
    rng = np.random.default_rng(43)
    seen = 0
    for trial in range(40):
        net = make_net([2, 3, 1], rng)
        prop = margin_prop([1.0], float(rng.normal() - 2.0), unit_box(2))
        v = analyze(net, prop, {})
        if v.status is Verdict.COUNTEREXAMPLE:
            seen += 1
            assert v.candidate is not None
            _, out = forward_with_preacts(net, v.candidate)
            assert prop.output.margin(out) < 0
            assert prop.input.contains(v.candidate)
    assert seen >= 5


def test_fully_split_matches_region_oracle():
    rng = np.random.default_rng(47)
    compared = 0
    for trial in range(18):
        net = make_net([2, 2, 1], rng)
        prop = margin_prop([1.0], float(rng.normal()), unit_box(2))
        for pat_bits in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            pattern = [np.array(pat_bits, dtype=float)]
            splits = {
                ReluId(0, j): ("+" if pat_bits[j] > 0 else "-") for j in range(2)
            }
            want = region_minimum(net, prop, pattern)
            got = analyze(net, prop, splits)
            if want is None:
                # empty region: the analyzer must verify vacuously, not guess
                assert got.status is Verdict.VERIFIED
                assert got.infeasible
                continue
            assert math.isfinite(got.lb_value)
            assert got.lb_value == pytest.approx(want, abs=1e-6)
            compared += 1
    assert compared >= 20


def test_root_lb_never_above_brute_force_minimum():
    rng = np.random.default_rng(53)
    for trial in range(10):
        net = make_net([2, 3, 1], rng)
        prop = margin_prop([1.0], float(rng.normal()), unit_box(2))
        true_min = brute_force_minimum(net, prop)
        v = analyze(net, prop, {})
        assert v.lb_value <= true_min + 1e-6


def test_infeasible_region_verifies_vacuously():
    net = Network(
        (
            Affine(np.zeros((1, 1)), np.array([1.0])),
            Relu(),
            Affine(np.array([[1.0]]), np.array([-5.0])),
        )
    )
    prop = margin_prop([1.0], 0.0, unit_box(1))
    v = analyze(net, prop, {ReluId(0, 0): "-"})
    assert v.status is Verdict.VERIFIED
    assert v.infeasible
    assert v.lb_value == math.inf


def test_dimension_errors():
    net = make_net([2, 2, 1])
    with pytest.raises(ValueError):
        analyze(net, margin_prop([1.0, 1.0], 0.0, unit_box(2)), {})
    with pytest.raises(ValueError):
        compute_bounds(net, unit_box(3), {})

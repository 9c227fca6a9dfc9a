"""Tests for bound computation and the LP-based analyzer."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from incver.analyzer import (
    ACTIVE,
    AMBIGUOUS,
    INACTIVE,
    STABLE_TOL,
    AnalyzerVerdict,
    PreactBounds,
    Verdict,
    _build_program,
    _template,
    analyze,
    bound_regions,
    compute_bounds,
)
from incver.lp import LinearProgram, LpStatus, solve
from incver.model import Affine, Network, Relu, ReluId, quantize, relu_ids
from incver.props import InputBox, OutputConstraint, Property, holds_concretely
from bound_oracles import (
    all_sign_patterns,
    analyze_region,
    brute_force_minimum,
    exact_margin,
    forward_with_preacts,
    grid_points,
    path_bounds,
    reference_program,
    region_minimum,
    relaxed_minimum,
    separate_walk_bounds,
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
    if plain.phase[rid.layer][rid.neuron] != AMBIGUOUS:
        pytest.skip("seed produced a stable unit")
    pos = compute_bounds(net, box, {rid: "+"})
    neg = compute_bounds(net, box, {rid: "-"})
    assert pos.pre_lb[0][0] >= 0.0
    assert neg.pre_ub[0][0] <= 0.0
    assert pos.phase[0][0] == ACTIVE
    assert neg.phase[0][0] == INACTIVE


def test_minus_split_at_the_tolerance_corner_is_inactive():
    # The pre-activation is x + 5e-10 on [0, 1].  Split "-", its bounds cross
    # by 5e-10, less than CROSS_TOL, so the region is not flagged empty; the
    # unit is still inactive: it outputs exactly 0, and the LP pins its post
    # column to [0, 0] with no row for it.
    net = Network(
        (
            Affine(np.array([[1.0]]), np.array([5e-10])),
            Relu(),
            Affine(np.array([[1.0]]), np.array([0.0])),
        )
    )
    prop = margin_prop([1.0], 0.0, unit_box(1))
    bounds = compute_bounds(net, prop.input, {ReluId(0, 0): "-"}, objective=prop.output.c)
    assert not bounds.infeasible
    assert bounds.phase[0][0] == INACTIVE
    assert (bounds.out_lb[0], bounds.out_ub[0]) == (0.0, 0.0)
    lp = _build_program(net, prop, bounds)
    assert lp.eq.tolist() == [True, True]  # the two affine rows only
    assert lp.var_bounds[2].tolist() == [0.0, 0.0]  # columns: input, pre, post, output


def assert_same_bounds(got, want):
    for name in ("pre_lb", "pre_ub", "phase", "kappa"):
        g, w = getattr(got, name), getattr(want, name)
        assert len(g) == len(w)
        assert all(np.array_equal(a, b) for a, b in zip(g, w))
    assert np.array_equal(got.out_lb, want.out_lb)
    assert np.array_equal(got.out_ub, want.out_ub)
    assert got.infeasible == want.infeasible


def assert_phase_follows_splits_and_bounds(bounds, splits):
    # a split unit takes its sign's phase; an unsplit one is inactive if
    # u <= STABLE_TOL, else active if l >= -STABLE_TOL, else ambiguous
    for k in range(len(bounds.pre_lb)):
        for j, (l, u) in enumerate(zip(bounds.pre_lb[k], bounds.pre_ub[k])):
            sign = splits.get(ReluId(k, j))
            if sign is not None:
                want = ACTIVE if sign == "+" else INACTIVE
            else:
                want = INACTIVE if u <= STABLE_TOL else ACTIVE if l >= -STABLE_TOL else AMBIGUOUS
            assert bounds.phase[k][j] == want


def test_bounds_nest_along_split_paths():
    # Each child is bounded from its parent: its intervals nest inside the
    # parent's, each unit's phase follows its split or its own bounds,
    # analyze hands on exactly the bounds compute_bounds gives, and a child
    # of an empty region is that region, unchanged.
    rng = np.random.default_rng(23)
    c = np.array([1.0, -1.0])
    for trial in range(20):
        net = make_net([3, 4, 3, 2], rng)
        box = unit_box(3)
        prop = margin_prop(c, 0.0, box)
        parent_splits = {}
        parent = path_bounds(net, box, parent_splits)
        assert_phase_follows_splits_and_bounds(parent, parent_splits)
        # walk three levels, always splitting the first ambiguous unit
        for _ in range(3):
            amb = [
                ReluId(i, j)
                for i in range(len(parent.pre_lb))
                for j in range(len(parent.pre_lb[i]))
                if parent.phase[i][j] == AMBIGUOUS and ReluId(i, j) not in parent_splits
            ]
            if not amb:
                break
            rid = amb[0]
            sign = "+" if rng.random() < 0.5 else "-"
            child_splits = dict(parent_splits)
            child_splits[rid] = sign
            child = path_bounds(net, box, child_splits)
            assert_phase_follows_splits_and_bounds(child, child_splits)
            for k in range(len(child.pre_lb)):
                assert np.all(child.pre_lb[k] >= parent.pre_lb[k] - 1e-12)
                assert np.all(child.pre_ub[k] <= parent.pre_ub[k] + 1e-12)
            assert np.all(child.out_lb >= parent.out_lb - 1e-12)
            assert np.all(child.out_ub <= parent.out_ub + 1e-12)
            with_c = compute_bounds(net, box, child_splits, objective=c, parent=parent)
            if parent.infeasible:
                assert with_c is parent
            else:
                assert_same_bounds(with_c, path_bounds(net, box, child_splits, objective=c))
                assert_same_bounds(analyze_region(net, prop, child_splits, parent=parent).bounds, with_c)
            parent, parent_splits = child, child_splits


def test_stacked_walks_match_the_separate_walks():
    # One pass walks each layer's [W; -W] together and rides the objective's
    # row in the output block's walk; the reference walks each side and the
    # objective on its own.  Phases and the objective's upper sides must
    # agree exactly, every bound to 1e-12.
    rng = np.random.default_rng(77)
    affine = Network((Affine(np.array([[2.0, -1.0], [0.5, 3.0]]), np.array([1.0, -2.0])),))
    cases = [(affine, {}, None)]
    for trial in range(80):
        hidden = [int(w) for w in rng.integers(1, 6, size=int(rng.integers(1, 4)))]
        dims = [int(rng.integers(1, 4)), *hidden, int(rng.integers(1, 3))]
        net = make_net(dims, rng)
        rids = relu_ids(net)
        picked = rng.choice(len(rids), size=int(rng.integers(0, len(rids) // 2 + 2)), replace=False)
        items = [(rids[k], "+" if rng.random() < 0.5 else "-") for k in picked]
        cases.append((net, dict(items), items))
    compared = 0
    for net, splits, items in cases:
        box = unit_box(net.input_dim)
        c = rng.normal(size=net.output_dim)
        parents = [None]
        if items:
            above = dict(items[:-1])
            parents += [path_bounds(net, box, above), path_bounds(net, box, above, objective=c)]
        for parent, objective in itertools.product(parents, (None, c)):
            got = compute_bounds(net, box, splits, objective=objective, parent=parent)
            want = separate_walk_bounds(net, box, splits, objective=objective, parent=parent)
            if parent is not None and parent.infeasible:
                assert got is parent and want is parent
                continue
            assert got.infeasible == want.infeasible
            assert all(np.array_equal(g, w) for g, w in zip(got.phase, want.phase, strict=True))
            pairs = [*zip(got.pre_lb, want.pre_lb), *zip(got.pre_ub, want.pre_ub)]
            pairs += [(got.out_lb, want.out_lb), (got.out_ub, want.out_ub)]
            if objective is None:
                assert got.kappa is None and got.objective_lb is None and got.upper_side is None
            else:
                pairs += list(zip(got.kappa, want.kappa, strict=True))
                pairs.append((got.objective_lb, want.objective_lb))
                sides = zip(got.upper_side, want.upper_side, strict=True)
                assert all(np.array_equal(g, w) for g, w in sides)
            for g, w in pairs:
                assert np.allclose(g, w, rtol=0.0, atol=1e-12)
            compared += 1
    assert compared >= 300


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_identical(got, want):
    # the same bits in every field a pass computes
    for name in ("pre_lb", "pre_ub", "phase"):
        g, w = getattr(got, name), getattr(want, name)
        assert len(g) == len(w) and all(same_bits(a, b) for a, b in zip(g, w)), name
    assert same_bits(got.out_lb, want.out_lb) and same_bits(got.out_ub, want.out_ub)
    for name in ("kappa", "upper_side"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if g is not None:
            assert len(g) == len(w) and all(same_bits(a, b) for a, b in zip(g, w)), name
    lbs = (got.objective_lb, want.objective_lb)
    assert lbs == (None, None) or float(lbs[0]).hex() == float(lbs[1]).hex()
    assert got.infeasible == want.infeasible
    assert got.ambiguous == want.ambiguous


def test_child_takes_the_parents_layers_bit_for_bit():
    # A child on its parent's network and box takes the parent's bounds of
    # the layers up to its first split layer in place of their walks; it
    # must give what the full pass gives from a parent stripped of its
    # carry.  The paths split at the first, a middle and the last ReLU layer.
    rng = np.random.default_rng(91)
    steps = {"first": 0, "middle": 0, "last": 0}  # by the split's layer
    for trial in range(60):
        depth = 1 + trial % 3
        dims = [int(rng.integers(1, 4)), *rng.integers(2, 6, size=depth).tolist(), 2]
        net = make_net(dims, rng)
        box = unit_box(net.input_dim)
        c = rng.normal(size=2)
        layers = sorted({0, depth // 2, depth - 1})
        for objective in (None, c):
            splits = {}
            parent = compute_bounds(net, box, splits, objective=objective)
            assert parent.walks == depth + 1
            for step in range(6):
                layer = layers[step % len(layers)] if step < 3 else int(rng.choice(layers))
                free = [ReluId(layer, j) for j in range(dims[layer + 1])]
                free = [rid for rid in free if rid not in splits]
                if not free:
                    continue
                amb = [rid for rid in free if parent.phase[rid.layer][rid.neuron] == AMBIGUOUS]
                rid = amb[0] if amb else free[int(rng.integers(len(free)))]
                splits = {**splits, rid: "+" if rng.random() < 0.5 else "-"}
                child = compute_bounds(net, box, splits, objective=objective, parent=parent)
                if parent.infeasible:
                    assert child is parent
                    break
                full = compute_bounds(
                    net, box, splits, objective=objective, parent=replace(parent, carry=None)
                )
                assert_identical(child, full)
                assert full.walks == depth + 1
                assert child.walks == depth - layer
                steps["first" if layer == 0 else "last" if layer == depth - 1 else "middle"] += 1
                parent = child
    assert min(steps.values()) >= 50, steps


def test_no_reuse_across_networks_or_boxes():
    # A parent computed on another network (even its quantized copy) or
    # for another box hands nothing on: the child walks every layer and
    # gets the full pass's bits.  The per-layer arrays children share are
    # read-only.
    rng = np.random.default_rng(93)
    for trial in range(20):
        net = make_net([2, 4, 3, 2], rng)
        box = InputBox(np.array([0.2, 0.3]), np.array([0.7, 0.6]))
        wide = unit_box(2)
        same_values = InputBox(box.lower.copy(), box.upper.copy())
        c = rng.normal(size=2)
        cases = [
            (quantize(net, 8), box, compute_bounds(net, box, {})),
            (net, box, compute_bounds(net, wide, {})),
            (net, same_values, compute_bounds(net, box, {})),
        ]
        for other, child_box, parent in cases:
            rid = ReluId(int(rng.integers(2)), 0)
            for objective in (None, c):
                splits = {rid: "+" if rng.random() < 0.5 else "-"}
                child = compute_bounds(other, child_box, splits, objective=objective, parent=parent)
                stripped = replace(parent, carry=None)
                full = compute_bounds(other, child_box, splits, objective=objective, parent=stripped)
                assert_identical(child, full)
                assert child.walks == full.walks == 3

    bounds = compute_bounds(net, box, {ReluId(0, 0): "+"}, objective=c)
    for a in [*bounds.pre_lb, *bounds.pre_ub, *bounds.phase]:
        with pytest.raises(ValueError):
            a[0] = 1.0


def assert_same_children(net, box, splits, objective, got, want):
    # a child split at each ReLU layer, bounded from either, gets the same
    # bits and walks
    for layer, width in enumerate(b.size for _, b in net.blocks[:-1]):
        rid = ReluId(layer, width - 1)
        if rid in splits:
            continue
        child_splits = {**splits, rid: "-"}
        a = compute_bounds(net, box, child_splits, objective=objective, parent=got)
        b = compute_bounds(net, box, child_splits, objective=objective, parent=want)
        assert_identical(a, b)
        assert a.walks == b.walks


def test_a_batch_is_each_regions_own_pass_bit_for_bit():
    # bound_regions propagates a whole frontier in one batched pass; every
    # region must get the bits and walks that compute_bounds gives it alone,
    # and hand its children the same.  The frontiers mix sibling ReLU splits
    # at the first, a middle and the last layer, grandchildren that split
    # above their parent's split, input halves (a new box, so nothing
    # carried), a region with no parent and one under an empty parent, in
    # shuffled order.
    rng = np.random.default_rng(97)
    layers = {"first": 0, "middle": 0, "last": 0}
    for trial in range(40):
        depth = 1 + trial % 3
        dims = [int(rng.integers(1, 4)), *rng.integers(2, 6, size=depth).tolist(), 2]
        net = make_net(dims, rng)
        box = unit_box(net.input_dim)
        for objective in (None, rng.normal(size=2)):
            root = compute_bounds(net, box, {}, objective=objective)
            frontier = [(box, {}, None)]
            for layer in sorted({0, depth // 2, depth - 1}):
                rid = ReluId(layer, int(rng.integers(dims[layer + 1])))
                for sign in "+-":
                    frontier.append((box, {rid: sign}, root))
                child = compute_bounds(net, box, {rid: "+"}, objective=objective, parent=root)
                above = ReluId(0, int(rng.integers(dims[1])))
                if above != rid:
                    frontier.append((box, {rid: "+", above: "-"}, child))
                layers["first" if layer == 0 else "last" if layer == depth - 1 else "middle"] += 1
            dim = int(rng.integers(net.input_dim))
            for half in ("low", "high"):
                lower, upper = box.lower.copy(), box.upper.copy()
                (upper if half == "low" else lower)[dim] = 0.5
                frontier.append((InputBox(lower, upper), {}, root))
            empty = replace(root, infeasible=True)
            frontier.append((box, {ReluId(depth - 1, 0): "-"}, empty))
            order = rng.permutation(len(frontier))
            frontier = [frontier[k] for k in order]

            batch = bound_regions(net, frontier, objective)
            assert len(batch) == len(frontier)
            for (region_box, splits, parent), got in zip(frontier, batch):
                want = compute_bounds(net, region_box, splits, objective=objective, parent=parent)
                if parent is empty:
                    assert got is want is empty
                    continue
                assert_identical(got, want)
                assert got.walks == want.walks
                assert_same_children(net, region_box, splits, objective, got, want)
    assert min(layers.values()) >= 20, layers


def test_a_batch_over_equal_boxes_gets_the_shared_boxs_bits():
    # A batch reads one box for every region only when the regions hold the
    # same box object; equal boxes that are distinct objects are stacked,
    # and must give the bits of the batch over the one shared box.  Their
    # children of the root walk every layer (their box is not the root's
    # object), and get the same bits as the ones that take its layers.
    # Affine nets, with no ReLU layer, are among them.
    rng = np.random.default_rng(98)
    for trial in range(24):
        dims = [int(rng.integers(1, 4)), *rng.integers(2, 6, size=trial % 4).tolist(), 2]
        net = make_net(dims, rng)
        box = unit_box(net.input_dim)
        rids = relu_ids(net)
        for objective in (None, rng.normal(size=2)):
            root = compute_bounds(net, box, {}, objective=objective)
            shared = [(box, {}, None), (box, {}, root)]
            for k in rng.choice(len(rids), 2) if rids else []:
                shared += [(box, {rids[k]: sign}, parent) for sign in "+-" for parent in (None, root)]
            copies = [(InputBox(b.lower.copy(), b.upper.copy()), *region) for b, *region in shared]
            for got, want in zip(bound_regions(net, copies, objective), bound_regions(net, shared, objective)):
                assert_identical(got, want)


def test_the_ambiguity_flag_follows_the_phases():
    # Each region's flag is set in the pass's decide step; it must say
    # whether some unit's phase is AMBIGUOUS, for every region of a mixed
    # batch: a root, ReLU-split children that take their parent's layers
    # (one with every unit split), an input-split child and a child of an
    # infeasible parent.
    rng = np.random.default_rng(99)
    flags = []
    for trial in range(30):
        depth = 1 + trial % 3
        dims = [int(rng.integers(1, 4)), *rng.integers(2, 6, size=depth).tolist(), 2]
        net = make_net(dims, rng)
        box = unit_box(net.input_dim)
        for objective in (None, rng.normal(size=2)):
            root = compute_bounds(net, box, {}, objective=objective)
            rid = ReluId(depth - 1, int(rng.integers(dims[depth])))
            pre, _ = forward_with_preacts(net, rng.random(net.input_dim))
            every = {r: "+" if pre[r.layer][r.neuron] >= 0.0 else "-" for r in relu_ids(net)}
            lower, upper = box.lower.copy(), box.upper.copy()
            upper[0] = 0.5
            empty = replace(root, infeasible=True)
            frontier = [
                (box, {}, None), (box, {rid: "+"}, root), (box, {rid: "-"}, root), (box, every, root),
                (InputBox(lower, upper), {}, root), (box, {rid: "+"}, empty),
            ]
            batch = bound_regions(net, frontier, objective)
            assert batch[1].walks < len(net.blocks) and batch[-1] is empty
            for bounds in batch:
                assert bounds.ambiguous == any(np.any(p == AMBIGUOUS) for p in bounds.phase)
                flags.append(bounds.ambiguous)
    assert flags.count(True) >= 100 and flags.count(False) >= 20


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
    assert b.kappa[0][0] == pytest.approx(3.0)


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
    v = analyze_region(net, prop, {})
    assert v.status is Verdict.VERIFIED
    assert v.lb_value == pytest.approx(5.0, abs=1e-9)


def test_soundness_on_sampled_points():
    rng = np.random.default_rng(31)
    for trial in range(15):
        net = make_net([2, 3, 2, 1], rng)
        prop = margin_prop([1.0], float(rng.normal()), unit_box(2))
        v = analyze_region(net, prop, {})
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
            if base.phase[0][j] == AMBIGUOUS
        ]
        if not amb:
            continue
        rid = amb[0]
        for sign, keep in (("+", lambda p: p >= 0), ("-", lambda p: p < 0)):
            v = analyze_region(net, prop, {rid: sign})
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
        parent = analyze_region(net, prop, splits)
        for _ in range(4):
            # children start from the parent verdict's bounds, as in the
            # verifier; their intervals are path_bounds', bit for bit
            b = parent.bounds
            want = path_bounds(net, prop.input, splits)
            for name in ("pre_lb", "pre_ub", "phase"):
                got_layers, want_layers = getattr(b, name), getattr(want, name)
                assert [a.tobytes() for a in got_layers] == [a.tobytes() for a in want_layers]
            assert b.out_lb.tobytes() == want.out_lb.tobytes()
            assert b.out_ub.tobytes() == want.out_ub.tobytes()
            assert b.infeasible == want.infeasible
            amb = [
                ReluId(i, j)
                for i in range(len(b.pre_lb))
                for j in range(len(b.pre_lb[i]))
                if b.phase[i][j] == AMBIGUOUS and ReluId(i, j) not in splits
            ]
            if not amb:
                break
            rid = amb[int(rng.integers(len(amb)))]
            lefts = dict(splits)
            lefts[rid] = "+"
            rights = dict(splits)
            rights[rid] = "-"
            left = analyze_region(net, prop, lefts, parent=b)
            right = analyze_region(net, prop, rights, parent=b)
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
        d = -(relaxed_minimum(net, probe) + brute_force_minimum(net, probe)) / 2.0
        prop = margin_prop([1.0], d, unit_box(2))
        splits = {}
        # split choices come from a per-trial stream: a verdict that flips on
        # rounding in one trial must not change the networks of later trials
        pick = np.random.default_rng([67, trial])
        for _ in range(4):
            v = analyze_region(net, prop, splits)
            if v.status is not Verdict.UNKNOWN:
                break
            got = v.bounds
            want = compute_bounds(net, prop.input, splits, objective=prop.output.c)
            assert_same_bounds(got, want)
            checked += 1
            amb = [
                ReluId(i, j)
                for i in range(len(got.pre_lb))
                for j in range(len(got.pre_lb[i]))
                if got.phase[i][j] == AMBIGUOUS and ReluId(i, j) not in splits
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
        v = analyze_region(net, prop, {})
        if v.status is Verdict.COUNTEREXAMPLE:
            seen += 1
            assert v.candidate is not None
            _, out = forward_with_preacts(net, v.candidate)
            assert prop.output.margin(out) < 0
            assert prop.input.contains(v.candidate)
    assert seen >= 5


def corner_net():
    """1.2 - relu(x0 + .5) - relu(.5 - x0) - .25 * relu(x1 + 2) + 0 * relu(x1) on [-1, 1]^2.

    At the root the first two units are ambiguous, the third active and the
    fourth ambiguous.  The objective walk reads the chord of both ambiguous
    units, whose slopes on x0 cancel, so its corner is (-1, 1), where the
    margin is 1.2 - 1.5 - .75 = -1.05.
    """
    net = Network((
        Affine(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), np.array([0.5, 0.5, 2.0, 0.0])),
        Relu(),
        Affine(np.array([[-1.0, -1.0, -0.25, 0.0]]), np.array([1.2])),
    ))
    return net, margin_prop([1.0], 0.0, InputBox(-np.ones(2), np.ones(2)))


def walk_corner(prop, bounds):
    return np.where(bounds.upper_side[0], prop.input.upper, prop.input.lower)


def test_a_violating_walk_corner_refutes_a_new_box_without_its_lp():
    # A new box (its pass walked every layer) with an ambiguous unit and a
    # negative propagation bound is refuted at the corner its objective walk
    # names, when the network violates the property there: no LP, the
    # corner as the candidate bit for bit, and the propagation bound as lb.
    net, prop = corner_net()
    bounds = compute_bounds(net, prop.input, {}, objective=prop.output.c)
    assert bounds.walks == len(net.blocks) and bounds.ambiguous
    corner = walk_corner(prop, bounds)
    assert corner.tolist() == [-1.0, 1.0]
    v = analyze(net, prop, bounds)
    assert v.status is Verdict.COUNTEREXAMPLE
    assert v.lp is None
    assert v.candidate.tobytes() == corner.tobytes()
    assert v.lb_value == bounds.objective_lb + prop.output.d
    assert v.bounds is bounds and v.lb_value < 0.0
    assert exact_margin(net, prop, v.candidate) < 0


def test_a_region_with_every_relu_fixed_still_solves_its_lp():
    # The same net with every ReLU fixed by a split: its box is new and its
    # corner violates, but the LP is exact there, so the LP still runs.
    net, prop = corner_net()
    splits = {ReluId(0, 0): "+", ReluId(0, 1): "-", ReluId(0, 3): "+"}
    bounds = compute_bounds(net, prop.input, splits, objective=prop.output.c)
    assert bounds.walks == len(net.blocks) and not bounds.ambiguous
    corner = walk_corner(prop, bounds)
    assert bounds.objective_lb + prop.output.d < 0.0 and not holds_concretely(prop, net, corner)
    v = analyze(net, prop, bounds)
    assert v.lp is not None
    assert v.status is Verdict.COUNTEREXAMPLE
    assert exact_margin(net, prop, v.candidate) < 0


def test_a_relu_split_child_still_solves_its_lp():
    # A ReLU split's child keeps its parent's box, and its pass takes the
    # parent's layer in place of a walk: its corner is not checked, though
    # it still has ambiguous units, a negative bound and a violating corner.
    net, prop = corner_net()
    root = compute_bounds(net, prop.input, {}, objective=prop.output.c)
    child = compute_bounds(net, prop.input, {ReluId(0, 3): "+"}, objective=prop.output.c, parent=root)
    assert child.walks < len(net.blocks) and child.ambiguous
    corner = walk_corner(prop, child)
    assert child.objective_lb + prop.output.d < 0.0 and not holds_concretely(prop, net, corner)
    v = analyze(net, prop, child)
    assert v.lp is not None
    assert v.status is Verdict.COUNTEREXAMPLE  # through the LP's argmin
    assert exact_margin(net, prop, v.candidate) < 0


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
            got = analyze_region(net, prop, splits)
            if want is None:
                # empty region: the analyzer must verify vacuously, not guess
                assert got.status is Verdict.VERIFIED
                assert got.infeasible
                continue
            assert math.isfinite(got.lb_value)
            assert got.lb_value == pytest.approx(want, abs=1e-6)
            compared += 1
    assert compared >= 20


def region_grid_minimum(net, prop, splits):
    """Minimum of c^T N(x) + d over the grid points inside the split region,
    or None when no grid point lies in it."""
    best = None
    for x in grid_points(prop.input, total=2_500):
        pre, out = forward_with_preacts(net, x)
        if all((pre[r.layer][r.neuron] >= 0) == (s == "+") for r, s in splits.items()):
            m = prop.output.margin(out)
            best = m if best is None else min(best, m)
    return best


def test_propagation_verdicts_are_sound():
    # A region verified without an LP (pivots None) records the propagation
    # bound, at least its parent's: nonnegative, below every grid point's
    # margin in the region, and no tighter than the region's own LP.  That
    # LP may be infeasible where the region is empty, though propagation
    # did not find it so; then every full sign pattern that the splits
    # allow is empty too.
    rng = np.random.default_rng(59)
    skipped = 0

    def check(net, prop, splits, v):
        nonlocal skipped
        if v.status is not Verdict.VERIFIED or v.lp is not None or v.infeasible:
            return
        skipped += 1
        assert v.lb_value >= 0.0
        grid_min = region_grid_minimum(net, prop, splits)
        if grid_min is not None:
            assert v.lb_value <= grid_min + 1e-9
        out = solve(_build_program(net, prop, v.bounds))
        if out.status is LpStatus.INFEASIBLE:
            signs = {rid: 1.0 if sign == "+" else -1.0 for rid, sign in splits.items()}
            allowed = [
                pattern for pattern in all_sign_patterns(net)
                if all(pattern[rid.layer][rid.neuron] == sign for rid, sign in signs.items())
            ]
            assert all(region_minimum(net, prop, pattern) is None for pattern in allowed)
            return
        assert out.status is LpStatus.OPTIMAL
        assert v.lb_value <= out.value + prop.output.d + 1e-9

    for trial in range(40):
        net = make_net([2, 3, 3, 1], rng)
        c = np.array([1.0])
        box = unit_box(2)
        p0 = compute_bounds(net, box, {}, objective=c).objective_lb
        g0 = region_grid_minimum(net, margin_prop(c, 0.0, box), {})
        # from "propagation proves the root" (t < 0) to "the root is Unknown"
        t = float(rng.uniform(-1.0, 1.0))
        prop = margin_prop(c, -(p0 + t * (g0 - p0)), box)
        splits, v = {}, analyze_region(net, prop, {})
        check(net, prop, splits, v)
        for _ in range(5):
            amb = [rid for rid in relu_ids(net) if v.bounds.phase[rid.layer][rid.neuron] == AMBIGUOUS]
            if v.status is not Verdict.UNKNOWN or not amb:
                break
            rid = amb[int(rng.integers(len(amb)))]
            children = []
            for sign in "+-":
                child_splits = {**splits, rid: sign}
                child = analyze_region(net, prop, child_splits, parent=v.bounds)
                check(net, prop, child_splits, child)
                children.append((child_splits, child))
            unknown = [pair for pair in children if pair[1].status is Verdict.UNKNOWN]
            if not unknown:
                break
            splits, v = unknown[int(rng.integers(len(unknown)))]
    assert skipped >= 20


def test_fully_split_region_solves_its_lp():
    # With no ambiguous unit left the LP is exact and propagation is not, so
    # the LP runs even where the propagation bound alone would verify.
    rng = np.random.default_rng(61)
    tighter = 0
    for trial in range(18):
        net = make_net([2, 2, 1], rng)
        c = np.array([1.0])
        for pat_bits in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            splits = {ReluId(0, j): ("+" if pat_bits[j] > 0 else "-") for j in range(2)}
            bounds = compute_bounds(net, unit_box(2), splits, objective=c)
            if bounds.infeasible:
                continue
            prop = margin_prop(c, -bounds.objective_lb, unit_box(2))  # propagation lb + d == 0
            v = analyze_region(net, prop, splits)
            if v.infeasible:
                continue
            assert v.lp is not None
            want = region_minimum(net, prop, [np.array(pat_bits, dtype=float)])
            assert v.lb_value == pytest.approx(want, abs=1e-6)
            tighter += v.lb_value > 1e-6
    assert tighter >= 10


def test_root_lb_never_above_brute_force_minimum():
    rng = np.random.default_rng(53)
    for trial in range(10):
        net = make_net([2, 3, 1], rng)
        prop = margin_prop([1.0], float(rng.normal()), unit_box(2))
        true_min = brute_force_minimum(net, prop)
        v = analyze_region(net, prop, {})
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
    v = analyze_region(net, prop, {ReluId(0, 0): "-"})
    assert v.status is Verdict.VERIFIED
    assert v.infeasible
    assert v.lb_value == math.inf


def test_dimension_errors():
    net = make_net([2, 2, 1])
    with pytest.raises(ValueError):
        analyze_region(net, margin_prop([1.0, 1.0], 0.0, unit_box(2)), {})
    with pytest.raises(ValueError):
        compute_bounds(net, unit_box(3), {})


# --------------------------------------------------------------- bounding LP


def random_programs(seed, trials):
    """Random nets, properties and split sets, with the bounds the verifier
    would hand the LP builder; infeasible regions (no LP) are skipped."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        hidden = [int(w) for w in rng.integers(1, 6, size=int(rng.integers(1, 4)))]
        dims = [int(rng.integers(1, 4)), *hidden, int(rng.integers(1, 3))]
        net = make_net(dims, rng)
        box = unit_box(dims[0])
        prop = margin_prop(rng.normal(size=dims[-1]), 0.0, box)
        rids = relu_ids(net)
        picked = rng.choice(len(rids), size=int(rng.integers(0, len(rids) // 2 + 1)), replace=False)
        splits = {rids[k]: ("+" if rng.random() < 0.5 else "-") for k in picked}
        bounds = path_bounds(net, box, splits, objective=prop.output.c)
        if not bounds.infeasible:
            yield net, prop, splits, bounds


def row_by_row_program(net, prop, splits, bounds):
    """The bounding LP written one row at a time, in the builder's order:
    each layer's affine rows, then unit by unit nothing (inactive), the "="
    row (active) or the "pre - post <= 0" row and its chord (ambiguous);
    output rows last.

    A unit is inactive if split "-" or, unsplit, if u <= STABLE_TOL; else
    active if split "+" or l >= -STABLE_TOL; else ambiguous.  Its post
    column is [0, 0] if inactive and max(pre, 0) otherwise."""
    blocks = net.blocks
    widths = [W.shape[0] for W, _ in blocks]
    lo = [prop.input.lower]
    hi = [prop.input.upper]
    kinds = []
    for i in range(len(widths) - 1):
        kind = []
        for j in range(widths[i]):
            sign, l, u = splits.get(ReluId(i, j)), bounds.pre_lb[i][j], bounds.pre_ub[i][j]
            if sign == "-" or (sign is None and u <= STABLE_TOL):
                kind.append("inactive")
            elif sign == "+" or l >= -STABLE_TOL:
                kind.append("active")
            else:
                kind.append("ambiguous")
        on = np.array([k != "inactive" for k in kind])
        lo += [bounds.pre_lb[i], np.where(on, np.maximum(bounds.pre_lb[i], 0.0), 0.0)]
        hi += [bounds.pre_ub[i], np.where(on, np.maximum(bounds.pre_ub[i], 0.0), 0.0)]
        kinds.append(kind)
    lo = np.concatenate(lo + [bounds.out_lb])
    hi = np.concatenate(hi + [bounds.out_ub])
    rows, eq, rhs = [], [], []

    def add(entries, rel, value):
        row = np.zeros(lo.size)
        for col, coef in entries:
            row[col] = coef
        rows.append(row)
        eq.append(rel == "=")
        rhs.append(value)

    src_off, src_n = 0, net.input_dim
    for i, (W, b) in enumerate(blocks):
        dst = src_off + src_n
        for r in range(W.shape[0]):
            add([*zip(range(src_off, src_off + src_n), W[r]), (dst + r, -1.0)], "=", -float(b[r]))
        if i == len(blocks) - 1:
            break
        for j in range(widths[i]):
            pre_v, post_v = dst + j, dst + widths[i] + j
            l, u = lo[pre_v], hi[pre_v]
            if kinds[i][j] == "inactive":
                continue
            if kinds[i][j] == "active":
                add([(post_v, 1.0), (pre_v, -1.0)], "=", 0.0)
                continue
            add([(post_v, -1.0), (pre_v, 1.0)], "<=", 0.0)
            slope = u / (u - l)
            add([(post_v, 1.0), (pre_v, -slope)], "<=", -slope * l)
        src_off, src_n = dst + widths[i], widths[i]
    objective = np.zeros(lo.size)
    objective[lo.size - net.output_dim :] = prop.output.c
    return objective, np.column_stack([lo, hi]), np.array(rows), eq, np.array(rhs)


def test_program_matches_the_row_by_row_reference():
    # The builder writes A, eq and rhs in blocks of array operations; they
    # must hold the reference's rows in the reference's order, bit for bit.
    affine = Network((Affine(np.array([[2.0, -1.0]]), np.array([1.0])),))
    affine_prop = margin_prop([1.0], 0.5, unit_box(2))
    no_relu = (affine, affine_prop, {}, compute_bounds(affine, affine_prop.input, {}))
    built = 0
    for net, prop, splits, bounds in [no_relu, *random_programs(612, 60)]:
        lp = _build_program(net, prop, bounds)
        objective, var_bounds, A, eq, rhs = row_by_row_program(net, prop, splits, bounds)
        assert lp.objective.tobytes() == objective.tobytes()
        assert lp.var_bounds.tobytes() == var_bounds.tobytes()
        assert lp.A.tobytes() == A.tobytes()
        assert lp.eq.tolist() == eq
        assert lp.rhs.tobytes() == rhs.tobytes()
        built += 1
    assert built >= 30


def assert_same_program(got, want):
    for name in ("objective", "var_bounds", "A", "eq", "rhs", "at_upper"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


def test_template_program_matches_the_reference_builder():
    # The builder gathers its rows from the network's template and writes
    # only the node's own entries; every array must be the bits of the
    # reference builder, which writes each program afresh.  Nets with one
    # and three ReLU layers, at the root, under splits of both signs, with
    # every unit split (no ambiguous unit), and on input-split child boxes.
    rng = np.random.default_rng(614)
    seen = {"ambiguous": 0, "stable": 0, "plus": 0, "minus": 0, "input": 0}
    for trial in range(12):
        dims = [3, 5, 2] if trial % 2 else [2, 4, 3, 5, 2]
        net = make_net(dims, rng)
        box = unit_box(net.input_dim)
        prop = margin_prop(rng.normal(size=dims[-1]), 0.0, box)
        c = prop.output.c
        root = compute_bounds(net, box, {}, objective=c)
        rids = relu_ids(net)
        picked = [rids[k] for k in rng.choice(len(rids), size=3, replace=False)]
        pre, _ = forward_with_preacts(net, rng.random(net.input_dim))  # a point the region keeps
        every = {rid: "+" if pre[rid.layer][rid.neuron] >= 0.0 else "-" for rid in rids}
        regions = [(box, {}, None), (box, every, root)]
        regions += [(box, {rid: sign}, root) for rid in picked for sign in "+-"]
        for half in ("low", "high"):
            lower, upper = box.lower.copy(), box.upper.copy()
            (upper if half == "low" else lower)[trial % net.input_dim] = 0.5
            regions.append((InputBox(lower, upper), {}, root))
        for region_box, splits, parent in regions:
            bounds = compute_bounds(net, region_box, splits, objective=c, parent=parent)
            if bounds.infeasible:
                continue
            node_prop = Property(region_box, prop.output)
            want = reference_program(net, node_prop, bounds)
            assert_same_program(_build_program(net, node_prop, bounds), want)
            seen["ambiguous" if bounds.ambiguous else "stable"] += 1
            seen["plus"] += "+" in splits.values()
            seen["minus"] += "-" in splits.values()
            seen["input"] += region_box is not box
    assert min(seen.values()) >= 10, seen


def test_the_template_is_built_once_per_network_and_read_only():
    # One template per network, shared by every program: a second call
    # returns the same object, its arrays refuse writes, and a program
    # written into after it is built leaves the template, and so the next
    # program, as they were.
    net = make_net([2, 4, 3, 1], np.random.default_rng(615))
    prop = margin_prop([1.0], 0.0, unit_box(2))
    template = _template(net)
    assert _template(net) is template
    assert _template(quantize(net, 8)) is not template
    before = [a.copy() for a in template]
    for a in template:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1
    bounds = compute_bounds(net, prop.input, {}, objective=prop.output.c)
    lp = _build_program(net, prop, bounds)
    assert lp.A.size and all(a.flags.writeable for a in (lp.A, lp.eq, lp.rhs))
    lp.A[...] = 7.0
    lp.eq[...] = False
    lp.rhs[...] = 7.0
    assert all(same_bits(a, b) for a, b in zip(_template(net), before))
    assert_same_program(_build_program(net, prop, bounds), reference_program(net, prop, bounds))


def test_program_starts_where_the_objective_walk_points():
    # The LP's start mask is the objective walk's upper sides, as the
    # reference reads them from its own walk: each input whose coefficient
    # is negative, and each ambiguous unit's post whose coefficient is
    # negative (the walk read its chord).  Every other column starts at its
    # lower bound.  The start does not move the optimum.
    corners = chords = 0
    for net, prop, splits, bounds in random_programs(613, 80):
        items = list(splits.items())
        parent = path_bounds(net, prop.input, dict(items[:-1])) if items else None
        want = separate_walk_bounds(net, prop.input, splits, objective=prop.output.c, parent=parent)
        lp = _build_program(net, prop, bounds)
        corner, *posts = want.upper_side
        expected = np.zeros(lp.num_vars, dtype=bool)
        expected[: net.input_dim] = corner
        offset = net.input_dim
        for phase, side in zip(bounds.phase, posts):
            w = phase.size
            expected[offset + w : offset + 2 * w] = side & (phase == AMBIGUOUS)  # the post columns
            offset += 2 * w
        assert np.array_equal(lp.at_upper, expected)
        corners += int(corner.sum())
        chords += int(expected[net.input_dim :].sum())
        lower = LinearProgram(lp.objective, lp.var_bounds, lp.A, lp.eq, lp.rhs)
        got, want_out = solve(lp), solve(lower)
        assert got.status is want_out.status
        if got.status is LpStatus.OPTIMAL:
            assert abs(got.value - want_out.value) <= 1e-7
    assert corners >= 40 and chords >= 20


def test_program_layout_feeds_the_crash_basis():
    # The solver's crash basis takes each "=" row's last nonzero column as
    # basic, and a "<=" row's where the start point violates it (lp module
    # docstring).  The bounding LP must end every "=" row with -1 or 1 on
    # its own pre, post or output column, never two rows on one column, and
    # give each ambiguous unit exactly two "<=" rows over its own pre and
    # post columns, both ending on post, the first with -1 (pre - post <= 0)
    # and the second, its chord, with 1.  So the rows have full rank, and
    # every optimal LP leaves a basis: no artificial stays basic on a
    # dependent row.
    checked = ambiguous_seen = optimal = phase1 = 0
    for net, prop, splits, bounds in random_programs(611, 80):
        lp = _build_program(net, prop, bounds)
        dims = [net.input_dim] + [W.shape[0] for W, _ in net.blocks]
        hidden = dims[1:-1]
        rids = relu_ids(net)

        # columns: input, (pre, post) per ReLU layer, output
        offset = [dims[0] + 2 * sum(hidden[:i]) for i in range(len(hidden))]
        pre = {rid: offset[rid.layer] + rid.neuron for rid in rids}
        post = {rid: pre[rid] + hidden[rid.layer] for rid in rids}
        n_out_start = lp.num_vars - dims[-1]
        assert n_out_start == dims[0] + 2 * sum(hidden)
        stable_on = {
            rid
            for rid in rids
            if bounds.pre_lb[rid.layer][rid.neuron] >= -STABLE_TOL
            and bounds.pre_ub[rid.layer][rid.neuron] > STABLE_TOL
        }
        active = {rid for rid in rids if splits.get(rid, "+" if rid in stable_on else None) == "+"}
        ambiguous = {
            rid for rid in rids if rid not in splits and bounds.phase[rid.layer][rid.neuron] == AMBIGUOUS
        }

        eq_rows = np.flatnonzero(lp.eq)
        heads = [int(np.flatnonzero(lp.A[i])[-1]) for i in eq_rows]
        assert len(set(heads)) == len(heads), "two = rows end on one column"
        assert set(heads) == (
            set(pre.values())
            | {post[rid] for rid in active}
            | set(range(n_out_start, lp.num_vars))
        )
        for i, head in zip(eq_rows, heads):
            assert abs(lp.A[i, head]) == 1.0
            if head in post.values():
                rid = next(r for r in rids if post[r] == head)
                assert np.flatnonzero(lp.A[i]).tolist() == [pre[rid], post[rid]]

        per_unit = {}
        for i in np.flatnonzero(~lp.eq):
            cols = np.flatnonzero(lp.A[i]).tolist()
            rid = next(r for r in rids if post[r] == cols[-1])
            assert set(cols) <= {pre[rid], post[rid]}
            per_unit.setdefault(rid, []).append(float(lp.A[i, post[rid]]))
        assert set(per_unit) == ambiguous
        assert all(heads == [-1.0, 1.0] for heads in per_unit.values())

        out = solve(lp)
        if out.status is LpStatus.OPTIMAL:
            assert out.basis is not None, "an optimal analyzer LP left an artificial basic"
            optimal += 1
            phase1 += out.phase1 > 0
        checked += 1
        ambiguous_seen += len(ambiguous)
    assert checked >= 40 and ambiguous_seen >= 60
    # phase 1 runs on some of them, so the artificials' eviction is exercised
    assert optimal >= 40 and phase1 >= 5


def chained(net, regions, objective):
    """Each region's compute_bounds from its parent's result, a parent in
    the batch handing on no objective bound."""
    done = []
    for box, splits, parent in regions:
        if isinstance(parent, int):
            parent = done[parent]
            if not parent.infeasible:
                parent = replace(parent, objective_lb=None)
        done.append(compute_bounds(net, box, splits, objective=objective, parent=parent))
    return done


def test_a_tree_in_one_batch_gets_each_nodes_own_pass_bit_for_bit():
    # A region may name an earlier region of its batch as its parent, so a
    # whole tree is bounded in one call.  Each node must get the bits of
    # chained compute_bounds calls: ReLU trees whose splits sit at different
    # layers (children take different prefixes), input trees, a batch that
    # mixes external and in-batch parents, and an infeasible internal node,
    # whose whole subtree gets its bounds object.
    rng = np.random.default_rng(101)
    empties = 0
    for trial in range(30):
        depth = 1 + trial % 3
        dims = [int(rng.integers(1, 4)), *rng.integers(2, 6, size=depth).tolist(), 2]
        net = make_net(dims, rng)
        box = unit_box(net.input_dim)
        rids = relu_ids(net)
        objective = rng.normal(size=2)
        outside = compute_bounds(net, box, {}, objective=objective)
        for kind in ("relu", "input", "mixed"):
            regions = [(box, {}, None if kind != "mixed" else outside)]
            for k in range(12):  # each region's parent is an earlier one
                p = int(rng.integers(len(regions)))
                pbox, psplits, _ = regions[p]
                if kind == "input":
                    dim = int(rng.integers(net.input_dim))
                    lower, upper = pbox.lower.copy(), pbox.upper.copy()
                    mid = (lower[dim] + upper[dim]) / 2
                    (upper if rng.random() < 0.5 else lower)[dim] = mid
                    regions.append((InputBox(lower, upper), psplits, p))
                else:
                    free = [rid for rid in rids if rid not in psplits]
                    if not free:
                        continue
                    rid = free[int(rng.integers(len(free)))]
                    parent = p if kind == "relu" or rng.random() < 0.5 else outside
                    regions.append((pbox, {**psplits, rid: "+" if rng.random() < 0.5 else "-"}, parent))
            batch = bound_regions(net, regions, objective)
            want = chained(net, regions, objective)
            for (_, _, parent), got, ref in zip(regions, batch, want):
                if isinstance(parent, int) and want[parent].infeasible:
                    assert got is batch[parent]
                    empties += 1
                    continue
                assert_identical(got, ref)
                assert got.walks == ref.walks
    assert empties >= 5


def test_a_parent_index_must_name_an_earlier_region():
    # a region's own index, a later one, a negative one and a non-integer are refused
    net = make_net([2, 3, 2])
    box = unit_box(2)
    for parent in (1, 2, -1, 0.0):
        with pytest.raises(ValueError, match="not an earlier region"):
            bound_regions(net, [(box, {}, None), (box, {}, parent), (box, {}, None)])

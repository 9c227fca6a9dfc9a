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
import incver.lp as lp_module
from incver.lp import LinearProgram, LpStatus, solve
from incver.model import Affine, Network, Relu, ReluId, quantize, relu_ids
from incver.props import InputBox, OutputConstraint, Property, holds_concretely
from bound_oracles import (
    all_sign_patterns,
    analyze_region,
    brute_force_minimum,
    by_layer,
    exact_margin,
    flat,
    forward_with_preacts,
    full_program,
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
    assert np.allclose(b.pre_lb, flat(pre), atol=1e-9)
    assert np.allclose(b.pre_ub, flat(pre), atol=1e-9)
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
            assert np.all(flat(pre) >= b.pre_lb - 1e-9)
            assert np.all(flat(pre) <= b.pre_ub + 1e-9)
            assert np.all(out >= b.out_lb - 1e-9)
            assert np.all(out <= b.out_ub + 1e-9)


def test_split_clamps_pre_bounds():
    rng = np.random.default_rng(5)
    net = make_net([2, 4, 1], rng)
    box = unit_box(2)
    plain = compute_bounds(net, box, {})
    rid = ReluId(0, 0)  # the first unit
    if plain.phase[0] != AMBIGUOUS:
        pytest.skip("seed produced a stable unit")
    pos = compute_bounds(net, box, {rid: "+"})
    neg = compute_bounds(net, box, {rid: "-"})
    assert pos.pre_lb[0] >= 0.0
    assert neg.pre_ub[0] <= 0.0
    assert pos.phase[0] == ACTIVE
    assert neg.phase[0] == INACTIVE


def test_minus_split_at_the_tolerance_corner_is_inactive():
    # The pre-activation is x + 5e-10 on [0, 1].  Split "-", its bounds cross
    # by 5e-10, less than CROSS_TOL, so the region is not flagged empty; the
    # unit is still inactive: it outputs exactly 0, and the LP has neither a
    # post column nor a row for it.
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
    assert bounds.phase.tolist() == [INACTIVE]
    assert (bounds.out_lb[0], bounds.out_ub[0]) == (0.0, 0.0)
    lp = _build_program(net, prop, bounds)
    assert lp.eq.tolist() == [True, True]  # the two affine rows only
    assert lp.num_vars == 3  # columns: input, pre, output
    assert lp.A[1].tolist() == [0.0, 0.0, -1.0]  # the output row reads the post as 0
    assert lp.var_bounds[2].tolist() == [0.0, 0.0]


def assert_same_bounds(got, want):
    for name in ("pre_lb", "pre_ub", "phase", "kappa"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.out_lb, want.out_lb)
    assert np.array_equal(got.out_ub, want.out_ub)
    assert got.infeasible == want.infeasible


def assert_phase_follows_splits_and_bounds(net, bounds, splits):
    # a split unit takes its sign's phase; an unsplit one is inactive if
    # u <= STABLE_TOL, else active if l >= -STABLE_TOL, else ambiguous
    assert bounds.phase.shape == (len(relu_ids(net)),)
    for rid, l, u, phase in zip(relu_ids(net), bounds.pre_lb, bounds.pre_ub, bounds.phase):
        sign = splits.get(rid)
        if sign is not None:
            want = ACTIVE if sign == "+" else INACTIVE
        else:
            want = INACTIVE if u <= STABLE_TOL else ACTIVE if l >= -STABLE_TOL else AMBIGUOUS
        assert phase == want


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
        assert_phase_follows_splits_and_bounds(net, parent, parent_splits)
        # walk three levels, always splitting the first ambiguous unit
        for _ in range(3):
            amb = [
                rid
                for rid, phase in zip(relu_ids(net), parent.phase)
                if phase == AMBIGUOUS and rid not in parent_splits
            ]
            if not amb:
                break
            rid = amb[0]
            sign = "+" if rng.random() < 0.5 else "-"
            child_splits = dict(parent_splits)
            child_splits[rid] = sign
            child = path_bounds(net, box, child_splits)
            assert_phase_follows_splits_and_bounds(net, child, child_splits)
            assert np.all(child.pre_lb >= parent.pre_lb - 1e-12)
            assert np.all(child.pre_ub <= parent.pre_ub + 1e-12)
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
            assert np.array_equal(got.phase, want.phase)
            pairs = [(got.pre_lb, want.pre_lb), (got.pre_ub, want.pre_ub)]
            pairs += [(got.out_lb, want.out_lb), (got.out_ub, want.out_ub)]
            if objective is None:
                assert got.kappa is None and got.objective_lb is None and got.upper_side is None
            else:
                pairs += [(got.kappa, want.kappa), (got.objective_lb, want.objective_lb)]
                assert np.array_equal(got.upper_side, want.upper_side)
            for g, w in pairs:
                assert np.shape(g) == np.shape(w)
                assert np.allclose(g, w, rtol=0.0, atol=1e-12)
            compared += 1
    assert compared >= 300


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_identical(got, want):
    # the same bits in every field a pass computes
    for name in ("pre_lb", "pre_ub", "phase"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(got.out_lb, want.out_lb) and same_bits(got.out_ub, want.out_ub)
    for name in ("kappa", "upper_side"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if g is not None:
            assert same_bits(g, w), name
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
        rids = relu_ids(net)
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
                amb = [rid for rid in free if parent.phase[rids.index(rid)] == AMBIGUOUS]
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
    # gets the full pass's bits.  The per-unit arrays children share are
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
    for a in (bounds.pre_lb, bounds.pre_ub, bounds.phase, bounds.kappa, bounds.upper_side):
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
                assert bounds.ambiguous == bool(np.any(bounds.phase == AMBIGUOUS))
                flags.append(bounds.ambiguous)
    assert flags.count(True) >= 100 and flags.count(False) >= 20


def test_a_units_place_names_it_in_the_bounds_the_ids_and_the_template():
    # Entry j of a region's per-unit arrays, relu_ids(net)[j] and the LP
    # template's unit_cols[j] and unit_rows[j] name one unit, layer by layer
    # and neuron by neuron: on nets of uneven widths and on one with no ReLU
    # layer, for every region of a batch (the root, a unit split either
    # way, an input half), against the reference's per-layer arrays joined
    # in layer order, and at a point, where each unit's bounds are its
    # pre-activation there.
    rng = np.random.default_rng(617)
    nets = [make_net([2, 2], rng)]
    for _ in range(16):
        hidden = rng.integers(1, 7, size=int(rng.integers(1, 4))).tolist()
        nets.append(make_net([int(rng.integers(1, 4)), *hidden, 2], rng))
    regions_seen = 0
    for net in nets:
        widths = [b.size for _, b in net.blocks[:-1]]
        rids = relu_ids(net)
        assert rids == [ReluId(layer, j) for layer, w in enumerate(widths) for j in range(w)]
        t = _template(net)
        assert t.unit_cols.shape == (len(rids), 3) and t.unit_rows.shape == (len(rids), 2)
        for (layer, neuron), (pre, _, post), (first, second) in zip(rids, t.unit_cols, t.unit_rows):
            own = np.flatnonzero(t.A[:, pre] == -1.0)  # the affine row that defines the unit's pre
            assert own.size == 1 and t.eq[own[0]]
            assert t.rhs[own[0]] == -net.blocks[layer][1][neuron]
            assert (t.A[first, pre], t.A[first, post], t.A[second, post]) == (1.0, -1.0, 1.0)

        box = unit_box(net.input_dim)
        c = rng.normal(size=2)
        root = compute_bounds(net, box, {}, objective=c)
        lower, upper = box.lower.copy(), box.upper.copy()
        upper[0] = 0.5
        regions = [(box, {}, None), (InputBox(lower, upper), {}, root)]
        j = int(rng.integers(len(rids))) if rids else None
        if rids:
            regions += [(box, {rids[j]: sign}, root) for sign in "+-"]
        for (region_box, splits, parent), got in zip(regions, bound_regions(net, regions, c)):
            want = separate_walk_bounds(net, region_box, splits, objective=c, parent=parent)
            if want.infeasible:
                continue
            for name in ("pre_lb", "pre_ub", "phase", "kappa"):
                assert getattr(got, name).shape == (len(rids),), name
            assert got.upper_side.shape == (net.input_dim + len(rids),)
            assert np.array_equal(got.phase, want.phase)
            assert np.array_equal(got.upper_side, want.upper_side)
            for name in ("pre_lb", "pre_ub", "kappa"):
                assert np.allclose(getattr(got, name), getattr(want, name), rtol=0.0, atol=1e-12), name
            for sign in splits.values():  # the split unit is the one at place j
                assert got.phase[j] == (ACTIVE if sign == "+" else INACTIVE)
                assert got.pre_lb[j] >= 0.0 if sign == "+" else got.pre_ub[j] <= 0.0
            regions_seen += 1

        x = rng.random(net.input_dim)
        at = compute_bounds(net, InputBox(x, x), {})
        pre, _ = forward_with_preacts(net, x)
        for k, (layer, neuron) in enumerate(rids):
            assert at.pre_lb[k] == pytest.approx(pre[layer][neuron], abs=1e-9)
            assert at.pre_ub[k] == pytest.approx(pre[layer][neuron], abs=1e-9)
    assert regions_seen >= 50


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
    assert b.kappa.tolist() == [pytest.approx(3.0)]


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
        amb = [rid for rid, phase in zip(relu_ids(net), base.phase) if phase == AMBIGUOUS]
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
                assert same_bits(getattr(b, name), getattr(want, name)), name
            assert b.out_lb.tobytes() == want.out_lb.tobytes()
            assert b.out_ub.tobytes() == want.out_ub.tobytes()
            assert b.infeasible == want.infeasible
            phases = zip(relu_ids(net), b.phase)
            amb = [rid for rid, phase in phases if phase == AMBIGUOUS and rid not in splits]
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
            phases = zip(relu_ids(net), got.phase)
            amb = [rid for rid, phase in phases if phase == AMBIGUOUS and rid not in splits]
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
    return np.where(bounds.upper_side[: prop.input.dim], prop.input.upper, prop.input.lower)


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
            amb = [rid for rid, phase in zip(relu_ids(net), v.bounds.phase) if phase == AMBIGUOUS]
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
    """The bounding LP written one column and one row at a time, in the
    builder's order.  Columns: input; per ReLU layer each unit's column,
    then each ambiguous unit's post column; output.  Rows: each layer's
    affine rows, then unit by unit nothing (inactive or active) or the
    "pre - post <= 0" row and its chord (ambiguous); output rows last.

    A unit is inactive if split "-" or, unsplit, if u <= STABLE_TOL; else
    active if split "+" or l >= -STABLE_TOL; else ambiguous.  An inactive
    unit's post is 0 and has no column; an active unit's one column is its
    pre and its post, on [max(l, 0), u]; an ambiguous unit's pre column is
    on [l, u] and its post column on [max(l, 0), max(u, 0)]."""
    blocks = net.blocks
    widths = [W.shape[0] for W, _ in blocks]
    lo, hi = list(prop.input.lower), list(prop.input.upper)
    src = list(range(net.input_dim))  # the column each of a layer's inputs reads, or None for 0
    rows, eq, rhs = [], [], []

    def column(low, high):
        lo.append(low)
        hi.append(high)
        return len(lo) - 1

    for i, (W, b) in enumerate(blocks):
        last = i == len(blocks) - 1
        dst = []
        for r in range(widths[i]):
            if last:
                dst.append(column(bounds.out_lb[r], bounds.out_ub[r]))
                continue
            j = sum(widths[:i]) + r  # the unit's place in the layer-major order
            sign, l, u = splits.get(ReluId(i, r)), bounds.pre_lb[j], bounds.pre_ub[j]
            if sign == "-" or (sign is None and u <= STABLE_TOL):
                kind = "inactive"
            elif sign == "+" or l >= -STABLE_TOL:
                kind = "active"
            else:
                kind = "ambiguous"
            dst.append((kind, column(max(l, 0.0) if kind == "active" else l, u), l, u))
        for r in range(widths[i]):
            entries = [(col, W[r, k]) for k, col in enumerate(src) if col is not None]
            rows.append((entries + [(dst[r] if last else dst[r][1], -1.0)], "=", -float(b[r])))
        if last:
            break
        src = []
        for kind, pre, l, u in dst:
            if kind == "inactive":
                src.append(None)
            elif kind == "active":
                src.append(pre)
            else:
                post = column(max(l, 0.0), max(u, 0.0))
                src.append(post)
                slope = u / (u - l)
                rows.append(([(post, -1.0), (pre, 1.0)], "<=", 0.0))
                rows.append(([(post, 1.0), (pre, -slope)], "<=", -slope * l))
    A = np.zeros((len(rows), len(lo)))
    for k, (entries, rel, value) in enumerate(rows):
        for col, coef in entries:
            A[k, col] = coef
        eq.append(rel == "=")
        rhs.append(value)
    objective = np.zeros(len(lo))
    objective[len(lo) - net.output_dim :] = prop.output.c
    return objective, np.column_stack([lo, hi]), A, eq, np.array(rhs)


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
    # programs, as they were: the root's, with inactive and ambiguous units,
    # and a child's with an active unit, read through its merged column.
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
    child = compute_bounds(net, prop.input, {ReluId(0, 0): "+"}, objective=prop.output.c, parent=bounds)
    layers = by_layer(net, bounds.phase)
    assert [sorted(set(p.tolist())) for p in layers] == [[INACTIVE, AMBIGUOUS], [AMBIGUOUS]]
    assert ACTIVE in by_layer(net, child.phase)[0]
    for region in (bounds, child):
        assert_same_program(_build_program(net, prop, region), reference_program(net, prop, region))


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
        corner, posts = want.upper_side[: net.input_dim], by_layer(net, want.upper_side[net.input_dim :])
        expected = np.zeros(lp.num_vars, dtype=bool)
        expected[: net.input_dim] = corner
        offset = net.input_dim
        for phase, side in zip(by_layer(net, bounds.phase), posts, strict=True):
            amb = phase == AMBIGUOUS
            offset += phase.size  # the layer's unit columns, then its ambiguous units' posts
            expected[offset : offset + amb.sum()] = side[amb]
            offset += amb.sum()
        assert np.array_equal(lp.at_upper, expected)
        corners += int(corner.sum())
        chords += int(expected[net.input_dim :].sum())
        lower = LinearProgram(lp.objective, lp.var_bounds, lp.A, lp.eq, lp.rhs)
        got, want_out = solve(lp), solve(lower)
        assert got.status is want_out.status
        if got.status is LpStatus.OPTIMAL:
            assert abs(got.value - want_out.value) <= 1e-7
    assert corners >= 40 and chords >= 20


def test_the_program_keeps_the_full_layouts_optimum(monkeypatch):
    # Stable units are substituted out of the bounding LP: an active unit's
    # pre and post are one column on [max(l, 0), u], and an inactive unit's
    # post, 0, has no column.  On random nets every program's optimum must
    # be the full layout's within 1e-9, with the same status: at the root,
    # under splits of both signs, with every unit split (no ambiguous
    # unit), on input-split boxes, and with active units whose lower bound
    # lies in [-STABLE_TOL, 0), put there through the first layer's biases.
    # The solver accepts points within its feasibility tolerance, 1e-7, so
    # a region that is empty by less than that has an optimum, which can
    # differ between the layouts by more than 1e-9 (one region here, under
    # a "-" split of a unit on [-8.1e-10, 0], reads optima 4.7e-9 apart,
    # and both programs are infeasible at 1e-9): both programs are solved
    # at that tolerance, where they must agree within it, and again at 1e-9.
    def optima(tol, *programs):
        monkeypatch.setattr(lp_module, "_FEAS_TOL", tol)
        return [solve(program) for program in programs]

    rng = np.random.default_rng(616)
    seen = dict.fromkeys(("root", "plus", "minus", "every", "input", "near zero"), 0)
    for trial in range(40):
        dims = [int(rng.integers(1, 4)), *rng.integers(2, 6, size=1 + trial % 3).tolist(), 2]
        net = make_net(dims, rng)
        box = unit_box(net.input_dim)
        if trial % 2:  # about half the first layer's units get l in [-STABLE_TOL, 0)
            W, b = net.blocks[0]
            low = np.maximum(W, 0.0) @ box.lower + np.minimum(W, 0.0) @ box.upper
            near = np.where(rng.random(b.size) < 0.5, -low - rng.uniform(0.1, 0.9, b.size) * STABLE_TOL, b)
            net = Network((Affine(W, near), *net.layers[1:]))
        prop = margin_prop(rng.normal(size=2), 0.0, box)
        c = prop.output.c
        root = compute_bounds(net, box, {}, objective=c)
        rids = relu_ids(net)
        pre, _ = forward_with_preacts(net, rng.random(net.input_dim))  # a point the region keeps
        every = {rid: "+" if pre[rid.layer][rid.neuron] >= 0.0 else "-" for rid in rids}
        regions = [("root", box, {}, None), ("every", box, every, root)]
        for rid in [rids[k] for k in rng.choice(len(rids), size=2, replace=False)]:
            regions += [("plus", box, {rid: "+"}, root), ("minus", box, {rid: "-"}, root)]
        lower, upper = box.lower.copy(), box.upper.copy()
        upper[trial % net.input_dim] = 0.5
        regions.append(("input", InputBox(lower, upper), {}, root))
        for kind, region_box, splits, parent in regions:
            bounds = compute_bounds(net, region_box, splits, objective=c, parent=parent)
            if bounds.infeasible:
                continue
            node_prop = Property(region_box, prop.output)
            programs = (_build_program(net, node_prop, bounds), full_program(net, node_prop, bounds))
            for tol in (1e-7, 1e-9):
                got, want = optima(tol, *programs)
                assert got.status is want.status
                if got.status is LpStatus.OPTIMAL:
                    assert abs(got.value - want.value) <= max(tol, 1e-9)
            seen[kind] += 1
            phase, l = bounds.phase, bounds.pre_lb
            seen["near zero"] += int(((phase == ACTIVE) & (l < 0.0) & (l >= -STABLE_TOL)).sum())
    assert min(seen.values()) >= 20, seen


def test_a_region_with_a_non_finite_bound_is_refused():
    # The builder takes the template's rows as they are, and checks the
    # entries a node writes: a NaN or infinite bound of any column the
    # program has is refused, as the public constructor refuses it.
    net = make_net([2, 4, 3, 1], np.random.default_rng(615))
    prop = margin_prop([1.0], 0.0, unit_box(2))
    bounds = compute_bounds(net, prop.input, {ReluId(0, 0): "+"}, objective=prop.output.c)
    assert {INACTIVE, ACTIVE, AMBIGUOUS} <= set(bounds.phase.tolist())
    _build_program(net, prop, bounds)
    refused = 0
    for j, phase in enumerate(bounds.phase.tolist()):
        for name, value in (("pre_lb", np.nan), ("pre_ub", np.nan), ("pre_ub", np.inf), ("pre_lb", -np.inf)):
            if phase == ACTIVE and value == -np.inf:
                continue  # an active unit's column starts at max(l, 0): l itself is no entry
            array = getattr(bounds, name).copy()
            array[j] = value
            with pytest.raises(ValueError, match="NaN or infinite"), np.errstate(invalid="ignore"):
                _build_program(net, prop, replace(bounds, **{name: array}))
            refused += 1
    for name in ("out_lb", "out_ub"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="NaN or infinite"):
                _build_program(net, prop, replace(bounds, **{name: np.array([value])}))
            refused += 1
    assert refused == 7 * 4 - 1 + 6


def test_program_layout_feeds_the_crash_basis():
    # The solver's crash basis takes each "=" row's last nonzero column as
    # basic, and a "<=" row's where the start point violates it (lp module
    # docstring).  The bounding LP must end every "=" row with -1 on its own
    # unit or output column, never two rows on one column, and give each
    # ambiguous unit exactly two "<=" rows over its own pre and post
    # columns, both ending on post, the first with -1 (pre - post <= 0) and
    # the second, its chord, with 1; a stable unit has no row of its own.
    # So the rows have full rank, and every optimal LP leaves a basis: no
    # artificial stays basic on a dependent row.
    checked = ambiguous_seen = stable_seen = optimal = phase1 = 0
    for net, prop, splits, bounds in random_programs(611, 80):
        lp = _build_program(net, prop, bounds)
        dims = [net.input_dim] + [W.shape[0] for W, _ in net.blocks]
        hidden = dims[1:-1]
        rids = relu_ids(net)
        ambiguous = {
            rid for rid, phase in zip(rids, bounds.phase) if rid not in splits and phase == AMBIGUOUS
        }

        # columns: input; per ReLU layer its units', then its ambiguous units' posts; output
        own, post, offset = {}, {}, dims[0]
        for layer, w in enumerate(hidden):
            layer_rids = [rid for rid in rids if rid.layer == layer]
            own.update({rid: offset + rid.neuron for rid in layer_rids})
            offset += w
            for rid in layer_rids:
                if rid in ambiguous:
                    post[rid] = offset
                    offset += 1
        n_out_start = lp.num_vars - dims[-1]
        assert n_out_start == offset
        stable_seen += len(rids) - len(ambiguous)
        eq_rows = np.flatnonzero(lp.eq)
        heads = [int(np.flatnonzero(lp.A[i])[-1]) for i in eq_rows]
        assert len(set(heads)) == len(heads), "two = rows end on one column"
        assert set(heads) == set(own.values()) | set(range(n_out_start, lp.num_vars))
        for i, head in zip(eq_rows, heads):
            assert lp.A[i, head] == -1.0

        per_unit = {}
        for i in np.flatnonzero(~lp.eq):
            cols = np.flatnonzero(lp.A[i]).tolist()
            rid = next(r for r in post if post[r] == cols[-1])
            assert set(cols) <= {own[rid], post[rid]}
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
    assert checked >= 40 and ambiguous_seen >= 60 and stable_seen >= 60
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

"""Tests for branch-and-bound verification, reuse modes, and the cost model."""

import dataclasses
import itertools
import logging
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from incver import analyzer
from incver import lp as lp_module
from incver.lp import LpBasis
from incver import verifier
from incver.analyzer import Verdict
from incver.heuristics import BaseHeuristic, HeuristicConfig
from incver.model import (
    Affine,
    LastLayer,
    Network,
    QuantizeInt8,
    Relu,
    evaluate,
    load_network,
    perturb,
)
from incver.props import InputBox, OutputConstraint, Property, holds_concretely, load_property
from incver.spectree import (
    InputDecision,
    NodeStatus,
    ReluDecision,
    leaves,
    observed_scores,
    path_decisions,
    prune,
    singleton,
    spec_of,
    split,
)
from incver.verifier import (
    BRANCHINGS,
    Mode,
    RunVerdict,
    VerifierConfig,
    delta_bound,
    predicted_cost,
    verify,
    verify_incremental,
)
from bound_oracles import brute_force_minimum, exact_margin
from incver.model import ReluId


def make_net(dims, rng, scale=1.0):
    layers = []
    for i in range(len(dims) - 1):
        layers.append(
            Affine(
                rng.normal(size=(dims[i + 1], dims[i])) * scale,
                rng.normal(size=dims[i + 1]) * scale * 0.3,
            )
        )
        if i < len(dims) - 2:
            layers.append(Relu())
    return Network(tuple(layers))


def unit_prop(n, c, d):
    return Property(InputBox(np.zeros(n), np.ones(n)), OutputConstraint(np.asarray(c, float), d))


def violation_search(net, prop, rng, samples=2000):
    """Concrete-violation oracle: corners plus random interior points."""
    pts = [prop.input.lower, prop.input.upper]
    n = len(prop.input.lower)
    if n <= 12:
        for bits in itertools.product((0, 1), repeat=n):
            pts.append(np.where(np.array(bits) == 1, prop.input.upper, prop.input.lower))
    widths = prop.input.upper - prop.input.lower
    for _ in range(samples):
        pts.append(prop.input.lower + rng.random(n) * widths)
    for x in pts:
        if prop.output.margin(evaluate(net, x)) < 0:
            return x
    return None


def random_instances(seed, count, dims=(2, 3, 3, 1)):
    """Deterministic batch of (net, prop) pairs with a known exact margin."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        net = make_net(list(dims), rng, scale=1.2)
        c = rng.normal(size=dims[-1])
        prop = unit_prop(dims[0], c, 0.0)
        true_min = brute_force_minimum(net, prop)
        if true_min is None or abs(true_min) < 1e-3:
            continue  # skip near-boundary instances; verdicts would be knife-edge
        # recentre d so both outcomes appear in the batch
        d = -true_min / 2 if len(out) % 2 == 0 else -true_min * 2
        prop = unit_prop(dims[0], c, d)
        out.append((net, prop, true_min + d))
    return out


CFG = VerifierConfig(timeout=120.0)


# ------------------------------------------------------------------ basic runs


def test_trivially_true_property():
    net = make_net([2, 2, 1], np.random.default_rng(0))
    res = verify(net, unit_prop(2, [0.0], 1.0), CFG)
    assert res.verdict is RunVerdict.VERIFIED
    assert res.metrics.boundings == 1
    assert res.metrics.branchings == 0
    assert res.tree.num_nodes() == 1


def test_trivially_false_property():
    net = make_net([2, 2, 1], np.random.default_rng(0))
    res = verify(net, unit_prop(2, [0.0], -1.0), CFG)
    assert res.verdict is RunVerdict.COUNTEREXAMPLE
    assert res.metrics.boundings == 1
    assert res.counterexample is not None


def test_verdict_matches_exact_minimum():
    for net, prop, margin in random_instances(seed=5, count=12):
        res = verify(net, prop, CFG)
        if margin > 0:
            assert res.verdict is RunVerdict.VERIFIED, f"margin {margin} but {res.verdict}"
        else:
            assert res.verdict is RunVerdict.COUNTEREXAMPLE, f"margin {margin} but {res.verdict}"


def test_counterexamples_are_concrete():
    rng = np.random.default_rng(17)
    found = 0
    for net, prop, margin in random_instances(seed=6, count=10):
        res = verify(net, prop, CFG)
        if res.verdict is RunVerdict.COUNTEREXAMPLE:
            x = res.counterexample
            assert prop.input.contains(x, tol=0.0)
            assert prop.output.margin(evaluate(net, x)) < 0.0
            found += 1
    assert found >= 3


def test_verified_runs_survive_sampling():
    rng = np.random.default_rng(23)
    checked = 0
    for net, prop, margin in random_instances(seed=7, count=10):
        res = verify(net, prop, CFG)
        if res.verdict is RunVerdict.VERIFIED:
            assert violation_search(net, prop, rng) is None
            assert all(
                res.tree.node(nid).status is NodeStatus.VERIFIED for nid in leaves(res.tree)
            )
            checked += 1
    assert checked >= 3


def test_call_accounting_baseline():
    for net, prop, _ in random_instances(seed=8, count=10):
        res = verify(net, prop, CFG)
        m = res.metrics
        assert res.verdict is not RunVerdict.TIMEOUT
        n_f, n_0 = m.nodes_final, m.nodes_initial
        leaves_0 = (n_0 + 1) // 2
        internal_f = n_f - res.tree.num_leaves()
        internal_0 = n_0 - leaves_0
        assert m.boundings == n_f - n_0 + leaves_0
        assert m.branchings == internal_f - internal_0
        # with unit costs the closed form equals the measured total
        s = singleton()
        assert m.boundings + m.branchings == pytest.approx(predicted_cost(1, 1, s, res.tree))


def test_each_bounding_runs_one_propagation_pass():
    # Propagation passes are the deterministic work counter of the bounds.
    # Every node is bounded once, from its parent's bounds: the demo's
    # baseline first run takes one pass per bounding, and a reused or pruned
    # tree one pass per node, its internal nodes included.  A pass walks only
    # the layers below its node's split: on the demo's two ReLU layers, 3
    # walks at the root, 2 under a layer-0 split and 1 under a layer-1 split
    # (27 walks, not 13, if every pass walked every layer).
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    net = load_network(fixtures / "demo_network.json")
    updated = load_network(fixtures / "demo_updated.json")
    prop = load_property(fixtures / "demo_property.json")
    heur = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=0.25, theta=1.0, seed=27)
    cfg = VerifierConfig(mode=Mode.BASELINE, heuristic=heur, timeout=30.0)
    first = verify(net, prop, cfg)
    assert (first.metrics.boundings, first.metrics.branchings) == (9, 4)
    assert (first.metrics.passes, first.metrics.walks) == (9, 13)

    reuse = verify(updated, prop, cfg, initial_tree=first.tree)
    assert (reuse.metrics.boundings, reuse.metrics.branchings) == (5, 0)
    assert reuse.metrics.passes == first.tree.num_nodes() == 9
    assert reuse.metrics.walks == 13

    pruned = prune(first.tree, heur.theta)
    ivan = verify(updated, prop, cfg, initial_tree=pruned, hobs=observed_scores(first.tree))
    assert (ivan.metrics.boundings, ivan.metrics.branchings) == (3, 0)
    assert ivan.metrics.passes == pruned.num_nodes() == 5
    assert ivan.metrics.walks == 7

    # The same holds under input branching: a reused input tree's internal
    # nodes are bounded too, so its run takes one pass per node.  Each input
    # split changes the box, so every pass walks every layer.
    net, prop = find_branching_instance()
    cfg = VerifierConfig(timeout=120.0, branching="input", max_nodes=4000)
    first = verify(net, prop, cfg)
    assert first.metrics.branchings > 0
    assert first.metrics.passes == first.metrics.boundings
    assert first.metrics.walks == first.metrics.passes * len(net.blocks)
    reuse = verify(net, prop, cfg, initial_tree=first.tree)
    assert reuse.metrics.branchings == 0
    assert reuse.metrics.boundings == first.tree.num_leaves()
    assert reuse.metrics.passes == first.tree.num_nodes()
    assert reuse.metrics.walks == reuse.metrics.passes * len(net.blocks)


def test_reused_tree_under_an_empty_region_verifies_vacuously():
    # Unit 0's pre-activation is identically 1, so the region under its "-"
    # split is empty.  The leaves below that internal node verify with
    # lb = inf and cost no pass: only the root, the "+" leaf and the empty
    # node itself are propagated.
    net = Network(
        (
            Affine(np.array([[0.0], [1.0]]), np.array([1.0, -0.5])),
            Relu(),
            Affine(np.array([[0.0, 1.0]]), np.array([0.0])),
        )
    )
    prop = unit_prop(1, [1.0], 1.0)
    tree = singleton()
    d0 = ReluDecision(ReluId(0, 0), "+")
    _, empty = split(tree, 0, (d0, d0.complement()))
    d1 = ReluDecision(ReluId(0, 1), "+")
    under = split(tree, empty, (d1, d1.complement()))
    res = verify(net, prop, CFG, initial_tree=tree)
    assert res.verdict is RunVerdict.VERIFIED
    assert (res.metrics.boundings, res.metrics.branchings) == (3, 0)
    for nid in under:
        assert res.tree.node(nid).status is NodeStatus.VERIFIED
        assert res.tree.node(nid).lb == math.inf
    # 2 walks at the root, 1 at each child of its layer-0 split, none below
    assert (res.metrics.passes, res.metrics.walks) == (3, 4)


def test_of_two_violating_corners_in_a_phase_the_lowest_numbered_node_wins():
    # 1.2 - relu(x + .5) - relu(.5 - x) on [-1, 1], with the root split at
    # x = 0 by an initial tree: both children are new boxes whose walk
    # corners (-1 for node 1, 1 for node 2) violate the property.  The
    # whole phase is bounded, both without an LP, and node 1's corner is
    # the run's counterexample.
    net = Network((
        Affine(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])),
        Relu(),
        Affine(np.array([[-1.0, -1.0]]), np.array([1.2])),
    ))
    prop = Property(InputBox(np.array([-1.0]), np.array([1.0])), OutputConstraint(np.array([1.0]), 0.0))
    tree = singleton("input")
    low = InputDecision(0, "low", 0.0)
    assert split(tree, 0, (low, low.complement())) == (1, 2)
    res = verify(net, prop, VerifierConfig(branching="input", timeout=120.0), initial_tree=tree)
    assert res.verdict is RunVerdict.COUNTEREXAMPLE
    m = res.metrics
    assert (m.boundings, m.corners, m.lps) == (2, 2, 0)
    assert [res.tree.node(nid).status for nid in (1, 2)] == [NodeStatus.COUNTEREXAMPLE] * 2
    assert res.counterexample.tolist() == [-1.0]
    assert exact_margin(net, prop, res.counterexample) < 0 and exact_margin(net, prop, [1.0]) < 0


def test_a_run_reports_its_batches_and_where_its_time_went():
    # One batched propagation call per bounding phase: the demo's first run
    # has 4 phases (frontiers of 1, 2, 4 and 2 nodes); reuse bounds its
    # 9-node tree, 4 internal nodes and 5 leaves, in its 1 phase's batch,
    # and ivan its 5-node pruned tree in 1.  The stage timers are parts of
    # the run's wall time.
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    net = load_network(fixtures / "demo_network.json")
    updated = load_network(fixtures / "demo_updated.json")
    prop = load_property(fixtures / "demo_property.json")
    heur = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=0.25, theta=1.0, seed=27)
    cfg = VerifierConfig(heuristic=heur, timeout=30.0)
    first = verify(net, prop, cfg)
    reuse = verify(updated, prop, cfg, initial_tree=first.tree)
    ivan = verify(updated, prop, cfg, initial_tree=prune(first.tree, heur.theta))
    assert [r.metrics.batches for r in (first, reuse, ivan)] == [4, 1, 1]
    for res in (first, reuse, ivan):
        m = res.metrics
        assert m.propagate_s > 0.0 and m.build_s > 0.0 and m.solve_s > 0.0
        assert m.propagate_s + m.build_s + m.solve_s < m.wall_time
    settled = verify(net, Property(prop.input, OutputConstraint(prop.output.c, 100.0)), cfg)
    assert (settled.metrics.lps, settled.metrics.build_s, settled.metrics.solve_s) == (0, 0.0, 0.0)


def test_an_lp_past_the_deadline_ends_the_run_as_a_timeout(monkeypatch):
    # The run's deadline reaches the simplex, which reads it before each
    # pivot.  With the solver's clock past every deadline, the demo's root
    # LP stops at its first pivot, and the run ends as Timeout, the same
    # verdict and note as a deadline the search loop sees, not as an
    # AnalyzerError.  The search loop's own clock is not moved.
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    net = load_network(fixtures / "demo_network.json")
    prop = load_property(fixtures / "demo_property.json")
    cfg = VerifierConfig(timeout=30.0)
    monkeypatch.setattr(lp_module, "perf_counter", lambda: math.inf)
    res = verify(net, prop, cfg)
    assert (res.verdict, res.note) == (RunVerdict.TIMEOUT, "wall-clock timeout")
    assert (res.metrics.boundings, res.metrics.lps) == (0, 0)
    monkeypatch.undo()
    assert verify(net, prop, cfg).verdict is RunVerdict.VERIFIED


def record_frontier_regions(monkeypatch) -> tuple:
    """Record each frontier batch's ``(region, bounds)`` pairs, in the order
    verify analyzes them, and the regions of an initial tree's internal
    nodes that lead its first batch; the caller pops one pair per bounding."""
    pending, internal = [], []
    bound_regions = verifier.bound_regions

    def recording(net, regions, objective=None):
        out = bound_regions(net, regions, objective)
        assert not pending
        # an internal node is the parent, by its place in the batch, of the regions below it
        inner = len({parent for *_, parent in regions if isinstance(parent, int)})
        internal.extend(regions[:inner])
        pending.extend(zip(regions[inner:], out[inner:]))
        return out

    monkeypatch.setattr(verifier, "bound_regions", recording)
    return pending, internal


def breadth_first_internal(tree) -> list:
    """The tree's internal nodes, breadth first from its root."""
    order, walk = [], [tree.root]
    for nid in walk:
        node = tree.node(nid)
        if not node.is_leaf:
            order.append(nid)
            walk += [node.left, node.right]
    return order


def test_each_bounding_gets_the_subproblem_of_its_root_path(monkeypatch):
    # verify carries each node's (box, splits) down from its parent; the
    # analyzer must see exactly what spec_of rebuilds from the root, for the
    # bounded nodes in ascending id, on fresh, reused, pruned and
    # input-branching runs alike.  Every node but the root is bounded from
    # its parent's bounds, whichever the branching.  No LP of a run without
    # a carried basis map, nor of an incremental first run, gets a start.
    seen = []
    analyze = verifier.analyze
    pending, internal = record_frontier_regions(monkeypatch)

    def recording_analyze(net, prop, bounds, start=None, deadline=None):
        (box, splits, parent), given = pending.pop(0)
        assert bounds is given and prop.input is box
        seen.append((box, splits, parent, start))
        return analyze(net, prop, bounds, start=start, deadline=deadline)

    monkeypatch.setattr(verifier, "analyze", recording_analyze)

    def check(res, prop, initial=None):
        # an initial tree's internal nodes lead the first batch, breadth
        # first, each naming its parent by its place there
        inner = [] if initial is None else breadth_first_internal(initial)
        assert len(internal) == len(inner)
        for (box, splits, parent), nid in zip(internal, inner):
            want_box, want_splits = spec_of(res.tree, nid, prop.input)
            assert box == want_box and splits == want_splits
            node = res.tree.node(nid)
            assert parent == (None if nid == res.tree.root else inner.index(node.parent))
        internal.clear()
        nodes = res.tree.nodes
        bounded = [n for n in sorted(nodes) if nodes[n].status is not NodeStatus.UNANALYZED]
        assert len(seen) == len(bounded) == res.metrics.boundings
        for (box, splits, parent, start), nid in zip(seen, bounded):
            want_box, want_splits = spec_of(res.tree, nid, prop.input)
            assert box == want_box and splits == want_splits
            assert (parent is None) == (nid == res.tree.root)
            assert start is None
        seen.clear()

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    net = load_network(fixtures / "demo_network.json")
    updated = load_network(fixtures / "demo_updated.json")
    prop = load_property(fixtures / "demo_property.json")
    heur = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=0.25, theta=1.0, seed=27)
    cfg = VerifierConfig(heuristic=heur, timeout=30.0)
    first = verify(net, prop, cfg)
    assert first.metrics.branchings == 4
    check(first, prop)
    check(verify(updated, prop, cfg, initial_tree=first.tree), prop, first.tree)
    pruned = prune(first.tree, heur.theta)
    assert 1 < pruned.num_nodes() < first.tree.num_nodes()
    check(verify(updated, prop, cfg, initial_tree=pruned, hobs=observed_scores(first.tree)), prop, pruned)

    # reuse's first run bounds its nodes as a fresh run does; its second run
    # starts some LPs from the first run's bases
    first, second = verify_incremental(net, updated, prop, dataclasses.replace(cfg, mode=Mode.REUSE))
    carried = [start for *_, start in seen[first.metrics.boundings :]]
    del seen[first.metrics.boundings :]
    assert len(internal) == first.tree.num_internal()  # the second run's, from the first's tree
    internal.clear()
    check(first, prop)
    assert any(start is not None for start in carried)

    net, prop = find_branching_instance()
    seen.clear()
    cfg = VerifierConfig(timeout=120.0, branching="input", max_nodes=4000)
    res = verify(net, prop, cfg)
    assert res.metrics.branchings > 0
    check(res, prop)
    check(verify(net, prop, cfg, initial_tree=res.tree), prop, res.tree)


def node_lbs(res):
    """Every node's recorded lb, as exact bits."""
    lbs = {nid: node.lb for nid, node in res.tree.nodes.items()}
    return [(nid, None if lbs[nid] is None else float(lbs[nid]).hex()) for nid in sorted(lbs)]


def second_run_without_bases(first, updated, prop, cfg):
    """verify_incremental's second run for cfg.mode, with no basis carried."""
    hobs = observed_scores(first.tree) if cfg.mode in (Mode.REORDER, Mode.IVAN) else None
    if cfg.mode is Mode.BASELINE:
        return verify(updated, prop, cfg)
    if cfg.mode is Mode.REUSE:
        return verify(updated, prop, cfg, initial_tree=first.tree)
    if cfg.mode is Mode.REORDER:
        return verify(updated, prop, cfg, hobs=hobs)
    return verify(updated, prop, cfg, initial_tree=prune(first.tree, cfg.heuristic.theta), hobs=hobs)


def test_carried_bases_change_only_the_pivots():
    # Reuse and ivan hand their second run's subproblems the first run's
    # final bases: same verdicts, boundings and branchings as without them,
    # and fewer pivots.  A leaf whose carried basis's duals prove it needs
    # no LP: its LP and its certificate together are the LP of the run
    # without bases.  Baseline and reorder carry nothing, and every first
    # run is a plain run: their node lbs are the same bits.  The narrow
    # nets' refuted instances end at their root's walk corner, before any
    # LP, so the carried bases come from the wider batch: its second runs
    # certify 3 leaves, and 13 LPs are answered by a basis still optimal.
    warm = certified = 0
    batches = random_instances(seed=10, count=8), random_instances(seed=10, count=8, dims=(2, 4, 4, 1))
    for net, prop, _ in itertools.chain(*batches):
        updated = perturb(net, QuantizeInt8())
        plain = verify(net, prop, CFG)
        for mode in Mode:
            cfg = VerifierConfig(mode=mode, timeout=120.0)
            first, second = verify_incremental(net, updated, prop, cfg)
            assert node_lbs(first) == node_lbs(plain) and first.metrics.warm == first.metrics.certified == 0
            cold = second_run_without_bases(first, updated, prop, cfg)
            got, want = second.metrics, cold.metrics
            assert second.verdict is cold.verdict
            assert (got.boundings, got.branchings) == (want.boundings, want.branchings)
            assert got.lps + got.certified == want.lps
            assert got.pivots <= want.pivots
            if mode in (Mode.BASELINE, Mode.REORDER):
                assert node_lbs(second) == node_lbs(cold)
                assert got.warm == got.certified == 0 and got.pivots == want.pivots
            assert got.warm <= got.lps
            warm += got.warm
            certified += got.certified
    assert certified > 0 and warm > 0


def test_a_certified_leaf_records_at_most_its_lp_optimum(monkeypatch):
    # A leaf proved by its carried basis's duals records that certificate:
    # nonnegative, and at most the optimum of the LP it stands in for,
    # solved cold on the same bounds, plus d.  Reuse and ivan second runs on
    # quantized random nets, under both branchings, certify 17 leaves.
    analyze = verifier.analyze
    certified = []

    def checking_analyze(net, prop, bounds, start=None, deadline=None):
        res = analyze(net, prop, bounds, start=start, deadline=deadline)
        if res.certified:
            assert res.status is Verdict.VERIFIED and res.lp is None and start is not None
            cold = analyze(net, prop, dataclasses.replace(bounds))
            assert cold.lp is not None and cold.status is Verdict.VERIFIED
            assert 0.0 <= res.lb_value <= cold.lb_value + 1e-9
            certified.append(res.lb_value)
        return res

    monkeypatch.setattr(verifier, "analyze", checking_analyze)
    for net, prop, _ in random_instances(seed=12, count=8, dims=(2, 4, 4, 1)):
        updated = perturb(net, QuantizeInt8())
        for branching, mode in itertools.product(BRANCHINGS, (Mode.REUSE, Mode.IVAN)):
            cfg = VerifierConfig(mode=mode, timeout=120.0, branching=branching, max_nodes=4000)
            first, second = verify_incremental(net, updated, prop, cfg)
            assert first.metrics.certified == 0
    assert len(certified) == 17


def test_a_basis_is_stored_only_after_its_lp(monkeypatch):
    # verify looks each node's subproblem up before bounding it and stores
    # the LP's final basis after it, a bare LpBasis; a node settled without
    # an LP, or whose LP left no basis, stores nothing.  The stored basis
    # goes back to analyze as the node's start.
    expected = {}
    bases = {}
    analyze = verifier.analyze
    pending, _ = record_frontier_regions(monkeypatch)

    def checking_analyze(net, prop, bounds, start=None, deadline=None):
        assert bases.keys() == expected.keys()
        assert all(type(bases[key]) is LpBasis and bases[key] is basis for key, basis in expected.items())
        (_, splits, _), given = pending.pop(0)
        assert bounds is given
        key = (frozenset(splits.items()), prop.input.lower.tobytes(), prop.input.upper.tobytes())
        assert start is expected.get(key)
        res = analyze(net, prop, bounds, start=start, deadline=deadline)
        if res.lp is not None and res.lp.basis is not None:
            expected[key] = res.lp.basis
        return res

    monkeypatch.setattr(verifier, "analyze", checking_analyze)
    stored = 0
    for net, prop, _ in random_instances(seed=11, count=6):
        expected.clear()
        bases.clear()
        first = verify(net, prop, CFG, bases=bases)
        assert len(bases) <= first.metrics.lps and first.metrics.warm == 0
        stored += len(bases)
        second = verify(perturb(net, QuantizeInt8()), prop, CFG, initial_tree=first.tree, bases=bases)
        assert bases.keys() == expected.keys()
        assert second.metrics.warm <= second.metrics.lps
    assert stored > 0


def test_a_leaf_whose_first_lp_ended_unknown_is_certified():
    # The demo's root LP ends Unknown at -7, and the first run splits the
    # root.  With the output bias raised by 7.2, the root's LP optimum on
    # the updated network is 0.2 while propagation reads about -15.3
    # there.  A theta that prunes every split hands ivan's second run the
    # root alone, with the basis of that Unknown LP, and its duals prove the
    # root with no LP: one bounding, certified, at most the LP optimum.
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    net = load_network(fixtures / "demo_network.json")
    prop = load_property(fixtures / "demo_property.json")
    assert prop.output.c.tolist() == [1.0]
    last = net.layers[-1]
    raised = Network(net.layers[:-1] + (Affine(last.weights, last.bias + 7.2),))
    cfg = VerifierConfig(mode=Mode.IVAN, heuristic=HeuristicConfig(theta=1e9), timeout=30.0)
    first, second = verify_incremental(net, raised, prop, cfg)
    root = first.tree.node(first.tree.root)
    assert root.status is NodeStatus.UNKNOWN and abs(root.lb + 7.0) <= 1e-9
    assert first.verdict is second.verdict is RunVerdict.VERIFIED
    m = second.metrics
    assert (m.boundings, m.branchings, m.lps, m.certified) == (1, 0, 0, 1)
    assert 0.2 - 1e-9 <= second.tree.node(second.tree.root).lb <= 0.2 + 1e-9


def test_a_carried_point_that_fails_the_guard_falls_back_to_the_cold_solve(monkeypatch):
    # A carried basis answers its LP only when its point passes the
    # solver's final guard.  Under a guard that fails every carried point,
    # and only those, each such LP is solved cold instead of raising: the
    # second runs end as they did, with the same boundings, branchings, LPs
    # and certified leaves, and no LP answered by a carried basis.
    cases = [
        (net, perturb(net, QuantizeInt8()), prop, VerifierConfig(mode=mode, timeout=120.0))
        for net, prop, _ in random_instances(seed=10, count=8, dims=(2, 4, 4, 1))
        for mode in (Mode.REUSE, Mode.IVAN)
    ]
    plain = [verify_incremental(*case)[1] for case in cases]
    price_basis, fault = analyzer.price_basis, lp_module._fault
    carried, failed = set(), []

    def marking_price_basis(lp, basis, target):
        carried.add(id(lp))
        try:
            return price_basis(lp, basis, target)
        finally:
            carried.discard(id(lp))

    def failing_fault(lp, x):
        if id(lp) in carried:
            failed.append(x)
            return "a guard that fails every carried point"
        return fault(lp, x)

    monkeypatch.setattr(analyzer, "price_basis", marking_price_basis)
    monkeypatch.setattr(lp_module, "_fault", failing_fault)
    for case, want in zip(cases, plain):
        got = verify_incremental(*case)[1]
        assert got.verdict is want.verdict
        for key in ("boundings", "branchings", "lps", "certified"):
            assert getattr(got.metrics, key) == getattr(want.metrics, key), key
        assert got.metrics.warm == 0 and got.metrics.pivots >= want.metrics.pivots
    assert len(failed) == sum(m.metrics.warm for m in plain) > 0


def test_children_never_record_a_bound_below_their_parent():
    # Every child starts from its parent's bounds, under input splits as
    # under ReLU splits, so its recorded lb is at least its parent's up to
    # solver tolerance; improvement and prune rely on that.  Seed 6 holds an
    # input split whose child fell 0.34 below its parent when input children
    # were bounded from scratch, seed 7 one that fell 8e-4.
    edges = {"relu": 0, "input": 0}
    for seed in (6, 7):
        for net, prop, _ in random_instances(seed=seed, count=12):
            for branching in BRANCHINGS:
                cfg = VerifierConfig(timeout=120.0, branching=branching, max_nodes=4000)
                tree = verify(net, prop, cfg).tree
                for nid, node in tree.nodes.items():
                    if node.is_leaf:
                        continue
                    for cid in (node.left, node.right):
                        assert tree.node(cid).lb >= node.lb - 1e-9, (seed, branching, nid, cid)
                        edges[branching] += 1
    assert edges["relu"] >= 2 and edges["input"] >= 6


def test_depth_never_exceeds_relu_count():
    for net, prop, _ in random_instances(seed=9, count=8):
        res = verify(net, prop, CFG)
        n_relus = sum(
            l.out_dim for l in net.layers[:-1] if isinstance(l, Affine)
        )
        for nid in leaves(res.tree):
            assert len(path_decisions(res.tree, nid)) <= n_relus


# ----------------------------------------------------------------- incremental


def test_four_modes_agree():
    for net, prop, _ in random_instances(seed=10, count=8):
        updated = perturb(net, QuantizeInt8())
        verdicts = {}
        for mode in Mode:
            cfg = VerifierConfig(mode=mode, timeout=120.0)
            first, second = verify_incremental(net, updated, prop, cfg)
            assert first.verdict is not RunVerdict.TIMEOUT
            assert second.verdict is not RunVerdict.TIMEOUT
            verdicts.setdefault("first", set()).add(first.verdict)
            verdicts.setdefault("second", set()).add(second.verdict)
        assert len(verdicts["first"]) == 1
        assert len(verdicts["second"]) == 1


def test_call_accounting_incremental():
    for net, prop, _ in random_instances(seed=11, count=6):
        updated = perturb(net, QuantizeInt8())
        for mode in (Mode.REUSE, Mode.IVAN):
            cfg = VerifierConfig(mode=mode, timeout=120.0)
            first, second = verify_incremental(net, updated, prop, cfg)
            if second.verdict is RunVerdict.TIMEOUT:
                continue
            m = second.metrics
            leaves_0 = (m.nodes_initial + 1) // 2
            assert m.boundings == m.nodes_final - m.nodes_initial + leaves_0
            assert m.branchings == (m.nodes_final - second.tree.num_leaves()) - (
                m.nodes_initial - leaves_0
            )


def test_ivan_logs_how_far_pruning_cut_the_tree(caplog):
    # One DEBUG line between the runs: the demo's baseline proof has 4
    # internal nodes, and pruning it at theta 1.0 leaves 2.
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    net = load_network(fixtures / "demo_network.json")
    updated = load_network(fixtures / "demo_updated.json")
    prop = load_property(fixtures / "demo_property.json")
    heur = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=0.25, theta=1.0, seed=27)
    with caplog.at_level(logging.DEBUG, logger="incver.verifier"):
        verify_incremental(net, updated, prop, VerifierConfig(mode=Mode.IVAN, heuristic=heur))
    lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("prune")]
    assert lines == ["prune at theta 1: 4 internal nodes -> 2"]


def test_input_branching_computes_no_observed_scores(monkeypatch):
    # choose_input_split ranks nothing, so reorder and ivan hand an input
    # tree's run no scores; under ReLU branching they do.
    calls = []
    scores = verifier.observed_scores

    def recording_scores(tree):
        calls.append(tree.branching)
        return scores(tree)

    monkeypatch.setattr(verifier, "observed_scores", recording_scores)
    net, prop = find_branching_instance()
    updated = perturb(net, QuantizeInt8())
    for branching in BRANCHINGS:
        for mode in (Mode.REORDER, Mode.IVAN):
            cfg = VerifierConfig(mode=mode, timeout=120.0, branching=branching, max_nodes=4000)
            first, second = verify_incremental(net, updated, prop, cfg)
            assert first.metrics.branchings > 0
            assert second.verdict is first.verdict is RunVerdict.VERIFIED
    assert calls == ["relu", "relu"]


def test_reuse_on_identical_network():
    done = 0
    for net, prop, margin in random_instances(seed=12, count=8):
        if margin <= 0:
            continue
        cfg = VerifierConfig(mode=Mode.REUSE, timeout=120.0)
        first, second = verify_incremental(net, net, prop, cfg)
        if first.verdict is not RunVerdict.VERIFIED:
            continue
        assert second.verdict is RunVerdict.VERIFIED
        assert second.metrics.boundings == first.tree.num_leaves()
        assert second.metrics.branchings == 0
        done += 1
    assert done >= 3


def test_reused_tree_is_not_mutated():
    for net, prop, margin in random_instances(seed=13, count=6):
        cfg = VerifierConfig(mode=Mode.REUSE, timeout=120.0)
        first, second = verify_incremental(net, perturb(net, QuantizeInt8()), prop, cfg)
        statuses = [first.tree.node(n).status for n in sorted(first.tree.nodes)]
        lbs = [first.tree.node(n).lb for n in sorted(first.tree.nodes)]
        assert second.tree is not first.tree
        assert statuses == [first.tree.node(n).status for n in sorted(first.tree.nodes)]
        assert lbs == [first.tree.node(n).lb for n in sorted(first.tree.nodes)]
        if first.verdict is RunVerdict.VERIFIED:
            assert any(s is not NodeStatus.UNANALYZED for s in statuses)
            break


def test_architecture_mismatch_rejected():
    rng = np.random.default_rng(0)
    a = make_net([2, 3, 1], rng)
    b = make_net([2, 4, 1], rng)
    with pytest.raises(ValueError, match="architecture"):
        verify_incremental(a, b, unit_prop(2, [1.0], 0.0), CFG)


def test_partial_tree_handoff_is_flagged():
    for net, prop, margin in random_instances(seed=14, count=8):
        if margin > 0:
            continue
        cfg = VerifierConfig(mode=Mode.IVAN, timeout=120.0)
        first, second = verify_incremental(net, net, prop, cfg)
        if first.verdict is RunVerdict.COUNTEREXAMPLE:
            assert "Counterexample" in second.note
            assert second.verdict is RunVerdict.COUNTEREXAMPLE
            return
    pytest.fail("no counterexample-first instance found")


# ------------------------------------------------------------------ cost model


def nine_node_tree():
    t = singleton()
    d0 = ReluDecision(ReluId(0, 0), "+")
    n1, n2 = split(t, 0, (d0, d0.complement()))
    d1 = ReluDecision(ReluId(1, 0), "+")
    n3, n4 = split(t, n1, (d1, d1.complement()))
    n5, n6 = split(t, n2, (d1, d1.complement()))
    d2 = ReluDecision(ReluId(1, 1), "+")
    split(t, n6, (d2, d2.complement()))
    return t


def test_predicted_cost_examples():
    t = nine_node_tree()
    s = singleton()
    assert t.num_nodes() == 9 and t.num_leaves() == 5
    assert predicted_cost(1, 1, s, t) == pytest.approx(13.0)
    assert predicted_cost(1, 0, t, t) == pytest.approx(5.0)
    assert predicted_cost(0, 1, t, t) == pytest.approx(0.0)


# ----------------------------------------------------------- perturbation bound


def test_delta_bound_direct_formula():
    net = Network((Affine(np.array([[1.0]]), np.array([0.0])),))
    prop = Property(InputBox(np.zeros(1), np.ones(1)), OutputConstraint(np.array([1.0]), 0.0))
    t = singleton()
    t.node(0).lb = 7.0
    db = delta_bound(net, prop, t)
    assert db.eta == pytest.approx(1.0)
    assert db.c_norm == pytest.approx(1.0)
    assert db.delta == pytest.approx(7.0)
    t.node(0).lb = 0.0
    assert delta_bound(net, prop, t).delta == 0.0
    t.node(0).lb = -7.0
    with pytest.raises(ValueError, match="negative"):
        delta_bound(net, prop, t)


def test_delta_bound_rejects_a_refuted_run():
    # A Counterexample run's tree has a negative leaf bound and proves nothing.
    for net, prop, _ in random_instances(seed=6, count=10, dims=(2, 4, 1)):
        res = verify(net, prop, CFG)
        if res.verdict is RunVerdict.COUNTEREXAMPLE:
            break
    else:
        pytest.fail("no refuted instance found")
    assert min(res.tree.node(nid).lb for nid in leaves(res.tree)) < 0.0
    with pytest.raises(ValueError, match="negative"):
        delta_bound(net, prop, res.tree)


def test_delta_bound_requires_finished_run():
    prop = unit_prop(1, [1.0], 0.0)
    net = Network((Affine(np.array([[1.0]]), np.array([0.0])),))
    t = singleton()
    with pytest.raises(ValueError, match="no recorded"):
        delta_bound(net, prop, t)


@pytest.mark.parametrize("lbs, leaf", [((1.0, math.nan), 2), ((math.nan, 1.0), 1)])
def test_delta_bound_rejects_a_nan_leaf_bound(lbs, leaf):
    # A NaN is not >= 0, in either place: no radius is certified over it.
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    net = load_network(fixtures / "demo_network.json")
    prop = load_property(fixtures / "demo_property.json")
    t = singleton("input")
    cut = float(prop.input.lower[0] + prop.input.upper[0]) / 2
    left, right = split(t, 0, (InputDecision(0, "low", cut), InputDecision(0, "high", cut)))
    t.node(left).lb, t.node(right).lb = lbs
    with pytest.raises(ValueError, match=f"leaf {leaf} has nan: a negative or NaN"):
        delta_bound(net, prop, t)


def test_perturbations_within_delta_reverify_without_splits():
    rng = np.random.default_rng(31)
    done = 0
    for net, prop, margin in random_instances(seed=15, count=10, dims=(2, 2, 1)):
        first = verify(net, prop, CFG)
        if first.verdict is not RunVerdict.VERIFIED:
            continue
        db = delta_bound(net, prop, first.tree)
        if not math.isfinite(db.delta) or db.delta <= 0:
            continue
        shape = net.layers[-1].weights.shape
        for _ in range(10):
            e = rng.normal(size=shape)
            e *= (0.999 * db.delta * rng.random()) / np.linalg.norm(e)
            updated = perturb(net, LastLayer(e))
            res = verify(updated, prop, VerifierConfig(timeout=120.0), initial_tree=first.tree)
            assert res.verdict is RunVerdict.VERIFIED
            assert res.metrics.boundings == first.tree.num_leaves()
            assert res.metrics.branchings == 0
        done += 1
        if done >= 3:
            break
    assert done >= 3


# ------------------------------------------------------------ resource limits


def test_wall_clock_timeout():
    net, prop, _ = random_instances(seed=16, count=1)[0]
    res = verify(net, prop, VerifierConfig(timeout=1e-9))
    assert res.verdict is RunVerdict.TIMEOUT
    assert "timeout" in res.note
    assert res.metrics.boundings == 0


def input_split_tree():
    """An input tree whose root is cut at 0.5 on input 0."""
    tree = singleton("input")
    low = InputDecision(0, "low", 0.5)
    split(tree, 0, (low, low.complement()))
    return tree


def test_a_deadline_passed_before_the_initial_tree_walk_ends_the_run_unbounded():
    # The deadline has passed before the first batch (the initial tree's
    # internal nodes and its leaves): the run ends there, having
    # propagated nothing.
    net, prop, _ = random_instances(seed=16, count=1)[0]
    cfg = VerifierConfig(branching="input", timeout=1e-9)
    res = verify(net, prop, cfg, initial_tree=input_split_tree())
    assert (res.verdict, res.note) == (RunVerdict.TIMEOUT, "wall-clock timeout")
    m = res.metrics
    assert (m.boundings, m.passes, m.batches) == (0, 0, 0)
    assert m.nodes_initial == m.nodes_final == 3


def test_a_deadline_passed_in_a_frontier_batch_keeps_the_batchs_work(monkeypatch):
    # The deadline passes while the first batch, the initial tree's root
    # and its two leaves, is propagated: the run ends before its first
    # bounding, and its metrics count the passes and walks of the internal
    # node and of the frontier alike.
    bound_regions = verifier.bound_regions
    batches = []

    def slow(net, regions, objective=None):
        out = bound_regions(net, regions, objective)
        batches.append(out)
        time.sleep(0.3)
        return out

    monkeypatch.setattr(verifier, "bound_regions", slow)
    net, prop, _ = random_instances(seed=16, count=1)[0]
    cfg = VerifierConfig(branching="input", timeout=0.2)
    res = verify(net, prop, cfg, initial_tree=input_split_tree())
    assert (res.verdict, res.note) == (RunVerdict.TIMEOUT, "wall-clock timeout")
    m = res.metrics
    assert [len(out) for out in batches] == [3]
    assert (m.boundings, m.batches, m.passes) == (0, 1, 3)
    assert m.walks == sum(b.walks for out in batches for b in out) == 3 * len(net.blocks)


def test_an_initial_tree_that_does_not_fit_is_refused_before_any_pass(monkeypatch):
    # A cut outside its parent's box is found by the tree walk, which
    # bounds nothing: the run raises the lowest such node's ValueError
    # without a batched propagation call.
    def refused(net, regions, objective=None):
        raise AssertionError("bound_regions called for a tree that does not fit")

    monkeypatch.setattr(verifier, "bound_regions", refused)
    net, prop, _ = random_instances(seed=16, count=1)[0]
    tree = input_split_tree()
    cut = InputDecision(0, "low", 0.9)
    split(tree, 1, (cut, cut.complement()))  # node 1 is [0, 0.5] on input 0
    message = r"^initial tree node 3: cut 0.9 on input 0 lies outside its parent's \[0.0, 0.5\]$"
    with pytest.raises(ValueError, match=message):
        verify(net, prop, VerifierConfig(branching="input", timeout=30.0), initial_tree=tree)


PHASE_LINE = re.compile(
    r"phase \d+: (\d+) nodes, (\d+) LPs \((\d+) warm\), (\d+) certified, (\d+) corners, \d+ settled, (\d+) splits"
)


def phase_sums(caplog) -> list:
    """Per run, in order, the summed nodes, LPs, warm, certified, corners and
    splits of its phase lines; each run's lines end with its ``verify`` line."""
    runs, sums = [], [0] * 6
    for rec in caplog.records:
        msg = rec.getMessage()
        if msg.startswith("verify "):
            runs.append(sums)
            sums = [0] * 6
        elif match := PHASE_LINE.fullmatch(msg.split(" [")[0]):
            sums = [total + int(n) for total, n in zip(sums, match.groups())]
    return runs


def test_phase_lines_add_up_to_the_runs_metrics(caplog):
    # Each phase's DEBUG line counts that phase's own verdicts; summed over
    # a run they give its boundings, LPs, LPs a carried basis answered,
    # certified boundings, corner refutations and branchings: on
    # input-branching runs, one refuted at a walk corner after a split; on
    # the demo's reuse and ivan pairs, reuse's second run proving leaves
    # from carried duals; and on a quantized random pair, a reuse second
    # run in which carried bases also answer LPs.
    runs = []
    with caplog.at_level(logging.DEBUG, logger="incver.verifier"):
        cfg = VerifierConfig(timeout=120.0, branching="input", max_nodes=4000)
        for net, prop, _ in random_instances(seed=20, count=8):
            runs.append(verify(net, prop, cfg))
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        net = load_network(fixtures / "demo_network.json")
        updated = load_network(fixtures / "demo_updated.json")
        prop = load_property(fixtures / "demo_property.json")
        heur = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=0.25, theta=1.0, seed=27)
        for mode in (Mode.REUSE, Mode.IVAN):
            runs += verify_incremental(net, updated, prop, VerifierConfig(mode=mode, heuristic=heur))
        (net, prop, _), = random_instances(seed=10, count=1, dims=(2, 4, 4, 1))
        runs += verify_incremental(net, perturb(net, QuantizeInt8()), prop, VerifierConfig(mode=Mode.REUSE))
    metrics = [r.metrics for r in runs]
    assert phase_sums(caplog) == [
        [m.boundings, m.lps, m.warm, m.certified, m.corners, m.branchings] for m in metrics
    ]
    assert any(m.corners > 0 and m.branchings > 0 for m in metrics[:8])
    assert metrics[9].certified > 0
    assert metrics[13].warm > 0 and metrics[13].certified > 0


def find_branching_instance(seed=18):
    for net, prop, _ in random_instances(seed=seed, count=20):
        res = verify(net, prop, CFG)
        if res.metrics.branchings > 0 and res.verdict is RunVerdict.VERIFIED:
            return net, prop
    raise AssertionError("no instance requiring splits found")


def test_node_budget_exhaustion():
    net, prop = find_branching_instance()
    res = verify(net, prop, VerifierConfig(timeout=120.0, max_nodes=1))
    assert res.verdict is RunVerdict.TIMEOUT
    assert "budget" in res.note


# ------------------------------------------------------------- input branching


def test_input_branching_agrees_with_relu_branching():
    # Most instances are decided at the root; the two batches and the ReLU
    # branching instance hold a few that need input splits, with both verdicts.
    instances = [(net, prop) for net, prop, _ in random_instances(seed=19, count=12)]
    instances += [(net, prop) for net, prop, _ in random_instances(seed=7, count=12)]
    instances.append(find_branching_instance())
    split_verdicts = []
    for net, prop in instances:
        relu_res = verify(net, prop, CFG)
        input_res = verify(
            net, prop, VerifierConfig(timeout=120.0, branching="input", max_nodes=4000)
        )
        assert input_res.verdict is relu_res.verdict
        if input_res.metrics.branchings > 0:
            split_verdicts.append(input_res.verdict)
    assert len(split_verdicts) >= 4
    assert set(split_verdicts) == {RunVerdict.VERIFIED, RunVerdict.COUNTEREXAMPLE}


def test_input_branching_min_width_diagnosis():
    net, prop = find_branching_instance()
    res = verify(
        net, prop, VerifierConfig(timeout=120.0, branching="input", min_width=2.0)
    )
    assert res.verdict is RunVerdict.TIMEOUT
    assert "width" in res.note


def test_branching_kind_mismatch_rejected():
    prop = unit_prop(2, [1.0], 0.0)
    t = singleton("input")
    net = make_net([2, 2, 1], np.random.default_rng(0))
    with pytest.raises(ValueError, match="branches on"):
        verify(net, prop, CFG, initial_tree=t)


def test_config_validation():
    with pytest.raises(ValueError, match="timeout"):
        VerifierConfig(timeout=0.0)
    with pytest.raises(ValueError, match="max_nodes"):
        VerifierConfig(max_nodes=0)
    with pytest.raises(ValueError, match="branching"):
        VerifierConfig(branching="widest")
    with pytest.raises(ValueError, match="min_width"):
        VerifierConfig(min_width=0.0)
    with pytest.raises(ValueError, match="timeout"):
        VerifierConfig(timeout=float("nan"))
    with pytest.raises(ValueError, match="min_width"):
        VerifierConfig(min_width=float("nan"))


def test_initial_tree_cuts_outside_their_parents_box_name_the_lowest_node():
    # An initial input tree is walked level by level; of the cuts that lie
    # outside their parent's box, the one at the lowest node id is reported,
    # even when a shallower node with a higher id has one too.
    net = Network((Affine(np.eye(2), np.zeros(2)), Relu(), Affine(np.ones((1, 2)), np.zeros(1))))
    prop = Property(InputBox(np.zeros(2), np.ones(2)), OutputConstraint(np.ones(1), 1.0))

    def cut(tree, nid, dim, at):
        return split(tree, nid, (InputDecision(dim, "low", at), InputDecision(dim, "high", at)))

    tree = singleton("input")
    low, high = cut(tree, tree.root, 0, 0.5)  # nodes 1 [0, 0.5] and 2 [0.5, 1] on axis 0
    deep, _ = cut(tree, low, 0, 0.25)  # nodes 3 [0, 0.25] and 4
    cut(tree, deep, 0, 0.9)  # nodes 5 and 6: outside [0, 0.25], at depth 3
    cut(tree, high, 0, 0.2)  # nodes 7 and 8: outside [0.5, 1], at depth 2
    cfg = VerifierConfig(branching="input", timeout=30.0)
    with pytest.raises(ValueError, match=r"node 5: cut 0.9 on input 0 lies outside its parent's \[0.0, 0.25\]"):
        verify(net, prop, cfg, initial_tree=tree)

"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each criterion is one test that emits a single "criterion N: PASS|FAIL"
line.  The lines (and criterion 7's full table, which is reported even
when its soft target fails) go to stdout and are kept in memory; once all
nine criteria have reported in one session, they replace
acceptance_report.txt at the repository root, so the checklist survives
pytest's output capture.  Collecting the module, or running only some of
the criteria, leaves the file as it is.  Criteria 2, 4, and 6 audit one
shared batch of verification runs, built once per session.
"""

import dataclasses
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from incver.heuristics import BaseHeuristic, HeuristicConfig, split_scores
from incver.lp import LpStatus, solve
from incver.model import (
    Affine,
    LastLayer,
    Network,
    QuantizeInt8,
    QuantizeInt16,
    Relu,
    ReluId,
    UniformRandom,
    load_network,
    network_to_json,
    perturb,
    quantize,
    relu_ids,
)
from incver.props import InputBox, OutputConstraint, Property, holds_concretely, load_property
from incver.spectree import (
    NodeStatus,
    improvement,
    leaves,
    observed_scores,
    path_decisions,
    prune,
    singleton,
)
from incver.verifier import (
    Mode,
    RunVerdict,
    VerifierConfig,
    delta_bound,
    predicted_cost,
    verify,
    verify_incremental,
)
from bound_oracles import analyze_region, brute_force_minimum, exact_margin, relaxed_minimum
from lp_oracles import random_lp, vertex_minimum

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
CRITERIA = 9
LINES = []  # this session's report lines, in the order emitted
REPORTED = set()  # the criteria that have reported this session
MODES = (Mode.BASELINE, Mode.REUSE, Mode.REORDER, Mode.IVAN)
SOLVED = (RunVerdict.VERIFIED, RunVerdict.COUNTEREXAMPLE)
SAMPLES = 100_000


def emit(line: str) -> None:
    print(line)
    LINES.append(line)


def reported(num: int) -> None:
    """Criterion ``num`` has emitted its line; write the report once all have."""
    REPORTED.add(num)
    if len(REPORTED) == CRITERIA:
        REPORT.write_text("".join(f"{entry}\n" for entry in LINES), encoding="utf-8")


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    emit(line)
    reported(num)
    assert ok, line


# ------------------------------------------------------------ shared helpers


def random_net(rng, n_in, hidden, n_out, scale=1.0):
    dims = [n_in, *hidden, n_out]
    layers = []
    for i in range(len(dims) - 1):
        w = rng.normal(size=(dims[i + 1], dims[i])) * scale / np.sqrt(dims[i])
        b = rng.normal(size=dims[i + 1]) * 0.2
        layers.append(Affine(w, b))
        if i < len(dims) - 2:
            layers.append(Relu())
    return Network(tuple(layers))


def batch_outputs(net, points):
    out = np.asarray(points, dtype=float)
    for layer in net.layers:
        if isinstance(layer, Affine):
            out = out @ layer.weights.T + layer.bias
        else:
            out = np.maximum(out, 0.0)
    return out


def probe_points(box, rng, samples=256):
    lo, hi = box.lower, box.upper
    pts = [lo, hi]
    if lo.size <= 8:
        corners = np.array(list(itertools.product((0, 1), repeat=lo.size)), dtype=float)
        pts.append(lo + corners * (hi - lo))
    pts.append(lo + rng.random((samples, lo.size)) * (hi - lo))
    return np.vstack([np.atleast_2d(p) for p in pts])


def shaped_property(rng, net, n_in, kind):
    """Random box and constraint with the margin nudged toward a regime."""
    lo = rng.uniform(-1.0, 0.3, n_in)
    hi = lo + rng.uniform(0.3, 1.4, n_in)
    box = InputBox(lo, hi)
    c = rng.normal(size=net.output_dim)
    probe_min = float((batch_outputs(net, probe_points(box, rng)) @ c).min())
    if kind == "verified":
        d = -probe_min + float(rng.uniform(0.3, 1.0))
    elif kind == "violated":
        d = -probe_min - float(rng.uniform(0.3, 1.0))
    else:
        d = -probe_min + float(rng.uniform(-0.08, 0.08))
    return Property(box, OutputConstraint(c, d))


def violation_point(net, prop, seed=0, samples=SAMPLES):
    """Corner enumeration plus dense random search; None when clean."""
    rng = np.random.default_rng(seed)
    lo, hi = prop.input.lower, prop.input.upper
    pts = [probe_points(prop.input, rng, samples=0)]
    pts.append(lo + rng.random((samples, lo.size)) * (hi - lo))
    points = np.vstack(pts)
    margins = batch_outputs(net, points) @ prop.output.c + prop.output.d
    k = int(np.argmin(margins))
    if margins[k] < 0:
        return points[k]
    return None


# ---------------------------------------------- criterion 1: running example


def demo_fixture():
    """The shipped running example: network, its int8 copy, property, heuristic."""
    knobs = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))
    heur = HeuristicConfig(
        base=BaseHeuristic(knobs["heuristic"]),
        alpha=knobs["alpha"],
        theta=knobs["theta"],
        seed=knobs["seed"],
    )
    return (
        load_network(FIXTURES / "demo_network.json"),
        load_network(FIXTURES / "demo_updated.json"),
        load_property(FIXTURES / "demo_property.json"),
        heur,
    )


def test_criterion_1_running_example():
    start = time.perf_counter()
    net, updated, prop, heur = demo_fixture()
    # The fixture's recorded seed realizes the scripted ranking r1 > r3 > r4 > r2.
    r = [ReluId(0, 0), ReluId(1, 0), ReluId(1, 1), ReluId(0, 1)]
    rids = relu_ids(net)
    scores = [split_scores(heur, None, [rids.index(rid)], [rid])[0] for rid in r]
    assert scores == sorted(scores, reverse=True), scores
    assert network_to_json(updated)["layers"] == network_to_json(quantize(net, 8))["layers"]

    cfg = VerifierConfig(mode=Mode.BASELINE, heuristic=heur, timeout=30.0)
    base = verify(net, prop, cfg)
    assert base.verdict is RunVerdict.VERIFIED
    root_lb = base.tree.node(base.tree.root).lb

    reuse = verify(updated, prop, cfg, initial_tree=base.tree)
    assert reuse.verdict is RunVerdict.VERIFIED

    ivan_cfg = VerifierConfig(mode=Mode.IVAN, heuristic=heur, timeout=30.0)
    _, second = verify_incremental(net, updated, prop, ivan_cfg)
    assert second.verdict is RunVerdict.VERIFIED

    elapsed = time.perf_counter() - start
    ok = (
        (base.metrics.boundings, base.metrics.branchings) == (9, 4)
        and (reuse.metrics.boundings, reuse.metrics.branchings) == (5, 0)
        and (second.metrics.boundings, second.metrics.branchings) == (3, 0)
        and abs(root_lb - (-7.0)) <= 1e-6
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"baseline 9/4, reuse {reuse.metrics.boundings}/{reuse.metrics.branchings}, "
        f"ivan {second.metrics.boundings}/{second.metrics.branchings}, "
        f"root lb {root_lb:.9f}, {elapsed:.2f}s",
    )


R1, R2, R3, R4 = ReluId(0, 0), ReluId(0, 1), ReluId(1, 0), ReluId(1, 1)
U, V = NodeStatus.UNKNOWN, NodeStatus.VERIFIED
DEMO_TREE = {  # id: (parent, decision as (layer, neuron, sign), status)
    0: (None, None, U),
    1: (0, (0, 0, "+"), U),
    2: (0, (0, 0, "-"), U),
    3: (1, (1, 0, "+"), V),
    4: (1, (1, 0, "-"), V),
    5: (2, (1, 0, "+"), V),
    6: (2, (1, 0, "-"), U),
    7: (6, (1, 1, "+"), V),
    8: (6, (1, 1, "-"), V),
}
DEMO_PRUNED = {  # id: (parent, decision): the root splits r3, its "-" child r4
    0: (None, None),
    1: (0, (1, 0, "+")),
    2: (0, (1, 0, "-")),
    3: (2, (1, 1, "+")),
    4: (2, (1, 1, "-")),
}
SEPARATION = 1.3  # theta clears each side of the improvement gap by this factor


def shape(tree):
    """Each node as id: (parent, decision as (layer, neuron, sign))."""
    return {
        nid: (n.parent, None if n.decision is None else (*n.decision.rid, n.decision.sign))
        for nid, n in tree.nodes.items()
    }


def test_demo_fixture_proof_trees():
    # The running example's trees, whole: the baseline proof, what pruning
    # at theta keeps of it, the trees the second runs re-verify on the int8
    # copy, the split ranking the observations invert, and a true margin.
    net, updated, prop, heur = demo_fixture()
    cfg = VerifierConfig(mode=Mode.BASELINE, heuristic=heur, timeout=30.0)
    tree = verify(net, prop, cfg).tree
    assert {nid: (*edge, tree.node(nid).status) for nid, edge in shape(tree).items()} == DEMO_TREE
    assert tree.node(tree.root).lb == pytest.approx(-7.0, abs=1e-6)

    # theta is not on a knife's edge: the root's split misses it and the
    # splits under node 2 clear it, each by the separation factor
    assert improvement(tree, 0) * SEPARATION < heur.theta
    assert min(improvement(tree, 2), improvement(tree, 6)) / SEPARATION > heur.theta
    assert shape(prune(tree, heur.theta)) == DEMO_PRUNED

    for mode, want in ((Mode.REUSE, shape(tree)), (Mode.IVAN, DEMO_PRUNED)):
        _, second = verify_incremental(net, updated, prop, dataclasses.replace(cfg, mode=mode))
        assert shape(second.tree) == want, mode
        assert all(n.status is V for n in second.tree.nodes.values() if n.is_leaf), mode

    def ranking(observed):
        score = {
            rid: split_scores(heur, None, [relu_ids(net).index(rid)], [rid], observed)[0]
            for rid in (R1, R2, R3, R4)
        }
        return sorted(score, key=score.get, reverse=True)

    # the seed's base order, which the baseline tree's observations invert;
    # observing nothing only scales the base scores by alpha
    assert ranking(None) == [R1, R3, R4, R2]
    assert ranking(observed_scores(tree)) == [R4, R3, R2, R1]
    assert ranking({}) == [R1, R3, R4, R2]

    # the property holds with room to spare on both networks: a grid minimum
    axes = [np.linspace(lo, hi, 201) for lo, hi in zip(prop.input.lower, prop.input.upper)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    for model, floor in ((net, 0.25), (updated, 0.15)):
        assert (batch_outputs(model, grid) @ prop.output.c + prop.output.d).min() >= floor


# ------------------------------------- criteria 2, 4, 6: shared run batch


@pytest.fixture(scope="module")
def batch():
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    kinds = ("verified", "violated", "tight")
    records = []
    for i in range(200):
        kind = kinds[i % 3]
        n_in = int(rng.integers(2, 7))
        if kind == "tight":
            hidden = [int(rng.integers(3, 7))]
        elif rng.random() < 0.5:
            hidden = [int(rng.integers(2, 7))]
        else:
            hidden = [int(rng.integers(2, 7)), int(rng.integers(2, 7))]
        net = random_net(rng, n_in, hidden, int(rng.integers(1, 4)), scale=1.2)
        prop = shaped_property(rng, net, n_in, kind)
        pert = (
            QuantizeInt8(),
            QuantizeInt16(),
            UniformRandom(fraction=float(rng.uniform(0.005, 0.03)), seed=i),
            LastLayer(rng.normal(size=net.layers[-1].weights.shape) * 0.01),
        )[i % 4]
        updated = perturb(net, pert)
        heur = HeuristicConfig(
            base=BaseHeuristic.RANDOM if i % 3 == 0 else BaseHeuristic.COEFWIDTH,
            alpha=float(rng.choice([0.0, 0.25, 0.5, 1.0])),
            theta=float(rng.choice([0.005, 0.05, 0.2])),
            seed=i,
        )
        runs = {}
        for mode in MODES:
            cfg = VerifierConfig(mode=mode, heuristic=heur, timeout=600.0)
            runs[mode] = verify_incremental(net, updated, prop, cfg)
        records.append(
            {"net": net, "updated": updated, "prop": prop, "heur": heur, "runs": runs}
        )
    return {"records": records, "elapsed": time.perf_counter() - start}


def test_criterion_2_mode_agreement_and_oracles(batch):
    records = batch["records"]
    assert len(records) >= 200
    verified = ce = 0
    for i, rec in enumerate(records):
        first_verdicts = {rec["runs"][m][0].verdict for m in MODES}
        second_verdicts = {rec["runs"][m][1].verdict for m in MODES}
        assert len(first_verdicts) == 1 and len(second_verdicts) == 1, f"instance {i}"
        for pos, net in ((0, rec["net"]), (1, rec["updated"])):
            res = rec["runs"][Mode.BASELINE][pos]
            assert res.verdict in SOLVED, f"instance {i} did not solve"
            if res.verdict is RunVerdict.VERIFIED:
                assert violation_point(net, rec["prop"], seed=i) is None, f"instance {i}"
                verified += 1
            else:
                assert not holds_concretely(rec["prop"], net, res.counterexample), f"instance {i}"
                ce += 1
        for mode in MODES:  # every reported point is a counterexample in exact arithmetic
            for net, res in zip((rec["net"], rec["updated"]), rec["runs"][mode]):
                if res.verdict is RunVerdict.COUNTEREXAMPLE:
                    assert exact_margin(net, rec["prop"], res.counterexample) < 0, f"instance {i}"
    elapsed = batch["elapsed"]
    ok = elapsed < 600.0
    report(
        2,
        ok,
        f"{len(records)} instances x 4 modes, {verified} verified / {ce} refuted "
        f"runs against a {SAMPLES}-sample + corner oracle, {elapsed:.0f}s",
    )


def test_criterion_4_cost_accounting(batch):
    checked = 0
    for rec in batch["records"]:
        theta = rec["heur"].theta
        for mode in MODES:
            first, second = rec["runs"][mode]
            for run, tree0 in (
                (first, singleton()),
                (second, second_initial_tree(mode, first.tree, theta)),
            ):
                predicted = predicted_cost(1.0, 1.0, tree0, run.tree)
                measured = run.metrics.boundings + run.metrics.branchings
                assert predicted == float(measured), (mode, predicted, measured)
                checked += 1
    report(4, True, f"{checked} runs match predicted_cost(1, 1) exactly")


def second_initial_tree(mode, first_tree, theta):
    if mode is Mode.REUSE:
        return first_tree
    if mode is Mode.IVAN:
        return prune(first_tree, theta)
    return singleton()


def assert_valid_tree(tree):
    for node in tree.nodes.values():
        kids = (node.left, node.right)
        assert kids == (None, None) or None not in kids, f"node {node.node_id} has one child"
        if node.left is not None:
            left, right = tree.node(node.left), tree.node(node.right)
            assert left.parent == node.node_id and right.parent == node.node_id
            assert left.decision == right.decision.complement()
    for leaf in leaves(tree):
        keys = [d.key() for d in path_decisions(tree, leaf)]
        assert len(keys) == len(set(keys)), f"repeated split on path to {leaf}"


def assert_prune_faithful(original, pruned, theta):
    """Re-derive prune's documented splice walk and compare structures."""

    def settle(node_id):
        src = original.node(node_id)
        while not src.is_leaf:
            try:
                imp = improvement(original, src.node_id)
            except ValueError:
                break  # unevaluable split: kept as recorded
            if imp >= theta:
                break
            left, right = original.node(src.left), original.node(src.right)
            src = left if left.lb <= right.lb else right
        return src

    pairs = [(original.root, pruned.root)]
    while pairs:
        src_id, dst_id = pairs.pop()
        src = settle(src_id)
        dst = pruned.node(dst_id)
        if src.is_leaf:
            assert dst.is_leaf
            continue
        assert not dst.is_leaf
        try:
            assert improvement(original, src.node_id) >= theta
        except ValueError:
            pass
        src_l, src_r = original.node(src.left), original.node(src.right)
        dst_l, dst_r = pruned.node(dst.left), pruned.node(dst.right)
        assert dst_l.decision == src_l.decision and dst_r.decision == src_r.decision
        pairs.append((src.left, dst.left))
        pairs.append((src.right, dst.right))


def test_criterion_6_pruning_validity(batch):
    audited = 0
    for rec in batch["records"]:
        theta = rec["heur"].theta
        trees = [rec["runs"][Mode.BASELINE][0].tree]
        trees += [rec["runs"][m][1].tree for m in MODES]
        for tree in trees:
            pruned = prune(tree, theta)
            assert_valid_tree(pruned)
            assert_prune_faithful(tree, pruned, theta)
            audited += 1
        assert rec["runs"][Mode.IVAN][1].verdict == rec["runs"][Mode.BASELINE][1].verdict
        assert rec["runs"][Mode.IVAN][0].verdict == rec["runs"][Mode.BASELINE][0].verdict
    report(6, True, f"{audited} pruned trees valid, IVAN verdicts match baseline")


# --------------------------------------- criterion 3: exact-analyzer oracle


def test_criterion_3_fully_split_exactness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(50):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(1, 4))], int(rng.integers(1, 3)))
        prop = shaped_property(rng, net, n_in, ("verified", "violated", "tight")[i % 3])
        rids = relu_ids(net)
        best = np.inf
        for signs in itertools.product("+-", repeat=len(rids)):
            res = analyze_region(net, prop, dict(zip(rids, signs)))
            if not res.infeasible:
                best = min(best, res.lb_value)
        exact = brute_force_minimum(net, prop)
        assert exact is not None
        worst = max(worst, abs(best - exact))
        assert abs(best - exact) <= 1e-6, f"net {i}: {best} vs {exact}"
    report(3, True, f"50 nets, fully-split LB off by at most {worst:.2e}")


# ------------------------------------ criterion 5: last-layer perturbations


def test_criterion_5_delta_bound_reuse():
    rng = np.random.default_rng(5)
    cfg = VerifierConfig(timeout=60.0)
    pairs = trials = 0
    min_delta = np.inf
    while pairs < 50:
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(2, 4))], 1)
        lo = rng.uniform(-0.8, 0.2, n_in)
        box = InputBox(lo, lo + rng.uniform(0.4, 1.2, n_in))
        c = rng.normal(size=1)
        probe_min = float((batch_outputs(net, probe_points(box, rng)) @ c).min())
        prop = Property(box, OutputConstraint(c, -probe_min + float(rng.uniform(0.25, 0.7))))
        run = verify(net, prop, cfg)
        if run.verdict is not RunVerdict.VERIFIED:
            continue
        bound = delta_bound(net, prop, run.tree)
        if not np.isfinite(bound.delta) or bound.delta <= 0:
            continue
        min_delta = min(min_delta, bound.delta)
        n_leaves = len(leaves(run.tree))
        for _ in range(50):
            shift = rng.normal(size=net.layers[-1].weights.shape)
            shift *= bound.delta * float(rng.uniform(0.05, 0.999)) / np.linalg.norm(shift)
            redo = verify(perturb(net, LastLayer(shift)), prop, cfg, initial_tree=run.tree)
            assert redo.verdict is RunVerdict.VERIFIED
            assert redo.metrics.boundings == n_leaves
            assert redo.metrics.branchings == 0
            trials += 1
        pairs += 1
    report(5, True, f"{pairs} pairs x 50 perturbations ({trials} trials), min delta {min_delta:.3g}")


# ----------------------------------- criterion 7: desk-scale speedup (soft)


def test_criterion_7_quantized_speedup_table():
    rng = np.random.default_rng(7)
    # theta sits below this family's typical split improvements (~1e-2),
    # so pruning keeps what worked instead of flattening the proof.
    cfg_kw = {"heuristic": HeuristicConfig(theta=0.002), "timeout": 120.0}
    rows = []
    for i in range(6):
        n_in = int(rng.integers(3, 5))
        net = random_net(rng, n_in, [8, 6], 1, scale=1.1)
        lo = rng.uniform(-0.9, 0.1, n_in)
        box = InputBox(lo, lo + rng.uniform(0.7, 1.3, n_in))
        c = rng.normal(size=1)
        # Place the threshold between the root relaxation's bound and the
        # sampled minimum: verified, but only after some splitting.
        probe_min = float((batch_outputs(net, probe_points(box, rng, samples=4096)) @ c).min())
        relaxed_min = relaxed_minimum(net, Property(box, OutputConstraint(c, 0.0)))
        frac = float(rng.uniform(0.3, 0.5))
        prop = Property(box, OutputConstraint(c, -relaxed_min - frac * (probe_min - relaxed_min)))
        for label, pert in (("int8", QuantizeInt8()), ("int16", QuantizeInt16())):
            base_pair = verify_incremental(
                net, perturb(net, pert), prop, VerifierConfig(mode=Mode.BASELINE, **cfg_kw)
            )
            ivan_pair = verify_incremental(
                net, perturb(net, pert), prop, VerifierConfig(mode=Mode.IVAN, **cfg_kw)
            )
            rows.append(
                {
                    "net": f"net{i}",
                    "quant": label,
                    "verdict": base_pair[1].verdict.value,
                    "agrees": base_pair[1].verdict == ivan_pair[1].verdict,
                    "base_nodes": base_pair[1].metrics.nodes_final,
                    "base_ms": base_pair[1].metrics.wall_time * 1e3,
                    "ivan_ms": ivan_pair[1].metrics.wall_time * 1e3,
                }
            )
    emit("criterion 7 table (all instances):")
    emit(f"  {'net':<6}{'quant':<7}{'verdict':<16}{'base nodes':<12}{'base ms':<10}{'ivan ms':<10}ratio")
    hard = []
    for row in rows:
        ratio = row["base_ms"] / row["ivan_ms"] if row["ivan_ms"] > 0 else float("inf")
        emit(
            f"  {row['net']:<6}{row['quant']:<7}{row['verdict']:<16}{row['base_nodes']:<12}"
            f"{row['base_ms']:<10.2f}{row['ivan_ms']:<10.2f}{ratio:.2f}"
        )
        assert row["agrees"], row
        assert row["verdict"] in (v.value for v in SOLVED), row
        if row["base_nodes"] > 5:
            hard.append(row)
    assert len(hard) >= 5, "suite produced too few hard instances"
    sp = sum(r["base_ms"] for r in hard) / sum(r["ivan_ms"] for r in hard)
    never_slower = all(r["ivan_ms"] <= 2.0 * r["base_ms"] for r in hard)
    ok = sp >= 1.2 and never_slower
    line = (
        f"criterion 7: {'PASS' if ok else 'FAIL'} (soft target; Sp {sp:.2f} over "
        f"{len(hard)} hard instances, ivan within 2x baseline: {never_slower})"
    )
    emit(line)
    reported(7)


# ----------------------------------------- criterion 8: LP solver vs oracle


def test_criterion_8_lp_against_vertex_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    infeasible_seen = 0
    for i in range(500):
        family = ("feasible", "feasible", "feasible", "loose", "infeasible")[i % 5]
        if i % 12 == 0:
            lp = random_lp(rng, n_max=10, m_max=2, family=family)
        else:
            lp = random_lp(rng, n_max=5, m_max=8, family=family)
        got = solve(lp)
        status, value = vertex_minimum(lp)
        if family == "infeasible":
            assert status == "infeasible"
        if status == "infeasible":
            assert got.status is LpStatus.INFEASIBLE, f"lp {i}"
            infeasible_seen += 1
        else:
            assert got.status is LpStatus.OPTIMAL, f"lp {i}: {got.status}"
            worst = max(worst, abs(got.value - value))
            assert abs(got.value - value) <= 1e-6, f"lp {i}: {got.value} vs {value}"
    report(8, True, f"500 LPs, worst gap {worst:.2e}, {infeasible_seen} infeasible all flagged")


# -------------------------------------- criterion 9: input-splitting mode


def test_criterion_9_input_splitting_agreement():
    rng = np.random.default_rng(9)
    verified = ce = 0
    for i in range(20):
        n_in = int(rng.integers(2, 6))
        net = random_net(rng, n_in, [int(rng.integers(3, 6))], int(rng.integers(1, 3)))
        lo = rng.uniform(-1.5, 0.0, n_in)
        box = InputBox(lo, lo + rng.uniform(1.0, 3.0, n_in))
        c = rng.normal(size=net.output_dim)
        probe_min = float((batch_outputs(net, probe_points(box, rng)) @ c).min())
        offset = float(rng.uniform(0.5, 1.2))
        d = -probe_min + (offset if i % 2 == 0 else -offset)
        prop = Property(box, OutputConstraint(c, d))

        cfg = VerifierConfig(branching="input", timeout=120.0)
        run = verify(net, prop, cfg)
        if run.verdict is RunVerdict.VERIFIED:
            assert violation_point(net, prop, seed=100 + i) is None, f"instance {i}"
            verified += 1
        else:
            assert run.verdict is RunVerdict.COUNTEREXAMPLE, f"instance {i} timed out"
            assert not holds_concretely(prop, net, run.counterexample)
            assert exact_margin(net, prop, run.counterexample) < 0, f"instance {i}"
            ce += 1

        updated = perturb(net, UniformRandom(fraction=0.01, seed=i))
        pairs = {
            mode: verify_incremental(
                net, updated, prop, VerifierConfig(mode=mode, branching="input", timeout=120.0)
            )
            for mode in (Mode.BASELINE, Mode.IVAN)
        }
        assert pairs[Mode.IVAN][0].verdict == pairs[Mode.BASELINE][0].verdict
        assert pairs[Mode.IVAN][1].verdict == pairs[Mode.BASELINE][1].verdict
        for pair in pairs.values():
            for model, res in zip((net, updated), pair):
                if res.verdict is RunVerdict.COUNTEREXAMPLE:
                    assert exact_margin(model, prop, res.counterexample) < 0, f"instance {i}"
    report(9, True, f"20 global properties ({verified} verified, {ce} refuted), ivan == baseline")

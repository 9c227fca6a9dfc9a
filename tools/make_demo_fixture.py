"""Search for the demo fixture network and freeze it under fixtures/.

The demo is a 2-2-2-1 ReLU network with four ambiguous units whose
baseline proof tree has exactly nine nodes, a root lower bound of -7,
and a shape where pruning at the shipped theta keeps the subtree under
the root's right child.  On the int8-quantized copy the reused tree
re-verifies with five boundings and the pruned tree with three.  Those
counts are what the acceptance suite pins.

The search exploits two exact degrees of freedom.  Scaling the final
affine layer by k > 0 scales every relaxed bound's distance from the
output constraint (the LP region never involves that layer), and a
final-bias shift moves all bounds uniformly.  After pinning the root at
-7, every node's bound is k * (raw gap from root) - 7, and the split
cascade itself does not depend on k, so one pass of raw gap measurements
per draw yields the feasible k-window in closed form.

Writes:

    fixtures/demo_network.json
    fixtures/demo_updated.json
    fixtures/demo_property.json
    fixtures/demo_config.json

Run from the repository root:

    python3 tools/make_demo_fixture.py
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from incver.analyzer import analyze, compute_bounds
from incver.heuristics import BaseHeuristic, HeuristicConfig, base_score, split_scores
from incver.model import Affine, Network, Relu, quantize, save_network
from incver.props import InputBox, OutputConstraint, Property, save_property
from incver.spectree import (
    NodeStatus,
    ReluDecision,
    ReluId,
    improvement,
    observed_scores,
    prune,
)
from incver.verifier import Mode, RunVerdict, VerifierConfig, verify, verify_incremental

R1 = ReluId(0, 0)
R2 = ReluId(0, 1)
R3 = ReluId(1, 0)
R4 = ReluId(1, 1)

TARGET_ROOT_LB = -7.0
THETA_CANDIDATES = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5)
SEPARATION = 1.3   # theta must clear both sides of the gap by this factor
VERIFIED_MARGIN = 0.4   # nodes that must verify clear zero by at least this
UNKNOWN_MARGIN = 0.25   # nodes that must stay unknown sit at least this below


def demo_property() -> Property:
    return Property(
        InputBox(np.zeros(2), np.ones(2)),
        OutputConstraint(np.array([1.0]), 14.0),
        name="demo",
    )


def sample_network(seed: int) -> Network:
    """One draw from the structured family (final layer rescaled later).

    The geometry is deliberate.  Unit r2 is an exact negative multiple of
    r1, so it is ambiguous on the whole box but resolves exactly on both
    sides of the r1 split (dead on the active side, linear on the dead
    side) and is never worth splitting itself.  The output weights are
    negative, the second-layer rows push post2 in opposite directions,
    and the small magnitudes of p and rho keep r1's downstream influence
    weak, which makes the root's r1 split a low-gain decoy while the
    r3/r4 chords carry the relaxation slack.  The true minimizer sits on
    the r1 boundary line, inside the closures of both r3-dead cells.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.6, 1.4, size=2)
    t = float(rng.uniform(0.40, 0.65))
    asum = float(a.sum())
    h_plus = (1.0 - t) * asum          # post1 range on the r1-active side
    lam = float(rng.uniform(0.05, 0.30))
    p2max = lam * t * asum             # post2 range on the r1-dead side
    q = float(rng.uniform(1.5, 3.2))
    sigma = float(rng.uniform(1.5, 3.2))
    u1 = float(rng.uniform(0.6, 1.2))
    u2 = float(rng.uniform(1.0, 1.8))
    if u1 * q >= u2 * sigma:
        sigma = (u1 * q / u2) * float(rng.uniform(1.1, 1.4))
    beta3 = q * p2max * float(rng.uniform(0.45, 0.80))      # r3 threshold
    p = beta3 / h_plus * float(rng.uniform(1.15, 2.2))      # r3 ambiguous on both sides
    beta4 = (sigma * beta3 / q) * float(rng.uniform(0.45, 0.80))  # r4 ambiguous under r3-dead
    rho = min(0.9 * beta4 / h_plus, (u1 * p / u2) * float(rng.uniform(0.7, 1.1)))

    w1 = np.array([[a[0], a[1]], [-lam * a[0], -lam * a[1]]])
    b1 = np.array([-t * asum, lam * t * asum])
    w2 = np.array([[p, q], [-rho, -sigma]])
    b2 = np.array([-beta3, beta4])
    w3 = np.array([[-u1, -u2]])
    return Network(
        (Affine(w1, b1), Relu(), Affine(w2, b2), Relu(), Affine(w3, np.zeros(1))),
        name="demo",
    )


def with_final_bias(net: Network, delta: float) -> Network:
    last = net.layers[-1]
    shifted = Affine(last.weights, last.bias + delta)
    return Network(net.layers[:-1] + (shifted,), name=net.name)


def scale_last(net: Network, k: float) -> Network:
    last = net.layers[-1]
    return Network(net.layers[:-1] + (Affine(k * last.weights, k * last.bias),), name=net.name)


def grid_min(net: Network, n: int = 701) -> float:
    """Coarse true minimum of c.y + d on the unit square (sanity margin)."""
    xs = np.linspace(0.0, 1.0, n)
    g = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    h = g
    for layer in net.layers:
        if isinstance(layer, Affine):
            h = h @ layer.weights.T + layer.bias
        else:
            h = np.maximum(h, 0.0)
    return float(np.min(h[:, 0] + 14.0))


def parent_bounds(net: Network, box: InputBox, splits: dict):
    """Bounds of the parent of the node under ``splits`` (in path order).

    Each ancestor is bounded from its own parent, one propagation pass at a
    time, as ``verify`` bounds the nodes of a tree; None at the root.
    """
    items = list(splits.items())
    bounds = None
    for k in range(len(items)):
        bounds = compute_bounds(net, box, dict(items[:k]), parent=bounds)
    return bounds


def cascade_windows(raw: Network, prop: Property):
    """Measure raw gaps along the priority cascade and solve for k-windows.

    Returns (windows, None) where each window dict carries the usable
    k-range for one choice of the deep node, or (None, stage tag).
    """
    box = prop.input
    bounds = compute_bounds(raw, box, {})
    if not all(bounds.is_ambiguous(rid) for rid in (R1, R2, R3, R4)):
        return None, "stable-unit"
    root_lb = analyze(raw, prop, {}).lb_value
    if not np.isfinite(root_lb):
        return None, "vacuous"

    def gap(splits: dict) -> float:
        return analyze(raw, prop, splits, parent=parent_bounds(raw, box, splits)).lb_value - root_lb

    def bounds_at(splits: dict):
        return compute_bounds(raw, box, splits, parent=parent_bounds(raw, box, splits))

    g1 = gap({R1: "+"})
    g2 = gap({R1: "-"})
    if not g2 < g1 - 1e-7:
        return None, "decoy-order"
    if not (
        bounds_at({R1: "+"}).is_ambiguous(R3)
        and bounds_at({R1: "-"}).is_ambiguous(R3)
    ):
        return None, "r3-not-ambiguous"

    g3 = gap({R1: "+", R3: "+"})
    g4 = gap({R1: "+", R3: "-"})
    g5 = gap({R1: "-", R3: "+"})
    g6 = gap({R1: "-", R3: "-"})
    slack = grid_min(raw, 301) - root_lb

    windows = []
    cases = (
        ("n6", g6, g5, {R1: "-", R3: "-"}, ({R3: "+"}, {R3: "-", R4: "+"}, {R3: "-", R4: "-"})),
        ("n5", g5, g6, {R1: "-", R3: "+"}, ({R3: "-"}, {R3: "+", R4: "+"}, {R3: "+", R4: "-"})),
    )
    for tag, deep_g, shallow_g, deep_splits, pruned_leaves in cases:
        if not bounds_at(deep_splits).is_ambiguous(R4):
            continue
        dp = gap({**deep_splits, R4: "+"})
        dm = gap({**deep_splits, R4: "-"})
        pruned = [gap(dict(s)) for s in pruned_leaves]
        must_verify = min(g3, g4, shallow_g, dp, dm, *pruned, slack)
        must_stay = max(g1, g2, deep_g)
        if must_stay <= 0.0 or must_verify <= 0.0:
            continue
        k_lo = (-TARGET_ROOT_LB + VERIFIED_MARGIN) / must_verify
        # Cap the scale so int8 quantization noise stays well under the margins.
        k_hi = min((-TARGET_ROOT_LB - UNKNOWN_MARGIN) / must_stay, 60.0)
        if k_lo >= k_hi:
            continue
        windows.append(
            {
                "tag": tag,
                "k_lo": k_lo,
                "k_hi": k_hi,
                "g2": g2,
                "improve_n2": min(g5, g6) - g2,
                "improve_deep": min(dp, dm) - deep_g,
                "root_lb": root_lb,
            }
        )
    if not windows:
        return None, "window-empty"
    return windows, None


def pick_theta(g2: float, good: float) -> float | None:
    lo = max(g2, 0.0) * SEPARATION
    hi = good / SEPARATION
    usable = [t for t in THETA_CANDIDATES if lo < t < hi]
    if not usable:
        return None
    return usable[len(usable) // 2]


def base_order_ok(seed: int) -> bool:
    cfg = HeuristicConfig(base=BaseHeuristic.RANDOM, seed=seed)
    s = {rid: base_score(cfg, None, rid) for rid in (R1, R2, R3, R4)}
    return s[R1] > s[R3] > s[R4] > s[R2]


def chain_ok(seed: int, theta: float, hobs: dict) -> bool:
    """Updated scores must invert the base order into r4 > r3 > r2 > r1."""
    cfg = HeuristicConfig(base=BaseHeuristic.RANDOM, seed=seed, alpha=0.25, theta=theta)
    (u1, u2), (u3, u4) = (split_scores(cfg, None, layer, [0, 1], hobs) for layer in (0, 1))
    return u4 > u3 > u2 > u1


@dataclasses.dataclass
class Shape:
    """Everything the battery needs from one baseline run."""

    tree: object
    root_lb: float
    n1_lb: float
    n2_lb: float
    unknown_child: int  # node id under n2 that needed a further split
    gaps: dict


def inspect_tree(tree) -> Shape | None:
    """Check the 9-node target shape; None when the run missed it."""
    if tree.num_nodes() != 9 or tree.num_leaves() != 5:
        return None
    root = tree.node(tree.root)
    n1, n2 = tree.node(root.left), tree.node(root.right)
    if n1.decision != ReluDecision(R1, "+") or n2.decision != ReluDecision(R1, "-"):
        return None
    for parent in (n1, n2):
        if parent.left is None:
            return None
        if tree.node(parent.left).decision != ReluDecision(R3, "+"):
            return None
    # n1's children are verified leaves.
    for cid in (n1.left, n1.right):
        child = tree.node(cid)
        if child.left is not None or child.status is not NodeStatus.VERIFIED:
            return None
    # Exactly one of n2's children splits r4; the rest of the frontier is verified.
    internal = [cid for cid in (n2.left, n2.right) if tree.node(cid).left is not None]
    if len(internal) != 1:
        return None
    deep = tree.node(internal[0])
    if tree.node(deep.left).decision != ReluDecision(R4, "+"):
        return None
    for cid in (deep.left, deep.right):
        if tree.node(cid).status is not NodeStatus.VERIFIED:
            return None
    leaf_sibling = n2.left if internal[0] == n2.right else n2.right
    if tree.node(leaf_sibling).status is not NodeStatus.VERIFIED:
        return None

    g1 = n1.lb - root.lb
    g2 = n2.lb - root.lb
    good = min(improvement(tree, root.right), improvement(tree, internal[0]))
    if not (0.0 <= g2 < g1):
        return None
    gaps = {"g1": g1, "g2": g2, "good": good}
    return Shape(tree, root.lb, n1.lb, n2.lb, internal[0], gaps)


def run_battery(net: Network, prop: Property, hseed: int, theta: float):
    """Run every fixture requirement end to end; a report dict or None."""
    heur = HeuristicConfig(base=BaseHeuristic.RANDOM, seed=hseed, alpha=0.25, theta=theta)
    cfg = VerifierConfig(mode=Mode.BASELINE, heuristic=heur, timeout=30.0)

    first = verify(net, prop, cfg)
    if first.verdict is not RunVerdict.VERIFIED:
        return None
    if (first.metrics.boundings, first.metrics.branchings) != (9, 4):
        return None
    shape = inspect_tree(first.tree)
    if shape is None or abs(shape.root_lb - TARGET_ROOT_LB) > 1e-8:
        return None
    lo = max(shape.gaps["g2"], 0.0) * SEPARATION
    hi = shape.gaps["good"] / SEPARATION
    if not (lo < theta < hi):
        return None

    updated = quantize(net, 8)
    if grid_min(net) < 0.25 or grid_min(updated) < 0.15:
        return None

    # Reuse: every leaf of the carried tree re-verifies, no new splits.
    reuse = verify(updated, prop, dataclasses.replace(cfg, mode=Mode.REUSE), initial_tree=first.tree)
    if reuse.verdict is not RunVerdict.VERIFIED:
        return None
    if (reuse.metrics.boundings, reuse.metrics.branchings) != (5, 0):
        return None

    # Prune keeps the subtree under the root's right child, spliced to the root.
    pruned = prune(first.tree, theta)
    if pruned.num_nodes() != 5 or pruned.num_leaves() != 3:
        return None
    proot = pruned.node(pruned.root)
    if pruned.node(proot.left).decision != ReluDecision(R3, "+"):
        return None
    hobs = observed_scores(first.tree)
    ivan = verify(updated, prop, dataclasses.replace(cfg, mode=Mode.IVAN), initial_tree=pruned, hobs=hobs)
    if ivan.verdict is not RunVerdict.VERIFIED:
        return None
    if (ivan.metrics.boundings, ivan.metrics.branchings) != (3, 0):
        return None

    # End to end through the dispatcher as the CLI will drive it.
    for mode, want in ((Mode.REUSE, (5, 0)), (Mode.IVAN, (3, 0))):
        pair = verify_incremental(net, updated, prop, dataclasses.replace(cfg, mode=mode))
        got = (pair[1].metrics.boundings, pair[1].metrics.branchings)
        if pair[1].verdict is not RunVerdict.VERIFIED or got != want:
            return None

    return {
        "shape": shape,
        "hobs": hobs,
        "updated": updated,
        "reuse": reuse,
        "ivan": ivan,
        "margins": (grid_min(net), grid_min(updated)),
    }


def find_fixture(max_net_seeds: int, max_hseeds: int, shape_seed: int):
    prop = demo_property()
    if not base_order_ok(shape_seed):
        raise SystemExit(f"shape seed {shape_seed} does not give the base order r1>r3>r4>r2")
    heur0 = HeuristicConfig(base=BaseHeuristic.RANDOM, seed=shape_seed)
    cfg0 = VerifierConfig(mode=Mode.BASELINE, heuristic=heur0, timeout=30.0)
    hseed_pool = [s for s in range(max_hseeds) if base_order_ok(s)]

    stages = collections.Counter()
    for net_seed in range(max_net_seeds):
        raw = sample_network(net_seed)
        windows, why = cascade_windows(raw, prop)
        if windows is None:
            stages[why] += 1
            continue

        found = None
        for window in windows:
            for frac in (0.5, 0.35, 0.65, 0.25, 0.75):
                k = window["k_lo"] + frac * (window["k_hi"] - window["k_lo"])
                good = k * min(window["improve_n2"], window["improve_deep"])
                theta = pick_theta(k * window["g2"], good)
                if theta is None:
                    continue
                delta = TARGET_ROOT_LB - (k * (window["root_lb"] - prop.output.d) + prop.output.d)
                net = with_final_bias(scale_last(raw, k), delta)

                try:
                    res = verify(net, prop, cfg0)
                except RuntimeError:
                    continue
                if res.verdict is not RunVerdict.VERIFIED or res.tree.num_nodes() != 9:
                    continue
                shape = inspect_tree(res.tree)
                for _ in range(3):
                    if shape is None or abs(shape.root_lb - TARGET_ROOT_LB) <= 1e-9:
                        break
                    net = with_final_bias(net, TARGET_ROOT_LB - shape.root_lb)
                    res = verify(net, prop, cfg0)
                    shape = inspect_tree(res.tree) if res.tree.num_nodes() == 9 else None
                if shape is None or abs(shape.root_lb - TARGET_ROOT_LB) > 1e-9:
                    continue

                # Prefer a seed whose updated scores fully invert the base
                # order (nicest for docs); any base-ordered seed works for
                # the pinned counts because the carried trees never branch.
                hobs = observed_scores(shape.tree)
                hseed = next((s for s in hseed_pool if chain_ok(s, theta, hobs)), hseed_pool[0])
                report = run_battery(net, prop, hseed, theta)
                if report is None:
                    stages["battery"] += 1
                    continue
                found = (net, prop, theta, hseed, net_seed, k, stages, report)
                break
            if found:
                break
        if found:
            return found
        stages["no-k-theta-fit"] += 1
    raise SystemExit(
        f"no fixture found in {max_net_seeds} network seeds; stages: "
        + ", ".join(f"{k}={v}" for k, v in stages.most_common())
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="fixtures", help="directory for the frozen files")
    ap.add_argument("--max-net-seeds", type=int, default=20000)
    ap.add_argument("--max-heuristic-seeds", type=int, default=200000)
    ap.add_argument("--shape-seed", type=int, default=None,
                    help="heuristic seed used during the shape search (default: first base-ordered seed)")
    args = ap.parse_args(argv)

    shape_seed = args.shape_seed
    if shape_seed is None:
        shape_seed = next(s for s in range(100000) if base_order_ok(s))

    net, prop, theta, hseed, net_seed, k, stages, report = find_fixture(
        args.max_net_seeds, args.max_heuristic_seeds, shape_seed
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    updated = Network(report["updated"].layers, name="demo-int8")
    save_network(net, out / "demo_network.json")
    save_network(updated, out / "demo_updated.json")
    save_property(prop, out / "demo_property.json")
    config = {
        "heuristic": "random",
        "seed": hseed,
        "alpha": 0.25,
        "theta": theta,
    }
    with open(out / "demo_config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
        fh.write("\n")

    shape = report["shape"]
    print(f"network seed         {net_seed}  (last-layer scale {k:.6f})")
    print("search stages        " + ", ".join(f"{n}={v}" for n, v in stages.most_common()))
    print(f"heuristic seed       {hseed}")
    print(f"theta                {theta}")
    print(f"root lb              {shape.root_lb:.12f}")
    print(f"n1 lb                {shape.n1_lb:.12f}   gap {shape.gaps['g1']:.6f}")
    print(f"n2 lb                {shape.n2_lb:.12f}   gap {shape.gaps['g2']:.6f}")
    print(f"good improvement     {shape.gaps['good']:.6f}")
    print(f"observed scores      { {str(kk): round(v, 6) for kk, v in report['hobs'].items()} }")
    print(f"true margins (N, Na) {report['margins'][0]:.4f} {report['margins'][1]:.4f}")
    print(f"baseline 9/4, reuse {report['reuse'].metrics.boundings}/{report['reuse'].metrics.branchings},"
          f" ivan {report['ivan'].metrics.boundings}/{report['ivan'].metrics.branchings}")
    print(f"wrote {out}/demo_network.json demo_updated.json demo_property.json demo_config.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

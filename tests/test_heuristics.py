"""Tests for split scoring and selection."""

import numpy as np
import pytest

from incver.analyzer import (
    ACTIVE,
    AMBIGUOUS,
    INACTIVE,
    STABLE_TOL,
    PreactBounds,
    compute_bounds,
)
from incver.heuristics import (
    BaseHeuristic,
    HeuristicConfig,
    choose_input_split,
    choose_split,
    split_scores,
)
from incver.model import Affine, Network, Relu, ReluId
from incver.props import InputBox
from incver.spectree import ReluDecision, observed_scores, singleton, split


def make_bounds(pre, kappa):
    """Hand-built one-layer bounds of unsplit units: pre is a list of (lb, ub) pairs."""
    lbs = np.array([p[0] for p in pre], dtype=float)
    ubs = np.array([p[1] for p in pre], dtype=float)
    return PreactBounds(
        pre_lb=[lbs],
        pre_ub=[ubs],
        phase=[np.where(ubs <= STABLE_TOL, INACTIVE, np.where(lbs >= -STABLE_TOL, ACTIVE, AMBIGUOUS))],
        out_lb=np.array([0.0]),
        out_ub=np.array([1.0]),
        kappa=[np.asarray(kappa, dtype=float)],
    )


def make_net(dims, rng, scale=1.0):
    layers = []
    for i in range(len(dims) - 1):
        layers.append(
            Affine(
                rng.normal(size=(dims[i + 1], dims[i])) * scale,
                rng.normal(size=dims[i + 1]) * scale,
            )
        )
        if i < len(dims) - 2:
            layers.append(Relu())
    return Network(tuple(layers))


def make_layered_bounds(rng, grid=(0.0, 0.5, 1.0, 2.0)):
    """Random bounds of 1-4 ReLU layers whose values come from a coarse grid,
    so equal scores, within a layer and across layers, are common."""
    pre_lb, pre_ub, kappa = [], [], []
    for _ in range(int(rng.integers(1, 5))):
        n = int(rng.integers(1, 6))
        lb = -rng.choice(grid, size=n)
        ub = rng.choice(grid, size=n)
        side = rng.random(n)  # about one unit in five stable, on either side
        lb[side < 0.1] = ub[side < 0.1]
        ub[(0.1 <= side) & (side < 0.2)] = lb[(0.1 <= side) & (side < 0.2)]
        pre_lb.append(lb)
        pre_ub.append(ub)
        kappa.append(rng.choice(grid[1:], size=n))
    phase = [
        np.where(u <= STABLE_TOL, INACTIVE, np.where(l >= -STABLE_TOL, ACTIVE, AMBIGUOUS))
        for l, u in zip(pre_lb, pre_ub)
    ]
    return PreactBounds(pre_lb, pre_ub, phase, np.zeros(1), np.ones(1), kappa=kappa)


def reference_ranking(cfg, bounds, observed=None):
    """The ranking rule, unit by unit: every ambiguous ReLU with its score,
    sorted by (-score, ReluId).  A unit's base score is kappa * min(-lb, ub)
    or its (seed, layer, neuron) uniform draw; with ``observed`` it is mixed
    as alpha * base + (1 - alpha) * (observed.get(rid, theta) - theta)."""
    ranked = []
    for layer, phase in enumerate(bounds.phase):
        for neuron in np.flatnonzero(phase == AMBIGUOUS):
            rid = ReluId(layer, int(neuron))
            if cfg.base is BaseHeuristic.RANDOM:
                base = float(np.random.default_rng((cfg.seed, rid.layer, rid.neuron)).random())
            else:
                lb, ub = float(bounds.pre_lb[layer][neuron]), float(bounds.pre_ub[layer][neuron])
                base = float(bounds.kappa[layer][neuron]) * min(-lb, ub)
            score = base
            if observed is not None:
                correction = observed.get(rid, cfg.theta) - cfg.theta
                score = cfg.alpha * base + (1.0 - cfg.alpha) * correction
            ranked.append((rid, score))
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


CFG = HeuristicConfig(alpha=1.0)


def test_coefwidth_formula():
    b = make_bounds([(-2.0, 1.0), (-1.0, 1.0)], kappa=[3.0, 10.0])
    assert split_scores(CFG, b, 0, [0])[0] == pytest.approx(3.0 * 1.0)
    assert split_scores(CFG, b, 0, [1])[0] == pytest.approx(10.0 * 1.0)


def test_coefwidth_monotone_in_width():
    b = make_bounds([(-2.0, 2.0), (-1.0, 1.0)], kappa=[1.0, 1.0])
    s0 = split_scores(CFG, b, 0, [0])[0]
    s1 = split_scores(CFG, b, 0, [1])[0]
    assert s0 > s1


def test_equal_kappa_tie_goes_to_lowest():
    # widths (2, 1) and (1, 1) have the same min side, so the scores tie
    # and the ordering tie-break picks the first unit
    b = make_bounds([(-2.0, 1.0), (-1.0, 1.0)], kappa=[1.0, 1.0])
    d, dc = choose_split(CFG, b)
    assert d.rid == ReluId(0, 0)
    assert dc == d.complement()


def test_stable_units_excluded():
    # even an overwhelming recorded effectiveness cannot make a stable unit
    # a candidate: only the ambiguous unit 2 is ever picked
    b = make_bounds([(0.5, 1.0), (-1.0, -0.2), (-1.0, 1.0)], kappa=[9.0, 9.0, 1.0])
    assert choose_split(CFG, b)[0].rid == ReluId(0, 2)
    obs = {ReluId(0, 0): 100.0, ReluId(0, 1): 100.0}
    assert choose_split(HeuristicConfig(alpha=0.0), b, observed=obs)[0].rid == ReluId(0, 2)


def test_forbidden_units_excluded_and_exhaustion():
    # A split unit's own bounds pin it to one side of zero, so it is stable
    # and never a candidate; with no ambiguous unit left the choice is None.
    b = make_bounds([(-1.0, 1.0), (0.0, 2.0)], kappa=[1.0, 1.0])
    d, _ = choose_split(CFG, b)
    assert d.rid == ReluId(0, 0)
    assert choose_split(CFG, make_bounds([(0.0, 1.0), (-1.0, 0.0)], kappa=[1.0, 1.0])) is None


def test_updated_score_alpha_extremes():
    # both units have base score 2; only unit 0 was observed
    b = make_bounds([(-2.0, 2.0), (-2.0, 2.0)], kappa=[1.0, 1.0])
    cfg1 = HeuristicConfig(alpha=1.0, theta=0.01)
    cfg0 = HeuristicConfig(alpha=0.0, theta=0.01)
    obs = {ReluId(0, 0): 0.05}
    assert split_scores(cfg1, b, 0, [0, 1], obs) == pytest.approx([2.0, 2.0])
    # an absent key defaults to theta: its correction vanishes
    assert split_scores(cfg0, b, 0, [0, 1], obs) == pytest.approx([0.04, 0.0])
    # no observations at all is the base score; an empty mapping still mixes
    assert split_scores(cfg0, b, 0, [0, 1]).tolist() == [2.0, 2.0]
    assert split_scores(cfg0, b, 0, [0, 1], {}).tolist() == [0.0, 0.0]


def test_updated_score_tuned_mix():
    b = make_bounds([(-2.0, 2.0)], kappa=[1.0])
    cfg = HeuristicConfig(alpha=0.25, theta=0.01)
    got = split_scores(cfg, b, 0, [0], {ReluId(0, 0): 0.05})
    assert got == pytest.approx([0.25 * 2.0 + 0.75 * 0.04])


def test_coefwidth_needs_kappa():
    b = make_bounds([(-1.0, 1.0)], kappa=[1.0])
    b.kappa = None
    with pytest.raises(ValueError, match="without an objective"):
        choose_split(CFG, b)


def test_non_finite_score_raises():
    b = make_bounds([(-1.0, 1.0), (-1.0, 1.0)], kappa=[1.0, 1.0])
    with pytest.raises(ValueError, match=r"non-finite score inf for ReluId\(layer=0, neuron=1\)"):
        choose_split(HeuristicConfig(), b, observed={ReluId(0, 1): float("inf")})


def test_alpha_one_matches_base_argmax():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        pre = [(-float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))) for _ in range(n)]
        kappa = rng.uniform(0.1, 5, size=n)
        b = make_bounds(pre, kappa)
        obs = {ReluId(0, i): float(rng.uniform(-1, 1)) for i in range(n) if rng.random() < 0.5}
        cfg = HeuristicConfig(alpha=1.0, theta=float(rng.uniform(0, 0.5)))
        assert choose_split(cfg, b, observed=obs) == choose_split(cfg, b)


def test_observed_scores_rerank():
    # equal base scores; recorded effectiveness must decide the order
    b = make_bounds([(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)], kappa=[1.0, 1.0, 1.0])
    cfg = HeuristicConfig(alpha=0.25, theta=0.01)
    obs = {ReluId(0, 0): 0.0, ReluId(0, 2): 3.0}
    # unit 2 boosted, unit 0 penalized (improvement 0 < theta), unit 1 neutral
    s0, s1, s2 = split_scores(cfg, b, 0, [0, 1, 2], obs)
    assert s2 > s1 > s0
    assert choose_split(cfg, b, observed=obs)[0].rid == ReluId(0, 2)
    # without unit 2's record the neutral unit 1 wins over the penalized unit 0
    del obs[ReluId(0, 2)]
    assert choose_split(cfg, b, observed=obs)[0].rid == ReluId(0, 1)


def test_random_base_deterministic():
    b = make_bounds([(-1.0, 1.0)] * 5, kappa=[1.0] * 5)
    cfg = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=1.0, seed=42)
    first = split_scores(cfg, b, 0, range(5))
    second = split_scores(cfg, b, 0, range(5))
    assert first.tolist() == second.tolist()
    assert np.all((0.0 <= first) & (first < 1.0))
    other = split_scores(HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=1.0, seed=7), b, 0, range(5))
    assert np.argsort(-other).tolist() != np.argsort(-first).tolist()
    # the draw depends on the layer too, and reads no bounds
    assert split_scores(cfg, None, 1, range(5)).tolist() != first.tolist()


def test_random_base_ignores_candidate_set():
    # a unit's random score must not depend on which other units are present
    b5 = make_bounds([(-1.0, 1.0)] * 5, kappa=[1.0] * 5)
    b2 = make_bounds([(-1.0, 1.0)] * 2, kappa=[1.0] * 2)
    cfg = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=1.0, seed=42)
    s5 = split_scores(cfg, b5, 0, range(5))
    assert split_scores(cfg, b2, 0, range(2)).tolist() == s5[:2].tolist()
    assert split_scores(cfg, b5, 0, [3, 1]).tolist() == s5[[3, 1]].tolist()
    assert [split_scores(cfg, None, 0, [j])[0] for j in range(5)] == s5.tolist()


def test_choose_split_picks_the_reference_rankings_first():
    # choose_split and the unit-by-unit rule agree on the pick, and
    # split_scores on every score's bits, across ties, alphas, observation
    # sets and both bases
    rng = np.random.default_rng(5)
    ties_within = ties_across = 0
    for trial in range(400):
        b = make_layered_bounds(rng)
        cfg = HeuristicConfig(
            base=BaseHeuristic.RANDOM if trial % 4 == 3 else BaseHeuristic.COEFWIDTH,
            alpha=(0.0, 0.25, 1.0)[trial % 3],
            theta=0.5,
            seed=trial,
        )
        rids = [ReluId(k, j) for k in range(len(b.phase)) for j in range(len(b.phase[k]))]
        recorded = {rid: float(rng.choice([0.0, 0.5, 1.0, 2.5])) for rid in rids if rng.random() < 0.5}
        for observed in (None, {}, recorded):
            ranked = reference_ranking(cfg, b, observed)
            pick = choose_split(cfg, b, observed=observed)
            if not ranked:
                assert pick is None
                continue
            assert pick[0] == ReluDecision(ranked[0][0], "+")
            assert pick[1] == pick[0].complement()
            for k in range(len(b.phase)):
                units = [rid.neuron for rid, _ in sorted(ranked) if rid.layer == k]
                want = [score for rid, score in sorted(ranked) if rid.layer == k]
                assert split_scores(cfg, b, k, units, observed).tolist() == want
            top = [rid for rid, score in ranked if score == ranked[0][1]]
            ties_within += len(top) > 1 and top[1].layer == top[0].layer
            ties_across += len({rid.layer for rid in top}) > 1
    assert ties_within > 50 and ties_across > 50


def test_never_chooses_path_unit_on_real_bounds():
    rng = np.random.default_rng(9)
    for _ in range(15):
        net = make_net([2, 4, 4, 1], rng)
        box = InputBox(-np.ones(2), np.ones(2))
        c = np.array([1.0])
        path = {}
        for _ in range(4):
            bounds = compute_bounds(net, box, path, objective=c)
            pick = choose_split(CFG, bounds)
            if pick is None:
                break
            assert pick[0].rid not in path
            path[pick[0].rid] = "+" if rng.random() < 0.5 else "-"


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        HeuristicConfig(alpha=1.5)
    for theta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="theta"):
            HeuristicConfig(theta=theta)
    with pytest.raises(ValueError, match="seed"):
        HeuristicConfig(seed=-1)


def test_split_with_both_children_infeasible_is_not_observed():
    # Both children of the recorded split are empty regions (lb +inf), so
    # its improvement is +inf; ranking against the recorded tree must still work.
    rid = ReluId(0, 0)
    tree = singleton()
    tree.node(0).lb = -1.0
    d = ReluDecision(rid, "+")
    for child in split(tree, 0, (d, d.complement())):
        tree.node(child).lb = float("inf")
    observed = observed_scores(tree)
    assert rid not in observed
    b = make_bounds([(-2.0, 1.0), (-1.0, 1.0)], kappa=[3.0, 10.0])
    cfg = HeuristicConfig()
    assert [r for r, _ in reference_ranking(cfg, b, observed)] == [ReluId(0, 1), rid]
    assert choose_split(cfg, b, observed=observed)[0].rid == ReluId(0, 1)


def test_input_split_widest_dim():
    box = InputBox(np.array([0.0, 0.0]), np.array([1.0, 0.2]))
    d, dc = choose_input_split(box)
    assert d.dim == 0 and d.cut == pytest.approx(0.5)
    assert dc.dim == 0 and dc.half == "high"


def test_input_split_tie_break_lowest_dim():
    d, _ = choose_input_split(InputBox(np.zeros(2), np.ones(2)))
    assert d.dim == 0


def test_input_split_zero_width_rejected():
    with pytest.raises(ValueError, match="zero-width"):
        choose_input_split(InputBox(np.array([0.3]), np.array([0.3])))


def test_input_split_halves_geometrically():
    lo, hi = np.array([0.0]), np.array([1.0])
    for k in range(1, 11):
        d, dc = choose_input_split(InputBox(lo, hi))
        if k % 2 == 0:  # alternate halves; the width shrinks identically
            hi = np.array([d.cut])
        else:
            lo = np.array([dc.cut])
        assert (hi - lo)[0] == pytest.approx(2.0 ** -k)

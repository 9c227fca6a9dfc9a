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
    base_score,
    choose_input_split,
    choose_split,
    rank_candidates,
    updated_score,
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


CFG = HeuristicConfig(alpha=1.0)


def test_coefwidth_formula():
    b = make_bounds([(-2.0, 1.0), (-1.0, 1.0)], kappa=[3.0, 10.0])
    assert base_score(CFG, b, ReluId(0, 0)) == pytest.approx(3.0 * 1.0)
    assert base_score(CFG, b, ReluId(0, 1)) == pytest.approx(10.0 * 1.0)


def test_coefwidth_monotone_in_width():
    b = make_bounds([(-2.0, 2.0), (-1.0, 1.0)], kappa=[1.0, 1.0])
    s0 = base_score(CFG, b, ReluId(0, 0))
    s1 = base_score(CFG, b, ReluId(0, 1))
    assert s0 > s1


def test_equal_kappa_tie_goes_to_lowest():
    # widths (2, 1) and (1, 1) have the same min side, so the scores tie
    # and the ordering tie-break picks the first unit
    b = make_bounds([(-2.0, 1.0), (-1.0, 1.0)], kappa=[1.0, 1.0])
    d, dc = choose_split(CFG, b)
    assert d.rid == ReluId(0, 0)
    assert dc == d.complement()


def test_stable_units_excluded():
    b = make_bounds([(0.5, 1.0), (-1.0, -0.2), (-1.0, 1.0)], kappa=[9.0, 9.0, 1.0])
    ranked = rank_candidates(CFG, b)
    assert [c.key for c in ranked] == [ReluId(0, 2)]


def test_forbidden_units_excluded_and_exhaustion():
    # A split unit's own bounds pin it to one side of zero, so it is stable
    # and never a candidate; with no ambiguous unit left the choice is None.
    b = make_bounds([(-1.0, 1.0), (0.0, 2.0)], kappa=[1.0, 1.0])
    d, _ = choose_split(CFG, b)
    assert d.rid == ReluId(0, 0)
    assert choose_split(CFG, make_bounds([(0.0, 1.0), (-1.0, 0.0)], kappa=[1.0, 1.0])) is None


def test_updated_score_alpha_extremes():
    cfg1 = HeuristicConfig(alpha=1.0, theta=0.01)
    cfg0 = HeuristicConfig(alpha=0.0, theta=0.01)
    obs = {ReluId(0, 0): 0.05}
    assert updated_score(cfg1, 2.0, ReluId(0, 0), obs) == pytest.approx(2.0)
    assert updated_score(cfg0, 2.0, ReluId(0, 0), obs) == pytest.approx(0.04)
    # absent key defaults to theta: correction vanishes
    assert updated_score(cfg0, 2.0, ReluId(0, 1), obs) == pytest.approx(0.0)


def test_updated_score_tuned_mix():
    cfg = HeuristicConfig(alpha=0.25, theta=0.01)
    got = updated_score(cfg, 2.0, ReluId(0, 0), {ReluId(0, 0): 0.05})
    assert got == pytest.approx(0.25 * 2.0 + 0.75 * 0.04)


def test_alpha_one_matches_base_argmax():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        pre = [(-float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))) for _ in range(n)]
        kappa = rng.uniform(0.1, 5, size=n)
        b = make_bounds(pre, kappa)
        obs = {ReluId(0, i): float(rng.uniform(-1, 1)) for i in range(n) if rng.random() < 0.5}
        cfg = HeuristicConfig(alpha=1.0, theta=float(rng.uniform(0, 0.5)))
        with_obs = rank_candidates(cfg, b, observed=obs)
        without = rank_candidates(cfg, b)
        assert [c.key for c in with_obs] == [c.key for c in without]


def test_observed_scores_rerank():
    # equal base scores; recorded effectiveness must decide the order
    b = make_bounds([(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)], kappa=[1.0, 1.0, 1.0])
    cfg = HeuristicConfig(alpha=0.25, theta=0.01)
    obs = {ReluId(0, 0): 0.0, ReluId(0, 2): 3.0}
    ranked = rank_candidates(cfg, b, observed=obs)
    # unit 2 boosted, unit 0 penalized (improvement 0 < theta), unit 1 neutral
    assert [c.key for c in ranked] == [ReluId(0, 2), ReluId(0, 1), ReluId(0, 0)]


def test_random_base_deterministic():
    b = make_bounds([(-1.0, 1.0)] * 5, kappa=[1.0] * 5)
    cfg = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=1.0, seed=42)
    first = [(c.key, c.score) for c in rank_candidates(cfg, b)]
    second = [(c.key, c.score) for c in rank_candidates(cfg, b)]
    assert first == second
    assert all(0.0 <= s < 1.0 for _, s in first)
    other = rank_candidates(HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=1.0, seed=7), b)
    assert [c.key for c in other] != [k for k, _ in first]


def test_random_base_ignores_candidate_set():
    # a unit's random score must not depend on which other units are present
    b5 = make_bounds([(-1.0, 1.0)] * 5, kappa=[1.0] * 5)
    b2 = make_bounds([(-1.0, 1.0)] * 2, kappa=[1.0] * 2)
    cfg = HeuristicConfig(base=BaseHeuristic.RANDOM, alpha=1.0, seed=42)
    s5 = {c.key: c.score for c in rank_candidates(cfg, b5)}
    s2 = {c.key: c.score for c in rank_candidates(cfg, b2)}
    for key, score in s2.items():
        assert s5[key] == score


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
    ranked = rank_candidates(HeuristicConfig(), b, observed=observed)
    assert [c.key for c in ranked] == [ReluId(0, 1), rid]


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

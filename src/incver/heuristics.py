"""Branching heuristics: score ambiguous units, pick the next split.

A base heuristic estimates, from the current node's bounds, how much
certified lower bound a split would recover.  The mixed score folds in
per-unit effectiveness statistics recorded on an earlier proof tree (see
``spectree.observed_scores``) so that splits that paid off before are
preferred when re-verifying a perturbed network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Tuple

import numpy as np

from incver.analyzer import AMBIGUOUS, PreactBounds
from incver.model import ReluId
from incver.props import InputBox
from incver.spectree import InputDecision, ReluDecision


class BaseHeuristic(Enum):
    """Base scoring rule for ambiguous ReLUs."""

    COEFWIDTH = "coefwidth"
    RANDOM = "random"


@dataclass(frozen=True)
class HeuristicConfig:
    """Knobs for split selection.

    alpha weighs the base score against the observed-effectiveness
    correction: mixed = alpha * base + (1 - alpha) * (observed - theta).
    Units never seen in the recorded tree contribute a zero correction.
    theta doubles as the effectiveness threshold used when pruning a
    recorded tree, so the two stages agree on what "worked" means.
    """

    base: BaseHeuristic = BaseHeuristic.COEFWIDTH
    alpha: float = 0.25
    theta: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.seed < 0:  # numpy's SeedSequence rejects negative entropy
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ScoredChoice:
    """A candidate split key with its mixed score."""

    key: ReluId
    score: float


def base_score(cfg: HeuristicConfig, bounds: PreactBounds, rid: ReluId) -> float:
    """Score one ambiguous ReLU under the configured base rule.

    COEFWIDTH scores |kappa| * min(-lb, ub): the unit's back-substituted
    coefficient in the objective bound times the smaller side of its
    ambiguity interval, an estimate of the relaxation slack a split on it
    removes.  RANDOM draws a per-unit uniform score from (cfg.seed, rid),
    stable across calls and candidate orderings.
    """
    if cfg.base is BaseHeuristic.RANDOM:
        draw = np.random.default_rng((cfg.seed, rid.layer, rid.neuron)).random()
        return float(draw)
    lb, ub = bounds.pre(rid)
    return abs(bounds.kappa_of(rid)) * min(-lb, ub)


def updated_score(
    cfg: HeuristicConfig, base: float, key, observed: Mapping
) -> float:
    """Mix a base score with the recorded effectiveness of this key.

    Keys absent from ``observed`` default to cfg.theta, which zeroes the
    correction term: unseen units are ranked purely by their base score.
    """
    correction = observed.get(key, cfg.theta) - cfg.theta
    return cfg.alpha * base + (1.0 - cfg.alpha) * correction


def rank_candidates(
    cfg: HeuristicConfig,
    bounds: PreactBounds,
    observed: Optional[Mapping] = None,
) -> list:
    """All splittable ReLUs as ScoredChoices, best first.

    Candidates are the units whose phase in ``bounds``, the node's own, is
    AMBIGUOUS: a unit split on the node's path has its sign's phase.  Ties
    are broken toward the lowest ReluId, so the ordering is deterministic.
    """
    observed = observed or {}
    choices = []
    for layer, phase in enumerate(bounds.phase):
        for neuron in np.flatnonzero(phase == AMBIGUOUS):
            rid = ReluId(layer, int(neuron))
            score = updated_score(cfg, base_score(cfg, bounds, rid), rid, observed)
            if not math.isfinite(score):
                raise ValueError(f"non-finite score {score} for {rid}")
            choices.append(ScoredChoice(rid, score))
    choices.sort(key=lambda c: (-c.score, c.key))
    return choices


def choose_split(
    cfg: HeuristicConfig,
    bounds: PreactBounds,
    observed: Optional[Mapping] = None,
) -> Optional[Tuple[ReluDecision, ReluDecision]]:
    """The decision pair for the best-ranked candidate, or None if exhausted.

    None means every ReLU is stable in the node's own ``bounds``, split ones
    included; the caller decides what exhaustion means for its search.
    """
    ranked = rank_candidates(cfg, bounds, observed)
    if not ranked:
        return None
    d = ReluDecision(ranked[0].key, "+")
    return d, d.complement()


def choose_input_split(box: InputBox) -> Tuple[InputDecision, InputDecision]:
    """Halve the widest input dimension at its midpoint.

    Ties go to the lowest dimension index.  A box with no positive-width
    dimension cannot be split and raises ValueError.
    """
    widths = box.widths()
    dim = int(np.argmax(widths))
    if widths[dim] <= 0.0:
        raise ValueError("cannot split a zero-width box")
    cut = float((box.lower[dim] + box.upper[dim]) / 2.0)
    d = InputDecision(dim, "low", cut)
    return d, d.complement()

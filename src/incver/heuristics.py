"""Branching heuristics: score ambiguous units, pick the next split.

A base heuristic estimates, from the current node's bounds, how much
certified lower bound a split would recover.  The mixed score folds in
per-unit effectiveness statistics recorded on an earlier proof tree (see
``spectree.observed_scores``) so that splits that paid off before are
preferred when re-verifying a perturbed network.  Scores are computed for
every ambiguous unit at once, as one array over the node's per-unit bounds
in the network's unit order, and only its argmax is kept; the random
base's draws and the observation lookups are still made unit by unit,
since each is keyed by its ReluId.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Tuple

import numpy as np

from incver.analyzer import AMBIGUOUS, PreactBounds
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
    Units absent from the observations count as observed at theta, a zero
    correction; without observations at all the score is the base score.
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


def split_scores(
    cfg: HeuristicConfig,
    bounds: Optional[PreactBounds],
    units,
    rids,
    observed: Optional[Mapping] = None,
) -> np.ndarray:
    """The scores of the given units.

    ``units`` are the units' places in ``bounds``' per-unit arrays, and
    ``rids`` their ReluIds, in the same order.  COEFWIDTH scores kappa *
    min(-lb, ub): the unit's back-substituted coefficient in the objective
    bound times the smaller side of its ambiguity interval, an estimate of
    the relaxation slack a split on it removes.  RANDOM draws a per-unit
    uniform score from (cfg.seed, layer, neuron), stable across calls and
    candidate sets; it reads no bounds.  With ``observed`` the base score
    is mixed as :class:`HeuristicConfig` describes; without it the base
    score is returned.
    """
    if cfg.base is BaseHeuristic.RANDOM:
        base = np.array([np.random.default_rng((cfg.seed, *rid)).random() for rid in rids])
    elif bounds.kappa is None:
        raise ValueError("bounds were computed without an objective")
    else:
        base = bounds.kappa[units] * np.minimum(-bounds.pre_lb[units], bounds.pre_ub[units])
    if observed is None:
        return base
    seen = np.array([observed.get(rid, cfg.theta) for rid in rids], dtype=float)
    return cfg.alpha * base + (1.0 - cfg.alpha) * (seen - cfg.theta)


def choose_split(
    cfg: HeuristicConfig,
    bounds: PreactBounds,
    rids,
    observed: Optional[Mapping] = None,
) -> Optional[Tuple[ReluDecision, ReluDecision]]:
    """The decision pair for the best-scored candidate, or None if exhausted.

    ``rids`` names the units of ``bounds``' per-unit arrays in order: the
    network's :func:`~incver.model.relu_ids`.  Candidates are the units
    whose phase in ``bounds``, the node's own, is AMBIGUOUS: a unit split
    on the node's path has its sign's phase.  Ties go to the lowest ReluId,
    the first maximum in the network's unit order.  None means every ReLU
    is stable, split ones included; the caller decides what exhaustion
    means for its search.
    """
    units = np.flatnonzero(bounds.phase == AMBIGUOUS)
    if not units.size:
        return None
    candidates = [rids[j] for j in units]
    scores = split_scores(cfg, bounds, units, candidates, observed)
    finite = np.isfinite(scores)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"non-finite score {scores[k]} for {candidates[k]}")
    d = ReluDecision(candidates[int(np.argmax(scores))], "+")
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

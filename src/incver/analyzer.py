"""Sound bounding analyzer for branch-and-bound verification.

Two layers of machinery live here:

``bound_regions`` and ``compute_bounds``
    Interval bounds for every pre-activation and output, tightened by
    symbolic back-substitution through the network (each ReLU gets
    per-neuron linear lower/upper relaxations, and concrete bounds come from
    pushing those back to the input box).  One function, ``_lower_bound``,
    does every back-substitution, and each layer takes one walk of it: an
    upper bound is the negated lower bound of the negated rows, so the rows
    ``[W; -W]`` go down together, and on the output block the objective's row
    rides along, giving its bound and ``kappa``.  Split decisions restrict
    ReLUs to one sign.  The pass decides each ReLU's phase (inactive, active
    or ambiguous) once, and the relaxation, the LP's rows and the split
    candidates all follow it.  One propagation pass bounds a region; given
    the bounds of the region's parent (any region that contains it: a child
    adds one ReLU split or halves one input axis) the pass is intersected
    with them, so every per-neuron interval at a child node is a subset of
    its parent's.  That gives the verifier its monotonicity guarantee (child
    lower bounds never fall below the parent's beyond solver tolerance,
    whichever the branching) and makes root-derived norms sound for every
    descendant region.  A ReLU split at layer k leaves its parent's layers
    above k, and the walk of layer k itself, as they were: a child on the
    same network and box takes them from the parent's bounds, which carry
    them read-only, and walks only the layers after k and the output.
    An input split changes the box, so its children walk every layer.

    ``bound_regions`` runs the passes of many regions as one batch: the
    arrays of a layer gain a leading region axis, and each layer is walked
    once for every region that walks it, so numpy's per-call cost is paid
    once per batch instead of once per region.  Each region's values are
    the bits its own pass computes.  ``compute_bounds`` is the batch of one.

``analyze``
    Settles a region from its bounds, computed with the property's objective
    so they carry the branching heuristics' ``kappa`` and the objective's
    propagation lower bound; it runs no pass of its own.  When that bound
    already proves the property and some ReLU is still ambiguous, the region
    is Verified with no LP.  Otherwise it builds one linear program over
    input, pre-activation, post-activation, and output variables, bounded by
    those bounds as they are; minimizes the property margin c^T y + d over
    the triangle relaxation of each ambiguous ReLU; and classifies the
    region as Verified, Unknown, or Counterexample.  A region with no
    ambiguous ReLU always gets its LP, which is exact there while
    propagation is not.  An infeasible region (crossed bounds or an
    infeasible LP) verifies vacuously.  The verdict hands its bounds on: the
    verifier picks a split from them and bounds the two children from them,
    instead of recomputing either.  It also hands on the LP's final basis,
    which the verifier gives back as the ``start`` of the same region's LP
    on an updated network.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from incver.lp import LinearProgram, LpBasis, LpStatus, LpTimeout, solve
from incver.model import Network, ReluId
from incver.props import InputBox, Property, holds_concretely

__all__ = [
    "AnalyzerError",
    "AnalyzerVerdict",
    "PreactBounds",
    "Verdict",
    "analyze",
    "bound_regions",
    "compute_bounds",
]

# a ReLU whose bound magnitude is below this is treated as stable on that side
STABLE_TOL = 1e-9
# a ReLU's phase, which is also the number of LP rows it gets
INACTIVE, ACTIVE, AMBIGUOUS = 0, 1, 2
# bounds that cross by more than this mark the region infeasible
CROSS_TOL = 1e-9


class AnalyzerError(RuntimeError):
    """The analyzer could not produce a trustworthy verdict."""


class Verdict(Enum):
    VERIFIED = "Verified"
    UNKNOWN = "Unknown"
    COUNTEREXAMPLE = "Counterexample"


@dataclass(frozen=True)
class AnalyzerVerdict:
    """Outcome of one bounding call.

    ``lb_value`` is the proved lower bound on c^T N(x) + d over the region
    (``+inf`` for a vacuously verified empty region, flagged ``infeasible``).
    It is the LP optimum plus d when an LP ran, and the bounds'
    ``objective_lb`` plus d when propagation verified the region without
    one; that bound is at most the LP optimum, so it can be the weaker.
    ``candidate`` is the concrete violating input for Counterexample.
    ``bounds`` are the region's bounds from this call, computed with the
    property's objective so their ``kappa`` is set; the verifier ranks split
    candidates from them.  ``pivots`` is the LP's simplex pivot count, or
    None when no LP ran, and ``phase1`` how many of them phase 1 applied.
    ``basis`` is the LP's final basis (see ``LpOutcome.basis``), None when
    no LP ran or it left none; ``warm`` says whether the LP started from
    the ``start`` it was given.  ``build_s`` and ``solve_s`` are the
    seconds spent building the LP and solving it, 0.0 when no LP ran.
    """

    status: Verdict
    lb_value: float
    candidate: Optional[np.ndarray] = None
    infeasible: bool = False
    bounds: Optional[PreactBounds] = None
    pivots: Optional[int] = None
    phase1: int = 0
    basis: Optional[LpBasis] = None
    warm: bool = False
    build_s: float = 0.0
    solve_s: float = 0.0


@dataclass
class PreactBounds:
    """Per-neuron interval bounds, one entry per ReLU layer, plus output.

    ``phase`` holds, per ReLU layer, each unit's INACTIVE, ACTIVE or
    AMBIGUOUS; its post-activation is 0 if inactive and max(pre, 0) if not.
    ``kappa`` (present when an objective was supplied) holds, per ReLU layer,
    the absolute coefficient each pre-activation carries in the objective's
    back-substituted lower bound; the branching heuristics consume it.
    ``objective_lb`` (present with ``kappa``) is a lower bound on the
    objective over the region: that back-substituted bound, at least the
    parent's, and raised to the LP optimum once :func:`analyze` solves one.
    ``walks`` counts the back-substitution walks of the pass that computed
    these bounds.  ``carry`` is what a child bounded from them on the same
    network and box takes instead of walking (see :func:`compute_bounds`);
    None makes every child walk every layer.  The per-layer arrays are
    read-only, because children share them.
    """

    pre_lb: list
    pre_ub: list
    phase: list
    out_lb: np.ndarray
    out_ub: np.ndarray
    kappa: Optional[list] = None
    infeasible: bool = False
    objective_lb: Optional[float] = None
    walks: int = 0
    carry: Optional[_Carry] = field(default=None, repr=False)

    def is_ambiguous(self, rid: ReluId) -> bool:
        return bool(self.phase[rid.layer][rid.neuron] == AMBIGUOUS)

    def any_ambiguous(self) -> bool:
        return any(np.any(p == AMBIGUOUS) for p in self.phase)


def _validate_splits(items, widths) -> None:
    for rid, sign in items:
        if sign not in ("+", "-"):
            raise ValueError(f"split sign must be '+' or '-', got {sign!r} for {rid}")
        if not (0 <= rid.layer < len(widths)) or not (0 <= rid.neuron < widths[rid.layer]):
            raise ValueError(f"{rid} is outside the network's ReLU layers")


class _Relaxation(NamedTuple):
    """Per-layer linear ReLU relaxation: lower x >= lam_low * xhat, upper
    x <= lam_up * xhat + mu_up.  Held in the shapes a walk reads, over a
    leading region axis: (k, 1, w) slopes and (k, w, 1) intercepts."""

    lam_low: np.ndarray
    lam_up: np.ndarray
    mu_up: np.ndarray


class _Carry(NamedTuple):
    """What a pass hands its children: the network, box and split items it
    ran on and, per ReLU layer, the walk's interval before any intersection,
    as (1, w) rows, and the relaxation of the one region, so that a batch
    joins its regions' layers along their first axis."""

    net: Network
    box: InputBox
    splits: frozenset
    walked: tuple
    relax: tuple


def _rows(arrays) -> np.ndarray:
    """Equal-length 1-d arrays as the rows of one 2-d array (one array is viewed, not copied)."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _cat(arrays) -> np.ndarray:
    """Arrays joined along their first axis; one array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _lower_bound(blocks, relax, start, upto, lower, upper):
    """Lower bound of ``A @ z + c`` over each region of a batch, z being block ``upto``'s input.

    Walks the expression back to the input box, replacing each
    post-activation with the side of its linear relaxation that keeps the
    bound's direction for each coefficient's sign.  ``start`` holds the
    shared (r, m) rows ``A``, their (r, 1) constants ``c`` and the rows'
    positive and negative parts.  ``relax`` holds, per ReLU layer, the k
    regions' slopes as (k, 1, w) arrays and intercepts as a (k, w, 1)
    array; ``lower`` and ``upper`` are their boxes as (k, n, 1) arrays.
    Returns the (k, r, 1) bounds and, per ReLU layer, the (k, r, w)
    pre-activation coefficients met on the way.  Every product runs region
    by region, so each region's values are the bits of a walk of its own.
    An upper bound is the negated lower bound of the negated rows.
    """
    A, c, pos, neg = start
    coefs = [None] * upto
    for j in range(upto - 1, -1, -1):
        lam_low, lam_up, mu_up = relax[j]
        c = c + neg @ mu_up
        A = pos * lam_low + neg * lam_up
        coefs[j] = A
        Wj, bj = blocks[j]
        c = c + (A @ bj)[..., None]
        A = A @ Wj
        pos = np.maximum(A, 0.0)
        neg = np.minimum(A, 0.0)
    return pos @ lower + neg @ upper + c, coefs


def _interval(net, relax, upto, lower, upper, objective=None):
    """Block ``upto``'s affine output bounds for each region, from one walk of ``[W; -W]``.

    With an ``objective`` (the output block only) its row rides under those
    rows in the same walk.  Returns the (k, n) lower and upper bounds, and
    the objective's (k,) bounds and its per-ReLU-layer (k, w) pre-activation
    coefficients (None without an objective).
    """
    start = net.signed_blocks[upto] if objective is None else net.signed_output(objective)
    n = net.blocks[upto][1].size
    lb, coefs = _lower_bound(net.blocks, relax, start, upto, lower, upper)
    lb = lb[..., 0]
    if objective is None:
        return lb[:, :n], -lb[:, n:], None, None
    return lb[:, :n], -lb[:, n : 2 * n], lb[:, -1], [a[:, -1] for a in coefs]


def bound_regions(net: Network, regions, objective=None) -> list:
    """Sound per-neuron bounds for each region, in one batched propagation pass.

    ``regions`` is a sequence of ``(box, splits, parent)`` triples, one per
    region, with the meanings :func:`compute_bounds` gives them; the
    ``objective``, if any, is shared by all.  Returns one
    :class:`PreactBounds` per region, in order, each the bits that
    :func:`compute_bounds` returns for that region alone, ``walks`` and the
    carried layers included.  A region whose parent is already
    ``infeasible`` gets that parent; every other region gets one pass.

    The passes run together: each layer's interval comes from one
    :func:`_interval` walk of every region that walks it, its products run
    region by region inside one call each, which saves numpy's per-call
    cost for all but one region.  Each unit's phase is decided here, once:
    a split unit takes its sign's phase; otherwise it is inactive if
    u <= STABLE_TOL, else active if l >= -STABLE_TOL, else ambiguous.  Its
    relaxation follows the phase: 0, the identity, or the triangle's chord
    above and a line through the origin below.  With an ``objective``, its
    row ``(c @ W, c @ b)`` rides in the output block's walk, which sets
    ``kappa`` and ``objective_lb`` (at least the parent's).

    When a region's parent carries a pass on the same network and box, the
    layers above the first one whose splits differ from its splits would
    walk through the same relaxations to the same intervals and meet the
    same parent bounds, so they are taken from it as they are; that first
    layer takes the parent's walked interval and is decided anew.  Regions
    are taken in the order of that first layer, those with no such parent
    leading, so the regions that walk a layer, and those that decide it, are
    a prefix of the batch.
    """
    if objective is not None:
        objective = np.asarray(objective, dtype=float)
        if objective.shape != (net.output_dim,):
            raise ValueError(
                f"objective has shape {objective.shape}, network output dim is {net.output_dim}"
            )
    blocks = net.blocks
    n_relu = len(blocks) - 1
    widths = [b.size for _, b in blocks[:-1]]
    out = [None] * len(regions)
    plan = []
    for k, (box, splits, prior) in enumerate(regions):
        if box.dim != net.input_dim:
            raise ValueError(f"box has dim {box.dim}, network expects {net.input_dim}")
        items = frozenset(splits.items())
        carry = None if prior is None else prior.carry
        if prior is not None and prior.infeasible:  # every region under an empty one is empty
            _validate_splits(items, widths)
            out[k] = prior
        elif carry is None or carry.net is not net or carry.box is not box:
            _validate_splits(items, widths)
            plan.append((0, 0, k, box, items, prior, None))
        else:
            changed = items ^ carry.splits  # the carried items were checked on this network
            _validate_splits(changed, widths)
            first = min((rid.layer for rid, _ in changed), default=n_relu)
            plan.append((first, 1, k, box, items, prior, carry))
    if not plan:
        return out
    if len(plan) > 1:
        plan.sort(key=lambda p: p[:3])
    firsts, carried, order, boxes, items, priors, carries = zip(*plan)
    n = len(plan)
    cold = n - sum(carried)  # the regions that walk every layer
    gaps = priors.count(None)
    if boxes.count(boxes[0]) == n:  # one box, as under ReLU branching: every region reads it
        lower, upper = boxes[0].lower[None, :, None], boxes[0].upper[None, :, None]
    else:
        lower = np.stack([box.lower for box in boxes])[:, :, None]
        upper = np.stack([box.upper for box in boxes])[:, :, None]
    signs_at = {}  # per layer: (region, unit, sign) where decided
    kept = []  # per region: pre_lb, pre_ub, phase, walked and relaxation by layer
    for r, first in enumerate(firsts):
        for rid, sign in items[r]:
            if rid.layer >= first:
                entry = (r, rid.neuron, 1.0 if sign == "+" else -1.0)
                signs_at.setdefault(rid.layer, []).append(entry)
        if carried[r]:
            prior, carry = priors[r], carries[r]
            kept.append((prior.pre_lb[:first], prior.pre_ub[:first], prior.phase[:first],
                         list(carry.walked[:first]), list(carry.relax[:first])))
        else:
            kept.append(([], [], [], [], []))

    def prior_rows(get, fill, upto=n):
        """The first ``upto`` priors' arrays ``get(prior)`` as rows; a missing
        prior's row is ``fill``, which leaves its bound as it is."""
        arrays = [None if p is None else get(p) for p in priors[:upto]]
        if gaps:
            gap = np.full(next(a for a in arrays if a is not None).size, fill)
            arrays = [gap if a is None else a for a in arrays]
        return _rows(arrays)

    infeasible = [False] * n
    relax = []  # per layer, every region's relaxation in the shapes _lower_bound takes
    for i in range(n_relu):
        walking = cold if i == 0 else bisect.bisect_left(firsts, i)
        deciding = bisect.bisect_right(firsts, i)
        if deciding:
            if walking == n:
                l, u, _, _ = _interval(net, relax, i, lower, upper)
            elif walking:
                above = [tuple(a[:walking] for a in r) for r in relax]
                l, u, _, _ = _interval(net, above, i, lower[:walking], upper[:walking])
            if deciding > walking:  # these regions decide this layer from their prior's walk
                sides = zip(*(carry.walked[i] for carry in carries[walking:deciding]))
                taken = [_cat(side) for side in sides]
                l, u = (np.concatenate(pair) for pair in zip((l, u), taken)) if walking else taken
            walked_l, walked_u = l, u
            if gaps < n:
                l = np.maximum(l, prior_rows(lambda p: p.pre_lb[i], -np.inf, deciding))
                u = np.minimum(u, prior_rows(lambda p: p.pre_ub[i], np.inf, deciding))
            signed = signs_at.get(i)
            if signed:
                signs = np.zeros(l.shape)
                for r, j, sign in signed:
                    signs[r, j] = sign
                plus, minus = signs > 0, signs < 0
                l = np.where(plus, np.maximum(l, 0.0), l)
                u = np.where(minus, np.minimum(u, 0.0), u)
            crossed = l > u + CROSS_TOL
            if crossed.any():
                for r in np.flatnonzero(crossed.any(axis=1)):
                    infeasible[r] = True
            u = np.maximum(u, l)  # keep arrays ordered even for flagged regions

            phase = (u > STABLE_TOL) * (1 + (l < -STABLE_TOL))
            if signed:  # a "-" unit is inactive even where l is up to CROSS_TOL above 0
                phase = np.where(plus, ACTIVE, np.where(minus, INACTIVE, phase))
            active, amb = phase == ACTIVE, phase == AMBIGUOUS
            width = u - l
            lam_low = (active | amb & (u >= -l)).astype(float)
            lam_up = np.divide(u, width, out=active.astype(float), where=amb)
            mu_up = np.divide(-u * l, width, out=np.zeros(l.shape), where=amb)
            for a in (walked_l, walked_u, l, u, phase, lam_low, lam_up, mu_up):
                a.setflags(write=False)
            lam_low, lam_up, mu_up = mine = (lam_low[:, None, :], lam_up[:, None, :], mu_up[:, :, None])
            for r in range(deciding):
                pre_lb, pre_ub, phases, walked, relaxed = kept[r]
                pre_lb.append(l[r])
                pre_ub.append(u[r])
                phases.append(phase[r])
                walked.append((walked_l[r : r + 1], walked_u[r : r + 1]))
                relaxed.append(_Relaxation(lam_low[r : r + 1], lam_up[r : r + 1], mu_up[r : r + 1]))
        if deciding < n:  # the later regions keep their prior's relaxation of this layer
            sides = zip(*(kr[4][i] for kr in kept[deciding:]))
            if deciding:
                sides = [(own, *side) for own, side in zip(mine, sides)]
            mine = [_cat(side) for side in sides]
        relax.append(mine)

    out_l, out_u, lb, coefs = _interval(net, relax, n_relu, lower, upper, objective)
    if gaps < n:
        out_l = np.maximum(out_l, prior_rows(lambda p: p.out_lb, -np.inf))
        out_u = np.minimum(out_u, prior_rows(lambda p: p.out_ub, np.inf))
        crossed = out_l > out_u + CROSS_TOL
        if gaps:  # a region without a prior is neither checked nor reordered
            has = np.array([p is not None for p in priors])[:, None]
            crossed &= has
            out_u = np.where(has, np.maximum(out_u, out_l), out_u)
        else:
            out_u = np.maximum(out_u, out_l)
        if crossed.any():
            for r in np.flatnonzero(crossed.any(axis=1)):
                infeasible[r] = True
    if objective is not None:
        kappa = [np.abs(a) for a in coefs]
    for r, (pre_lb, pre_ub, phases, walked, relaxed) in enumerate(kept):
        # the ReLU layers from the first it decides on, less that one when its
        # walk came from the parent, and the output
        walks = max(n_relu - firsts[r] - carried[r], 0) + 1
        carry = _Carry(net, boxes[r], items[r], tuple(walked), tuple(relaxed))
        bounds = PreactBounds(
            pre_lb, pre_ub, phases, out_l[r], out_u[r], None, infeasible[r], None, walks, carry
        )
        if objective is not None:
            bounds.kappa = [a[r] for a in kappa]
            prior = priors[r]
            obj = lb[r]
            if prior is not None and prior.objective_lb is not None:
                obj = max(obj, prior.objective_lb)
            bounds.objective_lb = float(obj)
        out[order[r]] = bounds
    return out


def compute_bounds(
    net: Network,
    box: InputBox,
    splits: dict,
    objective=None,
    parent: Optional[PreactBounds] = None,
) -> PreactBounds:
    """Sound per-neuron bounds for the region (box restricted by splits).

    ``splits`` maps ReluId to "+" or "-"; one propagation pass applies them
    all.  With an ``objective`` (a vector over the network's outputs) the
    result also carries ``kappa`` and ``objective_lb``, from the output
    block's walk of that same pass.

    ``parent`` is the result for a region that contains this one (the
    verifier passes a node's parent: the same box under one split fewer, or
    a larger box under the same splits), computed with the same objective or
    none; the pass is intersected with it, so bounds shrink monotonically
    along a branching path, and ``objective_lb`` never falls below the
    parent's.  A parent that is already ``infeasible`` is returned
    unchanged: every region under an empty one is empty.

    A parent computed on this same network object and box object (a ReLU
    split's child; not an input split's, whose box is new) hands the pass
    its ReLU layers above the first layer whose split signs differ: their
    bounds, phases and relaxations, unchanged and shared.  That first
    layer's interval is the parent's walk, not walked again, intersected
    and decided anew under the child's signs; only the later layers and the
    output are walked.  The result is the full pass's, bit for bit.

    If a split empties the region (bounds cross), the result is flagged
    ``infeasible``; callers verify such regions vacuously.  This is
    :func:`bound_regions` for one region.
    """
    return bound_regions(net, [(box, splits, parent)], objective)[0]


@functools.lru_cache(maxsize=64)
def _layout(n_in: int, widths: tuple):
    """Offsets of the bounding LP for the affine blocks' output ``widths``:
    each block's first unit (and first row among the affine rows); each ReLU
    unit's pre and post column and the affine rows up to its layer's; each
    affine row's index among them, its own (pre or output) column and the
    ReLU units above its block."""
    relu_w = np.array(widths[:-1], dtype=int)  # an int array even with no ReLU layer
    layer_start = np.cumsum([0, *relu_w])
    pre = np.arange(layer_start[-1]) + np.repeat(n_in + layer_start[:-1], relu_w)
    post = pre + np.repeat(relu_w, relu_w)
    aff_rows = np.arange(sum(widths))
    aff_cols = aff_rows + np.repeat(n_in + layer_start, widths)
    units_above = np.repeat(layer_start, widths)
    out = (layer_start, pre, post, np.repeat(layer_start[1:], relu_w), aff_rows, aff_cols, units_above)
    for a in out:
        a.setflags(write=False)  # cached, so shared by every call
    return out


def _build_program(net, prop, bounds):
    """The bounding LP as arrays over input, (pre, post) per ReLU layer and output columns.

    Rows go layer by layer: the affine rows ``W @ src - pre = -b``, then per
    unit, by its phase, none if inactive (its post column is [0, 0]),
    ``post - pre = 0`` if active, or ``post - pre >= 0`` and its chord
    ``post - slope * pre <= -slope * l`` if ambiguous; the output's affine
    rows come last.  Other post columns are max(pre, 0).  Every ``=`` row
    ends with -1 or 1 on its own column, the layout the solver's crash basis
    starts from.
    """
    blocks = net.blocks
    widths = tuple(W.shape[0] for W, _ in blocks)
    layer_start, pre, post, row_base, aff_rows, aff_cols, units_above = _layout(net.input_dim, widths)
    cols = [(prop.input.lower, prop.input.upper)]
    for l, u, on in zip(bounds.pre_lb, bounds.pre_ub, bounds.phase):
        cols += [(l, u), (np.where(on, np.maximum(l, 0.0), 0.0), np.where(on, np.maximum(u, 0.0), 0.0))]
    cols.append((bounds.out_lb, bounds.out_ub))
    lo, hi = (np.concatenate(side) for side in zip(*cols))

    l, u = lo[pre], hi[pre]
    k = np.concatenate([np.zeros(0, dtype=int), *bounds.phase])  # rows per unit: its phase
    above = np.zeros(k.size + 1, dtype=int)  # ReLU rows above each unit, then in all
    np.cumsum(k, out=above[1:])
    first = row_base + above[:-1]  # each unit's first row
    aff_rows = aff_rows + above[units_above]  # shifted down by the ReLU rows above

    m = sum(widths) + int(above[-1])
    A = np.zeros((m, lo.size))
    rel = np.full(m, "=", dtype="<U2")
    rhs = np.zeros(m)
    src = slice(0, net.input_dim)
    for (W, _), r, w in zip(blocks, aff_rows[layer_start], widths):
        A[r : r + w, src] = W
        src = slice(src.stop + w, src.stop + 2 * w)
    A[aff_rows, aff_cols] = -1.0
    rhs[aff_rows] = -np.concatenate([b for _, b in blocks])
    on = np.flatnonzero(k)
    A[first[on], post[on]] = 1.0
    A[first[on], pre[on]] = -1.0
    amb = np.flatnonzero(k == 2)
    l, u, chord = l[amb], u[amb], first[amb] + 1
    slope = u / (u - l)
    rel[chord - 1] = ">="
    A[chord, post[amb]] = 1.0
    A[chord, pre[amb]] = -slope
    rel[chord] = "<="
    rhs[chord] = -slope * l

    objective = np.zeros(lo.size)
    objective[-net.output_dim :] = prop.output.c
    return LinearProgram(objective, np.column_stack([lo, hi]), A, rel, rhs)


def analyze(
    net: Network,
    prop: Property,
    bounds: PreactBounds,
    start: Optional[LpBasis] = None,
    deadline: Optional[float] = None,
) -> AnalyzerVerdict:
    """One bounding call: lower-bound the property margin over the region from its bounds.

    ``bounds`` are the region's bounds, computed with the property's
    objective (see :func:`bound_regions`); the verifier propagates a whole
    frontier's at once and hands each region its own, so this call runs no
    pass.  ``start``, a basis of an earlier LP of the same region, goes to
    :func:`~incver.lp.solve`.  It saves pivots and keeps the LP's status,
    but can move the optimum within the solver's tolerance and return
    another optimal vertex, from which the candidate input is clipped.
    ``deadline``, a ``time.perf_counter()`` reading, goes to the solver,
    which checks it before each pivot.

    Returns Verified when the proved lower bound is nonnegative (or the
    region is empty, flagged ``infeasible``), Counterexample when the LP
    minimizer's input block concretely violates the property, and Unknown
    when the relaxation's minimum is negative but spurious.  The LP is
    skipped, and the verdict's ``pivots`` left None, only where the bounds'
    ``objective_lb`` plus d is already nonnegative and some ReLU is still
    ambiguous; after an LP, ``objective_lb`` is raised to its optimum so the
    region's children start from it.

    Raises ValueError when feasible bounds carry no ``objective_lb`` (they
    were computed without an objective), :class:`~incver.lp.LpTimeout`
    when the LP is still pivoting at ``deadline``, and
    :class:`AnalyzerError` on any other solver failure; a verdict is never
    fabricated from a broken or unfinished solve.
    """
    if bounds.infeasible:
        return AnalyzerVerdict(Verdict.VERIFIED, math.inf, infeasible=True, bounds=bounds)
    if bounds.objective_lb is None:
        raise ValueError("bounds were computed without the property's objective")
    lb = bounds.objective_lb + prop.output.d
    if lb >= 0.0 and bounds.any_ambiguous():
        return AnalyzerVerdict(Verdict.VERIFIED, float(lb), bounds=bounds)
    t0 = time.perf_counter()
    program = _build_program(net, prop, bounds)
    t1 = time.perf_counter()
    try:
        out = solve(program, start=start, deadline=deadline)
    except LpTimeout:
        raise
    except Exception as exc:
        raise AnalyzerError(f"bounding LP failed: {exc}") from exc
    solved = dict(
        bounds=bounds, pivots=out.iterations, phase1=out.phase1, basis=out.basis, warm=out.warm,
        build_s=t1 - t0, solve_s=time.perf_counter() - t1,
    )
    if out.status is LpStatus.INFEASIBLE:
        return AnalyzerVerdict(Verdict.VERIFIED, math.inf, infeasible=True, **solved)
    bounds.objective_lb = max(bounds.objective_lb, float(out.value))
    lb = float(out.value + prop.output.d)
    if lb >= 0.0:
        return AnalyzerVerdict(Verdict.VERIFIED, lb, **solved)
    candidate = prop.input.clip(out.point[: net.input_dim])
    if not holds_concretely(prop, net, candidate):
        return AnalyzerVerdict(Verdict.COUNTEREXAMPLE, lb, candidate, **solved)
    return AnalyzerVerdict(Verdict.UNKNOWN, lb, **solved)

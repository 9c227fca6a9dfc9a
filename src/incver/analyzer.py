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
    descendant region.  A ReLU split at layer k leaves the walks of its
    parent's layers up to k as they were: a child on the same network and
    box takes the parent's bounds of those layers, which are read-only, in
    place of their walks, and walks only the layers after k and the output.
    An input split changes the box, so its children walk every layer.

    ``bound_regions`` runs the passes of many regions as one batch: the
    arrays of a layer gain a leading region axis, each layer is walked once
    for every region that walks it, and one step intersects, signs and
    decides it for the whole batch, so numpy's per-call cost is paid once
    per batch instead of once per region.  The same step records whether
    any of a region's units is ambiguous, so that ``analyze`` need not scan
    the phases again.  A region may name an earlier region of the batch
    as its parent, so a whole tree goes in one batch, level by level
    inside each layer's step.  Each region's values are the bits its own
    pass computes.  ``compute_bounds`` is the batch of one.

``analyze``
    Settles a region from its bounds, computed with the property's objective
    so they carry the branching heuristics' ``kappa`` and the objective's
    propagation lower bound; it runs no pass of its own.  When that bound
    already proves the property and some ReLU is still ambiguous, the region
    is Verified with no LP.  When it does not, and the region's box is new
    (its pass walked every layer: the root, or an input split's child), the
    network is evaluated at the input corner the bound's walk read; a corner
    that violates the property refutes the region with no LP.  Otherwise it
    builds one linear program over input, pre-activation, post-activation,
    and output variables, bounded by those bounds as they are; minimizes the
    property margin c^T y + d over the triangle relaxation of each ambiguous
    ReLU; and classifies the region as Verified, Unknown, or Counterexample.
    Every row that program can have is built once per network, as a
    read-only template; a region keeps the rows its phases need and writes
    only its own entries into them.
    A region with no ambiguous ReLU always gets its LP, which is exact there
    while propagation is not.  An infeasible region (crossed bounds or an
    infeasible LP) verifies vacuously.  The verdict hands its bounds on: the
    verifier picks a split from them and bounds the two children from them,
    instead of recomputing either.  It also hands on the LP's final basis,
    which the verifier gives back as the ``start`` of the same region on an
    updated network.  The program is built, and ``lp.price_basis`` reads
    the start on it: the region is Verified when the start's weak-duality
    bound plus d is nonnegative; otherwise a start that is still optimal
    gives the LP's outcome with no pivot, and any other leaves the program
    to a solve from the crash basis.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from incver.lp import LinearProgram, LpBasis, LpOutcome, LpStatus, LpTimeout, price_basis, solve
from incver.model import Network
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
    A Counterexample found at the walk's corner without an LP records that
    propagation bound too.  ``candidate`` is the concrete violating input
    for Counterexample: the LP minimizer's input block, clipped to the box,
    or the walk's corner.
    ``bounds`` are the region's bounds from this call, computed with the
    property's objective so their ``kappa`` is set; the verifier ranks split
    candidates from them.  ``lp`` is the LP's outcome (its pivots, their
    phase-1 share, its factorizations, its final basis and whether a
    carried basis gave it: see :class:`~incver.lp.LpOutcome`), or None
    when no LP ran (a Verified or Counterexample settled by the bounds
    alone, or a Verified proved by a carried basis's duals).
    ``certified`` marks the latter: its ``lb_value`` is that weak-duality
    bound plus d, at most the LP optimum plus d.  ``build_s`` and
    ``solve_s`` are the seconds spent building the LP and solving it,
    reading a carried basis included, or checking the certificate; 0.0
    when no program was built.
    """

    status: Verdict
    lb_value: float
    candidate: Optional[np.ndarray] = None
    infeasible: bool = False
    bounds: Optional[PreactBounds] = None
    lp: Optional[LpOutcome] = None
    build_s: float = 0.0
    solve_s: float = 0.0
    certified: bool = False


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
    ``upper_side`` (present with ``kappa``) records where that bound's walk
    went: its first entry masks the inputs whose coefficient is negative, so
    the bound reads the box's upper corner there, and one entry per ReLU
    layer masks the post-activations whose coefficient is negative before
    relaxation, so the walk read the upper side, the chord of an ambiguous
    unit.  :func:`analyze`'s LP starts from that corner and those sides, and
    on a new box :func:`analyze` evaluates the network at that corner.
    ``walks`` counts the back-substitution walks of the pass that computed
    these bounds.  ``carry`` names the network, box and splits that pass ran
    on, so that a child on the same network and box takes these bounds of
    its unchanged layers in place of walks (see :func:`compute_bounds`);
    None makes every child walk every layer.  ``ambiguous`` is True when
    some unit's phase is AMBIGUOUS, as the pass decided it.  The per-layer
    arrays are read-only, because children read them.
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
    upper_side: Optional[list] = None
    ambiguous: bool = False


def _validate_splits(items, widths) -> None:
    for rid, sign in items:
        if sign not in ("+", "-"):
            raise ValueError(f"split sign must be '+' or '-', got {sign!r} for {rid}")
        if not (0 <= rid.layer < len(widths)) or not (0 <= rid.neuron < widths[rid.layer]):
            raise ValueError(f"{rid} is outside the network's ReLU layers")


class _Carry(NamedTuple):
    """The pass a region's bounds came from: its network, box and split items."""

    net: Network
    box: InputBox
    splits: frozenset


def _lower_bound(blocks, relax, start, upto, lower, upper):
    """Lower bound of ``A @ z + c`` over each region of a batch, z being block ``upto``'s input.

    Walks the expression back to the input box, replacing each
    post-activation with the side of its linear relaxation that keeps the
    bound's direction for each coefficient's sign.  ``start`` holds the
    shared (r, m) rows ``A``, their (r, 1) constants ``c`` and the rows'
    positive and negative parts.  ``relax`` holds, per ReLU layer, the k
    regions' slopes as (k, 1, w) arrays and intercepts as a (k, w, 1)
    array; ``lower`` and ``upper`` are their boxes as (k, n, 1) arrays.
    Returns the (k, r, 1) bounds, per ReLU layer the (k, r, w)
    pre-activation coefficients met on the way, and per block up to
    ``upto`` the negative parts of the rows' coefficients on its input, as
    the walk met them: block 0's on the input box, where the bound reads
    ``upper`` for a negative coefficient, and block j's on the
    post-activations of ReLU layer j - 1, before their relaxation, where a
    negative coefficient takes the relaxation's upper side.  Every product
    runs region by region, so each region's values are the bits of a walk
    of its own.  An upper bound is the negated lower bound of the negated
    rows.
    """
    A, c, pos, neg = start
    coefs = [None] * upto
    negs = [None] * (upto + 1)
    for j in range(upto - 1, -1, -1):
        lam_low, lam_up, mu_up = relax[j]
        negs[j + 1] = neg
        c = c + neg @ mu_up
        A = pos * lam_low + neg * lam_up
        coefs[j] = A
        Wj, bj = blocks[j]
        c = c + (A @ bj)[..., None]
        A = A @ Wj
        pos = np.maximum(A, 0.0)
        neg = np.minimum(A, 0.0)
    negs[0] = neg
    return pos @ lower + neg @ upper + c, coefs, negs


def _interval(net, relax, upto, lower, upper, objective=None):
    """Block ``upto``'s affine output bounds for each region, from one walk of ``[W; -W]``.

    With an ``objective`` (the output block only) its row rides under those
    rows in the same walk.  Returns the (k, n) lower and upper bounds, and
    the objective's (k,) bounds, its per-ReLU-layer (k, w) pre-activation
    coefficients and its upper sides: per block, a (k, w) mask, True where
    its coefficient on the block's input is negative (see
    :func:`_lower_bound`).  All three are None without an objective.
    """
    start = net.signed_blocks[upto] if objective is None else net.signed_output(objective)
    n = net.blocks[upto][1].size
    lb, coefs, negs = _lower_bound(net.blocks, relax, start, upto, lower, upper)
    lb = lb[..., 0]
    if objective is None:
        return lb[:, :n], -lb[:, n:], None, None, None
    k = lb.shape[0]
    # the rows the walk starts from are the batch's, shared: their mask is repeated per region
    sides = [a[:, -1] < 0.0 if a.ndim == 3 else (a[-1:] < 0.0).repeat(k, axis=0) for a in negs]
    return lb[:, :n], -lb[:, n : 2 * n], lb[:, -1], [a[:, -1] for a in coefs], sides


def _take_parents(l, u, levels) -> None:
    """Intersect the rows of each level of a layer's (k, w) bounds with their parents' rows, in place.

    ``levels`` holds, for each level under the first and in order, its rows
    and its parents' rows, so a parent's rows are final when its children
    read them.  Its upper bound is read reordered, ``max(u, l)``, as its
    own pass leaves it.  max and min are exact, so signs applied before
    this give the bits of signs applied after it.
    """
    for rows, parents in levels:
        pl = l[parents]
        l[rows] = np.maximum(l[rows], pl)
        u[rows] = np.minimum(u[rows], np.maximum(u[parents], pl))


def bound_regions(net: Network, regions, objective=None) -> list:
    """Sound per-neuron bounds for each region, in one batched propagation pass.

    ``regions`` is a sequence of ``(box, splits, parent)`` triples, one per
    region, with the meanings :func:`compute_bounds` gives them, except
    that a region's ``parent`` may also be the index of an earlier region
    of the same batch (any other index raises ValueError); the
    ``objective``, if any, is shared by all.  Returns one
    :class:`PreactBounds` per region, in order, each the bits that
    :func:`compute_bounds` returns for that region alone, ``walks``
    included, given its parent's bounds from this call; only
    ``objective_lb`` is at least an external parent's alone, never that of
    a parent in the batch.  A region whose parent, or any ancestor in the
    batch, is ``infeasible`` gets that ancestor's bounds object; every
    other region gets one pass.  So a whole tree is bounded in one call,
    each node naming its parent's index, in the bits of one call per node.

    The passes run together, one step per ReLU layer for the whole batch.
    A region walks the layer with :func:`_interval`, whose products run
    region by region inside one call for every region that walks it, or
    takes its parent's bounds of the layer in place of the walk (below).
    The interval is intersected with the parent's bounds (a region without
    a parent, with the whole space) and each unit's phase decided: a split
    unit takes its sign's phase; otherwise it is inactive if
    u <= STABLE_TOL, else active if l >= -STABLE_TOL, else ambiguous.  Its
    relaxation follows the phase: 0, the identity, or the triangle's chord
    above and a line through the origin below.  The output block's bounds
    are intersected and checked for crossing the same way.  With an
    ``objective``, its row ``(c @ W, c @ b)`` rides in the output block's
    walk, which sets ``kappa`` and ``objective_lb``.  The decide step also
    sets each region's ``ambiguous`` flag.  Within each step the regions go
    level by level: level 0 holds those whose parent is outside the batch
    or None, and a region one level below its parent in the batch is
    intersected with that parent's final bounds of the layer, signed and
    reordered, before its own crossing check (see :func:`_take_parents`).

    When a region's parent ran on the same network and box, the layers up
    to the first one whose splits differ from its splits take the parent's
    bounds in place of a walk.  The parent's bounds are the ``max``/``min``
    of that same walk, with the walk as first argument, so intersecting
    them with themselves gives the walk's intersection bit for bit, and
    re-applying the parent's signs changes nothing.  (Where the parent's
    bounds crossed by less than CROSS_TOL and were reordered, they give the
    walk's bounds after this pass's reordering; only a "+" split of such a
    unit, which the parent decided inactive, is checked for crossing
    against the reordered bound instead of the walk's.)  A parent in the
    batch hands its layers on the same way.  Regions are taken in the order
    of the number of layers they take, so the regions that walk a layer
    are a prefix of the batch, and each level's rows are picked by index.
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
    depth = [0] * len(regions)  # a region's level: 0, or one below its parent in the batch
    inside = {}  # a region whose parent is in the batch: its parent's index
    plan = []
    for k, (box, splits, prior) in enumerate(regions):
        if box.dim != net.input_dim:
            raise ValueError(f"box has dim {box.dim}, network expects {net.input_dim}")
        items = frozenset(splits.items())
        if prior is None or isinstance(prior, PreactBounds):
            carry = None if prior is None else prior.carry
        elif not isinstance(prior, int) or not 0 <= prior < k:
            raise ValueError(f"region {k} names {prior!r} as its parent, not an earlier region")
        elif out[prior] is not None:  # an empty parent, handed on before any pass
            prior = out[prior]
        else:
            parent_box, parent_splits, _ = regions[prior]
            carry = _Carry(net, parent_box, frozenset(parent_splits.items()))
            inside[k], depth[k], prior = prior, depth[prior] + 1, None
        if prior is not None and prior.infeasible:  # every region under an empty one is empty
            _validate_splits(items, widths)
            out[k] = prior
        elif carry is None or carry.net is not net or carry.box is not box:
            _validate_splits(items, widths)
            plan.append((0, k, box, items, prior))
        else:
            changed = items ^ carry.splits  # the carried items were checked on this network
            _validate_splits(changed, widths)
            first = min((rid.layer for rid, _ in changed), default=n_relu - 1)  # none: take all
            plan.append((first + 1, k, box, items, prior))
    if not plan:
        return out
    if len(plan) > 1:
        plan.sort(key=lambda p: p[:2])
    takes, order, boxes, items, priors = zip(*plan)
    n = len(plan)
    below = []  # per level under the first: its rows and their parents' rows
    if inside:
        row = dict(zip(order, range(n)))
        below = [([], []) for _ in range(max(depth))]
        for k, parent in inside.items():
            rows, parents = below[depth[k] - 1]
            rows.append(row[k])
            parents.append(row[parent])
        below = [(np.array(rows), np.array(parents)) for rows, parents in below]
    if None in priors:  # no parent, or one in the batch: the region starts from the whole space
        whole = PreactBounds(
            [np.full(w, -np.inf) for w in widths], [np.full(w, np.inf) for w in widths], None,
            np.full(net.output_dim, -np.inf), np.full(net.output_dim, np.inf),
        )
        priors = [whole if p is None else p for p in priors]
    # one box, as under ReLU branching, is read by every region (an affine
    # net's first walk is its objective's, which needs a row per region)
    if n_relu and all(box is boxes[0] for box in boxes):
        lower, upper = boxes[0].lower[None, :, None], boxes[0].upper[None, :, None]
    else:
        lower = np.array([box.lower for box in boxes])[:, :, None]
        upper = np.array([box.upper for box in boxes])[:, :, None]
    signs_at = {}  # per layer: (region, unit, sign)
    for r, split_items in enumerate(items):
        for rid, sign in split_items:
            signs_at.setdefault(rid.layer, []).append((r, rid.neuron, 1.0 if sign == "+" else -1.0))

    infeasible = np.zeros(n, dtype=bool)
    ambiguous = np.zeros(n, dtype=bool)
    lows, highs, phases = [], [], []
    relax = []  # per layer, every region's relaxation in the shapes _lower_bound takes
    for i in range(n_relu):
        walking = bisect.bisect_right(takes, i)
        l = np.array([p.pre_lb[i] for p in priors])  # the later regions take these for the walk
        u = np.array([p.pre_ub[i] for p in priors])
        if walking:  # at layer 0, a walk of one shared box is one row that every region reads
            above = relax if walking == n else [tuple(a[:walking] for a in r) for r in relax]
            walk_l, walk_u, _, _, _ = _interval(net, above, i, lower[:walking], upper[:walking])
            np.maximum(walk_l, l[:walking], out=l[:walking])
            np.minimum(walk_u, u[:walking], out=u[:walking])
        signed = signs_at.get(i)
        if signed:
            signs = np.zeros(l.shape)
            for r, j, sign in signed:
                signs[r, j] = sign
            plus, minus = signs > 0, signs < 0
            l = np.where(plus, np.maximum(l, 0.0), l)
            u = np.where(minus, np.minimum(u, 0.0), u)
        _take_parents(l, u, below)
        infeasible |= (l > u + CROSS_TOL).any(axis=1)
        u = np.maximum(u, l)  # keep arrays ordered even for flagged regions

        phase = (u > STABLE_TOL) * (1 + (l < -STABLE_TOL))
        if signed:  # a "-" unit is inactive even where l is up to CROSS_TOL above 0
            phase = np.where(plus, ACTIVE, np.where(minus, INACTIVE, phase))
        active, amb = phase == ACTIVE, phase == AMBIGUOUS
        ambiguous |= amb.any(axis=1)
        width = u - l
        lam_low = (active | amb & (u >= -l)).astype(float)
        lam_up = np.divide(u, width, out=active.astype(float), where=amb)
        mu_up = np.divide(-u * l, width, out=np.zeros(l.shape), where=amb)
        for a in (l, u, phase):
            a.setflags(write=False)
        lows.append(l)
        highs.append(u)
        phases.append(phase)
        relax.append((lam_low[:, None, :], lam_up[:, None, :], mu_up[:, :, None]))

    out_l, out_u, lb, coefs, sides = _interval(net, relax, n_relu, lower, upper, objective)
    out_l = np.maximum(out_l, np.array([p.out_lb for p in priors]))
    out_u = np.minimum(out_u, np.array([p.out_ub for p in priors]))
    _take_parents(out_l, out_u, below)
    infeasible |= (out_l > out_u + CROSS_TOL).any(axis=1)
    out_u = np.maximum(out_u, out_l)
    if objective is not None:
        kappa = [np.abs(a) for a in coefs]
    flags = zip(infeasible.tolist(), ambiguous.tolist())
    for r, (prior, (empty, amb)) in enumerate(zip(priors, flags)):
        bounds = PreactBounds(
            [a[r] for a in lows], [a[r] for a in highs], [a[r] for a in phases],
            out_l[r], out_u[r], None, empty, None,
            n_relu + 1 - takes[r], _Carry(net, boxes[r], items[r]), None, amb,
        )
        if objective is not None:
            bounds.kappa = [a[r] for a in kappa]
            bounds.upper_side = [a[r] for a in sides]
            obj = lb[r]
            if prior.objective_lb is not None:  # a parent in the batch counts as none here
                obj = max(obj, prior.objective_lb)
            bounds.objective_lb = float(obj)
        out[order[r]] = bounds
    for k, parent in inside.items():  # under an empty region in the batch, every region is that one
        if out[parent].infeasible:
            out[k] = out[parent]
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
    its bounds of the ReLU layers up to the first layer whose split signs
    differ, in place of their walks; each is intersected and decided anew
    under the child's signs, and only the later layers and the output are
    walked.  The result is the full pass's, bit for bit.

    If a split empties the region (bounds cross), the result is flagged
    ``infeasible``; callers verify such regions vacuously.  This is
    :func:`bound_regions` for one region.
    """
    return bound_regions(net, [(box, splits, parent)], objective)[0]


class _Template(NamedTuple):
    """Every row a network's bounding LP can have, and each ReLU unit's place among them."""

    A: np.ndarray
    eq: np.ndarray
    rhs: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    unit_rows: np.ndarray


def _template(net) -> _Template:
    """The rows of every bounding LP of ``net``: computed once per network, read-only.

    Rows go layer by layer: the affine rows ``W @ src - pre = -b``, then two
    rows per ReLU unit, its active form ``post - pre = 0`` and its chord
    row's ``post`` entry (a ``<=`` row with right-hand side 0); the output's
    affine rows come last.  Columns are input, (pre, post) per ReLU layer
    and output.  ``pre`` and ``post`` hold each ReLU unit's columns and
    ``unit_rows`` its two rows, as a (units, 2) array.
    """
    t = net.__dict__.get("_lp_template")
    if t is not None:
        return t
    widths = [b.size for _, b in net.blocks]
    units = sum(widths[:-1])
    m, n = sum(widths) + 2 * units, net.input_dim + 2 * units + widths[-1]
    A, eq, rhs = np.zeros((m, n)), np.ones(m, dtype=bool), np.zeros(m)
    pre, first = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    row, src, w_src = 0, 0, net.input_dim
    for W, b in net.blocks:
        w, own = b.size, src + w_src
        A[row : row + w, src:own] = W
        A[np.arange(row, row + w), np.arange(own, own + w)] = -1.0
        rhs[row : row + w] = -b
        pre.append(np.arange(own, own + w))
        first.append(row + w + 2 * np.arange(w))
        row, src, w_src = row + 3 * w, own + w, w
    pre, first = np.concatenate(pre[:-1]), np.concatenate(first[:-1])  # the output block has no unit
    post = pre + np.repeat(widths[:-1], widths[:-1]).astype(int)
    A[first, post] = A[first + 1, post] = 1.0
    A[first, pre] = -1.0
    eq[first + 1] = False
    t = _Template(A, eq, rhs, pre, post, np.column_stack([first, first + 1]))
    for a in t:
        a.setflags(write=False)  # shared by every program of the network
    net.__dict__["_lp_template"] = t
    return t


def _build_program(net, prop, bounds):
    """The bounding LP as arrays over input, (pre, post) per ReLU layer and output columns.

    The rows are the network's :func:`_template` rows that the units'
    phases keep, in its order: the affine rows, then per unit none if
    inactive (its post column is [0, 0]), ``post - pre = 0`` if active, or
    ``pre - post <= 0`` and its chord ``post - slope * pre <= -slope * l``
    if ambiguous; the output's affine rows come last.  The node writes only
    its own entries into the kept rows: the ambiguous units' signs, slopes
    and chord right-hand sides, and their rows' ``<=``.  Other post columns
    are max(pre, 0).  Every ``=`` row ends with -1 or 1 on its own column,
    and both rows of an ambiguous unit end on its post column,
    ``pre - post <= 0`` with -1 and the chord with 1.  That is the layout
    the solver's crash basis starts from: it evaluates the network forward
    from the program's start corner.  The ``at_upper`` mask sets that
    corner where the bounds' objective walk went (``upper_side``): each
    input whose coefficient there is negative starts at its upper bound,
    and so does each ambiguous unit's post whose coefficient is negative,
    the units whose walk read the chord.  The crash covers such a post's
    chord row with post = slope * (pre - l), and every other ambiguous
    post's ``pre - post <= 0`` row with post = pre wherever pre is
    positive.  Bounds without an ``upper_side`` start every column at its
    lower bound.
    """
    t = _template(net)
    phase = np.concatenate([np.zeros(0, dtype=int), *bounds.phase])
    keep = np.ones(t.rhs.size, dtype=bool)
    # each unit keeps its active form unless inactive, and its chord row if ambiguous
    keep[t.unit_rows] = phase[:, None] > (INACTIVE, ACTIVE)
    A, eq, rhs = t.A[keep], t.eq[keep], t.rhs[keep]
    cols = [(prop.input.lower, prop.input.upper)]
    for l, u, on in zip(bounds.pre_lb, bounds.pre_ub, bounds.phase):
        cols += [(l, u), (np.where(on, np.maximum(l, 0.0), 0.0), np.where(on, np.maximum(u, 0.0), 0.0))]
    cols.append((bounds.out_lb, bounds.out_ub))
    lo, hi = (np.concatenate(side) for side in zip(*cols))

    amb = np.flatnonzero(phase == AMBIGUOUS)
    chord = np.cumsum(keep)[t.unit_rows[amb, 1]] - 1  # the chord rows' places among the kept rows
    pre, post = t.pre[amb], t.post[amb]
    l, u = lo[pre], hi[pre]
    slope = u / (u - l)
    eq[chord - 1] = False
    A[chord - 1, post] = -1.0  # pre - post <= 0
    A[chord - 1, pre] = 1.0
    A[chord, pre] = -slope
    rhs[chord] = -slope * l

    at_upper = np.zeros(lo.size, dtype=bool)
    if bounds.upper_side is not None:
        corner, *posts = bounds.upper_side
        at_upper[: net.input_dim] = corner
        at_upper[post] = np.concatenate([np.zeros(0, dtype=bool), *posts])[amb]
    objective = np.zeros(lo.size)
    objective[-net.output_dim :] = prop.output.c
    return LinearProgram(objective, np.column_stack([lo, hi]), A, eq, rhs, at_upper)


def _margin(net, prop, x) -> float:
    """The property margin at ``x``, through the network's blocks: a quick
    screen, which :func:`~incver.props.holds_concretely` confirms layer by
    layer."""
    for W, b in net.blocks[:-1]:
        x = np.maximum(W @ x + b, 0.0)
    W, b = net.blocks[-1]
    return prop.output.margin(W @ x + b)


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
    pass.  ``deadline``, a ``time.perf_counter()`` reading, goes to the
    solver, which checks it before each pivot.

    ``start``, a basis of an earlier LP of the same region, is read where
    the LP would run: the program is built once, and
    :func:`~incver.lp.price_basis` reads the start on it with target
    ``-d``.  When the start's weak-duality bound plus d is nonnegative, the
    region is Verified with that bound as ``lb_value``, ``certified`` set
    and ``lp`` None, with no solve.  The certificate is sound for any basis,
    primal feasible on this program or not, and takes no feasibility
    tolerance.  Otherwise a start that is still optimal on the program
    gives the LP's outcome, with no pivot; its optimum can differ from a
    cold solve's within the solver's tolerance, at another optimal vertex,
    from which the candidate input is clipped.  Any other start, and a
    point that fails the solver's final guard, leaves the program to a
    cold :func:`~incver.lp.solve`.

    Returns Verified when the proved lower bound is nonnegative (or the
    region is empty, flagged ``infeasible``), Counterexample when a concrete
    input violates the property, and Unknown when the relaxation's minimum
    is negative but spurious.  The LP is skipped, and the verdict's
    ``lp`` left None, where ``start`` certifies the region (above),
    or where some ReLU is still ambiguous and either
    the bounds' ``objective_lb`` plus d is already nonnegative (Verified),
    or it is negative, the bounds walked every layer (a new box: the root,
    or an input split's child, not a ReLU split's) and the network violates
    the property at the walk's corner ``where(upper_side[0], upper,
    lower)``: Counterexample at that corner, with ``objective_lb`` plus d as
    its ``lb_value``.  A region with no ambiguous ReLU always gets its LP,
    which is exact there.  Otherwise the LP's minimizer is the candidate.
    After an LP, ``objective_lb`` is raised to its optimum so the region's
    children start from it.

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
    if lb >= 0.0:
        if bounds.ambiguous:
            return AnalyzerVerdict(Verdict.VERIFIED, float(lb), bounds=bounds)
    elif bounds.walks == len(net.blocks) and bounds.ambiguous:  # a new box: every layer walked
        corner = np.where(bounds.upper_side[0], prop.input.upper, prop.input.lower)
        if _margin(net, prop, corner) < 0.0 and not holds_concretely(prop, net, corner):
            return AnalyzerVerdict(Verdict.COUNTEREXAMPLE, float(lb), corner, bounds=bounds)
    t0 = time.perf_counter()
    program = _build_program(net, prop, bounds)
    t1 = time.perf_counter()
    proof, out = (None, None) if start is None else price_basis(program, start, -prop.output.d)
    if proof is not None and proof + prop.output.d >= 0.0:
        return AnalyzerVerdict(
            Verdict.VERIFIED, float(proof + prop.output.d), bounds=bounds, certified=True,
            build_s=t1 - t0, solve_s=time.perf_counter() - t1,
        )
    try:
        if out is None:
            out = solve(program, deadline=deadline)
    except LpTimeout:
        raise
    except Exception as exc:
        raise AnalyzerError(f"bounding LP failed: {exc}") from exc
    solved = dict(bounds=bounds, lp=out, build_s=t1 - t0, solve_s=time.perf_counter() - t1)
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

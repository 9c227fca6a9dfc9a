"""Sound bounding analyzer for branch-and-bound verification.

Two layers of machinery live here:

``compute_bounds``
    Interval bounds for every pre- and post-activation, tightened by symbolic
    back-substitution through the network (each ReLU gets per-neuron linear
    lower/upper relaxations, and concrete bounds come from pushing those back
    to the input box).  Split decisions restrict ReLUs to one sign.  One
    propagation pass bounds a region; given the bounds of the region's parent
    (the same box under all splits but one) the pass is intersected with
    them, so every per-neuron interval at a child node is a subset of its
    parent's.  That gives the verifier its monotonicity guarantee (child
    lower bounds never fall below the parent's beyond solver tolerance) and
    makes root-derived norms sound for every descendant region.

``analyze``
    Bounds the region once, with the property's objective so the bounds carry
    the branching heuristics' ``kappa``; builds one linear program over input,
    pre-activation, post-activation, and output variables, bounded by those
    bounds as they are; minimizes the property margin c^T y + d over the
    triangle relaxation of each ambiguous ReLU; and classifies the region as
    Verified, Unknown, or Counterexample.  An infeasible region (crossed
    bounds or an infeasible LP) verifies vacuously.  The verdict hands its
    bounds on: the verifier picks a split from them and bounds the two
    children from them, instead of recomputing either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from incver.lp import Constraint, LinearProgram, LpStatus, solve
from incver.model import Network, ReluId
from incver.props import InputBox, Property, holds_concretely

__all__ = [
    "AnalyzerError",
    "AnalyzerVerdict",
    "PreactBounds",
    "Verdict",
    "analyze",
    "compute_bounds",
]

# a ReLU whose bound magnitude is below this is treated as stable on that side
STABLE_TOL = 1e-9
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
    ``candidate`` is the concrete violating input for Counterexample.
    ``bounds`` are the region's bounds from this call, computed with the
    property's objective so their ``kappa`` is set; the verifier ranks split
    candidates from them.
    """

    status: Verdict
    lb_value: float
    candidate: Optional[np.ndarray] = None
    infeasible: bool = False
    bounds: Optional[PreactBounds] = None


@dataclass
class PreactBounds:
    """Per-neuron interval bounds, one entry per ReLU layer, plus output.

    ``kappa`` (present when an objective was supplied) holds, per ReLU layer,
    the absolute coefficient each pre-activation carries in the objective's
    back-substituted lower bound; the branching heuristics consume it.
    """

    pre_lb: list
    pre_ub: list
    post_lb: list
    post_ub: list
    out_lb: np.ndarray
    out_ub: np.ndarray
    kappa: Optional[list] = None
    infeasible: bool = False

    def pre(self, rid: ReluId) -> tuple:
        return float(self.pre_lb[rid.layer][rid.neuron]), float(self.pre_ub[rid.layer][rid.neuron])

    def kappa_of(self, rid: ReluId) -> float:
        if self.kappa is None:
            raise ValueError("bounds were computed without an objective")
        return float(self.kappa[rid.layer][rid.neuron])

    def is_ambiguous(self, rid: ReluId) -> bool:
        l, u = self.pre(rid)
        return l < -STABLE_TOL and u > STABLE_TOL

    def num_relu_layers(self) -> int:
        return len(self.pre_lb)


def _validate_splits(splits, widths) -> None:
    for rid, sign in splits.items():
        if sign not in ("+", "-"):
            raise ValueError(f"split sign must be '+' or '-', got {sign!r} for {rid}")
        if not (0 <= rid.layer < len(widths)) or not (0 <= rid.neuron < widths[rid.layer]):
            raise ValueError(f"{rid} is outside the network's ReLU layers")


class _Relaxation(NamedTuple):
    """Per-layer linear ReLU relaxation: lower x >= lam_low * xhat, upper
    x <= lam_up * xhat + mu_up."""

    lam_low: np.ndarray
    lam_up: np.ndarray
    mu_up: np.ndarray


def _back_substitute(blocks, relax, upto, box, want_upper):
    """Concrete bound for block ``upto``'s affine output via back-substitution.

    Walks the expression A x + c from block ``upto`` back to the input box,
    replacing each post-activation with its linear relaxation (choosing the
    side that preserves the bound's direction for each coefficient sign).
    """
    A, b = blocks[upto]
    c = b.copy()
    for j in range(upto - 1, -1, -1):
        pos = np.clip(A, 0.0, None)
        neg = np.clip(A, None, 0.0)
        r = relax[j]
        if want_upper:
            c = c + pos @ r.mu_up
            A = pos * r.lam_up + neg * r.lam_low
        else:
            c = c + neg @ r.mu_up
            A = pos * r.lam_low + neg * r.lam_up
        Wj, bj = blocks[j]
        c = c + A @ bj
        A = A @ Wj
    pos = np.clip(A, 0.0, None)
    neg = np.clip(A, None, 0.0)
    if want_upper:
        return pos @ box.upper + neg @ box.lower + c
    return pos @ box.lower + neg @ box.upper + c


def _one_pass(blocks, box, sign_by_layer, prior):
    """One full propagation pass, intersected with ``prior`` layer by layer.

    Returns (PreactBounds-without-kappa, relaxations) so the caller can run
    an objective walk against the final relaxations.
    """
    n_relu = len(blocks) - 1
    relax = []
    pre_lb, pre_ub, post_lb, post_ub = [], [], [], []
    infeasible = False
    for i in range(n_relu):
        l = _back_substitute(blocks, relax, i, box, want_upper=False)
        u = _back_substitute(blocks, relax, i, box, want_upper=True)
        if prior is not None:
            l = np.maximum(l, prior.pre_lb[i])
            u = np.minimum(u, prior.pre_ub[i])
        signs = sign_by_layer.get(i)
        if signs is not None:
            l = np.where(signs > 0, np.maximum(l, 0.0), l)
            u = np.where(signs < 0, np.minimum(u, 0.0), u)
        if np.any(l > u + CROSS_TOL):
            infeasible = True
        u = np.maximum(u, l)  # keep arrays ordered even for flagged regions

        width = l.shape[0]
        lam_low = np.zeros(width)
        lam_up = np.zeros(width)
        mu_up = np.zeros(width)
        stable_pos = l >= -STABLE_TOL
        stable_neg = ~stable_pos & (u <= STABLE_TOL)
        ambiguous = ~stable_pos & ~stable_neg
        lam_low[stable_pos] = 1.0
        lam_up[stable_pos] = 1.0
        la, ua = l[ambiguous], u[ambiguous]
        lam_up[ambiguous] = ua / (ua - la)
        mu_up[ambiguous] = -ua * la / (ua - la)
        lam_low[ambiguous] = (ua >= -la).astype(float)
        relax.append(_Relaxation(lam_low, lam_up, mu_up))

        p_lo = np.maximum(l, 0.0)
        p_hi = np.maximum(u, 0.0)
        if prior is not None:
            p_lo = np.maximum(p_lo, prior.post_lb[i])
            p_hi = np.minimum(p_hi, prior.post_ub[i])
            if np.any(p_lo > p_hi + CROSS_TOL):
                infeasible = True
            p_hi = np.maximum(p_hi, p_lo)
        if signs is not None:  # a "-" unit outputs 0, even where l is up to CROSS_TOL above 0
            p_lo = np.where(signs < 0, 0.0, p_lo)
            p_hi = np.where(signs < 0, 0.0, p_hi)
        pre_lb.append(l)
        pre_ub.append(u)
        post_lb.append(p_lo)
        post_ub.append(p_hi)

    out_l = _back_substitute(blocks, relax, n_relu, box, want_upper=False)
    out_u = _back_substitute(blocks, relax, n_relu, box, want_upper=True)
    if prior is not None:
        out_l = np.maximum(out_l, prior.out_lb)
        out_u = np.minimum(out_u, prior.out_ub)
        if np.any(out_l > out_u + CROSS_TOL):
            infeasible = True
        out_u = np.maximum(out_u, out_l)
    bounds = PreactBounds(pre_lb, pre_ub, post_lb, post_ub, out_l, out_u, None, infeasible)
    return bounds, relax


def _objective_kappa(blocks, relax, objective):
    """Absolute pre-activation coefficients in the objective's lower bound."""
    n_relu = len(blocks) - 1
    A = objective @ blocks[n_relu][0]
    kappa = [None] * n_relu
    for j in range(n_relu - 1, -1, -1):
        r = relax[j]
        pos = np.clip(A, 0.0, None)
        neg = np.clip(A, None, 0.0)
        A = pos * r.lam_low + neg * r.lam_up
        kappa[j] = np.abs(A)
        A = A @ blocks[j][0]
    return kappa


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
    result also carries ``kappa``.

    ``parent`` is the result for the same box under all of ``splits`` but
    one; the pass is intersected with it, so bounds shrink monotonically
    along a branching path.  A parent that is already ``infeasible`` is
    returned unchanged: every region under an empty one is empty.

    If a split empties the region (bounds cross), the result is flagged
    ``infeasible``; callers verify such regions vacuously.
    """
    if box.dim != net.input_dim:
        raise ValueError(f"box has dim {box.dim}, network expects {net.input_dim}")
    if objective is not None:
        objective = np.asarray(objective, dtype=float)
        if objective.shape != (net.output_dim,):
            raise ValueError(
                f"objective has shape {objective.shape}, network output dim is {net.output_dim}"
            )
    blocks = net.blocks
    widths = [W.shape[0] for W, _ in blocks[:-1]]
    _validate_splits(splits, widths)
    if parent is not None and parent.infeasible:
        return parent
    sign_by_layer = {}
    for rid, sign in splits.items():
        arr = sign_by_layer.setdefault(rid.layer, np.zeros(widths[rid.layer]))
        arr[rid.neuron] = 1.0 if sign == "+" else -1.0
    bounds, relax = _one_pass(blocks, box, sign_by_layer, parent)
    if objective is not None:
        bounds.kappa = _objective_kappa(blocks, relax, objective)
    return bounds


def _build_program(net, prop, splits, bounds):
    """Assemble the bounding LP over input/pre/post/output variables, bounded by ``bounds``."""
    blocks = net.blocks
    n_relu = len(blocks) - 1
    n_in = net.input_dim
    n_out = net.output_dim
    widths = [blocks[i][0].shape[0] for i in range(n_relu)]

    # variable layout: input, then (pre, post) per relu layer, then output
    offsets_pre = []
    offsets_post = []
    k = n_in
    for w in widths:
        offsets_pre.append(k)
        k += w
        offsets_post.append(k)
        k += w
    off_out = k
    k += n_out
    total = k

    lo = np.full(total, -np.inf)
    hi = np.full(total, np.inf)
    lo[:n_in] = prop.input.lower
    hi[:n_in] = prop.input.upper
    for i, w in enumerate(widths):
        lo[offsets_pre[i] : offsets_pre[i] + w] = bounds.pre_lb[i]
        hi[offsets_pre[i] : offsets_pre[i] + w] = bounds.pre_ub[i]
        lo[offsets_post[i] : offsets_post[i] + w] = bounds.post_lb[i]
        hi[offsets_post[i] : offsets_post[i] + w] = bounds.post_ub[i]
    lo[off_out:] = bounds.out_lb
    hi[off_out:] = bounds.out_ub

    cons = []

    def affine_rows(W, b, src_off, src_n, dst_off):
        for r in range(W.shape[0]):
            row = np.zeros(total)
            row[src_off : src_off + src_n] = W[r]
            row[dst_off + r] = -1.0
            cons.append(Constraint(row, "=", -float(b[r])))

    src_off, src_n = 0, n_in
    for i in range(n_relu):
        W, b = blocks[i]
        affine_rows(W, b, src_off, src_n, offsets_pre[i])
        sign_of = {rid.neuron: s for rid, s in splits.items() if rid.layer == i}
        for j in range(widths[i]):
            pre_v = offsets_pre[i] + j
            post_v = offsets_post[i] + j
            sign = sign_of.get(j)
            l, u = lo[pre_v], hi[pre_v]
            if sign == "-" or (sign is None and u <= STABLE_TOL):
                continue  # post variable pinned to [0, 0] via bounds
            if sign == "+" or l >= -STABLE_TOL:
                row = np.zeros(total)
                row[post_v] = 1.0
                row[pre_v] = -1.0
                cons.append(Constraint(row, "=", 0.0))
                continue
            # ambiguous neuron: triangle relaxation (post >= pre, under the chord)
            row = np.zeros(total)
            row[post_v] = 1.0
            row[pre_v] = -1.0
            cons.append(Constraint(row, ">=", 0.0))
            slope = u / (u - l)
            row = np.zeros(total)
            row[post_v] = 1.0
            row[pre_v] = -slope
            cons.append(Constraint(row, "<=", -slope * l))
        src_off, src_n = offsets_post[i], widths[i]
    W, b = blocks[n_relu]
    affine_rows(W, b, src_off, src_n, off_out)

    objective = np.zeros(total)
    objective[off_out:] = prop.output.c
    return LinearProgram(objective, np.column_stack([lo, hi]), cons)


def analyze(net: Network, prop: Property, splits: dict, parent=None) -> AnalyzerVerdict:
    """One bounding call: lower-bound the property margin over the region.

    ``parent``, the bounds of the region's parent, goes to :func:`compute_bounds`.

    Returns Verified when the proved lower bound is nonnegative (or the
    region is empty, flagged ``infeasible``), Counterexample when the LP
    minimizer's input block concretely violates the property, and Unknown
    when the relaxation's minimum is negative but spurious.

    Raises :class:`AnalyzerError` on solver failure; a verdict is never
    fabricated from a broken solve.
    """
    bounds = compute_bounds(net, prop.input, splits, objective=prop.output.c, parent=parent)
    if bounds.infeasible:
        return AnalyzerVerdict(Verdict.VERIFIED, math.inf, infeasible=True, bounds=bounds)
    program = _build_program(net, prop, splits, bounds)
    try:
        out = solve(program)
    except Exception as exc:
        raise AnalyzerError(f"bounding LP failed: {exc}") from exc
    if out.status is LpStatus.INFEASIBLE:
        return AnalyzerVerdict(Verdict.VERIFIED, math.inf, infeasible=True, bounds=bounds)
    if out.status is not LpStatus.OPTIMAL:
        raise AnalyzerError(f"bounding LP reported {out.status}; region bounds missing")
    lb = float(out.value + prop.output.d)
    if lb >= 0.0:
        return AnalyzerVerdict(Verdict.VERIFIED, lb, bounds=bounds)
    candidate = prop.input.clip(out.point[: net.input_dim])
    if not holds_concretely(prop, net, candidate):
        return AnalyzerVerdict(Verdict.COUNTEREXAMPLE, lb, candidate, bounds=bounds)
    return AnalyzerVerdict(Verdict.UNKNOWN, lb, bounds=bounds)

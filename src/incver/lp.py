"""Dense bounded-variable primal simplex.

This module is the only linear-programming code in the package; the analyzer
builds one :class:`LinearProgram` per bounding call and hands it to
:func:`solve`.  Problem sizes are desk scale (at most a few hundred variables
and rows), so the implementation favors a dense tableau, explicit state, and
determinism over asymptotic cleverness.

A program is held as arrays: the objective, the variable bounds, an
``(m, n)`` row matrix ``A``, the row relations ``rel`` and the right-hand
sides ``rhs``.  :func:`solve` reads them as they are; ``constraints`` is a
derived ``(row, rel, rhs)`` view for readers that want rows one at a time.
The constructor rejects NaN and infinite coefficients and NaN or inverted
infinite bounds, so the solver never sees a program it would misread.

The solver handles general variable bounds ``lo <= x <= hi`` with either side
possibly infinite, and rows with relations ``<=``, ``=``, ``>=``.  It runs the
classic two phases from a crash start basis:

1. Each ``=`` row takes as basic its last nonzero structural column, unless
   that coefficient is below the pivot tolerance or an earlier row took the
   column.  These columns form a triangular basis, so their values follow by
   forward substitution from the nonbasic start values; a column whose value
   leaves its bounds is parked at the nearer bound instead.  An inequality
   row starts on its slack when the residual allows it.  Only the rows left
   without a basic column receive an artificial variable, whose column is
   ``sign(residual) * e_i`` with bounds ``[0, inf)``; when there are none,
   phase 1 is skipped.  Otherwise phase 1 minimizes the sum of artificials,
   and a positive optimum means the program is infeasible.  Artificials that
   linger in the basis at zero are pivoted out where possible and otherwise
   pinned to ``[0, 0]`` (their row is linearly dependent).
2. Phase 2 minimizes the real objective with artificial columns barred from
   entering.

The analyzer orders its variables input, pre, post, output and writes each
``=`` row with its own variable last, so on its programs the crash basis
evaluates the affine layers forward from the start values, and phase 1 only
repairs the rows whose value leaves its bounds.

Entering variables are chosen by the Dantzig rule (most negative reduced
cost); after a run of degenerate pivots the rule switches to Bland's rule
(lowest eligible index) until progress resumes, which prevents cycling.  All
tie-breaks are by lowest index, so identical inputs produce identical pivot
sequences, outcomes, and points.

Numerical failure (iteration cap, singular basis, a final solution that does
not verify feasible) raises :class:`LpError`; the solver never returns a
wrong ``OPTIMAL`` silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "LinearProgram",
    "LpError",
    "LpOutcome",
    "LpStatus",
    "solve",
]


class LpError(RuntimeError):
    """Numerical breakdown or iteration exhaustion inside the solver."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize ``objective @ x`` subject to ``A @ x  rel  rhs`` and variable bounds.

    Parameters
    ----------
    objective : (n,) array
        Cost vector; the solver minimizes.
    var_bounds : (n, 2) array
        Per-variable ``[lo, hi]``; ``lo`` may be ``-inf`` and ``hi`` ``+inf``.
    A : (m, n) array, optional
        Row coefficients.  Omitted for a pure box problem (``m = 0``).
    rel : (m,) sequence of str
        Each row's relation, one of ``"<="``, ``"="``, ``">="``.
    rhs : (m,) array
        Each row's right-hand side.

    Raises ValueError on a shape mismatch, an unknown relation, a NaN or
    infinite coefficient, or a NaN, ``+inf`` lower or ``-inf`` upper bound.
    """

    objective: np.ndarray
    var_bounds: np.ndarray
    A: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray

    def __init__(self, objective, var_bounds, A=None, rel=(), rhs=()):
        c = np.asarray(objective, dtype=float)
        vb = np.asarray(var_bounds, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a non-empty 1-d vector")
        if vb.shape != (c.size, 2):
            raise ValueError(
                f"var_bounds must have shape ({c.size}, 2), got {vb.shape}"
            )
        rhs = np.asarray(rhs, dtype=float)
        rel = np.asarray(rel, dtype=str)
        A = np.zeros((0, c.size)) if A is None else np.asarray(A, dtype=float)
        if rhs.ndim != 1 or rel.shape != rhs.shape or A.shape != (rhs.size, c.size):
            raise ValueError(
                f"A, rel and rhs must have shapes (m, {c.size}), (m,) and (m,); "
                f"got {A.shape}, {rel.shape} and {rhs.shape}"
            )
        unknown = sorted(set(rel.tolist()) - {"<=", "=", ">="})
        if unknown:
            raise ValueError(f"unknown relation {unknown[0]!r}")
        for name, arr in (("objective", c), ("A", A), ("rhs", rhs)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a NaN or infinite entry")
        # each comparison is False for NaN as well
        if not ((vb[:, 0] < np.inf).all() and (vb[:, 1] > -np.inf).all()):
            raise ValueError("var_bounds has a NaN, a lower bound of +inf or an upper bound of -inf")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "var_bounds", vb)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "rhs", rhs)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def constraints(self) -> tuple:
        """The rows as ``(row, rel, rhs)`` triples, read from the arrays on each access."""
        return tuple(zip(self.A, self.rel.tolist(), self.rhs.tolist()))


@dataclass(frozen=True)
class LpOutcome:
    """Result of :func:`solve`.

    ``value`` and ``point`` are populated only for ``OPTIMAL``; ``point`` is
    the argmin restricted to the program's own variables.  ``iterations``
    counts the pivots applied in phases 1 and 2, bound flips included; it is
    0 when the program is solved without the simplex (no rows, or crossed
    variable bounds).
    """

    status: LpStatus
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    iterations: int = 0


# ---------------------------------------------------------------------------
# internal state codes for each column
_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3

_DEGENERATE_STEP = 1e-11
_BLAND_TRIGGER = 50


class _Tableau:
    """Mutable simplex state over the extended column set.

    Columns are ordered: structural variables, slacks for inequality rows,
    then any artificials.  ``T`` always equals ``Binv @ A`` for the current
    basis; ``xb`` holds basic variable values; ``val`` holds the fixed value
    of every nonbasic column.
    """

    def __init__(self, A, b, lo, hi, pivot_tol, opt_tol, max_iter):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.pivot_tol = pivot_tol
        self.opt_tol = opt_tol
        self.max_iter = max_iter
        self.m, self.K = A.shape
        self.T = A.copy()
        self.xb = np.zeros(self.m)
        self.basis = np.full(self.m, -1, dtype=int)
        self.state = np.full(self.K, _AT_LOWER, dtype=int)
        self.val = np.zeros(self.K)
        self.iterations = 0

    def refresh(self) -> None:
        """Refactorize: recompute T = Binv A and basic values from the basis.

        Used between phases and before the final feasibility check to shed
        accumulated row-operation drift.
        """
        B = self.A[:, self.basis]
        nonbasic = self.state != _BASIC
        rhs = self.b - self.A[:, nonbasic] @ self.val[nonbasic]
        try:
            self.xb = np.linalg.solve(B, rhs)
            self.T = np.linalg.solve(B, self.A)
        except np.linalg.LinAlgError as exc:
            raise LpError("singular basis during refactorization") from exc

    def run(self, cost: np.ndarray) -> str:
        """Pivot until optimal or unbounded for the given cost vector."""
        bland = False
        degenerate_run = 0
        while True:
            reduced = cost - cost[self.basis] @ self.T
            enter = self._entering(reduced, bland)
            if enter is None:
                return "optimal"
            j, sigma = enter
            t, row = self._ratio_test(j, sigma)
            if t is None:
                return "unbounded"
            if self.iterations >= self.max_iter:
                raise LpError(
                    f"iteration limit {self.max_iter} exceeded; possible cycling"
                )
            # Bland's rule from the _BLAND_TRIGGER-th degenerate pivot in a row
            degenerate_run = degenerate_run + 1 if t <= _DEGENERATE_STEP else 0
            bland = degenerate_run >= _BLAND_TRIGGER
            self._apply_pivot(j, sigma, t, row)
            self.iterations += 1

    def _entering(self, reduced, bland):
        tol = self.opt_tol
        movable = (self.state != _BASIC) & (self.hi - self.lo > 0)
        down = movable & (self.state == _AT_LOWER) & (reduced < -tol)
        up = movable & (self.state == _AT_UPPER) & (reduced > tol)
        free = movable & (self.state == _FREE) & (np.abs(reduced) > tol)
        eligible = down | up | free
        if not eligible.any():
            return None
        if bland:
            j = int(np.argmax(eligible))
        else:
            score = np.where(eligible, np.abs(reduced), -1.0)
            j = int(np.argmax(score))
        sigma = 1.0 if (self.state[j] == _AT_LOWER or reduced[j] < 0) else -1.0
        return j, sigma

    def _ratio_test(self, j, sigma):
        """Largest step t >= 0 keeping every basic variable inside its bounds.

        Returns (t, blocking_row) where blocking_row is None for a bound
        flip of the entering variable itself, or (None, None) if unbounded.
        Ratios are clamped at zero so a basic variable already resting on a
        bound blocks immediately instead of producing a negative step.
        """
        delta = sigma * self.T[:, j]
        blo = self.lo[self.basis]
        bhi = self.hi[self.basis]
        ratios = np.full(self.m, np.inf)
        dec = delta > self.pivot_tol
        inc = delta < -self.pivot_tol
        with np.errstate(invalid="ignore"):
            ratios[dec] = (self.xb[dec] - blo[dec]) / delta[dec]
            ratios[inc] = (bhi[inc] - self.xb[inc]) / (-delta[inc])
        ratios = np.maximum(ratios, 0.0)
        ratios[~np.isfinite(ratios)] = np.inf
        span = self.hi[j] - self.lo[j]
        t_rows = float(np.min(ratios)) if self.m else np.inf
        if span <= t_rows:  # an infinite span here means an infinite t_rows too
            return (span, None) if np.isfinite(span) else (None, None)
        if not np.isfinite(t_rows):
            return None, None
        candidates = np.flatnonzero(ratios <= t_rows + 1e-12)
        return t_rows, int(candidates[np.argmin(self.basis[candidates])])

    def _apply_pivot(self, j, sigma, t, row):
        delta = sigma * self.T[:, j]
        self.xb -= t * delta
        if row is None:
            # bound flip: j moves to its opposite bound, basis unchanged
            self.val[j] = self.hi[j] if sigma > 0 else self.lo[j]
            self.state[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
            return
        new_val = self.val[j] + sigma * t
        leaving = self.basis[row]
        if delta[row] > 0:
            self.state[leaving] = _AT_LOWER
            self.val[leaving] = self.lo[leaving]
        else:
            self.state[leaving] = _AT_UPPER
            self.val[leaving] = self.hi[leaving]
        piv = self.T[row, j]
        if abs(piv) <= self.pivot_tol:
            raise LpError("pivot element vanished; numerical breakdown")
        self.T[row, :] /= piv
        factors = self.T[:, j].copy()
        factors[row] = 0.0
        self.T -= np.outer(factors, self.T[row, :])
        self.basis[row] = j
        self.state[j] = _BASIC
        self.xb[row] = new_val


def _box_only_solve(lp: LinearProgram) -> LpOutcome:
    """Closed-form optimum when there are no rows: each variable sits at the
    bound its cost prefers (a cost-free one at a finite bound, else 0)."""
    c = lp.objective
    lo, hi = lp.var_bounds.T
    idle = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    x = np.where(c > 0, lo, np.where(c < 0, hi, idle))
    if not np.all(np.isfinite(x)):
        return LpOutcome(LpStatus.UNBOUNDED)
    return LpOutcome(LpStatus.OPTIMAL, float(c @ x), x)


def _crash(tab: _Tableau, A_rows: np.ndarray, is_eq: np.ndarray) -> np.ndarray:
    """Triangular crash start for the equality rows.

    Each "=" row claims its last nonzero structural column when that
    coefficient exceeds ``pivot_tol`` and no earlier row has claimed the
    column.  Every other nonzero of a claimed row lies in a lower column, so
    taking the claimed columns in increasing order is a forward substitution
    of a triangular basis from the nonbasic start values.  A column whose
    substituted value leaves its bounds is parked, nonbasic, at the nearer
    bound, and its row stays without a basic column.  Returns the start
    point over the structural columns.
    """
    n = A_rows.shape[1]
    nonzero = A_rows != 0
    rows = np.flatnonzero(is_eq & nonzero.any(axis=1))
    last = n - 1 - np.argmax(nonzero[rows, ::-1], axis=1)
    keep = np.abs(A_rows[rows, last]) > tab.pivot_tol
    rows, last = rows[keep], last[keep]
    heads, first = np.unique(last, return_index=True)  # first claim wins
    x = tab.val[:n].copy()
    for j, i in zip(heads, rows[first]):
        v = (tab.b[i] - A_rows[i, :j] @ x[:j]) / A_rows[i, j]
        if tab.lo[j] <= v <= tab.hi[j]:
            tab.basis[i], tab.state[j], tab.xb[i] = j, _BASIC, v
        else:
            tab.state[j] = _AT_LOWER if v < tab.lo[j] else _AT_UPPER
            v = tab.val[j] = min(max(v, tab.lo[j]), tab.hi[j])
        x[j] = v
    return x


def solve(
    lp: LinearProgram,
    *,
    pivot_tol: float = 1e-9,
    feas_tol: float = 1e-7,
    opt_tol: float = 1e-9,
    max_iter: Optional[int] = None,
) -> LpOutcome:
    """Solve a bounded-variable linear program.

    ``>=`` rows are negated into ``<=`` rows and every inequality row gets a
    slack column, in row order, all as array operations on ``lp.A``.
    Structural variables start at a finite bound (the lower when there is
    one) or at 0 when free.  The start basis is the crash basis described in
    the module docstring, and phase 1 runs only for the rows it leaves
    without a feasible basic column.

    Parameters
    ----------
    lp : LinearProgram
        The program to minimize.
    pivot_tol, feas_tol, opt_tol : float
        Pivot-element, feasibility, and reduced-cost tolerances.
    max_iter : int, optional
        Pivot budget across both phases; defaults to ``200 * (rows + cols) +
        1000``.  Exceeding it raises :class:`LpError`.

    Returns
    -------
    LpOutcome
        ``OPTIMAL`` carries the minimum value and an argmin point that has
        been re-solved against the final basis and verified feasible within
        ``feas_tol`` by one residual ``A @ x - rhs`` over all rows, where a
        NaN counts as a violation; ``INFEASIBLE`` and ``UNBOUNDED`` carry no
        point.

    Raises
    ------
    LpError
        On iteration exhaustion, singular bases, or a final point that fails
        the feasibility check.  A wrong answer is never returned silently.
    """
    n = lp.num_vars
    m = lp.rhs.size
    lo_s, hi_s = lp.var_bounds.T
    if np.any(lo_s > hi_s):
        return LpOutcome(LpStatus.INFEASIBLE)
    if m == 0:
        return _box_only_solve(lp)

    # normalize rows: ">=" becomes "<=" by negation; remember equality rows
    is_ge = lp.rel == ">="
    is_eq = lp.rel == "="
    A_rows = np.where(is_ge[:, None], -lp.A, lp.A)
    b = np.where(is_ge, -lp.rhs, lp.rhs)

    # one slack column per inequality row, in row order
    ineq_rows = np.flatnonzero(~is_eq)
    n_slack = ineq_rows.size
    K = n + n_slack
    slack_cols = n + np.arange(n_slack)
    A = np.zeros((m, K))
    A[:, :n] = A_rows
    A[ineq_rows, slack_cols] = 1.0
    lo = np.concatenate([lo_s, np.zeros(n_slack)])
    hi = np.concatenate([hi_s, np.full(n_slack, np.inf)])

    if max_iter is None:
        max_iter = 200 * (m + K) + 1000

    tab = _Tableau(A, b, lo, hi, pivot_tol, opt_tol, max_iter)
    # structural columns start at a finite bound (the lower first) or free at 0
    lo_fin, hi_fin = np.isfinite(lo_s), np.isfinite(hi_s)
    tab.state[:n] = np.where(lo_fin, _AT_LOWER, np.where(hi_fin, _AT_UPPER, _FREE))
    tab.val[:n] = np.where(lo_fin, lo_s, np.where(hi_fin, hi_s, 0.0))
    residual = b - A_rows @ _crash(tab, A_rows, is_eq)

    # an inequality row starts on its slack when that is feasible; every
    # row still without a basic column gets an artificial
    on_slack = residual[ineq_rows] >= 0.0
    rows, cols = ineq_rows[on_slack], slack_cols[on_slack]
    tab.basis[rows], tab.state[cols] = cols, _BASIC
    art_rows = np.flatnonzero(tab.basis < 0)

    if art_rows.size:
        n_art = art_rows.size
        art_cols = K + np.arange(n_art)
        A_ext = np.zeros((m, K + n_art))
        A_ext[:, :K] = tab.A
        A_ext[art_rows, art_cols] = np.where(residual[art_rows] < 0.0, -1.0, 1.0)
        tab.A = A_ext
        tab.K = K + n_art
        tab.lo = np.concatenate([lo, np.zeros(n_art)])
        tab.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        tab.val = np.concatenate([tab.val, np.zeros(n_art)])
        tab.state = np.concatenate([tab.state, np.full(n_art, _AT_LOWER, dtype=int)])
        tab.basis[art_rows], tab.state[art_cols] = art_cols, _BASIC
        tab.refresh()

        phase1_cost = np.zeros(tab.K)
        phase1_cost[K:] = 1.0
        if tab.run(phase1_cost) == "unbounded":
            raise LpError("phase 1 reported unbounded; numerical breakdown")
        if float(phase1_cost[tab.basis] @ tab.xb) > feas_tol:
            return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)

        # evict basic artificials where a real pivot column exists; rows with
        # none are linearly dependent and keep a pinned artificial
        for i in np.flatnonzero(tab.basis >= K):
            candidates = np.flatnonzero(
                (tab.state[:K] != _BASIC) & (np.abs(tab.T[i, :K]) > pivot_tol)
            )
            if candidates.size:
                tab._apply_pivot(int(candidates[0]), 1.0, 0.0, i)
        # pinned to [0, 0], an artificial never enters again
        tab.lo[K:] = 0.0
        tab.hi[K:] = 0.0
        tab.val[K:] = 0.0
    tab.refresh()

    full_cost = np.zeros(tab.K)
    full_cost[:n] = lp.objective
    if tab.run(full_cost) == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED, iterations=tab.iterations)

    tab.refresh()
    x_all = tab.val.copy()
    x_all[tab.basis] = tab.xb
    x = x_all[:n]

    # final guard: never return an OPTIMAL point that is not actually feasible;
    # the comparisons are written so that a NaN counts as a violation
    if not np.all((x >= lo_s - feas_tol) & (x <= hi_s + feas_tol)):
        raise LpError("final point violates variable bounds")
    residual = A_rows @ x - b
    violation = np.where(is_eq, np.abs(residual), residual)
    bad = ~(violation <= feas_tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise LpError(f"final point violates row {i} by {violation[i]:.3e}")
    return LpOutcome(LpStatus.OPTIMAL, float(lp.objective @ x), x, tab.iterations)

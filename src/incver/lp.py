"""Dense bounded-variable primal simplex.

This module is the only linear-programming code in the package; the analyzer
builds one :class:`LinearProgram` per bounding call and hands it to
:func:`solve`.  Problem sizes are desk scale (at most a few hundred variables
and rows), so the implementation favors a dense tableau, explicit state, and
determinism over asymptotic cleverness.

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
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "Constraint",
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


class Constraint(NamedTuple):
    """One linear row: ``row @ x  rel  rhs`` with rel in {"<=", "=", ">="}."""

    row: np.ndarray
    rel: str
    rhs: float


_RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize ``objective @ x`` subject to rows and variable bounds.

    Parameters
    ----------
    objective : (n,) array
        Cost vector; the solver minimizes.
    var_bounds : (n, 2) array
        Per-variable ``[lo, hi]``; ``-inf`` and ``+inf`` are allowed.
    constraints : sequence of Constraint
        Linear rows.  May be empty (pure box problem).
    """

    objective: np.ndarray
    var_bounds: np.ndarray
    constraints: tuple

    def __init__(self, objective, var_bounds, constraints=()):
        c = np.asarray(objective, dtype=float)
        vb = np.asarray(var_bounds, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a non-empty 1-d vector")
        if vb.shape != (c.size, 2):
            raise ValueError(
                f"var_bounds must have shape ({c.size}, 2), got {vb.shape}"
            )
        rows = []
        for k, con in enumerate(constraints):
            row = np.asarray(con.row, dtype=float)
            if row.shape != (c.size,):
                raise ValueError(
                    f"constraints[{k}]: row length {row.shape} != variable count {c.size}"
                )
            if con.rel not in _RELATIONS:
                raise ValueError(f"constraints[{k}]: unknown relation {con.rel!r}")
            rows.append(Constraint(row, con.rel, float(con.rhs)))
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "var_bounds", vb)
        object.__setattr__(self, "constraints", tuple(rows))

    @property
    def num_vars(self) -> int:
        return self.objective.size


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

    def __init__(self, A, b, lo, hi, pivot_tol, feas_tol, opt_tol, max_iter):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.pivot_tol = pivot_tol
        self.feas_tol = feas_tol
        self.opt_tol = opt_tol
        self.max_iter = max_iter
        self.m, self.K = A.shape
        self.T = A.copy()
        self.xb = np.zeros(self.m)
        self.basis = np.full(self.m, -1, dtype=int)
        self.state = np.full(self.K, _AT_LOWER, dtype=int)
        self.val = np.zeros(self.K)
        self.enterable = np.ones(self.K, dtype=bool)
        self.iterations = 0

    def set_nonbasic_start(self, j: int) -> None:
        """Park column j at a finite bound (preferring the lower) or free at 0."""
        if np.isfinite(self.lo[j]):
            self.state[j] = _AT_LOWER
            self.val[j] = self.lo[j]
        elif np.isfinite(self.hi[j]):
            self.state[j] = _AT_UPPER
            self.val[j] = self.hi[j]
        else:
            self.state[j] = _FREE
            self.val[j] = 0.0

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
            if t <= _DEGENERATE_STEP:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            self._apply_pivot(j, sigma, t, row)
            self.iterations += 1

    def _entering(self, reduced, bland):
        tol = self.opt_tol
        movable = self.enterable & (self.state != _BASIC) & (self.hi - self.lo > 0)
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
        if span <= t_rows:
            if not np.isfinite(span):
                return (None, None) if not np.isfinite(t_rows) else (t_rows, self._blocking_row(ratios, t_rows))
            return span, None
        if not np.isfinite(t_rows):
            return None, None
        return t_rows, self._blocking_row(ratios, t_rows)

    def _blocking_row(self, ratios, t):
        candidates = np.flatnonzero(ratios <= t + 1e-12)
        return int(candidates[np.argmin(self.basis[candidates])])

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


def _box_only_solve(lp: LinearProgram, n: int) -> LpOutcome:
    """Closed-form optimum when there are no rows: each variable sits at the
    bound its cost prefers."""
    c = lp.objective
    lo = lp.var_bounds[:, 0]
    hi = lp.var_bounds[:, 1]
    x = np.zeros(n)
    for j in range(n):
        if c[j] > 0:
            if not np.isfinite(lo[j]):
                return LpOutcome(LpStatus.UNBOUNDED)
            x[j] = lo[j]
        elif c[j] < 0:
            if not np.isfinite(hi[j]):
                return LpOutcome(LpStatus.UNBOUNDED)
            x[j] = hi[j]
        else:
            x[j] = lo[j] if np.isfinite(lo[j]) else (hi[j] if np.isfinite(hi[j]) else 0.0)
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
        ``feas_tol``; ``INFEASIBLE`` and ``UNBOUNDED`` carry no point.

    Raises
    ------
    LpError
        On iteration exhaustion, singular bases, or a final point that fails
        the feasibility check.  A wrong answer is never returned silently.
    """
    n = lp.num_vars
    lo_s = lp.var_bounds[:, 0].copy()
    hi_s = lp.var_bounds[:, 1].copy()
    if np.any(lo_s > hi_s):
        return LpOutcome(LpStatus.INFEASIBLE)
    if not lp.constraints:
        return _box_only_solve(lp, n)

    # normalize rows: ">=" becomes "<=" by negation; remember equality rows
    m = len(lp.constraints)
    A_rows = np.zeros((m, n))
    b = np.zeros(m)
    is_eq = np.zeros(m, dtype=bool)
    for i, (row, rel, rhs) in enumerate(lp.constraints):
        if rel == ">=":
            A_rows[i] = -row
            b[i] = -rhs
        else:
            A_rows[i] = row
            b[i] = rhs
            is_eq[i] = rel == "="

    ineq_rows = np.flatnonzero(~is_eq)
    n_slack = ineq_rows.size
    K = n + n_slack
    A = np.zeros((m, K))
    A[:, :n] = A_rows
    lo = np.concatenate([lo_s, np.zeros(n_slack)])
    hi = np.concatenate([hi_s, np.full(n_slack, np.inf)])
    for s, i in enumerate(ineq_rows):
        A[i, n + s] = 1.0

    if max_iter is None:
        max_iter = 200 * (m + K) + 1000

    tab = _Tableau(A, b, lo, hi, pivot_tol, feas_tol, opt_tol, max_iter)
    for j in range(n):
        tab.set_nonbasic_start(j)
    residual = b - A_rows @ _crash(tab, A_rows, is_eq)

    # an inequality row starts on its slack when that is feasible; every
    # row still without a basic column gets an artificial
    for s, i in enumerate(ineq_rows):
        if residual[i] >= 0.0:
            tab.basis[i] = n + s
            tab.state[n + s] = _BASIC
            tab.xb[i] = residual[i]
    art_rows = np.flatnonzero(tab.basis < 0)
    art_cols = [np.sign(residual[i]) if residual[i] != 0 else 1.0 for i in art_rows]

    if art_rows.size:
        n_art = len(art_rows)
        A_ext = np.zeros((m, K + n_art))
        A_ext[:, :K] = tab.A
        for k, (i, sgn) in enumerate(zip(art_rows, art_cols)):
            A_ext[i, K + k] = sgn
        tab.A = A_ext
        tab.T = A_ext.copy()
        tab.K = K + n_art
        tab.lo = np.concatenate([lo, np.zeros(n_art)])
        tab.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        tab.val = np.concatenate([tab.val, np.zeros(n_art)])
        tab.state = np.concatenate([tab.state, np.full(n_art, _AT_LOWER, dtype=int)])
        tab.enterable = np.ones(tab.K, dtype=bool)
        for k, i in enumerate(art_rows):
            tab.basis[i] = K + k
            tab.state[K + k] = _BASIC
            tab.xb[i] = abs(residual[i])
        tab.refresh()

        phase1_cost = np.zeros(tab.K)
        phase1_cost[K:] = 1.0
        outcome = tab.run(phase1_cost)
        phase1_value = float(phase1_cost[tab.basis] @ tab.xb)
        if outcome == "unbounded":
            raise LpError("phase 1 reported unbounded; numerical breakdown")
        if phase1_value > feas_tol:
            return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)

        # evict basic artificials where a real pivot column exists; rows with
        # none are linearly dependent and keep a pinned artificial
        for i in range(m):
            col = tab.basis[i]
            if col < K:
                continue
            candidates = [
                j
                for j in range(K)
                if tab.state[j] != _BASIC and abs(tab.T[i, j]) > pivot_tol
            ]
            if candidates:
                tab._apply_pivot(candidates[0], 1.0, 0.0, i)
        tab.lo[K:] = 0.0
        tab.hi[K:] = 0.0
        tab.enterable[K:] = False
        tab.val[K:] = 0.0
    tab.refresh()

    full_cost = np.zeros(tab.K)
    full_cost[:n] = lp.objective
    outcome = tab.run(full_cost)
    if outcome == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED, iterations=tab.iterations)

    tab.refresh()
    x_all = tab.val.copy()
    x_all[tab.basis] = tab.xb
    x = x_all[:n]

    # final guard: never return an OPTIMAL point that is not actually feasible
    if np.any(x < lo_s - feas_tol) or np.any(x > hi_s + feas_tol):
        raise LpError("final point violates variable bounds")
    for i, (row, rel, rhs) in enumerate(lp.constraints):
        lhs = float(row @ x)
        if rel == "<=" and lhs > rhs + feas_tol:
            raise LpError(f"final point violates row {i} by {lhs - rhs:.3e}")
        if rel == ">=" and lhs < rhs - feas_tol:
            raise LpError(f"final point violates row {i} by {rhs - lhs:.3e}")
        if rel == "=" and abs(lhs - rhs) > feas_tol:
            raise LpError(f"final point violates row {i} by {abs(lhs - rhs):.3e}")
    return LpOutcome(LpStatus.OPTIMAL, float(lp.objective @ x), x, tab.iterations)

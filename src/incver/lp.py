"""Dense bounded-variable primal simplex, and a weak-duality bound from a basis.

This module is the only linear-programming code in the package; the analyzer
builds one :class:`LinearProgram` per bounding call and hands it to
:func:`solve`, or, for a region whose carried basis proved it on an earlier
network, first to :func:`dual_bound`.  Problem sizes are desk scale (at
most a few hundred variables and rows), so the implementation favors a
dense tableau, explicit state, and determinism over asymptotic cleverness.

A program is held as arrays: the objective, the variable bounds, an
``(m, n)`` row matrix ``A``, a boolean mask ``eq`` and the right-hand sides
``rhs``.  Row ``i`` reads ``A[i] @ x = rhs[i]`` where ``eq[i]`` is set and
``A[i] @ x <= rhs[i]`` elsewhere.  There is no other row form: a lower
limit on ``a @ x`` is written as the ``<=`` row of ``-a``.  :func:`solve`
reads the arrays as they are; ``constraints`` is a derived
``(row, "=" or "<=", rhs)`` view for readers that want rows one at a time.
The constructor rejects NaN and infinite entries, bounds included, and a
mask that is not boolean, so the solver never sees a program it would
misread.

The solver handles finite variable bounds ``lo <= x <= hi`` and those two
row forms.  Every structural column sits at a finite bound while nonbasic,
and the feasible region is a polytope, so there is no unbounded outcome: a
program is optimal or infeasible.  A program with no rows has no basis, and
phase 2 below moves each column to the bound its cost prefers by bound
flips.  It runs the classic two phases from a crash start basis:

1. Every structural column starts at a bound: its lower one, or its upper
   one where the program's ``at_upper`` mask says so.  Rows claim their
   last nonzero structural column as basic, in order of that column: each
   ``=`` row unless the coefficient is below the pivot tolerance or an
   earlier row took the column, and each inequality row that the point
   substituted so far violates, when the value that makes it tight lies
   within the column's bounds.  These columns form a triangular basis, so
   their values follow by forward substitution from the nonbasic start
   values.  A value within the feasibility tolerance outside its bounds is
   clipped to them, as the rounding it is; an ``=`` row's column whose
   value leaves them by more is parked at the nearer bound instead.  Every
   other inequality row starts on its slack when its residual at the start
   point is at least minus the feasibility tolerance: a row that the point
   misses by rounding only is not a violation for phase 1 to repair, just
   as a head's value is not.  Only the rows left without a basic column
   receive an artificial variable, whose column is ``sign(residual) * e_i``
   with bounds ``[0, inf)``; when there are none, phase 1 is skipped.
   Otherwise phase 1 minimizes the sum of artificials, and a positive
   optimum means the program is infeasible.  Artificials that linger in
   the basis at zero are pivoted out where possible and otherwise pinned
   to ``[0, 0]`` (their row is linearly dependent).
2. Phase 2 minimizes the real objective with artificial columns barred from
   entering, on the tableau that phase 1's row operations left.

``solve`` also takes a ``start``: the final basis of an earlier optimal
solve (``LpOutcome.basis``), typically of the same bounding program on a
slightly changed network.  It is accepted when it has the program's shape,
names no artificial column, keeps every nonbasic column at a finite bound,
its B factorizes, and its basic values lie within the feasibility tolerance
of their bounds; only the basic values are solved for that.  The start is
then priced from its duals (one solve of ``B^T y = c_B``): when no column
can enter, the old basis is still optimal, and its basic values are the
final point, with no tableau built and no pivot.  Otherwise T is built and
phase 2 runs from the start, with no crash and no phase 1.  Any other
start is dropped, and the solve takes the crash path on a fresh tableau,
bit for bit as without a start.  A stale start can cost pivots, never the
answer: phase 2 from a primal-feasible basis ends at an optimum, and the
final point passes the same feasibility guard.

The analyzer orders its variables input, pre, post, output and writes each
``=`` row with its own variable last, and each ambiguous ReLU's rows with
its post column last.  On its programs the crash basis therefore evaluates
the network forward from an input corner, and its mask sets that corner
and each ambiguous unit's side of the triangle relaxation where the
region's propagation bound put them.  A unit whose post starts at its lower
bound, 0, is covered by its ``pre - post <= 0`` row wherever pre is
positive, so post is ``max(pre, 0)``; one whose post starts at its upper
bound is covered by its chord row, so post lies on the chord.  Phase 1 only
repairs the rows that this point really violates, such as a split's sign or
a value that leaves its bounds.

The tableau ``T = Binv A`` is kept dense and updated by row operations at
each pivot.  A cold solve factorizes B at most twice.  The crash basis is
factorized once, before phase 1: only the nonbasic columns are solved, and
the basic columns are set to the exact unit vectors.  Phase 2 continues on
the tableau phase 1 leaves, with no refactorization between the phases.
After phase 2 only the basic values are re-solved, for the final point,
since the tableau is not read again; when no pivot moved them since the
crash factorization, they are already that factorization's solution, and
the re-solve is skipped.  The final feasibility guard checks the point
either way.

At these sizes a pivot costs numpy calls, not flops, so the pivot loop keeps
what it would otherwise rebuild from the column states each time: every
column's move direction (-1 may rise from its lower bound, +1 may fall from
its upper bound, 0 basic or fixed), the bounds of each row's basic column,
and the basic columns' costs.  A pivot updates the entries of the entering
and leaving columns in place.  Pricing is then one product and one argmax,
and the ratio test one ``np.where`` and one masked division; both read the
same numbers as a test built from the states would, so the pivots and the
bits are the same.

Entering variables are chosen by the Dantzig rule (largest reduced cost in
the direction a column may move); after a run of degenerate pivots the rule
switches to Bland's rule (lowest eligible index) until progress resumes,
which prevents cycling.  All tie-breaks are by lowest index, so identical
inputs produce identical pivot sequences, outcomes, and points.

:func:`dual_bound` reads a basis without solving: one solve of
``B^T y = c_B`` gives duals y, and weak duality turns any y whose ``<=``
entries are at most 0 into a lower bound on the optimum, less an a-priori
bound on the rounding of its own evaluation.  No feasibility tolerance
enters it, and the basis need not be primal feasible on the program, so a
carried basis that :func:`solve` would drop can still prove its region.

Numerical failure (iteration cap, singular basis, a NaN reduced cost or
basic value, an entering column that no row blocks, a final solution that
does not verify feasible) raises :class:`LpError`; the solver never returns
a wrong ``OPTIMAL`` silently.  A solve given a ``deadline`` that is still
pivoting past it raises :class:`LpTimeout`, an :class:`LpError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "LinearProgram",
    "LpBasis",
    "LpError",
    "LpOutcome",
    "LpStatus",
    "LpTimeout",
    "dual_bound",
    "solve",
]


class LpError(RuntimeError):
    """Numerical breakdown or iteration exhaustion inside the solver."""


class LpTimeout(LpError):
    """The solve ran past its deadline before it reached an optimum."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize ``objective @ x`` subject to ``=`` and ``<=`` rows and variable bounds.

    Parameters
    ----------
    objective : (n,) array
        Cost vector; the solver minimizes.
    var_bounds : (n, 2) array
        Per-variable ``[lo, hi]``, both finite.
    A : (m, n) array, optional
        Row coefficients.  Omitted for a pure box problem (``m = 0``).
    eq : (m,) bool array, optional
        True for an ``=`` row, False for a ``<=`` row.
    rhs : (m,) array
        Each row's right-hand side.
    at_upper : (n,) bool array, optional
        True for a variable whose cold start is its upper bound instead of
        its lower one (see :func:`solve`); all False when omitted.  It names
        a start point, not a constraint: the program's optimum is the same
        for every mask.

    Raises ValueError on a shape mismatch, a mask that is not boolean, or a
    NaN or infinite coefficient or bound.
    """

    objective: np.ndarray
    var_bounds: np.ndarray
    A: np.ndarray
    eq: np.ndarray
    rhs: np.ndarray
    at_upper: np.ndarray

    def __init__(self, objective, var_bounds, A=None, eq=None, rhs=(), at_upper=None):
        c = np.asarray(objective, dtype=float)
        vb = np.asarray(var_bounds, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a non-empty 1-d vector")
        if vb.shape != (c.size, 2):
            raise ValueError(
                f"var_bounds must have shape ({c.size}, 2), got {vb.shape}"
            )
        rhs = np.asarray(rhs, dtype=float)
        eq = np.zeros(0, dtype=bool) if eq is None else np.asarray(eq)
        A = np.zeros((0, c.size)) if A is None else np.asarray(A, dtype=float)
        if rhs.ndim != 1 or eq.shape != rhs.shape or A.shape != (rhs.size, c.size):
            raise ValueError(
                f"A, eq and rhs must have shapes (m, {c.size}), (m,) and (m,); "
                f"got {A.shape}, {eq.shape} and {rhs.shape}"
            )
        up = np.zeros(c.size, dtype=bool) if at_upper is None else np.asarray(at_upper)
        if up.shape != c.shape:
            raise ValueError(f"at_upper must have shape ({c.size},), got {up.shape}")
        for name, mask in (("eq", eq), ("at_upper", up)):
            if mask.dtype != bool:  # numpy would read any nonempty string as True
                raise ValueError(f"{name} must be a boolean mask, got dtype {mask.dtype}")
        for name, arr in (("objective", c), ("var_bounds", vb), ("A", A), ("rhs", rhs)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a NaN or infinite entry")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "var_bounds", vb)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "eq", eq)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "at_upper", up)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def constraints(self) -> tuple:
        """The rows as ``(row, "=" or "<=", rhs)`` triples, read from the arrays on each access."""
        return tuple(zip(self.A, np.where(self.eq, "=", "<=").tolist(), self.rhs.tolist()))


class LpBasis(NamedTuple):
    """A simplex basis over the structural and slack columns of a program.

    ``basic`` holds the basic column of each row; ``state`` holds each
    column's state (at its lower bound, at its upper bound, or basic).  The
    columns are the program's variables, then one slack per ``<=`` row in
    row order.  :func:`solve` returns the final basis on an optimal
    outcome and accepts one as ``start``.
    """

    basic: np.ndarray
    state: np.ndarray


@dataclass(frozen=True)
class LpOutcome:
    """Result of :func:`solve`.

    ``value`` and ``point`` are populated only for ``OPTIMAL``; ``point`` is
    the argmin restricted to the program's own variables.  ``iterations``
    counts the pivots applied in phases 1 and 2, bound flips included, so on
    a program with no rows it counts the bound flips; it is 0 when crossed
    variable bounds make the program infeasible before the simplex starts.
    ``basis`` is the final basis of an ``OPTIMAL`` outcome, or None when an
    artificial column is still basic (a linearly dependent row) and for
    ``INFEASIBLE``.  ``warm`` says whether the solve started from the given
    ``start`` instead of the crash basis.  ``phase1`` counts the pivots of
    ``iterations`` that phase 1 applied: 0 when the crash basis covers
    every row, and for a warm start.  ``factorizations`` counts the
    factorizations of a basis matrix: each refactorization of the
    tableau or of the basic values alone, and the dual solve that prices a
    warm start.  A cold solve makes one for its crash basis and, when any
    pivot moved the point, one for its final point; a warm one makes two
    when its start prices optimal and four otherwise, and a start that
    does not fit adds the one its check made, if it got that far.
    """

    status: LpStatus
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    iterations: int = 0
    basis: Optional[LpBasis] = None
    warm: bool = False
    phase1: int = 0
    factorizations: int = 0


# ---------------------------------------------------------------------------
# internal state codes for each column
_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
# the move of a nonbasic column in each state, as _Tableau.direction holds it
_DIRECTION = np.array([-1.0, 1.0, 0.0])

# pivot-element, feasibility and reduced-cost tolerances
_PIVOT_TOL, _FEAS_TOL, _OPT_TOL = 1e-9, 1e-7, 1e-9
_DEGENERATE_STEP = 1e-11
_BLAND_TRIGGER = 50
# the unit roundoff of a float64, u = 2**-53
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class _Tableau:
    """Mutable simplex state over the extended column set.

    Columns are ordered: structural variables, slacks for inequality rows,
    then any artificials.  ``T`` is first set by :meth:`refresh`, which
    runs once before the first phase; from then on ``T`` equals
    ``Binv @ A`` for the current basis, up to the drift of the row
    operations, with its basic columns the unit vectors; ``xb`` holds basic
    variable values; ``val`` holds the fixed value of every nonbasic
    column.  ``factorizations`` counts the factorizations of B, and
    ``fresh`` says whether ``xb`` is still the last refresh's own solution,
    with no pivot applied since.

    Three derived arrays are set by :meth:`set_directions` when a phase
    starts and kept by each pivot, so a pivot reads them instead of
    rebuilding them from ``state`` and the bounds.  ``direction`` holds
    each column's move: -1 for a column at its lower bound that may rise,
    +1 for one at its upper bound that may fall, 0 for a basic or fixed
    column; a column can enter when ``direction * reduced`` exceeds the
    optimality tolerance.  ``blo`` and ``bhi`` hold the bounds of each
    row's basic column.  A pivot writes the entering column's direction 0
    and its bounds into its row, and the leaving column's direction for the
    bound it leaves at; a bound flip reverses the flipped column's
    direction.  :meth:`run` keeps the basic columns' costs the same way.
    """

    def __init__(self, A, b, lo, hi, max_iter, deadline=None):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.max_iter = max_iter
        self.deadline = deadline
        self.m, self.K = A.shape
        self.xb = np.zeros(self.m)
        self.basis = np.full(self.m, -1, dtype=int)
        self.state = np.full(self.K, _AT_LOWER, dtype=int)
        self.val = np.zeros(self.K)
        self.iterations = 0
        self.phase1 = 0
        self.factorizations = 0
        self.fresh = False

    def refresh(self, tableau: bool = True) -> None:
        """Refactorize: recompute the basic values, and T = Binv A, from the basis.

        B is factorized once, and the basic values and the nonbasic columns
        of T are solved as one right-hand side; the basic columns of T are
        the unit vectors, written exactly.  With ``tableau=False`` only the
        basic values are solved and T is left as it is.  Used once for the
        start basis, and for the final point.
        """
        B = self.A[:, self.basis]
        nonbasic = (self.state != _BASIC).nonzero()[0]
        N = self.A[:, nonbasic]
        rhs = self.b - N @ self.val[nonbasic]
        self.factorizations += 1
        try:
            sol = np.linalg.solve(B, np.column_stack([rhs, N]) if tableau else rhs)
        except np.linalg.LinAlgError as exc:
            raise LpError("singular basis during refactorization") from exc
        self.fresh = True
        if not tableau:
            self.xb = sol
            return
        self.xb = sol[:, 0]
        self.T = np.zeros((self.m, self.K))
        self.T[:, nonbasic] = sol[:, 1:]
        self.T[np.arange(self.m), self.basis] = 1.0

    def set_directions(self) -> None:
        """Set ``direction``, ``blo`` and ``bhi`` from the states, basis and bounds."""
        self.direction = _DIRECTION[self.state]
        self.direction *= self.hi - self.lo > 0  # bounds stay fixed within a phase
        self.blo = self.lo[self.basis]
        self.bhi = self.hi[self.basis]

    def run(self, cost: np.ndarray) -> None:
        """Pivot until optimal for the given cost vector."""
        self.set_directions()
        cost_b = cost[self.basis]  # the basic columns' costs, kept by each pivot
        bland = False
        degenerate_run = 0
        while True:
            j = self._entering(cost - cost_b @ self.T, bland)
            if j is None:
                return
            sigma = -float(self.direction[j])
            delta = sigma * self.T[:, j]
            t, row = self._ratio_test(j, delta)
            if self.iterations >= self.max_iter:
                raise LpError(
                    f"iteration limit {self.max_iter} exceeded; possible cycling"
                )
            if self.deadline is not None and perf_counter() > self.deadline:
                raise LpTimeout(f"deadline passed after {self.iterations} pivots")
            # Bland's rule from the _BLAND_TRIGGER-th degenerate pivot in a row
            degenerate_run = degenerate_run + 1 if t <= _DEGENERATE_STEP else 0
            bland = degenerate_run >= _BLAND_TRIGGER
            self._apply_pivot(j, sigma, t, row, delta)
            if row is not None:
                cost_b[row] = cost[j]
            self.iterations += 1

    def _entering(self, reduced, bland):
        """The entering column for these reduced costs, or None when none can enter.

        Dantzig's rule takes the largest ``direction * reduced``, which is
        the largest ``|reduced|`` over the columns that can enter; Bland's
        takes the lowest-indexed column that can enter.  Ties go to the
        lowest index.  A NaN reduced cost is numerical breakdown and raises
        :class:`LpError` instead of reading as "cannot enter".
        """
        score = self.direction * reduced
        j = int(score.argmax())  # the first NaN, if there is one
        best = score[j]
        if best != best:
            raise LpError(f"reduced cost of column {j} is NaN; numerical breakdown")
        if not best > _OPT_TOL:
            return None
        if bland:
            j = int((score > _OPT_TOL).argmax())
        return j

    def _ratio_test(self, j, delta):
        """Largest step t >= 0 keeping every basic variable inside its bounds.

        ``delta`` is the rate at which each basic value falls as the
        entering column ``j`` moves.  Returns (t, blocking_row) where
        blocking_row is None for a bound flip of the entering variable
        itself.  A row whose basic value falls toward its lower bound
        divides ``xb - blo`` by ``delta``, one that rises toward its upper
        bound divides ``bhi - xb`` by ``-delta``; both are ``|delta|``.
        Ratios are clamped at zero so a basic variable already resting on a
        bound blocks immediately instead of producing a negative step.  Ties
        within 1e-12 of the minimum go to the lowest basic column.  A step
        that nothing limits, or a NaN ratio, is numerical breakdown on a
        bounded program, and raises :class:`LpError`.
        """
        room = np.where(delta > 0.0, self.xb - self.blo, self.bhi - self.xb)
        size = np.abs(delta)
        ratios = np.divide(room, size, out=np.full(self.m, np.inf), where=size > _PIVOT_TOL)
        np.maximum(ratios, 0.0, out=ratios)
        t_rows = ratios.min(initial=np.inf)
        if t_rows != t_rows:
            raise LpError("a basic value is NaN; numerical breakdown")
        span = self.hi[j] - self.lo[j]
        if span <= t_rows:
            if not np.isfinite(span):  # a slack or artificial column that no row blocks
                raise LpError("no row blocks the entering column; numerical breakdown")
            return span, None
        return t_rows, int(np.where(ratios <= t_rows + 1e-12, self.basis, self.K).argmin())

    def _apply_pivot(self, j, sigma, t, row, delta):
        """Move column ``j`` by ``sigma * t``: a bound flip, or a basis change at ``row``.

        ``delta`` is ``sigma * T[:, j]``, as :meth:`_ratio_test` read it.
        """
        self.fresh = False
        self.xb -= t * delta
        if row is None:
            # bound flip: j moves to its opposite bound, basis unchanged
            self.val[j] = self.hi[j] if sigma > 0 else self.lo[j]
            self.state[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
            self.direction[j] = sigma
            return
        new_val = self.val[j] + sigma * t
        leaving = self.basis[row]
        lo, hi = self.lo[leaving], self.hi[leaving]
        if delta[row] > 0:
            self.state[leaving] = _AT_LOWER
            self.val[leaving] = lo
            self.direction[leaving] = -1.0 if hi - lo > 0 else 0.0
        else:
            self.state[leaving] = _AT_UPPER
            self.val[leaving] = hi
            self.direction[leaving] = 1.0 if hi - lo > 0 else 0.0
        piv = self.T[row, j]
        if abs(piv) <= _PIVOT_TOL:
            raise LpError("pivot element vanished; numerical breakdown")
        self.T[row] /= piv
        factors = self.T[:, j].copy()
        factors[row] = 0.0
        self.T -= np.multiply.outer(factors, self.T[row])
        self.basis[row] = j
        self.state[j] = _BASIC
        self.direction[j] = 0.0
        self.blo[row] = self.lo[j]
        self.bhi[row] = self.hi[j]
        self.xb[row] = new_val


def _crash(tab: _Tableau, lp: LinearProgram) -> np.ndarray:
    """Triangular crash start: rows claim their last nonzero structural column.

    A row's head is its last nonzero structural column.  Rows are visited in
    order of their heads; among rows sharing a head, "=" rows come first,
    then row order.  The first row to claim a head takes it:

    * an "=" row always claims its head, unless the head coefficient is
      below the pivot tolerance (such a row is never visited).  When the
      head's substituted value leaves its bounds by more than the
      feasibility tolerance, the column is parked, nonbasic, at the nearer
      bound, and the row stays without a basic column;
    * an inequality row claims its head only when the point substituted so
      far violates the row and the value that makes the row tight lies
      within the feasibility tolerance of the head's bounds.  Its slack
      stays nonbasic at 0.  A head that starts at its lower bound can only
      meet both under a negative coefficient, and one that starts at its
      upper bound (``lp.at_upper``) only under a positive one; only rows
      whose head coefficient has that sign, beyond the pivot tolerance, are
      visited.  The row is then violated exactly when the tight value lies
      above the lower bound, or below the upper one.

    A basic head takes its substituted value clipped to its bounds: a value
    that crosses a bound by a rounding error is not a violation for phase 1
    to repair.  Every other nonzero of a claiming row lies in a lower
    column, so taking the claimed columns in increasing order is a forward
    substitution of a triangular basis from the nonbasic start values.
    Returns the start point over the structural columns.
    """
    A_rows, is_eq = lp.A, lp.eq
    m, n = A_rows.shape
    last = n - 1 - np.argmax(A_rows[:, ::-1] != 0, axis=1)  # n - 1, with coefficient 0, on a zero row
    coef = A_rows[np.arange(m), last]
    up = lp.at_upper[last]
    facing = np.where(is_eq, np.abs(coef), np.where(up, coef, -coef))  # the coefficient a visit needs
    rows = np.flatnonzero(facing > _PIVOT_TOL)
    rows = rows[np.lexsort((~is_eq[rows], last[rows]))]  # stable: row order within ties
    heads = last[rows]
    below = A_rows[rows]  # each row without its head: its product with x reads the lower columns
    below[np.arange(rows.size), heads] = 0.0
    x = tab.val[:n].copy()
    b, lo, hi = tab.b.tolist(), tab.lo.tolist(), tab.hi.tolist()
    basic, parked = [], []  # (row, column, value) and (column, state, value)
    claimed = -1  # the head of the rows being visited, once a row has claimed it
    visits = zip(
        rows.tolist(), heads.tolist(), coef[rows].tolist(), is_eq[rows].tolist(), up[rows].tolist(), below
    )
    for i, j, c, eq, at_u, row in visits:
        if j == claimed:
            continue
        v = (b[i] - float(row.dot(x))) / c
        l, u = lo[j], hi[j]
        near = l - _FEAS_TOL <= v <= u + _FEAS_TOL
        if not (eq or (near and (v < u if at_u else v > l))):  # violated at the head's start
            continue
        claimed = j
        x[j] = w = v if l <= v <= u else (l if v < l else u)
        if near:
            basic.append((i, j, w))
        else:
            parked.append((j, _AT_LOWER if v < l else _AT_UPPER, w))
    # the marks are written at once; the loop reads only x and the bounds
    if basic:
        i, j, v = map(list, zip(*basic))
        tab.basis[i], tab.state[j], tab.xb[i] = j, _BASIC, v
    if parked:
        j, state, v = map(list, zip(*parked))
        tab.state[j], tab.val[j] = state, v
    return x


def _warm_start(tab: _Tableau, start: LpBasis) -> bool:
    """Set ``tab`` up on a carried basis; False when the start does not fit.

    The start fits when it has the tableau's shape, its basic columns are
    distinct structural or slack columns and exactly the columns its states
    mark basic, every nonbasic column sits at a finite bound, B factorizes,
    and the basic values lie within the feasibility tolerance of their
    bounds.  A fitting start leaves ``tab`` with its basic values solved,
    its directions set and T not built; one that does not fit may leave
    ``tab`` half set up.
    """
    basic, state = start
    if basic.shape != (tab.m,) or state.shape != (tab.K,):
        return False
    if not (state.min() >= _AT_LOWER and state.max() <= _BASIC):
        return False
    # distinct, in range, and marked basic: an artificial has no column here
    marked = (state == _BASIC).nonzero()[0]
    if marked.size != tab.m or not (marked == np.sort(basic)).all():
        return False
    at_upper = state == _AT_UPPER
    if not np.isfinite(tab.hi[at_upper]).all():  # a slack has no finite upper bound
        return False
    tab.basis = basic.copy()
    tab.state = state.copy()
    tab.val = np.where(at_upper, tab.hi, tab.lo)
    try:
        tab.refresh(tableau=False)
    except LpError:
        return False
    tab.set_directions()
    return bool(((tab.xb >= tab.blo - _FEAS_TOL) & (tab.xb <= tab.bhi + _FEAS_TOL)).all())


def _priced_optimal(tab: _Tableau, cost: np.ndarray) -> bool:
    """Whether no column can enter the tableau's basis, priced from the duals.

    One solve of ``B^T y = c_B`` gives the reduced costs ``c - y^T A`` of
    every column, read by the same entering test as phase 2, with the
    directions :func:`_warm_start` set; T is not needed.  A basis whose
    transpose does not factorize, or whose prices have a NaN, is not known
    to be optimal.
    """
    tab.factorizations += 1
    try:
        y = np.linalg.solve(tab.A[:, tab.basis].T, cost[tab.basis])
    except np.linalg.LinAlgError:
        return False
    try:
        return tab._entering(cost - y @ tab.A, False) is None
    except LpError:
        return False


def _cold_start(tab: _Tableau, lp: LinearProgram) -> bool:
    """Crash basis, then phase 1 for the rows it leaves uncovered.

    Structural columns start at the bound ``lp.at_upper`` names, slacks at
    0.  The start basis is factorized once; phase 1 then updates that
    tableau by row operations alone.  Leaves ``tab`` on a basis of the
    structural and slack columns that is feasible within the feasibility
    tolerance, apart from artificials pinned to zero on dependent rows, and
    returns True; returns False when phase 1 proves the program infeasible.
    """
    n = lp.num_vars
    K, m = tab.K, tab.m
    ineq_rows = np.flatnonzero(~lp.eq)
    slack_cols = n + np.arange(ineq_rows.size)
    up = lp.at_upper
    tab.state[:n] = np.where(up, _AT_UPPER, _AT_LOWER)
    tab.val[:n] = np.where(up, tab.hi[:n], tab.lo[:n])
    residual = tab.b - lp.A @ _crash(tab, lp)

    # an inequality row the crash left uncovered starts on its slack when
    # that is feasible within the tolerance; every row still without a
    # basic column gets an artificial
    on_slack = (residual[ineq_rows] >= -_FEAS_TOL) & (tab.basis[ineq_rows] < 0)
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
        tab.lo = np.concatenate([tab.lo, np.zeros(n_art)])
        tab.hi = np.concatenate([tab.hi, np.full(n_art, np.inf)])
        tab.val = np.concatenate([tab.val, np.zeros(n_art)])
        tab.state = np.concatenate([tab.state, np.full(n_art, _AT_LOWER, dtype=int)])
        tab.basis[art_rows], tab.state[art_cols] = art_cols, _BASIC
    tab.refresh()
    if not art_rows.size:
        return True

    phase1_cost = np.zeros(tab.K)
    phase1_cost[K:] = 1.0
    tab.run(phase1_cost)
    tab.phase1 = tab.iterations
    if float(phase1_cost[tab.basis] @ tab.xb) > _FEAS_TOL:
        return False

    # evict basic artificials where a real pivot column exists; rows with
    # none are linearly dependent and keep a pinned artificial
    for i in np.flatnonzero(tab.basis >= K):
        candidates = np.flatnonzero(
            (tab.state[:K] != _BASIC) & (np.abs(tab.T[i, :K]) > _PIVOT_TOL)
        )
        if candidates.size:
            j = int(candidates[0])
            tab._apply_pivot(j, 1.0, 0.0, i, tab.T[:, j])
    # pinned to [0, 0], an artificial never enters again: phase 2 sets its
    # direction to 0, and reads T as phase 1's row operations left it
    tab.lo[K:] = 0.0
    tab.hi[K:] = 0.0
    tab.val[K:] = 0.0
    return True


def _slacked(lp: LinearProgram) -> np.ndarray:
    """The program's rows over its columns and one slack column per ``<=`` row, in row order."""
    ineq_rows = np.flatnonzero(~lp.eq)
    n = lp.num_vars
    A = np.zeros((lp.rhs.size, n + ineq_rows.size))
    A[:, :n] = lp.A
    A[ineq_rows, n + np.arange(ineq_rows.size)] = 1.0
    return A


def solve(
    lp: LinearProgram,
    *,
    start: Optional[LpBasis] = None,
    deadline: Optional[float] = None,
) -> LpOutcome:
    """Solve a linear program whose variable bounds are all finite.

    Every ``<=`` row gets a slack column, in row order; the program's own
    arrays are read, never written.  Without a usable ``start``, structural
    variables start at the bounds ``lp.at_upper`` names, the start basis is
    the crash basis described in the module docstring (``=`` rows, and the
    ``<=`` rows that the start point violates, on their last columns; the
    other ``<=`` rows on their slacks), and phase 1 runs only for the rows
    it leaves without a basic column feasible within the tolerance.  A
    cold solve factorizes B once for the crash basis and once more for the
    final point, which it skips when the crash basis needs no pivot.  A
    program with no rows goes the same way; its ``iterations`` count the
    bound flips.  Both phases together may apply
    ``200 * (rows + columns) + 1000`` pivots, slacks counted as columns;
    one more raises :class:`LpError`.

    Parameters
    ----------
    lp : LinearProgram
        The program to minimize.
    start : LpBasis, optional
        A basis to run phase 2 from, usually ``basis`` of an earlier outcome
        on a program with the same rows and columns.  It is used only when it
        fits (see the module docstring; the outcome's ``warm`` says so) and
        is otherwise ignored: the solve is then the one without a start, bit
        for bit.
    deadline : float, optional
        A ``time.perf_counter()`` reading; each pivot checks it first, and a
        solve still pivoting past it raises :class:`LpTimeout`.  A solve
        that needs no pivot never reads it.

    Returns
    -------
    LpOutcome
        ``OPTIMAL`` carries the minimum value, an argmin point whose basic
        values have been solved from a factorization of the final basis and
        that is verified feasible within the feasibility tolerance by one
        residual ``A @ x - rhs`` over all rows, where a NaN counts as a
        violation, and that final basis;
        ``INFEASIBLE`` carries no point and no basis.  There is no unbounded
        outcome.

    Raises
    ------
    LpError
        On iteration exhaustion, singular bases, a NaN reduced cost or basic
        value, an entering column that no row blocks, or a final point that
        fails the feasibility check.  A wrong answer is never returned
        silently.
    LpTimeout
        (an :class:`LpError`) when a pivot finds the ``deadline`` passed.
    """
    n = lp.num_vars
    m = lp.rhs.size
    lo_s, hi_s = lp.var_bounds.T
    if (lo_s > hi_s).any():
        return LpOutcome(LpStatus.INFEASIBLE)

    A = _slacked(lp)
    K = A.shape[1]
    n_slack = K - n
    lo = np.concatenate([lo_s, np.zeros(n_slack)])
    hi = np.concatenate([hi_s, np.full(n_slack, np.inf)])
    max_iter = 200 * (m + K) + 1000

    tab = _Tableau(A, lp.rhs, lo, hi, max_iter, deadline)
    warm = start is not None and _warm_start(tab, start)
    if not warm:
        if start is not None:
            spent = tab.factorizations
            tab = _Tableau(A, lp.rhs, lo, hi, max_iter, deadline)  # the rejected start's marks go
            tab.factorizations = spent
        if not _cold_start(tab, lp):
            return LpOutcome(
                LpStatus.INFEASIBLE, iterations=tab.iterations, phase1=tab.phase1,
                factorizations=tab.factorizations,
            )

    full_cost = np.zeros(tab.K)
    full_cost[:n] = lp.objective
    if not (warm and _priced_optimal(tab, full_cost)):
        if warm:
            tab.refresh()  # the start's basic values are known; phase 2 needs T
        tab.run(full_cost)
        if warm or not tab.fresh:
            tab.refresh(tableau=False)  # T is not read again
    # tab is not read again: its arrays become the outcome's
    tab.val[tab.basis] = tab.xb
    x = tab.val[:n]

    # final guard: never return an OPTIMAL point that is not actually feasible;
    # the point's basic values were solved from a factorization of the final
    # basis, and the comparisons are written so that a NaN counts as a violation
    if not ((x >= lo_s - _FEAS_TOL) & (x <= hi_s + _FEAS_TOL)).all():
        raise LpError("final point violates variable bounds")
    residual = lp.A @ x - lp.rhs
    violation = np.where(lp.eq, np.abs(residual), residual)
    if not violation.max(initial=-np.inf) <= _FEAS_TOL:
        i = int(np.argmax(~(violation <= _FEAS_TOL)))
        raise LpError(f"final point violates row {i} by {violation[i]:.3e}")
    basis = None
    if not (tab.basis >= K).any():  # an artificial left basic has no column in a start
        basis = LpBasis(tab.basis, tab.state[:K])
    return LpOutcome(
        LpStatus.OPTIMAL, float(lp.objective @ x), x, tab.iterations, basis, warm, tab.phase1,
        tab.factorizations,
    )


def dual_bound(lp: LinearProgram, basis: LpBasis) -> Optional[float]:
    """A lower bound on the program's optimum from the duals of ``basis``, with no pivot.

    ``basis`` names a basis over the program's columns and slacks, as
    :func:`solve` returns one; it need not be primal feasible, or optimal,
    on this program.  Its duals y solve ``B^T y = c_B`` once, where B holds
    the basic structural columns of ``A`` and the unit columns of the
    basic slacks.  Each ``<=`` row's y is clipped to at most 0.  For any
    such y, and every feasible x, ``c @ x >= y @ b + d @ x`` with
    ``d = c - A^T y``, so the optimum is at least

        y @ b + sum_j min(d_j * lo_j, d_j * hi_j)

    (weak duality; Neumaier & Shcherbina, Math. Programming 99, 2004).  No
    feasibility tolerance enters it.  When the basis is optimal, the bound
    is the optimum up to rounding; when it is dual feasible, it is the
    objective of the basis's own point.

    The returned bound subtracts an a-priori bound on the rounding error of
    its own evaluation (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3): ``gamma_k * (|y| @ |b| + (|c| + |A|^T |y| + |d|) @
    max(|lo|, |hi|))``, where ``gamma_k = k u / (1 - k u)``, ``u`` is the
    unit roundoff and k is twice the ``rows + columns + 2`` roundings of
    the longest chain, which also covers the rounding of the allowance
    itself and of the final subtraction.  The bound is therefore a lower
    bound on the exact optimum of the program as stored.

    Returns None when the basis does not have the program's shape or names
    a column it lacks, when B is singular, when bounds cross (the program
    is infeasible; :func:`solve` says so), or when the bound is NaN or
    infinite.
    """
    n, m = lp.num_vars, lp.rhs.size
    A = _slacked(lp)
    K = A.shape[1]
    basic, state = basis
    if basic.shape != (m,) or state.shape != (K,) or (m and not 0 <= basic.min() <= basic.max() < K):
        return None
    lo, hi = lp.var_bounds.T
    if (lo > hi).any():
        return None
    cost = np.zeros(K)
    cost[:n] = lp.objective
    try:
        y = np.linalg.solve(A[:, basic].T, cost[basic])
    except np.linalg.LinAlgError:
        return None
    y = np.where(lp.eq, y, np.minimum(y, 0.0))
    d = lp.objective - y @ lp.A
    value = y @ lp.rhs + d @ np.where(d >= 0.0, lo, hi)  # each term is min(d_j * lo_j, d_j * hi_j)
    k = 2 * (m + n + 2)
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    abs_y = np.abs(y)
    scale = np.abs(lp.objective) + abs_y @ np.abs(lp.A) + np.abs(d)
    rounding = gamma * (abs_y @ np.abs(lp.rhs) + scale @ np.abs(lp.var_bounds).max(axis=1))
    bound = float(value - rounding)
    return bound if math.isfinite(bound) else None

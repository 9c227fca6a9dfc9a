"""Brute-force LP oracle and random LP generation shared by test modules.

The oracle enumerates candidate active sets (k constraint rows treated as
equalities plus n-k variables fixed at a box bound), solves each square
system, filters by feasibility, and takes the best objective.  It requires
every variable box to be bounded, which the generators guarantee; under that
assumption the feasible region is a polytope, so if it is nonempty the
minimum is attained at one of the enumerated points.

The generators write rows with the relations "<=", "=" and ">=";
:func:`program` turns them into the solver's ``=`` and ``<=`` rows.
"""

import itertools

import numpy as np

from incver.lp import LinearProgram


def program(objective, var_bounds, rows, rels, rhs) -> LinearProgram:
    """The program of rows with relations "<=", "=" or ">=": each ">=" row negated into "<="."""
    rows, rhs = np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float)
    rels = np.asarray(rels, dtype=str)
    ge = rels == ">="
    return LinearProgram(
        objective, var_bounds, np.where(ge[:, None], -rows, rows), rels == "=", np.where(ge, -rhs, rhs)
    )


def vertex_minimum(lp: LinearProgram, feas_tol: float = 1e-8):
    """Return ("optimal", value) or ("infeasible", None) by enumeration."""
    c = lp.objective
    n = c.size
    lo = lp.var_bounds[:, 0]
    hi = lp.var_bounds[:, 1]
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), "oracle needs a bounded box"
    rows, rhs = lp.A, lp.rhs
    m = rhs.size

    mats = []
    vecs = []
    for k in range(0, min(n, m) + 1):
        for row_combo in itertools.combinations(range(m), k):
            top = rows[list(row_combo)]
            top_rhs = rhs[list(row_combo)]
            for var_combo in itertools.combinations(range(n), n - k):
                for sides in itertools.product((0, 1), repeat=n - k):
                    mat = np.zeros((n, n))
                    vec = np.zeros(n)
                    mat[:k] = top
                    vec[:k] = top_rhs
                    for t, (j, side) in enumerate(zip(var_combo, sides)):
                        mat[k + t, j] = 1.0
                        vec[k + t] = hi[j] if side else lo[j]
                    mats.append(mat)
                    vecs.append(vec)
    mats = np.array(mats)
    vecs = np.array(vecs)
    dets = np.linalg.det(mats)
    keep = np.abs(dets) > 1e-12
    if not keep.any():
        return "infeasible", None
    points = np.linalg.solve(mats[keep], vecs[keep][..., None])[..., 0]

    ok = np.all(points >= lo - feas_tol, axis=1) & np.all(points <= hi + feas_tol, axis=1)
    if m:
        gap = points @ rows.T - rhs
        ok &= np.all(np.where(lp.eq, np.abs(gap), gap) <= feas_tol, axis=1)
    if not ok.any():
        return "infeasible", None
    return "optimal", float(np.min(points[ok] @ c))


def random_lp(rng, n_max=5, m_max=8, family="feasible") -> LinearProgram:
    """Random LP over a bounded box: :func:`random_rows`' program."""
    return program(*random_rows(rng, n_max, m_max, family))


def random_rows(rng, n_max=5, m_max=8, family="feasible"):
    """Random LP over a bounded box, in relation form.

    Returns ``(objective, var_bounds, rows, rels, rhs)``, every entry but
    ``rels`` an array, for :func:`program`.  Families: "feasible" keeps a
    sampled interior point feasible for every row, "loose" draws right-hand
    sides freely (either status can result), "infeasible" adds a
    contradictory pair of rows, "chain" builds the staircase of "=" rows,
    and the inequalities ending on their own columns, that the solver's
    crash basis starts from (see :func:`_chain_rows`).
    """
    n = int(rng.integers(3 if family == "chain" else 1, n_max + 1))
    lo = rng.uniform(-3.0, 0.0, n)
    hi = lo + rng.uniform(0.2, 4.0, n)
    c = rng.normal(size=n)
    bounds = np.column_stack([lo, hi])
    if family == "chain":
        rows, rels, rhs = _chain_rows(rng, lo, hi, rng.uniform(lo, hi), m_max)
        return c, bounds, np.array(rows), rels, np.array(rhs)
    m = int(rng.integers(0, m_max + 1))
    x0 = rng.uniform(lo, hi)
    rows, rels, rhs = [], [], []
    for _ in range(m):
        a = rng.normal(size=n)
        rel = rng.choice(["<=", ">=", "="]) if family == "feasible" else rng.choice(["<=", ">="])
        at = float(a @ x0)
        if family == "feasible":
            margin = float(rng.uniform(0.0, 1.0))
            if rel == "<=":
                at += margin
            elif rel == ">=":
                at -= margin
        else:
            at = float(rng.uniform(-2.0, 2.0))
        rows.append(a)
        rels.append(str(rel))
        rhs.append(at)
    if family == "infeasible":
        a = rng.normal(size=n)
        t = float(a @ x0)
        rows += [a, a]
        rels += ["<=", ">="]
        rhs += [t, t + 1.0 + float(rng.uniform(0, 1))]
    return c, bounds, np.reshape(rows, (len(rows), n)), rels, np.array(rhs, dtype=float)


def _chain_rows(rng, lo, hi, x0, m_max):
    """Sparse "=" rows ending in distinct last columns, odd rows and inequalities.

    Each chain row's last nonzero (its head) is a small coefficient, so the
    head's value substituted from the other columns often leaves its box.
    One extra "=" row ends in the first chain row's head (a shared head),
    and one ends in a coefficient below the solver's pivot tolerance.  An
    inequality ends in a chain head too, which the "=" row claims first.
    Two ">=" rows end in a column of their own, which no "=" row ends in,
    over free columns below it (no chain head, so the crash leaves them at
    their lower bounds): both are violated at that corner, one is tight
    within its column's bounds and the other only beyond its upper bound.
    Every row holds at the sampled point ``x0`` of the box, so the program
    is feasible.  Returns the rows, their relations and right-hand sides.
    """
    n = lo.size
    k = int(rng.integers(1, min(n - 2, max(m_max - 2, 1)) + 1))
    heads = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
    own = int(rng.choice(np.setdiff1d(np.arange(1, n), heads)))
    free = np.setdiff1d(np.arange(own), heads)  # column 0 at least

    def row(last, coef):
        a = np.zeros(n)
        a[:last] = rng.normal(size=last) * (rng.random(last) < 0.7)
        a[last] = coef
        return a

    eqs = [row(h, rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)) for h in heads]
    eqs.append(row(heads[0], rng.normal()))
    eqs.append(row(int(rng.integers(1, n)), 1e-12))
    rows = [(a, "=", float(a @ x0)) for a in eqs]
    a = row(int(rng.choice(heads)), rng.normal())
    margin = float(rng.uniform(0.0, 1.0))
    rows += [(a, "<=", float(a @ x0) + margin)] if rng.random() < 0.5 else [(a, ">=", float(a @ x0) - margin)]
    for beyond in (False, True):
        # a @ x + c * x[own] >= r, tight at x[own] = v where x is lo elsewhere
        a = np.zeros(n)
        a[free] = np.abs(rng.normal(size=free.size))
        gap = float(a @ (x0 - lo))  # how far x0 lies above the corner on the free columns
        if beyond:
            v = hi[own] + float(rng.uniform(0.1, 1.0))
            c = gap / (v - x0[own])  # r = a @ x0 + c * x0[own]: tight at x0
        else:
            v = float(rng.uniform(lo[own], x0[own]))
            c = float(rng.uniform(0.2, 1.0))
        a[own] = c
        rows.append((a, ">=", float(a @ lo) - c * lo[own] + c * v))
    order = rng.permutation(len(rows))
    return tuple(map(list, zip(*(rows[i] for i in order))))

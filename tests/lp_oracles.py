"""Brute-force LP oracle and random LP generation shared by test modules.

The oracle enumerates candidate active sets (k constraint rows treated as
equalities plus n-k variables fixed at a box bound), solves each square
system, filters by feasibility, and takes the best objective.  It requires
every variable box to be bounded, which the generators guarantee; under that
assumption the feasible region is a polytope, so if it is nonempty the
minimum is attained at one of the enumerated points.
"""

import itertools

import numpy as np

from incver.lp import Constraint, LinearProgram


def vertex_minimum(lp: LinearProgram, feas_tol: float = 1e-8):
    """Return ("optimal", value) or ("infeasible", None) by enumeration."""
    c = lp.objective
    n = c.size
    lo = lp.var_bounds[:, 0]
    hi = lp.var_bounds[:, 1]
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), "oracle needs a bounded box"
    rows = np.array([con.row for con in lp.constraints]).reshape(len(lp.constraints), n)
    rhs = np.array([con.rhs for con in lp.constraints])
    rels = [con.rel for con in lp.constraints]
    m = len(rels)

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
        vals = points @ rows.T
        for i, rel in enumerate(rels):
            if rel == "<=":
                ok &= vals[:, i] <= rhs[i] + feas_tol
            elif rel == ">=":
                ok &= vals[:, i] >= rhs[i] - feas_tol
            else:
                ok &= np.abs(vals[:, i] - rhs[i]) <= feas_tol
    if not ok.any():
        return "infeasible", None
    return "optimal", float(np.min(points[ok] @ c))


def random_lp(rng, n_max=5, m_max=8, family="feasible") -> LinearProgram:
    """Random LP over a bounded box.

    Families: "feasible" keeps a sampled interior point feasible for every
    row, "loose" draws right-hand sides freely (either status can result),
    "infeasible" adds a contradictory pair of rows, "chain" builds the
    staircase of "=" rows that the solver's crash basis starts from (see
    :func:`_chain_rows`).
    """
    n = int(rng.integers(3 if family == "chain" else 1, n_max + 1))
    lo = rng.uniform(-3.0, 0.0, n)
    hi = lo + rng.uniform(0.2, 4.0, n)
    c = rng.normal(size=n)
    if family == "chain":
        x0 = rng.uniform(lo, hi)
        cons = [Constraint(a, "=", float(a @ x0)) for a in _chain_rows(rng, n, m_max)]
        return LinearProgram(c, np.column_stack([lo, hi]), cons)
    m = int(rng.integers(0, m_max + 1))
    x0 = rng.uniform(lo, hi)
    cons = []
    for _ in range(m):
        a = rng.normal(size=n)
        rel = rng.choice(["<=", ">=", "="]) if family == "feasible" else rng.choice(["<=", ">="])
        at = float(a @ x0)
        if family == "feasible":
            margin = float(rng.uniform(0.0, 1.0))
            if rel == "<=":
                cons.append(Constraint(a, "<=", at + margin))
            elif rel == ">=":
                cons.append(Constraint(a, ">=", at - margin))
            else:
                cons.append(Constraint(a, "=", at))
        else:
            cons.append(Constraint(a, rel, float(rng.uniform(-2.0, 2.0))))
    if family == "infeasible":
        a = rng.normal(size=n)
        t = float(a @ x0)
        cons.append(Constraint(a, "<=", t))
        cons.append(Constraint(a, ">=", t + 1.0 + float(rng.uniform(0, 1))))
    return LinearProgram(c, np.column_stack([lo, hi]), cons)


def _chain_rows(rng, n, m_max):
    """Sparse "=" rows ending in distinct last columns, plus two odd rows.

    Each chain row's last nonzero (its head) is a small coefficient, so the
    head's value substituted from the other columns often leaves its box.
    One extra row ends in the first chain row's head (a shared head), and
    one ends in a coefficient below the solver's pivot tolerance.  Every row
    passes through one sampled point of the box, so the program is feasible.
    """
    k = int(rng.integers(1, min(n - 1, max(m_max - 2, 1)) + 1))
    heads = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))

    def row(last, coef):
        a = np.zeros(n)
        a[:last] = rng.normal(size=last) * (rng.random(last) < 0.7)
        a[last] = coef
        return a

    rows = [row(h, rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)) for h in heads]
    rows.append(row(heads[0], rng.normal()))
    rows.append(row(int(rng.integers(1, n)), 1e-12))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]

"""Independent oracles for bound and verdict checking.

Everything here except the helpers ``path_bounds``, ``analyze_region`` and
``relaxed_minimum`` and the references ``separate_walk_bounds``,
``reference_program`` and ``full_program`` works directly on the layer
arithmetic (in rationals for ``exact_margin``, or on exact
per-sign-pattern affine algebra plus vertex enumeration) and never calls the
package's analyzer or simplex, so tests can use these as ground truth.
``path_bounds`` bounds a region the way the verifier reaches it, down its
branching path; ``relaxed_minimum`` is the root region's LP optimum.
``separate_walk_bounds`` is a reference for the propagation pass's layout:
it reuses the analyzer's back-substitution walk, but runs it once per bound
side and once more for the objective, and reads the objective's upper sides
from the walk's pre-activation coefficients instead of from the walk.
``reference_program`` builds a node's bounding LP afresh, entry by entry,
with no per-network template; the analyzer's builder must give its bits.
``full_program`` is the same LP before the stable units are substituted
out, with a pre and a post column for every unit; its optimum must be the
analyzer's program's.  ``by_layer`` splits a region's per-unit array into
the network's ReLU layers, and ``flat`` joins per-layer arrays into one.
"""

import itertools
from fractions import Fraction

import numpy as np

from incver.analyzer import (
    ACTIVE,
    AMBIGUOUS,
    CROSS_TOL,
    INACTIVE,
    STABLE_TOL,
    PreactBounds,
    _build_program,
    _lower_bound,
    analyze,
    compute_bounds,
)
from incver.lp import LinearProgram, solve
from incver.model import Affine, Network, ReluId
from lp_oracles import vertex_minimum


def by_layer(net: Network, units):
    """A per-unit array, in the network's layer-major unit order, split into its ReLU layers."""
    starts = np.cumsum([0, *(b.size for _, b in net.blocks[:-1])])
    return [units[s:e] for s, e in zip(starts, starts[1:])]


def flat(layers, dtype=float):
    """Per-layer arrays joined into one per-unit array, in layer order (empty for no layer)."""
    return np.concatenate([np.zeros(0, dtype=dtype), *layers])


def forward_with_preacts(net: Network, x):
    """Evaluate and record the pre-activation vector of every ReLU layer."""
    v = np.asarray(x, dtype=float)
    pre = []
    for layer in net.layers:
        if isinstance(layer, Affine):
            v = layer.weights @ v + layer.bias
        else:
            pre.append(v.copy())
            v = np.maximum(v, 0.0)
    return pre, v


def path_bounds(net: Network, box, splits, objective=None):
    """Bounds of the region under ``splits``, taken in path order.

    Each prefix of the path is bounded from the one before, one propagation
    pass at a time, as the verifier bounds a child from its parent.  The
    ``objective`` applies to the last step.
    """
    items = list(splits.items())
    bounds = None
    for k in range(len(items) + 1):
        last = objective if k == len(items) else None
        bounds = compute_bounds(net, box, dict(items[:k]), objective=last, parent=bounds)
    return bounds


def analyze_region(net: Network, prop, splits, parent=None, start=None):
    """``analyze`` on the region's bounds, propagated with the property's
    objective from ``parent`` as the verifier propagates them."""
    bounds = compute_bounds(net, prop.input, splits, objective=prop.output.c, parent=parent)
    return analyze(net, prop, bounds, start=start)


def relaxed_minimum(net: Network, prop) -> float:
    """The root relaxation's bound: the optimum of the root region's
    bounding LP, c^T y over the triangle relaxation, with no d."""
    bounds = compute_bounds(net, prop.input, {}, objective=prop.output.c)
    return float(solve(_build_program(net, prop, bounds)).value)


def separate_walk_bounds(net: Network, box, splits, objective=None, parent=None):
    """``compute_bounds`` with separate walks: one ``_lower_bound`` walk per
    side of every layer's interval, then one for the objective.

    Phases and relaxations are decided unit by unit from the same rules: a
    split unit takes its sign's phase and clamps its bound; an unsplit one is
    inactive if u <= STABLE_TOL, else active if l >= -STABLE_TOL, else
    ambiguous, relaxed by the triangle's chord above and, below, by the
    identity if u >= -l and by 0 otherwise.  The oracle works layer by
    layer and joins its per-layer arrays into per-unit ones at the end.
    """
    if parent is not None and parent.infeasible:
        return parent
    blocks = net.blocks
    relax, pre_lb, pre_ub, phases = [], [], [], []
    infeasible = False
    if parent is not None:
        parent_lb, parent_ub = by_layer(net, parent.pre_lb), by_layer(net, parent.pre_ub)

    def walk(A, c, upto):
        """The analyzer's walk of the rows ``A z + c`` for this one region."""
        A, c = np.atleast_2d(A), np.atleast_1d(c)
        start = (A, c[:, None], np.maximum(A, 0.0), np.minimum(A, 0.0))
        shaped = [(lo[None, None], up[None, None], mu[None, :, None]) for lo, up, mu in relax]
        lower, upper = box.lower[None, :, None], box.upper[None, :, None]
        lb, coefs, _ = _lower_bound(blocks, shaped, start, upto, lower, upper)
        return lb[0, :, 0], [a[0] for a in coefs]

    def interval(upto):
        W, b = blocks[upto]
        return walk(W, b, upto)[0], -walk(-W, -b, upto)[0]

    for i in range(len(blocks) - 1):
        l, u = interval(i)
        if parent is not None:
            l, u = np.maximum(l, parent_lb[i]), np.minimum(u, parent_ub[i])
        n = l.size
        phase = np.zeros(n, dtype=int)
        lam_low, lam_up, mu_up = np.zeros(n), np.zeros(n), np.zeros(n)
        for j in range(n):
            sign = splits.get(ReluId(i, j))
            if sign == "+":
                l[j] = max(l[j], 0.0)
            elif sign == "-":
                u[j] = min(u[j], 0.0)
            if l[j] > u[j] + CROSS_TOL:
                infeasible = True
            u[j] = max(u[j], l[j])
            if sign is not None:
                phase[j] = ACTIVE if sign == "+" else INACTIVE
            else:
                phase[j] = INACTIVE if u[j] <= STABLE_TOL else ACTIVE if l[j] >= -STABLE_TOL else AMBIGUOUS
            if phase[j] == ACTIVE:
                lam_low[j] = lam_up[j] = 1.0
            elif phase[j] == AMBIGUOUS:
                lam_up[j] = u[j] / (u[j] - l[j])
                mu_up[j] = -u[j] * l[j] / (u[j] - l[j])
                lam_low[j] = 1.0 if u[j] >= -l[j] else 0.0
        relax.append((lam_low, lam_up, mu_up))
        pre_lb.append(l)
        pre_ub.append(u)
        phases.append(phase)

    out_l, out_u = interval(len(blocks) - 1)
    if parent is not None:
        out_l, out_u = np.maximum(out_l, parent.out_lb), np.minimum(out_u, parent.out_ub)
        if np.any(out_l > out_u + CROSS_TOL):
            infeasible = True
        out_u = np.maximum(out_u, out_l)
    bounds = PreactBounds(flat(pre_lb), flat(pre_ub), flat(phases, int), out_l, out_u, None, infeasible)
    bounds.ambiguous = any(bool(np.any(p == AMBIGUOUS)) for p in phases)
    if objective is not None:
        W, b = blocks[-1]
        c = np.asarray(objective, dtype=float)
        lb, coefs = walk(c @ W, c @ b, len(blocks) - 1)
        lb = lb[0]
        bounds.kappa = flat([np.abs(a[0]) for a in coefs])
        # the objective's coefficients on each block's input, from those on
        # its output: the pre-activation coefficients, and the objective on
        # the output block; negative ones read the upper side
        outputs = [*(a[0] for a in coefs), c]
        bounds.upper_side = flat([row @ W < 0.0 for row, (W, _) in zip(outputs, blocks)], bool)
        if parent is not None and parent.objective_lb is not None:
            lb = max(lb, parent.objective_lb)
        bounds.objective_lb = float(lb)
    return bounds


def reference_program(net: Network, prop, bounds) -> LinearProgram:
    """The bounding LP written node by node, with no template.

    Its columns, rows, right-hand sides, start mask and objective are the
    ones the analyzer's builder must give.  Columns: the input's; per ReLU
    layer one column per unit, then one post column per ambiguous unit; the
    output's.  A unit's column is its pre-activation, on [l, u], except an
    active unit's, which is its pre and post at once, on [max(l, 0), u]; an
    ambiguous unit's post column is on [max(l, 0), max(u, 0)].  Rows: per
    layer the affine rows ``W @ src - own = -b``, where src holds an active
    unit's column and an ambiguous unit's post, and an inactive unit reads
    as 0; then per ambiguous unit ``pre - post <= 0`` and the chord ``post -
    slope * pre <= -slope * l``; the output's affine rows last.
    """
    blocks = net.blocks
    lo, hi = [prop.input.lower], [prop.input.upper]
    own, posts = [], []  # per ReLU layer: each unit's column; each ambiguous unit's post column
    n = net.input_dim
    phases = by_layer(net, bounds.phase)
    for l, u, phase in zip(by_layer(net, bounds.pre_lb), by_layer(net, bounds.pre_ub), phases):
        amb = phase == AMBIGUOUS
        lo += [np.where(phase == ACTIVE, np.maximum(l, 0.0), l), np.maximum(l[amb], 0.0)]
        hi += [u, np.maximum(u[amb], 0.0)]
        own.append(n + np.arange(l.size))
        n += l.size
        post = np.full(l.size, -1)
        post[amb] = n + np.arange(int(amb.sum()))
        posts.append(post)
        n += int(amb.sum())
    own.append(n + np.arange(net.output_dim))
    lo, hi = np.concatenate([*lo, bounds.out_lb]), np.concatenate([*hi, bounds.out_ub])

    rows, eq, rhs = [], [], []
    reads = (np.arange(net.input_dim), np.arange(net.input_dim))  # W's columns and the columns they read
    for i, (W, b) in enumerate(blocks):
        block = np.zeros((b.size, lo.size))
        block[:, reads[1]] = W[:, reads[0]]
        block[np.arange(b.size), own[i]] = -1.0
        rows.append(block)
        eq += [True] * b.size
        rhs.append(-b)
        if i == len(blocks) - 1:
            break
        phase, post = phases[i], posts[i]
        for j in np.flatnonzero(phase == AMBIGUOUS):
            l, u = lo[own[i][j]], hi[own[i][j]]
            slope = u / (u - l)
            pair = np.zeros((2, lo.size))
            pair[0, own[i][j]], pair[0, post[j]] = 1.0, -1.0  # pre - post <= 0
            pair[1, post[j]], pair[1, own[i][j]] = 1.0, -slope
            rows.append(pair)
            eq += [False, False]
            rhs.append(np.array([0.0, -slope * l]))
        active = np.flatnonzero(phase == ACTIVE)
        amb = np.flatnonzero(phase == AMBIGUOUS)
        units = np.concatenate([active, amb])
        reads = (units, np.concatenate([own[i][active], post[amb]]))
    A, rhs = np.concatenate(rows), np.concatenate(rhs)

    at_upper = np.zeros(lo.size, dtype=bool)
    if bounds.upper_side is not None:
        at_upper[: net.input_dim] = bounds.upper_side[: net.input_dim]
        for side, post in zip(by_layer(net, bounds.upper_side[net.input_dim :]), posts):
            at_upper[post[post >= 0]] = side[post >= 0]
    objective = np.zeros(lo.size)
    objective[-net.output_dim :] = prop.output.c
    return LinearProgram(objective, np.column_stack([lo, hi]), A, np.array(eq), rhs, at_upper)


def full_program(net: Network, prop, bounds) -> LinearProgram:
    """The bounding LP over the full layout: a pre and a post column for every unit.

    Columns are input, (pre, post) per ReLU layer and output; a post column
    is [0, 0] if its unit is inactive and max(pre, 0) otherwise.  Rows are
    the affine rows ``W @ src - pre = -b`` of each layer, then per unit by
    its phase nothing, ``post - pre = 0`` or ``pre - post <= 0`` and the
    chord ``post - slope * pre <= -slope * l``; the output's affine rows
    last.  The analyzer's program substitutes the stable units out of it and
    must keep its optimum.
    """
    blocks = net.blocks
    widths = tuple(W.shape[0] for W, _ in blocks)
    # offsets: each block's first unit; each ReLU unit's pre and post column
    # and the affine rows up to its layer's; each affine row's index among
    # them, its own (pre or output) column and the ReLU units above its block
    relu_w = np.array(widths[:-1], dtype=int)
    layer_start = np.cumsum([0, *relu_w])
    pre = np.arange(layer_start[-1]) + np.repeat(net.input_dim + layer_start[:-1], relu_w)
    post = pre + np.repeat(relu_w, relu_w)
    row_base = np.repeat(layer_start[1:], relu_w)
    aff_rows = np.arange(sum(widths))
    aff_cols = aff_rows + np.repeat(net.input_dim + layer_start, widths)
    units_above = np.repeat(layer_start, widths)

    cols = [(prop.input.lower, prop.input.upper)]
    for l, u, on in zip(*(by_layer(net, a) for a in (bounds.pre_lb, bounds.pre_ub, bounds.phase))):
        cols += [(l, u), (np.where(on, np.maximum(l, 0.0), 0.0), np.where(on, np.maximum(u, 0.0), 0.0))]
    cols.append((bounds.out_lb, bounds.out_ub))
    lo, hi = (np.concatenate(side) for side in zip(*cols))

    l, u = lo[pre], hi[pre]
    k = bounds.phase  # rows per unit: its phase
    above = np.zeros(k.size + 1, dtype=int)  # ReLU rows above each unit, then in all
    np.cumsum(k, out=above[1:])
    first = row_base + above[:-1]  # each unit's first row
    aff_rows = aff_rows + above[units_above]  # shifted down by the ReLU rows above

    m = sum(widths) + int(above[-1])
    A = np.zeros((m, lo.size))
    eq = np.ones(m, dtype=bool)
    rhs = np.zeros(m)
    src = slice(0, net.input_dim)
    for (W, _), r, w in zip(blocks, aff_rows[layer_start], widths):
        A[r : r + w, src] = W
        src = slice(src.stop + w, src.stop + 2 * w)
    A[aff_rows, aff_cols] = -1.0
    rhs[aff_rows] = -np.concatenate([b for _, b in blocks])
    on = np.flatnonzero(k)
    sign = np.where(k[on] == 2, -1.0, 1.0)  # post - pre = 0, or pre - post <= 0
    A[first[on], post[on]] = sign
    A[first[on], pre[on]] = -sign
    amb = np.flatnonzero(k == 2)
    l, u, chord = l[amb], u[amb], first[amb] + 1
    slope = u / (u - l)
    eq[chord - 1] = eq[chord] = False
    A[chord, post[amb]] = 1.0
    A[chord, pre[amb]] = -slope
    rhs[chord] = -slope * l

    at_upper = np.zeros(lo.size, dtype=bool)
    if bounds.upper_side is not None:
        at_upper[: net.input_dim] = bounds.upper_side[: net.input_dim]
        at_upper[post[amb]] = bounds.upper_side[net.input_dim + amb]
    objective = np.zeros(lo.size)
    objective[-net.output_dim :] = prop.output.c
    return LinearProgram(objective, np.column_stack([lo, hi]), A, eq, rhs, at_upper)


def exact_margin(net: Network, prop, x) -> Fraction:
    """The property margin c^T N(x) + d in exact rational arithmetic.

    Weights, inputs and the constraint are binary floats, so each is a
    rational and every product and sum here is exact: a point is a
    counterexample exactly when this is below 0.
    """
    v = [Fraction(float(t)) for t in x]
    for layer in net.layers:
        if isinstance(layer, Affine):
            v = [
                sum((Fraction(float(w)) * t for w, t in zip(row, v)), Fraction(float(b)))
                for row, b in zip(layer.weights, layer.bias)
            ]
        else:
            v = [max(t, Fraction(0)) for t in v]
    c = prop.output.c
    return sum((Fraction(float(ci)) * t for ci, t in zip(c, v)), Fraction(prop.output.d))


def grid_points(box, total=10_000):
    """Deterministic dense grid over the box with about ``total`` points."""
    n = box.dim
    per_dim = max(2, int(round(total ** (1.0 / n))))
    axes = [np.linspace(box.lower[i], box.upper[i], per_dim) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sign_pattern_affine(net: Network, pattern):
    """Exact affine algebra for one full sign pattern.

    ``pattern`` gives one sign (+1/-1) per ReLU layer as an array.  Returns
    (A_out, c_out, pre_forms) where the network restricted to the pattern is
    x -> A_out x + c_out, and pre_forms lists (A, c) for each ReLU layer's
    pre-activation as a function of the input.
    """
    A = np.eye(net.input_dim)
    c = np.zeros(net.input_dim)
    pre_forms = []
    k = 0
    for layer in net.layers:
        if isinstance(layer, Affine):
            c = layer.weights @ c + layer.bias
            A = layer.weights @ A
        else:
            pre_forms.append((A.copy(), c.copy()))
            mask = (np.asarray(pattern[k]) > 0).astype(float)
            A = A * mask[:, None]
            c = c * mask
            k += 1
    return A, c, pre_forms


def region_minimum(net: Network, prop, pattern):
    """Exact property-margin minimum over one sign-pattern region.

    The region is the input box intersected with the halfspaces that pin each
    pre-activation to its pattern sign; the restricted network is affine, so
    the minimum is found by vertex enumeration.  Returns None for an empty
    region.
    """
    A, c, pre_forms = sign_pattern_affine(net, pattern)
    obj = prop.output.c @ A
    const = float(prop.output.c @ c + prop.output.d)
    rows = np.vstack([Ap for Ap, _ in pre_forms])
    rhs = -np.concatenate([cp for _, cp in pre_forms])
    sign = np.where(np.concatenate(pattern) > 0, -1.0, 1.0)  # sign * row <= sign * rhs
    lp = LinearProgram(
        obj,
        np.column_stack([prop.input.lower, prop.input.upper]),
        sign[:, None] * rows,
        np.zeros(rhs.size, dtype=bool),
        sign * rhs,
    )
    status, value = vertex_minimum(lp)
    if status == "infeasible":
        return None
    return value + const


def all_sign_patterns(net: Network):
    """Iterate every full sign pattern (one sign per ReLU unit)."""
    widths = []
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, Affine):
            widths.append(net.layers[i - 1].out_dim)
    total = sum(widths)
    for bits in itertools.product((1.0, -1.0), repeat=total):
        pattern = []
        k = 0
        for w in widths:
            pattern.append(np.array(bits[k : k + w]))
            k += w
        yield pattern


def brute_force_minimum(net: Network, prop):
    """Exact min of the property margin over the whole box (small nets only)."""
    best = None
    for pattern in all_sign_patterns(net):
        v = region_minimum(net, prop, pattern)
        if v is not None and (best is None or v < best):
            best = v
    return best

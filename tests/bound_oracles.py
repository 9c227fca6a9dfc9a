"""Independent oracles for bound and verdict checking.

Everything here except ``path_bounds`` works directly on the layer
arithmetic (or on exact per-sign-pattern affine algebra plus vertex
enumeration) and never calls the package's analyzer or simplex, so tests can
use these as ground truth.  ``path_bounds`` is a helper: it bounds a region
the way the verifier reaches it, down its branching path.
"""

import itertools

import numpy as np

from incver.analyzer import compute_bounds
from incver.lp import LinearProgram
from incver.model import Affine, Network
from lp_oracles import vertex_minimum


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
    rels = np.where(np.concatenate(pattern) > 0, ">=", "<=")
    lp = LinearProgram(
        obj, np.column_stack([prop.input.lower, prop.input.upper]), rows, rels, rhs
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

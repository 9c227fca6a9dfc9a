"""Seeded instance families for the incver benchmark.

Every input is built with seeded numpy only: no incver analysis runs while
instances are made, so a change to bounding or search cannot change the
benchmark's own inputs.

Each workload is a fixed family of base instances (network, update,
property).  The ``--seed`` draws an isomorphic relabeling of that family:
hidden units and input axes are permuted and input axes are reflected, with
the input box and weights transformed to match.  A relabeled instance is the
same verification problem in different coordinates, so the amount of search
is the same for every seed while the arrays the program sees differ.  That
keeps the medians of runs with different seeds comparable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from incver.model import Affine, Network, QuantizeInt8, QuantizeInt16, Relu, UniformRandom, perturb
from incver.props import InputBox, OutputConstraint, Property

PROBE_SAMPLES = 4096


@dataclass(frozen=True)
class Family:
    """Parameters of one workload's base instance family."""

    family_seed: int
    count: int
    n_in: tuple  # inclusive range of input dimensions
    hidden: tuple  # per hidden layer, an inclusive range of widths
    scale: float
    box_lower: tuple
    box_width: tuple
    margin: tuple  # threshold offset as a share of the sampled output range
    alternate_sign: bool  # every second instance gets a violated threshold
    updates: tuple  # (label, perturbation factory taking the instance index)
    branching: str
    theta: float


FAMILIES = {
    "quant-8x6": Family(
        family_seed=7,
        count=3,
        n_in=(3, 4),
        hidden=((8, 8), (6, 6)),
        scale=1.1,
        box_lower=(-0.9, 0.1),
        box_width=(0.7, 1.3),
        margin=(0.1, 0.2),
        alternate_sign=False,
        updates=(("int8", lambda i: QuantizeInt8()), ("int16", lambda i: QuantizeInt16())),
        branching="relu",
        theta=0.002,
    ),
    "deep-16x3": Family(
        family_seed=16,
        count=3,
        n_in=(3, 4),
        hidden=((16, 16), (16, 16), (16, 16)),
        scale=1.0,
        box_lower=(-0.9, 0.1),
        box_width=(0.2, 0.4),
        margin=(0.15, 0.3),
        alternate_sign=False,
        updates=(("int8", lambda i: QuantizeInt8()),),
        branching="relu",
        theta=0.002,
    ),
    "input-split": Family(
        family_seed=9,
        count=12,
        n_in=(2, 3),
        hidden=((6, 9), (6, 6)),
        scale=1.0,
        box_lower=(-1.5, 0.0),
        box_width=(1.0, 3.0),
        margin=(0.01, 0.06),
        alternate_sign=True,
        updates=(("rand1pct", lambda i: UniformRandom(fraction=0.01, seed=i)),),
        branching="input",
        theta=0.01,
    ),
}


@dataclass(frozen=True)
class Instance:
    name: str
    original: Network
    updated: Network
    prop: Property


def forward(net: Network, points: np.ndarray) -> np.ndarray:
    """Batch forward pass, rows are inputs (the benchmark's own evaluator)."""
    out = points
    for layer in net.layers:
        out = out @ layer.weights.T + layer.bias if isinstance(layer, Affine) else np.maximum(out, 0.0)
    return out


def box_points(box: InputBox, rng: np.random.Generator, samples: int) -> np.ndarray:
    """Every corner of the box plus uniform samples inside it."""
    lo, hi = box.lower, box.upper
    bits = (np.arange(1 << lo.size)[:, None] >> np.arange(lo.size)) & 1
    corners = np.where(bits == 1, hi, lo)
    return np.vstack([corners, lo + rng.random((samples, lo.size)) * (hi - lo)])


def _base_network(rng: np.random.Generator, dims: list, scale: float) -> Network:
    layers = []
    for i in range(len(dims) - 1):
        w = rng.normal(size=(dims[i + 1], dims[i])) * scale / np.sqrt(dims[i])
        b = rng.normal(size=dims[i + 1]) * 0.2
        layers.append(Affine(w, b))
        if i < len(dims) - 2:
            layers.append(Relu())
    return Network(tuple(layers))


def _base_instances(fam: Family) -> list:
    """The family's instances before relabeling, thresholds from sampled outputs."""
    rng = np.random.default_rng(fam.family_seed)
    out = []
    for i in range(fam.count):
        n_in = int(rng.integers(fam.n_in[0], fam.n_in[1] + 1))
        hidden = [int(rng.integers(lo, hi + 1)) for lo, hi in fam.hidden]
        net = _base_network(rng, [n_in, *hidden, 1], fam.scale)
        lower = rng.uniform(*fam.box_lower, n_in)
        box = InputBox(lower, lower + rng.uniform(*fam.box_width, n_in))
        c = rng.normal(size=1)
        margins = forward(net, box_points(box, rng, PROBE_SAMPLES)) @ c
        offset = float(rng.uniform(*fam.margin)) * float(margins.max() - margins.min())
        if fam.alternate_sign and i % 2 == 1:
            offset = -offset
        prop = Property(box, OutputConstraint(c, -float(margins.min()) + offset))
        for label, update in fam.updates:
            out.append((f"net{i}/{label}", net, perturb(net, update(i)), prop))
    return out


def _relabel_net(net: Network, in_perm, in_sign, hidden_perms) -> Network:
    layers = []
    prev = None
    k = 0
    for layer in net.layers:
        if not isinstance(layer, Affine):
            layers.append(layer)
            continue
        w, b = layer.weights, layer.bias
        if prev is None:
            w = w[:, in_perm] * in_sign
        else:
            w = w[:, prev]
        if k < len(hidden_perms):
            prev = hidden_perms[k]
            w, b = w[prev], b[prev]
        layers.append(Affine(w, b))
        k += 1
    return Network(tuple(layers), name=net.name)


def _relabel(rng: np.random.Generator, name, original, updated, prop) -> Instance:
    n_in = original.input_dim
    in_perm = rng.permutation(n_in)
    in_sign = rng.choice([-1.0, 1.0], size=n_in)
    widths = [layer.out_dim for layer in original.layers[:-1] if isinstance(layer, Affine)]
    hidden_perms = [rng.permutation(w) for w in widths]
    lo, hi = prop.input.lower[in_perm], prop.input.upper[in_perm]
    box = InputBox(np.where(in_sign > 0, lo, -hi), np.where(in_sign > 0, hi, -lo))
    return Instance(
        name,
        _relabel_net(original, in_perm, in_sign, hidden_perms),
        _relabel_net(updated, in_perm, in_sign, hidden_perms),
        Property(box, prop.output, name=name),
    )


def make_instances(workload: str, seed: int) -> list:
    """The workload's family, relabeled by ``seed``."""
    rng = np.random.default_rng(seed)
    return [_relabel(rng, *base) for base in _base_instances(FAMILIES[workload])]


def digest(instances: list) -> str:
    """SHA-256 over every array of every network and property, in order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.name.encode())
        for net in (inst.original, inst.updated):
            for layer in net.layers:
                if isinstance(layer, Affine):
                    h.update(layer.weights.tobytes())
                    h.update(layer.bias.tobytes())
        p = inst.prop
        for arr in (p.input.lower, p.input.upper, p.output.c, np.array([p.output.d])):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()

"""Feedforward ReLU networks: construction, evaluation, quantization, perturbation.

A network is an alternating stack of affine and ReLU layers that ends with an
affine layer.  Values are immutable after construction (arrays are marked
read-only) so networks can be shared freely across threads.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np


class ParseError(ValueError):
    """A file or JSON document does not match the expected schema."""


def read_json(path):
    """The JSON document in the file at ``path``.

    A syntax error raises ParseError naming the path, line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def write_json(doc, path) -> None:
    """Write a JSON document to the file at ``path``, indented, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def is_number(value, integral: bool = False) -> bool:
    """Whether a parsed JSON value is a number (an integer if ``integral``).

    JSON's true and false parse to bool, which Python counts as an int.
    The readers convert numbers to float, so an integer beyond the float
    range is not a number; an integer (an id, a seed) may be any integer.
    """
    if integral:
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


# The readers' vocabulary: every field of a file incver reads is checked by
# ``expect`` against one of these kinds, and every object built from the
# checked fields by ``built``.
_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a non-empty list": lambda v: isinstance(v, list) and len(v) > 0,
    "a string": lambda v: isinstance(v, str),
    "a path": lambda v: isinstance(v, str) and v != "",
    "a number": is_number,
    "a positive number": lambda v: is_number(v) and v > 0,  # NaN is not
    "an integer": lambda v: is_number(v, integral=True),
    "a list of numbers": lambda v: isinstance(v, list) and all(is_number(t) for t in v),
}


def expect(value, kind: str, where: str):
    """``value``, a parsed JSON value, if it is of ``kind`` (a key of ``_KINDS``).

    Otherwise ParseError ``<where>: expected <kind>, got <value>``, the value
    abbreviated.  A missing field reads as None, which no kind accepts.
    """
    if not _KINDS[kind](value):
        raise ParseError(f"{where}: expected {kind}, got {reprlib.repr(value)}")
    return value


def built(where: str, make):
    """``make()``, a constructor over checked fields; its ValueError becomes a ParseError naming ``where``."""
    try:
        return make()
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Affine:
    """Affine layer ``x -> weights @ x + bias``.

    ``weights`` has shape (out_dim, in_dim), row-major; ``bias`` has shape
    (out_dim,).
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = _as_readonly(self.weights)
        b = _as_readonly(self.bias)
        if w.ndim != 2:
            raise ValueError(f"affine weights must be 2-d, got shape {w.shape}")
        if b.ndim != 1:
            raise ValueError(f"affine bias must be 1-d, got shape {b.shape}")
        if w.shape[0] != b.shape[0]:
            raise ValueError(
                f"affine weights rows ({w.shape[0]}) != bias length ({b.shape[0]})"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("affine weights and bias must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Affine):
            return NotImplemented
        return np.array_equal(self.weights, other.weights) and np.array_equal(
            self.bias, other.bias
        )


@dataclass(frozen=True)
class Relu:
    """Elementwise ReLU layer ``x -> max(x, 0)``."""


Layer = Union[Affine, Relu]


class ReluId(NamedTuple):
    """Identifies one ReLU unit: ``layer`` is the index among the network's
    ReLU layers (0 for the first ReLU layer), ``neuron`` the index within it.

    Tuple ordering (layer-major, then neuron) is the tie-breaking order used
    throughout the package.
    """

    layer: int
    neuron: int


@dataclass(frozen=True, eq=False)
class Network:
    """An alternating Affine/ReLU stack ending in an Affine layer."""

    layers: tuple
    name: str = ""

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        prev_dim = None
        for i, layer in enumerate(layers):
            if isinstance(layer, Affine):
                if prev_dim is not None and layer.in_dim != prev_dim:
                    raise ValueError(
                        f"layers[{i}]: affine expects input dim {layer.in_dim}, "
                        f"previous layer produces {prev_dim}"
                    )
                prev_dim = layer.out_dim
            elif isinstance(layer, Relu):
                if i == 0 or not isinstance(layers[i - 1], Affine):
                    raise ValueError(f"layers[{i}]: ReLU must follow an affine layer")
            else:
                raise ValueError(f"layers[{i}]: unknown layer type {type(layer)!r}")
        if not isinstance(layers[-1], Affine):
            raise ValueError("final layer must be affine")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @cached_property
    def blocks(self) -> tuple:
        """The layers as (weights, bias) blocks, one per ReLU layer plus the output.

        Consecutive affine layers compose into one block; every block but the
        last feeds a ReLU layer.  Computed once per network, read-only.
        """
        out, w, b = [], None, None
        for layer in self.layers:
            if isinstance(layer, Relu):  # validation guarantees it follows an affine
                out.append((w, b))
                w = None
            elif w is None:
                w, b = layer.weights, layer.bias
            else:
                w, b = _as_readonly(layer.weights @ w), _as_readonly(layer.weights @ b + layer.bias)
        return tuple(out) + ((w, b),)

    @cached_property
    def signed_blocks(self) -> tuple:
        """Each block's rows over their negations, as a back-substitution walk starts from them.

        Per block: the rows ``[W; -W]``, their constants ``[b; -b]`` as a
        column, and the rows' positive and negative parts.  A lower bound of
        these rows is the block's lower bound on top and its negated upper
        bound below, so one walk gives both.  Computed once per network,
        read-only.
        """
        out = []
        for w, b in self.blocks:
            rows = np.vstack([w, -w])
            consts = np.concatenate([b, -b])[:, None]
            parts = (rows, consts, np.maximum(rows, 0.0), np.minimum(rows, 0.0))
            out.append(tuple(_as_readonly(a) for a in parts))
        return tuple(out)

    def signed_output(self, objective: np.ndarray) -> tuple:
        """The output block's ``signed_blocks`` entry with the objective's row under its rows.

        The row is ``(objective @ W, objective @ b)`` over the output block's
        input, so the walk that bounds the outputs also bounds the objective.
        Computed once per network and objective, read-only.
        """
        memo = self.__dict__.setdefault("_signed_output", {})
        key = objective.tobytes()
        start = memo.get(key)
        if start is None:
            w, b = self.blocks[-1]
            row, const = objective @ w, objective @ b
            rows, consts, pos, neg = self.signed_blocks[-1]
            parts = (
                np.vstack([rows, row]),
                np.vstack([consts, [[const]]]),
                np.vstack([pos, np.maximum(row, 0.0)]),
                np.vstack([neg, np.minimum(row, 0.0)]),
            )
            start = memo[key] = tuple(_as_readonly(a) for a in parts)
        return start

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.name == other.name
            and len(self.layers) == len(other.layers)
            and all(a == b for a, b in zip(self.layers, other.layers))
        )


def relu_ids(net: Network) -> list[ReluId]:
    """All ReLU units of the network, in tie-breaking order."""
    sizes = [
        net.layers[i - 1].out_dim for i, layer in enumerate(net.layers) if isinstance(layer, Relu)
    ]
    return [ReluId(layer, j) for layer, size in enumerate(sizes) for j in range(size)]


def evaluate(net: Network, x) -> np.ndarray:
    """Exact forward evaluation N(x)."""
    v = np.asarray(x, dtype=float)
    if v.shape != (net.input_dim,):
        raise ValueError(f"input has shape {v.shape}, network expects ({net.input_dim},)")
    for layer in net.layers:
        if isinstance(layer, Affine):
            v = layer.weights @ v + layer.bias
        else:
            v = np.maximum(v, 0.0)
    return v


def same_architecture(a: Network, b: Network) -> bool:
    """True iff layer kinds and all dimensions match (weights may differ)."""
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if type(la) is not type(lb):
            return False
        if isinstance(la, Affine) and la.weights.shape != lb.weights.shape:
            return False
    return True


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _quantize_tensor(w: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric per-tensor quantize/dequantize with zero-point 0.

    The scale is max|w| / (2^(bits-1) - 1); integer codes are rounded half
    away from zero and clamped to +-(2^(bits-1) - 1).  Dequantized values are
    evaluated as max|w| * (q / qmax), which is the exact value scale*q and
    additionally makes the map idempotent bit-for-bit (codes at the extremes
    dequantize to exactly +-max|w|).  An all-zero tensor has no scale and is
    returned unchanged.
    """
    m = float(np.max(np.abs(w)))
    if m == 0.0:
        return np.array(w, dtype=float)
    qmax = float(2 ** (bits - 1) - 1)
    q = np.clip(_round_half_away(w / m * qmax), -qmax, qmax)
    return m * (q / qmax)


def quantize(net: Network, bits: int) -> Network:
    """Return the network with every affine weight matrix and bias replaced
    by its symmetrically quantized-then-dequantized value."""
    if bits not in (8, 16):
        raise ValueError(f"bits must be 8 or 16, got {bits}")
    layers = []
    for layer in net.layers:
        if isinstance(layer, Affine):
            layers.append(
                Affine(_quantize_tensor(layer.weights, bits), _quantize_tensor(layer.bias, bits))
            )
        else:
            layers.append(layer)
    return Network(tuple(layers), name=net.name)


@dataclass(frozen=True)
class QuantizeInt8:
    pass


@dataclass(frozen=True)
class QuantizeInt16:
    pass


@dataclass(frozen=True)
class UniformRandom:
    """Multiply every affine weight matrix entry by (1 + u), u ~ U[-fraction, fraction]."""

    fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not self.fraction >= 0:  # NaN too: rng.uniform overflows on it
            raise ValueError(f"fraction must be >= 0, got {self.fraction}")
        if self.seed < 0:  # numpy's SeedSequence rejects negative entropy
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class LastLayer:
    """Add a fixed matrix to the final affine layer's weight matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_readonly(self.matrix)
        if m.ndim != 2 or not np.isfinite(m).all():
            raise ValueError(f"matrix must be a finite 2-d array, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LastLayer):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


PerturbSpec = Union[QuantizeInt8, QuantizeInt16, UniformRandom, LastLayer]


def perturb(net: Network, spec: PerturbSpec) -> Network:
    """Apply a perturbation, producing a new network of the same architecture.

    Biases are never touched: quantization handles them inside
    :func:`quantize`, and the random and last-layer perturbations act on
    weight matrices only.
    """
    if isinstance(spec, QuantizeInt8):
        return quantize(net, 8)
    if isinstance(spec, QuantizeInt16):
        return quantize(net, 16)
    if isinstance(spec, UniformRandom):
        rng = np.random.default_rng(spec.seed)
        layers = []
        for layer in net.layers:
            if isinstance(layer, Affine):
                u = rng.uniform(-spec.fraction, spec.fraction, size=layer.weights.shape)
                layers.append(Affine(layer.weights * (1.0 + u), layer.bias))
            else:
                layers.append(layer)
        return Network(tuple(layers), name=net.name)
    if isinstance(spec, LastLayer):
        last = net.layers[-1]
        if spec.matrix.shape != last.weights.shape:
            raise ValueError(
                f"last-layer perturbation has shape {spec.matrix.shape}, "
                f"final affine weights have shape {last.weights.shape}"
            )
        layers = list(net.layers[:-1])
        layers.append(Affine(last.weights + spec.matrix, last.bias))
        return Network(tuple(layers), name=net.name)
    raise ValueError(f"unknown perturbation spec {spec!r}")


def _layer_to_json(layer: Layer) -> dict:
    if isinstance(layer, Affine):
        return {
            "type": "affine",
            "weights": layer.weights.tolist(),
            "bias": layer.bias.tolist(),
        }
    return {"type": "relu"}


def _layer_from_json(obj: object, where: str) -> Layer:
    kind = expect(obj, "an object", where).get("type")
    if kind == "relu":
        return Relu()
    if kind != "affine":
        raise ParseError(f"{where}.type: expected 'affine' or 'relu', got {kind!r}")
    weights = expect(obj.get("weights"), "a non-empty list", f"{where}.weights")
    for r, row in enumerate(weights):
        if len(expect(row, "a list of numbers", f"{where}.weights[{r}]")) != len(weights[0]):
            raise ParseError(f"{where}.weights[{r}]: row length {len(row)} != {len(weights[0])}")
    bias = expect(obj.get("bias"), "a list of numbers", f"{where}.bias")
    return built(where, lambda: Affine(np.array(weights, dtype=float), np.array(bias, dtype=float)))


def network_to_json(net: Network) -> dict:
    return {"name": net.name, "layers": [_layer_to_json(l) for l in net.layers]}


def network_from_json(obj: object, where: str = "network") -> Network:
    """The network a parsed JSON document describes, its fields named from ``where``.

    The document is ``{"name": str (optional), "layers": [...]}``, each layer
    ``{"type": "relu"}`` or ``{"type": "affine", "weights": rows, "bias":
    numbers}``.  A field of the wrong kind, ragged weights, or layers that
    ``Affine`` or ``Network`` refuse raise ParseError naming the field.
    """
    obj = expect(obj, "an object", where)
    name = expect(obj.get("name", ""), "a string", f"{where}.name")
    items = expect(obj.get("layers"), "a non-empty list", f"{where}.layers")
    layers = tuple(_layer_from_json(item, f"{where}.layers[{i}]") for i, item in enumerate(items))
    return built(where, lambda: Network(layers, name=name))


def save_network(net: Network, path) -> None:
    write_json(network_to_json(net), path)


def load_network(path) -> Network:
    return network_from_json(read_json(path), where=str(path))

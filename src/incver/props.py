"""Input boxes, linear output constraints, and the properties built from them.

A property asks: for every x in the input box, does c^T N(x) + d >= 0 hold?
It carries exactly one output constraint; a local robustness property (true
label's score at least an adversary's) is one with c = e_true - e_adversary
and d = 0, written in property JSON like any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from incver.model import Network, _as_readonly, built, evaluate, expect, read_json, write_json


@dataclass(frozen=True, eq=False)
class InputBox:
    """Axis-aligned box ``lower[i] <= x[i] <= upper[i]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = _as_readonly(self.lower)
        hi = _as_readonly(self.upper)
        if lo.ndim != 1 or hi.ndim != 1:
            raise ValueError("box bounds must be 1-d vectors")
        if lo.shape != hi.shape:
            raise ValueError(f"box bounds have shapes {lo.shape} and {hi.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            bad = int(np.argmax(lo > hi))
            raise ValueError(f"box dimension {bad}: lower {lo[bad]} > upper {hi[bad]}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, tol: float = 0.0) -> bool:
        v = np.asarray(x, dtype=float)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InputBox):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )


@dataclass(frozen=True, eq=False)
class OutputConstraint:
    """Half-space constraint ``c^T y + d >= 0`` on the network output."""

    c: np.ndarray
    d: float = 0.0

    def __post_init__(self) -> None:
        c = _as_readonly(self.c)
        if c.ndim != 1:
            raise ValueError("constraint coefficients must be a 1-d vector")
        if not np.isfinite(c).all() or not np.isfinite(self.d):
            raise ValueError("constraint coefficients must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", float(self.d))

    def margin(self, y) -> float:
        return float(self.c @ np.asarray(y, dtype=float) + self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutputConstraint):
            return NotImplemented
        return np.array_equal(self.c, other.c) and self.d == other.d


@dataclass(frozen=True)
class Property:
    """A verification problem: input box plus one output constraint."""

    input: InputBox
    output: OutputConstraint
    name: str = ""


def holds_concretely(p: Property, net: Network, x) -> bool:
    """Evaluate the output constraint at the concrete point N(x)."""
    v = np.asarray(x, dtype=float)
    if not p.input.contains(v, tol=0.0):
        raise ValueError("point lies outside the property's input box")
    return p.output.margin(evaluate(net, v)) >= 0.0


def property_to_json(p: Property) -> dict:
    return {
        "name": p.name,
        "input": {"lower": p.input.lower.tolist(), "upper": p.input.upper.tolist()},
        "output": {"c": p.output.c.tolist(), "d": p.output.d},
    }


def property_from_json(obj: object, where: str = "property") -> Property:
    """The property a parsed JSON document describes, its fields named from ``where``.

    The document is ``{"name": str (optional), "input": {"lower": numbers,
    "upper": numbers}, "output": {"c": numbers, "d": number (default 0)}}``.
    A field of the wrong kind, or a box or constraint that ``InputBox`` or
    ``OutputConstraint`` refuse, raises ParseError naming the field.
    """
    obj = expect(obj, "an object", where)
    name = expect(obj.get("name", ""), "a string", f"{where}.name")
    box = expect(obj.get("input"), "an object", f"{where}.input")
    out = expect(obj.get("output"), "an object", f"{where}.output")
    lower, upper = (expect(box.get(k), "a list of numbers", f"{where}.input.{k}") for k in ("lower", "upper"))
    c = expect(out.get("c"), "a list of numbers", f"{where}.output.c")
    d = float(expect(out.get("d", 0.0), "a number", f"{where}.output.d"))
    return built(where, lambda: Property(InputBox(lower, upper), OutputConstraint(c, d), name=name))


def save_property(p: Property, path) -> None:
    write_json(property_to_json(p), path)


def load_property(path) -> Property:
    return property_from_json(read_json(path), where=str(path))

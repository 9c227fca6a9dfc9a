"""Tests for input boxes, output constraints, and property files."""

import numpy as np
import pytest

from incver.model import Affine, Network, ParseError, Relu
from incver.props import (
    InputBox,
    OutputConstraint,
    Property,
    holds_concretely,
    load_property,
    property_from_json,
    save_property,
)


def constant_net(value):
    return Network((Affine(np.zeros((1, 2)), np.array([float(value)])),))


def test_box_validation():
    with pytest.raises(ValueError, match="dimension 0"):
        InputBox(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        InputBox(np.array([0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        InputBox(np.array([np.nan]), np.array([1.0]))


def test_box_helpers():
    box = InputBox(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    assert box.dim == 2
    assert np.array_equal(box.widths(), [1.0, 2.0])
    assert box.contains([0.5, 0.0])
    assert not box.contains([1.5, 0.0])
    assert box.contains([1.0 + 1e-9, 0.0], tol=1e-8)
    assert np.array_equal(box.clip([2.0, -3.0]), [1.0, -1.0])


def test_holds_concretely():
    box = InputBox(np.zeros(2), np.ones(2))
    p = Property(box, OutputConstraint(np.array([1.0]), 0.0))
    assert holds_concretely(p, constant_net(3), [0.5, 0.5])
    p14 = Property(box, OutputConstraint(np.array([1.0]), 14.0))
    assert not holds_concretely(p14, constant_net(-20), [0.5, 0.5])
    with pytest.raises(ValueError, match="outside"):
        holds_concretely(p, constant_net(3), [2.0, 0.5])


def test_property_round_trip(tmp_path):
    box = InputBox(np.array([0.2, 0.7, 0.45]), np.array([0.3, 0.8, 0.55]))
    p = Property(box, OutputConstraint(np.array([-1.0, 0.0, 1.0]), 0.0), name="rt")
    path = tmp_path / "prop.json"
    save_property(p, path)
    q = load_property(path)
    assert q.name == "rt"
    assert q.input == p.input
    assert q.output == p.output


def test_property_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="lower"):
        property_from_json({"name": "x", "input": {"upper": [1.0]}, "output": {"c": [1.0]}})
    path = tmp_path / "bad.json"
    path.write_text('{"name":"b","input":{"lower":[1.0],"upper":[0.0]},"output":{"c":[1.0],"d":0}}')
    with pytest.raises(ParseError, match="dimension 0"):
        load_property(path)


@pytest.mark.parametrize(
    "box, out, field",
    [
        ({"lower": [True], "upper": [1.0]}, {"c": [1.0]}, "lower"),
        ({"lower": [0.0], "upper": [1.0]}, {"c": [False]}, "c"),
        ({"lower": [0.0], "upper": [1.0]}, {"c": [1.0], "d": True}, "d"),
    ],
)
def test_property_rejects_booleans_as_numbers(box, out, field):
    with pytest.raises(ParseError, match=rf"\.{field}: expected"):
        property_from_json({"name": "b", "input": box, "output": out})

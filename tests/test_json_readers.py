"""The JSON readers take any document: they return, or raise ParseError.

Each reader gets arbitrary JSON built over the field names the readers
look up, and the shipped or hand-written valid documents with one value
somewhere inside them replaced by such JSON.  Any exception other than
ParseError fails the test.
"""

import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from incver.cli import load_plan
from incver.model import ParseError, network_from_json
from incver.props import property_from_json
from incver.spectree import tree_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

KEYS = (
    # trees
    "branching", "nodes", "id", "parent", "decision", "kind", "layer", "neuron", "sign",
    "dim", "half", "cut", "split", "left", "right", "lb", "status",
    # networks and properties
    "name", "layers", "type", "weights", "bias", "input", "output", "lower", "upper", "c", "d",
    # plans
    "networks", "perturbations", "properties", "modes", "output_dir", "timeout",
    "fraction", "seed", "matrix", "mode", "heuristic", "alpha", "theta",
)
HUGE = 10**400  # an integer no float can hold
VALUES = (
    "relu", "input", "+", "-", "low", "high", "Verified", "Unknown", "Unanalyzed",
    "affine", "quantize_int8", "quantize_int16", "uniform_random", "last_layer",
    "baseline", "reuse", "reorder", "ivan", "random", "coefwidth", "",
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((HUGE, -HUGE))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(KEYS + VALUES)
    | st.text(max_size=3)
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=6),
    max_leaves=16,
)


def paths(node, path=()):
    """Every path into a JSON document, the empty path to the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with the value at one of its paths replaced by arbitrary JSON."""
    path = draw(st.sampled_from(list(paths(doc))))
    if not path:
        return draw(documents)
    return replaced(doc, path, draw(documents))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at the nonempty ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def relu(layer, neuron, sign):
    return {"kind": "relu", "layer": layer, "neuron": neuron, "sign": sign}


TREE = {
    "branching": "relu",
    "nodes": [
        {"id": 0, "parent": None, "decision": None, "split": {"left": 1, "right": 2},
         "lb": -1.0, "status": "Unknown"},
        {"id": 1, "parent": 0, "decision": relu(0, 0, "+"), "split": None,
         "lb": 0.5, "status": "Verified"},
        {"id": 2, "parent": 0, "decision": relu(0, 0, "-"), "split": None,
         "lb": None, "status": "Unanalyzed"},
    ],
}
INPUT_TREE = {
    "branching": "input",
    "nodes": [
        {"id": 0, "parent": None, "decision": None, "split": {"left": 1, "right": 2}},
        {"id": 1, "parent": 0, "decision": {"kind": "input", "dim": 0, "half": "low", "cut": 0.5}},
        {"id": 2, "parent": 0, "decision": {"kind": "input", "dim": 0, "half": "high", "cut": 0.5}},
    ],
}
PLAN = {
    "networks": ["net.json"],
    "perturbations": [
        {"kind": "quantize_int8"},
        {"kind": "uniform_random", "fraction": 0.01, "seed": 3},
        {"kind": "last_layer", "matrix": [[0.1, -0.2]]},
    ],
    "properties": ["prop.json"],
    "modes": [{"mode": "ivan", "heuristic": "random", "alpha": 0.25, "theta": 1.0, "seed": 2}],
    "output_dir": "out",
    "timeout": 5.0,
}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def parses_or_refuses(read, doc):
    try:
        read(doc)
    except ParseError:
        pass


@FUZZ
@given(documents | mutated(TREE) | mutated(INPUT_TREE))
def test_tree_reader_raises_only_parse_errors(doc):
    parses_or_refuses(tree_from_json, doc)


@FUZZ
@given(documents | mutated(fixture("demo_network.json")))
def test_network_reader_raises_only_parse_errors(doc):
    parses_or_refuses(network_from_json, doc)


@FUZZ
@given(documents | mutated(fixture("demo_property.json")))
def test_property_reader_raises_only_parse_errors(doc):
    parses_or_refuses(property_from_json, doc)


@pytest.fixture(scope="module")
def read_plan(tmp_path_factory):
    """``load_plan`` of a document, written to a file first."""
    path = tmp_path_factory.mktemp("plan") / "plan.json"

    def read(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_plan(path)

    return read


@FUZZ
@given(doc=documents | mutated(PLAN))
def test_plan_reader_raises_only_parse_errors(doc, read_plan):
    parses_or_refuses(read_plan, doc)


def test_readers_refuse_integers_no_float_holds(read_plan):
    # the valid documents the fuzzing starts from parse, and each with one
    # number replaced by an integer beyond the float range is refused
    network, prop = fixture("demo_network.json"), fixture("demo_property.json")
    cases = [
        (tree_from_json, TREE, ("nodes", 0, "lb")),
        (tree_from_json, INPUT_TREE, ("nodes", 1, "decision", "cut")),
        (network_from_json, network, ("layers", 0, "weights", 0, 0)),
        (network_from_json, network, ("layers", 0, "bias", 1)),
        (property_from_json, prop, ("input", "upper", 0)),
        (property_from_json, prop, ("output", "d")),
        (read_plan, PLAN, ("timeout",)),
        (read_plan, PLAN, ("modes", 0, "alpha")),
        (read_plan, PLAN, ("perturbations", 1, "fraction")),
        (read_plan, PLAN, ("perturbations", 2, "matrix", 0, 0)),
    ]
    for read, doc, path in cases:
        read(doc)
        with pytest.raises(ParseError):
            read(replaced(doc, path, HUGE))

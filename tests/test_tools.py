"""The scripts under tools/ still import against the package's current API."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from incver.heuristics import BaseHeuristic, HeuristicConfig
from incver.model import load_network
from incver.props import load_property
from incver.spectree import observed_scores
from incver.verifier import VerifierConfig, verify

TOOLS = Path(__file__).resolve().parent.parent / "tools"
FIXTURES = TOOLS.parent / "fixtures"


def load_tool(name, monkeypatch):
    """Import tools/<name>.py as a module without running its main."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body runs
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tools prepend to it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["make_demo_fixture", "work_signature"])
def test_tool_imports(name, monkeypatch):
    assert callable(load_tool(name, monkeypatch).main)


def test_fixture_tool_scores_the_demo_chain(monkeypatch):
    # The shipped demo's seed orders the base scores r1 > r3 > r4 > r2, and
    # its baseline tree's observations invert that into r4 > r3 > r2 > r1.
    tool = load_tool("make_demo_fixture", monkeypatch)
    knobs = json.loads((FIXTURES / "demo_config.json").read_text(encoding="utf-8"))
    heur = HeuristicConfig(
        base=BaseHeuristic(knobs["heuristic"]),
        alpha=knobs["alpha"],
        theta=knobs["theta"],
        seed=knobs["seed"],
    )
    net = load_network(FIXTURES / "demo_network.json")
    prop = load_property(FIXTURES / "demo_property.json")
    first = verify(net, prop, VerifierConfig(heuristic=heur, timeout=30.0))
    hobs = observed_scores(first.tree)
    assert tool.base_order_ok(heur.seed)
    assert tool.chain_ok(heur.seed, heur.theta, hobs)
    assert not tool.chain_ok(heur.seed, heur.theta, {})


def test_signature_compares_only_the_expected_fields(monkeypatch):
    # A saved signature from before a counter existed still compares: the
    # field it lacks is skipped, while a field it has and the new one lacks,
    # or a differing value, is named.
    tool = load_tool("work_signature", monkeypatch)
    old = {"boundings": 9, "sha256": "ab", "modes": {"ivan": {"passes": 5}}}
    new = {**old, "walks": 13, "modes": {"ivan": {"passes": 5, "walks": 7}}}
    assert tool.differences(new, old) == {}
    assert tool.differences(old, new) == {"walks": (13, None), "ivan.walks": (7, None)}
    assert tool.differences({**new, "boundings": 8}, old) == {"boundings": (9, 8)}


def test_signature_pins_blas_or_refuses():
    # Imported before numpy, the tool pins BLAS to one thread; imported
    # after numpy loaded without the pin, it refuses to compute a signature,
    # whose digests could then differ from the benchmark's bits.
    load = (
        "import importlib.util, os, sys\n"
        "spec = importlib.util.spec_from_file_location('ws', sys.argv[1])\n"
        "tool = importlib.util.module_from_spec(spec)\n"
        "sys.modules['ws'] = tool\n"
        "spec.loader.exec_module(tool)\n"
    )
    report = (
        "print(tool.BLAS_PINNED, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "try:\n"
        "    tool.signature('no-such-workload', 1)\n"
        "except RuntimeError as exc:\n"
        "    print('refused', 'pinned' in str(exc))\n"
        "except KeyError:\n"
        "    print('ran')\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(TOOLS.parent / "src")}
    tool = str(TOOLS / "work_signature.py")
    outs = [
        subprocess.run(
            [sys.executable, "-c", first + load + report, tool],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        for first in ("", "import numpy\n")
    ]
    assert outs == [["True", "1", "ran"], ["False", "None", "refused", "True"]]

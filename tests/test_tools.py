"""The scripts under tools/ still import against the package's current API."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name, monkeypatch):
    """Import tools/<name>.py as a module without running its main."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body runs
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tools prepend to it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["work_signature"])
def test_tool_imports(name, monkeypatch):
    assert callable(load_tool(name, monkeypatch).main)


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


def test_stage_table_lists_every_mode_and_run(monkeypatch):
    # One row per mode and run, time columns that add up to the total, and
    # the same work columns as the runs' metrics report.
    tool = load_tool("work_signature", monkeypatch)
    lines = tool.stage_table("deep-16x3", 1, 1).splitlines()
    assert lines[0] == "stages of deep-16x3 seed 1: ms, best of 1 passes"
    assert lines[1].split() == [
        "mode", "run", "total", "propagate", "build", "solve", "other", "lps", "warm", "pivots", "phase1"
    ]
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        [mode, run] for mode in ("baseline", "reuse", "reorder", "ivan") for run in ("first", "second")
    ]
    for row in rows:
        total, *stages = map(float, row[2:7])
        assert abs(sum(stages) - total) < 0.5  # each column is rounded to 0.1 ms
        lps, warm, pivots, phase1 = map(int, row[7:])
        assert warm <= lps and phase1 <= pivots
    assert sum(int(row[9]) for row in rows) > 0

"""The scripts under tools/ still import against the package's current API."""

import importlib.util
import json
import re
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


@pytest.mark.parametrize("name", ["work_signature", "code_lines", "pairs"])
def test_tool_imports(name, monkeypatch):
    assert callable(load_tool(name, monkeypatch).main)


SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # and a trailing one


def f(x):
    """A function docstring."""
    y = (x +
         1)
    s = """a string
over two lines"""
    return y


class C:
    """A class docstring."""

    z = 1
    "a string statement after the docstring"
'''


def test_code_lines_counts_a_module_exactly(tmp_path, monkeypatch, capsys):
    # Code lines: import, def, the two lines of y, the two of s, return,
    # class, z and the string statement.  Statements: the same but y and s
    # one each; the three docstrings count as neither.
    tool = load_tool("code_lines", monkeypatch)
    assert tool.count(SOURCE) == (10, 8)
    package = tmp_path / "src" / "incver"
    package.mkdir(parents=True)
    (package / "m.py").write_text(SOURCE, encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["m", "10", "8"]
    assert json.loads(lines[-1]) == [{"root": str(tmp_path), "code_lines": 10, "statements": 8}]


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


def test_expect_reads_a_saved_output_or_a_trajectory_point(tmp_path, monkeypatch):
    # --expect takes the last line of a saved output, or the work a
    # trajectory point holds for the workload and seed.
    tool = load_tool("work_signature", monkeypatch)
    sig = {"workload": "deep-16x3", "seed": 2, "boundings": 9}
    saved = tmp_path / "before.txt"
    saved.write_text("total     boundings     9\n" + json.dumps(sig) + "\n", encoding="utf-8")
    assert tool.saved_signature(saved, "deep-16x3", 2) == sig
    point = tmp_path / "BENCH_1.json"
    point.write_text(json.dumps({"work": {"deep-16x3": {"2": sig}}}, indent=1), encoding="utf-8")
    assert tool.saved_signature(point, "deep-16x3", 2) == sig
    with pytest.raises(KeyError):
        tool.saved_signature(point, "deep-16x3", 3)


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
        "mode", "run", "total", "propagate", "build", "solve", "other", "lps", "warm", "certified", "pivots",
        "phase1", "factorizations", "corners", "passes", "batches",
    ]
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        [mode, run] for mode in ("baseline", "reuse", "reorder", "ivan") for run in ("first", "second")
    ]
    for row in rows:
        total, *stages = map(float, row[2:7])
        assert abs(sum(stages) - total) < 0.5  # each column is rounded to 0.1 ms
        lps, warm, certified, pivots, phase1, factorizations, corners, passes, batches = map(int, row[7:])
        assert warm <= lps and phase1 <= pivots
        assert certified == 0 or row[:2] in (["reuse", "second"], ["ivan", "second"])
        assert lps <= factorizations <= 4 * lps  # one to four per LP
        assert corners == 0  # no walk corner of deep-16x3 violates
        assert 1 <= batches <= passes  # a batched call runs one pass or more
    assert sum(int(row[10]) for row in rows) > 0
    assert sum(int(row[9]) for row in rows) > 0  # deep-16x3's reuse certifies leaves


def test_work_matches_the_newest_benchmark_point():
    # The newest BENCH_*.json pins seed 1's work and digests of deep-16x3
    # (few large LPs), input-split (many small ones, few phase-1 pivots and
    # none infeasible) and quant-8x6 (the most phase-1 pivots and
    # infeasible LPs); the tool, in a process of its own that pins BLAS,
    # must reproduce them all, reading them from the point itself.
    points = TOOLS.parent.glob("BENCH_*.json")
    newest = max(points, key=lambda p: int(re.fullmatch(r"BENCH_(\d+)\.json", p.name)[1]))
    for workload in ("deep-16x3", "input-split", "quant-8x6"):
        run = subprocess.run(
            [sys.executable, str(TOOLS / "work_signature.py"), "--workload", workload,
             "--seed", "1", "--expect", str(newest)],
            capture_output=True, text=True,
        )
        assert run.returncode == 0, (newest.name, workload, run.stderr)


def canned_run(reuse, sp_ivan, failed=0):
    """A perfbench --trace 0 output: two lines of context, then the result line."""
    result = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {
            "reverify_s.reuse": {"value": reuse, "unit": "s"},
            "sp_ivan": {"value": sp_ivan, "unit": "ratio"},
            "trace.wall_s": {"value": 1.0, "unit": "s"},  # not an end-to-end metric
        },
    }
    return "\n".join([json.dumps({"environment": {}}), json.dumps({"detail": {}}), json.dumps(result)])


def test_pairs_reads_canned_runs_into_medians_wins_and_an_aa_reading(monkeypatch):
    tool = load_tool("pairs", monkeypatch)
    assert tool.orders(4) == [True, False, True, False]  # ABBA: the base first in even pairs
    read = lambda pairs: [tool.last_json(canned_run(*pair)) for pair in pairs]  # noqa: E731
    base = read([(0.030, 2.0), (0.028, 2.2), (0.032, 1.9), (0.029, 2.1), (0.031, 2.0)])
    change = read([(0.026, 2.1), (0.027, 2.1), (0.025, 2.0), (0.030, 2.1), (0.024, 1.9, 1)])
    aa_base = read([(0.030, 2.0), (0.029, 2.0)])
    aa_copy = read([(0.031, 2.0), (0.028, 2.1)])
    summary = tool.summarize(base, change, aa_base, aa_copy, tool.directions())
    assert (summary["pairs"], summary["aa"]) == (5, 2)
    assert summary["correct"] is False and summary["failed"] == {"base": 0, "change": 1}
    assert list(summary["metrics"]) == ["reverify_s.reuse", "sp_ivan"]
    reuse = summary["metrics"]["reverify_s.reuse"]
    # base sorted 0.028 0.029 0.030 0.031 0.032: median 0.030, inclusive quartiles 0.029 and 0.031
    assert reuse["base"] == pytest.approx({"median": 0.030, "q1": 0.029, "q3": 0.031})
    assert reuse["change"] == pytest.approx({"median": 0.026, "q1": 0.025, "q3": 0.027})
    assert reuse["delta"] == pytest.approx(0.026 / 0.030 - 1)
    assert reuse["wins"] == 4  # lower is better; pair 4 reads 0.029 -> 0.030
    assert reuse["gain_iqr"] == pytest.approx(0.004 / 0.002)
    assert reuse["aa_delta"] == pytest.approx(0.0295 / 0.0295 - 1)
    assert reuse["aa_wins"] == 1
    sp = summary["metrics"]["sp_ivan"]  # higher is better
    assert sp["wins"] == 2 and sp["delta"] == pytest.approx(2.1 / 2.0 - 1)
    assert sp["gain_iqr"] == pytest.approx(0.1 / 0.1)
    assert sp["aa_wins"] == 1 and sp["aa_delta"] == pytest.approx(2.05 / 2.0 - 1)
    lines = tool.table(summary).splitlines()
    assert lines[1].startswith("reverify_s.reuse") and "-13.3%" in lines[1] and "4/5" in lines[1]
    assert lines[-1] == "correct: False; failed operations: base 0, change 1"

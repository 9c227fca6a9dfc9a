"""Paired benchmark runs of a base revision against the working tree, with an A/A control.

Copies REV (``git archive``) and the working tree's tracked files (``git
stash create``, which snapshots them without touching the tree; a new file
must be added to the index first) into directories of equal path length
under one temporary directory, then runs ``perfbench/run.py --trace 0`` in
each, one process at a time, with ``PYTHONDONTWRITEBYTECODE=1`` so that no
copy reads another run's compiled modules.  Pair i runs the base first when
i is even and the change first when it is odd (ABBA), so neither side
always gets the first slot.  With ``--aa K`` it then runs K pairs of REV
against a second copy of REV, the second copy in the change's slots: the
spread a change of nothing reads.  Run from the repository root:

    python3 tools/pairs.py --base HEAD --workload input-split --seed 5 \\
        --pairs 10 --seconds 15 --aa 4

For each end-to-end metric it prints the base's and the change's median,
first and third quartile, the change's median against the base's, the
pairs whose change was better (by the direction ``BENCHMARK.json`` gives
the metric), the improvement in units of the base's interquartile range
(above 1: the median moved by more than the base's quartiles are apart),
and the A/A control's median change and wins.  The last line of standard
output is one JSON object with the same figures, the runs' failed
operations and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions() -> dict:
    """Each end-to-end metric's better direction, "lower" or "higher", from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def orders(pairs: int) -> list:
    """ABBA: for each pair, whether the base runs first."""
    return [i % 2 == 0 for i in range(pairs)]


def quartiles(values) -> dict:
    """Median, first and third quartile (inclusive method, as for a small sample)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(base: list, change: list, better: str) -> dict:
    """The change's values against the base's, paired in order."""
    sign = 1.0 if better == "lower" else -1.0
    b, c = quartiles(base), quartiles(change)
    gain = sign * (b["median"] - c["median"])  # > 0: the change is better
    iqr = b["q3"] - b["q1"]
    return {
        "base": b,
        "change": c,
        "delta": c["median"] / b["median"] - 1.0 if b["median"] else None,
        "wins": sum(sign * (x - y) > 0 for x, y in zip(base, change)),
        "gain_iqr": gain / iqr if iqr > 0 else None,  # None: the base's quartiles coincide
    }


def summarize(base: list, change: list, aa_base: list, aa_copy: list, better: dict) -> dict:
    """Per-metric comparison of paired perfbench results (their last-line JSON objects).

    ``base`` and ``change`` are the pairs' runs, in pair order; ``aa_base``
    and ``aa_copy`` those of the A/A control's pairs (empty without one).
    Metrics without a direction in ``better`` are left out.
    """
    runs = base + change + aa_base + aa_copy
    names = [name for name in base[0]["metrics"] if name in better]
    metrics = {}
    for name in names:
        values = lambda side: [r["metrics"][name]["value"] for r in side]  # noqa: E731
        entry = compare(values(base), values(change), better[name])
        entry["unit"] = base[0]["metrics"][name]["unit"]
        if aa_base:
            aa = compare(values(aa_base), values(aa_copy), better[name])
            entry["aa_delta"], entry["aa_wins"] = aa["delta"], aa["wins"]
        metrics[name] = entry
    return {
        "pairs": len(base),
        "aa": len(aa_base),
        "correct": all(r["correct"] for r in runs),
        "failed": {
            "base": sum(r["failed"] for r in base + aa_base + aa_copy),
            "change": sum(r["failed"] for r in change),
        },
        "metrics": metrics,
    }


def table(summary: dict) -> str:
    """The summary as one line per metric."""
    pct = lambda x: "    n/a" if x is None else f"{x * 100:+6.1f}%"  # noqa: E731
    n, k = summary["pairs"], summary["aa"]
    lines = [
        f"{'metric':22s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
        f" {'delta':>8s} {'wins':>6s} {'gain/IQR':>9s}" + (f" {'A/A':>8s} {'wins':>6s}" if k else "")
    ]
    for name, e in summary["metrics"].items():
        b, c = e["base"], e["change"]
        gain = "n/a" if e["gain_iqr"] is None else f"{e['gain_iqr']:+.2f}"
        spread = lambda q: f"{q['median']:.6g} [{q['q1']:.4g}, {q['q3']:.4g}]"  # noqa: E731
        line = f"{name:22s} {spread(b):>32s} {spread(c):>32s} {pct(e['delta'])}"
        line += f" {e['wins']:>3d}/{n:<2d} {gain:>9s}"
        if k:
            line += f" {pct(e['aa_delta'])} {e['aa_wins']:>3d}/{k:<2d}"
        lines.append(line)
    lines.append(
        f"correct: {summary['correct']}; failed operations: base {summary['failed']['base']},"
        f" change {summary['failed']['change']}"
    )
    return "\n".join(lines)


def last_json(text: str) -> dict:
    """The JSON object on a perfbench run's last line of output."""
    return json.loads(text.strip().splitlines()[-1])


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def copy(rev: str, dest: Path) -> None:
    """Extract REV's tracked files into ``dest``."""
    dest.mkdir()
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data.stdout, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``; its last-line JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return last_json(out.stdout)


def paired(first: Path, second: Path, pairs: int, args) -> tuple:
    """``pairs`` ABBA-ordered runs of two checkouts; each side's results in pair order."""
    a, b = [], []
    for i, base_first in enumerate(orders(pairs)):
        slots = [(first, a), (second, b)] if base_first else [(second, b), (first, a)]
        for checkout, results in slots:
            results.append(run(checkout, args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    return a, b


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, metavar="REV", help="the revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--aa", type=int, default=0, metavar="K", help="pairs of REV against a second copy")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.aa < 0:
        p.error("--pairs must be at least 1 and --aa at least 0")
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}").strip()
    head_rev = git("stash", "create").strip() or git("rev-parse", "HEAD").strip()
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base, change, second = Path(tmp) / "A", Path(tmp) / "B", Path(tmp) / "C"
        copy(base_rev, base)
        copy(head_rev, change)
        base_runs, change_runs = paired(base, change, args.pairs, args)
        aa_base, aa_copy = [], []
        if args.aa:
            copy(base_rev, second)
            aa_base, aa_copy = paired(base, second, args.aa, args)
    summary = summarize(base_runs, change_runs, aa_base, aa_copy, directions())
    summary.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "base": base_rev, "change": head_rev})
    print(table(summary))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

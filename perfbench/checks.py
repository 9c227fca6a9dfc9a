"""Correctness checks run outside the timed section.

Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from incver.model import evaluate
from incver.verifier import Mode, RunVerdict

from workloads import box_points, forward

ORACLE_SAMPLES = 20_000
HIGHS_GAP_LIMIT = 1e-6
# Second-run (boundings, branchings) of the demo fixture, pinned per mode.
DEMO_PINNED = {"baseline": (9, 4), "reuse": (5, 0), "ivan": (3, 0)}


def _check_run(net, prop, run, sampled_min, where) -> list:
    if run.verdict is RunVerdict.COUNTEREXAMPLE:
        x = run.counterexample
        if not prop.input.contains(x) or prop.output.margin(evaluate(net, x)) >= 0.0:
            return [f"{where}: counterexample does not violate the property"]
    elif run.verdict is RunVerdict.VERIFIED:
        if sampled_min < 0.0:
            return [f"{where}: Verified, but a sampled input violates by {-sampled_min:.3g}"]
    else:
        return [f"{where}: undecided ({run.verdict.value}: {run.note})"]
    return []


def check_verdicts(instances, results, seed: int) -> list:
    """Oracle checks of one pass; ``results[i][mode]`` is (first, second)."""
    rng = np.random.default_rng(seed)
    errors = []
    for inst, per_mode in zip(instances, results):
        prop = inst.prop
        points = box_points(prop.input, rng, ORACLE_SAMPLES)
        mins = {
            id(net): float((forward(net, points) @ prop.output.c).min() + prop.output.d)
            for net in (inst.original, inst.updated)
        }
        base_first, base_second = per_mode[Mode.BASELINE]
        for mode, (first, second) in per_mode.items():
            where = f"{inst.name} {mode.value}"
            errors += _check_run(inst.original, prop, first, mins[id(inst.original)], where + " first")
            errors += _check_run(inst.updated, prop, second, mins[id(inst.updated)], where + " second")
            if first.verdict is not base_first.verdict:
                errors.append(f"{where}: first verdict differs from baseline's")
            if second.verdict is not base_second.verdict:
                errors.append(f"{where}: second verdict differs from baseline's")
    return errors


def check_demo_cli(root) -> list:
    """The demo fixture through ``python -m incver.cli`` reproduces its pinned counts."""
    fixtures = root / "fixtures"
    knobs = json.loads((fixtures / "demo_config.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    errors = []
    for mode, pinned in DEMO_PINNED.items():
        cmd = [
            sys.executable, "-m", "incver.cli", "verify-incremental",
            "--network", str(fixtures / "demo_network.json"),
            "--updated-network", str(fixtures / "demo_updated.json"),
            "--property", str(fixtures / "demo_property.json"),
            "--mode", mode,
            "--heuristic", str(knobs["heuristic"]),
            "--seed", str(knobs["seed"]),
            "--alpha", str(knobs["alpha"]),
            "--theta", str(knobs["theta"]),
        ]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
        try:
            second = json.loads(proc.stdout)["second"]
            got = (second["metrics"]["boundings"], second["metrics"]["branchings"])
        except (ValueError, KeyError) as exc:
            errors.append(f"demo {mode}: unreadable CLI output ({exc}); stderr: {proc.stderr[-200:]}")
            continue
        if proc.returncode != 0 or second["verdict"] != "Verified" or got != pinned:
            errors.append(f"demo {mode}: exit {proc.returncode}, {second['verdict']} {got}, pinned {pinned}")
    return errors


def _highs_problem(lp):
    """The program in ``scipy.optimize.linprog`` form."""
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for row, rel, rhs in lp.constraints:
        if rel == "=":
            eq_rows.append(row)
            eq_rhs.append(rhs)
        else:
            sign = 1.0 if rel == "<=" else -1.0
            ub_rows.append(sign * row)
            ub_rhs.append(sign * rhs)
    bounds = [
        (lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None)
        for lo, hi in lp.var_bounds
    ]
    return {
        "c": lp.objective,
        "A_ub": np.array(ub_rows) if ub_rows else None,
        "b_ub": np.array(ub_rhs) if ub_rows else None,
        "A_eq": np.array(eq_rows) if eq_rows else None,
        "b_eq": np.array(eq_rhs) if eq_rows else None,
        "bounds": bounds,
    }


def highs_yardstick(captured, pace) -> tuple:
    """Re-solve captured (program, outcome) pairs with HiGHS.

    Returns (mean HiGHS milliseconds, calibrated by ``pace``, worst relative
    optimum gap, errors).  A status disagreement counts as an infinite gap.
    """
    from scipy.optimize import linprog

    pace.prime()
    times, worst, errors = [], 0.0, []
    for k, (lp, ours) in enumerate(captured):
        problem = _highs_problem(lp)
        start = time.perf_counter()
        try:
            res = linprog(method="highs", **problem)
            status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "error")
        except ValueError:  # crossed variable bounds
            res, status = None, "infeasible"
        times.append((time.perf_counter() - start) * pace.factor())
        if status != ours.status.value:
            gap = math.inf
        elif status == "optimal":
            gap = abs(ours.value - res.fun) / max(1.0, abs(res.fun))
        else:
            gap = 0.0
        worst = max(worst, gap)
        if gap > HIGHS_GAP_LIMIT:
            errors.append(f"captured LP {k}: ours {ours.status.value} {ours.value}, HiGHS {status} gap {gap:.3g}")
    mean_ms = 1e3 * sum(times) / len(times) if times else 0.0
    return mean_ms, worst, errors

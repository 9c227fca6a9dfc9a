"""Print the work and a bit-level digest of one benchmark pass.

Builds the instances of a benchmark workload with ``perfbench/workloads.py``
and runs ``verify_incremental`` on each of them in all four modes, with the
configurations ``perfbench/run.py`` uses.  It prints, per mode and in total:

* boundings, branchings, propagation passes, their back-substitution
  walks, LPs solved, their summed pivots and the share of those that
  phase 1 applied, their factorizations of a basis matrix, the LPs that
  a carried basis answered with no pivot, the boundings that a carried
  basis's duals proved without an LP, the batched propagation calls, the
  boundings that found their region empty and those refuted at their walk
  corner without an LP (from the runs' metrics);
* a SHA-256 over every run's verdict, counts, counterexample bytes and each
  tree node's ``(id, lb.hex())``;
* a verdict digest: a SHA-256 over every run's verdict alone;
* an LP digest: a SHA-256 over every program an LP answered, once each:
  those handed to ``solve`` and those a carried basis answered through
  ``price_basis`` (both wrapped the same way).  It digests the program's
  ``objective``, ``var_bounds`` and ``at_upper`` (start corner) bytes and,
  row by row of its ``constraints``, ``(row.tobytes(), rel, rhs.hex())``.
  A program that a carried basis certified is not digested, since no LP
  answered it; one that ``price_basis`` read and left to ``solve`` is
  digested once, by ``solve``.

Two commits that print the same digests did the same search and proved the
same bounds, bit for bit; the same LP digests mean they solved the same
programs, row for row, from the same start corners.  A change that only
records different lower bounds keeps the verdict digest.  Run from the
repository root:

    python3 tools/work_signature.py --workload quant-8x6 --seed 1

BLAS runs on one thread, pinned before numpy loads as ``perfbench/run.py``
pins it, so the digests are the bits the benchmark computes whatever the
caller's environment says.  The pin is set when this module is imported
before numpy, as a script or from a harness.  A process that loaded numpy
first without the pin may compute other bits (multi-threaded BLAS sums in
another order), so :func:`signature` raises RuntimeError there.

The last line of standard output is one JSON object with the totals.  With
``--expect FILE`` the script also compares it with a saved object, the
per-mode rows included, and names each field that differs; a field the
saved object lacks (a counter added since) is not compared.  FILE is a
saved output, whose last line is that object, or a trajectory point
written by ``--bench``, whose ``work`` holds the object (without per-mode
rows) for each workload and seed.  It exits 1 when a count, the instance
digest or a verdict digest differs: the search changed.  It exits 2 when
only the bit-level digests differ (the run and LP SHA-256s): the same
search, whose bounds and programs differ in the last bits, as after a
change in the order of floating-point operations.

    python3 tools/work_signature.py --workload quant-8x6 --seed 1 > before.txt
    # ... change the code ...
    python3 tools/work_signature.py --workload quant-8x6 --seed 1 --expect before.txt
    python3 tools/work_signature.py --workload quant-8x6 --seed 1 --expect BENCH_29.json

With ``--stages N`` the script then runs the pass N more times, with the
plain solver (no LP digest), and prints to standard error, after the
JSON line, where each mode's first and second runs spent their time: the
best of the N passes, in milliseconds summed over the instances, of
propagation, LP building, LP solving and the rest of the runs' wall time,
next to their LPs, those of them a carried basis answered (warm),
certified boundings, pivots, phase-1 pivots, factorizations, corner
refutations, propagation passes and the batched propagation calls that
ran them, so that propagation's time per batch can be read off.  A
certified bounding's program build counts as LP building, and its duality
check as LP solving.
The table is not part of the JSON that ``--expect`` compares.

    python3 tools/work_signature.py --workload deep-16x3 --seed 1 --stages 5

With ``--bench FILE`` (and no ``--workload``/``--seed``) it writes one point
of the benchmark trajectory as JSON: the signature totals of every workload
at seeds 1-3, the medians and spreads of the end-to-end metrics of
``BENCH_RUNS`` runs of ``perfbench/run.py --trace 0`` per workload, and the
environment.  That takes about ten minutes on a 2-core x86 machine:

    python3 tools/work_signature.py --bench BENCH_11.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:  # pin BLAS to one thread before numpy is imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
# numpy reads the pin when it loads; a process that loaded it unpinned keeps its threads
BLAS_PINNED = all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)

import numpy as np
import workloads  # perfbench/workloads.py
from incver import analyzer
from incver.heuristics import HeuristicConfig
from incver.verifier import Mode, VerifierConfig, verify_incremental

RUN_TIMEOUT = 60.0  # as perfbench/run.py
BENCH_SEEDS = (1, 2, 3)
BENCH_RUNS = 5  # perfbench runs per workload
BENCH_PERF_SEED = 1
BENCH_SECONDS = 30  # perfbench's run length, as BENCHMARK.json sets it
# fields whose difference is only in the last bits of the same search
BIT_DIGESTS = ("sha256", "lp_sha256", "sha", "lp_sha")
# the work counters read from each run's metrics
COUNTERS = (
    "boundings", "branchings", "passes", "walks", "lps", "pivots", "phase1_pivots", "factorizations",
    "warm", "batches", "infeasible", "corners", "certified",
)
# the stage timers and work counters of each run's metrics, as the stage table's columns
STAGES = ("propagate_s", "build_s", "solve_s")
WORK = ("lps", "warm", "certified", "pivots", "phase1_pivots", "factorizations", "corners", "passes", "batches")


def _lb_hex(lb) -> str:
    return "none" if lb is None else float(lb).hex()


def run_digest(res) -> bytes:
    """The bits one run is judged by: verdict, counts, counterexample, node bounds."""
    m = res.metrics
    parts = [res.verdict.value, str(m.boundings), str(m.branchings), str(m.nodes_final)]
    parts.append("none" if res.counterexample is None else res.counterexample.tobytes().hex())
    parts += [f"{nid}:{_lb_hex(res.tree.nodes[nid].lb)}" for nid in sorted(res.tree.nodes)]
    return "|".join(parts).encode()


def lp_digest(lp) -> bytes:
    """The bits of one bounding program: objective, variable bounds, start corner, rows in order."""
    parts = [lp.objective.tobytes(), lp.var_bounds.tobytes(), lp.at_upper.tobytes()]
    for row, rel, rhs in lp.constraints:
        parts += [row.tobytes(), rel.encode(), float(rhs).hex().encode()]
    return b"|".join(parts)


def _configs(workload: str) -> dict:
    """Each mode's configuration, as perfbench/run.py sets it for the workload."""
    fam = workloads.FAMILIES[workload]
    heuristic = HeuristicConfig(theta=fam.theta)
    return {
        mode: VerifierConfig(mode=mode, heuristic=heuristic, timeout=RUN_TIMEOUT, branching=fam.branching)
        for mode in Mode
    }


def signature(workload: str, seed: int) -> dict:
    if not BLAS_PINNED:
        raise RuntimeError(
            "numpy was loaded before BLAS was pinned to one thread, so the digests would "
            "not be the benchmark's bits; import tools/work_signature.py before numpy, or "
            "set " + ", ".join(f"{var}=1" for var in BLAS_THREAD_VARS) + " before starting Python"
        )
    configs = _configs(workload)
    instances = workloads.make_instances(workload, seed)
    per_mode = {
        mode.value: {
            **dict.fromkeys(COUNTERS, 0),
            "sha": hashlib.sha256(),
            "verdict_sha": hashlib.sha256(),
            "lp_sha": hashlib.sha256(),
        }
        for mode in Mode
    }
    total = hashlib.sha256()
    verdict_total = hashlib.sha256()
    lp_total = hashlib.sha256()
    # digest the LPs by wrapping the analyzer's solver and basis reader;
    # ``row`` is the current mode's counters, rebound by the loop below
    lp_solve, lp_price = analyzer.solve, analyzer.price_basis
    row = None

    def digest(lp):
        bits = lp_digest(lp)
        row["lp_sha"].update(bits)
        lp_total.update(bits)

    def digested_solve(lp, **kwargs):
        digest(lp)
        return lp_solve(lp, **kwargs)

    def digested_price(lp, basis, target):
        bound, out = lp_price(lp, basis, target)
        if out is not None:  # an LP the carried basis answered
            digest(lp)
        return bound, out

    analyzer.solve, analyzer.price_basis = digested_solve, digested_price
    try:
        for inst in instances:
            for mode, cfg in configs.items():
                row = per_mode[mode.value]
                pair = verify_incremental(inst.original, inst.updated, inst.prop, cfg)
                for res in pair:
                    for key in COUNTERS:
                        row[key] += getattr(res.metrics, key)
                    bits = run_digest(res)
                    row["sha"].update(bits)
                    total.update(bits)
                    row["verdict_sha"].update(res.verdict.value.encode())
                    verdict_total.update(res.verdict.value.encode())
    finally:
        analyzer.solve, analyzer.price_basis = lp_solve, lp_price
    digests = ("sha", "verdict_sha", "lp_sha")
    modes = {
        name: {**row, **{key: row[key].hexdigest() for key in digests}}
        for name, row in per_mode.items()
    }
    return {
        "workload": workload,
        "seed": seed,
        "instances_digest": workloads.digest(instances),
        **{key: sum(r[key] for r in modes.values()) for key in COUNTERS},
        "sha256": total.hexdigest(),
        "verdict_sha256": verdict_total.hexdigest(),
        "lp_sha256": lp_total.hexdigest(),
        "modes": modes,
    }


def stage_table(workload: str, seed: int, repeats: int) -> str:
    """Best-of-``repeats`` stage times of each mode's first and second runs, as text.

    Each pass runs every instance in every mode, as :func:`signature` does
    but with the plain solver.  A row sums one mode's first (or second)
    runs over the instances; each time column is the smallest such sum over
    the passes, ``other`` being the wall time the three stages leave.  The
    work columns are the same in every pass.
    """
    configs = _configs(workload)
    instances = workloads.make_instances(workload, seed)
    best = {}
    for _ in range(repeats):
        sums = {}
        for inst in instances:
            for mode, cfg in configs.items():
                pair = verify_incremental(inst.original, inst.updated, inst.prop, cfg)
                for run, res in zip(("first", "second"), pair):
                    m = res.metrics
                    row = sums.setdefault(
                        (mode.value, run), dict.fromkeys(("wall", "other", *STAGES, *WORK), 0)
                    )
                    row["wall"] += m.wall_time
                    row["other"] += m.wall_time - sum(getattr(m, key) for key in STAGES)
                    for key in (*STAGES, *WORK):
                        row[key] += getattr(m, key)
        for key, row in sums.items():
            best[key] = {k: min(v, best.get(key, row)[k]) for k, v in row.items()}
    lines = [
        f"stages of {workload} seed {seed}: ms, best of {repeats} passes",
        f"{'mode':9s} {'run':6s} {'total':>8s} {'propagate':>9s} {'build':>7s} {'solve':>8s} "
        f"{'other':>7s} {'lps':>5s} {'warm':>5s} {'certified':>9s} {'pivots':>7s} {'phase1':>6s} "
        f"{'factorizations':>14s} {'corners':>7s} {'passes':>6s} {'batches':>7s}",
    ]
    for (mode, run), row in best.items():
        lines.append(
            f"{mode:9s} {run:6s} {row['wall'] * 1e3:8.1f} {row['propagate_s'] * 1e3:9.1f} "
            f"{row['build_s'] * 1e3:7.1f} {row['solve_s'] * 1e3:8.1f} {row['other'] * 1e3:7.1f} "
            f"{row['lps']:5d} {row['warm']:5d} {row['certified']:9d} {row['pivots']:7d} {row['phase1_pivots']:6d} "
            f"{row['factorizations']:14d} {row['corners']:7d} {row['passes']:6d} {row['batches']:7d}"
        )
    return "\n".join(lines)


def _fields(sig: dict) -> dict:
    """The signature flattened to one level; per-mode fields read ``mode.field``."""
    flat = {key: value for key, value in sig.items() if key != "modes"}
    for mode, row in sig.get("modes", {}).items():
        flat.update({f"{mode}.{key}": value for key, value in row.items()})
    return flat


def differences(got: dict, want: dict) -> dict:
    """Each field of the expected signature whose value differs: (expected, got)."""
    g, w = _fields(got), _fields(want)
    return {key: (w[key], g.get(key)) for key in sorted(w) if g.get(key) != w[key]}


def saved_signature(path: Path, workload: str, seed: int) -> dict:
    """The signature ``--expect`` compares with: a trajectory point's work for
    the workload and seed, or a saved output's last line.  KeyError when a
    trajectory point has no work for them."""
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:  # a saved output: the table, then the JSON line
        doc = None
    if isinstance(doc, dict) and "work" in doc:
        return doc["work"][workload][str(seed)]
    return json.loads(text.strip().splitlines()[-1])


def perfbench_runs(workload: str) -> dict:
    """Median, spread and values of each end-to-end metric over BENCH_RUNS runs.

    The spread is (max - min) / median; ``correct`` is True only when every
    run reported correct outputs, and ``failed`` sums the failed operations.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(BENCH_PERF_SEED), "--seconds", str(BENCH_SECONDS), "--trace", "0"]
    runs = []
    for _ in range(BENCH_RUNS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    metrics = {}
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        metrics[name] = {
            "median": mid,
            "spread": (max(values) - min(values)) / mid,
            "unit": entry["unit"],
            "values": values,
        }
    return {
        "seed": BENCH_PERF_SEED,
        "seconds": BENCH_SECONDS,
        "runs": BENCH_RUNS,
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def bench(path: Path) -> None:
    """Write one trajectory point: work signatures, perfbench medians, environment."""
    doc = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "work": {},
        "perfbench": {},
    }
    for workload in sorted(workloads.FAMILIES):
        doc["work"][workload] = {}
        for seed in BENCH_SEEDS:
            sig = signature(workload, seed)
            doc["work"][workload][str(seed)] = {key: v for key, v in sig.items() if key != "modes"}
        doc["perfbench"][workload] = perfbench_runs(workload)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.FAMILIES))
    p.add_argument("--seed", type=int)
    p.add_argument("--expect", metavar="FILE", help="a saved output to compare the totals JSON with")
    p.add_argument("--bench", metavar="FILE", help="write a benchmark trajectory point to FILE")
    p.add_argument(
        "--stages", type=int, metavar="N", help="also print a best-of-N stage table to standard error"
    )
    args = p.parse_args(argv)
    if args.stages is not None and args.stages < 1:
        p.error("--stages takes a positive number of passes")
    if args.bench:
        if args.workload or args.seed is not None or args.expect or args.stages:
            p.error("--bench takes no --workload, --seed, --expect or --stages")
        bench(Path(args.bench))
        return 0
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required without --bench")
    want = None
    if args.expect:
        try:
            want = saved_signature(Path(args.expect), args.workload, args.seed)
        except KeyError:
            p.error(f"{args.expect} has no work for {args.workload} at seed {args.seed}")
    sig = signature(args.workload, args.seed)
    total = {
        **sig,
        "sha": sig["sha256"],
        "verdict_sha": sig["verdict_sha256"],
        "lp_sha": sig["lp_sha256"],
    }
    for name, row in [*sig["modes"].items(), ("total", total)]:
        print(
            f"{name:9s} boundings {row['boundings']:5d}  branchings {row['branchings']:4d}  "
            f"passes {row['passes']:5d}  walks {row['walks']:5d}  lps {row['lps']:5d}  "
            f"pivots {row['pivots']:6d}  phase1 {row['phase1_pivots']:5d}  "
            f"factorizations {row['factorizations']:5d}  warm {row['warm']:4d}  "
            f"certified {row['certified']:4d}  "
            f"batches {row['batches']:4d}  corners {row['corners']:3d}  "
            f"sha256 {row['sha'][:16]}  verdicts {row['verdict_sha'][:16]}  lp {row['lp_sha'][:16]}"
        )
    print(json.dumps(sig))
    if args.stages:
        print(stage_table(args.workload, args.seed, args.stages), file=sys.stderr)
    if want is None:
        return 0
    diff = differences(sig, want)
    for key, (expected, got) in diff.items():
        print(f"differs: {key}: expected {expected!r}, got {got!r}", file=sys.stderr)
    if not diff:
        return 0
    return 2 if all(key.rsplit(".", 1)[-1] in BIT_DIGESTS for key in diff) else 1


if __name__ == "__main__":
    raise SystemExit(main())

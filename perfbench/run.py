"""incver benchmark: seeded re-verification workloads through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload quant-8x6 --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one client.  A pass calls
``incver.verify_incremental`` on every instance of the workload in all four
modes; passes repeat until ``--seconds`` is used up, and timings are medians
over passes.  With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` traced and untraced passes alternate
and it carries the per-layer metrics (see ``tracing.py``).  Correctness
checks run after the timed loop.  The lines before the last one record the
environment and the details behind the metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any other import

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PROBES = 11
RUN_TIMEOUT = 60.0
HIGHS_SAMPLE = 40


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


def import_program():
    """Import incver from this checkout's sources, never from elsewhere."""
    if not (SRC / "incver" / "__init__.py").is_file():
        sys.exit(f"perfbench: no incver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import incver

    if Path(incver.__file__).resolve().parent != (SRC / "incver").resolve():
        sys.exit(f"perfbench: imported incver from {incver.__file__}, not from {SRC}")
    return incver


def setup(args):
    """Imports, instance generation and perturbation: what setup_s measures."""
    incver = import_program()
    import workloads

    if args.workload not in workloads.FAMILIES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.FAMILIES)}")
    instances = workloads.make_instances(args.workload, args.seed)
    return incver, workloads, instances, workloads.digest(instances)


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, as measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def run_pass(incver, instances, configs, pace):
    """Every instance in every mode, once, with the speed reference between calls.

    Returns (raw seconds, calibrated seconds, results, factors): the sums of
    the calls' measured and calibrated seconds, ``results[i][mode]`` the
    (first, second) pair or the exception the call raised, and each call's
    speed factor in call order.
    """
    pace.prime()
    results, factors = [], []
    raw = calibrated = 0.0
    for inst in instances:
        per_mode = {}
        for mode, cfg in configs.items():
            start = time.perf_counter()
            try:
                per_mode[mode] = incver.verify_incremental(inst.original, inst.updated, inst.prop, cfg)
            except Exception as exc:  # counted as a failed operation
                per_mode[mode] = exc
            elapsed = time.perf_counter() - start
            factors.append(pace.factor())
            raw += elapsed
            calibrated += elapsed * factors[-1]
        results.append(per_mode)
    return raw, calibrated, results, factors


def summarize(raw, calibrated, results, factors):
    """End-to-end figures of one pass in calibrated seconds, plus its exact work."""
    s = {"wall": calibrated, "raw_wall": raw, "factor": calibrated / raw, "verify": 0.0, "runs_ms": [],
         "boundings": 0, "branchings": 0, "decided": 0, "runs": 0, "raised": 0, "signature": []}
    pairs = [(mode, pair) for per_mode in results for mode, pair in per_mode.items()]
    for (mode, pair), factor in zip(pairs, factors):
        s.setdefault("reverify." + mode.value, 0.0)
        s["runs"] += 2
        if isinstance(pair, Exception):
            s["raised"] += 2
            s["signature"].append(repr(pair))
            continue
        first, second = pair
        s["verify"] += first.metrics.wall_time * factor
        s["reverify." + mode.value] += second.metrics.wall_time * factor
        for run in pair:
            s["runs_ms"].append(1e3 * run.metrics.wall_time * factor)
            s["boundings"] += run.metrics.boundings
            s["branchings"] += run.metrics.branchings
            s["decided"] += run.verdict.value in ("Verified", "Counterexample")
            s["signature"].append((run.verdict.value, run.metrics.boundings, run.metrics.branchings))
    return s


def tail_percentile(per_pass_runs: int) -> int:
    """Highest whole percentile with at least ten samples beyond it at MIN_PASSES."""
    n = per_pass_runs * MIN_PASSES
    return max(0, int(100 * (1 - 10 / n)))


def environment(args, digest, passes):
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def spread(key):
        values = [s[key] for s in passes]
        return (max(values) - min(values)) / statistics.median(values)

    timed = [k for k in passes[0] if k in ("wall", "raw_wall", "verify") or k.startswith("reverify.")]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest,
        "pass_raw_wall_s": [round(s["raw_wall"], 4) for s in passes],
        "pass_speed_factor": [round(s["factor"], 4) for s in passes],
        "single_shot_spread": {k: spread(k) for k in timed},
    }


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, which does not jump between the clusters that repeated
    instances form the way a single order statistic does."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    cdf = betainc(p * (x.size + 1), (1 - p) * (x.size + 1), np.linspace(0.0, 1.0, x.size + 1))
    return float(np.diff(cdf) @ x)


def end_to_end(passes, setup_s, peak_rss_mb):
    from incver.verifier import Mode

    def med(key):
        return statistics.median(s[key] for s in passes)

    runs_ms = [ms for s in passes for ms in s["runs_ms"]]
    level = tail_percentile(len(passes[0]["runs_ms"]))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (med("wall"), "s"),
        "verify_s": (med("verify"), "s"),
        **{f"reverify_s.{m.value}": (med("reverify." + m.value), "s") for m in Mode},
        "sp_ivan": (med("reverify.baseline") / med("reverify.ivan"), "ratio"),
        "run_ms.p50": (hd_quantile(runs_ms, 0.5), "ms"),
        "run_ms.tail": (hd_quantile(runs_ms, level / 100), "ms"),
        "boundings": (passes[0]["boundings"], "count"),
        "branchings": (passes[0]["branchings"], "count"),
        "decided_frac": (passes[0]["decided"] / passes[0]["runs"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"tail_percentile": level, "run_samples": len(runs_ms)}


def main() -> int:
    # Pin BLAS to one thread before numpy is imported (here or in a child).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args()
    incver, workloads, instances, digest = setup(args)
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        print(f"{setup_main:.6f}")
        return 0

    import checks
    import pace as pace_mod
    import tracing
    from incver.heuristics import HeuristicConfig
    from incver.verifier import Mode, VerifierConfig

    fam = workloads.FAMILIES[args.workload]
    heuristic = HeuristicConfig(theta=fam.theta)
    configs = {
        mode: VerifierConfig(mode=mode, heuristic=heuristic, timeout=RUN_TIMEOUT, branching=fam.branching)
        for mode in Mode
    }
    pace = pace_mod.Pace()
    tracer = tracing.Tracer() if args.trace else None
    reservoir = tracing.Reservoir(HIGHS_SAMPLE, args.seed)

    # Warm-up outside the timed loop: one baseline pair.
    first = instances[0]
    incver.verify_incremental(first.original, first.updated, first.prop, configs[Mode.BASELINE])

    # Timed loop.  A traced run alternates untraced and traced passes; the
    # first traced pass offers its LPs to the HiGHS sample.
    untraced, traced = [], []
    first_results = None
    start = time.perf_counter()
    last = 0.0
    while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() - start + last <= args.seconds:
        pass_start = time.perf_counter()
        tracing_now = tracer is not None and len(traced) < len(untraced)
        if tracing_now:
            tracer.reset()
            tracer.capture = None if traced else reservoir
            tracer.install()
        try:
            raw, calibrated, results, factors = run_pass(incver, instances, configs, pace)
        finally:
            if tracing_now:
                tracer.uninstall()
        summary = summarize(raw, calibrated, results, factors)
        if tracing_now:
            traced.append((summary, tracer.snapshot(raw)))
        else:
            untraced.append(summary)
            first_results = first_results or results
        last = time.perf_counter() - pass_start
    all_passes = untraced + [s for s, _ in traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness, outside the timed section.
    errors = []
    if len({repr(s["signature"]) for s in all_passes}) != 1:
        errors.append(f"work counts differ across {len(all_passes)} passes of identical inputs")
    raised = [p for pm in first_results for p in pm.values() if isinstance(p, Exception)]
    if raised:
        errors.append(f"an operation raised: {raised[0]!r}")
    else:
        errors += checks.check_verdicts(instances, first_results, args.seed)
    errors += checks.check_demo_cli(ROOT)
    failed_runs = sum(s["raised"] for s in all_passes)
    attempted = sum(s["runs"] for s in all_passes)

    if tracer is None:
        # Set-up runs once per process: time fresh interpreters, each
        # calibrated like a measured call, and take the median.
        pace.prime()
        setup_s = statistics.median(probe_setup(args) * pace.factor() for _ in range(SETUP_PROBES))
        metrics, detail = end_to_end(untraced, setup_s, peak_rss_mb)
        detail["setup_this_process_s"] = setup_main
    else:
        traced.sort(key=lambda item: item[0]["wall"])
        summary, snap = traced[(len(traced) - 1) // 2]
        dead = tracing.dead_wrappers(args.workload, snap)
        if dead:
            print(f"perfbench: wrapped entry points recorded no calls: {dead}", file=sys.stderr)
            return 3
        highs_ms, highs_gap, highs_errors = checks.highs_yardstick(reservoir.items, pace)
        errors += highs_errors
        untraced_wall = statistics.median(s["wall"] for s in untraced)
        metrics = tracing.layer_metrics(snap, summary["factor"])
        metrics["lp.highs_ms_mean"] = (highs_ms, "ms")
        metrics["lp.highs_gap_max"] = (highs_gap, "ratio")
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"][0] / untraced_wall - 1.0, "ratio")
        detail = {"traced_passes": len(traced), "highs_sample": len(reservoir.items)}

    detail.update({"passes": len(all_passes), "verdict_errors": len(errors), "errors": errors[:20]})
    print(json.dumps({"environment": environment(args, digest, all_passes)}))
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not errors and failed_runs == 0,
        "attempted": attempted,
        "failed": failed_runs + len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

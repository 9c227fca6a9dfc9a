"""Command-line surface: single runs, incremental pairs, experiment sweeps.

Exit codes: 0 verified, 1 counterexample, 2 timeout, 64 usage error,
65 architecture mismatch, 70 anything else. Set INCVER_LOG to a level
name (DEBUG, INFO, ...) to turn on logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import multiprocessing
import multiprocessing.connection
import os
import sys
from pathlib import Path

import numpy as np

from .heuristics import BaseHeuristic, HeuristicConfig
from .model import (
    LastLayer,
    Network,
    ParseError,
    PerturbSpec,
    QuantizeInt8,
    QuantizeInt16,
    UniformRandom,
    built,
    expect,
    load_network,
    perturb,
    read_json,
    same_architecture,
    write_json,
)
from .props import load_property
from .spectree import load_tree, save_tree
from .verifier import (
    Mode,
    RunResult,
    RunVerdict,
    VerifierConfig,
    verify,
    verify_incremental,
)

SCHEMA_VERSION = 1

EXIT_VERIFIED = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 64
EXIT_ARCH_MISMATCH = 65
EXIT_ERROR = 70

_VERDICT_EXITS = {
    RunVerdict.VERIFIED: EXIT_VERIFIED,
    RunVerdict.COUNTEREXAMPLE: EXIT_COUNTEREXAMPLE,
    RunVerdict.TIMEOUT: EXIT_TIMEOUT,
}

# results.csv layout, frozen; bump with SCHEMA_VERSION when columns change.
RESULTS_COLUMNS = (
    "schema_version",
    "network",
    "perturbation",
    "property",
    "mode",
    "heuristic",
    "alpha",
    "theta",
    "seed",
    "branching",
    "first_verdict",
    "first_boundings",
    "first_branchings",
    "first_nodes_final",
    "first_leaves_final",
    "first_cost_units",
    "second_verdict",
    "second_boundings",
    "second_branchings",
    "second_nodes_initial",
    "second_nodes_final",
    "second_leaves_final",
    "second_cost_units",
    "error",
)

SCATTER_COLUMNS = (
    "mode",
    "network",
    "perturbation",
    "property",
    "bucket",
    "baseline_seconds",
    "mode_seconds",
    "speedup",
)

log = logging.getLogger("incver.cli")

# Defaults for the run settings a flag or plan entry leaves out.
_DEFAULT = VerifierConfig()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags, which would collide with Timeout."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, help="network JSON path")
    p.add_argument("--property", required=True, dest="prop", help="property JSON path")
    h = _DEFAULT.heuristic
    p.add_argument("--alpha", type=float, default=h.alpha, help="base/observed mixing weight")
    p.add_argument("--theta", type=float, default=h.theta, help="bad-split threshold")
    p.add_argument(
        "--timeout", type=float, default=_DEFAULT.timeout, help="wall-clock budget in seconds"
    )
    p.add_argument("--branching", choices=["relu", "input"], default=_DEFAULT.branching)
    p.add_argument("--heuristic", choices=["coefwidth", "random"], default=h.base.value)
    p.add_argument("--seed", type=int, default=h.seed, help="seed for the random base ranking")
    p.add_argument("--tree-out", help="save the final proof tree here")
    p.add_argument("--out", help="also write the result JSON to this path")


def _config(settings: dict, timeout: float) -> VerifierConfig:
    """The verifier configuration for one run's settings.

    ``settings`` holds ``mode``, ``heuristic``, ``alpha``, ``theta``,
    ``seed`` and ``branching``, from command-line flags or a plan's mode entry.
    """
    heur = HeuristicConfig(
        base=BaseHeuristic(settings["heuristic"]),
        alpha=settings["alpha"],
        theta=settings["theta"],
        seed=settings["seed"],
    )
    return VerifierConfig(
        mode=Mode(settings["mode"]),
        heuristic=heur,
        timeout=timeout,
        branching=settings["branching"],
    )


def _result_json(res: RunResult) -> dict:
    ce = res.counterexample
    return {
        "verdict": res.verdict.value,
        "metrics": res.metrics.to_json(),
        "counterexample": None if ce is None else [float(x) for x in ce],
        "note": res.note,
    }


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=1)
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def cmd_verify(args) -> int:
    net = load_network(args.network)
    prop = load_property(args.prop)
    initial = load_tree(args.tree_in) if args.tree_in else None
    cfg = _config({**vars(args), "mode": Mode.BASELINE}, args.timeout)
    res = verify(net, prop, cfg, initial_tree=initial)
    if args.tree_out:
        save_tree(res.tree, args.tree_out)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "network": args.network,
        "property": args.prop,
    }
    doc.update(_result_json(res))
    _emit(doc, args.out)
    return _VERDICT_EXITS[res.verdict]


def cmd_verify_incremental(args) -> int:
    net = load_network(args.network)
    updated = load_network(args.updated_network)
    prop = load_property(args.prop)
    if not same_architecture(net, updated):
        print(f"error: {args.network} and {args.updated_network} have different architectures", file=sys.stderr)
        return EXIT_ARCH_MISMATCH
    cfg = _config(vars(args), args.timeout)
    first, second = verify_incremental(net, updated, prop, cfg)
    if args.tree_out:
        save_tree(second.tree, args.tree_out)

    wall = None
    if second.metrics.wall_time > 0:
        wall = first.metrics.wall_time / second.metrics.wall_time
    calls = None
    first_calls = first.metrics.boundings + first.metrics.branchings
    second_calls = second.metrics.boundings + second.metrics.branchings
    if second_calls > 0:
        calls = first_calls / second_calls
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-incremental",
        "mode": args.mode,
        "network": args.network,
        "updated_network": args.updated_network,
        "property": args.prop,
        "first": _result_json(first),
        "second": _result_json(second),
        "speedup": {"wall": wall, "call_units": calls},
    }
    _emit(doc, args.out)
    if wall is not None and calls is not None:
        print(f"speedup: wall {wall:.2f}x, call units {calls:.2f}x", file=sys.stderr)
    return _VERDICT_EXITS[second.verdict]


def _perturbation_from_json(obj, where: str) -> tuple[str, PerturbSpec]:
    kind = expect(obj, "an object", where).get("kind")
    if kind == "quantize_int8":
        return "quantize_int8", QuantizeInt8()
    if kind == "quantize_int16":
        return "quantize_int16", QuantizeInt16()
    if kind == "uniform_random":
        fraction = float(expect(obj.get("fraction", 0.0), "a number", f"{where}.fraction"))
        seed = expect(obj.get("seed", 0), "an integer", f"{where}.seed")
        spec = built(where, lambda: UniformRandom(fraction, seed))
        return f"uniform_random:{spec.fraction}:{spec.seed}", spec
    if kind == "last_layer":
        matrix = expect(obj.get("matrix"), "a non-empty list", f"{where}.matrix")
        for r, row in enumerate(matrix):
            expect(row, "a list of numbers", f"{where}.matrix[{r}]")
        # numpy refuses ragged rows, LastLayer a matrix that is not 2-d
        return "last_layer", built(where, lambda: LastLayer(np.asarray(matrix, dtype=float)))
    raise ParseError(f"{where}: unknown perturbation kind {kind!r}")


def _mode_from_json(obj, where: str, timeout: float) -> VerifierConfig:
    """A plan's mode entry as the VerifierConfig of its settings.

    Settings the entry leaves out take their defaults.  A setting that is
    not a JSON number where one is expected (an integer for ``seed``), or
    that the configuration rejects, raises ParseError naming the entry.
    """
    obj = expect(obj, "an object", where)
    h = _DEFAULT.heuristic
    settings = {
        "mode": obj.get("mode"),
        "heuristic": obj.get("heuristic", h.base.value),
        "alpha": float(expect(obj.get("alpha", h.alpha), "a number", f"{where}.alpha")),
        "theta": float(expect(obj.get("theta", h.theta), "a number", f"{where}.theta")),
        "seed": expect(obj.get("seed", h.seed), "an integer", f"{where}.seed"),
        "branching": obj.get("branching", _DEFAULT.branching),
    }
    return built(where, lambda: _config(settings, timeout))


@dataclasses.dataclass(frozen=True)
class ExperimentPlan:
    networks: tuple
    perturbations: tuple  # (label, PerturbSpec) pairs
    properties: tuple
    modes: tuple  # VerifierConfigs
    output_dir: str


def load_plan(path) -> ExperimentPlan:
    """Read and check the plan in the file at ``path``: a bad entry raises ParseError before anything runs.

    The plan is ``{"networks": [path, ...], "perturbations": [...],
    "properties": [path, ...], "modes": [...], "output_dir": path,
    "timeout": positive number (optional)}``; each perturbation is read by
    ``_perturbation_from_json`` and each mode by ``_mode_from_json``.  Field
    paths in messages start at ``path``, as ``<path>.modes[0].alpha``.
    """
    obj = expect(read_json(path), "an object", str(path))
    for key in ("networks", "perturbations", "properties", "modes"):
        expect(obj.get(key), "a non-empty list", f"{path}.{key}")
    for key in ("networks", "properties"):  # open() takes an int as a descriptor: 0 reads stdin
        for i, entry in enumerate(obj[key]):
            expect(entry, "a path", f"{path}.{key}[{i}]")
    timeout = float(expect(obj.get("timeout", _DEFAULT.timeout), "a positive number", f"{path}.timeout"))
    return ExperimentPlan(
        networks=tuple(obj["networks"]),
        perturbations=tuple(
            _perturbation_from_json(p, f"{path}.perturbations[{i}]")
            for i, p in enumerate(obj["perturbations"])
        ),
        properties=tuple(obj["properties"]),
        modes=tuple(_mode_from_json(m, f"{path}.modes[{i}]", timeout) for i, m in enumerate(obj["modes"])),
        output_dir=expect(obj.get("output_dir"), "a path", f"{path}.output_dir"),
    )


def _task_row(task: tuple) -> dict:
    """The results.csv columns that describe the task, with an empty error."""
    network, (label, _), prop_path, cfg = task
    return {
        "schema_version": SCHEMA_VERSION,
        "network": network,
        "perturbation": label,
        "property": prop_path,
        "mode": cfg.mode.value,
        "heuristic": cfg.heuristic.base.value,
        "alpha": cfg.heuristic.alpha,
        "theta": cfg.heuristic.theta,
        "seed": cfg.heuristic.seed,
        "branching": cfg.branching,
        "error": "",
    }


def _failed(task: tuple, exc: BaseException) -> dict:
    """The outcome of a task that raised: a row whose error names the exception."""
    row = {**_task_row(task), "error": f"{type(exc).__name__}: {exc}"}
    return {"row": row, "second_seconds": None}


def _run_instance(task: tuple) -> dict:
    """One experiment cell, a (network path, (label, spec), property path,
    config) tuple; returns a results.csv row plus the second run's seconds."""
    network, (_, spec), prop_path, cfg = task
    row = _task_row(task)
    try:
        net, prop = load_network(network), load_property(prop_path)
        first, second = verify_incremental(net, perturb(net, spec), prop, cfg)
    except Exception as exc:  # recorded, sweep continues
        return _failed(task, exc)
    row.update(
        {
            "first_verdict": first.verdict.value,
            "first_boundings": first.metrics.boundings,
            "first_branchings": first.metrics.branchings,
            "first_nodes_final": first.metrics.nodes_final,
            "first_leaves_final": first.metrics.leaves_final,
            "first_cost_units": first.metrics.boundings + first.metrics.branchings,
            "second_verdict": second.verdict.value,
            "second_boundings": second.metrics.boundings,
            "second_branchings": second.metrics.branchings,
            "second_nodes_initial": second.metrics.nodes_initial,
            "second_nodes_final": second.metrics.nodes_final,
            "second_leaves_final": second.metrics.leaves_final,
            "second_cost_units": second.metrics.boundings + second.metrics.branchings,
        }
    )
    return {"row": row, "second_seconds": second.metrics.wall_time}


def _work(conn) -> None:
    """A worker process: run each task the parent sends, send back its outcome."""
    for task in iter(conn.recv, None):
        conn.send(_run_instance(task))


def _run_tasks(tasks: list, jobs: int) -> list:
    """Run the tasks; with ``jobs > 1`` in at most that many worker processes.

    Each worker owns one pipe and is sent one task at a time.  A task that
    raised becomes a row whose error names the exception.  A worker that
    dies running a task (its pipe ends) fails that task alone, with a row
    naming the worker's exit code, and a fresh worker takes the next task.
    """
    if jobs == 1 or not tasks:
        return [_run_instance(t) for t in tasks]
    outcomes = [None] * len(tasks)
    workers, busy = [], {}  # busy: a working worker's pipe -> (worker, its task's index)

    def collect():
        """Wait for a worker to finish its task; return its pipe and it, or None if it died."""
        conn = multiprocessing.connection.wait(list(busy))[0]
        worker, i = busy.pop(conn)
        try:
            outcomes[i] = conn.recv()
        except EOFError:
            worker.join()
            error = ChildProcessError(f"worker exited with code {worker.exitcode}")
            outcomes[i] = _failed(tasks[i], error)
            conn.close()
            return None
        return conn, worker

    def start():
        """Start a worker; return the parent's end of its pipe and it."""
        conn, child = multiprocessing.Pipe()
        worker = multiprocessing.Process(target=_work, args=(child,))
        worker.start()
        child.close()
        workers.append(worker)
        return conn, worker

    try:
        for i, task in enumerate(tasks):
            idle = collect() if len(busy) == jobs else None
            conn, worker = idle or start()
            conn.send(task)
            busy[conn] = (worker, i)
        while busy:
            collect()
    finally:
        for worker in workers:
            worker.terminate()
            worker.join()
    return outcomes


def _solved(verdict) -> bool:
    return verdict in (RunVerdict.VERIFIED.value, RunVerdict.COUNTEREXAMPLE.value)


def _bucket(row: dict) -> str:
    return "easy" if int(row["first_nodes_final"]) <= 5 else "hard"


def _speedup_summary(outcomes: list[dict]) -> tuple[dict, list[dict]]:
    """Sp per non-baseline mode vs the plan's baseline runs, split by tree size.

    An instance contributes when both the mode run and the baseline run on
    the same (network, perturbation, property) cell solved within budget.
    """
    baseline_times = {}
    for o in outcomes:
        row = o["row"]
        if row["error"] or row["mode"] != Mode.BASELINE.value:
            continue
        if _solved(row["second_verdict"]):
            key = (row["network"], row["perturbation"], row["property"])
            baseline_times[key] = o["second_seconds"]

    modes: dict = {}
    scatter: list[dict] = []
    for o in outcomes:
        row = o["row"]
        if row["error"] or row["mode"] == Mode.BASELINE.value:
            continue
        per_mode = modes.setdefault(
            row["mode"],
            {b: {"count": 0, "base": 0.0, "mine": 0.0} for b in ("easy", "hard", "overall")},
        )
        if not _solved(row["second_verdict"]):
            continue
        key = (row["network"], row["perturbation"], row["property"])
        if key not in baseline_times:
            continue
        bucket = _bucket(row)
        base_t, mine_t = baseline_times[key], o["second_seconds"]
        for b in (bucket, "overall"):
            per_mode[b]["count"] += 1
            per_mode[b]["base"] += base_t
            per_mode[b]["mine"] += mine_t
        scatter.append(
            {
                "mode": row["mode"],
                "network": row["network"],
                "perturbation": row["perturbation"],
                "property": row["property"],
                "bucket": bucket,
                "baseline_seconds": f"{base_t:.6f}",
                "mode_seconds": f"{mine_t:.6f}",
                "speedup": f"{base_t / mine_t:.4f}" if mine_t > 0 else "n/a",
            }
        )

    summary_modes = {}
    for mode, buckets in modes.items():
        summary_modes[mode] = {}
        for b, acc in buckets.items():
            sp = "n/a"
            if acc["count"] and acc["mine"] > 0:
                sp = round(acc["base"] / acc["mine"], 4)
            summary_modes[mode][b] = {"count": acc["count"], "Sp": sp}
    return summary_modes, scatter


def cmd_experiment(args) -> int:
    plan = load_plan(args.plan)
    out_dir = Path(plan.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = list(itertools.product(plan.networks, plan.perturbations, plan.properties, plan.modes))
    outcomes = _run_tasks(tasks, args.jobs)

    with open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RESULTS_COLUMNS))
        writer.writeheader()
        for o in outcomes:
            writer.writerow(o["row"])

    summary_modes, scatter = _speedup_summary(outcomes)
    errors = sum(1 for o in outcomes if o["row"]["error"])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "instances": len(outcomes),
        "errors": errors,
        "modes": summary_modes,
    }
    write_json(summary, out_dir / "summary.json")
    with open(out_dir / "scatter.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(SCATTER_COLUMNS))
        writer.writeheader()
        for point in scatter:
            writer.writerow(point)

    log.info("experiment: %d instances, %d errors -> %s", len(outcomes), errors, out_dir)
    print(json.dumps(summary, indent=1))
    return EXIT_VERIFIED


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="incver", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one network against one property")
    _add_run_flags(p_verify)
    p_verify.add_argument("--tree-in", help="start from a saved proof tree")
    p_verify.set_defaults(func=cmd_verify)

    p_inc = sub.add_parser("verify-incremental", help="verify, then reverify an updated network")
    _add_run_flags(p_inc)
    p_inc.add_argument("--updated-network", required=True, help="perturbed network JSON path")
    p_inc.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default=Mode.IVAN.value,
        help="how the second run reuses the first run's tree "
        "(under --branching input, reorder does the same search as baseline)",
    )
    p_inc.set_defaults(func=cmd_verify_incremental)

    p_exp = sub.add_parser("experiment", help="run a cross-product sweep from a plan JSON")
    p_exp.add_argument("--plan", required=True, help="ExperimentPlan JSON path")
    p_exp.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (at most one per task)"
    )
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("INCVER_LOG", "").upper()
    known = {"CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG"}
    logging.basicConfig(level=level if level in known else "WARNING")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError, RuntimeError) as exc:
        log.debug("fatal", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

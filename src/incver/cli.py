"""Command-line surface: single runs, incremental pairs, experiment sweeps.

Exit codes: 0 verified, 1 counterexample, 2 timeout, 64 usage error,
65 architecture mismatch, 70 anything else. Set INCVER_LOG to a level
name (DEBUG, INFO, ...) to turn on logging.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import logging
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
    load_network,
    perturb,
    same_architecture,
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


def _perturbation_from_json(obj: dict, where: str) -> tuple[str, PerturbSpec]:
    kind = obj.get("kind")
    if kind == "quantize_int8":
        return "quantize_int8", QuantizeInt8()
    if kind == "quantize_int16":
        return "quantize_int16", QuantizeInt16()
    if kind == "uniform_random":
        frac = float(obj.get("fraction", 0.0))
        seed = int(obj.get("seed", 0))
        return f"uniform_random:{frac}:{seed}", UniformRandom(fraction=frac, seed=seed)
    if kind == "last_layer":
        matrix = np.asarray(obj.get("matrix"), dtype=float)
        return "last_layer", LastLayer(matrix)
    raise ParseError(f"{where}: unknown perturbation kind {kind!r}")


def _mode_from_json(obj: dict, where: str) -> dict:
    mode = obj.get("mode")
    try:
        Mode(mode)
    except ValueError:
        raise ParseError(f"{where}: unknown mode {mode!r}") from None
    h = _DEFAULT.heuristic
    return {
        "mode": mode,
        "heuristic": obj.get("heuristic", h.base.value),
        "alpha": float(obj.get("alpha", h.alpha)),
        "theta": float(obj.get("theta", h.theta)),
        "seed": int(obj.get("seed", h.seed)),
        "branching": obj.get("branching", _DEFAULT.branching),
    }


@dataclasses.dataclass(frozen=True)
class ExperimentPlan:
    networks: tuple
    perturbations: tuple  # (label, raw json dict) pairs
    properties: tuple
    modes: tuple  # dicts of verifier settings
    timeout: float
    output_dir: str


def load_plan(path) -> ExperimentPlan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("networks", "perturbations", "properties", "modes", "output_dir"):
        if not obj.get(key):
            raise ParseError(f"{path}: '{key}' must be present and nonempty")
    perturbations = []
    for i, raw in enumerate(obj["perturbations"]):
        label, _spec = _perturbation_from_json(raw, f"{path}.perturbations[{i}]")
        perturbations.append((label, raw))
    modes = tuple(_mode_from_json(m, f"{path}.modes[{i}]") for i, m in enumerate(obj["modes"]))
    return ExperimentPlan(
        networks=tuple(obj["networks"]),
        perturbations=tuple(perturbations),
        properties=tuple(obj["properties"]),
        modes=modes,
        timeout=float(obj.get("timeout", _DEFAULT.timeout)),
        output_dir=obj["output_dir"],
    )


def _task_row(task: dict) -> dict:
    """The results.csv columns that describe the task, with an empty error."""
    ms = task["mode_settings"]
    return {
        "schema_version": SCHEMA_VERSION,
        "network": task["network"],
        "perturbation": task["perturbation_label"],
        "property": task["property"],
        "mode": ms["mode"],
        "heuristic": ms["heuristic"],
        "alpha": ms["alpha"],
        "theta": ms["theta"],
        "seed": ms["seed"],
        "branching": ms["branching"],
        "error": "",
    }


def _failed(task: dict, exc: BaseException) -> dict:
    """The outcome of a task that raised: a row whose error names the exception."""
    row = {**_task_row(task), "error": f"{type(exc).__name__}: {exc}"}
    row = {col: row.get(col, "") for col in RESULTS_COLUMNS}
    return {"row": row, "first_seconds": None, "second_seconds": None}


def _run_instance(task: dict) -> dict:
    """One experiment cell; returns a results.csv row plus timing fields.

    Module-level (not a closure) so a process pool can pickle it.
    """
    row = _task_row(task)
    ms = task["mode_settings"]
    try:
        net = load_network(task["network"])
        prop = load_property(task["property"])
        _, spec = _perturbation_from_json(task["perturbation_json"], "plan")
        updated = perturb(net, spec)
        first, second = verify_incremental(net, updated, prop, _config(ms, task["timeout"]))
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
    return {
        "row": row,
        "first_seconds": first.metrics.wall_time,
        "second_seconds": second.metrics.wall_time,
    }


def _run_tasks(tasks: list, jobs: int) -> list:
    """Run the tasks; with ``jobs > 1`` in a pool of at most one worker per task.

    A task whose worker raised or died (a dead worker breaks the pool, and the
    tasks still pending fail with it) becomes a row whose error names the
    exception; the tasks that finished keep their rows.
    """
    if jobs == 1 or not tasks:
        return [_run_instance(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(_run_instance, t) for t in tasks]
    outcomes = []
    for task, future in zip(tasks, futures):
        try:
            outcomes.append(future.result())
        except Exception as exc:
            outcomes.append(_failed(task, exc))
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

    cells = itertools.product(plan.networks, plan.perturbations, plan.properties, plan.modes)
    tasks = [
        {
            "network": net_path,
            "perturbation_label": label,
            "perturbation_json": pert_json,
            "property": prop_path,
            "mode_settings": ms,
            "timeout": plan.timeout,
        }
        for net_path, (label, pert_json), prop_path, ms in cells
    ]
    outcomes = _run_tasks(tasks, args.jobs)

    with open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RESULTS_COLUMNS))
        writer.writeheader()
        for o in outcomes:
            writer.writerow({col: o["row"].get(col, "") for col in RESULTS_COLUMNS})

    summary_modes, scatter = _speedup_summary(outcomes)
    errors = sum(1 for o in outcomes if o["row"]["error"])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "instances": len(outcomes),
        "errors": errors,
        "modes": summary_modes,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
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
        help="how the second run reuses the first run's tree",
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

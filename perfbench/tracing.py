"""Spans around incver's public entry points, recorded from outside the package.

``Tracer.install`` replaces each entry point named in ``TARGETS`` with a
wrapper, in every loaded ``incver`` module that holds a reference to it (the
verifier imports most of them by name).  A wrapper times the call, charges
its duration to the enclosing span's children so self times can be taken,
and lets an observer count what the call did.  ``uninstall`` restores the
originals, so traced and untraced passes can alternate in one process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

TARGETS = (
    ("incver.verifier", "verify_incremental"),
    ("incver.verifier", "verify"),
    ("incver.spectree", "spec_of"),
    ("incver.spectree", "prune"),
    ("incver.spectree", "reset_copy"),
    ("incver.spectree", "observed_scores"),
    ("incver.heuristics", "choose_split"),
    ("incver.heuristics", "choose_input_split"),
    ("incver.analyzer", "analyze"),
    ("incver.analyzer", "compute_bounds"),
    ("incver.lp", "solve"),
)

# Entry points a workload must reach; zero calls means a wrapper went dead.
REQUIRED = {
    "quant-8x6": ("lp.solve", "heuristics.choose_split"),
    "deep-16x3": ("lp.solve", "heuristics.choose_split"),
    "input-split": ("lp.solve", "heuristics.choose_input_split"),
}

REPLAY = ("spectree.prune", "spectree.reset_copy", "spectree.observed_scores")


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _observe_lp(tracer, parent, args, kwargs, result):
    lp = args[0]
    tracer.counts["lp.vars"] += lp.num_vars
    tracer.counts["lp.rows"] += len(lp.constraints)
    if result.status.value == "infeasible":
        tracer.counts["lp.infeasible"] += 1
    if tracer.capture is not None:
        tracer.capture.offer((lp, result))


def _observe_analyze(tracer, parent, args, kwargs, result):
    if result.status.value == "Unknown":
        tracer.counts["analyzer.unknown"] += 1
    if result.infeasible:
        tracer.counts["analyzer.infeasible"] += 1


def _observe_bounds(tracer, parent, args, kwargs, result):
    splits = args[2] if len(args) > 2 else kwargs["splits"]
    tracer.counts["analyzer.split_depth_sum"] += len(splits)
    if parent == "verifier.verify":
        tracer.counts["analyzer.compute_bounds.branching_calls"] += 1


def _observe_prune(tracer, parent, args, kwargs, result):
    tracer.counts["spectree.prune.kept"] += result.num_nodes()
    tracer.counts["spectree.prune.seen"] += args[0].num_nodes()


def _observe_verify(tracer, parent, args, kwargs, result):
    tracer.counts["spectree.nodes_final"] += result.tree.num_nodes()


OBSERVERS = {
    "lp.solve": _observe_lp,
    "analyzer.analyze": _observe_analyze,
    "analyzer.compute_bounds": _observe_bounds,
    "spectree.prune": _observe_prune,
    "verifier.verify": _observe_verify,
}


class Reservoir:
    """A seeded uniform sample of at most ``size`` offered items."""

    def __init__(self, size: int, seed: int):
        self.size = size
        self.items = []
        self.seen = 0
        self.rng = np.random.default_rng(seed)

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            k = int(self.rng.integers(self.seen))
            if k < self.size:
                self.items[k] = item


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)
        self.stack = []
        self.capture = None
        self._patches = []

    def reset(self) -> None:
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "lp.solve":
                    self.counts["lp.errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                span = self.spans[name]
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, parent, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "incver" or n.startswith("incver.")]
        for modname, attr in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(f"{modname.split('.')[-1]}.{attr}", original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def snapshot(self, wall: float) -> dict:
        """One pass's spans and counts, with the harness's own time."""
        top = sum(s.total for n, s in self.spans.items() if n == "verifier.verify_incremental")
        return {
            "wall": wall,
            "harness": wall - top,
            "spans": {n: (s.calls, s.total, s.self_time) for n, s in self.spans.items()},
            "counts": dict(self.counts),
        }


def dead_wrappers(workload: str, snap: dict) -> list:
    return [n for n in REQUIRED[workload] if snap["spans"].get(n, (0, 0.0, 0.0))[0] == 0]


def layer_metrics(snap: dict, factor: float) -> dict:
    """Per-layer metrics of one traced pass (name -> (value, unit)).

    Times are multiplied by the pass's mean speed factor (see ``pace.py``).
    """
    spans, counts = snap["spans"], snap["counts"]

    def calls(n):
        return spans.get(n, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    lp_calls = calls("lp.solve")
    analyze_calls = calls("analyzer.analyze")
    seen = counts.get("spectree.prune.seen", 0)
    out = {
        "lp.solve.calls": (lp_calls, "count"),
        "lp.solve_s": (self_s("lp.solve"), "s"),
        "lp.solve_ms_mean": (1e3 * self_s("lp.solve") / max(lp_calls, 1), "ms"),
        "lp.vars_mean": (counts.get("lp.vars", 0) / max(lp_calls, 1), "count"),
        "lp.rows_mean": (counts.get("lp.rows", 0) / max(lp_calls, 1), "count"),
        "lp.infeasible": (counts.get("lp.infeasible", 0), "count"),
        "lp.errors": (counts.get("lp.errors", 0), "count"),
        "analyzer.compute_bounds.calls": (calls("analyzer.compute_bounds"), "count"),
        "analyzer.compute_bounds.branching_calls": (
            counts.get("analyzer.compute_bounds.branching_calls", 0),
            "count",
        ),
        "analyzer.compute_bounds_s": (self_s("analyzer.compute_bounds"), "s"),
        "analyzer.split_depth_sum": (counts.get("analyzer.split_depth_sum", 0), "count"),
        "analyzer.analyze.calls": (analyze_calls, "count"),
        "analyzer.analyze.self_s": (self_s("analyzer.analyze"), "s"),
        "analyzer.infeasible": (counts.get("analyzer.infeasible", 0), "count"),
        "analyzer.unknown_frac": (counts.get("analyzer.unknown", 0) / max(analyze_calls, 1), "ratio"),
        "heuristics.choose_split.calls": (calls("heuristics.choose_split"), "count"),
        "heuristics.choose_input_split.calls": (calls("heuristics.choose_input_split"), "count"),
        "heuristics.self_s": (
            self_s("heuristics.choose_split", "heuristics.choose_input_split"),
            "s",
        ),
        "spectree.spec_of.calls": (calls("spectree.spec_of"), "count"),
        "spectree.spec_of_s": (self_s("spectree.spec_of"), "s"),
        "spectree.replay_s": (self_s(*REPLAY), "s"),
        "spectree.nodes_final": (counts.get("spectree.nodes_final", 0), "count"),
        "spectree.prune.kept_frac": (counts.get("spectree.prune.kept", 0) / max(seen, 1), "ratio"),
        "verifier.calls": (calls("verifier.verify"), "count"),
        "verifier.self_s": (self_s("verifier.verify", "verifier.verify_incremental"), "s"),
        "trace.harness_s": (snap["harness"], "s"),
        "trace.wall_s": (snap["wall"], "s"),
    }
    return {k: (v * factor if unit in ("s", "ms") else v, unit) for k, (v, unit) in out.items()}

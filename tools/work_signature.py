"""Print the work and a bit-level digest of one benchmark pass.

Builds the instances of a benchmark workload with ``perfbench/workloads.py``
and runs ``verify_incremental`` on each of them in all four modes, with the
configurations ``perfbench/run.py`` uses.  It prints, per mode and in total:

* boundings, branchings, LPs solved and their summed pivots (from the
  runs' metrics);
* propagation passes, counted by wrapping the analyzer's per-pass function
  from outside the package;
* a SHA-256 over every run's verdict, counts, counterexample bytes and each
  tree node's ``(id, lb.hex())``;
* a verdict digest: a SHA-256 over every run's verdict alone;
* an LP digest: a SHA-256 over every program handed to ``solve`` (wrapped
  the same way), its ``objective`` and ``var_bounds`` bytes and, row by row
  of its ``constraints``, ``(row.tobytes(), rel, rhs.hex())``.

Two commits that print the same digests did the same search and proved the
same bounds, bit for bit; the same LP digests mean they solved the same
programs, row for row.  A change that only records different lower bounds
keeps the verdict digest.  Run from the repository root:

    python3 tools/work_signature.py --workload quant-8x6 --seed 1

The last line of standard output is one JSON object with the totals.  With
``--expect FILE`` (a saved output, whose last line is that JSON object) the
script also compares the two objects, the per-mode rows included, and exits
1 after naming each field that differs:

    python3 tools/work_signature.py --workload quant-8x6 --seed 1 > before.txt
    # ... change the code ...
    python3 tools/work_signature.py --workload quant-8x6 --seed 1 --expect before.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # perfbench/workloads.py
from incver import analyzer
from incver.heuristics import HeuristicConfig
from incver.verifier import Mode, VerifierConfig, verify_incremental

RUN_TIMEOUT = 60.0  # as perfbench/run.py


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
    """The bits of one bounding program: objective, variable bounds, rows in order."""
    parts = [lp.objective.tobytes(), lp.var_bounds.tobytes()]
    for row, rel, rhs in lp.constraints:
        parts += [row.tobytes(), rel.encode(), float(rhs).hex().encode()]
    return b"|".join(parts)


def signature(workload: str, seed: int) -> dict:
    fam = workloads.FAMILIES[workload]
    heuristic = HeuristicConfig(theta=fam.theta)
    configs = {
        mode: VerifierConfig(mode=mode, heuristic=heuristic, timeout=RUN_TIMEOUT, branching=fam.branching)
        for mode in Mode
    }
    instances = workloads.make_instances(workload, seed)
    per_mode = {
        mode.value: {
            "boundings": 0,
            "branchings": 0,
            "passes": 0,
            "lps": 0,
            "pivots": 0,
            "sha": hashlib.sha256(),
            "verdict_sha": hashlib.sha256(),
            "lp_sha": hashlib.sha256(),
        }
        for mode in Mode
    }
    total = hashlib.sha256()
    verdict_total = hashlib.sha256()
    lp_total = hashlib.sha256()
    # count propagation passes by wrapping the analyzer's per-pass function
    one_pass = analyzer._one_pass
    passes = [0]

    def counted_pass(*args):
        passes[0] += 1
        return one_pass(*args)

    # digest the LPs by wrapping the analyzer's solver the same way; ``row``
    # is the current mode's counters, rebound by the loop below
    lp_solve = analyzer.solve
    row = None

    def digested_solve(lp, **kwargs):
        bits = lp_digest(lp)
        row["lp_sha"].update(bits)
        lp_total.update(bits)
        return lp_solve(lp, **kwargs)

    analyzer._one_pass = counted_pass
    analyzer.solve = digested_solve
    try:
        for inst in instances:
            for mode, cfg in configs.items():
                row = per_mode[mode.value]
                before = passes[0]
                pair = verify_incremental(inst.original, inst.updated, inst.prop, cfg)
                row["passes"] += passes[0] - before
                for res in pair:
                    for key in ("boundings", "branchings", "lps", "pivots"):
                        row[key] += getattr(res.metrics, key)
                    bits = run_digest(res)
                    row["sha"].update(bits)
                    total.update(bits)
                    row["verdict_sha"].update(res.verdict.value.encode())
                    verdict_total.update(res.verdict.value.encode())
    finally:
        analyzer._one_pass = one_pass
        analyzer.solve = lp_solve
    digests = ("sha", "verdict_sha", "lp_sha")
    modes = {
        name: {**row, **{key: row[key].hexdigest() for key in digests}}
        for name, row in per_mode.items()
    }
    return {
        "workload": workload,
        "seed": seed,
        "instances_digest": workloads.digest(instances),
        "boundings": sum(r["boundings"] for r in modes.values()),
        "branchings": sum(r["branchings"] for r in modes.values()),
        "passes": sum(r["passes"] for r in modes.values()),
        "lps": sum(r["lps"] for r in modes.values()),
        "pivots": sum(r["pivots"] for r in modes.values()),
        "sha256": total.hexdigest(),
        "verdict_sha256": verdict_total.hexdigest(),
        "lp_sha256": lp_total.hexdigest(),
        "modes": modes,
    }


def _fields(sig: dict) -> dict:
    """The signature flattened to one level; per-mode fields read ``mode.field``."""
    flat = {key: value for key, value in sig.items() if key != "modes"}
    for mode, row in sig.get("modes", {}).items():
        flat.update({f"{mode}.{key}": value for key, value in row.items()})
    return flat


def differences(got: dict, want: dict) -> list:
    """One line per field whose value differs between two signatures."""
    g, w = _fields(got), _fields(want)
    return [
        f"{key}: expected {w.get(key)!r}, got {g.get(key)!r}"
        for key in sorted(g.keys() | w.keys())
        if g.get(key) != w.get(key)
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.FAMILIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--expect", metavar="FILE", help="a saved output to compare the totals JSON with")
    args = p.parse_args(argv)
    want = None
    if args.expect:
        want = json.loads(Path(args.expect).read_text(encoding="utf-8").strip().splitlines()[-1])
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
            f"passes {row['passes']:5d}  lps {row['lps']:5d}  pivots {row['pivots']:6d}  "
            f"sha256 {row['sha'][:16]}  verdicts {row['verdict_sha'][:16]}  lp {row['lp_sha'][:16]}"
        )
    print(json.dumps(sig))
    if want is None:
        return 0
    diff = differences(sig, want)
    for line in diff:
        print(f"differs: {line}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the command-line interface: exit codes, JSON output, sweeps."""

import csv
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from incver import cli
from incver.cli import (
    EXIT_ARCH_MISMATCH,
    EXIT_COUNTEREXAMPLE,
    EXIT_ERROR,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    EXIT_VERIFIED,
    RESULTS_COLUMNS,
    main,
)
from incver.model import Affine, Network, ParseError, Relu, load_network, save_network
from incver.props import InputBox, OutputConstraint, Property, load_property, save_property
from incver.spectree import load_tree, leaves

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

DEMO_FLAGS = ["--heuristic", "random", "--seed", "27", "--alpha", "0.25", "--theta", "1.0"]


def demo_args(*extra):
    return [
        "verify",
        "--network", str(FIXTURES / "demo_network.json"),
        "--property", str(FIXTURES / "demo_property.json"),
        *DEMO_FLAGS,
        *extra,
    ]


def demo_incremental_args(mode, *extra):
    return [
        "verify-incremental",
        "--network", str(FIXTURES / "demo_network.json"),
        "--updated-network", str(FIXTURES / "demo_updated.json"),
        "--property", str(FIXTURES / "demo_property.json"),
        "--mode", mode,
        *DEMO_FLAGS,
        *extra,
    ]


def last_json(capsys):
    return json.loads(capsys.readouterr().out)


def write_pair(tmp_path, net, prop, names=("net.json", "prop.json")):
    net_path = tmp_path / names[0]
    prop_path = tmp_path / names[1]
    save_network(net, net_path)
    save_property(prop, prop_path)
    return str(net_path), str(prop_path)


def tiny_net():
    return Network(
        (
            Affine(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0])),
            Relu(),
            Affine(np.array([[1.0, 1.0]]), np.array([0.0])),
        )
    )


def test_verify_demo_fixture_metrics(capsys):
    assert main(demo_args()) == EXIT_VERIFIED
    doc = last_json(capsys)
    assert doc["verdict"] == "Verified"
    assert doc["metrics"]["boundings"] == 9
    assert doc["metrics"]["branchings"] == 4
    assert (doc["metrics"]["lps"], doc["metrics"]["pivots"]) == (6, 12)
    assert doc["metrics"]["phase1_pivots"] == 7  # of the 12, before a feasible basis
    assert doc["metrics"]["factorizations"] == 12  # each LP's crash basis and final point
    assert doc["metrics"]["infeasible"] == 0  # no region of the demo is empty
    assert doc["metrics"]["corners"] == 0  # nor refuted at its walk corner
    assert (doc["metrics"]["passes"], doc["metrics"]["walks"]) == (9, 13)
    assert doc["counterexample"] is None
    assert doc["schema_version"] == 1


def test_verify_missing_required_flag_exits_64():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--network", str(FIXTURES / "demo_network.json")])
    assert err.value.code == EXIT_USAGE


def test_missing_subcommand_exits_64():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == EXIT_USAGE


def test_verify_trivial_property_single_bounding(tmp_path, capsys):
    prop = Property(InputBox(np.zeros(1), np.ones(1)), OutputConstraint(np.array([1.0]), 100.0))
    net_path, prop_path = write_pair(tmp_path, tiny_net(), prop)
    assert main(["verify", "--network", net_path, "--property", prop_path]) == EXIT_VERIFIED
    doc = last_json(capsys)
    assert doc["metrics"]["boundings"] == 1
    assert doc["metrics"]["branchings"] == 0


def test_verify_counterexample_exit_and_payload(tmp_path, capsys):
    prop = Property(InputBox(np.zeros(1), np.ones(1)), OutputConstraint(np.array([1.0]), -100.0))
    net_path, prop_path = write_pair(tmp_path, tiny_net(), prop)
    assert main(["verify", "--network", net_path, "--property", prop_path]) == EXIT_COUNTEREXAMPLE
    doc = last_json(capsys)
    assert doc["verdict"] == "Counterexample"
    assert isinstance(doc["counterexample"], list)
    assert len(doc["counterexample"]) == 1


def test_verify_timeout_exit(capsys):
    assert main(demo_args("--timeout", "1e-9")) == EXIT_TIMEOUT
    doc = last_json(capsys)
    assert doc["verdict"] == "Timeout"


def test_verify_with_nothing_left_to_split_exits_as_a_timeout(tmp_path, capsys):
    # A zero-margin net whose only unit is stable: the root is Unknown with
    # no ReLU to split, which ends the run as Timeout, not as an error.
    net = Network((
        Affine(np.array([[-0.797]]), np.array([1.435])),
        Relu(),
        Affine(np.array([[-1.075]]), np.array([1.631])),
    ))
    prop = Property(InputBox(np.array([-1.0]), np.array([1.0])), OutputConstraint(np.array([1.0]), 0.7684))
    net_path, prop_path = write_pair(tmp_path, net, prop)
    assert main(["verify", "--network", net_path, "--property", prop_path]) == EXIT_TIMEOUT
    doc = last_json(capsys)
    assert doc["verdict"] == "Timeout"
    assert doc["note"] == "no ReLU left to split at node 0"


def test_verify_tree_roundtrip(tmp_path, capsys):
    tree_path = str(tmp_path / "tree.json")
    assert main(demo_args("--tree-out", tree_path)) == EXIT_VERIFIED
    capsys.readouterr()
    saved = load_tree(tree_path)
    assert saved.num_nodes() == 9
    assert main(demo_args("--tree-in", tree_path)) == EXIT_VERIFIED
    doc = last_json(capsys)
    # Starting from the finished proof just re-bounds its leaves.
    assert doc["metrics"]["boundings"] == len(leaves(saved))
    assert doc["metrics"]["branchings"] == 0


@pytest.mark.parametrize(
    "dim, cut", [(5, 0.5), (-1, 0.5), (0, math.nan), (0, 5.0), (1, -5.0)]
)
def test_verify_rejects_tree_with_input_split_outside_the_box(tmp_path, capsys, dim, cut):
    # The demo network has 2 inputs: a saved split on axis 5, on -1 (which
    # indexing would read as the last axis) or at a NaN cut does not fit it,
    # nor does a cut outside the [0, 1] box, above it or below it.
    def child(nid, half):
        decision = {"kind": "input", "dim": dim, "half": half, "cut": cut}
        return {"id": nid, "parent": 0, "decision": decision}

    root = {"id": 0, "parent": None, "decision": None, "split": {"left": 1, "right": 2}}
    tree = {"branching": "input", "nodes": [root, child(1, "low"), child(2, "high")]}
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(tree), encoding="utf-8")
    code = main(demo_args("--branching", "input", "--tree-in", str(tree_path)))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "node 1" in err
    assert "Traceback" not in err



@pytest.mark.parametrize(
    "branching, decision",
    [
        ("relu", lambda side: {"kind": "input", "dim": 0, "half": ("low", "high")[side], "cut": 0.5}),
        ("input", lambda side: {"kind": "relu", "layer": 0, "neuron": 0, "sign": "+-"[side]}),
    ],
    ids=["relu-tree-with-input-splits", "input-tree-with-relu-splits"],
)
def test_verify_rejects_tree_whose_decisions_do_not_match_its_branching(
    tmp_path, capsys, branching, decision
):
    # A ReLU tree split on an input, or an input tree split on a ReLU, is a
    # parse error naming the node, under the tree's own branching.
    root = {"id": 0, "parent": None, "decision": None, "split": {"left": 1, "right": 2}}
    children = [{"id": side + 1, "parent": 0, "decision": decision(side)} for side in (0, 1)]
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps({"branching": branching, "nodes": [root, *children]}), encoding="utf-8")
    code = main(demo_args("--branching", branching, "--tree-in", str(tree_path)))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "node 1" in err and repr(branching) in err
    assert "Traceback" not in err

def test_verify_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    assert main(demo_args("--out", str(out_path))) == EXIT_VERIFIED
    doc = last_json(capsys)
    assert json.loads(out_path.read_text(encoding="utf-8")) == doc


def test_incremental_ivan_demo(capsys):
    assert main(demo_incremental_args("ivan")) == EXIT_VERIFIED
    doc = last_json(capsys)
    assert doc["first"]["metrics"]["boundings"] == 9
    assert doc["first"]["metrics"]["branchings"] == 4
    assert doc["second"]["metrics"]["boundings"] == 3
    assert doc["second"]["metrics"]["branchings"] == 0
    assert doc["speedup"]["call_units"] == pytest.approx(13 / 3)


def test_incremental_reuse_identical_networks(tmp_path, capsys):
    prop = Property(InputBox(np.zeros(1), np.ones(1)), OutputConstraint(np.array([1.0]), 100.0))
    net_path, prop_path = write_pair(tmp_path, tiny_net(), prop)
    args = [
        "verify-incremental",
        "--network", net_path,
        "--updated-network", net_path,
        "--property", prop_path,
        "--mode", "reuse",
    ]
    assert main(args) == EXIT_VERIFIED
    doc = last_json(capsys)
    # Reusing a finished proof on the same network re-bounds each leaf once.
    assert doc["second"]["metrics"]["boundings"] == doc["first"]["metrics"]["leaves_final"]
    assert doc["second"]["metrics"]["branchings"] == 0


def test_incremental_baseline_matches_plain_verify(capsys):
    assert main(demo_incremental_args("baseline")) == EXIT_VERIFIED
    paired = last_json(capsys)
    assert (
        main(
            [
                "verify",
                "--network", str(FIXTURES / "demo_updated.json"),
                "--property", str(FIXTURES / "demo_property.json"),
                *DEMO_FLAGS,
            ]
        )
        == EXIT_VERIFIED
    )
    single = last_json(capsys)
    for key in ("boundings", "branchings", "nodes_final", "leaves_final"):
        assert paired["second"]["metrics"][key] == single["metrics"][key]


def test_incremental_architecture_mismatch_exits_65(tmp_path, capsys):
    prop = Property(InputBox(np.zeros(1), np.ones(1)), OutputConstraint(np.array([1.0]), 100.0))
    net_path, prop_path = write_pair(tmp_path, tiny_net(), prop)
    other = Network(
        (
            Affine(np.array([[1.0], [1.0], [1.0]]), np.zeros(3)),
            Relu(),
            Affine(np.ones((1, 3)), np.zeros(1)),
        )
    )
    other_path = str(tmp_path / "other.json")
    save_network(other, other_path)
    args = [
        "verify-incremental",
        "--network", net_path,
        "--updated-network", other_path,
        "--property", prop_path,
    ]
    assert main(args) == EXIT_ARCH_MISMATCH
    assert "architecture" in capsys.readouterr().err


def make_plan(tmp_path, modes, networks=None, out_name="exp", perturbations=None):
    plan = {
        "networks": networks or [str(FIXTURES / "demo_network.json")],
        "perturbations": perturbations or [{"kind": "quantize_int8"}],
        "properties": [str(FIXTURES / "demo_property.json")],
        "modes": modes,
        "timeout": 30.0,
        "output_dir": str(tmp_path / out_name),
    }
    plan_path = tmp_path / f"{out_name}_plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    return str(plan_path), Path(plan["output_dir"])


def demo_mode(name):
    return {"mode": name, "heuristic": "random", "seed": 27, "alpha": 0.25, "theta": 1.0}


def read_rows(out_dir):
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_experiment_sweep_outputs(tmp_path, capsys):
    plan_path, out_dir = make_plan(tmp_path, [demo_mode("baseline"), demo_mode("ivan")])
    assert main(["experiment", "--plan", plan_path]) == EXIT_VERIFIED
    capsys.readouterr()
    rows = read_rows(out_dir)
    assert len(rows) == 2
    assert [r["mode"] for r in rows] == ["baseline", "ivan"]
    assert list(rows[0].keys()) == list(RESULTS_COLUMNS)
    ivan = rows[1]
    assert ivan["first_cost_units"] == "13"
    assert ivan["second_cost_units"] == "3"
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["instances"] == 2
    assert summary["errors"] == 0
    # The demo proof tree has 9 > 5 nodes, so the instance lands in "hard".
    assert summary["modes"]["ivan"]["hard"]["count"] == 1
    assert summary["modes"]["ivan"]["easy"]["Sp"] == "n/a"
    assert summary["modes"]["ivan"]["overall"]["Sp"] > 1.0
    scatter = list(csv.DictReader(open(out_dir / "scatter.csv", encoding="utf-8", newline="")))
    assert len(scatter) == 1
    assert scatter[0]["bucket"] == "hard"


def test_experiment_results_deterministic(tmp_path, capsys):
    plan_path, out_dir = make_plan(tmp_path, [demo_mode("baseline"), demo_mode("reuse")])
    assert main(["experiment", "--plan", plan_path]) == EXIT_VERIFIED
    first = (out_dir / "results.csv").read_bytes()
    assert main(["experiment", "--plan", plan_path]) == EXIT_VERIFIED
    capsys.readouterr()
    assert (out_dir / "results.csv").read_bytes() == first


def test_experiment_speedup_na_without_baseline(tmp_path, capsys):
    plan_path, out_dir = make_plan(tmp_path, [demo_mode("ivan")])
    assert main(["experiment", "--plan", plan_path]) == EXIT_VERIFIED
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["modes"]["ivan"]["overall"]["Sp"] == "n/a"


def test_experiment_records_failure_and_continues(tmp_path, capsys):
    plan_path, out_dir = make_plan(
        tmp_path,
        [demo_mode("ivan")],
        networks=[str(tmp_path / "missing.json"), str(FIXTURES / "demo_network.json")],
    )
    assert main(["experiment", "--plan", plan_path]) == EXIT_VERIFIED
    capsys.readouterr()
    rows = read_rows(out_dir)
    assert len(rows) == 2
    assert rows[0]["error"] != ""
    assert rows[0]["first_verdict"] == ""
    assert rows[1]["error"] == ""
    assert rows[1]["second_verdict"] == "Verified"
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["errors"] == 1


def test_experiment_rejects_empty_plan_sections(tmp_path, capsys):
    plan = {
        "networks": [],
        "perturbations": [{"kind": "quantize_int8"}],
        "properties": [str(FIXTURES / "demo_property.json")],
        "modes": [demo_mode("ivan")],
        "output_dir": str(tmp_path / "exp"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["experiment", "--plan", str(plan_path)]) > EXIT_TIMEOUT
    assert "networks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, where",
    [
        ({"modes": [{**demo_mode("ivan"), "heuristic": "bogus"}]}, "modes[0]"),
        ({"modes": [demo_mode("ivan"), {**demo_mode("ivan"), "alpha": 2}]}, "modes[1]"),
        ({"modes": [{**demo_mode("ivan"), "branching": "x"}]}, "modes[0]"),
        ({"modes": [{**demo_mode("ivan"), "seed": -1}]}, "modes[0]"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": True}, "timeout"),
        ({"perturbations": [{"kind": "uniform_random", "fraction": math.nan}]}, "perturbations[0]"),
        ({"perturbations": [{"kind": "uniform_random", "fraction": 0.1, "seed": -2}]}, "perturbations[0]"),
        ({"perturbations": [{"kind": "last_layer"}]}, "perturbations[0]"),
        ({"perturbations": [["quantize_int8"]]}, "perturbations[0]"),
        ({"modes": ["ivan"]}, "modes[0]"),
        ({"modes": [{**demo_mode("ivan"), "mode": "nope"}]}, "modes[0]"),
        ({"modes": [{**demo_mode("ivan"), "alpha": True}]}, "modes[0]"),
        ({"modes": [{**demo_mode("ivan"), "theta": False}]}, "modes[0]"),
        ({"modes": [{**demo_mode("ivan"), "seed": 2.7}]}, "modes[0]"),
        ({"perturbations": [{"kind": "uniform_random", "fraction": True}]}, "perturbations[0]"),
        ({"perturbations": [{"kind": "uniform_random", "fraction": 0.1, "seed": 1.9}]}, "perturbations[0]"),
        ({"perturbations": [{"kind": "last_layer", "matrix": [[True]]}]}, "perturbations[0]"),
        ({"perturbations": [{"kind": "last_layer", "matrix": [[1.0], [1.0, 2.0]]}]}, "perturbations[0]"),
        ({"perturbations": [{"kind": "last_layer", "matrix": []}]}, "perturbations[0].matrix"),
        ({"networks": [0]}, "networks"),
        ({"networks": str(FIXTURES / "demo_network.json")}, "networks"),
        ({"properties": [str(FIXTURES / "demo_property.json"), None]}, "properties"),
        ({"output_dir": 7}, "output_dir"),
        ({"modes": demo_mode("ivan")}, "modes"),
    ],
    ids=[
        "heuristic", "alpha", "branching", "seed", "timeout", "timeout-bool", "fraction",
        "rng-seed", "no-matrix", "perturbation-not-object", "mode-not-object", "mode",
        "alpha-bool", "theta-bool", "seed-fraction", "fraction-bool", "rng-seed-fraction",
        "matrix-bool", "matrix-ragged", "matrix-empty", "network-not-path", "networks-not-list",
        "property-not-path", "output-dir-not-path", "modes-not-list",
    ],
)
def test_experiment_rejects_a_bad_plan_before_running(tmp_path, capsys, edit, where):
    plan_path, out_dir = make_plan(tmp_path, [demo_mode("ivan")])
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    Path(plan_path).write_text(json.dumps({**plan, **edit}), encoding="utf-8")
    assert main(["experiment", "--plan", plan_path]) == EXIT_ERROR
    assert f"{plan_path}.{where}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_experiment_jobs_matches_serial(tmp_path, capsys):
    # every perturbation kind, so each parsed spec crosses a worker's pipe,
    # a LastLayer's matrix too
    perturbations = [
        {"kind": "quantize_int8"},
        {"kind": "quantize_int16"},
        {"kind": "uniform_random", "fraction": 0.02, "seed": 7},
        {"kind": "last_layer", "matrix": [[0.01, -0.02]]},
    ]
    modes = [demo_mode("baseline"), demo_mode("ivan")]
    serial_plan, serial_dir = make_plan(tmp_path, modes, out_name="serial", perturbations=perturbations)
    parallel_plan, parallel_dir = make_plan(
        tmp_path, modes, out_name="parallel", perturbations=perturbations
    )
    assert main(["experiment", "--plan", serial_plan]) == EXIT_VERIFIED
    assert main(["experiment", "--plan", parallel_plan, "--jobs", "2"]) == EXIT_VERIFIED
    capsys.readouterr()
    rows = read_rows(serial_dir)
    labels = ["quantize_int8", "quantize_int16", "uniform_random:0.02:7", "last_layer"]
    assert [r["perturbation"] for r in rows] == [label for label in labels for _ in modes]
    assert all(r["error"] == "" and r["second_verdict"] == "Verified" for r in rows)
    assert (serial_dir / "results.csv").read_bytes() == (parallel_dir / "results.csv").read_bytes()


MALFORMED = '{"name": "demo",\n "layers": [1,]}\n'  # line 2, column 15: a value is missing


@pytest.mark.parametrize(
    "read",
    [load_network, load_property, load_tree, cli.load_plan],
    ids=["network", "property", "tree", "plan"],
)
def test_a_reader_names_the_line_and_column_of_a_syntax_error(tmp_path, read):
    path = tmp_path / "malformed.json"
    path.write_text(MALFORMED, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read(path)
    assert str(err.value) == f"{path}: line 2 column 15: Expecting value"


def test_experiment_with_a_malformed_plan_exits_70(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(MALFORMED, encoding="utf-8")
    assert main(["experiment", "--plan", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {path}: line 2 column 15: Expecting value\n"


# The experiment workers run whatever cli._run_instance is when they are
# forked; this stand-in kills its worker on a network named doomed.json.
_REAL_RUN_INSTANCE = cli._run_instance


def _run_instance_or_die(task):
    if task[0].endswith("doomed.json"):
        os._exit(1)
    return _REAL_RUN_INSTANCE(task)


def doomed_plan(tmp_path, networks=("demo_network.json", "doomed.json")):
    """A plan of one ivan task per network, each a copy of the demo network."""
    paths = [tmp_path / name for name in networks]
    for path in paths:
        shutil.copy(FIXTURES / "demo_network.json", path)
    return make_plan(tmp_path, [demo_mode("ivan")], networks=[str(p) for p in paths])


forked = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stand-ins reach the workers only when they are forked",
)


@forked
def test_experiment_survives_a_worker_that_dies(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_run_instance", _run_instance_or_die)
    plan_path, out_dir = doomed_plan(tmp_path)
    assert main(["experiment", "--plan", plan_path, "--jobs", "2"]) == EXIT_VERIFIED
    assert multiprocessing.active_children() == []
    capsys.readouterr()
    rows = read_rows(out_dir)
    assert [r["network"].endswith("doomed.json") for r in rows] == [False, True]
    assert rows[1]["error"] == "ChildProcessError: worker exited with code 1"
    assert rows[1]["second_verdict"] == ""
    assert rows[0]["error"] == ""
    assert rows[0]["second_verdict"] == "Verified"
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert (summary["instances"], summary["errors"]) == (2, 1)
    assert (out_dir / "scatter.csv").exists()


class CountedWorker(multiprocessing.Process):
    """A worker process that records, once started, how many workers are alive."""

    alive = []

    def start(self):
        super().start()
        live = [p for p in multiprocessing.active_children() if isinstance(p, CountedWorker)]
        CountedWorker.alive.append(len(live))


@pytest.fixture
def counted_workers(monkeypatch):
    CountedWorker.alive = []
    monkeypatch.setattr(cli.multiprocessing, "Process", CountedWorker)
    return CountedWorker


@forked
def test_experiment_starts_at_most_one_worker_per_task(tmp_path, capsys, counted_workers):
    plan_path, out_dir = make_plan(tmp_path, [demo_mode("baseline"), demo_mode("ivan")])
    for jobs in ("2", "3", "8"):
        assert main(["experiment", "--plan", plan_path, "--jobs", jobs]) == EXIT_VERIFIED
        assert counted_workers.alive == [1, 2]
        counted_workers.alive.clear()
    assert main(["experiment", "--plan", plan_path, "--jobs", "1"]) == EXIT_VERIFIED
    assert counted_workers.alive == []  # one job runs in process, without a worker
    assert multiprocessing.active_children() == []
    capsys.readouterr()


@forked
def test_experiment_keeps_finished_rows_when_a_task_fails_in_its_worker(
    tmp_path, capsys, monkeypatch, counted_workers
):
    monkeypatch.setattr(cli, "_run_instance", _run_instance_or_die)
    plan_path, out_dir = doomed_plan(tmp_path)
    assert main(["experiment", "--plan", plan_path, "--jobs", "4"]) == EXIT_VERIFIED
    assert multiprocessing.active_children() == []
    capsys.readouterr()
    assert counted_workers.alive == [1, 2]
    rows = read_rows(out_dir)
    assert rows[0]["error"] == ""
    assert rows[0]["second_verdict"] == "Verified"
    assert rows[1]["error"] == "ChildProcessError: worker exited with code 1"
    assert rows[1]["first_verdict"] == ""
    assert [rows[1][col] for col in ("network", "mode", "seed")] == [
        str(tmp_path / "doomed.json"),
        "ivan",
        "27",
    ]
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert (summary["instances"], summary["errors"]) == (2, 1)


@forked
def test_experiment_replaces_a_worker_that_dies(tmp_path, capsys, monkeypatch, counted_workers):
    # The doomed task is the first of three, and a's worker waits until b
    # has started: a fresh worker must take b.  Each task runs exactly once.
    plan_path, out_dir = doomed_plan(tmp_path, ("doomed.json", "a.json", "b.json"))
    assert main(["experiment", "--plan", plan_path]) == EXIT_VERIFIED
    serial = read_rows(out_dir)
    ran = tmp_path / "ran.txt"
    ran.touch()

    def run_logged(task):
        name = Path(task[0]).name
        deadline = time.monotonic() + 30.0
        while name == "a.json" and "b.json" not in ran.read_text(encoding="utf-8"):
            assert time.monotonic() < deadline, "no worker took b while a ran"
            time.sleep(0.002)
        with open(ran, "a", encoding="utf-8") as fh:
            fh.write(name + "\n")
        return _run_instance_or_die(task)

    monkeypatch.setattr(cli, "_run_instance", run_logged)
    assert main(["experiment", "--plan", plan_path, "--jobs", "2"]) == EXIT_VERIFIED
    assert multiprocessing.active_children() == []
    capsys.readouterr()
    rows = read_rows(out_dir)
    assert rows[0]["error"] == "ChildProcessError: worker exited with code 1"
    assert rows[1:] == serial[1:]
    assert ran.read_text(encoding="utf-8").split() == ["doomed.json", "b.json", "a.json"]
    assert len(counted_workers.alive) == 3 and max(counted_workers.alive) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_jobs_below_one_exits_64(tmp_path, capsys, jobs):
    plan_path, out_dir = make_plan(tmp_path, [demo_mode("ivan")])
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--plan", plan_path, "--jobs", jobs])
    assert err.value.code == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists()


def test_unreadable_network_exits_70(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code = main(["verify", "--network", missing, "--property", missing])
    assert code > EXIT_TIMEOUT
    assert code != EXIT_USAGE and code != EXIT_ARCH_MISMATCH
    assert "error:" in capsys.readouterr().err


def test_nan_timeout_exits_70(capsys):
    # a NaN budget would never run out, so the configuration refuses it
    assert main(demo_args("--timeout", "nan")) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "timeout" in err[0]


def test_log_env_controls_verbosity():
    cmd = [
        sys.executable, "-m", "incver.cli",
        *demo_incremental_args("reuse"),
    ]
    base_env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
    quiet = subprocess.run(cmd, capture_output=True, text=True, env=base_env)
    assert quiet.returncode == EXIT_VERIFIED
    noisy = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        env={**base_env, "INCVER_LOG": "DEBUG"},
    )
    assert noisy.returncode == EXIT_VERIFIED
    # the speedup line's wall-time ratio varies from run to run (9.87x, 10.12x)
    def logged(run):
        return re.sub(r"wall [0-9.]+x", "wall x", run.stderr)

    assert len(logged(noisy)) >= len(logged(quiet))
    # at DEBUG each verify run writes a line per bounding phase and ends with
    # one line of its work: the first run, then reuse's second run, whose two
    # LP leaves are handed the first run's bases.  Both bases proved their
    # leaves, and their duals prove them again on the updated network, so
    # neither leaf needs an LP; one of the two bases is not even primal
    # feasible there, which would have made its LP start cold.
    runs = [line for line in noisy.stderr.splitlines() if line.startswith("DEBUG:incver.verifier:")]
    assert runs == [
        "DEBUG:incver.verifier:phase 1: 1 nodes, 1 LPs (0 warm), 0 certified, 0 corners, 0 settled, 1 splits "
        "[relu(0, 0)]",
        "DEBUG:incver.verifier:phase 2: 2 nodes, 2 LPs (0 warm), 0 certified, 0 corners, 0 settled, 2 splits "
        "[relu(1, 0) relu(1, 0)]",
        "DEBUG:incver.verifier:phase 3: 4 nodes, 2 LPs (0 warm), 0 certified, 0 corners, 3 settled, 1 splits "
        "[relu(1, 1)]",
        "DEBUG:incver.verifier:phase 4: 2 nodes, 1 LPs (0 warm), 0 certified, 0 corners, 2 settled, 0 splits []",
        "DEBUG:incver.verifier:verify Verified: 9 boundings, 4 branchings, 6 LPs (0 warm), 0 certified, 12 pivots",
        "DEBUG:incver.verifier:phase 1: 5 nodes, 0 LPs (0 warm), 2 certified, 0 corners, 5 settled, 0 splits []",
        "DEBUG:incver.verifier:verify Verified: 5 boundings, 0 branchings, 0 LPs (0 warm), 2 certified, 0 pivots",
    ]
    assert "incver.verifier" not in quiet.stderr
    junk = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        env={**base_env, "INCVER_LOG": "not-a-level"},
    )
    assert junk.returncode == EXIT_VERIFIED

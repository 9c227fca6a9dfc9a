"""Branch-and-bound verification with proof-tree reuse across network edits.

``verify`` runs the search on one network, growing a specification tree
whose leaves partition the property into subproblems the analyzer can
settle.  ``verify_incremental`` verifies an original network, then replays
its proof tree (reused, reordered, or pruned, depending on the mode)
against an updated network so the second run starts from the structure
that worked the first time instead of from scratch.  Modes reuse and ivan
also carry each LP's final simplex basis from the first run to the same
subproblem in the second, where a basis whose LP proved its subproblem
first tries to prove it again from its duals, with no LP, and any other
basis starts the LP.

Each ``verify`` run writes DEBUG lines to the ``incver.verifier`` logger:
one per bounding phase (frontier size, LPs and how many started warm, nodes
proved by a carried basis's duals, nodes refuted at their walk corner
without an LP, nodes settled, splits chosen) and one when it ends (its
verdict and work counts).
``verify_incremental`` in mode ivan writes one more between its runs: theta
and the internal nodes of the first run's tree and of the pruned tree.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from incver.analyzer import Verdict, analyze, bound_regions, compute_bounds
from incver.heuristics import HeuristicConfig, choose_input_split, choose_split
from incver.lp import LpTimeout
from incver.model import Affine, Network, relu_ids, same_architecture
from incver.props import Property
from incver.spectree import (
    InputDecision,
    NodeStatus,
    ReluDecision,
    SpecTree,
    leaves,
    narrow,
    observed_scores,
    prune,
    reset_copy,
    singleton,
    split,
)

BRANCHINGS = ("relu", "input")

log = logging.getLogger("incver.verifier")


class Mode(Enum):
    """How the second run of verify_incremental uses the first run's tree."""

    BASELINE = "baseline"
    REUSE = "reuse"
    REORDER = "reorder"
    IVAN = "ivan"


class RunVerdict(Enum):
    VERIFIED = "Verified"
    COUNTEREXAMPLE = "Counterexample"
    TIMEOUT = "Timeout"


@dataclass(frozen=True)
class VerifierConfig:
    mode: Mode = Mode.BASELINE
    heuristic: HeuristicConfig = HeuristicConfig()
    timeout: float = 60.0
    max_nodes: int = 100_000
    branching: str = "relu"
    min_width: float = 1e-6

    def __post_init__(self) -> None:
        if not self.timeout > 0:  # NaN too: no elapsed time exceeds a NaN deadline
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if self.branching not in BRANCHINGS:
            raise ValueError(f"branching must be one of {BRANCHINGS}, got {self.branching!r}")
        if not self.min_width > 0:  # a NaN width would never stop input splitting
            raise ValueError(f"min_width must be positive, got {self.min_width}")


@dataclass
class RunMetrics:
    """Work done by one verification run.

    ``verify`` fills one instance in place: it creates it with
    nodes_initial, adds to each counter and timer where that work is done,
    and sets wall_time, nodes_final and leaves_final as the run ends.  Every
    field defaults to zero.

    boundings counts analyzer calls; branchings counts tree splits.  For a
    completed run these satisfy the tree accounting identities

        boundings  == nodes_final - nodes_initial + leaves_initial
        branchings == internal_final - internal_initial

    because every starting leaf and every created node is bounded exactly
    once, and every split adds one internal node.  lps counts the boundings
    that solved an LP (the others, whose verdict's ``lp`` is None, were
    settled from their propagated bounds alone or certified) and pivots
    sums those LPs' simplex pivots (``LpOutcome.iterations``),
    phase1_pivots the share of them that phase 1 applied to reach a
    feasible basis.
    factorizations sums those LPs' factorizations of a basis matrix (see
    ``LpOutcome.factorizations``): two for a cold LP that pivots, one for
    a cold LP whose crash basis is already optimal or that phase 1 proves
    infeasible, two to four for a warm one.  infeasible counts the
    boundings that found their region empty, by propagation or by an LP
    that phase 1 proved infeasible.  corners counts the boundings refuted
    without an LP, at the input corner of their objective walk (see
    ``analyzer.analyze``); only a new box, the root's or an input split
    child's, is refuted there.  warm counts the LPs that started from a
    basis carried from an earlier run (``verify``'s ``bases``): only the
    second runs of modes reuse and ivan have any.  certified counts the
    boundings that such a carried basis proved from its duals, by weak
    duality with no LP (``analyzer.analyze``); they are neither LPs nor
    warm starts, and only the same second runs have any.
    passes counts propagation passes: one per node of a frontier and one per
    internal node of an initial tree, except where the parent region is
    already empty and its bounds are handed on without a pass (a run that
    times out within a phase has made the passes of the whole phase, so it
    can count more passes than boundings).  walks counts those passes'
    back-substitution walks: one per ReLU layer whose walk a pass did not
    take from its parent's bounds, and one for the output.  batches counts
    the batched propagation calls that made them: one per bounding phase
    and one per level of an initial tree with an internal node.

    propagate_s, build_s and solve_s are the seconds spent in those batched
    passes, in building the bounding LPs and in solving them; a certified
    bounding's program counts as built, and its duality check as solving.
    The rest of wall_time is the search itself (split choice, tree
    bookkeeping).
    """

    boundings: int = 0
    branchings: int = 0
    wall_time: float = 0.0
    nodes_initial: int = 0
    nodes_final: int = 0
    leaves_final: int = 0
    lps: int = 0
    pivots: int = 0
    phase1_pivots: int = 0
    factorizations: int = 0
    infeasible: int = 0
    corners: int = 0
    passes: int = 0
    walks: int = 0
    warm: int = 0
    certified: int = 0
    batches: int = 0
    propagate_s: float = 0.0
    build_s: float = 0.0
    solve_s: float = 0.0

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class RunResult:
    verdict: RunVerdict
    tree: SpecTree
    metrics: RunMetrics
    counterexample: Optional[np.ndarray] = None
    note: str = ""


@dataclass(frozen=True)
class DeltaBound:
    """Certified radius for last-layer weight perturbations.

    Any perturbation E of the final affine weights with Frobenius norm at
    most ``delta`` leaves every leaf of the recorded proof tree verifiable
    without further splitting, because the bounding LP's feasible region is
    unchanged and its objective shifts by at most |c|_2 * |E|_F * eta.
    ``eta`` upper-bounds the 2-norm of the activations feeding the final
    layer over the whole input box; ``lb_min`` is the weakest leaf bound.
    A leaf that bound propagation verified without an LP records that
    bound, and one that a carried basis certified records its weak-duality
    bound; each is at most the leaf's LP optimum: the radius stays sound,
    but it can be smaller than the LP optima alone would give.
    A degenerate eta of zero makes every perturbation harmless, reported
    as delta = inf.
    """

    delta: float
    lb_min: float
    eta: float
    c_norm: float


def _check_fits(tree: SpecTree, net: Network) -> None:
    """Reject a tree whose decisions name ReLUs or input axes the network lacks."""
    units = set(relu_ids(net))
    for nid in sorted(tree.nodes):
        d = tree.nodes[nid].decision
        if isinstance(d, ReluDecision):
            fits = d.rid in units
        else:
            fits = d is None or (0 <= d.dim < net.input_dim and math.isfinite(d.cut))
        if not fits:
            raise ValueError(f"initial tree node {nid}: {d} does not fit the network")


def verify(
    net: Network,
    prop: Property,
    cfg: VerifierConfig,
    initial_tree: Optional[SpecTree] = None,
    hobs: Optional[dict] = None,
    bases: Optional[dict] = None,
) -> RunResult:
    """Branch-and-bound from the given tree's leaves (singleton if omitted).

    The run works phase by phase: bound every active node, then split the
    inconclusive ones and make their children the next phase's frontier.
    A phase's bounds are propagated in one batched pass
    (``analyzer.bound_regions``), and each node is then settled from its own
    by ``analyze``: by the propagation bound alone, by the network's value
    at the corner that bound's walk read (a counterexample there, on the
    root's box or an input split child's), by a carried basis's duals (see
    ``bases``), or by its LP; the verdict's ``lp`` is None unless an LP
    ran, and its counts are summed into the run's metrics.  A whole phase
    is bounded before any counterexample is acted on, and the
    lowest-numbered violating node wins, so results and call counts do not
    depend on evaluation order within a phase.

    ``hobs`` carries per-split effectiveness statistics recorded on an
    earlier proof tree and goes to ``choose_split`` as its ``observed``;
    when None, candidates are scored by the base heuristic alone.
    The caller's ``initial_tree`` is never mutated: its structure is copied
    and re-annotated from scratch, since bounds proved on one network mean
    nothing on another; a tree that does not fit ``net`` (a decision naming
    a ReLU or input axis it lacks, or an input cut outside its parent's box)
    raises ValueError, naming the lowest-numbered such node (a misfit
    decision before a misfit cut).  Each frontier entry carries its node's
    subproblem (box, splits, parent's bounds), built from its parent's with
    ``spectree.narrow``.  Every node is bounded in one pass from its parent's
    bounds, whichever the branching, an initial tree's internal nodes too
    (once each, no LP, walked level by level, one batched pass per level);
    the branching only decides how an inconclusive node is split.

    The run's deadline, ``cfg.timeout`` seconds after it starts, is checked
    before each level, phase and bounding, and goes through ``analyze`` to
    the simplex, which checks it before each pivot.  Either check raises
    ``LpTimeout``, and the run's one deadline exit, an ``except LpTimeout``
    around the initial tree's walk and the phase loop, ends it as Timeout
    ("wall-clock timeout") with the metrics of the work done until then (a
    bounding whose LP was cut off mid-solve is not counted).

    ``bases`` is a map the caller owns from a node's subproblem,
    ``(frozenset(splits.items()), box.lower.tobytes(), box.upper.tobytes())``,
    to an LP's final basis and whether that LP ended Verified.  Before each
    bounding the node's entry, if any, goes to ``analyze`` as the LP's
    ``start`` and ``proved``, and after an LP that left a basis the entry is
    set to it.  With ``bases=None`` nothing is looked up or stored.  A
    proved start is first tried as a certificate: when its duals on the
    node's program prove the node by weak duality, the node is Verified
    with that bound as its lb and no LP, and its entry stays as it was.
    Otherwise, and for a start that did not prove its node, the LP starts
    from it.  A start saves pivots; the LP's status stays, but its optimum
    can move within the solver's tolerance and its argmin to another
    optimal vertex, so a recorded lb can differ in its last bits.  A
    certified lb is at most the LP optimum, by a rounding error when the
    basis is still optimal.  Neither changes a verdict, a bounding or a
    branching: a failed certificate falls back to the LP.
    """
    start = time.perf_counter()
    deadline = start + cfg.timeout
    if initial_tree is None:
        tree = singleton(cfg.branching)
    else:
        if initial_tree.branching != cfg.branching:
            raise ValueError(
                f"initial tree branches on {initial_tree.branching!r} "
                f"but the configuration says {cfg.branching!r}"
            )
        _check_fits(initial_tree, net)
        tree = reset_copy(initial_tree)
    m = RunMetrics(nodes_initial=tree.num_nodes())

    def finish(verdict: RunVerdict, **extra) -> RunResult:
        m.wall_time = time.perf_counter() - start
        m.nodes_final, m.leaves_final = tree.num_nodes(), tree.num_leaves()
        log.debug(
            "verify %s: %d boundings, %d branchings, %d LPs (%d warm), %d certified, %d pivots",
            verdict.value, m.boundings, m.branchings, m.lps, m.warm, m.certified, m.pivots,
        )
        return RunResult(verdict, tree, m, **extra)

    def check_deadline() -> None:
        if time.perf_counter() > deadline:
            raise LpTimeout("wall-clock timeout")

    def propagate(entries, objective=None) -> list:
        """Bound the entries' regions in one batched pass, counting its passes and walks."""
        t = time.perf_counter()
        out = bound_regions(net, [entry[1:] for entry in entries], objective)
        m.propagate_s += time.perf_counter() - t
        m.batches += 1
        for (*_, parent), bounds in zip(entries, out):
            if bounds is not parent:  # an empty parent's bounds are handed on without a pass
                m.passes += 1
                m.walks += bounds.walks
        return out

    try:
        # The first frontier: the initial tree's leaves, (nid, box, splits,
        # parent bounds).  The tree is walked level by level, each level's
        # internal nodes bounded in one batch; a cut outside its parent's box
        # ends its branch of the walk, and the lowest such node is reported
        # once the walk is done.
        active, level, misfits = [], [(tree.root, prop.input, {}, None)], {}
        while level:
            inner = []
            for entry in level:
                (active if tree.node(entry[0]).is_leaf else inner).append(entry)
            if not inner:
                break
            check_deadline()
            level = []
            for (nid, box, splits, _), bounds in zip(inner, propagate(inner)):
                node = tree.node(nid)
                for cid in (node.left, node.right):
                    d = tree.node(cid).decision
                    if isinstance(d, InputDecision) and not box.lower[d.dim] <= d.cut <= box.upper[d.dim]:
                        misfits[cid] = (
                            f"initial tree node {cid}: cut {d.cut} on input {d.dim} lies outside "
                            f"its parent's [{box.lower[d.dim]}, {box.upper[d.dim]}]"
                        )
                    else:
                        level.append((cid, *narrow(box, splits, d), bounds))
        if misfits:
            raise ValueError(misfits[min(misfits)])
        active.sort(key=lambda entry: entry[0])

        phase = 0
        while active:
            # Bounding phase: propagate the whole frontier in one batch, then
            # settle each node from its bounds, by propagation or by its LP.
            check_deadline()
            phase += 1
            outcomes = []
            for (nid, box, splits, _), bounds in zip(active, propagate(active, prop.output.c)):
                check_deadline()
                key, carried, proved = None, None, False
                if bases is not None:
                    key = (frozenset(splits.items()), box.lower.tobytes(), box.upper.tobytes())
                    carried, proved = bases.get(key, (None, False))
                node_prop = Property(box, prop.output, name=prop.name)
                res = analyze(net, node_prop, bounds, start=carried, deadline=deadline, proved=proved)
                m.boundings += 1
                m.infeasible += res.infeasible
                m.certified += res.certified
                m.build_s += res.build_s
                m.solve_s += res.solve_s
                if res.lp is None:
                    m.corners += res.status is Verdict.COUNTEREXAMPLE
                else:
                    m.lps += 1
                    m.pivots += res.lp.iterations
                    m.phase1_pivots += res.lp.phase1
                    m.factorizations += res.lp.factorizations
                    m.warm += res.lp.warm
                    if bases is not None and res.lp.basis is not None:
                        bases[key] = (res.lp.basis, res.status is Verdict.VERIFIED)
                node = tree.node(nid)
                node.lb = res.lb_value
                node.status = NodeStatus(res.status.value)
                outcomes.append((nid, box, splits, res))

            violations = [(nid, r) for nid, _, _, r in outcomes if r.status is Verdict.COUNTEREXAMPLE]
            if violations:
                _log_phase(phase, outcomes, [])
                nid, res = min(violations, key=lambda pair: pair[0])
                return finish(RunVerdict.COUNTEREXAMPLE, counterexample=res.candidate)

            # Branching phase: split every node the analyzer could not settle,
            # ranking candidates from the bounds its bounding call computed.
            active, chosen = [], []
            for nid, box, splits, res in outcomes:
                if res.status is not Verdict.UNKNOWN:
                    continue
                if tree.num_nodes() + 2 > cfg.max_nodes:
                    return finish(RunVerdict.TIMEOUT, note=f"node budget of {cfg.max_nodes} exhausted")
                if tree.branching == "relu":
                    pick = choose_split(cfg.heuristic, res.bounds, observed=hobs)
                    if pick is None:
                        raise RuntimeError(
                            f"node {nid} is inconclusive but every ReLU is stable or "
                            "already split; an exactly-encoded subproblem must resolve"
                        )
                else:
                    if float(box.widths().max()) <= cfg.min_width:
                        return finish(
                            RunVerdict.TIMEOUT,
                            note=f"minimum box width {cfg.min_width} reached at node {nid}",
                        )
                    pick = choose_input_split(box)
                for cid, d in zip(split(tree, nid, pick), pick):
                    active.append((cid, *narrow(box, splits, d), res.bounds))
                m.branchings += 1
                chosen.append(pick[0])
            _log_phase(phase, outcomes, chosen)
    except LpTimeout:  # the search loop's deadline check or the simplex's
        return finish(RunVerdict.TIMEOUT, note="wall-clock timeout")
    return finish(RunVerdict.VERIFIED)


def _log_phase(phase: int, outcomes: list, chosen: list) -> None:
    """One DEBUG line for a bounding phase, counted from its own verdicts."""
    if log.isEnabledFor(logging.DEBUG):
        verdicts = [res for *_, res in outcomes]
        lps = [res.lp for res in verdicts if res.lp is not None]
        log.debug(
            "phase %d: %d nodes, %d LPs (%d warm), %d certified, %d corners, %d settled, %d splits [%s]",
            phase, len(verdicts), len(lps), sum(lp.warm for lp in lps), sum(res.certified for res in verdicts),
            sum(res.lp is None and res.status is Verdict.COUNTEREXAMPLE for res in verdicts),
            sum(res.status is not Verdict.UNKNOWN for res in verdicts),
            len(chosen), " ".join(_label(d) for d in chosen),
        )


def _label(decision) -> str:
    """A split for the log: ``relu(layer, neuron)``, or ``x<dim>@<cut>`` for an input split."""
    if isinstance(decision, ReluDecision):
        return f"relu({decision.rid.layer}, {decision.rid.neuron})"
    return f"x{decision.dim}@{decision.cut:.6g}"


def verify_incremental(
    net_original: Network,
    net_updated: Network,
    prop: Property,
    cfg: VerifierConfig,
) -> Tuple[RunResult, RunResult]:
    """Verify the original network, then the updated one using its proof.

    The first run is always a from-scratch search on ``net_original``.  The
    second run starts from material the first produced, per ``cfg.mode``:

    * baseline: nothing carried over, fresh search on the updated network;
    * reuse: start from a blank copy of the first run's final tree;
    * reorder: fresh tree, but candidate splits are re-ranked by their
      recorded effectiveness;
    * ivan: both, after cutting splits that improved bounds by less than
      theta out of the reused tree.

    Reuse and ivan also hand both runs one ``bases`` map (see
    :func:`verify`), so each LP of the second run starts from the final
    basis of the same subproblem's LP in the first, where there was one,
    and a subproblem whose first LP proved it is first re-proved from that
    basis's duals, with no LP.  The map is dropped on return.  Baseline and
    reorder, and every first run, solve each LP from the crash basis.

    A first run that ended in a counterexample or timeout still hands its
    partial tree over (noted on the second result); the structure it did
    build remains a valid, if unfinished, decomposition.
    """
    if not same_architecture(net_original, net_updated):
        raise ValueError("networks have different architectures; nothing to carry over")
    base_cfg = dataclasses.replace(cfg, mode=Mode.BASELINE)
    bases = {} if cfg.mode in (Mode.REUSE, Mode.IVAN) else None
    first = verify(net_original, prop, base_cfg, bases=bases)

    # choose_input_split ranks nothing, so an input tree's scores would go unread
    hobs = None
    if cfg.mode in (Mode.REORDER, Mode.IVAN) and cfg.branching == "relu":
        hobs = observed_scores(first.tree)
    tree = None
    if cfg.mode is Mode.REUSE:
        tree = first.tree
    elif cfg.mode is Mode.IVAN:
        tree = prune(first.tree, cfg.heuristic.theta)
        log.debug(
            "prune at theta %g: %d internal nodes -> %d",
            cfg.heuristic.theta, first.tree.num_internal(), tree.num_internal(),
        )
    second = verify(net_updated, prop, cfg, initial_tree=tree, hobs=hobs, bases=bases)
    if first.verdict is not RunVerdict.VERIFIED:
        note = f"reused tree comes from a first run that ended {first.verdict.value}"
        second = dataclasses.replace(second, note=f"{second.note}; {note}" if second.note else note)
    return first, second


def predicted_cost(t_a: float, t_h: float, tree0: SpecTree, tree_f: SpecTree) -> float:
    """Closed-form cost of extending tree0 into tree_f.

    With unit costs this equals boundings + branchings of the actual run:
    (t_a + t_h) * (|nodes_f| + (1 - |nodes_0|) / 2) - t_h * |leaves_f|.
    """
    return (t_a + t_h) * (tree_f.num_nodes() + (1 - tree0.num_nodes()) / 2) - (
        t_h * tree_f.num_leaves()
    )


def delta_bound(net: Network, prop: Property, tree: SpecTree) -> DeltaBound:
    """How much the last layer's weights may move before the proof breaks.

    Requires a Verified run's tree: every leaf carries a recorded lower
    bound and every one is >= 0 (else ValueError naming each leaf whose
    bound is negative or NaN: such a tree proves nothing).  A leaf's bound
    is its LP optimum or, where propagation verified the leaf without an
    LP, the weaker propagation bound, or, where a carried basis certified
    it, the weak-duality bound (see :class:`DeltaBound`).  eta is
    computed from this network's bounds over the unsplit root region, so it
    dominates every leaf subregion.
    """
    leaf_lbs = {}
    for nid in leaves(tree):
        lb = tree.node(nid).lb
        if lb is None:
            raise ValueError(f"leaf {nid} has no recorded lower bound; run was not completed")
        leaf_lbs[nid] = lb
    unproved = [f"leaf {nid} has {lb}" for nid, lb in leaf_lbs.items() if not lb >= 0.0]
    if unproved:  # a NaN bound is not >= 0 either
        raise ValueError(f"{', '.join(unproved)}: a negative or NaN leaf bound proves nothing")
    lb_min = min(leaf_lbs.values())

    # Bound the vector feeding the final affine layer by swapping that layer
    # for an identity map and reading the probe network's output bounds; this
    # covers single-affine nets and consecutive trailing affines alike.
    k = net.layers[-1].in_dim
    probe = Network(net.layers[:-1] + (Affine(np.eye(k), np.zeros(k)),))
    bounds = compute_bounds(probe, prop.input, {})
    lo, hi = bounds.out_lb, bounds.out_ub
    eta = float(np.sqrt(np.sum(np.maximum(lo**2, hi**2))))
    c_norm = float(np.linalg.norm(prop.output.c))

    if lb_min == 0.0:
        delta = 0.0
    elif c_norm * eta == 0.0:
        delta = math.inf
    else:
        delta = lb_min / (c_norm * eta)
    return DeltaBound(delta=delta, lb_min=lb_min, eta=eta, c_norm=c_norm)

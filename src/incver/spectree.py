"""Specification trees: the branching state a verification run records.

A specification tree is a rooted full binary tree.  Each edge carries a split
decision (one ReLU pinned to a sign, or one input dimension halved), so every
node denotes a subproblem: the root property restricted by the decisions on
the node's root path.  Nodes carry the lower bound the analyzer proved for
that subproblem and a status.

Trees outlive single runs: a finished run's tree can be saved, loaded,
scored (per-decision observed improvements), and pruned (ineffective splits
spliced out) to warm-start verification of a modified network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from incver.model import ParseError, ReluId, built, expect, read_json, write_json
from incver.props import InputBox

__all__ = [
    "InputDecision",
    "NodeStatus",
    "ReluDecision",
    "SpecNode",
    "SpecTree",
    "improvement",
    "leaves",
    "load_tree",
    "narrow",
    "observed_scores",
    "prune",
    "reset_copy",
    "save_tree",
    "singleton",
    "spec_of",
    "split",
]


# recorded child bounds that agree to this relative tolerance are a tie in prune:
# the same optimum, rounded differently
TIE_RTOL = 1e-12


class NodeStatus(Enum):
    UNANALYZED = "Unanalyzed"
    VERIFIED = "Verified"
    UNKNOWN = "Unknown"
    COUNTEREXAMPLE = "Counterexample"


@dataclass(frozen=True)
class ReluDecision:
    """One ReLU unit pinned to a sign: "+" keeps x = xhat, "-" pins x = 0."""

    rid: ReluId
    sign: str

    def __post_init__(self) -> None:
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")

    def complement(self) -> "ReluDecision":
        return ReluDecision(self.rid, "-" if self.sign == "+" else "+")

    def key(self):
        return self.rid


@dataclass(frozen=True)
class InputDecision:
    """One input dimension restricted to a half: "low" is [lo, cut], "high" is [cut, hi]."""

    dim: int
    half: str
    cut: float

    def __post_init__(self) -> None:
        if self.half not in ("low", "high"):
            raise ValueError(f"half must be 'low' or 'high', got {self.half!r}")

    def complement(self) -> "InputDecision":
        return InputDecision(self.dim, "high" if self.half == "low" else "low", self.cut)

    def key(self):
        return self.dim


Decision = Union[ReluDecision, InputDecision]


@dataclass
class SpecNode:
    node_id: int
    parent: Optional[int] = None
    decision: Optional[Decision] = None  # the edge decision from the parent
    left: Optional[int] = None
    right: Optional[int] = None
    lb: Optional[float] = None
    status: NodeStatus = NodeStatus.UNANALYZED

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class SpecTree:
    branching: str  # "relu" or "input"
    nodes: dict = field(default_factory=dict)
    root: int = 0
    next_id: int = 1

    def node(self, node_id: int) -> SpecNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ValueError(f"no node with id {node_id}") from None

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_leaves(self) -> int:
        return sum(1 for n in self.nodes.values() if n.is_leaf)

    def num_internal(self) -> int:
        return self.num_nodes() - self.num_leaves()


def singleton(branching: str = "relu") -> SpecTree:
    """A one-node tree, its root the full property."""
    if branching not in ("relu", "input"):
        raise ValueError(f"branching must be 'relu' or 'input', got {branching!r}")
    tree = SpecTree(branching=branching)
    tree.nodes[0] = SpecNode(node_id=0)
    return tree


def path_decisions(tree: SpecTree, node_id: int) -> list:
    """Edge decisions from the root down to the node, in path order."""
    chain = []
    cur = tree.node(node_id)
    while cur.parent is not None:
        chain.append(cur.decision)
        cur = tree.node(cur.parent)
    chain.reverse()
    return chain


def split(tree: SpecTree, node_id: int, decision_pair: tuple) -> tuple:
    """Split a leaf in place; returns (left_id, right_id).

    The pair must be complementary (same ReLU with opposite signs, or the two
    halves of the same cut).  Splitting an internal node, or re-splitting a
    ReLU already decided on the node's path, is a usage error.
    """
    node = tree.node(node_id)
    if not node.is_leaf:
        raise ValueError(f"node {node_id} is internal; only leaves can be split")
    left_d, right_d = decision_pair
    if type(left_d) is not type(right_d) or left_d.complement() != right_d:
        raise ValueError(f"decisions {left_d} and {right_d} are not complementary")
    if isinstance(left_d, ReluDecision):
        if tree.branching != "relu":
            raise ValueError("ReLU decision in an input-splitting tree")
        on_path = {d.rid for d in path_decisions(tree, node_id)}
        if left_d.rid in on_path:
            raise ValueError(f"{left_d.rid} is already split on the path to node {node_id}")
    elif tree.branching != "input":
        raise ValueError("input decision in a ReLU-splitting tree")
    left = SpecNode(node_id=tree.next_id, parent=node_id, decision=left_d)
    right = SpecNode(node_id=tree.next_id + 1, parent=node_id, decision=right_d)
    tree.nodes[left.node_id] = left
    tree.nodes[right.node_id] = right
    tree.next_id += 2
    node.left = left.node_id
    node.right = right.node_id
    return left.node_id, right.node_id


def narrow(box: InputBox, splits: dict, decision: Decision) -> tuple:
    """A child's (box, splits): its parent's narrowed by the edge decision, left unmutated."""
    if isinstance(decision, ReluDecision):
        return box, {**splits, decision.rid: decision.sign}
    lower, upper = np.array(box.lower), np.array(box.upper)
    if decision.half == "low":
        upper[decision.dim] = min(upper[decision.dim], decision.cut)
    else:
        lower[decision.dim] = max(lower[decision.dim], decision.cut)
    return InputBox(lower, upper), splits


def spec_of(tree: SpecTree, node_id: int, box: InputBox) -> tuple:
    """A node's subproblem (input box, split assignment): :func:`narrow` folded down its path.

    ``box`` is the root property's input box; trees do not carry it.
    """
    spec = (box, {})
    for d in path_decisions(tree, node_id):
        spec = narrow(*spec, d)
    return spec


def improvement(tree: SpecTree, node_id: int) -> float:
    """How much the node's split tightened the bound: the worse child's gain.

    Defined as min over the two children of (child lb - node lb).  Every
    child, under ReLU and input splits alike, is bounded from its parent's
    bounds, so negative values are possible only through solver tolerance;
    they are returned unclamped so callers can see them.
    """
    node = tree.node(node_id)
    if node.is_leaf:
        raise ValueError(f"node {node_id} is a leaf; improvement needs a split")
    lbs = (node.lb, tree.node(node.left).lb, tree.node(node.right).lb)
    if any(v is None for v in lbs):
        raise ValueError(f"node {node_id} or a child has no recorded lower bound")
    return min(lbs[1] - lbs[0], lbs[2] - lbs[0])


def _split_key(tree: SpecTree, node: SpecNode):
    return tree.node(node.left).decision.key()


def observed_scores(tree: SpecTree) -> dict:
    """Mean improvement per split key over the internal nodes that used it.

    Keys are ReluIds for ReLU trees and input dimensions for input trees.
    Internal nodes lacking recorded bounds (hand-off trees from interrupted
    runs) are skipped, and so are splits whose improvement is not finite
    (both children infeasible, so +inf); keys never split in this tree, or
    split only in such ways, are absent.
    """
    sums: dict = {}
    counts: dict = {}
    for node in tree.nodes.values():
        if node.is_leaf:
            continue
        try:
            imp = improvement(tree, node.node_id)
        except ValueError:
            continue
        if not np.isfinite(imp):
            continue
        key = _split_key(tree, node)
        sums[key] = sums.get(key, 0.0) + imp
        counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def leaves(tree: SpecTree) -> list:
    """Leaf ids in ascending id order (the verifier's processing order)."""
    return sorted(n.node_id for n in tree.nodes.values() if n.is_leaf)


def _fresh_node(tree: SpecTree, parent, decision) -> SpecNode:
    node = SpecNode(node_id=tree.next_id, parent=parent, decision=decision)
    tree.nodes[node.node_id] = node
    tree.next_id += 1
    return node


def prune(tree: SpecTree, theta: float) -> SpecTree:
    """Copy the tree, splicing out splits whose recorded improvement is below
    ``theta``.

    Walking top-down: a node whose split improved the bound by less than
    ``theta`` (strictly) is replaced by its weaker child (the one with the
    smaller recorded bound), repeating through runs of consecutive
    ineffective splits.  Bounds within ``TIE_RTOL`` of each other, relative
    to the larger magnitude, are a tie, and a tie keeps the left child: a
    split that left both children at their parent's bound up to rounding
    does not follow the last bit.  Splits whose improvement cannot be
    computed (missing bounds on interrupted runs) are kept.  The copy's nodes
    are all reset to Unanalyzed with no recorded bounds.
    """
    out = SpecTree(branching=tree.branching)
    out.nodes[0] = SpecNode(node_id=0)
    work = [(tree.root, 0)]
    while work:
        src_id, dst_id = work.pop()
        src = tree.node(src_id)
        while not src.is_leaf:
            try:
                imp = improvement(tree, src.node_id)
            except ValueError:
                break  # unevaluable split: keep it as recorded
            if imp >= theta:
                break
            left, right = tree.node(src.left), tree.node(src.right)
            tie = math.isclose(left.lb, right.lb, rel_tol=TIE_RTOL)
            src = right if right.lb < left.lb and not tie else left
        if src.is_leaf:
            continue
        dst = out.node(dst_id)
        left, right = tree.node(src.left), tree.node(src.right)
        dl = _fresh_node(out, dst_id, left.decision)
        dr = _fresh_node(out, dst_id, right.decision)
        dst.left = dl.node_id
        dst.right = dr.node_id
        work.append((right.node_id, dr.node_id))
        work.append((left.node_id, dl.node_id))
    return out


def reset_copy(tree: SpecTree) -> SpecTree:
    """Structural copy with statuses and bounds cleared (for re-running)."""
    out = SpecTree(branching=tree.branching, root=tree.root, next_id=tree.next_id)
    for nid, n in tree.nodes.items():
        out.nodes[nid] = SpecNode(
            node_id=n.node_id,
            parent=n.parent,
            decision=n.decision,
            left=n.left,
            right=n.right,
        )
    return out


# ------------------------------------------------------------- serialization


def _decision_to_json(d: Optional[Decision]):
    if d is None:
        return None
    if isinstance(d, ReluDecision):
        return {"kind": "relu", "layer": d.rid.layer, "neuron": d.rid.neuron, "sign": d.sign}
    return {"kind": "input", "dim": d.dim, "half": d.half, "cut": d.cut}


def _decision_from_json(obj, where: str, nid: int) -> Decision:
    """Node ``nid``'s decision, read from ``obj`` found at ``where``."""
    kind = expect(obj, "an object", where).get("kind")
    if kind == "relu":
        rid = ReluId(*(expect(obj.get(k), "an integer", f"{where}.{k}") for k in ("layer", "neuron")))
        return built(where, lambda: ReluDecision(rid, obj.get("sign")))
    if kind == "input":
        dim = expect(obj.get("dim"), "an integer", f"{where}.dim")
        cut = expect(obj.get("cut"), "a number", f"{where}.cut")
        if not math.isfinite(cut):  # a cut is the midpoint of a finite box
            raise ParseError(f"{where}.cut: node {nid} cuts at {cut}, not a finite number")
        return built(where, lambda: InputDecision(dim, obj.get("half"), float(cut)))
    raise ParseError(f"{where}.kind: expected 'relu' or 'input', got {kind!r}")


def tree_to_json(tree: SpecTree) -> dict:
    nodes = []
    for nid in sorted(tree.nodes):
        n = tree.nodes[nid]
        nodes.append(
            {
                "id": n.node_id,
                "parent": n.parent,
                "decision": _decision_to_json(n.decision),
                "split": None if n.is_leaf else {"left": n.left, "right": n.right},
                "lb": n.lb,
                "status": n.status.value,
            }
        )
    return {"branching": tree.branching, "nodes": nodes}


def tree_from_json(obj, where: str = "tree") -> SpecTree:
    """The specification tree a parsed JSON document describes, its fields named from ``where``.

    The document is ``{"branching": "relu" | "input", "nodes": [...]}``, each
    node ``{"id", "parent", "decision", "split": {"left", "right"} | null,
    "lb", "status"}`` as :func:`tree_to_json` writes it.  Each node's fields
    are read first; exactly one node, the root, has no parent and no
    decision, and every decision splits on the tree's branching.  Then one
    walk from the root checks the structure: each split node's two children
    exist, name it as their parent and carry complementary decisions; no
    node is reached twice; no ReLU is split twice on one path; and every
    node is reached.  Anything else raises ParseError naming the field or
    node.
    """
    obj = expect(obj, "an object", where)
    branching = obj.get("branching")
    if branching not in ("relu", "input"):
        raise ParseError(f"{where}.branching: expected 'relu' or 'input', got {branching!r}")
    tree = SpecTree(branching=branching)
    roots = []
    for k, item in enumerate(expect(obj.get("nodes"), "a non-empty list", f"{where}.nodes")):
        w = f"{where}.nodes[{k}]"
        item = expect(item, "an object", w)
        nid = expect(item.get("id"), "an integer", f"{w}.id")
        if nid in tree.nodes:
            raise ParseError(f"{w}.id: duplicate id {nid}")
        parent, dec, sp, lb = (item.get(key) for key in ("parent", "decision", "split", "lb"))
        if parent is None:
            roots.append(nid)
        else:
            expect(parent, "an integer", f"{w}.parent")
        decision = None if dec is None else _decision_from_json(dec, f"{w}.decision", nid)
        if (parent is None) != (decision is None):
            raise ParseError(f"{w}: parent and decision must both be present or both null")
        if decision is not None and dec["kind"] != branching:
            raise ParseError(
                f"{w}.decision: node {nid} splits on {dec['kind']!r} "
                f"but the tree branches on {branching!r}"
            )
        left = right = None
        if sp is not None:
            expect(sp, "an object", f"{w}.split")
            left, right = (expect(sp.get(s), "an integer", f"{w}.split.{s}") for s in ("left", "right"))
        # Infinity stays: an infeasible leaf's bound
        if lb is not None and math.isnan(expect(lb, "a number", f"{w}.lb")):
            raise ParseError(f"{w}.lb: node {nid} has a NaN bound")
        status = built(f"{w}.status", lambda: NodeStatus(item.get("status", "Unanalyzed")))
        lb = None if lb is None else float(lb)
        tree.nodes[nid] = SpecNode(nid, parent, decision, left, right, lb, status)

    if len(roots) != 1:
        raise ParseError(f"{where}: expected exactly one root, found {len(roots)}")
    tree.root, tree.next_id = roots[0], max(tree.nodes) + 1
    reached = {tree.root}
    stack = [(tree.root, frozenset())]  # a node to visit and the ReLUs split on its path
    while stack:
        nid, on_path = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            continue
        for cid in (node.left, node.right):
            child = tree.nodes.get(cid)
            if child is None:
                raise ParseError(f"{where}: node {nid} lists unknown child {cid}")
            if child.parent != nid:
                raise ParseError(f"{where}: child {cid} of node {nid} has parent {child.parent}")
            if cid in reached:
                raise ParseError(f"{where}: node {cid} is reached twice from the root")
            reached.add(cid)
        ld = tree.nodes[node.left].decision
        if ld.complement() != tree.nodes[node.right].decision:
            raise ParseError(f"{where}: node {nid} has non-complementary child decisions")
        if branching == "relu":
            if ld.rid in on_path:
                raise ParseError(f"{where}: {ld.rid} repeats on the path to node {node.left}")
            on_path = on_path | {ld.rid}
        stack += [(node.left, on_path), (node.right, on_path)]
    if len(reached) != len(tree.nodes):
        stray = sorted(set(tree.nodes) - reached)
        raise ParseError(f"{where}: nodes {stray} are not reachable from the root")
    return tree


def save_tree(tree: SpecTree, path) -> None:
    write_json(tree_to_json(tree), path)


def load_tree(path) -> SpecTree:
    return tree_from_json(read_json(path), where=str(path))

"""Hierarchical scattering tree with repeat-until-success at each node.

A tree is a shape of leaves: each leaf holds one atomic input state (one
particle slot), and a node's size is the number of leaves under it. Every
internal node tensors its children, runs its merge channel once, then
alternates heralding measurements with (escalated) channel applications
until success. A failed measurement never restarts completed children:
recovery is local to the node, so per-node repetition counts simply add
up. States with no coherence (``PumpChannel`` output, maximally mixed
leaves) stay diagonals through the tensor product and the heralding, so
a pump tree holds no n x n array at any node.

The heralding rules (``p_success_weight``, ``block_split`` under
``channel_decompose``, ``checked_angle`` and the one retry ramp
``ramped_delta``) all come from ``weakmeas``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .criteria import Bipartition
from .errors import MaxItersExceeded, NodeExhausted
from .evolution import DensityMatrix, PropagationReport, propagate
from .weakmeas import (TraceLog, WeakMeasurementSpec, block_split,
                       checked_angle, p_success_weight, ramped_delta,
                       repeat_until_success)


def derive_seed(global_seed: int, node_id: str) -> int:
    """Stable per-node seed; hashlib keeps it independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"{global_seed}/{node_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class PumpChannel:
    """Synthetic channel that outputs a fixed accepted-block weight.

    Ignores the input and returns the diagonal mixture with weight ``p``
    spread uniformly over A and 1 - p over B, one state built at
    construction; per-measurement success then follows a geometric law,
    which is what the tree statistics tests need to pin down.
    """

    def __init__(self, bipartition: Bipartition, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("pump weight must lie in [0, 1]")
        mask = bipartition.mask
        n_a = int(np.sum(mask))
        n_b = mask.size - n_a
        # an empty side passes its weight to the other one
        p = 1.0 if n_b == 0 else 0.0 if n_a == 0 else p
        self.output = DensityMatrix.from_diagonal(
            np.where(mask, p / max(n_a, 1), (1.0 - p) / max(n_b, 1)))

    def apply(self, state: DensityMatrix, iteration: int) -> DensityMatrix:
        return self.output


class PropagationChannel:
    """Merge evolution under a scheduled Hamiltonian, structured or dense
    (anything ``propagate`` steps).

    Retries escalate the confinement: attempt k scales the trap term
    ``v_trap`` by escalation_factor^k before propagating, the desk-scale
    version of "stronger confinement" for the modified channel.
    """

    def __init__(self, sh, s_from: float, s_to: float,
                 n_steps: int, escalation_factor: float = 1.0):
        self.sh = sh
        self.s_from = s_from
        self.s_to = s_to
        self.n_steps = n_steps
        self.escalation_factor = escalation_factor
        self.last_report: Optional[PropagationReport] = None

    def _escalated(self, iteration: int):
        if iteration <= 0 or self.escalation_factor == 1.0:
            return self.sh
        factor = self.escalation_factor ** iteration
        return replace(self.sh, v_trap=factor * self.sh.v_trap)

    def apply(self, state: DensityMatrix, iteration: int) -> DensityMatrix:
        report = propagate(state, self._escalated(iteration),
                           self.s_from, self.s_to, self.n_steps)
        self.last_report = report
        return report.final_state


Channel = Union[PumpChannel, PropagationChannel]


@dataclass(frozen=True)
class RetryPolicy:
    max_iters: int = 64
    delta_ramp: float = 1.0
    renaturalize: bool = False

    def __post_init__(self):
        ramped_delta(0.0, self.delta_ramp)  # rejects a ramp <= 0


@dataclass(frozen=True, eq=False)
class ScatterNode:
    """One tree node. A leaf is only an id; internal nodes add their
    children, the channel, the heralding measurement and retry policy."""

    node_id: str
    children: tuple[str, ...] = ()
    channel: Optional[Channel] = None
    bipartition: Optional[Bipartition] = None
    delta: float = math.pi / 2.0
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self):
        checked_angle(self.delta, f"node {self.node_id!r} delta")

    @property
    def is_leaf(self) -> bool:
        return not self.children


class ScatterTree:
    """Node table plus root id, with structural validation.
    ``leaf_counts`` maps every node to the number of leaves under it (1
    for a leaf), filled in the one postorder pass that also proves every
    node reachable, so validation is linear in the node count."""

    def __init__(self, nodes: Sequence[ScatterNode], root: str):
        self.nodes: dict[str, ScatterNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            self.nodes[node.node_id] = node
        self.root = root
        self._validate()

    def _validate(self) -> None:
        if self.root not in self.nodes:
            raise ValueError(f"root {self.root!r} not among the nodes")
        seen_child: set[str] = set()
        for node in self.nodes.values():
            if len(node.children) == 1:
                raise ValueError(f"node {node.node_id!r} has a single child")
            for child in node.children:
                if child not in self.nodes:
                    raise ValueError(f"unknown child {child!r}")
                if child in seen_child:
                    raise ValueError(f"child {child!r} has two parents")
                seen_child.add(child)
        # with one parent per node, a cycle reachable from the root
        # passes through the root
        if self.root in seen_child:
            raise ValueError(f"root {self.root!r} is a child")
        self.leaf_counts: dict[str, int] = {}
        for node_id in self.postorder():
            kids = self.nodes[node_id].children
            self.leaf_counts[node_id] = sum(
                self.leaf_counts[c] for c in kids) if kids else 1
        if len(self.leaf_counts) != len(self.nodes):
            raise ValueError("tree contains nodes unreachable from the root")

    def node(self, node_id: str) -> ScatterNode:
        return self.nodes[node_id]

    def configure(self, node_id: str, **changes) -> "ScatterTree":
        nodes = dict(self.nodes)
        nodes[node_id] = replace(nodes[node_id], **changes)
        return ScatterTree(list(nodes.values()), self.root)

    def postorder(self) -> list[str]:
        """Children left to right, then the node: the reverse of a
        root-first walk that takes the last child first."""
        order, stack = [], [self.root]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            stack.extend(self.nodes[node_id].children)
        return order[::-1]

    def leaf_ids(self) -> list[str]:
        return [i for i in self.postorder() if self.nodes[i].is_leaf]

    def internal_ids(self) -> list[str]:
        return [i for i in self.postorder() if not self.nodes[i].is_leaf]


def plan_tree(leaves: Union[int, Sequence[str]], arity: int = 2) -> ScatterTree:
    """Balanced merge plan: chunk the current level into groups of
    ``arity``; singleton chunks pass through without a node. Binary
    plans over N leaves therefore emit exactly N - 1 internal nodes at
    depth ceil(log2 N)."""
    if arity < 2:
        raise ValueError("arity must be at least 2")
    if isinstance(leaves, int):
        if leaves < 1:
            raise ValueError("need at least one leaf")
        leaf_ids = [f"leaf{i}" for i in range(leaves)]
    else:
        leaf_ids = [str(x) for x in leaves]
        if not leaf_ids:
            raise ValueError("need at least one leaf")

    nodes = [ScatterNode(node_id=lid) for lid in leaf_ids]
    level = [n.node_id for n in nodes]
    table = {n.node_id: n for n in nodes}
    counter = 0
    while len(level) > 1:
        next_level = []
        for start in range(0, len(level), arity):
            chunk = level[start:start + arity]
            if len(chunk) == 1:
                next_level.append(chunk[0])
                continue
            node_id = f"node{counter}"
            counter += 1
            table[node_id] = ScatterNode(node_id=node_id,
                                         children=tuple(chunk))
            next_level.append(node_id)
        level = next_level
    return ScatterTree(list(table.values()), level[0])


@dataclass(frozen=True)
class NodeRecord:
    node_id: str
    iterations: int
    wall_steps: int
    p_suc_initial: float
    succeeded: bool


@dataclass
class TreeRunReport:
    """Per-node execution records; total repetitions is their sum."""

    records: dict[str, NodeRecord]
    final_state: Optional[DensityMatrix]
    trace: TraceLog

    @property
    def total_repetitions(self) -> int:
        return sum(r.iterations for r in self.records.values())

    def to_json_dict(self) -> dict:
        return {
            "total_repetitions": self.total_repetitions,
            "final_dim": None if self.final_state is None
            else self.final_state.dim,
            "nodes": {nid: {"iterations": r.iterations,
                            "wall_steps": r.wall_steps,
                            "p_suc_initial": r.p_suc_initial,
                            "succeeded": r.succeeded}
                      for nid, r in sorted(self.records.items())},
        }


def run_tree(tree: ScatterTree, atomic_states: Mapping[str, DensityMatrix],
             global_seed: int) -> TreeRunReport:
    """Execute the tree post-order and return the run report.

    Each internal node owns a generator seeded from (global_seed,
    node_id), so sibling subtrees are reproducible independently of
    execution order. NodeExhausted carries the partial report; records
    of completed children survive the failure.
    """
    trace = TraceLog()
    records: dict[str, NodeRecord] = {}
    states: dict[str, DensityMatrix] = {}

    for node_id in tree.postorder():
        node = tree.node(node_id)
        if node.is_leaf:
            if node_id not in atomic_states:
                raise ValueError(f"no atomic state for leaf {node_id!r}")
            states[node_id] = atomic_states[node_id]
            records[node_id] = NodeRecord(node_id, 0, 0, 1.0, True)
            continue
        if node.channel is None or node.bipartition is None:
            raise ValueError(f"node {node_id!r} is not configured")

        rng = np.random.default_rng(derive_seed(global_seed, node_id))
        state = states[node.children[0]]
        for child in node.children[1:]:
            state = state.tensor(states[child])
        if state.dim != node.bipartition.dim:
            raise ValueError(
                f"node {node_id!r} bipartition dimension {node.bipartition.dim}"
                f" does not match tensored state dimension {state.dim}")

        state = node.channel.apply(state, 0)
        wall_steps = 1
        spec = WeakMeasurementSpec(node.bipartition, node.delta)
        # the node's first measurement record weighs its initial state
        first = len(trace)

        def recovery(s: DensityMatrix, k: int) -> DensityMatrix:
            nonlocal wall_steps
            wall_steps += 1
            return node.channel.apply(s, k)

        try:
            post, iterations = repeat_until_success(
                state, spec, recovery, node.retry.max_iters, rng=rng,
                delta_ramp=node.retry.delta_ramp, trace=trace,
                node_id=node_id)
        except MaxItersExceeded as exc:
            records[node_id] = NodeRecord(
                node_id, node.retry.max_iters, wall_steps,
                trace[first]["p_suc_before"], False)
            raise NodeExhausted(node_id, TreeRunReport(
                records, final_state=None, trace=trace)) from exc

        if node.retry.renaturalize:
            post = node.channel.apply(post, 0)
            wall_steps += 1
        states[node_id] = post
        records[node_id] = NodeRecord(node_id, iterations, wall_steps,
                                      trace[first]["p_suc_before"], True)

    return TreeRunReport(records, final_state=states[tree.root], trace=trace)


@dataclass(frozen=True, eq=False)
class ChannelDecomposition:
    """Block split p0 * rho_suc + (1 - p0) * rho_nsuc + C of a state."""

    p0: float
    rho_suc: Optional[DensityMatrix]
    rho_nsuc: Optional[DensityMatrix]
    coherence: np.ndarray
    coherence_norm: float


def channel_decompose(state: DensityMatrix,
                      bipartition: Bipartition) -> ChannelDecomposition:
    """Decompose a channel output by the success bipartition.

    p0 is the accepted-block weight, rho_suc / rho_nsuc the renormalized
    diagonal blocks, and the coherence matrix collects the off-blocks
    (Frobenius norm reported)."""
    p0 = p_success_weight(state, bipartition)
    block_a, block_b, cross = block_split(state, bipartition)
    # dividing by each block's own weight keeps trace rounding harmless
    p_rest = float(np.trace(block_b).real)
    rho_suc = DensityMatrix.trusted(block_a / p0) if p0 > 1e-14 else None
    rho_nsuc = (DensityMatrix.trusted(block_b / p_rest)
                if p_rest > 1e-14 else None)
    return ChannelDecomposition(
        p0=p0, rho_suc=rho_suc, rho_nsuc=rho_nsuc, coherence=cross,
        coherence_norm=float(np.linalg.norm(cross)))

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mergosim.criteria import Bipartition
from mergosim.errors import NodeExhausted
from mergosim.evolution import DensityMatrix, propagate
from mergosim.grid import GridSpec, ParticleSet, enumerate_basis
from mergosim.hamiltonian import (Schedule, ScheduledHamiltonian,
                                  StructuredHamiltonian, TrapSpec,
                                  build_kinetic, build_trap, coulomb_diagonal,
                                  trap_diagonal, zero_block)
from mergosim.tree import (PropagationChannel, PumpChannel, RetryPolicy,
                           ScatterNode, ScatterTree, channel_decompose,
                           derive_seed, plan_tree, run_tree)


def depth(tree):
    """Edges on the longest root-to-leaf path."""
    height = {}
    for node_id in tree.postorder():
        height[node_id] = 1 + max(
            (height[c] for c in tree.node(node_id).children), default=-1)
    return height[tree.root]


def planned_synthetic_tree(n_leaves, p, delta=math.pi / 2, max_iters=10_000,
                           leaf_dim=2, arity=2):
    """Plan a tree and rig every internal node with a pump channel."""
    tree = plan_tree(n_leaves, arity=arity)
    dims = {}
    for node_id in tree.postorder():
        node = tree.node(node_id)
        if node.is_leaf:
            dims[node_id] = leaf_dim
            continue
        dim = 1
        for child in node.children:
            dim *= dims[child]
        dims[node_id] = dim
        bip = Bipartition(np.arange(dim) < max(1, dim // 2))
        tree = tree.configure(node_id, channel=PumpChannel(bip, p),
                              bipartition=bip, delta=delta,
                              retry=RetryPolicy(max_iters=max_iters,
                                                renaturalize=False))
    states = {leaf: DensityMatrix.basis_state(leaf_dim, 0)
              for leaf in tree.leaf_ids()}
    return tree, states


class TestPlanner:
    def test_two_leaves_single_node(self):
        tree = plan_tree(2)
        assert len(tree.internal_ids()) == 1
        assert depth(tree) == 1

    def test_eight_leaves_binary(self):
        tree = plan_tree(8)
        assert len(tree.internal_ids()) == 7
        assert depth(tree) == 3

    def test_six_leaves_ternary(self):
        tree = plan_tree(6, arity=3)
        internal = tree.internal_ids()
        assert len(internal) == 3
        fanouts = sorted(len(tree.node(i).children) for i in internal)
        assert fanouts == [2, 3, 3]  # two 3-merges, then a 2-merge root

    def test_node_count_law(self):
        for n in range(1, 65):
            assert len(plan_tree(n).internal_ids()) == n - 1

    def test_depth_law(self):
        for n in range(1, 65):
            assert depth(plan_tree(n)) == math.ceil(math.log2(n))

    def test_single_leaf(self):
        tree = plan_tree(1)
        assert tree.internal_ids() == []
        assert tree.root == "leaf0"

    def test_custom_leaf_ids(self):
        tree = plan_tree(["h1", "h2"])
        assert set(tree.leaf_ids()) == {"h1", "h2"}

    def test_leaf_counts_add_up(self):
        tree = plan_tree(8)
        assert tree.leaf_counts[tree.root] == 8
        for node_id in tree.postorder():
            kids = tree.node(node_id).children
            assert tree.leaf_counts[node_id] == (
                sum(tree.leaf_counts[c] for c in kids) if kids else 1)


class TestStructureValidation:
    def test_two_parents_rejected(self):
        nodes = [ScatterNode("a"), ScatterNode("b"),
                 ScatterNode("p", children=("a", "b")),
                 ScatterNode("q", children=("a", "b"))]
        with pytest.raises(ValueError):
            ScatterTree(nodes, "p")

    def test_deep_caterpillar_validates_in_linear_memory(self):
        """A spine 3,000 nodes deep, each with a leaf beside it: per-node
        particle sets would hold ~d^2/2 entries (over 200 MB here)."""
        depth = 3000
        nodes = [ScatterNode(f"l{i}") for i in range(depth + 1)]
        nodes += [ScatterNode(f"n{i}", children=(f"n{i + 1}", f"l{i}"))
                  for i in range(depth - 1)]
        nodes.append(ScatterNode(f"n{depth - 1}",
                                 children=(f"l{depth - 1}", f"l{depth}")))
        tracemalloc.start()
        try:
            tree = ScatterTree(nodes, "n0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert tree.leaf_counts["n0"] == depth + 1


def recursive_postorder(tree):
    order = []

    def visit(node_id):
        for child in tree.node(node_id).children:
            visit(child)
        order.append(node_id)

    visit(tree.root)
    return order


def random_tree(rng, n_nodes):
    """A random shape: each node after the first hangs under an earlier
    one, a single child gets a leaf sibling, and children are shuffled."""
    children = {0: []}
    for i in range(1, n_nodes):
        children[i] = []
        children[int(rng.integers(i))].append(i)
    for kids in list(children.values()):
        if len(kids) == 1:
            children[len(children)] = []
            kids.append(len(children) - 1)
    nodes = []
    for i, kids in children.items():
        rng.shuffle(kids)
        nodes.append(ScatterNode(f"n{i}", children=tuple(
            f"n{k}" for k in kids)))
    return ScatterTree([nodes[k] for k in rng.permutation(len(nodes))], "n0")


class TestPostorder:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_recursive_walk(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(1, 200)))
        assert tree.postorder() == recursive_postorder(tree)

    @pytest.mark.parametrize("seed", range(20))
    def test_leaf_counts_match_a_brute_force_count(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(1, 200)))

        def leaves_under(node_id):
            kids = tree.node(node_id).children
            return sum(map(leaves_under, kids)) if kids else 1

        assert tree.leaf_counts == {
            node_id: leaves_under(node_id) for node_id in tree.nodes}


class TestRunTree:
    def test_rigged_success_single_iteration(self):
        tree, states = planned_synthetic_tree(2, p=1.0)
        report = run_tree(tree, states, global_seed=0)
        assert report.total_repetitions == 1
        record = report.records[tree.internal_ids()[0]]
        assert record.iterations == 1 and record.succeeded

    def test_total_repetitions_is_iteration_sum(self):
        tree, states = planned_synthetic_tree(8, p=0.5)
        report = run_tree(tree, states, global_seed=2)
        assert report.total_repetitions == sum(
            rec.iterations for rec in report.records.values())

    def test_mean_repetitions_seven_nodes(self):
        # 7 internal nodes at P = 0.5 each: mean total is 7 / 0.5 = 14
        tree, states = planned_synthetic_tree(8, p=0.5)
        totals = [run_tree(tree, states, global_seed=seed).total_repetitions
                  for seed in range(1000)]
        assert np.mean(totals) == pytest.approx(14.0, rel=0.1)

    def test_repetition_tail_bound(self):
        tree, states = planned_synthetic_tree(8, p=0.5)
        totals = [run_tree(tree, states, seed).total_repetitions
                  for seed in range(400)]
        assert np.percentile(totals, 99) <= 10 * 7 / 0.5

    def test_exhausted_node_isolated(self):
        tree, states = planned_synthetic_tree(4, p=1.0)
        broken = tree.root  # children complete before the root runs
        tree = tree.configure(
            broken, channel=PumpChannel(tree.node(broken).bipartition, 0.0),
            retry=RetryPolicy(max_iters=7, renaturalize=False))
        with pytest.raises(NodeExhausted) as info:
            run_tree(tree, states, global_seed=3)
        err = info.value
        assert err.node_id == broken
        report = err.report
        assert not report.records[broken].succeeded
        assert report.records[broken].iterations == 7
        # completed children stay completed; nothing re-executed
        done = {nid for nid, rec in report.records.items() if rec.succeeded}
        assert done == set(tree.postorder()) - {broken}
        trace_nodes = [rec["node_id"] for rec in report.trace]
        assert trace_nodes.count(broken) == 7
        # the failing root never interleaves back into a child
        first_root = trace_nodes.index(broken)
        assert all(nid == broken for nid in trace_nodes[first_root:])

    def test_children_never_rerun_on_failure(self):
        # trace order: a completed node never reappears after its parent
        # starts measuring
        tree, states = planned_synthetic_tree(8, p=0.5)
        report = run_tree(tree, states, global_seed=5)
        first_seen = {}
        last_seen = {}
        for i, rec in enumerate(report.trace):
            first_seen.setdefault(rec["node_id"], i)
            last_seen[rec["node_id"]] = i
        for node_id in tree.internal_ids():
            for child in tree.node(node_id).children:
                if child in last_seen:
                    assert last_seen[child] < first_seen[node_id]

    def test_determinism_same_seed(self):
        tree, states = planned_synthetic_tree(8, p=0.5)
        a = run_tree(tree, states, global_seed=42)
        b = run_tree(tree, states, global_seed=42)
        assert a.to_json_dict() == b.to_json_dict()
        assert list(a.trace) == list(b.trace)
        c = run_tree(tree, states, global_seed=43)
        assert list(a.trace) != list(c.trace)

    def test_dimensions_multiply(self):
        tree, states = planned_synthetic_tree(4, p=1.0, leaf_dim=3)
        report = run_tree(tree, states, global_seed=0)
        assert report.final_state.dim == 3 ** 4

    def test_derive_seed_stable(self):
        assert derive_seed(1, "node0") == derive_seed(1, "node0")
        assert derive_seed(1, "node0") != derive_seed(2, "node0")
        assert derive_seed(1, "node0") != derive_seed(1, "node1")


class TestChannelDecompose:
    def test_block_diagonal_state(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        out = channel_decompose(rho, Bipartition([True, False]))
        assert out.p0 == pytest.approx(0.3)
        assert out.coherence_norm == 0.0

    def test_pure_superposition(self):
        vec = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = DensityMatrix.from_pure(vec)
        out = channel_decompose(rho, Bipartition([True, False]))
        assert out.p0 == pytest.approx(0.5)
        # two off-block entries of 0.5 each
        assert out.coherence_norm == pytest.approx(0.5 * math.sqrt(2))

    def test_reassembly_identity(self):
        rng = np.random.default_rng(12)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = DensityMatrix(mat @ mat.conj().T / np.trace(mat @ mat.conj().T).real)
        bip = Bipartition([True, False, True, False, True, False])
        out = channel_decompose(rho, bip)
        rebuilt = (out.coherence + out.p0 * out.rho_suc.matrix
                   + (1.0 - out.p0) * out.rho_nsuc.matrix)
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-14


class TestPropagationChannel:
    def two_nuclei_system(self):
        grid = GridSpec(5, 1, 5.0)
        particles = ParticleSet(n_el=0, nuclear_masses=(50.0, 50.0),
                                nuclear_charges=(1.0, -1.0))
        basis = enumerate_basis(grid, particles, cap=64)
        h_a = build_kinetic(basis, [0])
        h_b = build_kinetic(basis, [1])
        trap = build_trap(basis, TrapSpec.isotropic_spec(
            [(-1.0,), (1.0,)], omega=0.05))
        sched = Schedule(s0=0.5, s1=1.0, f_shape="smoothstep",
                         g_shape="smoothstep")
        return basis, ScheduledHamiltonian(h_a, h_b, zero_block(basis.size),
                                           trap, sched)

    def test_escalation_scales_trap(self):
        basis, sh = self.two_nuclei_system()
        channel = PropagationChannel(sh, 0.0, 1.0, n_steps=20,
                                     escalation_factor=2.0)
        assert np.allclose(channel._escalated(0).v_trap.matrix,
                           sh.v_trap.matrix)
        assert np.allclose(channel._escalated(2).v_trap.matrix,
                           4.0 * sh.v_trap.matrix)

    def test_escalation_of_the_structured_hamiltonian(self):
        basis, dense = self.two_nuclei_system()
        trap = TrapSpec.isotropic_spec([(-1.0,), (1.0,)], omega=0.05)
        sh = StructuredHamiltonian(basis, (0, 1), np.zeros(basis.size),
                                   coulomb_diagonal(basis, 0.5, [(0, 1)]),
                                   trap_diagonal(basis, trap), dense.schedule)
        channel = PropagationChannel(sh, 0.0, 1.0, n_steps=20,
                                     escalation_factor=2.0)
        assert channel._escalated(0) is sh
        for k in (1, 2):
            escalated = channel._escalated(k)
            assert np.array_equal(escalated.v_trap, 2.0 ** k * sh.v_trap)
            assert np.array_equal(escalated.v_ab, sh.v_ab)
        state = DensityMatrix.from_pure(
            np.full(basis.size, basis.size ** -0.5, dtype=complex))
        expected = propagate(state, replace(sh, v_trap=4.0 * sh.v_trap),
                             0.0, 1.0, 20).final_state
        assert np.array_equal(channel.apply(state, 2).vector, expected.vector)

    def test_apply_preserves_trace(self):
        basis, sh = self.two_nuclei_system()
        channel = PropagationChannel(sh, 0.0, 1.0, n_steps=25)
        rho = DensityMatrix.maximally_mixed(basis.size)
        out = channel.apply(rho, 0)
        assert abs(out.trace() - 1.0) < 1e-12
        assert channel.last_report.norm_drift < 1e-10

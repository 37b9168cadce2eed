"""Pure states through heralding and trees.

A pure state is carried as its vector by ``DensityMatrix``, and every
heralding map (both measurement branches, repeat-until-success, spin
sector projection, a propagated tree node) acts on that vector. The
same state carried as the dense matrix |psi><psi| (``trusted``, no
vector) is the oracle: both paths agree to 1e-12, draw the same flags
from the same seed, and the vector path never builds an n x n array.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mergosim.criteria import Bipartition
from mergosim.errors import EmptySector, MaxItersExceeded
from mergosim.evolution import DensityMatrix
from mergosim.grid import GridSpec, ParticleSet, enumerate_basis
from mergosim.hamiltonian import OperatorBlock, Schedule, ScheduledHamiltonian
from mergosim.tree import (PropagationChannel, RetryPolicy, ScatterNode,
                           ScatterTree, run_tree)
from mergosim.weakmeas import (DEGENERATE_TOL, TraceLog, WeakMeasurementSpec,
                               measurement_branches, p_success_weight,
                               repeat_until_success, spin_sector_project,
                               weak_measure)

EXAMPLES = 40
TOL = 1e-12

parts = st.floats(-1.0, 1.0)


@st.composite
def unit_vectors(draw, n):
    re, im = draw(hnp.arrays(np.float64, (2, n), elements=parts))
    v = re + 1j * im
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm


@st.composite
def vectors_and_masks(draw, max_dim=8):
    n = draw(st.integers(1, max_dim))
    return draw(unit_vectors(n)), Bipartition(draw(hnp.arrays(np.bool_, n)))


def both(v):
    """The pure state as its vector, and as the dense matrix alone."""
    pure = DensityMatrix.from_pure(v)
    dense = DensityMatrix.trusted(np.outer(v, v.conj()))
    assert pure.vector is not None and dense.vector is None
    return pure, dense


def assert_same_state(pure, dense):
    assert pure.vector is not None
    assert np.max(np.abs(pure.matrix - dense.matrix)) <= TOL


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(vectors_and_masks(), st.floats(0.0, math.pi / 2))
def test_branches_of_a_vector_are_the_dense_branches(case, delta):
    v, bip = case
    pure, dense = (measurement_branches(s, bip, delta) for s in both(v))
    assert pure.p_suc == dense.p_suc
    if pure.p1 > 0.0:
        assert_same_state(pure.rho1, dense.rho1)
    if pure.p0 > DEGENERATE_TOL:
        assert_same_state(pure.rho0, dense.rho0)


@settings(max_examples=EXAMPLES, deadline=None)
@given(vectors_and_masks(), st.floats(0.0, math.pi / 2),
       st.integers(0, 2 ** 32 - 1))
def test_weak_measure_of_a_vector_is_the_dense_one(case, delta, seed):
    v, bip = case
    spec = WeakMeasurementSpec(bip, delta)
    pure, dense = (weak_measure(s, spec, np.random.default_rng(seed))
                   for s in both(v))
    assert pure.flag == dense.flag
    assert abs(pure.probability - dense.probability) <= TOL
    assert_same_state(pure.post_state, dense.post_state)


def heralded(state, spec, unitary, seed):
    """repeat_until_success with a unitary recovery channel: (post state,
    iterations, trace), or None when it gives up."""
    trace = TraceLog()
    try:
        post, iterations = repeat_until_success(
            state, spec, lambda s, k: s.mapped(unitary.__matmul__)[1],
            max_iters=60, rng=np.random.default_rng(seed), delta_ramp=1.2,
            trace=trace)
    except MaxItersExceeded:
        return None
    return post, iterations, trace


@settings(max_examples=EXAMPLES, deadline=None)
@given(vectors_and_masks(), st.floats(0.05, math.pi / 2),
       st.integers(0, 2 ** 32 - 1))
def test_repeat_until_success_of_a_vector_is_the_dense_one(case, delta,
                                                           seed):
    v, bip = case
    unitary = random_unitary(np.random.default_rng(seed), v.size)
    spec = WeakMeasurementSpec(bip, delta)
    pure, dense = (heralded(s, spec, unitary, seed) for s in both(v))
    assert (pure is None) == (dense is None)
    if pure is None:
        return
    assert pure[1] == dense[1]
    assert [r["flag"] for r in pure[2]] == [r["flag"] for r in dense[2]]
    for a, b in zip(pure[2], dense[2]):
        assert abs(a["p_suc_before"] - b["p_suc_before"]) <= TOL
    assert_same_state(pure[0], dense[0])


def spin_basis(n_spins):
    particles = ParticleSet(n_el=0, nuclear_masses=(1.0,) * n_spins,
                            nuclear_charges=(1.0,) * n_spins,
                            nuclear_spin=True)
    return enumerate_basis(GridSpec(1, 1, 1.0), particles, cap=64)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data(), st.sampled_from([0.5, 1.5]))
def test_spin_projection_of_a_vector_is_the_dense_one(data, spin):
    basis = spin_basis(3)
    v = data.draw(unit_vectors(basis.size))

    def project(state):
        try:
            return spin_sector_project(state, basis, (0, 1, 2), spin)
        except EmptySector:
            return None

    pure, dense = (project(s) for s in both(v))
    assert (pure is None) == (dense is None)
    if pure is not None:
        assert abs(pure[0] - dense[0]) <= TOL
        assume(pure[0] > 1e-6)
        assert_same_state(pure[1], dense[1])


def propagation_tree(rng, dims, mask):
    """Two leaves merged under a dense scheduled H with escalation."""
    n = math.prod(dims)

    def block():
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return OperatorBlock((a + a.conj().T) / 4, "external")

    sh = ScheduledHamiltonian(block(), block(), block(), block(),
                              Schedule(s0=0.5, s1=1.0))
    channel = PropagationChannel(sh, 0.0, 1.0, n_steps=4,
                                 escalation_factor=1.5)
    nodes = [ScatterNode("a"), ScatterNode("b"),
             ScatterNode("root", children=("a", "b"), channel=channel,
                         bipartition=Bipartition(mask), delta=0.8,
                         retry=RetryPolicy(max_iters=200, delta_ramp=1.1,
                                           renaturalize=True))]
    return ScatterTree(nodes, "root")


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_propagated_tree_of_pure_leaves_is_the_dense_one(data, da, db,
                                                         seed):
    leaves = {"a": data.draw(unit_vectors(da)),
              "b": data.draw(unit_vectors(db))}
    mask = data.draw(hnp.arrays(np.bool_, da * db))
    assume(mask.any())
    tree = propagation_tree(np.random.default_rng(seed), (da, db), mask)
    pure = run_tree(tree, {k: both(v)[0] for k, v in leaves.items()}, seed)
    dense = run_tree(tree, {k: both(v)[1] for k, v in leaves.items()}, seed)
    assert [r["flag"] for r in pure.trace] == [r["flag"] for r in dense.trace]
    assert pure.records["root"].iterations == dense.records["root"].iterations
    assert abs(pure.records["root"].p_suc_initial
               - dense.records["root"].p_suc_initial) <= TOL
    assert_same_state(pure.final_state, dense.final_state)


def test_tensor_of_pure_states_is_the_kron_of_vectors():
    rng = np.random.default_rng(3)
    a, b = (v / np.linalg.norm(v) for v in
            (rng.normal(size=2) + 1j * rng.normal(size=2),
             rng.normal(size=3) + 1j * rng.normal(size=3)))
    pure = DensityMatrix.from_pure(a).tensor(DensityMatrix.from_pure(b))
    assert np.array_equal(pure.vector, np.kron(a, b))
    mixed = DensityMatrix.from_pure(a).tensor(DensityMatrix.maximally_mixed(3))
    assert mixed.vector is None
    assert np.allclose(mixed.matrix, np.kron(np.outer(a, a.conj()),
                                             np.eye(3) / 3))


@pytest.mark.parametrize("n", [5, 25, 625, 4097])
def test_populations_of_a_vector_are_the_dense_diagonal_bit_for_bit(n):
    """p_suc of a vector, of its pure state and of |v><v| are one float,
    so a measurement report keeps its bytes (|v><v| is formed only up to
    n = 625: at n = 4097 it would take 268 MB)."""
    rng = np.random.default_rng(n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    bip = Bipartition(rng.random(n) < 0.5)
    from_vector = p_success_weight(v, bip)
    assert from_vector == p_success_weight(DensityMatrix.from_pure(v), bip)
    if n <= 625:
        dense = DensityMatrix.trusted(np.outer(v, v.conj()))
        assert from_vector == p_success_weight(dense, bip)


def test_heralding_a_large_pure_state_builds_no_matrix():
    """n = 3969: one n x n complex array is 252 MB; a weak measurement
    and a repeat-until-success run on the vector stay near O(n)."""
    n = 3969
    rng = np.random.default_rng(11)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    state = DensityMatrix.from_pure(v / np.linalg.norm(v))
    spec = WeakMeasurementSpec(Bipartition(rng.random(n) < 0.5), 0.6)
    rngs = [np.random.default_rng(4) for _ in range(2)]
    tracemalloc.start()
    try:
        outcome = weak_measure(state, spec, rngs[0])
        post, _ = repeat_until_success(
            state, spec, lambda s, k: s.mapped(
                lambda x: np.roll(x, 1, axis=0))[1], 64, rng=rngs[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for result in (outcome.post_state, post, state):
        assert result.vector is not None
        assert "matrix" not in vars(result)
    assert peak < 2 ** 20

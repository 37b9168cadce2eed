"""States with no coherence, carried as their diagonal.

``DensityMatrix.from_diagonal`` holds the populations d alone, and the
maps that keep a state diagonal (heralding branches, tensor products)
act on d in O(n). The same state as the dense matrix diag(d)
(``trusted``, no diagonal) is the oracle: every float the diagonal path
reports (populations, p_suc, p_1, trace, the branch and tensor
diagonals) equals the dense one bit for bit, so a tree run writes the
same bytes either way. A map that does not keep the state diagonal
(propagation, a general row map) reads the full matrix diag(d) and keeps
every coherence it creates.
"""

import math

import numpy as np
import pytest

from mergosim.criteria import Bipartition
from mergosim.evolution import DensityMatrix
from mergosim.grid import GridSpec, ParticleSet, enumerate_basis
from mergosim.hamiltonian import (Schedule, ScheduledHamiltonian,
                                  StructuredHamiltonian, TrapSpec,
                                  build_kinetic, build_trap, coulomb_diagonal,
                                  trap_diagonal, zero_block)
from mergosim.tree import PropagationChannel, PumpChannel
from mergosim.weakmeas import (DEGENERATE_TOL, measurement_branches,
                               p_success_weight)


def random_populations(rng, n):
    d = rng.random(n) ** 3  # uneven weights, some near zero
    return (d / np.sum(d)).astype(complex)


def both(d):
    """The state as its diagonal, and as the dense matrix alone."""
    diagonal = DensityMatrix.from_diagonal(d)
    dense = DensityMatrix.trusted(np.diag(d))
    assert diagonal.diagonal is not None and dense.diagonal is None
    return diagonal, dense


def assert_same_diagonal(diagonal, dense):
    assert diagonal.diagonal is not None
    assert np.array_equal(diagonal.diagonal, np.diag(dense.matrix))
    assert diagonal.trace() == dense.trace()


MASKS = {
    "random": lambda rng, n: rng.random(n) < 0.5,
    "empty_a": lambda rng, n: np.zeros(n, dtype=bool),
    "empty_b": lambda rng, n: np.ones(n, dtype=bool),
}


@pytest.mark.parametrize("mask_kind", sorted(MASKS))
@pytest.mark.parametrize("delta", [0.0, 0.3, 1.2, math.pi / 2])
@pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 7), (3, 64),
                                     (4, 1000)])
def test_branches_of_a_diagonal_are_the_dense_branches(mask_kind, delta,
                                                        seed, n):
    rng = np.random.default_rng(seed)
    d = random_populations(rng, n)
    bip = Bipartition(MASKS[mask_kind](rng, n))
    diagonal, dense = both(d)
    assert np.array_equal(diagonal.populations, dense.populations)
    assert diagonal.trace() == dense.trace()
    assert p_success_weight(diagonal, bip) == p_success_weight(dense, bip)
    fast, slow = (measurement_branches(s, bip, delta)
                  for s in (diagonal, dense))
    assert fast.p_suc == slow.p_suc and fast.p1 == slow.p1
    if fast.p1 > 0.0:
        assert_same_diagonal(fast.rho1, slow.rho1)
    if fast.p0 > DEGENERATE_TOL:
        assert_same_diagonal(fast.rho0, slow.rho0)


@pytest.mark.parametrize("seed, n_a, n_b", [(0, 1, 1), (1, 2, 3),
                                            (2, 8, 8), (3, 64, 16)])
def test_tensor_of_diagonals_is_the_dense_tensor(seed, n_a, n_b):
    rng = np.random.default_rng(seed)
    a, b = random_populations(rng, n_a), random_populations(rng, n_b)
    (diag_a, dense_a), (diag_b, dense_b) = both(a), both(b)
    assert_same_diagonal(diag_a.tensor(diag_b), dense_a.tensor(dense_b))


def test_maximally_mixed_is_the_scaled_identity():
    for n in (1, 3, 64):
        state = DensityMatrix.maximally_mixed(n)
        assert np.array_equal(state.matrix,
                              np.eye(n, dtype=complex) / n)
        assert state.purity() == pytest.approx(1.0 / n, rel=1e-14)


def test_a_diagonal_is_checked_as_a_matrix_is():
    for d, message in (([0.5, 0.6], "trace"), ([1.5, -0.5], "negative"),
                       ([0.5 + 0.1j, 0.5 - 0.1j], "Hermitian"),
                       ([], "trace")):
        with pytest.raises(ValueError, match=message):
            DensityMatrix.from_diagonal(np.array(d, dtype=complex))
        if len(d):
            with pytest.raises(ValueError, match=message):
                DensityMatrix(np.diag(d))


def test_a_general_row_map_reads_the_full_matrix():
    """A unitary row map is not a scaling, so the diagonal state is
    mapped as diag(d), exactly as the dense state is."""
    rng = np.random.default_rng(5)
    n = 6
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    diagonal, dense = both(random_populations(rng, n))
    w_fast, fast = diagonal.mapped(q.__matmul__)
    w_slow, slow = dense.mapped(q.__matmul__)
    assert w_fast == w_slow
    assert fast.diagonal is None
    assert np.array_equal(fast.matrix, slow.matrix)


def test_pump_output_is_built_once_and_diagonal():
    bip = Bipartition(np.arange(16) < 5)
    pump = PumpChannel(bip, 0.3)
    out = pump.apply(DensityMatrix.maximally_mixed(16), 0)
    assert out is pump.apply(out, 7)
    assert out.diagonal is not None
    assert p_success_weight(out, bip) == pytest.approx(0.3, abs=1e-15)


def two_nuclei_hamiltonians():
    grid = GridSpec(5, 1, 5.0)
    particles = ParticleSet(n_el=0, nuclear_masses=(50.0, 50.0),
                            nuclear_charges=(1.0, -1.0))
    basis = enumerate_basis(grid, particles, cap=64)
    sched = Schedule(s0=0.5, s1=1.0, f_shape="smoothstep",
                     g_shape="smoothstep")
    trap = TrapSpec.isotropic_spec([(-1.0,), (1.0,)], omega=0.05)
    dense = ScheduledHamiltonian(
        build_kinetic(basis, [0]), build_kinetic(basis, [1]),
        zero_block(basis.size), build_trap(basis, trap), sched)
    structured = StructuredHamiltonian(
        basis, (0, 1), np.zeros(basis.size),
        coulomb_diagonal(basis, 0.5, [(0, 1)]), trap_diagonal(basis, trap),
        sched)
    return {"dense": dense, "structured": structured}


@pytest.mark.parametrize("kind", ["dense", "structured"])
def test_propagating_a_diagonal_is_propagating_the_dense_state(kind):
    """Propagation reads diag(d) as a full matrix: the output equals
    the dense run to 1e-12 and carries the coherences the kinetic term
    creates."""
    sh = two_nuclei_hamiltonians()[kind]
    d = random_populations(np.random.default_rng(11), sh.dim)
    diagonal, dense = both(d)
    channel = PropagationChannel(sh, 0.0, 1.0, n_steps=20)
    fast, slow = (channel.apply(s, 0) for s in (diagonal, dense))
    assert fast.diagonal is None
    assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-12
    coherence = fast.matrix - np.diag(np.diag(fast.matrix))
    assert np.max(np.abs(coherence)) > 1e-3
    assert abs(fast.trace() - 1.0) <= 1e-12

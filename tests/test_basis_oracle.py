"""The array-backed basis and its builders against the per-configuration
oracle in ``basis_oracle``, compared for exact equality."""

import numpy as np
import pytest

import basis_oracle as oracle
from mergosim.criteria import (GeometricCriterion, bipartition,
                               symmetrize_criterion, validate_symmetric)
from mergosim.evolution import DensityMatrix
from mergosim.grid import Configuration, GridSpec, ParticleSet, enumerate_basis
from mergosim.hamiltonian import (TrapSpec, build_coulomb, build_kinetic,
                                  build_point_charges, build_trap)
from mergosim.symmetry import (SymmetryDeclaration, generators, group_elements,
                               permutation_indices)
from mergosim.weakmeas import spin_sector_project

TWO_NUCLEI = dict(n_el=0, nuclear_masses=(1836.0, 3672.0),
                  nuclear_charges=(1.0, -1.0))
H2O2 = dict(n_el=0, nuclear_masses=(29164.0, 29164.0, 1836.0, 1836.0),
            nuclear_charges=(8.0, 8.0, 1.0, 1.0))
PROXIMITY = GeometricCriterion("proximity", ((0, 1, 2.0),))
# register-ordered O-H bonds: not exchange symmetric on its own
H2O2_BONDS = GeometricCriterion("equilibrium", ((0, 2, 100.0, 30.0),
                                                (1, 3, 100.0, 30.0),
                                                (0, 1, 150.0, 30.0)), "pm")

# (grid, particles, declaration, criterion), n = 81, 441, 625, 1250, 2916,
# and a one-point lattice, where every kinetic neighbour is off the grid
CASES = {
    "1d_two_nuclei_81": (GridSpec(9, 1, 9.0), ParticleSet(**TWO_NUCLEI),
                         SymmetryDeclaration(bosonic_sets=((0, 1),)),
                         PROXIMITY),
    "1d_two_nuclei_441": (GridSpec(21, 1, 14.0), ParticleSet(**TWO_NUCLEI),
                          SymmetryDeclaration(bosonic_sets=((0, 1),)),
                          PROXIMITY),
    "1d_four_nuclei_625": (GridSpec(5, 1, 5.0), ParticleSet(**H2O2),
                           SymmetryDeclaration(bosonic_sets=((0, 1),),
                                               fermionic_sets=((2, 3),)),
                           H2O2_BONDS),
    "2d_spin_electron_and_nucleus_1250": (
        GridSpec(5, 2, 6.0),
        ParticleSet(n_el=1, nuclear_masses=(1836.0,), nuclear_charges=(1.0,),
                    electron_spin=True),
        SymmetryDeclaration(), None),
    "3d_two_spin_electrons_2916": (
        GridSpec(3, 3, 4.0), ParticleSet(n_el=2, electron_spin=True),
        SymmetryDeclaration(fermionic_sets=((0, 1),)), None),
    "1d_one_point_two_spin_electrons_4": (
        GridSpec(1, 1, 1.0), ParticleSet(n_el=2, electron_spin=True),
        SymmetryDeclaration(fermionic_sets=((0, 1),)), None),
}


def assert_entries(mat, entries):
    """``mat`` holds exactly the oracle's (rows, cols, values) entries."""
    rows, cols, values = entries
    assert np.array_equal(mat[rows, cols], values)
    assert np.count_nonzero(mat) == np.count_nonzero(values)


def assert_diagonal(mat, diag):
    assert np.array_equal(np.diag(mat), diag)
    assert np.count_nonzero(mat) == np.count_nonzero(diag)


def assert_spin_sectors(basis, s2_entries, regs):
    """Over every sector S of the registers ``regs``, against the oracle's
    sparse S^2: the projected state is an S^2 eigenstate at S(S+1), the
    weights sum to one, and on a pure state the projections sum to it.
    The mixed state is tried where its n x n matrix stays small."""
    rng = np.random.default_rng(len(regs))
    vec = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    states = [vec / np.linalg.norm(vec)]
    if basis.size <= 1250:
        mix = rng.normal(size=(basis.size, 3)) \
            + 1j * rng.normal(size=(basis.size, 3))
        rho = mix @ mix.conj().T
        states.append(rho / np.trace(rho).real)
    sectors = np.arange(len(regs) / 2.0, -0.5, -1.0)
    for array in states:
        state = DensityMatrix.of(array)
        total, parts = 0.0, np.zeros_like(array)
        for s in sectors:
            prob, post = spin_sector_project(state, basis, regs, s)
            x = post.array
            assert np.max(np.abs(oracle.apply_entries(s2_entries, x)
                                 - s * (s + 1.0) * x)) <= 1e-12
            total += prob
            if x.ndim == 1:
                parts += np.sqrt(prob) * x
        assert total == pytest.approx(1.0, abs=1e-12)
        if array.ndim == 1:
            assert np.max(np.abs(parts - array)) <= 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_array_basis_matches_per_configuration_oracle(name):
    grid, particles, declaration, criterion = CASES[name]
    basis = enumerate_basis(grid, particles)
    configs = oracle.enumerate_configurations(grid, particles)
    index = oracle.index_table(configs)
    n_part = particles.n_particles

    assert np.array_equal(basis.labels, [labels for labels, _ in configs])
    assert np.array_equal(basis.spins, [[-1 if s is None else s for s in spins]
                                        for _, spins in configs])
    assert tuple(map(basis.configuration_at, range(basis.size))) \
        == tuple(Configuration(*c) for c in configs)

    for registers in (range(n_part), [n_part - 1]):
        assert_entries(build_kinetic(basis, registers).matrix,
                       oracle.kinetic(grid, particles, configs, index,
                                      registers))

    every = [(i, j) for i in range(n_part) for j in range(i + 1, n_part)]
    for pairs in ("all", every[-1:]):
        assert_diagonal(build_coulomb(basis, 0.7, pairs).matrix,
                        oracle.coulomb(grid, particles, configs, 0.7,
                                       every if pairs == "all" else pairs))

    centers = [[0.3] * grid.dims, [-1.1] * grid.dims]
    assert_diagonal(
        build_point_charges(basis, centers, [1.5, -0.5], 0.4).matrix,
        oracle.point_charges(grid, particles, configs, centers, [1.5, -0.5],
                             0.4))

    if particles.n_nuc:
        trap_centers = [[0.5 * (-1) ** j] * grid.dims
                        for j in range(particles.n_nuc)]
        freqs = [[0.02 * (j + 1) + 0.01 * w for w in range(grid.dims)]
                 for j in range(particles.n_nuc)]
        assert_diagonal(
            build_trap(basis, TrapSpec(trap_centers, freqs,
                                       isotropic=False)).matrix,
            oracle.trap(grid, particles, configs, trap_centers, freqs))

    for perm in group_elements(declaration):
        order = [perm(k) for k in range(n_part)]
        assert np.array_equal(permutation_indices(perm, basis),
                              oracle.permutation(configs, index, order))

    spin_regs = [p for p in range(n_part) if particles.has_spin(p)]
    if spin_regs:
        for regs in (spin_regs, spin_regs[:-1]):
            assert_spin_sectors(basis, oracle.spin_squared(configs, index,
                                                           regs), regs)

    if criterion is not None:
        gens = generators(declaration)
        orders = [[g(k) for k in range(n_part)] for g in gens]
        for crit in (criterion, symmetrize_criterion(criterion, declaration)):
            def evaluate(cfg):
                return oracle.accepts(crit, grid, particles, cfg)

            assert np.array_equal(bipartition(crit, basis).mask,
                                  [evaluate(cfg) for cfg in configs])
            result = validate_symmetric(crit, declaration, basis)
            first = oracle.first_violation(evaluate, configs, orders)
            if first is None:
                assert result.symmetric and result.checked == basis.size
            else:
                i, g = first
                assert not result.symmetric and result.checked == i + 1
                assert result.counterexample == (gens[g],
                                                  Configuration(*configs[i]))

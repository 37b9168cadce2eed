import numpy as np
import pytest

from mergosim.errors import InvalidPermutation, VanishingNorm
from mergosim.evolution import DensityMatrix
from mergosim.grid import (Configuration, GridSpec, ParticleSet,
                           enumerate_basis)
from mergosim.symmetry import (Permutation, SymmetryDeclaration,
                               antisymmetrize, group_elements,
                               permutation_matrix, symmetry_check)


def two_particle_basis(spin=False):
    return enumerate_basis(GridSpec(3, 1, 3.0),
                           ParticleSet(n_el=2, electron_spin=spin), cap=64)


def pair_state(basis, label_a, label_b):
    vec = np.zeros(basis.size, dtype=complex)
    cfg = Configuration(((label_a,), (label_b,)), (None, None))
    vec[basis.index_of(cfg)] = 1.0
    return vec, cfg


class TestPermutation:
    def test_identity_matrix(self):
        basis = two_particle_basis()
        u = permutation_matrix(Permutation.identity(), basis)
        assert np.array_equal(u, np.eye(basis.size))

    def test_transposition_swaps_pair_labels(self):
        basis = two_particle_basis()
        perm = Permutation.transposition(0, 1, fermionic=True)
        u = permutation_matrix(perm, basis)
        assert u.shape == (9, 9)
        vec, _ = pair_state(basis, -1, 1)
        swapped, _ = pair_state(basis, 1, -1)
        assert np.allclose(u @ vec, swapped)

    def test_random_permutations_unitary(self):
        grid = GridSpec(3, 1, 3.0)
        particles = ParticleSet(n_el=3)
        basis = enumerate_basis(grid, particles, cap=64)
        decl = SymmetryDeclaration(fermionic_sets=((0, 1, 2),))
        rng = np.random.default_rng(0)
        elements = group_elements(decl)
        for _ in range(20):
            perm = elements[rng.integers(len(elements))]
            u = permutation_matrix(perm, basis)
            assert np.allclose(u @ u.conj().T, np.eye(basis.size))

    def test_invalid_mapping_rejected(self):
        with pytest.raises(InvalidPermutation):
            Permutation(((0, 1), (1, 2)))

    def test_sign_of_three_cycle(self):
        decl = SymmetryDeclaration(fermionic_sets=((0, 1, 2),))
        signs = sorted(p.sign for p in group_elements(decl))
        assert signs == [-1, -1, -1, 1, 1, 1]


class TestAntisymmetrize:
    def test_pauli_exclusion(self):
        basis = two_particle_basis()
        decl = SymmetryDeclaration(fermionic_sets=((0, 1),))
        vec, _ = pair_state(basis, 0, 0)
        with pytest.raises(VanishingNorm):
            antisymmetrize(vec, decl, basis)

    def test_vanishing_weight_raises_for_vector_and_state(self):
        # a 1e-8 antisymmetric part: weight 2e-16, norm 1.4e-8; both
        # forms compare the weight
        basis = two_particle_basis()
        decl = SymmetryDeclaration(fermionic_sets=((0, 1),))
        ab, _ = pair_state(basis, -1, 1)
        ba, _ = pair_state(basis, 1, -1)
        vec = (ab + ba) / np.sqrt(2) + 1e-8 * (ab - ba) / np.sqrt(2)
        vec /= np.linalg.norm(vec)
        for state in (vec, DensityMatrix.from_pure(vec)):
            with pytest.raises(VanishingNorm):
                antisymmetrize(state, decl, basis)

    def test_fermionic_pair(self):
        basis = two_particle_basis()
        decl = SymmetryDeclaration(fermionic_sets=((0, 1),))
        vec, _ = pair_state(basis, -1, 1)
        out = antisymmetrize(vec, decl, basis)
        ab, _ = pair_state(basis, -1, 1)
        ba, _ = pair_state(basis, 1, -1)
        assert np.allclose(out, (ab - ba) / np.sqrt(2)) or \
            np.allclose(out, -(ab - ba) / np.sqrt(2))

    def test_bosonic_pair(self):
        basis = two_particle_basis()
        decl = SymmetryDeclaration(bosonic_sets=((0, 1),))
        vec, _ = pair_state(basis, -1, 1)
        out = antisymmetrize(vec, decl, basis)
        ab, _ = pair_state(basis, -1, 1)
        ba, _ = pair_state(basis, 1, -1)
        assert np.allclose(out, (ab + ba) / np.sqrt(2))

    def test_idempotent_after_normalization(self):
        basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=3),
                                cap=64)
        decl = SymmetryDeclaration(fermionic_sets=((0, 1, 2),))
        rng = np.random.default_rng(1)
        vec = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        vec /= np.linalg.norm(vec)
        once = antisymmetrize(vec, decl, basis)
        twice = antisymmetrize(once, decl, basis)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_density_matrix_branch(self):
        basis = two_particle_basis()
        decl = SymmetryDeclaration(bosonic_sets=((0, 1),))
        vec, _ = pair_state(basis, -1, 0)
        rho = antisymmetrize(DensityMatrix.from_pure(vec), decl, basis)
        assert symmetry_check(rho, decl, basis).max_deviation < 1e-12


class TestSymmetryCheck:
    def test_symmetrized_output_passes(self):
        basis = two_particle_basis()
        decl = SymmetryDeclaration(fermionic_sets=((0, 1),))
        vec, _ = pair_state(basis, -1, 1)
        out = antisymmetrize(vec, decl, basis)
        assert symmetry_check(out, decl, basis).max_deviation < 1e-12

    def test_product_state_fails(self):
        basis = two_particle_basis()
        decl = SymmetryDeclaration(fermionic_sets=((0, 1),))
        vec, _ = pair_state(basis, -1, 1)
        report = symmetry_check(vec, decl, basis)
        assert report.max_deviation > 0.5

    def test_pure_state_keeps_its_exchange_sign(self):
        # a symmetric pair state under a fermionic declaration: U psi = psi
        # while the sign asks for -psi, which |v><v| alone cannot show
        basis = two_particle_basis()
        vec, _ = pair_state(basis, -1, 1)
        sym = antisymmetrize(vec, SymmetryDeclaration(bosonic_sets=((0, 1),)),
                             basis)
        state = DensityMatrix.from_pure(sym)
        fermionic = SymmetryDeclaration(fermionic_sets=((0, 1),))
        deviation = symmetry_check(state, fermionic, basis).max_deviation
        assert deviation == pytest.approx(2.0)
        assert deviation == symmetry_check(sym, fermionic,
                                           basis).max_deviation
        assert "matrix" not in vars(state)

    def test_generator_sufficiency(self):
        # invariance under adjacent transpositions implies invariance
        # under random full group elements
        basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=3),
                                cap=64)
        decl = SymmetryDeclaration(fermionic_sets=((0, 1, 2),))
        rng = np.random.default_rng(2)
        vec = rng.normal(size=basis.size)
        vec /= np.linalg.norm(vec)
        sym = antisymmetrize(vec, decl, basis)
        assert symmetry_check(sym, decl, basis).max_deviation < 1e-12
        elements = group_elements(decl)
        for _ in range(50):
            perm = elements[rng.integers(len(elements))]
            u = permutation_matrix(perm, basis)
            assert np.linalg.norm(u @ sym - perm.sign * sym) < 1e-12


    def test_mixed_matrix_state(self):
        """A mixed state held as its matrix is scored by max |U rho U^dag
        - rho|: a mixture of exchange-antisymmetric pair states passes,
        a mixture of product pair states does not."""
        basis = two_particle_basis()
        decl = SymmetryDeclaration(fermionic_sets=((0, 1),))
        pairs = [pair_state(basis, -1, 1)[0], pair_state(basis, -1, 0)[0]]

        def mixture(states):
            return DensityMatrix(0.5 * sum(np.outer(v, v.conj())
                                           for v in states))

        symmetric = mixture([antisymmetrize(v, decl, basis) for v in pairs])
        assert symmetry_check(symmetric, decl, basis).max_deviation <= 1e-12
        assert symmetry_check(mixture(pairs), decl,
                              basis).max_deviation > 0.1


class TestH2O2Registers:
    def h2o2_basis(self):
        # four nuclei on a 1d m=9 grid: O O H H register order
        grid = GridSpec(9, 1, 9.0)
        particles = ParticleSet(n_el=0,
                                nuclear_masses=(29164.0, 29164.0,
                                                1836.0, 1836.0),
                                nuclear_charges=(8.0, 8.0, 1.0, 1.0))
        return enumerate_basis(grid, particles, cap=7000)

    def test_symmetrized_state_passes_under_both_swaps(self):
        basis = self.h2o2_basis()
        decl = SymmetryDeclaration(bosonic_sets=((0, 1),),
                                   fermionic_sets=((2, 3),))
        decl.check_against(basis.particles)
        cfg = Configuration(((-1,), (2,), (-3,), (4,)), (None,) * 4)
        vec = np.zeros(basis.size, dtype=complex)
        vec[basis.index_of(cfg)] = 1.0
        sym = antisymmetrize(vec, decl, basis)
        assert symmetry_check(sym, decl, basis).max_deviation < 1e-12

    def test_mixed_species_set_rejected(self):
        basis = self.h2o2_basis()
        decl = SymmetryDeclaration(bosonic_sets=((1, 2),))
        with pytest.raises(ValueError):
            decl.check_against(basis.particles)


class TestDeclaration:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            SymmetryDeclaration(bosonic_sets=((0, 1),),
                                fermionic_sets=((1, 2),))

    def test_set_size_guard(self):
        with pytest.raises(ValueError):
            SymmetryDeclaration(bosonic_sets=((0, 1, 2, 3, 4, 5),))

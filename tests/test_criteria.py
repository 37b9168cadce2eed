import numpy as np
import pytest

from mergosim.criteria import (Bipartition, GeometricCriterion, bipartition,
                               symmetrize_criterion, validate_symmetric)
from mergosim.errors import LabelOutOfRange, PairIndexOutOfRange
from mergosim.grid import Configuration, GridSpec, ParticleSet, enumerate_basis
from mergosim.symmetry import (SymmetryDeclaration, antisymmetrize,
                               generators, permutation_matrix, symmetry_check)
from mergosim.units import BOHR_PM


def two_nuclei_basis(m=5, length=5.0):
    grid = GridSpec(m, 1, length)
    particles = ParticleSet(n_el=0, nuclear_masses=(100.0, 100.0),
                            nuclear_charges=(1.0, 1.0))
    return enumerate_basis(grid, particles, cap=200)


def h2o2_basis():
    """O O H H nuclear registers on a 1d m=9 grid (spacing 1 Bohr)."""
    grid = GridSpec(9, 1, 9.0)
    particles = ParticleSet(n_el=0,
                            nuclear_masses=(29164.0, 29164.0, 1836.0, 1836.0),
                            nuclear_charges=(8.0, 8.0, 1.0, 1.0))
    return enumerate_basis(grid, particles, cap=7000)


def h2o2_declaration():
    return SymmetryDeclaration(bosonic_sets=((0, 1),), fermionic_sets=((2, 3),))


def naive_h2o2_criterion():
    """Register-ordered bond checks: O1-H1, O2-H2 at 95 pm, O1-O2 at 147 pm.

    On the 1 Bohr grid the realized distances are 2, 2 and 3 Bohr; the
    tolerance accepts those while excluding every wrong pairing.
    """
    eps_pm = 0.25 * BOHR_PM
    return GeometricCriterion(mode="equilibrium", unit="pm",
                              constraints=((0, 2, 95.0, eps_pm),
                                           (1, 3, 95.0, eps_pm),
                                           (0, 1, 147.0, eps_pm)))


def h2o2_equilibrium_config():
    # linear arrangement H1 O1 O2 H2 at labels -3, -1, +2, +4
    return Configuration(((-1,), (2,), (-3,), (4,)), (None,) * 4)


class TestEvaluate:
    def test_proximity_accepts_close_pair(self):
        basis = two_nuclei_basis()
        crit = GeometricCriterion("proximity", ((0, 1, 2.0),))
        cfg = Configuration(((0,), (1,)), (None, None))  # distance 1.0
        assert crit.evaluate(cfg, basis.grid, basis.particles) == 1

    def test_equilibrium_rejects_off_target(self):
        basis = two_nuclei_basis()
        # target 95 pm with a tolerance far smaller than the 2.0 Bohr gap
        crit = GeometricCriterion("equilibrium", ((0, 1, 95.0, 1.0),),
                                  unit="pm")
        cfg = Configuration(((-1,), (1,)), (None, None))  # distance 2.0 Bohr
        assert crit.evaluate(cfg, basis.grid, basis.particles) == 0

    def test_label_out_of_range(self):
        basis = two_nuclei_basis()
        crit = GeometricCriterion("proximity", ((0, 1, 2.0),))
        cfg = Configuration(((0,), (basis.grid.max_label + 1,)), (None, None))
        with pytest.raises(LabelOutOfRange):
            crit.evaluate(cfg, basis.grid, basis.particles)

    def test_pair_index_out_of_range(self):
        basis = two_nuclei_basis()
        crit = GeometricCriterion("proximity", ((0, 5, 2.0),))
        cfg = basis.configuration_at(0)
        with pytest.raises(PairIndexOutOfRange):
            crit.evaluate(cfg, basis.grid, basis.particles)

    def test_h2o2_register_ordered_criterion(self):
        basis = h2o2_basis()
        crit = naive_h2o2_criterion()
        cfg = h2o2_equilibrium_config()
        assert crit.evaluate(cfg, basis.grid, basis.particles) == 1
        o_swapped = Configuration((cfg.labels[1], cfg.labels[0],
                                   cfg.labels[2], cfg.labels[3]),
                                  cfg.spins)
        assert crit.evaluate(o_swapped, basis.grid, basis.particles) == 0


class TestBipartition:
    def test_accept_everything(self):
        basis = two_nuclei_basis()
        crit = GeometricCriterion("proximity", ((0, 1, 100.0),))
        bip = bipartition(crit, basis)
        assert bip.mask.all() and bip.mask.size == basis.size

    def test_reject_everything(self):
        basis = two_nuclei_basis()
        crit = GeometricCriterion("equilibrium", ((0, 1, 50.0, 0.01),))
        bip = bipartition(crit, basis)
        assert not bip.mask.any()

    def test_matches_brute_force_double_loop(self):
        basis = two_nuclei_basis(m=7, length=7.0)
        rng = np.random.default_rng(9)
        threshold = float(rng.uniform(0.5, 3.0))
        crit = GeometricCriterion("proximity", ((0, 1, threshold),))
        bip = bipartition(crit, basis)
        expected = set()
        for i in range(basis.size):
            cfg = basis.configuration_at(i)
            x1 = cfg.labels[0][0] * basis.grid.spacing
            x2 = cfg.labels[1][0] * basis.grid.spacing
            if abs(x1 - x2) <= threshold:
                expected.add(i)
        assert set(np.flatnonzero(bip.mask)) == expected
        assert bip.mask.size == basis.size

    def test_mask_construction(self):
        bip = Bipartition([True, False, True, False])
        assert bip.mask.tolist() == [True, False, True, False]
        assert np.allclose(np.diag(bip.projector()), [1.0, 0.0, 1.0, 0.0])


class TestValidateSymmetric:
    def test_closed_pair_set_is_symmetric(self):
        basis = two_nuclei_basis()
        decl = SymmetryDeclaration(bosonic_sets=((0, 1),))
        crit = GeometricCriterion("proximity", ((0, 1, 1.5),))
        result = validate_symmetric(crit, decl, basis)
        assert result.symmetric and result.counterexample is None

    def test_naive_h2o2_criterion_fails(self):
        basis = h2o2_basis()
        result = validate_symmetric(naive_h2o2_criterion(),
                                    h2o2_declaration(), basis)
        assert not result.symmetric
        perm, cfg = result.counterexample
        crit = naive_h2o2_criterion()
        assert crit.evaluate(cfg, basis.grid, basis.particles) != \
            crit.evaluate(perm.apply_to_configuration(cfg), basis.grid,
                          basis.particles)

    def test_symmetrized_variant_passes(self):
        basis = h2o2_basis()
        decl = h2o2_declaration()
        sym_crit = symmetrize_criterion(naive_h2o2_criterion(), decl)
        result = validate_symmetric(sym_crit, decl, basis)
        assert result.symmetric
        cfg = h2o2_equilibrium_config()
        assert sym_crit.accepts(np.array([cfg.labels]), basis.grid,
                                basis.particles)[0]


class TestSymmetryTheorem:
    def test_sufficiency_projectors_commute(self):
        # validated symmetric criterion => projectors commute with U_sigma
        basis = two_nuclei_basis()
        decl = SymmetryDeclaration(bosonic_sets=((0, 1),))
        crit = GeometricCriterion("proximity", ((0, 1, 1.5),))
        assert validate_symmetric(crit, decl, basis).symmetric
        proj = bipartition(crit, basis).projector()
        for gen in generators(decl):
            u = permutation_matrix(gen, basis)
            assert np.max(np.abs(proj @ u - u @ proj)) < 1e-12

    def test_necessity_witness_breaks_symmetry(self):
        # the (anti)symmetrized counterexample, projected onto the block
        # that holds its weight, leaves the exchange sector
        basis = h2o2_basis()
        decl = h2o2_declaration()
        crit = naive_h2o2_criterion()
        _, cfg = validate_symmetric(crit, decl, basis).counterexample
        vec = np.zeros(basis.size, dtype=complex)
        vec[basis.index_of(cfg)] = 1.0
        sym = antisymmetrize(vec, decl, basis)
        mask = bipartition(crit, basis).mask
        if not np.any(sym[mask]):
            mask = ~mask
        witness = np.where(mask, sym, 0.0)
        witness /= np.linalg.norm(witness)
        report = symmetry_check(witness, decl, basis)
        assert report.max_deviation > 0.1


class TestUnits:
    def test_pm_and_bohr_agree(self):
        basis = two_nuclei_basis()
        cfg = Configuration(((-1,), (1,)), (None, None))  # 2 Bohr apart
        in_bohr = GeometricCriterion("proximity", ((0, 1, 2.5),), unit="bohr")
        in_pm = GeometricCriterion("proximity", ((0, 1, 2.5 * BOHR_PM),),
                                   unit="pm")
        assert in_bohr.evaluate(cfg, basis.grid, basis.particles) \
            == in_pm.evaluate(cfg, basis.grid, basis.particles) == 1

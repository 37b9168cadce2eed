import numpy as np
import pytest

from mergosim.errors import (CenterOutsideBox, NonHermitianHamiltonian,
                             ScheduleOutOfRange, SingularCoulomb)
from mergosim.grid import Configuration, GridSpec, ParticleSet, enumerate_basis
from mergosim.hamiltonian import (OperatorBlock, Schedule, ScheduledHamiltonian,
                                  TrapSpec, build_coulomb, build_kinetic,
                                  build_point_charges, build_trap,
                                  coulomb_diagonal, hermiticity_deviation,
                                  zero_block)


def single_particle_basis(m=3, length=3.0):
    return enumerate_basis(GridSpec(m, 1, length), ParticleSet(n_el=1))


def heavy_basis(mass):
    grid = GridSpec(3, 1, 3.0)
    particles = ParticleSet(n_el=0, nuclear_masses=(mass,),
                            nuclear_charges=(1.0,))
    return enumerate_basis(grid, particles)


class TestKinetic:
    def test_stencil_values(self):
        k = build_kinetic(single_particle_basis()).matrix
        h = 1.0
        assert np.allclose(np.diag(k), 1.0 / h**2)
        assert k[0, 1] == pytest.approx(-1.0 / (2.0 * h**2))
        assert k[0, 2] == 0.0  # Dirichlet: no wrap across the box edge

    def test_stencil_spacing_scaling(self):
        k = build_kinetic(single_particle_basis(m=5, length=10.0)).matrix
        h = 2.0
        assert np.allclose(np.diag(k), 1.0 / h**2)
        assert k[1, 2] == pytest.approx(-1.0 / (2.0 * h**2))

    def test_two_free_particles_spectrum_is_minkowski_sum(self):
        single = np.linalg.eigvalsh(build_kinetic(single_particle_basis()).matrix)
        pair_basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=2))
        pair = np.linalg.eigvalsh(build_kinetic(pair_basis).matrix)
        sums = np.sort(np.add.outer(single, single).ravel())
        assert np.allclose(pair, sums, atol=1e-12)

    def test_mass_scaling(self):
        light = build_kinetic(heavy_basis(1.0)).matrix
        heavy = build_kinetic(heavy_basis(1836.0)).matrix
        assert np.allclose(heavy, light / 1836.0)

    def test_hermitian(self):
        basis = enumerate_basis(GridSpec(5, 2, 5.0), ParticleSet(n_el=1))
        k = build_kinetic(basis).matrix
        assert np.max(np.abs(k - k.conj().T)) < 1e-12


class TestCoulomb:
    def electron_nucleus_basis(self):
        grid = GridSpec(3, 1, 3.0)
        particles = ParticleSet(n_el=1, nuclear_masses=(1836.0,),
                                nuclear_charges=(1.0,))
        return enumerate_basis(grid, particles)

    def test_single_pair_value(self):
        basis = self.electron_nucleus_basis()
        cfg = Configuration(((1,), (-1,)), (None, None))
        # distance 2 Bohr, charges -1 and +1; the basis also holds
        # coincident configurations, which zero softening rejects, and a
        # softening of 1e-9 Bohr leaves 1/sqrt(4 + a^2) at 1/2 exactly
        assert coulomb_diagonal(basis, 1e-9)[basis.index_of(cfg)] == -0.5

    def test_coincident_electrons_softened(self):
        grid = GridSpec(3, 1, 3.0)
        basis = enumerate_basis(grid, ParticleSet(n_el=2))
        cfg = Configuration(((0,), (0,)), (None, None))
        assert coulomb_diagonal(basis, 0.1)[basis.index_of(cfg)] == \
            pytest.approx(10.0)

    def test_singular_coulomb_raises(self):
        basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=2))
        with pytest.raises(SingularCoulomb):
            build_coulomb(basis, softening=0.0)

    def test_h2_like_toy_against_brute_force(self):
        # one electron roaming between two clamped protons, m = 9
        basis = enumerate_basis(GridSpec(9, 1, 9.0), ParticleSet(n_el=1))
        centers = [(-2.0,), (2.0,)]
        charges = [1.0, 1.0]
        soft = 0.3
        block = build_point_charges(basis, centers, charges, soft)
        diag = np.diag(block.matrix).real
        for i in range(basis.size):
            cfg = basis.configuration_at(i)
            x = cfg.labels[0][0] * basis.grid.spacing
            expected = sum(-1.0 * q / np.sqrt((x - c[0]) ** 2 + soft**2)
                           for c, q in zip(centers, charges))
            assert diag[i] == pytest.approx(expected, abs=1e-14)

    def test_swap_identical_particles_leaves_diagonal_unchanged(self):
        basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=2))
        diag = coulomb_diagonal(basis, 0.2)
        for cfg in map(basis.configuration_at, range(basis.size)):
            swapped = Configuration((cfg.labels[1], cfg.labels[0]),
                                    cfg.spins)
            assert diag[basis.index_of(cfg)] == \
                pytest.approx(diag[basis.index_of(swapped)], abs=1e-14)


class TestTrap:
    def proton_basis(self, m=5, length=5.0):
        grid = GridSpec(m, 1, length)
        particles = ParticleSet(n_el=0, nuclear_masses=(1836.0,),
                                nuclear_charges=(1.0,))
        return enumerate_basis(grid, particles)

    def test_zero_at_center(self):
        basis = self.proton_basis()
        trap = TrapSpec.isotropic_spec([(1.0,)], omega=0.01)
        block = build_trap(basis, trap)
        idx = basis.index_of(Configuration(((1,),), (None,)))
        assert block.matrix[idx, idx] == 0.0

    def test_hand_evaluated_quadratic(self):
        basis = self.proton_basis()
        trap = TrapSpec.isotropic_spec([(0.0,)], omega=0.01)
        block = build_trap(basis, trap)
        idx = basis.index_of(Configuration(((1,),), (None,)))
        # (1836/2) * 1e-4 * (1 Bohr)^2
        assert block.matrix[idx, idx].real == pytest.approx(0.0918, abs=1e-12)

    def test_omega_doubling_quadruples(self):
        basis = self.proton_basis()
        one = build_trap(basis, TrapSpec.isotropic_spec([(0.0,)], 0.01)).matrix
        two = build_trap(basis, TrapSpec.isotropic_spec([(0.0,)], 0.02)).matrix
        assert np.allclose(two, 4.0 * one)

    def test_center_outside_box(self):
        basis = self.proton_basis()
        with pytest.raises(CenterOutsideBox):
            build_trap(basis, TrapSpec.isotropic_spec([(10.0,)], 0.01))

    def test_trap_commutes_with_nuclear_diagonal(self):
        basis = self.proton_basis()
        trap = build_trap(basis, TrapSpec.isotropic_spec([(0.5,)], 0.02)).matrix
        other = np.diag(np.arange(basis.size, dtype=float))
        assert np.max(np.abs(trap @ other - other @ trap)) == 0.0

    def test_anisotropy_flag_enforced(self):
        with pytest.raises(ValueError):
            TrapSpec(((0.0, 0.0),), ((0.1, 0.2),), isotropic=True)

    @pytest.mark.parametrize("row", [(0.1,), (0.1, 0.2, 0.3)])
    def test_frequency_row_must_match_the_grid(self, row):
        """A row is one frequency per axis: on a 2D grid a row of one is
        not broadcast and a row of three is not left to numpy."""
        basis = enumerate_basis(GridSpec(3, 2, 3.0),
                                ParticleSet(n_el=0, nuclear_masses=(1836.0,),
                                            nuclear_charges=(1.0,)))
        trap = TrapSpec(((0.0, 0.0),), (row,), isotropic=False)
        with pytest.raises(ValueError,
                           match="trap frequency dimensionality mismatch"):
            build_trap(basis, trap)


class TestSchedule:
    @pytest.mark.parametrize("shape", ["linear", "smoothstep"])
    def test_f_contract(self, shape):
        sched = Schedule(s0=1.0, s1=2.0, f_shape=shape)
        s = np.linspace(0.0, 2.0, 801)
        f = np.array([sched.f(float(x)) for x in s])
        assert f[0] == 0.0
        assert np.all(f[s >= 1.0] == 1.0)
        assert np.all(np.diff(f) >= -1e-15)

    @pytest.mark.parametrize("shape", ["linear", "smoothstep"])
    def test_g_contract(self, shape):
        sched = Schedule(s0=1.0, s1=2.0, g_shape=shape)
        s = np.linspace(0.0, 2.0, 801)
        g = np.array([sched.g(float(x)) for x in s])
        assert g[0] == 0.0
        assert sched.g(1.0) == 1.0
        assert sched.g(2.0) == 0.0
        rising = g[s <= 1.0]
        falling = g[s >= 1.0]
        assert np.all(np.diff(rising) >= -1e-15)
        assert np.all(np.diff(falling) <= 1e-15)


class TestScheduledHamiltonian:
    def build(self):
        basis = enumerate_basis(GridSpec(3, 1, 3.0),
                                ParticleSet(n_el=0,
                                            nuclear_masses=(100.0, 100.0),
                                            nuclear_charges=(1.0, 1.0)))
        h_a = build_kinetic(basis, [0])
        h_b = build_kinetic(basis, [1])
        h_ab = build_coulomb(basis, softening=0.5, pairs=[(0, 1)])
        trap = build_trap(basis, TrapSpec.isotropic_spec(
            [(-0.5,), (0.5,)], omega=0.05))
        sched = Schedule(s0=1.0, s1=2.0, f_shape="smoothstep",
                         g_shape="smoothstep")
        return ScheduledHamiltonian(h_a, h_b, h_ab, trap, sched)

    def test_boundary_values(self):
        sh = self.build()
        free = sh.h_a.matrix + sh.h_b.matrix
        assert np.allclose(sh.evaluate(0.0).matrix, free)
        assert np.allclose(sh.evaluate(1.0).matrix,
                           free + sh.h_ab.matrix + sh.v_trap.matrix)
        # trap released at s1; the interaction stays on
        assert np.allclose(sh.evaluate(2.0).matrix, free + sh.h_ab.matrix)

    def test_out_of_range(self):
        sh = self.build()
        with pytest.raises(ScheduleOutOfRange):
            sh.evaluate(2.5)
        with pytest.raises(ScheduleOutOfRange):
            sh.evaluate(-0.1)

    def test_hermitian_at_random_s(self):
        sh = self.build()
        rng = np.random.default_rng(7)
        for s in rng.uniform(0.0, 2.0, size=100):
            h = sh.evaluate(float(s)).matrix
            assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestOperatorBlock:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianHamiltonian):
            OperatorBlock(np.array([[0.0, 1.0], [0.0, 0.0]]), "external")

    @pytest.mark.parametrize("n", [1, 2, 7, 700, 1100])
    def test_blocked_deviation_equals_the_whole_matrix_formula(self, n):
        """The row-blocked check reads the same max |M - M^dag| bit for
        bit; n = 700 and 1100 span two and five row blocks."""
        rng = np.random.default_rng(n)
        general = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hermitian = (general + general.conj().T) / 2
        nearly = hermitian.copy()
        nearly[n // 2, n - 1] += 3e-13j
        for mat in (general, hermitian, nearly):
            assert hermiticity_deviation(mat) == \
                np.max(np.abs(mat - mat.conj().T))

    def test_addition_and_scaling(self):
        a = OperatorBlock(np.eye(2), "kinetic")
        b = OperatorBlock(2.0 * np.eye(2), "trap")
        assert np.allclose((a + b).matrix, 3.0 * np.eye(2))
        assert np.allclose(a.scaled(4.0).matrix, 4.0 * np.eye(2))
        assert zero_block(3).matrix.shape == (3, 3)

import warnings

import numpy as np
import pytest

from mergosim.errors import (NonHermitianHamiltonian, NonuniformGrid,
                             ScheduleOutOfRange, UnnormalizedInput)
from mergosim.evolution import (DensityMatrix, autocorrelation, propagate,
                                spectrum)
from mergosim.hamiltonian import (OperatorBlock, Schedule, ScheduledHamiltonian,
                                  hermiticity_deviation)


NAN = float("nan")
# a NaN anywhere makes max |M - M^dag| NaN, which no check may accept
NAN_MATRICES = {"nan_pair": [[0.5, NAN], [NAN, 0.5]],
                "nan_one_triangle": [[0.5, NAN], [0.0, 0.5]],
                "nan_diagonal": [[NAN, 0.0], [0.0, 1.0]],
                "nan_imaginary": [[0.5, complex(0.0, NAN)],
                                  [complex(0.0, NAN), 0.5]]}


def two_level_sweep(width, gap, s1=1.0):
    """H(s) = [[W(2s/s1 - 1), gap], [gap, -W(2s/s1 - 1)]] via a linear f."""
    h0 = OperatorBlock(np.array([[-width, gap], [gap, width]]), "external")
    ramp = OperatorBlock(np.diag([2.0 * width, -2.0 * width]), "external")
    zero = OperatorBlock(np.zeros((2, 2)), "external")
    sched = Schedule(s0=s1, s1=s1 + 1e-9, f_shape="linear")
    return ScheduledHamiltonian(h0, zero, ramp, zero, sched)


def constant_hamiltonian(diag):
    h = OperatorBlock(np.diag(np.asarray(diag, dtype=float)), "external")
    zero = OperatorBlock(np.zeros_like(h.matrix), "external")
    sched = Schedule(s0=0.5, s1=1.0)
    return ScheduledHamiltonian(h, zero, zero, zero, sched)


@pytest.mark.parametrize("name", list(NAN_MATRICES))
def test_no_hermiticity_check_accepts_nan(name):
    """A state, an operator block and a fixed autocorrelation Hamiltonian
    with a NaN entry are all rejected."""
    mat = np.array(NAN_MATRICES[name], dtype=complex)
    assert np.isnan(hermiticity_deviation(mat))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(mat)
    with pytest.raises(NonHermitianHamiltonian):
        OperatorBlock(mat, "external")
    with pytest.raises(NonHermitianHamiltonian):
        autocorrelation(np.array([1.0, 0.0]), mat, 1.0, 8)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.9, 0.3]))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_constructors(self):
        rho = DensityMatrix.from_pure(np.array([1.0, 1.0]) / np.sqrt(2))
        assert rho.purity() == pytest.approx(1.0)
        assert DensityMatrix.maximally_mixed(4).purity() == pytest.approx(0.25)
        with pytest.raises(UnnormalizedInput):
            DensityMatrix.from_pure(np.array([1.0, 1.0]))
        with pytest.raises(UnnormalizedInput):
            DensityMatrix.from_pure(np.array([np.nan, 0.0]))

    def test_trusted_rejects_a_nan_trace(self):
        with pytest.raises(ValueError, match="trace differs from one"):
            DensityMatrix.trusted(np.full((2, 2), NAN))

    def test_pure_state_builds_its_matrix_on_first_access(self):
        psi = np.array([0.6, 0.48j, 0.64])
        rho = DensityMatrix.from_pure(psi)
        assert rho.dim == 3
        assert rho.trace() == pytest.approx(1.0, abs=1e-15)
        assert rho.purity() == pytest.approx(1.0, abs=1e-15)
        assert "matrix" not in vars(rho)
        assert np.array_equal(rho.matrix, np.outer(psi, psi.conj()))
        assert rho.matrix is rho.matrix


class TestPropagate:
    def test_constant_diagonal_keeps_populations(self):
        sh = constant_hamiltonian([1.0, 2.0, 3.0])
        rho = DensityMatrix.from_pure(np.ones(3) / np.sqrt(3))
        report = propagate(rho, sh, 0.0, 1.0, 1)
        assert np.allclose(np.diag(report.final_state.matrix),
                           np.diag(rho.matrix))
        # phases exp(-i (E_j - E_k) ds) on the off-diagonals
        expected = rho.matrix * np.exp(
            -1j * np.subtract.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
        assert np.allclose(report.final_state.matrix, expected, atol=1e-12)

    def test_zero_hamiltonian_is_identity(self):
        sh = constant_hamiltonian([0.0, 0.0])
        rho = DensityMatrix.from_pure(np.array([0.6, 0.8]))
        report = propagate(rho, sh, 0.0, 1.0, 17)
        assert np.allclose(report.final_state.matrix, rho.matrix)
        assert report.norm_drift < 1e-12

    def test_schedule_bounds_enforced(self):
        sh = constant_hamiltonian([1.0, 2.0])
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ScheduleOutOfRange):
            propagate(rho, sh, 0.5, 1.5, 4)
        with pytest.raises(ScheduleOutOfRange):
            propagate(rho, sh, 0.8, 0.2, 4)

    def test_trace_and_purity_preserved(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = OperatorBlock((mat + mat.conj().T) / 2, "external")
        zero = OperatorBlock(np.zeros((6, 6)), "external")
        sh = ScheduledHamiltonian(h, zero, h.scaled(0.3), zero,
                                  Schedule(s0=0.6, s1=1.0, f_shape="smoothstep"))
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = DensityMatrix.from_pure(psi / np.linalg.norm(psi))
        report = propagate(rho, sh, 0.0, 1.0, 50)
        assert report.norm_drift < 1e-9
        assert abs(report.final_state.purity() - 1.0) < 1e-9

    def test_energy_conserved_for_constant_h(self):
        sh = constant_hamiltonian([0.3, -0.2, 1.1, 0.4])
        rng = np.random.default_rng(11)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = DensityMatrix.from_pure(psi / np.linalg.norm(psi))
        h = sh.evaluate(0.0).matrix
        before = np.trace(h @ rho.matrix).real
        after = np.trace(
            h @ propagate(rho, sh, 0.0, 1.0, 60).final_state.matrix).real
        assert abs(after - before) < 1e-9

    def test_step_halving_second_order(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(4, 4))
        h0 = OperatorBlock((mat + mat.T) / 2, "external")
        mat2 = rng.normal(size=(4, 4))
        coupling = OperatorBlock((mat2 + mat2.T) / 2, "external")
        zero = OperatorBlock(np.zeros((4, 4)), "external")
        sh = ScheduledHamiltonian(h0, zero, coupling, zero,
                                  Schedule(s0=0.8, s1=1.0,
                                           f_shape="smoothstep"))
        rho = DensityMatrix.from_pure(np.eye(4)[0])

        def dist(n1, n2):
            a = propagate(rho, sh, 0.0, 0.8, n1).final_state.matrix
            b = propagate(rho, sh, 0.0, 0.8, n2).final_state.matrix
            return np.max(np.abs(a - b))

        d1 = dist(8, 16)
        d2 = dist(16, 32)
        assert d1 / d2 >= 3.0

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0])
    def test_landau_zener_two_level(self, gamma):
        # wide window so the sweep starts far from the avoided crossing
        width = 5000.0
        gap = np.sqrt(4.0 * width * gamma)  # sweep rate is 4W over s in [0,1]
        sh = two_level_sweep(width, gap)
        h_start = sh.evaluate(0.0).matrix
        _, v0 = np.linalg.eigh(h_start)
        rho = DensityMatrix.from_pure(v0[:, 0])
        n_steps = 4000
        report = propagate(rho, sh, 0.0, 1.0, n_steps)
        h_end = sh.evaluate(1.0).matrix
        _, v1 = np.linalg.eigh(h_end)
        excited = v1[:, 1]
        p_transition = float(np.real(
            excited.conj() @ report.final_state.matrix @ excited))
        expected = np.exp(-2.0 * np.pi * gamma)
        assert p_transition == pytest.approx(expected, rel=0.05)
        # convergence oracle: 10x steps does not move the answer
        fine = propagate(rho, sh, 0.0, 1.0, 10 * n_steps)
        p_fine = float(np.real(
            excited.conj() @ fine.final_state.matrix @ excited))
        assert p_transition == pytest.approx(p_fine, rel=2e-2)


class TestAutocorrelation:
    def test_eigenstate_is_stationary(self):
        h = np.diag([0.5, 1.5, 2.5])
        psi = np.eye(3)[1]
        times, values = autocorrelation(psi, h, 10.0, 64)
        assert values[0] == pytest.approx(1.0)
        assert np.allclose(np.abs(values), 1.0, atol=1e-12)

    def test_two_level_beat(self):
        gap = 0.8
        h = np.diag([0.0, gap])
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        times, values = autocorrelation(psi, h, 20.0, 257)
        assert np.allclose(np.abs(values), np.abs(np.cos(gap * times / 2)),
                           atol=1e-12)

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (mat + mat.conj().T) / 2
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        _, values = autocorrelation(psi, h, 30.0, 501)
        assert np.max(np.abs(values)) <= 1.0 + 1e-10

    def test_requires_normalized_input(self):
        with pytest.raises(UnnormalizedInput):
            autocorrelation(np.array([1.0, 1.0]), np.eye(2), 1.0, 8)

    def test_rejects_a_nan_initial_state(self):
        with pytest.raises(UnnormalizedInput):
            autocorrelation(np.array([NAN, 0.0]), np.eye(2), 1.0, 4)

    def test_rejects_non_hermitian_hamiltonian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianHamiltonian):
            autocorrelation(np.array([1.0, 0.0]), h, 1.0, 8)

    def test_overflowing_phases_raise_once(self):
        """t E past the float range (here t > 6e307) makes the phase NaN:
        one FloatingPointError, and no RuntimeWarning on the way."""
        h = np.diag([1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match="not finite at 3 of 8 samples"):
                autocorrelation(np.array([0.6, 0.8]), h, 1e308, 8)

    def test_an_overflowing_step_phase_raises(self):
        """E dt itself past the float range leaves no node to sum: every
        sample after t = 0 is reported."""
        h = np.diag([1.0, 1e308])
        with pytest.raises(FloatingPointError,
                           match="not finite at 7 of 8 samples"):
            autocorrelation(np.array([0.6, 0.8]), h, 100.0, 8)

    def test_a_level_of_zero_weight_has_no_phase(self):
        """A level the state does not overlap adds nothing, even where
        its phase would overflow."""
        h = np.diag([1.0, 1e308])
        times, values = autocorrelation(np.array([1.0, 0.0]), h, 100.0, 8)
        assert np.max(np.abs(values - np.exp(-1j * times))) <= 1e-13

    def test_scheduled_matches_fixed_for_flat_schedule(self):
        h = np.diag([0.0, 1.0, 3.0])
        block = OperatorBlock(h, "external")
        zero = OperatorBlock(np.zeros((3, 3)), "external")
        sh = ScheduledHamiltonian(block, zero, zero, zero,
                                  Schedule(s0=0.5, s1=4.0))
        psi = np.ones(3) / np.sqrt(3)
        t1, v1 = autocorrelation(psi, sh, 4.0, 65)
        t2, v2 = autocorrelation(psi, h, 4.0, 65)
        assert np.allclose(v1, v2, atol=1e-10)

    @pytest.mark.parametrize("t_max", [-2.0, 0.0, 4.5])
    def test_scheduled_t_max_outside_the_schedule(self, t_max):
        h = OperatorBlock(np.diag([0.0, 1.0]), "external")
        zero = OperatorBlock(np.zeros((2, 2)), "external")
        sh = ScheduledHamiltonian(h, zero, zero, zero,
                                  Schedule(s0=0.5, s1=4.0))
        with pytest.raises(ScheduleOutOfRange):
            autocorrelation(np.array([1.0, 0.0]), sh, t_max, 5)

    @pytest.mark.parametrize("form", ["block", "array", "scheduled"])
    def test_fixed_s_needs_the_structured_form(self, form):
        sh = constant_hamiltonian([0.0, 1.0])
        hamiltonian = {"block": sh.h_a, "array": sh.h_a.matrix,
                       "scheduled": sh}[form]
        with pytest.raises(ValueError, match="StructuredHamiltonian"):
            autocorrelation(np.array([1.0, 0.0]), hamiltonian, 1.0, 8,
                            fixed_s=0.5)


class TestSpectrum:
    def test_pure_tone_peaks_at_omega(self):
        omega = 1.3
        t = np.linspace(0.0, 80.0, 1024)
        c = np.exp(-1j * omega * t)
        freqs, intensity = spectrum(t, c)
        peak = freqs[np.argmax(intensity)]
        bin_width = freqs[1] - freqs[0]
        assert abs(peak - omega) <= bin_width

    def test_dc_series(self):
        t = np.linspace(0.0, 10.0, 256)
        freqs, intensity = spectrum(t, np.ones_like(t, dtype=complex))
        assert abs(freqs[np.argmax(intensity)]) < 1e-12

    def test_two_tone(self):
        w1, w2 = -0.9, 2.1
        t = np.linspace(0.0, 120.0, 2048)
        c = 0.6 * np.exp(-1j * w1 * t) + 0.4 * np.exp(-1j * w2 * t)
        freqs, intensity = spectrum(t, c)
        bin_width = freqs[1] - freqs[0]
        top2 = freqs[np.argsort(intensity)[-2:]]
        assert min(abs(top2 - w1)) <= bin_width
        assert min(abs(top2 - w2)) <= bin_width

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(NonuniformGrid):
            spectrum(t, np.ones(4, dtype=complex))

    def test_peaks_align_with_eigenvalues(self):
        rng = np.random.default_rng(42)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (mat + mat.conj().T) / 2
        h /= np.max(np.abs(np.linalg.eigvalsh(h))) / 3.0
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        t = np.linspace(0.0, 409.5, 4096)
        _, values = autocorrelation(psi, h, 409.5, 4096)
        freqs, intensity = spectrum(t, values)
        bin_width = freqs[1] - freqs[0]
        evals = np.linalg.eigvalsh(h)
        peak = freqs[np.argmax(intensity)]
        assert np.min(np.abs(evals - peak)) <= bin_width

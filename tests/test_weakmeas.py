import math
import tracemalloc

import numpy as np
import pytest

import basis_oracle as oracle
from circuit_oracle import run_protocol
from mergosim.criteria import Bipartition
from mergosim.errors import (Degenerate, EmptySector, MaxItersExceeded,
                             ZeroProbabilityBranch)
from mergosim.evolution import DensityMatrix
from mergosim.grid import (SPIN_DOWN, SPIN_UP, Configuration, GridSpec,
                           ParticleSet, enumerate_basis)
from mergosim.weakmeas import (TraceLog, WeakMeasurementSpec,
                               lambda_coefficients, measurement_branches,
                               p_success_weight, ramped_delta,
                               reconstruct_rho0, repeat_until_success,
                               spin_sector_project, weak_measure)


def random_density(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_bipartition(rng, dim):
    mask = rng.random(dim) < 0.5
    if not mask.any():
        mask[0] = True
    if mask.all():
        mask[-1] = False
    return Bipartition(mask)


class TestPSuccessWeight:
    def test_fully_in_a(self):
        rho = DensityMatrix.basis_state(4, 1)
        bip = Bipartition([True, True, False, False])
        assert p_success_weight(rho, bip) == 1.0

    def test_fully_in_b(self):
        rho = DensityMatrix.basis_state(4, 3)
        bip = Bipartition([True, True, False, False])
        assert p_success_weight(rho, bip) == 0.0

    def test_matches_projector_trace(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 16)
        mask = np.zeros(16, dtype=bool)
        mask[rng.choice(16, size=7, replace=False)] = True
        bip = Bipartition(mask)
        oracle = float(np.trace(bip.projector() @ rho.matrix).real)
        assert abs(p_success_weight(rho, bip) - oracle) < 1e-14

    def test_accepts_pure_vectors(self):
        vec = np.array([0.6, 0.8, 0.0])
        bip = Bipartition([True, False, False])
        assert p_success_weight(vec, bip) == pytest.approx(0.36)


class TestClosedFormAgainstCircuit:
    def test_delta_zero_no_disturbance(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 6)
        bip = random_bipartition(rng, 6)
        branches = measurement_branches(rho, bip, 0.0)
        assert branches.p1 == 0.0
        assert np.allclose(branches.rho0.matrix, rho.matrix, atol=1e-14)

    def test_projective_case_pure_in_a(self):
        bip = Bipartition([True, True, False, False])
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
        rho = DensityMatrix.from_pure(psi)
        branches = measurement_branches(rho, bip, math.pi / 2)
        assert branches.p1 == pytest.approx(1.0)
        assert np.allclose(branches.rho1.matrix, rho.matrix, atol=1e-14)

    def test_twelve_dim_against_circuit(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 12)
        bip = random_bipartition(rng, 12)
        delta = 0.3
        branches = measurement_branches(rho, bip, delta)
        p1, rho1, p0, rho0 = run_protocol(rho.matrix, bip.mask, delta)
        assert abs(branches.p1 - p1) < 1e-12
        assert abs(branches.p0 - p0) < 1e-12
        assert np.max(np.abs(branches.rho0.matrix - rho0)) < 1e-12
        assert np.max(np.abs(branches.rho1.matrix - rho1)) < 1e-12

    def test_zero_probability_branch_raises(self):
        rho = DensityMatrix.basis_state(3, 2)
        bip = Bipartition([True, False, False])
        branches = measurement_branches(rho, bip, 0.7)
        with pytest.raises(ZeroProbabilityBranch):
            branches.rho1

    def test_flag_insensitive_to_coherence(self):
        # off-diagonal A<->B entries must not move p1
        rng = np.random.default_rng(3)
        dim = 8
        rho = random_density(rng, dim)
        bip = random_bipartition(rng, dim)
        mask = bip.mask
        p_ref = measurement_branches(rho, bip, 0.4).p1
        perturbed = rho.matrix.copy()
        scale = 0.1
        for i in range(dim):
            for j in range(dim):
                if mask[i] != mask[j]:
                    perturbed[i, j] *= (1.0 - scale)
        p_new = measurement_branches(DensityMatrix(perturbed), bip, 0.4).p1
        assert abs(p_ref - p_new) < 1e-14

    def test_probability_bookkeeping(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_density(rng, 5)
            bip = random_bipartition(rng, 5)
            delta = float(rng.uniform(0, math.pi / 2))
            branches = measurement_branches(rho, bip, delta)
            assert branches.p1 + branches.p0 == 1.0

    def test_zeno_guard_full_strength_in_b(self):
        rng = np.random.default_rng(5)
        mask = np.array([True, True, False, False, False])
        weights = np.zeros(5)
        weights[2:] = rng.random(3)
        weights /= weights.sum()
        rho = DensityMatrix(np.diag(weights.astype(complex)))
        branches = measurement_branches(rho, Bipartition(mask), math.pi / 2)
        assert branches.p1 == 0.0
        assert np.allclose(branches.rho0.matrix, rho.matrix, atol=1e-15)


class TestLambdaCoefficients:
    def test_identity_measurement(self):
        assert lambda_coefficients(0.0, 0.3) == (0.0, 0.0, 0.0)

    def test_small_delta_expansion(self):
        delta = 1e-3
        for p_suc in (0.2, 0.5, 0.9):
            lam_a, lam_b, _ = lambda_coefficients(delta, p_suc)
            leading = delta**2 * (1.0 - p_suc) * p_suc
            assert lam_a == pytest.approx(leading, rel=1e-5)
            assert lam_b == pytest.approx(leading, rel=1e-5)

    def test_degenerate_case(self):
        with pytest.raises(Degenerate):
            lambda_coefficients(math.pi / 2, 1.0)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            dim = int(rng.integers(4, 10))
            rho = random_density(rng, dim)
            bip = random_bipartition(rng, dim)
            delta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            rebuilt = reconstruct_rho0(rho, bip, delta)
            expected = measurement_branches(rho, bip, delta).rho0.matrix
            assert np.max(np.abs(rebuilt - expected)) < 1e-12


class TestSampledOutcome:
    def test_seed_reproducibility(self):
        rng_state = np.random.default_rng(7)
        rho = random_density(rng_state, 6)
        bip = random_bipartition(rng_state, 6)
        spec = WeakMeasurementSpec(bip, 0.8)
        a = weak_measure(rho, spec, np.random.default_rng(123))
        b = weak_measure(rho, spec, np.random.default_rng(123))
        assert a.flag == b.flag
        assert np.allclose(a.post_state.matrix, b.post_state.matrix)

    def test_outcome_fields(self):
        rho = DensityMatrix.basis_state(2, 0)
        bip = Bipartition([True, False])
        outcome = weak_measure(rho, WeakMeasurementSpec(bip, math.pi / 2),
                               np.random.default_rng(1))
        assert outcome.flag == 1
        assert outcome.probability == pytest.approx(1.0)
        assert outcome.branches.p_suc == pytest.approx(1.0)


class TestRepeatUntilSuccess:
    def test_immediate_success(self):
        rho = DensityMatrix.basis_state(2, 0)
        bip = Bipartition([True, False])
        spec = WeakMeasurementSpec(bip, math.pi / 2)
        post, iters = repeat_until_success(rho, spec, lambda s, k: s, 10,
                                           rng=np.random.default_rng(0))
        assert iters == 1
        assert np.allclose(post.matrix, rho.matrix)

    def test_geometric_iteration_count(self):
        # channel pumps weight p into A each round; delta = pi/2 makes
        # every measurement a Bernoulli(p) trial
        p = 0.25
        bip = Bipartition([True, False])

        def pump(state, k):
            return DensityMatrix(np.diag([p, 1.0 - p]).astype(complex))

        start = pump(None, 0)
        spec = WeakMeasurementSpec(bip, math.pi / 2)
        rng = np.random.default_rng(11)
        counts = []
        for _ in range(10_000):
            _, iters = repeat_until_success(start, spec, pump, 1000, rng=rng)
            counts.append(iters)
        assert np.mean(counts) == pytest.approx(1.0 / p, rel=0.1)

    def test_max_iters_exceeded(self):
        rho = DensityMatrix.basis_state(2, 1)
        bip = Bipartition([True, False])
        spec = WeakMeasurementSpec(bip, math.pi / 2)
        with pytest.raises(MaxItersExceeded):
            repeat_until_success(rho, spec, lambda s, k: s, 25,
                                 rng=np.random.default_rng(0))

    def test_no_channel_after_the_last_measurement(self):
        """An exhausted loop recovers after every failure but the last:
        k = 1, ..., max_iters - 1."""
        rho = DensityMatrix.basis_state(2, 1)
        spec = WeakMeasurementSpec(Bipartition([True, False]), math.pi / 2)
        calls = []

        def channel(state, k):
            calls.append(k)
            return state

        with pytest.raises(MaxItersExceeded):
            repeat_until_success(rho, spec, channel, 4,
                                 rng=np.random.default_rng(0))
        assert calls == [1, 2, 3]

    def test_trace_log_records(self):
        def pump(state, k):
            return DensityMatrix(np.diag([0.5, 0.5]).astype(complex))

        rho = pump(None, 0)
        bip = Bipartition([True, False])
        spec = WeakMeasurementSpec(bip, math.pi / 2)
        trace = TraceLog()
        _, iters = repeat_until_success(rho, spec, pump, 100,
                                        rng=np.random.default_rng(5),
                                        trace=trace, node_id="n0")
        assert len(trace) == iters
        assert trace[-1]["flag"] == 1
        assert all(rec["flag"] == 0 for rec in trace[:-1])
        assert all(rec["node_id"] == "n0" for rec in trace)

    def test_delta_ramp_caps_at_projective(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        bip = Bipartition([True, False])
        spec = WeakMeasurementSpec(bip, 0.2)
        trace = TraceLog()
        try:
            repeat_until_success(rho, spec, lambda s, k: s, 50,
                                 rng=np.random.default_rng(9),
                                 delta_ramp=2.0, trace=trace, node_id="x")
        except MaxItersExceeded:
            pass
        deltas = [rec["delta"] for rec in trace]
        assert all(d <= math.pi / 2 + 1e-12 for d in deltas)
        assert deltas[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("ramp", [-1.0, 0.0])
    def test_nonpositive_delta_ramp_rejected(self, ramp):
        # delta * ramp^(k-1) would leave [0, pi/2] or stall at 0
        rho = DensityMatrix.basis_state(2, 1)
        spec = WeakMeasurementSpec(Bipartition([True, False]), 0.5)
        with pytest.raises(ValueError, match="delta_ramp"):
            repeat_until_success(rho, spec, lambda s, k: s, 5,
                                 delta_ramp=ramp)

    @pytest.mark.parametrize("delta, capped", [(0.3, math.pi / 2),
                                               (0.0, 0.0)])
    def test_ramp_past_the_float_range(self, delta, capped):
        # 1e300^(k-1) overflows a float from k = 3 on; the angle caps at
        # pi/2, and an angle of 0 stays 0
        rho = DensityMatrix.basis_state(2, 1)
        spec = WeakMeasurementSpec(Bipartition([True, False]), delta)
        trace = TraceLog()
        with pytest.raises(MaxItersExceeded):
            repeat_until_success(rho, spec, lambda s, k: s, 6,
                                 rng=np.random.default_rng(0),
                                 delta_ramp=1e300, trace=trace)
        deltas = [rec["delta"] for rec in trace]
        assert len(deltas) == 6 and deltas[0] == delta
        assert all(d <= math.pi / 2 for d in deltas)
        assert deltas[1:] == [capped] * 5

    def test_ramp_below_the_cap_is_the_plain_power(self):
        for ramp in (0.5, 1.0, 1.3, 2.0):
            for k in range(1, 8):
                expected = min(math.pi / 2, 0.1 * ramp ** (k - 1))
                assert ramped_delta(0.1, ramp, k) == expected

    def test_non_trace_preserving_channel_rejected(self):
        rho = DensityMatrix.basis_state(2, 1)
        bip = Bipartition([True, False])
        spec = WeakMeasurementSpec(bip, 0.5)

        def leaky(state, k):
            # bypasses construction checks to emulate a broken channel
            obj = object.__new__(DensityMatrix)
            object.__setattr__(obj, "matrix", state.matrix * 0.5)
            return obj

        with pytest.raises(ValueError):
            repeat_until_success(rho, spec, leaky, 5,
                                 rng=np.random.default_rng(1))

    def test_nan_trace_channel_rejected(self):
        """A channel output whose trace is NaN fails the trace check, not
        a later measurement; the first measurement always fails, since
        the state lies wholly outside the accepted block."""
        rho = DensityMatrix.basis_state(2, 1)
        spec = WeakMeasurementSpec(Bipartition([True, False]), 0.5)

        def poisoned(state, k):
            obj = object.__new__(DensityMatrix)
            object.__setattr__(obj, "matrix", np.full((2, 2), np.nan + 0j))
            return obj

        with pytest.raises(ValueError, match="failed to preserve trace"):
            repeat_until_success(rho, spec, poisoned, 5,
                                 rng=np.random.default_rng(1))

    def test_failure_branch_normalized_by_its_own_weight(self):
        # a channel within the documented 1e-9 trace tolerance must not
        # push the failure post state past the 1e-10 state trace guard
        rho = DensityMatrix(np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
        bip = Bipartition([True, True, True, False])

        def drifting(state, k):
            obj = object.__new__(DensityMatrix)
            object.__setattr__(obj, "matrix", state.matrix * (1.0 + 5e-11))
            return obj

        raised = 0
        for seed in range(200):
            spec = WeakMeasurementSpec(bip, math.pi / 2 - 1e-3)
            try:
                repeat_until_success(rho, spec, drifting, 3,
                                     rng=np.random.default_rng(seed))
            except MaxItersExceeded:
                pass  # the damped accepted block rarely heralds again
            except ValueError:
                raised += 1
        assert raised == 0


def spin_basis(n_spins):
    """Pure spin registers: nuclei pinned on a single-point grid."""
    grid = GridSpec(1, 1, 1.0)
    particles = ParticleSet(n_el=0, nuclear_masses=(1.0,) * n_spins,
                            nuclear_charges=(1.0,) * n_spins,
                            nuclear_spin=True)
    return enumerate_basis(grid, particles, cap=64)


def spin_vector(basis, amplitudes):
    """amplitudes keyed by spin tuple, e.g. {(0, 1): 1/sqrt(2), ...}"""
    vec = np.zeros(basis.size, dtype=complex)
    for spins, amp in amplitudes.items():
        cfg = Configuration(((0,),) * len(spins), tuple(spins))
        vec[basis.index_of(cfg)] = amp
    return vec


class TestSpinSector:
    def test_singlet_projection(self):
        basis = spin_basis(2)
        vec = spin_vector(basis, {(SPIN_UP, SPIN_DOWN): 1 / math.sqrt(2),
                                  (SPIN_DOWN, SPIN_UP): -1 / math.sqrt(2)})
        prob, post = spin_sector_project(DensityMatrix.from_pure(vec),
                                         basis, (0, 1), "singlet")
        assert prob == pytest.approx(1.0)
        assert np.allclose(post.matrix, np.outer(vec, vec.conj()))

    def test_up_up_is_triplet(self):
        basis = spin_basis(2)
        vec = spin_vector(basis, {(SPIN_UP, SPIN_UP): 1.0})
        prob, _ = spin_sector_project(DensityMatrix.from_pure(vec),
                                      basis, (0, 1), "triplet")
        assert prob == pytest.approx(1.0)
        with pytest.raises(EmptySector):
            spin_sector_project(DensityMatrix.from_pure(vec), basis,
                                (0, 1), "singlet")

    def test_three_spin_sectors_sum_to_one(self):
        basis = spin_basis(3)
        rng = np.random.default_rng(8)
        vec = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        vec /= np.linalg.norm(vec)
        rho = DensityMatrix.from_pure(vec)
        total = 0.0
        for s in (0.5, 1.5):
            prob, _ = spin_sector_project(rho, basis, (0, 1, 2), s)
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)
        # oracle: sector weights from the eigendecomposition of the
        # per-configuration S^2
        configs = oracle.enumerate_configurations(basis.grid, basis.particles)
        rows, cols, values = oracle.spin_squared(
            configs, oracle.index_table(configs), (0, 1, 2))
        s2 = np.zeros((basis.size, basis.size))
        s2[rows, cols] = values
        w, v = np.linalg.eigh(s2)
        for s in (0.5, 1.5):
            target = s * (s + 1.0)
            sel = v[:, np.abs(w - target) < 1e-8]
            projected = sel @ (sel.conj().T @ vec)
            weight = float(np.vdot(projected, projected).real)
            prob, post = spin_sector_project(rho, basis, (0, 1, 2), s)
            assert prob == pytest.approx(weight, abs=1e-12)
            assert np.max(np.abs(post.matrix - np.outer(
                projected, projected.conj()) / weight)) <= 1e-12

    def test_projection_builds_no_square_array(self):
        """Three spinful electrons on seven points: n = 2744, where one
        n x n complex array is 120 MB."""
        basis = enumerate_basis(GridSpec(7, 1, 7.0),
                                ParticleSet(n_el=3, electron_spin=True))
        rng = np.random.default_rng(5)
        vec = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        state = DensityMatrix.from_pure(vec / np.linalg.norm(vec))
        tracemalloc.start()
        try:
            spin_sector_project(state, basis, (0, 1, 2), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.size == 2744
        assert peak < basis.size ** 2 * 16 / 100

    def test_requires_spin_labels(self):
        basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=2))
        rho = DensityMatrix.maximally_mixed(basis.size)
        with pytest.raises(ValueError):
            spin_sector_project(rho, basis, (0, 1), "singlet")

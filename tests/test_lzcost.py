import math

import numpy as np
import pytest

from mergosim.errors import UnsupportedUnit
from mergosim.lzcost import (HBAR, CostParams, LZParams, alpha_factors,
                             d_e_mol, lcu_query_model, omega_eff_sq,
                             p_landau_zener, reduced_mass,
                             relative_binding_energy, sweep_velocity)
from mergosim.units import AMU_IN_ELECTRON_MASSES, unit_convert


# Closed forms the cross-checks below compare the shipped chain against.

def alpha_trap_mass_bound(params: CostParams) -> float:
    """Explicit norm bound N_nuc * m_max * omega_max^2 * Omega_trap^(2/3)."""
    return (params.n_nuc * params.m_max * params.omega_max ** 2
            * params.trap_volume ** (2.0 / 3.0))


def harmonic_length(params: LZParams) -> float:
    """beta = sqrt(hbar / (mu * omega))."""
    return math.sqrt(HBAR / (params.mu * params.omega))


def omega_eff_sq_proportional(params: LZParams) -> float:
    """Proportional form omega^2 * E~^(1/2) * exp(-E~), constant absorbed."""
    e_rel = relative_binding_energy(params)
    return params.omega ** 2 * math.sqrt(e_rel) * math.exp(-e_rel)


def contact_point(params: LZParams) -> float:
    """z* = sqrt(hbar/(mu*omega)) * sqrt(3 + omega_a/omega)."""
    return harmonic_length(params) * math.sqrt(
        3.0 + params.omega_a / params.omega)


def rbcs_params(v=1e-9):
    mu = reduced_mass(87.0, 133.0)  # in u
    return LZParams.from_lab(mu_u=mu, omega_khz=150.0, omega_a_khz=110.0, v=v)


class TestOmegaEff:
    def test_equal_frequencies_closed_value(self):
        params = LZParams(mu=100.0, omega=0.25, omega_a=0.25, v=1.0)
        expected = 2.0 / math.sqrt(math.pi) * 0.25**2 * math.exp(-2.0)
        assert omega_eff_sq(params) == pytest.approx(expected, rel=1e-14)

    def test_joint_scaling_is_quadratic(self):
        base = LZParams(mu=10.0, omega=0.1, omega_a=0.05, v=1.0)
        scaled = LZParams(mu=10.0, omega=0.3, omega_a=0.15, v=1.0)
        assert omega_eff_sq(scaled) / omega_eff_sq(base) == \
            pytest.approx(9.0, rel=1e-12)

    def test_proportional_form_constant_at_fixed_ratio(self):
        # at fixed relative binding energy the exact form tracks
        # omega^2 E~^(1/2) exp(-E~) with an omega-independent constant
        ratio = 0.6
        constants = []
        for omega in (0.01, 0.1, 1.0, 10.0):
            params = LZParams(mu=5.0, omega=omega, omega_a=ratio * omega,
                              v=1.0)
            constants.append(omega_eff_sq(params)
                             / omega_eff_sq_proportional(params))
        assert np.allclose(constants, constants[0], rtol=1e-12)


class TestEnergyGradient:
    def test_small_binding_limit(self):
        params = LZParams(mu=7.0, omega=0.2, omega_a=1e-15, v=1.0)
        expected = math.sqrt(3.0 * 7.0) * 0.2**1.5
        assert d_e_mol(params) == pytest.approx(expected, rel=1e-6)

    def test_mass_scaling(self):
        a = LZParams(mu=10.0, omega=0.1, omega_a=0.05, v=1.0)
        b = LZParams(mu=20.0, omega=0.1, omega_a=0.05, v=1.0)
        assert d_e_mol(b) / d_e_mol(a) == pytest.approx(math.sqrt(2.0),
                                                        rel=1e-14)

    def test_contact_point_cross_check(self):
        # mu * omega^2 * z* must reproduce the closed form
        params = LZParams(mu=42.0, omega=0.31, omega_a=0.11, v=1.0)
        via_contact = params.mu * params.omega**2 * contact_point(params)
        assert abs(via_contact - d_e_mol(params)) < 1e-12 * d_e_mol(params)

    def test_atom_surface_flat(self):
        # the separated atoms' surface is flat, so the chain's gradient
        # is the molecular one alone
        params = rbcs_params()
        assert p_landau_zener(params).gamma == omega_eff_sq(params) / (
            HBAR * d_e_mol(params) * params.v)

    def test_harmonic_length(self):
        params = LZParams(mu=4.0, omega=0.25, omega_a=0.1, v=1.0)
        assert harmonic_length(params) == pytest.approx(1.0)


class TestLandauZener:
    def test_fast_limit_diabatic(self):
        result = p_landau_zener(rbcs_params(v=1e3))
        assert result.p_lz > 0.999

    def test_slow_limit_adiabatic(self):
        result = p_landau_zener(rbcs_params(v=1e-12))
        assert result.p_lz < 1e-6

    def test_monotone_in_v(self):
        values = [p_landau_zener(rbcs_params(v=v)).p_lz
                  for v in np.geomspace(1e-11, 1e-5, 25)]
        assert all(a < b for a, b in zip(values, values[1:]))
        for v, result in sweep_velocity(rbcs_params(), [1e-10, 1e-8]):
            assert result.p_suc == pytest.approx(1.0 - result.p_lz)

    def test_sweep_gives_the_bits_of_the_full_chain(self):
        """The sweep computes the v-independent factors once; every
        point still equals ``p_landau_zener`` at that v, field for field."""
        rng = np.random.default_rng(3)
        for _ in range(40):
            params = LZParams(mu=float(rng.uniform(1, 1e5)),
                              omega=float(10 ** rng.uniform(-12, 0)),
                              omega_a=float(10 ** rng.uniform(-12, 0)),
                              v=1.0)
            v_values = 10 ** rng.uniform(-14, 3, 7)
            for v, result in sweep_velocity(params, v_values):
                assert result == p_landau_zener(LZParams(
                    params.mu, params.omega, params.omega_a, v))

    def test_sweep_rejects_a_nonpositive_velocity(self):
        with pytest.raises(ValueError, match="v must be strictly positive"):
            sweep_velocity(rbcs_params(), [1e-9, 0.0])

    def test_rbcs_regime_contains_eighty_percent(self):
        sweep = sweep_velocity(rbcs_params(),
                               np.geomspace(1e-11, 1e-6, 200))
        p_suc = np.array([r.p_suc for _, r in sweep])
        assert p_suc[0] > 0.99 and p_suc[-1] < 0.01
        assert np.any((p_suc >= 0.75) & (p_suc <= 0.85))

    def test_bound_equals_full_chain(self):
        # the main-text simplification reproduces the substituted chain
        rng = np.random.default_rng(1)
        for _ in range(50):
            params = LZParams(mu=float(rng.uniform(1, 1e5)),
                              omega=float(10 ** rng.uniform(-12, 0)),
                              omega_a=float(10 ** rng.uniform(-12, 0)),
                              v=float(10 ** rng.uniform(-12, 2)))
            full = p_landau_zener(params)
            assert full.p_lz_bound == pytest.approx(full.p_lz, rel=1e-9) or \
                abs(full.p_lz_bound - full.p_lz) < 1e-12

    def test_bound_ordering_in_regime(self):
        rng = np.random.default_rng(7)
        flagged = 0
        checked = 0
        for _ in range(1000):
            params = LZParams(mu=float(rng.uniform(10, 1e5)),
                              omega=float(10 ** rng.uniform(-11, -8)),
                              omega_a=float(10 ** rng.uniform(-11, -7)),
                              v=float(10 ** rng.uniform(-10, -6)))
            # the simplification is claimed in the regime E~ >= 1
            if relative_binding_energy(params) < 1.0:
                flagged += 1
                continue
            checked += 1
            result = p_landau_zener(params)
            assert result.p_lz_bound >= result.p_lz - 1e-12
        assert checked > 0 and flagged > 0

    def test_dimensional_consistency(self):
        lab = rbcs_params(v=3e-9)
        direct = LZParams(mu=reduced_mass(87.0, 133.0) * AMU_IN_ELECTRON_MASSES,
                          omega=unit_convert(150.0, "kHz", "au"),
                          omega_a=unit_convert(110.0, "kHz", "au"),
                          v=3e-9)
        a = p_landau_zener(lab).p_lz
        b = p_landau_zener(direct).p_lz
        assert a == pytest.approx(b, rel=1e-9)


class TestAlphaFactors:
    BASE = CostParams(n_el=4, n_nuc=3, grid_points=10_000, box_volume=1000.0,
                      trap_volume=200.0, omega_max=2.0e-3, m_max=1836.0)

    def replace(self, **kw):
        fields = {k: getattr(self.BASE, k) for k in
                  ("n_el", "n_nuc", "grid_points", "box_volume",
                   "trap_volume", "omega_max", "m_max")}
        fields.update(kw)
        return CostParams(**fields)

    def test_doubling_grid_points(self):
        a = alpha_factors(self.BASE)
        b = alpha_factors(self.replace(grid_points=2 * self.BASE.grid_points))
        assert b.alpha_t / a.alpha_t == pytest.approx(2 ** (2 / 3), rel=1e-12)
        assert b.alpha_v / a.alpha_v == pytest.approx(2 ** (1 / 3), rel=1e-12)
        assert b.alpha_u / a.alpha_u == pytest.approx(2 ** (1 / 3), rel=1e-12)
        assert b.alpha_trap == a.alpha_trap

    def test_doubling_omega_max(self):
        a = alpha_factors(self.BASE)
        b = alpha_factors(self.replace(omega_max=2 * self.BASE.omega_max))
        assert b.alpha_trap / a.alpha_trap == pytest.approx(4.0, rel=1e-12)

    def test_doubling_volumes(self):
        a = alpha_factors(self.BASE)
        b = alpha_factors(self.replace(box_volume=2 * self.BASE.box_volume))
        assert b.alpha_t / a.alpha_t == pytest.approx(2 ** (-2 / 3), rel=1e-12)
        c = alpha_factors(self.replace(trap_volume=2 * self.BASE.trap_volume))
        assert c.alpha_trap / a.alpha_trap == pytest.approx(2 ** (2 / 3),
                                                            rel=1e-12)

    def test_bulk_scaling_with_coupled_frequency(self):
        # omega_max proportional to N_nuc turns the trap factor cubic
        def coupled(n_nuc):
            return alpha_factors(self.replace(
                n_nuc=n_nuc, omega_max=1e-4 * n_nuc)).alpha_trap

        assert coupled(6) / coupled(3) == pytest.approx(8.0, rel=1e-12)

    def test_mass_bound(self):
        bound = alpha_trap_mass_bound(self.BASE)
        plain = alpha_factors(self.BASE).alpha_trap
        assert bound == pytest.approx(plain * self.BASE.m_max, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams(n_el=1, n_nuc=1, grid_points=10, box_volume=1.0,
                       trap_volume=2.0, omega_max=1.0)


class TestLCUQueries:
    def test_prep_branch_count(self):
        params = CostParams(n_el=2, n_nuc=2, grid_points=100, box_volume=10.0,
                            trap_volume=5.0, omega_max=1.0)
        assert lcu_query_model(params, bits=8).prep_branches == 6

    def test_bits_double_ancillas(self):
        params = CostParams(n_el=2, n_nuc=2, grid_points=100, box_volume=10.0,
                            trap_volume=5.0, omega_max=1.0)
        assert lcu_query_model(params, 16).sel_ancillas == \
            2 * lcu_query_model(params, 8).sel_ancillas

    def test_repetitions_track_alpha_trap(self):
        a = CostParams(n_el=2, n_nuc=2, grid_points=100, box_volume=10.0,
                       trap_volume=5.0, omega_max=1.0)
        b = CostParams(n_el=2, n_nuc=4, grid_points=100, box_volume=10.0,
                       trap_volume=5.0, omega_max=1.0)
        ratio = (lcu_query_model(b, 8).block_encoding_repetitions
                 / lcu_query_model(a, 8).block_encoding_repetitions)
        assert ratio == pytest.approx(
            alpha_factors(b).alpha_trap / alpha_factors(a).alpha_trap,
            rel=1e-12)


class TestUnitConvert:
    def test_bohr_to_pm(self):
        assert unit_convert(1.0, "bohr", "pm") == pytest.approx(52.918,
                                                                abs=1e-3)

    def test_kcal_per_mol_to_inverse_cm(self):
        # 100 kcal/mol is the typical covalent bond scale, about
        # 35,000 1/cm
        value = unit_convert(100.0, "kcal/mol", "cm-1")
        assert value == pytest.approx(34975.6, rel=1e-4)
        assert value == pytest.approx(35000.0, rel=0.01)

    def test_inverse_cm_to_khz(self):
        value = unit_convert(35000.0, "cm-1", "kHz")
        assert value == pytest.approx(1.049e12, rel=1e-3)

    def test_round_trip(self):
        for unit in ("kHz", "cm-1", "kcal/mol"):
            there = unit_convert(3.7, "au", unit)
            assert unit_convert(there, unit, "au") == pytest.approx(3.7,
                                                                    rel=1e-12)

    def test_mass_units(self):
        assert unit_convert(1.0, "u", "me") == pytest.approx(1822.888,
                                                             abs=1e-3)

    def test_unsupported(self):
        with pytest.raises(UnsupportedUnit):
            unit_convert(1.0, "pm", "kHz")
        with pytest.raises(UnsupportedUnit):
            unit_convert(1.0, "parsec", "pm")

"""Landau-Zener success chain and block-encoding cost model.

Everything here is a closed-form calculator in atomic units (hbar = 1):

    omega_eff^2 = (2/sqrt(pi)) * omega_a^(1/2) * omega^(3/2)
                  * exp(-(3 + omega_a/omega)/2)
    dE_mol      = sqrt(mu) * omega * sqrt(3*omega + omega_a),  dE_atom = 0
    p_LZ        = exp(-2*pi * omega_eff^2 / (|dE_mol - dE_atom| * v))

plus the simplified bound written in terms of the relative binding
energy E~ = omega_a/omega. ``sweep_velocity`` evaluates the chain;
``p_landau_zener`` is its one-point case. The sub-normalization factors
alpha_T, alpha_V, alpha_U, alpha_trap are order-of-magnitude scalings
with every prefactor fixed to one ("scaling units"); only their
exponents carry meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .units import AMU_IN_ELECTRON_MASSES, KHZ_TO_HARTREE

HBAR = 1.0


@dataclass(frozen=True)
class LZParams:
    """Reduced mass, trap frequency, bound-state threshold frequency and
    evolution speed, all in atomic units (``from_lab`` converts)."""

    mu: float
    omega: float
    omega_a: float
    v: float

    def __post_init__(self):
        for name in ("mu", "omega", "omega_a", "v"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def from_lab(cls, mu_u: float, omega_khz: float, omega_a_khz: float,
                 v: float) -> "LZParams":
        """Masses in u, ordinary frequencies in kHz, v already in a.u."""
        return cls(mu=mu_u * AMU_IN_ELECTRON_MASSES,
                   omega=omega_khz * KHZ_TO_HARTREE,
                   omega_a=omega_a_khz * KHZ_TO_HARTREE,
                   v=v)


def reduced_mass(m1: float, m2: float) -> float:
    return m1 * m2 / (m1 + m2)


def relative_binding_energy(params: LZParams) -> float:
    """E~ = hbar*omega_a / (hbar*omega)."""
    return params.omega_a / params.omega


def omega_eff_sq(params: LZParams) -> float:
    """Squared trap matrix element <a|V_int|000>^2 in closed form."""
    return (2.0 * HBAR ** 2 / math.sqrt(math.pi)
            * math.sqrt(params.omega_a) * params.omega ** 1.5
            * math.exp(-0.5 * (3.0 + params.omega_a / params.omega)))


def d_e_mol(params: LZParams) -> float:
    """Molecular-branch energy gradient at the contact point,
    sqrt(hbar*mu) * omega * sqrt(3*omega + omega_a)."""
    return (math.sqrt(HBAR * params.mu) * params.omega
            * math.sqrt(3.0 * params.omega + params.omega_a))


def _bound_numerator(params: LZParams) -> float:
    """v times the exponent of the simplified bound on p_LZ."""
    e_rel = relative_binding_energy(params)
    return (4.0 * math.sqrt(math.pi / params.mu)
            * math.sqrt(HBAR * params.omega * e_rel / (3.0 + e_rel))
            * math.exp(-0.5 * e_rel - 1.5))


@dataclass(frozen=True)
class LZResult:
    gamma: float
    p_lz: float
    p_lz_bound: float
    p_suc: float


def p_landau_zener(params: LZParams) -> LZResult:
    """The chain at ``params.v``: the one-point ``sweep_velocity``."""
    return sweep_velocity(params, [params.v])[0][1]


def sweep_velocity(params: LZParams,
                   v_values: Sequence[float]) -> list[tuple[float, LZResult]]:
    """Evaluate the chain across evolution speeds (p_LZ -> 1 as v -> inf,
    -> 0 as v -> 0), its v-independent factors computed once. The
    separated atoms sit on a flat surface, dE_atom = 0, so the gradient
    is the molecular one alone."""
    w_eff2, hbar_grad = omega_eff_sq(params), HBAR * d_e_mol(params)
    numerator = _bound_numerator(params)
    sweep = []
    for v in map(float, v_values):
        if v <= 0:
            raise ValueError("v must be strictly positive")
        gamma = w_eff2 / (hbar_grad * v)
        p_lz = math.exp(-2.0 * math.pi * gamma)
        sweep.append((v, LZResult(gamma, p_lz, math.exp(-(numerator / v)),
                                  1.0 - p_lz)))
    return sweep


@dataclass(frozen=True)
class CostParams:
    """Inputs of the sub-normalization scalings. Volumes in Bohr^3,
    omega_max in a.u.; alpha_trap takes unit masses, so m_max (the
    heaviest nuclear mass) enters no factor."""

    n_el: int
    n_nuc: int
    grid_points: int
    box_volume: float
    trap_volume: float
    omega_max: float
    m_max: float = 1.0

    def __post_init__(self):
        for name in ("n_el", "n_nuc", "grid_points", "box_volume",
                     "trap_volume", "omega_max", "m_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.trap_volume > self.box_volume:
            raise ValueError("trap volume cannot exceed the box volume")


@dataclass(frozen=True)
class AlphaFactors:
    alpha_t: float
    alpha_v: float
    alpha_u: float
    alpha_trap: float


def alpha_factors(params: CostParams) -> AlphaFactors:
    """Sub-normalization scalings with unit prefactors.

    alpha_T ~ N_el N^(2/3) / Omega^(2/3); alpha_V and alpha_U
    ~ N_el^2 N^(1/3) / Omega^(1/3); alpha_trap ~ omega_max^2 N_nuc
    Omega_trap^(2/3). Substituting omega_max proportional to N_nuc turns
    the trap factor into the N_nuc^3 Omega_trap^(2/3) bulk scaling.
    """
    n = float(params.grid_points)
    vol = params.box_volume
    coulomb = params.n_el ** 2 * n ** (1.0 / 3.0) / vol ** (1.0 / 3.0)
    return AlphaFactors(
        alpha_t=params.n_el * n ** (2.0 / 3.0) / vol ** (2.0 / 3.0),
        alpha_v=coulomb,
        alpha_u=coulomb,
        alpha_trap=(params.omega_max ** 2 * params.n_nuc
                    * params.trap_volume ** (2.0 / 3.0)))


@dataclass(frozen=True)
class LCUQueryEstimate:
    """Structured query/ancilla accounting for the trap block encoding.

    prep_branches counts the nucleus-times-axis superposition arms of
    the PREP step; sel_ancillas scales linearly in the bits of precision
    the SEL arithmetic carries; block-encoding repetitions are
    proportional to alpha_trap. All constants are one.
    """

    prep_branches: int
    sel_ancillas: int
    block_encoding_repetitions: float


def lcu_query_model(params: CostParams, bits: int) -> LCUQueryEstimate:
    if bits < 1:
        raise ValueError("bits must be at least 1")
    return LCUQueryEstimate(
        prep_branches=3 * params.n_nuc,
        sel_ancillas=bits,
        block_encoding_repetitions=alpha_factors(params).alpha_trap)

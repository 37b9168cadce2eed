"""Weak-measurement success heralding and its exact post-state algebra.

The four-step protocol (criterion oracle into an ancilla, controlled
rotation by delta onto a second ancilla, oracle again to reset, measure
the second ancilla) reduces, on the system register, to closed forms
over the A/B bipartition:

    p_1   = sin(delta)^2 * p_suc,      p_suc = sum_{j in A} rho_jj
    rho_1 = Pi_A rho Pi_A / p_suc
    rho_0 = [cos(delta)^2 * (A block) + (B block)
             + cos(delta) * (cross blocks)] / p_0,   p_0 = 1 - p_1

where each post state is divided by its own trace, which is p_suc or
p_0 for a unit-trace input (dividing by p_0 itself would magnify any
trace drift when p_0 is small). A pure state stays a vector: success
maps psi -> Pi_A psi / sqrt(p_suc) and failure psi -> D psi / ||D psi||,
with D = cos(delta) on A and 1 on B. Both are row scalings that
``DensityMatrix.scaled`` applies to the state's own form, so a state
with no coherence stays its diagonal: the branches of diag(d) are the
diagonals Pi_A d and D^2 d, each divided by its sum, in O(n).

``block_split`` is the one block split (``reconstruct_rho0`` and
``tree.channel_decompose`` read it) and ``ramped_delta`` the one retry
ramp, delta_k = min(pi/2, delta * ramp^(k-1)).

The failure-branch disturbance decomposes through the coefficients
Lambda_A, Lambda_B, Lambda_C, all of order delta^2 for weak rotations;
that trade-off (detection probability versus state damage) is what the
angle delta tunes.

A spin sector is projected out in closed form too. Over k spin-1/2
registers the total spin takes S' = k/2, k/2 - 1, ..., and Löwdin's
projector (Rev. Mod. Phys. 36, 966 (1964))

    P_S = prod_{S' != S} (S^2 - S'(S'+1)) / (S(S+1) - S'(S'+1))

is a polynomial in S^2. By Dirac's identity S_i . S_j = (P_ij - 1/2)/2,
with P_ij the exchange of spins i and j,

    S^2 = k(4 - k)/4 + sum_{i<j} P_ij,

and P_ij on a state is a gather: row c reads the configuration with the
spins of registers i and j swapped. S^2 is therefore applied as a row
map in O(k^2 n) per vector, with no n x n matrix and no eigensolver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .criteria import Bipartition
from .errors import (Degenerate, EmptySector, MaxItersExceeded,
                     ZeroProbabilityBranch)
from .evolution import DensityMatrix
from .grid import Basis

DEGENERATE_TOL = 1e-15


def checked_angle(delta: float, name: str = "delta") -> None:
    """A ValueError naming ``delta`` unless it lies in [0, pi/2]."""
    if not 0.0 <= delta <= math.pi / 2.0 + 1e-12:
        raise ValueError(f"{name} {delta} outside [0, pi/2]")


def ramped_delta(delta: float, delta_ramp: float, k: int = 1) -> float:
    """delta_k = min(pi/2, delta * delta_ramp^(k-1)), the k-th angle of a
    heralded retry; delta_ramp > 0 keeps it in [0, pi/2]. A power past
    the float range gives pi/2 (0 * inf being nan, delta = 0 stays)."""
    if not delta_ramp > 0.0:
        raise ValueError(f"delta_ramp must be positive, got {delta_ramp}")
    try:
        power = delta_ramp ** (k - 1)
    except OverflowError:
        power = math.inf
    return min(math.pi / 2.0, delta * power) if delta else delta


@dataclass(frozen=True, eq=False)
class WeakMeasurementSpec:
    """Bipartition and rotation angle delta in [0, pi/2]."""

    bipartition: Bipartition
    delta: float

    def __post_init__(self):
        checked_angle(self.delta)


def p_success_weight(state: Union[DensityMatrix, np.ndarray],
                     bipartition: Bipartition) -> float:
    """p_suc = sum_{j in A} rho_jj, of a state or of a unit vector."""
    if not isinstance(state, DensityMatrix):
        state = DensityMatrix.from_pure(state)
    if bipartition.dim != state.dim:
        raise ValueError("bipartition and state dimensions disagree")
    return float(np.sum(state.populations[bipartition.mask]))


def block_split(state: DensityMatrix, bipartition: Bipartition
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A block, B block, cross blocks) of rho, each embedded n x n."""
    mat = state.matrix
    block_a, block_b = (np.where(np.outer(m, m), mat, 0.0)
                        for m in (bipartition.mask, ~bipartition.mask))
    return block_a, block_b, mat - block_a - block_b


@dataclass(frozen=True, eq=False)
class MeasurementBranches:
    """Both outcomes of one weak measurement at angle ``delta``: closed-form
    Born probabilities, and each post state built on first access, so
    only a branch that is used costs anything."""

    state: DensityMatrix
    bipartition: Bipartition
    delta: float

    @cached_property
    def p_suc(self) -> float:
        return p_success_weight(self.state, self.bipartition)

    @cached_property
    def p1(self) -> float:
        return math.sin(self.delta) ** 2 * self.p_suc

    @property
    def p0(self) -> float:
        return 1.0 - self.p1

    @cached_property
    def rho1(self) -> DensityMatrix:
        if not self.p1 > 0.0:
            raise ZeroProbabilityBranch("success branch has probability zero")
        return self.state.scaled(self.bipartition.mask)[1]

    @cached_property
    def rho0(self) -> DensityMatrix:
        if not self.p0 > DEGENERATE_TOL:
            raise ZeroProbabilityBranch("failure branch has probability zero")
        damp = np.where(self.bipartition.mask, math.cos(self.delta), 1.0)
        return self.state.scaled(damp)[1]


def measurement_branches(state: DensityMatrix, bipartition: Bipartition,
                         delta: float) -> MeasurementBranches:
    """Closed-form (p_1, rho_1) and (p_0, rho_0) for one weak measurement."""
    return MeasurementBranches(state, bipartition, delta)


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One sampled heralding flag with its post state and both branches."""

    flag: int
    post_state: DensityMatrix
    branches: MeasurementBranches

    @property
    def probability(self) -> float:
        return self.branches.p1 if self.flag else self.branches.p0


def weak_measure(state: DensityMatrix, spec: WeakMeasurementSpec,
                 rng: Optional[np.random.Generator] = None
                 ) -> MeasurementOutcome:
    """Sample the heralding flag; the outcome carries the matching post
    state and both branches. Randomness comes from ``rng``, else from a
    generator seeded with 0; no global state is touched."""
    rng = rng or np.random.default_rng(0)
    branches = measurement_branches(state, spec.bipartition, spec.delta)
    flag = int(rng.random() < branches.p1)
    return MeasurementOutcome(flag, branches.rho1 if flag else branches.rho0,
                              branches)


def lambda_coefficients(delta: float, p_suc: float
                        ) -> tuple[float, float, float]:
    """(Lambda_A, Lambda_B, Lambda_C) of the failure-branch decomposition.

    All three vanish at delta = 0 and grow as delta^2 for small delta;
    the shared denominator is p_0, which vanishes only in the degenerate
    fully-projective case delta = pi/2 with p_suc = 1.
    """
    if not 0.0 <= p_suc <= 1.0 + 1e-12:
        raise ValueError("p_suc must lie in [0, 1]")
    sin2 = math.sin(delta) ** 2
    cos2 = math.cos(delta) ** 2
    denom_a = (1.0 - p_suc) + cos2 * p_suc
    denom_bc = 1.0 - sin2 * p_suc
    if denom_a < DEGENERATE_TOL or denom_bc < DEGENERATE_TOL:
        raise Degenerate("delta = pi/2 with p_suc = 1 has no failure branch")
    lam_a = sin2 * (1.0 - p_suc) * p_suc / denom_a
    lam_b = sin2 * (1.0 - p_suc) * p_suc / denom_bc
    lam_c = (1.0 - math.cos(delta) - sin2 * p_suc) / denom_bc
    return lam_a, lam_b, lam_c


def reconstruct_rho0(state: DensityMatrix, bipartition: Bipartition,
                     delta: float) -> np.ndarray:
    """rho - Lambda_A rho_A + Lambda_B rho_B - Lambda_C (cross blocks).

    Algebraically identical to the closed-form rho_0; exposed so the
    identity can be checked term by term.
    """
    p_suc = p_success_weight(state, bipartition)
    block_a, block_b, cross = block_split(state, bipartition)
    lam_a, lam_b, lam_c = lambda_coefficients(delta, p_suc)
    out = state.matrix.copy()
    if p_suc > 0.0:
        out -= lam_a * block_a / p_suc
    if p_suc < 1.0:
        out += lam_b * block_b / (1.0 - p_suc)
    out -= lam_c * cross
    return out


class TraceLog(list):
    """Append-only measurement trace; one dict per weak measurement."""

    def record(self, node_id: str, iteration: int,
               branches: MeasurementBranches, flag: int) -> None:
        self.append({"node_id": node_id, "iteration": iteration,
                     "delta": branches.delta, "flag": flag,
                     "p1": branches.p1, "p_suc_before": branches.p_suc})


def repeat_until_success(state: DensityMatrix, spec: WeakMeasurementSpec,
                         channel: Callable[[DensityMatrix, int], DensityMatrix],
                         max_iters: int,
                         rng: Optional[np.random.Generator] = None,
                         delta_ramp: float = 1.0,
                         trace: Optional[TraceLog] = None,
                         node_id: str = "") -> tuple[DensityMatrix, int]:
    """Measure, and on failure apply ``channel`` and measure again.

    ``channel(state, k)`` is the (possibly escalated) recovery evolution
    applied after the k-th failed measurement for k < ``max_iters``; it
    must preserve trace within 1e-9. Nothing runs after the last
    measurement, so an exhausted loop applies it ``max_iters - 1`` times.
    The k-th measurement's angle is ``ramped_delta(spec.delta,
    delta_ramp, k)``. Randomness comes from ``rng`` as in
    ``weak_measure``. Returns the projected accepted-block state and the
    number of measurements used.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rng = rng or np.random.default_rng(0)
    current = state
    for k in range(1, max_iters + 1):
        delta_k = ramped_delta(spec.delta, delta_ramp, k)
        branches = measurement_branches(current, spec.bipartition, delta_k)
        flag = 1 if rng.random() < branches.p1 else 0
        if trace is not None:
            trace.record(node_id, k, branches, flag)
        if flag == 1:
            return branches.rho1, k
        if k == max_iters:
            break
        current = channel(branches.rho0, k)
        if not abs(current.trace() - 1.0) <= 1e-9:
            raise ValueError("channel failed to preserve trace")
    raise MaxItersExceeded(
        f"no success within {max_iters} measurements" +
        (f" at node {node_id!r}" if node_id else ""))


_SPIN_TARGETS = {"singlet": 0.0, "triplet": 1.0}


def _spin_squared(basis: Basis, regs: tuple[int, ...]
                  ) -> Callable[[np.ndarray], np.ndarray]:
    """x -> S^2 x on arrays whose first axis is the basis index, through
    S^2 = k(4 - k)/4 + sum_{i<j} P_ij over the k registers ``regs``,
    P_ij reading x at the configuration with spins i and j swapped."""
    for r in regs:
        if not basis.particles.has_spin(r):
            raise ValueError(f"register {r} carries no spin label")
    swaps = []
    for i, j in itertools.combinations(regs, 2):
        swapped = basis.spins.copy()
        swapped[:, [i, j]] = swapped[:, [j, i]]
        swaps.append(basis.index(basis.labels, swapped))
    k = len(regs)
    return lambda x: k * (4 - k) / 4.0 * x + sum(x[swap] for swap in swaps)


def spin_sector_project(state: DensityMatrix, basis: Basis, spin_registers,
                        target: Union[str, float]
                        ) -> tuple[float, DensityMatrix]:
    """Project onto total spin S of the k registers ``spin_registers``
    with Löwdin's P_S = prod_{S' != S} (S^2 - S'(S'+1)) / (S(S+1) -
    S'(S'+1)), S' over k/2, k/2 - 1, ... (see the module docstring);
    returns (Born probability, renormalized state)."""
    s_value = _SPIN_TARGETS.get(target) if isinstance(target, str) else float(target)
    if s_value is None:
        raise ValueError(f"unknown spin target {target!r}")
    regs = tuple(int(r) for r in spin_registers)
    s2 = _spin_squared(basis, regs)
    k = len(regs)
    levels = [(k / 2 - j) * (k / 2 - j + 1) for j in range(k // 2 + 1)]
    level = next((lv for lv in levels
                  if abs(lv - s_value * (s_value + 1.0)) < 1e-8), None)
    if level is None:
        raise EmptySector(f"no S^2 eigenspace at S = {s_value}")

    def project(x: np.ndarray) -> np.ndarray:
        for other in levels:
            if other != level:
                x = (s2(x) - other * x) / (level - other)
        return x
    prob, post = state.mapped(project)
    if prob < 1e-14:
        raise EmptySector(f"state carries no weight in the S = {s_value} sector")
    return prob, post

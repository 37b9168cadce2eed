"""Operator builders and the scheduled total Hamiltonian H(s).

H(s) = H_A + H_B + f(s) * H_AB + g(s) * V_trap

with f ramping the inter-fragment Coulomb coupling on (f(0) = 0,
f(s >= s0) = 1) and g ramping the harmonic trap on and back off
(g(0) = 0, g(s0) = 1, g(s1) = 0); each is linear or smoothstep, a
closed form evaluated on one float at a time. ``StructuredHamiltonian``
keeps H(s) as a kinetic stencil plus three diagonal vectors;
``ScheduledHamiltonian`` takes four arbitrary dense blocks. The diagonal
builders have vector-returning cores (``coulomb_diagonal``,
``point_charge_diagonal``, ``trap_diagonal``) that the dense block
builders wrap.

Discretization choices: 3-point finite-difference kinetic stencil with
Dirichlet boundaries, and a softened Coulomb 1/sqrt(r^2 + a^2) so that
coincident grid points stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (CenterOutsideBox, DimensionCapExceeded,
                     NonHermitianHamiltonian, ScheduleOutOfRange,
                     SingularCoulomb)
from .grid import DEFAULT_DIMENSION_CAP, Basis, ParticleSet

VALID_TAGS = ("kinetic", "coulomb_ee", "coulomb_nn", "coulomb_ne",
              "trap", "external", "total")
HERMITICITY_TOL = 1e-12
# bytes of one row block of the Hermiticity check's temporaries
_CHECK_BLOCK_BYTES = 1 << 22


def hermiticity_deviation(mat: np.ndarray) -> float:
    """max |M - M^dag| of a square matrix, 0 when it is empty and NaN
    when an entry is NaN (so compare as ``not dev <= tol``), taken over
    row blocks M[a:b] - M[:, a:b]^dag so no n x n temporary is built."""
    n = mat.shape[0]
    rows = max(1, _CHECK_BLOCK_BYTES // (mat.itemsize * max(n, 1)))
    return float(np.max([np.max(np.abs(mat[a:a + rows]
                                       - mat[:, a:a + rows].conj().T))
                         for a in range(0, n, rows)], initial=0.0))


@dataclass(frozen=True, eq=False)
class OperatorBlock:
    """Hermitian dense matrix over the enumerated configuration basis."""

    matrix: np.ndarray
    tag: str

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        if self.tag not in VALID_TAGS:
            raise ValueError(f"unknown operator tag {self.tag!r}")
        dev = hermiticity_deviation(mat)
        if not dev <= HERMITICITY_TOL:
            raise NonHermitianHamiltonian(
                f"block {self.tag!r} deviates from Hermitian by {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def scaled(self, factor: float) -> "OperatorBlock":
        return OperatorBlock(self.matrix * float(factor), self.tag)

    def __rmul__(self, factor: float) -> "OperatorBlock":
        return self.scaled(factor)

    def __add__(self, other: "OperatorBlock") -> "OperatorBlock":
        return OperatorBlock(self.matrix + other.matrix, "total")


def zero_block(dim: int, tag: str = "external") -> OperatorBlock:
    return OperatorBlock(np.zeros((dim, dim), dtype=complex), tag)


def _kinetic_axes(basis: Basis, registers: Sequence[int]
                  ) -> tuple[tuple[int, int, float], ...]:
    """(outer, m, c) per kinetic (register, lattice axis), in register
    order: the stencil c (2 - shift - shift^T), c = 1/(2 mass h^2), acts
    along the middle axis of ``x.reshape(outer, m, -1)``."""
    shape, h = basis.tensor_shape, basis.grid.spacing
    axes = [(basis.tensor_axis(p, axis),
             1.0 / (2.0 * basis.particles.mass(p) * h * h))
            for p in registers for axis in range(basis.grid.dims)]
    return tuple((math.prod(shape[:k]), shape[k], c) for k, c in axes)


def _dst_modes(m: int, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvectors of the length-m Dirichlet stencil
    2 - shift - shift^T, as rows: the DST-I basis
    S_jk = sqrt(2/(m+1)) sin(j k pi/(m+1)), j = 1 ... count, k = 1 ... m.
    S is symmetric and orthogonal; row j has eigenvalue
    2 - 2 cos(j pi/(m+1)), and row 1 is positive."""
    k = np.arange(1, m + 1)
    return math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(k[:count], k) * math.pi
                                             / (m + 1))


def _kinetic_matrix(basis: Basis, axes: Sequence) -> np.ndarray:
    """T from its ``_kinetic_axes`` table: 2 c dims on the diagonal once
    per register (the first of its dims rows), -c between neighbours."""
    n, dims = basis.size, basis.grid.dims
    mat = np.zeros((n, n))
    diagonal = np.diag_indices(n)
    for _, _, c in axes[::dims]:
        mat[diagonal] += 2.0 * c * dims
    for outer, m, c in axes:
        index = np.arange(n).reshape(outer, m, -1)
        lo, hi = index[:, :-1].ravel(), index[:, 1:].ravel()
        mat[lo, hi] = mat[hi, lo] = -c
    return mat


def build_kinetic(basis: Basis,
                  registers: Optional[Sequence[int]] = None) -> OperatorBlock:
    """Finite-difference kinetic energy, -(1/2m) Laplacian per particle.

    Central 3-point stencil per axis with Dirichlet boundaries (no wrap):
    diagonal 2c per axis and -c to each in-lattice neighbor, c = 1/(2 m h^2).
    ``registers`` restricts the sum to a particle subset (H_A/H_B splits).
    """
    if registers is None:
        registers = range(basis.particles.n_particles)
    return OperatorBlock(
        _kinetic_matrix(basis, _kinetic_axes(basis, registers)), "kinetic")


def _resolve_pairs(particles: ParticleSet, pairs) -> list[tuple[int, int]]:
    n = particles.n_particles
    if pairs == "all":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    explicit = []
    for i, j in pairs:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"invalid particle pair ({i}, {j})")
        explicit.append((min(i, j), max(i, j)))
    return explicit


def _pair_tag(particles: ParticleSet, pair_list: list[tuple[int, int]]) -> str:
    kinds = {(particles.is_nucleus(i), particles.is_nucleus(j))
             for i, j in pair_list}
    if kinds == {(False, False)}:
        return "coulomb_ee"
    if kinds == {(True, True)}:
        return "coulomb_nn"
    if kinds <= {(False, True), (True, False)}:
        return "coulomb_ne"
    return "external"


def _softened_sum(n: int, terms, softening: float,
                  soft2: float) -> np.ndarray:
    """sum of q / sqrt(|a - b|^2 + soft2) over (q, a, b, culprit) terms,
    where a and b hold one coordinate row per configuration; with zero
    softening a coincidence raises, naming the term's culprit."""
    total = np.zeros(n)
    for q, a, b, culprit in terms:
        d2 = np.sum((a - b) ** 2, axis=-1)
        if softening == 0.0 and np.any(d2 == 0.0):
            raise SingularCoulomb(culprit)
        total += q / np.sqrt(d2 + soft2)
    return total


def _diagonal_block(diag: np.ndarray, tag: str) -> OperatorBlock:
    return OperatorBlock(np.diag(diag.astype(complex)), tag)


def coulomb_diagonal(basis: Basis, softening: float,
                     pairs="all") -> np.ndarray:
    """Softened Coulomb energy of every configuration over the selected
    particle pairs (see ``build_coulomb``)."""
    if softening < 0:
        raise ValueError("softening must be nonnegative")
    particles = basis.particles
    coords = basis.labels * basis.grid.spacing
    return _softened_sum(basis.size, [
        (particles.charge(i) * particles.charge(j), coords[:, i], coords[:, j],
         f"registers {i} and {j} coincide with zero softening")
        for i, j in _resolve_pairs(particles, pairs)],
        softening, softening * softening)


def build_coulomb(basis: Basis, softening: float,
                  pairs="all", tag: Optional[str] = None) -> OperatorBlock:
    """Diagonal Coulomb block over the selected particle pairs.

    ``pairs`` is "all" or an explicit list of register pairs (used for
    inter-fragment H_AB).
    """
    diag = coulomb_diagonal(basis, softening, pairs)
    if tag is None:
        tag = _pair_tag(basis.particles,
                        _resolve_pairs(basis.particles, pairs))
    return _diagonal_block(diag, tag)


def point_charge_diagonal(basis: Basis, centers: Sequence[Sequence[float]],
                          charges: Sequence[float],
                          softening: float) -> np.ndarray:
    """Energy of every configuration in the field of fixed point charges
    (see ``build_point_charges``)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    charges = np.asarray(charges, dtype=float)
    particles = basis.particles
    coords = basis.labels * basis.grid.spacing
    return _softened_sum(basis.size, [
        (particles.charge(p) * q, coords[:, p], c,
         f"register {p} coincides with a fixed charge")
        for p in range(particles.n_particles)
        for c, q in zip(centers, charges)], softening, softening ** 2)


def build_point_charges(basis: Basis, centers: Sequence[Sequence[float]],
                        charges: Sequence[float],
                        softening: float) -> OperatorBlock:
    """Potential of fixed external point charges acting on every register.

    Models clamped nuclei (e.g. an H2-like toy where only the electron
    roams). Tagged "external".
    """
    return _diagonal_block(
        point_charge_diagonal(basis, centers, charges, softening), "external")


@dataclass(frozen=True)
class TrapSpec:
    """Per-nucleus harmonic confinement: centers R_{0,j} (Bohr) and
    per-axis frequencies omega_{j,w} (atomic units)."""

    centers: tuple[tuple[float, ...], ...]
    frequencies: tuple[tuple[float, ...], ...]
    isotropic: bool = True

    def __post_init__(self):
        centers = tuple(tuple(float(x) for x in c) for c in self.centers)
        freqs = tuple(tuple(float(w) for w in f) for f in self.frequencies)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "frequencies", freqs)
        if len(centers) != len(freqs):
            raise ValueError("one frequency row per trap center required")
        for row in freqs:
            if any(w <= 0 for w in row):
                raise ValueError("trap frequencies must be strictly positive")
            if self.isotropic and len(set(row)) > 1:
                raise ValueError("isotropic trap requires equal per-axis "
                                 "frequencies")

    @classmethod
    def isotropic_spec(cls, centers: Sequence[Sequence[float]],
                       omega: float) -> "TrapSpec":
        centers = tuple(tuple(float(x) for x in c) for c in centers)
        freqs = tuple((float(omega),) * len(c) for c in centers)
        return cls(centers, freqs, isotropic=True)



def trap_diagonal(basis: Basis, trap: TrapSpec) -> np.ndarray:
    """Harmonic-trap energy of every configuration, on nuclear
    coordinates only:
    sum_j (m_j/2) sum_w omega_{j,w}^2 (R_{j,w} - R_{0,j,w})^2."""
    grid, particles = basis.grid, basis.particles
    if len(trap.centers) != particles.n_nuc:
        raise ValueError("one trap center per nucleus required")
    half = grid.box_length / 2.0
    for c, w in zip(trap.centers, trap.frequencies):
        if len(c) != grid.dims:
            raise ValueError("trap center dimensionality mismatch")
        if len(w) != grid.dims:
            raise ValueError("trap frequency dimensionality mismatch")
        if any(abs(x) > half for x in c):
            raise CenterOutsideBox(f"trap center {c} outside the box")
    coords = basis.labels[:, particles.n_el:] * grid.spacing
    diag = np.zeros(basis.size)
    for j, (m, r0, w) in enumerate(zip(particles.nuclear_masses, trap.centers,
                                       trap.frequencies)):
        disp, w = coords[:, j] - np.asarray(r0), np.asarray(w)
        diag += 0.5 * m * np.sum(w * w * disp * disp, axis=-1)
    return diag


def build_trap(basis: Basis, trap: TrapSpec) -> OperatorBlock:
    """Diagonal harmonic-trap block (see ``trap_diagonal``)."""
    return _diagonal_block(trap_diagonal(basis, trap), "trap")


def _ramp(u: float, shape: str) -> float:
    """u clamped to [0, 1], eased as 3u^2 - 2u^3 for "smoothstep"."""
    u = min(max(u, 0.0), 1.0)
    return 3.0 * u * u - 2.0 * u ** 3 if shape == "smoothstep" else u


@dataclass(frozen=True)
class Schedule:
    """Monotone scheduling profiles f (coupling) and g (trap).

    Each of f and g is "linear" or "smoothstep", a closed form in one
    float: f(s) ramps s / s0 and holds 1 from s0 on; g ramps s / s0 up
    to s0 and (s1 - s) / (s1 - s0) back down to s1.
    """

    s0: float
    s1: float
    f_shape: str = "linear"
    g_shape: str = "linear"

    def __post_init__(self):
        if not (0.0 < self.s0 < self.s1):
            raise ValueError("require 0 < s0 < s1")
        for name, shape in (("f", self.f_shape), ("g", self.g_shape)):
            if shape not in ("linear", "smoothstep"):
                raise ValueError(f"unknown {name} shape {shape!r}")

    def f(self, s: float) -> float:
        return _ramp(float(s) / self.s0, self.f_shape)

    def g(self, s: float) -> float:
        s = float(s)
        u = s / self.s0 if s <= self.s0 \
            else (self.s1 - s) / (self.s1 - self.s0)
        return _ramp(u, self.g_shape)

    def profiles(self, s: float) -> tuple[float, float]:
        """(f(s), g(s)) for one s inside [0, s1]."""
        if not 0.0 <= s <= self.s1:
            raise ScheduleOutOfRange(f"s = {s} outside [0, {self.s1}]")
        return self.f(s), self.g(s)


@dataclass(frozen=True)
class ScheduledHamiltonian:
    """Operator blocks plus schedule; evaluate(s) assembles
    H_A + H_B + f(s) H_AB + g(s) V_trap."""

    h_a: OperatorBlock
    h_b: OperatorBlock
    h_ab: OperatorBlock
    v_trap: OperatorBlock
    schedule: Schedule

    def __post_init__(self):
        dims = {b.dim for b in (self.h_a, self.h_b, self.h_ab, self.v_trap)}
        if len(dims) != 1:
            raise ValueError(f"block dimensions disagree: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.h_a.dim

    def evaluate(self, s: float) -> OperatorBlock:
        """H_A + H_B + f(s) H_AB + g(s) V_trap."""
        f, g = self.schedule.profiles(s)
        mat = (self.h_a.matrix + self.h_b.matrix
               + f * self.h_ab.matrix + g * self.v_trap.matrix)
        return OperatorBlock(mat, "total")

    def norm_max(self, s: float) -> float:
        """max |H(s)_ij|."""
        return float(np.max(np.abs(self.evaluate(s).matrix)))


@dataclass(frozen=True, eq=False)
class StructuredHamiltonian:
    """H(s) = T + diag(v_frag + f(s) v_ab + g(s) v_trap).

    T is the finite-difference kinetic energy of ``kinetic_registers``
    (see ``build_kinetic``): a sum of one 1D Dirichlet tridiagonal per
    (register, lattice axis), each acting on one tensor axis of the
    basis, tabulated once in ``kinetic_axes``; ``dense``, the bounds, the
    DST-I forms ``kinetic_propagator`` and ``kinetic_ground_state`` and
    the neighbour table ``stencil`` that the product gathers through read
    only that table. The potential is diagonal: the intra-fragment
    Coulomb energy ``v_frag``, the inter-fragment coupling ``v_ab``
    ramped by f and the trap ``v_trap`` ramped by g.
    ``product(potential(s), x)`` is H(s) x in O(n) per kinetic axis with
    no n x n array and ``spectral_bounds(s)`` encloses its spectrum;
    ``dense(s)`` assembles the real symmetric matrix, the oracle for
    everything that uses this structure and the one n x n build of H(s),
    refused above ``DEFAULT_DIMENSION_CAP`` configurations.
    """

    basis: Basis
    kinetic_registers: tuple[int, ...]
    v_frag: np.ndarray
    v_ab: np.ndarray
    v_trap: np.ndarray
    schedule: Schedule

    def __post_init__(self):
        registers = tuple(int(p) for p in self.kinetic_registers)
        if len(set(registers)) != len(registers) or not all(
                0 <= p < self.basis.particles.n_particles for p in registers):
            raise ValueError(f"invalid kinetic registers {registers}")
        object.__setattr__(self, "kinetic_registers", registers)
        for name in ("v_frag", "v_ab", "v_trap"):
            vec = np.array(getattr(self, name), dtype=float)
            if vec.shape != (self.basis.size,):
                raise ValueError(f"{name} must have one entry per "
                                 f"configuration, got shape {vec.shape}")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)

    @property
    def dim(self) -> int:
        return self.basis.size

    def potential(self, s: float) -> np.ndarray:
        """The diagonal of V(s)."""
        return self.potentials([s])[0]

    def potentials(self, s_values) -> np.ndarray:
        """The diagonal of V(s) for each s in ``s_values``, one row each,
        formed as one array: v_frag + f(s) v_ab + g(s) v_trap, the same
        float operations per entry for one s as for many."""
        f, g = np.array([self.schedule.profiles(s) for s in s_values]).T
        return self.v_frag + f[:, None] * self.v_ab + g[:, None] * self.v_trap

    @cached_property
    def kinetic_axes(self) -> tuple[tuple[int, int, float], ...]:
        """``_kinetic_axes`` of the kinetic registers."""
        return _kinetic_axes(self.basis, self.kinetic_registers)

    @cached_property
    def stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """T as a gather table (index, weights), both (1 + 2 axes) x n:
        (T x)_i = sum_j weights_ji x[index_ji]. Row 0 is i itself with
        T's constant diagonal 2 sum c; then, per kinetic axis, the lower
        and the upper neighbour with -c, or i itself with weight 0 past
        a Dirichlet end. ``product`` and the Chebyshev recurrence of
        ``evolution`` both read it."""
        n = self.dim
        rows = np.arange(n)
        index = [rows]
        weights = [np.full(n, 2.0 * sum(c for _, _, c in self.kinetic_axes))]
        for outer, m, c in self.kinetic_axes:
            stride = n // (outer * m)
            position = rows // stride % m
            for inside, step in ((position > 0, -stride),
                                 (position < m - 1, stride)):
                index.append(np.where(inside, rows + step, rows))
                weights.append(np.where(inside, -c, 0.0))
        return np.stack(index), np.stack(weights)

    def product(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(T + diag(v)) x for an array whose first axis is the basis
        index: v x plus one gather of x through ``stencil`` summed against
        its weights; H(s) x at v = ``potential(s)``."""
        index, weights = self.stencil
        out = v.reshape(v.shape + (1,) * (x.ndim - 1)) * x
        out += np.einsum("ji,ji...->i...", weights, x[index])
        return out

    def kinetic_propagator(self, ds: float
                           ) -> Callable[[np.ndarray], np.ndarray]:
        """exp(-i T ds) as a map on arrays whose first axis is the basis
        index: S diag(exp(-i c lam_j ds)) S along each kinetic axis, S the
        DST-I basis (``_dst_modes``) and lam_j = 2 - 2 cos(j pi/(m+1))."""
        factors = []
        for outer, m, c in self.kinetic_axes:
            dst = _dst_modes(m, m)
            lam = 2.0 - 2.0 * np.cos(np.arange(1, m + 1) * math.pi / (m + 1))
            factors.append((outer, m,
                            (dst * np.exp(-1j * c * ds * lam)) @ dst))

        def apply(x: np.ndarray) -> np.ndarray:
            for outer, m, factor in factors:
                x = (factor @ x.reshape(outer, m, -1)).reshape(x.shape)
            return x
        return apply

    def kinetic_ground_state(self) -> np.ndarray:
        """The unit ground state of T: the lowest DST-I mode along each
        kinetic axis, uniform along the others (all of them when T = 0),
        multiplied in ascending tensor-axis order. It is positive."""
        start = np.ones(self.dim)
        for outer, m, _ in sorted(self.kinetic_axes):
            axis = start.reshape(outer, m, -1)
            axis *= _dst_modes(m, 1)[0][:, None]
        return start / np.linalg.norm(start)

    def dense(self, s: float) -> np.ndarray:
        """H(s) as a real symmetric float64 matrix; DimensionCapExceeded,
        before any allocation, above ``DEFAULT_DIMENSION_CAP``."""
        n = self.dim
        if n > DEFAULT_DIMENSION_CAP:
            raise DimensionCapExceeded(f"a dense {n} x {n} H(s) is above "
                                       f"the cap {DEFAULT_DIMENSION_CAP}")
        mat = _kinetic_matrix(self.basis, self.kinetic_axes)
        mat[np.diag_indices(n)] += self.potential(s)
        return mat

    def norm_max(self, s: float) -> float:
        """max |H(s)_ij| read from the stencil and the diagonals: the
        diagonal is constant kinetic plus V(s), and a kinetic neighbour
        entry is -c of the one register that moves."""
        diagonal = 2.0 * sum(c for _, _, c in self.kinetic_axes) \
            + self.potential(s)
        neighbour = max((c for _, m, c in self.kinetic_axes if m > 1),
                        default=0.0)
        return float(max(np.max(np.abs(diagonal)), neighbour))

    def spectral_bounds(self, s: float) -> tuple[float, float]:
        """(lo, hi) enclosing the spectrum of H(s), read from the stencil
        and the diagonal: each stencil c (2 - shift - shift^T) has its
        eigenvalues in [0, 4c], so T lies in [0, 4 sum c] and, by Weyl,
        H(s) in [min V(s), max V(s) + 4 sum c]. max(|lo|, |hi|) bounds
        ||H(s)||_2."""
        potential = self.potential(s)
        kinetic = 4.0 * sum(c for _, _, c in self.kinetic_axes)
        return float(np.min(potential)), float(np.max(potential)) + kinetic

"""Real-space integer-lattice grid and the enumerated many-body basis.

A grid of m points per axis (m odd) labels the integer lattice
[-(m-1)/2, (m-1)/2]^dims inside the box Omega = [-L/2, L/2]^dims, and
label p maps to the coordinate p * (L/m) per component. Configurations
are ordered tuples of per-particle labels plus optional spin labels;
their lexicographic enumeration is the basis every dense operator in
this package is expressed in.

Atomic units throughout: lengths in Bohr, masses in electron masses,
charges in units of e.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionCapExceeded

SPIN_UP = 0
SPIN_DOWN = 1

ELECTRON_MASS = 1.0
ELECTRON_CHARGE = -1.0

DEFAULT_DIMENSION_CAP = 4096


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice grid; ``points_per_axis`` must be odd so the
    lattice has an exact center point."""

    points_per_axis: int
    dims: int
    box_length: float

    def __post_init__(self):
        if self.points_per_axis < 1 or self.points_per_axis % 2 == 0:
            raise ValueError("points_per_axis must be a positive odd integer")
        if self.dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")
        if self.box_length <= 0:
            raise ValueError("box_length must be positive")

    @property
    def max_label(self) -> int:
        return (self.points_per_axis - 1) // 2

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    def contains_label(self, label: Sequence[int]) -> bool:
        return len(label) == self.dims and all(
            c == int(c) and -self.max_label <= c <= self.max_label
            for c in label)


@dataclass(frozen=True)
class ParticleSet:
    """Electrons (mass 1, charge -1) plus nuclei with explicit masses
    and charges. Register order is electrons first, then nuclei."""

    n_el: int
    nuclear_masses: tuple[float, ...] = ()
    nuclear_charges: tuple[float, ...] = ()
    electron_spin: bool = False
    nuclear_spin: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nuclear_masses",
                           tuple(float(m) for m in self.nuclear_masses))
        object.__setattr__(self, "nuclear_charges",
                           tuple(float(q) for q in self.nuclear_charges))
        if self.n_el < 0:
            raise ValueError("n_el must be nonnegative")
        if len(self.nuclear_masses) != len(self.nuclear_charges):
            raise ValueError("one charge per nuclear mass required")
        if any(m <= 0 for m in self.nuclear_masses):
            raise ValueError("nuclear masses must be strictly positive")
        if self.n_particles == 0:
            raise ValueError("at least one particle required")

    @property
    def n_nuc(self) -> int:
        return len(self.nuclear_masses)

    @property
    def n_particles(self) -> int:
        return self.n_el + self.n_nuc

    def is_nucleus(self, register: int) -> bool:
        return register >= self.n_el

    def mass(self, register: int) -> float:
        if self.is_nucleus(register):
            return self.nuclear_masses[register - self.n_el]
        return ELECTRON_MASS

    def charge(self, register: int) -> float:
        if self.is_nucleus(register):
            return self.nuclear_charges[register - self.n_el]
        return ELECTRON_CHARGE

    def has_spin(self, register: int) -> bool:
        return self.nuclear_spin if self.is_nucleus(register) else self.electron_spin


@dataclass(frozen=True)
class Configuration:
    """One basis label: per-particle grid labels and spin labels.

    ``spins`` entries are SPIN_UP/SPIN_DOWN for spin-carrying registers
    and None where spin is disabled.
    """

    labels: tuple[tuple[int, ...], ...]
    spins: tuple[Optional[int], ...]


class Basis:
    """Configuration basis held as read-only arrays: ``labels``
    (n, n_particles, dims) and ``spins`` (n, n_particles), -1 where a
    register has no spin. The index is mixed radix: the first register
    varies slowest; per register the grid label is the major key and
    spin (up before down) the minor one. Built by ``enumerate_basis``.
    """

    def __init__(self, grid: GridSpec, particles: ParticleSet):
        self.grid = grid
        self.particles = particles
        self._has_spin = np.array([particles.has_spin(p)
                                   for p in range(particles.n_particles)])
        # per register one digit per axis, then a spin digit of radix 2,
        # or of radix 1 where the register has no spin
        self._radices = tuple(r for has in self._has_spin for r in
                              (grid.points_per_axis,) * grid.dims
                              + (2 if has else 1,))
        # a strided (n, n_particles, dims + 1) view of every index's
        # digits; each array below is written once, in C order
        digits = np.indices(self._radices).reshape(len(self._radices), -1).T
        digits = digits.reshape(-1, particles.n_particles, grid.dims + 1)
        self.labels = np.subtract(digits[..., :-1], grid.max_label, order="C")
        self.spins = np.ascontiguousarray(
            np.where(self._has_spin, digits[..., -1], -1))
        self.labels.setflags(write=False)
        self.spins.setflags(write=False)

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def tensor_shape(self) -> tuple[int, ...]:
        """The mixed radices: a state vector reshaped to this shape has
        one tensor axis per (register, lattice axis) and one spin axis
        per register (of length 1 where the register has no spin)."""
        return self._radices

    def tensor_axis(self, register: int, axis: int) -> int:
        """The tensor axis holding lattice axis ``axis`` of ``register``."""
        if not (0 <= register < self.particles.n_particles
                and 0 <= axis < self.grid.dims):
            raise IndexError(f"no tensor axis for register {register}, "
                             f"lattice axis {axis}")
        return register * (self.grid.dims + 1) + axis

    def index(self, labels: np.ndarray, spins: np.ndarray) -> np.ndarray:
        """Indices of label rows (k, n_particles, dims) with spin rows
        (k, n_particles); a digit out of range raises, never wraps."""
        digits = np.concatenate(
            [labels + self.grid.max_label,
             np.where(self._has_spin, spins, spins + 1)[..., None]], axis=-1)
        return np.ravel_multi_index(
            digits.reshape(len(digits), len(self._radices)).T, self._radices)

    def __contains__(self, config: Configuration) -> bool:
        """Labels in the lattice; spin None exactly on spinless registers."""
        return (len(config.labels) == len(config.spins)
                == self.particles.n_particles
                and all(map(self.grid.contains_label, config.labels))
                and all(s in (SPIN_UP, SPIN_DOWN) if has else s is None
                        for s, has in zip(config.spins, self._has_spin)))

    def index_of(self, config: Configuration) -> int:
        if config not in self:
            raise KeyError(config)
        spins = [[-1 if s is None else s for s in config.spins]]
        return int(self.index(np.array([config.labels]), np.array(spins))[0])

    def configuration_at(self, i: int) -> Configuration:
        return Configuration(
            tuple(map(tuple, self.labels[i].tolist())),
            tuple(None if s < 0 else s for s in self.spins[i].tolist()))


def basis_dimension(grid: GridSpec, particles: ParticleSet) -> int:
    """Exact basis size (m^dims * spin_factor per register, multiplied)."""
    spinful = sum(map(particles.has_spin, range(particles.n_particles)))
    return (grid.points_per_axis ** (grid.dims * particles.n_particles)
            * 2 ** spinful)


def enumerate_basis(grid: GridSpec, particles: ParticleSet,
                    cap: int = DEFAULT_DIMENSION_CAP) -> Basis:
    """Enumerate all configurations in lexicographic order.

    The first register varies slowest; per register, the grid label is
    the major key and spin (up before down) the minor one. Raises
    DimensionCapExceeded before allocating anything oversized.
    """
    dim = basis_dimension(grid, particles)
    if dim > cap:
        raise DimensionCapExceeded(
            f"basis size {dim} exceeds the configured cap {cap}")
    return Basis(grid, particles)

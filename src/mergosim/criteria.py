"""Classical merge-success criteria on configurations.

A geometric criterion tests internuclear distances, either against
target bond lengths within a tolerance (equilibrium mode) or against
proximity thresholds (proximity mode). Every accept mask comes from one
table over label rows (k, n_particles, dims) that computes each
nucleus-pair distance once and each (pair, bounds) mask once; a
permutation image of the rows is a register remap into that table, not
a copy of the labels. Run on ``basis.labels`` the mask induces the A/B
bipartition that the weak-measurement heralding acts on. A criterion is
safe to measure only if it is invariant under the declared exchange
permutations; ``validate_symmetric`` checks that on every basis
configuration by reading the rows and their generator images from one
table, and ``symmetrize_criterion`` repairs a criterion by OR-ing it
over the group images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import LabelOutOfRange, PairIndexOutOfRange
from .grid import Basis, Configuration, GridSpec, ParticleSet
from .symmetry import (Permutation, SymmetryDeclaration, generators,
                       group_elements)
from .units import unit_convert


def _pair_distance(coords: np.ndarray, a: int, b: int) -> np.ndarray:
    """Distance between registers a and b on every coordinate row."""
    diff = coords[:, a] - coords[:, b]
    # a row times itself runs the BLAS dot that np.linalg.norm runs on
    # one difference vector, so distances agree bit for bit
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


class _PairTable:
    """Constraint masks over one set of label rows (k, n_particles, dims).

    Coordinates are scaled once. Each unordered register pair's distance
    is computed once, on first use: (b, a) has the exactly negated
    difference of (a, b), so the same distance bits. Each (pair, mode,
    bounds) mask is computed once too. A caller reads the rows under a
    register order (slot i reads register order[i]) by asking for the
    remapped registers, so an image never copies the labels.
    """

    def __init__(self, labels: np.ndarray, grid: GridSpec,
                 particles: ParticleSet):
        self.size = len(labels)
        self.n_el = particles.n_el
        self._coords = labels * grid.spacing
        self._distances: dict = {}
        self._masks: dict = {}

    def mask(self, a: int, b: int, mode: str, bounds: tuple) -> np.ndarray:
        """Rows whose registers a and b meet one constraint (the cached
        array itself: callers combine it into masks of their own)."""
        pair = (a, b) if a <= b else (b, a)
        key = (pair, mode, bounds)
        if key not in self._masks:
            if pair not in self._distances:
                self._distances[pair] = _pair_distance(self._coords, *pair)
            dist = self._distances[pair]
            if mode == "equilibrium":
                self._masks[key] = ~(np.abs(dist - bounds[0]) > bounds[1])
            else:
                self._masks[key] = ~(dist > bounds[0])
        return self._masks[key]


@dataclass(frozen=True)
class GeometricCriterion:
    """Distance constraints on nucleus pairs, all of which must hold.

    ``constraints`` rows are (j, k, target, eps) in equilibrium mode and
    (j, k, threshold) in proximity mode; j, k index two nuclei (not
    registers). Distances are read in ``unit`` ("bohr" or "pm").
    """

    mode: str
    constraints: tuple[tuple, ...]
    unit: str = "bohr"

    def __post_init__(self):
        if self.mode not in ("equilibrium", "proximity"):
            raise ValueError(f"unknown criterion mode {self.mode!r}")
        width = 4 if self.mode == "equilibrium" else 3
        rows = []
        for row in self.constraints:
            if len(row) != width:
                raise ValueError(
                    f"{self.mode} constraints need {width} entries per row")
            if not all(float(x).is_integer() for x in row[:2]):
                raise ValueError(f"nucleus indices must be integers, got "
                                 f"{row[0]}, {row[1]}")
            j, k = int(row[0]), int(row[1])
            if j == k:
                raise ValueError(f"constraint names nucleus {j} twice")
            values = tuple(float(x) for x in row[2:])
            if any(v <= 0 for v in values):
                raise ValueError("distance targets and tolerances must be "
                                 "strictly positive")
            rows.append((j, k) + values)
        object.__setattr__(self, "constraints", tuple(rows))
        unit_convert(1.0, self.unit, "bohr")  # rejects a non-length unit
        # each row's bounds in bohr, converted once
        object.__setattr__(self, "_bounds", tuple(
            tuple(unit_convert(v, self.unit, "bohr") for v in row[2:])
            for row in rows))

    def check_against(self, particles: ParticleSet) -> None:
        """Every constraint names nuclei that ``particles`` has."""
        for row in self.constraints:
            for j in row[:2]:
                if not 0 <= j < particles.n_nuc:
                    raise PairIndexOutOfRange(
                        f"nucleus index {j} out of range")

    def accepts(self, labels: np.ndarray, grid: GridSpec,
                particles: ParticleSet) -> np.ndarray:
        """Accept mask of label rows (k, n_particles, dims): a row is
        accepted when every constraint holds on it."""
        self.check_against(particles)
        return self._accepts_on(_PairTable(labels, grid, particles),
                                range(particles.n_particles))

    def _accepts_on(self, table: _PairTable, order) -> np.ndarray:
        """``accepts`` of the table's rows with slot i read from register
        order[i]; the caller has checked the constraints' nuclei."""
        mask = np.ones(table.size, dtype=bool)
        for (j, k, *_), bounds in zip(self.constraints, self._bounds):
            mask &= table.mask(order[table.n_el + j], order[table.n_el + k],
                               self.mode, bounds)
        return mask

    def evaluate(self, config: Configuration, grid: GridSpec,
                 particles: ParticleSet) -> int:
        """``accepts`` of one configuration's labels as a single row."""
        for label in config.labels:
            if not grid.contains_label(label):
                raise LabelOutOfRange(
                    f"label {label} outside lattice of {grid}")
        return int(self.accepts(np.array([config.labels]), grid,
                                particles)[0])


@dataclass(frozen=True)
class SymmetrizedCriterion:
    """OR of a base criterion over a permutation group's images."""

    base: GeometricCriterion
    permutations: tuple[Permutation, ...]

    def check_against(self, particles: ParticleSet) -> None:
        self.base.check_against(particles)

    def _accepts_on(self, table: _PairTable, order) -> np.ndarray:
        # the image of slot i under perm is slot perm(i), which reads
        # register order[perm(i)]
        return np.logical_or.reduce(
            [self.base._accepts_on(table, [order[p] for p in
                                           perm.order(len(order))])
             for perm in self.permutations])

    accepts = GeometricCriterion.accepts


Criterion = Union[GeometricCriterion, SymmetrizedCriterion]


def symmetrize_criterion(criterion: GeometricCriterion,
                         declaration: SymmetryDeclaration
                         ) -> SymmetrizedCriterion:
    return SymmetrizedCriterion(criterion, tuple(group_elements(declaration)))


@dataclass(frozen=True, eq=False)
class Bipartition:
    """Split of the basis into criterion-accepted (A) and rejected (B)."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool).copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        if mask.ndim != 1:
            raise ValueError("bipartition mask must be one-dimensional")

    @property
    def dim(self) -> int:
        return self.mask.size

    def projector(self) -> np.ndarray:
        return np.diag(self.mask.astype(float))


def bipartition(criterion: Criterion, basis: Basis) -> Bipartition:
    """Classify every basis configuration with the criterion's kernel."""
    return Bipartition(criterion.accepts(basis.labels, basis.grid,
                                         basis.particles))


@dataclass(frozen=True)
class CriterionSymmetryResult:
    symmetric: bool
    counterexample: Optional[tuple[Permutation, Configuration]]
    checked: int


def validate_symmetric(criterion: Criterion,
                       declaration: SymmetryDeclaration,
                       basis: Basis) -> CriterionSymmetryResult:
    """Check criterion invariance under the generator permutations.

    Invariance under the generators implies invariance under the whole
    group. Every basis configuration is checked: one pair table over
    ``basis.labels`` classifies the rows and each generator's image of
    them (a register remap). The counterexample is the earliest row a
    generator moves across the split (the first such generator on a
    tie), and ``checked`` counts rows up to it.
    """
    gens = generators(declaration)
    particles = basis.particles
    criterion.check_against(particles)
    table = _PairTable(basis.labels, basis.grid, particles)
    n_part = particles.n_particles
    ref = criterion._accepts_on(table, range(n_part))
    first, culprit = basis.size, None
    for gen in gens:
        moved = np.flatnonzero(
            criterion._accepts_on(table, gen.order(n_part)) != ref)
        if moved.size and moved[0] < first:
            first, culprit = int(moved[0]), gen
    if culprit is None:
        return CriterionSymmetryResult(True, None, basis.size)
    return CriterionSymmetryResult(
        False, (culprit, basis.configuration_at(first)), first + 1)

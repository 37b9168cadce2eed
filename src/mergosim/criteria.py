"""Classical merge-success criteria on configurations.

A geometric criterion tests internuclear distances, either against
target bond lengths within a tolerance (equilibrium mode) or against
proximity thresholds (proximity mode). Every accept mask comes from one
array kernel, ``accepts``, over label rows (k, n_particles, dims): run
on ``basis.labels`` it induces the A/B bipartition that the
weak-measurement heralding acts on. A criterion is safe to measure only
if it is invariant under the declared exchange permutations;
``validate_symmetric`` checks that by running the kernel on label rows
and on their generator images, and ``symmetrize_criterion`` repairs a
criterion by OR-ing it over the group images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import LabelOutOfRange, PairIndexOutOfRange
from .grid import Basis, Configuration, GridSpec, ParticleSet
from .symmetry import (Permutation, SymmetryDeclaration, generators,
                       group_elements)
from .units import unit_convert

EXHAUSTIVE_LIMIT = 4096
SAMPLE_DRAWS = 10_000


@dataclass(frozen=True)
class GeometricCriterion:
    """Distance constraints on nucleus pairs, all of which must hold.

    ``constraints`` rows are (j, k, target, eps) in equilibrium mode and
    (j, k, threshold) in proximity mode; j, k index nuclei (not
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
            values = tuple(float(x) for x in row[2:])
            if any(v <= 0 for v in values):
                raise ValueError("distance targets and tolerances must be "
                                 "strictly positive")
            rows.append((j, k) + values)
        object.__setattr__(self, "constraints", tuple(rows))
        self._to_bohr(1.0)  # rejects a unit that is not a length

    def _to_bohr(self, value: float) -> float:
        return unit_convert(value, self.unit, "bohr")

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
        coords = labels * grid.spacing
        mask = np.ones(len(labels), dtype=bool)
        for j, k, *bounds in self.constraints:
            diff = (coords[:, particles.n_el + j]
                    - coords[:, particles.n_el + k])
            # a row times itself runs the BLAS dot that np.linalg.norm
            # runs on one difference vector, so distances agree bit for bit
            dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
            limits = [self._to_bohr(b) for b in bounds]
            if self.mode == "equilibrium":
                mask &= ~(np.abs(dist - limits[0]) > limits[1])
            else:
                mask &= ~(dist > limits[0])
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

    def accepts(self, labels: np.ndarray, grid: GridSpec,
                particles: ParticleSet) -> np.ndarray:
        n_part = particles.n_particles
        return np.logical_or.reduce(
            [self.base.accepts(labels[:, perm.order(n_part)], grid,
                               particles)
             for perm in self.permutations])

    evaluate = GeometricCriterion.evaluate


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

    @classmethod
    def from_indices(cls, accepted: Sequence[int], dim: int) -> "Bipartition":
        mask = np.zeros(dim, dtype=bool)
        mask[list(accepted)] = True
        return cls(mask)

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
    sampled: bool


def validate_symmetric(criterion: Criterion,
                       declaration: SymmetryDeclaration, basis: Basis,
                       seed: int = 0) -> CriterionSymmetryResult:
    """Check criterion invariance under the generator permutations.

    Invariance under the generators implies invariance under the whole
    group. Bases up to EXHAUSTIVE_LIMIT configurations are checked
    exhaustively; larger ones on SAMPLE_DRAWS seeded uniform draws. The
    kernel classifies the checked label rows and each generator's image
    rows; the counterexample is the earliest row a generator moves across
    the split (the first such generator on a tie), and ``checked`` counts
    rows up to it.
    """
    gens = generators(declaration)
    sampled = basis.size > EXHAUSTIVE_LIMIT
    rows = (np.random.default_rng(seed).integers(0, basis.size,
                                                 size=SAMPLE_DRAWS)
            if sampled else np.arange(basis.size))
    labels = basis.labels[rows]
    grid, particles = basis.grid, basis.particles
    ref = criterion.accepts(labels, grid, particles)
    first, culprit = rows.size, None
    for gen in gens:
        image = labels[:, gen.order(particles.n_particles)]
        moved = np.flatnonzero(
            criterion.accepts(image, grid, particles) != ref)
        if moved.size and moved[0] < first:
            first, culprit = int(moved[0]), gen
    if culprit is None:
        return CriterionSymmetryResult(True, None, rows.size, sampled)
    return CriterionSymmetryResult(
        False, (culprit, basis.configuration_at(int(rows[first]))),
        first + 1, sampled)

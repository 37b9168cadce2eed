"""Classical merge-success criteria on configurations.

A geometric criterion tests internuclear distances, either against
target bond lengths within a tolerance (equilibrium mode) or against
proximity thresholds (proximity mode). Evaluating it over the whole
basis induces the A/B bipartition that the weak-measurement heralding
acts on. A criterion is safe to measure only if it is invariant under
the declared exchange permutations; ``validate_symmetric`` checks that
and ``symmetrize_criterion`` repairs a criterion by OR-ing it over the
group images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PairIndexOutOfRange
from .evolution import DensityMatrix, row_scaling
from .grid import Basis, Configuration, GridSpec, ParticleSet, label_to_coord
from .symmetry import (Permutation, SymmetryDeclaration, antisymmetrize,
                       generators, group_elements, permutation_indices)
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

    def evaluate(self, config: Configuration, grid: GridSpec,
                 particles: ParticleSet) -> int:
        coords = {}

        def nucleus_coord(j: int) -> np.ndarray:
            if not 0 <= j < particles.n_nuc:
                raise PairIndexOutOfRange(f"nucleus index {j} out of range")
            if j not in coords:
                reg = particles.nucleus_register(j)
                coords[j] = label_to_coord(grid, config.labels[reg])
            return coords[j]

        for row in self.constraints:
            j, k = row[0], row[1]
            dist = float(np.linalg.norm(nucleus_coord(j) - nucleus_coord(k)))
            if self.mode == "equilibrium":
                if abs(dist - self._to_bohr(row[2])) > self._to_bohr(row[3]):
                    return 0
            elif dist > self._to_bohr(row[2]):
                return 0
        return 1


@dataclass(frozen=True)
class SymmetrizedCriterion:
    """OR of a base criterion over a permutation group's images."""

    base: GeometricCriterion
    permutations: tuple[Permutation, ...]

    def evaluate(self, config: Configuration, grid: GridSpec,
                 particles: ParticleSet) -> int:
        return int(any(self.base.evaluate(perm.apply_to_configuration(config),
                                          grid, particles)
                       for perm in self.permutations))


Criterion = Union[GeometricCriterion, SymmetrizedCriterion]


def evaluate_criterion(criterion: Criterion, config: Configuration,
                       grid: GridSpec, particles: ParticleSet) -> int:
    return criterion.evaluate(config, grid, particles)


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

    @property
    def set_a(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.mask))

    @property
    def set_b(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(~self.mask))

    @classmethod
    def from_indices(cls, accepted: Sequence[int], dim: int) -> "Bipartition":
        mask = np.zeros(dim, dtype=bool)
        mask[list(accepted)] = True
        return cls(mask)

    def projector(self) -> np.ndarray:
        return np.diag(self.mask.astype(float))


def bipartition(criterion: Criterion, basis: Basis) -> Bipartition:
    """Exhaustively classify every basis configuration; a symmetrized
    criterion ORs its base criterion's mask over the group images."""
    if isinstance(criterion, SymmetrizedCriterion):
        base = bipartition(criterion.base, basis).mask
        mask = np.zeros(basis.size, dtype=bool)
        for perm in criterion.permutations:
            mask |= base[permutation_indices(perm, basis)]
        return Bipartition(mask)
    mask = np.fromiter(
        (bool(criterion.evaluate(cfg, basis.grid, basis.particles))
         for cfg in basis.configurations), dtype=bool, count=basis.size)
    return Bipartition(mask)


@dataclass(frozen=True)
class CriterionSymmetryResult:
    symmetric: bool
    counterexample: Optional[tuple[Permutation, Configuration]]
    checked: int
    sampled: bool


def validate_symmetric(criterion: Criterion,
                       declaration: SymmetryDeclaration, basis: Basis,
                       exhaustive_limit: int = EXHAUSTIVE_LIMIT,
                       n_samples: int = SAMPLE_DRAWS,
                       seed: int = 0) -> CriterionSymmetryResult:
    """Check criterion invariance under the generator permutations.

    Invariance under the generators implies invariance under the whole
    group. Bases up to ``exhaustive_limit`` configurations are checked
    exhaustively; larger ones by seeded uniform sampling, returning the
    first violating (permutation, configuration) found.
    """
    gens = generators(declaration)
    if basis.size <= exhaustive_limit:
        mask = bipartition(criterion, basis).mask
        first, culprit = basis.size, None
        for gen in gens:
            pi = permutation_indices(gen, basis)
            moved = np.flatnonzero(mask[pi] != mask)
            if moved.size and moved[0] < first:
                first, culprit = int(moved[0]), gen
        if culprit is None:
            return CriterionSymmetryResult(True, None, basis.size, False)
        return CriterionSymmetryResult(
            False, (culprit, basis.configuration_at(first)), first + 1, False)
    rng = np.random.default_rng(seed)
    for checked, i in enumerate(rng.integers(0, basis.size, size=n_samples),
                                start=1):
        cfg = basis.configuration_at(int(i))
        ref = criterion.evaluate(cfg, basis.grid, basis.particles)
        for gen in gens:
            image = gen.apply_to_configuration(cfg)
            if criterion.evaluate(image, basis.grid, basis.particles) != ref:
                return CriterionSymmetryResult(False, (gen, cfg),
                                               checked, True)
    return CriterionSymmetryResult(True, None, n_samples, True)


def symmetry_breaking_witness(criterion: Criterion,
                              declaration: SymmetryDeclaration,
                              basis: Basis,
                              seed: int = 0):
    """Constructive necessity witness for a non-symmetric criterion.

    From a violating configuration, build its (anti)symmetrized state,
    project it onto the accepted block (the rejected one if A holds no
    weight) and return the unit vector (the caller scores its symmetry
    deviation). Returns None when the criterion validates as symmetric.
    """
    result = validate_symmetric(criterion, declaration, basis, seed=seed)
    if result.symmetric:
        return None
    _, cfg = result.counterexample
    vec = np.zeros(basis.size, dtype=complex)
    vec[basis.index_of(cfg)] = 1.0
    state = DensityMatrix.from_pure(antisymmetrize(vec, declaration, basis))
    mask = bipartition(criterion, basis).mask
    _, post = state.mapped(row_scaling(mask))
    if post is None:
        _, post = state.mapped(row_scaling(~mask))
    return post.vector

"""Exchange symmetry: permutation operators and (anti)symmetrizers.

Identical-particle sets are declared as register-index sets, Bosonic
(symmetrize) or Fermionic (antisymmetrize, with the permutation sign).
A permutation acts on a configuration by permuting register slots,
carrying grid label and spin label jointly. Group sums are explicit, so
declared sets are capped at 5 registers (120 terms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidPermutation, VanishingNorm
from .evolution import DensityMatrix
from .grid import Basis, Configuration, ParticleSet

MAX_SET_SIZE = 5
VANISHING_TOL = 1e-12


@dataclass(frozen=True)
class SymmetryDeclaration:
    """Register sets to symmetrize ({B_i}) and antisymmetrize ({F_i})."""

    bosonic_sets: tuple[tuple[int, ...], ...] = ()
    fermionic_sets: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        bos = tuple(tuple(sorted(int(i) for i in s)) for s in self.bosonic_sets)
        fer = tuple(tuple(sorted(int(i) for i in s)) for s in self.fermionic_sets)
        object.__setattr__(self, "bosonic_sets", bos)
        object.__setattr__(self, "fermionic_sets", fer)
        seen: set[int] = set()
        for s in bos + fer:
            if len(s) > MAX_SET_SIZE:
                raise ValueError(
                    f"declared set {s} exceeds {MAX_SET_SIZE} registers")
            if dup := [r for r, nxt in zip(s, s[1:]) if r == nxt]:
                raise ValueError(f"declared set {s} repeats register {dup[0]}")
            if seen & set(s):
                raise ValueError("declared register sets must be disjoint")
            seen |= set(s)

    @property
    def all_sets(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(registers, fermionic_flag) pairs for every declared set."""
        return tuple([(s, 0) for s in self.bosonic_sets]
                     + [(s, 1) for s in self.fermionic_sets])

    def check_against(self, particles: ParticleSet) -> None:
        """Same-species (mass and charge) membership within each set."""
        for s, _ in self.all_sets:
            for r in s:
                if not 0 <= r < particles.n_particles:
                    raise ValueError(f"register {r} out of range")
            species = {(particles.mass(r), particles.charge(r),
                        particles.is_nucleus(r)) for r in s}
            if len(species) > 1:
                raise ValueError(f"set {s} mixes particle species")


def _parity(seq: Sequence[int]) -> int:
    """(-1) ** (number of inversions)."""
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


@dataclass(frozen=True)
class Permutation:
    """Register permutation with the sign of its Fermionic component.

    ``moves`` maps register -> image on the moved registers only;
    unlisted registers stay fixed. The induced action on configurations
    is slot k receives the content of slot sigma(k).
    """

    moves: tuple[tuple[int, int], ...] = ()
    sign: int = 1

    def __post_init__(self):
        moves = tuple(sorted((int(a), int(b)) for a, b in self.moves))
        object.__setattr__(self, "moves", moves)
        src = [a for a, _ in moves]
        dst = [b for _, b in moves]
        if len(set(src)) != len(src) or sorted(src) != sorted(dst):
            raise InvalidPermutation(f"moves {moves} are not a bijection")
        if self.sign not in (-1, 1):
            raise InvalidPermutation("sign must be +1 or -1")

    @classmethod
    def identity(cls) -> "Permutation":
        return cls((), 1)

    @classmethod
    def transposition(cls, a: int, b: int, fermionic: bool) -> "Permutation":
        return cls(((a, b), (b, a)), -1 if fermionic else 1)

    def __call__(self, register: int) -> int:
        for a, b in self.moves:
            if a == register:
                return b
        return register

    def order(self, n_registers: int) -> list[int]:
        """Slot k of an image receives slot order[k]; a move outside
        the ``n_registers`` registers raises."""
        for a, _ in self.moves:
            if not 0 <= a < n_registers:
                raise InvalidPermutation(f"register {a} out of range")
        return [self(k) for k in range(n_registers)]

    def apply_to_configuration(self, config: Configuration) -> Configuration:
        labels = tuple(config.labels[self(k)] for k in range(len(config.labels)))
        spins = tuple(config.spins[self(k)] for k in range(len(config.spins)))
        return Configuration(labels, spins)


def _set_permutations(registers: tuple[int, ...],
                      fermionic: bool) -> list[Permutation]:
    perms = []
    for image in itertools.permutations(registers):
        moves = tuple((a, b) for a, b in zip(registers, image))
        order = [registers.index(b) for b in image]
        sign = _parity(order) if fermionic else 1
        perms.append(Permutation(moves, sign))
    return perms


def group_elements(declaration: SymmetryDeclaration) -> list[Permutation]:
    """All elements of the product group S_B (x) S_F, with signs."""
    factors = [_set_permutations(s, bool(f)) for s, f in declaration.all_sets]
    if not factors:
        return [Permutation.identity()]
    elements = []
    for combo in itertools.product(*factors):
        moves: list[tuple[int, int]] = []
        sign = 1
        for p in combo:
            moves.extend(p.moves)
            sign *= p.sign
        elements.append(Permutation(tuple(moves), sign))
    return elements


def generators(declaration: SymmetryDeclaration) -> list[Permutation]:
    """Adjacent transpositions within each declared set."""
    gens = []
    for s, fermionic in declaration.all_sets:
        for a, b in zip(s, s[1:]):
            gens.append(Permutation.transposition(a, b, bool(fermionic)))
    return gens


def permutation_indices(perm: Permutation, basis: Basis) -> np.ndarray:
    """Index array pi with U_sigma e_i = e_{pi[i]}; applying U to a
    vector is the scatter out[pi] = vec."""
    order = perm.order(basis.particles.n_particles)
    return basis.index(basis.labels[:, order], basis.spins[:, order])


def permutation_matrix(perm: Permutation, basis: Basis) -> np.ndarray:
    """0/1 unitary implementing the register permutation on the basis."""
    idx = permutation_indices(perm, basis)
    mat = np.zeros((basis.size, basis.size))
    mat[idx, np.arange(basis.size)] = 1.0
    return mat


def apply_permutation(perm: Permutation, basis: Basis,
                      array: np.ndarray) -> np.ndarray:
    """U_sigma vec, or U_sigma rho U_sigma^dag on a square array, done by
    index scatter instead of a dense matrix product."""
    idx = permutation_indices(perm, basis)
    out = np.empty_like(np.asarray(array, dtype=complex))
    if array.ndim == 1:
        out[idx] = array
    else:
        out[np.ix_(idx, idx)] = array
    return out


def _apply_projector(declaration: SymmetryDeclaration, basis: Basis,
                     array: np.ndarray) -> np.ndarray:
    """Per declared set, (1/sqrt(k!)) sum_sigma sgn(sigma) U_sigma
    applied along axis 0."""
    out = np.asarray(array, dtype=complex)
    for s, fermionic in declaration.all_sets:
        perms = _set_permutations(s, bool(fermionic))
        summed = np.zeros_like(out)
        for p in perms:
            summed[permutation_indices(p, basis)] += p.sign * out
        out = summed / np.sqrt(len(perms))
    return out


def antisymmetrize(state, declaration: SymmetryDeclaration, basis: Basis):
    """Project onto the declared exchange sector and renormalize.

    Accepts a unit state vector (returns a read-only unit vector) or a
    DensityMatrix (returns one, a pure one still pure); both go through
    ``DensityMatrix.mapped``. Raises VanishingNorm when the projected
    weight (squared norm, or trace) is below VANISHING_TOL, e.g. for two
    Fermions sharing label and spin.
    """
    vector_in = not isinstance(state, DensityMatrix)
    if vector_in:
        state = DensityMatrix.from_pure(state)
    weight, post = state.mapped(
        lambda x: _apply_projector(declaration, basis, x))
    if weight < VANISHING_TOL:
        raise VanishingNorm("symmetrization annihilated the state")
    return post.vector if vector_in else post


@dataclass(frozen=True)
class SymmetryReport:
    """Worst-case deviation from the declared exchange sector."""

    max_deviation: float


def symmetry_check(state, declaration: SymmetryDeclaration,
                   basis: Basis) -> SymmetryReport:
    """Largest deviation under the generator permutations.

    A vector (raw, or a pure state's) is scored with the 2-norm of
    U psi - sgn psi, so the exchange sign counts; a mixed state's matrix
    with the max-entry norm of U rho U^dag - rho.
    """
    x = state.array if isinstance(state, DensityMatrix) \
        else np.asarray(state, dtype=complex).ravel()
    worst = 0.0
    for gen in generators(declaration):
        moved = apply_permutation(gen, basis, x)
        dev = float(np.linalg.norm(moved - gen.sign * x) if x.ndim == 1
                    else np.max(np.abs(moved - x)))
        worst = max(worst, dev)
    return SymmetryReport(worst)

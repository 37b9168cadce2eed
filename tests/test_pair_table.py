"""The criteria pair table: each nucleus-pair distance is computed once
per table, and the masks it serves for a register remap equal the
public ``accepts`` of the remapped (copied) label rows."""

import json
from pathlib import Path

import numpy as np
import pytest

from mergosim import criteria
from mergosim.criteria import (CriterionSymmetryResult, GeometricCriterion,
                               SymmetrizedCriterion, symmetrize_criterion,
                               validate_symmetric)
from mergosim.grid import GridSpec, ParticleSet, enumerate_basis
from mergosim.symmetry import (SymmetryDeclaration, generators,
                               group_elements)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

H2O2 = ParticleSet(n_el=0, nuclear_masses=(29164.0, 29164.0, 1836.0, 1836.0),
                   nuclear_charges=(8.0, 8.0, 1.0, 1.0))
H2O2_DECLARATION = SymmetryDeclaration(bosonic_sets=((0, 1),),
                                       fermionic_sets=((2, 3),))
# the bench's validate_measure geometry: n = 5^4 = 625, checked exhaustively
BENCH_GRID = GridSpec(5, 1, 5.0)
BENCH_BONDS = GeometricCriterion("equilibrium", ((0, 2, 100.0, 17.0),
                                                 (1, 3, 100.0, 17.0),
                                                 (0, 1, 155.0, 17.0)), "pm")
SPIN_ELECTRON_THREE_NUCLEI = ParticleSet(
    n_el=1, nuclear_masses=(1836.0,) * 3, nuclear_charges=(1.0,) * 3,
    electron_spin=True)

# name -> (grid, particles, declaration, criterion)
CASES = {
    "h2o2_bench": (BENCH_GRID, H2O2, H2O2_DECLARATION, BENCH_BONDS),
    "h2o2_proximity": (BENCH_GRID, H2O2, H2O2_DECLARATION,
                       GeometricCriterion("proximity", ((0, 2, 1.5),
                                                        (3, 1, 2.5)))),
    "1d_spin_electron_three_nuclei": (
        BENCH_GRID, SPIN_ELECTRON_THREE_NUCLEI,
        SymmetryDeclaration(fermionic_sets=((1, 2, 3),)),
        GeometricCriterion("equilibrium", ((0, 2, 2.0, 0.1),
                                           (2, 1, 1.0, 0.1)))),
    "2d_spin_electron_three_nuclei": (
        GridSpec(3, 2, 4.0), SPIN_ELECTRON_THREE_NUCLEI,
        SymmetryDeclaration(bosonic_sets=((1, 2, 3),)),
        GeometricCriterion("equilibrium", ((0, 2, 3.77, 0.05),
                                           (2, 1, 1.9, 0.5)))),
}


def h2o2_config():
    """The shipped validate_h2o2 basis, declaration and criterion."""
    cfg = json.loads((CONFIG_DIR / "validate_h2o2.json").read_text())
    particles = dict(cfg["particles"])
    cap = particles.pop("cap")
    basis = enumerate_basis(GridSpec(**cfg["grid"]), ParticleSet(**particles),
                            cap=cap)
    declaration = SymmetryDeclaration(**cfg["symmetry"])
    row = cfg["criteria"][0]
    criterion = GeometricCriterion(row["mode"], row["pairs"], row["unit"])
    return basis, declaration, criterion


@pytest.fixture
def distances(monkeypatch):
    """The register pairs the table computes a distance for, in order."""
    pairs = []
    helper = criteria._pair_distance

    def counted(coords, a, b):
        pairs.append((a, b))
        return helper(coords, a, b)

    monkeypatch.setattr(criteria, "_pair_distance", counted)
    return pairs


def test_bench_validation_computes_each_pair_distance_once(distances):
    """Symmetrized, 3 rows x 4 group elements x 3 constraints would be 36
    distances; four nuclei have 6 pairs."""
    basis = enumerate_basis(BENCH_GRID, H2O2)
    criterion = symmetrize_criterion(BENCH_BONDS, H2O2_DECLARATION)
    result = validate_symmetric(criterion, H2O2_DECLARATION, basis)
    assert result == CriterionSymmetryResult(True, None, basis.size)
    assert len(distances) == len(set(distances)) <= 6


def test_shipped_validation_computes_each_pair_distance_once(distances):
    """Unsymmetrized, the rows and two generator images need 9 constraint
    distances over 5 distinct pairs."""
    basis, declaration, criterion = h2o2_config()
    result = validate_symmetric(criterion, declaration, basis)
    assert (result.symmetric, result.checked) == (False, 255)
    assert len(distances) == len(set(distances)) <= 5


def test_a_pair_and_its_reverse_share_one_distance(distances):
    basis = enumerate_basis(BENCH_GRID, H2O2)
    criterion = GeometricCriterion("proximity", ((0, 1, 2.5), (1, 0, 3.5)))
    mask = criterion.accepts(basis.labels, basis.grid, basis.particles)
    assert distances == [(0, 1)]
    d = np.abs(basis.labels[:, 0, 0] - basis.labels[:, 1, 0]) * 1.0
    assert np.array_equal(mask, d <= 2.5)


def copied_validation(criterion, declaration, basis):
    """validate_symmetric with each generator image a copy of the label
    rows, classified by the public ``accepts``."""
    gens = generators(declaration)
    labels = basis.labels
    grid, particles = basis.grid, basis.particles
    ref = criterion.accepts(labels, grid, particles)
    first, culprit = basis.size, None
    for gen in gens:
        image = labels[:, gen.order(particles.n_particles)]
        moved = np.flatnonzero(criterion.accepts(image, grid, particles)
                               != ref)
        if moved.size and moved[0] < first:
            first, culprit = int(moved[0]), gen
    if culprit is None:
        return CriterionSymmetryResult(True, None, basis.size)
    return CriterionSymmetryResult(
        False, (culprit, basis.configuration_at(first)), first + 1)


def criteria_of(criterion, declaration):
    """The criterion, its symmetrization, and an OR over two group
    elements only: an image of that one depends on how its register
    order composes with each element's."""
    some = tuple(group_elements(declaration))[1:3]
    return (criterion, symmetrize_criterion(criterion, declaration),
            SymmetrizedCriterion(criterion, some))


@pytest.mark.parametrize("name", list(CASES))
def test_table_masks_equal_accepts_on_copied_images(name):
    """Every group element, generator and generator-then-element order
    read through one table equals ``accepts`` on the copied image."""
    grid, particles, declaration, criterion = CASES[name]
    labels = enumerate_basis(grid, particles, cap=20_000).labels
    n_part = particles.n_particles
    gens = [g.order(n_part) for g in generators(declaration)]
    elements = [e.order(n_part) for e in group_elements(declaration)]
    orders = elements + gens + [[g[p] for p in e]
                                for g in gens for e in elements]
    for crit in criteria_of(criterion, declaration):
        table = criteria._PairTable(labels, grid, particles)
        for order in orders:
            assert np.array_equal(
                crit._accepts_on(table, order),
                crit.accepts(labels[:, order], grid, particles))


@pytest.mark.parametrize("name", list(CASES))
def test_validation_equals_the_copied_image_loop(name):
    grid, particles, declaration, criterion = CASES[name]
    basis = enumerate_basis(grid, particles, cap=20_000)
    found = set()
    for crit in criteria_of(criterion, declaration):
        result = validate_symmetric(crit, declaration, basis)
        assert result == copied_validation(crit, declaration, basis)
        found.add(result.symmetric)
    assert found == {False, True}


def test_shipped_validation_equals_the_copied_image_loop():
    basis, declaration, criterion = h2o2_config()
    for crit in criteria_of(criterion, declaration):
        assert validate_symmetric(crit, declaration, basis) == \
            copied_validation(crit, declaration, basis)

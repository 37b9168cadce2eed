"""The criterion array kernel against the per-configuration oracle in
``basis_oracle``, compared for exact equality, and a guard that the CLI's
criterion paths never fall back to classifying one configuration at a
time."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basis_oracle as oracle
from mergosim.cli import main
from mergosim.criteria import (CriterionSymmetryResult, GeometricCriterion,
                               bipartition, symmetrize_criterion,
                               validate_symmetric)
from mergosim.grid import (Basis, Configuration, GridSpec, ParticleSet,
                           enumerate_basis)
from mergosim.symmetry import SymmetryDeclaration, generators
from mergosim.units import BOHR_PM, unit_convert

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MAX_BASIS = 1500


def lattice_distance(grid, a, b):
    """Distance between two lattice labels, computed as the oracle does."""
    return float(np.linalg.norm(np.array(a, dtype=float) * grid.spacing
                                - np.array(b, dtype=float) * grid.spacing))


def in_unit(bohr, unit):
    """``bohr`` written in ``unit``: in pm, a float within a few ulps of
    bohr * BOHR_PM that converts back to exactly ``bohr`` when one does."""
    if unit == "bohr":
        return bohr
    value = bohr * BOHR_PM
    for k in (0, -1, 1, -2, 2, -3, 3):
        candidate = value + k * np.spacing(value)
        if unit_convert(candidate, "pm", "bohr") == bohr:
            return candidate
    return value


@st.composite
def criterion_cases(draw):
    """(grid, particles, criterion, declaration) on a basis of at most
    MAX_BASIS configurations. Thresholds are mostly distances between two
    lattice points, so some configurations sit exactly on them."""
    dims = draw(st.integers(1, 3))
    n_nuc = draw(st.integers(2, 3 if dims < 3 else 2))
    particles = ParticleSet(
        n_el=draw(st.integers(0, 1 if dims < 3 else 0)),
        nuclear_masses=(1836.0,) * n_nuc, nuclear_charges=(1.0,) * n_nuc,
        electron_spin=draw(st.booleans()), nuclear_spin=draw(st.booleans()))
    spinful = sum(map(particles.has_spin, range(particles.n_particles)))
    sizes = [m for m in (3, 5) if m ** (dims * particles.n_particles)
             * 2 ** spinful <= MAX_BASIS] or [1]
    grid = GridSpec(draw(st.sampled_from(sizes)), dims,
                    draw(st.floats(0.5, 12.0)))
    label = st.tuples(*[st.integers(-grid.max_label, grid.max_label)] * dims)

    def distance():
        """Mostly a lattice distance; a free one where that is zero."""
        d = lattice_distance(grid, draw(label), draw(label))
        if d > 0 and draw(st.integers(0, 3)):
            return d
        return draw(st.floats(0.01, 20.0))

    mode = draw(st.sampled_from(["equilibrium", "proximity"]))
    unit = draw(st.sampled_from(["bohr", "pm"]))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        j, k = draw(st.lists(st.integers(0, n_nuc - 1), min_size=2,
                             max_size=2, unique=True))
        target = in_unit(distance(), unit)
        if mode == "proximity":
            rows.append((j, k, target))
            continue
        # a tolerance that puts a second lattice distance on the edge
        tol = abs(distance() - unit_convert(target, unit, "bohr"))
        rows.append((j, k, target, in_unit(tol if tol > 0 else draw(
            st.floats(0.01, 5.0)), unit)))
    criterion = GeometricCriterion(mode, tuple(rows), unit)

    registers = draw(st.lists(st.integers(0, particles.n_particles - 1),
                              min_size=2, max_size=3, unique=True))
    sets = (tuple(registers),)
    declaration = (SymmetryDeclaration(fermionic_sets=sets)
                   if draw(st.booleans())
                   else SymmetryDeclaration(bosonic_sets=sets))
    return grid, particles, criterion, declaration


@settings(max_examples=100, deadline=None)
@given(criterion_cases())
def test_kernel_equals_per_configuration_oracle(case):
    grid, particles, criterion, declaration = case
    basis = enumerate_basis(grid, particles)
    configs = oracle.enumerate_configurations(grid, particles)
    gens = generators(declaration)
    orders = [[g(k) for k in range(particles.n_particles)] for g in gens]
    for crit in (criterion, symmetrize_criterion(criterion, declaration)):
        def evaluate(cfg):
            return oracle.accepts(crit, grid, particles, cfg)

        expected = [evaluate(cfg) for cfg in configs]
        assert np.array_equal(bipartition(crit, basis).mask, expected)
        result = validate_symmetric(crit, declaration, basis)
        first = oracle.first_violation(evaluate, configs, orders)
        assert result.symmetric == (first is None)
        if first is not None:
            assert result.checked == first[0] + 1
            assert result.counterexample[0] == gens[first[1]]


# with a BLAS dot product that fuses multiply and add (OpenBLAS on x86-64),
# these spacings give 2D and 3D lattice vectors whose np.linalg.norm
# differs in the last bit from a plain sum of squares; there only the
# same dot product passes
@pytest.mark.parametrize("grid", [GridSpec(9, 1, 6.1), GridSpec(5, 2, 2.84),
                                  GridSpec(3, 3, 6.08)])
def test_every_lattice_distance_is_an_exact_tie(grid):
    """Each configuration's own distance as a proximity threshold: the
    kernel accepts it there and rejects it one float lower, as the oracle
    does, so every kernel distance equals the oracle's norm bit for bit."""
    particles = ParticleSet(n_el=0, nuclear_masses=(1836.0, 1836.0),
                            nuclear_charges=(1.0, 1.0))
    basis = enumerate_basis(grid, particles)
    configs = oracle.enumerate_configurations(grid, particles)
    for row, cfg in zip(basis.labels, configs):
        d = lattice_distance(grid, *cfg[0])
        for threshold in (d, np.nextafter(d, 0.0)) if d > 0 else ():
            crit = GeometricCriterion("proximity", ((0, 1, threshold),))
            assert crit.accepts(row[None], grid, particles)[0] == \
                oracle.accepts(crit, grid, particles, cfg) == (threshold == d)


def per_configuration_validation(criterion, declaration, basis):
    """validate_symmetric one configuration at a time through the oracle:
    the first configuration that a generator (the first such, on a tie)
    moves across the split."""
    gens = generators(declaration)
    grid, particles = basis.grid, basis.particles
    configs = oracle.enumerate_configurations(grid, particles)
    orders = [[g(k) for k in range(particles.n_particles)] for g in gens]
    first = oracle.first_violation(
        lambda cfg: oracle.accepts(criterion, grid, particles, cfg),
        configs, orders)
    if first is None:
        return CriterionSymmetryResult(True, None, len(configs))
    row, g = first
    labels, spins = configs[row]
    return CriterionSymmetryResult(
        False, (gens[g], Configuration(labels, spins)), row + 1)


H2O2 = ParticleSet(n_el=0, nuclear_masses=(29164.0, 29164.0, 1836.0, 1836.0),
                   nuclear_charges=(8.0, 8.0, 1.0, 1.0))
H2O2_DECLARATION = SymmetryDeclaration(bosonic_sets=((0, 1),),
                                       fermionic_sets=((2, 3),))
H2O2_BONDS = GeometricCriterion("equilibrium", ((0, 2, 100.0, 30.0),
                                                (1, 3, 100.0, 30.0),
                                                (0, 1, 150.0, 30.0)), "pm")
SPIN_ELECTRON_THREE_NUCLEI = ParticleSet(
    n_el=1, nuclear_masses=(1836.0,) * 3, nuclear_charges=(1.0,) * 3,
    electron_spin=True)

# (grid, particles, declaration, criterion): register-ordered criteria
# that break the symmetry, two of them on only a few per cent of the
# configurations, and their symmetrized repairs, which hold on every
# one. The 2D basis has 13,122 configurations and the shipped
# validate_h2o2 one 6,561.
GEOMETRIES = {
    "h2o2_bonds": (GridSpec(5, 1, 5.0), H2O2, H2O2_DECLARATION, H2O2_BONDS),
    "h2o2_two_stretched_bonds": (
        GridSpec(5, 1, 5.0), H2O2, H2O2_DECLARATION,
        GeometricCriterion("equilibrium", ((0, 2, 4.0, 0.1),
                                           (1, 3, 4.0, 0.1)))),
    "2d_spin_electron_three_nuclei": (
        GridSpec(3, 2, 4.0), SPIN_ELECTRON_THREE_NUCLEI,
        SymmetryDeclaration(bosonic_sets=((1, 2),)),
        # opposite lattice corners, 2 sqrt(2) * 4/3 Bohr apart
        GeometricCriterion("equilibrium", ((0, 2, 3.77, 0.05),))),
    "h2o2_shipped": (
        GridSpec(9, 1, 9.0), H2O2, H2O2_DECLARATION,
        GeometricCriterion("equilibrium", ((0, 2, 95.0, 13.23),
                                           (1, 3, 95.0, 13.23),
                                           (0, 1, 147.0, 13.23)), "pm")),
}


@pytest.mark.parametrize("name", list(GEOMETRIES))
@pytest.mark.parametrize("symmetrized", [False, True])
def test_validation_equals_the_per_configuration_loop(name, symmetrized):
    grid, particles, declaration, criterion = GEOMETRIES[name]
    basis = enumerate_basis(grid, particles, cap=20_000)
    if symmetrized:
        criterion = symmetrize_criterion(criterion, declaration)
    result = validate_symmetric(criterion, declaration, basis)
    assert result == per_configuration_validation(criterion, declaration,
                                                  basis)
    assert result.symmetric == symmetrized


def validate_measure_config(m=5):
    """Four nuclei in 1D (n = m^4 = 625): a symmetrized H2O2 bond
    criterion to validate and an O-O proximity criterion to measure."""
    return {
        "schema_version": 1, "seed": 5,
        "grid": {"points_per_axis": m, "dims": 1, "box_length": float(m)},
        "particles": {"n_el": 0,
                      "nuclear_masses": [29164.0, 29164.0, 1836.0, 1836.0],
                      "nuclear_charges": [8.0, 8.0, 1.0, 1.0]},
        "symmetry": {"bosonic_sets": [[0, 1]], "fermionic_sets": [[2, 3]]},
        "criteria": [
            {"id": "h2o2", "mode": "equilibrium", "unit": "pm",
             "pairs": [[0, 2, 100.0, 17.0], [1, 3, 100.0, 17.0],
                       [0, 1, 155.0, 17.0]]},
            {"id": "oo_bond", "mode": "proximity", "unit": "pm",
             "pairs": [[0, 1, 172.0]]}],
        "validate": {"criterion": "h2o2", "symmetrize": True},
        "measure": {"criterion": "oo_bond", "delta": 0.6,
                    "initial": {"kind": "uniform"}},
    }


def test_cli_criterion_paths_classify_no_single_configuration(
        tmp_path, monkeypatch, capsys):
    """``measure`` and ``validate`` evaluate no criterion one
    configuration at a time and build at most one Configuration (the
    reported counterexample)."""
    calls = dict.fromkeys(["evaluate", "configuration_at"], 0)

    def counted(key, method):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GeometricCriterion, "evaluate",
                        counted("evaluate", GeometricCriterion.evaluate))
    monkeypatch.setattr(Basis, "configuration_at",
                        counted("configuration_at", Basis.configuration_at))

    generated = validate_measure_config()
    plain = dict(generated, validate={"criterion": "h2o2",
                                      "symmetrize": False})
    runs = [("measure", str(CONFIG_DIR / "measure_bond.json")),
            ("validate", str(CONFIG_DIR / "validate_h2o2.json"))]
    for name, cfg in (("generated", generated), ("plain", plain)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs += [("validate", str(path)), ("measure", str(path))]
    for command, path in runs:
        calls.update(evaluate=0, configuration_at=0)
        code = main([command, "--config", path,
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 0
        assert calls["evaluate"] == 0, (command, path)
        assert calls["configuration_at"] <= 1, (command, path)

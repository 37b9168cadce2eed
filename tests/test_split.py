"""The structured H(s), its matrix-free product, Lanczos ground state,
split-operator propagation and both fixed-s autocorrelation paths, pinned
to the dense oracle: the four dense blocks the command line used to
assemble, dense eigendecompositions and exponentials of ``build_kinetic``,
the midpoint-rule path and the exact autocorrelation sum with one phase
per sample and level (``phase_sum``)."""

import ast
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergosim.cli import (_CONFIG, _build_basis, _build_scheduled_hamiltonian,
                          _initial_vector, _typed, main)
from mergosim.errors import DimensionCapExceeded
from mergosim.evolution import (DensityMatrix, _bessel_order,
                                _chebyshev_autocorrelation,
                                _chebyshev_moments, _chebyshev_plan,
                                _chebyshev_series,
                                _dense_autocorrelation,
                                _smooth_length, _spectral_interval,
                                autocorrelation,
                                default_step_count, ground_state,
                                hermitian_eigh, propagate)
from mergosim.grid import GridSpec, ParticleSet, enumerate_basis
from mergosim.hamiltonian import (OperatorBlock, Schedule,
                                  ScheduledHamiltonian,
                                  StructuredHamiltonian, TrapSpec,
                                  build_coulomb, build_kinetic, build_trap,
                                  zero_block)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EVOLUTION = CONFIG_DIR.parent / "src" / "mergosim" / "evolution.py"


def shipped(name):
    return json.loads((CONFIG_DIR / name).read_text())


def light_merge(m=11):
    """Two light nuclei of opposite charge merging in a soft 1D trap."""
    return {
        "schema_version": 1,
        "grid": {"points_per_axis": m, "dims": 1, "box_length": float(m)},
        "particles": {"n_el": 0, "nuclear_masses": [4.7, 5.3],
                      "nuclear_charges": [1.0, -1.0]},
        "hamiltonian": {"subsystem_a": [0], "subsystem_b": [1],
                        "softening": 1.1,
                        "trap": {"centers": [[-2.0], [2.0]], "omega": 0.15}},
        "schedule": {"s0": 4.0, "s1": 8.0, "f_shape": "smoothstep",
                     "g_shape": "smoothstep"},
    }


def spinful_2d():
    """A spin electron and a nucleus on a 2D lattice, anisotropic trap."""
    return {
        "schema_version": 1,
        "grid": {"points_per_axis": 3, "dims": 2, "box_length": 4.0},
        "particles": {"n_el": 1, "nuclear_masses": [30.0],
                      "nuclear_charges": [1.0], "electron_spin": True},
        "hamiltonian": {"subsystem_a": [1], "subsystem_b": [0],
                        "trap": {"centers": [[0.5, -0.4]],
                                 "frequencies": [[0.3, 0.2]]}},
        "schedule": {"s0": 1.0, "s1": 3.0, "f_shape": "linear",
                     "g_shape": "smoothstep"},
    }


CASES = {
    "evolve_salt_1d": lambda: shipped("evolve_salt_1d.json"),
    "evolve_flat": lambda: shipped("evolve_flat.json"),
    "light_merge": light_merge,
    "spinful_2d": spinful_2d,
}


def build(raw):
    """The typed config, its basis and the structured H the CLI builds."""
    cfg = _typed(raw, _CONFIG, "config")
    basis = _build_basis(cfg)
    return cfg, basis, _build_scheduled_hamiltonian(cfg, basis)


def dense_assembly(cfg, basis, schedule):
    """The four dense blocks summed from zero blocks, as the command line
    built H(s) before it kept the structure."""
    sec = cfg["hamiltonian"]
    regs = list(range(basis.particles.n_particles))
    sub_a = sec["subsystem_a"] if sec["subsystem_a"] is not None else regs
    sub_b = sec["subsystem_b"]
    softening = sec["softening"] if sec["softening"] is not None \
        else basis.grid.spacing

    def fragment(registers):
        block = zero_block(basis.size)
        if sec["include_kinetic"] and registers:
            block = block + build_kinetic(basis, registers)
        pairs = [(i, j) for i in registers for j in registers if i < j]
        if sec["include_coulomb"] and pairs:
            block = block + build_coulomb(basis, softening, pairs)
        return block

    cross = [(i, j) for i in sub_a for j in sub_b]
    h_ab = build_coulomb(basis, softening, cross) \
        if sec["include_coulomb"] and cross else zero_block(basis.size)
    trap = sec["trap"]
    if trap is None:
        v_trap = zero_block(basis.size)
    elif "omega" in trap:
        v_trap = build_trap(basis, TrapSpec.isotropic_spec(**trap))
    else:
        v_trap = build_trap(basis, TrapSpec(**trap))
    return ScheduledHamiltonian(fragment(sub_a), fragment(sub_b), h_ab,
                                v_trap, schedule)


def dense_ground_state(sh, s=0.0):
    return hermitian_eigh(sh.dense(s))[1][:, 0].astype(complex)


@pytest.mark.parametrize("case", sorted(CASES))
def test_structured_evaluate_matches_dense_assembly(case):
    cfg, basis, sh = build(CASES[case]())
    dense = dense_assembly(cfg, basis, sh.schedule)
    s1 = sh.schedule.s1
    for s in (0.0, 0.21 * s1, sh.schedule.s0, 0.77 * s1, s1):
        diff = sh.dense(s) - dense.evaluate(s).matrix
        assert np.max(np.abs(diff)) <= 1e-12


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_count_read_without_dense_builds(case):
    cfg, basis, sh = build(CASES[case]())
    dense = dense_assembly(cfg, basis, sh.schedule)
    for s_from, s_to in ((0.0, sh.schedule.s1), (0.1, 0.6 * sh.schedule.s1)):
        assert default_step_count(sh, s_from, s_to) == \
            default_step_count(dense, s_from, s_to)


@pytest.mark.parametrize("grid, particles, registers", [
    pytest.param(GridSpec(7, 1, 5.0), ParticleSet(0, (3.0, 7.0), (1.0, 1.0)),
                 (0, 1), id="1d_two_registers"),
    pytest.param(GridSpec(5, 2, 4.0), ParticleSet(1), (0,), id="2d"),
    pytest.param(GridSpec(3, 2, 3.0),
                 ParticleSet(1, (20.0,), (1.0,), electron_spin=True,
                             nuclear_spin=True),
                 (1, 0), id="2d_spinful"),
    pytest.param(GridSpec(5, 1, 4.0),
                 ParticleSet(2, (9.0,), (1.0,), electron_spin=True),
                 (2, 0), id="1d_spinful_subset"),
])
def test_kinetic_factor_matches_dense_exponential(grid, particles, registers):
    basis = enumerate_basis(grid, particles)
    zeros = np.zeros(basis.size)
    sh = StructuredHamiltonian(basis, registers, zeros, zeros, zeros,
                               Schedule(0.5, 1.0))
    ds = 0.7
    w, v = np.linalg.eigh(build_kinetic(basis, registers).matrix)
    dense = (v * np.exp(-1j * w * ds)) @ v.conj().T
    split = sh.kinetic_propagator(ds)(np.eye(basis.size, dtype=complex))
    assert np.max(np.abs(split - dense)) <= 1e-12


def reversed_merge():
    """``light_merge`` with the fragments named in descending register
    order, so the kinetic axes run from the last tensor axis down."""
    raw = light_merge(9)
    raw["hamiltonian"].update(subsystem_a=[1], subsystem_b=[0])
    return raw


@pytest.mark.parametrize("case", [reversed_merge, spinful_2d])
def test_descending_kinetic_registers_match_the_dense_oracle(case):
    """Kinetic registers (1, 0): the product, the kinetic step and the
    Lanczos ground state against the dense blocks, whose kinetic terms
    are built one register at a time."""
    cfg, basis, sh = build(case())
    assert sh.kinetic_registers == (1, 0)
    dense = dense_assembly(cfg, basis, sh.schedule)
    ds = 0.7
    w, v = np.linalg.eigh(dense.h_a.matrix + dense.h_b.matrix)  # T
    step = (v * np.exp(-1j * w * ds)) @ v.conj().T
    eye = np.eye(basis.size, dtype=complex)
    assert np.max(np.abs(sh.kinetic_propagator(ds)(eye) - step)) <= 1e-12
    x = np.random.default_rng(0).normal(size=(basis.size, 3))
    for s in lanczos_points(sh.schedule):
        h = dense.evaluate(s).matrix
        assert np.max(np.abs(sh.product(sh.potential(s), x) - h @ x)) <= 1e-12
        energy, vec = ground_state(sh, s)
        assert abs(energy - np.linalg.eigvalsh(h)[0]) <= 1e-12
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-12


def test_evolution_leaves_the_stencil_to_hamiltonian():
    """The stencil has one home: ``evolution`` defines no DST-I helper or
    kinetic propagator and never reads the basis tensor shape."""
    tree = ast.parse(EVOLUTION.read_text())
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert not [name for name in defined
                if "dst" in name.lower() or "kinetic" in name.lower()]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "tensor_shape"]


def test_split_agrees_with_dense_on_the_salt_config():
    raw = shipped("evolve_salt_1d.json")
    cfg, basis, sh = build(raw)
    dense = dense_assembly(cfg, basis, sh.schedule)
    state = DensityMatrix.from_pure(dense_ground_state(sh))
    n_steps = raw["evolve"]["n_steps"]
    split = propagate(state, sh, 0.0, sh.schedule.s1, n_steps)
    oracle = propagate(state, dense, 0.0, sh.schedule.s1, n_steps)
    psi = split.final_state.vector
    fidelity = np.vdot(psi, oracle.final_state.matrix @ psi).real
    assert 1.0 - fidelity < 1e-8
    assert np.allclose(split.final_state.matrix, np.outer(psi, psi.conj()))


def test_split_steps_in_blocks_give_the_per_step_bits():
    """Phases taken for ROW_BLOCK midpoints at once (``potentials``, one
    exp) give the bits of one ``potential(s)`` and one exp per step, on
    a vector and on a density matrix, across several blocks."""
    _, _, sh = build(light_merge())
    n_steps, ds = 150, 8.0 / 150
    mids = (np.arange(n_steps) + 0.5) * ds
    assert all(np.array_equal(row, sh.potential(s))
               for row, s in zip(sh.potentials(mids), mids))
    kinetic = sh.kinetic_propagator(ds)
    psi = dense_ground_state(sh).astype(complex)
    rho = np.outer(psi, psi.conj())
    for s in mids:
        half = np.exp(-0.5j * ds * sh.potential(s))
        psi = half * kinetic(half * psi)
        rho = half[:, None] * kinetic(half[:, None] * rho)
        rho = half[:, None] * kinetic(half[:, None] * rho.conj().T)
    state = DensityMatrix.from_pure(dense_ground_state(sh))
    pure = propagate(state, sh, 0.0, 8.0, n_steps).final_state
    assert np.array_equal(pure.vector, psi)
    mixed = propagate(DensityMatrix.trusted(state.matrix), sh, 0.0, 8.0,
                      n_steps).final_state
    assert np.array_equal(mixed.matrix, rho)


def test_split_error_is_second_order():
    _, _, sh = build(light_merge())
    state = DensityMatrix.from_pure(dense_ground_state(sh))

    def final(n_steps):
        return propagate(state, sh, 0.0, sh.schedule.s1,
                         n_steps).final_state.vector

    reference = final(512)
    errors = [np.linalg.norm(final(n) - reference) for n in (8, 16)]
    assert 3.0 <= errors[0] / errors[1] <= 6.0


@st.composite
def structured_problems(draw):
    dims = draw(st.integers(1, 2))
    m = draw(st.sampled_from([1, 3, 5] if dims == 1 else [1, 3]))
    n_el = draw(st.integers(0, 2 if dims == 1 else 1))
    n_nuc = draw(st.integers(0 if n_el else 1, 2 - n_el))
    masses = tuple(draw(st.lists(st.floats(0.5, 50.0), min_size=n_nuc,
                                 max_size=n_nuc)))
    particles = ParticleSet(n_el, masses, (1.0,) * len(masses),
                            electron_spin=draw(st.booleans()),
                            nuclear_spin=draw(st.booleans()))
    basis = enumerate_basis(GridSpec(m, dims, float(m)), particles)
    registers = draw(st.lists(st.integers(0, particles.n_particles - 1),
                              unique=True))
    sh, psi = random_structured(basis, registers,
                                draw(st.integers(0, 2 ** 32 - 1)))
    return sh, psi, draw(st.integers(1, 12))


def random_structured(basis, registers, seed):
    """H(s) with normal random potentials on ``basis`` and a random unit
    complex vector."""
    rng = np.random.default_rng(seed)
    v_frag, v_ab, v_trap = rng.normal(scale=2.0, size=(3, basis.size))
    sh = StructuredHamiltonian(basis, registers, v_frag, v_ab, v_trap,
                               Schedule(0.6, 1.0, "smoothstep", "linear"))
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return sh, psi / np.linalg.norm(psi)


@st.composite
def dense_problems(draw):
    """Four random Hermitian blocks under a smoothstep/linear schedule."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = (rng.normal(size=(4, dim, dim))
            + 1j * rng.normal(size=(4, dim, dim)))
    blocks = [OperatorBlock(m + m.conj().T, "external") for m in mats]
    sh = ScheduledHamiltonian(*blocks,
                              Schedule(0.6, 1.0, "smoothstep", "linear"))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return sh, psi / np.linalg.norm(psi), draw(st.integers(1, 12))


def check_both_sides(sh, psi, n_steps):
    """A pure input comes back as a unit vector; the same state given as a
    mixed one comes back as its projector."""
    pure = propagate(DensityMatrix.from_pure(psi), sh, 0.0, 1.0, n_steps)
    final = pure.final_state.vector
    assert abs(np.linalg.norm(final) - 1.0) <= 1e-12
    assert pure.norm_drift <= 1e-12
    mixed = propagate(DensityMatrix.trusted(np.outer(psi, psi.conj())), sh,
                      0.0, 1.0, n_steps)
    assert mixed.final_state.vector is None
    assert np.max(np.abs(mixed.final_state.matrix
                         - np.outer(final, final.conj()))) <= 1e-12


@settings(max_examples=60)
@given(structured_problems())
def test_split_keeps_the_norm_and_matches_on_both_sides(problem):
    check_both_sides(*problem)


@settings(max_examples=60)
@given(dense_problems())
def test_dense_keeps_the_norm_and_matches_on_both_sides(problem):
    check_both_sides(*problem)


@settings(max_examples=60)
@given(structured_problems(), st.floats(0.0, 1.0), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_apply_matches_the_dense_matrix(problem, s, columns, seed):
    """product at v = potential(s) is H(s) x on vectors and on matrices;
    dense is a real, exactly symmetric matrix."""
    sh, psi, _ = problem
    block = sh.dense(s)
    assert np.array_equal(block, block.T)
    assert block.dtype == np.float64
    x = psi if columns == 0 else np.random.default_rng(seed).normal(
        size=(sh.dim, columns))
    assert np.max(np.abs(sh.product(sh.potential(s), x) - block @ x)) <= 1e-12


# Ground levels whose gap is at most DEGENERATE_GAP are degenerate:
# Lanczos returns one vector of the level. The listed cases are
# degenerate at every pinned s (evolve_flat has H = 0, spinful_2d's H
# ignores the spin); the others nowhere.
DEGENERATE_GAP = 1e-10
DEGENERATE = {"evolve_flat", "spinful_2d"}
LANCZOS_CASES = dict(CASES, merge_21=lambda: light_merge(21))


def lanczos_points(schedule):
    """The free start, the merge point, a point of the ramp and the end."""
    return (0.0, schedule.s0, 0.77 * schedule.s1, schedule.s1)


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_lanczos_ground_state_matches_dense(case):
    """At each pinned s: E0 to 1e-12, a unit eigenvector with positive
    largest component. On a degenerate level v lies in the level; else v
    is the dense column to 1e-10, or to the Davis-Kahan bound (twice the
    sum of both residuals over the gap) where that is larger: the salt
    geometry's lowest nine levels at s1 span 2e-6, its gap there is
    1.8e-7."""
    _, _, sh = build(LANCZOS_CASES[case]())
    degenerate = set()
    for s in lanczos_points(sh.schedule):
        energy, v = ground_state(sh, s)
        h = sh.dense(s)
        w, vecs = np.linalg.eigh(h)
        assert abs(energy - w[0]) <= 1e-12
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[np.argmax(np.abs(v))] > 0.0
        residual = np.linalg.norm(h @ v - energy * v)
        assert residual <= 1e-12
        level = vecs[:, w - w[0] <= DEGENERATE_GAP]
        if level.shape[1] > 1:
            degenerate.add(s)
            assert abs(np.linalg.norm(level.T @ v) - 1.0) <= 1e-12
            continue
        dense = level[:, 0] * np.sign(level[np.argmax(np.abs(level)), 0])
        residual += np.linalg.norm(h @ dense - w[0] * dense)
        assert np.linalg.norm(v - dense) <= \
            max(1e-10, 2.0 * residual / (w[1] - w[0]))
    assert degenerate == (set(lanczos_points(sh.schedule))
                          if case in DEGENERATE else set())


def test_lanczos_returns_the_start_projection_on_a_degenerate_level():
    """The start is positive and symmetric, so a degenerate level gives
    one fixed vector: evolve_flat (H = 0) the uniform vector, spinful_2d
    at s = 0 equal spin-up and spin-down components."""
    _, _, sh = build(shipped("evolve_flat.json"))
    energy, v = ground_state(sh, 0.0)
    assert energy == 0.0
    assert np.max(np.abs(v - 1.0 / np.sqrt(sh.dim))) <= 1e-15
    _, basis, sh = build(spinful_2d())
    _, v = ground_state(sh, 0.0)
    spin_axis = basis.tensor_axis(0, 0) + basis.grid.dims  # the electron
    up, down = np.moveaxis(v.reshape(basis.tensor_shape), spin_axis, 0)
    assert np.max(np.abs(up - down)) <= 1e-15
    assert abs(np.linalg.norm(up) ** 2 - 0.5) <= 1e-12


SPIN_AND_FREE = (
    enumerate_basis(GridSpec(3, 2, 3.0),
                    ParticleSet(1, (20.0,), (1.0,), electron_spin=True)),
    enumerate_basis(GridSpec(5, 1, 5.0), ParticleSet(1, (7.0,), (1.0,),
                                                     nuclear_spin=True)))


@settings(max_examples=60)
@given(structured_problems(), st.floats(0.0, 1.0))
@example(random_structured(SPIN_AND_FREE[0], (1, 0), 3) + (1,), 0.4)
@example(random_structured(SPIN_AND_FREE[1], (), 4) + (1,), 0.7)
def test_lanczos_matches_eigvalsh_on_random_problems(problem, s):
    """E0 to 1e-12 on random potentials, with spin axes (the first
    example) and without a kinetic term (the second)."""
    sh = problem[0]
    energy, _ = ground_state(sh, s)
    assert abs(energy - np.linalg.eigvalsh(sh.dense(s))[0]) <= 1e-12


def test_free_start_takes_one_lanczos_step(monkeypatch, tmp_path, capsys):
    """H(0) is the free stencil on evolve_salt_1d and on the merge
    geometry, so the start is the eigenvector: through a whole evolve run
    ground_state calls product twice, one Lanczos step and the residual
    check."""
    import mergosim.evolution as evolution
    inside, calls = [False], []
    product, ground = StructuredHamiltonian.product, evolution.ground_state

    def counted_product(self, v, x):
        calls.append(inside[0])
        return product(self, v, x)

    def marked_ground_state(sh, s):
        inside[0] = True
        try:
            return ground(sh, s)
        finally:
            inside[0] = False

    monkeypatch.setattr(StructuredHamiltonian, "product", counted_product)
    # cli imports ground_state when it builds the initial state
    monkeypatch.setattr(evolution, "ground_state", marked_ground_state)
    merge = tmp_path / "merge.json"
    merge.write_text(json.dumps(dict(bench_merge(0), seed=3)))
    for config in (merge, CONFIG_DIR / "evolve_salt_1d.json"):
        calls.clear()
        assert main(["evolve", "--config", str(config),
                     "--out", str(tmp_path / config.stem)]) == 0
        assert calls.count(True) == 2
    capsys.readouterr()


def test_excited_eigenstate_start_is_the_dense_column():
    _, basis, sh = build(light_merge())
    spec = {"kind": "eigenstate", "index": 1}
    dense = hermitian_eigh(sh.dense(0.0))[1][:, 1]
    assert np.array_equal(_initial_vector(spec, basis.size, sh, 0.0), dense)


def test_lanczos_rejects_a_non_hermitian_apply(monkeypatch, tmp_path, capsys):
    from mergosim.hamiltonian import StructuredHamiltonian as SH
    hermitian = SH.product  # the H(s) x that Lanczos runs
    monkeypatch.setattr(SH, "product", lambda self, v, x: hermitian(
        self, v, x) + 1e-3 * np.roll(x, 1, axis=0))
    code = main(["evolve", "--config", str(CONFIG_DIR / "evolve_salt_1d.json"),
                 "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 3
    assert record["status"] == "runtime_error"
    assert "Lanczos" in record["error"]


def test_eigenstate_start_and_propagation_stay_small():
    """n = 3969: the Lanczos start and an 8-step propagation of the pure
    state never hold an n x n array (one real one is 126 MB)."""
    _, _, sh = build(light_merge(63))
    assert sh.dim == 3969
    tracemalloc.start()
    try:
        _, v = ground_state(sh, 0.0)
        report = propagate(DensityMatrix.from_pure(v), sh, 0.0,
                           sh.schedule.s1, 8)
        assert abs(report.final_state.purity() - 1.0) <= 1e-12
        assert abs(report.final_state.trace() - 1.0) <= 1e-12
        assert "matrix" not in vars(report.final_state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


@pytest.mark.parametrize("m", [63, 65])
def test_dense_is_gated_by_the_cap(m, monkeypatch):
    """dense(s) goes on to build H(s) at n = 63**2 = 3969, below the cap
    4096, and at n = 65**2 = 4225 raises before anything is allocated
    (one real 4225 x 4225 array is 143 MB); the kinetic matrix, its first
    n x n array, is never built here."""
    from mergosim import hamiltonian

    def unbuilt(*args):
        raise AssertionError("the n x n kinetic matrix was built")

    monkeypatch.setattr(hamiltonian, "_kinetic_matrix", unbuilt)
    basis = enumerate_basis(GridSpec(m, 1, float(m)),
                            ParticleSet(0, (1836.0, 1836.0), (1.0, -1.0)),
                            cap=5000)
    zeros = np.zeros(basis.size)
    sh = StructuredHamiltonian(basis, (0, 1), zeros, zeros, zeros,
                               Schedule(1.0, 2.0))
    if m == 63:
        with pytest.raises(AssertionError, match="kinetic matrix"):
            sh.dense(1.0)
        return
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapExceeded) as caught:
            sh.dense(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == \
        "a dense 4225 x 4225 H(s) is above the cap 4096"
    assert peak < 2 ** 20


def test_lanczos_evaluates_the_schedule_a_fixed_number_of_times(monkeypatch):
    """V(s) is evaluated once per start, not once per Krylov step: starts
    that take different iteration counts read the schedule equally often."""
    calls = {"profiles": 0, "product": 0}
    profiles, product = Schedule.profiles, StructuredHamiltonian.product

    def counted_profiles(self, s):
        calls["profiles"] += 1
        return profiles(self, s)

    def counted_product(self, v, x):
        calls["product"] += 1
        return product(self, v, x)

    monkeypatch.setattr(Schedule, "profiles", counted_profiles)
    monkeypatch.setattr(StructuredHamiltonian, "product", counted_product)
    counts = []
    for m in (11, 31):
        _, _, sh = build(light_merge(m))
        calls.update(profiles=0, product=0)
        ground_state(sh, sh.schedule.s0)
        counts.append(dict(calls))
    assert counts[0]["product"] != counts[1]["product"]
    assert counts[0]["profiles"] == counts[1]["profiles"] <= 2


def bench_merge(seed, m=21):
    """The evolve_merge benchmark geometry at one workload seed: the
    light-nuclei merge with masses, softening, trap separation and
    frequency drawn as the benchmark draws them."""
    rng = np.random.default_rng([seed, 1])
    d = round(float(rng.uniform(1.5, 2.5)), 6)
    rng.integers(2 ** 31)  # the config seed, unused here
    masses = [round(float(x), 6) for x in rng.uniform(4.0, 6.0, 2)]
    softening = round(float(rng.uniform(0.8, 1.2)), 6)
    omega = round(float(rng.uniform(0.1, 0.2)), 6)
    raw = light_merge(m)
    raw["particles"]["nuclear_masses"] = masses
    raw["hamiltonian"].update(softening=softening,
                              trap={"centers": [[-d], [d]], "omega": omega})
    raw["evolve"] = {"s_from": 0.0, "s_to": 8.0, "n_steps": 8,
                     "initial": {"kind": "eigenstate", "index": 0},
                     "autocorrelation": {"t_max": 40.0, "n_samples": 512,
                                         "fixed_s": 4.0}}
    return raw


def fixed_s_problem(raw):
    """(sh, fixed_s, Lanczos ground state of H(0), sample times): the
    config's autocorrelation section, else s0 and 512 samples to 40."""
    _, _, sh = build(raw)
    auto = raw.get("evolve", {}).get("autocorrelation") or {
        "fixed_s": sh.schedule.s0, "t_max": 40.0, "n_samples": 512}
    psi0 = ground_state(sh, 0.0)[1].astype(complex)
    return (sh, auto["fixed_s"], psi0,
            np.linspace(0.0, auto["t_max"], auto["n_samples"]))


def phase_sum(h, psi0, times):
    """C(t) = sum_k |<k|psi0>|^2 exp(-i E_k t) summed exactly, through
    the n_samples x n matrix of phases exp(-i E_k t_j): the oracle for
    both fixed-s paths, which sum the same weights by a nonuniform FFT."""
    w, v = np.linalg.eigh(h)
    return np.exp(-1j * np.outer(times, w)) @ (np.abs(v.conj().T @ psi0) ** 2)


def check_chebyshev(sh, s, psi0, times):
    """Chebyshev C(t) within 1e-10 of the exact sum, and C(0) exactly
    mu_0, whichever path the work estimate prefers."""
    center, half = _spectral_interval(sh, s)
    x_max = half * abs(times[-1])
    cheb = _chebyshev_autocorrelation(
        sh, s, psi0, times,
        (center, half, _bessel_order(x_max) if x_max else None))
    assert np.max(np.abs(cheb - phase_sum(sh.dense(s), psi0, times))) <= 1e-10
    if half:
        assert cheb[0] == _chebyshev_moments(sh, s, center, half, psi0, 1)[0]


def check_dense(h, psi0, times):
    """The dense path (eigh, then the NUFFT) within 1e-12 of the exact
    sum."""
    values = _dense_autocorrelation(h, psi0, times)
    assert np.max(np.abs(values - phase_sum(h, psi0, times))) <= 1e-12


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_spectral_bounds_enclose_the_spectrum(case):
    _, _, sh = build(LANCZOS_CASES[case]())
    assert sh.kinetic_axes is sh.kinetic_axes  # computed once
    for s in (0.0, sh.schedule.s0, sh.schedule.s1):
        lo, hi = sh.spectral_bounds(s)
        w = np.linalg.eigvalsh(sh.dense(s))
        assert lo <= w[0] and w[-1] <= hi


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_chebyshev_autocorrelation_matches_dense(case):
    sh, s, psi0, times = fixed_s_problem(LANCZOS_CASES[case]())
    if case == "evolve_flat":  # H = 0: the zero-width branch
        assert _spectral_interval(sh, s) == (0.0, 0.0)
    check_chebyshev(sh, s, psi0, times)


@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_dense_autocorrelation_matches_the_phase_sum(case):
    sh, s, psi0, times = fixed_s_problem(LANCZOS_CASES[case]())
    check_dense(sh.dense(s), psi0, times)


@settings(max_examples=60)
@given(st.integers(1, 40), st.sampled_from([1e-3, 1.0, 30.0]),
       st.floats(-50.0, 50.0), st.integers(2, 300),
       st.integers(0, 2 ** 32 - 1))
def test_dense_matches_the_phase_sum_on_random_hermitian_matrices(
        n, scale, t_max, n_samples, seed):
    """Complex-Hermitian H (the complex eigh) and real symmetric H (the
    real one), complex states, nodes E_k dt that wrap the period."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, t_max, n_samples)
    for h in (mat + mat.conj().T, mat.real + mat.real.T):
        check_dense(scale * h, psi0, times)


def test_dense_matches_the_phase_sum_on_the_spectrum_oracle_case():
    """Acceptance 8's 50 instances, through ``autocorrelation``: 8 x 8
    complex-Hermitian H scaled to |E| <= 3, 4096 samples to t = 409.5."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (mat + mat.conj().T) / 2
        h *= 3.0 / np.max(np.abs(np.linalg.eigvalsh(h)))
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        times, values = autocorrelation(psi, h, 409.5, 4096)
        assert np.max(np.abs(values - phase_sum(h, psi, times))) <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_chebyshev_matches_dense_on_the_benchmark_merge(seed):
    check_chebyshev(*fixed_s_problem(bench_merge(seed)))


def test_chebyshev_takes_a_complex_state():
    sh, s, _, times = fixed_s_problem(bench_merge(0))
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=sh.dim) + 1j * rng.normal(size=sh.dim)
    check_chebyshev(sh, s, psi0 / np.linalg.norm(psi0), times)


@settings(max_examples=40)
@given(structured_problems(), st.floats(0.0, 1.0), st.floats(-50.0, 50.0),
       st.integers(2, 80))
def test_chebyshev_matches_dense_on_random_problems(problem, s, t_max,
                                                    n_samples):
    sh, psi0, _ = problem
    check_chebyshev(sh, s, psi0, np.linspace(0.0, t_max, n_samples))


@pytest.mark.parametrize("x_max", [1e-9, 0.3, 40.0, 3000.0])
@pytest.mark.parametrize("order", [0, 1, 2, 7, 40])
def test_bessel_series_matches_the_bessel_integral(x_max, order):
    """One unit moment at ``order`` gives (2 - delta_m0) (-i)^m J_m(x)
    at x = j x_max / 32; the oracle is J_m(x) = mean over tau of
    cos(m tau - x sin tau) on an equispaced periodic grid, exact once it
    has more points than x + m + 60."""
    x = np.linspace(0.0, x_max, 33)[1:]
    top = int(x_max + 10 * x_max ** (1 / 3) + 60)
    moments = np.zeros(top + 1)
    moments[order] = 1.0
    tau = 2 * np.pi * np.arange(2 * top + 1) / (2 * top + 1)
    j = np.cos(order * tau - np.outer(x, np.sin(tau))).mean(axis=1)
    expected = (1 if order == 0 else 2) * (-1j) ** order * j
    assert _bessel_order(x_max) <= top
    assert np.max(np.abs(_chebyshev_series(moments, x_max / 32, 33)[1:]
                         - expected)) <= 1e-13


def test_series_fft_length_has_no_large_prime_factor():
    """``_smooth_length`` is the smallest 2^a 3^b 5^c at or above n, so
    the series' DCT (an FFT of length 2L) never goes through Bluestein's
    padded transforms, whose buffers numpy does not report to
    tracemalloc: at the 151,157 nodes of the n = 3969 run below they
    lifted peak RSS by about 50 MB."""
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 2000):
        length = _smooth_length(n)
        assert length >= n and smooth(length)
        assert not any(smooth(k) for k in range(n, length))


@pytest.mark.parametrize("t_max, n_samples", [
    pytest.param(40.0, 2, id="two_samples"),
    pytest.param(40.0, 3, id="three_samples"),
    pytest.param(40.0, 513, id="odd_samples"),
    pytest.param(-40.0, 512, id="negative_t_max"),
    pytest.param(400.0, 7, id="wrapped_step"),
])
def test_chebyshev_series_edge_cases(t_max, n_samples):
    """Sample counts that leave the NUFFT grid tiny or odd, a negative
    t_max, and steps a |dt| far above pi (a = 7.4 here, so every case
    with fewer than ten samples wraps the nodes round the period many
    times), on the benchmark merge with a real and a complex state."""
    sh, s, psi0, _ = fixed_s_problem(bench_merge(0))
    times = np.linspace(0.0, t_max, n_samples)
    rng = np.random.default_rng(n_samples)
    complex_psi = rng.normal(size=sh.dim) + 1j * rng.normal(size=sh.dim)
    for state in (psi0, complex_psi / np.linalg.norm(complex_psi)):
        check_chebyshev(sh, s, state, times)


def test_fixed_s_autocorrelation_stays_small():
    """n = 3969, the evolve_salt_1d geometry on 63 points: the Chebyshev
    path with 151,155 Bessel orders holds O(n) recurrence rows and spreads
    the Gauss-Chebyshev nodes in chunks. All nodes spread at once would
    hold several 151,155 x 32 arrays (39 MB each); one real n x n array
    is 126 MB."""
    raw = shipped("evolve_salt_1d.json")
    raw["grid"].update(points_per_axis=63, box_length=63.0)
    sh, s, psi0, times = fixed_s_problem(raw)
    assert sh.dim == 3969
    plan = _chebyshev_plan(sh, s, times)
    assert plan is not None and plan[2] == 151155
    tracemalloc.start()
    try:
        _, values = autocorrelation(psi0, sh, times[-1], len(times), s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(values) <= 1.0 + 1e-12)
    assert peak < 24 * 2 ** 20


def test_the_work_estimate_picks_the_path(monkeypatch):
    """Dense where its eigh is cheap (the shipped evolve configs keep
    their bytes), Chebyshev on the evolve_merge benchmark geometry and on
    the benchmark's own config (``bench/workloads.py``)."""
    for name in ("evolve_salt_1d.json", "evolve_flat.json"):
        sh, s, _, times = fixed_s_problem(shipped(name))
        assert _chebyshev_plan(sh, s, times) is None
    monkeypatch.syspath_prepend(str(CONFIG_DIR.parent / "bench"))
    workloads = importlib.import_module("workloads")
    for raw in [workloads.evolve_config(0)] + [bench_merge(seed)
                                               for seed in range(12)]:
        sh, s, _, times = fixed_s_problem(raw)
        assert _chebyshev_plan(sh, s, times) is not None


def test_one_interval_and_one_order_search_per_autocorrelation(monkeypatch):
    """The work estimate and the series share one spectral interval and
    one Bessel order search, with the values each computes alone."""
    import mergosim.evolution as evolution

    sh, s, psi0, times = fixed_s_problem(bench_merge(0))
    center, half, order = _chebyshev_plan(sh, s, times)
    assert (center, half) == _spectral_interval(sh, s)
    assert order == _bessel_order(half * abs(times[-1]))
    calls = []
    for name in ("_spectral_interval", "_bessel_order"):
        def counted(*args, _f=getattr(evolution, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(evolution, name, counted)
    autocorrelation(psi0, sh, times[-1], len(times), s)
    assert sorted(calls) == ["_bessel_order", "_spectral_interval"]


def test_merge_evolve_runs_no_eigensolver(monkeypatch, tmp_path, capsys):
    """A whole evolve run on the evolve_merge geometry (Lanczos start,
    split steps, fixed-s autocorrelation) calls neither eigh nor
    eigvalsh; the shipped salt run, which takes the dense path, calls
    eigh once, so the counter sees them."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name),
                    **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    config = tmp_path / "merge.json"
    config.write_text(json.dumps(dict(bench_merge(0), seed=3)))
    assert main(["evolve", "--config", str(config),
                 "--out", str(tmp_path / "merge")]) == 0
    assert (tmp_path / "merge" / "correlation.csv").exists()
    assert calls == []
    assert main(["evolve", "--config",
                 str(CONFIG_DIR / "evolve_salt_1d.json"),
                 "--out", str(tmp_path / "salt")]) == 0
    assert calls == ["eigh"]
    capsys.readouterr()

"""Configuration-driven command line front end.

One JSON run-config drives every subcommand (evolve, measure, tree, lz,
cost, validate). The schema is strict: unknown keys are rejected and
every referenced id must resolve, so a config is a complete, diffable
record of an experiment. All randomness flows from the single config
seed (or its --seed override); outputs are byte-stable for a fixed
config and seed.

Every command is a generator ``cmd_X(cfg, seed, fmt)`` of ``(file
name, data)`` pairs that writes nothing. ``main`` alone writes under
--out: each pair as soon as it is yielded, by the writer its extension
picks (``.json``, ``.jsonl``, or ``.csv`` for a ``(header, columns)``
pair), so a run that fails after its first artifact keeps what it wrote.
``--format json`` applies to the ``lz`` and ``cost`` tables; any other
command rejects it as a config error before it writes anything.

``main`` builds its argument parser on its first call and reuses it for
every later call in the process; importing this module builds none.

Only the standard library, numpy, ``errors``, ``io`` and ``units`` load
with this module. Each command imports the layers it runs when it runs,
so ``lz`` and ``cost`` never load the dynamics, and ``evolve`` never
loads the measurement or tree layers.

Exit codes: 0 success, 2 config error (an unreadable config, an unusable
--out, a basis or dense H(s) over the cap, a table of more than
MAX_TABLE_ROWS rows and an overflow while config values become objects
included), 3 runtime error (a failed artifact write, a later arithmetic
overflow or running out of memory included), 4 a scattering node
exhausted its retries.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import replace
from typing import Optional

import numpy as np

from . import io as out_io
from .errors import (CenterOutsideBox, ConfigError, DimensionCapExceeded,
                     NodeExhausted, PairIndexOutOfRange, SimulationError,
                     SingularCoulomb, UnsupportedUnit)
from .units import unit_convert

SCHEMA_VERSION = 1
# the most rows a written table (correlation.csv, lz_sweep) may have
MAX_TABLE_ROWS = 65_536

# A spec is int, float, str or bool; [item] for a list of items; a dict
# key -> (spec, default) for an object; Map(item) for an object with free
# keys; OneOf(options) for the first of several specs that fits;
# AtLeast(kind, low) or Above(kind, low) for a number >= or > low; or
# Choice(options) for one of the listed values. An absent key (or a null
# one, unless REQUIRED) takes its default, a raw config value checked
# like one; None stays None and OMIT leaves the key out.
REQUIRED, OMIT = object(), object()
Map = namedtuple("Map", "item")
OneOf = namedtuple("OneOf", "options")
AtLeast = namedtuple("AtLeast", "kind low")
Above = namedtuple("Above", "kind low")
Choice = namedtuple("Choice", "options")


def _initial(*kinds):
    """(spec, default) of an initial state of one of ``kinds``; the index
    stays None when absent (see ``_initial_vector``)."""
    return {"kind": (Choice(kinds), "basis_state"),
            "index": (int, None)}, {}


_NODE = {"success_weight": (float, 1.0), "delta": (float, math.pi / 2.0),
         "max_iters": (AtLeast(int, 1), 64),
         "delta_ramp": (Above(float, 0.0), 1.0)}
_UNIT_VALUE = OneOf((float, {"value": (float, REQUIRED),
                             "unit": (str, REQUIRED)}))

_TRAP_CENTERS = ([[float]], REQUIRED)
# evolution.WINDOWS's names, spelled out so loading a config imports no
# dynamics (a test keeps them equal)
_WINDOWS = ("hann", "rect", "none")
_COST_FIELDS = ("n_el", "n_nuc", "grid_points", "box_volume", "trap_volume",
                "omega_max")

# section -> key -> (spec, default); every section itself is optional
_SECTIONS = {
    "grid": {"points_per_axis": (int, REQUIRED), "dims": (int, REQUIRED),
             "box_length": (float, REQUIRED)},
    "particles": {"n_el": (int, REQUIRED), "nuclear_masses": ([float], []),
                  "nuclear_charges": ([float], []),
                  "electron_spin": (bool, False), "nuclear_spin": (bool, False),
                  "cap": (AtLeast(int, 1), None)},
    "symmetry": {"bosonic_sets": ([[int]], []),
                 "fermionic_sets": ([[int]], [])},
    "hamiltonian": {
        "subsystem_a": ([int], None), "subsystem_b": ([int], []),
        "softening": (float, None), "include_kinetic": (bool, True),
        "include_coulomb": (bool, True),
        "trap": (OneOf(({"centers": _TRAP_CENTERS, "omega": (float, REQUIRED)},
                        {"centers": _TRAP_CENTERS,
                         "frequencies": ([[float]], REQUIRED),
                         "isotropic": (bool, False)})), None)},
    "schedule": {"s0": (float, REQUIRED), "s1": (float, REQUIRED),
                 "f_shape": (str, "linear"), "g_shape": (str, "linear")},
    "evolve": {"s_from": (float, 0.0), "s_to": (float, None),
               "n_steps": (AtLeast(int, 0), 0),
               "initial": _initial("basis_state", "uniform", "eigenstate"),
               "autocorrelation": ({"t_max": (Above(float, 0.0), REQUIRED),
                                    "n_samples": (AtLeast(int, 2),
                                                  REQUIRED),
                                    "window": (Choice(_WINDOWS), "hann"),
                                    "fixed_s": (float, REQUIRED)}, None)},
    "criteria": [{"id": (str, REQUIRED), "mode": (str, REQUIRED),
                  "unit": (str, "bohr"), "pairs": ([[float]], REQUIRED)}],
    "measure": {"criterion": (str, REQUIRED), "delta": (float, REQUIRED),
                "initial": _initial("basis_state", "uniform")},
    "tree": {"leaves": (AtLeast(int, 1), None), "leaf_ids": ([str], None),
             "arity": (int, None), "children": (Map([str]), None),
             "root": (str, None), "leaf_dim": (AtLeast(int, 1), 2),
             "nodes": (_NODE, {}),
             "overrides": (Map({k: (spec, OMIT)
                                for k, (spec, _) in _NODE.items()}), {})},
    "lz": {"mu": (_UNIT_VALUE, REQUIRED), "omega": (_UNIT_VALUE, REQUIRED),
           "omega_a": (_UNIT_VALUE, REQUIRED),
           "v": (OneOf(({"values": ([Above(float, 0.0)], REQUIRED)},
                        {"min": (Above(float, 0.0), REQUIRED),
                         "max": (Above(float, 0.0), REQUIRED),
                         "points": (AtLeast(int, 1), REQUIRED),
                         "scale": (Choice(("log", "linear")), "log")})),
                 REQUIRED)},
    "cost": {"n_el": (int, REQUIRED), "n_nuc": (int, REQUIRED),
             "grid_points": (int, REQUIRED), "box_volume": (float, REQUIRED),
             "trap_volume": (float, REQUIRED), "omega_max": (float, REQUIRED),
             "bits": (AtLeast(int, 1), 32),
             "doublings": ([Choice(("bits",) + _COST_FIELDS)], [])},
    "validate": {"criterion": (str, REQUIRED), "symmetrize": (bool, False)},
}
_CONFIG = {"schema_version": (int, REQUIRED), "seed": (int, 0),
           **{name: (spec, None) for name, spec in _SECTIONS.items()}}


def _typed(value, spec, where: str):
    """``value`` checked against ``spec``, with defaults filled in."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = set(value) - set(spec)
        if unknown:
            raise ConfigError(f"unknown keys in {where!r}: {sorted(unknown)}")
        out = {}
        for key, (item, default) in spec.items():
            if default is REQUIRED and key not in value:
                raise ConfigError(f"missing required key {where}.{key}")
            raw = value.get(key)
            if raw is None and default is not REQUIRED:
                raw = default
            if raw is not OMIT:
                out[key] = (None if raw is None and default is None
                            else _typed(raw, item, f"{where}.{key}"))
        return out
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_typed(v, spec[0], f"{where}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(spec, Map):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        return {k: _typed(v, spec.item, f"{where}.{k}")
                for k, v in value.items()}
    if isinstance(spec, OneOf):
        errors = []
        for option in spec.options:
            try:
                return _typed(value, option, where)
            except ConfigError as exc:
                errors.append(str(exc))
        raise ConfigError(" or ".join(errors))
    if isinstance(spec, (AtLeast, Above)):
        number = _typed(value, spec.kind, where)
        above = isinstance(spec, Above)
        if number < spec.low or above and number == spec.low:
            raise ConfigError(f"{where} must be "
                              f"{'above' if above else 'at least'} {spec.low}")
        return number
    if isinstance(spec, Choice):
        if value not in spec.options:
            raise ConfigError(f"{where} must be one of {list(spec.options)}, "
                              f"got {value!r}")
        return value
    if isinstance(value, bool) == (spec is bool):
        if spec is float and isinstance(value, (int, float)):
            # json.load reads NaN, Infinity and 1e400 (as inf) too
            if abs(value) <= sys.float_info.max:
                return float(value)
            raise ConfigError(f"{where} must be a finite number, "
                              f"got {value!r}")
        if isinstance(value, spec):
            return value
    raise ConfigError(f"{where} must be {spec.__name__}, got {value!r}")


def load_config(path: str) -> dict:
    """Read and schema-check a run config; returns it typed, with every
    default filled in (typing a typed config changes nothing)."""
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _typed(cfg, _CONFIG, "config")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    return cfg


@contextlib.contextmanager
def _config_values():
    """Report a ValueError, unknown unit, trap center outside the box,
    criterion pair naming a missing nucleus or zero-softening coincidence
    raised while config values become objects as the config error, and
    so a float overflow, division by zero or invalid value on the way."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (ValueError, CenterOutsideBox, UnsupportedUnit,
            PairIndexOutOfRange, SingularCoulomb) as exc:
        raise ConfigError(str(exc)) from exc
    except FloatingPointError as exc:
        raise ConfigError(f"a config value leaves the float range: "
                          f"{exc}") from exc


def _section(cfg: dict, name: str):
    if cfg[name] is None:
        raise ConfigError(f"missing required section {name!r}")
    return cfg[name]


def _row_count(count: int, where: str):
    """Refuse a table of more than MAX_TABLE_ROWS rows."""
    if count > MAX_TABLE_ROWS:
        raise ConfigError(f"{where} asks for {count} rows, above "
                          f"{MAX_TABLE_ROWS}")


def _resolve(table: dict, cid: str, where: str):
    if cid not in table:
        raise ConfigError(f"{where} {cid!r} does not resolve")
    return table[cid]


@_config_values()
def _build_basis(cfg: dict):
    from .grid import (DEFAULT_DIMENSION_CAP, GridSpec, ParticleSet,
                       enumerate_basis)

    particles = dict(_section(cfg, "particles"))
    cap = particles.pop("cap") or DEFAULT_DIMENSION_CAP
    return enumerate_basis(GridSpec(**_section(cfg, "grid")),
                           ParticleSet(**particles), cap=cap)


@_config_values()
def _build_declaration(cfg: dict, particles):
    from .symmetry import SymmetryDeclaration

    declaration = SymmetryDeclaration(**_section(cfg, "symmetry"))
    declaration.check_against(particles)
    return declaration


@_config_values()
def _build_criteria(cfg: dict, particles) -> dict:
    from .criteria import GeometricCriterion

    table = {}
    for row in _section(cfg, "criteria"):
        if row["id"] in table:
            raise ConfigError(f"duplicate criterion id {row['id']!r}")
        criterion = GeometricCriterion(row["mode"], row["pairs"], row["unit"])
        criterion.check_against(particles)
        table[row["id"]] = criterion
    return table


@_config_values()
def _build_scheduled_hamiltonian(cfg: dict, basis):
    from .hamiltonian import (Schedule, StructuredHamiltonian, TrapSpec,
                              coulomb_diagonal, trap_diagonal)

    sec = _section(cfg, "hamiltonian")
    regs = list(range(basis.particles.n_particles))
    sub_a = sec["subsystem_a"] if sec["subsystem_a"] is not None else regs
    sub_b = sec["subsystem_b"]
    if sorted(sub_a + sub_b) != regs:
        raise ConfigError("subsystem_a and subsystem_b must partition "
                          "the particle registers")
    softening = sec["softening"] if sec["softening"] is not None \
        else basis.grid.spacing

    def coulomb(pairs):
        if sec["include_coulomb"] and pairs:
            return coulomb_diagonal(basis, softening, pairs)
        return np.zeros(basis.size)

    v_frag = sum(coulomb([(i, j) for i in part for j in part if i < j])
                 for part in (sub_a, sub_b))
    trap = sec["trap"]
    if trap is None:
        v_trap = np.zeros(basis.size)
    elif "omega" in trap:
        v_trap = trap_diagonal(basis, TrapSpec.isotropic_spec(**trap))
    else:
        v_trap = trap_diagonal(basis, TrapSpec(**trap))

    return StructuredHamiltonian(
        basis=basis,
        kinetic_registers=sub_a + sub_b if sec["include_kinetic"] else (),
        v_frag=v_frag, v_ab=coulomb([(i, j) for i in sub_a for j in sub_b]),
        v_trap=v_trap, schedule=Schedule(**_section(cfg, "schedule")))


def _initial_vector(spec: dict, dim: int, sh=None, s: float = 0.0
                    ) -> np.ndarray:
    from .evolution import DensityMatrix, ground_state, hermitian_eigh

    kind, index = spec["kind"], spec["index"]
    if kind == "uniform" and index is not None:
        raise ConfigError(f"initial state kind 'uniform' takes no index, "
                          f"got {index}")
    index = 0 if index is None else index
    if kind in ("basis_state", "eigenstate") and not 0 <= index < dim:
        raise ConfigError(f"initial state index {index} outside the "
                          f"basis of size {dim}")
    if kind == "basis_state":
        return DensityMatrix.basis_state(dim, index).vector
    if kind == "uniform":
        return np.ones(dim, dtype=complex) / math.sqrt(dim)
    # an eigenstate (evolve's schema alone allows one) of H(s): Lanczos
    # finds one vector; a level above a degenerate one needs the spectrum
    vec = ground_state(sh, s)[1] if index == 0 \
        else hermitian_eigh(sh.dense(s))[1][:, index]
    return vec.astype(complex)


def cmd_evolve(cfg: dict, seed: int, fmt: str):
    from .evolution import (DensityMatrix, autocorrelation,
                            default_step_count, propagate, spectrum)

    sec = _section(cfg, "evolve")
    s1 = _section(cfg, "schedule")["s1"]
    s_from = sec["s_from"]
    s_to = sec["s_to"] if sec["s_to"] is not None else s1
    if not 0.0 <= s_from < s_to <= s1:
        raise ConfigError(f"evolve needs 0 <= s_from < s_to <= s1 = "
                          f"{s1}, got [{s_from}, {s_to}]")
    auto = sec["autocorrelation"]
    if auto:
        if not 0.0 <= auto["fixed_s"] <= s1:
            raise ConfigError(f"evolve.autocorrelation.fixed_s must lie in "
                              f"[0, s1 = {s1}], got {auto['fixed_s']}")
        _row_count(auto["n_samples"], "evolve.autocorrelation.n_samples")

    basis = _build_basis(cfg)
    sh = _build_scheduled_hamiltonian(cfg, basis)
    n_steps = sec["n_steps"] or default_step_count(sh, s_from, s_to)
    psi0 = _initial_vector(sec["initial"], basis.size, sh, s_from)
    # C(t) reads only psi0 and H, so a failing one stops the run before
    # the sweep and before any artifact is written
    if auto:
        times, values = autocorrelation(psi0, sh, auto["t_max"],
                                        auto["n_samples"], auto["fixed_s"])
    report = propagate(DensityMatrix.from_pure(psi0), sh, s_from, s_to, n_steps)

    yield "evolve_report.json", {
        "status": "ok", "dim": basis.size, "steps": report.steps,
        "norm_drift": report.norm_drift,
        "purity": report.final_state.purity(),
        "trace": report.final_state.trace()}
    if auto:
        yield "correlation.csv", (["t_au", "re", "im"],
                                  [times, values.real, values.imag])
        freqs, intensity = spectrum(times, values, window=auto["window"])
        yield "spectrum.csv", (["freq_au", "intensity"], [freqs, intensity])


def cmd_measure(cfg: dict, seed: int, fmt: str):
    from . import weakmeas
    from .criteria import bipartition
    from .evolution import DensityMatrix

    basis = _build_basis(cfg)
    criteria_table = _build_criteria(cfg, basis.particles)
    sec = _section(cfg, "measure")
    cid = sec["criterion"]
    criterion = _resolve(criteria_table, cid, "measure.criterion")
    state = DensityMatrix.from_pure(_initial_vector(sec["initial"], basis.size))
    with _config_values():
        spec = weakmeas.WeakMeasurementSpec(bipartition(criterion, basis),
                                            sec["delta"])
    outcome = weakmeas.weak_measure(state, spec, np.random.default_rng(seed))
    branches = outcome.branches
    trace = weakmeas.TraceLog()
    trace.record("measure", 1, branches, outcome.flag)
    yield "measure_report.json", {
        "status": "ok", "criterion": cid, "flag": outcome.flag,
        "probability": outcome.probability, "p_suc": branches.p_suc,
        "p1": branches.p1, "p0": branches.p0}
    yield "measure_trace.jsonl", trace


def _tree_from_config(sec: dict):
    """The configured shape. A node's dimension is leaf_dim ** (leaves
    under it), largest at the root, so the root alone is checked against
    the cap, and so is the leaf count, which bounds the node count: a
    planned tree's before it is planned, a ``children`` tree's once it is
    built. ``arity`` shapes a planned tree only, so it is refused next to
    ``children``."""
    from . import tree
    from .grid import DEFAULT_DIMENSION_CAP as cap

    given = [key for key in ("leaves", "leaf_ids", "children")
             if sec[key] is not None]
    if len(given) != 1:
        raise ConfigError("tree needs exactly one of leaves, leaf_ids or "
                          f"children, got {given}")
    children = sec["children"]
    if (children is None) != (sec["root"] is None):
        raise ConfigError("tree.root and tree.children go together")
    if children is not None and sec["arity"] is not None:
        raise ConfigError("tree.arity plans leaves or leaf_ids; "
                          "tree.children gives the shape")
    if children is None:
        leaves = sec[given[0]]
        n_leaves = leaves if isinstance(leaves, int) else len(leaves)
    else:
        ids = set(children) | {c for kids in children.values() for c in kids}
        shape = tree.ScatterTree(
            [tree.ScatterNode(node_id=node_id,
                              children=tuple(children.get(node_id, ())))
             for node_id in sorted(ids)], sec["root"])
        n_leaves = shape.leaf_counts[shape.root]
    # 2 ** cap.bit_length() > cap, so no larger power needs computing
    leaf_dim = sec["leaf_dim"]
    if leaf_dim ** min(n_leaves, cap.bit_length()) > cap:
        raise ConfigError(f"tree root dimension {leaf_dim}**{n_leaves} "
                          f"exceeds the cap {cap}")
    if n_leaves > cap:
        raise ConfigError(f"tree has {n_leaves} leaves, above the cap {cap}")
    if children is not None:
        return shape
    arity = {} if sec["arity"] is None else {"arity": sec["arity"]}
    return tree.plan_tree(leaves, **arity)


@_config_values()
def _build_tree(sec: dict) -> tuple:
    """The configured tree and its leaf states."""
    from . import tree
    from .criteria import Bipartition
    from .evolution import DensityMatrix

    shape = _tree_from_config(sec)
    leaf_dim = sec["leaf_dim"]
    overrides = sec["overrides"]
    for node_id in overrides:
        if node_id not in shape.nodes or shape.nodes[node_id].is_leaf:
            raise ConfigError(f"override for {node_id!r}, not an internal "
                              f"node")

    nodes = dict(shape.nodes)
    for node_id in shape.internal_ids():
        dim = leaf_dim ** shape.leaf_counts[node_id]
        row = {**sec["nodes"], **overrides.get(node_id, {})}
        bip = Bipartition(np.arange(dim) < max(1, dim // 2))
        channel = tree.PumpChannel(bip, row["success_weight"])
        retry = tree.RetryPolicy(max_iters=row["max_iters"],
                                 delta_ramp=row["delta_ramp"])
        nodes[node_id] = replace(nodes[node_id], channel=channel,
                                 bipartition=bip, delta=row["delta"],
                                 retry=retry)
    configured = tree.ScatterTree(list(nodes.values()), shape.root)

    # a pump ignores its input, so every leaf shares one diagonal state
    state = DensityMatrix.maximally_mixed(leaf_dim)
    return configured, dict.fromkeys(configured.leaf_ids(), state)


def _tree_artifacts(report, **status):
    yield "tree_report.json", {**report.to_json_dict(), **status}
    yield "tree_trace.jsonl", report.trace


def cmd_tree(cfg: dict, seed: int, fmt: str):
    from .tree import run_tree

    configured, states = _build_tree(_section(cfg, "tree"))
    try:
        report = run_tree(configured, states, global_seed=seed)
    except NodeExhausted as exc:
        # the partial report, then the exit-4 error
        yield from _tree_artifacts(exc.report, status="node_exhausted",
                                   node_id=exc.node_id)
        raise
    yield from _tree_artifacts(report, status="ok")


def _table(payload: dict, stem: str, fmt: str, columns: list, rows: list):
    """Rows as <stem>.csv, or in the payload as <stem>.json."""
    if fmt == "json":
        yield f"{stem}.json", {**payload, "rows": [list(r) for r in rows]}
    else:
        yield f"{stem}.csv", (columns, list(zip(*rows)))


def _unit_value(value, target: str) -> float:
    if isinstance(value, float):
        return value
    return unit_convert(value["value"], value["unit"], target)


def cmd_lz(cfg: dict, seed: int, fmt: str):
    from . import lzcost

    sec = _section(cfg, "lz")
    with _config_values():
        params = lzcost.LZParams(mu=_unit_value(sec["mu"], "me"),
                                 omega=_unit_value(sec["omega"], "au"),
                                 omega_a=_unit_value(sec["omega_a"], "au"),
                                 v=1.0)
    v_sec = sec["v"]
    if "values" in v_sec:
        v_values = v_sec["values"]
        if not v_values:
            raise ConfigError("lz.v.values must list at least one velocity")
        _row_count(len(v_values), "lz.v.values")
    else:
        _row_count(v_sec["points"], "lz.v.points")
        space = {"log": np.geomspace, "linear": np.linspace}[v_sec["scale"]]
        v_values = list(space(v_sec["min"], v_sec["max"], v_sec["points"]))

    rows = [(v, result.gamma, result.p_lz, result.p_lz_bound, result.p_suc)
            for v, result in lzcost.sweep_velocity(params, v_values)]
    payload = {"status": "ok",
               "mu_me": params.mu, "omega_au": params.omega,
               "omega_a_au": params.omega_a,
               "p_suc_min": min(r[4] for r in rows),
               "p_suc_max": max(r[4] for r in rows)}
    yield from _table(payload, "lz_sweep", fmt,
                      ["v_au", "gamma", "p_lz", "p_lz_bound", "p_suc"], rows)


_COST_COLUMNS = ["scenario", "n_el", "n_nuc", "grid_points", "box_volume",
                 "trap_volume", "omega_max", "alpha_t", "alpha_v", "alpha_u",
                 "alpha_trap", "prep_branches", "sel_ancillas", "repetitions"]


def _cost_row(name: str, params, bits: int) -> list:
    from . import lzcost

    alphas = lzcost.alpha_factors(params)
    est = lzcost.lcu_query_model(params, bits)
    return [name, params.n_el, params.n_nuc, params.grid_points,
            params.box_volume, params.trap_volume, params.omega_max,
            alphas.alpha_t, alphas.alpha_v, alphas.alpha_u, alphas.alpha_trap,
            est.prep_branches, est.sel_ancillas,
            est.block_encoding_repetitions]


@_config_values()
def _cost_rows(sec: dict) -> list:
    """The base row and one row per requested doubling."""
    from . import lzcost

    base = lzcost.CostParams(**{k: sec[k] for k in _COST_FIELDS})
    bits = sec["bits"]
    rows = [_cost_row("base", base, bits)]
    for name in sec["doublings"]:
        if name == "bits":
            rows.append(_cost_row("2x bits", base, 2 * bits))
            continue
        kwargs = {k: getattr(base, k) for k in _COST_FIELDS}
        kwargs[name] *= 2
        rows.append(_cost_row(f"2x {name}", lzcost.CostParams(**kwargs), bits))
    return rows


def cmd_cost(cfg: dict, seed: int, fmt: str):
    sec = _section(cfg, "cost")
    payload = {"status": "ok", "bits": sec["bits"], "columns": _COST_COLUMNS}
    yield from _table(payload, "cost_table", fmt, _COST_COLUMNS,
                      _cost_rows(sec))


def cmd_validate(cfg: dict, seed: int, fmt: str):
    from .criteria import symmetrize_criterion, validate_symmetric

    basis = _build_basis(cfg)
    declaration = _build_declaration(cfg, basis.particles)
    criteria_table = _build_criteria(cfg, basis.particles)
    sec = _section(cfg, "validate")
    cid = sec["criterion"]
    criterion = _resolve(criteria_table, cid, "validate.criterion")
    if sec["symmetrize"]:
        criterion = symmetrize_criterion(criterion, declaration)
    with _config_values():
        result = validate_symmetric(criterion, declaration, basis)
    # every configuration is checked, so "sampled" is always false
    payload = {"status": "ok", "criterion": cid,
               "symmetric": result.symmetric,
               "checked": result.checked, "sampled": False,
               "counterexample": None}
    if result.counterexample is not None:
        perm, config = result.counterexample
        payload["counterexample"] = {
            "permutation": [list(m) for m in perm.moves],
            "labels": [list(l) for l in config.labels],
            "spins": [s for s in config.spins]}
    yield "validate_report.json", payload


# extension -> writer(path, data); a .csv artifact is (header, columns)
_WRITERS = {".json": out_io.write_json, ".jsonl": out_io.write_jsonl,
            ".csv": lambda path, table: out_io.write_csv(path, *table)}

_COMMANDS = {"evolve": cmd_evolve, "measure": cmd_measure, "tree": cmd_tree,
             "lz": cmd_lz, "cost": cmd_cost, "validate": cmd_validate}
# the commands whose table --format picks
_TABLE_COMMANDS = ("lz", "cost")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergosim",
        description="Desk-scale simulator of scheduled merge dynamics, "
                    "heralded weak measurement and scattering trees.")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="run config (JSON)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv"], default="csv",
                        help="table format for lz/cost outputs")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    def emit_error(status: str, error: Exception, code: int, **extra) -> int:
        print(json.dumps({"status": status, "error": str(error), **extra},
                         sort_keys=True))
        return code

    try:
        if args.format != "csv" and args.command not in _TABLE_COMMANDS:
            raise ConfigError(f"--format {args.format} applies only to "
                              f"{' and '.join(_TABLE_COMMANDS)}")
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg["seed"]
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out: {exc}") from exc
        artifacts = []
        for name, data in _COMMANDS[args.command](cfg, seed, args.format):
            path = os.path.join(args.out, name)
            _WRITERS[os.path.splitext(name)[1]](path, data)
            artifacts.append(path)
    except (ConfigError, DimensionCapExceeded) as exc:
        return emit_error("config_error", exc, 2)
    except NodeExhausted as exc:
        return emit_error("node_exhausted", exc, 4, node_id=exc.node_id)
    except (SimulationError, ValueError, KeyError, OSError, ArithmeticError,
            MemoryError) as exc:
        return emit_error("runtime_error", exc, 3)

    print(json.dumps({"status": "ok", "artifacts": artifacts},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

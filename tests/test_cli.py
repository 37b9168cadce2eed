import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mergosim.cli import load_config, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DELETE = object()


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigSchema:
    @pytest.mark.parametrize("name", sorted(p.name for p in
                                            CONFIG_DIR.glob("*.json")))
    def test_round_trip_shipped_configs(self, name, tmp_path):
        cfg = load_config(str(CONFIG_DIR / name))
        echoed = tmp_path / name
        echoed.write_text(json.dumps(cfg, sort_keys=True, indent=2))
        assert load_config(str(echoed)) == cfg

    @pytest.mark.parametrize("base, mutation, command", [
        pytest.param("evolve_flat.json", (("grid", "box_length"), DELETE),
                     "evolve", id="missing_required_key"),
        pytest.param("evolve_flat.json", (("grid", "bogus"), 1), "evolve",
                     id="unknown_key"),
        pytest.param("measure_bond.json",
                     (("measure", "initial"),
                      {"kind": "basis_state", "index": 999}),
                     "measure", id="initial_index_past_basis"),
        pytest.param("measure_bond.json",
                     (("measure", "initial"),
                      {"kind": "basis_state", "index": -1}),
                     "measure", id="initial_index_negative"),
        pytest.param("measure_bond.json", (("criteria", 0, "pairs"), 5),
                     "measure", id="pairs_not_a_list"),
        pytest.param("evolve_flat.json", (("grid", "dims"), None), "evolve",
                     id="dims_null"),
        pytest.param("evolve_flat.json", (("grid", "points_per_axis"), 4),
                     "evolve", id="even_points_per_axis"),
        pytest.param("measure_bond.json", (("measure", "delta"), "x"),
                     "measure", id="delta_not_a_number"),
        pytest.param("measure_bond.json", (("measure", "delta"), 3.0),
                     "measure", id="delta_out_of_range"),
        pytest.param("evolve_flat.json", (("evolve", "n_steps"), "abc"),
                     "evolve", id="n_steps_not_an_int"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian", "trap"), {"omega": 1.0}), "evolve",
                     id="trap_without_centers"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian", "trap", "centers"), [[-100.0], [1.0]]),
                     "evolve", id="trap_center_outside_box"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian", "trap"),
                      {"centers": [[-1.0], [1.0]],
                       "frequencies": [[0.02, 0.5], [0.02, 0.5]]}),
                     "evolve", id="trap_frequency_row_past_grid_dims"),
        pytest.param("evolve_salt_1d.json", (("evolve", "s_from"), 5.0),
                     "evolve", id="s_from_past_schedule_end"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve", "autocorrelation", "fixed_s"), 5.0),
                     "evolve", id="fixed_s_past_schedule_end"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve", "autocorrelation"),
                      {"t_max": 50.0, "n_samples": 64, "fixed_s": None},
                      "config.evolve.autocorrelation.fixed_s must be float, "
                      "got None"),
                     "evolve", id="t_max_past_schedule_end"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve", "autocorrelation", "n_samples"), 1),
                     "evolve", id="one_autocorrelation_sample"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve", "autocorrelation", "t_max"), -1.0),
                     "evolve", id="t_max_not_positive"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve", "autocorrelation", "window"), "bogus"),
                     "evolve", id="unknown_window"),
        pytest.param("tree_synthetic.json", (("tree", "nodes", "delta"), 3.0),
                     "tree", id="tree_delta_out_of_range"),
        pytest.param("lz_rbcs.json", (("lz", "mu", "unit"), "furlong"), "lz",
                     id="unknown_unit"),
        pytest.param("measure_bond.json", (("criteria", 0, "unit"), "furlong"),
                     "measure", id="unknown_criterion_unit"),
        pytest.param("measure_bond.json",
                     (("criteria", 0, "pairs"), [[0, 9, 200.0]]), "measure",
                     id="criterion_pair_names_missing_nucleus"),
        pytest.param("measure_bond.json",
                     (("criteria", 0),
                      {"id": "bond", "mode": "equilibrium",
                       "pairs": [[0, 1, 1000.0, 1.0], [0, 9, 2.0, 1.0]]}),
                     "measure",
                     id="missing_nucleus_after_a_pair_rejecting_all"),
        pytest.param("validate_h2o2.json",
                     (("criteria", 0, "pairs"), [[0, 4, 95.0, 13.23]]),
                     "validate", id="validated_pair_names_missing_nucleus"),
        pytest.param("measure_bond.json",
                     (("criteria", 0, "pairs"), [[0.7, 1.9, 1.5]]),
                     "measure", id="fractional_pair_index"),
        pytest.param("evolve_salt_1d.json", (("evolve", "initial", "s"), 1.5),
                     "evolve", id="initial_s_not_a_key"),
        pytest.param("lz_rbcs.json", (("lz", "v", "scale"), "lgo"), "lz",
                     id="unknown_velocity_scale"),
        pytest.param("lz_rbcs.json", (("lz", "v"), {"values": []}), "lz",
                     id="empty_velocity_list"),
        pytest.param("lz_rbcs.json", (("lz", "v"), {"values": [1e-8, 0.0]}),
                     "lz", id="zero_velocity_in_list"),
        pytest.param("lz_rbcs.json", (("lz", "v", "min"), 0.0), "lz",
                     id="zero_velocity_min_on_log_scale"),
        pytest.param("lz_rbcs.json",
                     (("lz", "v"), {"min": -1.0, "max": 1e-6, "points": 20,
                                    "scale": "linear"}),
                     "lz", id="negative_velocity_min_on_linear_scale"),
        pytest.param("evolve_flat.json",
                     (("evolve", "autocorrelation", "t_max"), math.nan),
                     "evolve", id="nan_t_max"),
        pytest.param("lz_rbcs.json", (("lz", "omega", "value"), math.inf),
                     "lz", id="infinite_omega"),
        pytest.param("tree_synthetic.json",
                     (("tree", "nodes", "delta_ramp"), -math.inf), "tree",
                     id="minus_infinite_delta_ramp"),
        pytest.param("tree_synthetic.json",
                     (("tree", "nodes", "delta_ramp"), -1.0), "tree",
                     id="negative_tree_delta_ramp"),
        pytest.param("tree_synthetic.json",
                     (("tree", "overrides"), {"node6": {"delta_ramp": -1.0}}),
                     "tree", id="negative_override_delta_ramp"),
        pytest.param("measure_bond.json",
                     (("measure", "repeat"), {"delta_ramp": -1.0},
                      "unknown keys in 'config.measure': ['repeat']"),
                     "measure", id="negative_measure_delta_ramp"),
        pytest.param("tree_synthetic.json",
                     (("tree", "nodes", "delta_ramp"), 0.0), "tree",
                     id="zero_tree_delta_ramp"),
        pytest.param("tree_synthetic.json",
                     (("tree", "overrides"), {"node6": {"delta_ramp": 0.0}}),
                     "tree", id="zero_override_delta_ramp"),
        pytest.param("measure_bond.json",
                     (("measure", "repeat"), {"delta_ramp": 0.0},
                      "unknown keys in 'config.measure': ['repeat']"),
                     "measure", id="zero_measure_delta_ramp"),
        pytest.param("cost_table.json", (("cost", "box_volume"), math.inf),
                     "cost", id="infinite_box_volume"),
        pytest.param("evolve_flat.json",
                     (("evolve", "autocorrelation", "t_max"), 10 ** 400),
                     "evolve", id="integer_past_the_float_range"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve", "autocorrelation", "t_max"), 0.0),
                     "evolve", id="t_max_zero"),
        pytest.param("lz_rbcs.json", (("lz", "v", "max"), 0.0), "lz",
                     id="zero_velocity_max_on_log_scale"),
        pytest.param("cost_table.json", (("cost", "doublings"), ["mass"]),
                     "cost", id="unknown_doubling"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian", "softening"), 0.0), "evolve",
                     id="zero_softening_coincidence"),
        pytest.param("evolve_salt_1d.json", (("particles", "cap"), 80),
                     "evolve", id="basis_over_its_cap"),
        pytest.param("measure_bond.json", (("seed",), -1), "measure",
                     id="negative_measure_seed"),
        pytest.param("validate_h2o2.json", (("seed",), -1), "validate",
                     id="negative_validate_seed"),
        pytest.param("tree_synthetic.json", (("seed",), -1), "tree",
                     id="negative_tree_seed"),
        pytest.param("tree_synthetic.json",
                     (("tree",), {"leaves": 2, "root": "r",
                                  "children": {"r": ["a", "b"]}}), "tree",
                     id="tree_leaves_and_children"),
        pytest.param("tree_synthetic.json", (("tree", "leaf_ids"), ["a", "b"]),
                     "tree", id="tree_leaves_and_leaf_ids"),
        pytest.param("tree_synthetic.json", (("tree", "root"), "node6"),
                     "tree", id="tree_root_without_children"),
        pytest.param("tree_synthetic.json",
                     (("tree",), {"children": {"r": ["a", "b"]}}), "tree",
                     id="tree_children_without_root"),
        pytest.param("tree_synthetic.json",
                     (("tree",), {"leaves": 50_000, "leaf_dim": 1}), "tree",
                     id="tree_leaves_over_the_cap"),
        pytest.param("tree_synthetic.json",
                     (("tree",), {"leaves": 10 ** 9, "leaf_dim": 1}), "tree",
                     id="tree_billion_leaves"),
        pytest.param("tree_synthetic.json",
                     (("tree",), {"children": {"r": ["a", "b"]}, "root": "r",
                                  "arity": 7}), "tree",
                     id="tree_arity_with_children"),
        pytest.param("tree_synthetic.json",
                     (("tree", "leaf_state"),
                      {"kind": "basis_state", "index": 0}), "tree",
                     id="tree_leaf_state_not_a_key"),
        pytest.param("tree_synthetic.json",
                     (("tree", "overrides"),
                      {"leaf0": {"max_iters": 1, "delta": 0.0}}), "tree",
                     id="tree_leaf_override"),
        pytest.param("measure_bond.json",
                     (("measure", "initial"),
                      {"kind": "eigenstate", "index": 0}), "measure",
                     id="measure_eigenstate_initial"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve",),
                      {"s_from": 1.0, "n_steps": 80,
                       "initial": {"kind": "eigenstate", "index": 0},
                       "autocorrelation": {"t_max": 1.0, "n_samples": 64}},
                      "missing required key "
                      "config.evolve.autocorrelation.fixed_s"),
                     "evolve", id="scheduled_autocorrelation_after_s_from"),
        pytest.param("measure_bond.json",
                     (("measure", "initial"),
                      {"kind": "uniform", "index": 999}), "measure",
                     id="measure_uniform_with_index"),
        pytest.param("evolve_flat.json",
                     (("evolve", "initial"),
                      {"kind": "uniform", "index": 0}), "evolve",
                     id="evolve_uniform_with_index"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian", "subsystem_a"), [0, 0]), "evolve",
                     id="repeated_subsystem_register"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian",),
                      {"subsystem_a": [0, 0], "subsystem_b": [1],
                       "include_kinetic": False, "softening": 1.0}),
                     "evolve", id="repeated_subsystem_register_no_kinetic"),
        pytest.param("measure_bond.json",
                     (("criteria", 0, "pairs"), [[0, 0, 1.5]]), "measure",
                     id="criterion_pair_names_one_nucleus_twice"),
        pytest.param("validate_h2o2.json",
                     (("criteria", 0, "pairs"), [[0, 0, 95.0, 13.23]]),
                     "validate", id="validated_pair_names_one_nucleus_twice"),
        pytest.param("validate_h2o2.json",
                     (("symmetry", "fermionic_sets"), [[2, 2]],
                      "declared set (2, 2) repeats register 2"),
                     "validate", id="symmetry_set_repeats_a_register"),
        pytest.param("measure_bond.json",
                     (("measure",), DELETE,
                      "missing required section 'measure'"),
                     "measure", id="missing_required_section"),
        pytest.param("measure_bond.json",
                     (("criteria",), [{"id": "bond", "mode": "proximity",
                                       "pairs": [[0, 1, 1.5]]}] * 2,
                      "duplicate criterion id 'bond'"),
                     "measure", id="duplicate_criterion_id"),
        pytest.param("evolve_salt_1d.json",
                     (("evolve", "autocorrelation", "n_samples"), 65_537,
                      "evolve.autocorrelation.n_samples asks for 65537 "
                      "rows, above 65536"),
                     "evolve", id="autocorrelation_samples_over_the_bound"),
        pytest.param("lz_rbcs.json",
                     (("lz", "v", "points"), 65_537,
                      "lz.v.points asks for 65537 rows, above 65536"),
                     "lz", id="velocity_points_over_the_bound"),
        pytest.param("lz_rbcs.json",
                     (("lz", "v"), {"values": [1e-8] * 65_537},
                      "lz.v.values asks for 65537 rows, above 65536"),
                     "lz", id="velocity_values_over_the_bound"),
        pytest.param("tree_synthetic.json",
                     (("tree", "nodes", "renaturalize"), True,
                      "unknown keys in 'config.tree.nodes': "
                      "['renaturalize']"),
                     "tree", id="tree_renaturalize_not_a_key"),
        pytest.param("tree_synthetic.json",
                     (("tree", "overrides"), {"node6": {"renaturalize": True}},
                      "unknown keys in 'config.tree.overrides.node6': "
                      "['renaturalize']"),
                     "tree", id="override_renaturalize_not_a_key"),
        pytest.param("evolve_salt_1d.json",
                     (("grid", "box_length"), 1e300,
                      "a config value leaves the float range: overflow "
                      "encountered in multiply"),
                     "evolve", id="trap_energy_overflows_with_the_box"),
        pytest.param("measure_bond.json",
                     (("grid", "box_length"), 1e300,
                      "a config value leaves the float range: overflow "
                      "encountered in matmul"),
                     "measure", id="measured_distance_overflows"),
        pytest.param("validate_h2o2.json",
                     (("grid", "box_length"), 1e300,
                      "a config value leaves the float range: overflow "
                      "encountered in matmul"),
                     "validate", id="validated_distance_overflows"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian", "trap", "omega"), 1e300,
                      "a config value leaves the float range: overflow "
                      "encountered in multiply"),
                     "evolve", id="trap_energy_overflows_with_omega"),
        pytest.param("evolve_salt_1d.json",
                     (("hamiltonian", "softening"), 1e-300,
                      "a config value leaves the float range: divide by "
                      "zero encountered in divide"),
                     "evolve", id="softening_squared_underflows"),
    ])
    def test_config_error(self, base, mutation, command, tmp_path, capsys):
        """``mutation`` is (key path, value), or (key path, value, the
        error text) where the reason itself is under test."""
        cfg = json.loads((CONFIG_DIR / base).read_text())
        (*parents, key), value, *reason = mutation
        target = cfg
        for step in parents:
            target = target[step]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        path = write_config(tmp_path, cfg)
        code = run_cli(command, "--config", path, "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.out + captured.err
        record = json.loads(captured.out.strip().splitlines()[-1])
        assert record["status"] == "config_error"
        if reason:
            assert record["error"] == reason[0]
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_measure_eigenstate_refused_at_load(self, tmp_path, capsys,
                                                monkeypatch):
        """measure has no Hamiltonian, so its schema names no eigenstate
        kind: the config fails to load, before any basis is built."""
        from mergosim import cli

        def unbuilt(cfg):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(cli, "_build_basis", unbuilt)
        cfg = patched("measure_bond.json", "measure",
                      initial={"kind": "eigenstate", "index": 0})
        assert run_cli("measure", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")) == 2
        assert json.loads(capsys.readouterr().out) == {
            "status": "config_error",
            "error": "config.measure.initial.kind must be one of "
                     "['basis_state', 'uniform'], got 'eigenstate'"}

    @pytest.mark.parametrize("command, config", [
        ("measure", "measure_bond.json"), ("validate", "validate_h2o2.json"),
        ("tree", "tree_synthetic.json"), ("cost", "cost_table.json")])
    def test_negative_seed_flag(self, command, config, tmp_path, capsys):
        code = run_cli(command, "--config", str(CONFIG_DIR / config),
                       "--seed", "-1", "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        assert json.loads(line)["status"] == "config_error"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_float_literal(self, tmp_path, capsys):
        """json.load reads 1e400 as inf, which is no config value."""
        text = (CONFIG_DIR / "lz_rbcs.json").read_text()
        assert '"value": 150.0' in text
        path = tmp_path / "config.json"
        path.write_text(text.replace('"value": 150.0', '"value": 1e400'))
        code = run_cli("lz", "--config", str(path), "--out", str(tmp_path))
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2 and record["status"] == "config_error"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("under", [(), ("sub",)],
                             ids=["out_is_a_file", "out_under_a_file"])
    def test_unusable_out_directory(self, under, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker.joinpath(*under)
        code = run_cli("cost", "--config", str(CONFIG_DIR / "cost_table.json"),
                       "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        assert json.loads(line)["status"] == "config_error"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_failed_artifact_write(self, tmp_path, capsys):
        # a directory where the table goes makes open() fail
        (tmp_path / "cost_table.csv").mkdir()
        code = run_cli("cost", "--config", str(CONFIG_DIR / "cost_table.json"),
                       "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        assert json.loads(line)["status"] == "runtime_error"
        assert [p.name for p in tmp_path.iterdir()] == ["cost_table.csv"]

    @pytest.mark.parametrize("content, error", [
        pytest.param(None, "cannot read config: ", id="unreadable"),
        pytest.param('{"schema_version": 1,', "config is not valid JSON: ",
                     id="malformed_json")])
    def test_unloadable_config(self, content, error, tmp_path, capsys):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "out"
        assert run_cli("evolve", "--config", str(path),
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        record = json.loads(line)
        assert record["status"] == "config_error"
        assert record["error"].startswith(error)
        assert not out.exists()

    def test_wrong_schema_version(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "evolve_flat.json").read_text())
        cfg["schema_version"] = 99
        path = write_config(tmp_path, cfg)
        assert run_cli("evolve", "--config", path, "--out", str(tmp_path)) == 2

    def test_unresolved_criterion_id(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "measure_bond.json").read_text())
        cfg["measure"]["criterion"] = "missing"
        path = write_config(tmp_path, cfg)
        assert run_cli("measure", "--config", path, "--out", str(tmp_path)) == 2


def patched(base, section, **values):
    cfg = json.loads((CONFIG_DIR / base).read_text())
    cfg[section].update(values)
    return cfg


def caterpillar(depth):
    """``tree.children`` of a spine of ``depth`` nodes, each with a leaf
    beside it and two leaves under the last."""
    children = {f"n{i}": [f"n{i + 1}", f"l{i}"] for i in range(depth - 1)}
    children[f"n{depth - 1}"] = [f"l{depth - 1}", f"l{depth}"]
    return children


class TestOneStatusLine:
    """Malformed trees and overflowing inputs end in one JSON status line
    and their documented exit code, never in a traceback."""

    @pytest.mark.parametrize("command, cfg, code, status", [
        pytest.param("tree", patched(
            "tree_synthetic.json", "tree", leaves=None, arity=None,
            root="a", children={"a": ["b", "c"], "b": ["a", "d"]}),
            2, "config_error", id="cycle_through_the_root"),
        pytest.param("tree", patched(
            "tree_synthetic.json", "tree", leaves=None, arity=None,
            root="a", children={"a": ["a", "c"]}),
            2, "config_error", id="root_its_own_child"),
        pytest.param("tree", patched(
            "tree_synthetic.json", "tree", leaves=None, arity=None,
            root="n0", children=caterpillar(1500), leaf_dim=1),
            0, "ok", id="deep_caterpillar"),
        pytest.param("tree", patched("tree_synthetic.json", "tree",
                                     leaves=40),
                     2, "config_error", id="forty_leaves"),
        pytest.param("tree", patched("tree_synthetic.json", "tree",
                                     leaves=8, leaf_dim=4),
                     2, "config_error", id="root_kron_over_the_cap"),
        pytest.param("evolve", patched(
            "evolve_salt_1d.json", "evolve", autocorrelation={
                "t_max": 1e308, "n_samples": 512, "fixed_s": 1.0}),
            3, "runtime_error", id="autocorrelation_t_max_overflow"),
        pytest.param("lz", patched("lz_rbcs.json", "lz", omega=1e300),
                     3, "runtime_error", id="lz_overflow"),
        pytest.param("cost", patched("cost_table.json", "cost",
                                     grid_points=10 ** 400),
                     3, "runtime_error", id="cost_overflow"),
    ])
    def test_exit_code(self, command, cfg, code, status, tmp_path, capsys):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", str(out)) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        assert json.loads(line)["status"] == status

    def test_node_over_the_cap_is_named(self, tmp_path, capsys):
        cfg = patched("tree_synthetic.json", "tree", leaves=8, leaf_dim=4)
        path = write_config(tmp_path, cfg)
        assert run_cli("tree", "--config", path,
                       "--out", str(tmp_path / "out")) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == \
            "tree root dimension 4**8 exceeds the cap 4096"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("leaves", [200_000, 10 ** 9])
    def test_over_cap_leaves_refused_before_planning(self, leaves, tmp_path,
                                                     capsys, monkeypatch):
        from mergosim import tree

        def unplanned(*args, **kwargs):
            raise AssertionError("plan_tree ran")

        monkeypatch.setattr(tree, "plan_tree", unplanned)
        cfg = patched("tree_synthetic.json", "tree", leaves=leaves)
        path = write_config(tmp_path, cfg)
        assert run_cli("tree", "--config", path,
                       "--out", str(tmp_path / "out")) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        assert json.loads(line) == {
            "status": "config_error",
            "error": f"tree root dimension 2**{leaves} exceeds the cap 4096"}

    def test_memory_error(self, tmp_path, capsys, monkeypatch):
        from mergosim import cli

        def exhausted(sec):
            raise MemoryError()

        monkeypatch.setattr(cli, "_build_tree", exhausted)
        code = run_cli("tree", "--config",
                       str(CONFIG_DIR / "tree_synthetic.json"),
                       "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        assert json.loads(line)["status"] == "runtime_error"
        assert list(tmp_path.iterdir()) == []


def unswept(*args, **kwargs):
    raise AssertionError("the sweep ran")


class TestEvolveCommand:
    def test_excited_eigenstate_above_the_dense_cap(self, tmp_path, capsys,
                                                    monkeypatch):
        """An eigenstate past the ground state comes from the dense
        spectrum, so above the cap it is refused before any n x n matrix
        is built (n = 65**2 = 4225 here)."""
        from mergosim import evolution

        def undiagonalized(matrix):
            raise AssertionError("the dense spectrum was computed")

        monkeypatch.setattr(evolution, "hermitian_eigh", undiagonalized)
        cfg = patched("evolve_salt_1d.json", "evolve",
                      initial={"kind": "eigenstate", "index": 1})
        cfg["grid"]["points_per_axis"] = 65
        cfg["particles"]["cap"] = 5000
        assert run_cli("evolve", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")) == 2
        assert json.loads(capsys.readouterr().out) == {
            "status": "config_error",
            "error": "a dense 4225 x 4225 H(s) is above the cap 4096"}

    def test_dense_autocorrelation_above_the_dense_cap(self, tmp_path,
                                                       capsys, monkeypatch):
        """At t_max = 1e7 the work estimate puts one dense eigh below the
        Chebyshev series, so the fixed-s C(t) needs the dense H(s); at
        n = 4225 it is refused before the matrix is built, before the
        sweep and before any artifact is written."""
        from mergosim import evolution

        def undiagonalized(matrix):
            raise AssertionError("the dense spectrum was computed")

        monkeypatch.setattr(evolution, "hermitian_eigh", undiagonalized)
        monkeypatch.setattr(evolution, "propagate", unswept)
        cfg = patched("evolve_salt_1d.json", "evolve", autocorrelation={
            "t_max": 1e7, "n_samples": 512, "fixed_s": 1.0})
        cfg["grid"]["points_per_axis"] = 65
        cfg["particles"]["cap"] = 5000
        out = tmp_path / "out"
        assert run_cli("evolve", "--config", write_config(tmp_path, cfg),
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        [line] = captured.out.strip().splitlines()
        assert json.loads(line) == {
            "status": "config_error",
            "error": "a dense 4225 x 4225 H(s) is above the cap 4096"}
        assert list(out.iterdir()) == []

    def test_zero_hamiltonian_flat_autocorrelation(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("evolve", "--config",
                       str(CONFIG_DIR / "evolve_flat.json"),
                       "--out", str(out))
        assert code == 0
        report = json.loads((out / "evolve_report.json").read_text())
        assert report["norm_drift"] < 1e-12
        header, rows = read_csv(out / "correlation.csv")
        assert header == ["t_au", "re", "im"]
        mags = [math.hypot(float(r[1]), float(r[2])) for r in rows]
        assert all(abs(m - 1.0) < 1e-12 for m in mags)

    def test_salt_system_report(self, tmp_path):
        out = tmp_path / "salt"
        assert run_cli("evolve", "--config",
                       str(CONFIG_DIR / "evolve_salt_1d.json"),
                       "--out", str(out)) == 0
        report = json.loads((out / "evolve_report.json").read_text())
        assert report["norm_drift"] < 1e-9
        assert report["dim"] == 81
        assert (out / "spectrum.csv").exists()

    def test_failed_autocorrelation_writes_nothing(self, tmp_path,
                                                   monkeypatch, capsys):
        """C(t) runs before the sweep, so a run that fails there exits 3
        with no artifact written and no propagation."""
        import mergosim.evolution as evolution

        def broken(*args, **kwargs):
            raise ValueError("autocorrelation failed")

        monkeypatch.setattr(evolution, "autocorrelation", broken)
        monkeypatch.setattr(evolution, "propagate", unswept)
        out = tmp_path / "failed"
        assert run_cli("evolve", "--config",
                       str(CONFIG_DIR / "evolve_flat.json"),
                       "--out", str(out)) == 3
        assert json.loads(capsys.readouterr().out) == {
            "status": "runtime_error", "error": "autocorrelation failed"}
        assert list(out.iterdir()) == []

    def test_non_finite_autocorrelation_writes_no_table(self, tmp_path,
                                                        capsys, monkeypatch):
        """t_max = 1e308 overflows the phases of 461 of the 512 samples:
        the run exits 3 before the sweep and before any artifact is
        written, with no RuntimeWarning."""
        from mergosim import evolution

        monkeypatch.setattr(evolution, "propagate", unswept)
        cfg = patched("evolve_salt_1d.json", "evolve", autocorrelation={
            "t_max": 1e308, "n_samples": 512, "fixed_s": 1.0})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("evolve", "--config", write_config(tmp_path, cfg),
                           "--out", str(out)) == 3
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "runtime_error"
        assert record["error"].startswith("C(t) is not finite at 461 of 512")
        assert list(out.iterdir()) == []

    def test_schema_windows_are_the_evolution_windows(self, tmp_path,
                                                      capsys):
        """The schema spells the window names out, so loading a config
        imports no dynamics; they stay the windows ``spectrum`` knows,
        and an unknown one is still a config error."""
        from mergosim.cli import _SECTIONS
        from mergosim.evolution import WINDOWS

        window = _SECTIONS["evolve"]["autocorrelation"][0]["window"][0]
        assert window.options == tuple(WINDOWS)
        cfg = json.loads((CONFIG_DIR / "evolve_salt_1d.json").read_text())
        cfg["evolve"]["autocorrelation"]["window"] = "bogus"
        capsys.readouterr()
        assert run_cli("evolve", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")) == 2
        assert json.loads(capsys.readouterr().out) == {
            "status": "config_error",
            "error": "config.evolve.autocorrelation.window must be one of "
                     "['hann', 'rect', 'none'], got 'bogus'"}

    @pytest.mark.parametrize("points, code", [
        pytest.param(63, 0, id="3969_runs"),
        pytest.param(65, 2, id="4225_refused")])
    def test_absent_cap_is_the_grid_default(self, points, code, tmp_path,
                                            capsys):
        """With no particles.cap a basis takes ``enumerate_basis``'s own
        cap, 4096: 63**2 = 3969 configurations run, 65**2 = 4225 are
        refused."""
        cfg = patched("evolve_salt_1d.json", "evolve", n_steps=2,
                      autocorrelation=None)
        cfg["grid"]["points_per_axis"] = points
        del cfg["particles"]["cap"]
        assert run_cli("evolve", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")) == code
        [line] = capsys.readouterr().out.strip().splitlines()
        record = json.loads(line)
        if code:
            assert record == {
                "status": "config_error",
                "error": "basis size 4225 exceeds the configured cap 4096"}
        else:
            report = json.loads(
                (tmp_path / "out" / "evolve_report.json").read_text())
            assert record["status"] == "ok" and report["dim"] == 3969

    def test_evolve_imports_numpy_but_not_scipy(self, tmp_path):
        """numpy is the only numerical dependency: an evolve run (Lanczos
        start, split steps, fixed-s autocorrelation) loads no scipy."""
        script = (
            "import sys\n"
            "from mergosim.cli import main\n"
            f"code = main(['evolve', '--config', "
            f"{str(CONFIG_DIR / 'evolve_salt_1d.json')!r}, "
            f"'--out', {str(tmp_path)!r}])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip().splitlines()[-1] == "0 []"


class TestMeasureCommand:
    def test_basis_state_start(self, tmp_path):
        """A basis state |i> has p_suc = mask[i]: 1 inside the accepted
        block, 0 outside."""
        from mergosim import cli
        from mergosim.criteria import bipartition

        cfg = load_config(str(CONFIG_DIR / "measure_bond.json"))
        basis = cli._build_basis(cfg)
        mask = bipartition(cli._build_criteria(cfg, basis.particles)["bond"],
                           basis).mask
        assert mask.any() and not mask.all()
        for index in (int(np.argmax(mask)), int(np.argmin(mask))):
            cfg = patched("measure_bond.json", "measure", initial={
                "kind": "basis_state", "index": index})
            out = tmp_path / str(index)
            assert run_cli("measure", "--config",
                           write_config(tmp_path, cfg), "--out",
                           str(out)) == 0
            report = json.loads((out / "measure_report.json").read_text())
            assert report["p_suc"] == float(mask[index])


class TestTreeCommand:
    def test_rigged_tree_single_iterations(self, tmp_path):
        out = tmp_path / "rig"
        assert run_cli("tree", "--config",
                       str(CONFIG_DIR / "tree_rigged.json"),
                       "--out", str(out)) == 0
        report = json.loads((out / "tree_report.json").read_text())
        internal = {nid: rec for nid, rec in report["nodes"].items()
                    if rec["iterations"] > 0}
        assert len(internal) == 3
        assert all(rec["iterations"] == 1 for rec in internal.values())
        assert report["total_repetitions"] == 3

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("tree", "--config",
                           str(CONFIG_DIR / "tree_synthetic.json"),
                           "--out", str(out)) == 0
            outs.append(out)
        for name in ("tree_report.json", "tree_trace.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_delta_ramp_past_the_float_range(self, tmp_path):
        # every angle of the shipped run is already pi/2, so a ramp whose
        # powers overflow a float changes no byte
        cfg = json.loads((CONFIG_DIR / "tree_synthetic.json").read_text())
        assert cfg["tree"]["nodes"]["delta"] == math.pi / 2
        cfg["tree"]["nodes"]["delta_ramp"] = 1e300
        path = write_config(tmp_path, cfg)
        shipped, ramped = tmp_path / "shipped", tmp_path / "ramped"
        assert run_cli("tree", "--config",
                       str(CONFIG_DIR / "tree_synthetic.json"),
                       "--out", str(shipped)) == 0
        assert run_cli("tree", "--config", path, "--out", str(ramped)) == 0
        trace = (ramped / "tree_trace.jsonl").read_text().splitlines()
        # 1e300^(k-1) passes the float range from the third measurement on
        assert max(json.loads(line)["iteration"] for line in trace) >= 3
        for name in ("tree_report.json", "tree_trace.jsonl"):
            assert (ramped / name).read_bytes() == \
                (shipped / name).read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("tree", "--config", str(CONFIG_DIR / "tree_synthetic.json"),
                "--out", str(out_a))
        run_cli("tree", "--config", str(CONFIG_DIR / "tree_synthetic.json"),
                "--seed", "99", "--out", str(out_b))
        assert (out_a / "tree_trace.jsonl").read_bytes() != \
            (out_b / "tree_trace.jsonl").read_bytes()

    def test_node_exhausted_exit_code(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "tree_rigged.json").read_text())
        cfg["tree"]["overrides"] = {
            "node2": {"success_weight": 0.0, "max_iters": 4}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = run_cli("tree", "--config", path, "--out", str(out))
        assert code == 4
        record = json.loads(capsys.readouterr().out.strip())
        assert record["status"] == "node_exhausted"
        assert record["node_id"] == "node2"
        report = json.loads((out / "tree_report.json").read_text())
        assert report["status"] == "node_exhausted"
        # children of the failing root completed exactly once
        assert report["nodes"]["node0"]["iterations"] == 1
        assert report["nodes"]["node1"]["iterations"] == 1
        # the merge and three recoveries: none after the fourth failure
        assert report["nodes"]["node2"]["iterations"] == 4
        assert report["nodes"]["node2"]["wall_steps"] == 4

    def test_build_tree_constructs_the_tree_once(self, monkeypatch):
        """One tree for the planned shape and one for the configured
        nodes, however many internal nodes there are."""
        from mergosim import cli, tree

        built = []
        init = tree.ScatterTree.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(tree.ScatterTree, "__init__", counted)
        cfg = load_config(str(CONFIG_DIR / "tree_synthetic.json"))
        configured, states = cli._build_tree(cli._section(cfg, "tree"))
        assert len(configured.internal_ids()) == 7
        assert len(built) <= 2

    def test_twelve_leaf_tree_holds_no_dense_state(self, tmp_path):
        """Every leaf and every pump output is diagonal, so a tree of
        root dimension 4096 peaks far below one dense 4096 x 4096 complex
        array (268 MB) on every shape: the balanced 12-leaf tree, a
        12-leaf caterpillar (a leaf beside every pumped node) and three
        16-dimensional leaves."""
        shapes = {
            "balanced": dict(leaves=12),
            "caterpillar": dict(leaves=None, arity=None, root="n0",
                                children=caterpillar(11)),
            "three_wide_leaves": dict(leaves=3, leaf_dim=16)}
        for name, shape in shapes.items():
            cfg = patched("tree_synthetic.json", "tree", **shape)
            path = write_config(tmp_path, cfg, f"{name}.json")
            out = tmp_path / name
            tracemalloc.start()
            try:
                code = run_cli("tree", "--config", path, "--out", str(out))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, name
            report = json.loads((out / "tree_report.json").read_text())
            assert report["final_dim"] == 4096, name
            assert peak < 8e6, name

    def test_seed_sweep_ensemble_mean(self, tmp_path):
        # seven nodes at P = 0.5: mean total repetitions near 14
        totals = []
        for seed in range(200):
            out = tmp_path / f"s{seed}"
            assert run_cli("tree", "--config",
                           str(CONFIG_DIR / "tree_synthetic.json"),
                           "--seed", str(seed), "--out", str(out)) == 0
            report = json.loads((out / "tree_report.json").read_text())
            totals.append(report["total_repetitions"])
        assert np.mean(totals) == pytest.approx(14.0, rel=0.1)

    def test_explicit_children_layout(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "seed": 4,
            "tree": {
                "children": {"root": ["x", "y"]},
                "root": "root",
                "leaf_dim": 2,
                "nodes": {"success_weight": 1.0,
                          "delta": 1.5707963267948966,
                          "max_iters": 5}
            }
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_cli("tree", "--config", path, "--out", str(out)) == 0
        report = json.loads((out / "tree_report.json").read_text())
        assert set(report["nodes"]) == {"root", "x", "y"}

    @pytest.mark.parametrize("leaf_ids", [["node0", "b", "c"],
                                          ["a", "b", "node1"]])
    def test_leaf_ids_named_like_planned_nodes(self, leaf_ids, tmp_path):
        """The planner names internal nodes node{k} and skips a name a
        leaf holds, so three leaves get two internal nodes of their own."""
        cfg = patched("tree_synthetic.json", "tree", leaves=None,
                      leaf_ids=leaf_ids)
        out = tmp_path / "out"
        assert run_cli("tree", "--config", write_config(tmp_path, cfg),
                       "--out", str(out)) == 0
        report = json.loads((out / "tree_report.json").read_text())
        assert set(leaf_ids) <= set(report["nodes"])
        assert len(set(report["nodes"]) - set(leaf_ids)) == 2

    @pytest.mark.parametrize("leaf_ids", [["a", "a", "b"],
                                          ["a", "b", "a", "c"]])
    def test_repeated_leaf_id_is_named(self, leaf_ids, tmp_path, capsys):
        """A repeated leaf id is refused as such, before the planner
        merges the two leaves into one node."""
        cfg = patched("tree_synthetic.json", "tree", leaves=None,
                      leaf_ids=leaf_ids)
        assert run_cli("tree", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")) == 2
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["status"] == "config_error"
        assert "duplicate" in record["error"] and "'a'" in record["error"]

    def test_child_listed_twice_is_named(self, tmp_path, capsys):
        """A child repeated under one parent is refused as a repeat that
        names both, not as a child with two parents."""
        cfg = patched("tree_synthetic.json", "tree", leaves=None, arity=None,
                      root="root", children={"root": ["a", "a"]})
        assert run_cli("tree", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out")) == 2
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record == {"status": "config_error",
                          "error": "node 'root' lists 'a' twice"}


class TestLZCommand:
    def test_sweep_monotone_p_suc(self, tmp_path):
        out = tmp_path / "lz"
        assert run_cli("lz", "--config", str(CONFIG_DIR / "lz_rbcs.json"),
                       "--out", str(out)) == 0
        header, rows = read_csv(out / "lz_sweep.csv")
        assert header == ["v_au", "gamma", "p_lz", "p_lz_bound", "p_suc"]
        p_suc = [float(r[4]) for r in rows]
        assert all(a >= b for a, b in zip(p_suc, p_suc[1:]))
        assert p_suc[0] > 0.99 and p_suc[-1] < 0.01

    def test_unit_equivalence_kcal_vs_cm(self, tmp_path):
        base = json.loads((CONFIG_DIR / "lz_rbcs.json").read_text())
        base["lz"]["omega_a"] = {"value": 1.0, "unit": "kcal/mol"}
        base["lz"]["omega"] = {"value": 2.0, "unit": "kcal/mol"}
        path_a = write_config(tmp_path, base, "a.json")
        cm = json.loads(json.dumps(base))
        factor = 349.7550878  # 1 kcal/mol in 1/cm
        cm["lz"]["omega_a"] = {"value": factor, "unit": "cm-1"}
        cm["lz"]["omega"] = {"value": 2 * factor, "unit": "cm-1"}
        path_b = write_config(tmp_path, cm, "b.json")
        out_a, out_b = tmp_path / "za", tmp_path / "zb"
        assert run_cli("lz", "--config", path_a, "--out", str(out_a)) == 0
        assert run_cli("lz", "--config", path_b, "--out", str(out_b)) == 0
        _, rows_a = read_csv(out_a / "lz_sweep.csv")
        _, rows_b = read_csv(out_b / "lz_sweep.csv")
        for ra, rb in zip(rows_a, rows_b):
            assert float(ra[2]) == pytest.approx(float(rb[2]), rel=1e-6)

    def test_json_format(self, tmp_path):
        out = tmp_path / "lzjson"
        assert run_cli("lz", "--config", str(CONFIG_DIR / "lz_rbcs.json"),
                       "--out", str(out), "--format", "json") == 0
        payload = json.loads((out / "lz_sweep.json").read_text())
        assert payload["p_suc_max"] > 0.99


class TestCostCommand:
    def test_doubling_table_ratios(self, tmp_path):
        out = tmp_path / "cost"
        assert run_cli("cost", "--config",
                       str(CONFIG_DIR / "cost_table.json"),
                       "--out", str(out)) == 0
        header, rows = read_csv(out / "cost_table.csv")
        table = {row[0]: dict(zip(header, row)) for row in rows}
        base = table["base"]
        doubled_n = table["2x grid_points"]
        assert float(doubled_n["alpha_t"]) / float(base["alpha_t"]) == \
            pytest.approx(2 ** (2 / 3), rel=1e-12)
        assert float(doubled_n["alpha_v"]) / float(base["alpha_v"]) == \
            pytest.approx(2 ** (1 / 3), rel=1e-12)
        doubled_w = table["2x omega_max"]
        assert float(doubled_w["alpha_trap"]) / float(base["alpha_trap"]) == \
            pytest.approx(4.0, rel=1e-12)
        doubled_bits = table["2x bits"]
        assert int(doubled_bits["sel_ancillas"]) == 2 * int(base["sel_ancillas"])


class TestValidateCommand:
    def test_naive_criterion_counterexample(self, tmp_path):
        out = tmp_path / "val"
        assert run_cli("validate", "--config",
                       str(CONFIG_DIR / "validate_h2o2.json"),
                       "--out", str(out)) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["symmetric"] is False
        assert report["counterexample"] is not None

    def test_symmetrized_criterion_passes(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "validate_h2o2.json").read_text())
        cfg["validate"]["symmetrize"] = True
        path = write_config(tmp_path, cfg)
        out = tmp_path / "val"
        assert run_cli("validate", "--config", path, "--out", str(out)) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["symmetric"] is True

    def test_report_ignores_the_seed(self, tmp_path):
        """Every configuration is checked, so no byte of the report
        depends on --seed."""
        reports = []
        for seed in (0, 3, 99):
            out = tmp_path / f"seed{seed}"
            assert run_cli("validate", "--config",
                           str(CONFIG_DIR / "validate_h2o2.json"),
                           "--out", str(out), "--seed", str(seed)) == 0
            reports.append((out / "validate_report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]
        report = json.loads(reports[0])
        assert (report["symmetric"], report["sampled"],
                report["checked"]) == (False, False, 255)
        assert report["counterexample"]["permutation"] == [[0, 1], [1, 0]]
        assert report["counterexample"]["labels"] == [[-4], [-1], [-3], [-2]]

    @pytest.mark.parametrize("seed", [0, 9])
    def test_rare_asymmetry_is_found(self, seed, tmp_path):
        """On the H2O2 registers at m = 25 (390,625 configurations) only
        the rows with both O-H distances at 24 bohr and their exchange
        images break the symmetry; the first of them is row 15,024."""
        cfg = json.loads((CONFIG_DIR / "validate_h2o2.json").read_text())
        cfg["grid"].update(points_per_axis=25, box_length=25.0)
        cfg["particles"]["cap"] = 25 ** 4
        cfg["criteria"][0].update(unit="bohr", pairs=[[0, 2, 24.0, 0.5],
                                                      [1, 3, 24.0, 0.5]])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "val"
        assert run_cli("validate", "--config", path, "--out", str(out),
                       "--seed", str(seed)) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert (report["symmetric"], report["checked"]) == (False, 15_025)
        assert report["counterexample"]["labels"] == \
            [[-12], [12], [-12], [12]]


class TestArtifacts:
    @pytest.mark.parametrize("name", sorted(p.stem for p in
                                            CONFIG_DIR.glob("*.json")))
    def test_a_command_yields_what_main_writes(self, name, tmp_path,
                                               monkeypatch, capsys):
        """A command called directly writes nothing; the names it yields
        are the artifacts of the status line, in its order."""
        import mergosim.io as out_io
        from mergosim import cli

        command = name.split("_")[0]
        cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
        with monkeypatch.context() as patch:
            def no_write(path, text):
                raise AssertionError(f"{command} wrote {path}")

            patch.setattr(out_io, "_atomic_write", no_write)
            patch.chdir(tmp_path)
            names = [artifact for artifact, _ in
                     cli._COMMANDS[command](cfg, cfg["seed"], "csv")]
        assert list(tmp_path.iterdir()) == []
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(command, "--config", str(CONFIG_DIR / f"{name}.json"),
                       "--out", str(out)) == 0
        status = json.loads(capsys.readouterr().out)
        assert status == {"status": "ok", "artifacts":
                          [os.path.join(str(out), n) for n in names]}


class TestFormatFlag:
    # a command with no JSON table form and its shipped config
    @pytest.mark.parametrize("command, config", [
        ("evolve", "evolve_flat.json"), ("measure", "measure_bond.json"),
        ("tree", "tree_synthetic.json"), ("validate", "validate_h2o2.json")])
    def test_json_is_a_config_error_where_there_is_no_table(
            self, command, config, tmp_path, capsys):
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(command, "--config", str(CONFIG_DIR / config),
                       "--out", str(out), "--format", "json")
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2 and record["status"] == "config_error"
        assert "--format json" in record["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command, config, artifact", [
        ("lz", "lz_rbcs.json", "lz_sweep"),
        ("cost", "cost_table.json", "cost_table")])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_commands_keep_both_formats(self, command, config, artifact,
                                              fmt, tmp_path):
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(CONFIG_DIR / config),
                       "--out", str(out), "--format", fmt) == 0
        assert [p.name for p in out.iterdir()] == [f"{artifact}.{fmt}"]


class TestParser:
    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch,
                                        capsys):
        import argparse

        from mergosim import cli

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert run_cli("cost", "--config",
                               str(CONFIG_DIR / "cost_table.json"),
                               "--out", str(tmp_path / "out")) == 0
            assert len(built) == 1
            # the reused parser still handles help and usage errors
            for argv, code in ((["--help"], 0), (["bogus", "--config",
                                                  "x.json"], 2)):
                with pytest.raises(SystemExit) as exit_info:
                    run_cli(*argv)
                assert exit_info.value.code == code
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import mergosim.cli\n"
            "print(len(built))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "0"

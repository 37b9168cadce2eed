"""Import edges between mergosim modules that must stay gone.

Each module's imports are read with ``ast`` (the module is not
imported), so an import inside a function counts as well. The dense
matrix file format left ``io`` to the writers the commands use, the
witness left ``criteria`` and the structured escalation left ``tree``;
an edge that comes back would pull a module into a layer it no longer
needs. No module reaches for another one's private (``_``-prefixed)
names either: what a module shares, it makes public.

The package and ``cli`` load lazily: ``import mergosim.cli`` loads only
``cli``, ``errors``, ``io`` and ``units``, each command imports the
layers it runs, and the package resolves its public names on access.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mergosim

SRC = Path(__file__).resolve().parent.parent / "src" / "mergosim"
CONFIG_DIR = SRC.parent.parent / "configs"

# (module, module it must not import)
FORBIDDEN = [("criteria", "evolution"), ("evolution", "io"),
             ("hamiltonian", "io"), ("tree", "hamiltonian")]


def mergosim_imports(nodes) -> set:
    """The mergosim modules that the import statements among ``nodes``
    name, by bare name."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("mergosim." if node.level else "") + (node.module or "")
            dotted = [f"{base.rstrip('.')}.{alias.name}"
                      for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted
                     if name.startswith("mergosim."))
    return found


def imported_modules(module: str) -> set:
    """The mergosim modules that ``module`` imports, by bare name."""
    return mergosim_imports(
        ast.walk(ast.parse((SRC / f"{module}.py").read_text())))


def test_the_reader_sees_known_edges():
    assert {"evolution", "weakmeas", "criteria"} <= imported_modules("tree")
    assert {"criteria", "io", "tree"} <= imported_modules("cli")


@pytest.mark.parametrize("module, target", FORBIDDEN,
                         ids=[f"{m}-{t}" for m, t in FORBIDDEN])
def test_forbidden_import_edge_stays_gone(module, target):
    assert target not in imported_modules(module)


def private_names_imported(module: str) -> list:
    """``from <mergosim module> import _name`` in ``module``, and
    ``<alias>._name`` for a mergosim module it imported as <alias>."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("mergosim")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                elif node.module in (None, "mergosim"):
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__") \
                and getattr(node.value, "id", None) in aliases:
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_private_name_crosses_a_module(module):
    assert private_names_imported(module) == []


def run_on_import(tree):
    """Every node of ``tree`` that runs when the module is imported: all
    but function bodies (an ``if`` or ``try`` or class body counts)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_cli_imports_only_errors_io_and_units_at_module_level():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert mergosim_imports(run_on_import(tree)) <= {"errors", "io", "units"}
    assert "tree" in imported_modules("cli")  # inside a command


# command -> (its shipped config, the modules it loads beyond those
# ``import mergosim.cli`` loads), as the README's Start-up table lists them
EVOLVE_LAYERS = ["grid", "hamiltonian", "evolution"]
VALIDATE_LAYERS = EVOLVE_LAYERS + ["criteria", "symmetry"]
MEASURE_LAYERS = VALIDATE_LAYERS + ["weakmeas"]
COMMAND_LAYERS = {
    "lz": ("lz_rbcs", ["lzcost"]),
    "cost": ("cost_table", ["lzcost"]),
    "evolve": ("evolve_salt_1d", EVOLVE_LAYERS),
    "validate": ("validate_h2o2", VALIDATE_LAYERS),
    "measure": ("measure_bond", MEASURE_LAYERS),
    "tree": ("tree_synthetic", MEASURE_LAYERS + ["tree"]),
}


def test_a_command_loads_only_its_layers(tmp_path):
    """A fresh process per command: importing ``mergosim.cli`` loads four
    mergosim modules and the package, and a run adds only the layers the
    command runs. A submodule not yet loaded is still an attribute of
    the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    for command, (config, layers) in COMMAND_LAYERS.items():
        script = (
            "import contextlib, io, json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'mergosim')\n"
            "import mergosim.cli\n"
            "before = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = mergosim.cli.main([{command!r}, '--config', "
            f"{str(CONFIG_DIR / (config + '.json'))!r}, "
            f"'--out', {str(tmp_path / command)!r}])\n"
            "after = loaded()\n"
            "print(json.dumps([code, before, after, mergosim.grid.__name__]))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        code, before, after, grid = json.loads(
            done.stdout.strip().splitlines()[-1])
        assert code == 0, command
        assert before == ["mergosim", "mergosim.cli", "mergosim.errors",
                          "mergosim.io", "mergosim.units"], command
        assert sorted(set(after) - set(before)) == \
            sorted(f"mergosim.{m}" for m in layers), command
        assert grid == "mergosim.grid"


# The package's public names, by defining module, as the package
# exported them when it imported every submodule eagerly
EXPORTS = {
    "criteria": "Bipartition GeometricCriterion SymmetrizedCriterion "
                "bipartition symmetrize_criterion validate_symmetric",
    "errors": "SimulationError",
    "evolution": "DensityMatrix PropagationReport autocorrelation "
                 "ground_state propagate spectrum",
    "grid": "Basis Configuration GridSpec ParticleSet enumerate_basis",
    "hamiltonian": "OperatorBlock Schedule ScheduledHamiltonian "
                   "StructuredHamiltonian TrapSpec build_coulomb "
                   "build_kinetic build_point_charges build_trap "
                   "coulomb_diagonal point_charge_diagonal trap_diagonal",
    "lzcost": "AlphaFactors CostParams LZParams LZResult alpha_factors "
              "lcu_query_model p_landau_zener",
    "symmetry": "Permutation SymmetryDeclaration antisymmetrize generators "
                "group_elements permutation_matrix symmetry_check",
    "tree": "PumpChannel PropagationChannel RetryPolicy ScatterNode "
            "ScatterTree TreeRunReport channel_decompose plan_tree run_tree",
    "units": "unit_convert",
    "weakmeas": "MeasurementBranches MeasurementOutcome TraceLog "
                "WeakMeasurementSpec lambda_coefficients "
                "measurement_branches p_success_weight repeat_until_success "
                "spin_sector_project weak_measure",
}


def test_the_package_lists_every_public_name():
    names = [n for names in EXPORTS.values() for n in names.split()]
    assert len(names) == 64
    assert sorted(mergosim.__all__) == sorted(names)
    assert set(names) <= set(dir(mergosim))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_a_public_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"mergosim.{module}")
    for name in EXPORTS[module].split():
        namespace = {}
        exec(f"from mergosim import {name}", namespace)
        assert namespace[name] is getattr(defining, name), name


def test_a_public_name_follows_a_rebinding_in_its_module(monkeypatch):
    """Nothing is cached on the package, so a function swapped in its
    defining module (as a tracer does) and put back is what the package
    returns each time."""
    import mergosim.evolution as evolution

    original = evolution.propagate
    assert mergosim.propagate is original
    monkeypatch.setattr(evolution, "propagate", len)
    assert mergosim.propagate is len
    monkeypatch.undo()
    assert mergosim.propagate is original
    assert "propagate" not in vars(mergosim)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mergosim.no_such_name
    with pytest.raises(ImportError):
        exec("from mergosim import no_such_name", {})

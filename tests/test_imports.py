"""Import edges between mergosim modules that must stay gone.

Each module's imports are read with ``ast`` (the module is not
imported), so an import inside a function counts as well. The dense
matrix file format left ``io`` to the writers the commands use, the
witness left ``criteria`` and the structured escalation left ``tree``;
an edge that comes back would pull a module into a layer it no longer
needs. No module reaches for another one's private (``_``-prefixed)
names either: what a module shares, it makes public.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mergosim"

# (module, module it must not import)
FORBIDDEN = [("criteria", "evolution"), ("evolution", "io"),
             ("hamiltonian", "io"), ("tree", "hamiltonian")]


def imported_modules(module: str) -> set:
    """The mergosim modules that ``module`` imports, by bare name."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
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

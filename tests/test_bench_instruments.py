"""The benchmark tracer's instrument table names code that exists.

``bench/tracer.py`` wraps every ``(module, name)`` of its ``INSTRUMENTS``
table, a method through its class ``__dict__`` (as
``Patches.replace_method`` does). A function or method that is renamed
or deleted in ``src/`` would break a traced benchmark run while every
other test stays green, so this test reads the table (without importing
or editing the tracer) and resolves each entry.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def instruments():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "INSTRUMENTS"
                for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value)
                    for row in node.value.elts]
    raise AssertionError(f"{TRACER} defines no INSTRUMENTS table")


def test_every_instrument_resolves_in_src():
    table = instruments()
    assert table
    missing = []
    for module_name, name in table:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in cls.__dict__
        else:
            found = callable(getattr(module, name, None))
        if not found:
            missing.append(f"{module_name}.{name}")
    assert not missing, f"INSTRUMENTS names missing code: {missing}"


def test_herald_exhausted_reads_max_iters_at_position_3():
    """The tracer's ``_herald_exhausted`` counts the measurements of an
    exhausted ``repeat_until_success`` from ``args[3]`` when ``max_iters``
    is passed by position."""
    from mergosim.weakmeas import repeat_until_success

    params = list(inspect.signature(repeat_until_success).parameters)
    assert params[3] == "max_iters"

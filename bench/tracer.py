"""Outside-in tracing of mergosim's public entry points.

Nothing inside the package is edited: the tracer swaps each listed
function or method for a wrapper while installed, both on its defining
module or class and under every name another mergosim module imported
it as, and puts the originals back on removal. Each wrapper records a
span (name, start, end, parent, request id); per-configuration hot
calls only bump a counter. numpy's dense eigensolvers get spans of
their own in a ``linalg`` layer, whoever calls them, so LAPACK time
never counts as the caller's self time. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

LAYERS = ("grid", "hamiltonian", "evolution", "symmetry", "criteria",
          "weakmeas", "tree", "lzcost", "cli", "linalg")

# Span record fields, kept as lists so a wrapper updates them in place.
# WORK is the computed n^3 of an eigensolver span, 0 elsewhere.
NAME, START, END, PARENT, REQUEST, CHILD_S, WORK = range(7)


def _import_package() -> None:
    """Import every mergosim submodule, so that a later import cannot
    bind a name to a wrapper that is about to be removed."""
    import mergosim

    for info in pkgutil.iter_modules(mergosim.__path__):
        importlib.import_module(f"mergosim.{info.name}")


def _module_attrs_bound_to(original):
    """Every (module, attribute) in mergosim bound to ``original``."""
    _import_package()
    hits = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mergosim"
                               or mod_name.startswith("mergosim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                hits.append((mod, attr))
    return hits


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, module_name: str, name: str,
                         make: Callable) -> None:
        """Replace a module-level function everywhere mergosim binds it."""
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        wrapper = make(original)
        for owner, attr in _module_attrs_bound_to(original):
            self.set(owner, attr, wrapper)

    def replace_method(self, module_name: str, qualname: str,
                       make: Callable) -> None:
        cls_name, attr = qualname.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        self.set(cls, attr, make(cls.__dict__[attr]))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@dataclass
class Tracer:
    """In-memory span store for the passes of one traced run."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    request_id: Optional[int] = None

    def reset(self) -> None:
        """Start a new pass; wrappers keep their references to the stack
        and counters, so those are cleared in place."""
        self.spans = []
        self.stack.clear()
        self.counters.clear()
        self.request_id = None

    @contextmanager
    def request(self, request_id: int):
        """Tag the spans of one closed-loop request."""
        self.request_id = request_id
        rec = self.open("bench.request")
        try:
            yield
        finally:
            self.close(rec)
            self.request_id = None

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [name, 0.0, 0.0, parent, self.request_id, 0.0, 0]
        self.spans.append(rec)
        self.stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()
        if rec[PARENT] is not None:
            rec[PARENT][CHILD_S] += rec[END] - rec[START]

    def span(self, name: str, on_result=None, on_error=None):
        """Wrapper factory recording one span per call."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    tracer.close(rec)
                    if on_error is not None:
                        on_error(tracer, rec, args, kwargs, exc)
                    raise
                tracer.close(rec)
                if on_result is not None:
                    on_result(tracer, rec, args, kwargs, result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def counter(self, key: str):
        counters = self.counters

        def make(fn):
            def wrapper(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def dense_solver(self, name: str, fn):
        """A ``linalg.<name>`` span per eigensolver call, with its n^3."""
        tracer = self

        def wrapper(a, *args, **kwargs):
            rec = tracer.open(f"linalg.{name}")
            rec[WORK] = int(np.shape(a)[-1]) ** 3
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(rec)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> Patches:
        patches = Patches()
        for module_name, name, kind, hook in INSTRUMENTS:
            if kind == "counter":
                make = self.counter(hook)
            else:
                on_result, on_error = hook or (None, None)
                make = self.span(f"{module_name.split('.')[-1]}.{name}",
                                 on_result, on_error)
            if "." in name:
                patches.replace_method(module_name, name, make)
            else:
                patches.replace_function(module_name, name, make)
        for name in ("eigh", "eigvalsh"):
            patches.set(np.linalg, name,
                        self.dense_solver(name, getattr(np.linalg, name)))
        return patches


# -- result hooks: counts read from what each entry point returns -----------

def _basis_size(tracer, rec, args, kwargs, basis):
    tracer.counters["grid.basis_size"] = max(
        tracer.counters["grid.basis_size"], basis.size)


def _propagated(tracer, rec, args, kwargs, report):
    tracer.counters["evolution.propagate_calls"] += 1
    tracer.counters["evolution.steps"] += report.steps


def _stepped(tracer, rec, args, kwargs, unitary):
    parent = rec[PARENT]
    if parent is not None and parent[NAME] == "evolution.propagate":
        tracer.counters["evolution.step_unitaries_in_propagate"] += 1


def _validated(tracer, rec, args, kwargs, result):
    tracer.counters["criteria.configs_checked"] += result.checked


def _measured(tracer, rec, args, kwargs, outcome):
    tracer.counters["weakmeas.measurements"] += 1
    tracer.counters["weakmeas.successes"] += outcome.flag


def _heralded(tracer, rec, args, kwargs, result):
    tracer.counters["weakmeas.measurements"] += result[1]
    tracer.counters["weakmeas.successes"] += 1


def _herald_exhausted(tracer, rec, args, kwargs, exc):
    from mergosim.errors import MaxItersExceeded

    if isinstance(exc, MaxItersExceeded):
        max_iters = kwargs.get("max_iters", args[3] if len(args) > 3 else 0)
        tracer.counters["weakmeas.measurements"] += int(max_iters)


def _tree_counts(tracer, report):
    internal = [r for r in report.records.values() if r.iterations > 0]
    tracer.counters["tree.nodes_run"] += len(internal)
    tracer.counters["tree.repetitions"] += report.total_repetitions


def _tree_ran(tracer, rec, args, kwargs, report):
    _tree_counts(tracer, report)


def _tree_failed(tracer, rec, args, kwargs, exc):
    from mergosim.errors import NodeExhausted

    if isinstance(exc, NodeExhausted):
        tracer.counters["tree.nodes_exhausted"] += 1
        if exc.report is not None:
            _tree_counts(tracer, exc.report)


def _channel_applied(tracer, rec, args, kwargs, state):
    tracer.counters["tree.channel_applications"] += 1


def _cli_ran(tracer, rec, args, kwargs, code):
    tracer.counters["cli.runs"] += 1


def _block_checked(tracer, rec, args, kwargs, result):
    tracer.counters["hamiltonian.block_checks"] += 1


def _state_checked(tracer, rec, args, kwargs, result):
    tracer.counters["evolution.state_checks"] += 1


# (module, function or Class.method, kind, hook). Kind "span" records a
# span whose hook is (on_result, on_error) or None; kind "counter" only
# bumps the counter named by the hook.
INSTRUMENTS = (
    ("mergosim.grid", "enumerate_basis", "span", (_basis_size, None)),
    ("mergosim.hamiltonian", "build_kinetic", "span", None),
    ("mergosim.hamiltonian", "build_coulomb", "span", None),
    ("mergosim.hamiltonian", "build_trap", "span", None),
    ("mergosim.hamiltonian", "build_point_charges", "span", None),
    ("mergosim.hamiltonian", "zero_block", "span", None),
    ("mergosim.hamiltonian", "OperatorBlock.__post_init__", "span",
     (_block_checked, None)),
    ("mergosim.hamiltonian", "OperatorBlock.__add__", "span", None),
    ("mergosim.hamiltonian", "OperatorBlock.scaled", "span", None),
    ("mergosim.hamiltonian", "ScheduledHamiltonian.evaluate", "span",
     None),
    ("mergosim.evolution", "DensityMatrix.__post_init__", "span",
     (_state_checked, None)),
    ("mergosim.evolution", "propagate", "span", (_propagated, None)),
    ("mergosim.evolution", "step_unitary", "span", (_stepped, None)),
    ("mergosim.evolution", "default_step_count", "span", None),
    ("mergosim.evolution", "autocorrelation", "span", None),
    ("mergosim.evolution", "spectrum", "span", None),
    ("mergosim.symmetry", "generators", "span", None),
    ("mergosim.symmetry", "group_elements", "span", None),
    ("mergosim.symmetry", "permutation_indices", "span", None),
    ("mergosim.symmetry", "apply_permutation", "span", None),
    ("mergosim.symmetry", "antisymmetrize", "span", None),
    ("mergosim.symmetry", "symmetry_check", "span", None),
    ("mergosim.symmetry", "SymmetryDeclaration.check_against", "span",
     None),
    ("mergosim.symmetry", "Permutation.apply_to_configuration", "counter",
     "symmetry.permutation_calls"),
    ("mergosim.criteria", "validate_symmetric", "span",
     (_validated, None)),
    ("mergosim.criteria", "bipartition", "span", None),
    ("mergosim.criteria", "symmetrize_criterion", "span", None),
    ("mergosim.criteria", "GeometricCriterion.evaluate", "counter",
     "criteria.criterion_evals"),
    ("mergosim.weakmeas", "weak_measure", "span", (_measured, None)),
    ("mergosim.weakmeas", "measurement_branches", "span", None),
    ("mergosim.weakmeas", "p_success_weight", "span", None),
    ("mergosim.weakmeas", "repeat_until_success", "span",
     (_heralded, _herald_exhausted)),
    ("mergosim.weakmeas", "spin_sector_project", "span", None),
    ("mergosim.tree", "run_tree", "span", (_tree_ran, _tree_failed)),
    ("mergosim.tree", "plan_tree", "span", None),
    ("mergosim.tree", "channel_decompose", "span", None),
    ("mergosim.tree", "PropagationChannel.apply", "span",
     (_channel_applied, None)),
    ("mergosim.tree", "PumpChannel.apply", "span",
     (_channel_applied, None)),
    ("mergosim.lzcost", "sweep_velocity", "span", None),
    ("mergosim.lzcost", "p_landau_zener", "counter", "lzcost.points"),
    ("mergosim.lzcost", "alpha_factors", "span", None),
    ("mergosim.lzcost", "lcu_query_model", "span", None),
    ("mergosim.cli", "main", "span", (_cli_ran, None)),
    ("mergosim.cli", "load_config", "span", None),
)


# -- per-layer metrics of one traced pass ----------------------------------

BUILDERS = ("hamiltonian.build_kinetic", "hamiltonian.build_coulomb",
            "hamiltonian.build_trap", "hamiltonian.build_point_charges")

# Counts a deterministic program must repeat exactly between traced passes.
REPEATING_COUNTS = ("evolution.eigh_calls", "evolution.steps",
                    "tree.repetitions", "criteria.configs_checked",
                    "weakmeas.measurements")

# name -> (unit, better); the per-layer metrics every traced run reports.
PER_LAYER = {
    "grid.enumerate_basis_s": ("s", "lower"),
    "grid.basis_size": ("count", "lower"),
    "hamiltonian.build_s": ("s", "lower"),
    "hamiltonian.evaluate_calls": ("count", "lower"),
    "hamiltonian.evaluate_s": ("s", "lower"),
    "hamiltonian.block_checks": ("count", "lower"),
    # every dense eigensolver call, whichever layer makes it
    "evolution.eigh_calls": ("count", "lower"),
    "evolution.eigh_s": ("s", "lower"),
    "evolution.eigh_n3_sum": ("computed_n3", "lower"),
    "evolution.propagate_calls": ("count", "lower"),
    "evolution.steps": ("count", "lower"),
    "evolution.propagate_self_s": ("s", "lower"),
    "evolution.unitary_cache_hit_ratio": ("ratio", "higher"),
    "evolution.state_checks": ("count", "lower"),
    "evolution.state_check_s": ("s", "lower"),
    "evolution.autocorrelation_s": ("s", "lower"),
    "evolution.spectrum_s": ("s", "lower"),
    "symmetry.permutation_calls": ("count", "lower"),
    "symmetry.s": ("s", "lower"),
    "criteria.validate_s": ("s", "lower"),
    "criteria.bipartition_s": ("s", "lower"),
    "criteria.configs_checked": ("count", "lower"),
    "criteria.criterion_evals": ("count", "lower"),
    "weakmeas.measurements": ("count", "lower"),
    "weakmeas.success_ratio": ("ratio", "higher"),
    "weakmeas.s": ("s", "lower"),
    "tree.nodes_run": ("count", "lower"),
    "tree.repetitions": ("count", "lower"),
    "tree.channel_applications": ("count", "lower"),
    "tree.nodes_exhausted": ("count", "lower"),
    "tree.self_s": ("s", "lower"),
    "lzcost.points": ("count", "lower"),
    "lzcost.s": ("s", "lower"),
    "cli.runs": ("count", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.layer_self_sum_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def layer_metrics(spans, counters, artifact_bytes: int) -> dict:
    """Per-layer figures of one traced pass (run-level ones excluded)."""
    self_by_layer = Counter()
    total_by_name = Counter()
    calls_by_name = Counter()
    eigh_calls = eigh_n3 = 0
    eigh_s = propagate_self = 0.0
    for rec in spans:
        duration = rec[END] - rec[START]
        own = duration - rec[CHILD_S]
        layer = rec[NAME].split(".")[0]
        self_by_layer[layer] += own
        total_by_name[rec[NAME]] += duration
        calls_by_name[rec[NAME]] += 1
        if layer == "linalg":
            eigh_calls += 1
            eigh_s += duration
            eigh_n3 += rec[WORK]
        if rec[NAME] == "evolution.propagate":
            propagate_self += own
    steps = counters["evolution.steps"]
    measurements = counters["weakmeas.measurements"]
    return {
        "grid.enumerate_basis_s": total_by_name["grid.enumerate_basis"],
        "grid.basis_size": counters["grid.basis_size"],
        "hamiltonian.build_s": sum(total_by_name[n] for n in BUILDERS),
        "hamiltonian.evaluate_calls":
            calls_by_name["hamiltonian.ScheduledHamiltonian.evaluate"],
        "hamiltonian.evaluate_s":
            total_by_name["hamiltonian.ScheduledHamiltonian.evaluate"],
        "hamiltonian.block_checks": counters["hamiltonian.block_checks"],
        "evolution.eigh_calls": eigh_calls,
        "evolution.eigh_s": eigh_s,
        "evolution.eigh_n3_sum": eigh_n3,
        "evolution.propagate_calls": counters["evolution.propagate_calls"],
        "evolution.steps": steps,
        "evolution.propagate_self_s": propagate_self,
        "evolution.unitary_cache_hit_ratio":
            (steps - counters["evolution.step_unitaries_in_propagate"])
            / steps if steps else 0.0,
        "evolution.state_checks": counters["evolution.state_checks"],
        "evolution.state_check_s":
            total_by_name["evolution.DensityMatrix.__post_init__"],
        "evolution.autocorrelation_s":
            total_by_name["evolution.autocorrelation"],
        "evolution.spectrum_s": total_by_name["evolution.spectrum"],
        "symmetry.permutation_calls": counters["symmetry.permutation_calls"],
        "symmetry.s": self_by_layer["symmetry"],
        "criteria.validate_s": total_by_name["criteria.validate_symmetric"],
        "criteria.bipartition_s": total_by_name["criteria.bipartition"],
        "criteria.configs_checked": counters["criteria.configs_checked"],
        "criteria.criterion_evals": counters["criteria.criterion_evals"],
        "weakmeas.measurements": measurements,
        "weakmeas.success_ratio":
            counters["weakmeas.successes"] / measurements
            if measurements else 0.0,
        "weakmeas.s": self_by_layer["weakmeas"],
        "tree.nodes_run": counters["tree.nodes_run"],
        "tree.repetitions": counters["tree.repetitions"],
        "tree.channel_applications": counters["tree.channel_applications"],
        "tree.nodes_exhausted": counters["tree.nodes_exhausted"],
        "tree.self_s": self_by_layer["tree"],
        "lzcost.points": counters["lzcost.points"],
        "lzcost.s": self_by_layer["lzcost"],
        "cli.runs": counters["cli.runs"],
        "cli.load_config_s": total_by_name["cli.load_config"],
        "cli.self_s": self_by_layer["cli"],
        "cli.artifact_bytes": artifact_bytes,
        "trace.layer_self_sum_s": sum(self_by_layer[l] for l in LAYERS),
        "trace.unattributed_s": self_by_layer["bench"],
    }


def span_rows(spans):
    """JSON-ready span records; parents are given by index."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    rows = []
    for rec in spans:
        rows.append({
            "name": rec[NAME], "start": rec[START], "end": rec[END],
            "parent": None if rec[PARENT] is None else index[id(rec[PARENT])],
            "request": rec[REQUEST],
            "self_s": rec[END] - rec[START] - rec[CHILD_S],
            "work_n3": rec[WORK]})
    return rows

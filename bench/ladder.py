"""Per-layer size ladder: layer entry points timed at growing basis size.

Two identical nuclei in 1D on m-point grids give n = m^2 of about 81,
441, 961, 2025 and 3969. Each entry has a time budget and a memory
budget. An entry whose next rung is predicted to exceed either one
(time from the last rungs' measured growth, memory from the number of
n x n complex arrays it holds) is recorded as "skipped: over budget",
as is every larger rung; an entry that runs over its time budget is
recorded with its time and ends its climb. Nothing is dropped silently.
Results are reported, not gated.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

SIZES = (9, 21, 31, 45, 63)
BUDGET_S = 5.0          # time budget per entry and size
MASS = 5.0
S1 = 4.0


@dataclass(frozen=True)
class Entry:
    name: str
    exponent: float      # assumed growth n^k until two rungs are measured
    matrices: int        # n x n complex arrays held while it runs
    needs: tuple = ()


ENTRIES = (
    Entry("grid.enumerate_basis", 1.0, 0),
    Entry("hamiltonian.build_kinetic", 2.0, 3, ("grid.enumerate_basis",)),
    Entry("hamiltonian.build_coulomb", 2.0, 4, ("grid.enumerate_basis",)),
    Entry("hamiltonian.build_trap", 2.0, 5, ("grid.enumerate_basis",)),
    Entry("hamiltonian.evaluate", 2.0, 8,
          ("hamiltonian.build_kinetic", "hamiltonian.build_coulomb",
           "hamiltonian.build_trap")),
    Entry("criteria.bipartition", 1.0, 0, ("grid.enumerate_basis",)),
    Entry("criteria.validate_symmetric", 1.0, 0, ("grid.enumerate_basis",)),
    Entry("symmetry.permutation_indices", 1.0, 0, ("grid.enumerate_basis",)),
    Entry("evolution.state_check", 3.0, 4, ("grid.enumerate_basis",)),
    Entry("evolution.step_eigh", 3.0, 4, ("hamiltonian.evaluate",)),
    Entry("evolution.step_conjugation", 3.0, 5, ("evolution.step_eigh",)),
    Entry("evolution.propagate", 3.0, 10, ("hamiltonian.evaluate",)),
    Entry("weakmeas.weak_measure", 2.0, 5, ("criteria.bipartition",)),
    Entry("tree.run_tree", 3.0, 10, ("hamiltonian.evaluate",)),
)


def _problem(m: int):
    from mergosim import grid, symmetry

    g = grid.GridSpec(m, 1, float(m))
    particles = grid.ParticleSet(0, (MASS, MASS), (1.0, 1.0))
    declaration = symmetry.SymmetryDeclaration(bosonic_sets=((0, 1),))
    return g, particles, declaration


def _pure_state(n: int):
    from mergosim.evolution import DensityMatrix

    vec = np.exp(1j * np.linspace(0.0, 3.0, n)) / math.sqrt(n)
    return DensityMatrix.trusted(np.outer(vec, vec.conj()))


def _run_entry(name: str, m: int, ctx: dict):
    """Return a zero-argument callable for one timed call of ``name``."""
    from mergosim import (criteria, evolution, grid, hamiltonian, symmetry,
                          tree, weakmeas)

    g, particles, declaration = _problem(m)
    basis = ctx.get("grid.enumerate_basis")
    proximity = criteria.GeometricCriterion("proximity", ((0, 1, 2.0),))
    if name == "grid.enumerate_basis":
        return lambda: grid.enumerate_basis(g, particles)
    if name == "hamiltonian.build_kinetic":
        return lambda: hamiltonian.build_kinetic(basis)
    if name == "hamiltonian.build_coulomb":
        return lambda: hamiltonian.build_coulomb(basis, 1.0, [(0, 1)])
    if name == "hamiltonian.build_trap":
        trap = hamiltonian.TrapSpec.isotropic_spec([[-2.0], [2.0]], 1.0)
        return lambda: hamiltonian.build_trap(basis, trap)
    if name == "hamiltonian.evaluate":
        kinetic = ctx["hamiltonian.build_kinetic"]
        sh = hamiltonian.ScheduledHamiltonian(
            kinetic, hamiltonian.OperatorBlock(
                np.zeros_like(kinetic.matrix), "external"),
            ctx["hamiltonian.build_coulomb"], ctx["hamiltonian.build_trap"],
            hamiltonian.Schedule(S1 / 2, S1, "smoothstep", "smoothstep"))
        ctx["scheduled"] = sh
        return lambda: sh.evaluate(S1 / 4)
    if name == "criteria.bipartition":
        return lambda: criteria.bipartition(proximity, basis)
    if name == "criteria.validate_symmetric":
        return lambda: criteria.validate_symmetric(proximity, declaration,
                                                   basis)
    if name == "symmetry.permutation_indices":
        swap = symmetry.generators(declaration)[0]
        return lambda: symmetry.permutation_indices(swap, basis)
    if name == "evolution.state_check":
        mat = _pure_state(basis.size).matrix
        return lambda: evolution.DensityMatrix(mat)
    if name == "evolution.step_eigh":
        h = ctx["hamiltonian.evaluate"].matrix
        return lambda: evolution.step_unitary(h, 0.1)
    if name == "evolution.step_conjugation":
        u = ctx["evolution.step_eigh"]
        rho = _pure_state(u.shape[0]).matrix
        return lambda: u @ rho @ u.conj().T
    if name == "evolution.propagate":
        sh = ctx["scheduled"]
        state = _pure_state(sh.dim)
        return lambda: evolution.propagate(state, sh, 0.0, S1, 2)
    if name == "weakmeas.weak_measure":
        spec = weakmeas.WeakMeasurementSpec(ctx["criteria.bipartition"], 0.6)
        state = _pure_state(spec.bipartition.dim)
        return lambda: weakmeas.weak_measure(state, spec)
    if name == "tree.run_tree":
        # an all-accepting projective herald keeps it to one round
        sh = ctx["scheduled"]
        plan = tree.plan_tree(2)
        plan = plan.configure(
            plan.root, channel=tree.PropagationChannel(sh, 0.0, S1, 1),
            bipartition=criteria.Bipartition(np.ones(sh.dim, dtype=bool)),
            delta=math.pi / 2, retry=tree.RetryPolicy(renaturalize=False))
        leaf = np.full(m, 1.0 / math.sqrt(m), dtype=complex)
        leaves = {lid: evolution.DensityMatrix.from_pure(leaf)
                  for lid in plan.leaf_ids()}
        return lambda: tree.run_tree(plan, leaves, 0)
    raise KeyError(name)


def _time(call, timer):
    """(median seconds, last output); quick calls are repeated."""
    times, out = [], None
    for _ in range(3):
        start = timer()
        out = call()
        times.append(timer() - start)
        if times[0] > 0.2:
            break
    return statistics.median(times), out


def _prune(ctx: dict, remaining, fits, stopped) -> None:
    """Free outputs no remaining runnable entry needs."""
    needed = {d for e in remaining
              if e.name in fits and not stopped[e.name] for d in e.needs}
    if "hamiltonian.evaluate" in needed:
        needed.add("scheduled")
    for key in [k for k in ctx if k not in needed]:
        del ctx[key]


def run_ladder(budget_s: float = BUDGET_S,
               memory_budget_mb: float = 1500.0, sizes=SIZES,
               entries=ENTRIES, timer=time.perf_counter,
               runner=_run_entry) -> list:
    """One row per entry x size: seconds, or a "skipped: ..." status."""
    rows = []
    history = {e.name: [] for e in entries}   # [(n, seconds)] measured
    stopped = {e.name: False for e in entries}
    for m in sizes:
        n = m * m
        ctx: dict = {}
        fits = {e.name for e in entries
                if e.matrices * 16.0 * n * n / 2 ** 20 <= memory_budget_mb}
        for i, entry in enumerate(entries):
            _prune(ctx, entries[i:], fits, stopped)
            row = {"entry": entry.name, "n": n, "seconds": None,
                   "status": "ok", "budget_s": budget_s}
            rows.append(row)
            past = history[entry.name]
            if stopped[entry.name]:
                row["status"] = "skipped: over budget"
                continue
            if past:
                k = entry.exponent
                if len(past) >= 2 and past[-2][1] > 0.05:
                    (n0, t0), (n1, t1) = past[-2], past[-1]
                    k = min(max(math.log(t1 / t0) / math.log(n1 / n0), 1.0),
                            3.5)
                predicted = past[-1][1] * (n / past[-1][0]) ** k
                row["predicted_s"] = predicted
                if predicted > budget_s:
                    row["status"] = "skipped: over budget"
                    stopped[entry.name] = True
                    continue
            if entry.name not in fits:
                row["status"] = "skipped: over budget (memory)"
                stopped[entry.name] = True
                continue
            missing = [d for d in entry.needs if d not in ctx]
            if missing:
                row["status"] = f"skipped: over budget (needs {missing[0]})"
                stopped[entry.name] = True
                continue
            seconds, out = _time(runner(entry.name, m, ctx), timer)
            row["seconds"] = seconds
            history[entry.name].append((n, seconds))
            ctx[entry.name] = out
            if seconds > budget_s:
                row["status"] = "over budget"
                stopped[entry.name] = True
        ctx.clear()
    return rows


def format_rows(rows) -> str:
    lines = [f"{'entry':32s} {'n':>6s} {'seconds':>10s}  status"]
    for row in rows:
        sec = "" if row["seconds"] is None else f"{row['seconds']:.4f}"
        status = row["status"]
        if row["seconds"] is None and "predicted_s" in row:
            status += f" (predicted {row['predicted_s']:.3g} s)"
        lines.append(f"{row['entry']:32s} {row['n']:6d} {sec:>10s}  "
                     f"{status}")
    return "\n".join(lines)

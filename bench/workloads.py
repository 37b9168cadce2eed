"""The benchmark workloads: input generators, passes and gates.

Every workload is a closed loop with one client: a pass issues its
requests one after another, each starting when the previous returns.
Inputs come only from the workload seed. Gates check program outputs
against independent numpy oracles or closed forms, never against the
code under test, and a request that fails a gate counts as failed.

    evolve_merge      one large dense propagation via `mergosim evolve`
    validate_measure  per-configuration criterion scan plus one weak
                      measurement via `mergosim validate` / `measure`
    shipped_configs   every file in configs/ through the CLI
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from tracer import Patches

BOHR_IN_PM = 52.917721090
SUBCOMMANDS = ("evolve", "measure", "tree", "lz", "cost", "validate")


@dataclass
class Request:
    latency_s: float
    ops: int
    failures: list = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float
    requests: list
    outputs: list = field(default_factory=list)
    artifact_bytes: int = 0
    layers: dict = field(default_factory=dict)
    scale: float = 1.0      # host-speed factor for this pass's times

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.requests)


class ReachedDynamics(Exception):
    """Raised by a set-up probe at the workload's first dynamics call."""


def _stop_at_dynamics(fn):
    def stop(*args, **kwargs):
        raise ReachedDynamics(fn.__name__)
    return stop


def _request_scope(tracer, k):
    return tracer.request(k) if tracer is not None else contextlib.nullcontext()


def call_cli(argv):
    """One CLI request: (exit code, status record it printed)."""
    from mergosim import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    try:
        status = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        status = {}
    return code, status


def _cli_until(function: str, argv) -> None:
    """Run one CLI request up to its first call of a dynamics entry
    point (``module.function`` in mergosim), then stop."""
    from mergosim import cli

    module, name = function.rsplit(".", 1)
    patches = Patches()
    patches.replace_function(f"mergosim.{module}", name, _stop_at_dynamics)
    try:
        cli.main(argv)
    except ReachedDynamics:
        return
    finally:
        patches.undo()
    raise RuntimeError(f"{argv[0]} returned without calling {function}")


def digest_artifacts(status: dict) -> tuple[dict, int]:
    """sha256 per artifact listed in a CLI status record, and total bytes."""
    digests, total = {}, 0
    for path in status.get("artifacts", []):
        with open(path, "rb") as handle:
            data = handle.read()
        digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
        total += len(data)
    return digests, total


def _cli_failures(code, status) -> list:
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if status.get("status") != "ok":
        failures.append(f"status {status.get('status')!r}")
    return failures


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _round(x, digits=6):
    return round(float(x), digits)


class Workload:
    name = ""
    op = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.diagnostics: dict = {}

    def prepare(self) -> None:
        """Write the generated inputs under the work directory."""

    def setup_probe(self) -> None:
        """Do the workload's set-up up to its first dynamics call."""
        raise NotImplementedError

    def run_pass(self, tracer=None, capture: bool = False) -> PassResult:
        """One closed-loop pass over the workload's input set."""
        raise NotImplementedError

    def gate_first(self, result: PassResult) -> None:
        """Checks too costly for every pass, made on the warm-up pass."""

    def gate(self, result: PassResult, first: PassResult) -> None:
        """Checks of every pass, against the warm-up pass where needed."""


class CliWorkload(Workload):
    """Workloads that run generated config files through ``cli.main``."""

    def cli_pass(self, argvs, tracer=None) -> PassResult:
        requests, statuses = [], []
        start = time.perf_counter()
        for k, argv in enumerate(argvs):
            t0 = time.perf_counter()
            with _request_scope(tracer, k):
                try:
                    code, status = call_cli(argv)
                    failures = _cli_failures(code, status)
                except Exception as exc:  # a crash is a failed request
                    status = {}
                    failures = [f"{type(exc).__name__}: {exc}"]
            requests.append(Request(time.perf_counter() - t0, 0, failures))
            statuses.append(status)
        wall = time.perf_counter() - start
        outputs, total = [], 0
        for status in statuses:
            try:
                digests, size = digest_artifacts(status)
            except OSError as exc:
                digests, size = {"error": str(exc)}, 0
            outputs.append({"status": status, "digests": digests})
            total += size
        return PassResult(wall, requests, outputs, total)

    def gate(self, result, first):
        for k, (req, out) in enumerate(zip(result.requests, result.outputs)):
            if out["digests"] != first.outputs[k]["digests"]:
                req.failures.append("artifacts differ from the first pass")


# -- evolve_merge -----------------------------------------------------------

def evolve_config(seed: int, m: int = 21, n_steps: int = 8) -> dict:
    """Two-nucleus 1D trap merge: the evolve_salt_1d geometry on an m-point
    grid (n = m^2) with light nuclei, so populations move visibly."""
    rng = np.random.default_rng([seed, 1])
    s1 = 8.0
    d = _round(rng.uniform(1.5, 2.5))
    return {
        "schema_version": 1,
        "seed": int(rng.integers(2 ** 31)),
        "grid": {"points_per_axis": m, "dims": 1, "box_length": float(m)},
        "particles": {"n_el": 0,
                      "nuclear_masses": [_round(x) for x in
                                         rng.uniform(4.0, 6.0, 2)],
                      "nuclear_charges": [1.0, -1.0], "cap": 4096},
        "hamiltonian": {"subsystem_a": [0], "subsystem_b": [1],
                        "softening": _round(rng.uniform(0.8, 1.2)),
                        "trap": {"centers": [[-d], [d]],
                                 "omega": _round(rng.uniform(0.1, 0.2))}},
        "schedule": {"s0": s1 / 2, "s1": s1, "f_shape": "smoothstep",
                     "g_shape": "smoothstep"},
        "evolve": {"s_from": 0.0, "s_to": s1, "n_steps": n_steps,
                   "initial": {"kind": "eigenstate", "index": 0},
                   "autocorrelation": {"t_max": 40.0, "n_samples": 512,
                                       "fixed_s": s1 / 2}},
    }


def _smoothstep(u):
    u = min(max(u, 0.0), 1.0)
    return u * u * (3.0 - 2.0 * u)


def reference_populations(cfg: dict, n_steps: int):
    """Independent dense oracle for an evolve_config run.

    Builds H(s) for two nuclei on a 1D Dirichlet grid directly in numpy
    and steps the ground state of H(0) with midpoint exponentials of
    the state vector. Returns the initial and final position-basis
    populations.
    """
    m = cfg["grid"]["points_per_axis"]
    h = cfg["grid"]["box_length"] / m
    masses = cfg["particles"]["nuclear_masses"]
    charges = cfg["particles"]["nuclear_charges"]
    ham = cfg["hamiltonian"]
    soft = ham["softening"]
    centers = [c[0] for c in ham["trap"]["centers"]]
    omega = ham["trap"]["omega"]
    sched = cfg["schedule"]
    s0, s1 = sched["s0"], sched["s1"]
    evo = cfg["evolve"]

    x = (np.arange(m) - (m - 1) // 2) * h
    eye = np.eye(m)

    def kinetic(mass):
        c = 1.0 / (2.0 * mass * h * h)
        return 2.0 * c * eye - c * (np.eye(m, k=1) + np.eye(m, k=-1))

    h_free = np.kron(kinetic(masses[0]), eye) + np.kron(eye, kinetic(masses[1]))
    x0 = np.repeat(x, m)
    x1 = np.tile(x, m)
    v_ab = charges[0] * charges[1] / np.sqrt((x0 - x1) ** 2 + soft ** 2)
    v_trap = 0.5 * omega ** 2 * (masses[0] * (x0 - centers[0]) ** 2
                                 + masses[1] * (x1 - centers[1]) ** 2)

    def hamiltonian(s):
        f = _smoothstep(s / s0)
        g = _smoothstep(s / s0) if s <= s0 else _smoothstep((s1 - s) / (s1 - s0))
        return h_free + np.diag(f * v_ab + g * v_trap)

    s_from, s_to = evo["s_from"], evo["s_to"]
    psi = np.linalg.eigh(hamiltonian(s_from))[1][:, 0].astype(complex)
    p_initial = np.abs(psi) ** 2
    ds = (s_to - s_from) / n_steps
    for k in range(n_steps):
        w, v = np.linalg.eigh(hamiltonian(s_from + (k + 0.5) * ds))
        psi = v @ (np.exp(-1j * w * ds) * (v.conj().T @ psi))
    return p_initial, np.abs(psi) ** 2


def total_variation(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


# Population error allowed against the 2x-step reference, as a share of
# how far the populations moved. On seeds 0-11 at 8 steps the midpoint
# rule stays under 1% of the movement and a Strang split-operator step
# under 2.1%, so any correct second-order integrator
# passes with a wide margin, while a stalled propagator scores 100%.
# The trap is kept soft for this: at omega ~ 1 the Strang error
# exceeded the movement itself at 12 steps.
POPULATION_TOL = 0.1
MIN_MOVED = 1e-3


class EvolveMerge(CliWorkload):
    name = "evolve_merge"
    op = "propagation step"

    def __init__(self, seed, work_dir, m: int = 21, n_steps: int = 8):
        super().__init__(seed, work_dir)
        self.n_steps = n_steps
        self.config = evolve_config(seed, m, n_steps)
        self.config_path = os.path.join(work_dir, "evolve_merge.json")
        self.out_dir = os.path.join(work_dir, "out")
        self.captured = None

    def prepare(self):
        _write_json(self.config_path, self.config)

    def argv(self):
        return ["evolve", "--config", self.config_path, "--out", self.out_dir]

    def setup_probe(self):
        _cli_until("evolution.propagate", self.argv())

    def run_pass(self, tracer=None, capture=False):
        patches = Patches()
        if capture:
            def make(fn):
                def keep(*args, **kwargs):
                    self.captured = fn(*args, **kwargs)
                    return self.captured
                return keep
            patches.replace_function("mergosim.evolution", "propagate", make)
        try:
            result = self.cli_pass([self.argv()], tracer)
        finally:
            patches.undo()
        result.requests[0].ops = self.n_steps
        return result

    def gate_first(self, result):
        req = result.requests[0]
        if req.failures:
            return
        n = self.config["grid"]["points_per_axis"] ** 2
        with open(os.path.join(self.out_dir, "evolve_report.json")) as handle:
            report = json.load(handle)
        if report.get("steps") != self.n_steps or report.get("dim") != n:
            req.failures.append(f"report steps/dim {report.get('steps')}/"
                                f"{report.get('dim')} != {self.n_steps}/{n}")
        if abs(report.get("trace", 0.0) - 1.0) > 1e-9:
            req.failures.append(f"reported trace {report.get('trace')}")
        if self.captured is None:
            req.failures.append("no propagate() call observed; "
                                "populations unchecked")
            return
        rho = self.captured.final_state.matrix
        self.captured = None
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        trace = float(np.trace(rho).real)
        purity = float(np.vdot(rho, rho).real)
        if herm > 1e-10:
            req.failures.append(f"final state Hermiticity deviation {herm:.3e}")
        if abs(trace - 1.0) > 1e-9:
            req.failures.append(f"final state trace {trace!r}")
        if abs(purity - 1.0) > 1e-8:
            req.failures.append(f"final state purity {purity!r}")
        p_initial, p_ref = reference_populations(self.config,
                                                 2 * self.n_steps)
        moved = total_variation(p_initial, p_ref)
        error = total_variation(np.diag(rho).real, p_ref)
        self.diagnostics.update({"populations_moved": moved,
                                 "populations_error": error,
                                 "hermiticity": herm, "purity": purity})
        if moved < MIN_MOVED:
            req.failures.append(f"populations moved only {moved:.3e}")
        if error > POPULATION_TOL * moved:
            req.failures.append(
                f"populations differ from the 2x-step reference by "
                f"{error:.3e} (moved {moved:.3e})")


# -- validate_measure -------------------------------------------------------

def validate_config(seed: int, m: int = 5) -> dict:
    """H2O2-like four-nucleus basis (n = m^4) with a symmetrized
    equilibrium criterion to validate and an O-O proximity criterion to
    measure. Target ranges keep the accepted lattice distances fixed
    (O-H 2, O-O 3 spacings), so every seed classifies the same
    configurations and costs the same."""
    rng = np.random.default_rng([seed, 2])
    oh = _round(rng.uniform(95.0, 105.0))
    oo = _round(rng.uniform(150.0, 160.0))
    tol = _round(rng.uniform(14.0, 20.0))
    return {
        "schema_version": 1,
        "seed": int(rng.integers(2 ** 31)),
        "grid": {"points_per_axis": m, "dims": 1, "box_length": float(m)},
        "particles": {"n_el": 0,
                      "nuclear_masses": [29164.0, 29164.0, 1836.0, 1836.0],
                      "nuclear_charges": [8.0, 8.0, 1.0, 1.0], "cap": 4096},
        "symmetry": {"bosonic_sets": [[0, 1]], "fermionic_sets": [[2, 3]]},
        "criteria": [
            {"id": "h2o2", "mode": "equilibrium", "unit": "pm",
             "pairs": [[0, 2, oh, tol], [1, 3, oh, tol], [0, 1, oo, tol]]},
            {"id": "oo_bond", "mode": "proximity", "unit": "pm",
             "pairs": [[0, 1, _round(oo + tol)]]},
        ],
        "validate": {"criterion": "h2o2", "symmetrize": True},
        "measure": {"criterion": "oo_bond",
                    "delta": _round(rng.uniform(0.4, 0.8)),
                    "initial": {"kind": "uniform"}},
    }


def oo_bond_mask(cfg: dict) -> np.ndarray:
    """Closed-form accepted set of the measured proximity criterion."""
    m = cfg["grid"]["points_per_axis"]
    h = cfg["grid"]["box_length"] / m
    n_reg = len(cfg["particles"]["nuclear_masses"])
    row = next(c for c in cfg["criteria"] if c["id"] == "oo_bond")
    j, k, threshold_pm = row["pairs"][0]
    digits = np.indices((m,) * n_reg).reshape(n_reg, -1)
    x = (digits - (m - 1) // 2) * h
    return np.abs(x[j] - x[k]) <= threshold_pm / BOHR_IN_PM


class ValidateMeasure(CliWorkload):
    name = "validate_measure"
    op = "configuration classified"

    def __init__(self, seed, work_dir, m: int = 5):
        super().__init__(seed, work_dir)
        self.config = validate_config(seed, m)
        self.n = m ** 4
        self.config_path = os.path.join(work_dir, "validate_measure.json")
        self.out_dir = os.path.join(work_dir, "out")

    def prepare(self):
        _write_json(self.config_path, self.config)

    def argvs(self):
        return [[cmd, "--config", self.config_path, "--out", self.out_dir]
                for cmd in ("validate", "measure")]

    def setup_probe(self):
        _cli_until("criteria.validate_symmetric", self.argvs()[0])

    def run_pass(self, tracer=None, capture=False):
        result = self.cli_pass(self.argvs(), tracer)
        validate, measure = result.requests
        validate.ops = self.n
        measure.ops = self.n
        for out, name in zip(result.outputs, ("validate_report.json",
                                              "measure_report.json")):
            try:
                with open(os.path.join(self.out_dir, name)) as handle:
                    out["report"] = json.load(handle)
            except (OSError, ValueError):
                out["report"] = {}
        return result

    def gate(self, result, first):
        super().gate(result, first)
        validate, measure = result.requests
        rep = result.outputs[0].get("report", {})
        if not (rep.get("symmetric") is True and rep.get("checked") == self.n
                and rep.get("sampled") is False):
            validate.failures.append(
                f"validate report symmetric={rep.get('symmetric')} "
                f"checked={rep.get('checked')} sampled={rep.get('sampled')}")
        rep = result.outputs[1].get("report", {})
        delta = self.config["measure"]["delta"]
        p_suc = float(np.mean(oo_bond_mask(self.config)))
        p1 = math.sin(delta) ** 2 * p_suc
        flag = rep.get("flag")
        expected = {"p_suc": p_suc, "p1": p1, "p0": 1.0 - p1,
                    "probability": p1 if flag == 1 else 1.0 - p1}
        for key, value in expected.items():
            got = rep.get(key)
            if got is None or abs(got - value) > 1e-12:
                measure.failures.append(f"measure {key} {got!r} != {value!r}")
        if flag not in (0, 1):
            measure.failures.append(f"measure flag {flag!r}")


# -- shipped_configs --------------------------------------------------------

def subcommand_for(cfg: dict) -> str:
    """The CLI subcommand a shipped config is written for."""
    found = [cmd for cmd in SUBCOMMANDS if cmd in cfg]
    if len(found) != 1:
        raise ValueError(f"config names subcommands {found}")
    return found[0]


class ShippedConfigs(CliWorkload):
    name = "shipped_configs"
    op = "config run"

    def __init__(self, seed, work_dir, config_dir: Optional[str] = None):
        super().__init__(seed, work_dir)
        self.config_dir = config_dir
        paths = sorted(glob.glob(os.path.join(config_dir, "*.json")))
        if not paths:
            raise FileNotFoundError(f"no configs in {config_dir}")
        order = np.random.default_rng([seed, 4]).permutation(len(paths))
        self.paths = [paths[i] for i in order]
        self.argvs = []
        for path in self.paths:
            with open(path) as handle:
                cmd = subcommand_for(json.load(handle))
            name = os.path.splitext(os.path.basename(path))[0]
            self.argvs.append([cmd, "--config", path, "--out",
                               os.path.join(work_dir, "out", name)])

    def setup_probe(self):
        from mergosim import cli

        for path in self.paths:
            cli.load_config(path)

    def run_pass(self, tracer=None, capture=False):
        result = self.cli_pass(self.argvs, tracer)
        for req in result.requests:
            req.ops = 1
        return result


WORKLOADS = {cls.name: cls for cls in
             (EvolveMerge, ValidateMeasure, ShippedConfigs)}


def make_workload(name: str, seed: int, work_dir: str, root: str):
    if name == "shipped_configs":
        return ShippedConfigs(seed, work_dir, os.path.join(root, "configs"))
    return WORKLOADS[name](seed, work_dir)

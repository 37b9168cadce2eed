"""State propagation under H(s), autocorrelation functions and spectra.

Propagation applies exact midpoint-rule step propagators
U_k = exp(-i H(s_mid,k) ds) to a density matrix as U rho U^dag. Each
exponential comes from a dense eigendecomposition, so every step is
unitary to machine precision; the midpoint sampling makes the product a
second-order approximation of the time-ordered exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (NonHermitianHamiltonian, NonuniformGrid,
                     ScheduleOutOfRange, UnnormalizedInput)
from .hamiltonian import OperatorBlock, ScheduledHamiltonian

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state carrier."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL or \
                abs(np.trace(mat).imag) > TRACE_TOL:
            raise ValueError("density matrix trace differs from one")
        if np.min(np.linalg.eigvalsh(mat)) < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")

    @classmethod
    def trusted(cls, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix that is valid by construction.

        For outputs of validity-preserving operations (unitary
        conjugation, projection plus renormalization, tensor products,
        convex mixtures of valid states): keeps the O(n) trace guard but
        skips the Hermiticity and eigenvalue checks.
        """
        mat = np.asarray(matrix, dtype=complex)
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from one")
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", mat)
        return obj

    @classmethod
    def from_pure(cls, vector: np.ndarray) -> "DensityMatrix":
        """|v><v| is Hermitian and PSD by construction: check only v."""
        v = np.asarray(vector, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise UnnormalizedInput(f"vector norm {norm} differs from one")
        return cls.trusted(np.outer(v, v.conj()))

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityMatrix":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.from_pure(v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def expectation(self, operator: np.ndarray) -> float:
        return float(np.trace(operator @ self.matrix).real)

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix.trusted(np.kron(self.matrix, other.matrix))

    def export(self, path: str, tag: str = "state") -> None:
        """Snapshot to the same dense matrix file format operator blocks
        use."""
        from .io import write_matrix
        write_matrix(path, self.matrix, tag)


@dataclass(frozen=True, eq=False)
class PropagationReport:
    """Propagation result plus the bookkeeping that must not be lost."""

    final_state: DensityMatrix
    norm_drift: float
    steps: int
    s_grid: np.ndarray


def _check_hermitian(h: np.ndarray) -> None:
    if np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise NonHermitianHamiltonian("H(s) is not Hermitian")


def step_unitary(h: np.ndarray, ds: float) -> np.ndarray:
    """exp(-i h ds) through a dense eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * ds)) @ v.conj().T


def propagate(state: DensityMatrix, sh: ScheduledHamiltonian,
              s_from: float, s_to: float, n_steps: int) -> PropagationReport:
    """Evolve rho across [s_from, s_to] with midpoint-rule exponentials.

    Step propagators are cached on the (f, g) schedule values, so flat
    stretches of the schedule reuse one eigendecomposition.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not (0.0 <= s_from < s_to <= sh.schedule.s1):
        raise ScheduleOutOfRange(
            f"require 0 <= s_from < s_to <= s1, got [{s_from}, {s_to}]")

    ds = (s_to - s_from) / n_steps
    mids = s_from + (np.arange(n_steps) + 0.5) * ds
    rho = state.matrix.copy()
    drift = 0.0
    cache: dict[tuple[float, float], np.ndarray] = {}
    for s_mid in mids:
        key = (round(sh.schedule.f(s_mid), 15), round(sh.schedule.g(s_mid), 15))
        u = cache.get(key)
        if u is None:
            h = sh.evaluate(s_mid).matrix
            _check_hermitian(h)
            u = step_unitary(h, ds)
            cache[key] = u
        rho = u @ rho @ u.conj().T
        drift = max(drift, abs(np.trace(rho).real - 1.0))
    return PropagationReport(final_state=DensityMatrix.trusted(rho),
                             norm_drift=drift, steps=n_steps, s_grid=mids)


def default_step_count(sh: ScheduledHamiltonian, s_from: float,
                       s_to: float, resolution: float = 0.1) -> int:
    """Heuristic step count from ds <= resolution / ||H||_max."""
    h_norm = max(np.max(np.abs(sh.evaluate(s).matrix))
                 for s in np.linspace(s_from, s_to, 7))
    if h_norm == 0.0:
        return 1
    return max(1, int(np.ceil((s_to - s_from) * h_norm / resolution)))


def autocorrelation(initial: np.ndarray,
                    hamiltonian: Union[OperatorBlock, np.ndarray,
                                       ScheduledHamiltonian],
                    t_max: float, n_samples: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """C(t) = <psi0 | psi(t)> on a uniform t-grid including t = 0.

    A fixed Hamiltonian (OperatorBlock or matrix) is diagonalized once;
    a ScheduledHamiltonian is stepped with midpoint-rule unitaries, with
    t read as the schedule parameter s.
    """
    psi0 = np.asarray(initial, dtype=complex).ravel()
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise UnnormalizedInput("initial state must be normalized")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(0.0, t_max, n_samples)

    if isinstance(hamiltonian, ScheduledHamiltonian):
        if t_max > hamiltonian.schedule.s1:
            raise ScheduleOutOfRange("t_max exceeds the schedule endpoint")
        values = np.empty(n_samples, dtype=complex)
        values[0] = 1.0
        psi = psi0.copy()
        dt = times[1] - times[0]
        for k in range(1, n_samples):
            h = hamiltonian.evaluate(times[k - 1] + 0.5 * dt).matrix
            _check_hermitian(h)
            psi = step_unitary(h, dt) @ psi
            values[k] = np.vdot(psi0, psi)
        return times, values

    h = hamiltonian.matrix if isinstance(hamiltonian, OperatorBlock) \
        else np.asarray(hamiltonian, dtype=complex)
    _check_hermitian(h)
    w, v = np.linalg.eigh(h)
    weights = np.abs(v.conj().T @ psi0) ** 2
    phases = np.exp(-1j * np.outer(times, w))
    return times, phases @ weights


def spectrum(times: np.ndarray, values: np.ndarray,
             window: str = "hann") -> tuple[np.ndarray, np.ndarray]:
    """|sum_k w_k C(t_k) exp(+i omega t_k)| on the discrete FFT grid.

    The positive-exponent convention puts the peak of exp(-i E t) at
    omega = +E. Frequencies are angular and returned ascending.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=complex)
    if times.ndim != 1 or times.size < 2 or times.shape != values.shape:
        raise ValueError("need matching 1-d time/value arrays")
    dt = times[1] - times[0]
    if dt <= 0 or np.max(np.abs(np.diff(times) - dt)) > 1e-9 * max(dt, 1.0):
        raise NonuniformGrid("time samples are not uniformly spaced")
    n = times.size
    if window == "hann":
        win = np.hanning(n)
    elif window in ("rect", "none"):
        win = np.ones(n)
    else:
        raise ValueError(f"unknown window {window!r}")
    coeff = np.fft.ifft(values * win) * n
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    order = np.argsort(freqs)
    return freqs[order], np.abs(coeff)[order]

"""State propagation under H(s), autocorrelation functions and spectra.

Propagation runs one loop over per-step maps x -> U_k x, which act on
arrays whose first axis is the basis index. The Hamiltonian picks the
map:

- a ``StructuredHamiltonian`` (what the command line builds) gets the
  Strang split step exp(-i V ds/2) exp(-i T ds) exp(-i V ds/2), V taken
  at the step midpoint. The potential factors are phases; the kinetic
  factor is exact, applied along each (register, lattice axis) tensor
  axis in the closed-form DST-I eigenbasis of the 1D Dirichlet stencil,
  so a step calls no eigensolver and costs O(n m) on a state vector;
- any other scheduled Hamiltonian (four dense ``OperatorBlock``s) gets
  the exact midpoint-rule propagator U_k = exp(-i H(s_mid,k) ds) from
  an eigendecomposition.

The state picks how the map is applied: a pure state (one with a
``vector``) is propagated as its vector, a mixed state on both sides,
U rho U^dag = U (U rho)^dag. Both integrators are unitary to machine
precision and second order in the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import (NonHermitianHamiltonian, NonuniformGrid,
                     ScheduleOutOfRange, UnnormalizedInput)
from .hamiltonian import (OperatorBlock, ScheduledHamiltonian,
                          StructuredHamiltonian)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

# spectrum window name -> weights of length n
WINDOWS = {"hann": np.hanning, "rect": np.ones, "none": np.ones}


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state carrier.

    ``vector`` is the (read-only) state vector of a pure state built by
    ``from_pure`` or propagated from one, and None otherwise.
    """

    matrix: np.ndarray
    vector: Optional[np.ndarray] = field(default=None, init=False,
                                         repr=False)

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
        object.__setattr__(obj, "vector", None)
        return obj

    @classmethod
    def from_pure(cls, vector: np.ndarray) -> "DensityMatrix":
        """|v><v| is Hermitian and PSD by construction: check only v."""
        v = np.array(vector, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise UnnormalizedInput(f"vector norm {norm} differs from one")
        obj = cls.trusted(np.outer(v, v.conj()))
        v.setflags(write=False)
        object.__setattr__(obj, "vector", v)
        return obj

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
        """tr(rho^2) = sum |rho_ij|^2 for Hermitian rho, in O(n^2)."""
        return float(np.vdot(self.matrix, self.matrix).real)

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


def hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``, on the real part alone when h has no
    imaginary part (real-symmetric eigensolvers are several times
    faster)."""
    if np.iscomplexobj(h) and np.any(h.imag):
        return np.linalg.eigh(h)
    return np.linalg.eigh(h.real)


def step_unitary(h: np.ndarray, ds: float) -> np.ndarray:
    """exp(-i h ds) through a dense eigendecomposition."""
    w, v = hermitian_eigh(h)
    return (v * np.exp(-1j * w * ds)) @ v.conj().T


def kinetic_propagator(sh: StructuredHamiltonian,
                       ds: float) -> Callable[[np.ndarray], np.ndarray]:
    """exp(-i T ds) as a map on arrays whose first axis is the basis index.

    Along the tensor axis (length m) of each kinetic (register, lattice
    axis) it applies S diag(exp(-i c lam_j ds)) S, where
    S_kj = sqrt(2/(m+1)) sin(j k pi/(m+1)) is the DST-I eigenbasis and
    lam_j = 2 - 2 cos(j pi/(m+1)) the eigenvalues of the Dirichlet
    stencil 2 - shift - shift^T.
    """
    shape = sh.basis.tensor_shape
    factors = []
    for axis, c in sh.kinetic_axes():
        m = shape[axis]
        j = np.arange(1, m + 1)
        dst = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(j, j) * math.pi
                                                / (m + 1))
        lam = 2.0 - 2.0 * np.cos(j * math.pi / (m + 1))
        factors.append((math.prod(shape[:axis]),
                        (dst * np.exp(-1j * c * ds * lam)) @ dst))

    def apply(x: np.ndarray) -> np.ndarray:
        for outer, factor in factors:
            x = (factor @ x.reshape(outer, len(factor), -1)).reshape(x.shape)
        return x
    return apply


def _step_maps(sh: Union[StructuredHamiltonian, ScheduledHamiltonian],
               mids: np.ndarray, ds: float
               ) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
    """One map x -> U_k x per step, s_k running over ``mids``, on arrays
    whose first axis is the basis index: the split step exp(-i V ds/2)
    exp(-i T ds) exp(-i V ds/2) for a StructuredHamiltonian, else
    exp(-i H(s) ds) with the schedule evaluated once for all steps, a
    step whose rounded (f, g) equal the previous step's reusing its
    unitary (a flat stretch of the schedule costs one
    eigendecomposition)."""
    if isinstance(sh, StructuredHamiltonian):
        kinetic = kinetic_propagator(sh, ds)
        for s in mids:
            half = np.exp(-0.5j * ds * sh.potential(s))

            def split(x: np.ndarray, half=half) -> np.ndarray:
                h = half.reshape(half.shape + (1,) * (x.ndim - 1))
                return h * kinetic(h * x)
            yield split
        return
    key = u = None
    for f, g in zip(sh.schedule.f(mids).tolist(),
                    sh.schedule.g(mids).tolist()):
        rounded = (round(f, 15), round(g, 15))
        if rounded != key:
            key, u = rounded, step_unitary(sh.combine(f, g).matrix, ds)
        yield u.__matmul__


def propagate(state: DensityMatrix,
              sh: Union[StructuredHamiltonian, ScheduledHamiltonian],
              s_from: float, s_to: float, n_steps: int) -> PropagationReport:
    """Evolve rho across [s_from, s_to] in ``n_steps`` steps (see the
    module docstring): a pure state steps its vector, a mixed state
    both sides of rho."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not (0.0 <= s_from < s_to <= sh.schedule.s1):
        raise ScheduleOutOfRange(
            f"require 0 <= s_from < s_to <= s1, got [{s_from}, {s_to}]")

    ds = (s_to - s_from) / n_steps
    pure = state.vector is not None
    x = state.vector if pure else state.matrix
    drift = 0.0
    mids = s_from + (np.arange(n_steps) + 0.5) * ds
    for step in _step_maps(sh, mids, ds):
        x = step(x) if pure else step(step(x).conj().T)
        weight = np.vdot(x, x) if pure else np.trace(x)
        drift = max(drift, abs(weight.real - 1.0))
    final = DensityMatrix.from_pure(x) if pure else DensityMatrix.trusted(x)
    return PropagationReport(final_state=final, norm_drift=drift,
                             steps=n_steps, s_grid=mids)


def default_step_count(sh: Union[StructuredHamiltonian, ScheduledHamiltonian],
                       s_from: float, s_to: float,
                       resolution: float = 0.1) -> int:
    """Heuristic step count from ds <= resolution / ||H||_max."""
    h_norm = max(sh.norm_max(s) for s in np.linspace(s_from, s_to, 7))
    if h_norm == 0.0:
        return 1
    return max(1, int(np.ceil((s_to - s_from) * h_norm / resolution)))


def autocorrelation(initial: np.ndarray,
                    hamiltonian: Union[OperatorBlock, np.ndarray,
                                       ScheduledHamiltonian,
                                       StructuredHamiltonian],
                    t_max: float, n_samples: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """C(t) = <psi0 | psi(t)> on a uniform t-grid including t = 0.

    A fixed Hamiltonian (OperatorBlock or matrix) is diagonalized once;
    a scheduled one is stepped as ``propagate`` steps it, with t read as
    the schedule parameter s, so it needs 0 < t_max <= s1.
    """
    psi0 = np.asarray(initial, dtype=complex).ravel()
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise UnnormalizedInput("initial state must be normalized")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(0.0, t_max, n_samples)

    if isinstance(hamiltonian, (ScheduledHamiltonian, StructuredHamiltonian)):
        if not 0.0 < t_max <= hamiltonian.schedule.s1:
            raise ScheduleOutOfRange(
                f"require 0 < t_max <= s1, got {t_max}")
        dt = times[1] - times[0]
        psi, values = psi0, [1.0]
        for step in _step_maps(hamiltonian, times[:-1] + 0.5 * dt, dt):
            psi = step(psi)
            values.append(np.vdot(psi0, psi))
        return times, np.array(values, dtype=complex)

    h = hamiltonian.matrix if isinstance(hamiltonian, OperatorBlock) \
        else np.asarray(hamiltonian, dtype=complex)
    _check_hermitian(h)
    w, v = hermitian_eigh(h)
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
    if window not in WINDOWS:
        raise ValueError(f"unknown window {window!r}")
    n = times.size
    coeff = np.fft.ifft(values * WINDOWS[window](n)) * n
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    order = np.argsort(freqs)
    return freqs[order], np.abs(coeff)[order]

"""State propagation under H(s), autocorrelation functions and spectra.

Propagation runs one loop over per-step maps x -> U_k x, which act on
arrays whose first axis is the basis index. The Hamiltonian picks the
map:

- a ``StructuredHamiltonian`` (what the command line builds) gets the
  Strang split step exp(-i V ds/2) exp(-i T ds) exp(-i V ds/2), V taken
  at the step midpoint. The potential factors are phases; the kinetic
  factor is exact (``StructuredHamiltonian.kinetic_propagator``, in the
  closed-form DST-I eigenbasis of each 1D Dirichlet stencil), so a step
  calls no eigensolver and costs O(n m) on a state vector;
- any other scheduled Hamiltonian (four dense ``OperatorBlock``s) gets
  the exact midpoint-rule propagator U_k = exp(-i H(s_mid,k) ds) from
  an eigendecomposition.

The state picks how the map is applied (``DensityMatrix.map_rows``): a
pure state is propagated as its vector, a mixed state on both sides,
U rho U^dag = U (U rho)^dag (a diagonal state as its full matrix
diag(d), since U diag(d) U^dag has coherences). Both integrators are
unitary to machine precision and second order in the step size. A pure
state builds its density matrix only when asked, so a pure run stays
O(n m) to the end.

The usual initial state, the ground state of a ``StructuredHamiltonian``,
comes from ``ground_state``: Lanczos on the matrix-free product
``StructuredHamiltonian.product`` at V(s), O(n) memory per Krylov
vector and no n x n array. It starts from the closed-form ground state
of the kinetic stencil T (``StructuredHamiltonian.kinetic_ground_state``),
so where H(s) = T (the free start of a merge of one-particle fragments)
one step finds it with no eigensolver (past one step, the Ritz pair is
from ``np.linalg.eigh``). The start is positive and H = T + diag(V) has
nonpositive off-diagonals, so by Perron-Frobenius its ground level holds a
nonnegative vector that the start overlaps with no cancellation: Lanczos
cannot settle on an excited level, and on a degenerate one it returns
the level's projection of the start, the same vector on every run. The
fixed-s autocorrelation C(t) of a ``StructuredHamiltonian`` comes from
Chebyshev moments of the same stencil (its neighbour table
``StructuredHamiltonian.stencil``, one gather and one einsum per
recurrence step), summed against Bessel functions for every sample at
once through Gauss-Chebyshev weights and a nonuniform FFT, when a work
estimate puts that below one dense eigh; otherwise, as for any fixed
dense Hamiltonian, it diagonalizes the real symmetric H(s) once and
sums the weights |<k|psi0>|^2 at the nodes E_k dt with the same
nonuniform FFT. So every fixed-Hamiltonian C(t) is one series, weights
at nodes, and no path builds an n_samples x n array of phases.
``StructuredHamiltonian.dense``, refused above the dimension cap, stays
as the oracle, the path to an excited eigenstate (a single-vector
Lanczos cannot resolve a degenerate level below it) and that fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import (MaxItersExceeded, NonHermitianHamiltonian,
                     NonuniformGrid, ScheduleOutOfRange, UnnormalizedInput)
from .hamiltonian import (OperatorBlock, ScheduledHamiltonian,
                          StructuredHamiltonian, hermiticity_deviation)

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
STEP_RESOLUTION = 0.1  # default_step_count's bound on ds ||H||_max

# Lanczos ground state: Ritz residual estimate at which to stop
# (Hartree, absolute), first convergence check and growth of the check
# schedule, and Krylov rows allocated at a time.
RITZ_TOL = 1e-12
FIRST_CHECK = 8
CHECK_GROWTH = 1.5
KRYLOV_CHUNK = 64

# Fixed-s autocorrelation from Chebyshev moments: relative pad of the
# spectral interval, Kapteyn bound on the Bessel tail J_m(a t) at which
# the series stops. Every fixed-s C(t) is summed at its nodes by one
# nonuniform FFT: grid oversampling, Gaussian half-width in grid points
# and nodes spread at a time. ROW_BLOCK bounds the rows computed at once:
# Chebyshev recurrence steps whose moments are read together, and split
# steps whose potential phases are taken with one exp.
SPECTRAL_PAD = 1e-12
BESSEL_TOL = 1e-18
ROW_BLOCK = 64
NUFFT_OVERSAMPLE = 2
NUFFT_HALF_WIDTH = 16
NUFFT_CHUNK = 2048
# Work estimate that picks Chebyshev moments or a dense eigh for a
# fixed-s autocorrelation, in seconds (fit to both paths at n = 5 ...
# 1681 on one Intel Xeon core, one BLAS thread, numpy 2.4; the n^2 term
# to n = 25 ... 729 on a 2-vCPU Intel Xeon, one OpenBLAS thread). Both
# paths end in the same series, weights at nodes summed by
# ``_nonuniform_fft``, which spreads each node over 2 NUFFT_HALF_WIDTH
# grid points at NUFFT_S_PER_SPREAD per node and point; its FFT over the
# samples is the same on both sides and left out. Dense: DENSE_S_PER_N3
# n^3 for the eigh, DENSE_S_PER_N2 n^2 for its lower-order work, the
# matrix build and the Hermiticity check (they dominate below n ~ 400),
# and the spread of n nodes, one per eigenvalue. Chebyshev with M Bessel
# orders: CHEB_S_SETUP, M / 2 recurrence steps of CHEB_S_PER_PRODUCT
# (call overhead) and CHEB_S_PER_ENTRY per basis entry, and the spread
# of M nodes.
DENSE_S_PER_N3 = 2.0e-10
DENSE_S_PER_N2 = 5.0e-8
CHEB_S_SETUP = 2.5e-4
CHEB_S_PER_PRODUCT = 6.5e-6
CHEB_S_PER_ENTRY = 7.0e-9
NUFFT_S_PER_SPREAD = 2.5e-8

# spectrum window name -> weights of length n
WINDOWS = {"hann": np.hanning, "rect": np.ones, "none": np.ones}


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state carrier; the one
    place that tells its three forms apart. A pure state holds its
    read-only ``vector``, a state with no coherence its read-only
    ``diagonal`` (the populations, complex), any other state its matrix.
    ``array`` is the vector of a pure state, else the matrix. Row maps
    act on the held form (``map_rows``, ``mapped``, and ``scaled``, which
    keeps a diagonal state diagonal), so a pure or diagonal state builds
    ``matrix`` (|v><v| or diag(d)) only when asked, and tensor products,
    populations and heralding branches of diagonal states stay O(n)."""

    vector: Optional[np.ndarray] = field(default=None, repr=False)
    diagonal: Optional[np.ndarray] = field(default=None, repr=False)

    def __init__(self, matrix: np.ndarray):
        object.__setattr__(self, "matrix", np.asarray(matrix, dtype=complex))
        self.__post_init__()

    def __post_init__(self):
        mat = self.matrix
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if not hermiticity_deviation(mat) <= HERMITIAN_TOL:
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
        if not abs(np.trace(mat).real - 1.0) <= TRACE_TOL:
            raise ValueError("density matrix trace differs from one")
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", mat)
        return obj

    @classmethod
    def from_pure(cls, vector: np.ndarray) -> "DensityMatrix":
        """|v><v| is Hermitian and PSD by construction: check only v."""
        v = np.array(vector, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise UnnormalizedInput(f"vector norm {norm} differs from one")
        v.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "vector", v)
        return obj

    @classmethod
    def from_diagonal(cls, populations: np.ndarray) -> "DensityMatrix":
        """diag(d), checked as the constructor checks a matrix but in
        O(n): a diagonal matrix is Hermitian when d is real and PSD when
        d is nonnegative."""
        d = np.array(populations, dtype=complex).ravel()
        if not np.max(np.abs(d.imag), initial=0.0) <= HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if not np.min(d.real, initial=0.0) >= EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")
        return cls._trusted_diagonal(d)

    @classmethod
    def _trusted_diagonal(cls, d: np.ndarray) -> "DensityMatrix":
        """Wrap a fresh complex diagonal that is valid by construction
        (``trusted``'s O(n) trace guard alone), and make it read-only."""
        if not abs(np.sum(d).real - 1.0) <= TRACE_TOL:
            raise ValueError("density matrix trace differs from one")
        d.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "diagonal", d)
        return obj

    @classmethod
    def of(cls, x: np.ndarray) -> "DensityMatrix":
        """``from_pure`` of a vector, ``trusted`` of a matrix."""
        return cls.from_pure(x) if x.ndim == 1 else cls.trusted(x)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityMatrix":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.from_pure(v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls.from_diagonal(np.full(dim, 1.0 / dim))

    @staticmethod
    def map_rows(x: np.ndarray, rows: Callable) -> np.ndarray:
        """The row map x -> M x on a state's array: M v for a vector,
        M (M rho)^dag = M rho M^dag for a Hermitian matrix."""
        return rows(x) if x.ndim == 1 else rows(rows(x).conj().T)

    @staticmethod
    def weight(x: np.ndarray) -> float:
        """The trace of a state's array: v^dag v, or tr rho."""
        return float((np.vdot(x, x) if x.ndim == 1 else np.trace(x)).real)

    @cached_property
    def matrix(self) -> np.ndarray:
        """rho; a dense state sets it at construction, a pure state
        builds |v><v| and a diagonal one diag(d) here on first access."""
        if self.vector is None:
            return np.diag(self.diagonal)
        return np.outer(self.vector, self.vector.conj())

    @property
    def array(self) -> np.ndarray:
        return self.vector if self.vector is not None else self.matrix

    @property
    def populations(self) -> np.ndarray:
        """diag(rho); conj(v_j) v_j equals diag(|v><v|) bit for bit."""
        v, d = self.vector, self.diagonal
        if v is not None:
            return (v.conj() * v).real
        return (np.diag(self.matrix) if d is None else d).real

    @property
    def dim(self) -> int:
        d = self.diagonal
        return (self.array if d is None else d).shape[0]

    def trace(self) -> float:
        d = self.diagonal
        return self.weight(self.array) if d is None \
            else float(np.sum(d).real)

    def purity(self) -> float:
        """tr(rho^2): (v^dag v)^2 for a pure state and sum |d_j|^2 for a
        diagonal one in O(n), else sum |rho_ij|^2 for Hermitian rho in
        O(n^2)."""
        if self.vector is not None:
            return self.trace() ** 2
        x = self.matrix if self.diagonal is None else self.diagonal
        return float(np.vdot(x, x).real)

    def mapped(self, rows: Callable
               ) -> tuple[float, Optional["DensityMatrix"]]:
        """(w, M rho M^dag / w) with w = tr(M rho M^dag), a vector being
        divided by its norm sqrt(w); the state is None unless w > 0. A
        diagonal state is mapped as its matrix (see ``scaled``)."""
        x = self.map_rows(self.array, rows)
        w = self.weight(x)
        return w, self.of(x / (math.sqrt(w) if x.ndim == 1 else w)) \
            if w > 0.0 else None

    def scaled(self, scale: np.ndarray
               ) -> tuple[float, Optional["DensityMatrix"]]:
        """``mapped`` under the row scaling M = diag(scale), which keeps
        a diagonal state diagonal: d -> scale conj(scale d), the dense
        path's float operations on the diagonal entries, summed and
        divided as it does, so both forms give the same bits."""
        d = self.diagonal
        if d is None:
            return self.mapped(row_scaling(scale))
        x = scale * (scale * d).conj()
        w = float(np.sum(x).real)
        return w, self._trusted_diagonal(x / w) if w > 0.0 else None

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Two pure states give the kron of their vectors, two diagonal
        states the kron of their diagonals, each taken as the raveled
        outer product: the same products as np.kron, without its call
        overhead."""
        if self.vector is not None and other.vector is not None:
            return self.of(np.outer(self.vector, other.vector).ravel())
        if self.diagonal is not None and other.diagonal is not None:
            return self._trusted_diagonal(
                np.outer(self.diagonal, other.diagonal).ravel())
        return self.of(np.kron(self.matrix, other.matrix))


def row_scaling(scale: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> diag(scale) x on arrays whose first axis is the basis index."""
    def rows(x: np.ndarray) -> np.ndarray:
        return scale.reshape(scale.shape + (1,) * (x.ndim - 1)) * x
    return rows


@dataclass(frozen=True, eq=False)
class PropagationReport:
    """Propagation result plus the bookkeeping that must not be lost."""

    final_state: DensityMatrix
    norm_drift: float
    steps: int
    s_grid: np.ndarray


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


def _step_maps(sh: Union[StructuredHamiltonian, ScheduledHamiltonian],
               mids: np.ndarray, ds: float
               ) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
    """One map x -> U_k x per step, s_k running over ``mids``, on arrays
    whose first axis is the basis index: the split step exp(-i V ds/2)
    exp(-i T ds) exp(-i V ds/2) for a StructuredHamiltonian, else
    exp(-i H(s_k) ds), one eigendecomposition of ``evaluate(s_k)`` per
    step. The split step's phases exp(-i V(s_k) ds/2) are taken for
    ROW_BLOCK midpoints at a time (``potentials``), with one exp."""
    if isinstance(sh, StructuredHamiltonian):
        kinetic = sh.kinetic_propagator(ds)

        def step(x: np.ndarray, half: np.ndarray) -> np.ndarray:
            half = half.reshape(half.shape + (1,) * (x.ndim - 1))
            return half * kinetic(half * x)

        for a in range(0, len(mids), ROW_BLOCK):
            block = np.exp(-0.5j * ds * sh.potentials(mids[a:a + ROW_BLOCK]))
            for half in block:
                yield partial(step, half=half)
        return
    for s in mids:
        yield step_unitary(sh.evaluate(s).matrix, ds).__matmul__


def propagate(state: DensityMatrix,
              sh: Union[StructuredHamiltonian, ScheduledHamiltonian],
              s_from: float, s_to: float, n_steps: int) -> PropagationReport:
    """Evolve rho across [s_from, s_to] in ``n_steps`` steps (see the
    module docstring), never renormalizing, so ``norm_drift`` is the
    largest accumulated deviation of the trace from one."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not (0.0 <= s_from < s_to <= sh.schedule.s1):
        raise ScheduleOutOfRange(
            f"require 0 <= s_from < s_to <= s1, got [{s_from}, {s_to}]")

    ds = (s_to - s_from) / n_steps
    x = state.array
    drift = 0.0
    mids = s_from + (np.arange(n_steps) + 0.5) * ds
    for step in _step_maps(sh, mids, ds):
        x = DensityMatrix.map_rows(x, step)
        drift = max(drift, abs(DensityMatrix.weight(x) - 1.0))
    return PropagationReport(final_state=DensityMatrix.of(x),
                             norm_drift=drift, steps=n_steps, s_grid=mids)


def ground_state(sh: StructuredHamiltonian,
                 s: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (E0, v) of H(s) by Lanczos on ``sh.product``.

    The start is ``sh.kinetic_ground_state()``, the ground state of the
    kinetic stencil T. It is positive, and H(s) has
    nonpositive off-diagonals (-c), so by Perron-Frobenius the ground
    level holds a nonnegative vector with a strictly positive overlap
    with the start: the iteration cannot settle on an excited level, on
    a degenerate level it returns the level's projection of the start
    (deterministic), and where H(s) = T it stops after one step.

    Each step follows the three-term recurrence with one Gram-Schmidt
    pass against the whole Krylov basis (full reorthogonalisation). The
    basis grows by KRYLOV_CHUNK rows and reaches n x n only if the run
    needs all n iterations, where the Krylov space is the whole space and
    the answer exact. The Ritz pair, from ``np.linalg.eigh`` of the k x k
    tridiagonal (a one-step space is its own pair), is checked on a
    geometric schedule and taken once the residual estimate |beta_k y_k|
    is at most RITZ_TOL. It is accepted only when the true residual
    ||H v - E0 v|| is at most max(RITZ_TOL, 64 eps ||H||), with ||H||
    bounded by the ends of ``spectral_bounds``; otherwise
    ``MaxItersExceeded`` is raised. V(s) is evaluated once. v is real,
    of unit norm, and its largest-magnitude component is positive.
    """
    n = sh.dim
    potential = sh.potential(s)
    krylov = np.empty((min(n, KRYLOV_CHUNK), n))
    krylov[0] = sh.kinetic_ground_state()
    alpha, beta = [], []
    check = FIRST_CHECK
    for k in range(1, n + 1):
        q = krylov[k - 1]
        w = sh.product(potential, q)
        alpha.append(float(q @ w))
        w -= alpha[-1] * q
        if beta:
            w -= beta[-1] * krylov[k - 2]
        w -= (krylov[:k] @ w) @ krylov[:k]
        b = float(np.linalg.norm(w))
        if k >= check or k == n or b <= RITZ_TOL:
            if k == 1:
                energy, y = alpha[0], np.ones(1)
            else:
                t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
                ritz, vectors = np.linalg.eigh(t)
                energy, y = float(ritz[0]), vectors[:, 0]
            if b * abs(y[-1]) <= RITZ_TOL or k == n:
                break
            check = max(k + 1, int(CHECK_GROWTH * check))
        if k == len(krylov):
            krylov = np.concatenate(
                [krylov, np.empty((min(n - k, KRYLOV_CHUNK), n))])
        beta.append(b)
        krylov[k] = w / b
    v = y @ krylov[:k]
    v /= np.linalg.norm(v)
    v *= np.sign(v[np.argmax(np.abs(v))])
    residual = float(np.linalg.norm(sh.product(potential, v) - energy * v))
    tol = max(RITZ_TOL, 64.0 * np.finfo(float).eps
              * max(np.abs(sh.spectral_bounds(s))))
    if not residual <= tol:
        raise MaxItersExceeded(
            f"Lanczos ground state of H({s}) has residual {residual:.3e} "
            f"above {tol:.3e} after {k} iterations")
    return energy, v


def default_step_count(sh: Union[StructuredHamiltonian, ScheduledHamiltonian],
                       s_from: float, s_to: float) -> int:
    """Heuristic step count from ds <= STEP_RESOLUTION / ||H||_max."""
    h_norm = max(sh.norm_max(s) for s in np.linspace(s_from, s_to, 7))
    if h_norm == 0.0:
        return 1
    return max(1, int(np.ceil((s_to - s_from) * h_norm / STEP_RESOLUTION)))


def _bessel_order(x: float) -> int:
    """For x > 0, the smallest order m > x at which Kapteyn's bound
    |J_m(x)| <= exp(m (tanh u - u)), cosh u = m / x (Watson 8.7), is at
    most BESSEL_TOL. The bound falls with m, by a factor exp(-u) per
    order, so the terms past it sum to a few BESSEL_TOL. Integer
    bisection on m in (floor(x), 2 ceil(x) - ln(BESSEL_TOL) / 0.45]: at
    m >= 2x the exponent is below -0.45 m, so the upper end fits."""
    def fits(m: int) -> bool:
        u = math.acosh(max(m / x, 1.0))
        return m * (math.tanh(u) - u) <= math.log(BESSEL_TOL)

    lo = math.floor(x)
    hi = 2 * math.ceil(x) + math.ceil(-math.log(BESSEL_TOL) / 0.45)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _spectral_interval(sh: StructuredHamiltonian,
                       s: float) -> tuple[float, float]:
    """Center b and half-width a of H(s)'s spectral interval, padded by
    SPECTRAL_PAD of its largest end, so (H - b) / a lies in [-1, 1]."""
    lo, hi = sh.spectral_bounds(s)
    pad = SPECTRAL_PAD * max(abs(lo), abs(hi))
    return 0.5 * (lo + hi), 0.5 * (hi - lo) + pad


def _real_parts(psi: np.ndarray) -> list:
    """Re psi and Im psi, leaving out a part that is zero."""
    return [part for part in (psi.real, psi.imag) if np.any(part)]


def _chebyshev_moments(sh: StructuredHamiltonian, s: float, center: float,
                       half: float, psi0: np.ndarray,
                       n_products: int) -> np.ndarray:
    """mu_0 ... mu_2K of H~ = (H(s) - b) / a at psi0, from K products.

    phi_k = T_k(H~) psi0 follows phi_k+1 = 2 H~ phi_k - phi_k-1, and the
    doubling identities mu_2k = 2 <phi_k|phi_k> - mu_0 and
    mu_2k-1 = 2 <phi_k|phi_k-1> - mu_1 read two moments per product. H~
    is real symmetric, so the recurrence runs on each real part of psi0
    (``_real_parts``) and adds up their dot products; every moment is
    real.

    After phi_1 = ``sh.product`` / a, each step is one gather and one
    einsum through ``sh.stencil`` extended to the whole recurrence: its
    weights times 2 / a with 2 (V(s) - b) / a on the diagonal, read in
    (phi_k-1, phi_k), plus one row that reads -phi_k-1. The steps fill
    the rows of a preallocated block, whose dot products are taken
    ROW_BLOCK steps at a time.
    """
    n, scale = sh.dim, 2.0 / half
    shifted = sh.potential(s) - center
    index, weights = sh.stencil
    step_index = np.concatenate([index + n, np.arange(n)[None]])
    step_weights = np.concatenate([weights * scale, np.full((1, n), -1.0)])
    step_weights[0] += shifted * scale
    gathered = np.empty(step_index.shape)
    rows = np.empty((ROW_BLOCK + 2, n))  # phi_k-1, phi_k, new rows
    flat = rows.reshape(-1)
    mu = np.zeros(2 * n_products + 1)  # <phi_k|phi_k>, <phi_k|phi_k-1>
    for part in _real_parts(psi0):
        rows[0], rows[1] = part, sh.product(shifted, part) / half
        mu[:3] += part @ part, rows[1] @ part, rows[1] @ rows[1]
        for k in range(1, n_products, ROW_BLOCK):
            block = min(ROW_BLOCK, n_products - k)
            for r in range(2, block + 2):
                np.take(flat[(r - 2) * n:r * n], step_index, out=gathered,
                        mode="clip")
                np.einsum("ji,ji->i", step_weights, gathered, out=rows[r])
            new = rows[2:block + 2]
            mu[2 * k + 1:2 * (k + block):2] += np.einsum(
                "ri,ri->r", new, rows[1:block + 1])
            mu[2 * k + 2:2 * (k + block) + 1:2] += np.einsum(
                "ri,ri->r", new, new)
            rows[:2] = rows[block:block + 2]
    mu[2::2] = 2.0 * mu[2::2] - mu[0]
    mu[3::2] = 2.0 * mu[3::2] - mu[1]
    return mu


def _nonuniform_fft(weights: np.ndarray, nodes: np.ndarray,
                    n_out: int) -> np.ndarray:
    """F_j = sum_l weights_l exp(-i j nodes_l) for j = 0 ... n_out - 1.

    A type-1 nonuniform FFT by Gaussian gridding (Greengard & Lee, SIAM
    Rev. 46, 443 (2004)) on the modes k = j - n_out // 2, which keeps the
    deconvolution factor exp(k^2 tau) below exp(pi W / 12). The weights
    are spread onto NUFFT_OVERSAMPLE n_out periodic grid points with the
    heat kernel exp(-d^2 / 4 tau), W = NUFFT_HALF_WIDTH points on either
    side of each node, NUFFT_CHUNK nodes at a time. One FFT and the
    division by the kernel's Fourier coefficients sqrt(tau / pi)
    exp(-k^2 tau) give F. The nodes are reduced to [-pi, pi], not
    [0, 2 pi): a small negative node moved up by 2 pi would carry an
    absolute rounding of eps 2 pi, which j multiplies into the phase of
    F_j (some 1e-12 at 4096 samples).
    """
    shift, size = n_out // 2, NUFFT_OVERSAMPLE * n_out
    spacing = 2.0 * math.pi / size
    tau = math.pi * NUFFT_HALF_WIDTH / (
        n_out ** 2 * NUFFT_OVERSAMPLE * (NUFFT_OVERSAMPLE - 0.5))
    # nodes reduced to [-pi, pi] by the exact fmod and one fold, which
    # leaves a node already there unrounded
    nodes = np.fmod(nodes, 2.0 * math.pi)
    nodes = nodes - np.copysign(2.0 * math.pi, nodes) \
        * (np.abs(nodes) > math.pi)
    coeff = weights * np.exp(-1j * shift * nodes)
    nodes = nodes / spacing  # in grid steps, within [-size / 2, size / 2]
    offsets = np.arange(1 - NUFFT_HALF_WIDTH, NUFFT_HALF_WIDTH + 1)
    # grid points are counted from -lead, a whole number of periods, and
    # folded onto one period at the end
    lead = size * -(-(size // 2 + NUFFT_HALF_WIDTH - 1) // size)
    periods = -(-(lead + size // 2 + NUFFT_HALF_WIDTH + 1) // size)
    grid = np.zeros(periods * size, dtype=complex)
    for a in range(0, len(nodes), NUFFT_CHUNK):
        x, c = nodes[a:a + NUFFT_CHUNK], coeff[a:a + NUFFT_CHUNK, None]
        base = np.floor(x)
        kernel = np.exp(np.square(offsets - (x - base)[:, None])
                        * (-spacing * spacing / (4.0 * tau)))
        points = ((base.astype(np.intp) + lead)[:, None] + offsets).ravel()
        grid.real += np.bincount(points, (kernel * c.real).ravel(),
                                 len(grid))
        grid.imag += np.bincount(points, (kernel * c.imag).ravel(),
                                 len(grid))
    k = np.arange(n_out) - shift
    return math.sqrt(math.pi / tau) / size * np.exp(k * k * tau) \
        * np.fft.fft(grid.reshape(periods, size).sum(axis=0))[k % size]


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c at or above n. numpy's FFT takes such a
    length directly; one with a large prime factor goes through
    Bluestein's padded transforms, several times slower and holding
    buffers some 40 times the input."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best, p35 = min(best, p), 3 * p35
        p5 *= 5
    return best


def _chebyshev_series(moments: np.ndarray, step: float,
                      n_samples: int) -> np.ndarray:
    """sum_m (2 - delta_m0) (-i)^m J_m(j step) mu_m for j = 0 ...
    n_samples - 1, with mu_m = ``moments[m]``.

    Jacobi-Anger makes the sum over m of (2 - delta_m0) (-i)^m J_m(x)
    T_m(y) equal to exp(-i x y). The L-point Gauss-Chebyshev rule, with
    nodes y_l = cos theta_l, theta_l = pi (l + 1/2) / L, and weights
    g_l = (1/L) sum_m (2 - delta_m0) mu_m cos(m theta_l) (a DCT-III, one
    FFT of length 2L), reproduces every moment below L, taking those
    past len(moments) as 0. So the series is sum_l g_l exp(-i j step y_l),
    ``_nonuniform_fft`` at the nodes step y_l, up to the orders at or
    above len(moments), whose J_m the caller keeps below BESSEL_TOL.
    L is ``_smooth_length(len(moments))``, so the FFT has no large prime
    factor.
    """
    size = _smooth_length(len(moments))
    m = np.arange(len(moments))
    scaled = np.where(m == 0, 1.0, 2.0) * moments \
        * np.exp(-0.5j * math.pi * m / size)
    weights = np.fft.fft(scaled, 2 * size)[:size].real / size
    nodes = step * np.cos(math.pi * (np.arange(size) + 0.5) / size)
    return _nonuniform_fft(weights, nodes, n_samples)


def _chebyshev_autocorrelation(sh: StructuredHamiltonian, s: float,
                               psi0: np.ndarray, times: np.ndarray,
                               plan: tuple) -> np.ndarray:
    """C(t) = <psi0| exp(-i H(s) t) |psi0> from Chebyshev moments of the
    stencil product, with no n x n array.

    With H~ = (H - b) / a spanning [-1, 1] (``plan`` is (b, a, M), see
    ``_chebyshev_plan``),
    exp(-i H t) = exp(-i b t) sum_m (2 - delta_m0) (-i)^m J_m(a t) T_m(H~)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), so C(t) needs
    only the moments mu_m = <psi0|T_m(H~)|psi0> (Weisse et al.,
    Rev. Mod. Phys. 78, 275 (2006)). One moment series, M / 2 products
    long with M the Bessel order at a |t_max|, serves every sample
    (``_chebyshev_series``); the t = 0 sample is mu_0. A zero-width
    spectrum (or t_max = 0) gives mu_0 exp(-i b t).
    """
    center, half, order = plan
    phase = np.exp(-1j * center * times)
    if order is None:
        return sum(part @ part for part in _real_parts(psi0)) * phase
    moments = _chebyshev_moments(sh, s, center, half, psi0, (order + 1) // 2)
    values = _chebyshev_series(moments, half * (times[1] - times[0]),
                               len(times))
    values[0] = moments[0]
    return phase * values


def _chebyshev_plan(sh: StructuredHamiltonian, s: float,
                    times: np.ndarray) -> Optional[tuple]:
    """(b, a, M) for ``_chebyshev_autocorrelation`` when the work
    estimate (the DENSE_*, CHEB_* and NUFFT_S_* constants) puts Chebyshev
    moments below one dense eigh for C(t) at H(s), else None. b and a
    are the center and half-width of ``_spectral_interval``; M is
    ``_bessel_order`` at a |t_max|, or None when a t_max = 0. Both are
    computed once and serve the estimate and the series."""
    n = sh.dim
    center, half = _spectral_interval(sh, s)
    x_max = half * abs(times[-1])
    spread = 2 * NUFFT_HALF_WIDTH * NUFFT_S_PER_SPREAD
    dense = DENSE_S_PER_N3 * n ** 3 + DENSE_S_PER_N2 * n ** 2 + spread * n

    def cheaper(order: float) -> bool:
        return CHEB_S_SETUP + order * (
            0.5 * (CHEB_S_PER_PRODUCT + CHEB_S_PER_ENTRY * n)
            + spread) < dense

    # M > x_max: a series dearer than dense at x_max orders needs no M,
    # and an x_max that overflowed to inf stays on the dense path
    if not cheaper(x_max):
        return None
    order = _bessel_order(x_max) if x_max else None
    return (center, half, order) if cheaper(order or 0) else None


def _dense_autocorrelation(h: np.ndarray, psi0: np.ndarray,
                           times: np.ndarray) -> np.ndarray:
    """C(t) = sum_k |<k|psi0>|^2 exp(-i E_k t) from one eigendecomposition
    of a fixed Hermitian matrix, in real arithmetic when h is real, on
    the uniform grid ``times`` that starts at 0.

    The weights |<k|psi0>|^2 sit at the nodes E_k dt and one
    ``_nonuniform_fft`` sums them for every sample, as the Chebyshev path
    sums its Gauss-Chebyshev weights; C(0) is the weight sum. A sample
    whose |E_k| t overflows for a level of nonzero weight has no finite
    phase and is returned as NaN.
    """
    if not hermiticity_deviation(h) <= HERMITIAN_TOL:
        raise NonHermitianHamiltonian("H(s) is not Hermitian")
    w, v = hermitian_eigh(h)
    if np.iscomplexobj(v):
        weights = np.abs(v.conj().T @ psi0) ** 2
    else:
        overlaps = v.T @ np.column_stack([psi0.real, psi0.imag])
        weights = np.sum(overlaps * overlaps, axis=1)
    live = weights > 0.0
    w, weights = w[live], weights[live]
    nodes = w * (times[1] - times[0])
    if np.all(np.isfinite(nodes)):
        values = _nonuniform_fft(weights, nodes, len(times))
    else:  # |E_k| dt overflows: no sample past t = 0 is finite
        values = np.full(len(times), np.nan, dtype=complex)
    values[0] = np.sum(weights)
    values[~np.isfinite(np.max(np.abs(w), initial=0.0) * times)] = np.nan
    return values


def autocorrelation(initial: np.ndarray,
                    hamiltonian: Union[OperatorBlock, np.ndarray,
                                       ScheduledHamiltonian,
                                       StructuredHamiltonian],
                    t_max: float, n_samples: int,
                    fixed_s: Optional[float] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """C(t) = <psi0 | psi(t)> on a uniform t-grid including t = 0.

    A fixed Hamiltonian (OperatorBlock or matrix) is diagonalized once,
    in real arithmetic when it is a real matrix, and its weights summed
    by a nonuniform FFT (``_dense_autocorrelation``). A StructuredHamiltonian
    with ``fixed_s`` is read at that s: C(t) comes from Chebyshev moments
    of its stencil product (``_chebyshev_autocorrelation``) or from a
    dense eigh of ``dense(fixed_s)``, whichever the work estimate
    (``_chebyshev_plan``) puts lower. A scheduled Hamiltonian without
    ``fixed_s`` is stepped as ``propagate`` steps it, with t read as the
    schedule parameter s, so it needs 0 < t_max <= s1. ``fixed_s`` with
    any other Hamiltonian raises ValueError.
    """
    if fixed_s is not None and not isinstance(hamiltonian,
                                              StructuredHamiltonian):
        raise ValueError(f"fixed_s needs a StructuredHamiltonian, got "
                         f"{type(hamiltonian).__name__}")
    psi0 = DensityMatrix.from_pure(initial).vector
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(0.0, t_max, n_samples)

    # a sample that overflows is reported once, below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if fixed_s is not None:
            plan = _chebyshev_plan(hamiltonian, fixed_s, times)
            if plan is None:
                values = _dense_autocorrelation(hamiltonian.dense(fixed_s),
                                                psi0, times)
            else:
                values = _chebyshev_autocorrelation(hamiltonian, fixed_s,
                                                    psi0, times, plan)
        elif isinstance(hamiltonian, (ScheduledHamiltonian,
                                      StructuredHamiltonian)):
            if not 0.0 < t_max <= hamiltonian.schedule.s1:
                raise ScheduleOutOfRange(
                    f"require 0 < t_max <= s1, got {t_max}")
            dt = times[1] - times[0]
            psi, values = psi0, [1.0]
            for step in _step_maps(hamiltonian, times[:-1] + 0.5 * dt, dt):
                psi = step(psi)
                values.append(np.vdot(psi0, psi))
            values = np.array(values, dtype=complex)
        else:
            h = hamiltonian.matrix if isinstance(hamiltonian, OperatorBlock) \
                else np.asarray(hamiltonian)
            values = _dense_autocorrelation(h, psi0, times)
    finite = np.isfinite(values)
    if not np.all(finite):
        raise FloatingPointError(
            f"C(t) is not finite at {np.sum(~finite)} of {n_samples} "
            f"samples, the first at t = {times[np.argmin(finite)]}")
    return times, values


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

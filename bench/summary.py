"""Order statistics, host-speed reference and the machine block shared
by every benchmark mode."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time

import numpy as np

# Nominal seconds of the reference task, near what it takes on one
# uncontended core of the 2-vCPU Xeon host the bounds were set on.
# Gated times are scaled to this speed: raw seconds x REFERENCE_S /
# the reference task's seconds measured around the same pass.
REFERENCE_S = 0.025
_RNG = np.random.default_rng(0)
_SYMMETRIC = _RNG.standard_normal((96, 96))
_SYMMETRIC += _SYMMETRIC.T
_COMPLEX = (_RNG.standard_normal((256, 256))
            + 1j * _RNG.standard_normal((256, 256)))


def reference_task() -> float:
    """Seconds taken by a fixed task that runs no mergosim code, made of
    the kinds of work the workloads spend their time in: an interpreter
    loop, building and sorting small Python objects, small dense
    symmetric eigendecompositions, and complex matrix products whose
    operands (1 MB each) do not fit in a core's L2.

    On the host the bounds were set on, a slow spell stretched the
    object part by more than the workloads and the other parts by less,
    so the sum tracks the workloads better than any part alone."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    rows = [{"k": i, "v": i * 7919 % 10007, "t": (i, -i)}
            for i in range(8000)]
    rows.sort(key=lambda row: row["v"])
    acc += sum(row["t"][0] for row in rows)
    for _ in range(3):
        np.linalg.eigh(_SYMMETRIC)
    for _ in range(2):
        _COMPLEX @ _COMPLEX
    return time.perf_counter() - start


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def tail_level(n_samples: int) -> float:
    """Highest quantile level with at least ten samples beyond it.

    With 20 or fewer samples no level above the median qualifies, so
    the tail falls back to the median; the level used is reported next
    to the value.
    """
    return max(0.5, 1.0 - 10.0 / n_samples) if n_samples else 0.5


def quantile(values, level: float) -> float:
    """Linear-interpolation quantile between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = level * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def request_latencies(passes):
    """(p50, tail, tail level, request kinds, samples) of the requests
    in ``passes``.

    Every pass issues the same requests in the same order, so position k
    in a pass is one request kind. The p50 is the median over kinds of
    each kind's median latency: pooled, the median of eight configs of
    equal count sits in the gap between the fourth and fifth, where it
    reads one extreme sample of each. The tail is the pooled quantile
    at ``tail_level`` of all samples. Latencies are host-speed scaled
    by their pass's ``scale``.
    """
    by_kind: dict = {}
    pooled = []
    for p in passes:
        for k, req in enumerate(p.requests):
            latency = req.latency_s * p.scale
            by_kind.setdefault(k, []).append(latency)
            pooled.append(latency)
    medians = [statistics.median(v) for v in by_kind.values()]
    level = tail_level(len(pooled))
    return (statistics.median(medians), quantile(pooled, level), level,
            len(medians), len(pooled))


def _loaded_blas():
    """Path of the BLAS library this process has mapped, if any."""
    try:
        with open("/proc/self/maps") as handle:
            for line in handle:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "blas" in name and ".so" in name:
                    return path
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """Vendor, version and live thread count of numpy's BLAS."""
    import numpy as np

    info = {"vendor": None, "version": None, "threads": None,
            "library": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    path = _loaded_blas()
    info["library"] = os.path.basename(path) if path else None
    if path:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def machine_block(blas_threads_requested: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_requested": blas_threads_requested,
    }

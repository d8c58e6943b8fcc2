"""The environment recorded with every result: cores, BLAS and its threads, versions, steal time."""

from __future__ import annotations

import ctypes
import os
import platform

_THREAD_SYMBOLS = (
    "openblas_get_num_threads", "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
)
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def proc_stat():
    """Aggregate CPU tick counters from /proc/stat (read-only), or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:]]


def steal_share(before, after):
    """Share of all CPU ticks between two proc_stat readings that the hypervisor stole.

    Fields are user, nice, system, idle, iowait, irq, softirq, steal, then
    guest time, which is already counted in user and is left out.
    """
    if before is None or after is None or len(before) < 8:
        return None
    d = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(d)
    return d[7] / total if total > 0 else 0.0


def _openblas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, as each library reports it."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in _THREAD_ENV if k in os.environ},
    }

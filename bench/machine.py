"""A record of the machine and libraries a benchmark run measured.

BLAS threading is read, never set: users get OpenBLAS's default, so the
benchmark measures the default too.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _openblas() -> tuple[str, int | None]:
    """numpy's BLAS version and the thread count its OpenBLAS will use."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    version = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return version, None
    libs = {tok for tok in maps.split() if "openblas" in Path(tok).name}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def record() -> dict:
    import numpy
    import scipy

    import noonbell

    blas_version, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "noonbell": noonbell.__version__,
        # The CLI resolves --threads to os.cpu_count() when neither the flag
        # nor NOONBELL_THREADS is given; the run manifest does not record it.
        "noonbell_threads": os.cpu_count() or 1,
    }

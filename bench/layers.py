"""Isolated timings of each layer's public functions, untraced, at the input
sizes the workloads use.

Every figure is a median over repeats, so one slow repeat (another process
taking the CPU, a BLAS thread hand-off) does not move it.  The Fock oracle
also reports its minimum and 90th percentile: with the default OpenBLAS
threading its cutoff-64 matrix products have a long tail, and the tail is
what the phase-space workload feels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

VECTOR_POINTS = 200_000  # one chunk of the optimizer's exhaustive grid scan
ORACLE_CUTOFF = 64
ORACLE_CALLS = 30


def _median_seconds(fn, repeat: int, number: int = 1) -> float:
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t0) / number)
    return statistics.median(times)


def _amplitudes(rng, size, radius):
    return rng.uniform(-radius, radius, size) + 1j * rng.uniform(-radius, radius, size)


def measure(seed: int) -> dict[str, tuple[float, str]]:
    """Return {metric name: (value, unit)} for every isolated layer timing."""
    from noonbell import correlators, fock, inequalities, marginals, verify

    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}

    a, b = (complex(z) for z in _amplitudes(rng, 2, 2.0))
    for name in ("q_joint", "parity_corr"):
        fn = getattr(correlators, name)
        sec = _median_seconds(lambda: fn(1, a, b), repeat=5, number=2000)
        out[f"correlators.{name}.scalar_us"] = (sec * 1e6, "us")

    va, vb = _amplitudes(rng, VECTOR_POINTS, 5.0), _amplitudes(rng, VECTOR_POINTS, 5.0)
    for label, name, n in (
        ("q_joint", "q_joint", 1),
        ("parity_corr", "parity_corr", 1),
        ("parity_corr.n25", "parity_corr", 25),
    ):
        fn = getattr(correlators, name)
        sec = _median_seconds(lambda: fn(n, va, vb), repeat=3)
        out[f"correlators.{label}.vector_ns_per_point"] = (sec / VECTOR_POINTS * 1e9, "ns")

    ch = inequalities.catalog()["ch"]
    one = _amplitudes(rng, 4, 2.0)
    batch = _amplitudes(rng, (VECTOR_POINTS, 4), 5.0)
    sec = _median_seconds(lambda: inequalities.evaluate_functional(ch, 1, one), repeat=5, number=500)
    out["inequalities.evaluate_functional.scalar_us"] = (sec * 1e6, "us")
    sec = _median_seconds(lambda: inequalities.evaluate_functional(ch, 1, batch), repeat=3)
    out["inequalities.evaluate_functional.vector_ns_per_point"] = (sec / VECTOR_POINTS * 1e9, "ns")

    out["marginals.density_grid.w_n3_64_s"] = (
        _median_seconds(lambda: marginals.density_grid("w", 3, 3.0, 64), repeat=3), "s")
    out["marginals.density_grid.q_n2_128_s"] = (
        _median_seconds(lambda: marginals.density_grid("q", 2, 3.0, 128), repeat=3), "s")
    out["marginals.marginal_integral.w_n2_s"] = (
        _median_seconds(lambda: marginals.marginal_integral("w", 2), repeat=3), "s")

    oracle_ms = []
    for _ in range(ORACLE_CALLS):
        n = int(rng.integers(1, 5))
        x, y = (complex(z) for z in _amplitudes(rng, 2, 1.5))
        t0 = perf_counter()
        fock.oracle_parity_corr(n, x, y, ORACLE_CUTOFF)
        oracle_ms.append((perf_counter() - t0) * 1e3)
    out["fock.oracle_parity_corr.c64_ms"] = (statistics.median(oracle_ms), "ms")
    out["fock.oracle_parity_corr.c64_min_ms"] = (min(oracle_ms), "ms")
    out["fock.oracle_parity_corr.c64_p90_ms"] = (float(np.percentile(oracle_ms, 90)), "ms")
    x = complex(_amplitudes(rng, 1, 1.5)[0])
    sec = _median_seconds(lambda: fock.displacement_matrix(x, ORACLE_CUTOFF), repeat=ORACLE_CALLS)
    out["fock.displacement_matrix.c64_ms"] = (sec * 1e3, "ms")

    out["verify.run_checks.quick_s"] = (_median_seconds(lambda: verify.run_checks("quick"), repeat=3), "s")
    return out

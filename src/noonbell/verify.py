"""Self-verification: every closed form is checked against an independent
route (the truncated Fock simulator, an external polynomial evaluator, or an
analytic witness), plus the reference plateau and violation results.

``quick`` runs the cheap cross-checks (seconds); ``full`` adds the cutoff-64
oracle sweeps and the optimizer-based plateau checks (a few minutes).  Each
check reports its tolerance and the observed error so a regression names the
exact quantity that moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import laguerre as np_laguerre

from noonbell import correlators, fock, inequalities, marginals
from noonbell.optimizer import OptimizerConfig, optimize

__all__ = ["CheckResult", "run_checks", "QUICK", "FULL"]

QUICK = "quick"
FULL = "full"


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool
    detail: str = ""


def _check(name: str, tolerance: float, observed: float, detail: str = "") -> CheckResult:
    return CheckResult(name, tolerance, float(observed), bool(observed <= tolerance), detail)


def _random_amplitudes(rng, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * phi)


def _laguerre_reference() -> CheckResult:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for order in range(0, 13):
        coeffs = np.zeros(order + 1)
        coeffs[order] = 1.0
        for x in rng.uniform(0.0, 60.0, 6):
            ours = correlators.laguerre(order, float(x))
            ref = float(np_laguerre.lagval(float(x), coeffs))
            scale = max(1.0, abs(ref))
            worst = max(worst, abs(ours - ref) / scale)
    return _check("laguerre-vs-numpy", 1e-10, worst, "orders 0..12, x in [0, 60]")


def _ch_witness() -> CheckResult:
    ch = inequalities.catalog()["ch"]
    worst_margin = -math.inf  # must stay strictly negative on the open interval
    worst_mismatch = 0.0
    grid = np.linspace(0.0, math.log(2.0), 52)[1:-1]
    for n in range(1, 9):
        settings = np.array([inequalities.ch_reduced_settings(n, float(s)) for s in grid])
        full = inequalities.evaluate_functional(ch, n, settings)
        for s, value in zip(grid, full):
            margin = inequalities.ch_analytic_reduced_margin(n, float(s))
            reduced = inequalities.ch_analytic_reduced(n, float(s))
            worst_margin = max(worst_margin, margin)
            worst_mismatch = max(worst_mismatch, abs(float(value) - reduced))
    observed = max(worst_mismatch, 0.0 if worst_margin < 0.0 else 1.0)
    return _check(
        "analytic-ch-witness",
        1e-12,
        observed,
        "reduced family < -1 on (0, ln 2) and matches the full combination, N = 1..8",
    )


def _oracle_check(name, tolerance, closed, oracle, seed, sizes) -> CheckResult:
    """Worst gap between a closed form and its Fock oracle; ``sizes`` is
    (n_max, count, radius, cutoff)."""
    rng = np.random.default_rng(seed)
    n_max, count, radius, cutoff = sizes
    worst = 0.0
    for n in range(1, n_max + 1):
        alphas = _random_amplitudes(rng, count, radius)
        betas = _random_amplitudes(rng, count, radius)
        for a, b in zip(alphas, betas):
            worst = max(worst, abs(closed(n, a, b) - oracle(n, a, b, cutoff)))
    return _check(name, tolerance, worst, f"n <= {n_max}, {count} random settings, cutoff {cutoff}")


def _displacement_unitarity() -> CheckResult:
    cutoff = 64
    block = cutoff // 4
    worst = 0.0
    for alpha in (0.7, 1.3 + 0.4j, 2.0, -1.1j):
        d_plus = fock.displacement_matrix(alpha, cutoff)
        d_minus = fock.displacement_matrix(-alpha, cutoff)
        product = (d_plus @ d_minus)[:block, :block]
        worst = max(worst, float(np.max(np.abs(product - np.eye(block)))))
    return _check(
        "displacement-unitarity",
        1e-8,
        worst,
        "D(a) D(-a) on the lowest quarter block, cutoff 64, |a| <= 2",
    )


def _swap_unitary() -> CheckResult:
    worst = 0.0
    for n in range(2, 5):
        mapped = fock.apply_swap_unitary(n, fock.noon_state(1, 16))
        target = fock.noon_state(n, 16)
        worst = max(worst, float(np.max(np.abs(mapped - target))))
        twice = fock.apply_swap_unitary(n, mapped)
        source = fock.noon_state(1, 16)
        worst = max(worst, float(np.max(np.abs(twice - source))))
    return _check("swap-unitary", 1e-12, worst, "maps the 1-photon state to n = 2..4; involution")


def _j2_witness() -> CheckResult:
    j2 = inequalities.catalog()["j2"]
    worst = 0.0
    zeros = np.zeros(4, dtype=complex)
    for n in range(1, 11):
        worst = max(worst, abs(inequalities.evaluate_functional(j2, n, zeros) - 4.0))
    return _check("j2-all-zero-witness", 1e-12, worst, "value 4 at the all-zero settings, N = 1..10")


def _j4_limit() -> CheckResult:
    j4 = inequalities.catalog()["j4"]
    limit = inequalities.functional_limit(
        j4, 1, np.zeros(4, dtype=complex), [False, False, False, True]
    )
    direct = inequalities.evaluate_functional(j4, 1, [0.0, 0.0, 0.0, 6.0])
    observed = max(abs(limit - 1.5), abs(direct - 1.5) - 1e-12)
    return _check(
        "j4-large-amplitude-limit",
        1e-6,
        observed,
        "j4(0,0,0,delta) -> 3/2 as |delta| grows",
    )


def _marginal_normalization() -> CheckResult:
    worst = 0.0
    for n in (1, 2, 100):
        for kind in ("q-marginal", "w-marginal"):
            worst = max(worst, abs(marginals.marginal_integral(kind, n) - 1.0))
    return _check("marginal-normalization", 1e-6, worst, "both marginal kinds, N = 1, 2, 100")


def _parity_bounds() -> CheckResult:
    rng = np.random.default_rng(23)
    alphas = _random_amplitudes(rng, 500, 2.5)
    betas = _random_amplitudes(rng, 500, 2.5)
    worst = 0.0
    for n in (1, 2, 3):
        pi_vals = correlators.parity_corr(n, alphas, betas)
        worst = max(worst, float(np.max(np.abs(pi_vals))) - 1.0)
    return _check("parity-expectation-bound", 1e-12, max(worst, 0.0), "|Pi| <= 1 on random settings")


def _chsh_quantum_bound() -> CheckResult:
    chsh = inequalities.catalog()["chsh"]
    rng = np.random.default_rng(29)
    settings = _random_amplitudes(rng, 4 * 200, 2.0).reshape(200, 4)
    worst = -math.inf
    for n in (1, 2, 3):
        values = inequalities.evaluate_functional(chsh, n, settings)
        worst = max(worst, float(np.max(np.abs(values))) - 2.0 * math.sqrt(2.0))
    return _check("chsh-quantum-bound", 1e-9, max(worst, 0.0), "|value| <= 2 sqrt(2) on random settings")


def _optimizer_plateaus() -> list[CheckResult]:
    results = []
    cat = inequalities.catalog()

    worst = 0.0
    for n in range(1, 11):
        r = optimize(cat["j2"], n, OptimizerConfig(rng_seed=101 ^ n))
        worst = max(worst, abs(r.best_value - 4.0))
    results.append(_check("j2-plateau", 1e-8, worst, "optimize(j2, N) = 4, N = 1..10"))

    j1_vals = [optimize(cat["j1"], n, OptimizerConfig(rng_seed=103 ^ n)).best_value for n in range(1, 7)]
    spread = max(j1_vals) - min(j1_vals)
    low = 2.0 - min(j1_vals)
    results.append(
        _check("j1-plateau", 1e-4, max(spread, low), "optimize(j1, N) constant and >= 2, N = 1..6")
    )
    return results


def _optimizer_chsh() -> list[CheckResult]:
    cat = inequalities.catalog()
    results = []
    r1 = optimize(cat["chsh"], 1, OptimizerConfig(rng_seed=107))
    results.append(
        _check(
            "chsh-one-photon-violation",
            0.0,
            max(0.0, 1e-3 - r1.violation_margin),
            f"|value| = {abs(r1.best_value):.6f} must exceed 2 by more than 1e-3",
        )
    )
    worst = 0.0
    for n in (2, 3):
        r = optimize(cat["chsh"], n, OptimizerConfig(rng_seed=109 ^ n))
        worst = max(worst, r.violation_margin)
    results.append(
        _check("chsh-no-violation-above-one-photon", 1e-6, worst, "margin <= 0 for N = 2..3")
    )
    return results


def _optimizer_ch() -> CheckResult:
    cat = inequalities.catalog()
    margins = []
    worst = 0.0
    for n in range(1, 5):
        r = optimize(cat["ch"], n, OptimizerConfig(rng_seed=113 ^ n))
        margins.append(r.violation_margin)
        grid = np.linspace(0.0, math.log(2.0), 52)[1:-1]
        reduced_min = min(inequalities.ch_analytic_reduced(n, float(s)) for s in grid)
        worst = max(worst, r.best_value - reduced_min)  # must be <= 0 (dominance)
        if r.violation_margin <= 0.0:
            worst = max(worst, 1.0)
    for lo, hi in zip(margins[1:], margins):
        if lo >= hi:
            worst = max(worst, lo - hi, 1e-15)
    return _check(
        "ch-violation-decreasing",
        0.0,
        worst,
        "violation for N = 1..4, strictly shrinking, dominating the analytic witness",
    )


def _marginal_statistics() -> CheckResult:
    worst = 0.0
    for kind, n in (("q-marginal", 2), ("q-marginal", 3), ("w-marginal", 2), ("w-marginal", 3)):
        worst = max(worst, abs(marginals.correlation_coefficient(kind, n)))
    grid = marginals.density_grid("w-marginal", 2, 3.0, 101)
    if float(grid.values.min()) < -1e-9:
        worst = max(worst, 1.0)
    return _check(
        "marginal-statistics",
        1e-8,
        worst,
        "r vanishes for N = 2, 3; w-marginal grid nonnegative",
    )


def _j3_decay() -> CheckResult:
    cat = inequalities.catalog()
    values = [optimize(cat["j3"], n, OptimizerConfig(rng_seed=127 ^ n)).best_value for n in range(1, 4)]
    worst = 0.0
    for v in values:
        if v >= 0.0:
            worst = max(worst, 1.0)
    for later, earlier in zip(values[1:], values):
        if abs(later) >= abs(earlier):
            worst = max(worst, 1.0)
    return _check("j3-decreasing-violation", 0.0, worst, "negative and shrinking in magnitude, N = 1..3")


def run_checks(level: str = QUICK) -> list[CheckResult]:
    """Run the verification battery; ``level`` is ``"quick"`` or ``"full"``."""
    if level not in (QUICK, FULL):
        raise ValueError(f"level must be '{QUICK}' or '{FULL}', got {level!r}")
    checks = [
        _laguerre_reference(),
        _ch_witness(),
        _oracle_check(
            "no-click-joint-vs-oracle", 1e-9, correlators.q_joint, fock.oracle_q_joint, 7,
            (5, 200, 2.5, 64) if level == FULL else (3, 20, 1.5, 32),
        ),
        _oracle_check(
            "parity-vs-oracle", 1e-7, correlators.parity_corr, fock.oracle_parity_corr, 11,
            (4, 200, 1.5, 64) if level == FULL else (2, 10, 1.0, 32),
        ),
        _displacement_unitarity(),
        _swap_unitary(),
        _j2_witness(),
        _j4_limit(),
        _marginal_normalization(),
        _parity_bounds(),
        _chsh_quantum_bound(),
    ]
    if level == FULL:
        checks.extend(_optimizer_plateaus())
        checks.extend(_optimizer_chsh())
        checks.append(_optimizer_ch())
        checks.append(_j3_decay())
        checks.append(_marginal_statistics())
    return checks

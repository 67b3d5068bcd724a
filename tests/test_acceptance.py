"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 5 asserts the traditional constant-1.5 plateau for j4 and is
expected to fail: the 1.5 figure is the large-amplitude boundary limit of
j4(0,0,0,delta), not the supremum.  The true optimum is interior and larger
(1.6943 at N = 1, 1.56..1.58 for N = 2..6), which the truncated Fock oracle
confirms independently (see test_fock.py and the j4 tests below).  The test
is kept faithful to the stated criterion and marked strict-xfail so a change
in behavior is flagged.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from noonbell import (
    OptimizerConfig,
    catalog,
    certify_with_grid,
    ch_analytic_reduced,
    ch_analytic_reduced_margin,
    ch_reduced_settings,
    correlation_coefficient,
    density_grid,
    marginal_integral,
    noon_state,
    apply_swap_unitary,
    optimize,
    oracle_parity_corr,
    oracle_q_joint,
    parity_corr,
    q_joint,
)
from noonbell import cli
from handcoded import ch_value

CAT = catalog()


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}  {detail}")


def random_amplitudes(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * phi)


def test_c01_analytic_ch_witness():
    started = time.monotonic()
    grid = np.linspace(0.0, math.log(2.0), 52)[1:-1]
    worst_mismatch = 0.0
    for n in range(1, 9):
        for s in grid:
            s = float(s)
            # below -1 on the open interval; the margin form keeps the
            # violation visible where it underflows against the constant 1
            assert ch_analytic_reduced_margin(n, s) < 0.0
            assert ch_analytic_reduced(n, s) <= -1.0
            mismatch = abs(ch_value(n, ch_reduced_settings(n, s)) - ch_analytic_reduced(n, s))
            worst_mismatch = max(worst_mismatch, mismatch)
    assert worst_mismatch < 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report("1 analytic-ch-witness", True, f"mismatch {worst_mismatch:.2e}, {elapsed:.2f}s")


def test_c02_ch_sweep_shape():
    started = time.monotonic()
    results = {n: optimize(CAT["ch"], n, OptimizerConfig(rng_seed=17 ^ n)) for n in range(1, 7)}
    for n in range(1, 5):
        assert results[n].best_value < -1.0, f"no violation at N={n}"
    magnitudes = [-1.0 - results[n].best_value for n in range(1, 5)]
    for later, earlier in zip(magnitudes[1:], magnitudes):
        assert later < earlier, f"violation magnitude not strictly decreasing: {magnitudes}"
    # witness dominance: the full optimum must be at least as violating as
    # the analytic reduced family on its own grid
    sgrid = np.linspace(0.0, math.log(2.0), 52)[1:-1]
    for n in range(1, 7):
        reduced_min = min(ch_analytic_reduced(n, float(s)) for s in sgrid)
        assert results[n].best_value <= reduced_min, f"dominance failed at N={n}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(
        "2 ch-sweep-shape",
        True,
        "violations " + ", ".join(f"{m:.2e}" for m in magnitudes) + f", {elapsed:.0f}s",
    )


def test_c03_chsh_only_one_photon():
    started = time.monotonic()
    # the classical band is two-sided; for these states the all-zero settings
    # sit on the lower edge for odd N and the one-photon optimum crosses it,
    # so the catalog directs the search below -2 and the mirrored search
    # guards the upper side
    values = {}
    for n in range(1, 6):
        low = optimize(CAT["chsh"], n, OptimizerConfig(rng_seed=23 ^ n))
        high = optimize(
            replace(CAT["chsh"], violation_direction="above-upper"),
            n,
            OptimizerConfig(rng_seed=29 ^ n),
        )
        values[n] = (low.best_value, high.best_value)
        assert abs(low.best_value) <= 2.0 * math.sqrt(2.0) + 1e-9
        assert abs(high.best_value) <= 2.0 * math.sqrt(2.0) + 1e-9
    assert abs(values[1][0]) > 2.0 + 1e-3, f"one-photon violation missing: {values[1]}"
    for n in range(2, 6):
        assert abs(values[n][0]) <= 2.0 + 1e-6, f"unexpected violation at N={n}: {values[n]}"
        assert abs(values[n][1]) <= 2.0 + 1e-6, f"unexpected violation at N={n}: {values[n]}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(
        "3 chsh-only-one-photon",
        True,
        f"N=1 reaches {values[1][0]:.6f} (|value| > 2), N=2..5 classical, {elapsed:.0f}s",
    )


def test_c04_j2_plateau():
    from handcoded import j_value

    started = time.monotonic()
    worst = 0.0
    zeros = np.zeros(4, dtype=complex)
    for n in range(1, 11):
        r = optimize(CAT["j2"], n, OptimizerConfig(rng_seed=31 ^ n))
        worst = max(worst, abs(r.best_value - 4.0))
        # the all-zero settings are an attaining witness, sitting on the
        # coarse grid, so the scan itself already reaches the plateau
        assert j_value(2, n, zeros) == 4.0
        assert r.grid_best_value == pytest.approx(4.0, abs=1e-12)
    assert worst <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("4 j2-plateau", True, f"max |value - 4| = {worst:.2e}, {elapsed:.0f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "j4's maximum is not the constant 1.5: that figure is the large-|delta| "
        "boundary limit of j4(0,0,0,delta), while the true optimum is interior "
        "and larger (1.69426 at N=1; 1.56..1.58 for N=2..6), confirmed "
        "independently by the truncated Fock oracle"
    ),
)
def test_c05_j4_plateau_as_stated():
    started = time.monotonic()
    values = {}
    for n in range(1, 7):
        r = optimize(CAT["j4"], n, OptimizerConfig(rng_seed=37 ^ n))
        values[n] = r.best_value
    print(f"\nj4 optima by photon number: {values}")
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    for n, value in values.items():
        assert abs(value - 1.5) <= 1e-4, f"j4 N={n} optimum {value} is not 1.5"
    report("5 j4-plateau", True)


def test_c05_j4_boundary_limit_machinery():
    """The factual core behind criterion 5: 1.5 is exactly the large-
    amplitude limit, the optimizer flags capped optima and reports it, and
    the true unconstrained optimum exceeds it."""
    started = time.monotonic()
    from noonbell import functional_limit

    limit = functional_limit(CAT["j4"], 1, np.zeros(4, dtype=complex), [False] * 3 + [True])
    assert limit == 1.5
    capped = optimize(CAT["j4"], 1, OptimizerConfig(rng_seed=41, search_radius=0.35))
    assert capped.boundary_hit
    assert capped.boundary_limit is not None
    free = optimize(CAT["j4"], 1, OptimizerConfig(rng_seed=43))
    assert free.best_value > 1.5 + 1e-2
    assert free.best_value == pytest.approx(1.6942614687, abs=1e-6)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        "5b j4-boundary-limit",
        True,
        f"limit 1.5 flagged at the cap; true optimum {free.best_value:.6f}, {elapsed:.0f}s",
    )


def test_c06_j1_plateau():
    started = time.monotonic()
    results = [optimize(CAT["j1"], n, OptimizerConfig(rng_seed=47 ^ n)) for n in range(1, 7)]
    values = [r.best_value for r in results]
    assert max(values) - min(values) <= 1e-4, f"not constant: {values}"
    assert min(values) >= 2.0 - 1e-12, f"below the all-zero witness: {values}"
    # the plateau value is established by grid certification, not asserted
    # from any external figure
    for r in results[:3]:
        cert = certify_with_grid(CAT["j1"], r.n, r, grid_points=5)
        assert cert.passed
        assert cert.grid_best_value == pytest.approx(2.0, abs=1e-12)
    elapsed = time.monotonic() - started
    report("6 j1-plateau", True, f"constant at {values[0]:.10f}, {elapsed:.0f}s")


def test_c07_j3_decay():
    started = time.monotonic()
    values = [optimize(CAT["j3"], n, OptimizerConfig(rng_seed=53 ^ n)).best_value for n in range(1, 5)]
    for v in values:
        assert v < 0.0, f"no violation: {values}"
    magnitudes = [abs(v) for v in values]
    for later, earlier in zip(magnitudes[1:], magnitudes):
        assert later < earlier, f"magnitude not strictly decreasing: {magnitudes}"
    elapsed = time.monotonic() - started
    report(
        "7 j3-decay",
        True,
        "values " + ", ".join(f"{v:.4f}" for v in values) + f", {elapsed:.0f}s",
    )


def test_c08_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(59)
    worst_q = 0.0
    for n in range(1, 6):
        alphas = random_amplitudes(rng, 200, 2.5)
        betas = random_amplitudes(rng, 200, 2.5)
        for a, b in zip(alphas, betas):
            worst_q = max(worst_q, abs(q_joint(n, a, b) - oracle_q_joint(n, a, b, 64)))
    assert worst_q < 1e-9
    worst_pi = 0.0
    for n in range(1, 6):
        alphas = random_amplitudes(rng, 200, 1.5)
        betas = random_amplitudes(rng, 200, 1.5)
        for a, b in zip(alphas, betas):
            worst_pi = max(
                worst_pi, abs(parity_corr(n, a, b) - oracle_parity_corr(n, a, b, 64))
            )
    assert worst_pi < 1e-7
    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    report(
        "8 oracle-equivalence",
        True,
        f"no-click err {worst_q:.2e}, parity err {worst_pi:.2e}, {elapsed:.0f}s",
    )


def test_c09_unitary_equivalence():
    worst = 0.0
    for n in range(2, 7):
        mapped = apply_swap_unitary(n, noon_state(1, 16))
        target = noon_state(n, 16)
        worst = max(worst, float(np.max(np.abs(mapped - target))))
    assert worst < 1e-12
    report("9 unitary-equivalence", True, f"max amplitude error {worst:.2e}")


def test_c10_marginal_statistics():
    started = time.monotonic()
    worst_r = 0.0
    for kind in ("q-marginal", "w-marginal"):
        for n in (2, 3):
            worst_r = max(worst_r, abs(correlation_coefficient(kind, n)))
    assert worst_r < 1e-8
    grid = density_grid("w-marginal", 2, 3.0, 101)
    assert grid.values.min() >= -1e-9
    worst_mass = 0.0
    for kind in ("q-marginal", "w-marginal"):
        for n in (1, 2, 3):
            worst_mass = max(worst_mass, abs(marginal_integral(kind, n) - 1.0))
    assert worst_mass < 1e-6
    elapsed = time.monotonic() - started
    report(
        "10 marginal-statistics",
        True,
        f"|r| <= {worst_r:.2e}, mass error {worst_mass:.2e}, {elapsed:.0f}s",
    )


def test_c11_cli_determinism(tmp_path, capsys):
    import os

    outputs = []
    for name, threads in (("a.json", 1), ("b.json", 1), ("c.json", os.cpu_count() or 1)):
        out = tmp_path / name
        code = cli.main(
            [
                "optimize", "ch", "--n", "1", "--seed", "7", "--starts", "16",
                "--threads", str(threads), "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "same seed must give byte-identical JSON"
    assert outputs[0] == outputs[2], "thread count must not change the payload"
    json.loads(outputs[0])  # payload is valid JSON
    report("11 cli-determinism", True, "byte-identical across runs and thread counts")

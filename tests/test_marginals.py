import math
from pathlib import Path

import numpy as np
import pytest

from noonbell import marginals
from noonbell import (
    correlation_coefficient,
    density_grid,
    factored_l1_distance,
    grid_from_csv,
    grid_to_csv,
    marginal_integral,
    marginal_q,
    marginal_w,
    q_joint,
)

GOLDEN = Path(__file__).parent / "golden"


def mc_marginal_q(n, y, v, samples, seed):
    """Monte-Carlo oracle: with x, u ~ Normal(0, 1/sqrt(2)) the (x, u)
    integral is pi * E[h] where the integrand is h * exp(-x^2 - u^2), so the
    normalized marginal is E[h] / pi.  Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, math.sqrt(0.5), samples)
    u = rng.normal(0.0, math.sqrt(0.5), samples)
    h = q_joint(n, x + 1j * y, u + 1j * v) * np.exp(x * x + u * u)
    values = h / math.pi
    return float(np.mean(values)), float(np.std(values) / math.sqrt(samples))


class TestPointValues:
    def test_q_reference_point_against_hand_closed_form(self):
        # N = 1 closed form: (1/2pi) exp(-y^2-v^2) (1 + (y-v)^2)
        for y, v in ((0.0, 0.0), (0.8, -0.3), (1.5, 1.5)):
            expected = math.exp(-y * y - v * v) * (1.0 + (y - v) ** 2) / (2.0 * math.pi)
            assert marginal_q(1, y, v) == pytest.approx(expected, abs=1e-12)

    def test_w_reference_point_against_hand_closed_form(self):
        # N = 1 closed form: (4/pi) exp(-2(y^2+v^2)) (y-v)^2
        for y, v in ((0.0, 0.0), (0.8, -0.3), (-1.2, 0.4)):
            expected = 4.0 / math.pi * math.exp(-2.0 * (y * y + v * v)) * (y - v) ** 2
            assert marginal_w(1, y, v) == pytest.approx(expected, abs=1e-12)

    def test_q_against_monte_carlo_oracle(self):
        estimate, stderr = mc_marginal_q(1, 0.0, 0.0, 400_000, seed=7)
        assert abs(marginal_q(1, 0.0, 0.0) - estimate) < 3.0 * stderr
        estimate, stderr = mc_marginal_q(2, 0.5, -0.5, 400_000, seed=8)
        assert abs(marginal_q(2, 0.5, -0.5) - estimate) < 3.0 * stderr

    def test_exchange_symmetry(self):
        for n in (1, 2, 3):
            assert marginal_q(n, 0.7, -0.2) == pytest.approx(
                marginal_q(n, -0.2, 0.7), abs=1e-14
            )
            assert marginal_w(n, 0.7, -0.2) == pytest.approx(
                marginal_w(n, -0.2, 0.7), abs=1e-14
            )

    def test_quadrature_convergence(self):
        for kind in ("q-marginal", "w-marginal"):
            for n in (1, 3, 5):
                for y, v in ((0.4, -1.1), (1.8, 0.9)):
                    low = marginals._marginal_value(kind, n, y, v, 40)
                    high = marginals._marginal_value(kind, n, y, v, 80)
                    assert abs(low - high) < 1e-8


class TestNormalization:
    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_mass(self, kind, n):
        assert marginal_integral(kind, n) == pytest.approx(1.0, abs=1e-6)

    def test_kind_aliases(self):
        assert marginal_integral("q", 1) == marginal_integral("q-marginal", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            marginal_integral("husimi", 1)


class TestCorrelationCoefficient:
    def test_vanishes_above_one_photon(self):
        assert abs(correlation_coefficient("q-marginal", 2)) < 1e-8
        assert abs(correlation_coefficient("q-marginal", 3)) < 1e-8
        assert abs(correlation_coefficient("w-marginal", 2)) < 1e-8
        assert abs(correlation_coefficient("w-marginal", 3)) < 1e-8

    def test_one_photon_values(self):
        # hand-derived: r = -1/3 for the no-click marginal, -1/2 for Wigner
        assert correlation_coefficient("q-marginal", 1) == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert correlation_coefficient("w-marginal", 1) == pytest.approx(-0.5, abs=1e-10)

    def test_one_photon_against_monte_carlo(self):
        rng = np.random.default_rng(21)
        samples = 400_000
        x, y, u, v = rng.normal(0.0, math.sqrt(0.5), (4, samples))
        weights = np.abs((x + 1j * y) - (u + 1j * v)) ** 2  # |a^1 - b^1|^2
        wsum = weights.sum()
        my = (weights * y).sum() / wsum
        mv = (weights * v).sum() / wsum
        cov = (weights * (y - my) * (v - mv)).sum() / wsum
        r_mc = cov / math.sqrt(
            ((weights * (y - my) ** 2).sum() / wsum)
            * ((weights * (v - mv) ** 2).sum() / wsum)
        )
        assert correlation_coefficient("q-marginal", 1) == pytest.approx(r_mc, abs=0.01)


class TestNonlinearDependence:
    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_joint_differs_from_product(self, kind, n):
        assert factored_l1_distance(kind, n) > 1e-3

    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_stated_accuracy(self, kind, n, monkeypatch):
        # |f - g| has kinks, so the Gauss-Hermite rule is not exact for it.
        # Orders above 56 would need order^4 complex values (10 GB at 160).
        value = factored_l1_distance(kind, n)
        grid = density_grid(kind, n, 6.0, 201)
        h = grid.y_axis[1] - grid.y_axis[0]
        f = grid.values
        fine = np.abs(f - np.outer(f.sum(axis=1) * h, f.sum(axis=0) * h)).sum() * h * h
        assert abs(value - fine) < 5e-3
        monkeypatch.setattr(marginals, "_ORDER", 56)
        assert abs(factored_l1_distance(kind, n) - value) < 1e-2


class TestDensityGrid:
    def test_q_grid_nonnegative(self):
        grid = density_grid("q-marginal", 1, 3.0, 64)
        assert grid.values.shape == (64, 64)
        assert grid.values.min() >= 0.0
        assert grid.normalization == pytest.approx(math.pi**2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_w_grid_nonnegative_within_tolerance(self, n):
        grid = density_grid("w-marginal", n, 3.0, 101)
        assert grid.values.min() >= -1e-9
        assert grid.normalization == 1.0

    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trapezoid_mass_bounds(self, kind, n):
        grid = density_grid(kind, n, 3.0, 64)
        assert 0.98 <= grid.trapezoid_mass() <= 1.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            density_grid("q-marginal", 1, 3.0, 8)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            density_grid("q-marginal", 1, -1.0, 64)

    @pytest.mark.parametrize("range_", [math.nan, math.inf])
    def test_non_finite_range_rejected(self, range_):
        with pytest.raises(ValueError, match="finite"):
            density_grid("w-marginal", 1, range_, 16)

    def test_count_upper_bound_before_any_work(self, monkeypatch):
        # the check runs before the first quadrature call, so nothing is allocated
        monkeypatch.setattr(marginals, "_marginal_value", None)
        with pytest.raises(ValueError, match=r"count must be <= 1024, got 100000: about 2560 MB"):
            density_grid("w-marginal", 1, 3.0, 100_000)
        with pytest.raises(ValueError, match="got 1025"):
            density_grid("q-marginal", 1, 3.0, 1025)

    def test_grid_matches_pointwise_values(self):
        grid = density_grid("w-marginal", 2, 2.0, 16)
        axis = grid.y_axis
        assert grid.values[3, 11] == pytest.approx(
            marginal_w(2, axis[3], axis[11]), abs=1e-12
        )

    def test_csv_round_trip(self):
        grid = density_grid("q-marginal", 2, 3.0, 24)
        back = grid_from_csv(grid_to_csv(grid))
        assert back.kind == grid.kind and back.n == grid.n and back.count == grid.count
        assert np.max(np.abs(back.values - grid.values)) < 1e-9

    def test_csv_print_precision(self):
        grid = density_grid("q-marginal", 1, 2.0, 16)
        line = grid_to_csv(grid).splitlines()[2]
        assert all("e" in tok for tok in line.split(","))


class TestGoldenGrids:
    """Regression anchors for the density structure (the higher-N grids are
    more symmetric, with interference rings pronounced in the Wigner kind)."""

    @pytest.mark.parametrize(
        "fname,kind,n,range_,count",
        [
            ("q_marginal_n1_32.csv", "q-marginal", 1, 3.0, 32),
            ("w_marginal_n2_32.csv", "w-marginal", 2, 3.0, 32),
            ("w_marginal_n3_64.csv", "w-marginal", 3, 3.0, 64),
        ],
    )
    def test_against_golden(self, fname, kind, n, range_, count):
        golden = grid_from_csv((GOLDEN / fname).read_text())
        fresh = density_grid(kind, n, range_, count)
        assert golden.kind == kind and golden.n == n and golden.count == count
        assert np.max(np.abs(fresh.values - golden.values)) < 1e-9

import math
from pathlib import Path

import numpy as np
import pytest

import handcoded
from handcoded import marginal_value_2d, w_marginal_closed_form
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


def stub_axis_parts(monkeypatch):
    """Make every per-axis computation fail, to prove a check runs first."""
    for kind in marginals._AXIS_PARTS:
        monkeypatch.setitem(marginals._AXIS_PARTS, kind, None)


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
    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_stated_accuracy(self, kind, n, monkeypatch):
        # |f - g| has kinks, so the trapezoid sum converges slowly; the
        # docstring states 3.2e-4 against twice the points for N <= 40
        # (worst seen 3.15e-4, w N = 40)
        value = factored_l1_distance(kind, n)
        monkeypatch.setattr(marginals, "_AXIS_POINTS", 1601)
        assert abs(factored_l1_distance(kind, n) - value) < 3.2e-4

    @pytest.mark.parametrize("kind,n,converged", [
        ("q-marginal", 2, 0.2535), ("w-marginal", 10, 0.6803), ("w-marginal", 40, 0.778),
    ])
    def test_against_converged_trapezoid(self, kind, n, converged):
        # values of a converged uniform trapezoid sum; the Gauss-Hermite rule
        # this replaced gave 0.2573, 0.6538 and 0.956
        assert factored_l1_distance(kind, n) == pytest.approx(converged, abs=1e-3)


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
        # the check runs before the first per-axis call, so nothing is allocated
        stub_axis_parts(monkeypatch)
        with pytest.raises(
            ValueError, match=r"count must be <= 1024, got 100000: 1.00e\+10 values, 80000 MB"
        ):
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

    @pytest.mark.parametrize("kind,n,count", [("q", 2, 128), ("w", 3, 64), ("w", 40, 33)])
    def test_csv_bytes_match_per_value_writer(self, kind, n, count):
        grid = density_grid(kind, n, 3.0, count)
        assert grid_to_csv(grid) == handcoded.grid_to_csv(grid)

    def test_csv_special_values_match_per_value_writer(self):
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.8e308, 1.0 / 3.0, 0.0]
        values = np.resize(np.array(special), (16, 16))
        grid = marginals.DensityGrid("w-marginal", 1, -3.0, 3.0, 16, values, 1.0)
        assert grid_to_csv(grid) == handcoded.grid_to_csv(grid)


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


class TestSeparableForm:
    """The per-axis closed forms against the 2-D Gauss-Hermite rule over
    (x, u), at an order exact for them, and against the Hermite-function
    closed form."""

    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 20, 25, 39])
    def test_matches_2d_rule(self, kind, n):
        axis = np.linspace(-3.0, 3.0, 32)
        y, v = axis[:, np.newaxis], axis[np.newaxis, :]
        closed = marginals._marginal_value(kind, n, y, v)
        order = max(40, n + 2)
        assert np.max(np.abs(closed - marginal_value_2d(kind, n, y, v, order))) < 1e-14

    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    @pytest.mark.parametrize("n", [40, 100, 200])
    def test_matches_2d_rule_at_derived_order(self, kind, n):
        y = np.array([0.0, 0.3, 2.0, -1.7])
        v = np.array([0.0, -1.2, 0.5, -2.4])
        closed = marginals._marginal_value(kind, n, y, v)
        assert np.max(np.abs(closed - marginal_value_2d(kind, n, y, v, n + 2))) < 1e-14

    @pytest.mark.parametrize("n", [1, 5, 39, 40, 100, marginals._MAX_N])
    def test_w_against_hermite_closed_form(self, n):
        grid = density_grid("w-marginal", n, 3.0 + math.sqrt(n), 64)
        y, v = grid.y_axis[:, np.newaxis], grid.y_axis[np.newaxis, :]
        assert np.max(np.abs(grid.values - w_marginal_closed_form(n, y, v))) < 5e-14
        assert marginal_w(n, 0.4, -1.1) == pytest.approx(
            float(w_marginal_closed_form(n, 0.4, -1.1)), abs=5e-14
        )

    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    @pytest.mark.parametrize("n", [39, 40, 60, 100, marginals._MAX_N])
    def test_unit_mass_up_to_the_limit(self, kind, n):
        assert abs(marginal_integral(kind, n) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [39, 40, 60, 100, marginals._MAX_N])
    def test_w_grid_nonnegative_up_to_the_limit(self, n):
        grid = density_grid("w-marginal", n, 3.0 + math.sqrt(n), 64)
        assert grid.values.min() >= -1e-12

    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    def test_finite_far_outside_the_support(self, kind):
        # at the limit the recurrences stay finite over the statistics' axis
        # (|y| <= 26) and at the grid's far points: no floating-point error
        n = marginals._MAX_N
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grid = density_grid(kind, n, 1e3, 16)
            assert np.all(np.isfinite(grid.values))
            assert np.isfinite(factored_l1_distance(kind, n))
            assert np.isfinite(correlation_coefficient(kind, n))

    @pytest.mark.parametrize("kind", ["q-marginal", "w-marginal"])
    def test_zero_where_the_square_overflows(self, kind):
        # y^2 overflows beyond |y| = 1.3e154 and 2y beyond 9e307; every part
        # is 0 there, so the density is too, with no floating-point error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert np.all(density_grid(kind, 3, 1e300, 16).values == 0.0)
            far = np.array([1.7e308, -1e200, np.inf, -np.inf])
            assert np.all(marginals._marginal_value(kind, 3, far, 0.3) == 0.0)
            assert np.all(marginals._marginal_value(kind, 200, -0.3, far) == 0.0)


class TestStatistics:
    """The moments against their closed forms: zero means, variances
    (N + 1)/4 (w) and (N + 2)/4 (q), covariance -1/4 at N = 1, else 0."""

    @pytest.mark.parametrize("kind,offset", [("q-marginal", 2), ("w-marginal", 1)])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 100, 200])
    def test_against_closed_forms(self, kind, offset, n):
        total, mean_y, mean_v, var_y, var_v, cov = marginals._moments(kind, n)
        expected = (1.0, 0.0, 0.0, (n + offset) / 4, (n + offset) / 4, -0.25 if n == 1 else 0.0)
        got = (total, mean_y, mean_v, var_y, var_v, cov)
        assert np.max(np.abs(np.subtract(got, expected))) < 1e-12


class TestPhotonNumberLimit:
    @pytest.mark.parametrize("call", [
        lambda n: marginal_q(n, 0.0, 0.0),
        lambda n: marginal_w(n, 0.0, 0.0),
        lambda n: marginal_integral("q", n),
        lambda n: correlation_coefficient("w", n),
        lambda n: factored_l1_distance("q", n),
        lambda n: density_grid("w", n, 3.0, 64),
    ])
    def test_above_the_limit_before_any_work(self, monkeypatch, call):
        stub_axis_parts(monkeypatch)
        limit = marginals._MAX_N
        with pytest.raises(ValueError, match=f"photon number <= {limit}, got {limit + 1}"):
            call(limit + 1)

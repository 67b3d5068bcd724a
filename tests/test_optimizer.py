import json
import math

import numpy as np
import pytest

from noonbell import (
    OptimizerConfig,
    catalog,
    certify_with_grid,
    ch_analytic_reduced,
    evaluate_functional,
    format_amplitude,
    optimize,
    result_to_dict,
    result_to_json,
    sweep_n,
    sweep_to_csv,
)
from noonbell import optimizer

CAT = catalog()

# small but adequate search for unit tests; acceptance runs the defaults
FAST = dict(num_starts=16, max_iterations=4000)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_starts=0),
            dict(search_radius=0.0),
            dict(search_radius=math.nan),
            dict(max_iterations=0),
            dict(rng_seed=-1),
            dict(coarse_grid_points_per_axis=1),
            dict(search_radius=math.inf),
            dict(num_starts=optimizer._MAX_STARTS + 1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestOptimize:
    def test_j2_plateau_witness_on_grid(self):
        r = optimize(CAT["j2"], 7, OptimizerConfig(rng_seed=1, **FAST))
        assert r.best_value == pytest.approx(4.0, abs=1e-8)
        assert r.violation_margin == pytest.approx(1.0, abs=1e-8)
        assert r.bound == 3.0

    def test_ch_beats_analytic_witness(self):
        r = optimize(CAT["ch"], 1, OptimizerConfig(rng_seed=2, **FAST))
        assert r.best_value < -1.0
        grid = np.linspace(0.0, math.log(2.0), 52)[1:-1]
        reduced_min = min(ch_analytic_reduced(1, float(s)) for s in grid)
        assert r.best_value < reduced_min

    def test_chsh_even_n_stays_classical(self):
        r = optimize(CAT["chsh"], 2, OptimizerConfig(rng_seed=3, **FAST))
        assert r.best_value >= -2.0 - 1e-6
        assert r.violation_margin <= 1e-6

    def test_best_value_reproducible_from_settings(self):
        r = optimize(CAT["j3"], 2, OptimizerConfig(rng_seed=4, **FAST))
        re_eval = evaluate_functional(CAT["j3"], 2, r.best_settings)
        assert re_eval == pytest.approx(r.best_value, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(CAT))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_best_value_is_the_winners_evaluation(self, name, n):
        # the winner's score from the batched final pick, not a re-evaluation
        r = optimize(CAT[name], n, OptimizerConfig(rng_seed=5, num_starts=4, max_iterations=300))
        assert r.best_value == float(evaluate_functional(CAT[name], n, r.best_settings))

    def test_determinism_bitwise(self):
        a = optimize(CAT["ch"], 2, OptimizerConfig(rng_seed=42, **FAST))
        b = optimize(CAT["ch"], 2, OptimizerConfig(rng_seed=42, **FAST))
        assert result_to_json(a) == result_to_json(b)
        assert np.array_equal(a.best_settings, b.best_settings)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_monotone_refinement(self, seed):
        small = optimize(
            CAT["j3"], 2, OptimizerConfig(rng_seed=seed, num_starts=8, max_iterations=4000)
        )
        big = optimize(
            CAT["j3"], 2, OptimizerConfig(rng_seed=seed, num_starts=16, max_iterations=4000)
        )
        # minimize direction: more starts can only improve (lower) the value
        assert big.best_value <= small.best_value

    def test_non_convergence_is_reported_not_raised(self):
        r = optimize(CAT["ch"], 1, OptimizerConfig(rng_seed=7, num_starts=4, max_iterations=3))
        assert r.starts_converged < r.starts_total
        assert math.isfinite(r.best_value)

    def test_settings_within_radius(self):
        cfg = OptimizerConfig(rng_seed=8, **FAST)
        r = optimize(CAT["j4"], 2, cfg)
        sup = max(max(abs(z.real), abs(z.imag)) for z in r.best_settings)
        assert sup <= cfg.search_radius * (1.0 + 1e-12)

    def test_boundary_flag_and_limit_annotation(self):
        # a tight cap forces the unbounded-direction optimum onto the box
        # boundary; the report flags it and states the large-amplitude limit
        r = optimize(CAT["j4"], 1, OptimizerConfig(rng_seed=9, search_radius=0.6, **FAST))
        assert r.boundary_hit
        assert r.boundary_limit is not None
        mask = [
            max(abs(z.real), abs(z.imag)) >= 0.6 * (1.0 - 1e-6) for z in r.best_settings
        ]
        from noonbell import functional_limit

        assert r.boundary_limit == pytest.approx(
            functional_limit(CAT["j4"], 1, r.best_settings, mask), abs=1e-12
        )

    def test_interior_optimum_not_flagged(self):
        r = optimize(CAT["ch"], 1, OptimizerConfig(rng_seed=10, **FAST))
        assert not r.boundary_hit
        assert r.boundary_limit is None


class TestGridScan:
    """The grid seeds are the exact top-k of the whole grid under the total
    order -- value in the violation direction, then coordinates in ascending
    lexicographic order -- however the scan is chunked."""

    @pytest.fixture(scope="class")
    def ranked_grid(self):
        axis = np.linspace(-5.0, 5.0, 7)
        x = axis[np.stack(np.unravel_index(np.arange(7**7), (7,) * 7), axis=1)]
        scored = -evaluate_functional(CAT["ch"], 1, optimizer._unpack(x, 4))
        order = np.lexsort((*x.T[::-1], -scored))
        return axis, scored[order], x[order]

    def test_seed_pool_is_exact_top_k(self, ranked_grid, monkeypatch):
        axis, scored, x = ranked_grid
        monkeypatch.setattr(optimizer, "_GRID_CHUNK", 9_973)
        pools = {}
        for keep in (16, 32):
            pool_scored, pool_x = optimizer._scan_grid(CAT["ch"], 1, axis, -1.0, keep)
            assert np.array_equal(pool_scored, scored[:keep])
            assert np.array_equal(pool_x, x[:keep])
            pools[keep] = pool_x
        assert np.array_equal(pools[32][:16], pools[16])

    def test_grid_size_guard_precedes_the_scan(self, monkeypatch):
        tiny = OptimizerConfig(num_starts=1, coarse_grid_points_per_axis=2, max_iterations=1)
        r = optimize(CAT["j1"], 1, tiny)

        def no_scan(*args):
            raise AssertionError("the grid scan started")

        monkeypatch.setattr(optimizer, "evaluate_functional", no_scan)
        with pytest.raises(ValueError, match="points, more than"):
            optimize(CAT["ch"], 1, OptimizerConfig(coarse_grid_points_per_axis=13))
        with pytest.raises(ValueError, match="points, more than"):
            certify_with_grid(CAT["j1"], 1, r, grid_points=13)


def _objective(functional, n):
    """The polish objective: the functional in the minimization direction."""
    sign = optimizer._direction_sign(functional)
    k = functional.num_settings
    return lambda x: -sign * evaluate_functional(functional, n, optimizer._unpack(x, k))


class TestLockstepSimplex:
    """Every start of the lockstep simplex follows scipy's bounded
    Nelder-Mead exactly, and does not depend on the other starts."""

    CASES = [("ch", 1), ("chsh", 1), ("j4", 1), ("j3", 2), ("chsh", 25)]

    # 20000 is the default budget; 50 and 3 end starts mid-descent and before
    # the first step, and at 200 both chsh cases run out part-way through a
    # shrink.
    @pytest.mark.parametrize("max_iterations", [20_000, 200, 50, 3])
    @pytest.mark.parametrize("name,n", CASES)
    def test_matches_scipy_per_start(self, name, n, max_iterations):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        functional = CAT[name]
        cfg = OptimizerConfig(num_starts=8, max_iterations=max_iterations, rng_seed=3)
        _, _, starts = optimizer._starts(functional, n, cfg)
        objective = _objective(functional, n)
        x, fun, nfev, nit, ok = optimizer._simplex(objective, starts, 5.0, max_iterations)
        options = {
            "maxiter": max_iterations,
            "maxfev": max_iterations,
            "fatol": optimizer._SIMPLEX_FATOL,
            "xatol": optimizer._SIMPLEX_XATOL,
        }
        for i, x0 in enumerate(starts):
            ref = scipy_optimize.minimize(
                objective, x0, method="Nelder-Mead", bounds=[(-5.0, 5.0)] * len(x0), options=options
            )
            assert np.array_equal(x[i], ref.x)
            assert (fun[i], nfev[i], nit[i], ok[i]) == (ref.fun, ref.nfev, ref.nit, ref.success)

    def test_start_alone_equals_start_in_batch(self):
        functional = CAT["chsh"]
        _, _, starts = optimizer._starts(functional, 1, OptimizerConfig(rng_seed=5))
        assert len(starts) == 64
        objective = _objective(functional, 1)
        batch = optimizer._simplex(objective, starts, 5.0, 20_000)
        for i in (0, 1, 31, 32, 63):
            alone = optimizer._simplex(objective, starts[i : i + 1], 5.0, 20_000)
            for got, expected in zip(alone, batch):
                assert np.array_equal(got[0], expected[i])


class TestStationarity:
    """Nelder-Mead can stall at a point that is not stationary.  At the
    winner, a central-difference gradient of the objective vanishes on
    interior coordinates (about 1e-7 is seen), and on coordinates at the box
    the descent direction points out of the box."""

    H = 1e-5

    def gradient(self, functional, n, settings):
        objective = _objective(functional, n)
        rest = np.column_stack([settings[1:].real, settings[1:].imag]).ravel()
        x = np.concatenate([[settings[0].real], rest])
        steps = self.H * np.eye(len(x))
        return x, (objective(x + steps) - objective(x - steps)) / (2 * self.H)

    @pytest.mark.parametrize(
        "name,radius", [("ch", 5.0), ("chsh", 5.0), ("j4", 5.0), ("j4", 0.6)]
    )
    def test_gradient_at_winner(self, name, radius):
        functional = CAT[name]
        r = optimize(functional, 1, OptimizerConfig(rng_seed=0, search_radius=radius))
        x, grad = self.gradient(functional, 1, r.best_settings)
        at_box = np.abs(x) >= radius * (1.0 - 1e-6)
        assert np.all(np.abs(grad[~at_box]) < 1e-5)
        assert np.all(-grad[at_box] * np.sign(x[at_box]) > 0.0)
        if radius < 1.0:
            assert np.any(at_box)


class TestSweep:
    def test_ordering_and_seeds(self):
        cfg = OptimizerConfig(rng_seed=12, **FAST)
        results = sweep_n(CAT["j2"], 1, 3, cfg)
        assert [r.n for r in results] == [1, 2, 3]
        assert [r.seed for r in results] == [12 ^ 1, 12 ^ 2, 12 ^ 3]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            sweep_n(CAT["j2"], 3, 2, OptimizerConfig())
        with pytest.raises(ValueError):
            sweep_n(CAT["j2"], 0, 2, OptimizerConfig())

    def test_csv_shape(self):
        results = sweep_n(CAT["j2"], 1, 2, OptimizerConfig(rng_seed=13, **FAST))
        text = sweep_to_csv(results)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "functional",
            "n",
            "best_value",
            "bound",
            "margin",
            "setting_0",
            "setting_1",
            "setting_2",
            "setting_3",
            "seed",
        ]
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "j2" and row[1] == "1"
        assert float(row[2]) == pytest.approx(4.0, abs=1e-8)


class TestCertify:
    def test_ch_certification_passes(self):
        cfg = OptimizerConfig(rng_seed=14, **FAST)
        r = optimize(CAT["ch"], 1, cfg)
        report = certify_with_grid(CAT["ch"], 1, r, grid_points=9)
        assert report.passed
        assert report.gap >= -1e-3

    def test_plateau_witness_sits_on_grid(self):
        cfg = OptimizerConfig(rng_seed=15, **FAST)
        r = optimize(CAT["j2"], 3, cfg)
        report = certify_with_grid(CAT["j2"], 3, r, grid_points=5)
        assert report.grid_best_value == pytest.approx(4.0, abs=1e-12)
        assert report.gap >= -1e-10

    def test_sabotaged_result_is_flagged(self):
        # a result claiming "no violation" for j3 is beaten by the coarse
        # grid itself (the j3 basin is wide enough for 9 points per axis)
        cfg = OptimizerConfig(rng_seed=16, **FAST)
        genuine = optimize(CAT["j3"], 1, cfg)
        from dataclasses import replace

        sabotaged = replace(genuine, best_value=0.0)
        report = certify_with_grid(CAT["j3"], 1, sabotaged, grid_points=9)
        assert not report.passed
        assert report.gap < -1e-3

    def test_grid_points_validated(self):
        r = optimize(CAT["j1"], 1, OptimizerConfig(rng_seed=17, **FAST))
        with pytest.raises(ValueError):
            certify_with_grid(CAT["j1"], 1, r, grid_points=2)


class TestSerialization:
    def test_amplitude_format_round_trip(self):
        from noonbell.cli import parse_amplitude

        for z in (0.0, 1.25 - 0.5j, -3e-7 + 2j, 0.1j):
            assert parse_amplitude(format_amplitude(z)) == complex(z)

    def test_result_dict_keys(self):
        r = optimize(CAT["j1"], 2, OptimizerConfig(rng_seed=18, **FAST))
        doc = result_to_dict(r)
        assert doc["functional"] == "j1"
        assert doc["n"] == 2
        assert doc["bound"] == 1.0
        assert isinstance(doc["best_settings"], list)
        json.dumps(doc)  # JSON-serializable throughout

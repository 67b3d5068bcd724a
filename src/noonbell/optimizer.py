"""Derivative-free violation search over local-oscillator settings.

Strategy: a coarse deterministic grid over the real coordinates of the
settings vector, followed by Nelder-Mead simplex descents seeded from the
best grid cells and from seeded random points.  Derivative-free is the right
tool here because several functionals have flat plateaus (the six-event
combinations saturate as amplitudes grow) where gradients vanish.

Determinism: the grid is fixed, random start k depends only on (seed, k),
ties are broken by the lexicographically smallest settings vector, and the
merge is a total order -- so results are bit-identical for a given seed, and
doubling ``num_starts`` never worsens the reported value.  The descents run
one after another: the objective is python code, so threads would only
contend for the interpreter lock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from io import StringIO

import numpy as np
from scipy.optimize import minimize

from noonbell.correlators import photon_number
from noonbell.inequalities import (
    BellFunctional,
    _evaluate_terms,
    evaluate_functional,
    functional_limit,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "CertificationReport",
    "optimize",
    "sweep_n",
    "certify_with_grid",
    "result_to_dict",
    "result_to_json",
    "sweep_to_csv",
    "format_amplitude",
]

_GRID_CHUNK = 200_000
_BOUNDARY_RTOL = 1e-6
# Nelder-Mead stops when both the simplex's values and its vertices agree
# to these absolute tolerances.
_SIMPLEX_FATOL = 1e-9
_SIMPLEX_XATOL = 1e-6
# A grid point may beat a certified result by at most this much.
_CERTIFY_SLACK = 1e-3


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters; the defaults reproduce every reference run."""

    num_starts: int = 64
    search_radius: float = 5.0
    coarse_grid_points_per_axis: int = 7
    max_iterations: int = 20_000
    rng_seed: int = 0
    # Joint phase rotation of all settings leaves every functional invariant,
    # so the first setting can be held real; disable to validate.
    fix_global_phase: bool = True

    def __post_init__(self) -> None:
        if self.num_starts < 1:
            raise ValueError("num_starts must be >= 1")
        if not (math.isfinite(self.search_radius) and self.search_radius > 0):
            raise ValueError(f"search_radius must be finite and > 0, got {self.search_radius!r}")
        if self.coarse_grid_points_per_axis < 2:
            raise ValueError("coarse_grid_points_per_axis must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be unsigned")


@dataclass(frozen=True)
class OptimizationResult:
    """Best functional value found, with enough metadata to reproduce it."""

    functional_name: str
    n: int
    best_value: float
    bound: float
    violation_margin: float
    best_settings: np.ndarray
    starts_converged: int
    starts_total: int
    grid_best_value: float
    seed: int
    search_radius: float
    boundary_hit: bool
    boundary_limit: float | None

    def __post_init__(self) -> None:
        settings = np.ascontiguousarray(self.best_settings, dtype=np.complex128)
        settings.flags.writeable = False
        object.__setattr__(self, "best_settings", settings)


@dataclass(frozen=True)
class CertificationReport:
    """Exhaustive coarse-grid check that an optimization result is not left
    behind by any grid point.  ``gap`` is the signed amount (in the
    optimization direction) by which the result dominates the best grid
    point; a gap below ``-slack`` flags under-optimization."""

    functional_name: str
    n: int
    grid_points_per_axis: int
    grid_best_value: float
    grid_best_settings: np.ndarray
    result_value: float
    gap: float
    slack: float
    passed: bool


def _direction_sign(functional: BellFunctional) -> float:
    return 1.0 if functional.violation_direction == "above-upper" else -1.0


def _dims(num_settings: int, fix_phase: bool) -> int:
    return 2 * num_settings - (1 if fix_phase else 0)


def _unpack(x: np.ndarray, num_settings: int, fix_phase: bool) -> np.ndarray:
    """Real coordinate vector(s) -> complex settings; coordinates are ordered
    (re0[, im0], re1, im1, ...) with im0 dropped when the phase is fixed."""
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    out = np.empty(lead + (num_settings,), dtype=np.complex128)
    if fix_phase:
        out[..., 0] = x[..., 0]
        rest = x[..., 1:].reshape(lead + (num_settings - 1, 2))
        out[..., 1:] = rest[..., 0] + 1j * rest[..., 1]
    else:
        pairs = x.reshape(lead + (num_settings, 2))
        out[...] = pairs[..., 0] + 1j * pairs[..., 1]
    return out


def _settings_key(settings: np.ndarray) -> tuple:
    """Lexicographic tie-break key over (re, im) pairs."""
    return tuple(float(v) for z in settings for v in (z.real, z.imag))


def _grid_axes(cfg: OptimizerConfig, dims: int) -> list[np.ndarray]:
    axis = np.linspace(-cfg.search_radius, cfg.search_radius, cfg.coarse_grid_points_per_axis)
    return [axis] * dims


def _scan_grid(functional, p, axes, sign, keep):
    """Evaluate the full grid in chunks; return the ``keep`` best coordinate
    vectors under the total order (value desc, settings lex asc)."""
    shape = tuple(len(a) for a in axes)
    total = int(np.prod(shape))
    dims = len(axes)
    fix_phase = dims == 2 * functional.num_settings - 1
    pool: list[tuple[float, tuple, np.ndarray]] = []
    for start in range(0, total, _GRID_CHUNK):
        flat = np.arange(start, min(start + _GRID_CHUNK, total))
        coords = np.unravel_index(flat, shape)
        x = np.stack([axes[d][coords[d]] for d in range(dims)], axis=1)
        values = evaluate_functional(functional, p, _unpack(x, functional.num_settings, fix_phase))
        scored = sign * np.asarray(values)
        k = min(keep, len(flat))
        top = np.argpartition(-scored, k - 1)[:k]
        for i in top:
            pool.append((float(scored[i]), _settings_key(_unpack(x[i], functional.num_settings, fix_phase)), x[i]))
        pool.sort(key=lambda t: (-t[0], t[1]))
        del pool[keep:]
    return pool


def _random_start(seed: int, index: int, dims: int, radius: float) -> np.ndarray:
    """Deterministic multi-scale random start: depends only on (seed, index),
    with scales radius / 2^(index mod 6) so shallow small-amplitude basins
    are covered as densely as the full box."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(index))))
    scale = radius / 2.0 ** (index % 6)
    return rng.uniform(-scale, scale, size=dims)


def _make_objective(functional: BellFunctional, p, sign: float, fix_phase: bool):
    """Scalar objective for the simplex: python-complex settings through the
    same term-evaluation core the vectorized path uses."""
    k = functional.num_settings
    no_inf = (False,) * k

    if fix_phase:

        def objective(x):
            per = [complex(x[0], 0.0)]
            per += [complex(x[1 + 2 * i], x[2 + 2 * i]) for i in range(k - 1)]
            return -sign * float(_evaluate_terms(functional, p, per, no_inf))

    else:

        def objective(x):
            per = [complex(x[2 * i], x[2 * i + 1]) for i in range(k)]
            return -sign * float(_evaluate_terms(functional, p, per, no_inf))

    return objective


def _polish(objective, x0, bounds, cfg: OptimizerConfig):
    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        bounds=bounds,
        options={
            "maxiter": cfg.max_iterations,
            "maxfev": cfg.max_iterations,
            "fatol": _SIMPLEX_FATOL,
            "xatol": _SIMPLEX_XATOL,
        },
    )
    return res.x, bool(res.success)


def optimize(functional: BellFunctional, p, cfg: OptimizerConfig | None = None) -> OptimizationResult:
    """Maximize (or minimize, per the functional's violation direction) over
    the settings box |Re|, |Im| <= search_radius.

    Non-convergence of individual simplex descents is reported through
    ``starts_converged``, never as an exception.
    """
    cfg = cfg or OptimizerConfig()
    n = photon_number(p)
    sign = _direction_sign(functional)
    k = functional.num_settings
    dims = _dims(k, cfg.fix_global_phase)
    bounds = [(-cfg.search_radius, cfg.search_radius)] * dims
    objective = _make_objective(functional, p, sign, cfg.fix_global_phase)

    n_grid_seeds = min(max(cfg.num_starts // 2, 1), cfg.num_starts)
    grid_pool = _scan_grid(functional, p, _grid_axes(cfg, dims), sign, n_grid_seeds)
    grid_best_scored, _, grid_best_x = grid_pool[0]

    starts = [x for _, _, x in grid_pool]
    starts += [
        _random_start(cfg.rng_seed, j, dims, cfg.search_radius)
        for j in range(cfg.num_starts - len(starts))
    ]

    polished = [_polish(objective, x0, bounds, cfg) for x0 in starts]
    starts_converged = sum(1 for _, ok in polished if ok)

    # The raw grid candidates stay in the pool so a plateau witness sitting
    # exactly on a grid point can never be lost to simplex wander.
    candidates = [x for x, _ in polished] + [x for _, _, x in grid_pool]
    best_scored = -math.inf
    best_settings = None
    best_key = None
    for x in candidates:
        settings = _unpack(np.asarray(x, dtype=float), k, cfg.fix_global_phase)
        scored = sign * evaluate_functional(functional, p, settings)
        key = _settings_key(settings)
        if scored > best_scored or (scored == best_scored and key < best_key):
            best_scored, best_settings, best_key = scored, settings, key

    best_value = float(evaluate_functional(functional, p, best_settings))
    threshold = cfg.search_radius * (1.0 - _BOUNDARY_RTOL)
    coord_peaks = np.maximum(np.abs(best_settings.real), np.abs(best_settings.imag))
    boundary_mask = coord_peaks >= threshold
    boundary_hit = bool(np.any(boundary_mask))
    boundary_limit = (
        functional_limit(functional, p, best_settings, boundary_mask) if boundary_hit else None
    )

    return OptimizationResult(
        functional_name=functional.name,
        n=n,
        best_value=best_value,
        bound=functional.bound,
        violation_margin=float(functional.violation_margin(best_value)),
        best_settings=best_settings,
        starts_converged=starts_converged,
        starts_total=len(starts),
        grid_best_value=float(sign * grid_best_scored),
        seed=cfg.rng_seed,
        search_radius=cfg.search_radius,
        boundary_hit=boundary_hit,
        boundary_limit=boundary_limit,
    )


def sweep_n(
    functional: BellFunctional, n_min: int, n_max: int, cfg: OptimizerConfig | None = None
) -> list[OptimizationResult]:
    """One optimization per photon number in [n_min, n_max], each with an
    independent seed derived as rng_seed XOR n; ordered by n."""
    cfg = cfg or OptimizerConfig()
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    results = []
    for n in range(n_min, n_max + 1):
        results.append(optimize(functional, n, replace(cfg, rng_seed=cfg.rng_seed ^ n)))
    return results


def certify_with_grid(
    functional: BellFunctional,
    p,
    result: OptimizationResult,
    grid_points: int,
) -> CertificationReport:
    """Exhaustively evaluate a fresh coarse grid (first setting held real) and
    report how far the optimization result dominates its best point."""
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    sign = _direction_sign(functional)
    dims = _dims(functional.num_settings, True)
    axis = np.linspace(-result.search_radius, result.search_radius, grid_points)
    pool = _scan_grid(functional, p, [axis] * dims, sign, 1)
    grid_scored, _, grid_x = pool[0]
    grid_settings = _unpack(grid_x, functional.num_settings, True)
    gap = sign * result.best_value - grid_scored
    return CertificationReport(
        functional_name=functional.name,
        n=result.n,
        grid_points_per_axis=grid_points,
        grid_best_value=float(sign * grid_scored),
        grid_best_settings=grid_settings,
        result_value=result.best_value,
        gap=float(gap),
        slack=_CERTIFY_SLACK,
        passed=bool(gap >= -_CERTIFY_SLACK),
    )


def format_amplitude(z: complex) -> str:
    """Canonical a+bi form with full float round-trip precision."""
    z = complex(z)
    re = repr(float(z.real))
    im = float(z.imag)
    sign = "+" if (im >= 0 or math.isnan(im)) else "-"
    return f"{re}{sign}{repr(abs(im))}i"


def result_to_dict(result: OptimizationResult) -> dict:
    return {
        "functional": result.functional_name,
        "n": result.n,
        "best_value": result.best_value,
        "bound": result.bound,
        "violation_margin": result.violation_margin,
        "best_settings": [format_amplitude(z) for z in result.best_settings],
        "starts_converged": result.starts_converged,
        "starts_total": result.starts_total,
        "grid_best_value": result.grid_best_value,
        "seed": result.seed,
        "search_radius": result.search_radius,
        "boundary_hit": result.boundary_hit,
        "boundary_limit": result.boundary_limit,
    }


def result_to_json(result: OptimizationResult) -> str:
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True)


def sweep_to_csv(results: list[OptimizationResult]) -> str:
    """CSV with columns (functional, n, best_value, bound, margin,
    setting_0.., seed); settings in the a+bi text form."""
    if not results:
        raise ValueError("no results to serialize")
    k = len(results[0].best_settings)
    buf = StringIO()
    header = ["functional", "n", "best_value", "bound", "margin"]
    header += [f"setting_{i}" for i in range(k)]
    header += ["seed"]
    buf.write(",".join(header) + "\n")
    for r in results:
        row = [
            r.functional_name,
            str(r.n),
            repr(r.best_value),
            repr(r.bound),
            repr(r.violation_margin),
        ]
        row += [format_amplitude(z) for z in r.best_settings]
        row += [str(r.seed)]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()

"""Derivative-free violation search over local-oscillator settings.

Strategy: a coarse deterministic grid over the real coordinates of the
settings vector, followed by Nelder-Mead simplex descents seeded from the
best grid cells and from seeded random points.  Derivative-free is the right
tool here because several functionals have flat plateaus (the six-event
combinations saturate as amplitudes grow) where gradients vanish.  A common
phase rotation of all settings leaves every functional unchanged, so the
first setting is always held real: k settings span 2k - 1 coordinates.

Determinism: the grid is fixed and random start k depends only on (seed, k).
Grid seeds and the final pick are ranked by one total order -- value in the
violation direction, ties broken by the lexicographically smallest
coordinate vector -- so results are bit-identical for a given seed, the
seeds for k starts are a prefix of those for 2k, and doubling
``num_starts`` never worsens the reported value.  The descents run one
after another: the objective is python code, so threads would only contend
for the interpreter lock.
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
# Cost guards: the grid scan takes about 0.6 us per point and a simplex
# polish about 1,000-1,800 evaluations of ~40 us per start.
_MAX_GRID_POINTS = 50_000_000
_GRID_S_PER_POINT = 0.6e-6
_MAX_STARTS = 4096
_POLISH_S_PER_START = 0.06
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

    def __post_init__(self) -> None:
        if self.num_starts < 1:
            raise ValueError("num_starts must be >= 1")
        if self.num_starts > _MAX_STARTS:
            raise ValueError(
                f"num_starts must be <= {_MAX_STARTS}, got {self.num_starts}: about "
                f"{self.num_starts * _POLISH_S_PER_START:.0f} s of simplex polish"
            )
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


def _unpack(x: np.ndarray, num_settings: int) -> np.ndarray:
    """Real coordinate vector(s) -> complex settings; coordinates are ordered
    (re0, re1, im1, re2, im2, ...), the first setting being held real."""
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    out = np.empty(lead + (num_settings,), dtype=np.complex128)
    out[..., 0] = x[..., 0]
    rest = x[..., 1:].reshape(lead + (num_settings - 1, 2))
    out[..., 1:] = rest[..., 0] + 1j * rest[..., 1]
    return out


def _ranked(scored: np.ndarray, x: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the ``keep`` best rows under the total order: ``scored``
    descending, then the coordinate rows ``x`` lexicographically ascending.
    Only the rows at or above the keep-th value are sorted."""
    k = min(keep, len(scored))
    cutoff = np.partition(-scored, k - 1)[k - 1]
    head = np.flatnonzero(-scored <= cutoff)
    order = np.lexsort((*x[head].T[::-1], -scored[head]))
    return head[order[:k]]


def _scan_grid(functional, p, axis, sign, keep):
    """Evaluate the full grid (``axis`` on every coordinate) in chunks;
    return the signed values and coordinate rows of its ``keep`` best
    points, best first."""
    dims = 2 * functional.num_settings - 1
    total = len(axis) ** dims
    if total > _MAX_GRID_POINTS:
        raise ValueError(
            f"a {len(axis)}-point grid has {len(axis)}^{dims} = {total:.2e} points, more "
            f"than {_MAX_GRID_POINTS:.0e}: about {total * _GRID_S_PER_POINT:.0f} s to scan"
        )
    best_scored, best_x = np.empty(0), np.empty((0, dims))
    for start in range(0, total, _GRID_CHUNK):
        flat = np.arange(start, min(start + _GRID_CHUNK, total))
        x = axis[np.stack(np.unravel_index(flat, (len(axis),) * dims), axis=1)]
        values = evaluate_functional(functional, p, _unpack(x, functional.num_settings))
        scored = np.concatenate([best_scored, sign * values])
        x = np.concatenate([best_x, x])
        top = _ranked(scored, x, keep)
        best_scored, best_x = scored[top], x[top]
    return best_scored, best_x


def _random_start(seed: int, index: int, dims: int, radius: float) -> np.ndarray:
    """Deterministic multi-scale random start: depends only on (seed, index),
    with scales radius / 2^(index mod 6) so shallow small-amplitude basins
    are covered as densely as the full box."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(index))))
    scale = radius / 2.0 ** (index % 6)
    return rng.uniform(-scale, scale, size=dims)


def _make_objective(functional: BellFunctional, p, sign: float):
    """Scalar objective for the simplex: python-complex settings through the
    same term-evaluation core the vectorized path uses."""
    k = functional.num_settings
    no_inf = (False,) * k

    def objective(x):
        per = [complex(x[0], 0.0)]
        per += [complex(x[1 + 2 * i], x[2 + 2 * i]) for i in range(k - 1)]
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
    dims = 2 * k - 1
    bounds = [(-cfg.search_radius, cfg.search_radius)] * dims
    objective = _make_objective(functional, p, sign)

    n_grid_seeds = max(cfg.num_starts // 2, 1)
    axis = np.linspace(-cfg.search_radius, cfg.search_radius, cfg.coarse_grid_points_per_axis)
    grid_scored, grid_x = _scan_grid(functional, p, axis, sign, n_grid_seeds)

    starts = list(grid_x)
    starts += [
        _random_start(cfg.rng_seed, j, dims, cfg.search_radius)
        for j in range(cfg.num_starts - len(starts))
    ]

    polished = [_polish(objective, x0, bounds, cfg) for x0 in starts]
    starts_converged = sum(1 for _, ok in polished if ok)

    # The raw grid candidates stay in the pool so a plateau witness sitting
    # exactly on a grid point can never be lost to simplex wander.
    candidates = np.vstack([[x for x, _ in polished], grid_x])
    scored = sign * evaluate_functional(functional, p, _unpack(candidates, k))
    best_settings = _unpack(candidates[_ranked(scored, candidates, 1)[0]], k)

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
        grid_best_value=float(sign * grid_scored[0]),
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
    axis = np.linspace(-result.search_radius, result.search_radius, grid_points)
    (grid_scored,), (grid_x,) = _scan_grid(functional, p, axis, sign, 1)
    grid_settings = _unpack(grid_x, functional.num_settings)
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

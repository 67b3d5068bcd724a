"""Derivative-free violation search over local-oscillator settings.

Strategy: a coarse deterministic grid over the real coordinates of the
settings vector, followed by bounded Nelder-Mead simplex descents (Nelder &
Mead, Comput. J. 7, 308 (1965)) seeded from the best grid cells and from
seeded random points.  Derivative-free is the right tool here because
several functionals have flat plateaus (the six-event combinations saturate
as amplitudes grow) where gradients vanish.  A common phase rotation of all
settings leaves every functional unchanged, so the first setting is always
held real: k settings span 2k - 1 coordinates.

The descents run in lockstep: every start's simplex lives in one
(starts, d + 1, d) array, and each round evaluates the trial points of all
running starts in one vectorized ``evaluate_functional`` call.  Each start
still takes exactly the steps of the common scalar bounded Nelder-Mead
descent from the same point; the test suite checks this start by start
against a reference implementation.

Determinism: the grid is fixed and random start k depends only on (seed, k).
A start's descent depends only on its own starting point, because a row's
value does not depend on the batch it is evaluated in.  Grid seeds and the
final pick are ranked by one total order -- value in the violation
direction, ties broken by the lexicographically smallest coordinate vector
-- so results are bit-identical for a given seed, the seeds for k starts are
a prefix of those for 2k, and doubling ``num_starts`` never worsens the
reported value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from io import StringIO

import numpy as np

from noonbell.correlators import photon_number
from noonbell.inequalities import BellFunctional, evaluate_functional, functional_limit

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

_GRID_CHUNK = 50_000
# Cost guards: the grid scan takes about 0.4 us per point and the lockstep
# polish about 0.01 s per start (N = 1; 9^7 grid points, 64-1024 starts).
_MAX_GRID_POINTS = 50_000_000
_GRID_S_PER_POINT = 0.4e-6
_MAX_STARTS = 4096
_POLISH_S_PER_START = 0.01
_BOUNDARY_RTOL = 1e-6
# Nelder-Mead stops when both the simplex's values and its vertices agree
# to these absolute tolerances.  The initial simplex steps each coordinate
# by 5% of its value, or to 0.00025 where it is 0.
_SIMPLEX_FATOL = 1e-9
_SIMPLEX_XATOL = 1e-6
_NONZDELT = 0.05
_ZDELT = 0.00025
# Each step's trial points, as multiples of the centroid of the best d
# vertices plus multiples of the worst vertex: reflection, expansion,
# outside contraction, inside contraction.
_TRIAL_CENTROID = np.array([2.0, 3.0, 1.5, 0.5])[:, None]
_TRIAL_WORST = np.array([-1.0, -2.0, -0.5, 0.5])[:, None]
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


def _starts(functional: BellFunctional, p, cfg: OptimizerConfig):
    """The grid seeds -- the ``num_starts // 2`` best points of the coarse
    grid, as signed values and coordinates, best first -- and all starts:
    the grid seeds, then random starts up to ``num_starts``."""
    axis = np.linspace(-cfg.search_radius, cfg.search_radius, cfg.coarse_grid_points_per_axis)
    keep = max(cfg.num_starts // 2, 1)
    grid_scored, grid_x = _scan_grid(functional, p, axis, _direction_sign(functional), keep)
    dims = grid_x.shape[1]
    randoms = [
        _random_start(cfg.rng_seed, j, dims, cfg.search_radius)
        for j in range(cfg.num_starts - len(grid_x))
    ]
    return grid_scored, grid_x, np.vstack([grid_x, *randoms])


def _simplex(objective, x0: np.ndarray, radius: float, budget: int):
    """Bounded Nelder-Mead descents from every row of ``x0`` in lockstep.

    Each start follows the standard simplex (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2) exactly as a scalar descent with the same
    box, tolerances and budget would: the same initial simplex, the same
    clipping to the box, the same sort after every step and the same
    convergence test, and ``budget`` caps both its iterations and its
    objective evaluations, also part-way through a step.  Only the
    batching differs.  One ``objective`` call per round evaluates the
    reflection, expansion and both contraction points of every running
    start, and a second call the shrunk vertices of the starts that shrink;
    ``nfev`` counts only the evaluations the step itself uses.  A start's
    trajectory does not depend on the other starts.

    ``objective`` maps an (m, d) array to m values to minimize.  Returns the
    best vertices (starts, d), their values, nfev, iterations and whether
    each start converged within its budget.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), -radius, radius)
    starts, d = x0.shape
    sim = np.repeat(x0[:, None, :], d + 1, axis=1)
    vertex = np.arange(d)
    step = x0[:, vertex]
    sim[:, vertex + 1, vertex] = np.where(step != 0, (1 + _NONZDELT) * step, _ZDELT)
    sim = np.clip(np.where(sim > radius, 2 * radius - sim, sim), -radius, radius)

    first = min(d + 1, budget)
    fsim = np.full((starts, d + 1), np.inf)
    fsim[:, :first] = objective(sim[:, :first].reshape(-1, d)).reshape(starts, first)
    for _ in range(2):  # the scalar descent sorts twice before its first step
        sim, fsim = _sort_simplex(sim, fsim)

    out_x, out_f = np.empty((starts, d)), np.empty(starts)
    out_nfev = np.full(starts, first)
    out_nit = np.ones(starts, dtype=int)
    out_ok = np.zeros(starts, dtype=bool)
    idx = np.arange(starts)
    nfev, nit = out_nfev.copy(), out_nit.copy()
    while True:
        stop = (nfev >= budget) | (nit >= budget)
        with np.errstate(invalid="ignore"):  # inf - inf where the budget < d + 1
            flat = (np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= _SIMPLEX_XATOL) & (
                np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= _SIMPLEX_FATOL
            )
        done = stop | flat
        if np.any(done):
            out_x[idx[done]], out_f[idx[done]] = sim[done, 0], fsim[done, 0]
            out_nfev[idx[done]], out_nit[idx[done]] = nfev[done], nit[done]
            out_ok[idx[done]] = flat[done] & ~stop[done]
            keep = ~done
            if not np.any(keep):
                return out_x, out_f, out_nfev, out_nit, out_ok
            idx, sim, fsim, nfev, nit = idx[keep], sim[keep], fsim[keep], nfev[keep], nit[keep]

        xbar = np.add.reduce(sim[:, :-1], 1) / d
        trial = _TRIAL_CENTROID * xbar[:, None] + _TRIAL_WORST * sim[:, -1:]
        np.clip(trial, -radius, radius, out=trial)
        ftrial = objective(trial.reshape(-1, d)).reshape(-1, 4)
        nfev += 1

        # 1 expansion, 0 reflection, 2 outside or 3 inside contraction
        fr, fw = ftrial[:, 0], fsim[:, -1]
        stage = np.where(
            fr < fsim[:, 0], 1, np.where(fr < fsim[:, -2], 0, np.where(fr < fw, 2, 3))
        )
        rows = np.arange(len(stage))
        f2 = ftrial[rows, stage]
        # The expansion or a contraction costs a second evaluation; a start
        # whose budget is spent by then ends this step unchanged.
        cut = (stage > 0) & (nfev >= budget)
        nfev += (stage > 0) & ~cut
        # A failed expansion keeps the reflection.
        take = np.where((stage == 1) & ~(f2 < fr), 0, stage)
        accept = (stage < 2) | ((stage == 2) & (f2 <= fr)) | ((stage == 3) & (f2 < fw))
        move = np.flatnonzero(~cut & accept)
        sim[move, -1] = trial[move, take[move]]
        fsim[move, -1] = ftrial[move, take[move]]
        nit[move] += 1

        shrink = np.flatnonzero(~cut & ~accept)
        if shrink.size:
            best = sim[shrink, :1]
            shrunk = np.clip(best + 0.5 * (sim[shrink, 1:] - best), -radius, radius)
            fshrunk = objective(shrunk.reshape(-1, d)).reshape(-1, d)
            room = budget - nfev[shrink]
            full = room >= d
            sim[shrink[full], 1:] = shrunk[full]
            fsim[shrink[full], 1:] = fshrunk[full]
            nfev[shrink] += np.minimum(room, d)
            nit[shrink[full]] += 1
            # A shrink cut short by the budget has moved one vertex more
            # than it has evaluated.
            for i in np.flatnonzero(~full):
                r, k = shrink[i], room[i]
                sim[r, 1 : k + 2] = shrunk[i, : k + 1]
                fsim[r, 1 : k + 1] = fshrunk[i, :k]
        sim, fsim = _sort_simplex(sim, fsim)


def _sort_simplex(sim: np.ndarray, fsim: np.ndarray):
    """Order every simplex's vertices by value, ties broken as the default
    ``np.argsort`` breaks them for one simplex alone."""
    order = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, order], fsim[rows, order]


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
    grid_scored, grid_x, starts = _starts(functional, p, cfg)

    def objective(x):
        return -sign * evaluate_functional(functional, p, _unpack(x, k))

    polished, polished_values, _, _, converged = _simplex(
        objective, starts, cfg.search_radius, cfg.max_iterations
    )
    starts_converged = int(np.sum(converged))

    # The raw grid candidates stay in the pool so a plateau witness sitting
    # exactly on a grid point can never be lost to simplex wander.  Both
    # pools carry their values already: a row's value does not depend on the
    # batch it was evaluated in.
    candidates = np.vstack([polished, grid_x])
    scored = np.concatenate([-polished_values, grid_scored])
    winner = _ranked(scored, candidates, 1)[0]
    best_settings = _unpack(candidates[winner], k)
    best_value = float(sign * scored[winner])
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

"""Marginal phase-space densities and their statistics.

Writing the local-oscillator amplitudes as alpha = x + i y and
beta = u + i v, the joint no-click density and the two-mode Wigner function
are integrated over (x, u) by Gauss-Hermite quadrature, leaving 2-D densities
in (y, v):

* q-marginal: integral of Q_ab / pi^2 over (x, u); the 1/pi^2 makes the full
  (y, v) integral exactly 1 (Q_ab alone integrates to pi^2).
* w-marginal: integral of the Wigner function over (x, u); already normalized
  because the 4/pi^2 scale is part of the Wigner definition.  Pointwise
  nonnegative, so it reads as a probability density for (y, v).

In the correlators' per-setting factors both integrands separate:

    Q_ab = e^(-s_a-s_b) (|z_a|^2 + |z_b|^2 - 2 Re conj(z_a) z_b) / 2
    Pi   = e^(-2s_a-2s_b) ((-1)^N (L_a + L_b) - 2 Re conj(w_a) w_b) / 2

so three integrals over x per y (damped polynomial part, damping alone,
damped power part) give every (y, v) pair.  Each is a degree-2N polynomial
times exp(-r x^2), r = 1 (q) or 2 (w), which Gauss-Hermite nodes scaled by
1/sqrt(r) integrate exactly from order N + 1.  The order max(40, N + 2)
keeps the (y, v) moments, of degree 2N + 2, exact too, up to N = 200.  The
factored L1 distance integrates the kinked |f - g| on a trapezoid grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from noonbell.correlators import _abs2, _parity_factors, _q_factors, photon_number

__all__ = [
    "DensityGrid",
    "marginal_q",
    "marginal_w",
    "marginal_integral",
    "correlation_coefficient",
    "factored_l1_distance",
    "density_grid",
    "grid_to_csv",
    "grid_from_csv",
]

_ORDER = 40
# Checked exact up to here, with margin: the mass stays within 2e-13 of 1
# to N = 300, and from N = 340 L_N(4|a|^2) overflows where exp(-2|a|^2) > 0.
_MAX_N = 200
_MIN_GRID_COUNT = 16
# A grid is count^2 float64 values: about 17 bytes each as CSV and 90 as
# SVG cells (0.6 s to draw and 0.5 s to write as CSV at 1024).
_MAX_GRID_COUNT = 1024
_L1_POINTS = 801
_RATES = {"q-marginal": 1.0, "w-marginal": 2.0}  # the damping exp(-r |a|^2)


def _canonical_kind(kind: str) -> str:
    alias = {"q": "q-marginal", "w": "w-marginal"}
    kind = alias.get(kind, kind)
    if kind not in _RATES:
        raise ValueError(f"kind must be one of {tuple(_RATES)} (or 'q'/'w'), got {kind!r}")
    return kind


def _n_and_order(p) -> tuple[int, int]:
    """The photon number, checked against the limit, and its rule order."""
    n = photon_number(p)
    if n > _MAX_N:
        raise ValueError(f"marginals need photon number <= {_MAX_N}, got {n}")
    return n, max(_ORDER, n + 2)


@functools.lru_cache(maxsize=_MAX_N)
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite nodes and weights of one order, read-only.  Built
    once per order: each is an eigen-solve, and every N <= 38 shares order 40."""
    t, w = np.polynomial.hermite.hermgauss(order)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _axis_rule(order: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with  integral f(x) dx = sum w_i f(x_i)  exact
    for f = polynomial * exp(-rate x^2); the exp factor stays inside f."""
    t, w = _hermgauss(order)
    return t / math.sqrt(rate), w * np.exp(t * t) / math.sqrt(rate)


def _axis_integrals(kind: str, n: int, y, order: int):
    """Integrals over x, at each y, of exp(-r|a|^2) times the setting's
    polynomial part, times 1 and times its power part (a = x + i y)."""
    rate = _RATES[kind]
    x, w = _axis_rule(order, rate)
    alpha = x + 1j * np.asarray(y, dtype=float)[..., np.newaxis]
    damping = np.exp(-rate * _abs2(alpha))
    # up to _MAX_N the factors overflow only where the damping is 0: drop those
    alpha = np.where(damping > 0.0, alpha, 0.0)
    if kind == "q-marginal":
        power = _q_factors(n, alpha)[1]
        poly = _abs2(power)
    else:
        _, poly, power = _parity_factors(n, alpha)
    return (damping * poly) @ w, damping @ w, (damping * power) @ w


def _marginal_value(kind: str, n: int, y, v, order: int):
    """Integral over (x, u) at fixed (y, v); y and v may be arrays and are
    broadcast against each other."""
    poly_y, damp_y, power_y = _axis_integrals(kind, n, y, order)
    poly_v, damp_v, power_v = _axis_integrals(kind, n, v, order)
    sign = -1.0 if kind == "w-marginal" and n % 2 else 1.0
    scale = (1.0 if kind == "q-marginal" else 4.0) / math.pi**2
    cross = (np.conjugate(power_y) * power_v).real
    out = 0.5 * scale * (sign * (poly_y * damp_v + damp_y * poly_v) - 2.0 * cross)
    return float(out) if out.ndim == 0 else out


def marginal_q(p, y, v):
    """No-click marginal density at (y, v), normalized to unit total mass."""
    n, order = _n_and_order(p)
    return _marginal_value("q-marginal", n, y, v, order)


def marginal_w(p, y, v):
    """Wigner marginal density at (y, v); pointwise nonnegative."""
    n, order = _n_and_order(p)
    return _marginal_value("w-marginal", n, y, v, order)


def marginal_integral(kind: str, p) -> float:
    """Full integral of the marginal over the (y, v) plane (should be 1)."""
    return _moments(kind, p)[0]


def _moments(kind: str, p):
    """Mass, means, variances and covariance over the (y, v) plane; the
    (y, v) integrals reuse the (x, u) rule."""
    kind = _canonical_kind(kind)
    n, order = _n_and_order(p)
    y, w = _axis_rule(order, _RATES[kind])
    vals = _marginal_value(kind, n, y[:, np.newaxis], y[np.newaxis, :], order)
    wy = w * (vals @ w)  # mass attached to each y node
    wv = w * (w @ vals)
    total = float(np.sum(wy))
    mean_y = float(wy @ y) / total
    mean_v = float(wv @ y) / total
    var_y = float(wy @ (y - mean_y) ** 2) / total
    var_v = float(wv @ (y - mean_v) ** 2) / total
    cov = float((w * (y - mean_y)) @ vals @ (w * (y - mean_v))) / total
    return total, mean_y, mean_v, var_y, var_v, cov


def correlation_coefficient(kind: str, p) -> float:
    """Linear correlation coefficient r = cov(y, v) / (std y * std v) of the
    normalized marginal; vanishes for every photon number above 1."""
    _, _, _, var_y, var_v, cov = _moments(kind, p)
    if var_y <= 0.0 or var_v <= 0.0:
        raise ValueError("correlation coefficient undefined: degenerate variance")
    return cov / math.sqrt(var_y * var_v)


def factored_l1_distance(kind: str, p) -> float:
    """L1 distance between the 2-D marginal and the product of its two 1-D
    marginals; bounded away from zero for photon number >= 2 even though the
    linear correlation coefficient vanishes there (nonlinear dependence).

    |f - g| has kinks, where Gauss-Hermite is not exact, so this is a
    trapezoid sum on 801 points per axis over [-h, h]^2, h = 6 + sqrt(2N).
    It is within 3.2e-4 of the same sum on 1601 points for N <= 40, and
    within 1e-3 up to N = 200."""
    kind = _canonical_kind(kind)
    n, order = _n_and_order(p)
    axis = np.linspace(-1.0, 1.0, _L1_POINTS) * (6.0 + math.sqrt(2.0 * n))
    vals = _marginal_value(kind, n, axis[:, np.newaxis], axis[np.newaxis, :], order)
    my = np.trapezoid(vals, axis, axis=1)  # 1-D marginal in y
    mv = np.trapezoid(vals, axis, axis=0)
    gap = np.abs(vals - np.outer(my, mv))
    return float(np.trapezoid(np.trapezoid(gap, axis, axis=1), axis))


@dataclass(frozen=True)
class DensityGrid:
    """Sampled marginal density on a uniform square grid.

    ``normalization`` records the constant the raw (x, u)-integrated values
    were divided by so the density integrates to 1: pi^2 for the q-marginal,
    1 for the w-marginal (whose 4/pi^2 is definitional).
    """

    kind: str
    n: int
    y_min: float
    y_max: float
    count: int
    values: np.ndarray
    normalization: float

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != (self.count, self.count):
            raise ValueError(f"expected a {self.count}x{self.count} grid, got {vals.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def y_axis(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.count)

    def trapezoid_mass(self) -> float:
        """Trapezoid integral of the stored values over the grid window."""
        axis = self.y_axis
        return float(np.trapezoid(np.trapezoid(self.values, axis, axis=1), axis))


def density_grid(kind: str, p, range_: float, count: int) -> DensityGrid:
    """Marginal density sampled on [-range, range]^2 with ``count`` points per
    axis (rows indexed by y, columns by v), computed in one call: each axis
    point's x-integrals once, then every (y, v) pair by broadcasting."""
    kind = _canonical_kind(kind)
    n, order = _n_and_order(p)
    if not (math.isfinite(range_) and range_ > 0):
        raise ValueError(f"range must be finite and > 0, got {range_!r}")
    if count < _MIN_GRID_COUNT:
        raise ValueError(f"count must be >= {_MIN_GRID_COUNT}, got {count}")
    if count > _MAX_GRID_COUNT:
        values = count * count
        raise ValueError(
            f"count must be <= {_MAX_GRID_COUNT}, got {count}: {values:.2e} values, "
            f"{values * 8 / 1e6:.0f} MB as float64, about {values * 17 / 1e6:.0f} MB of CSV "
            f"and {values * 90 / 1e6:.0f} MB of SVG"
        )
    axis = np.linspace(-range_, range_, count)
    return DensityGrid(
        kind=kind,
        n=n,
        y_min=float(-range_),
        y_max=float(range_),
        count=count,
        values=_marginal_value(kind, n, axis[:, np.newaxis], axis[np.newaxis, :], order),
        normalization=math.pi**2 if kind == "q-marginal" else 1.0,
    )


def grid_to_csv(grid: DensityGrid) -> str:
    """CSV form: a header row (kind, n, range, count, normalization), the
    header values, then the count x count values row-major at 1e-10 print
    precision."""
    buf = StringIO()
    buf.write("kind,n,range,count,normalization\n")
    buf.write(f"{grid.kind},{grid.n},{grid.y_max!r},{grid.count},{grid.normalization!r}\n")
    line = ",".join(["%.10e"] * grid.count) + "\n"
    for row in grid.values.tolist():
        buf.write(line % tuple(row))
    return buf.getvalue()


def grid_from_csv(text: str) -> DensityGrid:
    lines = [ln for ln in text.strip().splitlines() if ln]
    kind, n, range_, count, normalization = lines[1].split(",")
    return DensityGrid(
        kind=kind,
        n=int(n),
        y_min=-float(range_),
        y_max=float(range_),
        count=int(count),
        values=np.array([[float(tok) for tok in ln.split(",")] for ln in lines[2:]]),
        normalization=float(normalization),
    )

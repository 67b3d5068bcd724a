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

The integrands are polynomials times exp(-r (x^2 + u^2)) with r = 1 (q) or
r = 2 (w), so Gauss-Hermite nodes scaled by 1/sqrt(r) integrate them exactly
once the order exceeds the polynomial degree; order 40 is far beyond that
for any photon number in use.  Moments over (y, v) reuse the same nodes and
are exact too.  The factored L1 distance reuses them as well, but its
integrand |f - g| has kinks, so there the rule is only accurate to about
1e-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from noonbell.correlators import photon_number, q_joint, wigner

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
_MIN_GRID_COUNT = 16
# Each grid row holds count x order^2 complex values, and the whole grid
# evaluates count^2 x order^2 quadrature points at about 30 ns each.
_MAX_GRID_COUNT = 1024
_NS_PER_POINT = 30
_KINDS = ("q-marginal", "w-marginal")


def _canonical_kind(kind: str) -> str:
    alias = {"q": "q-marginal", "w": "w-marginal"}
    kind = alias.get(kind, kind)
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS} (or 'q'/'w'), got {kind!r}")
    return kind


def _axis_rule(order: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with  integral f(x) dx = sum w_i f(x_i)  exact
    for f = polynomial * exp(-rate x^2); the exp factor stays inside f."""
    t, w = np.polynomial.hermite.hermgauss(order)
    return t / math.sqrt(rate), w * np.exp(t * t) / math.sqrt(rate)


def _kind_parts(kind: str):
    if kind == "q-marginal":
        return (lambda p, a, b: q_joint(p, a, b) / math.pi**2), 1.0
    return wigner, 2.0


def _marginal_value(kind: str, p, y, v, order: int):
    """Integral over (x, u) at fixed (y, v); y and v may be arrays and are
    broadcast against each other."""
    func, rate = _kind_parts(kind)
    x, w = _axis_rule(order, rate)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    yb, vb = np.broadcast_arrays(y, v)
    alpha = x[:, np.newaxis] + 1j * yb[..., np.newaxis, np.newaxis]  # (..., x-node, 1)
    beta = x[np.newaxis, :] + 1j * vb[..., np.newaxis, np.newaxis]  # (..., 1, u-node)
    vals = func(p, alpha, beta)
    out = np.einsum("...ij,i,j->...", vals, w, w)
    if out.ndim == 0:
        return float(out)
    return out


def marginal_q(p, y, v):
    """No-click marginal density at (y, v), normalized to unit total mass."""
    return _marginal_value("q-marginal", p, y, v, _ORDER)


def marginal_w(p, y, v):
    """Wigner marginal density at (y, v); pointwise nonnegative."""
    return _marginal_value("w-marginal", p, y, v, _ORDER)


def _node_grid(kind: str, p, order: int):
    """Quadrature nodes y, weights w and the marginal at every node pair,
    vals[i, j] = marginal(y_i, y_j); the (y, v) integrals reuse the (x, u)
    rule."""
    kind = _canonical_kind(kind)
    y, w = _axis_rule(order, _kind_parts(kind)[1])
    return y, w, _marginal_value(kind, p, y[:, np.newaxis], y[np.newaxis, :], order)


def marginal_integral(kind: str, p) -> float:
    """Full integral of the marginal over the (y, v) plane (should be 1)."""
    return _moments(kind, p)[0]


def _moments(kind: str, p):
    y, w, vals = _node_grid(kind, p, _ORDER)
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

    Accurate to about 1e-2 absolute: |f - g| has kinks, where Gauss-Hermite
    is not exact.  For N <= 3 the value is within 4e-3 of a 401^2-point
    trapezoid sum over [-6, 6]^2, and orders 40 and 56 differ by up to
    8.1e-3 (q, N = 2: 0.2573 and 0.2492 against 0.2535)."""
    _, w, vals = _node_grid(kind, p, _ORDER)
    my = vals @ w  # 1-D marginal in y, evaluated on the y nodes
    mv = w @ vals
    product = np.outer(my, mv)
    return float(w @ np.abs(vals - product) @ w)


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
        inner = np.trapezoid(self.values, axis, axis=1)
        return float(np.trapezoid(inner, axis))


def density_grid(kind: str, p, range_: float, count: int) -> DensityGrid:
    """Marginal density sampled on [-range, range]^2 with ``count`` points per
    axis (rows indexed by y, columns by v)."""
    kind = _canonical_kind(kind)
    n = photon_number(p)
    if not (math.isfinite(range_) and range_ > 0):
        raise ValueError(f"range must be finite and > 0, got {range_!r}")
    if count < _MIN_GRID_COUNT:
        raise ValueError(f"count must be >= {_MIN_GRID_COUNT}, got {count}")
    if count > _MAX_GRID_COUNT:
        points = count * count * _ORDER * _ORDER
        raise ValueError(
            f"count must be <= {_MAX_GRID_COUNT}, got {count}: about "
            f"{count * _ORDER * _ORDER * 16 / 1e6:.0f} MB per row array and "
            f"{points * _NS_PER_POINT * 1e-9:.0f} s for {points:.2e} quadrature points"
        )
    axis = np.linspace(-range_, range_, count)
    rows = [
        np.asarray(_marginal_value(kind, n, np.full(count, yv), axis, _ORDER), dtype=float)
        for yv in axis
    ]
    normalization = math.pi**2 if kind == "q-marginal" else 1.0
    return DensityGrid(
        kind=kind,
        n=n,
        y_min=float(-range_),
        y_max=float(range_),
        count=count,
        values=np.vstack(rows),
        normalization=normalization,
    )


def grid_to_csv(grid: DensityGrid) -> str:
    """CSV form: a header row (kind, n, range, count, normalization), the
    header values, then the count x count values row-major at 1e-10 print
    precision."""
    buf = StringIO()
    buf.write("kind,n,range,count,normalization\n")
    buf.write(
        f"{grid.kind},{grid.n},{grid.y_max!r},{grid.count},{grid.normalization!r}\n"
    )
    for row in grid.values:
        buf.write(",".join(f"{v:.10e}" for v in row) + "\n")
    return buf.getvalue()


def grid_from_csv(text: str) -> DensityGrid:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[1].split(",")
    kind, n, range_, count, normalization = (
        header[0],
        int(header[1]),
        float(header[2]),
        int(header[3]),
        float(header[4]),
    )
    values = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[2:]])
    return DensityGrid(
        kind=kind,
        n=n,
        y_min=-range_,
        y_max=range_,
        count=count,
        values=values,
        normalization=normalization,
    )

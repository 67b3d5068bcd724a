"""Marginal phase-space densities and their statistics.

Writing the local-oscillator amplitudes as alpha = x + i y and
beta = u + i v, the joint no-click density and the two-mode Wigner function
are integrated over (x, u), leaving 2-D densities in (y, v):

* q-marginal: integral of Q_ab / pi^2 over (x, u); the 1/pi^2 makes the full
  (y, v) integral exactly 1 (Q_ab alone integrates to pi^2).
* w-marginal: integral of the Wigner function over (x, u); already normalized
  because the 4/pi^2 scale is part of the Wigner definition.  Pointwise
  nonnegative, so it reads as a probability density for (y, v).

Both integrals are closed forms.  The w-marginal is the NOON state's
quadrature distribution (phi_N(y) phi_0(v) - phi_0(y) phi_N(v))^2 / 2, with
the Hermite functions phi_k(y) = (2/pi)^(1/4) H_k(sqrt(2) y) e^(-y^2) /
sqrt(2^k k!); the q-marginal is that distribution smoothed by the vacuum.
Each is a sum of products of three parts per axis,

    density(y, v) = (A(y) D(v) + D(y) A(v)) / 2 - G(y) G(v)

* w: A = phi_N^2, D = phi_0^2, G = phi_N phi_0;
* q: A, D, G = P_N, sqrt(pi) e^(-y^2), g_N, each over pi, where
  P_N = e^(-y^2) integral e^(-x^2) (x^2 + y^2)^N dx / N! and
  g_N = sqrt(pi) e^(-y^2) H_N(y) / (2^N sqrt(N!)).

Recurrences in k give the parts, once per grid axis.  The moments separate
too: they and the factored L1 distance are trapezoid sums on one axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from noonbell.correlators import photon_number

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

# Set by the trapezoid axis, with margin: the w mass is 1.6e-15 off 1 at
# N = 300 but 9.8e-6 off at N = 350, and the L1 sum moves by 1.0e-3 at
# N = 300 and 3.7e-3 at N = 325 on 1601 points.
_MAX_N = 200
_MIN_GRID_COUNT = 16
# A grid is count^2 float64 values: about 17 bytes each as CSV and 90 as
# SVG cells (0.6 s to draw and 0.5 s to write as CSV at 1024).
_MAX_GRID_COUNT = 1024
_AXIS_POINTS = 801
_Y_ZERO = 30.0  # every part is 0 beyond |y| = 27.3; clipping there keeps y^2 finite


def _w_axis(n: int, y):
    """phi_N^2, phi_0^2 and phi_N phi_0 at each y, by the stable recurrence
    phi_(k+1) = (2 y phi_k - sqrt(k) phi_(k-1)) / sqrt(k+1)."""
    y = np.clip(y, -_Y_ZERO, _Y_ZERO)
    phi0 = (2.0 / math.pi) ** 0.25 * np.exp(-y * y)
    prev, phi = 0.0, phi0
    for k in range(n):
        prev, phi = phi, (2.0 * y * phi - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return phi * phi, phi0 * phi0, phi * phi0


def _q_axis(n: int, y):
    """P_N, sqrt(pi) e^(-y^2) and g_N at each y, each over pi, by
    g_(k+1) = (y g_k - (sqrt(k)/2) g_(k-1)) / sqrt(k+1) and
    (k+1) P_(k+1) = (y^2 + k + 1/2) P_k - y^2 P_(k-1), both from
    g_0 = P_0 = sqrt(pi) e^(-y^2) and g_(-1) = P_(-1) = 0."""
    y = np.clip(y, -_Y_ZERO, _Y_ZERO)
    y2 = y * y
    damping = np.exp(-y2) / math.sqrt(math.pi)
    g_prev, g, p_prev, p = 0.0, damping, 0.0, damping
    for k in range(n):
        g_prev, g = g, (y * g - 0.5 * math.sqrt(k) * g_prev) / math.sqrt(k + 1)
        p_prev, p = p, ((y2 + k + 0.5) * p - y2 * p_prev) / (k + 1)
    return p, damping, g


_AXIS_PARTS = {"q-marginal": _q_axis, "w-marginal": _w_axis}


def _canonical_kind(kind: str) -> str:
    kind = {"q": "q-marginal", "w": "w-marginal"}.get(kind, kind)
    if kind not in _AXIS_PARTS:
        raise ValueError(f"kind must be one of {tuple(_AXIS_PARTS)} (or 'q'/'w'), got {kind!r}")
    return kind


def _photon_number(p) -> int:
    n = photon_number(p)
    if n > _MAX_N:
        raise ValueError(f"marginals need photon number <= {_MAX_N}, got {n}")
    return n


def _density(parts_y, parts_v):
    """(A(y) D(v) + D(y) A(v)) / 2 - G(y) G(v), broadcast over y and v."""
    (a_y, d_y, g_y), (a_v, d_v, g_v) = parts_y, parts_v
    return 0.5 * (a_y * d_v + d_y * a_v) - g_y * g_v


def _pairs(parts):
    """_density at every pair of one axis's parts: rows y, columns v."""
    return _density([part[:, np.newaxis] for part in parts], parts)


def _marginal_value(kind: str, n: int, y, v):
    """The density at (y, v); y and v may be arrays, broadcast together."""
    parts = _AXIS_PARTS[kind]
    out = _density(parts(n, np.asarray(y, dtype=float)), parts(n, np.asarray(v, dtype=float)))
    return float(out) if out.ndim == 0 else out


def _axis_parts(kind: str, p):
    """The trapezoid axis [-h, h], h = 6 + sqrt(2N), and the parts on it."""
    kind, n = _canonical_kind(kind), _photon_number(p)
    axis = np.linspace(-1.0, 1.0, _AXIS_POINTS) * (6.0 + math.sqrt(2.0 * n))
    return axis, _AXIS_PARTS[kind](n, axis)


def marginal_q(p, y, v):
    """No-click marginal density at (y, v), normalized to unit total mass."""
    return _marginal_value("q-marginal", _photon_number(p), y, v)


def marginal_w(p, y, v):
    """Wigner marginal density at (y, v); pointwise nonnegative."""
    return _marginal_value("w-marginal", _photon_number(p), y, v)


def marginal_integral(kind: str, p) -> float:
    """Full integral of the marginal over the (y, v) plane (should be 1)."""
    return _moments(kind, p)[0]


def _moments(kind: str, p):
    """Mass, means, variances and covariance over the (y, v) plane.  The
    density is a sum of products, so the integral of y^i v^j times it
    combines the 1-D sums M_i[F] of y^i F over each part F like the parts."""
    axis, parts = _axis_parts(kind, p)
    powers = np.stack([np.ones_like(axis), axis, axis * axis])
    e = _pairs(np.trapezoid(powers * np.array(parts)[:, np.newaxis], axis))
    total = float(e[0, 0])
    e = (e / total).tolist()  # e[i][j]: the mean of y^i v^j
    mean_y, mean_v = e[1][0], e[0][1]
    var_y, var_v, cov = e[2][0] - mean_y**2, e[0][2] - mean_v**2, e[1][1] - mean_y * mean_v
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

    |f - g| has kinks, so the trapezoid sum on the statistics' axis converges
    slowly: it is within 3.2e-4 of the same sum on 1601 points for N <= 40,
    and within 1e-3 up to N = 200."""
    axis, parts = _axis_parts(kind, p)
    vals = _pairs(parts)
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
    point's parts once, then every (y, v) pair by broadcasting."""
    kind = _canonical_kind(kind)
    n = _photon_number(p)
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
        values=_pairs(_AXIS_PARTS[kind](n, axis)),
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

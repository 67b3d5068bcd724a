"""Hand-coded Bell combinations and marginals: test oracles for the library.

Each Bell function spells out one catalog functional term by term, straight
from its defining formula, so ``evaluate_functional`` (which reads the terms
from the catalog data) can be checked against an independent transcription.
Settings arrays broadcast like the library's, with settings in the last axis.

The marginal oracles are the 2-D Gauss-Hermite rule over (x, u), which calls
the correlators at every node pair, on a rule built afresh at every call, and
the Hermite-function closed form of the Wigner marginal.  The CSV oracle
formats one value at a time.

The heatmap oracle is the per-cell SVG writer that ``svgplot.heatmap_svg``
replaced: one colour function call and one formatted ``<rect>`` per cell.

The dense Fock oracle builds the full displacement matrices and displaced
parity operators that ``fock`` now builds only on the state's support.
"""

import math
from io import StringIO

import numpy as np

from noonbell import (
    TruncationError,
    catalog,
    default_cutoff,
    noon_state,
    parity_corr,
    q_joint,
    q_single_a,
    validate_settings,
    wigner,
)
from noonbell.correlators import photon_number
from noonbell.fock import _check_guard, _freeze, _log_factorials
from noonbell.svgplot import _FONT, _escape, _fmt

_CATALOG = catalog()


def _scalar_or_array(value):
    if np.ndim(value) == 0:
        return float(value)
    return np.asarray(value, dtype=float)


def _p_ab(p, x, y):
    """Joint click probability 1 - Q_a - Q_b + Q_ab."""
    return 1.0 - q_single_a(p, x) - q_single_a(p, y) + q_joint(p, x, y)


def ch_value(p, settings):
    """Clauser-Horne combination on click probabilities, settings ordered
    (alpha, alpha', beta, beta'):

        P_ab(a,b) - P_ab(a,b') + P_ab(a',b) + P_ab(a',b') - P_a(a') - P_b(b)

    Classically bounded to [-1, 0]; < -1 is the violation reported here
    (> 0 would break the band as well but does not occur for these states).
    """
    arr = validate_settings(_CATALOG["ch"], settings)
    a, ap = arr[..., 0], arr[..., 1]
    b, bp = arr[..., 2], arr[..., 3]
    value = (
        _p_ab(p, a, b)
        - _p_ab(p, a, bp)
        + _p_ab(p, ap, b)
        + _p_ab(p, ap, bp)
        - (1.0 - q_single_a(p, ap))
        - (1.0 - q_single_a(p, b))
    )
    return _scalar_or_array(value)


def chsh_value(p, settings):
    """CHSH combination of parity correlators, settings ordered
    (alpha, alpha', beta, beta'):

        Pi(a,b) + Pi(a',b) + Pi(a,b') - Pi(a',b')

    Bounded by |value| <= 2 classically and by 2 sqrt(2) always.
    """
    arr = validate_settings(_CATALOG["chsh"], settings)
    a, ap = arr[..., 0], arr[..., 1]
    b, bp = arr[..., 2], arr[..., 3]
    value = (
        parity_corr(p, a, b)
        + parity_corr(p, ap, b)
        + parity_corr(p, a, bp)
        - parity_corr(p, ap, bp)
    )
    return _scalar_or_array(value)


def bell_wigner_values(p, settings):
    """The two three-event Bell-Wigner combinations on click probabilities,
    settings ordered (i, j, k):

        (p_i - p_ij - p_ik + p_jk,  p_i + p_j + p_k - p_ij - p_ik - p_jk)

    classically bounded below by 0 and above by 1 respectively.  Joint
    probabilities are always the two-party quantity, even for coincident
    settings (P_ab(x, x) = 1 - 2 Q(x), not P(x)).
    """
    arr = validate_settings(_CATALOG["bw1"], settings)
    si, sj, sk = arr[..., 0], arr[..., 1], arr[..., 2]

    def p_single(x):
        return 1.0 - q_single_a(p, x)

    first = p_single(si) - _p_ab(p, si, sj) - _p_ab(p, si, sk) + _p_ab(p, sj, sk)
    second = (
        p_single(si)
        + p_single(sj)
        + p_single(sk)
        - _p_ab(p, si, sj)
        - _p_ab(p, si, sk)
        - _p_ab(p, sj, sk)
    )
    return _scalar_or_array(first), _scalar_or_array(second)


def j_value(which: int, p, settings):
    """Six-event combinations over no-click probabilities, settings ordered
    (alpha, beta, gamma, delta); violation conditions are
    j1 > 1, j2 > 3, j3 < 0, j4 > 1."""
    if which not in (1, 2, 3, 4):
        raise ValueError(f"which must be 1, 2, 3 or 4, got {which!r}")
    arr = validate_settings(_CATALOG[f"j{which}"], settings)
    a, b, g, d = (arr[..., i] for i in range(4))
    q = lambda x: q_single_a(p, x)
    qq = lambda x, y: q_joint(p, x, y)
    if which == 1:
        value = (
            q(a) + q(b) + q(g) + q(d)
            - qq(a, b) - qq(a, g) - qq(a, d) - qq(b, g) - qq(b, d) - qq(g, d)
        )
    elif which == 2:
        value = (
            2.0 * (q(a) + q(b) + q(g) + q(d))
            - qq(a, b) - qq(a, g) - qq(a, d) - qq(b, g) - qq(b, d) - qq(g, d)
        )
    elif which == 3:
        value = q(a) - qq(a, b) - qq(a, g) - qq(a, d) + qq(b, g) + qq(b, d) + qq(g, d)
    else:
        value = (
            q(a) + q(b) + q(g) - 2.0 * q(d)
            - qq(a, b) - qq(a, g) + qq(a, d) - qq(b, g) + qq(b, d) + qq(g, d)
        )
    return _scalar_or_array(value)


def evaluate_terms(functional, p, per_setting, inf_mask):
    """Term-by-term evaluation through the public correlators: the oracle for
    ``evaluate_functional`` and ``functional_limit``.  ``per_setting`` is a
    sequence of scalars or broadcastable arrays, one per setting label; a
    setting marked in ``inf_mask`` contributes 0 to every probability it
    enters.  Both modes share one single-mode no-click formula."""
    kind = functional.probability_kind

    q_cache: dict[int, object] = {}

    def q_of(i):
        if i not in q_cache:
            q_cache[i] = 0.0 if inf_mask[i] else q_single_a(p, per_setting[i])
        return q_cache[i]

    total = 0.0
    for idx, party, coeff in functional.single_terms:
        if kind == "click":
            total = total + coeff * (1.0 - q_of(idx))
        else:
            total = total + coeff * q_of(idx)
    for i, j, coeff in functional.joint_terms:
        inf_any = inf_mask[i] or inf_mask[j]
        if kind == "parity":
            term = 0.0 if inf_any else parity_corr(p, per_setting[i], per_setting[j])
        elif kind == "no-click":
            term = 0.0 if inf_any else q_joint(p, per_setting[i], per_setting[j])
        else:  # click: P_ab = 1 - Q_a - Q_b + Q_ab, Q terms vanish at infinity
            qab = 0.0 if inf_any else q_joint(p, per_setting[i], per_setting[j])
            term = 1.0 - q_of(i) - q_of(j) + qab
        total = total + coeff * term
    return total


def _kind_parts(kind: str):
    if kind == "q-marginal":
        return (lambda p, a, b: q_joint(p, a, b) / math.pi**2), 1.0
    return wigner, 2.0


def axis_rule(order: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with  integral f(x) dx = sum w_i f(x_i)  exact
    for f = polynomial * exp(-rate x^2); the exp factor stays inside f."""
    t, w = np.polynomial.hermite.hermgauss(order)
    return t / math.sqrt(rate), w * np.exp(t * t) / math.sqrt(rate)


def marginal_value_2d(kind: str, p, y, v, order: int):
    """Integral over (x, u) at fixed (y, v); y and v may be arrays and are
    broadcast against each other."""
    func, rate = _kind_parts(kind)
    x, w = axis_rule(order, rate)
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


def hermite_functions(n: int, y):
    """phi_0(y) .. phi_n(y), phi_k(y) = (2/pi)^(1/4) (2^k k!)^(-1/2)
    H_k(sqrt(2) y) e^(-y^2), by the stable three-term recurrence
    phi_(k+1) = (2 y phi_k - sqrt(k) phi_(k-1)) / sqrt(k+1)."""
    y = np.asarray(y, dtype=float)
    phis = [(2.0 / math.pi) ** 0.25 * np.exp(-y * y)]
    prev = np.zeros_like(y)
    for k in range(n):
        phis.append((2.0 * y * phis[k] - math.sqrt(k) * prev) / math.sqrt(k + 1))
        prev = phis[k]
    return phis


def w_marginal_closed_form(n: int, y, v):
    """Wigner marginal (phi_N(y) phi_0(v) - phi_0(y) phi_N(v))^2 / 2."""
    phi_y, phi_v = hermite_functions(n, y), hermite_functions(n, v)
    return 0.5 * (phi_y[n] * phi_v[0] - phi_y[0] * phi_v[n]) ** 2


def grid_to_csv(grid) -> str:
    """CSV form: a header row (kind, n, range, count, normalization), the
    header values, then the count x count values row-major at 1e-10 print
    precision."""
    buf = StringIO()
    buf.write("kind,n,range,count,normalization\n")
    buf.write(f"{grid.kind},{grid.n},{grid.y_max!r},{grid.count},{grid.normalization!r}\n")
    for row in grid.values:
        buf.write(",".join(f"{v:.10e}" for v in row) + "\n")
    return buf.getvalue()


def _diverging_color(t: float) -> str:
    """Blue -> white -> red over t in [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        u = t / 0.5
        r, g, b = 40 + 215 * u, 60 + 195 * u, 150 + 105 * u
    else:
        u = (t - 0.5) / 0.5
        r, g, b = 255, 255 - 195 * u, 255 - 215 * u
    return f"rgb({int(r)},{int(g)},{int(b)})"


def _sequential_color(t: float) -> str:
    """Dark blue -> yellow, a compact viridis-like ramp."""
    t = min(max(t, 0.0), 1.0)
    anchors = [
        (68, 1, 84),
        (59, 82, 139),
        (33, 145, 140),
        (94, 201, 98),
        (253, 231, 37),
    ]
    pos = t * (len(anchors) - 1)
    i = min(int(pos), len(anchors) - 2)
    u = pos - i
    c0, c1 = anchors[i], anchors[i + 1]
    rgb = tuple(int(round(a + (b - a) * u)) for a, b in zip(c0, c1))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def heatmap_svg(
    values: np.ndarray,
    y_min: float,
    y_max: float,
    title: str = "",
    diverging: bool | None = None,
) -> str:
    """Render a square matrix as a heatmap with a linear color map.

    Rows are the y axis (drawn bottom-up), columns the v axis.  The value
    range used by the color map is recorded in a <desc> element.
    """
    values = np.asarray(values, dtype=float)
    count = values.shape[0]
    vmin = float(values.min())
    vmax = float(values.max())
    if diverging is None:
        diverging = vmin < 0.0
    if diverging:
        peak = max(abs(vmin), abs(vmax), 1e-300)
        lo, hi = -peak, peak
        color = _diverging_color
    else:
        lo, hi = vmin, max(vmax, vmin + 1e-300)
        color = _sequential_color
    margin, size = 46.0, 480.0
    cell = size / count
    width = margin + size + 14.0
    height = margin / 2 + size + margin
    buf = StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    buf.write(f"<desc>linear color map; min={vmin!r} max={vmax!r}</desc>\n")
    buf.write('<rect width="100%" height="100%" fill="#ffffff"/>\n')
    if title:
        buf.write(
            f'<text x="{_fmt(margin + size / 2)}" y="16" text-anchor="middle" '
            f'font-size="13" {_FONT}>{_escape(title)}</text>\n'
        )
    top = margin / 2 + 4
    for i in range(count):
        for j in range(count):
            t = (values[i, j] - lo) / (hi - lo)
            x = margin + j * cell
            y = top + (count - 1 - i) * cell
            buf.write(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell + 0.35)}" '
                f'height="{_fmt(cell + 0.35)}" fill="{color(t)}"/>\n'
            )
    axis_y = top + size + 14
    for frac, val in ((0.0, y_min), (0.5, 0.5 * (y_min + y_max)), (1.0, y_max)):
        x = margin + frac * size
        buf.write(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y)}" text-anchor="middle" '
            f'font-size="11" {_FONT}>{_fmt(val)}</text>\n'
        )
        y = top + (1.0 - frac) * size
        buf.write(
            f'<text x="{_fmt(margin - 6)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11" {_FONT}>{_fmt(val)}</text>\n'
        )
    buf.write(
        f'<text x="{_fmt(margin + size / 2)}" y="{_fmt(axis_y + 16)}" text-anchor="middle" '
        f'font-size="12" {_FONT}>v</text>\n'
    )
    buf.write(
        f'<text x="12" y="{_fmt(top + size / 2)}" text-anchor="middle" '
        f'font-size="12" {_FONT}>y</text>\n'
    )
    buf.write("</svg>\n")
    return buf.getvalue()


def _genlaguerre_table(cutoff: int, x: float) -> np.ndarray:
    """T[k, a] = L_k^(a)(x) for 0 <= k, a < cutoff, by the three-term
    recurrence in k, (k+1) L_{k+1}^(a) = (2k+1+a-x) L_k^(a) - (k+a) L_{k-1}^(a),
    run for every order a at once."""
    k = np.arange(cutoff, dtype=float)[:, None]
    a = np.arange(cutoff, dtype=float)
    grow = (2.0 * k + 1.0 + a - x) / (k + 1.0)
    fall = (k + a) / (k + 1.0)
    table = np.empty((cutoff, cutoff))
    table[0] = 1.0
    if cutoff > 1:
        table[1] = 1.0 + a - x
    for i in range(1, cutoff - 1):
        table[i + 1] = grow[i] * table[i] - fall[i] * table[i - 1]
    return table


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n> from the associated-Laguerre closed form

        <m|D|n> = sqrt(n!/m!) alpha^(m-n) exp(-|a|^2/2) L_n^(m-n)(|a|^2)   (m >= n)
        <m|D|n> = sqrt(m!/n!) (-conj(alpha))^(n-m) exp(-|a|^2/2) L_m^(n-m)(|a|^2)

    which avoids the eigendecomposition error of a matrix exponential at
    large cutoff.  Unitary up to truncation error in the highest rows.
    """
    _check_guard(alpha, cutoff)
    ns = np.arange(cutoff)
    m_idx, n_idx = np.meshgrid(ns, ns, indexing="ij")
    k_lo = np.minimum(m_idx, n_idx)
    diff = np.abs(m_idx - n_idx)
    x = abs(alpha) ** 2
    lag = _genlaguerre_table(cutoff, x)[k_lo, diff]
    log_fact = _log_factorials(cutoff)
    prefactor = np.exp(0.5 * (log_fact[k_lo] - log_fact[np.maximum(m_idx, n_idx)]))
    base = np.where(m_idx >= n_idx, alpha, -np.conjugate(alpha)) ** diff
    mat = prefactor * base * math.exp(-0.5 * x) * lag
    return _freeze(mat.astype(np.complex128, copy=False))


def _displaced_parity(alpha: complex, cutoff: int) -> np.ndarray:
    d = displacement_matrix(alpha, cutoff)
    parity = np.where(np.arange(cutoff) % 2 == 0, 1.0, -1.0)
    return (d * parity) @ d.conj().T


def oracle_parity_corr(n, alpha: complex, beta: complex, cutoff: int) -> float:
    """<state| D_a D_b (-1)^(n_a+n_b) D_a^+ D_b^+ |state> by matrix algebra."""
    n = photon_number(n)
    required = default_cutoff(n, alpha, beta)
    if cutoff < required:
        bigger = alpha if abs(alpha) >= abs(beta) else beta
        raise TruncationError(bigger, cutoff, required)
    ma = _displaced_parity(alpha, cutoff)
    mb = _displaced_parity(beta, cutoff)
    psi = noon_state(n, cutoff)
    value = np.vdot(psi, ma @ psi @ mb.T)
    return float(value.real)

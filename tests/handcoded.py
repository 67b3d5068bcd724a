"""Hand-coded Bell combinations and marginals: test oracles for the library.

Each Bell function spells out one catalog functional term by term, straight
from its defining formula, so ``evaluate_functional`` (which reads the terms
from the catalog data) can be checked against an independent transcription.
Settings arrays broadcast like the library's, with settings in the last axis.

The marginal oracles are the 2-D Gauss-Hermite rule over (x, u), which calls
the correlators at every node pair, and the Hermite-function closed form of
the Wigner marginal.
"""

import math

import numpy as np

from noonbell import catalog, parity_corr, q_joint, q_single_a, validate_settings, wigner
from noonbell.marginals import _axis_rule

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


def marginal_value_2d(kind: str, p, y, v, order: int):
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

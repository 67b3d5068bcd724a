"""Closed-form detection probabilities and correlators for two-mode
path-entangled number states.

All quantities refer to the state (|N,0> - |0,N>)/sqrt(2): N photons in one
arm or the other, with a fixed relative phase of pi.  Displacing each mode by
a local-oscillator amplitude and detecting gives two measurement schemes:

* on/off detection -- ``q_joint`` and ``q_single_a`` are the no-click
  probabilities (displaced-vacuum overlaps; one single-mode formula serves
  both modes), ``click_probabilities`` the complementary click probabilities;
* parity detection -- ``parity_corr`` is the correlated displaced-parity
  expectation, and ``wigner`` its rescaling by 4/pi^2, the two-mode Wigner
  function.

Every function accepts python scalars or numpy arrays for the oscillator
amplitudes and broadcasts elementwise.  The photon number is a plain integer
(python or numpy) >= 1.

Each correlator is a composition of private helpers: per-setting factors
(``_q_factors``, ``_parity_factors``) and the formula that combines one or
two settings' factors (``_q_single``, ``_q_pair``, ``_parity_pair``).  The
functional evaluator computes the factors once per setting and combines them
per term with the same helpers, so its values equal the public functions'
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "photon_number",
    "laguerre",
    "q_joint",
    "q_single_a",
    "click_probabilities",
    "parity_corr",
    "wigner",
]

# n! is exact in float64 far beyond this, but powers like |alpha|^(2n) are
# not; everything above this order goes through log space.
_DIRECT_N_MAX = 20

WIGNER_SCALE = 4.0 / math.pi**2


def photon_number(p) -> int:
    """Validate a photon number: an int or numpy integer >= 1 (not a bool)."""
    if isinstance(p, (int, np.integer)) and not isinstance(p, bool) and p >= 1:
        return int(p)
    raise ValueError(f"photon number must be an integer >= 1, got {p!r}")


def _abs2(z):
    """|z|^2 without the square root."""
    return z.real * z.real + z.imag * z.imag


def _scaled_power(z, n: int):
    """z**n / sqrt(n!), evaluated in log space for large n to avoid overflow."""
    if n <= _DIRECT_N_MAX:
        return z**n / math.sqrt(math.factorial(n))
    r = np.abs(z)
    safe_r = np.where(r > 0.0, r, 1.0)
    mag = np.exp(n * np.log(safe_r) - 0.5 * math.lgamma(n + 1))
    out = np.where(r > 0.0, mag * np.exp(1j * n * np.angle(z)), 0.0j)
    return out


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the three-term recurrence
    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"order must be an integer >= 0, got {n!r}")
    lk = 1.0 + 0.0 * x  # L_0, broadcast to the shape of x
    if n == 0:
        return lk
    lkm1, lk = lk, 1.0 - x  # L_1
    for k in range(1, n):
        lkm1, lk = lk, ((2.0 * k + 1.0 - x) * lk - k * lkm1) / (k + 1.0)
    return lk


def _q_factors(n: int, alpha):
    """Per-setting factors of the no-click probabilities: (|a|^2, a^N/sqrt(N!))."""
    return _abs2(alpha), _scaled_power(alpha, n)


def _q_single(s, z):
    """Single-mode no-click probability from its setting's factors."""
    return 0.5 * np.exp(-s) * (_abs2(z) + 1.0)


def _q_pair(sa, za, sb, zb):
    """Joint no-click probability from two settings' factors."""
    return 0.5 * np.exp(-(sa + sb)) * _abs2(za - zb)


def _parity_factors(n: int, alpha):
    """Per-setting factors of the parity correlator:
    (|a|^2, L_N(4|a|^2), (2a)^N/sqrt(N!))."""
    s = _abs2(alpha)
    return s, laguerre(n, 4.0 * s), _scaled_power(2.0 * alpha, n)


def _parity_pair(n: int, sa, la, wa, sb, lb, wb):
    """Parity correlator from two settings' factors."""
    sign = -1.0 if n % 2 else 1.0
    lag = sign * (la + lb)
    cross = np.conjugate(wa) * wb
    return 0.5 * np.exp(-2.0 * (sa + sb)) * (lag - 2.0 * cross.real)


def q_joint(p, alpha, beta):
    """Probability that both displaced on/off detectors stay dark,
    exp(-(|a|^2+|b|^2)) |a^N - b^N|^2 / (2 N!); lies in [0, 1]."""
    n = photon_number(p)
    return _q_pair(*_q_factors(n, alpha), *_q_factors(n, beta))


def q_single_a(p, alpha):
    """Probability that a mode's displaced on/off detector stays dark,
    exp(-|a|^2) (|a|^(2N)/N! + 1) / 2; lies in (0, 1/2].  The state is
    symmetric under mode exchange, so this serves mode b as well."""
    return _q_single(*_q_factors(photon_number(p), alpha))


def click_probabilities(p, alpha, beta):
    """Click probabilities (P_a, P_b, P_ab) from the no-click ones via
    completeness: P_a = 1-Q_a, P_b = 1-Q_b, P_ab = 1-Q_a-Q_b+Q_ab."""
    qa = q_single_a(p, alpha)
    qb = q_single_a(p, beta)
    qab = q_joint(p, alpha, beta)
    return 1.0 - qa, 1.0 - qb, 1.0 - qa - qb + qab


def parity_corr(p, alpha, beta):
    """Correlated displaced-parity expectation in [-1, 1]:
    exp(-2|a|^2-2|b|^2) [(-1)^N (L_N(4|a|^2) + L_N(4|b|^2))
    - (2^(2N)/N!) (conj(a)^N b^N + a^N conj(b)^N)] / 2."""
    n = photon_number(p)
    return _parity_pair(n, *_parity_factors(n, alpha), *_parity_factors(n, beta))


def wigner(p, alpha, beta):
    """Two-mode Wigner function, the parity correlator scaled by 4/pi^2."""
    return WIGNER_SCALE * parity_corr(p, alpha, beta)

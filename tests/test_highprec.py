"""mpmath oracles for the closed-form correlators, the marginals and the
Fock oracle's Laguerre functions.

The closed forms run up to N in the hundreds, and above N = 20 they switch
to log-space powers and rely on a long Laguerre recurrence.  Here each
formula is re-evaluated in 60-digit arithmetic straight from its definition,
with mpmath's own Laguerre polynomial, over |Re|, |Im| <= 5.

The Fock oracle derives the same correlators by a separate route, from
normalized associated-Laguerre functions that are checked here against
40-digit mpmath; at N up to 200 and amplitudes up to sqrt(N) + 2 it must
match the closed forms with no floating-point overflow or invalid operation.

The marginals' per-axis parts come from three-term recurrences (the Wigner
one is the same as the test helper's Hermite functions).  They are checked
in 40-digit arithmetic against mpmath's Hermite polynomials and, for the
no-click polynomial part, against mpmath's quadrature of its defining
integral.
"""

import numpy as np
import pytest
from mpmath import mp

import handcoded
from noonbell import fock, marginals, oracle_parity_corr, oracle_q_joint, parity_corr, q_joint, q_single_a

TOL = 1e-13
NS = [1, 5, 20, 21, 25, 60, 100, 300]


def settings(n):
    """Seeded points in the box plus fixed ones: the origin, an edge, a
    corner, and a pair on the circle |alpha|^2 = N where the N-photon terms
    peak (inside the box for N <= 50)."""
    rng = np.random.default_rng(1000 + n)
    pairs = [tuple(complex(*xy) for xy in rng.uniform(-5.0, 5.0, (2, 2))) for _ in range(40)]
    pairs += [(0j, 0j), (5 + 0j, -5j), (5 + 5j, -5 - 5j)]
    if n <= 50:
        r = (n / 2) ** 0.5
        pairs.append((complex(r, r), complex(-r, 0.3 * r)))
    return pairs


def mp_q_joint(n, a, b):
    a, b = mp.mpc(a), mp.mpc(b)
    return mp.exp(-(abs(a) ** 2 + abs(b) ** 2)) * abs(a**n - b**n) ** 2 / (2 * mp.factorial(n))


def mp_q_single(n, a):
    s = abs(mp.mpc(a)) ** 2
    return mp.exp(-s) * (s**n / mp.factorial(n) + 1) / 2


def mp_parity_corr(n, a, b):
    a, b = mp.mpc(a), mp.mpc(b)
    sa, sb = abs(a) ** 2, abs(b) ** 2
    lag = (-1) ** n * (mp.laguerre(n, 0, 4 * sa) + mp.laguerre(n, 0, 4 * sb))
    cross = mp.re(mp.conj(2 * a) ** n * (2 * b) ** n) / mp.factorial(n)
    return mp.exp(-2 * (sa + sb)) * (lag - 2 * cross) / 2


@pytest.mark.parametrize("n", NS)
def test_closed_forms_match_60_digit_oracle(n):
    worst = {"q_joint": 0.0, "q_single_a": 0.0, "parity_corr": 0.0}
    with mp.workdps(60):
        for a, b in settings(n):
            for name, ours, ref in (
                ("q_joint", q_joint(n, a, b), mp_q_joint(n, a, b)),
                ("q_single_a", q_single_a(n, a), mp_q_single(n, a)),
                ("parity_corr", parity_corr(n, a, b), mp_parity_corr(n, a, b)),
            ):
                worst[name] = max(worst[name], float(abs(float(ours) - ref)))
    assert max(worst.values()) <= TOL, worst


def mp_axis_parts(n, y):
    """The q parts (P_N, sqrt(pi) e^(-y^2), g_N) / pi and the w parts
    (phi_N^2, phi_0^2, phi_N phi_0) at one y, from their definitions."""
    y = mp.mpf(y)
    damping = mp.sqrt(mp.pi) * mp.exp(-y * y)
    integral = mp.quad(lambda x: mp.exp(-x * x) * (x * x + y * y) ** n, [-mp.inf, 0, mp.inf])
    poly = mp.exp(-y * y) * integral / mp.factorial(n)
    power = damping * mp.hermite(n, y) / (2**n * mp.sqrt(mp.factorial(n)))

    def phi(k):
        scale = (2 / mp.pi) ** 0.25 / mp.sqrt(2**k * mp.factorial(k))
        return scale * mp.hermite(k, mp.sqrt(2) * y) * mp.exp(-y * y)

    q_parts = (poly / mp.pi, damping / mp.pi, power / mp.pi)
    return q_parts, (phi(n) ** 2, phi(0) ** 2, phi(n) * phi(0))


@pytest.mark.parametrize("n", [1, 2, 40, 200])
def test_marginal_axis_parts_match_40_digit_oracle(n):
    h = n**0.5 + 4.0
    worst = 0.0
    with mp.workdps(40):
        for y in np.linspace(-h, h, 16):
            q_ref, w_ref = mp_axis_parts(n, y)
            ours = marginals._q_axis(n, y) + marginals._w_axis(n, y)
            for part, ref in zip(ours, q_ref + w_ref):
                if abs(ref) > 1e-300:
                    worst = max(worst, float(abs((float(part) - ref) / ref)))
    assert worst <= 1e-12


def mp_laguerre_function(k, d, x):
    """sqrt(k!/(k+d)!) x^(d/2) exp(-x/2) L_k^(d)(x) from its definition."""
    x = mp.mpf(x)
    scale = mp.exp(0.5 * (mp.loggamma(k + 1) - mp.loggamma(k + d + 1)) - x / 2)
    return scale * x ** (mp.mpf(d) / 2) * handcoded.mp_laguerre(k, d, x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [1e-6, 0.5, 4.5, 64.0, 256.0])
def test_laguerre_functions_match_40_digit_oracle(x):
    depth, orders = 201, 2800
    with np.errstate(over="raise", invalid="raise"):
        table = fock._laguerre_functions(x, depth, orders)
    rng = np.random.default_rng(int(x * 1e6))
    ks = np.concatenate([[0, 0, depth - 1, depth - 1], rng.integers(0, depth, 36)])
    ds = np.concatenate([[0, orders - 1, 0, orders - 1], rng.integers(0, orders, 36)])
    # and along the peak d = x - k, where the functions are largest
    ks = np.concatenate([ks, rng.integers(0, depth, 10)])
    ds = np.concatenate([ds, np.clip(np.round(x - ks[-10:]), 0, orders - 1).astype(int)])
    # Rounding errors of the forward recurrence in k grow like k^2 eps where
    # x is small (4.1e-13 at k = 200, d = 0, x = 1e-6; the unnormalized
    # Laguerre recurrence it replaced erred by 3.6e-13 there)
    eps = np.finfo(float).eps
    worst = 0.0
    with mp.workdps(40):
        for k, d in zip(ks.tolist(), ds.tolist()):
            err = float(abs(table[k, d] - mp_laguerre_function(k, d, x)))
            worst = max(worst, err / max(1e-13, 0.1 * k * k * eps))
    assert worst <= 1.0


def large_n_cutoff(n, *amplitudes):
    """N + |a|^2 + 10|a| sqrt(N+1) + 30 at the largest |a|: room for the
    displaced number state D(a)|N>, which spreads over ~2|a| sqrt(N) states."""
    a = max(abs(z) for z in amplitudes)
    return int(np.ceil(n + a * a + 10.0 * a * np.sqrt(n + 1.0) + 30.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [10, 25, 50, 100, 200])
def test_fock_oracle_matches_closed_forms_at_large_n(n):
    rng = np.random.default_rng(2000 + n)
    # tiny amplitudes are where the Laguerre recurrence rounds worst
    points = [(1e-3, 1e-3j), (0.05, -0.05)]
    for radius in (1.5, np.sqrt(n) + 2.0):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, (6, 2)))
        points += (r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (6, 2)))).tolist()
    worst = {"q_joint": 0.0, "parity_corr": 0.0}
    with np.errstate(over="raise", invalid="raise"):
        for a, b in points:
            cutoff = large_n_cutoff(n, a, b)
            for name, ours, ref in (
                ("q_joint", oracle_q_joint(n, a, b, cutoff), q_joint(n, a, b)),
                ("parity_corr", oracle_parity_corr(n, a, b, cutoff), parity_corr(n, a, b)),
            ):
                worst[name] = max(worst[name], abs(ours - ref))
    assert max(worst.values()) <= 1e-12, worst

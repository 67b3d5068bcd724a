"""Truncated two-mode Fock-space simulator.

Brute-force reference implementation used to cross-check every closed form in
:mod:`noonbell.correlators`.  States and operators are plain complex ndarrays
over the number basis: a single-mode state is a vector indexed by n, a
two-mode state a (cutoff, cutoff) matrix indexed by (n_a, n_b), and a
single-mode operator a (cutoff, cutoff) matrix.  Displacements are built from
one table of normalized associated-Laguerre functions, every entry bounded
by 1, so no factorial, power or Laguerre polynomial that could overflow is
ever formed.  Expectation values are plain linear algebra: sums over the
whole truncated basis, with the operators' outer index restricted to the
number states the state occupies (every other row meets only zero
amplitudes), so even a cutoff in the thousands builds only a few rows.

Every returned array is read-only, and every operation is a pure function of
its inputs.
"""

from __future__ import annotations

import cmath
import math
import numpy as np

from noonbell.correlators import photon_number

__all__ = [
    "TruncationError",
    "default_cutoff",
    "noon_state",
    "coherent_state",
    "displacement_matrix",
    "oracle_q_joint",
    "oracle_parity_corr",
    "apply_swap_unitary",
]

# Amplitudes are admissible whenever |alpha|^2 <= cutoff / 4, i.e. the cutoff
# is at least four mean photon numbers.  That bounds the coherent tail mass
# beyond the cutoff only loosely (1.9e-2 at |alpha|^2 = 1, 4.9e-6 at 4,
# 9.9e-12 at 9); callers that need more headroom pass a larger cutoff.
_GUARD_RATIO = 4.0
_RENORM_TAIL = 1e-12


class TruncationError(ValueError):
    """Amplitude too large for the requested cutoff."""

    def __init__(self, amplitude: complex, cutoff: int, required_cutoff: int):
        self.amplitude = amplitude
        self.cutoff = cutoff
        self.required_cutoff = required_cutoff
        super().__init__(
            f"|amplitude|^2 = {abs(amplitude)**2:.6g} exceeds the truncation guard "
            f"for cutoff {cutoff}; increase the cutoff to at least {required_cutoff}"
        )


def _check_guard(alpha: complex, cutoff: int) -> None:
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    s = abs(alpha) ** 2
    if s > cutoff / _GUARD_RATIO:
        raise TruncationError(alpha, cutoff, math.ceil(_GUARD_RATIO * s))


def default_cutoff(n, *amplitudes: complex) -> int:
    """Cutoff heuristic: ceil(4 max|amplitude|^2) + N + 10."""
    n = photon_number(n)
    peak = max((abs(a) ** 2 for a in amplitudes), default=0.0)
    return math.ceil(_GUARD_RATIO * peak) + n + 10


def _poisson_amplitudes(x: float, orders: int) -> np.ndarray:
    """sqrt(exp(-x) x^d / d!) for 0 <= d < orders, as the running product
    exp(-x/2) prod_{j <= d} sqrt(x/j): every partial product is itself one of
    the amplitudes, so none overflows, and x = 0 gives (1, 0, 0, ...)."""
    factors = np.empty(orders)
    factors[0] = math.exp(-0.5 * x)
    factors[1:] = np.sqrt(x / np.arange(1.0, orders))
    return np.cumprod(factors)


def _laguerre_functions(x: float, depth: int, orders: int) -> np.ndarray:
    """T[k, d] = sqrt(k!/(k+d)!) x^(d/2) exp(-x/2) L_k^(d)(x) for
    0 <= k < depth and 0 <= d < orders, all bounded by 1 in magnitude.  Row 0
    is :func:`_poisson_amplitudes`; the later rows follow from the normalized
    three-term recurrence in k,

        sqrt((k+1)(k+1+d)) T[k+1] = (2k+1+d-x) T[k] - sqrt(k(k+d)) T[k-1],

    run for every order d at once.  Each column's recurrence is independent
    of the others and of the depth, so a shallower table is a prefix of a
    deeper one, bit for bit."""
    table = np.zeros((depth, orders))
    table[0] = _poisson_amplitudes(x, orders)
    k = np.arange(depth - 1, dtype=float)[:, None]
    d = np.arange(orders, dtype=float)
    grow = 2.0 * k + 1.0 + d - x
    fall = np.sqrt(k * (k + d))
    norm = np.sqrt((k + 1.0) * (k + 1.0 + d))
    # fall[0] = 0, so the first step reads the still-zero last row as T[-1]
    for i in range(depth - 1):
        table[i + 1] = (grow[i] * table[i] - fall[i] * table[i - 1]) / norm[i]
    return table


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def noon_state(n, cutoff: int) -> np.ndarray:
    """(|n,0> - |0,n>)/sqrt(2) as a (cutoff, cutoff) matrix indexed by
    (n_a, n_b)."""
    n = photon_number(n)
    if cutoff <= n:
        raise ValueError(f"cutoff must exceed the photon number: {cutoff} <= {n}")
    psi = np.zeros((cutoff, cutoff), dtype=np.complex128)
    psi[n, 0] = 1.0 / math.sqrt(2.0)
    psi[0, n] = -1.0 / math.sqrt(2.0)
    return _freeze(psi)


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Single-mode coherent state, component n = exp(-|a|^2/2) a^n / sqrt(n!).

    The truncated vector is renormalized only when the discarded tail mass is
    below 1e-12; otherwise the raw truncated coefficients are kept so the
    truncation stays visible.
    """
    _check_guard(alpha, cutoff)
    mags = _poisson_amplitudes(abs(alpha) ** 2, cutoff)
    mass = float(mags @ mags)
    if 1.0 - mass < _RENORM_TAIL:
        mags = mags / math.sqrt(mass)
    amps = mags * cmath.exp(1j * cmath.phase(alpha)) ** np.arange(cutoff)
    return _freeze(amps)


def _displacement_rows(alpha: complex, cutoff: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (ascending) of the matrix <m|D(alpha)|n>, 0 <= n < cutoff,
    from the normalized associated-Laguerre functions T of
    :func:`_laguerre_functions` at x = |alpha|^2:

        <m|D|n> = (alpha/|alpha|)^(m-n) T[n, m-n]          (m >= n)
        <m|D|n> = (-conj(alpha)/|alpha|)^(n-m) T[m, n-m]   (m < n)

    which avoids the eigendecomposition error of a matrix exponential at
    large cutoff.  The Laguerre degree min(m, n) never exceeds the last row,
    so the table runs only that deep, and the rows equal those of the full
    matrix bit for bit."""
    _check_guard(alpha, cutoff)
    rows = np.asarray(rows)
    m_idx = rows[:, None]
    n_idx = np.arange(cutoff)
    table = _laguerre_functions(abs(alpha) ** 2, int(rows[-1]) + 1, cutoff)
    diff = np.abs(m_idx - n_idx)
    unit = cmath.exp(1j * cmath.phase(alpha))
    below, above = unit**n_idx, (-unit.conjugate()) ** n_idx
    phase = np.where(m_idx >= n_idx, below[diff], above[diff])
    return phase * table[np.minimum(m_idx, n_idx), diff]


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n>, 0 <= m, n < cutoff (see
    :func:`_displacement_rows`).  Unitary up to truncation error in the
    highest rows."""
    return _freeze(_displacement_rows(alpha, cutoff, np.arange(cutoff)))


def oracle_q_joint(n, alpha: complex, beta: complex, cutoff: int) -> float:
    """|<alpha, beta | state>|^2 computed entirely in the truncated space."""
    psi = noon_state(n, cutoff)
    ca = coherent_state(alpha, cutoff)
    cb = coherent_state(beta, cutoff)
    overlap = ca.conj() @ psi @ cb.conj()
    return float(abs(overlap) ** 2)


def _displaced_parity(alpha: complex, cutoff: int, rows: np.ndarray) -> np.ndarray:
    """The (rows x rows) block of D(alpha) (-1)^n D(alpha)^+, summed over
    the whole truncated basis."""
    d = _displacement_rows(alpha, cutoff, rows)
    parity = np.where(np.arange(cutoff) % 2 == 0, 1.0, -1.0)
    return (d * parity) @ d.conj().T


def oracle_parity_corr(n, alpha: complex, beta: complex, cutoff: int) -> float:
    """<state| D_a D_b (-1)^(n_a+n_b) D_a^+ D_b^+ |state> by matrix algebra.
    The state occupies only the number states 0 and N in each mode, so only
    those rows of the operators are built."""
    n = photon_number(n)
    required = default_cutoff(n, alpha, beta)
    if cutoff < required:
        bigger = alpha if abs(alpha) >= abs(beta) else beta
        raise TruncationError(bigger, cutoff, required)
    rows = np.array([0, n])
    sub = noon_state(n, cutoff)[np.ix_(rows, rows)]
    ma = _displaced_parity(alpha, cutoff, rows)
    mb = _displaced_parity(beta, cutoff, rows)
    value = np.vdot(sub, ma @ sub @ mb.T)
    return float(value.real)


def apply_swap_unitary(n, state: np.ndarray) -> np.ndarray:
    """Apply U to every mode of ``state`` (a single-mode vector or a two-mode
    matrix), where U swaps |1> and |n> and fixes every other number state.
    Sends the one-photon state to the n-photon one, and is its own inverse."""
    n = photon_number(n)
    state = np.asarray(state)
    if state.ndim not in (1, 2) or len(set(state.shape)) != 1:
        raise ValueError(f"expected a vector or a square matrix, got shape {state.shape}")
    cutoff = state.shape[0]
    if cutoff <= n:
        raise ValueError(f"cutoff must exceed the photon number: {cutoff} <= {n}")
    perm = np.arange(cutoff)
    perm[1], perm[n] = perm[n], perm[1]
    return _freeze(state[np.ix_(*[perm] * state.ndim)])

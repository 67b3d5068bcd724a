"""Truncated two-mode Fock-space simulator.

Brute-force reference implementation used to cross-check every closed form in
:mod:`noonbell.correlators`.  States and operators are plain complex ndarrays
over the number basis: a single-mode state is a vector indexed by n, a
two-mode state a (cutoff, cutoff) matrix indexed by (n_a, n_b), and a
single-mode operator a (cutoff, cutoff) matrix.  Displacements are built from
the associated-Laguerre matrix elements, and expectation values are plain
linear algebra: sums over the whole truncated basis, with the operators'
outer index restricted to the number states the state occupies (every other
row meets only zero amplitudes).  Cutoffs are kept small (<= 128 per mode),
so dense storage is simpler and fast enough.

Every returned array is read-only, and every operation is a pure function of
its inputs.
"""

from __future__ import annotations

import functools
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

# Coherent-state tail mass beyond 4|alpha|^2 photons is far below 1e-10, so
# amplitudes are admissible whenever |alpha|^2 <= cutoff / 4.
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
    s = abs(alpha) ** 2
    if s > cutoff / _GUARD_RATIO:
        raise TruncationError(alpha, cutoff, math.ceil(_GUARD_RATIO * s))


def default_cutoff(n, *amplitudes: complex) -> int:
    """Cutoff heuristic: ceil(4 max|amplitude|^2) + N + 10."""
    n = photon_number(n)
    peak = max((abs(a) ** 2 for a in amplitudes), default=0.0)
    return math.ceil(_GUARD_RATIO * peak) + n + 10


@functools.lru_cache(maxsize=8)
def _log_factorials(cutoff: int) -> np.ndarray:
    """log(n!) for n = 0 .. cutoff - 1, read-only.  Cached: oracle callers
    repeat one cutoff."""
    return _freeze(np.array([math.lgamma(n + 1.0) for n in range(cutoff)]))


def _genlaguerre_table(depth: int, orders: int, x: float) -> np.ndarray:
    """T[k, a] = L_k^(a)(x) for 0 <= k < depth and 0 <= a < orders, by the
    three-term recurrence in k,
    (k+1) L_{k+1}^(a) = (2k+1+a-x) L_k^(a) - (k+a) L_{k-1}^(a),
    run for every order a at once.  Each column's recurrence is independent
    of the others and of the depth, so a shallower table is a prefix of a
    deeper one, bit for bit."""
    k = np.arange(depth, dtype=float)[:, None]
    a = np.arange(orders, dtype=float)
    grow = (2.0 * k + 1.0 + a - x) / (k + 1.0)
    fall = (k + a) / (k + 1.0)
    table = np.empty((depth, orders))
    table[0] = 1.0
    if depth > 1:
        table[1] = 1.0 + a - x
    for i in range(1, depth - 1):
        table[i + 1] = grow[i] * table[i] - fall[i] * table[i - 1]
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
    ns = np.arange(cutoff)
    if alpha == 0:
        amps = np.zeros(cutoff, dtype=np.complex128)
        amps[0] = 1.0
        return _freeze(amps)
    log_mag = -0.5 * abs(alpha) ** 2 + ns * math.log(abs(alpha)) - 0.5 * _log_factorials(cutoff)
    amps = np.exp(log_mag) * np.exp(1j * ns * np.angle(alpha))
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if tail < _RENORM_TAIL:
        amps = amps / np.linalg.norm(amps)
    return _freeze(amps)


def _displacement_rows(alpha: complex, cutoff: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (ascending) of the matrix <m|D(alpha)|n>, 0 <= n < cutoff,
    from the associated-Laguerre closed form

        <m|D|n> = sqrt(n!/m!) alpha^(m-n) exp(-|a|^2/2) L_n^(m-n)(|a|^2)   (m >= n)
        <m|D|n> = sqrt(m!/n!) (-conj(alpha))^(n-m) exp(-|a|^2/2) L_m^(n-m)(|a|^2)

    which avoids the eigendecomposition error of a matrix exponential at
    large cutoff.  The Laguerre degree min(m, n) never exceeds the last row,
    so the table runs only that deep.  Each element is computed as in the
    full matrix, so the rows equal its rows bit for bit."""
    _check_guard(alpha, cutoff)
    rows = np.asarray(rows)
    m_idx = rows[:, None]
    n_idx = np.arange(cutoff)
    k_lo = np.minimum(m_idx, n_idx)
    diff = np.abs(m_idx - n_idx)
    x = abs(alpha) ** 2
    lag = _genlaguerre_table(int(rows[-1]) + 1, cutoff, x)[k_lo, diff]
    log_fact = _log_factorials(cutoff)
    prefactor = np.exp(0.5 * (log_fact[k_lo] - log_fact[np.maximum(m_idx, n_idx)]))
    base = np.where(m_idx >= n_idx, alpha, -np.conjugate(alpha)) ** diff
    mat = prefactor * base * math.exp(-0.5 * x) * lag
    return mat.astype(np.complex128, copy=False)


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n>, 0 <= m, n < cutoff (see
    :func:`_displacement_rows`).  Unitary up to truncation error in the
    highest rows."""
    return _freeze(_displacement_rows(alpha, cutoff, np.arange(cutoff)))


def oracle_q_joint(n, alpha: complex, beta: complex, cutoff: int) -> float:
    """|<alpha, beta | state>|^2 computed entirely in the truncated space."""
    n = photon_number(n)
    if cutoff <= n:
        raise ValueError(f"cutoff must exceed the photon number: {cutoff} <= {n}")
    _check_guard(alpha, cutoff)
    _check_guard(beta, cutoff)
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
    Only the number states the state occupies (0 and N in each mode) meet a
    nonzero amplitude, so only those rows of the operators are built."""
    n = photon_number(n)
    required = default_cutoff(n, alpha, beta)
    if cutoff < required:
        bigger = alpha if abs(alpha) >= abs(beta) else beta
        raise TruncationError(bigger, cutoff, required)
    psi = noon_state(n, cutoff)
    rows_a = np.flatnonzero(np.any(psi, axis=1))
    rows_b = np.flatnonzero(np.any(psi, axis=0))
    ma = _displaced_parity(alpha, cutoff, rows_a)
    mb = _displaced_parity(beta, cutoff, rows_b)
    sub = psi[np.ix_(rows_a, rows_b)]
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

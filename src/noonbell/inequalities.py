"""Bell functionals as data, plus the one evaluator binding them to the
correlators.

Each :class:`BellFunctional` is a linear combination of single and joint
detection probabilities with classical (local-hidden-variable) bounds and a
violation direction.  Three probability kinds appear:

* ``"click"``   -- on/off click probabilities P = 1 - Q (used by the
  Clauser-Horne combination and the three-event Bell-Wigner pair);
* ``"no-click"`` -- the no-click probabilities Q themselves (used by the
  six-event combinations j1..j4, which are written directly in Q);
* ``"parity"``  -- correlated displaced-parity expectations (CHSH).

The catalog is immutable static data, and :func:`evaluate_functional` is the
only way to evaluate a functional.  It computes each setting's correlator
factors once and combines them per term with the correlators' own pair
formulas; the test suite checks it bit for bit against a term-by-term
evaluation through the public correlators, and against hand-coded
transcriptions of each combination.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from noonbell.correlators import (
    _parity_factors,
    _parity_pair,
    _q_factors,
    _q_pair,
    _q_single,
    photon_number,
)

__all__ = [
    "BellFunctional",
    "catalog",
    "catalog_json",
    "validate_settings",
    "evaluate_functional",
    "functional_limit",
    "ch_analytic_reduced",
    "ch_analytic_reduced_margin",
    "ch_reduced_settings",
]

_KINDS = ("click", "no-click", "parity")
_DIRECTIONS = ("above-upper", "below-lower")


@dataclass(frozen=True)
class BellFunctional:
    """A Bell combination: signed single/joint probability terms plus its
    classical bound(s).

    ``single_terms`` holds (setting index, party "a"|"b", coefficient);
    ``joint_terms`` holds (setting index for a, setting index for b,
    coefficient).  ``num_settings`` counts the shared setting labels the
    indices refer to.
    """

    name: str
    num_settings: int
    single_terms: tuple[tuple[int, str, float], ...]
    joint_terms: tuple[tuple[int, int, float], ...]
    lower_bound: float | None
    upper_bound: float | None
    violation_direction: str
    probability_kind: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.num_settings < 1:
            raise ValueError("num_settings must be >= 1")
        if self.probability_kind not in _KINDS:
            raise ValueError(f"unknown probability kind {self.probability_kind!r}")
        if self.violation_direction not in _DIRECTIONS:
            raise ValueError(f"unknown violation direction {self.violation_direction!r}")
        if self.lower_bound is None and self.upper_bound is None:
            raise ValueError("at least one classical bound is required")
        if self.violation_direction == "above-upper" and self.upper_bound is None:
            raise ValueError("above-upper violation needs an upper bound")
        if self.violation_direction == "below-lower" and self.lower_bound is None:
            raise ValueError("below-lower violation needs a lower bound")
        if self.probability_kind == "parity" and self.single_terms:
            raise ValueError("parity functionals carry joint terms only")
        for idx, party, _ in self.single_terms:
            if not 0 <= idx < self.num_settings:
                raise ValueError(f"single term index {idx} out of range")
            if party not in ("a", "b"):
                raise ValueError(f"party must be 'a' or 'b', got {party!r}")
        for i, j, _ in self.joint_terms:
            if not (0 <= i < self.num_settings and 0 <= j < self.num_settings):
                raise ValueError(f"joint term index ({i}, {j}) out of range")

    @property
    def bound(self) -> float:
        """The classical bound on the violated side."""
        if self.violation_direction == "above-upper":
            return float(self.upper_bound)
        return float(self.lower_bound)

    def violation_margin(self, value: float) -> float:
        """Signed distance past the bound in the violation direction;
        <= 0 means no violation."""
        if self.violation_direction == "above-upper":
            return value - self.upper_bound
        return self.lower_bound - value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_settings": self.num_settings,
            "single_terms": [list(t) for t in self.single_terms],
            "joint_terms": [list(t) for t in self.joint_terms],
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "violation_direction": self.violation_direction,
            "probability_kind": self.probability_kind,
            "note": self.note,
        }


def _build_catalog() -> dict[str, BellFunctional]:
    six_pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    cat = {}
    # Settings order (alpha, alpha', beta, beta'): indices 0, 1 belong to
    # party a and 2, 3 to party b.
    cat["ch"] = BellFunctional(
        name="ch",
        num_settings=4,
        single_terms=((1, "a", -1.0), (2, "b", -1.0)),
        joint_terms=((0, 2, 1.0), (0, 3, -1.0), (1, 2, 1.0), (1, 3, 1.0)),
        lower_bound=-1.0,
        upper_bound=0.0,
        violation_direction="below-lower",
        probability_kind="click",
        note="Clauser-Horne combination over on/off click probabilities",
    )
    # The classical band is two-sided (|value| <= 2).  For these states the
    # violated side is the lower one: the all-zero settings sit exactly at -2
    # for odd N and the one-photon optimum dips below it.
    cat["chsh"] = BellFunctional(
        name="chsh",
        num_settings=4,
        single_terms=(),
        joint_terms=((0, 2, 1.0), (1, 2, 1.0), (0, 3, 1.0), (1, 3, -1.0)),
        lower_bound=-2.0,
        upper_bound=2.0,
        violation_direction="below-lower",
        probability_kind="parity",
        note="CHSH combination of correlated displaced-parity measurements",
    )
    cat["bw1"] = BellFunctional(
        name="bw1",
        num_settings=3,
        single_terms=((0, "a", 1.0),),
        joint_terms=((0, 1, -1.0), (0, 2, -1.0), (1, 2, 1.0)),
        lower_bound=0.0,
        upper_bound=None,
        violation_direction="below-lower",
        probability_kind="click",
        note="three-event Bell-Wigner facet; exploratory, no reference optimum",
    )
    cat["bw2"] = BellFunctional(
        name="bw2",
        num_settings=3,
        single_terms=((0, "a", 1.0), (1, "a", 1.0), (2, "a", 1.0)),
        joint_terms=((0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)),
        lower_bound=None,
        upper_bound=1.0,
        violation_direction="above-upper",
        probability_kind="click",
        note="three-event Bell-Wigner facet; exploratory, no reference optimum",
    )
    # Six-event combinations over four shared settings (alpha, beta, gamma,
    # delta), written directly in the no-click probabilities Q.  Singles may
    # be measured by either party; mode a is the fixed convention here.
    cat["j1"] = BellFunctional(
        name="j1",
        num_settings=4,
        single_terms=tuple((i, "a", 1.0) for i in range(4)),
        joint_terms=tuple((i, j, -1.0) for i, j in six_pairs),
        lower_bound=None,
        upper_bound=1.0,
        violation_direction="above-upper",
        probability_kind="no-click",
        note="six-event combination, singles once each",
    )
    cat["j2"] = BellFunctional(
        name="j2",
        num_settings=4,
        single_terms=tuple((i, "a", 2.0) for i in range(4)),
        joint_terms=tuple((i, j, -1.0) for i, j in six_pairs),
        lower_bound=None,
        upper_bound=3.0,
        violation_direction="above-upper",
        probability_kind="no-click",
        note="six-event combination, singles twice each",
    )
    cat["j3"] = BellFunctional(
        name="j3",
        num_settings=4,
        single_terms=((0, "a", 1.0),),
        joint_terms=(
            (0, 1, -1.0),
            (0, 2, -1.0),
            (0, 3, -1.0),
            (1, 2, 1.0),
            (1, 3, 1.0),
            (2, 3, 1.0),
        ),
        lower_bound=0.0,
        upper_bound=None,
        violation_direction="below-lower",
        probability_kind="no-click",
        note="six-event combination, one single",
    )
    cat["j4"] = BellFunctional(
        name="j4",
        num_settings=4,
        single_terms=((0, "a", 1.0), (1, "a", 1.0), (2, "a", 1.0), (3, "a", -2.0)),
        joint_terms=(
            (0, 1, -1.0),
            (0, 2, -1.0),
            (0, 3, 1.0),
            (1, 2, -1.0),
            (1, 3, 1.0),
            (2, 3, 1.0),
        ),
        lower_bound=None,
        upper_bound=1.0,
        violation_direction="above-upper",
        probability_kind="no-click",
        note="six-event combination, mixed signs",
    )
    return cat


_CATALOG = _build_catalog()


def catalog() -> dict[str, BellFunctional]:
    """The built-in functionals, keyed by name."""
    return dict(_CATALOG)


def catalog_json() -> str:
    """The catalog as a JSON document (terms, bounds, probability kind)."""
    doc = {name: f.to_dict() for name, f in _CATALOG.items()}
    return json.dumps(doc, indent=2, sort_keys=True)


def validate_settings(functional: BellFunctional, settings) -> np.ndarray:
    """Coerce to a complex settings array of the functional's arity and check
    finiteness."""
    arr = np.asarray(settings, dtype=np.complex128)
    if arr.shape[-1:] != (functional.num_settings,):
        raise ValueError(
            f"{functional.name} takes {functional.num_settings} settings, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("settings must be finite")
    return arr


def _evaluate(functional: BellFunctional, n: int, arr: np.ndarray, infinite=None):
    """Sum of the functional's terms over settings ``arr`` (settings in the
    last axis), added in catalog order.  Each setting's factors are computed
    once, on the stacked array, and every term combines two settings'
    factors.  Settings marked in ``infinite`` contribute 0 to every
    probability they enter."""
    kind = functional.probability_kind
    inf = np.zeros(functional.num_settings, dtype=bool) if infinite is None else infinite
    # One contiguous row per setting.  Even a single settings vector is a
    # batch of one, so that every value comes out of the same array loops.
    rows = np.ascontiguousarray(arr.reshape(-1, functional.num_settings).T)
    if kind == "parity":
        s, lag, w = _parity_factors(n, rows)

        def pair(i, j):
            return _parity_pair(n, s[i], lag[i], w[i], s[j], lag[j], w[j])

    else:
        s, z = _q_factors(n, rows)
        q = _q_single(s, z)
        q[inf] = 0.0

        def pair(i, j):
            return _q_pair(s[i], z[i], s[j], z[j])

    total = 0.0
    for idx, _, coeff in functional.single_terms:
        total = total + coeff * (1.0 - q[idx] if kind == "click" else q[idx])
    for i, j, coeff in functional.joint_terms:
        term = 0.0 if inf[i] or inf[j] else pair(i, j)
        if kind == "click":  # P_ab = 1 - Q_a - Q_b + Q_ab
            term = 1.0 - q[i] - q[j] + term
        total = total + coeff * term
    return np.reshape(total, arr.shape[:-1])


def evaluate_functional(functional: BellFunctional, p, settings):
    """Evaluate a functional on a settings vector (or an array of them,
    settings in the last axis).  A row's value does not depend on the other
    rows or on its position in the batch."""
    total = _evaluate(functional, photon_number(p), validate_settings(functional, settings))
    if np.ndim(total) == 0:
        return float(total)
    return np.asarray(total, dtype=float)


def functional_limit(functional: BellFunctional, p, settings, infinite) -> float:
    """Value of the functional at one settings vector with the settings
    marked in ``infinite`` sent to infinite modulus (all Gaussian-damped
    probabilities -> 0); the others keep their values.  Reports the analytic
    value of optima that sit on the search boundary."""
    arr = validate_settings(functional, settings)
    inf = np.asarray(infinite, dtype=bool)
    if inf.shape != (functional.num_settings,):
        raise ValueError("infinite mask length must match num_settings")
    return float(_evaluate(functional, photon_number(p), arr, inf))


def _pow_over_factorial(s: float, n: int) -> float:
    """s**n / n! for s >= 0, in log space for large n."""
    if n <= 20:
        return s**n / math.factorial(n)
    if s == 0.0:
        return 0.0
    return math.exp(n * math.log(s) - math.lgamma(n + 1))


def ch_analytic_reduced_margin(p, s: float) -> float:
    """Signed distance of the reduced Clauser-Horne combination below -1,

        s^N exp(-s) (1 - 2 exp(-s)) / N!

    negative exactly when 0 < s < ln 2.  For large N at small s this is many
    orders below float resolution against 1, so ``ch_analytic_reduced`` rounds
    to exactly -1.0 there; the margin keeps the violation visible.
    """
    n = photon_number(p)
    s = float(s)
    if s < 0:
        raise ValueError("s = |alpha|^2 must be non-negative")
    return _pow_over_factorial(s, n) * math.exp(-s) * (1.0 - 2.0 * math.exp(-s))


def ch_analytic_reduced(p, s: float) -> float:
    """The Clauser-Horne combination on the reduced one-parameter family
    (see :func:`ch_reduced_settings`), as a function of s = |alpha|^2:

        CH(s) = s^N exp(-s) (1 - 2 exp(-s)) / N!  -  1

    which is strictly below -1 for every 0 < s < ln 2 (use
    :func:`ch_analytic_reduced_margin` when the margin itself matters).
    """
    return ch_analytic_reduced_margin(p, s) - 1.0


def ch_reduced_settings(p, s: float) -> np.ndarray:
    """Settings (alpha, alpha', beta, beta') realizing the reduced CH family:
    alpha' = beta = 0, alpha = sqrt(s), and beta' = -alpha for odd N.

    For even N the sign flip alone cancels in alpha^N - beta'^N, so beta'
    must carry the phase pi/N instead; beta'^N = -alpha^N then holds for
    every N and the ``"ch"`` functional reproduces :func:`ch_analytic_reduced`
    up to rounding.
    """
    n = photon_number(p)
    s = float(s)
    if s < 0:
        raise ValueError("s = |alpha|^2 must be non-negative")
    alpha = math.sqrt(s)
    if n % 2:
        beta_prime = -alpha + 0.0j
    else:
        beta_prime = alpha * cmath.exp(1j * math.pi / n)
    return np.array([alpha, 0.0, 0.0, beta_prime], dtype=np.complex128)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import laguerre as np_laguerre

from noonbell import (
    click_probabilities,
    laguerre,
    parity_corr,
    q_joint,
    q_single_a,
    wigner,
)
from noonbell.correlators import photon_number

bounded_complex = st.builds(
    complex,
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-2.5, max_value=2.5),
)


class TestPhotonNumber:
    def test_valid(self):
        assert photon_number(3) == 3
        n = photon_number(np.int64(3))
        assert n == 3 and type(n) is int

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_invalid_photon_number(self, bad):
        with pytest.raises(ValueError):
            photon_number(bad)
        with pytest.raises(ValueError):
            q_joint(bad, 0.3, 0.1j)

    def test_ops_accept_numpy_integer(self):
        assert q_joint(np.int64(2), 0.3, 0.1j) == q_joint(2, 0.3, 0.1j)


class TestLaguerre:
    def test_order_zero_is_one(self):
        assert laguerre(0, 7.3) == 1.0

    def test_order_one(self):
        assert laguerre(1, 2.0) == -1.0

    def test_order_two_against_explicit_polynomial(self):
        # independent oracle: L_2(x) = 1 - 2x + x^2/2
        x = 2.0
        assert laguerre(2, x) == pytest.approx(1.0 - 2.0 * x + 0.5 * x * x, abs=1e-14)

    @pytest.mark.parametrize("order", range(0, 13))
    def test_against_numpy_evaluator(self, order):
        coeffs = np.zeros(order + 1)
        coeffs[order] = 1.0
        rng = np.random.default_rng(order)
        for x in rng.uniform(0.0, 80.0, 8):
            ref = float(np_laguerre.lagval(x, coeffs))
            assert laguerre(order, float(x)) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_vectorized(self):
        x = np.linspace(0.0, 10.0, 11)
        vals = laguerre(3, x)
        assert vals.shape == x.shape
        assert vals[0] == 1.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0)


wide_complex = st.builds(
    complex,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)


class TestLargeNBounds:
    """The probability bounds hold up to N = 300, well above N = 20 where the
    powers switch to log space and the Laguerre recurrence grows long."""

    @given(alpha=wide_complex, beta=wide_complex, n=st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_q_joint_in_unit_interval(self, alpha, beta, n):
        assert 0.0 <= q_joint(n, alpha, beta) <= 1.0

    @given(alpha=wide_complex, n=st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_q_single_in_half_open_interval(self, alpha, n):
        assert 0.0 < q_single_a(n, alpha) <= 0.5

    @given(alpha=wide_complex, beta=wide_complex, n=st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_parity_corr_bounded(self, alpha, beta, n):
        assert abs(parity_corr(n, alpha, beta)) <= 1.0 + 1e-12


class TestQJoint:
    def test_reference_point(self):
        # frozen from the truncated Fock oracle (see test_fock.py)
        assert q_joint(1, 1.0, -1.0) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-14)

    def test_equal_settings_vanish(self):
        for n in (1, 2, 5):
            assert q_joint(n, 0.7 + 0.2j, 0.7 + 0.2j) == 0.0

    def test_origin_vanishes(self):
        assert q_joint(2, 0.0, 0.0) == 0.0

    @given(alpha=bounded_complex, beta=bounded_complex, n=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_in_unit_interval(self, alpha, beta, n):
        v = q_joint(n, alpha, beta)
        assert 0.0 <= v <= 1.0

    @given(alpha=bounded_complex, beta=bounded_complex, n=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_mode_exchange_symmetry(self, alpha, beta, n):
        assert q_joint(n, alpha, beta) == pytest.approx(q_joint(n, beta, alpha), abs=1e-15)

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rot = complex(math.cos(theta), math.sin(theta))
            for n in (1, 3):
                assert q_joint(n, rot * a, rot * b) == pytest.approx(
                    q_joint(n, a, b), abs=1e-12
                )

    def test_large_photon_number_log_space(self):
        # n = 25 exercises the log-space branch; cross-checked in test_fock
        v = q_joint(25, 0.8, -0.8)
        assert math.isfinite(v) and v >= 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec = q_joint(2, a, b)
        for i in range(16):
            assert vec[i] == pytest.approx(q_joint(2, a[i], b[i]), abs=1e-15)


class TestQSingle:
    def test_origin_is_half(self):
        for n in (1, 2, 7):
            assert q_single_a(n, 0.0) == 0.5

    def test_reference_point(self):
        assert q_single_a(1, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_decays_at_large_amplitude(self):
        assert q_single_a(2, 6.0) < 1e-10

    @given(alpha=bounded_complex, n=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_in_half_interval(self, alpha, n):
        v = q_single_a(n, alpha)
        assert 0.0 < v <= 0.5

    @given(alpha=bounded_complex, beta=bounded_complex, n=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_joint_below_singles(self, alpha, beta, n):
        qab = q_joint(n, alpha, beta)
        assert qab <= q_single_a(n, alpha) + 1e-12
        assert qab <= q_single_a(n, beta) + 1e-12


class TestClickProbabilities:
    def test_origin(self):
        pa, pb, pab = click_probabilities(1, 0.0, 0.0)
        assert (pa, pb, pab) == (0.5, 0.5, 0.0)

    def test_reference_point(self):
        _, _, pab = click_probabilities(1, 1.0, -1.0)
        expected = 1.0 - 2.0 * math.exp(-1.0) + 2.0 * math.exp(-2.0)
        assert pab == pytest.approx(expected, abs=1e-14)

    def test_monotone_against_singles(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            b = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            n = int(rng.integers(1, 5))
            pa, pb, pab = click_probabilities(n, a, b)
            assert pab <= min(pa, pb) + 1e-12
            assert 0.0 <= pab <= 1.0


class TestParityCorr:
    def test_origin_alternates_sign(self):
        for n in range(1, 8):
            assert parity_corr(n, 0.0, 0.0) == pytest.approx((-1.0) ** n, abs=1e-15)

    @given(alpha=bounded_complex, beta=bounded_complex, n=st.integers(1, 5))
    @settings(max_examples=1000, deadline=None)
    def test_bounded_expectation(self, alpha, beta, n):
        assert abs(parity_corr(n, alpha, beta)) <= 1.0 + 1e-12

    @given(alpha=bounded_complex, beta=bounded_complex, n=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_mode_exchange_symmetry(self, alpha, beta, n):
        assert parity_corr(n, alpha, beta) == pytest.approx(
            parity_corr(n, beta, alpha), abs=1e-14
        )

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rot = complex(math.cos(theta), math.sin(theta))
            assert parity_corr(2, rot * a, rot * b) == pytest.approx(
                parity_corr(2, a, b), abs=1e-12
            )


class TestWigner:
    def test_origin_values(self):
        assert wigner(1, 0.0, 0.0) == pytest.approx(-4.0 / math.pi**2, abs=1e-14)
        assert wigner(2, 0.0, 0.0) == pytest.approx(4.0 / math.pi**2, abs=1e-14)

    def test_scale_relation(self):
        a, b = 0.4 - 0.2j, -0.9 + 1.1j
        assert wigner(3, a, b) == pytest.approx(
            4.0 / math.pi**2 * parity_corr(3, a, b), abs=1e-15
        )

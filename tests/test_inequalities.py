import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handcoded import bell_wigner_values, ch_value, chsh_value, evaluate_terms, j_value
from noonbell import (
    catalog,
    catalog_json,
    ch_analytic_reduced,
    ch_analytic_reduced_margin,
    ch_reduced_settings,
    click_probabilities,
    evaluate_functional,
    functional_limit,
    parity_corr,
    q_single_a,
    validate_settings,
)

CAT = catalog()


def random_settings(rng, count, arity, radius=2.0):
    re = rng.uniform(-radius, radius, (count, arity))
    im = rng.uniform(-radius, radius, (count, arity))
    return re + 1j * im


class TestCatalogStructure:
    def test_names(self):
        assert set(CAT) == {"ch", "chsh", "bw1", "bw2", "j1", "j2", "j3", "j4"}

    def test_ch_has_six_terms_and_band_bounds(self):
        ch = CAT["ch"]
        assert len(ch.single_terms) + len(ch.joint_terms) == 6
        assert ch.lower_bound == -1.0 and ch.upper_bound == 0.0
        assert ch.violation_direction == "below-lower"
        assert ch.probability_kind == "click"

    def test_chsh_has_four_terms_and_symmetric_bounds(self):
        chsh = CAT["chsh"]
        assert len(chsh.single_terms) == 0 and len(chsh.joint_terms) == 4
        assert chsh.lower_bound == -2.0 and chsh.upper_bound == 2.0
        assert chsh.probability_kind == "parity"

    def test_j_arities_and_bounds(self):
        assert all(CAT[f"j{i}"].num_settings == 4 for i in (1, 2, 3, 4))
        assert CAT["j1"].upper_bound == 1.0
        assert CAT["j2"].upper_bound == 3.0
        assert CAT["j3"].lower_bound == 0.0
        assert CAT["j4"].upper_bound == 1.0
        assert all(len(CAT[f"j{i}"].joint_terms) == 6 for i in (1, 2, 3, 4))

    def test_bell_wigner_arity(self):
        assert CAT["bw1"].num_settings == 3
        assert CAT["bw2"].num_settings == 3

    def test_json_round_trip(self):
        doc = json.loads(catalog_json())
        assert set(doc) == set(CAT)
        ch = doc["ch"]
        assert ch["probability_kind"] == "click"
        assert len(ch["joint_terms"]) == 4
        assert ch["lower_bound"] == -1.0

    def test_margin_sign_convention(self):
        assert CAT["ch"].violation_margin(-1.2) == pytest.approx(0.2)
        assert CAT["ch"].violation_margin(-0.8) == pytest.approx(-0.2)
        assert CAT["j2"].violation_margin(4.0) == pytest.approx(1.0)


class TestSettingsValidation:
    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            ch_value(1, [0.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            validate_settings(CAT["ch"], [math.nan, 0, 0, 0])


class TestChValue:
    def test_all_zero_is_classical_edge(self):
        assert ch_value(1, [0, 0, 0, 0]) == pytest.approx(-1.0, abs=1e-15)

    def test_reduced_family_value_odd(self):
        s = 0.5
        settings = ch_reduced_settings(1, s)
        np.testing.assert_allclose(settings, [math.sqrt(0.5), 0.0, 0.0, -math.sqrt(0.5)])
        expected = s * math.exp(-s) * (1.0 - 2.0 * math.exp(-s)) - 1.0
        assert ch_value(1, settings) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-1.0646141113151255, abs=1e-12)

    def test_reduced_family_value_even(self):
        # for even N the sign flip alone cancels the interference, so the
        # fourth setting carries the pi/N phase; the closed form still holds
        s = 0.5
        settings = ch_reduced_settings(2, s)
        assert settings[3] == pytest.approx(math.sqrt(s) * np.exp(1j * math.pi / 2))
        expected = (s**2 / 2.0) * math.exp(-s) * (1.0 - 2.0 * math.exp(-s)) - 1.0
        assert ch_value(2, settings) == pytest.approx(expected, abs=1e-14)

    def test_even_n_plain_sign_flip_fails_to_violate(self):
        # regression guard for the even-N phase choice: with beta' = +alpha
        # the interference term cancels and the combination stays >= -1
        s = 0.5
        alpha = math.sqrt(s)
        value = ch_value(2, [alpha, 0.0, 0.0, alpha])
        assert value >= -1.0
        assert value == pytest.approx((s**2 / 2.0) * math.exp(-s) - 1.0, abs=1e-14)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        base = random_settings(rng, 1, 4, 1.5)[0]
        v0 = ch_value(2, base)
        for theta in rng.uniform(0, 2 * math.pi, 25):
            rot = complex(math.cos(theta), math.sin(theta))
            assert ch_value(2, rot * base) == pytest.approx(v0, abs=1e-12)


class TestChAnalyticReduced:
    def test_boundary_values(self):
        for n in (1, 2, 5):
            assert ch_analytic_reduced(n, 0.0) == -1.0
            assert ch_analytic_reduced(n, math.log(2.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_reference_point(self):
        expected = -1.0 - (0.4**3 / 6.0) * math.exp(-0.4) * (2.0 * math.exp(-0.4) - 1.0)
        assert ch_analytic_reduced(3, 0.4) == pytest.approx(expected, abs=1e-15)
        assert expected < -1.0

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            ch_analytic_reduced(1, -0.1)

    def test_witness_margin_negative_on_interval(self):
        grid = np.linspace(0.0, math.log(2.0), 52)[1:-1]
        for n in range(1, 9):
            for s in grid:
                assert ch_analytic_reduced_margin(n, float(s)) < 0.0
                assert ch_analytic_reduced(n, float(s)) <= -1.0

    def test_matches_full_combination(self):
        grid = np.linspace(0.0, math.log(2.0), 52)[1:-1]
        for n in range(1, 9):
            for s in grid:
                full = ch_value(n, ch_reduced_settings(n, float(s)))
                assert full == pytest.approx(ch_analytic_reduced(n, float(s)), abs=1e-12)


class TestChshValue:
    def test_all_zero_odd_n(self):
        assert chsh_value(1, [0, 0, 0, 0]) == pytest.approx(-2.0, abs=1e-15)

    def test_all_zero_even_n(self):
        assert chsh_value(2, [0, 0, 0, 0]) == pytest.approx(2.0, abs=1e-15)

    def test_matches_term_sum(self):
        rng = np.random.default_rng(5)
        for s in random_settings(rng, 20, 4, 1.5):
            a, ap, b, bp = s
            expected = (
                parity_corr(1, a, b)
                + parity_corr(1, ap, b)
                + parity_corr(1, a, bp)
                - parity_corr(1, ap, bp)
            )
            assert chsh_value(1, s) == pytest.approx(expected, abs=1e-14)

    def test_quantum_bound(self):
        rng = np.random.default_rng(6)
        settings = random_settings(rng, 300, 4, 2.5)
        for n in (1, 2, 3):
            values = chsh_value(n, settings)
            assert np.max(np.abs(values)) <= 2.0 * math.sqrt(2.0) + 1e-9


class TestBellWigner:
    def test_all_zero(self):
        first, second = bell_wigner_values(1, [0, 0, 0])
        # singles are 1/2, every pairwise click probability vanishes
        assert first == pytest.approx(0.5, abs=1e-15)
        assert second == pytest.approx(1.5, abs=1e-15)

    def test_coincident_settings_identity(self):
        # with i = j the first combination reduces to the no-click single:
        # p - (1 - 2q) - p_ik + p_ik = q  (two-party joint, not a set overlap)
        for n in (1, 3):
            for xi in (0.5, 1.0 - 0.5j):
                first, _ = bell_wigner_values(n, [xi, xi, 0.3])
                assert first == pytest.approx(float(q_single_a(n, xi)), abs=1e-14)

    def test_sanity_band(self):
        rng = np.random.default_rng(9)
        for s in random_settings(rng, 500, 3, 2.5):
            first, second = bell_wigner_values(2, s)
            assert -3.0 <= first <= 3.0
            assert -3.0 <= second <= 3.0

    def test_quantum_violation_exists(self):
        # the first facet dips below its classical floor of 0
        value, _ = bell_wigner_values(1, [math.sqrt(2.0), 0.0, 0.0])
        assert value < 0.0


class TestJValues:
    def test_j2_all_zero_constant_across_n(self):
        zeros = np.zeros(4, dtype=complex)
        for n in range(1, 11):
            assert j_value(2, n, zeros) == 4.0

    def test_j1_all_zero(self):
        assert j_value(1, 3, np.zeros(4, dtype=complex)) == 2.0

    def test_j3_all_zero(self):
        assert j_value(3, 2, np.zeros(4, dtype=complex)) == 0.5

    def test_j4_large_delta_limit(self):
        assert j_value(4, 1, [0.0, 0.0, 0.0, 6.0]) == pytest.approx(1.5, abs=1e-6)
        assert j_value(4, 1, [0.0, 0.0, 0.0, 8.0]) == pytest.approx(1.5, abs=1e-12)

    def test_j4_interior_point_beats_limit(self):
        # the large-amplitude plateau is not the optimum
        assert j_value(4, 1, [0.0, 0.0, 0.0, math.sqrt(3.0)]) == pytest.approx(
            1.5 + math.exp(-3.0) / 2.0, abs=1e-14
        )

    def test_invalid_which(self):
        with pytest.raises(ValueError):
            j_value(5, 1, np.zeros(4, dtype=complex))


class TestGenericEvaluator:
    @pytest.mark.parametrize("name", sorted(CAT))
    def test_matches_hand_coded(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        functional = CAT[name]
        settings = random_settings(rng, 200, functional.num_settings, 2.0)
        generic = evaluate_functional(functional, 2, settings)
        for idx in range(200):
            s = settings[idx]
            if name == "ch":
                hand = ch_value(2, s)
            elif name == "chsh":
                hand = chsh_value(2, s)
            elif name == "bw1":
                hand = bell_wigner_values(2, s)[0]
            elif name == "bw2":
                hand = bell_wigner_values(2, s)[1]
            else:
                hand = j_value(int(name[1]), 2, s)
            assert generic[idx] == pytest.approx(hand, abs=1e-12)

    def test_scalar_returns_python_float(self):
        value = evaluate_functional(CAT["j1"], 1, np.zeros(4, dtype=complex))
        assert isinstance(value, float)

    def test_infinite_mask_no_click(self):
        limit = functional_limit(CAT["j4"], 1, np.zeros(4, dtype=complex), [False] * 3 + [True])
        assert limit == 1.5

    def test_infinite_mask_click(self):
        # sending alpha' and beta to infinity: P(a') -> 1, P_ab(x, inf) -> P(x)
        ch = CAT["ch"]
        settings = np.array([0.3, 0.0, 0.0, -0.3], dtype=complex)
        limit = functional_limit(ch, 1, settings, [False, True, True, False])
        pa = 1.0 - float(q_single_a(1, 0.3))
        # P_ab(a,inf)=P_a(a); P_ab(a,b')' with both finite kept; etc.
        pab_abp = 1.0 - float(q_single_a(1, 0.3)) - float(q_single_a(1, -0.3)) + float(
            __import__("noonbell").q_joint(1, 0.3, -0.3)
        )
        papb = 1.0 - float(q_single_a(1, -0.3))
        expected = pa - pab_abp + 1.0 + papb - 1.0 - 1.0
        assert limit == pytest.approx(expected, abs=1e-14)

    def test_infinite_mask_parity(self):
        limit = functional_limit(CAT["chsh"], 1, np.zeros(4, dtype=complex), [True, False, False, False])
        # terms with the infinite setting vanish: Pi(inf,b) = Pi(inf,b') = 0
        assert limit == pytest.approx(
            float(parity_corr(1, 0.0, 0.0)) - float(parity_corr(1, 0.0, 0.0)), abs=1e-15
        )

    def test_clicks_consistency(self):
        # click-kind joint agrees with the click_probabilities composition
        ch = CAT["ch"]
        value = evaluate_functional(ch, 1, [0.4, 0.0, 0.0, -0.4])
        pa_, pb_, pab1 = click_probabilities(1, 0.4, 0.0)
        assert value == pytest.approx(ch_value(1, [0.4, 0.0, 0.0, -0.4]), abs=1e-14)
        assert 0.0 <= pab1 <= min(pa_, pb_) + 1e-12


class TestFactoredEvaluator:
    """``evaluate_functional`` computes each setting's factors once and
    combines them per term; its values are bit for bit those of the
    term-by-term evaluation through the public correlators."""

    NS = (1, 2, 3, 7, 20, 21, 25, 60)

    @staticmethod
    def batch(rng, arity, count=129):
        settings = random_settings(rng, count, arity, 5.0)
        settings[:8] *= 0.1
        settings[8] = 0.0
        return settings

    @pytest.mark.parametrize("name", sorted(CAT))
    @pytest.mark.parametrize("n", NS)
    def test_bitwise_equal_to_term_by_term(self, name, n):
        functional = CAT[name]
        k = functional.num_settings
        settings = self.batch(np.random.default_rng(n), k)
        factored = evaluate_functional(functional, n, settings)
        oracle = evaluate_terms(functional, n, [settings[:, i] for i in range(k)], (False,) * k)
        assert np.array_equal(factored, np.asarray(oracle, dtype=float))

    @pytest.mark.parametrize("name", sorted(CAT))
    @pytest.mark.parametrize("n", NS)
    def test_row_independent_of_batch(self, name, n):
        functional = CAT[name]
        settings = self.batch(np.random.default_rng(100 + n), functional.num_settings)
        batch = evaluate_functional(functional, n, settings)
        grid = evaluate_functional(functional, n, settings[:12].reshape(3, 4, -1))
        assert np.array_equal(grid.reshape(-1), batch[:12])
        for row in (0, 8, 9, 64, 128):
            assert evaluate_functional(functional, n, settings[row]) == batch[row]

    @pytest.mark.parametrize("name", sorted(CAT))
    def test_limit_bitwise_equal_to_term_by_term(self, name):
        functional = CAT[name]
        k = functional.num_settings
        rng = np.random.default_rng(7)
        for n in self.NS:
            settings = self.batch(rng, k, 9)
            for row in settings:
                mask = tuple(bool(b) for b in rng.random(k) < 0.5)
                # A batch of one, as the library evaluates a single vector.
                per_setting = [row[None, i] for i in range(k)]
                total = evaluate_terms(functional, n, per_setting, mask)
                expected = float(np.reshape(total, -1)[0])
                assert functional_limit(functional, n, row, mask) == expected


class TestGlobalPhaseInvariance:
    """Rotating every setting by one common phase leaves each functional
    unchanged; the optimizer's holding the first setting real rests on this."""

    @given(
        name=st.sampled_from(sorted(CAT)),
        n=st.integers(1, 30),
        coords=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_common_rotation(self, name, n, coords, phase):
        functional = CAT[name]
        k = functional.num_settings
        s = np.array(coords[:k]) + 1j * np.array(coords[4 : 4 + k])
        rotated = s * complex(math.cos(phase), math.sin(phase))
        assert evaluate_functional(functional, n, rotated) == pytest.approx(
            evaluate_functional(functional, n, s), abs=1e-12
        )

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handcoded
from noonbell import fock
from noonbell import (
    TruncationError,
    apply_swap_unitary,
    coherent_state,
    default_cutoff,
    displacement_matrix,
    noon_state,
    oracle_parity_corr,
    oracle_q_joint,
    parity_corr,
    q_joint,
)


def random_amplitudes(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * phi)


class TestNoonState:
    def test_amplitudes(self):
        st = noon_state(1, 10)
        assert st.shape == (10, 10)
        assert st[1, 0] == pytest.approx(1.0 / math.sqrt(2.0))
        assert st[0, 1] == pytest.approx(-1.0 / math.sqrt(2.0))
        assert np.count_nonzero(st) == 2

    def test_norm(self):
        assert np.linalg.norm(noon_state(3, 16)) == pytest.approx(1.0, abs=1e-12)

    def test_cutoff_must_exceed_n(self):
        with pytest.raises(ValueError):
            noon_state(2, 2)

    def test_immutable(self):
        st = noon_state(1, 4)
        with pytest.raises(ValueError):
            st[0, 0] = 1.0


class TestCoherentState:
    def test_vacuum(self):
        st = coherent_state(0.0, 8)
        assert st.shape == (8,)
        assert st[0] == 1.0
        assert np.count_nonzero(st) == 1

    def test_component_series(self):
        st = coherent_state(1.0, 40)
        assert st[0] == pytest.approx(math.exp(-0.5), abs=1e-12)
        # component n = exp(-|a|^2/2) a^n / sqrt(n!)
        assert st[3] == pytest.approx(math.exp(-0.5) / math.sqrt(6.0), abs=1e-12)

    def test_norm_after_renormalization(self):
        st = coherent_state(1.5 + 0.5j, 40)
        assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError) as exc:
            coherent_state(4.0, 20)
        assert exc.value.required_cutoff == 64

    def test_phase_convention(self):
        st = coherent_state(1j, 20)
        assert st[1] == pytest.approx(1j * math.exp(-0.5), abs=1e-12)


class TestDisplacementMatrix:
    def test_zero_is_identity(self):
        op = displacement_matrix(0.0, 12)
        assert np.allclose(op, np.eye(12), atol=1e-15)

    def test_first_column_is_coherent_state(self):
        alpha = 0.8 - 0.3j
        op = displacement_matrix(alpha, 40)
        coh = coherent_state(alpha, 40)
        assert np.allclose(op[:, 0], coh, atol=1e-10)

    def test_vacuum_matrix_element(self):
        op = displacement_matrix(1.0, 40)
        assert op[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_inverse_on_quarter_block(self):
        # D(a) D(-a) = 1 on the lowest quarter block for |a| <= 2
        cutoff = 64
        for alpha in (0.7, 1.4 + 0.8j, 2.0, -1.9j):
            d = displacement_matrix(alpha, cutoff)
            dm = displacement_matrix(-alpha, cutoff)
            quarter = cutoff // 4
            prod = (d @ dm)[:quarter, :quarter]
            assert np.max(np.abs(prod - np.eye(quarter))) < 1e-8

    def test_unitarity_on_half_block(self):
        # D(a)^+ D(a) = 1 on the half block; the top of the block needs
        # headroom of roughly cutoff >= 24 |a|^2, well inside the coherent
        # guard for these amplitudes
        for alpha, cutoff in ((0.7, 64), (1.5, 64), (1.4 + 0.8j, 64), (2.0, 96)):
            d = displacement_matrix(alpha, cutoff)
            half = cutoff // 2
            gram = (d.conj().T @ d)[:half, :half]
            assert np.max(np.abs(gram - np.eye(half))) < 1e-8

    def test_guard(self):
        with pytest.raises(TruncationError):
            displacement_matrix(4.0, 20)

    def test_displaced_vacuum_projector_is_valid_povm_element(self):
        cutoff = 24
        d = displacement_matrix(0.9 + 0.4j, cutoff)
        proj = np.outer(d[:, 0], d[:, 0].conj())
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-14
        eigs = np.linalg.eigvalsh(proj)
        assert eigs.min() > -1e-12 and eigs.max() < 1.0 + 1e-12


class TestOracleQJoint:
    def test_vacuum_orthogonal(self):
        assert oracle_q_joint(1, 0.0, 0.0, 20) == 0.0

    def test_reference_value(self):
        assert oracle_q_joint(1, 1.0, -1.0, 40) == pytest.approx(
            2.0 * math.exp(-2.0), abs=1e-12
        )

    def test_equal_settings_vanish(self):
        for alpha in (0.5, 1.0 + 0.5j):
            assert oracle_q_joint(2, alpha, alpha, 40) < 1e-28

    def test_guard(self):
        with pytest.raises(TruncationError):
            oracle_q_joint(1, 4.0, 0.0, 20)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(100)
        alphas = random_amplitudes(rng, 30, 2.0)
        betas = random_amplitudes(rng, 30, 2.0)
        for n in (1, 2, 3):
            for a, b in zip(alphas, betas):
                assert oracle_q_joint(n, a, b, 48) == pytest.approx(
                    q_joint(n, a, b), abs=1e-9
                )

    def test_matches_log_space_closed_form(self):
        # the n > 20 code path of the closed form against the brute force
        n, cutoff = 25, 40
        for a, b in ((0.8, -0.8), (0.5 + 0.5j, -0.6)):
            assert oracle_q_joint(n, a, b, cutoff) == pytest.approx(
                q_joint(n, a, b), abs=1e-12
            )


class TestOracleParity:
    def test_origin_total_photon_parity(self):
        for n in (1, 2, 3, 4):
            assert oracle_parity_corr(n, 0.0, 0.0, 20) == pytest.approx(
                (-1.0) ** n, abs=1e-12
            )

    def test_matches_closed_form_reference_points(self):
        assert oracle_parity_corr(1, 0.5, 0.5, 40) == pytest.approx(
            parity_corr(1, 0.5, 0.5), abs=1e-8
        )
        assert oracle_parity_corr(2, 0.3j, 0.7, 40) == pytest.approx(
            parity_corr(2, 0.3j, 0.7), abs=1e-8
        )

    def test_guard_names_required_cutoff(self):
        with pytest.raises(TruncationError) as exc:
            oracle_parity_corr(2, 1.5, 0.0, 16)
        assert exc.value.required_cutoff == default_cutoff(2, 1.5, 0.0)


class TestDenseReference:
    """The library builds only the rows of D(alpha) that meet the state's
    amplitudes; ``handcoded`` keeps the dense matrices it replaced."""

    @pytest.mark.parametrize("alpha,cutoff", [
        (0.0, 1), (0.0, 16), (0.7, 2), (0.7, 16), (1.3 + 0.4j, 40), (-1.1j, 64),
        (2.0, 16), (2.0, 64), (4.0, 64), (-3.0 + 4.0j, 100), (1.5 - 2.0j, 128),
    ])
    def test_displacement_matrix_bitwise(self, alpha, cutoff):
        # (2, 16), (4, 64) and (-3+4i, 100) sit on the guard's edge |a|^2 = cutoff/4
        ours = displacement_matrix(alpha, cutoff)
        dense = handcoded.displacement_matrix(alpha, cutoff)
        assert ours.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("rows", [[0], [0, 1], [0, 5], [2, 7, 11], [39]])
    @pytest.mark.parametrize("alpha", [0.0, 1.3 + 0.4j, -2.0j])
    def test_row_subset_bitwise(self, rows, alpha):
        rows = np.array(rows)
        part = fock._displacement_rows(alpha, 40, rows)
        assert part.tobytes() == displacement_matrix(alpha, 40)[rows].tobytes()

    @pytest.mark.parametrize("cutoff", [32, 64])
    def test_oracle_matches_dense(self, cutoff):
        rng = np.random.default_rng(cutoff)
        for n in range(1, 6):
            for a, b in zip(random_amplitudes(rng, 30, 2.0), random_amplitudes(rng, 30, 2.0)):
                assert abs(
                    oracle_parity_corr(n, a, b, cutoff)
                    - handcoded.oracle_parity_corr(n, a, b, cutoff)
                ) < 1e-15

    @given(
        n=st.integers(1, 5),
        alpha=st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        beta=st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    )
    @settings(max_examples=200, deadline=None)
    def test_oracle_matches_dense_at_default_cutoff(self, n, alpha, beta):
        cutoff = default_cutoff(n, alpha, beta)
        assert abs(
            oracle_parity_corr(n, alpha, beta, cutoff)
            - handcoded.oracle_parity_corr(n, alpha, beta, cutoff)
        ) < 1e-15

    @pytest.mark.parametrize("n,alpha,beta,cutoff", [
        (2, 1.5, 0.0, 16), (1, 0.0, 2.0j, 20), (5, 1.0 + 1.0j, -0.5, 20), (3, 3.0, 3.0, 40),
    ])
    def test_same_truncation_error(self, n, alpha, beta, cutoff):
        with pytest.raises(TruncationError) as ours:
            oracle_parity_corr(n, alpha, beta, cutoff)
        with pytest.raises(TruncationError) as dense:
            handcoded.oracle_parity_corr(n, alpha, beta, cutoff)
        assert ours.value.required_cutoff == dense.value.required_cutoff
        assert ours.value.amplitude == dense.value.amplitude

    def test_log_factorials_read_only(self):
        table = fock._log_factorials(16)
        assert not table.flags.writeable
        assert fock._log_factorials(16) is table


class TestSwapUnitary:
    def test_maps_one_photon_state_up(self):
        mapped = apply_swap_unitary(3, noon_state(1, 16))
        target = noon_state(3, 16)
        assert np.max(np.abs(mapped - target)) < 1e-12

    def test_identity_for_n_equal_one(self):
        st = noon_state(1, 16)
        mapped = apply_swap_unitary(1, st)
        assert np.array_equal(mapped, st)

    def test_fixes_vacuum(self):
        vac = np.outer(coherent_state(0.0, 8), coherent_state(0.0, 8))
        mapped = apply_swap_unitary(2, vac)
        assert np.array_equal(mapped, vac)

    def test_involution_on_random_state(self):
        rng = np.random.default_rng(8)
        st = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        st /= np.linalg.norm(st)
        twice = apply_swap_unitary(4, apply_swap_unitary(4, st))
        assert np.max(np.abs(twice - st)) < 1e-12

    def test_single_mode_vector(self):
        st = coherent_state(0.8 - 0.3j, 16)
        mapped = apply_swap_unitary(3, st)
        expected = st.copy()
        expected[[1, 3]] = st[[3, 1]]
        assert np.array_equal(mapped, expected)
        assert np.array_equal(apply_swap_unitary(3, mapped), st)

    @pytest.mark.parametrize("shape", [(8, 9), (4, 4, 4), ()])
    def test_rejects_non_square_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            apply_swap_unitary(2, np.zeros(shape, dtype=complex))

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            apply_swap_unitary(16, noon_state(1, 16))


class TestReadOnly:
    """Every array the oracle hands out is read-only, so a caller cannot
    corrupt a state that another computation still uses."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: noon_state(2, 8),
            lambda: coherent_state(0.6 + 0.2j, 8),
            lambda: coherent_state(0.0, 8),
            lambda: displacement_matrix(0.6 + 0.2j, 8),
            lambda: displacement_matrix(0.5, 8),
            lambda: apply_swap_unitary(2, noon_state(1, 8)),
            lambda: apply_swap_unitary(2, np.ones(8, dtype=complex)),
        ],
    )
    def test_not_writeable(self, make):
        arr = make()
        assert arr.dtype == np.complex128
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


class TestDefaultCutoff:
    def test_policy(self):
        assert default_cutoff(2, 1.0, 0.5) == math.ceil(4.0) + 2 + 10

    def test_no_amplitudes(self):
        assert default_cutoff(3) == 13


class TestScipyReference:
    """The log-factorial table and the generalized-Laguerre recurrence agree
    with scipy's special functions, the reference they replaced."""

    @pytest.fixture
    def special(self):
        return pytest.importorskip("scipy.special")

    @staticmethod
    def reference_displacement(special, alpha, cutoff):
        ns = np.arange(cutoff)
        m_idx, n_idx = np.meshgrid(ns, ns, indexing="ij")
        k_lo = np.minimum(m_idx, n_idx)
        diff = np.abs(m_idx - n_idx)
        x = abs(alpha) ** 2
        lag = special.eval_genlaguerre(k_lo, diff, x)
        log_ratio = special.gammaln(k_lo + 1.0) - special.gammaln(np.maximum(m_idx, n_idx) + 1.0)
        base = np.where(m_idx >= n_idx, alpha, -np.conjugate(alpha)) ** diff
        return np.exp(0.5 * log_ratio) * base * math.exp(-0.5 * x) * lag

    @pytest.mark.parametrize("cutoff", [1, 2, 5, 16, 64, 128])
    def test_displacement_matrix(self, special, cutoff):
        rng = np.random.default_rng(cutoff)
        for alpha in random_amplitudes(rng, 8, 0.99 * math.sqrt(cutoff / 4.0)):
            alpha = complex(alpha)
            expected = self.reference_displacement(special, alpha, cutoff)
            assert np.max(np.abs(displacement_matrix(alpha, cutoff) - expected)) < 1e-13

    @pytest.mark.parametrize("cutoff", [16, 64, 128])
    def test_coherent_state(self, special, cutoff):
        ns = np.arange(cutoff)
        for alpha in random_amplitudes(np.random.default_rng(cutoff), 8, math.sqrt(cutoff / 4.0)):
            alpha = complex(alpha)
            log_fact = special.gammaln(ns + 1.0)
            log_mag = -0.5 * abs(alpha) ** 2 + ns * math.log(abs(alpha)) - 0.5 * log_fact
            expected = np.exp(log_mag) * np.exp(1j * ns * np.angle(alpha))
            if 1.0 - np.sum(np.abs(expected) ** 2) < 1e-12:  # the library renormalizes
                expected = expected / np.linalg.norm(expected)
            got = coherent_state(alpha, cutoff)
            assert np.max(np.abs(got - expected)) < 1e-13

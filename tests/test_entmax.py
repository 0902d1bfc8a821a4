import numpy as np
import pytest

from sparseattn import (
    DEFAULT_PARAMS,
    SUPPORT_TOL,
    EntmaxParams,
    audit_sparse_attention,
    entmax,
    masked_entmax,
)
from sparseattn import _kernels

from oracles import entmax_bisect, softmax


def tau_of(z, alpha=1.5):
    """The threshold tau(z) of one score vector, solved as a one-row block."""
    return float(_kernels.solve_rows(np.asarray(z, dtype=np.float64)[None, :], alpha)[1][0])


class TestEntmax:
    def test_uniform_on_constant_scores(self):
        for c in (-7.2, 0.0, 3.7):
            np.testing.assert_allclose(entmax([c, c, c]), np.full(3, 1 / 3), atol=1e-12)

    def test_sparsemax_vertex(self):
        # gap >= 1 puts all mass on the max under alpha = 2
        p = entmax([1.0, 0.0], EntmaxParams(alpha=2.0))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=0)

    def test_matches_bisection_oracle_15(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.normal(0, 2, 8)
            p_oracle, _ = entmax_bisect(z, alpha=1.5)
            np.testing.assert_allclose(entmax(z), p_oracle, atol=1e-6)

    def test_matches_bisection_oracle_sparsemax(self):
        rng = np.random.default_rng(12)
        params = EntmaxParams(alpha=2.0)
        for _ in range(50):
            z = rng.normal(0, 2, 8)
            p_oracle, _ = entmax_bisect(z, alpha=2.0)
            np.testing.assert_allclose(entmax(z, params), p_oracle, atol=1e-6)

    def test_general_alpha_bisection_path(self):
        rng = np.random.default_rng(13)
        for alpha in (1.3, 1.7, 3.0):
            params = EntmaxParams(alpha=alpha)
            for _ in range(20):
                z = rng.normal(0, 2, 10)
                p_oracle, _ = entmax_bisect(z, alpha=alpha)
                np.testing.assert_allclose(entmax(z, params), p_oracle, atol=1e-6)

    def test_alpha_one_is_softmax(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=9)
        np.testing.assert_allclose(entmax(z, EntmaxParams(alpha=1.0)), softmax(z), atol=1e-12)

    def test_simplex_invariant(self):
        rng = np.random.default_rng(15)
        for alpha in (1.0, 1.3, 1.5, 2.0, 2.7):
            params = EntmaxParams(alpha=alpha)
            for _ in range(30):
                p = entmax(rng.normal(0, 3, rng.integers(1, 30)), params)
                assert p.min() >= 0
                assert abs(p.sum() - 1.0) <= 1e-9
                assert (p > SUPPORT_TOL).any()

    def test_softmax_limit(self):
        rng = np.random.default_rng(16)
        params = EntmaxParams(alpha=1.001)
        for _ in range(30):
            z = rng.uniform(-3, 3, 12)
            assert np.max(np.abs(entmax(z, params) - softmax(z))) < 1e-2

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=12)
        perm = rng.permutation(12)
        np.testing.assert_allclose(entmax(z[perm]), entmax(z)[perm], atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(18)
        z = rng.normal(size=10)
        for c in (-100.0, -1.5, 3.0, 250.0):
            np.testing.assert_allclose(entmax(z + c), entmax(z), atol=1e-9)

    def test_zeroing_rule(self):
        # p_j = 0 iff z_j <= tau / (alpha - 1)
        rng = np.random.default_rng(19)
        for alpha in (1.5, 2.0):
            params = EntmaxParams(alpha=alpha)
            for _ in range(30):
                z = rng.normal(0, 2, 16)
                p = entmax(z, params)
                cut = tau_of(z, alpha) / (alpha - 1.0)
                assert np.all(z[p > 0] > cut - 1e-9)
                assert np.all(z[p == 0] <= cut + 1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            entmax([])
        with pytest.raises(ValueError):
            entmax([1.0, np.nan])
        with pytest.raises(ValueError):
            EntmaxParams(alpha=0.5)
        with pytest.raises(ValueError):
            entmax([[1.0, 2.0]])

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_is_rejected(self, alpha):
        # nan gave nan probabilities and inf gave all ones, summing to 3
        with pytest.raises(ValueError, match="finite"):
            EntmaxParams(alpha=alpha)
        with pytest.raises(ValueError, match="finite"):
            audit_sparse_attention(seed=0, alpha=alpha)


class TestEntmaxTau:
    def test_symmetric_sparsemax(self):
        assert tau_of([0.0, 0.0], 2.0) == pytest.approx(-0.5, abs=1e-12)

    def test_vertex_sparsemax(self):
        assert tau_of([1.0, 0.0], 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            z = rng.normal(0, 2, 8)
            _, tau_oracle = entmax_bisect(z, alpha=1.5)
            assert tau_of(z) == pytest.approx(tau_oracle, abs=1e-9)

    def test_normalization_identity(self):
        rng = np.random.default_rng(22)
        for alpha in (1.5, 2.0, 1.7):
            z = rng.normal(0, 2, 12)
            tau = tau_of(z, alpha)
            total = np.sum(np.maximum((alpha - 1) * z - tau, 0) ** (1 / (alpha - 1)))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_alpha_one_is_log_sum_exp(self):
        # softmax has no finite threshold; its tau is the normaliser, p = exp(z - tau)
        z = np.array([1.0, 2.0, -0.5])
        assert tau_of(z, 1.0) == pytest.approx(np.log(np.exp(z).sum()), abs=1e-12)


class TestMaskedEntmax:
    def test_full_mask_is_identity(self):
        rng = np.random.default_rng(31)
        z = rng.normal(size=10)
        np.testing.assert_array_equal(masked_entmax(z, np.ones(10, bool)), entmax(z))

    def test_restriction_of_dominant_support(self):
        z = np.array([5.0, 0.0, 0.0])
        p = entmax(z)
        assert list(p > SUPPORT_TOL) == [True, False, False]
        p_masked = masked_entmax(z, [True, True, False])
        np.testing.assert_allclose(p_masked, p, atol=1e-12)
        assert p_masked[2] == 0.0

    def test_single_true_mask_is_one_hot(self):
        z = np.array([0.3, -2.0, 1.1, 4.0])
        p = masked_entmax(z, [False, True, False, False])
        np.testing.assert_array_equal(p, [0.0, 1.0, 0.0, 0.0])

    def test_all_false_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_entmax([1.0, 2.0], [False, False])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            masked_entmax([1.0, 2.0], [True])


def masking_keeps_entmax(z, mask, params=DEFAULT_PARAMS):
    """Whether entmax restricted to ``mask`` equals entmax of all of z
    within 1e-9: exactly the case when ``mask`` covers the support."""
    return bool(np.max(np.abs(masked_entmax(z, mask, params) - entmax(z, params))) <= 1e-9)


class TestSparseConsistency:
    def test_full_mask_true(self):
        rng = np.random.default_rng(41)
        assert masking_keeps_entmax(rng.normal(size=12), np.ones(12, bool))

    def test_exact_support_mask(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = rng.normal(size=16)
            assert masking_keeps_entmax(z, entmax(z) > SUPPORT_TOL)

    def test_support_plus_extra_bits(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            z = rng.normal(size=16)
            mask = entmax(z) > SUPPORT_TOL
            off = np.flatnonzero(~mask)
            if off.size:
                mask = mask.copy()
                mask[rng.choice(off, size=min(3, off.size), replace=False)] = True
            assert masking_keeps_entmax(z, mask)

    def test_property_1000_random_pairs(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            z = rng.normal(0, 2, rng.integers(2, 32))
            mask = entmax(z) > SUPPORT_TOL
            extra = ~mask & (rng.random(z.size) < 0.4)
            assert masking_keeps_entmax(z, mask | extra)

    def test_non_dominating_mask_changes_probabilities(self):
        z = np.array([5.0, 4.9, -10.0])
        mask = np.array([True, False, True])  # drops an in-support entry
        assert entmax(z)[1] > SUPPORT_TOL
        assert not masking_keeps_entmax(z, mask)


class TestAudit:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            audit_sparse_attention(seed=0, alpha=0.5)

"""Model law, exact synthesis, and the Hurst estimator.

Closed-form expectations are frozen from high-precision evaluation with
mpmath; Monte-Carlo checks use pinned seeds and standard-error bands
estimated from the replicates themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdshift.fgn as fgn_module
from lrdshift import (
    FgnSampler,
    LrdModel,
    TimeSeries,
    estimate_hurst,
    fbm_cov,
    fgn_acf,
    subseed,
    synthesize_fgn,
)
from oracles import synthesize_fgn_cholesky

# 0.5 * (2**1.8 - 2), the lag-1 autocovariance at H = 0.9
LAG1_H09 = 0.7411011265922483


def sample_paths(model, n, reps, seed):
    """``(reps, n)`` paths from one sampler; row ``i`` uses ``subseed(seed, i)``."""
    sampler = FgnSampler(model, n)
    return np.stack([sampler.sample(subseed(seed, i)).values for i in range(reps)])


class TestModelValidation:
    @pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.7])
    def test_hurst_outside_open_interval_rejected(self, hurst):
        with pytest.raises(ValueError, match="hurst"):
            LrdModel(hurst=hurst)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            LrdModel(hurst=0.5, sigma=sigma)

    def test_time_series_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 2)))


class TestAutocovariance:
    def test_lag_zero_is_marginal_variance(self):
        assert fgn_acf(LrdModel(0.9), 0) == pytest.approx(1.0, abs=1e-15)
        assert fgn_acf(LrdModel(0.3, sigma=2.0), 0) == pytest.approx(4.0, abs=1e-14)

    def test_half_is_white_noise(self):
        model = LrdModel(0.5)
        for h in (1, 2, 3, 100):
            assert fgn_acf(model, h) == pytest.approx(0.0, abs=1e-12)

    def test_lag_one_frozen_value(self):
        assert fgn_acf(LrdModel(0.9), 1) == pytest.approx(LAG1_H09, abs=1e-12)

    def test_array_argument(self):
        model = LrdModel(0.7)
        values = fgn_acf(model, np.arange(5))
        assert values.shape == (5,)
        assert values[0] == pytest.approx(1.0)

    def test_positive_and_decreasing_for_persistent_models(self):
        """For H > 1/2 the autocovariance is positive and strictly decreasing."""
        for hurst in (0.6, 0.75, 0.9):
            gamma = fgn_acf(LrdModel(hurst), np.arange(1, 1001))
            assert np.all(gamma > 0.0), f"H={hurst}: non-positive autocovariance"
            assert np.all(np.diff(gamma) < 0.0), f"H={hurst}: not strictly decreasing"

    def test_polynomial_tail_rate(self):
        """gamma(h) ~ sigma^2 H(2H-1) h^{2H-2}: ratio within 1% at h = 10^4."""
        hurst = 0.9
        h = 10**4
        gamma = fgn_acf(LrdModel(hurst), h)
        tail = hurst * (2 * hurst - 1) * h ** (2 * hurst - 2)
        assert gamma / tail == pytest.approx(1.0, abs=0.01)

    @given(
        hurst=st.floats(min_value=0.05, max_value=0.95),
        sigma=st.floats(min_value=0.1, max_value=10.0),
        h=st.integers(min_value=0, max_value=10**4),
    )
    def test_matches_increment_covariance_of_integrated_process(self, hurst, sigma, h):
        """The noise autocovariance is the unit-increment covariance of the
        integrated process: cov(B(1)-B(0), B(h+1)-B(h))."""
        model = LrdModel(hurst, sigma)
        increment_cov = (
            fbm_cov(model, 1, h + 1) - fbm_cov(model, 1, h) - (fbm_cov(model, 0, h + 1) - fbm_cov(model, 0, h))
        )
        assert fgn_acf(model, h) == pytest.approx(increment_cov, rel=1e-9, abs=1e-9)

    @given(hurst=st.floats(min_value=0.05, max_value=0.95), h=st.integers(min_value=1, max_value=1000))
    def test_bounded_by_lag_zero(self, hurst, h):
        model = LrdModel(hurst)
        assert abs(fgn_acf(model, h)) <= fgn_acf(model, 0) + 1e-12


class TestIntegratedCovariance:
    def test_zero_time(self):
        assert fbm_cov(LrdModel(0.7), 0, 5) == 0.0

    def test_brownian_case_is_min(self):
        assert fbm_cov(LrdModel(0.5), 2, 3) == pytest.approx(2.0, abs=1e-12)

    def test_frozen_value(self):
        # 0.5 * (1 + 2**1.8 - 1)
        assert fbm_cov(LrdModel(0.9), 1, 2) == pytest.approx(1.7411011265922483, abs=1e-12)

    def test_variance_scaling(self):
        model = LrdModel(0.8, sigma=1.5)
        assert fbm_cov(model, 3, 3) == pytest.approx(3 ** 1.6 * 1.5 ** 2, rel=1e-12)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            fbm_cov(LrdModel(0.5), -1, 2)


class TestSynthesis:
    def test_deterministic_and_repeatable(self):
        model = LrdModel(0.9)
        a = synthesize_fgn(model, 64, seed=5)
        b = synthesize_fgn(model, 64, seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, synthesize_fgn(model, 64, seed=6).values)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            synthesize_fgn(LrdModel(0.5), 0, seed=1)

    def test_white_noise_variance(self):
        """H = 1/2 gives i.i.d. N(0,1): pooled sample variance over 500
        replicate paths of length 2048 within 3 SE of 1."""
        paths = sample_paths(LrdModel(0.5), 2048, 500, seed=21)
        per_path = paths.var(axis=1, ddof=1)
        se = per_path.std(ddof=1) / np.sqrt(len(per_path))
        assert abs(per_path.mean() - 1.0) < 3 * se, f"mean var {per_path.mean():.5f}, SE {se:.5f}"

    def test_lag_one_autocovariance_h09(self):
        """Average lag-1 sample autocovariance over 500 replicates within
        3 SE of the closed form 0.7411 (mean known to be zero)."""
        paths = sample_paths(LrdModel(0.9), 2048, 500, seed=22)
        per_path = (paths[:, :-1] * paths[:, 1:]).mean(axis=1)
        se = per_path.std(ddof=1) / np.sqrt(len(per_path))
        assert abs(per_path.mean() - LAG1_H09) < 3 * se, (
            f"lag-1 {per_path.mean():.5f} vs {LAG1_H09:.5f}, SE {se:.5f}"
        )

    def test_single_sample_is_standard_normal(self):
        draws = sample_paths(LrdModel(0.9), 1, 2000, seed=23).ravel()
        assert abs(draws.mean()) < 3 / np.sqrt(len(draws))
        var = draws.var(ddof=1)
        assert abs(var - 1.0) < 3 * np.sqrt(2.0 / len(draws)), f"var {var:.4f}"

    def test_sigma_scales_the_path(self):
        unit = synthesize_fgn(LrdModel(0.7, sigma=1.0), 32, seed=9)
        scaled = synthesize_fgn(LrdModel(0.7, sigma=2.5), 32, seed=9)
        assert np.allclose(scaled.values, 2.5 * unit.values, rtol=1e-12)

    @pytest.mark.parametrize("route", [synthesize_fgn, synthesize_fgn_cholesky])
    def test_joint_law_matches_theory(self, route):
        """Empirical covariance of 4000 length-8 paths matches the closed
        form entrywise within 4 SE, for both sampling routes."""
        model = LrdModel(0.9)
        reps = 4000
        paths = np.stack([route(model, 8, subseed(31, i)).values for i in range(reps)])
        empirical = paths.T @ paths / reps
        lags = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
        theoretical = fgn_acf(model, lags)
        variances = np.outer(np.diag(theoretical), np.diag(theoretical))
        se = np.sqrt((variances + theoretical**2) / reps)
        deviations = np.abs(empirical - theoretical) / se
        assert deviations.max() < 4.0, f"worst entry at {deviations.max():.2f} SE"

    def test_cholesky_route_rejects_long_paths(self):
        with pytest.raises(ValueError):
            synthesize_fgn_cholesky(LrdModel(0.5), 2048, seed=1)

    def test_negative_embedding_eigenvalue_raises(self, monkeypatch):
        """A covariance sequence that is not embeddable must be caught, not
        silently clipped into a wrong law."""

        def not_a_valid_acf(model, h):
            h = np.asarray(h)
            return np.where(h == 0, 1.0, np.where(h == 1, -0.9, 0.0))

        monkeypatch.setattr(fgn_module, "fgn_acf", not_a_valid_acf)
        with pytest.raises(RuntimeError, match="eigenvalue"):
            fgn_module.synthesize_fgn(LrdModel(0.5), 8, seed=1)


class TestHurstEstimator:
    def test_white_noise_median(self):
        estimates = [
            estimate_hurst(synthesize_fgn(LrdModel(0.5), 2**15, subseed(41, i)))
            for i in range(100)
        ]
        assert abs(np.median(estimates) - 0.5) < 0.05

    def test_persistent_median(self):
        estimates = [
            estimate_hurst(synthesize_fgn(LrdModel(0.9), 2**15, subseed(42, i)))
            for i in range(100)
        ]
        assert abs(np.median(estimates) - 0.9) < 0.07

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            estimate_hurst([1.0, 2.0, 3.0], block_sizes=[1, 2])

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            estimate_hurst(np.ones(1024), block_sizes=[2, 4, 8])

    def test_block_sizes_must_increase(self):
        x = np.random.default_rng(0).standard_normal(256)
        with pytest.raises(ValueError, match="increasing"):
            estimate_hurst(x, block_sizes=[4, 4, 8])

    def test_result_is_clamped(self):
        x = np.arange(256.0)  # strong trend pushes the raw slope out of range
        assert 0.01 <= estimate_hurst(x, block_sizes=[2, 4, 8, 16]) <= 0.99


@settings(max_examples=25, deadline=None)
@given(hurst=st.floats(min_value=0.1, max_value=0.9), n=st.integers(min_value=1, max_value=64))
def test_synthesis_is_total_on_small_sizes(hurst, n):
    path = synthesize_fgn(LrdModel(hurst), n, seed=3)
    assert len(path) == n
    assert np.all(np.isfinite(path.values))

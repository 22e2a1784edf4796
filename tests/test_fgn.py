"""Model law, exact synthesis, and the Hurst estimator.

Closed-form expectations are frozen from high-precision evaluation with
mpmath; Monte-Carlo checks use pinned seeds and standard-error bands
estimated from the replicates themselves.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdshift.fgn as fgn_module
from lrdshift import (
    FgnSampler,
    LrdModel,
    ScaleConfig,
    build_nowa,
    estimate_hurst,
    fbm_cov,
    fgn_acf,
    subseed,
    substream,
    synthesize_fgn,
)
from oracles import (
    estimate_hurst_reshape_mean,
    sample_half_spectrum,
    sample_path,
    synthesize_fgn_cholesky,
)

# 0.5 * (2**1.8 - 2), the lag-1 autocovariance at H = 0.9
LAG1_H09 = 0.7411011265922483


def sample_paths(model, n, reps, seed):
    """``(reps, n)`` paths from one sampler; row ``i`` uses ``subseed(seed, i)``."""
    sampler = FgnSampler(model, n)
    return np.stack([sampler.sample(subseed(seed, i)) for i in range(reps)])


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
        with pytest.raises(ValueError, match="values must be one-dimensional"):
            build_nowa(np.zeros((2, 2)), ScaleConfig(2, 1))


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
        integrated process: cov(B(1)-B(0), B(h+1)-B(h)).  ``fbm_cov`` runs on
        50-digit times here: in doubles its four terms near sigma^2 h^{2H}
        cancel to an error above the tolerance (1.5e-9 at H = 0.9375,
        sigma = 2, h = 3699)."""
        model = LrdModel(hurst, sigma)
        with mpmath.workdps(50):
            one, lag = mpmath.mpf(1), mpmath.mpf(h)
            increment_cov = float(
                fbm_cov(model, one, lag + 1) - fbm_cov(model, one, lag)
                - (fbm_cov(model, 0 * one, lag + 1) - fbm_cov(model, 0 * one, lag))
            )
        assert fgn_acf(model, h) == pytest.approx(increment_cov, rel=1e-9, abs=1e-9)

    @given(hurst=st.floats(min_value=0.05, max_value=0.95), h=st.integers(min_value=1, max_value=1000))
    def test_bounded_by_lag_zero(self, hurst, h):
        model = LrdModel(hurst)
        assert abs(fgn_acf(model, h)) <= fgn_acf(model, 0) + 1e-12

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9, 0.95, 0.99])
    def test_long_lags_match_mpmath(self, hurst):
        """The closed form cancels at long lags: at H = 0.9 its relative
        error was 5.8e-2 at 2^24.  The series form stays within 3e-16 (about
        one unit in the last place, from the rounding of the power, the sum
        and their product) at powers of two from 2 to 2^24, their
        neighbours, and 100 lags spaced evenly in log between them.  No
        double-precision form meets 2e-16: numpy's power alone errs by up
        to 1.25e-16, and rounding its product with the series adds 1.1e-16."""
        powers = 2 ** np.arange(1, 25)
        lags = np.unique(np.concatenate([powers, powers[:-1] + 1, powers[1:] - 1,
                                         np.geomspace(2, 2**24, 100).astype(np.int64)]))
        got = fgn_acf(LrdModel(hurst), lags)
        with mpmath.workdps(50):
            two_h = 2 * mpmath.mpf(hurst)
            for lag, value in zip(lags.tolist(), got.tolist()):
                exact = ((lag + 1) ** two_h - 2 * mpmath.mpf(lag) ** two_h
                         + (lag - 1) ** two_h) / 2
                assert abs(value - exact) <= 3e-16 * exact, f"lag {lag}: {value!r} vs {exact}"

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.9])
    def test_infinite_lag_is_zero(self, hurst):
        model = LrdModel(hurst, sigma=2.0)
        assert fgn_acf(model, np.inf) == 0.0
        assert fgn_acf(model, np.array([1.0, -np.inf, 2.0]))[1] == 0.0


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
        assert np.array_equal(a, b)
        assert not np.array_equal(a, synthesize_fgn(model, 64, seed=6))

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
        assert np.allclose(scaled, 2.5 * unit, rtol=1e-12)

    @pytest.mark.parametrize("route", [synthesize_fgn, synthesize_fgn_cholesky])
    def test_joint_law_matches_theory(self, route):
        """Empirical covariance of 4000 length-8 paths matches the closed
        form entrywise within 4 SE, for both sampling routes."""
        model = LrdModel(0.9)
        reps = 4000
        paths = np.stack([route(model, 8, subseed(31, i)) for i in range(reps)])
        empirical = paths.T @ paths / reps
        lags = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
        theoretical = fgn_acf(model, lags)
        variances = np.outer(np.diag(theoretical), np.diag(theoretical))
        se = np.sqrt((variances + theoretical**2) / reps)
        deviations = np.abs(empirical - theoretical) / se
        assert deviations.max() < 4.0, f"worst entry at {deviations.max():.2f} SE"

    @pytest.mark.parametrize("hurst", [0.9, 0.95])
    def test_long_paths_pass_the_embedding_guard(self, hurst):
        """At n = 2^22 the cancelling closed form gave the embedding a
        negative eigenvalue (-0.33 at H = 0.9, -2.1 at H = 0.95)."""
        path = synthesize_fgn(LrdModel(hurst), 2**22, seed=1)
        assert len(path) == 2**22
        assert np.all(np.isfinite(path))

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


class TestSamplerBuffers:
    """The sampler draws into buffers it owns and returns a fresh path."""

    @pytest.mark.parametrize("hurst", [0.55, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 2**15])
    def test_equals_the_fresh_array_path_bit_for_bit(self, n, hurst):
        model = LrdModel(hurst)
        sampler = FgnSampler(model, n)
        eigenvalues = fgn_module._embedding_eigenvalues(model, n)
        for seed in (subseed(3, 0), subseed(3, 1), 11):
            expected = sample_half_spectrum(eigenvalues, n, substream(seed))
            assert np.array_equal(sampler.sample(seed), expected)

    @pytest.mark.parametrize("hurst", [0.55, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 2**15])
    def test_agrees_with_the_complex_fft_path(self, n, hurst):
        """The half spectrum's real inverse FFT is the full Hermitian
        spectrum's complex FFT in exact arithmetic; they differ by rounding."""
        model = LrdModel(hurst)
        sampler = FgnSampler(model, n)
        eigenvalues = fgn_module._embedding_eigenvalues(model, n)
        mirrored = np.concatenate([eigenvalues, eigenvalues[-2:0:-1]])
        for seed in (subseed(3, 0), subseed(3, 1), 11):
            expected = sample_path(mirrored, n, substream(seed))
            assert np.abs(sampler.sample(seed) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_paths_share_no_memory(self):
        sampler = FgnSampler(LrdModel(0.9), 64)
        first, second = (sampler.sample(seed) for seed in (1, 2))
        kept = first.copy()
        owned = [value for value in vars(sampler).values() if isinstance(value, np.ndarray)]
        assert owned
        for path in (first, second):
            assert path.flags.owndata
            for array in [*owned, *(other for other in (first, second) if other is not path)]:
                assert not np.shares_memory(path, array)
        sampler.sample(3)
        assert np.array_equal(first, kept)

    def test_one_sample_is_bounded_in_memory(self):
        """Besides the 2n-point real array numpy's inverse FFT returns (16n
        bytes), one ``sample`` call at n = 2^15 allocates below 2 * 8n
        bytes at its peak: the returned path and no per-call copy of the
        normals, the half spectrum or the eigenvalues.  It peaks at 24n
        bytes (0.75 MiB), and the fresh-array path at 1.75 MiB; the bound
        is the one set when the FFT returned a 2n-point complex array."""
        n = 2**15
        sampler = FgnSampler(LrdModel(0.9), n)
        sampler.sample(1)
        tracemalloc.start()
        try:
            sampler.sample(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n + 32 * n, f"peak {peak} bytes"


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
            estimate_hurst([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="too short"):
            estimate_hurst(np.random.default_rng(0).standard_normal(15))

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            estimate_hurst(np.ones(1024))

    def test_overflowing_variance_rejected(self):
        """The size-2 block sums overflow to ±inf, so their variance is NaN,
        which made the fit NaN.  The refit on the power-of-two-scaled series
        finds its size-4 block means all 0."""
        x = np.tile([1.79e308, 1.79e308, -1.79e308, -1.79e308], 16)
        with pytest.raises(ValueError, match="zero variance at some block size"):
            estimate_hurst(x)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_huge_series_gives_the_estimate_of_the_plain_one(self, seed):
        """The squares of block means near 1e200 overflow; the regression then
        runs on the variances of the power-of-two-scaled series."""
        x = synthesize_fgn(LrdModel(0.8), 4096, subseed(44, seed))
        assert abs(estimate_hurst(1e200 * x) - estimate_hurst(x)) <= 1e-12

    @pytest.mark.parametrize("scale", [1.5e308, 1e-200], ids=["sums-overflow", "squares-underflow"])
    def test_a_series_at_either_end_of_the_doubles_gives_the_estimate_of_the_plain_one(self, scale):
        """Block sums of values near 1.5e308 overflow before any variance is
        taken, and the squared deviations of values near 1e-200 underflow to
        0; H does not depend on the scale, so the estimate is that of 1 + 0.01 w."""
        w = np.random.default_rng(0).standard_normal(4096)
        assert abs(estimate_hurst(scale * (1 + 0.01 * w)) - estimate_hurst(1 + 0.01 * w)) <= 1e-12

    @pytest.mark.parametrize("hurst,n,seed,expected", [
        (0.7, 4096, 1, "0.6685020746799653"),
        (0.9, 2**15, 2, "0.857305670013468"),
        (0.55, 1000, 3, "0.5040850221072843"),
    ])
    def test_ordinary_estimates_are_pinned(self, hurst, n, seed, expected):
        """Series whose variances are all finite take no refit, so their
        estimates keep their bits."""
        assert repr(estimate_hurst(synthesize_fgn(LrdModel(hurst), n, seed))) == expected

    def test_result_is_clamped(self):
        x = np.arange(256.0)  # strong trend pushes the raw slope out of range
        assert 0.01 <= estimate_hurst(x) <= 0.99

    @pytest.mark.parametrize("hurst", [0.5, 0.7, 0.9, 0.99])
    @pytest.mark.parametrize("n", [16, 17, 255, 256, 4097, 2**15])
    def test_matches_reshape_mean_oracle(self, hurst, n):
        """The pyramid's block means give the regression of the reshape-mean
        block means, up to the rounding of the two summation orders."""
        x = synthesize_fgn(LrdModel(hurst), n, subseed(43, n))
        assert abs(estimate_hurst(x) - estimate_hurst_reshape_mean(x)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(hurst=st.floats(min_value=0.1, max_value=0.9), n=st.integers(min_value=1, max_value=64))
def test_synthesis_is_total_on_small_sizes(hurst, n):
    path = synthesize_fgn(LrdModel(hurst), n, seed=3)
    assert len(path) == n
    assert np.all(np.isfinite(path))

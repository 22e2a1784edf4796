"""Cross-scale correlation, calibrated thresholds, and power functions.

Closed forms are checked against arbitrary-precision evaluation (mpmath)
and against brute-force enumeration oracles; Monte-Carlo outputs are
checked against exact bivariate-normal quadrature where available.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import multivariate_normal

from lrdshift import (
    LrdModel,
    ThresholdQuery,
    ThresholdResult,
    asymptotic_threshold,
    compute_threshold,
    cross_scale_corr,
    fgn_acf,
    improved_threshold,
    power_gap,
    power_single_scale,
    power_two_scale,
    scale_cov_matrix,
    single_scale_threshold,
    two_scale_expansion,
)

mp.mp.dps = 30


def mp_phi_inv(p: float) -> float:
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


def mp_phi(x: float) -> float:
    return float(mp.ncdf(x))


def brute_force_window_corr(hurst: float, small: int, big: int) -> float:
    """Correlation of two backward windows ending at the same position,
    by direct double summation of the autocovariance."""
    model = LrdModel(hurst)
    lags = np.abs(np.subtract.outer(np.arange(small), np.arange(big)))
    cov = fgn_acf(model, lags).sum()
    return cov / (small**hurst * big**hurst)


def exact_two_scale_threshold(alpha: float, rho: float) -> float:
    """Root of the exact bivariate rectangle probability (quadrature oracle)."""
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])

    def coverage(c):
        return (
            mvn.cdf([c, c]) - mvn.cdf([-c, c]) - mvn.cdf([c, -c]) + mvn.cdf([-c, -c])
        )

    return brentq(lambda c: coverage(c) - (1 - alpha), 1.0, 6.0, xtol=1e-10)


class TestNormalQuantileAccuracy:
    def test_against_arbitrary_precision(self):
        """The inverse normal CDF we rely on must be accurate to 1e-9
        absolute across (1e-12, 1 - 1e-12)."""
        grid = [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        grid += [1 - p for p in (1e-3, 1e-6, 1e-9, 1e-12)]
        for p in grid:
            assert abs(float(ndtri(p)) - mp_phi_inv(p)) < 1e-9, f"p={p}"


class TestCrossScaleCorr:
    def test_zero_lag(self):
        assert cross_scale_corr(0.9, 2, 0) == 1.0

    def test_white_noise_adjacent_scales(self):
        assert cross_scale_corr(0.5, 2, 1) == pytest.approx(2 ** -0.5, abs=1e-14)

    def test_frozen_values_h09(self):
        assert cross_scale_corr(0.9, 2, 1) == pytest.approx(0.9330329915368074, abs=1e-12)
        assert cross_scale_corr(0.9, 2, 2) == pytest.approx(0.8473170205499339, abs=1e-12)

    @pytest.mark.parametrize("hurst", [0.55, 0.7, 0.9])
    @pytest.mark.parametrize("base,lag", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 2)])
    def test_matches_double_sum_enumeration(self, hurst, base, lag):
        """The closed form equals the window correlation computed by direct
        enumeration of the autocovariance over both windows."""
        small, big = 1, base**lag
        expected = brute_force_window_corr(hurst, small, big)
        assert cross_scale_corr(hurst, base, lag) == pytest.approx(expected, rel=1e-10)

    def test_ratio_invariance(self):
        """Only the window ratio matters: scales (j, k) correlate like
        (1, b^(k-j)); verified by enumeration for a non-unit small window."""
        hurst, base = 0.8, 2
        expected = brute_force_window_corr(hurst, 4, 32)  # ratio 8 = 2^3
        assert cross_scale_corr(hurst, base, 3) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
    def test_large_lag_expansion(self, hurst):
        """rho(k) ~ H b^{k(H-1)} + b^{-kH}/2 for large k; the stable
        evaluation keeps the ratio within 1e-5 of 1 at k = 20."""
        k, base = 20, 2
        leading = hurst * base ** (k * (hurst - 1)) + base ** (-k * hurst) / 2
        assert cross_scale_corr(hurst, base, k) / leading == pytest.approx(1.0, abs=1e-5)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            cross_scale_corr(0.9, 2, -1)


class TestScaleCovMatrix:
    def test_single_scale(self):
        assert np.array_equal(scale_cov_matrix(0.9, 2, 1), [[1.0]])

    def test_white_noise_two_scales(self):
        cov = scale_cov_matrix(0.5, 2, 2)
        assert cov == pytest.approx(np.array([[1.0, 2**-0.5], [2**-0.5, 1.0]]), abs=1e-12)

    @pytest.mark.parametrize("base", [2, 3])
    def test_equals_scipy_toeplitz(self, base):
        from scipy.linalg import toeplitz

        for m in range(1, 21):
            first = np.array([cross_scale_corr(0.9, base, k) for k in range(m)])
            assert np.array_equal(scale_cov_matrix(0.9, base, m), toeplitz(first))

    def test_structure_at_fifteen_scales(self):
        cov = scale_cov_matrix(0.9, 2, 15)
        assert np.allclose(cov, cov.T)
        assert np.allclose(np.diag(cov), 1.0)
        off = cov[0, 1:]
        assert np.all((off > 0.0) & (off < 1.0))
        assert np.all(np.diff(off) < 0.0), "rows must decay away from the diagonal"
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10


class TestClosedFormThresholds:
    def test_single_scale_frozen(self):
        assert single_scale_threshold(0.05).value == pytest.approx(1.9599639845400545, abs=1e-9)

    @pytest.mark.parametrize(
        "m,expected",
        [(1, 1.9545083272139924), (2, 2.234002475225012), (15, 2.9275327016162911)],
    )
    def test_asymptotic_frozen(self, m, expected):
        result = asymptotic_threshold(0.05, m)
        assert result.value == pytest.approx(expected, abs=1e-9)
        assert result.mc_standard_error == 0.0

    def test_asymptotic_matches_oracle_elsewhere(self):
        for alpha, m in ((0.01, 5), (0.2, 3)):
            expected = mp_phi_inv(float((1 - mp.mpf(alpha)) ** (mp.mpf(1) / (2 * m))))
            assert asymptotic_threshold(alpha, m).value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError):
            asymptotic_threshold(alpha, 3)


class TestImprovedThreshold:
    def test_single_scale_reduces_to_two_sided_quantile(self):
        result = improved_threshold(
            ThresholdQuery(alpha=0.05, num_scales=1, hurst=0.9, mc_reps=10**6, seed=101)
        )
        assert abs(result.value - 1.9599639845400545) < 2 * result.mc_standard_error

    def test_deterministic_given_seed(self):
        query = ThresholdQuery(alpha=0.05, num_scales=5, hurst=0.8, mc_reps=150_000, seed=7)
        assert improved_threshold(query).value == improved_threshold(query).value

    def test_ordering_and_monotonicity(self):
        """Single-scale <= improved <= asymptotic + 2 SE; improved grows
        with the scale count and shrinks as the Hurst parameter grows."""
        alpha, reps = 0.05, 2 * 10**5
        values = {}
        for hurst in (0.75, 0.9):
            for m in (2, 10):
                result = improved_threshold(
                    ThresholdQuery(alpha=alpha, num_scales=m, hurst=hurst, mc_reps=reps, seed=102)
                )
                values[hurst, m] = result
                assert result.value >= single_scale_threshold(alpha).value
                assert result.value <= asymptotic_threshold(alpha, m).value + 2 * result.mc_standard_error
        assert values[0.75, 2].value < values[0.75, 10].value
        assert values[0.9, 2].value < values[0.9, 10].value
        assert values[0.9, 2].value < values[0.75, 2].value
        assert values[0.9, 10].value < values[0.75, 10].value

    def test_two_scale_matches_quadrature_oracle(self):
        """The Monte-Carlo quantile agrees with the exact bivariate
        threshold within 3 SE."""
        alpha, rho = 0.05, cross_scale_corr(0.8, 2**9, 1)
        exact = exact_two_scale_threshold(alpha, rho)
        result = improved_threshold(
            ThresholdQuery(alpha=alpha, num_scales=2, hurst=0.8, base=2**9, mc_reps=10**6, seed=103)
        )
        assert abs(result.value - exact) < 3 * result.mc_standard_error, (
            f"MC {result.value:.5f} vs exact {exact:.5f} (SE {result.mc_standard_error:.5f})"
        )

    def test_rejects_wrong_kind_and_small_reps(self):
        with pytest.raises(ValueError, match="mc_reps"):
            improved_threshold(ThresholdQuery(alpha=0.05, num_scales=2, mc_reps=100))

    def test_compute_threshold_dispatch(self):
        query = ThresholdQuery(alpha=0.05, num_scales=3, hurst=0.7, mc_reps=10**4, seed=1)
        assert compute_threshold(query, "single_scale") == single_scale_threshold(0.05)
        assert compute_threshold(query, "asymptotic") == asymptotic_threshold(0.05, 3)
        mc = compute_threshold(query, "monte_carlo")
        assert mc == improved_threshold(query)
        assert mc.kind == "monte_carlo" and mc.mc_standard_error > 0.0
        for unknown in ("improved", "given", ""):
            with pytest.raises(ValueError, match=f"unknown threshold kind {unknown!r}"):
                compute_threshold(query, unknown)

    def test_result_requires_positive_value(self):
        with pytest.raises(ValueError):
            ThresholdResult(value=0.0, kind="asymptotic")


class TestTwoScaleExpansion:
    def test_limit_constant(self):
        # expansion -> Phi^{-1}((1 + sqrt(0.95))/2) as the window grows
        c0 = mp_phi_inv(float((1 + mp.sqrt(mp.mpf(1) - mp.mpf("0.05"))) / 2))
        assert c0 == pytest.approx(2.2364766445577923, abs=1e-9)
        assert two_scale_expansion(0.05, 0.5, 10**9) == pytest.approx(c0, abs=1e-6)

    def test_direct_evaluation(self):
        """Formula equals independently composed arithmetic at
        (alpha=0.05, H=0.5, L=100)."""
        c0 = 2.2364766445577923
        phi_c0 = np.exp(-0.5 * c0**2) / np.sqrt(2 * np.pi)
        expected = c0 - phi_c0 * c0**2 * 0.25 * 1e-2 / (2 * np.sqrt(0.95))
        assert two_scale_expansion(0.05, 0.5, 100) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.2362667728444035, abs=1e-10)

    def test_approaches_exact_threshold(self):
        """The expansion's gap to the exact two-scale threshold shrinks as
        the window grows (quadrature oracle; deterministic)."""
        alpha, hurst = 0.05, 0.8
        gaps = []
        for big_window in (2**6, 2**9, 2**12):
            rho = cross_scale_corr(hurst, big_window, 1)
            gaps.append(abs(two_scale_expansion(alpha, hurst, big_window) - exact_two_scale_threshold(alpha, rho)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_window_validation(self):
        with pytest.raises(ValueError):
            two_scale_expansion(0.05, 0.8, 1)


class TestPowerSingleScale:
    def test_null_returns_alpha(self):
        assert power_single_scale(1.9599639845400545, 0.0) == pytest.approx(0.05, abs=1e-12)
        assert power_single_scale(1.96, 0.0) == pytest.approx(0.05, abs=1e-4)

    def test_frozen_value(self):
        assert power_single_scale(1.96, 1.0) == pytest.approx(0.17006580267857587, abs=1e-12)

    def test_large_shift_limit(self):
        assert power_single_scale(1.96, 100.0) == pytest.approx(1.0, abs=1e-15)

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            power_single_scale(0.0, 1.0)


class TestPowerTwoScale:
    def test_null_calibration(self):
        """With no shift the rejection rate is alpha (small extra slack for
        the Monte-Carlo threshold's own error)."""
        reps = 4 * 10**5
        rate = power_two_scale(0.05, 0.0, 0.9, 1024, 1, reps=reps, seed=104)
        se = np.sqrt(0.05 * 0.95 / reps)
        assert abs(rate - 0.05) < 3 * se + 1e-3, f"rate {rate:.5f}"

    def test_matches_exact_rectangle_probability(self):
        """Monte-Carlo power agrees with exact bivariate quadrature."""
        alpha, delta, hurst, big = 0.05, 1.0, 0.9, 2**10
        reps = 2 * 10**5
        rho = cross_scale_corr(hurst, big, 1)
        mu = big * delta / big**hurst
        critical = exact_two_scale_threshold(alpha, rho)
        mvn = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]])

        def rect(c, m1, m2):
            return (
                mvn.cdf([c - m1, c - m2])
                - mvn.cdf([-c - m1, c - m2])
                - mvn.cdf([c - m1, -c - m2])
                + mvn.cdf([-c - m1, -c - m2])
            )

        exact_power = 1.0 - rect(critical, delta, mu)
        mc_power = power_two_scale(alpha, delta, hurst, big, big, reps=reps, seed=105)
        se = np.sqrt(exact_power * (1 - exact_power) / reps)
        assert abs(mc_power - exact_power) < 4 * se + 2e-3, (
            f"MC {mc_power:.5f} vs exact {exact_power:.5f}"
        )

    def test_large_window_independence_approximation(self):
        """For large windows the power approaches the independent-scales
        closed form 1 - P(|N(delta,1)| <= C0) P(|N(mu,1)| <= C0); at
        L = 2^10 the residual dependence still contributes a few percent."""
        alpha, delta, hurst, big = 0.05, 1.0, 0.9, 2**10
        mu = big * delta / big**hurst
        c0 = ndtri((1 + np.sqrt(1 - alpha)) / 2)
        leading = 1.0 - (mp_phi(c0 - delta) - mp_phi(-c0 - delta)) * (
            mp_phi(c0 - mu) - mp_phi(-c0 - mu)
        )
        mc_power = power_two_scale(alpha, delta, hurst, big, big, reps=2 * 10**5, seed=106)
        assert abs(mc_power - leading) < 0.05

    def test_pair_test_beats_single_scale_average(self):
        """At small alpha and a large window the pair test beats the average
        of the two single-scale tests."""
        alpha, delta, hurst, big = 0.01, 1.0, 0.9, 2**10
        pair = power_two_scale(alpha, delta, hurst, big, big, reps=10**5, seed=107)
        critical = single_scale_threshold(alpha).value
        fine = power_single_scale(critical, delta)
        coarse = power_single_scale(critical, big * delta / big**hurst)
        se = np.sqrt(pair * (1 - pair) / 10**5)
        assert pair >= (fine + coarse) / 2 - 2 * se

    def test_shifted_count_validation(self):
        with pytest.raises(ValueError):
            power_two_scale(0.05, 1.0, 0.9, 16, 17, reps=10**4)


class TestPowerGap:
    def test_exactly_zero_at_alpha_zero(self):
        for delta in (0.1, 0.5, 1.0, 2.0):
            assert power_gap(0.0, delta) == 0.0

    @pytest.mark.parametrize("alpha", [0.001, 0.005, 0.01])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0])
    def test_positive_at_small_alpha(self, alpha, delta):
        assert power_gap(alpha, delta) > 0.0

    def test_matches_arbitrary_precision(self):
        def oracle(alpha, delta):
            alpha, delta = mp.mpf(alpha), mp.mpf(delta)
            c_a = mp.sqrt(2) * mp.erfinv(1 - alpha)
            c_0 = mp.sqrt(2) * mp.erfinv(mp.sqrt(1 - alpha))
            single = mp.ncdf(c_a - delta) - mp.ncdf(-c_a - delta)
            pair = mp.ncdf(c_0 - delta) - mp.ncdf(-c_0 - delta)
            return float(single + (1 - alpha) - 2 * mp.sqrt(1 - alpha) * pair)

        for alpha, delta in ((0.005, 1.0), (0.01, 2.0), (0.001, 0.1)):
            assert power_gap(alpha, delta) == pytest.approx(oracle(alpha, delta), abs=1e-12)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            power_gap(0.01, 0.0)

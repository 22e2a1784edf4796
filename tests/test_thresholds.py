"""Cross-scale correlation, calibrated thresholds, and power functions.

Closed forms are checked against arbitrary-precision evaluation (mpmath)
and against brute-force enumeration oracles; Monte-Carlo outputs are
checked against exact bivariate-normal quadrature where available.
"""

import dataclasses
import itertools
import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

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
from lrdshift import workers
from lrdshift.seeding import subseed
from lrdshift.thresholds import (
    _block_rows,
    _CHUNK,
    _corr_factor,
    _max_abs_gaussian_samples,
    _P,
    _PAIR_ALPHA_MIN,
    _Q,
    _ndtr,
    _ndtri,
    _p1evl,
    _polevl,
    _quantile_with_se,
    _rectangle,
    _two_scale_threshold,
)
from oracles import (
    exact_two_scale_threshold,
    max_abs_gaussian_samples_per_chunk,
    quantile_with_se_two_calls,
    scipy_rectangle,
)

mp.mp.dps = 30


def mp_phi_inv(p: float) -> float:
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


def mp_phi(x: float) -> float:
    return float(mp.ncdf(x))


def mp_upper_quantile(y: mp.mpf) -> mp.mpf:
    """The ``c`` with ``P(Z > c) = y``, by Newton on ``log ncdf(-c)`` in 40
    digits, which holds for ``y`` far below ``1 - y``'s rounding."""
    with mp.workdps(40):
        y = mp.mpf(y)
        start = mp.sqrt(-2 * mp.log(y)) if y < 0.3 else mp.mpf(0.5)
        return mp.findroot(lambda c: mp.log(mp.ncdf(-c)) - mp.log(y), start)


def brute_force_window_corr(hurst: float, small: int, big: int) -> float:
    """Correlation of two backward windows ending at the same position,
    by direct double summation of the autocovariance."""
    model = LrdModel(hurst)
    lags = np.abs(np.subtract.outer(np.arange(small), np.arange(big)))
    cov = fgn_acf(model, lags).sum()
    return cov / (small**hurst * big**hurst)


class TestNormalQuantileAccuracy:
    def test_against_arbitrary_precision(self):
        """The inverse normal CDF we rely on, scipy's and the package's
        port of it, must be accurate to 1e-9 absolute across
        (1e-12, 1 - 1e-12)."""
        grid = [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        grid += [1 - p for p in (1e-3, 1e-6, 1e-9, 1e-12)]
        for quantile in (ndtri, _ndtri):
            for p in grid:
                assert abs(float(quantile(p)) - mp_phi_inv(p)) < 1e-9, f"{quantile.__name__} p={p}"


class TestNdtriPort:
    """``_ndtri`` is scipy's Cephes ``ndtri``, bit for bit."""

    def test_equals_scipy_bit_for_bit(self):
        rng = np.random.default_rng(20081281)
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 60_000),  # mostly the central form
            10.0 ** rng.uniform(-300.0, 0.0, 30_000),  # both tail forms, x < 8 and x >= 8
            1.0 - rng.uniform(0.0, 1e-16, 5_000),  # within 1e-16 of 1
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 5_000),  # the upper tail
            [np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0), 0.5, 5e-324, 1.0 - 2.0**-53],
        ])
        ported = np.array([_ndtri(float(v)) for v in p])
        mismatched = np.flatnonzero(ported != ndtri(p))
        assert len(p) > 10**5
        assert len(mismatched) == 0, p[mismatched[:5]]

    def test_edges(self):
        assert _ndtri(0.0) == -np.inf
        assert _ndtri(1.0) == np.inf
        for p in (-0.0, 0.0, 1.0, -1e-300, -1.0, 1.0 + 2.0**-52, 2.0, np.inf, -np.inf, np.nan):
            ported = _ndtri(p)
            assert ported == ndtri(p) or (np.isnan(ported) and np.isnan(ndtri(p))), p
        for p in (-1e-300, -1.0, 1.0 + 2.0**-52, 2.0, np.inf, -np.inf, np.nan):
            assert np.isnan(_ndtri(p)), p


class TestNdtrPort:
    """``_ndtr`` is scipy's Cephes ``ndtr``, bit for bit.

    Cephes takes ``x = a sqrt(1/2)``, ``z = |x|`` and switches form at
    ``z = sqrt(1/2)``, 1 and 8, and to 0 once ``z^2 > MAXLOG``; in ``a``
    those edges are 1, sqrt(2), 8 sqrt(2) and about 37.68.
    """

    EDGES = (1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996843e2))

    @staticmethod
    def assert_equals_scipy(a):
        ported, expected = _ndtr(a), ndtr(a)
        same = (ported.view(np.int64) == expected.view(np.int64)) | (np.isnan(ported) & np.isnan(expected))
        assert same.all(), a[~same][:5]

    def test_equals_scipy_bit_for_bit(self):
        rng = np.random.default_rng(20081282)
        a = np.concatenate([
            3.0 * rng.standard_normal(400_000),  # the erf forms and the P/Q erfc form
            rng.uniform(-1.5, 1.5, 200_000),  # both erf forms, either side of z = 1
            rng.uniform(-40.0, 40.0, 300_000),  # the R/S form and the underflow to 0
            rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-324.0, 308.0, 100_000),
        ])
        assert len(a) >= 10**6
        z = np.abs(a) * np.sqrt(0.5)
        bounds = (0.0, np.sqrt(0.5), 1.0, 8.0, np.sqrt(7.09782712893383996843e2), np.inf)
        for lo, hi in zip(bounds, bounds[1:]):
            for sign in (-1.0, 1.0):
                assert np.sum((z >= lo) & (z < hi) & (np.sign(a) == sign)) > 1000, (lo, sign)
        self.assert_equals_scipy(a)

    def test_edges(self):
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny, -tiny,
                    1e308, -1e308, huge, -huge]
        steps = np.arange(-3, 4)
        edges = [np.frombuffer((np.float64(sign * edge).view(np.int64) + steps).tobytes())
                 for edge in self.EDGES for sign in (-1.0, 1.0)]
        underflow = np.linspace(-39.0, -37.0, 20_001)  # the last normal, subnormal and zero values
        self.assert_equals_scipy(np.concatenate([specials, *edges, underflow]))
        assert _ndtr(np.array([0.0, -np.inf, np.inf])).tolist() == [0.5, 0.0, 1.0]
        assert np.isnan(_ndtr(np.array([np.nan]))).all()
        low = _ndtr(underflow)
        assert (low == 0.0).any() and ((low > 0.0) & (low < tiny)).any()

    def test_where_numpy_exp_is_not_libm(self):
        """Cephes calls libm's exp; numpy's vectorized exp may differ by an
        ulp.  On a host where the two agree the set is empty and the other
        tests carry the check."""
        a = np.random.default_rng(20081283).uniform(np.sqrt(2.0), 36.0, 100_000)
        z2 = np.square(a * np.sqrt(0.5))
        libm = np.array([math.exp(v) for v in (-z2).tolist()])
        a = a[np.exp(-z2) != libm]
        self.assert_equals_scipy(np.concatenate([a, -a]))

    def test_against_arbitrary_precision(self):
        """Relative error below 1e-12 from -37 to 0 (the exp of -a^2/2 loses
        about a^2/2 ulps), and absolute error within an ulp of 1 above 0."""
        a = np.linspace(-37.0, 8.5, 1821)
        exact = np.array([float(mp.ncdf(v)) for v in a.tolist()])
        ported = _ndtr(a)
        lower = a <= 0.0
        assert np.max(np.abs(ported[lower] - exact[lower]) / exact[lower]) < 1e-12
        assert np.max(np.abs(ported[~lower] - exact[~lower])) <= 2.0**-53

    def test_row_in_bounded_memory(self):
        """A p-value map row, ``-|Y|`` for 2^16 unit-variance levels, peaks
        below 7 times its own size under tracemalloc: each form runs on its
        own elements and the Horner steps run in place (9.3 times when both
        erfc forms ran on every tail element, one new array per step)."""
        a = -np.abs(np.random.default_rng(20081284).standard_normal(1 << 16))
        tracemalloc.start()
        try:
            _ndtr(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * a.nbytes, f"{peak / a.nbytes:.2f} rows"

    @pytest.mark.parametrize("horner,coef", [(_polevl, _P), (_p1evl, _Q)], ids=["polevl", "p1evl"])
    def test_horner_steps_run_in_place(self, horner, coef):
        """An array's Horner evaluation allocates its result and nothing
        else, and equals the evaluation of each float."""
        x = np.linspace(1.0, 8.0, 1 << 16)
        tracemalloc.start()
        try:
            ans = horner(x, coef)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * x.nbytes, f"{peak / x.nbytes:.2f} arrays"
        assert ans.tolist() == [horner(v, coef) for v in x.tolist()]


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

    def test_at_most_one_at_hurst_one(self):
        """Every exact value at H = 1 is 1; the cancellation-free form rounds
        about 10.8k ratios in 2..10^5 to 1 + 2^-52 unless it is kept at 1."""
        rhos = np.array([cross_scale_corr(1.0, ratio, 1) for ratio in range(2, 10**5 + 1)])
        assert rhos.max() == 1.0
        assert rhos.min() > 1.0 - 1e-12


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

    def test_entries_at_most_one_at_hurst_one(self):
        """Ratio 8192 at H = 1 is one that rounds above 1 before the clamp."""
        assert scale_cov_matrix(1.0, 8192, 2).max() == 1.0


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

    @pytest.mark.parametrize("alpha", [0.05, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-20, 1e-50,
                                       1e-100, 1e-200, 1e-300])
    def test_closed_forms_match_mpmath_down_to_tiny_alpha(self, alpha):
        """Both closed forms lie within 1e-15 relative of their formulas in
        340 digits, where ``1 - alpha`` is exact.  Rounding ``1 - alpha``
        cost 1.4e-5 at m = 15, alpha = 1e-12, and gave an infinite value
        from alpha = 1.1e-16 down."""
        with mp.workdps(340):
            a = mp.mpf(alpha)
            expected = {0: mp_upper_quantile(a / 2)}
            for m in (1, 2, 15, 40):
                expected[m] = mp_upper_quantile(1 - (1 - a) ** (mp.mpf(1) / (2 * m)))
        got = {m: asymptotic_threshold(alpha, m).value for m in (1, 2, 15, 40)}
        got[0] = single_scale_threshold(alpha).value
        for m, value in got.items():
            assert abs(value - expected[m]) <= 1e-15 * expected[m], (m, value)


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

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        """``_corr_factor``'s ``eigh`` is the only decomposition of the matrix."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            def spy(a, real=getattr(np.linalg, name), name=name):
                calls.append(name)
                return real(a)
            monkeypatch.setattr(np.linalg, name, spy)
        improved_threshold(ThresholdQuery(alpha=0.05, num_scales=15, hurst=0.9, mc_reps=10**4))
        assert calls == ["eigh"]

    def test_factor_rejects_a_matrix_that_is_not_psd(self):
        """An eigenvalue below -1e-10 is an error; one above it is rounding, taken as 0."""
        for eigenvalue, raises in ((-1e-9, True), (-1e-11, False)):
            cov = np.array([[1.0, 1.0 - eigenvalue], [1.0 - eigenvalue, 1.0]])
            assert np.linalg.eigvalsh(cov)[0] == pytest.approx(eigenvalue, rel=1e-4)
            if raises:
                with pytest.raises(RuntimeError, match="not PSD"):
                    _corr_factor(cov)
            else:
                factor = _corr_factor(cov)
                assert np.allclose(factor @ factor.T, cov, atol=1e-10)

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


class TestBlockedSampling:
    """The row-blocked replicate loop against one product per substream chunk."""

    # Neither a multiple of the chunk nor of the block at any of these m.
    @pytest.mark.parametrize("reps", [_CHUNK + 4097 + 3, _CHUNK + 4097])
    @pytest.mark.parametrize("num_scales,hurst", [(15, 0.9), (2, 0.8), (6, 0.5)])
    def test_equals_per_chunk_draws_bit_for_bit(self, reps, num_scales, hurst):
        factor = _corr_factor(scale_cov_matrix(hurst, 2, num_scales))
        blocked = _max_abs_gaussian_samples(factor, reps, 11)
        expected = max_abs_gaussian_samples_per_chunk(factor, reps, 11)
        assert np.array_equal(blocked, expected)

    @pytest.mark.parametrize("num_scales", [15, 2, 6, 25])
    def test_one_row_remainder_is_drawn_with_the_block_before_it(self, num_scales):
        """The second chunk is one full block and one row: no one-row product."""
        factor = _corr_factor(scale_cov_matrix(0.9, 2, num_scales))
        reps = _CHUNK + _block_rows(num_scales) + 1
        blocked = _max_abs_gaussian_samples(factor, reps, 11)
        assert np.array_equal(blocked, max_abs_gaussian_samples_per_chunk(factor, reps, 11))

    @pytest.mark.parametrize("reps", [2 * _CHUNK + 5, 3 * _CHUNK + 7, _CHUNK])
    def test_equals_per_chunk_draws_with_the_worker_off_and_on(self, monkeypatch, forks, reps):
        """One process or two (a forked worker draws the odd chunks), the
        samples are the per-chunk draws: an odd chunk count whose partial
        chunk is this process's, an even one whose partial chunk is the
        worker's, and one chunk, which forks nothing."""
        factor = _corr_factor(scale_cov_matrix(0.9, 2, 3))
        expected = max_abs_gaussian_samples_per_chunk(factor, reps, 13)
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            forks.clear()
            assert np.array_equal(_max_abs_gaussian_samples(factor, reps, 13), expected), cpus
            assert len(forks) == (cpus == 2 and reps > _CHUNK), cpus

    @pytest.mark.parametrize("p", [0.95, 0.5, 0.999])
    def test_one_quantile_call_equals_two(self, p):
        factor = _corr_factor(scale_cov_matrix(0.9, 2, 15))
        samples = max_abs_gaussian_samples_per_chunk(factor, 10**5 + 7, 12)
        expected = quantile_with_se_two_calls(samples, p)
        assert _quantile_with_se(samples, p) == expected

    def test_threshold_working_set_is_bounded(self):
        """The samples (8 B per replicate) and two fixed blocks, not
        (chunk x m) temporaries or copies for the quantiles."""
        query = ThresholdQuery(alpha=0.05, num_scales=15, hurst=0.9)
        tracemalloc.start()
        try:
            improved_threshold(query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"{peak / 2**20:.1f} MiB"


def count_calls(monkeypatch):
    """Counts the calls of ``improved_threshold`` behind ``compute_threshold``."""
    calls = []
    original = improved_threshold

    def counted(query):
        calls.append(query)
        return original(query)

    monkeypatch.setattr("lrdshift.thresholds.improved_threshold", counted)
    return calls


def refuse_improved_threshold(query):
    raise AssertionError("the Monte-Carlo threshold was computed again")


# A different value for each field of ThresholdQuery; a new field needs one.
CHANGED_FIELD = {"alpha": 0.1, "num_scales": 4, "hurst": 0.8, "base": 3, "mc_reps": 10**4 + 1,
                 "seed": subseed(0, 1)}


class TestThresholdCache:
    """compute_threshold's on-disk cache of the Monte-Carlo kind."""

    QUERY = ThresholdQuery(alpha=0.05, num_scales=3, hurst=0.7, mc_reps=10**4, seed=0)

    @pytest.mark.parametrize("seed", [5, subseed(4, 0)], ids=["int", "subseed"])
    def test_warm_equals_cold_bit_for_bit(self, seed, monkeypatch, threshold_cache):
        query = dataclasses.replace(self.QUERY, seed=seed)
        cold = compute_threshold(query, "monte_carlo")
        assert cold == improved_threshold(query)
        assert len(list(threshold_cache.iterdir())) == 1
        monkeypatch.setattr("lrdshift.thresholds.improved_threshold", refuse_improved_threshold)
        warm = compute_threshold(query, "monte_carlo")
        assert warm.value.hex() == cold.value.hex() and warm.kind == "monte_carlo"
        assert warm.mc_standard_error.hex() == cold.mc_standard_error.hex()

    def test_int_seed_and_its_seed_sequence_share_an_entry(self, monkeypatch):
        cold = compute_threshold(dataclasses.replace(self.QUERY, seed=9), "monte_carlo")
        monkeypatch.setattr("lrdshift.thresholds.improved_threshold", refuse_improved_threshold)
        same = dataclasses.replace(self.QUERY, seed=np.random.SeedSequence(9))
        assert compute_threshold(same, "monte_carlo") == cold

    def test_numpy_scalars_share_the_entry_of_python_numbers(self, monkeypatch):
        cold = compute_threshold(self.QUERY, "monte_carlo")
        monkeypatch.setattr("lrdshift.thresholds.improved_threshold", refuse_improved_threshold)
        same = dataclasses.replace(self.QUERY, num_scales=np.int64(3), hurst=np.float64(0.7),
                                   mc_reps=np.int32(10**4), seed=np.uint8(0))
        assert compute_threshold(same, "monte_carlo") == cold

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ThresholdQuery)])
    def test_changing_one_field_is_a_miss(self, name, monkeypatch):
        compute_threshold(self.QUERY, "monte_carlo")
        calls = count_calls(monkeypatch)
        changed = dataclasses.replace(self.QUERY, **{name: CHANGED_FIELD[name]})
        assert compute_threshold(changed, "monte_carlo") == improved_threshold(changed)
        assert calls == [changed]
        compute_threshold(self.QUERY, "monte_carlo")
        assert calls == [changed]  # the first entry is still there

    @pytest.mark.parametrize("corrupt", [
        lambda text, entry: text[: len(text) // 2],
        lambda text, entry: "not json",
        lambda text, entry: "[]",
        lambda text, entry: json.dumps({**entry, "key": {**entry["key"], "num_scales": 4}}),
        lambda text, entry: json.dumps({**entry, "value": float("nan")}),
        lambda text, entry: json.dumps({**entry, "value": float("inf")}),
        lambda text, entry: json.dumps({**entry, "value": 0.0}),
        lambda text, entry: json.dumps({**entry, "value": -entry["value"]}),
        lambda text, entry: json.dumps({**entry, "value": str(entry["value"])}),
        lambda text, entry: json.dumps({**entry, "se": -1e-3}),
        lambda text, entry: json.dumps({**entry, "se": float("nan")}),
        lambda text, entry: json.dumps({key: v for key, v in entry.items() if key != "se"}),
    ], ids=["truncated", "not-json", "not-an-object", "wrong-key", "value-nan", "value-inf",
            "value-zero", "value-negative", "value-string", "se-negative", "se-nan", "no-se"])
    def test_invalid_entry_is_recomputed_and_rewritten(self, corrupt, monkeypatch, threshold_cache):
        cold = compute_threshold(self.QUERY, "monte_carlo")
        (path,) = threshold_cache.iterdir()
        good = path.read_text()
        path.write_text(corrupt(good, json.loads(good)))
        calls = count_calls(monkeypatch)
        assert compute_threshold(self.QUERY, "monte_carlo") == cold
        assert len(calls) == 1
        assert path.read_text() == good
        assert [p.name for p in threshold_cache.iterdir()] == [path.name]  # no temporary left

    def test_relative_cache_home_falls_back_to_home(self, tmp_path, monkeypatch):
        """The XDG spec says a relative ``XDG_CACHE_HOME`` is ignored."""
        monkeypatch.chdir(tmp_path)
        for value in ("relative/cache", ""):
            monkeypatch.setenv("XDG_CACHE_HOME", value)
            compute_threshold(self.QUERY, "monte_carlo")
        monkeypatch.delenv("XDG_CACHE_HOME")
        compute_threshold(self.QUERY, "monte_carlo")
        assert not (tmp_path / "relative").exists()
        assert len(list((tmp_path / "home" / ".cache" / "lrdshift").iterdir())) == 1

    def test_closed_forms_are_not_cached(self, threshold_cache):
        compute_threshold(self.QUERY, "asymptotic")
        compute_threshold(self.QUERY, "single_scale")
        assert not threshold_cache.exists()


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

    def test_matches_mpmath_at_small_alpha(self):
        """Within 1e-15 relative of the formula in 50 digits down to
        alpha = 1e-12, where rounding ``(1 + sqrt(1 - alpha)) / 2`` cost
        1.7e-6."""
        worst = 0.0
        with mp.workdps(50):
            for alpha in (1e-3, 1e-4, 1e-6, 1e-9, 1e-12):
                root = mp.sqrt(1 - mp.mpf(alpha))
                c0 = mp.sqrt(2) * mp.erfinv(root)
                for hurst in (0.55, 0.7, 0.9, 0.99):
                    for big_window in (2, 2**10, 2**20, 2**40):
                        scale = c0**2 * mp.mpf(hurst) ** 2 \
                            * mp.mpf(big_window) ** (2 * (mp.mpf(hurst) - 1)) / (2 * root)
                        exact = c0 - mp.npdf(c0) * scale
                        got = two_scale_expansion(alpha, hurst, big_window)
                        worst = max(worst, float(abs(got - exact) / exact))
        assert worst <= 1e-15

    @pytest.mark.parametrize("hurst", [1.5, 0.0, -0.3, float("nan")])
    def test_hurst_validation(self, hurst):
        """A Hurst parameter outside (0, 1] is refused, not turned into a
        negative or NaN threshold."""
        with pytest.raises(ValueError, match="hurst"):
            two_scale_expansion(0.05, hurst, 100)


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


def mp_corner(h: float, k: float, rho: float) -> mp.mpf:
    """``P(X <= h, Y <= k)`` for unit normals with correlation ``rho``, from
    ``Phi(h) Phi(k) + (1/2pi) int_0^{asin rho} exp(-(h^2 + k^2 - 2hk sin t) / (2 cos^2 t)) dt``
    by mpmath quadrature, and ``Phi(min(h, k))`` at ``rho = 1``."""
    h, k = mp.mpf(h), mp.mpf(k)
    if rho == 1.0:
        return mp.ncdf(min(h, k))
    top = mp.asin(mp.mpf(rho))
    points = [mp.mpf(0)] + [top - gap for gap in (mp.mpf("0.1"), mp.mpf("0.01")) if gap < top] + [top]

    def integrand(t):
        return mp.exp(-(h * h + k * k - 2 * h * k * mp.sin(t)) / (2 * mp.cos(t) ** 2))

    return mp.ncdf(h) * mp.ncdf(k) + mp.quad(integrand, points) / (2 * mp.pi)


class TestRectangle:
    # From 0.0005 (H 0.5 at ratio 2^20) to 0.99931 (H 0.999 at ratio 2), and 1 (H 1 at ratio 2).
    RHOS = [cross_scale_corr(hurst, ratio, 1) for hurst, ratio in
            [(0.5, 2**20), (0.7, 64), (0.9, 1024), (0.9, 2), (0.99, 2), (0.999, 2), (1.0, 2)]]

    def test_matches_arbitrary_precision(self):
        """Corners from -8 to 8 in h and k, to 1e-14 absolute.  The corners
        near the diagonal (|h - k| = 0.01) are where a Gauss-Legendre rule
        on ``[0, asin rho]`` alone loses digits as ``rho`` nears 1 (5e-6 at
        ``rho = 1``)."""
        assert self.RHOS[0] < 1e-3 and self.RHOS[-2] == pytest.approx(0.99931, abs=1e-5)
        assert self.RHOS[-1] == 1.0
        cases = [(0.5, (0.0, 0.0)), (4.0, (4.0, -4.0)), (2.0, (-3.5, 1.5)), (1.0, (1.0, 1.01)),
                 (3.0, (0.0, 5.0))]
        corners = {}
        for rho in self.RHOS:
            for c, (m1, m2) in cases:
                h, k = (c - m1, -c - m1), (c - m2, -c - m2)
                for point in itertools.product(h, k):
                    corners.setdefault((*point, rho), mp_corner(*point, rho))
                exact = (corners[h[0], k[0], rho] - corners[h[1], k[0], rho]
                         - corners[h[0], k[1], rho] + corners[h[1], k[1], rho])
                assert abs(_rectangle(c, (m1, m2), rho) - float(exact)) <= 1e-14, (c, m1, m2, rho)
        points = np.array([key[:2] for key in corners])
        assert points.min() == -8.0 and points.max() == 8.0


class TestTwoScaleThreshold:
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.3])
    @pytest.mark.parametrize("hurst,ratio", [(0.5, 2), (0.7, 64), (0.8, 2**9), (0.9, 1024), (0.99, 2)])
    def test_matches_scipy_oracle(self, alpha, hurst, ratio):
        rho = cross_scale_corr(hurst, ratio, 1)
        assert abs(_two_scale_threshold(alpha, rho) - exact_two_scale_threshold(alpha, rho)) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.3])
    def test_is_single_scale_at_rho_one(self, alpha):
        """At ``rho = 1`` the two scales are one: the pair threshold is the single-scale one."""
        assert cross_scale_corr(1.0, 2, 1) == 1.0
        assert abs(_two_scale_threshold(alpha, 1.0) - single_scale_threshold(alpha).value) <= 1e-11


class TestPowerTwoScale:
    def test_null_calibration(self):
        """With no shift the rejection rate is alpha."""
        for alpha, (hurst, big) in itertools.product([0.001, 0.05, 0.3], [(0.9, 1024), (0.6, 16), (0.999, 2)]):
            assert abs(power_two_scale(alpha, 0.0, hurst, big, 1) - alpha) <= 1e-12, (alpha, hurst, big)

    def test_matches_exact_rectangle_probability(self):
        """Agrees with scipy's bivariate normal rectangle at the scipy threshold."""
        for alpha, delta, hurst, big, count in [
            (0.05, 1.0, 0.9, 2**10, 2**10),
            (0.01, 0.5, 0.7, 64, 10),
            (0.001, 2.0, 0.99, 2, 1),
            (0.3, 1.0, 0.5, 2**14, 3),
        ]:
            rho = cross_scale_corr(hurst, big, 1)
            means = [delta, count * delta / big**hurst]
            expected = 1.0 - scipy_rectangle(exact_two_scale_threshold(alpha, rho), means, rho)
            power = power_two_scale(alpha, delta, hurst, big, count)
            assert abs(power - expected) <= 1e-10, (alpha, delta, hurst, big)

    def test_criterion_5_setting(self):
        """Threshold 2.79720 and power 0.22780 at (alpha 0.01, delta 1, H 0.9, L = K = 2^10)."""
        assert _two_scale_threshold(0.01, cross_scale_corr(0.9, 2**10, 1)) == pytest.approx(2.79720, abs=1e-5)
        assert power_two_scale(0.01, 1.0, 0.9, 2**10, 2**10) == pytest.approx(0.22780, abs=1e-5)

    @pytest.mark.parametrize("big", [2, 4, 8192])
    def test_hurst_one_is_one_scale(self, big):
        """At H = 1 the two statistics are one normal ``Z`` plus two means
        (``rho`` is 1, or rounds to 1 - 2^-53 at these ratios; 8192 is one
        that rounds to 1 + 2^-52 and is kept at 1), so the power is
        ``1 - P(|Z + m1| <= c, |Z + m2| <= c)`` at the single-scale threshold
        ``c``; the ``rho < 1`` roundings are exact within ``acos(rho) / 2pi``
        per corner, below 3e-9."""
        assert [cross_scale_corr(1.0, ratio, 1) - 1.0 for ratio in (2, 4, 8192)] == [0.0, -(2.0**-53), 0.0]
        delta, count = 0.3, 1
        c = single_scale_threshold(0.05).value
        m1, m2 = delta, count * delta / big
        inside = mp.ncdf(min(c - m1, c - m2)) - mp.ncdf(max(-c - m1, -c - m2))
        assert abs(power_two_scale(0.05, delta, 1.0, big, count) - float(1 - inside)) <= 1e-8

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
        assert abs(power_two_scale(alpha, delta, hurst, big, big) - leading) < 0.05

    def test_pair_test_beats_single_scale_average(self):
        """The paper's result, strictly: the pair test beats the average of
        the two single-scale tests on every case of a small-alpha grid."""
        for alpha, delta, hurst, big in itertools.product(
            (0.001, 0.005, 0.01, 0.05), (0.5, 1.0, 2.0), (0.6, 0.75, 0.9), (2**6, 2**10, 2**14)
        ):
            pair = power_two_scale(alpha, delta, hurst, big, big)
            critical = single_scale_threshold(alpha).value
            coarse = power_single_scale(critical, big * delta / big**hurst)
            average = (power_single_scale(critical, delta) + coarse) / 2
            assert pair > average, (alpha, delta, hurst, big, pair, average)

    @pytest.mark.parametrize("alpha,delta,hurst", [(0.01, 1.0, 0.7), (0.005, 2.0, 0.9)])
    def test_gap_approaches_power_gap(self, alpha, delta, hurst):
        """With one shifted sample (K = 1), ``2 beta_pair - beta_1 - beta_L``
        tends to ``power_gap(alpha, delta)`` as the window grows."""
        critical = single_scale_threshold(alpha).value
        errors = []
        for big in (2**6, 2**10, 2**14, 2**20):
            pair = power_two_scale(alpha, delta, hurst, big, 1)
            singles = power_single_scale(critical, delta) + power_single_scale(critical, delta / big**hurst)
            errors.append(abs(2 * pair - singles - power_gap(alpha, delta)))
        assert all(a > b for a, b in zip(errors, errors[1:])), errors

    def test_draws_no_random_numbers(self, monkeypatch, forks):
        """No fork, even with two usable CPUs, and no random generator."""
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(np.random, "default_rng", None)
        power_two_scale(0.01, 1.0, 0.9, 2**10, 2**10)
        assert forks == []

    def test_alpha_floor_is_where_one_minus_alpha_still_resolves_alpha(self):
        """Against mpmath, the rejection level of the two-scale threshold, and
        the power with no shift, are alpha within 1e-3 (relative) from 1e-3
        down to the floor, at two correlations.  Below the floor they are not
        (the level is 0.11 off at 1e-15), and ``power_two_scale`` refuses such
        an alpha, naming it, where it returned NaN from infinite brackets."""

        def level(c, rho):
            return 1 - (mp_corner(c, c, rho) - mp_corner(-c, c, rho) - mp_corner(c, -c, rho)
                        + mp_corner(-c, -c, rho))

        for hurst, big in [(0.9, 64), (0.6, 1024)]:
            rho = cross_scale_corr(hurst, big, 1)
            above = [1e-3, 1e-6, 1e-9, 1e-10, 1e-11, _PAIR_ALPHA_MIN]
            errors = {alpha: abs(float(level(_two_scale_threshold(alpha, rho), rho) / alpha) - 1)
                      for alpha in [*above, 1e-13, 1e-14, 1e-15]}
            assert max(errors[alpha] for alpha in above) <= 1e-3, errors
            assert max(errors[alpha] for alpha in (1e-13, 1e-14, 1e-15)) > 1e-3, errors
            for alpha in above:
                assert abs(power_two_scale(alpha, 0.0, hurst, big, 1) / alpha - 1) <= 1e-3, alpha
        for alpha in (math.nextafter(_PAIR_ALPHA_MIN, 0.0), 1e-17, 5e-324):
            with pytest.raises(ValueError, match=f"alpha >= 1e-12, .* got {alpha}$"):
                power_two_scale(alpha, 1.0, 0.9, 64, 32)

    def test_shifted_count_validation(self):
        for count in (0, 17):
            with pytest.raises(ValueError, match="shifted_count"):
                power_two_scale(0.05, 1.0, 0.9, 16, count)

    @pytest.mark.parametrize("alpha,hurst,big", [
        (0.0, 0.9, 16), (0.05, 1.5, 16), (0.05, float("nan"), 16), (0.05, 0.9, 1),
    ])
    def test_alpha_hurst_and_window_validation(self, alpha, hurst, big):
        with pytest.raises(ValueError):
            power_two_scale(alpha, 1.0, hurst, big, 1)


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

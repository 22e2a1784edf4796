"""Pointwise detection, the p-value map, and interval reporting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdshift import (
    DetectionConfig,
    DetectionResult,
    LrdModel,
    ScaleConfig,
    asymptotic_threshold,
    build_nowa,
    build_swa,
    detect,
    flags_to_intervals,
    improved_threshold,
    pvalue_map,
    standardize,
    subseed,
    synthesize_fgn,
    ThresholdQuery,
)
from lrdshift.detect import Interval, expand_levels
from oracles import column_at, dense_detect, flags_to_intervals_per_flag


def make_config(num_scales=4, hurst=0.8, method="nowa", threshold_value=2.5, base=2):
    return DetectionConfig(
        scale_config=ScaleConfig(base=base, num_scales=num_scales, hurst=hurst),
        threshold=threshold_value,
        method=method,
    )


class TestStandardize:
    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            standardize(np.ones(16))

    def test_sample_mode_on_standardized_data_is_near_identity(self):
        x = synthesize_fgn(LrdModel(0.5), 4096, seed=1).values
        out, mean, std = standardize(x)
        assert abs(mean) < 0.1 and abs(std - 1.0) < 0.1
        assert np.allclose(out.values, (x - mean) / std)

    def test_provided_mode_is_exact_affine(self):
        x = np.array([1.0, 3.0, 5.0])
        out, mean, std = standardize(x, mean=3.0, std=2.0)
        assert np.array_equal(out.values, [-1.0, 0.0, 1.0])
        assert (mean, std) == (3.0, 2.0)

    def test_provided_requires_both_moments(self):
        with pytest.raises(ValueError):
            standardize(np.ones(4), mean=0.0)

    @pytest.mark.parametrize("mean,std", [(0.0, np.inf), (0.0, np.nan), (np.nan, 1.0), (np.inf, 1.0)])
    def test_provided_moments_must_be_finite(self, mean, std):
        """Moments that map every sample to 0 or NaN would switch detection off."""
        with pytest.raises(ValueError, match="finite"):
            standardize(np.arange(4.0), mean=mean, std=std)


class TestDetect:
    def test_all_zero_series_has_no_flags(self):
        result = detect(np.zeros(64), make_config())
        assert len(result.flags) == 0
        assert np.all(result.statistic == 0.0)

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    def test_large_spike_is_flagged(self, method):
        """A +10 spike clears any threshold below ~7 on a unit background."""
        x = synthesize_fgn(LrdModel(0.9), 512, seed=2).values
        x[200] += 10.0
        config = make_config(num_scales=6, hurst=0.9, method=method,
                             threshold_value=asymptotic_threshold(0.05, 15).value)
        result = detect(x, config)
        assert 201 in result.flags  # 1-based position

    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -2.5])
    def test_config_rejects_a_threshold_that_flags_nothing(self, value):
        """A critical value that is not positive and finite is an error: an
        infinite one would flag nothing, not even a 1e6 spike."""
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            make_config(threshold_value=value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["nowa", "swa"])
    def test_non_finite_input_rejected(self, method, bad):
        """A non-finite sample is an error, never a scale quietly dropped from the max."""
        x = np.zeros(64)
        x[20] = bad
        with pytest.raises(ValueError, match="finite"):
            detect(x, make_config(method=method))

    def test_flags_satisfy_strict_inequality(self):
        x = np.zeros(32)
        x[7] = 2.5  # exactly at the threshold: a tie must not reject
        result = detect(x, make_config(num_scales=2, hurst=1.0, threshold_value=2.5))
        assert 8 not in result.flags

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    def test_statistic_matches_per_position_columns(self, method):
        """detect's vectorized statistic equals the max over column_at,
        and the flag set is exactly where it exceeds the threshold."""
        config = make_config(num_scales=4, hurst=0.8, method=method, threshold_value=1.8)
        x = synthesize_fgn(LrdModel(0.8), 96, seed=3)
        build = build_nowa if method == "nowa" else build_swa
        pyramid = build(x, config.scale_config)
        result = detect(x, config)
        flags = set()
        for t in range(1, 97):
            stat = max(abs(v) for _, v in column_at(pyramid, t))
            assert result.statistic[t - 1] == pytest.approx(stat, abs=1e-12)
            if stat > 1.8:
                flags.add(t)
        assert flags == set(int(i) for i in result.flags)

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base,num_scales,n", [(2, 6, 1000), (3, 5, 500)])
    def test_matches_dense_oracle_exactly(self, method, base, num_scales, n):
        """The folded max equals nanmax/nanargmax over the (M, n) matrix bit
        for bit, trailing partial blocks (n is no multiple of the largest
        window) included."""
        config = make_config(num_scales=num_scales, hurst=0.8, method=method,
                             threshold_value=1.5, base=base)
        x = synthesize_fgn(LrdModel(0.8), n, seed=7).values
        x[n // 2 : n // 2 + 60] += 2.0
        build = build_nowa if method == "nowa" else build_swa
        statistic, flags, argmax_scale = dense_detect(build(x, config.scale_config), 1.5)
        result = detect(x, config)
        assert np.array_equal(result.statistic, statistic)
        assert np.array_equal(result.flags, flags)
        assert np.array_equal(result.argmax_scale, argmax_scale)
        assert len(set(argmax_scale.tolist())) >= 3

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_ties_go_to_the_smallest_scale(self, method, base):
        """Zeros tie at every scale; so does a constant under plain averaging
        (hurst 1), where every position is flagged with argmax scale 1."""
        config = make_config(num_scales=4, hurst=1.0, method=method, threshold_value=2.5, base=base)
        build = build_nowa if method == "nowa" else build_swa
        for x in (np.zeros(100), np.full(100, 3.0)):
            statistic, flags, argmax_scale = dense_detect(build(x, config.scale_config), 2.5)
            result = detect(x, config)
            assert np.array_equal(result.statistic, statistic)
            assert np.array_equal(result.flags, flags)
            assert np.array_equal(result.argmax_scale, argmax_scale)
        assert np.array_equal(result.flags, np.arange(1, 101))
        assert np.all(result.argmax_scale == 1)

    def test_nowa_memory_is_linear_and_small(self):
        """No (scales x n) matrix: the traced peak stays within 40 bytes per sample."""
        n = 1 << 18
        x = np.random.default_rng(0).standard_normal(n)
        config = make_config(num_scales=15, hurst=0.9, method="nowa", threshold_value=2.6)
        tracemalloc.start()
        try:
            detect(x, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 40.0, f"{peak / n:.1f} B/sample"

    def test_raising_threshold_never_adds_flags(self):
        x = synthesize_fgn(LrdModel(0.85), 256, seed=4)
        previous = None
        for value in (1.5, 2.0, 2.5, 3.0, 3.5):
            flags = set(detect(x, make_config(num_scales=5, hurst=0.85, threshold_value=value)).flags.tolist())
            if previous is not None:
                assert flags <= previous
            previous = flags

    def test_methods_agree_at_aligned_positions(self):
        config_kwargs = dict(num_scales=5, hurst=0.9, threshold_value=2.0)
        x = synthesize_fgn(LrdModel(0.9), 320, seed=5)
        nowa = detect(x, make_config(method="nowa", **config_kwargs))
        swa = detect(x, make_config(method="swa", **config_kwargs))
        biggest = 16
        for t in range(biggest, 321, biggest):
            assert abs(nowa.statistic[t - 1] - swa.statistic[t - 1]) <= 1e-12

    def test_argmax_scale_recorded_per_flag(self):
        x = np.zeros(64)
        x[10:18] += 4.0  # drives coarse scales hardest under plain averaging
        result = detect(x, make_config(num_scales=3, hurst=0.51, threshold_value=2.0))
        assert len(result.argmax_scale) == len(result.flags)
        magnitudes = np.abs(expand_levels(build_nowa(x, ScaleConfig(2, 3, 0.51))))
        for position, scale in zip(result.flags, result.argmax_scale):
            assert magnitudes[scale - 1, position - 1] == result.statistic[position - 1]

    def test_null_calibration_small(self):
        """Family-wise per-position flag rate over fully-covered positions
        is close to alpha when the improved threshold is used."""
        hurst, m, alpha, n, seeds = 0.9, 6, 0.05, 1024, 60
        threshold = improved_threshold(
            ThresholdQuery(alpha=alpha, num_scales=m, hurst=hurst, mc_reps=3 * 10**5, seed=201)
        ).value
        config = DetectionConfig(
            scale_config=ScaleConfig(base=2, num_scales=m, hurst=hurst),
            threshold=threshold,
            method="swa",
        )
        biggest = config.scale_config.max_window
        rates = []
        for i in range(seeds):
            x = synthesize_fgn(LrdModel(hurst), n, subseed(202, i))
            flags = detect(x, config).flags
            rates.append(np.sum(flags >= biggest) / (n - biggest + 1))
        assert abs(np.mean(rates) - alpha) < 0.02, f"rate {np.mean(rates):.4f}"


class TestPvalueMap:
    def test_zero_cell_has_pvalue_one(self):
        pyramid = build_nowa(np.zeros(16), ScaleConfig(2, 3, 0.5))
        assert pvalue_map(pyramid)[0, 0] == pytest.approx(1.0)

    def test_two_sided_tail_and_symmetry(self):
        x = np.zeros(8)
        x[2], x[5] = 1.959964, -1.959964
        pyramid = build_swa(x, ScaleConfig(2, 1, 0.5))
        pvals = pvalue_map(pyramid)
        assert pvals[0, 2] == pytest.approx(0.05, abs=1e-6)
        assert pvals[0, 5] == pytest.approx(pvals[0, 2], abs=1e-15)

    def test_absent_cells_are_nan_not_zero(self):
        config = ScaleConfig(2, 3, 0.5)
        swa = pvalue_map(build_swa(np.ones(10), config))
        assert np.isnan(swa[2, :3]).all() and not np.isnan(swa[2, 3:]).any()
        nowa = pvalue_map(build_nowa(np.ones(10), config))
        # 10 = 2 complete blocks of 4 -> positions 9, 10 uncovered at scale 3
        assert not np.isnan(nowa[2, :8]).any() and np.isnan(nowa[2, 8:]).all()

    def test_values_lie_in_unit_interval(self):
        x = synthesize_fgn(LrdModel(0.7), 128, seed=6)
        pvals = pvalue_map(build_nowa(x, ScaleConfig(2, 4, 0.7)))
        finite = pvals[~np.isnan(pvals)]
        assert np.all((finite >= 0.0) & (finite <= 1.0))


class TestFlagsToIntervals:
    def make_result(self, flags, scales=None):
        flags = np.asarray(flags, dtype=int)
        scales = np.asarray(scales if scales is not None else np.ones_like(flags), dtype=int)
        return DetectionResult(
            statistic=np.zeros(1),
            flags=flags,
            argmax_scale=scales,
            pyramid=None,
        )

    def test_consecutive_run(self):
        intervals = flags_to_intervals(self.make_result([5, 6, 7]), gap_tolerance=0)
        assert [(iv.start, iv.end) for iv in intervals] == [(5, 8)]

    def test_gap_within_tolerance_merges(self):
        intervals = flags_to_intervals(self.make_result([5, 9]), gap_tolerance=3)
        assert [(iv.start, iv.end) for iv in intervals] == [(5, 10)]

    def test_gap_beyond_tolerance_splits(self):
        intervals = flags_to_intervals(self.make_result([5, 9]), gap_tolerance=2)
        assert [(iv.start, iv.end) for iv in intervals] == [(5, 6), (9, 10)]

    def test_empty_flags(self):
        assert flags_to_intervals(self.make_result([])) == []

    def test_peak_scale_is_modal(self):
        intervals = flags_to_intervals(self.make_result([1, 2, 3], scales=[4, 2, 2]))
        assert intervals[0].peak_scale == 2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            flags_to_intervals(self.make_result([1]), gap_tolerance=-1)

    @settings(max_examples=150, deadline=None)
    @given(
        flags=st.lists(st.integers(min_value=1, max_value=80), unique=True, max_size=40),
        scales=st.lists(st.integers(min_value=1, max_value=5), min_size=40, max_size=40),
        gap=st.integers(min_value=0, max_value=6),
    )
    def test_matches_per_flag_loop(self, flags, scales, gap):
        result = self.make_result(sorted(flags), scales[: len(flags)])
        assert flags_to_intervals(result, gap) == flags_to_intervals_per_flag(result, gap)

    @pytest.mark.parametrize("gap", [0, 3, 50])
    def test_matches_per_flag_loop_at_scale(self, gap):
        """31,400 flags in clustered runs over 2^20 positions, 15 scales."""
        rng = np.random.default_rng(gap)
        steps = rng.choice([1, 2, 4, 40, 900], size=31_400, p=[0.8, 0.1, 0.05, 0.04, 0.01])
        result = self.make_result(np.cumsum(steps), rng.integers(1, 16, size=31_400))
        intervals = flags_to_intervals(result, gap)
        assert len(intervals) > 100
        assert intervals == flags_to_intervals_per_flag(result, gap)

    @settings(max_examples=80, deadline=None)
    @given(
        flags=st.lists(st.integers(min_value=1, max_value=60), unique=True, max_size=20),
        gap=st.integers(min_value=0, max_value=5),
    )
    def test_merging_invariants(self, flags, gap):
        """Intervals are sorted, disjoint beyond the gap tolerance, cover
        every flag, and contain no unflagged prefix/suffix."""
        flags = sorted(flags)
        result = self.make_result(flags)
        intervals = flags_to_intervals(result, gap_tolerance=gap)
        covered = set()
        for earlier, later in zip(intervals, intervals[1:]):
            assert later.start - earlier.end > gap
        for interval in intervals:
            assert interval.start in flags and interval.end - 1 in flags
            covered.update(range(interval.start, interval.end))
        assert set(flags) <= covered

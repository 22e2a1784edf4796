"""Pointwise detection, the p-value map, and interval reporting."""

import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from lrdshift import (
    DetectionConfig,
    DetectionResult,
    LrdModel,
    Pyramid,
    ScaleConfig,
    asymptotic_threshold,
    build_nowa,
    build_swa,
    detect,
    flags_to_intervals,
    improved_threshold,
    standardize,
    subseed,
    synthesize_fgn,
    ThresholdQuery,
)
from lrdshift.detect import (
    _NOWA_BLOCK, _SWA_BLOCK, Interval, _argmax_scale, _max_over_scales, pvalue_rows,
)
from oracles import (
    FEEDS, HUGE, column_at, dense_detect, expand_levels, flags_to_intervals_per_flag,
    pvalue_map_per_cell, stream_feed,
)


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
        x = synthesize_fgn(LrdModel(0.5), 4096, seed=1)
        out, mean, std = standardize(x)
        assert abs(mean) < 0.1 and abs(std - 1.0) < 0.1
        assert np.allclose(out, (x - mean) / std)

    def test_provided_mode_is_exact_affine(self):
        x = np.array([1.0, 3.0, 5.0])
        out, mean, std = standardize(x, mean=3.0, std=2.0)
        assert np.array_equal(out, [-1.0, 0.0, 1.0])
        assert (mean, std) == (3.0, 2.0)

    def test_provided_requires_both_moments(self):
        with pytest.raises(ValueError):
            standardize(np.ones(4), mean=0.0)

    @pytest.mark.parametrize("mean,std", [(0.0, np.inf), (0.0, np.nan), (np.nan, 1.0), (np.inf, 1.0)])
    def test_provided_moments_must_be_finite(self, mean, std):
        """Moments that map every sample to 0 or NaN would switch detection off."""
        with pytest.raises(ValueError, match="finite"):
            standardize(np.arange(4.0), mean=mean, std=std)

    def test_overflowing_sample_moments_are_named(self):
        """The exact sample std of ±1.7e308 over four samples, 1.7e308 * sqrt(4/3),
        is not a double; dividing by inf would map every sample to zero."""
        with pytest.raises(ValueError, match="sample standard deviation overflows to inf"):
            standardize(np.tile([1.7e308, -1.7e308], 2))

    @pytest.mark.parametrize("x", [
        np.random.default_rng(1).standard_normal(4096) * 1e200,
        np.tile([1.5e308, 1.4e308], 8),
        np.tile([1.7e308, -1.7e308], 512),
        np.array([1.7e308] + [-1.7e308] * 4095),
    ], ids=["white-1e200", "sum-overflows", "alternating-1.7e308", "deviation-overflows"])
    def test_huge_series_gets_its_exact_moments(self, x):
        """Where numpy's sum of the samples or of their squares overflows, the
        moments are still the exact ones, and every standardized value is finite."""
        values, mean, std = standardize(x)
        exact_std = statistics.stdev(x.tolist())
        assert abs(mean - statistics.mean(x.tolist())) <= 1e-12 * exact_std
        assert std == pytest.approx(exact_std, rel=1e-12)
        assert np.isfinite(values).all() and abs(values.std(ddof=1) - 1.0) < 1e-12

    def test_overflowing_standardized_value_is_named(self):
        with pytest.raises(ValueError, match="mean 0.0 and std 1e-300 overflows"):
            standardize(np.array([1.0, 1e10]), mean=0.0, std=1e-300)


class TestDetect:
    def test_all_zero_series_has_no_flags(self):
        result = detect(np.zeros(64), make_config())
        assert len(result.flags) == 0
        assert np.all(result.statistic == 0.0)

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    def test_large_spike_is_flagged(self, method):
        """A +10 spike clears any threshold below ~7 on a unit background."""
        x = synthesize_fgn(LrdModel(0.9), 512, seed=2)
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base,num_scales,n,overflow", [
        (2, 6, 1000, False), (3, 5, 500, False), (10, 4, 2345, False), (3, 5, 500, True),
    ], ids=["2-6-1000", "3-5-500", "10-4-2345", "3-5-500-overflow"])
    def test_matches_dense_oracle_exactly(self, method, base, num_scales, n, overflow):
        """The folded max equals nanmax/nanargmax over the (M, n) matrix bit
        for bit, trailing partial blocks (n is no multiple of the largest
        window) included, and with windows overflowed to inf and NaN."""
        config = make_config(num_scales=num_scales, hurst=0.8, method=method,
                             threshold_value=1.5, base=base)
        x = synthesize_fgn(LrdModel(0.8), n, seed=7)
        x[n // 2 : n // 2 + 60] += 2.0
        build = build_nowa if method == "nowa" else build_swa
        if overflow:
            x[: 2 * base] = [1.5e308] * base + [-1.5e308] * base
            x[100 + np.random.default_rng(8).choice(n - 100, 24, replace=False)] = HUGE * 4
            assert np.isnan(build(x, config.scale_config).levels[2]).any()
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

    @pytest.mark.parametrize("n", [1 << 14, 1 << 15])
    def test_nowa_buffers_fit_a_series_shorter_than_a_block(self, n):
        """A series shorter than one ``_NOWA_BLOCK`` run takes buffers for its
        own length: at 15 scales the traced peak stays within four times the
        series' 8n bytes (it was 15 and 8 times when the buffers were sized
        for a whole run)."""
        x = np.random.default_rng(1).standard_normal(n)
        config = make_config(num_scales=15, hurst=0.9, method="nowa", threshold_value=2.6)
        assert n < _NOWA_BLOCK
        tracemalloc.start()
        try:
            detect(x, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n, f"{peak / (8 * n):.1f} times the series"

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

    @pytest.mark.parametrize("method", ["nowa", "swa"])
    def test_null_calibration_small(self, method):
        """Family-wise per-position flag rate over fully-covered positions
        is close to alpha when the improved threshold is used, in both
        layouts (nowa's is conservative)."""
        hurst, m, alpha, n, seeds = 0.9, 6, 0.05, 1024, 60
        threshold = improved_threshold(
            ThresholdQuery(alpha=alpha, num_scales=m, hurst=hurst, mc_reps=3 * 10**5, seed=201)
        ).value
        config = DetectionConfig(
            scale_config=ScaleConfig(base=2, num_scales=m, hurst=hurst),
            threshold=threshold,
            method=method,
        )
        biggest = config.scale_config.max_window
        rates = []
        for i in range(seeds):
            x = synthesize_fgn(LrdModel(hurst), n, subseed(202, i))
            flags = detect(x, config).flags
            rates.append(np.sum(flags >= biggest) / (n - biggest + 1))
        assert abs(np.mean(rates) - alpha) < 0.02, f"rate {np.mean(rates):.4f}"


class TestBlockEdges:
    """detect folds the statistic a block at a time and builds no pyramid."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base,num_scales", [(2, 5), (3, 4)])
    def test_bits_match_the_whole_pyramid_at_block_edges(self, method, base, num_scales):
        """The statistic's bits, the flags and the argmax scales equal the fold
        over the whole pyramid and the dense oracle, at lengths one top window
        (L_M), L_M + 1, around one block, and three blocks and a tail of
        L_M - 1 samples, which fills no top window.  Past one top window, huge
        samples end just before each block edge and the tail, so windows
        there and across the edge overflow to inf and NaN."""
        config = make_config(num_scales=num_scales, hurst=0.8, method=method,
                             threshold_value=1.5, base=base)
        top = config.scale_config.max_window
        block = max(_NOWA_BLOCK // top, 1) * top if method == "nowa" else _SWA_BLOCK
        build = build_nowa if method == "nowa" else build_swa
        for n in (top, top + 1, block - 1, block, block + 1, 3 * block + top - 1):
            x = synthesize_fgn(LrdModel(0.8), n, seed=n)
            x[n // 2 : n // 2 + top] += 2.0
            for edge in {*range(block, n + 1, block), n - n % top}:
                if edge > top:
                    x[edge - 2 * base : edge] = [1.5e308] * base + [-1.5e308] * base
            pyramid = build(x, config.scale_config)
            assert n <= top + 1 or any(np.isnan(level).any() for level in pyramid.levels[1:]), n
            result = detect(x, config)
            whole = _max_over_scales(pyramid, [np.empty(n), np.empty(n)])
            statistic, flags, argmax_scale = dense_detect(pyramid, 1.5)
            assert result.statistic.tobytes() == whole.tobytes() == statistic.tobytes(), n
            assert np.array_equal(result.flags, flags), n
            assert np.array_equal(result.argmax_scale, argmax_scale), n
        assert len(set(argmax_scale.tolist())) >= 3

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_the_last_nowa_block_takes_the_tail(self, blocks):
        """With one top window per block (base 2, 18 scales: L_M is the
        block), at n = 2 L_M - 1 and 3 L_M - 1 the last block is one top
        window and the L_M - 1 samples after it, almost two blocks.  The
        statistic's bits, the flags and the argmax scales equal the fold over
        the whole pyramid and the argmax read off it."""
        config = make_config(num_scales=18, hurst=0.8, threshold_value=3.0)
        top = config.scale_config.max_window
        assert top == _NOWA_BLOCK
        n = blocks * top - 1
        x = synthesize_fgn(LrdModel(0.8), n, seed=n)
        x[n - top // 2 : n - top // 4] += 0.5  # a shift inside the tail
        x[n - top // 8] += 5.0
        pyramid = build_nowa(x, config.scale_config)
        whole = _max_over_scales(pyramid, [np.empty(n), np.empty(n)])
        flagged = np.flatnonzero(whole > 3.0)
        result = detect(x, config)
        assert result.statistic.tobytes() == whole.tobytes()
        assert np.array_equal(result.flags, flagged + 1)
        assert np.array_equal(result.argmax_scale, _argmax_scale(pyramid, flagged))
        assert result.flags[-1] > n - top // 2
        assert len(set(result.argmax_scale.tolist())) >= 3


class TestOverflowingWindows:
    """A window whose sum is ``inf - inf`` (NaN) is skipped like an absent one."""

    X = np.array([1e308, 1e308, -1e308, -1e308] + [0.5] * 12)
    CONFIG = ScaleConfig(base=2, num_scales=3, hurst=0.5)

    def test_nan_window_hides_no_other_scale(self):
        """swa flags 1-7 as the stream does, pushed, extended or both, and
        nowa flags 1-4, where scale 1 holds 1e308.  The pyramid's overflow
        warnings reach the caller."""
        with pytest.warns(RuntimeWarning) as caught:
            swa = detect(self.X, DetectionConfig(self.CONFIG, 2.5, "swa"))
            nowa = detect(self.X, DetectionConfig(self.CONFIG, 2.5, "nowa"))
        messages = " ".join(str(w.message) for w in caught)
        assert "overflow" in messages and "invalid value" in messages
        assert swa.flags.tolist() == [1, 2, 3, 4, 5, 6, 7]
        assert nowa.flags.tolist() == [1, 2, 3, 4]
        for feed in FEEDS:
            streamed = stream_feed(self.CONFIG, self.X, feed)
            assert swa.statistic.tolist() == [statistic for statistic, _ in streamed], feed
            assert swa.argmax_scale.tolist() == [scale for _, scale in streamed[:7]], feed

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.one_of(st.sampled_from(HUGE), st.floats(-3.0, 3.0)), min_size=27, max_size=60),
        base=st.sampled_from([2, 3]),
        num_scales=st.integers(1, 4),
        hurst=st.sampled_from([0.5, 0.8, 1.0]),
        blocks_seed=st.integers(0, 2**32 - 1),
    )
    def test_swa_equals_stream_and_nowa_flags_every_huge_sample(self, values, base, num_scales, hurst,
                                                                blocks_seed):
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=hurst)
        x = np.array(values)
        swa = detect(x, DetectionConfig(config, 2.5, "swa"))
        for feed in FEEDS:
            streamed = stream_feed(config, values, feed, blocks_seed)
            assert swa.statistic.tolist() == [statistic for statistic, _ in streamed], feed
            assert swa.flags.tolist() == [i for i, (statistic, _) in enumerate(streamed, start=1)
                                          if statistic > 2.5], feed
            assert swa.argmax_scale.tolist() == [streamed[i - 1][1] for i in swa.flags], feed
        nowa = detect(x, DetectionConfig(config, 2.5, "nowa"))
        assert set(np.flatnonzero(np.abs(x) > 2.5) + 1) <= set(nowa.flags.tolist())


def expanded_pvalues(pyramid):
    """The (M, n) map: the rows of :func:`pvalue_rows` expanded cell by cell by the oracle."""
    rows = [pvalues for *_, pvalues in pvalue_rows(pyramid)]
    return expand_levels(Pyramid(pyramid.method, pyramid.config, rows))


class TestPvalueMap:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base,num_scales,n", [(2, 6, 1000), (3, 5, 500)])
    def test_matches_per_cell_oracle_exactly(self, method, base, num_scales, n):
        """Bit for bit, with absent cells and an overflowed (NaN) window."""
        x = synthesize_fgn(LrdModel(0.8), n, seed=8)
        x[100:104] = [1e308, 1e308, -1e308, -1e308]
        build = build_nowa if method == "nowa" else build_swa
        pyramid = build(x, ScaleConfig(base=base, num_scales=num_scales, hurst=0.8))
        expected = pvalue_map_per_cell(pyramid)
        assert np.isnan(expected[1:, 100:]).any() and not np.isnan(expected[0]).any()
        assert np.array_equal(expanded_pvalues(pyramid), expected, equal_nan=True)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["nowa", "swa"])
    def test_rows_are_twice_scipy_ndtr(self, method):
        """Each row is ``2 scipy.special.ndtr(-|level|)`` bit for bit, with an
        overflowed (NaN) window and p-values down to subnormal and zero."""
        x = synthesize_fgn(LrdModel(0.8), 1000, seed=9)
        x[100:104] = [1e308, 1e308, -1e308, -1e308]
        x[300:306] = [37.0, -37.6, 37.7, -38.0, 38.6, -45.0]
        build = build_nowa if method == "nowa" else build_swa
        pyramid = build(x, ScaleConfig(base=2, num_scales=6, hurst=0.8))
        rows = list(pvalue_rows(pyramid))
        assert any(np.isnan(pvalues).any() for _, _, pvalues in rows)
        assert (rows[0][2] == 0.0).any() and (rows[0][2] < np.finfo(float).tiny).sum() > 2
        for (_, _, pvalues), level in zip(rows, pyramid.levels):
            expected = 2.0 * ndtr(-np.abs(level))
            same = pvalues.view(np.int64) == expected.view(np.int64)
            assert (same | (np.isnan(pvalues) & np.isnan(expected))).all()

    def test_unknown_layout_tag_is_refused(self):
        """A tag other than 'nowa' or 'swa' is an error, not sliding covers."""
        config = ScaleConfig(2, 3, 0.5)
        with pytest.raises(ValueError, match="method must be 'nowa' or 'swa', got 'NOWA'"):
            expanded_pvalues(Pyramid("NOWA", config, build_nowa(np.ones(16), config).levels))

    def test_zero_cell_has_pvalue_one(self):
        pyramid = build_nowa(np.zeros(16), ScaleConfig(2, 3, 0.5))
        assert expanded_pvalues(pyramid)[0, 0] == pytest.approx(1.0)

    def test_two_sided_tail_and_symmetry(self):
        x = np.zeros(8)
        x[2], x[5] = 1.959964, -1.959964
        pyramid = build_swa(x, ScaleConfig(2, 1, 0.5))
        pvals = expanded_pvalues(pyramid)
        assert pvals[0, 2] == pytest.approx(0.05, abs=1e-6)
        assert pvals[0, 5] == pytest.approx(pvals[0, 2], abs=1e-15)

    def test_absent_cells_are_nan_not_zero(self):
        config = ScaleConfig(2, 3, 0.5)
        swa = expanded_pvalues(build_swa(np.ones(10), config))
        assert np.isnan(swa[2, :3]).all() and not np.isnan(swa[2, 3:]).any()
        nowa = expanded_pvalues(build_nowa(np.ones(10), config))
        # 10 = 2 complete blocks of 4 -> positions 9, 10 uncovered at scale 3
        assert not np.isnan(nowa[2, :8]).any() and np.isnan(nowa[2, 8:]).all()

    def test_values_lie_in_unit_interval(self):
        x = synthesize_fgn(LrdModel(0.7), 128, seed=6)
        pvals = expanded_pvalues(build_nowa(x, ScaleConfig(2, 4, 0.7)))
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

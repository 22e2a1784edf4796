"""Aggregation pyramids: layouts, alignment, streaming equivalence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrdshift import (
    DetectionConfig,
    FgnSampler,
    LrdModel,
    ScaleConfig,
    StreamState,
    build_nowa,
    build_swa,
    detect,
    fgn_acf,
    subseed,
    synthesize_fgn,
)
from oracles import FEEDS, HUGE, aggregate_per_entry, column_at, dense_detect, stream_feed


def brute_force_nowa_level(x, window, hurst):
    nblocks = len(x) // window
    return np.array(
        [sum(x[j * window + r] for r in range(window)) / window**hurst for j in range(nblocks)]
    )


def brute_force_swa_level(x, window, hurst):
    return np.array(
        [sum(x[i - r] for r in range(window)) / window**hurst for i in range(window - 1, len(x))]
    )


def column_max(pyramid, t):
    """``(statistic, scale)`` at position ``t``: the first max of the absolute
    column values, scanned from scale 1 with a strict comparison."""
    top, best = None, None
    for k, v in column_at(pyramid, t):
        if top is None or abs(v) > top:
            top, best = abs(v), k
    return top, best


class TestScaleConfig:
    def test_window_sizes(self):
        config = ScaleConfig(base=2, num_scales=4, hurst=0.5)
        assert [config.window(k) for k in range(1, 5)] == [1, 2, 4, 8]
        assert config.max_window == 8

    @pytest.mark.parametrize("kwargs", [dict(base=1), dict(num_scales=0), dict(hurst=0.0), dict(hurst=1.5)])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScaleConfig(**{**dict(base=2, num_scales=3, hurst=0.5), **kwargs})

    def test_unit_hurst_allowed_as_plain_averaging(self):
        ScaleConfig(base=2, num_scales=2, hurst=1.0)

    @pytest.mark.parametrize("method", ["NOWA", "sliding", ""])
    def test_cover_rejects_an_unknown_layout(self, method):
        with pytest.raises(ValueError, match=f"method must be 'nowa' or 'swa', got {method!r}"):
            ScaleConfig(2, 3).cover(method, 2)


class TestBuildNowa:
    def test_constant_input(self):
        pyramid = build_nowa(np.ones(8), ScaleConfig(base=2, num_scales=3, hurst=0.5))
        # blocks of 4 ones, normalizer 4**0.5 = 2
        assert np.allclose(pyramid.levels[2], [2.0, 2.0])
        assert len(pyramid.levels[1]) == 4

    def test_level_one_is_the_input(self):
        x = np.arange(10.0)
        pyramid = build_nowa(x, ScaleConfig(base=2, num_scales=3, hurst=0.7))
        assert np.array_equal(pyramid.levels[0], x)

    def test_trailing_partial_block_dropped(self):
        pyramid = build_nowa(np.ones(11), ScaleConfig(base=2, num_scales=3, hurst=0.5))
        assert [len(level) for level in pyramid.levels] == [11, 5, 2]

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            build_nowa(np.ones(7), ScaleConfig(base=2, num_scales=4, hurst=0.5))

    @settings(max_examples=50, deadline=None)
    @given(
        x=arrays(float, st.integers(min_value=9, max_value=40),
                 elements=st.floats(min_value=-100, max_value=100)),
        base=st.integers(min_value=2, max_value=3),
        hurst=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_matches_brute_force(self, x, base, hurst):
        config = ScaleConfig(base=base, num_scales=3, hurst=hurst)
        pyramid = build_nowa(x, config)
        for k in range(1, 4):
            expected = brute_force_nowa_level(x, config.window(k), hurst)
            assert np.allclose(pyramid.levels[k - 1], expected, atol=1e-9)

    @pytest.mark.parametrize("build", [build_nowa, build_swa])
    def test_aggregated_background_keeps_unit_variance(self, build):
        """Aggregation with the matching exponent preserves the standard
        normal marginal: the mean square of every level stays within 3 SE
        of 1 over 200 replicate paths (both layouts)."""
        model = LrdModel(0.9)
        config = ScaleConfig(base=2, num_scales=8, hurst=0.9)
        sampler = FgnSampler(model, 2**14)
        paths = (sampler.sample(subseed(51, i)) for i in range(200))
        per_path = np.array(
            [[np.mean(level**2) for level in build(p, config).levels] for p in paths]
        )
        means = per_path.mean(axis=0)
        ses = per_path.std(axis=0, ddof=1) / np.sqrt(len(per_path))
        for k in range(8):
            assert abs(means[k] - 1.0) < 3 * ses[k], (
                f"scale {k + 1}: mean square {means[k]:.4f}, SE {ses[k]:.4f}"
            )

    def test_aggregated_background_keeps_the_autocovariance(self):
        """The coarse level of a persistent background is again the same
        law: its sample autocovariance matches the closed form at lags 0..5
        (3 SE bands over 300 replicates)."""
        hurst = 0.9
        config = ScaleConfig(base=2, num_scales=5, hurst=hurst)
        sampler = FgnSampler(LrdModel(hurst), 2**13)
        paths = (sampler.sample(subseed(52, i)) for i in range(300))
        per_path = []
        for p in paths:
            level = build_nowa(p, config).levels[4]  # 512 values
            per_path.append([np.mean(level[: len(level) - h] * level[h:]) for h in range(6)])
        per_path = np.asarray(per_path)
        means = per_path.mean(axis=0)
        ses = per_path.std(axis=0, ddof=1) / np.sqrt(len(per_path))
        targets = fgn_acf(LrdModel(hurst), np.arange(6))
        for h in range(6):
            assert abs(means[h] - targets[h]) < 3 * ses[h], (
                f"lag {h}: {means[h]:.4f} vs {targets[h]:.4f} (SE {ses[h]:.4f})"
            )


class TestBuildSwa:
    def test_constant_input(self):
        pyramid = build_swa(np.ones(8), ScaleConfig(base=2, num_scales=3, hurst=0.5))
        assert np.allclose(pyramid.levels[2], 2.0)
        assert len(pyramid.levels[2]) == 5  # positions 4..8

    def test_impulse_response_with_unit_exponent(self):
        x = np.zeros(10)
        x[4] = 3.0  # impulse at position 5 (1-based)
        pyramid = build_swa(x, ScaleConfig(base=2, num_scales=2, hurst=1.0))
        level2 = pyramid.levels[1]  # positions 2..10
        expected = np.zeros(9)
        expected[3] = expected[4] = 1.5  # windows ending at positions 5 and 6
        assert np.allclose(level2, expected)

    def test_level_lengths_and_start(self):
        pyramid = build_swa(np.ones(20), ScaleConfig(base=2, num_scales=4, hurst=0.5))
        assert [len(level) for level in pyramid.levels] == [20, 19, 17, 13]

    @settings(max_examples=50, deadline=None)
    @given(
        x=arrays(float, st.integers(min_value=9, max_value=40),
                 elements=st.floats(min_value=-100, max_value=100)),
        base=st.integers(min_value=2, max_value=3),
        hurst=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_matches_brute_force(self, x, base, hurst):
        config = ScaleConfig(base=base, num_scales=3, hurst=hurst)
        pyramid = build_swa(x, config)
        for k in range(1, 4):
            expected = brute_force_swa_level(x, config.window(k), hurst)
            assert np.allclose(pyramid.levels[k - 1], expected, atol=1e-9)

    def test_level_shift_response_is_exact(self):
        """Adding delta on an interval covering a whole window shifts that
        window's value by exactly delta * L^(1-H)."""
        hurst, delta = 0.8, 0.35
        config = ScaleConfig(base=2, num_scales=4, hurst=hurst)
        x = synthesize_fgn(LrdModel(hurst), 64, seed=53)
        shifted = x.copy()
        shifted[20:40] += delta
        base_pyr = build_swa(x, config)
        shift_pyr = build_swa(shifted, config)
        for k in (1, 2, 3, 4):
            window = config.window(k)
            # windows fully inside the shifted interval: end positions 21+window-1 .. 40
            for t in range(20 + window, 41):
                before = base_pyr.levels[k - 1][t - window]
                after = shift_pyr.levels[k - 1][t - window]
                assert after - before == pytest.approx(delta * window ** (1 - hurst), rel=1e-10)


class TestAggregate:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["nowa", "swa"])
    @pytest.mark.parametrize("base,num_scales,n", [(2, 7, 300), (3, 5, 250), (10, 3, 345)])
    def test_matches_per_entry_sums_bit_for_bit(self, method, base, num_scales, n):
        """Every level equals the per-entry sums, trailing partial blocks
        dropped, and windows overflowed to inf and to NaN included."""
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=0.8)
        x = synthesize_fgn(LrdModel(0.8), n, seed=55)
        x[: 2 * base] = [1.5e308] * base + [-1.5e308] * base
        x[2 * base + np.random.default_rng(56).choice(n - 2 * base, 12, replace=False)] = HUGE * 2
        build = build_nowa if method == "nowa" else build_swa
        levels = build(x, config).levels
        expected = aggregate_per_entry(method, x, config)
        assert len(levels) == len(expected) == num_scales
        for level, oracle in zip(levels, expected):
            assert np.array_equal(level, oracle, equal_nan=True)
        assert np.isinf(levels[1]).any() and np.isnan(levels[2]).any()


class TestAlignment:
    @pytest.mark.parametrize("base,num_scales,n", [(2, 5, 128), (3, 4, 162), (2, 6, 256)])
    def test_methods_agree_exactly_at_aligned_positions(self, base, num_scales, n):
        """At positions that are multiples of the largest window the two
        layouts see the same windows; construction makes them bit-identical."""
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=0.85)
        x = synthesize_fgn(LrdModel(0.85), n, seed=54)
        nowa, swa = build_nowa(x, config), build_swa(x, config)
        biggest = config.max_window
        for t in range(biggest, n + 1, biggest):
            nowa_col, swa_col = dict(column_at(nowa, t)), dict(column_at(swa, t))
            assert nowa_col.keys() == swa_col.keys()
            for k in nowa_col:
                assert nowa_col[k] == swa_col[k], f"t={t}, scale {k}"


class TestColumnAt:
    def test_nowa_incomplete_blocks_are_omitted(self):
        config = ScaleConfig(base=2, num_scales=3, hurst=0.5)
        short = build_nowa(np.ones(4), config)  # scale-3 block needs 4 samples
        assert [k for k, _ in column_at(short, 1)] == [1, 2, 3]
        uneven = build_nowa(np.ones(7), config)
        assert [k for k, _ in column_at(uneven, 5)] == [1, 2]  # block 2 of scale 3 incomplete
        assert [k for k, _ in column_at(uneven, 4)] == [1, 2, 3]

    def test_swa_warm_up_boundary(self):
        config = ScaleConfig(base=2, num_scales=4, hurst=0.5)
        pyramid = build_swa(np.ones(16), config)
        assert len(column_at(pyramid, config.max_window)) == 4
        assert len(column_at(pyramid, config.max_window - 1)) == 3

    def test_out_of_range_position_rejected(self):
        pyramid = build_swa(np.ones(8), ScaleConfig(base=2, num_scales=2, hurst=0.5))
        for t in (0, 9):
            with pytest.raises(ValueError):
                column_at(pyramid, t)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        base=st.integers(min_value=2, max_value=3),
        num_scales=st.integers(min_value=1, max_value=4),
        nowa=st.booleans(),
    )
    def test_total_on_every_position(self, n, base, num_scales, nowa):
        """column_at never reads out of range for any position 1..n."""
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=0.5)
        if n < config.max_window:
            return
        build = build_nowa if nowa else build_swa
        pyramid = build(np.arange(float(n)), config)
        for t in range(1, n + 1):
            column = column_at(pyramid, t)
            assert 1 <= len(column) <= num_scales
            assert column[0][0] == 1  # scale 1 always present


class TestStreaming:
    def test_first_sample(self):
        state = StreamState(ScaleConfig(base=2, num_scales=3, hurst=0.5))
        assert state.push(2.5) == (2.5, 1)

    def test_constant_stream_closed_form(self):
        config = ScaleConfig(base=2, num_scales=4, hurst=0.5)
        state = StreamState(config)
        for t in range(1, config.max_window + 1):
            largest_warm = max(k for k in (1, 2, 3, 4) if config.window(k) <= t)
            statistic, scale = state.push(1.0)
            assert scale == largest_warm
            assert statistic == pytest.approx(config.window(largest_warm) ** 0.5)

    @pytest.mark.parametrize("seed", [1 << 20, 17])
    def test_matches_batch_column_by_column(self, seed):
        """After N pushes the emitted statistic and scale equal, exactly, the
        first max over the sliding pyramid's column of the whole series."""
        config = ScaleConfig(base=2, num_scales=5, hurst=0.8)
        x = synthesize_fgn(LrdModel(0.8), 600, seed=seed)
        pyramid = build_swa(x, config)
        state = StreamState(config)
        for t in range(1, len(x) + 1):
            assert state.push(x[t - 1]) == column_max(pyramid, t), f"t={t}"

    def test_base_three_stream(self):
        config = ScaleConfig(base=3, num_scales=3, hurst=0.6)
        x = synthesize_fgn(LrdModel(0.6), 100, seed=56)
        pyramid = build_swa(x, config)
        state = StreamState(config)
        for t in range(1, 101):
            assert state.push(x[t - 1]) == column_max(pyramid, t), f"t={t}"

    def test_statistic_and_argmax_match_batch_swa(self):
        """At every position, warm-up included, push returns exactly the
        statistic of detect(method='swa') and the first scale achieving it,
        which is detect's argmax wherever detect flags."""
        config = ScaleConfig(base=2, num_scales=6, hurst=0.8)
        x = synthesize_fgn(LrdModel(0.8), 2048, seed=57)
        x[500:800] += 0.8  # sustained shift: coarse scales win
        x[1300] += 6.0  # spike: scale 1 wins
        result = detect(x, DetectionConfig(scale_config=config, threshold=1.8, method="swa"))
        state = StreamState(config)
        streamed = [state.push(v) for v in x]
        assert [statistic for statistic, _ in streamed] == result.statistic.tolist()
        pyramid = build_swa(x, config)
        assert streamed == [column_max(pyramid, t) for t in range(1, len(x) + 1)]
        assert [streamed[t - 1][1] for t in result.flags] == result.argmax_scale.tolist()
        assert len(set(result.argmax_scale.tolist())) >= 3

    @pytest.mark.parametrize("base, num_scales, n",
                             [(2, 15, 1 << 17), (3, 6, 1 << 17), (4, 5, 1 << 12), (2, 6, 300)])
    def test_matches_batch_swa_exactly(self, base, num_scales, n):
        """Every streamed (statistic, argmax_scale) equals batch swa's, bit for
        bit, through the warm-up and a shifted stretch and a spike that move
        the argmax across scales, whether pushed, extended or both."""
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=0.8)
        x = synthesize_fgn(LrdModel(0.8), n, seed=58)
        x[n // 3 : n // 2] += 0.8
        x[2 * n // 3] += 8.0
        statistic, flags, argmax_scale = dense_detect(build_swa(x, config), 0.0)
        assert len(flags) == n
        batch = list(zip(statistic.tolist(), argmax_scale.tolist()))
        assert len({scale for _, scale in batch}) >= 3
        for feed in FEEDS:
            assert stream_feed(config, x, feed) == batch, feed

    @pytest.mark.parametrize("lead", [0, 9])
    def test_overflowing_sum_recovers(self, lead):
        """Two samples of 1e308 give an infinite statistic only where a window
        holds both, as the batch pyramid does, and an exact one once they
        have left: with the overflow while scales 3 and 4 still fill up
        (lead 0) and after every scale is warm (lead 9)."""
        config = ScaleConfig(base=2, num_scales=4, hurst=0.9)
        x = [0.0] * lead + [1e308, 1e308] + [0.0] * 11
        with np.errstate(over="ignore"):
            pyramid = build_swa(np.array(x), config)
        batch = [max(abs(v) for _, v in column_at(pyramid, t)) for t in range(1, len(x) + 1)]
        for feed in FEEDS:
            assert [statistic for statistic, _ in stream_feed(config, x, feed)] == batch, feed
        assert np.inf in batch and batch[-1] == 0.0

    @pytest.mark.parametrize(
        "x, num_scales, settled_from, settled",
        [
            ([1e20] + [1.0] * 20, 4, 9, 8.0 / 8**0.5),
            ([1e308, 1e308, -1e308, -1e308] + [0.5] * 12, 3, 8, 1.0),
        ],
        ids=["spike-1e20", "overflow-1e308"],
    )
    def test_huge_samples_leave_no_trace(self, x, num_scales, settled_from, settled):
        """Once a huge sample, or samples whose sums overflow, have left
        every window, the stream reads what batch swa reads from the samples
        that remain: from ``settled_from`` on, a full largest window of them.
        A running sum ``(s + x) - leaving`` would round the ones away after
        1e20 and stay off after the overflows."""
        config = ScaleConfig(base=2, num_scales=num_scales, hurst=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            pyramid = build_swa(np.array(x), config)
        batch = [column_max(pyramid, t) for t in range(1, len(x) + 1)]
        assert batch[settled_from - 1 :] == [(settled, num_scales)] * (len(x) - settled_from + 1)
        for feed in FEEDS:
            assert stream_feed(config, x, feed) == batch, feed

    @pytest.mark.parametrize("base, num_scales", [(2, 6), (3, 4), (10, 3)])
    def test_block_from_each_warm_up_edge_equals_push(self, base, num_scales):
        """A block starting at a scale's lead, or one sample before or after it,
        returns bit for bit the statistics and scales that pushing its
        samples returns, through ±1e308 samples whose windows overflow to
        ±inf and, where a window holds both signs, to NaN."""
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=0.8)
        top = config.max_window
        x = np.random.default_rng(64).standard_normal(3 * top + 4)
        x[top // 2 : top] += 3.0
        for p in (1, top // 2, top + 3, 2 * top + 1):
            x[p : p + 2] = HUGE[0], HUGE[2]
            x[p + base + 5 : p + base + 7] = HUGE[1], HUGE[3]
        with np.errstate(over="ignore", invalid="ignore"):
            levels = build_swa(x, config).levels
        assert any(np.isinf(level).any() for level in levels)
        assert any(np.isnan(level).any() for level in levels)
        for k in range(1, num_scales + 1):
            lead = config.cover("swa", k)[0]
            for start in sorted({max(lead - 1, 0), lead, lead + 1}):
                state, reference = StreamState(config), StreamState(config)
                for v in x[:start].tolist():
                    state.push(v)
                    reference.push(v)
                block = x[start : start + 2 * top + 2]
                with np.errstate(over="ignore", invalid="ignore"):
                    statistics, scales = state.extend(block)
                pushed = [reference.push(v) for v in block.tolist()]
                assert statistics.tobytes() == np.array([s for s, _ in pushed]).tobytes(), start
                assert scales.tolist() == [scale for _, scale in pushed], start

    def test_ties_go_to_the_smallest_scale(self):
        """A constant at hurst 1 ties exactly at every warm scale."""
        config = ScaleConfig(base=2, num_scales=5, hurst=1.0)
        for feed in FEEDS:
            assert stream_feed(config, [3.0] * 40, feed) == [(3.0, 1)] * 40, feed

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_sample_and_keeps_state(self, bad):
        """A rejected sample, or a block holding it and a NaN after it,
        changes nothing: later pushes, and a 100 sd spike among them, equal
        those of a state that never saw them."""
        config = ScaleConfig(base=2, num_scales=6, hurst=0.8)
        x = synthesize_fgn(LrdModel(0.8), 200, seed=59)
        x[150] += 100.0
        state = StreamState(config)
        clean = StreamState(config)
        for v in x[:50]:
            state.push(v)
            clean.push(v)
        with pytest.raises(ValueError, match=f"sample must be finite, got {bad!r}"):
            state.push(bad)
        with pytest.raises(ValueError, match=f"sample must be finite, got {bad!r}"):
            state.extend([1.0, bad, 2.0, float("nan")])
        assert state.samples_seen == 50
        after = [state.push(v) for v in x[50:]]
        assert after == [clean.push(v) for v in x[50:]]
        assert after[100] == (pytest.approx(100.0, abs=5.0), 1)

    @pytest.mark.parametrize("rows", [2, 41])
    def test_rejects_a_block_that_is_not_one_dimensional_and_keeps_state(self, rows):
        """A 2-D block, of few rows or of many, is refused before the state
        changes: the next block's statistics and scales equal, bit for bit,
        those of a state that never saw it."""
        config = ScaleConfig(base=3, num_scales=4, hurst=0.9)
        x = synthesize_fgn(LrdModel(0.9), 160, seed=61)
        state, clean = StreamState(config), StreamState(config)
        state.extend(x[:60])
        clean.extend(x[:60])
        with pytest.raises(ValueError, match=r"samples must be one-dimensional, got shape \("):
            state.extend(np.zeros((rows, 2)))
        assert state.samples_seen == 60
        statistics, argmax_scales = state.extend(x[60:])
        expected_statistics, expected_scales = clean.extend(x[60:])
        assert state.samples_seen == 160
        assert statistics.tobytes() == expected_statistics.tobytes()
        assert np.array_equal(argmax_scales, expected_scales)

    @pytest.mark.parametrize("length", [1, 27, 28, 40])
    def test_extend_warns_as_build_swa_does_and_push_is_silent(self, length):
        """Where window sums overflow to ±inf and then to NaN, ``extend`` of a
        block of any length, after the samples before it were pushed, raises
        the ``RuntimeWarning`` messages ``build_swa`` raises on all the
        samples, ``overflow`` and ``invalid value`` among them, and returns
        the bits ``push`` returns; ``push`` raises none."""
        config = ScaleConfig(base=2, num_scales=4, hurst=0.5)
        x = np.zeros(max(length, 8) + 8)
        x[-8:] = [1e308, 0.0, 0.0, 1e308, -1e308, 0.0, 0.0, -1e308]

        def messages(compute):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = compute()
            return result, {str(w.message) for w in caught if w.category is RuntimeWarning}

        _, batch = messages(lambda: build_swa(x, config))
        assert any("overflow" in m for m in batch) and any("invalid value" in m for m in batch)
        state, reference = StreamState(config), StreamState(config)
        for v in x[:-length].tolist():
            state.push(v)
        (statistics, scales), extended = messages(lambda: state.extend(x[-length:]))
        assert extended == batch
        pushed, silent = messages(lambda: [reference.push(v) for v in x.tolist()])
        assert silent == set()
        assert statistics.tobytes() == np.array([s for s, _ in pushed[-length:]]).tobytes()
        assert scales.tolist() == [k for _, k in pushed[-length:]]

    def test_empty_block_returns_two_empty_arrays(self):
        """Extending by nothing returns nothing and changes nothing."""
        config = ScaleConfig(base=2, num_scales=4, hurst=0.8)
        state, clean = StreamState(config), StreamState(config)
        assert state.push(1.0) == clean.push(1.0)
        statistics, argmax_scales = state.extend([])
        assert statistics.shape == argmax_scales.shape == (0,)
        assert state.samples_seen == 1
        assert [state.push(v) for v in (2.0, -3.0)] == [clean.push(v) for v in (2.0, -3.0)]

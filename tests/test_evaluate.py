"""Injection, confusion counts, rates, and the simulation study."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdshift.fgn as fgn_module
from lrdshift import (
    ConfusionCounts,
    ExperimentConfig,
    InjectionSpec,
    confusion,
    inject,
    metrics,
    naive_baseline,
    run_experiment,
    substream,
)


class TestInjectionSpec:
    def test_requires_exactly_one_start(self):
        with pytest.raises(ValueError, match="start"):
            InjectionSpec(start=3, start_range=10, duration=2)
        with pytest.raises(ValueError, match="start"):
            InjectionSpec(duration=2)

    def test_requires_exactly_one_duration(self):
        with pytest.raises(ValueError, match="duration"):
            InjectionSpec(start=1, duration=2, duration_mean=5.0)

    def test_fixed_resolution(self):
        assert InjectionSpec(start=7, duration=3).resolve() == (7, 3)

    def test_drawn_durations_have_the_right_mean(self):
        """Rounded exponential durations average to the mean within 5%
        over 1000 draws."""
        spec = InjectionSpec(start_range=2**14, duration_mean=4000.0)
        durations = [spec.resolve(substream(301, i))[1] for i in range(1000)]
        assert np.mean(durations) == pytest.approx(4000.0, rel=0.05)
        assert min(durations) >= 1

    def test_drawn_starts_are_uniform_over_range(self):
        spec = InjectionSpec(start_range=100, duration=1)
        starts = [spec.resolve(substream(302, i))[0] for i in range(2000)]
        assert min(starts) >= 1 and max(starts) <= 100
        assert np.mean(starts) == pytest.approx(50.5, abs=2.5)


class TestInject:
    def test_fixed_interval(self):
        shifted, truth = inject(np.zeros(10), InjectionSpec(delta=1.0, start=3, duration=3))
        assert np.array_equal(shifted.values, [0, 0, 1, 1, 1, 0, 0, 0, 0, 0])
        assert np.array_equal(np.nonzero(truth)[0] + 1, [3, 4, 5])

    def test_zero_shift_leaves_values_but_marks_mask(self):
        x = np.arange(8.0)
        shifted, truth = inject(x, InjectionSpec(delta=0.0, start=2, duration=4))
        assert np.array_equal(shifted.values, x)
        assert truth.sum() == 4

    def test_interval_clipped_at_series_end(self):
        shifted, truth = inject(np.zeros(6), InjectionSpec(delta=2.0, start=5, duration=10))
        assert np.array_equal(shifted.values, [0, 0, 0, 0, 2, 2])
        assert truth.sum() == 2

    def test_start_beyond_end_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            inject(np.zeros(4), InjectionSpec(delta=1.0, start=9, duration=2))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            inject(np.array([]), InjectionSpec(delta=1.0, start=1, duration=1))

    def test_deterministic_given_seed(self):
        spec = InjectionSpec(delta=1.0, start_range=50, duration_mean=8.0, seed=9)
        a, mask_a = inject(np.zeros(100), spec)
        b, mask_b = inject(np.zeros(100), spec)
        assert np.array_equal(a.values, b.values) and np.array_equal(mask_a, mask_b)


def brute_force_confusion(flags, truth, n):
    """Definition-by-counting oracle: classify each position."""
    tn = fp = fn = tp = 0
    for i in range(1, n + 1):
        flagged, actual = i in flags, i in truth
        tp += flagged and actual
        fp += flagged and not actual
        fn += actual and not flagged
        tn += not flagged and not actual
    return tn, fp, fn, tp


class TestConfusion:
    def test_worked_example(self):
        counts = confusion({4, 7}, {3, 4, 5}, 10)
        assert (counts.true_negative, counts.false_positive,
                counts.false_negative, counts.true_positive) == (6, 1, 2, 1)

    def test_empty_sets(self):
        counts = confusion(set(), set(), 5)
        assert counts.true_negative == 5 and counts.total == 5

    def test_perfect_detection(self):
        counts = confusion(set(range(1, 6)), set(range(1, 6)), 5)
        assert counts.true_positive == 5 and counts.declared == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion({0}, set(), 5)
        with pytest.raises(ValueError):
            confusion(set(), {6}, 5)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_partition_identity_and_oracle(self, n, data):
        """Sets, lists with repeated indices and numpy arrays all count
        each position once."""
        indices = st.lists(st.integers(min_value=1, max_value=n), max_size=2 * n)
        flags, truth = data.draw(indices), data.draw(indices)
        expected = brute_force_confusion(flags, truth, n)
        for form in (set, list, np.array):
            counts = confusion(form(flags), form(truth), n)
            assert counts.total == n
            assert (counts.true_negative, counts.false_positive,
                    counts.false_negative, counts.true_positive) == expected


class TestMetrics:
    def test_worked_example(self):
        summary = metrics(ConfusionCounts(6, 1, 2, 1))
        assert summary.tdr == pytest.approx(1 / 3)
        assert summary.fdr == pytest.approx(1 / 2)
        assert summary.fnr == pytest.approx(0.25)

    def test_no_true_outliers_gives_undefined_tdr(self):
        summary = metrics(ConfusionCounts(4, 1, 0, 0))
        assert summary.tdr is None
        assert summary.fdr == 1.0

    def test_no_declared_outliers_gives_undefined_fdr(self):
        summary = metrics(ConfusionCounts(4, 0, 1, 0))
        assert summary.fdr is None
        assert summary.fnr == pytest.approx(0.2)

    def test_everything_declared_gives_undefined_fnr(self):
        summary = metrics(ConfusionCounts(0, 3, 0, 2))
        assert summary.fnr is None


class TestNaiveBaseline:
    def test_zeros_produce_no_flags(self):
        assert len(naive_baseline(np.zeros(32), 0.05)) == 0

    def test_large_value_is_flagged(self):
        flags = naive_baseline(np.array([0.0, 3.0, 0.0]), 0.05)
        assert list(flags) == [2]

    def test_calibrated_on_independent_noise(self):
        rng = np.random.default_rng(303)
        x = rng.standard_normal(200_000)
        rate = len(naive_baseline(x, 0.05)) / len(x)
        se = np.sqrt(0.05 * 0.95 / len(x))
        assert abs(rate - 0.05) < 2 * se

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            naive_baseline(np.zeros(4), 1.5)


class TestRunExperiment:
    def small_config(self, **overrides):
        injection = overrides.pop(
            "injection", InjectionSpec(delta=1.0, start_range=2**9, duration_mean=200.0)
        )
        defaults = dict(
            sets=2, sims_per_set=3, n=2**10, hurst=0.8, injection=injection,
            alpha=0.05, num_scales=5, method="swa", mc_reps=10**4, seed=42,
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_reproducible(self):
        a = run_experiment(self.small_config())
        b = run_experiment(self.small_config())
        assert a.threshold_value == b.threshold_value
        assert a.rows == b.rows

    def test_embedding_is_computed_once_per_study(self, monkeypatch):
        calls = []
        original = fgn_module._embedding_eigenvalues

        def counting(model, n):
            calls.append(n)
            return original(model, n)

        monkeypatch.setattr(fgn_module, "_embedding_eigenvalues", counting)
        run_experiment(self.small_config())
        assert calls == [2**10]

    def test_row_layout(self):
        result = run_experiment(self.small_config())
        assert len(result.rows) == 2 * 2  # sets x detectors
        assert {row[1] for row in result.rows} == {"multiscale", "naive"}

    def test_zero_shift_means_no_true_outliers(self):
        """With delta = 0 nothing is anomalous: TDR is undefined and the
        false-positive rate stays near the family-wise level."""
        config = self.small_config(
            injection=InjectionSpec(delta=0.0, start_range=2**9, duration_mean=200.0),
            sets=1, sims_per_set=4,
        )
        result = run_experiment(config)
        for _, detector, summary in result.rows:
            assert summary.tdr is None
            assert summary.fdr == 1.0  # every flag is a false positive
            assert summary.fnr == 0.0

    def test_csv_and_json_outputs(self, tmp_path):
        result = run_experiment(self.small_config())
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        result.to_csv(csv_path)
        result.to_json(json_path)
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.rows)
        assert set(rows[0]) == {"set_id", "detector", "tdr", "fdr", "fnr"}
        for row in rows:
            if row["tdr"]:
                assert 0.0 <= float(row["tdr"]) <= 1.0
        summary = json.loads(json_path.read_text())
        assert set(summary["detectors"]) == {"multiscale", "naive"}
        assert {"median", "q1", "q3"} <= set(summary["detectors"]["multiscale"]["tdr"])

    def test_multiscale_beats_naive_when_dependence_is_moderate(self):
        """Small study away from the hardest regime: at H = 0.8 the
        multiscale detector's TDR clears the single-scale baseline by a
        wide margin (the full-protocol comparison lives in the acceptance
        suite)."""
        injection = InjectionSpec(delta=1.0, start_range=2**13, duration_mean=2000.0)
        config = ExperimentConfig(
            sets=3, sims_per_set=5, n=2**14, hurst=0.8, injection=injection,
            alpha=0.05, num_scales=12, method="swa", mc_reps=10**5, seed=71,
        )
        summary = run_experiment(config).summary()["detectors"]
        assert summary["multiscale"]["tdr"]["median"] > summary["naive"]["tdr"]["median"]
        assert summary["multiscale"]["tdr"]["median"] > 0.5
        assert summary["multiscale"]["fnr"]["median"] <= summary["naive"]["fnr"]["median"]

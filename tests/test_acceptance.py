"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion.  Every Monte-Carlo criterion uses pinned seeds, so reruns are
deterministic.  Criterion 7's true-discovery floor is asserted exactly as
stated and is expected to fail: at the pinned background dependence
(hurst 0.9) the per-observation detection rate of a one-sd shift has a
mathematical ceiling near 0.35, below the 0.5 floor; its docstring carries
the analysis.
"""

import itertools
import time

import numpy as np
import pytest

from lrdshift import (
    ConfusionCounts,
    DetectionConfig,
    ExperimentConfig,
    FgnSampler,
    InjectionSpec,
    LrdModel,
    ScaleConfig,
    StreamState,
    ThresholdQuery,
    asymptotic_threshold,
    build_swa,
    confusion,
    cross_scale_corr,
    detect,
    fgn_acf,
    improved_threshold,
    metrics,
    power_gap,
    power_single_scale,
    power_two_scale,
    run_experiment,
    single_scale_threshold,
    subseed,
    substream,
    synthesize_fgn,
    two_scale_expansion,
)
from oracles import column_at, exact_two_scale_threshold


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_fgn_synthesis_exactness():
    """Empirical 8x8 covariance from 10^4 length-8 paths (H=0.9) matches
    the closed form entrywise within 4 SE, in under 10 seconds."""
    started = time.time()
    model = LrdModel(0.9)
    reps = 10**4
    sampler = FgnSampler(model, 8)
    paths = np.stack([sampler.sample(subseed(1101, i)) for i in range(reps)])
    empirical = paths.T @ paths / reps
    theoretical = fgn_acf(model, np.abs(np.subtract.outer(np.arange(8), np.arange(8))))
    variances = np.outer(np.diag(theoretical), np.diag(theoretical))
    se = np.sqrt((variances + theoretical**2) / reps)
    worst = float(np.max(np.abs(empirical - theoretical) / se))
    elapsed = time.time() - started
    ok = worst < 4.0 and elapsed < 10.0
    report(1, "fGn synthesis exactness", ok, f"worst entry {worst:.2f} SE (limit 4), {elapsed:.1f}s")
    assert worst < 4.0, f"covariance entry off by {worst:.2f} SE"
    assert elapsed < 10.0


def test_criterion_2_cross_scale_correlation():
    """Monte-Carlo correlations of the scale-1..3 values at a fixed interior
    position match the closed form at scale lags 1 and 2 within 3 SE."""
    started = time.time()
    reps, position = 10**4, 12
    config = ScaleConfig(base=2, num_scales=3, hurst=0.9)
    sampler = FgnSampler(LrdModel(0.9), 16)
    paths = (sampler.sample(subseed(1102, i)) for i in range(reps))
    columns = np.empty((reps, 3))
    for i, path in enumerate(paths):
        columns[i] = [value for _, value in column_at(build_swa(path, config), position)]
    corr = np.corrcoef(columns.T)
    pairs = [(0, 1, 1), (1, 2, 1), (0, 2, 2)]
    details, ok = [], True
    for a, b, lag in pairs:
        target = cross_scale_corr(0.9, 2, lag)
        se = (1.0 - target**2) / np.sqrt(reps)
        deviation = abs(corr[a, b] - target)
        ok &= deviation < 3 * se
        details.append(f"scales({a + 1},{b + 1}): {corr[a, b]:.4f} vs {target:.4f} ({deviation / se:.1f} SE)")
    elapsed = time.time() - started
    ok = ok and elapsed < 60.0
    report(2, "cross-scale correlation", ok, "; ".join(details) + f", {elapsed:.1f}s")
    for a, b, lag in pairs:
        target = cross_scale_corr(0.9, 2, lag)
        assert abs(corr[a, b] - target) < 3 * (1.0 - target**2) / np.sqrt(reps)
    assert elapsed < 60.0


def test_criterion_3_threshold_ordering_grid():
    """On H x m x alpha grid with 10^6 reps: single-scale <= improved <=
    asymptotic + 2 SE; improved increasing in m and decreasing in H."""
    started = time.time()
    hursts, scale_counts, alphas = (0.6, 0.75, 0.9), (2, 5, 10, 15), (0.01, 0.05)
    values: dict = {}
    ok = True
    for i, (hurst, m, alpha) in enumerate(itertools.product(hursts, scale_counts, alphas)):
        result = improved_threshold(
            ThresholdQuery(alpha=alpha, num_scales=m, hurst=hurst, mc_reps=10**6, seed=1200 + i)
        )
        values[hurst, m, alpha] = result
        ok &= single_scale_threshold(alpha).value <= result.value
        ok &= result.value <= asymptotic_threshold(alpha, m).value + 2 * result.mc_standard_error
    for hurst, alpha in itertools.product(hursts, alphas):
        chain = [values[hurst, m, alpha].value for m in scale_counts]
        ok &= all(a < b for a, b in zip(chain, chain[1:]))
    for m, alpha in itertools.product(scale_counts, alphas):
        chain = [values[hurst, m, alpha].value for hurst in hursts]
        ok &= all(a > b for a, b in zip(chain, chain[1:]))
    elapsed = time.time() - started
    ok = ok and elapsed < 120.0
    report(3, "threshold ordering grid", ok, f"24 combinations checked, {elapsed:.1f}s")
    for (hurst, m, alpha), result in values.items():
        assert single_scale_threshold(alpha).value <= result.value, (hurst, m, alpha)
        assert result.value <= asymptotic_threshold(alpha, m).value + 2 * result.mc_standard_error, (hurst, m, alpha)
    for hurst, alpha in itertools.product(hursts, alphas):
        chain = [values[hurst, m, alpha].value for m in scale_counts]
        assert all(a < b for a, b in zip(chain, chain[1:])), f"not increasing in m at H={hurst}, alpha={alpha}"
    for m, alpha in itertools.product(scale_counts, alphas):
        chain = [values[hurst, m, alpha].value for hurst in hursts]
        assert all(a > b for a, b in zip(chain, chain[1:])), f"not decreasing in H at m={m}, alpha={alpha}"
    assert elapsed < 120.0


def test_criterion_4_two_scale_expansion_convergence():
    """|expansion - two-scale Monte-Carlo threshold| decreases over
    L in {2^6, 2^9, 2^12} at (alpha=0.05, H=0.8); final gap <= 0.02.

    The middle-to-last true gap difference (~2e-4, confirmed against exact
    bivariate quadrature below) is near the Monte-Carlo resolution
    affordable in the time budget, so the seed is pinned and the shared
    substreams correlate the errors across window sizes."""
    started = time.time()
    alpha, hurst = 0.05, 0.8
    windows = (2**6, 2**9, 2**12)
    mc_gaps, exact_gaps = [], []
    for big in windows:
        expansion = two_scale_expansion(alpha, hurst, big)
        result = improved_threshold(
            ThresholdQuery(alpha=alpha, num_scales=2, hurst=hurst, base=big, mc_reps=4 * 10**6, seed=0)
        )
        mc_gaps.append(abs(expansion - result.value))
        exact_gaps.append(abs(expansion - exact_two_scale_threshold(alpha, cross_scale_corr(hurst, big, 1))))
    elapsed = time.time() - started
    mc_ok = mc_gaps[0] > mc_gaps[1] > mc_gaps[2] and mc_gaps[2] <= 0.02
    exact_ok = exact_gaps[0] > exact_gaps[1] > exact_gaps[2]
    ok = mc_ok and exact_ok and elapsed < 60.0
    report(
        4,
        "two-scale expansion convergence",
        ok,
        f"MC gaps {[f'{g:.2e}' for g in mc_gaps]}, exact gaps {[f'{g:.2e}' for g in exact_gaps]}, {elapsed:.1f}s",
    )
    assert exact_gaps[0] > exact_gaps[1] > exact_gaps[2], "true gaps must decrease"
    assert mc_gaps[0] > mc_gaps[1] > mc_gaps[2], f"MC gaps not monotone: {mc_gaps}"
    assert mc_gaps[2] <= 0.02
    assert elapsed < 60.0


def test_criterion_5_power_inequality_and_gap_function():
    """Pair power beats the single-scale average within noise at
    (alpha=0.01, delta=1, H=0.9, L=2^10, K=L); the limiting power-gap
    function is positive on the small-alpha grid and exactly 0 at alpha=0.

    The pair power is exact (``power_two_scale`` has no Monte Carlo); the
    allowance of two SEs of a 10^6-replicate estimate is the criterion's as
    stated."""
    started = time.time()
    alpha, delta, hurst, big = 0.01, 1.0, 0.9, 2**10
    reps = 10**6
    pair = power_two_scale(alpha, delta, hurst, big, big)
    critical = single_scale_threshold(alpha).value
    average = (
        power_single_scale(critical, delta)
        + power_single_scale(critical, big * delta / big**hurst)
    ) / 2
    se = np.sqrt(pair * (1 - pair) / reps)
    inequality_ok = pair >= average - 2 * se
    gaps_ok = all(
        power_gap(a, d) > 0.0 for a in (0.001, 0.005, 0.01) for d in (0.1, 0.5, 1.0, 2.0)
    )
    zero_ok = all(power_gap(0.0, d) == 0.0 for d in (0.1, 0.5, 1.0, 2.0))
    elapsed = time.time() - started
    ok = inequality_ok and gaps_ok and zero_ok and elapsed < 60.0
    report(
        5,
        "two-scale power inequality",
        ok,
        f"pair {pair:.4f} vs average {average:.4f} (margin {pair - average:+.4f}, SE {se:.4f}); "
        f"gap function positive on grid and zero at alpha=0, {elapsed:.1f}s",
    )
    assert inequality_ok
    assert gaps_ok and zero_ok
    assert elapsed < 60.0


def test_criterion_6_null_calibration():
    """Pure background (H=0.9, n=4096, m=10, improved threshold at 0.05):
    family-wise per-position flag rate over positions with all scales
    available, averaged over 200 seeds, within 0.05 +- 0.01."""
    started = time.time()
    hurst, n, m, alpha, seeds = 0.9, 4096, 10, 0.05, 200
    threshold = improved_threshold(
        ThresholdQuery(alpha=alpha, num_scales=m, hurst=hurst, mc_reps=10**6, seed=1501)
    )
    config = DetectionConfig(
        scale_config=ScaleConfig(base=2, num_scales=m, hurst=hurst),
        threshold=threshold.value,
        method="swa",
    )
    biggest = config.scale_config.max_window
    model = LrdModel(hurst)
    rates = []
    for i in range(seeds):
        path = synthesize_fgn(model, n, subseed(1502, i))
        flags = detect(path, config).flags
        rates.append(np.sum(flags >= biggest) / (n - biggest + 1))
    rate = float(np.mean(rates))
    elapsed = time.time() - started
    ok = abs(rate - alpha) <= 0.01 and elapsed < 180.0
    report(6, "null calibration", ok, f"flag rate {rate:.4f} (target 0.05 +- 0.01), {elapsed:.1f}s")
    assert abs(rate - alpha) <= 0.01, f"family-wise rate {rate:.4f}"
    assert elapsed < 180.0


def test_criterion_7_simulation_study_comparison():
    """Desk-scale simulation study at the pinned protocol (10 sets x 20
    sims, n=2^15, H=0.9, uniform start, Exp(4000) duration, delta=1,
    alpha=0.05, m=15): the multiscale detector must beat the naive baseline
    on median TDR and FDR, and clear a 0.5 median TDR floor.

    The comparison clauses hold; the 0.5 floor cannot: a fully covered
    window of length L only gains L^(1-H) = L^0.1 of mean offset at
    H = 0.9, capping the per-observation detection probability near 0.35
    under these durations.  The same protocol clears 0.6 at H = 0.85 and
    0.88 at H = 0.8.  The floor is asserted as stated and fails."""
    started = time.time()
    injection = InjectionSpec(delta=1.0, start_range=2**14, duration_mean=4000.0)
    config = ExperimentConfig(
        sets=10, sims_per_set=20, n=2**15, hurst=0.9, injection=injection,
        alpha=0.05, num_scales=15, base=2, method="swa", mc_reps=10**6, seed=1601,
    )
    summary = run_experiment(config).summary()["detectors"]
    multiscale, naive = summary["multiscale"], summary["naive"]
    tdr_beats = multiscale["tdr"]["median"] > naive["tdr"]["median"]
    fdr_beats = multiscale["fdr"]["median"] <= naive["fdr"]["median"]
    floor_ok = multiscale["tdr"]["median"] >= 0.5
    elapsed = time.time() - started
    ok = tdr_beats and fdr_beats and floor_ok and elapsed < 900.0
    report(
        7,
        "simulation study comparison",
        ok,
        f"TDR {multiscale['tdr']['median']:.3f} vs naive {naive['tdr']['median']:.3f}; "
        f"FDR {multiscale['fdr']['median']:.3f} vs naive {naive['fdr']['median']:.3f}; "
        f"TDR floor 0.5 {'met' if floor_ok else 'NOT met (structural power ceiling at hurst 0.9)'}; "
        f"{elapsed:.0f}s",
    )
    assert tdr_beats, "multiscale must beat naive on median TDR"
    assert fdr_beats, "multiscale must not exceed naive on median FDR"
    assert elapsed < 900.0
    assert floor_ok, (
        f"median TDR {multiscale['tdr']['median']:.3f} < 0.5: out of reach at hurst 0.9 "
        "(per-observation power ceiling ~0.35; the same protocol reaches ~0.62 at hurst 0.85)"
    )


def test_criterion_8_stream_batch_equivalence():
    """Sliding-window streaming flags equal batch flags at every position,
    warm-up included, exactly, on 20 random fixtures."""
    started = time.time()
    rng = np.random.default_rng(1701)
    mismatches = 0
    for fixture in range(20):
        base = int(rng.integers(2, 4))
        num_scales = int(rng.integers(3, 6))
        hurst = float(rng.uniform(0.55, 0.95))
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=hurst)
        n = config.max_window * int(rng.integers(4, 9))
        path = synthesize_fgn(LrdModel(hurst), n, subseed(1702, fixture))
        if fixture % 2 == 0:
            path[int(rng.integers(0, n))] += float(rng.uniform(3.0, 8.0))
        critical = asymptotic_threshold(0.05, num_scales).value
        detection = DetectionConfig(
            scale_config=config,
            threshold=critical,
            method="swa",
        )
        batch = {int(i) for i in detect(path, detection).flags}
        state = StreamState(config)
        streamed = set()
        for t in range(1, n + 1):
            statistic, _ = state.push(path[t - 1])
            if statistic > critical:
                streamed.add(t)
        if streamed != batch:
            mismatches += 1
    elapsed = time.time() - started
    ok = mismatches == 0
    report(8, "stream/batch equivalence", ok, f"20 fixtures, {mismatches} mismatching flag sets, {elapsed:.1f}s")
    assert mismatches == 0


def test_criterion_9_confusion_metric_oracle():
    """Exhaustive brute-force equivalence of the confusion counts and rate
    definitions for every flag/truth pair with n <= 6, exact."""
    started = time.time()
    checked = 0
    for n in range(1, 7):
        universe = list(range(1, n + 1))
        for flag_bits in range(2**n):
            flags = {universe[i] for i in range(n) if flag_bits >> i & 1}
            for truth_bits in range(2**n):
                truth = {universe[i] for i in range(n) if truth_bits >> i & 1}
                counts = confusion(flags, truth, n)
                tn = sum(1 for i in universe if i not in flags and i not in truth)
                fp = sum(1 for i in universe if i in flags and i not in truth)
                fn = sum(1 for i in universe if i not in flags and i in truth)
                tp = sum(1 for i in universe if i in flags and i in truth)
                assert (counts.true_negative, counts.false_positive,
                        counts.false_negative, counts.true_positive) == (tn, fp, fn, tp)
                assert counts.total == n
                summary = metrics(counts)
                assert summary.tdr == (tp / (tp + fn) if tp + fn else None)
                assert summary.fdr == (fp / (tp + fp) if tp + fp else None)
                assert summary.fnr == (fn / (n - tp - fp) if n - tp - fp else None)
                checked += 1
    elapsed = time.time() - started
    report(9, "confusion/metric oracle", True, f"{checked} flag/truth pairs, exact, {elapsed:.1f}s")


def test_criterion_10_method_alignment():
    """Non-overlapping and sliding statistics agree within 1e-12 at every
    multiple of the largest window, on 10 random fixtures."""
    started = time.time()
    rng = np.random.default_rng(1801)
    worst = 0.0
    for fixture in range(10):
        base = int(rng.integers(2, 4))
        num_scales = int(rng.integers(3, 7))
        hurst = float(rng.uniform(0.5, 0.95))
        config = ScaleConfig(base=base, num_scales=num_scales, hurst=hurst)
        n = config.max_window * int(rng.integers(3, 8))
        path = synthesize_fgn(LrdModel(hurst), n, subseed(1802, fixture))
        threshold = asymptotic_threshold(0.05, num_scales).value
        results = {
            method: detect(path, DetectionConfig(scale_config=config, threshold=threshold, method=method))
            for method in ("nowa", "swa")
        }
        for t in range(config.max_window, n + 1, config.max_window):
            worst = max(worst, abs(results["nowa"].statistic[t - 1] - results["swa"].statistic[t - 1]))
    elapsed = time.time() - started
    ok = worst <= 1e-12
    report(10, "aggregation method alignment", ok, f"worst aligned difference {worst:.2e} (limit 1e-12), {elapsed:.1f}s")
    assert worst <= 1e-12

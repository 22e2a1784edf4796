"""Synthetic level-shift injection and detector scoring.

The anomaly model adds a constant ``delta`` (in units of the background
standard deviation) on an interval whose start and duration may be fixed or
drawn (uniform start, exponential duration).  Scoring is per observation:
flags and ground truth partition the positions into the classical confusion
counts, from which true-discovery, false-discovery and false-negative rates
are built.  ``run_experiment`` repeats the synthesize/inject/detect/score
loop over sets of simulations and reports per-set averages for both the
multiscale detector and the naive single-scale baseline.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .detect import DetectionConfig, detect
from .fgn import FgnSampler, LrdModel, TimeSeries, as_series
from .pyramid import ScaleConfig
from .seeding import subseed, substream
from .thresholds import ThresholdQuery, improved_threshold, single_scale_threshold

__all__ = [
    "InjectionSpec",
    "ConfusionCounts",
    "MetricSummary",
    "ExperimentConfig",
    "ExperimentResult",
    "inject",
    "confusion",
    "metrics",
    "naive_baseline",
    "run_experiment",
]


@dataclass(frozen=True)
class InjectionSpec:
    """Where and how strongly to shift the series.

    Exactly one of ``start``/``start_range`` and one of
    ``duration``/``duration_mean`` must be given: fixed 1-based start or
    a start drawn uniformly from {1, ..., start_range}; fixed duration or
    a duration drawn from Exponential(duration_mean) and rounded to the
    nearest integer >= 1.  ``delta`` is the shift in background-sd units.
    """

    delta: float = 1.0
    start: int | None = None
    start_range: int | None = None
    duration: int | None = None
    duration_mean: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.start is None) == (self.start_range is None):
            raise ValueError("give exactly one of start / start_range")
        if (self.duration is None) == (self.duration_mean is None):
            raise ValueError("give exactly one of duration / duration_mean")
        if self.start is not None and self.start < 1:
            raise ValueError("start must be >= 1")
        if self.start_range is not None and self.start_range < 1:
            raise ValueError("start_range must be >= 1")
        if self.duration is not None and self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.duration_mean is not None and not self.duration_mean > 0:
            raise ValueError("duration_mean must be positive")

    def resolve(self, rng: np.random.Generator | None = None) -> tuple[int, int]:
        """Draw (start, duration), both before clipping to the series."""
        if rng is None:
            rng = substream(self.seed)
        if self.start is not None:
            start = self.start
        else:
            start = 1 + int(np.floor(rng.uniform(0.0, self.start_range)))
        if self.duration is not None:
            duration = self.duration
        else:
            duration = max(1, int(np.rint(rng.exponential(self.duration_mean))))
        return start, duration


def inject(series, spec: InjectionSpec, rng: np.random.Generator | None = None):
    """Add the level shift; return ``(shifted_series, truth_mask)``.

    ``truth_mask`` is a boolean array marking exactly the shifted positions.
    The resolved interval is clipped to the series bounds; an interval that
    falls entirely outside them is an error.  Deterministic given
    ``spec.seed`` (or the supplied generator).
    """
    ts = as_series(series)
    n = len(ts)
    if n == 0:
        raise ValueError("series must be non-empty")
    start, duration = spec.resolve(rng)
    if start > n:
        raise ValueError(f"injection start {start} is beyond the series end {n}")
    end = min(start + duration - 1, n)
    truth = np.zeros(n, dtype=bool)
    truth[start - 1 : end] = True
    values = ts.values.copy()
    values[start - 1 : end] += spec.delta
    return TimeSeries(values), truth


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-observation confusion table for one detection run.

    ``true_negative + false_positive + false_negative + true_positive``
    equals the number of observations scored.
    """

    true_negative: int
    false_positive: int
    false_negative: int
    true_positive: int

    @property
    def total(self) -> int:
        return self.true_negative + self.false_positive + self.false_negative + self.true_positive

    @property
    def declared(self) -> int:
        """Observations declared outliers (false + true positives)."""
        return self.false_positive + self.true_positive

    @property
    def actual(self) -> int:
        """Observations that truly are outliers."""
        return self.false_negative + self.true_positive


def confusion(flags, truth, n: int) -> ConfusionCounts:
    """Count the four cells over ``1..n`` from 1-based flag and truth indices (repeats count once)."""
    masks = np.zeros((2, n), dtype=bool)
    for mask, indices, name in ((masks[0], flags, "flags"), (masks[1], truth, "truth")):
        if isinstance(indices, (set, frozenset)):
            indices = list(indices)
        index = np.asarray(indices, dtype=np.int64)
        if index.size and not (index.min() >= 1 and index.max() <= n):
            raise ValueError(f"{name} must be within 1..n")
        mask[index - 1] = True
    flagged, actual = masks
    tp = int(np.count_nonzero(flagged & actual))
    fp = int(np.count_nonzero(flagged)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    return ConfusionCounts(n - tp - fp - fn, fp, fn, tp)


@dataclass(frozen=True)
class MetricSummary:
    """TDR / FDR / FNR ratios; ``None`` marks an undefined (0/0) entry."""

    tdr: float | None
    fdr: float | None
    fnr: float | None


def metrics(counts: ConfusionCounts) -> MetricSummary:
    """Rates from the confusion cells.

    TDR = TP / (TP + FN) over the true outliers; FDR = FP / declared;
    FNR = FN / declared-negative.  A zero denominator yields ``None``.
    """
    tdr = counts.true_positive / counts.actual if counts.actual > 0 else None
    fdr = counts.false_positive / counts.declared if counts.declared > 0 else None
    negatives = counts.total - counts.declared
    fnr = counts.false_negative / negatives if negatives > 0 else None
    return MetricSummary(tdr, fdr, fnr)


def naive_baseline(series, alpha: float) -> np.ndarray:
    """Single-scale flags: positions with ``|Y_1(i)| > Phi^{-1}(1-alpha/2)``.

    Assumes the series is already standardized.  Exactly calibrated for
    independent data and deliberately ignorant of the dependence structure.
    """
    critical = single_scale_threshold(alpha).value
    return np.nonzero(np.abs(as_series(series).values) > critical)[0] + 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol for the simulation study (per-set averages of per-sim rates)."""

    sets: int
    sims_per_set: int
    n: int
    hurst: float
    injection: InjectionSpec
    alpha: float = 0.05
    num_scales: int = 15
    base: int = 2
    method: str = "swa"
    mc_reps: int = 10**6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sets < 1 or self.sims_per_set < 1:
            raise ValueError("sets and sims_per_set must be >= 1")


@dataclass
class ExperimentResult:
    """One row per (set, detector) with within-set average rates."""

    config: ExperimentConfig
    threshold_value: float
    rows: list[tuple[int, str, MetricSummary]] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["set_id", "detector", "tdr", "fdr", "fnr"])
            for set_id, detector, summary in self.rows:
                writer.writerow(
                    [
                        set_id,
                        detector,
                        "" if summary.tdr is None else repr(summary.tdr),
                        "" if summary.fdr is None else repr(summary.fdr),
                        "" if summary.fnr is None else repr(summary.fnr),
                    ]
                )

    def summary(self) -> dict:
        """Medians and quartiles of the per-set averages, per detector."""
        out: dict = {"threshold": self.threshold_value, "detectors": {}}
        for detector in sorted({row[1] for row in self.rows}):
            entry: dict = {}
            for name in ("tdr", "fdr", "fnr"):
                values = [
                    getattr(summary, name)
                    for _, det, summary in self.rows
                    if det == detector and getattr(summary, name) is not None
                ]
                if values:
                    q1, q2, q3 = np.percentile(values, [25.0, 50.0, 75.0])
                    entry[name] = {"median": float(q2), "q1": float(q1), "q3": float(q3)}
                else:
                    entry[name] = None
            out["detectors"][detector] = entry
        return out

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _mean_or_none(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full synthesize/inject/detect/score study.

    One ``FgnSampler`` serves the study, so the embedding is computed once.
    Each simulation draws a fresh background from its own substream, injects
    one level shift, and scores both detectors per observation.  A shift of
    ``delta = 0`` leaves the series untouched, so the truth set is empty and
    TDR is undefined for those runs.  Rates are averaged within each set
    (undefined entries skipped); identical seeds give identical results
    regardless of how the loop is scheduled.
    """
    scale_config = ScaleConfig(base=config.base, num_scales=config.num_scales, hurst=config.hurst)
    critical = improved_threshold(
        ThresholdQuery(
            alpha=config.alpha,
            num_scales=config.num_scales,
            hurst=config.hurst,
            base=config.base,
            mc_reps=config.mc_reps,
            seed=subseed(config.seed, 0),
        )
    ).value
    detection = DetectionConfig(scale_config=scale_config, threshold=critical, method=config.method)
    result = ExperimentResult(config=config, threshold_value=critical)
    sampler = FgnSampler(LrdModel(hurst=config.hurst), config.n)
    for set_id in range(1, config.sets + 1):
        per_sim: dict[str, list[MetricSummary]] = {"multiscale": [], "naive": []}
        for sim in range(config.sims_per_set):
            background = sampler.sample(subseed(config.seed, 1, set_id, sim, 0))
            shifted, truth_mask = inject(
                background, config.injection, substream(config.seed, 1, set_id, sim, 1)
            )
            truth = np.nonzero(truth_mask)[0] + 1 if config.injection.delta != 0.0 else []
            multiscale_flags = detect(shifted, detection).flags
            naive_flags = naive_baseline(shifted, config.alpha)
            for name, flags in (("multiscale", multiscale_flags), ("naive", naive_flags)):
                per_sim[name].append(metrics(confusion(flags, truth, config.n)))
        for name, summaries in per_sim.items():
            result.rows.append(
                (
                    set_id,
                    name,
                    MetricSummary(
                        tdr=_mean_or_none([s.tdr for s in summaries]),
                        fdr=_mean_or_none([s.fdr for s in summaries]),
                        fnr=_mean_or_none([s.fnr for s in summaries]),
                    ),
                )
            )
    return result

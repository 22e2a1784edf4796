"""Pointwise max-over-scales outlier test and the p-value map.

The test runs on a series that is already standardized: for every scale-1
position the statistic is the max of absolute aggregated values over all
scales that provide a value there, and positions whose statistic strictly
exceeds the family-wise threshold (calibrated for unit variance at every
scale) are flagged.  :func:`standardize` is the separate data-preparation
step for raw counters.  The p-value map is a separate, deliberately marginal
layer built on request from the pyramid a detection result carries: each
valid (scale, time) cell gets its own two-sided normal p-value for display,
while flagging always uses the family-wise threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fgn import TimeSeries, as_series
from .pyramid import Pyramid, ScaleConfig, build_nowa, build_swa

__all__ = [
    "DetectionConfig",
    "DetectionResult",
    "Interval",
    "standardize",
    "detect",
    "expand_levels",
    "pvalue_map",
    "flags_to_intervals",
]


@dataclass(frozen=True)
class DetectionConfig:
    """Everything the detector needs besides the data.

    ``threshold`` is the family-wise critical value, e.g. a threshold result's
    ``value``; it must be positive and finite (an infinite one flags nothing).
    """

    scale_config: ScaleConfig
    threshold: float
    method: str = "nowa"  # "nowa" | "swa"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if self.method not in ("nowa", "swa"):
            raise ValueError(f"method must be 'nowa' or 'swa', got {self.method!r}")


@dataclass
class DetectionResult:
    """Per-position statistics, the flag set, and the pyramid behind them.

    ``statistic[i-1]`` is the statistic at 1-based position ``i``;
    ``flags`` are the sorted 1-based positions where it exceeds the
    threshold, and ``argmax_scale[j]`` is the scale achieving the max at
    ``flags[j]``.  ``pyramid`` is the multiscale series the statistic was
    taken over (its layout tag is the method); pass it to
    :func:`pvalue_map` for the p-value map.
    """

    statistic: np.ndarray
    flags: np.ndarray
    argmax_scale: np.ndarray
    pyramid: Pyramid


@dataclass(frozen=True)
class Interval:
    """Half-open flagged region ``[start, end)`` with its dominant scale."""

    start: int
    end: int
    peak_scale: int


def standardize(series, mean: float | None = None, std: float | None = None):
    """Affinely map the series to (nominally) zero mean and unit variance.

    With neither moment given, the series' own mean and sample standard
    deviation (ddof 1) are used and constant input is rejected.  With both,
    they are applied as given, e.g. moments estimated from a training
    segment; ``mean`` must be finite and ``std`` finite and positive.
    Giving one alone is an error.  Returns ``(standardized_series, mean, std)``.
    """
    ts = as_series(series)
    if len(ts) == 0:
        raise ValueError("series must be non-empty")
    if mean is None and std is None:
        mean = float(ts.values.mean())
        std = float(ts.values.std(ddof=1)) if len(ts) > 1 else 0.0
        if std <= 0.0:
            raise ValueError("cannot standardize a constant series by its sample moments")
    elif mean is None or std is None:
        raise ValueError("give both mean and std, or neither")
    elif not math.isfinite(mean):
        raise ValueError("mean must be finite")
    elif not (math.isfinite(std) and std > 0.0):
        raise ValueError("std must be positive and finite")
    values = (ts.values - mean) / std
    return TimeSeries(values), float(mean), float(std)


def expand_levels(pyramid: Pyramid) -> np.ndarray:
    """Levels expanded onto scale-1 time coordinates as a (M, n) matrix.

    Row ``k-1`` holds the scale-``k`` value covering each position: the
    covering complete block (non-overlapping layout) or the backward window
    ending there (sliding layout).  NaN marks positions without a value.
    This is the layout of :func:`pvalue_map`, its only caller; detection
    itself never builds the matrix.
    """
    config = pyramid.config
    out = np.full((config.num_scales, len(pyramid.levels[0])), np.nan)
    for k in range(1, config.num_scales + 1):
        level = pyramid.levels[k - 1]
        window = config.window(k)
        if pyramid.method == "nowa":
            out[k - 1, : len(level) * window] = np.repeat(level, window)
        else:
            out[k - 1, window - 1 :] = level
    return out


def pvalue_map(pyramid: Pyramid) -> np.ndarray:
    """Marginal two-sided p-values ``2(1 - Phi(|Y_k|))`` per valid cell.

    Same (M, n) layout as :func:`expand_levels`; invalid cells stay NaN —
    they are absent, never zero.
    """
    from scipy.special import ndtr

    expanded = expand_levels(pyramid)
    with np.errstate(invalid="ignore"):
        return 2.0 * ndtr(-np.abs(expanded))


def detect(series, config: DetectionConfig) -> DetectionResult:
    """Run the max-over-scales test at every position of ``series``.

    ``series`` is tested as given; standardize raw counters first (see
    :func:`standardize`).  A position is flagged iff its statistic strictly
    exceeds the threshold; ties do not reject.  Near boundaries fewer scales
    are available and the max runs over those present (using the
    full-family threshold there is conservative).  The max is folded over
    the levels into one length-n array, so the working memory besides the
    pyramid is O(n) and no (scales x n) matrix is built; the scale achieving
    the max (smallest on ties) is looked up at the flagged positions only.
    For ``nowa`` the fold runs from the coarsest level down, each level's
    running max pushed into the next finer level only, so each level is
    read once.
    """
    build = build_nowa if config.method == "nowa" else build_swa
    pyramid = build(series, config.scale_config)
    levels = pyramid.levels
    windows = [config.scale_config.window(k) for k in range(1, len(levels) + 1)]
    if config.method == "nowa":
        base = config.scale_config.base
        statistic = np.abs(levels[-1])
        for level in reversed(levels[:-1]):
            finer = np.abs(level)
            covered = finer[: len(statistic) * base].reshape(len(statistic), base)
            np.maximum(covered, statistic[:, None], out=covered)
            statistic = finer
    else:
        statistic = np.abs(levels[0])
        for level, window in zip(levels[1:], windows[1:]):
            covered = statistic[window - 1 :]
            np.maximum(covered, np.abs(level), out=covered)
    flagged = np.nonzero(statistic > config.threshold)[0]
    best = np.abs(levels[0][flagged])
    argmax_scale = np.ones(len(flagged), dtype=int)
    for k, (level, window) in enumerate(zip(levels[1:], windows[1:]), start=2):
        index = flagged // window if config.method == "nowa" else flagged - (window - 1)
        magnitude = np.abs(level.take(index, mode="clip"))
        better = (index >= 0) & (index < len(level)) & (magnitude > best)
        best[better] = magnitude[better]
        argmax_scale[better] = k
    return DetectionResult(
        statistic=statistic,
        flags=flagged + 1,
        argmax_scale=argmax_scale,
        pyramid=pyramid,
    )


def flags_to_intervals(result: DetectionResult, gap_tolerance: int = 0) -> list[Interval]:
    """Merge flagged indices into half-open intervals.

    Consecutive flags separated by at most ``gap_tolerance`` unflagged
    positions join the same interval.  ``peak_scale`` is the most frequent
    argmax scale inside the interval (smallest scale on ties).
    """
    if gap_tolerance < 0:
        raise ValueError("gap_tolerance must be >= 0")
    flags = result.flags
    if len(flags) == 0:
        return []
    breaks = (np.flatnonzero(np.diff(flags) - 1 > gap_tolerance) + 1).tolist()
    starts = [0, *breaks]
    ends = [*breaks, len(flags)]
    return [
        Interval(
            int(flags[start]),
            int(flags[end - 1]) + 1,
            int(np.bincount(result.argmax_scale[start:end]).argmax()),
        )
        for start, end in zip(starts, ends)
    ]

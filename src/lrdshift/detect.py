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
from .thresholds import _ndtr

__all__ = [
    "DetectionConfig",
    "DetectionResult",
    "Interval",
    "standardize",
    "detect",
    "pvalue_rows",
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
    :func:`pvalue_rows` for the p-value map one scale at a time, or to
    :func:`pvalue_map` for the (M, n) matrix.
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


def pvalue_rows(pyramid: Pyramid):
    """Yield each scale's ``(lead, repeat, pvalues)``, scale 1 first.

    ``pvalues`` is a fresh array of the marginal two-sided p-value of each
    entry of the scale's level, and ``(lead, repeat)`` is the level's
    :meth:`~lrdshift.pyramid.ScaleConfig.cover`.  A caller that writes each
    triple out before asking for the next never holds the (M, n) map.
    The p-value is ``2 Phi(-|Y|)`` with ``Phi`` the package's port of
    Cephes' ``ndtr`` (:func:`~lrdshift.thresholds._ndtr`), so the map needs
    no scipy; a NaN (overflowed) entry stays NaN.
    """
    for k, level in enumerate(pyramid.levels, start=1):
        row = _ndtr(-np.abs(level))
        row *= 2.0  # not folded into the port's 0.5: the pair rounds subnormal p-values
        yield (*pyramid.config.cover(pyramid.method, k), row)


def pvalue_map(pyramid: Pyramid) -> np.ndarray:
    """Marginal two-sided p-values ``2(1 - Phi(|Y_k|))`` per valid cell.

    The (M, n) matrix filled from :func:`pvalue_rows`: row ``k-1`` holds the
    p-value of the scale-``k`` entry covering each position.  Invalid cells
    stay NaN — they are absent, never zero.  A window whose sum overflowed
    to NaN (``inf - inf``) is absent too.
    """
    out = np.full((pyramid.config.num_scales, len(pyramid.levels[0])), np.nan)
    for row, (lead, repeat, pvalues) in zip(out, pvalue_rows(pyramid)):
        row[lead : lead + len(pvalues) * repeat] = np.repeat(pvalues, repeat)
    return out


def _max_over_scales(pyramid: Pyramid, work: list[np.ndarray]) -> np.ndarray:
    """The max over scales of the levels' magnitudes at every position.

    ``work`` is two length-n float arrays.  The statistic is folded into
    ``work[0]``, which is returned; ``work[1]`` is overwritten.  For
    ``nowa`` the fold runs from the coarsest level down, 0-based level
    ``j``'s magnitudes in ``work[j % 2]``; for ``swa`` each level's
    magnitudes pass through ``work[1]``.
    """
    levels = pyramid.levels
    if pyramid.method == "nowa":
        base = pyramid.config.base
        statistic = np.empty(0)  # nothing above the coarsest level
        for j in range(len(levels) - 1, -1, -1):
            finer = np.abs(levels[j], out=work[j % 2][: len(levels[j])])
            covered = finer[: len(statistic) * base].reshape(len(statistic), base)
            np.fmax(covered, statistic[:, None], out=covered)
            statistic = finer
    else:
        statistic = np.abs(levels[0], out=work[0])
        for k, level in enumerate(levels[1:], start=2):
            covered = statistic[pyramid.config.cover(pyramid.method, k)[0] :]
            np.fmax(covered, np.abs(level, out=work[1][: len(level)]), out=covered)
    return work[0]


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

    Huge finite samples can overflow a window's sum to ``inf`` or, as
    ``inf - inf``, to NaN.  The folds use ``np.fmax``, so a NaN window is
    skipped like an absent one and never hides the other scales; scale 1 is
    the series itself, so the statistic is never NaN.  This is the rule
    :meth:`~lrdshift.pyramid.StreamState.push` follows, so ``swa`` detection
    equals the stream at every position.  The numpy overflow
    ``RuntimeWarning``s of the pyramid functions are left to reach the
    caller: they are the only report that a window overflowed.
    """
    build = build_nowa if config.method == "nowa" else build_swa
    pyramid = build(series, config.scale_config)
    levels = pyramid.levels
    n = len(levels[0])
    statistic = _max_over_scales(pyramid, [np.empty(n), np.empty(n)])
    flagged = np.nonzero(statistic > config.threshold)[0]
    best = np.abs(levels[0][flagged])
    argmax_scale = np.ones(len(flagged), dtype=int)
    for k, level in enumerate(levels[1:], start=2):
        lead, repeat = config.scale_config.cover(config.method, k)
        index = (flagged - lead) // repeat
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

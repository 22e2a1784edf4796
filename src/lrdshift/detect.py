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

from .pyramid import Pyramid, ScaleConfig, as_values, build_nowa, build_swa
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
    deviation (ddof 1) are used; constant input is rejected, and so is a
    series whose sample mean or standard deviation overflows to a non-finite
    value, which would otherwise map every sample to zero.  With both, they
    are applied as given, e.g. moments estimated from a training segment;
    ``mean`` must be finite and ``std`` finite and positive, and a
    standardized value that overflows is rejected.  Giving one alone is an
    error.  Returns ``(standardized_series, mean, std)``.
    """
    x = as_values(series)
    if len(x) == 0:
        raise ValueError("series must be non-empty")
    given = mean is not None
    if mean is None and std is None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below by name
            mean = float(x.mean())
            std = float(x.std(ddof=1)) if len(x) > 1 else 0.0
        for name, moment in (("mean", mean), ("standard deviation", std)):
            if not math.isfinite(moment):
                raise ValueError(f"the sample {name} overflows to {moment}; rescale the series")
        if std <= 0.0:
            raise ValueError("cannot standardize a constant series by its sample moments")
    elif mean is None or std is None:
        raise ValueError("give both mean and std, or neither")
    elif not math.isfinite(mean):
        raise ValueError("mean must be finite")
    elif not (math.isfinite(std) and std > 0.0):
        raise ValueError("std must be positive and finite")
    with np.errstate(over="ignore"):  # reported below
        values = (x - mean) / std
    if given and not np.isfinite(values).all():
        raise ValueError(f"standardizing by mean {mean!r} and std {std!r} overflows; "
                         "rescale the series or the moments")
    return values, float(mean), float(std)


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

    ``work`` is two length-n float arrays.  The fold runs from the coarsest
    level down, scale ``k``'s magnitudes in ``work[(k-1) % 2]``: the running
    max of scale ``k+1`` is pushed into the ``ratio`` scale-``k`` entries
    each of its entries covers, from entry ``start`` on, both read off the
    two scales' :meth:`~lrdshift.pyramid.ScaleConfig.cover`.  The statistic
    ends in ``work[0]``, which is returned; ``work[1]`` is overwritten.
    """
    levels = pyramid.levels
    covers = [pyramid.config.cover(pyramid.method, k) for k in range(1, len(levels) + 1)]
    statistic = np.empty(0)  # nothing above the coarsest level
    for k in range(len(levels), 0, -1):
        finer = np.abs(levels[k - 1], out=work[(k - 1) % 2][: len(levels[k - 1])])
        if k < len(levels):
            (lead, repeat), (coarse_lead, coarse_repeat) = covers[k - 1], covers[k]
            start, ratio = (coarse_lead - lead) // repeat, coarse_repeat // repeat
            covered = finer[start : start + len(statistic) * ratio].reshape(len(statistic), ratio)
            np.fmax(covered, statistic[:, None], out=covered)
        statistic = finer
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
    In both layouts the fold runs from the coarsest level down, each level's
    running max pushed into the entries of the next finer level that it
    covers, so each level is read once; the layout enters only through
    :meth:`~lrdshift.pyramid.ScaleConfig.cover`.

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

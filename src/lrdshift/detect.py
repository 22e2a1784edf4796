"""Pointwise max-over-scales outlier test and the p-value map.

The test runs on a series that is already standardized: for every scale-1
position the statistic is the max of absolute aggregated values over all
scales that provide a value there, and positions whose statistic strictly
exceeds the family-wise threshold (calibrated for unit variance at every
scale) are flagged.  :func:`standardize` is the separate data-preparation
step for raw counters.  The p-value map is a separate, deliberately marginal
layer, read off a pyramid of the tested series built on request: each
valid (scale, time) cell gets its own two-sided normal p-value for display,
while flagging always uses the family-wise threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pyramid import (
    Pyramid, ScaleConfig, StreamState, _aggregate, _binary_scaled, _level_lengths, as_values,
)
from .thresholds import _ndtr

__all__ = [
    "DetectionConfig",
    "DetectionResult",
    "Interval",
    "standardize",
    "detect",
    "level_rows",
    "two_sided_pvalues",
    "pvalue_rows",
    "flags_to_intervals",
]


@dataclass(frozen=True)
class DetectionConfig:
    """Everything the detector needs besides the data.

    ``threshold`` is the family-wise critical value, e.g. a threshold result's
    ``value``; it must be positive and finite (an infinite one flags nothing).
    ``method`` is a layout name that :meth:`ScaleConfig.cover` accepts.
    """

    scale_config: ScaleConfig
    threshold: float
    method: str = "nowa"  # "nowa" | "swa"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        self.scale_config.cover(self.method, 1)  # checks the layout name


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Per-position statistics and the flag set.

    ``statistic[i-1]`` is the statistic at 1-based position ``i``;
    ``flags`` are the sorted 1-based positions where it exceeds the
    threshold, and ``argmax_scale[j]`` is the scale achieving the max at
    ``flags[j]``.  For the p-value map, build the pyramid of the series
    that was tested (:func:`~lrdshift.pyramid.build_nowa` or
    :func:`~lrdshift.pyramid.build_swa`) and pass it to :func:`pvalue_rows`.
    """

    statistic: np.ndarray
    flags: np.ndarray
    argmax_scale: np.ndarray


@dataclass(frozen=True)
class Interval:
    """Half-open flagged region ``[start, end)`` with its dominant scale."""

    start: int
    end: int
    peak_scale: int


def standardize(series, mean: float | None = None, std: float | None = None):
    """Affinely map the series to (nominally) zero mean and unit variance.

    With neither moment given, the series' own mean and sample standard
    deviation (ddof 1) are used; where huge samples overflow numpy's sums,
    the series is divided by a power of two first and the moments scaled
    back.  Constant input, or a moment that does not fit in a double, is
    rejected.  With both, they are applied as given, e.g. moments estimated
    from a training segment; ``mean`` must be finite and ``std`` finite and
    positive, and a standardized value that overflows is rejected.  Giving
    one alone is an error.  Returns ``(standardized_series, mean, std)``.
    """
    x = as_values(series)
    if len(x) == 0:
        raise ValueError("series must be non-empty")
    given, exponent = mean is not None, 0
    if mean is None and std is None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below by name
            mean = float(x.mean())
            std = float(x.std(ddof=1)) if len(x) > 1 else 0.0
            if not (math.isfinite(mean) and math.isfinite(std)):
                # Huge samples overflow numpy's sums: standardize x / 2**exponent.
                x, exponent = _binary_scaled(x)
                mean, std = float(x.mean()), float(x.std(ddof=1))
            moments = np.ldexp([mean, std], exponent).tolist()
        for name, moment in zip(("mean", "standard deviation"), moments):
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
    return values, math.ldexp(mean, exponent), math.ldexp(std, exponent)


def level_rows(pyramid: Pyramid):
    """Each scale's ``(lead, repeat, level)``, scale 1 first: entry ``j`` of
    the level covers the positions its
    :meth:`~lrdshift.pyramid.ScaleConfig.cover` ``(lead, repeat)`` gives."""
    for k, level in enumerate(pyramid.levels, start=1):
        yield (*pyramid.config.cover(pyramid.method, k), level)


def two_sided_pvalues(statistics: np.ndarray) -> np.ndarray:
    """The marginal two-sided p-value ``2 Phi(-|Y|)`` of each of ``statistics``.

    A new array; a NaN (overflowed) entry stays NaN.  ``Phi`` is the
    package's port of Cephes' ``ndtr`` (:func:`~lrdshift.thresholds._ndtr`),
    so the map needs no scipy.  It is elementwise, so a slice of a level
    gives the bits of the same entries of the whole level.
    """
    pvalues = _ndtr(-np.abs(statistics))
    pvalues *= 2.0  # not folded into the port's 0.5: the pair rounds subnormal p-values
    return pvalues


def pvalue_rows(pyramid: Pyramid):
    """The p-value map: each scale's ``(lead, repeat, pvalues)``, scale 1 first.

    ``pvalues[j]``, the :func:`two_sided_pvalues` of entry ``j`` of the
    scale's level, covers the positions of :func:`level_rows`; a position no
    entry covers has no p-value (absent, never zero).  A caller that writes
    each triple out before asking for the next never holds the (M, n) map.
    """
    for lead, repeat, level in level_rows(pyramid):
        yield lead, repeat, two_sided_pvalues(level)


def _max_over_scales(pyramid: Pyramid, work: list[np.ndarray]) -> np.ndarray:
    """The max over scales of the levels' magnitudes at every position.

    ``work`` is two float arrays, ``work[0]`` as long as level 1 and
    ``work[1]`` as long as level 2.  The fold runs from the coarsest
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


# ``detect`` folds ``nowa`` in blocks of about this many samples, whole top
# windows each; a block's buffers take about 12 bytes a sample.  At 2^20
# samples and 15 scales detect took 17.3-17.8 ms with blocks of 2^14 .. 2^19
# samples against 17.9 ms over the whole pyramid (medians of 30 interleaved
# rounds on one CPU of a 2-vCPU host with 4 MiB of L2).
_NOWA_BLOCK = 1 << 17
# ``detect`` extends an ``swa`` stream by blocks of this many samples; a
# block's array takes 8 bytes a sample per scale.  At 2^20 samples and 15
# scales detect took 66.2, 63.4, 63.1, 63.4, 63.5 and 62.9 ms with blocks of
# 2^11 .. 2^16 samples against 80.8 ms over the whole pyramid (as above).
_SWA_BLOCK = 1 << 13


def _nowa_blocks(x: np.ndarray, config: ScaleConfig, threshold: float, statistic: np.ndarray):
    """Fold the ``nowa`` statistic of ``x`` into ``statistic`` one block at a time.

    Each block is a run of whole top windows, about ``_NOWA_BLOCK`` samples,
    and the last one also takes the samples that fill no top window, so no
    block is shorter than one top window or longer than a run and one top
    window less a sample.  Every window lies inside one block, so each level
    entry is the sum :func:`~lrdshift.pyramid.build_nowa` makes, with the
    same additions in the same order.  The level buffers and the fold's
    second workspace are allocated once, for the longest block (a series
    shorter than a run is one block).  After each block is folded this
    yields its 1-based flags, the positions whose statistic exceeds
    ``threshold``, and their argmax scales.
    """
    n, top = len(x), config.max_window
    size = max(_NOWA_BLOCK // top, 1) * top
    edges = [*range(0, n - top + 1, size), n]
    longest = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    buffers = [np.empty(m) for m in _level_lengths("nowa", longest, config)]
    spare = np.empty(longest // config.base)
    for lo, hi in zip(edges, edges[1:]):
        levels = [buffer[:m] for buffer, m in zip(buffers, _level_lengths("nowa", hi - lo, config))]
        _aggregate("nowa", x[lo:hi], config, levels)
        block = Pyramid("nowa", config, [x[lo:hi], *levels])
        _max_over_scales(block, [statistic[lo:hi], spare])
        flagged = np.flatnonzero(statistic[lo:hi] > threshold)
        yield flagged + (lo + 1), _argmax_scale(block, flagged)


def _swa_blocks(x: np.ndarray, config: ScaleConfig, threshold: float, statistic: np.ndarray):
    """Write the ``swa`` statistic of ``x`` into ``statistic``, ``_SWA_BLOCK`` samples at a time.

    One :class:`~lrdshift.pyramid.StreamState` takes the blocks in turn
    through ``extend``, which gives the batch statistic and argmax bit for
    bit, under the caller's ``np.errstate``: a window that overflows warns as
    :func:`~lrdshift.pyramid.build_swa` makes it warn.  After each block this
    yields its flags and their argmax scales as :func:`_nowa_blocks` does.
    """
    state = StreamState(config)
    for lo in range(0, len(x), _SWA_BLOCK):
        hi = lo + _SWA_BLOCK
        statistic[lo:hi], scales = state.extend(x[lo:hi])
        flagged = np.flatnonzero(statistic[lo:hi] > threshold)
        yield flagged + (lo + 1), scales.take(flagged)


def _argmax_scale(pyramid: Pyramid, flagged: np.ndarray) -> np.ndarray:
    """The scale achieving the max at each of the 0-based positions ``flagged``, smallest on ties."""
    levels = pyramid.levels
    best = np.abs(levels[0][flagged])
    argmax_scale = np.ones(len(flagged), dtype=int)
    for k, level in enumerate(levels[1:], start=2):
        lead, repeat = pyramid.config.cover(pyramid.method, k)
        index = (flagged - lead) // repeat
        magnitude = np.abs(level.take(index, mode="clip"))
        better = (index >= 0) & (index < len(level)) & (magnitude > best)
        best[better] = magnitude[better]
        argmax_scale[better] = k
    return argmax_scale


def detect(series, config: DetectionConfig) -> DetectionResult:
    """Run the max-over-scales test at every position of ``series``.

    ``series`` is tested as given; standardize raw counters first (see
    :func:`standardize`).  A series shorter than the largest window raises
    ``ValueError`` (:meth:`~lrdshift.pyramid.ScaleConfig.check_length`).  A
    position is flagged iff its statistic strictly exceeds the threshold;
    ties do not reject.  Near boundaries fewer scales are available and the
    max runs over those present (using the full-family threshold there is
    conservative).

    The statistic, the flags and the argmax scales are computed block by
    block, and the pyramid is not built: while this runs it holds the
    series, the length-n statistic and one block's buffers, and no
    (scales x n) matrix.  ``nowa`` aggregates about ``_NOWA_BLOCK`` samples
    of whole top windows at a time and folds them from the coarsest level
    down, each level's running max pushed into the entries of the next
    finer level that it covers (:func:`_max_over_scales`); the scale
    achieving the max (smallest on ties) is looked up at the block's
    flagged positions only.  ``swa`` runs
    :meth:`~lrdshift.pyramid.StreamState.extend` over ``_SWA_BLOCK``
    samples at a time, the block form ``stream`` also runs.  Both give the
    bits of the max over the whole pyramid.

    Huge finite samples can overflow a window's sum to ``inf`` or, as
    ``inf - inf``, to NaN.  The folds skip a NaN window like an absent one,
    so it never hides the other scales; scale 1 is the series itself, so
    the statistic is never NaN.  This is the rule
    :meth:`~lrdshift.pyramid.StreamState.push` follows, so ``swa`` detection
    equals the stream at every position.  The numpy overflow
    ``RuntimeWarning``s of the window sums are left to reach the caller:
    they are the only report that a window overflowed.
    """
    x = as_values(series)
    config.scale_config.check_length(len(x))
    statistic = np.empty(len(x))
    blocks = _nowa_blocks if config.method == "nowa" else _swa_blocks
    flags, argmax_scales = zip(*blocks(x, config.scale_config, config.threshold, statistic))
    return DetectionResult(statistic, np.concatenate(flags), np.concatenate(argmax_scales))


def flags_to_intervals(result: DetectionResult, gap_tolerance: int = 0) -> list[Interval]:
    """Merge flagged indices into half-open intervals.

    Consecutive flags separated by at most ``gap_tolerance`` unflagged
    positions join the same interval.  ``peak_scale`` is the most frequent
    argmax scale inside the interval (smallest scale on ties).
    """
    if gap_tolerance < 0:
        raise ValueError("gap_tolerance must be >= 0")
    flags, scales = result.flags, result.argmax_scale
    if len(flags) == 0:
        return []
    breaks = np.flatnonzero(np.diff(flags) - 1 > gap_tolerance) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(flags)]))
    # Row j counts the scales of interval j: one bincount over (interval,
    # scale) pairs, and argmax takes the smallest of the most frequent.  The
    # counts are freed before the intervals are made.
    width = int(scales.max()) + 1
    interval = np.repeat(np.arange(len(starts)), ends - starts)
    peaks = np.bincount(interval * width + scales, minlength=len(starts) * width).reshape(
        len(starts), width).argmax(axis=1)
    return [Interval(start, end, peak) for start, end, peak in
            zip(flags[starts].tolist(), (flags[ends - 1] + 1).tolist(), peaks.tolist())]

"""Per-position and per-cell reference code that tests compare the vectorized code against."""

import numpy as np

from lrdshift import LrdModel, Pyramid, TimeSeries, fgn_acf, substream
from lrdshift.detect import DetectionResult, Interval, expand_levels
from lrdshift.thresholds import _CHUNK


def column_at(pyramid: Pyramid, t: int) -> list[tuple[int, float]]:
    """All (scale, value) pairs whose window provides a value at position ``t``.

    ``t`` is the 1-based scale-1 position.  For non-overlapping layout this
    is the covering block at each scale, included only when the block is
    complete; for sliding layout it is the window ending at ``t``, included
    only once ``t >= L_k``.  Scales without a valid value are omitted.
    """
    if not 1 <= t <= len(pyramid.levels[0]):
        raise ValueError(f"t must be in 1..{len(pyramid.levels[0])}, got {t}")
    out: list[tuple[int, float]] = []
    for k in range(1, pyramid.config.num_scales + 1):
        level = pyramid.levels[k - 1]
        window = pyramid.config.window(k)
        if pyramid.method == "nowa":
            block = (t + window - 1) // window
            if block <= len(level):
                out.append((k, float(level[block - 1])))
        else:
            if t >= window:
                out.append((k, float(level[t - window])))
    return out


def dense_detect(pyramid: Pyramid, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(statistic, flags, argmax_scale)`` from the dense (M, n) matrix of magnitudes.

    The max and the first scale achieving it run over the expanded levels,
    NaN (absent) cells ignored; flags are 1-based positions.
    """
    magnitudes = np.abs(expand_levels(pyramid))
    statistic = np.nanmax(magnitudes, axis=0)
    flagged = np.nonzero(statistic > threshold)[0]
    argmax_scale = np.nanargmax(magnitudes[:, flagged], axis=0) + 1 if len(flagged) else np.array([], dtype=int)
    return statistic, flagged + 1, np.asarray(argmax_scale, dtype=int)


def flags_to_intervals_per_flag(result: DetectionResult, gap_tolerance: int = 0) -> list[Interval]:
    """``flags_to_intervals`` as one pass over every flag, closing a run at each long gap."""
    if len(result.flags) == 0:
        return []
    intervals: list[Interval] = []
    run_start = 0
    flags = result.flags
    for j in range(1, len(flags) + 1):
        if j == len(flags) or flags[j] - flags[j - 1] - 1 > gap_tolerance:
            scales = result.argmax_scale[run_start:j]
            peak = int(np.bincount(scales).argmax())
            intervals.append(Interval(int(flags[run_start]), int(flags[j - 1]) + 1, peak))
            run_start = j
    return intervals


def pvalue_map_per_cell(pyramid: Pyramid) -> np.ndarray:
    """The (M, n) map cell by cell from :func:`column_at`: ``2 ndtr(-|v|)``, NaN where absent."""
    from scipy.special import ndtr

    out = np.full((pyramid.config.num_scales, len(pyramid.levels[0])), np.nan)
    for t in range(1, out.shape[1] + 1):
        for k, value in column_at(pyramid, t):
            out[k - 1, t - 1] = 2.0 * ndtr(-abs(value))
    return out


def write_pvalue_csv_per_cell(path, pvalues: np.ndarray) -> None:
    """The map CSV written cell by cell: ``repr(float(p))``, empty for NaN."""
    num_scales, n = pvalues.shape
    with open(path, "w") as fh:
        fh.write("scale," + ",".join(str(t) for t in range(1, n + 1)) + "\n")
        for k in range(1, num_scales + 1):
            cells = ["" if np.isnan(p) else repr(float(p)) for p in pvalues[k - 1]]
            fh.write(str(k) + "," + ",".join(cells) + "\n")


def synthesize_fgn_cholesky(model: LrdModel, n: int, seed) -> TimeSeries:
    """Reference sampler via dense Cholesky factorization (n <= 1024).

    Quadratic cost and independent of the FFT route; used to cross-check
    the circulant-embedding sampler.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 1024:
        raise ValueError("Cholesky route is limited to n <= 1024")
    cov = fgn_acf(model, np.abs(np.subtract.outer(np.arange(n), np.arange(n))))
    factor = np.linalg.cholesky(cov)
    values = factor @ substream(seed).standard_normal(n)
    return TimeSeries(values)


def max_abs_gaussian_samples_per_chunk(factor: np.ndarray, reps: int, seed, shift=None) -> np.ndarray:
    """``max_k |Z_k|`` drawn one whole ``_CHUNK`` of replicates per substream at a time."""
    m = factor.shape[0]
    out = np.empty(reps)
    done = 0
    chunk_index = 0
    while done < reps:
        size = min(_CHUNK, reps - done)
        g = substream(seed, chunk_index).standard_normal((size, m))
        z = g @ factor.T
        if shift is not None:
            z += shift
        out[done : done + size] = np.abs(z).max(axis=1)
        done += size
        chunk_index += 1
    return out


def quantile_with_se_two_calls(samples: np.ndarray, p: float) -> tuple[float, float]:
    """The quantile and its SE band from two copying ``np.quantile`` calls."""
    value = float(np.quantile(samples, p))
    h = np.sqrt(p * (1.0 - p) / len(samples))
    lo = max(p - h, 0.0)
    hi = min(p + h, 1.0)
    q_lo, q_hi = np.quantile(samples, [lo, hi])
    return value, float((q_hi - q_lo) / 2.0) if hi > lo else 0.0

"""Per-position and per-cell reference code that tests compare the vectorized code against."""

import io
import json
import math

import numpy as np
from scipy.optimize import brentq
from scipy.stats import multivariate_normal

from lrdshift import (
    DetectionConfig,
    ExperimentResult,
    FgnSampler,
    LrdModel,
    MetricSummary,
    Pyramid,
    ScaleConfig,
    StreamState,
    ThresholdQuery,
    TimeSeries,
    compute_threshold,
    confusion,
    detect,
    fgn_acf,
    inject,
    metrics,
    naive_baseline,
    subseed,
    substream,
)
from lrdshift.detect import DetectionResult, Interval
from lrdshift.evaluate import _mean_or_none
from lrdshift.thresholds import _CHUNK


# Window sums of these overflow to inf, and to NaN where they meet (inf - inf).
HUGE = [1e308, -1e308, 1.5e308, -1.5e308, 8e307, -8e307]


def aggregate_per_entry(method: str, x, config: ScaleConfig) -> list[np.ndarray]:
    """The levels of ``x``'s pyramid, every sum written out left to right in Python floats.

    Entry ``i`` of level ``k`` adds ``base`` entries of the unnormalized level
    ``k-1``, earliest first: ``prev[i*b + j]`` for ``nowa`` and
    ``prev[i + j*L_{k-1}]`` for ``swa``, ``j = 0 .. b-1``.  Each level is then
    divided by ``L_k**hurst``.
    """
    b, prev = config.base, [float(v) for v in x]
    levels = [np.array(prev)]
    for k in range(2, config.num_scales + 1):
        sub = config.window(k - 1)
        if method == "nowa":
            chunks = [[prev[i * b + j] for j in range(b)] for i in range(len(prev) // b)]
        else:
            chunks = [[prev[i + j * sub] for j in range(b)]
                      for i in range(len(prev) - (b - 1) * sub)]
        sums = []
        for chunk in chunks:
            total = chunk[0]
            for value in chunk[1:]:
                total += value
            sums.append(total)
        norm = float(config.window(k)) ** config.hurst
        levels.append(np.array([total / norm for total in sums]))
        prev = sums
    return levels


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


def expand_levels(pyramid: Pyramid) -> np.ndarray:
    """The levels on scale-1 positions as an (M, n) matrix, cell by cell from :func:`column_at`.

    Row ``k-1`` holds the scale-``k`` value covering each position; NaN
    marks a position without one.
    """
    out = np.full((pyramid.config.num_scales, len(pyramid.levels[0])), np.nan)
    for t in range(1, out.shape[1] + 1):
        for k, value in column_at(pyramid, t):
            out[k - 1, t - 1] = value
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


FEEDS = ("push", "extend", "mixed", "blocks")


def stream_feed(config: ScaleConfig, values, feed: str, seed: int = 0) -> list[tuple[float, int]]:
    """``(statistic, argmax_scale)`` at each of ``values`` fed to a fresh :class:`StreamState`.

    ``push`` feeds one sample at a time.  ``extend`` feeds seeded random
    blocks of 1 to ``2 * max_window`` samples.  ``mixed`` draws the same
    kind of blocks and, block by block at random, extends or pushes each
    of its samples.  ``blocks`` feeds the blocks of ``extend`` to the numpy
    block form at every length, short blocks included, which ``extend``
    pushes instead.
    """
    state = StreamState(config)
    values = [float(v) for v in values]
    if feed == "push":
        return [state.push(v) for v in values]
    rng = np.random.default_rng(seed)
    out: list[tuple[float, int]] = []
    lo = 0
    while lo < len(values):
        block = values[lo : lo + int(rng.integers(1, 2 * config.max_window + 1))]
        if feed == "mixed" and rng.random() < 0.5:
            out += [state.push(v) for v in block]
        else:
            extend = state._extend_block if feed == "blocks" else state.extend
            statistics, argmax_scales = extend(np.array(block))
            out += zip(statistics.tolist(), argmax_scales.tolist())
        lo += len(block)
    return out


def stream_per_line(stdin, config: ScaleConfig, critical: float, fmt: str = "csv",
                    mean: float | None = None, std: float | None = None) -> tuple[str, str]:
    """The ``(stdout, stderr)`` text of ``lrdshift stream`` on the text stream ``stdin``.

    One line at a time: each line is parsed, pushed and, when flagged,
    printed on its own.  A value that ``mean``/``std`` map to a non-finite
    sample is warned about and skipped, as a non-finite line is.
    """
    out, err = io.StringIO(), io.StringIO()
    state = StreamState(config)
    index = 0
    for lineno, raw in enumerate(stdin, start=1):
        line = raw.strip()
        if not line:
            print(f"warning: line {lineno}: empty line skipped", file=err)
            continue
        try:
            sample = float(line)
        except ValueError:
            print(f"warning: line {lineno}: cannot parse {line!r}, skipped", file=err)
            continue
        if not math.isfinite(sample):
            print(f"warning: line {lineno}: non-finite value {line!r}, skipped", file=err)
            continue
        if mean is not None:
            sample = (sample - mean) / std
            if not math.isfinite(sample):
                print(f"warning: line {lineno}: value {line!r} is not finite after --mean/--std, "
                      "skipped", file=err)
                continue
        statistic, argmax_scale = state.push(sample)
        index += 1
        if statistic > critical:
            if fmt == "jsonl":
                print(json.dumps({"index": index, "statistic": statistic, "argmax_scale": argmax_scale},
                                 sort_keys=True), file=out)
            else:
                print(f"{index},{statistic!r},{argmax_scale}", file=out)
    return out.getvalue(), err.getvalue()


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


def estimate_hurst_reshape_mean(series) -> float:
    """Aggregated-variance Hurst estimate from reshape-and-mean block means.

    Block sizes are the powers of two from 2 up to ``n/64`` (``n/4`` below
    256 samples); the block means of size ``m`` are the row means of the
    first ``(n // m) * m`` samples reshaped to ``m`` columns.
    """
    x = np.asarray(series, dtype=float)
    largest = len(x) // 64 if len(x) >= 256 else len(x) // 4
    block_sizes = [2**j for j in range(1, max(largest, 2).bit_length()) if 2**j <= largest]
    log_m, log_v = [], []
    for m in block_sizes:
        nblocks = len(x) // m
        means = x[: nblocks * m].reshape(nblocks, m).mean(axis=1)
        log_m.append(np.log(m))
        log_v.append(np.log(means.var(ddof=1)))
    slope, _ = np.polyfit(log_m, log_v, 1)
    return float(np.clip(1.0 + slope / 2.0, 0.01, 0.99))


def sample_path(eigenvalues: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One length-n circulant-embedding path built from fresh arrays at every step."""
    z = rng.standard_normal(2 * n)
    w = np.zeros(2 * n, dtype=complex)
    w[0] = z[0]
    w[n] = z[1]
    half = (z[2 : n + 1] + 1j * z[n + 1 :]) / np.sqrt(2.0)
    w[1:n] = half
    w[n + 1 :] = np.conj(half[::-1])
    spectrum = np.sqrt(eigenvalues) * w
    return np.fft.fft(spectrum)[:n].real / np.sqrt(2 * n)


def run_experiment_per_call(config) -> ExperimentResult:
    """The simulation study through the public per-call functions.

    Each simulation calls ``sample``, ``inject``, ``detect``,
    ``naive_baseline`` and ``confusion``, each on fresh arrays.
    """
    scale_config = ScaleConfig(base=config.base, num_scales=config.num_scales, hurst=config.hurst)
    critical = compute_threshold(
        ThresholdQuery(alpha=config.alpha, num_scales=config.num_scales, hurst=config.hurst,
                       base=config.base, mc_reps=config.mc_reps, seed=subseed(config.seed, 0)),
        "monte_carlo",
    ).value
    detection = DetectionConfig(scale_config=scale_config, threshold=critical, method=config.method)
    result = ExperimentResult(config=config, threshold_value=critical)
    sampler = FgnSampler(LrdModel(hurst=config.hurst), config.n)
    for set_id in range(1, config.sets + 1):
        per_sim = {"multiscale": [], "naive": []}
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
            result.rows.append((set_id, name, MetricSummary(
                tdr=_mean_or_none([s.tdr for s in summaries]),
                fdr=_mean_or_none([s.fdr for s in summaries]),
                fnr=_mean_or_none([s.fnr for s in summaries]),
            )))
    return result


def max_abs_gaussian_samples_per_chunk(factor: np.ndarray, reps: int, seed) -> np.ndarray:
    """``max_k |Z_k|`` drawn one whole ``_CHUNK`` of replicates per substream at a time."""
    m = factor.shape[0]
    out = np.empty(reps)
    done = 0
    chunk_index = 0
    while done < reps:
        size = min(_CHUNK, reps - done)
        g = substream(seed, chunk_index).standard_normal((size, m))
        out[done : done + size] = np.abs(g @ factor.T).max(axis=1)
        done += size
        chunk_index += 1
    return out


def scipy_rectangle(c: float, means, rho: float) -> float:
    """``P(|X| <= c, |Y| <= c)`` for unit normals with ``means`` and correlation ``rho``, from
    scipy's bivariate normal CDF."""
    mvn = multivariate_normal(mean=means, cov=[[1.0, rho], [rho, 1.0]])
    return mvn.cdf([c, c]) - mvn.cdf([-c, c]) - mvn.cdf([c, -c]) + mvn.cdf([-c, -c])


def exact_two_scale_threshold(alpha: float, rho: float) -> float:
    """Root of ``scipy_rectangle(c, (0, 0), rho) = 1 - alpha`` by ``brentq``."""
    return brentq(lambda c: scipy_rectangle(c, [0.0, 0.0], rho) - (1 - alpha), 1.0, 6.0, xtol=1e-10)


def quantile_with_se_two_calls(samples: np.ndarray, p: float) -> tuple[float, float]:
    """The quantile and its SE band from two copying ``np.quantile`` calls."""
    value = float(np.quantile(samples, p))
    h = np.sqrt(p * (1.0 - p) / len(samples))
    lo = max(p - h, 0.0)
    hi = min(p + h, 1.0)
    q_lo, q_hi = np.quantile(samples, [lo, hi])
    return value, float((q_hi - q_lo) / 2.0) if hi > lo else 0.0

"""Family-wise test thresholds for the max-over-scales statistic.

At a fixed time position the sliding-aggregation values across scales form a
stationary Gaussian process in the scale index whose correlation at scale
lag ``k`` depends only on the window ratio ``r = base**k``:

    rho(r) = (1 + r^{2H} - (r - 1)^{2H}) / (2 r^H).

The critical value ``C`` for ``max_k |Y_k| > C`` at family-wise level
``alpha`` is computed three ways, one per kind that :func:`compute_threshold`
takes:

* ``single_scale``: ``Phi^{-1}(1 - alpha/2)`` (no multiplicity adjustment);
* ``asymptotic``: ``Phi^{-1}((1 - alpha)^{1/(2m)})``, the many-scales limit,
  typically conservative at practical scale counts;
* ``monte_carlo``: the empirical ``(1 - alpha)``-quantile of ``max_k |Z_k|``
  with ``Z`` drawn from the cross-scale correlation matrix.  The threshold
  does not depend on the time position, so one simulation calibrates every
  location.

Normal CDF/quantile evaluations delegate to scipy's Cephes routines
(``ndtr``/``ndtri``, rational approximations accurate to well below 1e-9
over the range used here); the accuracy contract is pinned by tests against
an arbitrary-precision oracle.  scipy is imported inside the functions that
call it, so the Monte-Carlo threshold, which needs no normal CDF, and a run
that computes no threshold never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pyramid import ScaleConfig
from .seeding import subseed, substream

__all__ = [
    "ThresholdQuery",
    "ThresholdResult",
    "cross_scale_corr",
    "scale_cov_matrix",
    "single_scale_threshold",
    "asymptotic_threshold",
    "improved_threshold",
    "compute_threshold",
    "two_scale_expansion",
    "power_single_scale",
    "power_two_scale",
    "power_gap",
]

_CHUNK = 1 << 17  # replicates per substream chunk in Monte-Carlo loops
_BLOCK = 1 << 12  # rows drawn at a time inside a chunk (0.5 MiB per buffer at m = 15)


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class ThresholdQuery:
    """The level, the cross-scale law and the Monte-Carlo settings of a threshold.

    The kind of threshold is chosen separately, by :func:`compute_threshold`.
    """

    alpha: float
    num_scales: int
    hurst: float = 0.5
    base: int = 2
    mc_reps: int = 10**6
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be strictly inside (0, 1), got {self.alpha}")
        ScaleConfig(self.base, self.num_scales, self.hurst)  # checks base, num_scales, hurst


@dataclass(frozen=True)
class ThresholdResult:
    """A calibrated critical value and the kind that produced it.

    ``mc_standard_error`` is zero for the closed forms.  The settings behind
    the value are those of the :class:`ThresholdQuery` it was computed for.
    """

    value: float
    kind: str
    mc_standard_error: float = 0.0

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError("threshold value must be positive")


def cross_scale_corr(hurst: float, base: int, lag: int) -> float:
    """Correlation across scales at the same time position, at scale ``lag``.

    Equals ``(1 + r^{2H} - (r-1)^{2H}) / (2 r^H)`` with window ratio
    ``r = base**lag``.  Evaluated in a cancellation-free form so that large
    lags keep full precision.
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if lag == 0:
        return 1.0
    log_r = lag * np.log(float(base))
    r_pow_h = np.exp(hurst * log_r)
    # r^{2H} - (r-1)^{2H} = -r^{2H} * expm1(2H * log1p(-1/r))
    diff = -np.expm1(2.0 * hurst * np.log1p(-np.exp(-log_r)))
    return float(0.5 / r_pow_h + 0.5 * r_pow_h * diff)


def scale_cov_matrix(hurst: float, base: int, m: int) -> np.ndarray:
    """The ``m x m`` cross-scale correlation matrix (unit diagonal, Toeplitz)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    first = np.array([cross_scale_corr(hurst, base, k) for k in range(m)])
    lags = np.arange(m)
    cov = first[np.abs(np.subtract.outer(lags, lags))]
    smallest = np.linalg.eigvalsh(cov)[0]
    if smallest < -1e-10:
        raise RuntimeError(
            f"cross-scale correlation matrix is not PSD (eigenvalue {smallest:.3e})"
        )
    return cov


def single_scale_threshold(alpha: float) -> ThresholdResult:
    """Two-sided critical value ``Phi^{-1}(1 - alpha/2)`` for one scale."""
    from scipy.special import ndtri

    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be strictly inside (0, 1), got {alpha}")
    return ThresholdResult(value=float(ndtri(1.0 - alpha / 2.0)), kind="single_scale")


def asymptotic_threshold(alpha: float, m: int) -> ThresholdResult:
    """Many-scales threshold ``Phi^{-1}((1 - alpha)^{1/(2m)})`` for ``m`` scales."""
    from scipy.special import ndtri

    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be strictly inside (0, 1), got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    value = float(ndtri((1.0 - alpha) ** (1.0 / (2.0 * m))))
    return ThresholdResult(value=value, kind="asymptotic")


def _corr_factor(cov: np.ndarray) -> np.ndarray:
    """Sampling factor A with A A^T = cov, via eigendecomposition.

    Adjacent scales are almost perfectly correlated for large Hurst values,
    so the matrix can be near-singular; the eigen route tolerates that where
    Cholesky would fail.
    """
    w, v = np.linalg.eigh(cov)
    if w[0] < -1e-6:
        raise RuntimeError(f"correlation matrix factorization failed (eigenvalue {w[0]:.3e})")
    return v * np.sqrt(np.clip(w, 0.0, None))


def _max_abs_gaussian_samples(
    factor: np.ndarray, reps: int, seed: int | np.random.SeedSequence, shift: np.ndarray | None = None
) -> np.ndarray:
    """``reps`` draws of ``max_k |Z_k|`` with ``Z = factor @ N(0, I)`` (plus ``shift``).

    Replicates ``i * _CHUNK`` up to ``(i + 1) * _CHUNK`` come from
    ``substream(seed, i)``, drawn ``_BLOCK`` rows at a time into two buffers
    allocated once: the working set is the 8 bytes per replicate of the
    result plus ``2 (_BLOCK + 1) m`` floats.  The samples do not depend on
    the block size: a generator filling consecutive blocks yields the
    normals one call over the chunk does, and a product of two or more rows
    sums each row as the chunk's product does.  A chunk never ends in a
    one-row block, since numpy computes a one-row product on its
    vector-matrix path, whose sums can differ in the last bit.
    """
    m = factor.shape[0]
    out = np.empty(reps)
    rows = min(_BLOCK + 1, reps)
    g = np.empty((rows, m))
    z = np.empty((rows, m))
    for start in range(0, reps, _CHUNK):
        rng = substream(seed, start // _CHUNK)
        stop = min(start + _CHUNK, reps)
        lo = start
        while lo < stop:
            hi = lo + _BLOCK if stop - lo > _BLOCK + 1 else stop
            g_block, z_block = g[: hi - lo], z[: hi - lo]
            rng.standard_normal(out=g_block)
            np.matmul(g_block, factor.T, out=z_block)
            if shift is not None:
                z_block += shift
            np.abs(z_block, out=z_block)
            z_block.max(axis=1, out=out[lo:hi])
            lo = hi
    return out


def _quantile_with_se(samples: np.ndarray, p: float) -> tuple[float, float]:
    """Empirical ``p``-quantile (linear interpolation) and an SE estimate.

    The standard error comes from the order-statistic density approximation:
    the quantile's sampling sd is ``sqrt(p(1-p)/n) / f(q)``, with ``f(q)``
    replaced by the slope of the empirical quantile function over a
    one-standard-error band.  ``samples`` is reordered in place.
    """
    n = len(samples)
    h = np.sqrt(p * (1.0 - p) / n)
    lo = max(p - h, 0.0)
    hi = min(p + h, 1.0)
    value, q_lo, q_hi = np.quantile(samples, [p, lo, hi], overwrite_input=True)
    se = float((q_hi - q_lo) / 2.0) if hi > lo else 0.0
    return float(value), se


def improved_threshold(query: ThresholdQuery) -> ThresholdResult:
    """Monte-Carlo family-wise threshold from the cross-scale correlations.

    Draws ``mc_reps`` vectors from the ``num_scales``-dimensional cross-scale
    law and returns the empirical ``(1 - alpha)``-quantile of the max of
    absolute values.  Deterministic given ``seed`` and independent of how the
    replicate loop is partitioned.
    """
    if query.mc_reps < 10**4:
        raise ValueError(f"mc_reps must be >= 10^4, got {query.mc_reps}")
    factor = _corr_factor(scale_cov_matrix(query.hurst, query.base, query.num_scales))
    samples = _max_abs_gaussian_samples(factor, query.mc_reps, query.seed)
    value, se = _quantile_with_se(samples, 1.0 - query.alpha)
    return ThresholdResult(value=value, kind="monte_carlo", mc_standard_error=se)


# The threshold kinds.  The functions are looked up by name at call time, so
# rebinding a module attribute (a test double, a tracer) takes effect here.
_THRESHOLD_BY_KIND = {
    "single_scale": lambda query: single_scale_threshold(query.alpha),
    "asymptotic": lambda query: asymptotic_threshold(query.alpha, query.num_scales),
    "monte_carlo": lambda query: improved_threshold(query),
}


def compute_threshold(query: ThresholdQuery, kind: str) -> ThresholdResult:
    """The ``kind`` critical value for ``query`` (kinds: see the module docstring)."""
    if kind not in _THRESHOLD_BY_KIND:
        raise ValueError(f"unknown threshold kind {kind!r}")
    return _THRESHOLD_BY_KIND[kind](query)


def two_scale_expansion(alpha: float, hurst: float, big_window: int) -> float:
    """Closed-form large-window expansion of the two-scale threshold.

    For the pair (scale 1, window ``L``) the threshold approaches
    ``C0 = Phi^{-1}((1 + sqrt(1-alpha))/2)`` as ``L`` grows, with leading
    correction ``phi(C0) C0^2 H^2 L^{2(H-1)} / (2 sqrt(1-alpha))``.
    """
    from scipy.special import ndtri

    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be strictly inside (0, 1), got {alpha}")
    if big_window < 2:
        raise ValueError(f"big_window must be >= 2, got {big_window}")
    root = np.sqrt(1.0 - alpha)
    c0 = ndtri((1.0 + root) / 2.0)
    correction = (
        _norm_pdf(c0) * c0**2 * hurst**2 * float(big_window) ** (2.0 * (hurst - 1.0)) / (2.0 * root)
    )
    return float(c0 - correction)


def power_single_scale(threshold: float, shift: float) -> float:
    """Rejection probability of ``|N(shift, 1)| > threshold``.

    For a window of length ``L`` containing ``K`` shifted samples of size
    ``delta``, pass ``shift = K * delta / L**hurst``.
    """
    from scipy.special import ndtr

    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    return float(1.0 - (ndtr(threshold - shift) - ndtr(-threshold - shift)))


def power_two_scale(
    alpha: float,
    delta: float,
    hurst: float,
    big_window: int,
    shifted_count: int,
    reps: int = 10**6,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Monte-Carlo power of the two-scale max test under a level shift.

    The pair is (scale 1, backward window of length ``big_window``) with
    ``shifted_count`` of the window's samples shifted by ``delta``: means
    are ``(delta, shifted_count * delta / big_window**hurst)`` and the
    correlation is the cross-scale correlation at window ratio
    ``big_window``.  The rejection threshold is the two-scale Monte-Carlo
    threshold at level ``alpha``, computed from its own substream.
    """
    if not 1 <= shifted_count <= big_window:
        raise ValueError("shifted_count must be in 1..big_window")
    if reps < 10**4:
        raise ValueError(f"reps must be >= 10^4, got {reps}")
    threshold = improved_threshold(
        ThresholdQuery(
            alpha=alpha,
            num_scales=2,
            hurst=hurst,
            base=big_window,
            mc_reps=reps,
            seed=subseed(seed, 0),
        )
    ).value
    rho = cross_scale_corr(hurst, big_window, 1)
    factor = _corr_factor(np.array([[1.0, rho], [rho, 1.0]]))
    means = np.array([delta, shifted_count * delta / float(big_window) ** hurst])
    stats = _max_abs_gaussian_samples(factor, reps, subseed(seed, 1), shift=means)
    return float(np.mean(stats > threshold))


def power_gap(alpha: float, delta: float) -> float:
    """Limit of ``2 * beta_pair - (beta_1 + beta_L)`` as the window grows.

    Positive values mean the two-scale max test beats the average of the two
    single-scale tests.  Exactly zero at ``alpha = 0``.
    """
    from scipy.special import ndtr, ndtri

    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    c_single = ndtri(1.0 - alpha / 2.0)
    root = np.sqrt(1.0 - alpha)
    c0 = ndtri((1.0 + root) / 2.0)
    single_term = ndtr(c_single - delta) - ndtr(-c_single - delta)
    pair_term = ndtr(c0 - delta) - ndtr(-c0 - delta)
    return float(single_term + (1.0 - alpha) - 2.0 * root * pair_term)

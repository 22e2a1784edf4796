"""Fractional Gaussian noise: model, exact synthesis, and Hurst estimation.

The background model for standardized traffic counts is a stationary
zero-mean Gaussian series whose autocovariance is determined by a Hurst
parameter ``H`` and marginal standard deviation ``sigma``.  For ``H > 1/2``
the autocovariance decays polynomially (long range dependence).

Synthesis uses circulant embedding of the covariance, which is exact in
distribution and costs ``O(n log n)`` per path.  ``FgnSampler`` embeds one
model and length once and draws any number of seeded paths from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import substream

__all__ = [
    "LrdModel",
    "TimeSeries",
    "fgn_acf",
    "fbm_cov",
    "FgnSampler",
    "synthesize_fgn",
    "estimate_hurst",
]


@dataclass(frozen=True)
class LrdModel:
    """Gaussian background law: Hurst parameter and marginal scale.

    ``hurst`` must lie strictly inside (0, 1); the boundary cases are
    degenerate and rejected.  ``sigma`` is the marginal standard deviation.
    """

    hurst: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must be in the open interval (0, 1), got {self.hurst}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class TimeSeries:
    """A finite real-valued one-dimensional series.

    Positions are 1-based throughout the package: position ``i`` is
    ``values[i-1]``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def as_series(series) -> TimeSeries:
    """Coerce an array-like or TimeSeries into a TimeSeries."""
    if isinstance(series, TimeSeries):
        return series
    return TimeSeries(np.asarray(series, dtype=float))


def fgn_acf(model: LrdModel, h) -> float | np.ndarray:
    """Autocovariance of the noise at integer lag ``h`` (scalar or array).

    gamma(h) = sigma^2/2 * [ |h+1|^{2H} - 2|h|^{2H} + |h-1|^{2H} ],
    so gamma(0) = sigma^2 and, for H = 1/2, all positive lags vanish.
    """
    h = np.abs(np.asarray(h, dtype=float))
    two_h = 2.0 * model.hurst
    gamma = 0.5 * model.sigma**2 * (
        (h + 1.0) ** two_h - 2.0 * h**two_h + np.abs(h - 1.0) ** two_h
    )
    return float(gamma) if gamma.ndim == 0 else gamma


def fbm_cov(model: LrdModel, s: float, t: float) -> float:
    """Covariance of the integrated process at times ``s, t >= 0``.

    cov(s, t) = sigma^2/2 * (s^{2H} + t^{2H} - |s - t|^{2H});
    in particular the variance at time t is sigma^2 t^{2H}.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError("s and t must be non-negative")
    two_h = 2.0 * model.hurst
    return 0.5 * model.sigma**2 * (s**two_h + t**two_h - abs(s - t) ** two_h)


def _embedding_eigenvalues(model: LrdModel, n: int) -> np.ndarray:
    """Eigenvalues of the length-2n circulant extension of the covariance.

    They are provably non-negative for this covariance family; a negative
    entry beyond rounding noise therefore signals an implementation bug.
    """
    gamma = fgn_acf(model, np.arange(n + 1))
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = np.fft.fft(first_row).real
    tolerance = 1e-8 * eigenvalues.max()
    if eigenvalues.min() < -tolerance:
        raise RuntimeError(
            "circulant embedding produced a negative eigenvalue "
            f"({eigenvalues.min():.3e}); the covariance is not embeddable"
        )
    return np.clip(eigenvalues, 0.0, None)


def _sample_path(eigenvalues: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # One length-n path from 2n standard normals; exact for the target law.
    z = rng.standard_normal(2 * n)
    w = np.zeros(2 * n, dtype=complex)
    w[0] = z[0]
    w[n] = z[1]
    half = (z[2 : n + 1] + 1j * z[n + 1 :]) / np.sqrt(2.0)
    w[1:n] = half
    w[n + 1 :] = np.conj(half[::-1])
    spectrum = np.sqrt(eigenvalues) * w
    return np.fft.fft(spectrum)[:n].real / np.sqrt(2 * n)


class FgnSampler:
    """Exact length-``n`` sample paths of one background law.

    The circulant-embedding eigenvalues depend only on ``(model, n)``, so
    they are computed once here and shared by every ``sample`` call.
    """

    def __init__(self, model: LrdModel, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self._eigenvalues = _embedding_eigenvalues(model, n)

    def sample(self, seed: int | np.random.SeedSequence) -> TimeSeries:
        """Draw the path for ``seed``; the same seed gives the same bits."""
        return TimeSeries(_sample_path(self._eigenvalues, self.n, substream(seed)))


def synthesize_fgn(
    model: LrdModel, n: int, seed: int | np.random.SeedSequence
) -> TimeSeries:
    """Draw an exact length-``n`` sample path of the background law.

    The joint distribution is multivariate Gaussian with mean zero and
    covariance ``fgn_acf(model, |i - j|)`` — no approximation.  Output is
    bit-identical for repeated calls with the same ``(model, n, seed)``.
    """
    return FgnSampler(model, n).sample(seed)


def estimate_hurst(series, block_sizes=None) -> float:
    """Aggregated-variance estimate of the Hurst parameter.

    For each block size ``m`` the series is cut into non-overlapping blocks
    of length ``m``; the sample variance of the block means scales like
    ``m^{2H-2}``, so regressing log-variance on log-m gives ``H`` via
    ``H = 1 + slope/2``.  The result is clamped to (0.01, 0.99).

    This estimator is simple but biased for strongly dependent data; it is
    offered as a convenience for picking a working ``H`` from a training
    trace, never used inside the detection math.
    """
    x = as_series(series).values
    if block_sizes is None:
        # Large blocks are few and strongly correlated, which drags the
        # fitted slope down; capping at n/64 keeps the bias modest.
        largest = len(x) // 64 if len(x) >= 256 else len(x) // 4
        block_sizes = [2**j for j in range(1, max(largest, 2).bit_length()) if 2**j <= largest]
    block_sizes = list(block_sizes)
    if len(block_sizes) < 2:
        raise ValueError("need at least two block sizes")
    if any(m < 1 for m in block_sizes):
        raise ValueError("block sizes must be >= 1")
    if any(b >= a for b, a in zip(block_sizes, block_sizes[1:])):
        raise ValueError("block sizes must be strictly increasing")
    if len(x) < 4 * max(block_sizes):
        raise ValueError(
            f"series of length {len(x)} is too short for block size {max(block_sizes)} "
            "(need length >= 4 * max block size)"
        )

    log_m, log_v = [], []
    for m in block_sizes:
        nblocks = len(x) // m
        means = x[: nblocks * m].reshape(nblocks, m).mean(axis=1)
        v = means.var(ddof=1)
        if v <= 0.0:
            raise ValueError("series has zero variance at some block size (constant input?)")
        log_m.append(np.log(m))
        log_v.append(np.log(v))
    slope, _ = np.polyfit(log_m, log_v, 1)
    return float(np.clip(1.0 + slope / 2.0, 0.01, 0.99))

"""Fractional Gaussian noise: model, exact synthesis, and Hurst estimation.

The background model for standardized traffic counts is a stationary
zero-mean Gaussian series whose autocovariance is determined by a Hurst
parameter ``H`` and marginal standard deviation ``sigma``.  For ``H > 1/2``
the autocovariance decays polynomially (long range dependence).

Synthesis uses circulant embedding of the covariance, which is exact in
distribution and costs ``O(n log n)`` per path.  ``FgnSampler`` embeds one
model and length once and draws any number of seeded paths from it.  A
path, like every series in the package, is a plain one-dimensional float64
array (see :mod:`~lrdshift.pyramid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pyramid import ScaleConfig, _binary_scaled, as_values, build_nowa
from .seeding import substream

__all__ = [
    "LrdModel",
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
    degenerate and rejected.  ``sigma``, the marginal standard deviation, is
    positive and finite.
    """

    hurst: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must be in the open interval (0, 1), got {self.hurst}")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


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


class FgnSampler:
    """Exact length-``n`` sample paths of one background law.

    The circulant-embedding eigenvalues depend only on ``(model, n)``, so
    their square roots are computed once here and shared by every
    ``sample`` call, which also reuses the sampler's 2n normals and 2n-point
    spectrum.  A sampler is therefore not safe to share between threads.
    """

    def __init__(self, model: LrdModel, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self._root = np.sqrt(_embedding_eigenvalues(model, n))
        self._normals = np.empty(2 * n)
        self._spectrum = np.empty(2 * n, dtype=complex)

    def sample(self, seed: int | np.random.SeedSequence) -> np.ndarray:
        """Draw the path for ``seed``; the same seed gives the same bits.

        One path costs 2n standard normals: two real end points and n - 1
        complex ones, mirrored into a Hermitian spectrum that is scaled by
        the root eigenvalues, transformed, and cut to its first n points.
        The returned path is a fresh array, finite by construction and so
        returned unchecked.
        """
        n = self.n
        z = substream(seed).standard_normal(out=self._normals)
        w = self._spectrum
        w[0] = z[0]
        w[n] = z[1]
        half = w[1:n]
        np.multiply(1j, z[n + 1 :], out=half)
        np.add(z[2 : n + 1], half, out=half)
        np.divide(half, np.sqrt(2.0), out=half)
        np.conjugate(half[::-1], out=w[n + 1 :])
        np.multiply(self._root, w, out=w)
        return np.fft.fft(w)[:n].real / np.sqrt(2 * n)


def synthesize_fgn(
    model: LrdModel, n: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Draw an exact length-``n`` sample path of the background law.

    The joint distribution is multivariate Gaussian with mean zero and
    covariance ``fgn_acf(model, |i - j|)`` — no approximation.  Output is
    bit-identical for repeated calls with the same ``(model, n, seed)``.
    """
    return FgnSampler(model, n).sample(seed)


def estimate_hurst(series) -> float:
    """Aggregated-variance estimate of the Hurst parameter.

    The block means at sizes ``m = 2, 4, ..., 2**(K-1)`` are the levels
    above scale 1 of the ``nowa`` pyramid with base 2, ``K`` scales and
    normalization exponent 1; ``2**(K-1)`` is the largest power of two up
    to ``n/64`` (``n/4`` below 256 samples), and a series with fewer than
    two sizes is too short.  The sample variance of the block means scales
    like ``m^{2H-2}``, so regressing log-variance on log-m gives ``H`` via
    ``H = 1 + slope/2``.  The result is clamped to (0.01, 0.99).  Where the
    squares of huge means overflow, ``log v`` is that of the means divided
    by a power of two plus twice its log.  A block size whose variance is
    zero, or not finite even so, raises ``ValueError``.

    This estimator is simple but biased for strongly dependent data; it is
    offered as a convenience for picking a working ``H`` from a training
    trace, never used inside the detection math.
    """
    x = as_values(series)
    # Large blocks are few and strongly correlated, which drags the fitted
    # slope down; capping at n/64 keeps the bias modest.
    largest = len(x) // 64 if len(x) >= 256 else len(x) // 4
    if largest < 4:
        raise ValueError(f"series of length {len(x)} is too short (need length >= 16)")
    levels = build_nowa(x, ScaleConfig(2, largest.bit_length(), hurst=1.0)).levels[1:]
    log_m, log_v = [], []
    for k, means in enumerate(levels, start=1):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            v, exponent = means.var(ddof=1), 0
            if not np.isfinite(v):
                scaled, exponent = _binary_scaled(means)
                v = scaled.var(ddof=1)
        if v <= 0.0:
            raise ValueError("series has zero variance at some block size (constant input?)")
        if not np.isfinite(v):
            raise ValueError(f"the variance of the block means of size {2**k} overflows to {v}; "
                             "rescale the series")
        log_m.append(np.log(2.0**k))
        log_v.append(np.log(v) + 2 * exponent * np.log(2.0))
    slope, _ = np.polyfit(log_m, log_v, 1)
    return float(np.clip(1.0 + slope / 2.0, 0.01, 0.99))

"""Fractional Gaussian noise: model, exact synthesis, and Hurst estimation.

The background model for standardized traffic counts is a stationary
zero-mean Gaussian series whose autocovariance is determined by a Hurst
parameter ``H`` and marginal standard deviation ``sigma``.  For ``H > 1/2``
the autocovariance decays polynomially (long range dependence).

Synthesis uses circulant embedding of the covariance (Davies & Harte 1987;
Wood & Chan 1994), exact in distribution.  ``FgnSampler`` embeds one model
and length once and draws each seeded path with one ``O(n log n)`` real
inverse FFT of an (n+1)-point half spectrum.  A path, like every series in
the package, is a plain 1-D float64 array (see :mod:`~lrdshift.pyramid`).
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


# Terms of the binomial series of ``fgn_acf``: from lag 2 on, each term is
# below 1/4 of the one before and all have one sign, so 27 terms leave a tail
# below 2^-53 of the sum.
_SERIES_TERMS = 27


def fgn_acf(model: LrdModel, h) -> float | np.ndarray:
    """Autocovariance of the noise at integer lag ``h`` (scalar or array).

    gamma(h) = sigma^2/2 * [ |h+1|^{2H} - 2|h|^{2H} + |h-1|^{2H} ],
    so gamma(0) = sigma^2 and, for H = 1/2, all positive lags vanish.

    That form cancels at long lags, so for ``|h| >= 2`` the bracket is
    expanded in powers of ``1/h``: gamma(h) = sigma^2 h^{2H-2}
    * sum_{j>=1} C(2H, 2j) h^{2-2j}, evaluated by Horner.  It stays within
    about one unit in the last place of the exact value at every lag, and
    gives 0 at an infinite lag.
    """
    h = np.abs(np.asarray(h, dtype=float))
    two_h, var = 2.0 * model.hurst, model.sigma**2
    flat = h.ravel()
    gamma = np.empty_like(flat)
    far = flat >= 2.0
    near = ~far  # NaN takes the closed form
    x = flat[near]
    gamma[near] = 0.5 * var * ((x + 1.0) ** two_h - 2.0 * x**two_h + np.abs(x - 1.0) ** two_h)
    binomial, coefficients = 1.0, []  # C(2H, 2j), j = 1, 2, ...
    for k in range(1, 2 * _SERIES_TERMS + 1):
        binomial *= (two_h - k + 1) / k
        if k % 2 == 0:
            coefficients.append(binomial)
    x = flat[far]
    inverse_square = 1.0 / (x * x)
    series = np.full(len(x), coefficients[-1])
    for c in coefficients[-2::-1]:
        series *= inverse_square
        series += c
    np.power(x, two_h - 2.0, out=x)
    x *= var
    x *= series
    gamma[far] = x
    gamma = gamma.reshape(h.shape)
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
    """The distinct eigenvalues 0..n of the length-2n circulant extension of the covariance.

    They are provably non-negative for this covariance family; a negative
    entry beyond rounding noise therefore signals an implementation bug.
    """
    gamma = fgn_acf(model, np.arange(n + 1))
    eigenvalues = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
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
    their square roots, scaled for the inverse FFT, are computed once here
    and shared by every ``sample`` call, which also reuses the sampler's 2n
    normals and (n+1)-point half spectrum.  So a sampler is not thread-safe.
    """

    def __init__(self, model: LrdModel, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        # irfft divides by 2n, not sqrt(2n); each part of an interior normal has variance 1/2.
        self._root = np.sqrt(_embedding_eigenvalues(model, n))
        self._root[1:n] *= np.sqrt(n)
        self._root[[0, n]] *= np.sqrt(2 * n)
        self._normals = np.empty(2 * n)
        self._half = np.zeros(n + 1, dtype=complex)

    def sample(self, seed: int | np.random.SeedSequence) -> np.ndarray:
        """Draw the path for ``seed``; the same seed gives the same bits.

        One path costs 2n standard normals z.  Scaled by the root
        eigenvalues, the real parts of the half spectrum are z0, z2..zn and
        z1 at frequency n, and the imaginary parts of frequencies 1..n-1 are
        -z(n+1)..-z(2n-1).  Its real inverse FFT over 2n points, cut to the
        first n, is the path: a fresh array, finite by construction and so
        returned unchecked.
        """
        n = self.n
        z = substream(seed).standard_normal(out=self._normals)
        root, real, imag = self._root, self._half.real, self._half.imag
        real[0] = root[0] * z[0]
        real[n] = root[n] * z[1]
        np.multiply(root[1:n], z[2 : n + 1], out=real[1:n])
        np.multiply(root[1:n], z[n + 1 :], out=imag[1:n])
        np.negative(imag[1:n], out=imag[1:n])
        return np.fft.irfft(self._half, 2 * n)[:n].copy()


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
    ``H = 1 + slope/2``.  The result is clamped to (0.01, 0.99).  The slope
    does not depend on the scale of the series, so where the sums or
    squares of huge values overflow, or the squares of tiny ones underflow
    to 0, every variance is taken once more from the series divided by the
    power of two just above its largest magnitude.  A block size whose
    variance is zero even so raises ``ValueError``.

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
    config = ScaleConfig(2, largest.bit_length(), hurst=1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # such variances are refitted
        variances = [means.var(ddof=1) for means in build_nowa(x, config).levels[1:]]
    if not all(0.0 < v < np.inf for v in variances):
        # H does not depend on the scale.  Block sums of values below 1 cannot overflow,
        # and their variance underflows only where the series is all but constant.
        scaled = build_nowa(_binary_scaled(x)[0], config).levels[1:]
        variances = [means.var(ddof=1) for means in scaled]
    if min(variances) <= 0.0:
        raise ValueError("series has zero variance at some block size (constant input?)")
    log_m = [np.log(2.0**k) for k in range(1, len(variances) + 1)]
    slope, _ = np.polyfit(log_m, np.log(variances), 1)
    return float(np.clip(1.0 + slope / 2.0, 0.01, 0.99))

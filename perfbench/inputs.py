"""Benchmark inputs: an fGn sampler of the benchmark's own and the input files.

Nothing here imports ``lrdshift``.  The detect and stream workloads read
files made by this module, so a change to ``lrdshift.fgn`` cannot change
what they read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

HURST = 0.9
SHIFT_SD = 3.0  # injected level shift, in background standard deviations
SHIFT_LENGTH = 4096  # samples; one window of scale 13 at base 2


def fgn_autocov(hurst: float, lags) -> np.ndarray:
    """Unit-variance fGn autocovariance at integer lags, free of cancellation.

    For h >= 2, ``((h+1)^{2H} - 2h^{2H} + (h-1)^{2H}) / 2`` is evaluated as
    ``h^{2H}/2 * (expm1(2H log1p(1/h)) + expm1(2H log1p(-1/h)))``, whose
    relative error grows like ``eps * h`` instead of ``eps * h^2``.
    """
    h = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    out = np.empty_like(h)
    near = h < 2.0
    hn = h[near]
    out[near] = 0.5 * ((hn + 1.0) ** two_h - 2.0 * hn**two_h + np.abs(hn - 1.0) ** two_h)
    hf = h[~near]
    out[~near] = 0.5 * hf**two_h * (
        np.expm1(two_h * np.log1p(1.0 / hf)) + np.expm1(two_h * np.log1p(-1.0 / hf))
    )
    return out


def sample_fgn(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One exact unit-variance fGn path of length ``n`` (Davies-Harte embedding).

    The covariance is embedded in a circulant of size 2n whose eigenvalues
    are non-negative for fGn; ``Re(F sqrt(lambda / 2n) (z1 + i z2))`` then has
    exactly the target law.
    """
    gamma = fgn_autocov(hurst, np.arange(n + 1))
    half = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if half.min() < -1e-8 * half.max():
        raise RuntimeError(f"circulant embedding has a negative eigenvalue {half.min():.3e}")
    eigenvalues = np.clip(np.concatenate([half, half[-2:0:-1]]), 0.0, None)
    size = 2 * n
    noise = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return np.fft.fft(np.sqrt(eigenvalues / size) * noise)[:n].real


@dataclass
class Series:
    """A generated series and the level shift injected into it."""

    values: np.ndarray  # exactly what a file written from it holds, parsed back
    shift_start: int  # 1-based first shifted position
    shift_end: int  # 1-based last shifted position


def shifted_fgn(seed: int, salt: int, n: int) -> Series:
    """Standard fGn at H = 0.9 with one level shift in the middle half."""
    rng = np.random.default_rng([salt, seed])
    x = sample_fgn(HURST, n, rng)
    start = int(rng.integers(n // 4, 3 * n // 4)) + 1
    end = start + SHIFT_LENGTH - 1
    x[start - 1 : end] += SHIFT_SD
    return Series(x, start, end)


def as_counter(series: Series) -> Series:
    """Affine map to whole byte counts, as a traffic-counter export holds them."""
    values = np.rint(1.2e6 + 1.0e5 * series.values)
    return Series(values, series.shift_start, series.shift_end)


def _write(path: str, text: str) -> str:
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_counter_csv(series: Series, path: str, limit: int | None = None) -> str:
    """``t,bytes`` CSV with a header row and Unix-second timestamps; returns its sha256."""
    values = series.values[:limit].astype(np.int64).tolist()
    t0 = 1_700_000_000
    lines = [f"{t0 + i},{v}" for i, v in enumerate(values)]
    return _write(path, "t,bytes\n" + "\n".join(lines) + "\n")


def write_plain(series: Series, path: str, limit: int | None = None) -> str:
    """One ``repr`` float per line (exact round trip); returns its sha256."""
    return _write(path, "\n".join(map(repr, series.values[:limit].tolist())) + "\n")

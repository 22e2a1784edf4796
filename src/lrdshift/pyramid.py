"""Multiscale aggregation pyramids over a scale-1 series.

Scale ``k`` aggregates windows of ``L_k = base**(k-1)`` consecutive samples,
normalized by ``L_k**hurst`` so that a pure background series with matching
Hurst parameter keeps a standard-normal marginal at every scale.

Two window layouts are supported:

* ``nowa`` — non-overlapping window aggregation: disjoint blocks, block ``j``
  at scale ``k`` covering scale-1 positions ``(j-1)*L_k + 1 .. j*L_k``; a
  trailing partial block is dropped.
* ``swa`` — sliding window aggregation: the backward window of length
  ``L_k`` ending at position ``i``, defined for ``i >= L_k``.  Sliding
  aggregation uses only up-to-now samples, so it also runs one sample at a
  time via :class:`StreamState`.

Both builders aggregate level ``k`` from the level ``k-1`` sums with the
earliest chunk added first, which makes the two layouts agree bit-for-bit at
positions that are multiples of the largest window.  :class:`StreamState`
chains its windows the same way, so a stream equals the sliding layout bit
for bit at every position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fgn import as_series

__all__ = [
    "ScaleConfig",
    "Pyramid",
    "StreamState",
    "build_nowa",
    "build_swa",
]


@dataclass(frozen=True)
class ScaleConfig:
    """Aggregation geometry: base, number of scales, normalization exponent.

    The normalization exponent is the Hurst parameter used in the weights
    ``1/L_k**hurst``.  It may deliberately differ from the data's true Hurst
    parameter (useful for sensitivity experiments); matching them is what
    yields unit variance at every scale.  ``hurst = 1`` (plain averaging) is
    allowed here even though it is degenerate as a model parameter.
    """

    base: int = 2
    num_scales: int = 15
    hurst: float = 0.5

    def __post_init__(self) -> None:
        if int(self.base) != self.base or self.base < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.base}")
        if int(self.num_scales) != self.num_scales or self.num_scales < 1:
            raise ValueError(f"num_scales must be an integer >= 1, got {self.num_scales}")
        if not 0.0 < self.hurst <= 1.0:
            raise ValueError(f"hurst must be in (0, 1], got {self.hurst}")

    def window(self, scale: int) -> int:
        """Window length ``L_k = base**(k-1)`` at 1-based scale ``k``."""
        if not 1 <= scale <= self.num_scales:
            raise ValueError(f"scale must be in 1..{self.num_scales}, got {scale}")
        return self.base ** (scale - 1)

    @property
    def max_window(self) -> int:
        return self.base ** (self.num_scales - 1)


@dataclass
class Pyramid:
    """The multiscale series: one array per scale plus its layout tag.

    ``levels[k-1]`` holds scale ``k``; level 1 is the input itself, so the
    series length ``n`` is ``len(levels[0])``.  For ``nowa`` the array has
    ``n // L_k`` complete blocks; for ``swa`` it has ``n - L_k + 1`` entries,
    entry ``0`` being the window ending at 1-based scale-1 position ``L_k``.
    In both layouts the first entry's window ends at position ``L_k``.
    """

    method: str
    config: ScaleConfig
    levels: list[np.ndarray]


def _check_length(x: np.ndarray, config: ScaleConfig) -> None:
    if len(x) < config.max_window:
        raise ValueError(
            f"series of length {len(x)} is shorter than the largest window "
            f"{config.max_window} (base {config.base}, {config.num_scales} scales)"
        )


def _normalizers(config: ScaleConfig) -> list[float]:
    return [float(config.window(k)) ** config.hurst for k in range(1, config.num_scales + 1)]


def build_nowa(series, config: ScaleConfig) -> Pyramid:
    """Non-overlapping aggregation pyramid of ``series``.

    Scale-``k`` block ``j`` equals the sum of scale-1 samples at positions
    ``(j-1)*L_k + 1 .. j*L_k`` divided by ``L_k**hurst``; the trailing
    partial block is dropped rather than padded.
    """
    x = as_series(series).values
    _check_length(x, config)
    b = config.base
    sums = [x]
    for _ in range(config.num_scales - 1):
        prev = sums[-1]
        nblocks = len(prev) // b
        cur = prev[0 : nblocks * b : b].copy()
        for r in range(1, b):
            cur += prev[r : nblocks * b : b]
        sums.append(cur)
    for level, norm in zip(sums[1:], _normalizers(config)[1:]):
        level /= norm  # in place: these sums are fresh, unlike level 1 (the input)
    return Pyramid("nowa", config, sums)


def build_swa(series, config: ScaleConfig) -> Pyramid:
    """Sliding aggregation pyramid of ``series``.

    Scale-``k`` entry at position ``i >= L_k`` equals the sum of the
    ``L_k`` samples ending at ``i`` divided by ``L_k**hurst``.
    """
    x = as_series(series).values
    _check_length(x, config)
    b = config.base
    n = len(x)
    sums = [x]
    for k in range(2, config.num_scales + 1):
        prev = sums[-1]
        sub = config.window(k - 1)
        m = n - config.window(k) + 1
        # Window of b*sub samples = b chained sub-windows, earliest first.
        cur = prev[0:m].copy()
        for r in range(b - 2, -1, -1):
            i0 = (b - 1 - r) * sub
            cur += prev[i0 : i0 + m]
        sums.append(cur)
    for level, norm in zip(sums[1:], _normalizers(config)[1:]):
        level /= norm  # in place: these sums are fresh, unlike level 1 (the input)
    return Pyramid("swa", config, sums)


class StreamState:
    """One-sample-at-a-time sliding aggregation over all scales.

    Each window is built as :func:`build_swa` builds it: the scale-``k``
    window ending here is the chained sum of the ``base`` scale-``(k-1)``
    windows ending ``(base-1)*L_{k-1}, ..., L_{k-1}, 0`` samples ago,
    earliest first.  Scale ``k < num_scales`` keeps a ring of its last
    ``(base-1)*L_k`` window sums (``max_window - 1`` slots in all) as Python
    floats, so each push does O(num_scales * base) float work, calls no
    numpy, and returns bit for bit the batch ``swa`` statistic and argmax.
    """

    def __init__(self, config: ScaleConfig):
        self.config = config
        self.samples_seen = 0
        # Per scale k >= 2: L_k, its normalizer, scale k-1's ring and its
        # size, and the offsets from the earliest window of the chain to the
        # middle ones (none at base 2).
        self._scales = []
        for k, norm in enumerate(_normalizers(config)[1:], start=2):
            sub = config.window(k - 1)
            size = (config.base - 1) * sub
            offsets = tuple(m * sub - size for m in range(1, config.base - 1))
            self._scales.append((k, config.window(k), norm, [0.0] * size, size, offsets))

    def push(self, sample: float) -> tuple[float, int]:
        """Ingest one sample; return ``(statistic, argmax_scale)`` ending here.

        The statistic is the max of absolute values over the warm scales of
        a sliding pyramid of the full history, scale ``k`` being warm once at
        least ``L_k`` samples have been seen; ties go to the smallest scale.
        A non-finite sample raises ``ValueError`` and leaves the state as it
        was.
        """
        x = float(sample)
        if not math.isfinite(x):
            raise ValueError(f"sample must be finite, got {x!r}")
        n = self.samples_seen
        self.samples_seen = seen = n + 1
        # ring[p] holds the window ending (base-1)*L_{k-1} samples ago, the
        # earliest of the chain, and ring[p + offset] (a negative offset
        # wraps) the later ones.  A slot not yet written holds 0.0 and feeds
        # only windows that are not warm yet.
        window = x
        top, best = abs(x), 1
        for k, length, norm, ring, size, offsets in self._scales:
            p = n % size
            chained = ring[p]
            for offset in offsets:
                chained += ring[p + offset]
            ring[p] = window
            window = chained + window
            magnitude = abs(window / norm)
            if magnitude > top and length <= seen:
                top, best = magnitude, k
        return top, best

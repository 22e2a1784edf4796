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
positions that are multiples of the largest window.
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

    Keeps a ring buffer of the last ``max_window`` raw samples and one
    running sum per scale, all as Python floats: each push does
    O(num_scales) float work and calls no numpy.  Running sums are
    recomputed from the ring buffer with numpy every ``recompute_every``
    pushes to keep accumulated floating-point drift below ~1e-9 over
    arbitrarily long runs, and after each push that leaves a sum not finite,
    which would otherwise stay so after the samples that overflowed it leave.
    """

    def __init__(self, config: ScaleConfig, recompute_every: int = 1 << 20):
        if recompute_every < 1:
            raise ValueError("recompute_every must be >= 1")
        self.config = config
        self.samples_seen = 0
        self._windows = [config.window(k) for k in range(1, config.num_scales + 1)]
        self._normalizers = _normalizers(config)
        self._ring = [0.0] * config.max_window
        self._pos = 0
        self._sums = [0.0] * config.num_scales
        self._warm = 0  # scales with L_k <= samples_seen; windows increase, so a prefix
        self._recompute_every = recompute_every

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
        ring, sums, windows = self._ring, self._sums, self._windows
        pos = self._pos
        # ring[pos - L_k] is the sample leaving scale k (a negative index
        # wraps, since L_k <= len(ring)).  A slot not yet written holds 0.0
        # and (s + x) - 0.0 == s + x exactly, so scales still filling up
        # need no separate case.
        for i in range(len(sums)):
            sums[i] = (sums[i] + x) - ring[pos - windows[i]]
        ring[pos] = x
        self._pos = (pos + 1) % len(ring)
        self.samples_seen += 1
        warm = self._warm
        if warm < len(windows) and windows[warm] <= self.samples_seen:
            self._warm = warm = warm + 1
        if self.samples_seen % self._recompute_every == 0:
            self._recompute_sums(warm)
        elif not math.isfinite(sum(sums)):  # a sum overflowed, or the total did
            self._recompute_sums(len(sums))
        norms = self._normalizers
        best = 0
        top = abs(sums[0] / norms[0])
        for k in range(1, warm):
            magnitude = abs(sums[k] / norms[k])
            if magnitude > top:
                top, best = magnitude, k
        return top, best + 1

    def _recompute_sums(self, num_scales: int) -> None:
        # Chronological copy of the ring: oldest retained sample first.  A slot
        # not yet written holds 0.0, so a scale still filling up sums right too.
        size = len(self._ring)
        history = np.array(self._ring[self._pos :] + self._ring[: self._pos])
        with np.errstate(over="ignore"):  # a window whose sum overflows sums to inf, as in batch
            for i in range(num_scales):
                self._sums[i] = float(history[size - self._windows[i] :].sum())

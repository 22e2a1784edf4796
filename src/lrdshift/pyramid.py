"""Multiscale aggregation pyramids over a scale-1 series.

Scale ``k`` aggregates windows of ``L_k = base**(k-1)`` consecutive samples,
normalized by ``L_k**hurst`` so that a pure background series with matching
Hurst parameter keeps a standard-normal marginal at every scale.

A series is a plain one-dimensional float64 array throughout the package;
its 1-based position ``i`` is ``series[i-1]``.  :func:`as_values` is the
one check of a series, and every public function of the package that takes
one runs it on each call.

Two window layouts are supported:

* ``nowa`` — non-overlapping window aggregation: disjoint blocks, block ``j``
  at scale ``k`` covering scale-1 positions ``(j-1)*L_k + 1 .. j*L_k``; a
  trailing partial block is dropped.
* ``swa`` — sliding window aggregation: the backward window of length
  ``L_k`` ending at position ``i``, defined for ``i >= L_k``.  Sliding
  aggregation uses only up-to-now samples, so it also runs online via
  :class:`StreamState`: one sample at a time with ``push``, or a block of
  samples at a time with ``extend``.

:meth:`ScaleConfig.cover` is the one encoding of the layouts: the positions
each entry of a level covers.  Both builders sum level ``k`` from the level
``k-1`` sums with one step, ``_chain``, whose spacing and stride follow from
the two levels' covers; the earliest chunk is added first, which makes the
two layouts agree bit-for-bit at positions that are multiples of the largest
window.  ``_chain`` also builds the windows of :meth:`StreamState.extend`;
``push`` is its scalar form, with the same order of additions, so a stream
equals the sliding layout bit for bit at every position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScaleConfig",
    "Pyramid",
    "StreamState",
    "build_nowa",
    "build_swa",
]


def as_values(series) -> np.ndarray:
    """``series`` as a float64 array, copied only if it is not one already.

    Raises ``ValueError`` unless it is one-dimensional and every value is
    finite.
    """
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return values


def _binary_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(values / 2**e, e)`` with ``2**e`` just above ``max |values|``: exact where the
    quotients stay normal, and their sums and squares do not overflow."""
    exponent = int(np.frexp(np.abs(values).max())[1])
    return np.ldexp(values, -exponent), exponent


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

    def cover(self, method: str, scale: int) -> tuple[int, int]:
        """``(lead, repeat)``: entry ``j`` of level ``scale`` covers the 0-based
        positions ``lead + j*repeat .. lead + (j+1)*repeat - 1``.

        ``(0, L_k)`` for ``nowa`` blocks; ``(L_k - 1, 1)`` for ``swa``, whose
        windows cover the position they end at.  Any other ``method`` raises
        ``ValueError``.
        """
        window = self.window(scale)
        if method == "nowa":
            return 0, window
        if method == "swa":
            return window - 1, 1
        raise ValueError(f"method must be 'nowa' or 'swa', got {method!r}")

    @property
    def max_window(self) -> int:
        return self.base ** (self.num_scales - 1)

    def check_length(self, n: int) -> None:
        """The length rule: ``ValueError`` unless ``n`` samples hold the largest window."""
        if n < self.max_window:
            raise ValueError(f"series of length {n} is shorter than the largest window "
                             f"{self.max_window} (base {self.base}, {self.num_scales} scales)")


@dataclass
class Pyramid:
    """The multiscale series: one array per scale plus its layout tag.

    ``levels[k-1]`` holds scale ``k``; level 1 is the input itself, so the
    series length ``n`` is ``len(levels[0])``.  For ``nowa`` the array has
    ``n // L_k`` complete blocks; for ``swa`` it has ``n - L_k + 1`` entries,
    entry ``0`` being the window ending at 1-based scale-1 position ``L_k``.
    In both layouts the first entry's window ends at position ``L_k``;
    :meth:`ScaleConfig.cover` gives the positions each entry covers.
    """

    method: str
    config: ScaleConfig
    levels: list[np.ndarray]


def _normalizers(config: ScaleConfig) -> list[float]:
    return [float(config.window(k)) ** config.hurst for k in range(1, config.num_scales + 1)]


def _level_lengths(method: str, n: int, config: ScaleConfig) -> list[int]:
    """Lengths of the scale-2..M levels of a length-``n`` pyramid."""
    covers = (config.cover(method, k) for k in range(2, config.num_scales + 1))
    return [(n - lead) // repeat for lead, repeat in covers]


def _chain(prev: np.ndarray, sub: int, base: int, out: np.ndarray, stride: int = 1) -> np.ndarray:
    """``out[i] = prev[i*stride] + prev[i*stride + sub] + ... + prev[i*stride + (base-1)*sub]``,
    earliest first.

    With ``prev`` the windows of ``sub`` samples, ``out[i]`` is the window
    of ``base*sub`` samples that ends where ``prev[i*stride + (base-1)*sub]``
    ends.  Returns ``out``.
    """
    span = len(out) * stride
    out[:] = prev[:span:stride]
    for offset in range(sub, base * sub, sub):
        out += prev[offset : offset + span : stride]
    return out


def _aggregate(method: str, x: np.ndarray, config: ScaleConfig, levels: list[np.ndarray]) -> None:
    """Write the scale-2..M levels of ``x``'s pyramid into ``levels``.

    ``levels`` holds one array per scale, of the lengths
    :func:`_level_lengths` gives; each is overwritten.  Level ``k`` is
    chained from the unnormalized level ``k-1``, its earliest chunk first.
    Counted in level ``k-1`` entries, each ``repeat_{k-1}`` positions apart
    (:meth:`ScaleConfig.cover`), a window's chunks are ``L_{k-1}`` positions
    apart and consecutive level ``k`` entries ``repeat_k``: spacing 1 and
    stride ``base`` for ``nowa``, spacing ``L_{k-1}`` and stride 1 for
    ``swa``.  The levels are normalized once all sums are built.
    """
    prev = x
    for k, cur in enumerate(levels, start=2):
        below = config.cover(method, k - 1)[1]
        _chain(prev, config.window(k - 1) // below, config.base, cur,
               config.cover(method, k)[1] // below)
        prev = cur
    for level, norm in zip(levels, _normalizers(config)[1:]):
        level /= norm


def _build(method: str, series, config: ScaleConfig) -> Pyramid:
    x = as_values(series)
    config.check_length(len(x))
    levels = [np.empty(m) for m in _level_lengths(method, len(x), config)]
    _aggregate(method, x, config, levels)
    return Pyramid(method, config, [x, *levels])


def build_nowa(series, config: ScaleConfig) -> Pyramid:
    """Non-overlapping aggregation pyramid of ``series``.

    Scale-``k`` block ``j`` equals the sum of scale-1 samples at positions
    ``(j-1)*L_k + 1 .. j*L_k`` divided by ``L_k**hurst``; the trailing
    partial block is dropped rather than padded.
    """
    return _build("nowa", series, config)


def build_swa(series, config: ScaleConfig) -> Pyramid:
    """Sliding aggregation pyramid of ``series``.

    Scale-``k`` entry at position ``i >= L_k`` equals the sum of the
    ``L_k`` samples ending at ``i`` divided by ``L_k**hurst``.
    """
    return _build("swa", series, config)


# ``StreamState.extend`` pushes a block shorter than this sample by sample:
# at 15 scales on 2 vCPUs the numpy form cost 1.24, 1.07, 0.98 and 0.85
# times what pushing cost at 24, 26, 28 and 32 samples (medians of 9
# interleaved rounds), ``push`` 2.8-5.5 us a sample as the host drifted.
_SHORT_BLOCK = 28


class StreamState:
    """Online sliding aggregation over all scales, per sample or per block.

    Each window is built as :func:`build_swa` builds it: the scale-``k``
    window ending here is the chained sum of the ``base`` scale-``(k-1)``
    windows ending ``(base-1)*L_{k-1}, ..., L_{k-1}, 0`` samples ago,
    earliest first.  Scale ``k < num_scales`` keeps a ring of its last
    ``(base-1)*L_k`` window sums (``max_window - 1`` slots in all) as C
    doubles.  :meth:`push` is the per-sample form: O(num_scales * base)
    scalar float work on the rings, no numpy call.  :meth:`extend` is the
    block form: ``_chain`` over the ring and the next finer scale's windows
    writes each scale's windows of the block into one row of a
    ``(num_scales, block)`` array, the rings seen through ``np.frombuffer``
    with no copy, and one fold over that array takes the max over scales of
    every sample at once.  It pushes a block shorter than ``_SHORT_BLOCK``
    samples, where ``push`` is the cheaper form.  Both return bit for bit
    the batch ``swa`` statistic and argmax, and they may be mixed on one
    state.
    """

    def __init__(self, config: ScaleConfig):
        self.config = config
        self.samples_seen = 0
        # Per scale k >= 2: its cover's lead, its normalizer, scale k-1's ring
        # and its size, and the offsets from the earliest window of the chain
        # to the middle ones (none at base 2).
        norms = _normalizers(config)
        self._norms = np.array(norms)[:, None]  # the divisors of the block form's rows
        self._scales = []
        for k, norm in enumerate(norms[1:], start=2):
            sub = config.window(k - 1)
            size = (config.base - 1) * sub
            offsets = tuple(m * sub - size for m in range(1, config.base - 1))
            ring = memoryview(bytearray(8 * size)).cast("d")
            self._scales.append((k, config.cover("swa", k)[0], norm, ring, size, offsets))

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
        for k, lead, norm, ring, size, offsets in self._scales:
            p = n % size
            chained = ring[p]
            for offset in offsets:
                chained += ring[p + offset]
            ring[p] = window
            window = chained + window
            magnitude = abs(window / norm)
            if magnitude > top and lead < seen:
                top, best = magnitude, k
        return top, best

    def extend(self, samples) -> tuple[np.ndarray, np.ndarray]:
        """Ingest a block of samples; return ``(statistics, argmax_scales)``.

        Element ``i`` of each array is what ``push(samples[i])`` would
        return, bit for bit.  A non-finite sample raises the ``ValueError``
        that ``push`` raises for it, naming the first one, and a block that
        is not one-dimensional raises ``ValueError`` too; either leaves the
        state as it was.  A block shorter than ``_SHORT_BLOCK`` is pushed
        sample by sample, since the block form's fixed cost per call (about
        six numpy calls per scale, then one fold over all scales) outweighs
        ``push`` there.
        """
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {x.shape}")
        finite = np.isfinite(x)
        if not finite.all():
            raise ValueError(f"sample must be finite, got {float(x[np.argmin(finite)])!r}")
        if len(x) < _SHORT_BLOCK:
            pairs = [self.push(sample) for sample in x.tolist()]
            return (np.array([top for top, _ in pairs], dtype=float),
                    np.array([best for _, best in pairs], dtype=int))
        return self._extend_block(x)

    def _extend_block(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`extend` of the finite float array ``x``, in numpy at any length."""
        with np.errstate(over="ignore", invalid="ignore"):  # as quiet as push's floats
            return self._extend_numpy(x)

    def _extend_numpy(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_extend_block` under the caller's ``np.errstate``: a window
        sum that overflows warns as it does in :func:`build_swa`."""
        n, count = self.samples_seen, len(x)
        self.samples_seen = n + count
        base = self.config.base
        # Row k-1 holds scale k's windows ending at each sample: unnormalized
        # while the chain runs, then the magnitudes the fold compares.
        magnitudes = np.empty((self.config.num_scales, count))
        magnitudes[0] = x
        for k, _, _, ring, size, _ in self._scales:
            # The ring in time order, then scale k-1's windows of this block:
            # ``chain[size + i]`` is the window ending at sample i,
            # ``chain[i]`` the one ending ``size`` samples before it.
            slots = np.frombuffer(ring)
            p = n % size
            chain = np.concatenate((slots[p:], slots[:p], magnitudes[k - 2]))
            _chain(chain, size // (base - 1), base, magnitudes[k - 1])
            # Keep the newest size sums, the one ending at sample t in slot t % size.
            newest, q = chain[count:], (n + count) % size
            slots[q:] = newest[: size - q]
            slots[:q] = newest[size - q :]
        magnitudes /= self._norms
        np.abs(magnitudes, out=magnitudes)
        # Sample i is 0-based position n + i, so scale k is warm from
        # i = lead - n on; leads grow with k, so the cold scales are the top ones.
        for k, lead, *_ in reversed(self._scales):
            if lead <= n:
                break
            magnitudes[k - 1, : lead - n] = 0.0
        # fmax skips a NaN (overflowed) window, and a zeroed cell never wins
        # over scale 1, which is finite and >= 0.  The argmax is the smallest
        # scale whose magnitude equals the max, as in push; every sample has
        # one.  At 15 scales this loop took 0.1 ms of a 2^13-sample block,
        # where numpy's argmax over the first axis took 0.65 ms.
        statistics = np.fmax.reduce(magnitudes, axis=0)
        argmax_scales = np.empty(count, dtype=int)
        for k in range(len(magnitudes), 0, -1):
            np.copyto(argmax_scales, k, where=magnitudes[k - 1] == statistics)
        return statistics, argmax_scales

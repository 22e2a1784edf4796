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
  location.  :func:`compute_threshold` keeps each one it computes in an
  on-disk cache (see :func:`_cached_improved_threshold`), so a query is
  simulated once per cache directory.

The normal quantile is :func:`_ndtri`, a scalar port of Cephes' ``ndtri``
(Moshier's rational approximations, the routine scipy.special.ndtri runs);
tests pin it to scipy bit for bit and to an arbitrary-precision oracle, so
the closed-form thresholds load no scipy module.  The normal CDF is
:func:`_ndtr`, a numpy port of Cephes' ``ndtr`` pinned the same way; the
p-value map and the ``power_*`` helpers use it, so the package needs no scipy.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .pyramid import ScaleConfig
from .seeding import subseed, substream
from .workers import in_turns

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
# Rows times m^2 of one block product inside a chunk.  OpenBLAS (0.3.31) runs
# an (R x m) @ (m x m) product on one thread up to R m^2 of about 5e5 and
# splits it over two from about 5.4e5; with the forked worker doing the same,
# a two-CPU host ran four busy threads and the cold threshold slowed down.
_BLOCK_PRODUCT = 1 << 18


def _block_rows(m: int) -> int:
    """Rows drawn at a time inside a chunk at ``m`` scales (1165 at m = 15)."""
    return max(2, _BLOCK_PRODUCT // (m * m))


_CACHE_VERSION = 2  # bump when the Monte-Carlo samples or their quantile change
# The smallest alpha ``power_two_scale`` takes.  Its threshold solves
# ``P(|X| <= c, |Y| <= c) = 1 - alpha``, and ``1 - alpha`` is a multiple of
# 2^-53 there, so it holds alpha to about 1e-16 / alpha relative: 1e-4 here.
_PAIR_ALPHA_MIN = 1e-12


# Cephes ndtri: sqrt(2 pi), then the rational forms P/Q in y^2 for
# |y - 1/2| <= 1/2 - e^-2 and, in z = 1/sqrt(-2 log y), for
# sqrt(-2 log y) < 8 and >= 8.
_S2PI = 2.50662827463100050242e0
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # e^-2


def _polevl(x, coef: tuple):
    """Horner evaluation of ``coef[0] x^N + ... + coef[N]``, for a float or an array.

    An array's steps run in place in one new array, the result.
    """
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef: tuple):
    """:func:`_polevl` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri(y0: float) -> float:
    """The standard normal quantile ``Phi^{-1}(y0)``, as Cephes computes it.

    Returns -inf at 0, inf at 1 and NaN outside [0, 1].
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


# Cephes ndtr and the erf/erfc it calls: erf(z) = z T(z^2)/U(z^2) for
# z <= 1, erfc(z) = exp(-z^2) P(z)/Q(z) for 1 <= z < 8 and R(z)/S(z) beyond,
# and 0 once -z^2 < -MAXLOG.
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF ``Phi(a)`` of each element, as Cephes computes it.

    Returns a new float array of ``a``'s shape; NaN stays NaN.  ``exp`` is
    libm's (:func:`math.exp`), as in Cephes: numpy's vectorized ``exp`` may
    differ from it by an ulp.  Each form is evaluated only on its own
    elements, and the work arrays are a few of ``a``'s size: the map writer
    passes one slice of a level, about 2^12 entries, at a time.
    """
    z = np.multiply(a, _SQRT1_2, dtype=float)  # x, then |x| in place
    positive = z > 0.0
    np.abs(z, out=z)
    y = np.full_like(z, np.nan)
    inner = z < 1.0
    y[inner] = _erf_forms(z[inner], positive[inner])
    tail = z >= 1.0
    y[tail] = _erfc_forms(z[tail])
    upper = positive & (z >= _SQRT1_2)
    y[upper] = 1.0 - y[upper]
    return y


def _erf_forms(z: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """``Phi`` where ``z = |x| < 1``, before the ``x > 0`` flip of :func:`_ndtr`.

    That is ``0.5 + 0.5 erf(x)`` for ``z < sqrt(1/2)`` and ``0.5 (1 - erf(z))``
    from there, with ``erf(z) = z T(z^2)/U(z^2)``.
    """
    z2 = z * z
    y = _polevl(z2, _T)
    y *= z
    y /= _p1evl(z2, _U)  # erf(z)
    central = z < _SQRT1_2
    np.negative(y, out=y, where=central & ~positive)  # erf(x) for x <= 0
    np.subtract(1.0, y, out=y, where=~central)
    y *= 0.5
    np.add(y, 0.5, out=y, where=central)
    return y


def _erfc_forms(z: np.ndarray) -> np.ndarray:
    """``0.5 erfc(z)`` where ``z >= 1``, and 0 once ``z^2 > MAXLOG``.

    ``erfc(z)`` is ``exp(-z^2) P(z)/Q(z)`` below 8 and ``exp(-z^2) R(z)/S(z)``
    from there.
    """
    with np.errstate(over="ignore"):
        z2 = z * z
    live = z2 <= _MAXLOG
    np.negative(z2, out=z2)
    y = np.fromiter(map(math.exp, z2), float, len(z))  # libm's exp, as in Cephes
    for form, num, den in ((live & (z < 8.0), _P, _Q), (live & (z >= 8.0), _R, _S)):
        zf = z[form]
        part = y[form]
        part *= _polevl(zf, num)
        part /= _p1evl(zf, den)
        y[form] = part
    y[~live] = 0.0
    y *= 0.5
    return y


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
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"the {self.kind} threshold value must be positive and finite, "
                             f"got {self.value}")


def cross_scale_corr(hurst: float, base: int, lag: int) -> float:
    """Correlation across scales at the same time position, at scale ``lag``.

    Equals ``(1 + r^{2H} - (r-1)^{2H}) / (2 r^H)`` with window ratio
    ``r = base**lag``.  Evaluated in a cancellation-free form so that large
    lags keep full precision.  This is the one place that keeps the value
    at most 1: at H = 1 every exact value is 1, and the form rounds some
    ratios to 1 + 2^-52.
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if lag == 0:
        return 1.0
    log_r = lag * np.log(float(base))
    r_pow_h = np.exp(hurst * log_r)
    # r^{2H} - (r-1)^{2H} = -r^{2H} * expm1(2H * log1p(-1/r))
    diff = -np.expm1(2.0 * hurst * np.log1p(-np.exp(-log_r)))
    return min(float(0.5 / r_pow_h + 0.5 * r_pow_h * diff), 1.0)


def scale_cov_matrix(hurst: float, base: int, m: int) -> np.ndarray:
    """The ``m x m`` cross-scale correlation matrix (unit diagonal, Toeplitz).

    Its entries are :func:`cross_scale_corr`'s, so none exceeds 1; whether
    the matrix is positive semi-definite is checked where it is factored,
    by :func:`_corr_factor`.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    first = np.array([cross_scale_corr(hurst, base, k) for k in range(m)])
    lags = np.arange(m)
    return first[np.abs(np.subtract.outer(lags, lags))]


def single_scale_threshold(alpha: float) -> ThresholdResult:
    """Two-sided critical value ``Phi^{-1}(1 - alpha/2)`` for one scale.

    It is taken as ``-Phi^{-1}(alpha / 2)``: ``1 - alpha/2`` rounds, and is
    1 below alpha = 1.1e-16.
    """
    ThresholdQuery(alpha, 1)  # checks alpha
    return ThresholdResult(value=-_ndtri(alpha / 2.0), kind="single_scale")


def asymptotic_threshold(alpha: float, m: int) -> ThresholdResult:
    """Many-scales threshold ``Phi^{-1}((1 - alpha)^{1/(2m)})`` for ``m`` scales.

    It is taken as ``-Phi^{-1}(y)`` with ``y = 1 - (1 - alpha)^{1/(2m)}``
    from ``expm1``/``log1p``: the power of ``1 - alpha`` rounds near 1; at
    m = 15 that cost 1.4e-5 relative at alpha = 1e-12 and gave 1, so an
    infinite value, at 1e-15.
    """
    ThresholdQuery(alpha, m)  # checks alpha and m
    y = -math.expm1(math.log1p(-alpha) / (2.0 * m))
    return ThresholdResult(value=-_ndtri(y), kind="asymptotic")


def _corr_factor(cov: np.ndarray) -> np.ndarray:
    """Sampling factor A with A A^T = cov, via eigendecomposition.

    Adjacent scales are almost perfectly correlated for large Hurst values,
    so the matrix can be near-singular; the eigen route tolerates that where
    Cholesky would fail.  This one decomposition is also the check that
    ``cov`` is positive semi-definite: an eigenvalue below -1e-10 raises
    RuntimeError, and the rounding-sized negative ones above it are taken
    as 0.
    """
    w, v = np.linalg.eigh(cov)
    if w[0] < -1e-10:
        raise RuntimeError(f"cross-scale correlation matrix is not PSD (eigenvalue {w[0]:.3e})")
    return v * np.sqrt(np.clip(w, 0.0, None))


def _max_abs_gaussian_samples(
    factor: np.ndarray, reps: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """``reps`` draws of ``max_k |Z_k|``, ``Z = factor @ N(0, I)``, for :func:`improved_threshold`.

    Replicates ``i * _CHUNK`` up to ``(i + 1) * _CHUNK`` come from
    ``substream(seed, i)``, drawn ``_block_rows(m)`` rows at a time into two
    buffers allocated once: the working set is the 8 bytes per replicate of
    the result plus ``2 (_block_rows(m) + 1) m`` floats.  The samples do not
    depend on the block size: a generator filling consecutive blocks yields
    the normals one call over the chunk does, and a product of two or more rows
    sums each row as the chunk's product does.  A chunk never ends in a
    one-row block, since numpy computes a one-row product on its
    vector-matrix path, whose sums can differ in the last bit.

    The chunks are drawn in turns through :func:`~lrdshift.workers.in_turns`:
    on a host with two or more usable CPUs, one forked worker draws the odd
    chunks into its own copy of the result, and this process reads their
    maxima from the pipe straight into its result, so it holds no second
    copy of them.  Each chunk's maxima depend on its substream alone.
    """
    m = factor.shape[0]
    block = _block_rows(m)
    out = np.empty(reps)
    rows = min(block + 1, reps)
    g = np.empty((rows, m))
    z = np.empty((rows, m))

    def draw(start: int) -> np.ndarray:
        """The maxima of the chunk that starts at replicate ``start``, written into ``out``."""
        rng = substream(seed, start // _CHUNK)
        stop = min(start + _CHUNK, reps)
        lo = start
        while lo < stop:
            hi = lo + block if stop - lo > block + 1 else stop
            g_block, z_block = g[: hi - lo], z[: hi - lo]
            rng.standard_normal(out=g_block)
            np.matmul(g_block, factor.T, out=z_block)
            np.abs(z_block, out=z_block)
            z_block.max(axis=1, out=out[lo:hi])
            lo = hi
        return out[start:stop]

    in_turns(range(0, reps, _CHUNK), draw, into=lambda start: out[start : start + _CHUNK])
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
    return float(value), float((q_hi - q_lo) / 2.0)


def improved_threshold(query: ThresholdQuery) -> ThresholdResult:
    """Monte-Carlo family-wise threshold from the cross-scale correlations.

    Draws ``mc_reps`` vectors from the ``num_scales``-dimensional cross-scale
    law and returns the empirical ``(1 - alpha)``-quantile of the max of
    absolute values.  Deterministic given ``seed`` and independent of how the
    replicate loop is partitioned: on a host with two or more usable CPUs a
    forked worker draws every second chunk of replicates (see
    :func:`_max_abs_gaussian_samples`), and the value is the same bit for bit.
    """
    if query.mc_reps < 10**4:
        raise ValueError(f"mc_reps must be >= 10^4, got {query.mc_reps}")
    factor = _corr_factor(scale_cov_matrix(query.hurst, query.base, query.num_scales))
    samples = _max_abs_gaussian_samples(factor, query.mc_reps, query.seed)
    value, se = _quantile_with_se(samples, 1.0 - query.alpha)
    return ThresholdResult(value=value, kind="monte_carlo", mc_standard_error=se)


def _cache_key(query: ThresholdQuery) -> dict:
    """Everything the Monte-Carlo threshold of ``query`` depends on, as JSON values.

    Every field of the query enters, read with :func:`dataclasses.fields`.
    The seed is reduced to the ``(entropy, spawn_key)`` pair that
    :func:`~lrdshift.seeding.subseed` builds each substream from, so an int
    seed ``s`` and ``SeedSequence(s)`` share a key; for an int seed that
    takes no import of ``numpy.random``, which a cache hit then never loads.
    The numpy version enters because its normal stream and ``eigh`` factor
    may change.
    """
    key = {"version": _CACHE_VERSION, "chunk": _CHUNK, "numpy": np.__version__}
    for field in fields(query):
        value = getattr(query, field.name)
        if field.name == "seed":
            if isinstance(value, (int, np.integer)) and value >= 0:
                value = [int(value), []]  # subseed's pair, without loading numpy.random
            else:
                seq = subseed(value)
                value = [np.asarray(seq.entropy).tolist(), [int(k) for k in seq.spawn_key]]
        elif isinstance(value, np.generic):
            value = value.item()
        key[field.name] = value
    return key


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/lrdshift``, or ``~/.cache/lrdshift`` when that is unset or relative."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG spec says to ignore a relative path
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "lrdshift")


def _read_entry(path: str, key: dict) -> ThresholdResult | None:
    """The cached result at ``path`` if it was stored for ``key`` and is valid, else None."""
    try:
        with open(path) as fh:
            entry = json.load(fh)
        value, se = entry["value"], entry["se"]
        if entry["key"] != key:
            return None
    except (OSError, ValueError, TypeError, KeyError):  # unreadable, not JSON, not an entry
        return None
    if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
        return None
    if not (isinstance(se, float) and math.isfinite(se) and se >= 0.0):
        return None
    return ThresholdResult(value=value, kind="monte_carlo", mc_standard_error=se)


def _write_entry(path: str, key: dict, result: ThresholdResult) -> None:
    """Store ``result`` at ``path``, or nothing if the directory cannot be written.

    The entry is written to a temporary file beside it and renamed into
    place, so a reader sees a whole entry or none, and concurrent writers of
    one query race only to write the same bytes.
    """
    entry = {"key": key, "value": result.value, "se": result.mc_standard_error}
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh)  # floats as repr: they read back bit for bit
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _cached_improved_threshold(query: ThresholdQuery) -> ThresholdResult:
    """:func:`improved_threshold`, computed once per query and cache directory.

    The entry is one JSON file under :func:`_cache_dir` holding the key, the
    value and its standard error; its name is spelled from the key's values,
    and the stored key decides a hit.  A missing, unreadable or invalid
    entry is a miss: the threshold is computed and the entry rewritten.  A
    cache that cannot be read or written changes neither the result nor
    what the run prints.
    """
    directory = _cache_dir()
    if not os.path.isabs(directory):  # no home directory to resolve ``~`` against
        return improved_threshold(query)
    key = _cache_key(query)
    # A readable name, e.g. ``version_1_chunk_131072_..._seed_0_``; two keys
    # that share a name only overwrite each other's entry.
    name = re.sub(r"[^A-Za-z0-9.+-]+", "_", json.dumps(key))[:200]
    path = os.path.join(directory, f"monte_carlo{name}.json")
    result = _read_entry(path, key)
    if result is None:
        result = improved_threshold(query)
        _write_entry(path, key, result)
    return result


# The threshold kinds.  The functions are looked up by name at call time, so
# rebinding a module attribute (a test double, a tracer) takes effect here.
_THRESHOLD_BY_KIND = {
    "single_scale": lambda query: single_scale_threshold(query.alpha),
    "asymptotic": lambda query: asymptotic_threshold(query.alpha, query.num_scales),
    "monte_carlo": lambda query: _cached_improved_threshold(query),
}


def compute_threshold(query: ThresholdQuery, kind: str) -> ThresholdResult:
    """The ``kind`` critical value for ``query`` (kinds: see the module docstring)."""
    if kind not in _THRESHOLD_BY_KIND:
        raise ValueError(f"unknown threshold kind {kind!r}")
    return _THRESHOLD_BY_KIND[kind](query)


def _pair_limit(alpha: float) -> float:
    """``Phi^{-1}((1 + sqrt(1 - alpha)) / 2)``, the two-scale threshold of independent scales.

    It is taken as ``-Phi^{-1}(y / 2)`` with ``y = 1 - sqrt(1 - alpha)``
    from ``expm1``/``log1p``: rounding ``(1 + sqrt(1 - alpha)) / 2`` near 1
    would cost about ``eps / alpha`` relative (1.7e-6 at alpha = 1e-12).
    """
    return -_ndtri(-math.expm1(math.log1p(-alpha) / 2.0) / 2.0)


def two_scale_expansion(alpha: float, hurst: float, big_window: int) -> float:
    """Closed-form large-window expansion of the two-scale threshold.

    For the pair (scale 1, window ``L``) the threshold approaches
    ``C0 = Phi^{-1}((1 + sqrt(1-alpha))/2)`` as ``L`` grows, with leading
    correction ``phi(C0) C0^2 H^2 L^{2(H-1)} / (2 sqrt(1-alpha))``.
    """
    ThresholdQuery(alpha, 2, hurst, base=big_window)  # checks alpha, hurst and big_window
    root = np.sqrt(1.0 - alpha)
    c0 = _pair_limit(alpha)
    scale = c0**2 * hurst**2 * float(big_window) ** (2.0 * (hurst - 1.0)) / (2.0 * root)
    return float(c0 - math.exp(-c0 * c0 / 2.0) / _S2PI * scale)


def power_single_scale(threshold: float, shift: float) -> float:
    """Rejection probability of ``|N(shift, 1)| > threshold``.

    For a window of length ``L`` containing ``K`` shifted samples of size
    ``delta``, pass ``shift = K * delta / L**hurst``.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    upper, lower = _ndtr(np.array([threshold - shift, -threshold - shift])).tolist()
    return 1.0 - (upper - lower)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre nodes and weights, loaded on first use: no command needs them."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(64)


def _rectangle(c: float, means: tuple[float, float], rho: float) -> float:
    """``P(|X| <= c, |Y| <= c)`` for unit normals with ``means`` and correlation ``0 <= rho <= 1``.

    Each corner is ``P(X <= h, Y <= k) = Phi(min(h, k)) - (1/2pi) int_0^{acos rho} g r ds``, where
    ``g = exp(-d^2 / (2 s^2))``, ``d = |h - k|``, and ``r`` is smooth and even (Drezner & Wesolowsky
    1990; Genz 2004): ``r(0) g`` has a closed form, and the rest goes to Gauss-Legendre nodes graded
    as ``s^(1/4)`` to follow ``g``'s steep rise at 0 as ``rho`` nears 1.
    """
    h, k = np.array([c, -c, c, -c]) - means[0], np.array([c, c, -c, -c]) - means[1]
    corners = _ndtr(np.minimum(h, k))
    big_a = math.acos(rho)
    if big_a > 0.0:
        x, weights = _gauss_legendre()
        s = big_a * (1.0 + x) ** 4 / 16.0
        d, hk = np.abs(h - k)[:, None], (h * k)[:, None]
        r = np.exp(-d * d / 2.0 * (1.0 / np.sin(s) ** 2 - 1.0 / (s * s)) - hk / (1.0 + np.cos(s)))
        r0 = np.exp(-d * d / 6.0 - hk / 2.0)
        rest = (np.exp(-np.square(d / s) / 2.0) * (r - r0)) @ (weights * big_a / 4.0 * (1.0 + x) ** 3)
        closed = big_a * np.exp(-np.square(d / big_a) / 2.0) - d * _S2PI * _ndtr(-d / big_a)
        corners -= ((r0 * closed)[:, 0] + rest) / (2.0 * math.pi)
    return float(corners[0] - corners[1] - corners[2] + corners[3])


def _two_scale_threshold(alpha: float, rho: float) -> float:
    """The ``c`` with ``P(|X| <= c, |Y| <= c) = 1 - alpha``: bisection between the single-scale and
    the Bonferroni values, which bracket it, until the midpoint equals an end; returns the upper.

    The brackets come from the complement, ``-Phi^{-1}(alpha / 2)`` and ``-Phi^{-1}(alpha / 4)``,
    so no rounding of ``1 - alpha / 2`` moves them; the target ``1 - alpha`` still rounds (see
    ``_PAIR_ALPHA_MIN``)."""
    lo, hi = -_ndtri(alpha / 2.0), -_ndtri(alpha / 4.0)
    while lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (mid, hi) if _rectangle(mid, (0.0, 0.0), rho) < 1.0 - alpha else (lo, mid)
    return hi


def power_two_scale(alpha: float, delta: float, hurst: float, big_window: int, shifted_count: int) -> float:
    """Exact power of the two-scale max test under a level shift; no random number is drawn.

    The pair is (scale 1, backward window of length ``big_window``) with ``shifted_count`` of
    its samples shifted by ``delta``: means ``(delta, shifted_count * delta / big_window**hurst)``,
    correlation ``cross_scale_corr(hurst, big_window, 1)`` and the exact two-scale threshold.
    Both the threshold and the power are found through ``1 - alpha``, which resolves alpha to
    about 1e-16 / alpha relative, so an alpha below ``_PAIR_ALPHA_MIN`` (1e-12) raises
    :class:`ValueError`.
    """
    ThresholdQuery(alpha, 2, hurst, base=big_window)  # checks alpha, hurst and big_window
    if alpha < _PAIR_ALPHA_MIN:
        raise ValueError(f"power_two_scale needs alpha >= {_PAIR_ALPHA_MIN:g}, where 1 - alpha "
                         f"still resolves alpha, got {alpha}")
    if not 1 <= shifted_count <= big_window:
        raise ValueError("shifted_count must be in 1..big_window")
    rho = cross_scale_corr(hurst, big_window, 1)
    means = (delta, shifted_count * delta / float(big_window) ** hurst)
    return 1.0 - _rectangle(_two_scale_threshold(alpha, rho), means, rho)


def power_gap(alpha: float, delta: float) -> float:
    """Limit of ``2 * beta_pair - (beta_1 + beta_L)`` as the window grows.

    Positive values mean the two-scale max test beats the average of the two
    single-scale tests.  Exactly zero at ``alpha = 0``.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    c_single = -_ndtri(alpha / 2.0)
    root = np.sqrt(1.0 - alpha)
    c0 = _pair_limit(alpha)
    single_hi, single_lo, pair_hi, pair_lo = _ndtr(
        np.array([c_single - delta, -c_single - delta, c0 - delta, -c0 - delta])).tolist()
    return float((single_hi - single_lo) + (1.0 - alpha) - 2.0 * root * (pair_hi - pair_lo))

"""The writers' float formatter, ``repr_join``, against one ``repr`` per value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdshift.cli import _SLICE
from lrdshift.reprtext import _shortest_decimal, repr_join


def repr_oracle(values, sep: str, lead: bool) -> bytes:
    """The formatter's oracle: one ``repr`` per value, empty for NaN, ``sep`` before or after it."""
    texts = ["" if v != v else repr(v) for v in np.asarray(values, dtype=float).tolist()]
    return "".join(sep + text if lead else text + sep for text in texts).encode()


def sliced_repr_join(values) -> bytes:
    """``repr_join`` as the map writer calls it, ``_SLICE`` values at a time."""
    return b"".join(repr_join(values[lo:lo + _SLICE], b",", True)
                    for lo in range(0, len(values), _SLICE))


def sweep(kind: str, n: int = 2**20) -> np.ndarray:
    """``n`` seeded values of one class for the formatter sweeps."""
    rng = np.random.default_rng(list(SWEEPS).index(kind))
    if kind == "binades":  # every binade from 2^-110 < 1e-33 up to 2^57 > 1e17
        return np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-110, 58, n))
    if kind == "negatives":
        return -(10.0 ** rng.uniform(-33.0, 17.0, n))
    if kind == "integers":
        return np.round(10.0 ** rng.uniform(0.0, 17.0, n)) * rng.choice([-1.0, 1.0], n)
    if kind == "short-decimals":  # round(x, d) for d = 0..7
        return np.concatenate([np.round(rng.uniform(-1e3, 1e3, n // 8), d) for d in range(8)])
    from scipy.special import ndtr  # p-values of N(0, 1), N(0, 9) and N(0, 100) statistics

    return 2.0 * ndtr(-np.abs(rng.standard_normal(n) * rng.choice([1.0, 3.0, 10.0], n)))


SWEEPS = ("binades", "negatives", "integers", "short-decimals", "pvalues")
# Zeros, powers of two, the ends of the decided and the positional range
# and their neighbours, ties of 17 digits, NaN, and powers of ten from 1e-31
# to 1e17 with their neighbours.
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-13, 1e-4, -1e-4, 9.999999999999998e15, 1e16, 5e-324,
         np.nan, 1234567890123456.25, 1234567890123456.75, 0.1, 0.3, 1 / 3, 2.0**53, 2.0**53 + 2,
         float(2**53 - 1), 123.0, 1e15, 0.09999999999999999, 2.2250738585072014e-308]
EDGES += [np.nextafter(v, toward) for v in (1e-30, 1e-4, 1e16, 1e15, 0.1)
          for toward in (0.0, np.inf)]
# The 17-digit ties where the power of ten is inexact: m 2^-24 and m 2^-25.
EDGES += [m * 2.0**-(n + 1) for n in (23, 24) for m in range(1, 17, 2) if 2e16 <= m * 5**n < 2e17]
EDGES += [v for k in range(-31, 18) for v in (10.0**k, np.nextafter(10.0**k, 0.0),
                                               np.nextafter(10.0**k, np.inf))]




def near_ties(spread: int = 2048) -> np.ndarray:
    """Values a = M 2^E in [1e-30, 1e-6), where the power of ten is inexact,
    within j 2^-s (|j| < ``spread``) of a 17-digit tie: with e = floor(log10 a),
    V = a 10^(16-e) = M 5^(16-e) / 2^s has M 5^(16-e) = 2^(s-1) + j (mod 2^s).
    The formatter's residual of V is only known to about 3e-15, and some of
    these, such as 2.2422607587866907e-07 (j = 1, s = 52), it rounds onto the
    tie and then to the far 17-digit neighbour."""
    values = []
    for e in range(-30, -6):
        k = 16 - e
        for E in range(math.floor(e * math.log2(10)) - 53, math.ceil((e + 1) * math.log2(10)) - 52):
            s = -(E + k)
            inverse = pow(5**k, -1, 2**s)
            for j in range(1 - spread, spread):
                M = (2**(s - 1) + j) * inverse % 2**s
                M += 2**52 if s <= 52 else 0
                if 2**52 <= M < 2**53 and 10.0**e <= math.ldexp(M, E) < 10.0**(e + 1):
                    values.append(math.ldexp(M, E))
    return np.array(values)


class TestReprJoin:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_infinity=False), max_size=40), st.booleans())
    def test_equals_one_repr_per_value(self, values, lead):
        sep = "," if lead else "\n"
        assert repr_join(np.array(values, dtype=float), sep.encode(), lead) == \
            repr_oracle(values, sep, lead)

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_sweep_of_a_million_values(self, kind):
        values = sweep(kind)
        assert sliced_repr_join(values) == repr_oracle(values, ",", True)

    @pytest.mark.parametrize("lead", [True, False])
    def test_edges(self, lead):
        values = np.array(EDGES + [-v for v in EDGES])
        sep = "," if lead else "\n"
        assert repr_join(values, sep.encode(), lead) == repr_oracle(values, sep, lead)

    def test_near_ties_of_17_digits(self):
        values = near_ties()
        assert len(values) > 10_000
        assert repr_join(values, b",", True) == repr_oracle(values, ",", True)

    def test_powers_of_two(self):
        """Every power of two in and around the decided range, whose
        rounding interval is narrower below it than above."""
        values = np.ldexp(1.0, np.arange(-110, 60))
        values = np.concatenate([values, -values, np.nextafter(values, 0.0)])
        assert repr_join(values, b",", True) == repr_oracle(values, ",", True)

    def test_repeats_each_text(self):
        values = np.array([0.25, np.nan, 3e-5, 0.123])
        assert repr_join(values, b",", True, repeat=3) == b",0.25" * 3 + b"," * 3 + \
            b",3e-05" * 3 + b",0.123" * 3

    def test_decides_all_but_a_few_values_in_range(self):
        """The vectorized path, not ``repr``, formats the values it covers:
        of 2^16 p-values in [1e-30, 1), none but the ties, near-ties and
        powers of two (a share below 1e-4) is left to ``repr``."""
        values = sweep("pvalues", 2**16)
        values = values[values >= 1e-30]
        assert np.mean(~_shortest_decimal(values.copy())[2]) < 1e-4

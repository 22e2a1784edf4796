"""The writers' float formatter, ``repr_join``, against one ``repr`` per value."""

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
    if kind == "binades":  # every binade from 2^-20 < 1e-6 up to 2^57 > 1e17
        return np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-20, 58, n))
    if kind == "negatives":
        return -(10.0 ** rng.uniform(-6.0, 17.0, n))
    if kind == "integers":
        return np.round(10.0 ** rng.uniform(0.0, 17.0, n)) * rng.choice([-1.0, 1.0], n)
    if kind == "short-decimals":  # round(x, d) for d = 0..7
        return np.concatenate([np.round(rng.uniform(-1e3, 1e3, n // 8), d) for d in range(8)])
    from scipy.special import ndtr  # p-values of N(0, 1) and N(0, 9) statistics

    return 2.0 * ndtr(-np.abs(rng.standard_normal(n) * rng.choice([1.0, 3.0], n)))


SWEEPS = ("binades", "negatives", "integers", "short-decimals", "pvalues")
# Zeros, powers of two, the ends of the positional range and their
# neighbours, ties of 17 digits, NaN, and values next to powers of ten.
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-13, 1e-4, -1e-4, 9.999999999999998e15, 1e16, 5e-324,
         np.nan, 1234567890123456.25, 1234567890123456.75, 0.1, 0.3, 1 / 3, 2.0**53, 2.0**53 + 2,
         float(2**53 - 1), 123.0, 1e15, 0.09999999999999999, 2.2250738585072014e-308]
EDGES += [np.nextafter(v, toward) for v in (1e-4, 1e16, 1e15, 0.1) for toward in (0.0, np.inf)]
EDGES += [v for k in range(-5, 18) for v in (10.0**k, np.nextafter(10.0**k, 0.0),
                                               np.nextafter(10.0**k, np.inf))]


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

    def test_powers_of_two(self):
        """Every power of two in and around the positional range, whose
        rounding interval is narrower below it than above."""
        values = np.ldexp(1.0, np.arange(-20, 60))
        values = np.concatenate([values, -values, np.nextafter(values, 0.0)])
        assert repr_join(values, b",", True) == repr_oracle(values, ",", True)

    def test_repeats_each_text(self):
        values = np.array([0.25, np.nan, 3e-5, 0.123])
        assert repr_join(values, b",", True, repeat=3) == b",0.25" * 3 + b"," * 3 + \
            b",3e-05" * 3 + b",0.123" * 3

    def test_decides_all_but_a_few_values_in_range(self):
        """The vectorized path, not ``repr``, formats the values it covers:
        of 2^16 p-values in [1e-4, 1), none but the ties and near-ties (a
        share below 1e-4) is left to ``repr``."""
        values = sweep("pvalues", 2**16)
        values = values[values >= 1e-4]
        assert np.mean(~_shortest_decimal(values.copy())[2]) < 1e-4

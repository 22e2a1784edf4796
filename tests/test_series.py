"""A series is a plain 1-D float array, checked on every call that takes one.

The check lives in ``pyramid``, which imports nothing from the package, so
every module can import it at its top.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lrdshift import (
    DetectionConfig,
    InjectionSpec,
    LrdModel,
    ScaleConfig,
    build_nowa,
    build_swa,
    detect,
    estimate_hurst,
    inject,
    naive_baseline,
    standardize,
    synthesize_fgn,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lrdshift"
CONFIG = ScaleConfig(base=2, num_scales=8, hurst=0.9)
SPEC = InjectionSpec(delta=3.0, start=1000, duration=500)

# Every public function that takes a series, called with one.
CONSUMERS = {
    "detect": lambda series: detect(series, DetectionConfig(CONFIG, 3.0, "nowa")),
    "build_nowa": lambda series: build_nowa(series, CONFIG),
    "build_swa": lambda series: build_swa(series, CONFIG),
    "standardize": standardize,
    "inject": lambda series: inject(series, SPEC),
    "naive_baseline": lambda series: naive_baseline(series, 0.05),
    "estimate_hurst": estimate_hurst,
}

# A fresh series from each function that returns one.
PRODUCERS = {
    "synthesize_fgn": lambda: synthesize_fgn(LrdModel(0.9), 4096, seed=24),
    "standardize": lambda: standardize(synthesize_fgn(LrdModel(0.9), 4096, seed=24))[0],
    "inject": lambda: inject(synthesize_fgn(LrdModel(0.9), 4096, seed=24), SPEC)[0],
}


@pytest.mark.parametrize("consumer", sorted(set(CONSUMERS) - {"build_nowa"}))
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_a_series_written_to_after_it_was_made_is_checked_again(producer, consumer):
    """A returned series is a plain array: NaNs written into it afterwards
    are refused by the next call, never carried into a weaker detection."""
    series = PRODUCERS[producer]()
    assert type(series) is np.ndarray and series.dtype == float and series.ndim == 1
    series[100:400] = np.nan
    with pytest.raises(ValueError, match="values must be finite"):
        CONSUMERS[consumer](series)


def _with_one(value):
    series = np.zeros(4096)
    series[17] = value
    return series


BAD = {
    "2-D": (np.zeros((4096, 2)), "values must be one-dimensional"),
    "nan": (_with_one(np.nan), "values must be finite"),
    "+inf": (_with_one(np.inf), "values must be finite"),
    "-inf": (_with_one(-np.inf), "values must be finite"),
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_every_function_taking_a_series_refuses_a_bad_one(consumer, bad):
    series, message = BAD[bad]
    with pytest.raises(ValueError, match=message):
        CONSUMERS[consumer](series)


def _relative_imports(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.ImportFrom) and n.level > 0]


def test_relative_imports_sit_at_module_level_and_pyramid_has_none():
    """No package import hides in a function body to break a cycle, and the
    module with the series check imports nothing from the package."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in sources} >= {"fgn.py", "pyramid.py"}
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        functions = [n for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        assert not [n.lineno for f in functions for n in _relative_imports(f)], path.name
        if path.name == "pyramid.py":
            assert not _relative_imports(tree)

"""Output checks against oracles that share no code with ``lrdshift``.

Scales are recomputed directly: ``nowa`` by reshape-sums over blocks and
``swa`` by differences of one cumulative sum, where the program chains each
level from the one below.  The two routes round differently, so a position
whose statistic lies within ``TIE_RTOL`` of the threshold may legitimately
be flagged by one and not the other; such positions are excused and counted.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.special import erfc

HURST = 0.9
SCALES = 15
BASE = 2
TIE_RTOL = 1e-9
VALUE_RTOL = 1e-8
# `lrdshift threshold --hurst 0.9` (m = 15, alpha = 0.05, 10^6 replicates,
# seed 0) prints 2.6189898164699184 with a standard error of 0.0016.  A
# reported Monte-Carlo threshold must lie within THRESHOLD_TOL of it.
REFERENCE_THRESHOLD = 2.6189898164699184
THRESHOLD_TOL = 0.02


class CheckFailed(Exception):
    """An output did not match its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def scale_values(x: np.ndarray, method: str):
    """Yield ``(k, window, first, y)``: scale k's normalized values, covering
    1-based positions ``first .. first + len(y) - 1`` (nowa: repeated per block)."""
    n = len(x)
    cumulative = np.concatenate([[0.0], np.cumsum(x)]) if method == "swa" else None
    for k in range(1, SCALES + 1):
        window = BASE ** (k - 1)
        if k == 1:
            y = x
        elif method == "nowa":
            blocks = n // window
            y = np.repeat(x[: blocks * window].reshape(blocks, window).sum(axis=1), window)
        else:
            y = cumulative[window:] - cumulative[:-window]
        first = 1 if method == "nowa" else window
        yield k, window, first, y / float(window) ** HURST


def max_statistic(x: np.ndarray, method: str) -> np.ndarray:
    """Max over available scales of |Y_k| at every position."""
    statistic = np.abs(x).astype(float)
    for _, _, first, y in scale_values(x, method):
        view = statistic[first - 1 : first - 1 + len(y)]
        np.maximum(view, np.abs(y), out=view)
    return statistic


def compare_flags(statistic: np.ndarray, threshold: float, flagged) -> dict:
    """Require the program's 1-based flags to equal ``statistic > threshold``
    outside near-ties; return the counts."""
    program = np.zeros(len(statistic), dtype=bool)
    flagged = np.asarray(flagged, dtype=np.int64)
    require(flagged.size == 0 or (flagged.min() >= 1 and flagged.max() <= len(statistic)),
            "flag index outside 1..n")
    program[flagged - 1] = True
    expected = statistic > threshold
    near_tie = np.abs(statistic - threshold) <= TIE_RTOL * threshold
    mismatched = int(np.count_nonzero((program != expected) & ~near_tie))
    require(mismatched == 0, f"{mismatched} flags differ from the oracle away from the threshold")
    return {"flags": int(flagged.size), "oracle_flags": int(np.count_nonzero(expected)),
            "near_ties": int(np.count_nonzero(near_tie))}


def runs(flags) -> list[tuple[int, int]]:
    """Half-open ``[start, end)`` runs of consecutive 1-based flags."""
    out: list[tuple[int, int]] = []
    for f in flags:
        if out and out[-1][1] == f:
            out[-1] = (out[-1][0], f + 1)
        else:
            out.append((f, f + 1))
    return out


def check_flags_json(path: str, x: np.ndarray, method: str, shift: tuple[int, int]) -> dict:
    """``detect`` flags and intervals against the oracle; the shift must be found."""
    with open(path) as fh:
        payload = json.load(fh)
    threshold = payload["threshold"]
    require(abs(threshold - REFERENCE_THRESHOLD) <= THRESHOLD_TOL,
            f"threshold {threshold} is far from the reference {REFERENCE_THRESHOLD}")
    flags = payload["flagged_indices"]
    detail = compare_flags(max_statistic(x, method), threshold, flags)
    intervals = [(iv["start"], iv["end"]) for iv in payload["intervals"]]
    if detail["near_ties"] == 0:
        require(intervals == runs(flags), "intervals are not the runs of the flags")
    start, end = shift
    require(any(s <= end and e - 1 >= start for s, e in intervals),
            f"no flagged interval overlaps the injected shift [{start}, {end}]")
    detail["intervals"] = len(intervals)
    return detail


def check_map(path: str, x: np.ndarray, read_pvalue_csv) -> dict:
    """The swa p-value map against ``2 Phi(-|y|) = erfc(|y| / sqrt 2)``."""
    pvalues, labels = read_pvalue_csv(path)
    n = len(x)
    require(pvalues.shape == (SCALES, n), f"map shape {pvalues.shape}, expected {(SCALES, n)}")
    require(np.array_equal(labels, np.arange(1, n + 1)), "map time labels are not 1..n")
    worst = 0.0
    for k, window, first, y in scale_values(x, "swa"):
        row = pvalues[k - 1]
        require(bool(np.isnan(row[: first - 1]).all()), f"scale {k}: a warm-up cell is not empty")
        cells = row[first - 1 :]
        require(not np.isnan(cells).any(), f"scale {k}: a valid cell is empty")
        expected = erfc(np.abs(y) / math.sqrt(2.0))
        error = float(np.max(np.abs(cells - expected) / expected))
        require(error <= VALUE_RTOL, f"scale {k}: p-value relative error {error:.3e}")
        worst = max(worst, error)
    return {"map_cells": int(np.count_nonzero(~np.isnan(pvalues))), "map_max_rel_error": worst}


def check_stream(path: str, x: np.ndarray, threshold: float) -> dict:
    """Stream flags equal the batch swa flags at the same threshold, and each
    reported statistic is attained at its reported scale."""
    index, value, scale = [], [], []
    with open(path) as fh:
        for line in fh:
            i, v, k = line.split(",")
            index.append(int(i))
            value.append(float(v))
            scale.append(int(k))
    detail = compare_flags(max_statistic(x, "swa"), threshold, index)
    at_scale = {k: (first, y) for k, _, first, y in scale_values(x, "swa")}
    for i, v, k in zip(index, value, scale):
        first, y = at_scale[k]
        require(i >= first, f"index {i}: scale {k} has no value there")
        attained = abs(y[i - first])
        require(abs(attained - v) <= VALUE_RTOL * v, f"index {i}: statistic {v} != |Y_{k}| {attained}")
    return detail


def check_eval(prefix: str, sets: int) -> dict:
    """``eval`` CSV has sets x 2 rows of rates in [0, 1] or empty; the JSON parses."""
    with open(prefix + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["set_id", "detector", "tdr", "fdr", "fnr"], f"CSV header {rows[0]}")
    body = rows[1:]
    require(len(body) == 2 * sets, f"{len(body)} CSV rows, expected {2 * sets}")
    keys = sorted((int(r[0]), r[1]) for r in body)
    require(keys == sorted((s, d) for s in range(1, sets + 1) for d in ("multiscale", "naive")),
            "CSV rows are not one per set and detector")
    for row in body:
        for cell in row[2:]:
            require(cell == "" or 0.0 <= float(cell) <= 1.0, f"rate {cell!r} outside [0, 1]")
    with open(prefix + ".json") as fh:
        summary = json.load(fh)
    require(abs(summary["threshold"] - REFERENCE_THRESHOLD) <= THRESHOLD_TOL,
            f"threshold {summary['threshold']} is far from the reference")
    require(sorted(summary["detectors"]) == ["multiscale", "naive"], "JSON detectors")
    return {"rows": len(body)}

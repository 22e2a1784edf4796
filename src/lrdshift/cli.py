"""Command-line front end.

Subcommands wire the library end to end: ``synth`` (sample a background
trace), ``detect`` (batch multiscale test over a file), ``map`` (SVG export
of a p-value map window), ``threshold`` (print a calibrated critical
value), ``eval`` (simulation study), ``stream`` (line-by-line detection on
stdin).

Exit codes: 0 success, 2 usage or input-validation error, 1 runtime error
(I/O and similar).  Diagnostics go to stderr; data goes to stdout or the
requested files only.  All randomness is seed-driven and reruns with the
same flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from .detect import DetectionConfig, detect, flags_to_intervals, pvalue_map, standardize
from .evaluate import ExperimentConfig, InjectionSpec, run_experiment
from .fgn import LrdModel, estimate_hurst, synthesize_fgn
from .pyramid import ScaleConfig, StreamState
from .svgmap import render_pvalue_map_svg
from .thresholds import ThresholdQuery, ThresholdResult, compute_threshold

__all__ = ["main"]

# The flag spelling of each threshold kind.  ``single`` is not a family-wise
# threshold for the max over scales, so only ``threshold`` offers it.
_KIND_BY_FLAG = {"improved": "monte_carlo", "asymptotic": "asymptotic", "single": "single_scale"}


def read_series(path, column: int | None = None) -> np.ndarray:
    """Parse a series file: one value per line, or a CSV column.

    A non-numeric or short first row is treated as a header and skipped.
    With ``column`` (1-based), each line is split on commas and that field
    is used; other fields (e.g. timestamps) are ignored.  A malformed or
    non-finite value is an error naming its line.

    A seekable file is parsed in C by ``np.loadtxt`` first.  Its result is
    used only when it is non-empty and all finite; otherwise, when loadtxt
    rejects the text, or for a pipe, the file is parsed line by line with
    ``float()``.  That per-line parser decides which text is accepted
    (``float()`` also takes ``1_000`` and whitespace-only lines are
    skipped) and words every error, so both paths return the same array
    or raise the same message.
    """
    if column is not None and column < 1:
        raise ValueError("--column is 1-based and must be >= 1")
    with open(path) as fh:
        if fh.seekable():  # a pipe could not be read a second time
            series = _load_series(fh, column)
            if series is not None:
                return series
            fh.seek(0)
        return _parse_lines(fh, path, column)


def _field_value(line: str, column: int | None) -> float:
    """``float`` of the value field of a stripped, non-empty line."""
    return float(line.split(",")[column - 1] if column is not None else line)


def _is_header(line: str, column: int | None) -> bool:
    """Whether the per-line parser skips this stripped line 1 as a header."""
    try:
        _field_value(line, column)
    except (ValueError, IndexError):
        return bool(line)  # an empty line is skipped as blank instead
    return False


def _load_series(fh, column: int | None) -> np.ndarray | None:
    """The values of a seekable text file as ``np.loadtxt`` parses them.

    Returns None unless loadtxt parses the file into one non-empty, all
    finite column of values.
    """
    try:
        header = _is_header(fh.readline().strip(), column)
        fh.seek(0)
        options = {"delimiter": ",", "comments": None, "skiprows": int(header)}
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            if column is not None:
                series = np.loadtxt(fh, usecols=column - 1, ndmin=1, **options)
            else:
                table = np.loadtxt(fh, ndmin=2, **options)
                if table.shape[1] != 1:
                    return None  # a row like ``3,4`` is not one value
                series = table[:, 0]
    except ValueError:  # UnicodeDecodeError included
        return None
    return series if len(series) and np.isfinite(series).all() else None


def _parse_lines(fh, path, column: int | None) -> np.ndarray:
    """The per-line parser behind :func:`read_series`, one ``float()`` per line of ``fh``."""
    values: list[float] = []
    skipped: list[int] = []  # lines holding no value, to name a bad value's line
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            skipped.append(lineno)
            continue
        try:
            values.append(_field_value(line, column))
        except (ValueError, IndexError):
            if lineno == 1:
                skipped.append(lineno)
                continue  # header row
            raise ValueError(f"{path}: line {lineno}: cannot parse {line!r} as a number")
    if not values:
        raise ValueError(f"{path}: no numeric data found")
    series = np.array(values)
    finite = np.isfinite(series)
    if not finite.all():
        bad = int(np.argmin(finite))
        lineno = bad + 1
        for skipped_line in skipped:  # ascending
            if skipped_line > lineno:
                break
            lineno += 1
        raise ValueError(f"{path}: line {lineno}: non-finite value {float(series[bad])!r}")
    return series


def write_series(path, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        for v in values:
            fh.write(repr(float(v)) + "\n")


def write_pvalue_csv(path, pvalues: np.ndarray) -> None:
    """Map CSV: first column is the scale index, then one column per position.

    A cell holds ``repr`` of its p-value, or nothing where the cell is absent
    (NaN).  Rows are converted one at a time to bound the memory.
    """
    num_scales, n = pvalues.shape
    with open(path, "w") as fh:
        fh.write("scale," + ",".join(map(str, range(1, n + 1))) + "\n")
        for k in range(1, num_scales + 1):
            # repr of a float contains "nan" only when it is NaN.
            cells = ",".join(map(repr, pvalues[k - 1].tolist())).replace("nan", "")
            fh.write(f"{k},{cells}\n")


def read_pvalue_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pvalues matrix, 1-based time labels)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "scale":
            raise ValueError(f"{path}: not a p-value map CSV (missing 'scale' header)")
        labels = np.array([int(t) for t in header[1:]])
        rows = []
        for lineno, raw in enumerate(fh, start=2):
            fields = raw.rstrip("\n").split(",")
            if len(fields) != len(labels) + 1:
                raise ValueError(f"{path}: line {lineno}: expected {len(labels) + 1} fields")
            rows.append([np.nan if f == "" else float(f) for f in fields[1:]])
    if not rows:
        raise ValueError(f"{path}: no map rows found")
    return np.array(rows), labels


def _check_usage(args) -> None:
    """Reject ``--mean``/``--std``/``--threshold-value`` that would switch detection off."""
    if (args.mean is None) != (args.std is None):
        raise ValueError("--mean and --std must be given together")
    if args.mean is not None and not math.isfinite(args.mean):
        raise ValueError("--mean must be finite")
    if args.std is not None and not (math.isfinite(args.std) and args.std > 0):
        raise ValueError("--std must be positive and finite")
    value = args.threshold_value
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError("--threshold-value must be positive and finite")


def _detection_threshold(args) -> ThresholdResult:
    """``--threshold-value`` as given, else the threshold the flags calibrate."""
    if args.threshold_value is not None:
        return ThresholdResult(value=args.threshold_value, kind="given")
    return _threshold_from_args(args)


def _threshold_from_args(args) -> ThresholdResult:
    query = ThresholdQuery(alpha=args.alpha, num_scales=args.scales, hurst=args.hurst,
                           base=args.base, mc_reps=args.mc_reps, seed=args.seed)
    return compute_threshold(query, _KIND_BY_FLAG[args.threshold])


def cmd_synth(args) -> int:
    model = LrdModel(hurst=args.hurst, sigma=args.sigma)
    series = synthesize_fgn(model, args.n, args.seed)
    write_series(args.out, series.values)
    return 0


def cmd_detect(args) -> int:
    _check_usage(args)
    values = read_series(args.input, args.column)
    if args.estimate_hurst:
        estimate = estimate_hurst(values)
        print(repr(estimate))
        if args.hurst is None:
            print(
                "rerun with an explicit --hurst value (e.g. the estimate above) "
                "to run detection",
                file=sys.stderr,
            )
            return 0
    if args.hurst is None:
        raise ValueError("--hurst is required (or use --estimate-hurst first)")
    scale_config = ScaleConfig(base=args.base, num_scales=args.scales, hurst=args.hurst)
    if len(values) < scale_config.max_window:
        raise ValueError(
            f"series has {len(values)} samples but the largest window is "
            f"{scale_config.max_window}; reduce --scales or --base"
        )
    threshold = _detection_threshold(args)
    if args.mean is not None or args.standardize == "sample":
        # Rebinding frees the raw values before the pyramid is built.
        values = standardize(values, args.mean, args.std)[0].values
    result = detect(values, DetectionConfig(scale_config, threshold.value, args.method))
    intervals = flags_to_intervals(result, args.gap_tolerance)
    payload = {
        "alpha": args.alpha,
        "base": args.base,
        "flagged_indices": result.flags.tolist(),
        "hurst": args.hurst,
        "intervals": [
            {"start": iv.start, "end": iv.end, "peak_scale": iv.peak_scale} for iv in intervals
        ],
        "method": args.method,
        "scales": args.scales,
        "seed": args.seed,
        "threshold": threshold.value,
        "threshold_kind": threshold.kind,
        "threshold_se": threshold.mc_standard_error,
    }
    with open(args.out_flags, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.out_map:
        write_pvalue_csv(args.out_map, pvalue_map(result.pyramid))
    return 0


def cmd_map(args) -> int:
    pvalues, labels = read_pvalue_csv(args.in_map)
    n = pvalues.shape[1]
    stop = n if args.to is None else args.to
    svg = render_pvalue_map_svg(pvalues, args.from_, stop, time_labels=labels)
    with open(args.out_svg, "w") as fh:
        fh.write(svg)
    return 0


def cmd_threshold(args) -> int:
    result = _threshold_from_args(args)
    print(
        json.dumps(
            {"value": result.value, "kind": result.kind, "se": result.mc_standard_error},
            sort_keys=True,
        )
    )
    return 0


def cmd_eval(args) -> int:
    if args.start is not None:
        start_kwargs = {"start": args.start}
    else:
        start_kwargs = {"start_range": args.start_range}
    if args.duration is not None:
        duration_kwargs = {"duration": args.duration}
    else:
        duration_kwargs = {"duration_mean": args.duration_mean}
    injection = InjectionSpec(delta=args.delta, **start_kwargs, **duration_kwargs)
    config = ExperimentConfig(
        sets=args.sets,
        sims_per_set=args.sims,
        n=args.n,
        hurst=args.hurst,
        injection=injection,
        alpha=args.alpha,
        num_scales=args.scales,
        base=args.base,
        method=args.method,
        mc_reps=args.mc_reps,
        seed=args.seed,
    )
    result = run_experiment(config)
    result.to_csv(args.out + ".csv")
    result.to_json(args.out + ".json")
    return 0


def cmd_stream(args) -> int:
    scale_config = ScaleConfig(base=args.base, num_scales=args.scales, hurst=args.hurst)
    _check_usage(args)
    critical = _detection_threshold(args).value
    state = StreamState(scale_config)
    index = 0
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            print(f"warning: line {lineno}: empty line skipped", file=sys.stderr)
            continue
        try:
            sample = float(line)
        except ValueError:
            print(f"warning: line {lineno}: cannot parse {line!r}, skipped", file=sys.stderr)
            continue
        if not math.isfinite(sample):
            print(f"warning: line {lineno}: non-finite value {line!r}, skipped", file=sys.stderr)
            continue
        if args.mean is not None:
            sample = (sample - args.mean) / args.std
        statistic, argmax_scale = state.push(sample)
        index += 1
        if statistic > critical:
            if args.format == "jsonl":
                print(
                    json.dumps(
                        {"index": index, "statistic": statistic, "argmax_scale": argmax_scale},
                        sort_keys=True,
                    ),
                    flush=True,
                )
            else:
                print(f"{index},{statistic!r},{argmax_scale}", flush=True)
    return 0


def _add_kind_flag(parser, name: str, flags: list[str]) -> None:
    parser.add_argument(name, choices=flags, default="improved", dest="threshold",
                        help="threshold kind (default: %(default)s)")


def _add_calibration_flags(parser) -> None:
    parser.add_argument("--alpha", type=float, default=0.05, help="family-wise level")
    parser.add_argument("--mc-reps", type=int, default=10**6, dest="mc_reps",
                        help="Monte-Carlo replicates for the improved threshold")
    parser.add_argument("--seed", type=int, default=0)


def _add_threshold_flags(parser) -> None:
    _add_kind_flag(parser, "--threshold", [flag for flag in _KIND_BY_FLAG if flag != "single"])
    _add_calibration_flags(parser)
    parser.add_argument("--threshold-value", type=float, default=None, dest="threshold_value",
                        help="use this critical value instead of computing one")


def _add_scale_flags(parser) -> None:
    parser.add_argument("--scales", type=int, default=15, help="number of scales")
    parser.add_argument("--base", type=int, default=2, help="aggregation base")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrdshift",
        description="Multiscale level-shift anomaly detection for long-range-dependent series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample a background trace to a file")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="batch detection over a series file")
    p.add_argument("--in", dest="input", required=True, help="series file, one value per line")
    p.add_argument("--column", type=int, default=None,
                   help="1-based CSV column holding the values (other columns ignored)")
    p.add_argument("--hurst", type=float, default=None)
    p.add_argument("--estimate-hurst", action="store_true", dest="estimate_hurst",
                   help="print the aggregated-variance Hurst estimate; detection still "
                        "requires an explicit --hurst")
    _add_scale_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--method", choices=["nowa", "swa"], default="nowa")
    p.add_argument("--standardize", choices=["none", "sample"], default="none")
    p.add_argument("--mean", type=float, default=None, help="pre-known mean (with --std)")
    p.add_argument("--std", type=float, default=None, help="pre-known std (with --mean)")
    p.add_argument("--gap-tolerance", type=int, default=0, dest="gap_tolerance")
    p.add_argument("--out-flags", required=True, dest="out_flags")
    p.add_argument("--out-map", default=None, dest="out_map")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("map", help="render a window of a p-value map CSV to SVG")
    p.add_argument("--in-map", required=True, dest="in_map")
    p.add_argument("--from", type=int, default=0, dest="from_",
                   help="first column offset (0-based, default 0)")
    p.add_argument("--to", type=int, default=None,
                   help="one past the last column offset (default: end)")
    p.add_argument("--out-svg", required=True, dest="out_svg")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("threshold", help="print a calibrated critical value as JSON")
    p.add_argument("--hurst", type=float, default=0.9)
    _add_scale_flags(p)
    _add_kind_flag(p, "--kind", list(_KIND_BY_FLAG))
    _add_calibration_flags(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("eval", help="simulation study: synthesize, inject, detect, score")
    p.add_argument("--sets", type=int, default=10)
    p.add_argument("--sims", type=int, default=100)
    p.add_argument("--n", type=int, default=2**15)
    p.add_argument("--hurst", type=float, default=0.9)
    _add_scale_flags(p)
    _add_calibration_flags(p)
    p.add_argument("--method", choices=["nowa", "swa"], default="swa")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--start", type=int, default=None, help="fixed 1-based shift start")
    p.add_argument("--start-range", type=int, default=2**14, dest="start_range",
                   help="uniform start range (used unless --start is given)")
    p.add_argument("--duration", type=int, default=None, help="fixed shift duration")
    p.add_argument("--duration-mean", type=float, default=4000.0, dest="duration_mean",
                   help="exponential duration mean (used unless --duration is given)")
    p.add_argument("--out", required=True, help="output prefix; writes <out>.csv and <out>.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stream", help="line-by-line detection on stdin")
    p.add_argument("--hurst", type=float, required=True)
    _add_scale_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--mean", type=float, default=None)
    p.add_argument("--std", type=float, default=None)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(func=cmd_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands wire the library end to end: ``synth`` (sample a background
trace), ``detect`` (batch multiscale test over a file), ``map`` (SVG export
of a p-value map window), ``threshold`` (print a calibrated critical
value), ``eval`` (simulation study), ``stream`` (online detection on the
lines of stdin).

Exit codes: 0 success, 2 usage or input-validation error, 1 runtime error
(I/O and similar).  Diagnostics go to stderr; data goes to stdout or the
requested files only.  All randomness is seed-driven and reruns with the
same flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import json
import math
import os
import sys
import urllib.parse
import warnings

import numpy as np

from .detect import (
    DetectionConfig, detect, flags_to_intervals, level_rows, standardize, two_sided_pvalues,
)
from .evaluate import ExperimentConfig, InjectionSpec, run_experiment
from .fgn import LrdModel, estimate_hurst, synthesize_fgn
from .pyramid import ScaleConfig, StreamState
from .reprtext import repr_join
from .svgmap import render_pvalue_map_svg
from .thresholds import ThresholdQuery, ThresholdResult, compute_threshold
from .workers import ahead, in_turns

__all__ = ["main"]

# The flag spelling of each threshold kind.  ``single`` is not a family-wise
# threshold for the max over scales, so only ``threshold`` offers it.
_KIND_BY_FLAG = {"improved": "monte_carlo", "asymptotic": "asymptotic", "single": "single_scale"}

_SLICE = 1 << 12  # values the writers format at a time
_STREAM_READ = 1 << 14  # most bytes ``stream`` takes from stdin at a time
_COMPRESSED_SUFFIXES = frozenset({".bz2", ".gz", ".lzma", ".xz"})  # numpy decompresses these
# One interval of flags.json as ``json.dumps(indent=2, sort_keys=True)`` writes it.
_INTERVAL = ('{{\n      "end": {end},\n      "peak_scale": {peak_scale},\n'
             '      "start": {start}\n    }}')


def read_series(path, column: int | None = None) -> np.ndarray:
    """Parse a series file: one value per line, or a CSV column.

    A non-numeric or short first row is treated as a header and skipped.
    With ``column`` (1-based), each line is split on commas and that field
    is used; other fields (e.g. timestamps) are ignored.  A malformed or
    non-finite value is an error naming its line.

    A seekable file is parsed in C by one ``np.loadtxt`` call first.
    loadtxt is given the file's name, not the open file, because only a
    name gets numpy's chunked C reader; a file object is read one Python
    ``str`` per line.  numpy opens some names otherwise (it decompresses
    names ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` and fetches
    ``scheme://host/...`` names as URLs), so a file with such a name skips
    loadtxt and is read as the plain text it is.  loadtxt's result is used
    only when it is non-empty and all finite; otherwise, when loadtxt
    rejects the text (a whitespace-only line included) or cannot open the
    name again, when the name is skipped, or for a pipe, the file is parsed
    line by line with ``float()``.  That per-line parser decides which text
    is accepted (``float()`` also takes ``1_000`` and whitespace-only lines
    are skipped) and words every error, so both paths return the same array
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


def _opens_as_plain_file(name) -> bool:
    """Whether numpy's loaders open ``name`` as the plain local file it names.

    numpy (``np.lib._datasource.open``) decompresses a name whose suffix
    is one of ``_COMPRESSED_SUFFIXES`` and treats a name with both a
    scheme and a host (``http://x/series.txt``) as a URL to fetch, even
    when a local file of that name exists.
    """
    if not isinstance(name, str) or os.path.splitext(name)[1] in _COMPRESSED_SUFFIXES:
        return False
    scheme, netloc = urllib.parse.urlparse(name)[:2]
    return not (scheme and netloc)


def _load_series(fh, column: int | None) -> np.ndarray | None:
    """The values of a seekable text file as ``np.loadtxt`` parses them.

    Returns None unless loadtxt parses the file into one non-empty, all
    finite column of values, and None for a file whose name numpy would
    not open as plain text (see :func:`_opens_as_plain_file`) or cannot
    open again.  loadtxt gets the name ``fh.name`` and ``fh``'s encoding,
    so numpy opens the file again and parses it in chunks in C, once.  It
    rejects a whitespace-only line, which the per-line parser skips as
    blank, so such a file is left to that parser.
    """
    options = {"delimiter": ",", "comments": None, "ndmin": 2,
               "usecols": None if column is None else column - 1}
    try:
        if not _opens_as_plain_file(fh.name):
            return None
        options["skiprows"] = int(_is_header(fh.readline().strip(), column))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh.name, encoding=fh.encoding, **options)
    except (ValueError, OSError):  # UnicodeDecodeError included; OSError: numpy could not reopen
        return None
    if table.shape[1] != 1:
        return None  # without a column, a row like ``3,4`` is not one value
    series = table[:, 0]
    return series if len(series) and np.isfinite(series).all() else None


def _parse_lines(fh, path, column: int | None) -> np.ndarray:
    """The per-line parser behind :func:`read_series`, one ``float()`` per line of ``fh``."""
    values: list[float] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or (lineno == 1 and _is_header(line, column)):
            continue
        try:
            value = _field_value(line, column)
        except (ValueError, IndexError):
            raise ValueError(f"{path}: line {lineno}: cannot parse {line!r} as a number")
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite value {value!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no numeric data found")
    return np.array(values)


def write_series(path, values: np.ndarray) -> None:
    """One ``repr`` of a float per line, formatted ``_SLICE`` values at a time."""
    with open(path, "wb") as fh:
        _write_slices(fh, (values[lo:lo + _SLICE] for lo in range(0, len(values), _SLICE)),
                      _series_lines)


def write_pvalue_csv(path, rows) -> None:
    """Map CSV: first column is the scale index, then one column per position.

    ``rows`` holds one ``(lead, repeat, level)`` triple per scale, scale 1
    first, as :func:`~lrdshift.detect.level_rows` yields them: the p-value
    of ``level[j]`` (:func:`~lrdshift.detect.two_sided_pvalues`) fills the
    cells ``lead + j*repeat .. lead + (j+1)*repeat - 1`` (0-based) and the
    row's other cells are absent.  The first row covers every position, so
    it gives n; a dense row is ``(0, 1, level)``.  A cell holds ``repr`` of
    its p-value, or nothing where it is absent (NaN), as
    :func:`~lrdshift.reprtext.repr_join` writes it.  Each p-value is
    formatted once and its text repeated over its cells.

    :func:`_write_slices` writes the map in pieces of about ``_SLICE``
    cells, in turns through :func:`~lrdshift.workers.in_turns`: on a host
    with two or more usable CPUs, this process computes the p-values of the
    even pieces of the map (counted over all rows, scale 1 first) and
    formats them, one forked worker does the same for the odd ones, and
    this process writes every piece in order, so the bytes are those of one
    process.  A piece holds a slice of a level, so each process computes
    only the p-values it formats, and holds one slice's p-values and text
    at a time.  Both processes iterate ``rows`` from where this one left
    it, so an iterator must compute the rows, not read them from a shared
    file.  For an M = 15, n = 2^16 ``swa`` map on 2 vCPUs the writer took
    0.15 s against 0.24 s in one process (medians of 10 alternating runs),
    and the worker about 0.13 s of CPU.  Its memory is this process's pages,
    copy-on-write.
    """
    with open(path, "wb") as fh:
        _write_slices(fh, _map_pieces(rows), _map_cells)


def _map_pieces(rows):
    """The map CSV as :func:`_write_slices` pieces.

    The header comes first.  Each row is its scale index and ``lead``
    blank cells, then ``(statistics, repeat)`` pieces of about ``_SLICE``
    cells in whole entries, then its trailing blank cells and a newline.
    """
    for k, (lead, repeat, level) in enumerate(rows, start=1):
        if k == 1:
            yield "scale"
            n = lead + len(level) * repeat
            for lo in range(1, n + 1, _SLICE):
                yield "," + ",".join(map(str, range(lo, min(lo + _SLICE, n + 1))))
            yield "\n"
        yield str(k) + "," * lead
        step = max(_SLICE // repeat, 1)
        for lo in range(0, len(level), step):
            yield level[lo:lo + step], repeat
        yield "," * (n - lead - len(level) * repeat) + "\n"


def _series_lines(values: np.ndarray) -> bytes:
    """The ``repr`` of each (finite) value, one per line."""
    return repr_join(values, b"\n", lead=False)


def _map_cells(piece) -> bytes:
    """For ``(statistics, repeat)``: a comma and the repr of each p-value,
    ``repeat`` times; nothing for NaN."""
    statistics, repeat = piece
    return repr_join(two_sided_pvalues(statistics), b",", lead=True, repeat=repeat)


def _write_slices(fh, pieces, text) -> None:
    """Write ``pieces`` in order to the binary file ``fh``.

    A ``str`` piece is written as ASCII and an array piece as the bytes
    ``text(piece)``.  The pieces are formatted in turns by
    :func:`~lrdshift.workers.in_turns` (this process and, on a host with two
    or more usable CPUs, one forked worker), and this process writes every
    piece, so the bytes do not depend on who formatted them.
    """
    fh.flush()  # leave nothing buffered for the forked worker to inherit
    in_turns(pieces, lambda piece: piece.encode() if isinstance(piece, str) else text(piece),
             fh.write)


def read_pvalue_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pvalues matrix, 1-based time labels); an empty cell is NaN.

    The labels must be ``1..n`` and every other cell a p-value in [0, 1]
    (``nan`` and ``inf`` text included are refused).  A label or cell that
    does not parse, or breaks those rules, is an error naming its file,
    line and field.
    """
    with open(path) as fh:
        labels = _map_labels(path, fh)
        return _map_window(path, fh, len(labels), 0, len(labels)), labels


def _map_labels(path, fh) -> np.ndarray:
    """The time labels of the map CSV open as ``fh``, read from its header line."""
    header = fh.readline().strip().split(",")
    if not header or header[0] != "scale":
        raise ValueError(f"{path}: not a p-value map CSV (missing 'scale' header)")
    labels = np.array(_map_fields(path, 1, header[1:], 2, int, "an integer"))
    wrong = np.flatnonzero(labels != np.arange(1, len(labels) + 1))
    if len(wrong):
        j = int(wrong[0])
        raise ValueError(f"{path}: line 1: field {j + 2}: expected label {j + 1}, "
                         f"got {header[j + 1]!r}")
    return labels


def _map_window(path, fh, n: int, start: int, stop: int) -> np.ndarray:
    """The map rows left in ``fh`` at columns ``start:stop``; NaN for an empty cell.

    Every line must hold ``n + 1`` fields, but only the window's cells are
    converted and checked, so a bad cell outside it is never read.
    """
    rows = []
    for lineno, raw in enumerate(fh, start=2):
        line = raw.rstrip("\n")
        if line.count(",") != n:
            raise ValueError(f"{path}: line {lineno}: expected {n + 1} fields")
        cells = line.split(",", stop + 1)[start + 1:stop + 1]
        row = np.array(_map_fields(path, lineno, cells, start + 2, float, "a number"))
        # NaN fails both comparisons too: only an empty cell may be NaN.
        for j in np.flatnonzero(~((row >= 0.0) & (row <= 1.0))).tolist():
            if cells[j]:
                raise ValueError(f"{path}: line {lineno}: field {start + j + 2}: "
                                 f"{cells[j]!r} is not a p-value in [0, 1]")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no map rows found")
    return np.array(rows)


def _map_fields(path, lineno: int, fields: list[str], first: int, parse, what: str) -> list:
    """``parse`` of each field, an empty one read as ``"nan"``; ``fields[0]`` is
    field number ``first`` of its line.  The field ``parse`` rejects is looked
    for only once the line has failed."""
    try:
        return [parse(text or "nan") for text in fields]
    except ValueError:
        pass
    for number, text in enumerate(fields, start=first):
        try:
            parse(text or "nan")
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: field {number}: cannot parse "
                             f"{text!r} as {what}") from None


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


def _threshold(args) -> ThresholdResult:
    """``--threshold-value`` as given, where the command has it, else the
    threshold the flags calibrate."""
    if getattr(args, "threshold_value", None) is not None:
        return ThresholdResult(value=args.threshold_value, kind="given")
    query = ThresholdQuery(alpha=args.alpha, num_scales=args.scales, hurst=args.hurst,
                           base=args.base, mc_reps=args.mc_reps, seed=args.seed)
    return compute_threshold(query, _KIND_BY_FLAG[args.threshold])


def cmd_synth(args) -> int:
    model = LrdModel(hurst=args.hurst, sigma=args.sigma)
    series = synthesize_fgn(model, args.n, args.seed)
    write_series(args.out, series)
    return 0


def cmd_detect(args) -> int:
    _check_usage(args)
    if args.gap_tolerance < 0:
        raise ValueError("--gap-tolerance must be >= 0")
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
    scale_config.check_length(len(values))
    threshold = _threshold(args)
    if args.mean is not None or args.standardize == "sample":
        # Rebinding frees the raw values before detection.
        values = standardize(values, args.mean, args.std)[0]
    result = detect(values, DetectionConfig(scale_config, threshold.value, args.method))
    intervals = flags_to_intervals(result, args.gap_tolerance)
    payload = {
        "alpha": args.alpha,
        "base": args.base,
        "flagged_indices": result.flags,
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
        fh.write(_flags_json(payload))
    if args.out_map:
        write_pvalue_csv(args.out_map, level_rows(result.pyramid))
    return 0


def _flags_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` for the payload of ``detect``.

    With ``indent``, ``json`` encodes in pure Python, one call per list
    item; here the scalars go through ``json.dumps`` and the two lists,
    which may be long, are joined from text: ``flagged_indices`` holds
    ints (an int array or a list), formatted ``_SLICE`` at a time so that
    no Python int or str is made for every flag at once, and ``intervals``
    dicts with the int fields of ``_INTERVAL``.
    """
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if key == "flagged_indices":
            text = _json_list(",\n    ".join(map(str, np.asarray(value[lo:lo + _SLICE]).tolist()))
                              for lo in range(0, len(value), _SLICE))
        elif key == "intervals":
            text = _json_list(_INTERVAL.format_map(interval) for interval in value)
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _json_list(items) -> str:
    """A list of a top-level key as ``json.dumps(indent=2)`` writes it, from its items' text."""
    text = ",\n    ".join(items)
    return "[\n    " + text + "\n  ]" if text else "[]"


def cmd_map(args) -> int:
    with open(args.in_map) as fh:
        labels = _map_labels(args.in_map, fh)
        n = len(labels)
        start, stop = args.from_, n if args.to is None else args.to
        if not 0 <= start < stop <= n:
            raise ValueError(f"need 0 <= start < stop <= {n}, got [{start}, {stop})")
        pvalues = _map_window(args.in_map, fh, n, start, stop)
    svg = render_pvalue_map_svg(pvalues, labels[start:stop])
    with open(args.out_svg, "w") as fh:
        fh.write(svg)
    return 0


def cmd_threshold(args) -> int:
    result = _threshold(args)
    print(
        json.dumps(
            {"value": result.value, "kind": result.kind, "se": result.mc_standard_error},
            sort_keys=True,
        )
    )
    return 0


def cmd_eval(args) -> int:
    # A fixed start or duration overrides its range or mean.
    injection = InjectionSpec(
        delta=args.delta,
        start=args.start,
        start_range=args.start_range if args.start is None else None,
        duration=args.duration,
        duration_mean=args.duration_mean if args.duration is None else None,
    )
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


def _stdin_text(stdin):
    """The text of ``stdin`` as it arrives, one read of at most ``_STREAM_READ`` at a time.

    Bytes are read with ``read1``, which returns as soon as any have
    arrived, and decoded incrementally with the stream's encoding and the
    ``surrogateescape`` handler, whatever the stream's own: a byte the
    encoding rejects then spoils only its own line, which is warned about
    and skipped like any line that does not parse.  Newlines are not
    translated: CPython opens stdin on POSIX with ``newline="\\n"``, so a
    lone ``\\r`` is part of a line.  A text stream without ``.buffer`` is
    read with ``.read``.
    """
    raw = getattr(stdin, "buffer", None)
    if raw is None:
        yield from iter(lambda: stdin.read(_STREAM_READ), "")
        return
    decoder = codecs.getincrementaldecoder(stdin.encoding)("surrogateescape")
    while chunk := raw.read1(_STREAM_READ):
        yield decoder.decode(chunk)
    yield decoder.decode(b"", final=True)


def _stdin_lines(stdin):
    """The lines of ``stdin``, newlines dropped: one ``(lineno, lines)`` per read.

    ``lines`` are the lines the read completed and ``lineno`` the number of
    lines before them.  The text after the last newline is carried into the
    next read; at the end of input it is the last line.  An ``OSError`` in
    reading ends the reads as the last ``lines``, so that a worker reading
    stdin can send it on with its message.
    """
    partial, lineno = "", 0
    try:
        for text in _stdin_text(stdin):
            *lines, partial = (partial + text).split("\n")
            yield lineno, lines
            lineno += len(lines)
    except OSError as error:
        yield lineno, error
        return
    if partial:
        yield lineno, [partial]


def _read_samples(lines: list[str], lineno: int, mean: float | None, std: float | None):
    """The samples of one read's ``lines``, the first of them being line ``lineno + 1``, and the
    text of its warnings.

    One numpy call parses the read; it accepts just what ``float()`` does.
    When that call raises, or a sample is not finite before or after
    ``--mean/--std``, the read goes through the per-line loop instead, which
    skips each line that is blank, does not parse or is not finite, and
    returns the rest with one warning line for each skipped line, naming its
    line number.  Nothing is printed here: in ``stream`` this may run in a
    worker process.
    """
    try:
        samples = np.array(lines, dtype=float)
    except ValueError:
        pass
    else:
        if mean is not None:
            with np.errstate(over="ignore"):  # an overflow is the fallback's warning
                samples -= mean
                samples /= std
        if np.isfinite(samples).all():
            return samples, ""
    samples, skipped = [], []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line:
            skipped.append(f"warning: line {lineno}: empty line skipped\n")
            continue
        try:
            sample = float(line)
        except ValueError:
            skipped.append(f"warning: line {lineno}: cannot parse {line!r}, skipped\n")
            continue
        if not math.isfinite(sample):
            skipped.append(f"warning: line {lineno}: non-finite value {line!r}, skipped\n")
            continue
        if mean is not None:
            sample = (sample - mean) / std
            if not math.isfinite(sample):
                skipped.append(f"warning: line {lineno}: value {line!r} is not finite after "
                               "--mean/--std, skipped\n")
                continue
        samples.append(sample)
    return samples, "".join(skipped)


def _parsed_read(read, mean: float | None, std: float | None):
    """One ``(lineno, lines)`` of :func:`_stdin_lines` as ``stream`` passes it on: its samples
    and warning text, or its read error."""
    lineno, lines = read
    return lines if isinstance(lines, OSError) else _read_samples(lines, lineno, mean, std)


def cmd_stream(args) -> int:
    """Online detection on stdin, one read at a time.

    Each read's lines are parsed by :func:`_read_samples`, its warnings
    printed to stderr, its samples pushed with one ``StreamState.extend``
    call and its flagged rows written to stdout with one write and one
    flush.  The parsing runs ahead through :func:`~lrdshift.workers.ahead`:
    on a host with two or more usable CPUs a forked worker reads, decodes,
    splits and parses stdin while this process extends the windows over the
    reads it has already sent, each as a pickle; on one CPU this process
    parses each read itself before extending it, and pickles nothing.
    Either way stdout, stderr and their order are the same, and an error in
    reading stdin ends the run with its message after the reads before it.
    """
    scale_config = ScaleConfig(base=args.base, num_scales=args.scales, hurst=args.hurst)
    _check_usage(args)
    critical = _threshold(args).value
    if sys.stdin is None:  # run with ``<&-``
        raise ValueError("stdin is closed")
    state = StreamState(scale_config)
    index = 0
    reads = ahead(_stdin_lines(sys.stdin), lambda read: _parsed_read(read, args.mean, args.std))
    with contextlib.closing(reads):
        for parsed in reads:
            if isinstance(parsed, OSError):
                raise parsed
            samples, skipped = parsed
            if skipped:
                sys.stderr.write(skipped)
            statistics, argmax_scales = state.extend(samples)
            flagged = np.flatnonzero(statistics > critical)
            if len(flagged):
                rows = zip((index + 1 + flagged).tolist(), statistics[flagged].tolist(),
                           argmax_scales[flagged].tolist())
                if args.format == "jsonl":
                    out = "".join(json.dumps({"index": i, "statistic": s, "argmax_scale": k},
                                             sort_keys=True) + "\n" for i, s, k in rows)
                else:
                    out = "".join(f"{i},{s!r},{k}\n" for i, s, k in rows)
                sys.stdout.write(out)
                sys.stdout.flush()
            index += len(samples)
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
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

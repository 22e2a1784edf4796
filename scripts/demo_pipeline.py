#!/usr/bin/env python3
"""End-to-end demo: sample a background, inject a shift, detect, render.

Produces, in --workdir: trace.txt (clean background), shifted.txt (with an
injected level shift), flags.json, map.csv and map.svg (a window around the
injected region).  Everything is seed-driven and rerun-stable.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrdshift import InjectionSpec, inject
from lrdshift.cli import main as cli, read_series, write_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--hurst", type=float, default=0.9)
    parser.add_argument("--n", type=int, default=2**14)
    parser.add_argument("--scales", type=int, default=12)
    parser.add_argument("--delta", type=float, default=1.5)
    parser.add_argument("--start", type=int, default=6000)
    parser.add_argument("--duration", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    trace = workdir / "trace.txt"
    shifted = workdir / "shifted.txt"
    flags = workdir / "flags.json"
    pmap = workdir / "map.csv"
    svg = workdir / "map.svg"

    if cli(["synth", "--hurst", str(args.hurst), "--n", str(args.n),
            "--seed", str(args.seed), "--out", str(trace)]) != 0:
        return 1

    spec = InjectionSpec(delta=args.delta, start=args.start, duration=args.duration)
    series, _ = inject(read_series(trace), spec)
    write_series(shifted, series)

    window = (max(args.start - args.duration, 0), min(args.start + 2 * args.duration, args.n))
    for step in [
        ["detect", "--in", str(shifted), "--hurst", str(args.hurst),
         "--scales", str(args.scales), "--seed", str(args.seed + 1),
         "--gap-tolerance", "8", "--out-flags", str(flags), "--out-map", str(pmap)],
        ["map", "--in-map", str(pmap), "--from", str(window[0]), "--to", str(window[1]),
         "--out-svg", str(svg)],
    ]:
        if cli(step) != 0:
            return 1

    payload = json.loads(flags.read_text())
    hits = sum(1 for i in payload["flagged_indices"] if args.start <= i < args.start + args.duration)
    print(f"threshold {payload['threshold']:.4f}, {len(payload['flagged_indices'])} flags, "
          f"{hits} inside the injected interval [{args.start}, {args.start + args.duration})")
    print(f"intervals: {payload['intervals'][:6]}{' ...' if len(payload['intervals']) > 6 else ''}")
    print(f"outputs in {workdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

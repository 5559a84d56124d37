"""Record the benchmark's median and spread over several seeds in a BENCH file.

    python3 scripts/bench_record.py --out BENCH_<n>.json --section parent=DIR
                                    [--section change=DIR ...] [--seeds 5] [--seconds 25]

Runs ``python3 perfbench/run.py --workload all --trace 0`` once for each
seed 1..``--seeds`` in the source checkout DIR of every ``--section
NAME=DIR``, and stores under NAME in the JSON file ``--out`` the
environment stamp, the repeat count and run length, the error fraction
and, for every ``<workload>/<metric>``, the per-seed values with their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
distance between the quartiles.  Other sections already in the file are
kept.

Each seed runs every section before the next seed starts, in the given
order on odd seeds and in reverse on even ones, so a slow drift of the
host falls on a parent and a change alike instead of on whichever was
recorded later.

perfbench stamps the checkout's HEAD commit, not the files that ran, so
if any DIR is not a git checkout or its ``git status --porcelain`` lists
anything, nothing runs: record from clean clones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

STAMP = "# stamp "


def run_once(root: Path, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """Final JSON line and stamp lines of one ``--workload all`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    stamps = [json.loads(x[len(STAMP):]) for x in lines if x.startswith(STAMP)]
    return json.loads(lines[-1]), stamps


def aggregate(runs: list[tuple[dict, list[dict]]], seconds: int) -> dict:
    """One BENCH section from the (final payload, stamps) of each seed's run."""
    if len(runs) < 2:
        raise ValueError("need at least two runs for quartiles")
    stamp = {key: value for key, value in runs[0][1][0].items() if key not in ("workload", "seed")}
    seeds = [stamps[0]["seed"] for _, stamps in runs]
    attempted = sum(final["attempted"] for final, _ in runs)
    failed = sum(final["failed"] for final, _ in runs)
    metrics = {}
    for name, first in runs[0][0]["metrics"].items():
        values = [final["metrics"][name]["value"] for final, _ in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}
    return {
        "stamp": stamp,
        "repeats": len(runs),
        "seconds": seconds,
        "seeds": seeds,
        "correct": all(final["correct"] for final, _ in runs),
        "error_frac": failed / attempted if attempted else 0.0,
        "metrics": metrics,
    }


def parse_section(value: str) -> tuple[str, Path]:
    """``NAME=DIR`` as (NAME, DIR)."""
    name, sep, root = value.partition("=")
    if not (name and sep and root):
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {value!r}")
    return name, Path(root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--section", type=parse_section, action="append", required=True,
                        metavar="NAME=DIR")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.seeds < 2 or args.seconds < 1:
        parser.error("--seeds must be >= 2 and --seconds >= 1")
    names = [name for name, _ in args.section]
    if len(set(names)) != len(names):
        parser.error("section names must differ")
    for _, root in args.section:
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                capture_output=True, text=True)
        if status.returncode != 0 or status.stdout:
            parser.error(f"{root} is not a clean git checkout, and runs are stamped "
                         f"with its HEAD commit:\n{(status.stderr or status.stdout).rstrip()}")

    runs = {name: [] for name in names}
    for seed in range(1, args.seeds + 1):
        for name, root in args.section if seed % 2 else reversed(args.section):
            runs[name].append(run_once(root, seed, args.seconds))
            print(f"seed {seed} {name}: done", flush=True)
    report = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    for name, section_runs in runs.items():
        report[name] = aggregate(section_runs, args.seconds)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name in runs:
        for metric, figures in report[name]["metrics"].items():
            print(f"{name} {metric:28s} median={figures['median']:.6g} "
                  f"iqr={figures['iqr']:.6g} {figures['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark's median and spread over several seeds in a BENCH file.

    python3 scripts/bench_record.py --out BENCH_<n>.json --section change
                                    [--root DIR] [--seeds 5] [--seconds 25]

Runs ``python3 perfbench/run.py --workload all --trace 0`` in the source
checkout ``--root`` (this repository by default) once for each seed
1..``--seeds`` and stores, under ``--section`` of the JSON file ``--out``, the environment
stamp, the repeat count and run length, the error fraction and, for
every ``<workload>/<metric>``, the per-seed values with their median and
quartiles (``statistics.quantiles(values, n=4)``) and the distance
between the quartiles.  Other sections already in the file are kept,
so a parent checkout and a change can be recorded side by side.

perfbench stamps the checkout's HEAD commit, not the files that ran, so
a ``--root`` that is not a git checkout or whose ``git status
--porcelain`` lists anything is refused: record from a clean clone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--section", required=True)
    parser.add_argument("--root", type=Path, default=REPO)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.seeds < 2 or args.seconds < 1:
        parser.error("--seeds must be >= 2 and --seconds >= 1")
    status = subprocess.run(["git", "-C", str(args.root), "status", "--porcelain"],
                            capture_output=True, text=True)
    if status.returncode != 0 or status.stdout:
        parser.error(f"{args.root} is not a clean git checkout, and runs are stamped "
                     f"with its HEAD commit:\n{(status.stderr or status.stdout).rstrip()}")

    runs = []
    for seed in range(1, args.seeds + 1):
        runs.append(run_once(args.root, seed, args.seconds))
        print(f"seed {seed}: done", flush=True)
    report = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    report[args.section] = aggregate(runs, args.seconds)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, figures in report[args.section]["metrics"].items():
        print(f"{name:28s} median={figures['median']:.6g} iqr={figures['iqr']:.6g} {figures['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seconds 10 --seeds 10 [--first-seed 1]
                                [--workload NAME ...] [--out FILE]

For every workload (all four by default) and every end-to-end metric
it prints the median of the per-seed values, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  ``--out``
writes the same figures, with the environment stamp, as JSON; the
seed-commit baseline in ``baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(next(x for x in lines if x.startswith("# stamp "))[len("# stamp "):])
    return json.loads(lines[-1]), stamp, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
              "workloads": {}}
    for workload in args.workload or WORKLOAD_NAMES:
        values: dict[str, list[float]] = {}
        walls, correct = [], True
        for seed in report["seeds"]:
            result, stamp, wall = one_run(workload, seed, args.seconds)
            walls.append(wall)
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        figures = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            figures[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(vals), "values": vals}
            print(f"{workload:14s} {name:12s} median={figures[name]['median']:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={figures[name]['spread']:.4f}")
        print(f"{workload:14s} correct={correct} wall per run: max={max(walls):.1f}s "
              f"median={statistics.median(walls):.1f}s", flush=True)
        stamp.pop("seed")
        report["workloads"][workload] = {"correct": correct, "stamp": stamp, "metrics": figures}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

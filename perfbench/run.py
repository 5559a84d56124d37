"""The gridgrover benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src``, nothing needs installing.  Each workload runs in a fresh,
single-threaded worker process (``worker.py``).  With ``--trace 0`` the
result carries the end-to-end metrics; set-up time is the median of
the worker's own set-up and ``SETUP_PROBES`` set-up-only processes.
With ``--trace 1`` it carries the per-layer metrics of a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it, starting with ``#``, give a readable summary (including
``error_frac``, failed over attempted units) and the environment stamp.
``--workload all`` runs every workload in turn; its last line then
keys each metric as ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

END_TO_END = [
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
WORKLOAD_NAMES = ["sweep-n4096", "search-n65536", "bisect-3x8", "board-3x16"]
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # numpy's LAPACK (Polynomial.fit) must not spread over more cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool) -> tuple[dict, dict]:
    """(result, worker payload) for one workload."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    if trace:
        from tracing import PER_LAYER

        payload = run_worker([*common, "--trace", "1"])
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        setups = [run_worker([*common, "--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        payload = run_worker([*common, "--trace", "0"])
        setups.append(payload["setup_s"])
        payload["metrics"]["setup_s"] = statistics.median(setups)
        units = dict(END_TO_END)
    result = {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {m: {"value": payload["metrics"][m], "unit": u} for m, u in units.items()},
    }
    return result, payload


def git_sha(root: Path) -> str:
    """HEAD's commit, read from .git directly; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def summary(name: str, result: dict) -> str:
    error_frac = result["failed"] / result["attempted"]
    figures = " ".join(f"{m}={v['value']:.6g}{v['unit']}" for m, v in result["metrics"].items())
    return f"# {name}: units={result['attempted']} error_frac={error_frac:g} {figures}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridgrover benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="desk-size inputs, for testing the harness")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "gridgrover" / "__init__.py").is_file():
        print(f"error: no gridgrover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, payload = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            print(summary(name, result))
            print("# stamp " + json.dumps({"workload": name, **stamp(args, payload["numpy"])}))
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

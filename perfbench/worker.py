"""Run one workload in this (fresh) process and print its figures.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--smoke] [--setup-only]

``run.py`` starts this with ``src`` on PYTHONPATH and the BLAS thread
counts pinned to 1.  The last line of standard output is one JSON
object.  Set-up time counts from the first statement of this file, so
it includes importing numpy and gridgrover.

With ``--trace 0`` units run back to back for ``--seconds``.  With
``--trace 1`` they run untraced for half of ``--seconds``, then the
same units run again, from a fresh set-up, with every library entry
point wrapped in spans; the ratio of the two passes' unit times is the
tracing overhead.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Everything a run writes stays in the checkout, under this directory.
OUT = ROOT / ".perfbench"


def run_units(workload, state, ids, deadline: float, tracer=None) -> list[tuple[int, float, bool]]:
    """Run units ``ids`` in order until they run out or ``deadline`` passes
    (at least one unit runs).

    Returns (unit id, seconds, passed its check) per unit.  Only the
    unit itself is timed; its check runs after.  An exception fails
    the unit.
    """
    records = []
    for t in ids:
        if records and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.unit_id = t
            span = tracer.open("bench.unit")
        start = time.perf_counter()
        try:
            output = workload.unit(state, t)
            raised = False
        except Exception:
            traceback.print_exc()
            raised = True
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            tracer.unit_id = -1
        try:
            ok = not raised and bool(workload.check(state, t, output))
        except Exception:
            traceback.print_exc()
            ok = False
        records.append((t, elapsed, ok))
    return records


def end_to_end(records, setup_s: float) -> dict[str, float]:
    import numpy as np

    seconds = np.array([r[1] for r in records])
    return {
        "units_per_s": seconds.size / float(seconds.sum()),
        "unit_ms_p50": float(np.median(seconds)) * 1e3,
        "unit_ms_p90": float(np.percentile(seconds, 90)) * 1e3,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        state = workload.setup(args.seed, args.smoke, workdir)
        setup_s = time.perf_counter() - _START
        payload = {"setup_s": setup_s, "numpy": np.__version__}
        if args.setup_only:
            print(json.dumps(payload))
            return 0
        if args.trace == 0:
            records = run_units(
                workload, state, itertools.count(), time.perf_counter() + args.seconds
            )
            payload["metrics"] = end_to_end(records, setup_s)
        else:
            from tracing import Tracer, installed

            plain = run_units(
                workload, state, itertools.count(), time.perf_counter() + args.seconds / 2
            )
            tracer = Tracer()
            with installed(tracer):
                state = workload.setup(args.seed, args.smoke, workdir)
                traced = run_units(workload, state, [r[0] for r in plain], math.inf, tracer)
            overhead = sum(r[1] for r in traced) / sum(r[1] for r in plain) - 1.0
            payload["metrics"] = tracer.layer_metrics(overhead)
            tracer.write(OUT / "spans" / f"{workload.name}.npz", workload=workload.name, seed=args.seed)
            records = plain + traced
        payload["attempted"] = len(records)
        payload["failed"] = sum(1 for r in records if not r[2])
        print(json.dumps(payload))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

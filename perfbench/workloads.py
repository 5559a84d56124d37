"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed (``setup``), runs
one *unit* of work at a time through the public functions of
``gridgrover`` (``unit``) and checks every unit's output (``check``)
against facts the benchmark holds itself: its own copy of the marks,
direct reads of the cost table, pinned constants and the closed-form
bounds of acceptance check 7.  No check asks one of the program's own
oracles.

Library functions are called through their module or class attribute
(``search.run_grid_search``, ``cli.main``, ...) so that the traced run
can wrap them; see ``tracing.installed``.

``smoke`` shrinks every workload to a desk size for the harness test.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import gridgrover.bisection as bisection
import gridgrover.cli as cli
import gridgrover.search as search
import gridgrover.trajectory as trajectory
from gridgrover.grover import MarkedSet

K = 3
G = 9.8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, smoke, workdir) -> state; runs before timing starts
    setup: Callable[[int, bool, Path], Any]
    # (state, unit id) -> output; the timed unit of work
    unit: Callable[[Any, int], Any]
    # (state, unit id, output) -> output is correct; not timed
    check: Callable[[Any, int, Any], bool]


def _product_problem(n: int, marks: tuple[int, ...]):
    return search.GridProblem.product([MarkedSet.from_indices(n, [m]) for m in marks])


def _params(seed: int, t: int):
    return search.ScheduleParams(seed=search.derive_seed(seed, t))


# --- sweep-n4096 -------------------------------------------------------------


def _sweep_setup(seed: int, smoke: bool, workdir: Path):
    n = 256 if smoke else 4096
    marks = tuple(int(m) for m in np.random.default_rng(seed).integers(0, n, size=K))
    return SimpleNamespace(seed=seed, marks=marks, problem=_product_problem(n, marks))


def _sweep_unit(state, t: int):
    return search.run_grid_search(state.problem, _params(state.seed, t))


def _sweep_check(state, t: int, outcome) -> bool:
    return outcome.success and tuple(outcome.path) == state.marks


# --- search-n65536 -----------------------------------------------------------


def _search_setup(seed: int, smoke: bool, workdir: Path):
    return SimpleNamespace(seed=seed, n=1024 if smoke else 65536)


def _search_marks(state, t: int) -> tuple[int, ...]:
    rng = np.random.default_rng([state.seed, t])
    return tuple(int(m) for m in rng.integers(0, state.n, size=K))


def _search_unit(state, t: int):
    problem = _product_problem(state.n, _search_marks(state, t))
    return search.run_grid_search(problem, _params(state.seed, t))


def _search_check(state, t: int, outcome) -> bool:
    return outcome.success and tuple(outcome.path) == _search_marks(state, t)


# --- bisect-3x8 --------------------------------------------------------------

BISECT_MAX_COUNT = 6


def _bisect_setup(seed: int, smoke: bool, workdir: Path):
    grid = trajectory.build_brachistochrone_grid(K, 4 if smoke else 8)
    table = trajectory.CostTable.build(grid.sizes, trajectory.BrachistochroneCost(grid))
    return SimpleNamespace(
        seed=seed, sizes=grid.sizes, table=table, family=trajectory.RangeProblemFamily(table)
    )


def _bisect_unit(state, t: int):
    # b0 is bootstrapped as in acceptance check 8
    rng = search.trial_rng(state.seed, t)
    for _ in range(16):
        b0 = bisection.initial_upper_bound(state.sizes, state.family.cost_of, rng)
        if math.isfinite(b0) and b0 > 0.0:
            break
    else:
        raise RuntimeError(f"unit {t}: no finite upper bound in 16 draws")
    result = bisection.run_bisect(
        state.family, state.family.cost_of, 0.0, b0, BISECT_MAX_COUNT, _params(state.seed, t)
    )
    return b0, result


def _bisect_check(state, t: int, output) -> bool:
    b0, result = output
    lower, upper = result.interval.lower, result.interval.upper
    if not (0.0 <= lower < upper <= b0 and 1 <= result.rounds <= BISECT_MAX_COUNT):
        return False
    witness = result.witness
    if witness is None:
        return True
    table_cost = float(state.table.costs[np.ravel_multi_index(witness.path, state.sizes)])
    return witness.cost == table_cost and 0.0 < witness.cost < b0


# --- board-3x16 --------------------------------------------------------------

BOARD_WINDOW = (1.0, 1.03)
# Pinned minima: the 3x16 board's is the one this benchmark is about,
# the 3x4 one belongs to the smoke size.
BOARD_MINIMUM = {16: [14, 12, 9], 4: [3, 3, 2]}
_TIMESTAMP = re.compile(rb'\n  "timestamp": "[^"\n]*"')


def _board_setup(seed: int, smoke: bool, workdir: Path):
    n = 4 if smoke else 16
    config = {
        "mode": "brachistochrone",
        "brachistochrone": {
            "k": K,
            "n": n,
            "enumerate": list(BOARD_WINDOW),
            "bisect": {"max_count": BISECT_MAX_COUNT},
        },
    }
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "board.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = workdir / "board-out"
    return SimpleNamespace(
        argv=["--config", str(config_path), "--out", str(out), "--seed", str(seed)],
        out=out,
        minimum=BOARD_MINIMUM[n],
        reference=None,
    )


def _board_unit(state, t: int):
    return cli.main(state.argv)


def _board_check(state, t: int, code) -> bool:
    files = {p.name: p.read_bytes() for p in sorted(state.out.iterdir())}
    for p in state.out.iterdir():
        p.unlink()
    if code != 0 or "report.json" not in files:
        return False
    report = json.loads(files["report.json"])
    result = report["result"]
    cost = result["minimum"]["cost"]
    # acceptance check 7's sandwich, from the closed forms
    cycloid = math.pi / math.sqrt(G)
    straight = math.pi * math.sqrt(1.0 + 4.0 / math.pi**2) / math.sqrt(G)
    rows = files["enumeration.csv"].decode().splitlines()[1:]
    window_costs = [float(row.rsplit(",", 1)[1]) for row in rows]
    lo, hi = BOARD_WINDOW
    interval = result["bisect"]["interval"]
    ok = (
        result["minimum"]["path"] == state.minimum
        and cycloid - 0.01 <= cost <= straight + 1e-3
        and len(window_costs) == result["enumerate"]["solution_count"]
        and all(lo < c < hi for c in window_costs)
        and 0.0 <= interval["lower"] < interval["upper"] <= report["config"]["bisect"]["b0"]
        and "timestamp" in report
    )
    # reports must be byte-identical across units apart from the timestamp
    files["report.json"] = _TIMESTAMP.sub(b"", files["report.json"])
    if state.reference is None:
        state.reference = files
    return ok and files == state.reference


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sweep-n4096",
            "One k=3 n=4096 problem, one seeded trial per unit as in analyze runtime: "
            "the run_round loop is ~99% of the time and the grover cache fill ~1%.",
            _sweep_setup,
            _sweep_unit,
            _sweep_check,
        ),
        Workload(
            "search-n65536",
            "A fresh k=3 n=65536 problem per unit: the statevector steps of grover "
            "dominate the time and the per-(bucket, j) cache sets the memory.",
            _search_setup,
            _search_unit,
            _search_check,
        ),
        Workload(
            "bisect-3x8",
            "Seeded run_bisect on the prebuilt 3x8 cost table: many short-lived n=8 "
            "searches, mostly misses, with CostTable.cost_of as the global oracle.",
            _bisect_setup,
            _bisect_unit,
            _bisect_check,
        ),
        Workload(
            "board-3x16",
            "One in-process CLI brachistochrone run on the 3x16 board: CostTable.build "
            "is ~90% of the time; the only workload through the cli layer.",
            _board_setup,
            _board_unit,
            _board_check,
        ),
    ]
}

"""Experiment runner: configure a problem from JSON, execute one of the
search / bisect / brachistochrone / analyze commands, and write
machine-readable results.

Outputs land in the ``--out`` directory: always a ``report.json``
(schema_version 1) embedding the effective config, the master seed, and
the structured result; tabular sweeps additionally get CSV files with a
header row, ``.`` decimal separator, and LF line endings.  Timestamps
are informational only; everything else reproduces byte-identically for
a fixed config and seed at any ``--jobs`` value, which is handed to the
library's trial sweeps (:func:`~gridgrover.analysis.empirical_vs_closed_form`
and :func:`~gridgrover.analysis.runtime_trials`).

Exit codes: 0 success, 1 config or usage error, 2 search exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    avg_success_probability,
    empirical_vs_closed_form,
    lemma_threshold,
    runtime_trials,
    stats_from_problem,
    theorem_bounds,
)
from .bisection import initial_upper_bound, run_bisect
from .grover import MarkedSet
from .search import GridProblem, ScheduleParams, run_grid_search, trial_rng
from .trajectory import (
    BrachistochroneCost,
    CostTable,
    Grid,
    QuadratureConfig,
    RangeProblemFamily,
    build_brachistochrone_grid,
    cycloid_descent_time,
    interpolate,
    straight_line_descent_time,
)

__all__ = ["main", "ConfigError", "IndexSumCost", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EXHAUSTED = 2

MODES = ("search", "bisect", "brachistochrone", "analyze")


class ConfigError(Exception):
    """Config or usage problem; maps to exit code 1."""


@dataclass(frozen=True)
class IndexSumCost:
    """Toy separable cost offset + sum(indices); handy for exact oracles."""

    sizes: tuple[int, ...]
    offset: float = 0.0

    def __call__(self, path: Sequence[int]) -> float:
        return self.offset + float(sum(path))

    def costs(self, paths: np.ndarray) -> np.ndarray:
        """Every row's ``self(path)``: the exact integer sum plus the offset."""
        return self.offset + paths.sum(axis=1)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2 (2 means
    # "search exhausted" here)
    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridgrover",
        description="Amplified grid search, cost-bound bisection, and trajectory experiments.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--mode", choices=MODES, help="override the config's mode")
    parser.add_argument("--seed", type=int, help="override the config's master seed")
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for trial sweeps")
    parser.add_argument(
        "--strict-paper",
        action="store_true",
        default=None,
        help="leave a bucket uniform instead of capping its draw once the budget overshoots",
    )
    parser.add_argument("--max-rounds", type=int, help="override the schedule's round limit")
    parser.add_argument("--max-count", type=int, help="override the bisection round limit")
    return parser


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key} is required")
    return section[key]


def _int(value, where: str) -> int:
    # JSON numbers arrive as int or float, and bool is an int subclass;
    # truncating 2.6 or true would silently run another experiment
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be an integer, got {json.dumps(value)}")


def _number(value, where: str) -> float:
    # float() would also take true, "1.01" or "inf", and a non-finite
    # value would reach report.json as a non-standard Infinity token
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ConfigError(f"{where} must be a finite number, got {json.dumps(value)}")


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of integers")
    return [_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _bracket(value, where: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where} must be [a, b]")
    a, b = _number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]")
    if not a < b:
        raise ConfigError(f"{where} needs a < b")
    return a, b


# ---------------------------------------------------------------------------
# problem and cost construction


def _product_problem(section: dict, where: str) -> tuple[GridProblem, dict]:
    sizes = _int_list(_require(section, "bucket_sizes", where), f"{where}.bucket_sizes")
    marked = _require(section, "marked", where)
    if not isinstance(marked, list) or len(marked) != len(sizes):
        raise ConfigError(f"{where}.marked must list one index set per bucket")
    sets = [
        MarkedSet.from_indices(n, [] if idxs == [] else _int_list(idxs, f"{where}.marked[{i}]"))
        for i, (n, idxs) in enumerate(zip(sizes, marked))
    ]
    echo = {"bucket_sizes": sizes, "marked": [s.marked.tolist() for s in sets]}
    return GridProblem.product(sets), echo


def _quadrature_config(spec, where: str) -> QuadratureConfig:
    if spec is None:
        return QuadratureConfig()
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(spec) - {f.name for f in fields(QuadratureConfig)}
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    return QuadratureConfig(
        **{k: (_number if k == "rel_tol" else _int)(v, f"{where}.{k}") for k, v in spec.items()}
    )


def _brachistochrone_cost(spec: dict, where: str):
    """Grid + cost model from inline grid fields; returns (grid, cost, echo)."""
    g = _number(spec.get("g", 9.8), f"{where}.g")
    kind = spec.get("interpolation", "polynomial")
    if kind not in ("polynomial", "linear"):
        raise ConfigError(f"{where}.interpolation must be 'polynomial' or 'linear'")
    quadrature = _quadrature_config(spec.get("quadrature"), f"{where}.quadrature")
    if "columns" in spec:
        columns = spec["columns"]
        if not isinstance(columns, list) or not columns:
            raise ConfigError(f"{where}.columns must be a non-empty list of ordinate lists")
        k = len(columns)
        xs = np.array([math.pi * i / (k + 1) for i in range(1, k + 1)])
        cols = []
        for i, c in enumerate(columns):
            at = f"{where}.columns[{i}]"
            if not isinstance(c, list):
                raise ConfigError(f"{at} must be a list of ordinates")
            cols.append(np.array([_number(v, f"{at}[{j}]") for j, v in enumerate(c)]))
        grid = Grid(abscissae=xs, columns=cols, start=(0.0, 2.0), end=(math.pi, 0.0))
        grid_echo = {"columns": [[float(v) for v in c] for c in cols]}
    else:
        k = _int(_require(spec, "k", where), f"{where}.k")
        n = _require(spec, "n", where)
        n = _int_list(n, f"{where}.n") if isinstance(n, list) else _int(n, f"{where}.n")
        grid = build_brachistochrone_grid(k, n)
        grid_echo = {"k": k, "n": list(grid.sizes)}
    cost = BrachistochroneCost(grid=grid, g=g, quadrature=quadrature, kind=kind)
    echo = {
        "type": "brachistochrone",
        **grid_echo,
        "g": g,
        "interpolation": kind,
        "quadrature": asdict(quadrature),
    }
    return grid, cost, echo


def _build_cost(spec, where: str):
    """(sizes, cost, echo) from a typed cost config block."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    kind = spec.get("type")
    if kind == "brachistochrone":
        grid, cost, echo = _brachistochrone_cost(spec, where)
        return grid.sizes, cost, echo
    if kind == "index_sum":
        sizes = tuple(_int_list(_require(spec, "sizes", where), f"{where}.sizes"))
        offset = _number(spec.get("offset", 0.0), f"{where}.offset")
        echo = {"type": "index_sum", "sizes": list(sizes), "offset": offset}
        return sizes, IndexSumCost(sizes=sizes, offset=offset), echo
    raise ConfigError(f"{where}.type must be 'brachistochrone' or 'index_sum'")


def _schedule(
    section: dict, where: str, seed: int, problem: GridProblem
) -> tuple[ScheduleParams, dict]:
    lam, max_rounds = section.get("lambda"), section.get("max_rounds")
    strict_paper = section.get("strict_paper", False)
    if not isinstance(strict_paper, bool):
        raise ConfigError(f"{where}.strict_paper must be true or false")
    params = ScheduleParams(
        seed=seed,
        lam=None if lam is None else _number(lam, f"{where}.lambda"),
        max_rounds=None if max_rounds is None else _int(max_rounds, f"{where}.max_rounds"),
        strict_paper=strict_paper,
    )
    lam, max_rounds = params.resolve(problem)
    echo = {"lambda": lam, "max_rounds": max_rounds, "strict_paper": params.strict_paper}
    return params, echo


def _bisect(
    section: dict, where: str, seed: int, family: RangeProblemFamily
) -> tuple[dict, dict]:
    """Run the bisection a config section describes; (result, echo).

    Without ``b0`` the upper end is bootstrapped deterministically: the
    first finite cost above a0 among up to 64 seeded random paths.
    """
    a0 = _number(section.get("a0", 0.0), f"{where}.a0")
    b0 = section.get("b0")
    if b0 is None:
        rng = trial_rng(seed)
        for _ in range(64):
            b0 = initial_upper_bound(family.table, family.cost_of, rng)
            if math.isfinite(b0) and b0 > a0:
                break
        else:
            raise ConfigError("could not bootstrap a finite upper bound; set b0 explicitly")
    b0 = _number(b0, f"{where}.b0")
    max_count = _int(section.get("max_count", 16), f"{where}.max_count")
    epsilon = _number(section.get("epsilon", 0.0), f"{where}.epsilon")
    backend = section.get("backend", "grover")
    # the bracket only fixes the problem's shape here; resolve() needs k
    params, schedule_echo = _schedule(section, where, seed, family(a0, b0))
    result = run_bisect(
        family, family.cost_of, a0, b0, max_count, params, backend=backend, epsilon=epsilon
    )
    echo = {
        "a0": a0,
        "b0": b0,
        "max_count": max_count,
        "epsilon": epsilon,
        "backend": backend,
        **schedule_echo,
    }
    return result.to_dict(), echo


def _table(rows: list[dict]) -> tuple[list[str], list[list]]:
    """CSV header and rows from dicts that share their keys and key order."""
    return list(rows[0]), [list(row.values()) for row in rows]


# ---------------------------------------------------------------------------
# commands: each returns (exit_code, effective_config, result, csv_tables)


def cmd_search(section: dict, seed: int, jobs: int):
    if "bucket_sizes" in section:
        problem, problem_echo = _product_problem(section, "search")
        effective = {"problem": problem_echo}
    elif "cost" in section:
        a, b = _bracket(_require(section, "bounds", "search"), "search.bounds")
        sizes, cost, cost_echo = _build_cost(section["cost"], "search.cost")
        problem = RangeProblemFamily(CostTable.build(sizes, cost))(a, b)
        effective = {"problem": {"cost": cost_echo, "bounds": [a, b]}}
    else:
        raise ConfigError("search needs bucket_sizes+marked or cost+bounds")
    params, schedule_echo = _schedule(section, "search", seed, problem)
    effective.update(schedule_echo)
    outcome = run_grid_search(problem, params)
    code = EXIT_OK if outcome.success else EXIT_EXHAUSTED
    return code, effective, outcome.to_dict(), {}


def cmd_bisect(section: dict, seed: int, jobs: int):
    sizes, cost, cost_echo = _build_cost(_require(section, "cost", "bisect"), "bisect.cost")
    family = RangeProblemFamily(CostTable.build(sizes, cost))
    result, echo = _bisect(section, "bisect", seed, family)
    return EXIT_OK, {"cost": cost_echo, **echo}, result, {}


def cmd_brachistochrone(section: dict, seed: int, jobs: int):
    grid, cost, cost_echo = _brachistochrone_cost(section, "brachistochrone")
    table = CostTable.build(grid.sizes, cost)
    min_path, min_cost = table.minimum()
    samples = _int(section.get("curve_samples", 101), "brachistochrone.curve_samples")
    if samples < 2:
        raise ConfigError("brachistochrone.curve_samples must be >= 2")
    curve = interpolate(grid, min_path, kind=cost.kind)
    xs = np.linspace(grid.start[0], grid.end[0], samples)
    ys = np.asarray(curve(xs), dtype=float)
    tables = {
        "minimum_curve.csv": (["x", "y"], [[float(x), float(y)] for x, y in zip(xs, ys)])
    }
    result = {
        "minimum": {"path": list(min_path), "cost": min_cost},
        "straight_line_cost": straight_line_descent_time(cost.g),
        "cycloid_floor": cycloid_descent_time(cost.g),
    }
    effective = {**cost_echo, "curve_samples": samples}

    if "enumerate" in section:
        a, b = _bracket(section["enumerate"], "brachistochrone.enumerate")
        effective["enumerate"] = [a, b]
        sol_paths = table.solution_paths(a, b)
        header = [f"i{j}" for j in range(grid.k)] + ["cost"]
        sol_costs = table.costs[table.solution_mask(a, b)].tolist()
        tables["enumeration.csv"] = (header, [[*p, c] for p, c in zip(sol_paths, sol_costs)])
        result["enumerate"] = {
            "bounds": [a, b],
            "solution_count": len(sol_paths),
            "local_marked_sets": [ms.marked.tolist() for ms in table.marked_sets(a, b)],
            "cross_path_rate": table.cross_path_rate(a, b),
        }

    if "bisect" in section:
        sub = section["bisect"]
        if not isinstance(sub, dict):
            raise ConfigError("brachistochrone.bisect must be an object")
        result["bisect"], effective["bisect"] = _bisect(
            sub, "brachistochrone.bisect", seed, RangeProblemFamily(table)
        )

    return EXIT_OK, effective, result, tables


def cmd_analyze(section: dict, seed: int, jobs: int):
    task = section.get("task")
    if task not in ("lemma", "runtime"):
        raise ConfigError("analyze.task must be 'lemma' or 'runtime'")
    problem, problem_echo = _product_problem(section, "analyze")
    stats = stats_from_problem(problem)
    if task == "lemma":
        return _analyze_lemma(section, seed, jobs, problem, problem_echo, stats)
    return _analyze_runtime(section, seed, jobs, problem, problem_echo, stats)


def _analyze_lemma(section, seed, jobs, problem, problem_echo, stats):
    alpha_star = lemma_threshold(stats)
    floor = 4.0 ** (-problem.k)
    trials = _int(section.get("trials", 0), "analyze.trials")
    if trials < 0:
        raise ConfigError("analyze.trials must be >= 0")
    if "m_values" in section:
        m_values = _int_list(section["m_values"], "analyze.m_values")
    else:
        last = math.floor(4.0 * alpha_star)
        if trials > 0:
            # simulated rounds need m <= sqrt(n_i) in every bucket
            last = min(last, math.isqrt(min(problem.sizes)))
        m_values = list(range(math.ceil(alpha_star) + 1, last + 1))
    if not m_values:
        raise ConfigError("analyze.m_values resolves to an empty sweep")
    band_sigmas = _number(section.get("band_sigmas", 3.0), "analyze.band_sigmas")

    rows = []
    for m in m_values:
        closed = avg_success_probability(m, stats)
        rows.append(
            {
                "m": m,
                "closed_form": closed,
                "floor": floor,
                "above_floor": bool(m <= alpha_star or closed >= floor),
            }
        )
    violations = sum(1 for r in rows if not r["above_floor"])
    if trials > 0:
        checks = empirical_vs_closed_form(problem, m_values, trials, seed, band_sigmas, jobs)
        for row, check in zip(rows, checks):
            row.update(check.to_dict())

    effective = {
        "task": "lemma",
        "problem": problem_echo,
        "m_values": m_values,
        "trials": trials,
        "band_sigmas": band_sigmas,
    }
    result = {
        "alpha_star": alpha_star,
        "floor": floor,
        "violations": violations,
        "rows": rows,
    }
    return EXIT_OK, effective, result, {"lemma.csv": _table(rows)}


def _analyze_runtime(section, seed, jobs, problem, problem_echo, stats):
    params, schedule_echo = _schedule(section, "analyze", seed, problem)
    lam = schedule_echo["lambda"]
    bounds = theorem_bounds(stats, lam)
    trials = _int(section.get("trials", 200), "analyze.trials")
    if trials < 1:
        raise ConfigError("analyze.trials must be >= 1")

    trial_rows = [
        [t, o.success, o.rounds_used, o.ledger.total_grover_iterations]
        for t, o in enumerate(runtime_trials(problem, params, trials, jobs))
    ]
    mean_iters = sum(r[3] for r in trial_rows) / trials
    result = {
        **asdict(bounds),
        "total_bound": bounds.total,
        "trials": trials,
        "success_rate": sum(r[1] for r in trial_rows) / trials,
        "mean_total_iterations": mean_iters,
        "within_bound": bool(mean_iters <= bounds.total),
    }
    effective = {"task": "runtime", "problem": problem_echo, "trials": trials, **schedule_echo}
    tables = {
        "runtime.csv": _table([{"k": problem.k, "lambda": lam, **result}]),
        "trials.csv": (["trial", "success", "rounds", "total_grover_iterations"], trial_rows),
    }
    return EXIT_OK, effective, result, tables


# ---------------------------------------------------------------------------
# output plumbing


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        config = _load_config(args.config)
        mode = args.mode or config.get("mode")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)} (via config or --mode)")
        seed = args.seed if args.seed is not None else _int(config.get("seed", 0), "seed")
        section = config.get(mode, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{mode} must be an object")
        flags = {key: getattr(args, key) for key in ("strict_paper", "max_rounds", "max_count")}
        flags = {key: value for key, value in flags.items() if value is not None}
        if mode == "brachistochrone" and flags:
            # this mode's only search is its bisection
            if not isinstance(section.get("bisect"), dict):
                given = ", ".join("--" + key.replace("_", "-") for key in flags)
                raise ConfigError(f"{given} need a brachistochrone.bisect object")
            section = {**section, "bisect": {**section["bisect"], **flags}}
        else:
            section = {**section, **flags}

        command = {
            "search": cmd_search,
            "bisect": cmd_bisect,
            "brachistochrone": cmd_brachistochrone,
            "analyze": cmd_analyze,
        }[mode]
        code, effective, result, tables = command(section, seed, args.jobs)

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            _write_csv(out_dir / name, header, rows)
        report = {
            "schema_version": SCHEMA_VERSION,
            "mode": mode,
            "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config": effective,
            "result": result,
        }
        (out_dir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n",
            encoding="utf-8",
        )
        return code
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

import csv
import json
import math
from pathlib import Path

import pytest

from gridgrover.cli import EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_OK, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))


def stripped(out_dir):
    text = (Path(out_dir) / "report.json").read_text(encoding="utf-8")
    return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)


def test_search_all_marked_succeeds_in_one_round(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "mode": "search",
            "seed": 3,
            "search": {"bucket_sizes": [4, 4], "marked": [[0, 1, 2, 3], [0, 1, 2, 3]]},
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    report = read_report(out)
    assert report["schema_version"] == 1
    assert report["result"]["success"] is True
    assert report["result"]["rounds_used"] == 1
    assert report["config"]["lambda"] == pytest.approx(31 / 30)


def test_search_zero_marked_exhausts(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "mode": "search",
            "seed": 3,
            "search": {"bucket_sizes": [8], "marked": [[]], "max_rounds": 10},
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_EXHAUSTED
    report = read_report(out)
    assert report["result"]["success"] is False
    assert report["result"]["rounds_used"] == 10


def test_search_cost_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "mode": "search",
            "seed": 1,
            "search": {
                "cost": {"type": "index_sum", "sizes": [8, 8], "offset": 0.0},
                "bounds": [0.5, 2.5],
            },
        },
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    report = read_report(out)
    path = report["result"]["path"]
    assert 0.5 < sum(path) < 2.5


def test_config_errors_exit_1(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(bad_json)]) == EXIT_CONFIG

    assert main(["--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    no_mode = write_config(tmp_path, {"seed": 1}, "no_mode.json")
    assert main(["--config", no_mode]) == EXIT_CONFIG

    bad_lambda = write_config(
        tmp_path,
        {
            "mode": "search",
            "search": {"bucket_sizes": [4], "marked": [[1]], "lambda": 2.0},
        },
        "bad_lambda.json",
    )
    assert main(["--config", bad_lambda]) == EXIT_CONFIG

    missing_problem = write_config(
        tmp_path, {"mode": "search", "search": {}}, "missing_problem.json"
    )
    assert main(["--config", missing_problem]) == EXIT_CONFIG


def mode_config(mode, section, seed=1):
    return {"mode": mode, "seed": seed, mode: section}


PRODUCT_ALL_MARKED = {"bucket_sizes": [4], "marked": [[0, 1, 2, 3]]}


@pytest.mark.parametrize(
    "payload",
    [
        mode_config("search", {"bucket_sizes": [4.9, True], "marked": [[1.7], [0]]}),
        mode_config("search", {"bucket_sizes": [4, True], "marked": [[1], [0]]}),
        mode_config("search", {"bucket_sizes": [4, 4], "marked": [[1.7], [0]]}),
        mode_config("search", {**PRODUCT_ALL_MARKED, "max_rounds": 2.5}),
        mode_config("search", PRODUCT_ALL_MARKED, seed=2.5),
        mode_config("brachistochrone", {"k": 2.6, "n": 3.9, "curve_samples": 5.5}),
        mode_config("brachistochrone", {"k": 2, "n": 3.9}),
        mode_config("brachistochrone", {"k": 2, "n": [4, 4.5]}),
        mode_config("brachistochrone", {"k": 2, "n": 4, "curve_samples": 5.5}),
        mode_config("brachistochrone", {"k": 2, "n": 4, "bisect": {"max_count": 2.5}}),
        mode_config("bisect", {"cost": {"type": "index_sum", "sizes": [8]}, "b0": 8.0,
                               "max_count": 2.5}),
        mode_config("analyze", {"task": "runtime", "bucket_sizes": [16], "marked": [[3]],
                                "trials": 2.5}),
        mode_config("analyze", {"task": "lemma", "bucket_sizes": [16], "marked": [[3]],
                                "m_values": [2], "trials": 2.5}),
        mode_config("brachistochrone", {"k": 2, "n": 4, "quadrature": {"base_panels": 16.5}}),
        mode_config("brachistochrone", {"k": 2, "n": 4, "quadrature": {"nodes_per_panel": True}}),
        mode_config("brachistochrone", {"k": 2, "n": 4, "quadrature": {"max_panels": 64.5}}),
    ],
    ids=[
        "bucket_sizes-and-marked",
        "bucket_sizes-bool",
        "marked-float",
        "max_rounds",
        "seed",
        "k-n-curve_samples",
        "n",
        "n-list",
        "curve_samples",
        "brachistochrone-bisect-max_count",
        "bisect-max_count",
        "runtime-trials",
        "lemma-trials",
        "quadrature-base_panels",
        "quadrature-nodes_per_panel",
        "quadrature-max_panels",
    ],
)
def test_fractional_or_boolean_integers_exit_1(tmp_path, payload):
    # these used to be truncated (4.9 -> 4, true -> 1) and run another experiment
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


TOY_COST = {"type": "index_sum", "sizes": [8]}
NON_NUMBERS = {
    "strict_paper-string": mode_config("search", {**PRODUCT_ALL_MARKED, "strict_paper": "false"}),
    "lambda-string": mode_config("search", {**PRODUCT_ALL_MARKED, "lambda": "1.01"}),
    "bounds-string": mode_config("search", {"cost": TOY_COST, "bounds": ["0.5", 2.5]}),
    "b0-inf-string": mode_config("bisect", {"cost": TOY_COST, "b0": "inf"}),
    "a0-list": mode_config("bisect", {"cost": TOY_COST, "b0": 8.0, "a0": [0.0]}),
    "epsilon-string": mode_config("bisect", {"cost": TOY_COST, "b0": 8.0, "epsilon": "0.1"}),
    "offset-null": mode_config("bisect", {"cost": {**TOY_COST, "offset": None}, "b0": 8.0}),
    "g-bool": mode_config("brachistochrone", {"k": 2, "n": 4, "g": True}),
    "g-null": mode_config("brachistochrone", {"k": 2, "n": 4, "g": None}),
    "rel_tol-string": mode_config("brachistochrone", {"k": 1, "n": 4,
                                                      "quadrature": {"rel_tol": "0.1"}}),
    "columns-flat": mode_config("brachistochrone", {"columns": [1.0, 1.5]}),
    "columns-string": mode_config("brachistochrone", {"columns": [["1.0"]]}),
    "lemma-trials-negative": mode_config("analyze", {"task": "lemma", "bucket_sizes": [16],
                                                     "marked": [[3]], "trials": -5}),
    "band_sigmas-list": mode_config("analyze", {"task": "lemma", "bucket_sizes": [16],
                                                "marked": [[3]], "band_sigmas": [3.0]}),
    "section-not-object": {"mode": "search", "search": [1, 2]},
}


@pytest.mark.parametrize("payload", NON_NUMBERS.values(), ids=NON_NUMBERS.keys())
def test_mistyped_fields_exit_1_with_one_line(tmp_path, capsys, payload):
    # these used to run with a coerced value or end in a traceback
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("bucket", [0, None, {}, ""], ids=["zero", "null", "object", "string"])
@pytest.mark.parametrize("mode, extra", [("search", {}), ("analyze", {"task": "runtime", "trials": 2})])
def test_falsy_non_list_bucket_marks_exit_1(tmp_path, capsys, mode, extra, bucket):
    # only [] is an empty bucket; these used to run as one and exit 2
    cfg = write_config(tmp_path, mode_config(mode, {**extra, "bucket_sizes": [4, 4], "marked": [bucket, [1]]}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mode}.marked[0] ") and err.count("\n") == 1


def test_usage_error_exits_1():
    assert main([]) == EXIT_CONFIG
    assert main(["--config"]) == EXIT_CONFIG


def toy_bisect_config():
    return {
        "mode": "bisect",
        "seed": 11,
        "bisect": {
            "cost": {"type": "index_sum", "sizes": [8], "offset": 1.0},
            "a0": 0.0,
            "b0": 8.0,
            "max_count": 3,
            "backend": "exhaustive",
        },
    }


def test_bisect_toy_trace(tmp_path):
    cfg = write_config(tmp_path, toy_bisect_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    result = read_report(out)["result"]
    assert result["interval"] == {"lower": 0.0, "upper": 2.0}
    assert result["rounds"] == 3
    assert [r["branch"] for r in result["trace"]] == ["lower", "lower", "none"]
    assert result["witness"] == {"path": [0], "cost": 1.0}


def test_bisect_invalid_bracket_and_max_count(tmp_path):
    payload = toy_bisect_config()
    payload["bisect"]["max_count"] = 0
    cfg = write_config(tmp_path, payload, "zero_count.json")
    assert main(["--config", cfg, "--out", str(tmp_path / "o1")]) == EXIT_CONFIG

    payload = toy_bisect_config()
    payload["bisect"]["a0"] = 9.0
    cfg = write_config(tmp_path, payload, "bad_bracket.json")
    assert main(["--config", cfg, "--out", str(tmp_path / "o2")]) == EXIT_CONFIG


def test_bisect_auto_upper_bound_echoed(tmp_path):
    payload = toy_bisect_config()
    del payload["bisect"]["b0"]
    cfg = write_config(tmp_path, payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out_b)]) == EXIT_OK
    b0_a = read_report(out_a)["config"]["b0"]
    b0_b = read_report(out_b)["config"]["b0"]
    assert b0_a == b0_b
    assert 1.0 <= b0_a <= 8.0  # a real path cost


def test_bisect_mode_and_brachistochrone_bisect_agree(tmp_path):
    # same grid, seed and bisect settings (b0 bootstrapped) through both entry points
    settings = {"max_count": 4, "epsilon": 0.001}
    grid = {"k": 2, "n": 4}
    bisect_cfg = write_config(
        tmp_path,
        {"mode": "bisect", "seed": 21,
         "bisect": {"cost": {"type": "brachistochrone", **grid}, **settings}},
        "bisect.json",
    )
    brach_cfg = write_config(
        tmp_path,
        {"mode": "brachistochrone", "seed": 21, "brachistochrone": {**grid, "bisect": settings}},
        "brach.json",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", bisect_cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["--config", brach_cfg, "--out", str(out_b)]) == EXIT_OK
    via_bisect, via_brach = read_report(out_a), read_report(out_b)
    echo = dict(via_bisect["config"])
    del echo["cost"]
    assert echo == via_brach["config"]["bisect"]
    assert via_bisect["result"] == via_brach["result"]["bisect"]
    assert via_bisect["result"]["rounds"] >= 1


def brach_config(extra=None):
    section = {"k": 2, "n": 4, "curve_samples": 20}
    if extra:
        section.update(extra)
    return {"mode": "brachistochrone", "seed": 21, "brachistochrone": section}


def test_brachistochrone_report_and_csv(tmp_path):
    cfg = write_config(tmp_path, brach_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    result = read_report(out)["result"]
    assert result["cycloid_floor"] <= result["minimum"]["cost"]
    assert abs(result["straight_line_cost"] - 1.1896494253405916) <= 1e-12
    with (out / "minimum_curve.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "y"]
    assert len(rows) == 21  # header + curve_samples
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(math.pi)


def test_brachistochrone_enumerate_and_bisect(tmp_path):
    cfg = write_config(
        tmp_path,
        brach_config({"enumerate": [1.0, 1.2], "bisect": {"max_count": 4}}),
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    result = read_report(out)["result"]
    enum = result["enumerate"]
    with (out / "enumeration.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["i0", "i1", "cost"]
    assert len(rows) == enum["solution_count"] + 1
    assert 0.0 <= enum["cross_path_rate"] <= 1.0
    assert result["bisect"]["rounds"] >= 1


def test_brachistochrone_schedule_flags_reach_bisect(tmp_path):
    flags = ["--max-count", "2", "--max-rounds", "5", "--strict-paper"]
    cfg = write_config(tmp_path, brach_config({"bisect": {"max_count": 8}}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), *flags]) == EXIT_OK
    report = read_report(out)
    echo = report["config"]["bisect"]
    assert (echo["max_count"], echo["max_rounds"], echo["strict_paper"]) == (2, 5, True)
    assert report["result"]["bisect"]["rounds"] <= 2
    # without a bisection there is nothing for the flags to act on
    cfg = write_config(tmp_path, brach_config(), "no_bisect.json")
    assert main(["--config", cfg, "--out", str(tmp_path / "o2"), "--max-count", "2"]) == EXIT_CONFIG


def test_brachistochrone_cap_exit_1(tmp_path):
    cfg = write_config(tmp_path, {"mode": "brachistochrone", "seed": 0,
                                  "brachistochrone": {"k": 9, "n": 8}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def lemma_config(extra=None):
    section = {"task": "lemma", "bucket_sizes": [16], "marked": [[3]]}
    if extra:
        section.update(extra)
    return {"mode": "analyze", "seed": 5, "analyze": section}


def test_analyze_lemma_default_sweep(tmp_path):
    cfg = write_config(tmp_path, lemma_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    result = read_report(out)["result"]
    assert result["violations"] == 0
    alpha_star = result["alpha_star"]
    sweep = [row["m"] for row in result["rows"]]
    assert sweep[0] == math.ceil(alpha_star) + 1
    assert sweep[-1] == math.floor(4 * alpha_star)
    with (out / "lemma.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["m", "closed_form", "floor", "above_floor"]
    assert len(rows) == len(sweep) + 1


def test_analyze_lemma_empty_sweep_exit_1(tmp_path):
    cfg = write_config(tmp_path, lemma_config({"m_values": []}))
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_analyze_lemma_default_sweep_stops_at_sqrt_n_when_simulated(tmp_path):
    # 4 alpha* passes sqrt(64) = 8 here; simulated rounds must stay at or below it
    section = {"bucket_sizes": [64, 64], "marked": [[3], [9]], "trials": 500}
    cfg = write_config(tmp_path, lemma_config(section))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    result = read_report(out)["result"]
    assert math.floor(4 * result["alpha_star"]) > 8
    sweep = [row["m"] for row in result["rows"]]
    assert sweep[0] == math.ceil(result["alpha_star"]) + 1
    assert sweep[-1] == 8
    assert all("within_band" in row for row in result["rows"])


def test_analyze_degenerate_bucket_exit_1(tmp_path):
    cfg = write_config(tmp_path, lemma_config({"marked": [[]]}))
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def runtime_config():
    section = {"task": "runtime", "bucket_sizes": [16, 16], "marked": [[5], [11]], "trials": 24}
    return {"mode": "analyze", "seed": 9, "analyze": section}


def test_analyze_lemma_empirical_jobs_invariant(tmp_path):
    # both trial sweeps: the lemma's empirical rows and the runtime trials
    lemma = lemma_config({"m_values": [2, 3], "trials": 1200})
    sweeps = ((lemma, ["lemma.csv"]), (runtime_config(), ["runtime.csv", "trials.csv"]))
    for payload, tables in sweeps:
        task = payload["analyze"]["task"]
        cfg = write_config(tmp_path, payload, f"{task}.json")
        out1, out2 = tmp_path / f"{task}-j1", tmp_path / f"{task}-j2"
        assert main(["--config", cfg, "--out", str(out1), "--jobs", "1"]) == EXIT_OK
        assert main(["--config", cfg, "--out", str(out2), "--jobs", "2"]) == EXIT_OK
        assert stripped(out1) == stripped(out2)
        for name in tables:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for row in read_report(tmp_path / "lemma-j1")["result"]["rows"]:
        assert row["within_band"] is True


def test_analyze_lemma_empirical_matches_library(tmp_path):
    from gridgrover import GridProblem, MarkedSet, empirical_vs_closed_form

    payload = lemma_config({"m_values": [2], "trials": 400})
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
    row = read_report(out)["result"]["rows"][0]
    problem = GridProblem.product([MarkedSet.from_indices(16, [3])])
    want = empirical_vs_closed_form(problem, [2], trials=400, seed=5)[0]
    assert row["empirical"] == want.empirical
    assert row["within_band"] == want.within_band


def test_analyze_runtime_table(tmp_path):
    cfg = write_config(tmp_path, runtime_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--jobs", "2"]) == EXIT_OK
    result = read_report(out)["result"]
    assert result["trials"] == 24
    assert 0.0 <= result["success_rate"] <= 1.0
    assert result["total_bound"] == pytest.approx(
        result["pre_critical"] + result["post_critical"]
    )
    with (out / "trials.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 25
    with (out / "runtime.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, toy_bisect_config())
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--seed", "77"]) == EXIT_OK
    assert read_report(out)["seed"] == 77


def test_mode_flag_overrides_config(tmp_path):
    payload = toy_bisect_config()
    payload["mode"] = "search"
    payload["search"] = {"bucket_sizes": [2], "marked": [[0, 1]]}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--mode", "bisect"]) == EXIT_OK
    assert read_report(out)["mode"] == "bisect"


def test_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, brach_config({"enumerate": [1.0, 1.2]}))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert stripped(out1) == stripped(out2)
    for name in ("minimum_curve.csv", "enumeration.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(seed, rate, rss, failed=0):
    """A canned (final payload, stamps) pair as one ``--workload all`` run prints it."""
    final = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "bisect-3x8/units_per_s": {"value": rate, "unit": "1/s"},
            "board-3x16/peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    stamps = [
        {"workload": w, "git_sha": "abc", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
         "cpu_model": "cpu", "seed": seed, "seconds": 10, "trace": 0, "smoke": False}
        for w in ("bisect-3x8", "board-3x16")
    ]
    return final, stamps


def test_aggregate_takes_median_and_quartiles_per_metric():
    rates = [100.0, 120.0, 90.0, 130.0, 110.0]
    runs = [_run(seed, rate, 40.0 + seed) for seed, rate in enumerate(rates, 1)]
    section = bench_record.aggregate(runs, 10)
    assert section["stamp"] == {"git_sha": "abc", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
                                "cpu_model": "cpu", "seconds": 10, "trace": 0, "smoke": False}
    assert (section["repeats"], section["seconds"], section["seeds"]) == (5, 10, [1, 2, 3, 4, 5])
    assert section["correct"] and section["error_frac"] == 0.0
    rate = section["metrics"]["bisect-3x8/units_per_s"]
    # exclusive quartiles of 90, 100, 110, 120, 130: positions 1.5 and 4.5
    assert (rate["median"], rate["q1"], rate["q3"], rate["iqr"]) == (110.0, 95.0, 125.0, 30.0)
    assert rate["unit"] == "1/s" and rate["values"] == rates
    assert section["metrics"]["board-3x16/peak_rss_mb"]["median"] == 43.0


def test_aggregate_counts_failures_and_needs_two_runs():
    section = bench_record.aggregate([_run(1, 1.0, 1.0), _run(2, 2.0, 1.0, failed=5)], 25)
    assert not section["correct"]
    assert section["error_frac"] == 5 / 200
    with pytest.raises(ValueError):
        bench_record.aggregate([_run(1, 1.0, 1.0)], 25)


def _checkout(path):
    """An empty git checkout at ``path``: clean until a file is added."""
    path.mkdir()
    subprocess.run(["git", "init", "-q", str(path)], check=True)
    return path


def test_sections_are_merged_into_the_bench_file(tmp_path, monkeypatch):
    calls = []

    def run_once(root, seed, seconds):
        calls.append((root.name, seed))
        return _run(seed, 10.0 * seed + (root.name == "change"), 2.0)

    monkeypatch.setattr(bench_record, "run_once", run_once)
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"earlier": {"repeats": 5}}))
    argv = ["--out", str(out), "--section", f"parent={parent}", "--section", f"change={change}",
            "--seeds", "3"]
    assert bench_record.main(argv) == 0
    # each seed runs both checkouts, the parent first on odd seeds
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    report = json.loads(out.read_text())
    assert list(report) == ["earlier", "parent", "change"]
    assert report["earlier"] == {"repeats": 5}
    assert report["parent"]["seeds"] == report["change"]["seeds"] == [1, 2, 3]
    assert report["parent"]["metrics"]["bisect-3x8/units_per_s"]["values"] == [10.0, 20.0, 30.0]
    assert report["change"]["metrics"]["bisect-3x8/units_per_s"]["median"] == 21.0


def test_a_root_that_is_not_a_clean_checkout_is_refused(tmp_path, monkeypatch, capsys):
    # perfbench stamps HEAD, so a run over uncommitted files would carry
    # the SHA of a tree that did not run; a clean parent does not run alone
    monkeypatch.setattr(bench_record, "run_once", lambda root, seed, seconds: pytest.fail("ran"))
    clean = _checkout(tmp_path / "clean")
    root = _checkout(tmp_path / "checkout")
    (root / "edited.py").write_text("x = 1\n")
    plain = tmp_path / "plain"
    plain.mkdir()
    out = tmp_path / "BENCH.json"
    missing = tmp_path / "missing"
    for bad, shown in ((root, "?? edited.py"), (plain, "not a git repository"), (missing, "cannot change")):
        with pytest.raises(SystemExit) as exit_:
            bench_record.main(["--out", str(out), "--section", f"parent={clean}",
                               "--section", f"change={bad}"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "not a clean git checkout" in err and shown in err
        assert not out.exists()


@pytest.mark.parametrize("sections", [["change"], ["=dir"], ["change="], ["a=x", "a=y"]])
def test_malformed_or_repeated_sections_are_refused(tmp_path, monkeypatch, sections):
    monkeypatch.setattr(bench_record, "run_once", lambda root, seed, seconds: pytest.fail("ran"))
    argv = ["--out", str(tmp_path / "BENCH.json")]
    for value in sections:
        argv += ["--section", value]
    with pytest.raises(SystemExit) as exit_:
        bench_record.main(argv)
    assert exit_.value.code == 2

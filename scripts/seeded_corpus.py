"""Pin the seeded outputs of the CLI: SHA-256 digests of a fixed set of runs.

    PYTHONPATH=src python3 scripts/seeded_corpus.py [--out tests/data/seeded_corpus.json]

Runs every config of ``CONFIGS`` in-process through ``gridgrover.cli.main``
and writes, per config, its exit code and the SHA-256 of ``report.json``
(its timestamp line removed) and of each CSV it wrote, together with the
numpy version the digests were made with.  ``tests/test_seeded_corpus.py``
reruns the configs and compares.  The configs cover every mode, both
interpolation kinds, both bisection backends, a strict search and a
search with an empty bucket, a board of 68,921 paths that spans two
scan chunks of rows, and run the lemma and runtime analyses at
``--jobs`` 1 and 2.  Regenerate the file only for a change that is meant
to change seeded outputs, and say which in the change's notes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from gridgrover.cli import main as cli_main

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "seeded_corpus.json"

_BOARD = {"k": 3, "n": 8, "enumerate": [0.0, 1.3], "bisect": {"max_count": 4}}
_INDEX_SUM = {"type": "index_sum", "sizes": [6, 5, 4], "offset": 0.25}
_LEMMA = {"task": "lemma", "bucket_sizes": [64, 64], "marked": [[3, 40], [9]], "trials": 5000}
_RUNTIME = {"task": "runtime", "bucket_sizes": [32, 16, 8], "marked": [[5], [2, 11], [7]], "trials": 40}

# name -> (mode section, seed, --jobs)
CONFIGS: dict[str, tuple[dict, int, int]] = {
    "search-product": (
        {"mode": "search", "search": {"bucket_sizes": [16, 9, 32], "marked": [[3, 7], [0, 4, 8], [31]]}}, 5, 1),
    "search-strict": (
        {"mode": "search", "search": {"bucket_sizes": [64, 64], "marked": [[5], [60]], "strict_paper": True}}, 2, 1),
    "search-empty-bucket": (
        {"mode": "search", "search": {"bucket_sizes": [8, 8], "marked": [[], [1]], "max_rounds": 40}}, 3, 1),
    "search-cost": (
        {"mode": "search", "search": {"cost": {"type": "index_sum", "sizes": [8, 8]}, "bounds": [0.5, 2.5]}}, 1, 1),
    "bisect-grover": ({"mode": "bisect", "bisect": {"cost": _INDEX_SUM, "backend": "grover"}}, 7, 1),
    "bisect-exhaustive": ({"mode": "bisect", "bisect": {"cost": _INDEX_SUM, "backend": "exhaustive"}}, 7, 1),
    "brachistochrone-polynomial": ({"mode": "brachistochrone", "brachistochrone": _BOARD}, 11, 1),
    "brachistochrone-linear": (
        {"mode": "brachistochrone", "brachistochrone": {**_BOARD, "interpolation": "linear"}}, 11, 1),
    "brachistochrone-chunks": (
        {"mode": "brachistochrone",
         "brachistochrone": {"k": 3, "n": 41, "enumerate": [1.0, 1.012], "bisect": {"max_count": 4}}}, 19, 1),
    "lemma-jobs1": ({"mode": "analyze", "analyze": _LEMMA}, 13, 1),
    "lemma-jobs2": ({"mode": "analyze", "analyze": _LEMMA}, 13, 2),
    "runtime-jobs1": ({"mode": "analyze", "analyze": _RUNTIME}, 17, 1),
    "runtime-jobs2": ({"mode": "analyze", "analyze": _RUNTIME}, 17, 2),
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data = b"".join(l for l in data.splitlines(keepends=True) if b'"timestamp"' not in l)
    return hashlib.sha256(data).hexdigest()


def run_config(name: str) -> dict:
    """Exit code and per-file digests of one run of ``CONFIGS[name]``."""
    config, seed, jobs = CONFIGS[name]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = cli_main(["--config", str(cfg), "--out", str(out), "--seed", str(seed), "--jobs", str(jobs)])
        files = {p.name: _digest(p) for p in sorted(out.iterdir())}
    return {"exit": code, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    corpus = {"numpy": np.__version__, "configs": {name: run_config(name) for name in CONFIGS}}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

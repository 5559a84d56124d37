"""Seeded CLI outputs stay byte for byte what ``tests/data/seeded_corpus.json`` pins.

The corpus is written by ``scripts/seeded_corpus.py``; each test reruns
one of its configs in-process and compares the exit code and the digest
of every output file.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("seeded_corpus", _ROOT / "scripts" / "seeded_corpus.py")
seeded_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seeded_corpus)

CORPUS = json.loads((_ROOT / "tests" / "data" / "seeded_corpus.json").read_text(encoding="utf-8"))


def test_corpus_pins_every_config():
    assert sorted(CORPUS["configs"]) == sorted(seeded_corpus.CONFIGS)


@pytest.mark.parametrize("name", sorted(seeded_corpus.CONFIGS))
def test_seeded_outputs_match_the_corpus(name):
    want, got = CORPUS["configs"][name], seeded_corpus.run_config(name)
    made_with = f"corpus made with numpy {CORPUS['numpy']}, running numpy {np.__version__}"
    assert got["exit"] == want["exit"], f"{name}: exit code {got['exit']} != {want['exit']} ({made_with})"
    assert sorted(got["files"]) == sorted(want["files"]), f"{name}: output files differ ({made_with})"
    for file, digest in want["files"].items():
        assert got["files"][file] == digest, f"{name}: {file} differs from the corpus ({made_with})"

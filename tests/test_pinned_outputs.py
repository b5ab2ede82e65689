"""The pinned benchmark expectations in bench/expected/, checked in-process.

Each pinned CLI argv is replayed through cli.run from the repository root
(the argvs name fixtures by relative path), and its stdout bytes and exit
code must match; each corpus cone's Chow and K verdicts must match their
pinned fields.  The files are read only; bench/pin.py writes them.
"""

import json
from pathlib import Path

import pytest

from corpus import corpus_cones
from toricstacks.chow import verify_vanishing
from toricstacks.cli import run
from toricstacks.ktheory import verify_k_vanishing

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "bench" / "expected"
CONES = corpus_cones()


def _load(name):
    return json.loads((EXPECTED / (name + ".json")).read_text("utf-8"))


CLI = _load("cli_fixtures")
CHOW = _load("chow_corpus")
K_WINDOW = _load("k_window")


def test_pins_cover_the_corpus():
    assert len(CLI) == 37
    assert len(CHOW) == len(K_WINDOW) == len(CONES) == 20


@pytest.mark.parametrize("pin", CLI, ids=[" ".join(p["argv"]) for p in CLI])
def test_cli_stdout_and_exit_code(pin, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = run(pin["argv"])
    out = capsys.readouterr().out
    assert code == pin["exit"]
    assert out == pin["stdout"]


@pytest.mark.parametrize("i", range(len(CHOW)))
def test_chow_corpus_verdict(i):
    report = verify_vanishing(CONES[i], 4)
    assert report.conclusion == CHOW[i]["conclusion"]
    assert [[k, free, list(tors)] for k, free, tors in report.pieces] \
        == CHOW[i]["pieces"]


@pytest.mark.parametrize("i", range(len(K_WINDOW)))
def test_k_window_verdict(i):
    pin = K_WINDOW[i]
    report = verify_k_vanishing(CONES[i], pin["box"])
    assert report.conclusion == pin["conclusion"]
    assert report.window_rank == pin["window_rank"]
    assert (None if report.torsion is None else list(report.torsion)) \
        == pin["torsion"]

"""Replay the pinned CLI runs of ``record_golden.py`` against ``golden_cli.json``."""

import functools
import json

import pytest

from graphstrata.cli import main
from record_golden import CASES, GOLDEN_PATH, digest, output

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@functools.cache
def _output(name):
    """One run per case, shared by the digest check and any test reading the output."""
    return output(main, CASES[name])


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert digest(*_output(name)) == GOLDEN[name]


def test_genus_5_census_class_count():
    # 4,555 is this code's count of stable graph classes of genus 5 without
    # legs, pinned with the digest above; it is not checked against a
    # published table, which is not transcribed into this repository.
    code, text = _output("enumerate 5 0 --max-size 12")
    assert (code, json.loads(text)["total"]) == (0, 4555)


def test_recorder_adds_missing_cases_and_keeps_recorded_ones(tmp_path, monkeypatch):
    import record_golden

    kept, added = sorted(CASES)[:2]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({kept: "recorded earlier"}), encoding="utf-8")
    monkeypatch.setattr(record_golden, "GOLDEN_PATH", path)
    monkeypatch.setattr(record_golden, "CASES", {name: CASES[name] for name in (kept, added)})
    assert record_golden.main() == 0
    assert json.loads(path.read_text(encoding="utf-8")) == {
        kept: "recorded earlier",
        added: GOLDEN[added],
    }

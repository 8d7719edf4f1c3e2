"""Replay the pinned CLI runs of ``record_golden.py`` against ``golden_cli.json``."""

import json

import pytest

from graphstrata.cli import main
from record_golden import CASES, GOLDEN_PATH, run

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert run(main, CASES[name]) == GOLDEN[name]

from pathlib import Path

import pytest
from hypothesis import settings

from graphstrata.descent import parse_marking_document

FIXTURES = Path(__file__).parent / "fixtures"

# Every property test draws the same examples on every run, keeps no
# example database and has no deadline; a module sets only its own
# example count and health checks.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def intro_marking():
    text = (FIXTURES / "intro-example.desc").read_text()
    return parse_marking_document(text, "intro-example.desc")


@pytest.fixture(scope="session")
def intro_small_group_marking():
    text = (FIXTURES / "intro-small-group.desc").read_text()
    return parse_marking_document(text, "intro-small-group.desc")

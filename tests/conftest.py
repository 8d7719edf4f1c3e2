from pathlib import Path

import pytest

from graphstrata.descent import parse_marking_document
from graphstrata.stablegraph import enumerate_stable_graphs

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def census03():
    return enumerate_stable_graphs(0, 3)


@pytest.fixture(scope="session")
def census04():
    return enumerate_stable_graphs(0, 4)


@pytest.fixture(scope="session")
def census05():
    return enumerate_stable_graphs(0, 5)


@pytest.fixture(scope="session")
def census11():
    return enumerate_stable_graphs(1, 1)


@pytest.fixture(scope="session")
def census12():
    return enumerate_stable_graphs(1, 2)


@pytest.fixture(scope="session")
def census20():
    return enumerate_stable_graphs(2, 0)


@pytest.fixture(scope="session")
def all_censuses(census03, census04, census05, census11, census12, census20):
    return [census03, census04, census05, census11, census12, census20]


@pytest.fixture(scope="session")
def intro_marking():
    text = (FIXTURES / "intro-example.desc").read_text()
    return parse_marking_document(text, "intro-example.desc")


@pytest.fixture(scope="session")
def intro_small_group_marking():
    text = (FIXTURES / "intro-small-group.desc").read_text()
    return parse_marking_document(text, "intro-small-group.desc")

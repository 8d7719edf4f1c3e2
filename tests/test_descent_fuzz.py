"""Seeded fuzz of the descent commands on mutated fixture documents.

Every run must keep the exit-code contract: 0, 1 or 2 and no traceback;
exit 2 prints exactly one ``error:`` line on stderr and nothing on stdout;
exits 0 and 1 print nothing on stderr.  Mutations include hostile
``group =`` and ``m =`` lines.  Group texts stay short and degrees stay at
most 11, so no mutation asks for a large closure.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphstrata.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
MARKINGS = ("intro-example.desc", "intro-small-group.desc")
MORPHISM = "twist-endomorphism.desc"

HOSTILE_GROUPS = (
    "",
    "()",
    ",",
    "(1 2),,(3 4)",
    "(3 4),(1 2)",
    "(1 2)(3 4),(1 3)(2 4)",
    "(1 2 3 4),(1 2)",
    "(1 2 3 4 5)",
    "(0 1)",
    "(-1 2)",
    "(1 1)",
    "(1 2)(2 3)",
    "((1 2)",
    "(1 2",
    "1 2)",
    "(1 2) x",
    "(99999999999999999999999 1)",
    "(１ ２)",
    "(1\t2)",
    ",".join(["(1 2)"] * 200),
)
M_VALUES = ("0", "-1", "1", "2", "3", "5", "6", "10", "11", "four", "", "4.0", "9" * 30)
IDENTIFIERS = ("p1", "p2", "p5", "s1", "s2", "s3", "x", "y", "", "p1 p1", "a*b", "é")

_group_text = st.one_of(
    st.sampled_from(HOSTILE_GROUPS),
    st.text(alphabet="()0123456789 ,-", max_size=10),
)


@st.composite
def _mutated(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 7))
        k = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines:
            lines = [draw(st.text(max_size=20))]
        elif kind == 0:
            del lines[k]
        elif kind == 1:
            lines.insert(k, lines[k])
        elif kind == 2:
            lines = [
                "group = " + draw(_group_text) if ln.startswith("group") else ln
                for ln in lines
            ]
        elif kind == 3:
            lines = [
                "m = " + draw(st.sampled_from(M_VALUES)) if ln.startswith("m =") else ln
                for ln in lines
            ]
        elif kind == 4:
            old = draw(st.sampled_from(IDENTIFIERS[:7]))
            lines[k] = lines[k].replace(old, draw(st.sampled_from(IDENTIFIERS)))
        elif kind == 5:
            pos = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:pos] + draw(st.text(max_size=6)) + lines[k][pos:]
        elif kind == 6:
            pos = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:pos]
        else:
            lines.insert(k, "group = " + draw(_group_text))
    return "\n".join(lines) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    else:
        assert err == "", argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


_FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_FUZZ
@given(data=st.data(), name=st.sampled_from(MARKINGS))
def test_mutated_markings_keep_the_exit_contract(workdir, data, name):
    original = (FIXTURES / name).read_text()
    text = data.draw(_mutated(original))
    path = _write(workdir, "marking.desc", text)
    other = _write(workdir, "other.desc", data.draw(_mutated(original)))
    _check_contract(["verify-descent", path])
    _check_contract(["equiv-descent", path, str(FIXTURES / name)])
    _check_contract(["equiv-descent", path, other])
    _check_contract(["verify-morphism", path])


@_FUZZ
@given(data=st.data())
def test_mutated_morphisms_keep_the_exit_contract(workdir, data):
    text = data.draw(_mutated((FIXTURES / MORPHISM).read_text()))
    path = _write(workdir, "morphism.desc", text)
    _check_contract(["verify-morphism", path])
    _check_contract(["verify-descent", path])

"""Golden corpus: exit status and JSON stdout of fixed CLI invocations.

Every command and every check suite appears at least once, at sizes that
keep the whole corpus to a few seconds. `python tests/test_golden.py`
rewrites `golden_cli.json` from the current code; an intended change of
output shows up as a diff of that file.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from frobcat.cli import run

DATA = Path(__file__).with_name("golden_cli.json")

INVOCATIONS = [
    ["fusion", "--p", "2"],
    ["fusion", "--p", "5"],
    ["fusion", "--p", "4"],
    ["green", "--p", "2"],
    ["green", "--p", "3"],
    ["green", "--p", "5"],
    ["green", "--p", "7"],
    ["frob", "--p", "2", "--module", "J2 + J1"],
    ["frob", "--p", "3", "--module", "J2 + J1"],
    ["frob", "--p", "5", "--module", "J3 + J2"],
    ["frob", "--p", "5", "--module", "J5 + J1"],
    ["frob", "--p", "3", "--module", "2*J3 + J2 + J1"],
    ["frob", "--p", "7", "--module", "J4"],
    ["frob", "--p", "7", "--module", "J4 + J1"],
    ["frob", "--p", "2", "--module", "65*J1"],
    ["semisimplify", "--p", "5", "--module", "2*J5 + J3"],
    ["semisimplify", "--p", "7", "--module", "J6 + J2 + J1"],
    ["hilbert", "--p", "2", "--module", "J2", "--terms", "12"],
    ["hilbert", "--p", "3", "--module", "J2 + J1", "--terms", "10"],
    ["hilbert", "--p", "5", "--module", "J4", "--terms", "6"],
    ["hilbert", "--p", "3", "--module", "J2 + J2", "--terms", "8"],
    ["hilbert", "--p", "3", "--module", "J1", "--terms", "5"],
    ["check", "--suite", "nilmod", "--p", "3", "--trials", "4"],
    ["check", "--suite", "nilmod", "--p", "65521", "--trials", "2", "--dim-cap", "8"],
    ["check", "--suite", "splitting", "--p", "2", "--trials", "3", "--dim-cap", "4"],
    ["check", "--suite", "splitting", "--p", "3", "--trials", "2"],
    ["check", "--suite", "sixper", "--p", "2", "--trials", "10"],
    ["check", "--suite", "sixper", "--p", "3", "--trials", "2"],
    ["check", "--suite", "sixper", "--p", "5", "--trials", "1"],
    ["check", "--suite", "sixper", "--p", "7"],
    ["check", "--suite", "additivity", "--p", "3", "--trials", "2"],
    ["check", "--suite", "additivity", "--p", "2", "--trials", "3"],
    ["check", "--suite", "monoidality", "--p", "3", "--trials", "2"],
    ["check", "--suite", "monoidality", "--p", "5", "--trials", "2"],
    ["check", "--suite", "greenhom", "--p", "5", "--trials", "4", "--dim-cap", "10"],
    ["check", "--suite", "fpdim", "--p", "3", "--trials", "4"],
    ["check", "--suite", "fpdim", "--p", "5", "--trials", "4"],
    ["check", "--suite", "fpdim", "--p", "7", "--trials", "3"],
    ["check", "--suite", "lemm1", "--p", "3"],
    ["hilbert", "--p", "3", "--module", "J2 + J2", "--terms", "20"],
    ["check", "--suite", "sixper", "--p", "5", "--trials", "2", "--dim-cap", "7"],
    ["green", "--p", "13"],
    ["check", "--suite", "lemm1", "--p", "5"],
    ["check", "--suite", "lemm1", "--p", "7", "--trials", "2"],
]


def invoke(argv: list[str]) -> dict:
    """Exit status and stdout of one in-process run with --format json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = run(argv + ["--format", "json"])
    return {"argv": argv, "status": status, "stdout": out.getvalue()}


def test_golden_corpus_covers_every_command_and_suite():
    from frobcat.cli import SUITES, _HANDLERS

    assert {argv[0] for argv in INVOCATIONS} == set(_HANDLERS)
    assert {argv[2] for argv in INVOCATIONS if argv[0] == "check"} == set(SUITES)


@pytest.mark.parametrize("index", range(len(INVOCATIONS)))
def test_golden_output(index):
    want = json.loads(DATA.read_text(encoding="utf-8"))[index]
    assert want["argv"] == INVOCATIONS[index]
    assert invoke(INVOCATIONS[index]) == want


if __name__ == "__main__":
    records = [invoke(argv) for argv in INVOCATIONS]
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")

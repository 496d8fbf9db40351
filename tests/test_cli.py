"""Command-line interface: parsing, reports, suites, replay."""
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from frobcat.cli import CliError, load_rep, parse_module_spec, run
from frobcat.linalg import DEFAULT_BUDGET_MB
from frobcat.repcat import cyclic_rep, rep_to_json


def lines_of(capsys):
    out = capsys.readouterr()
    return out.out.strip("\n").split("\n"), out.err


def test_parse_module_spec():
    assert parse_module_spec("J3 + 2*J5", 7) == (5, 5, 3)
    assert parse_module_spec(" 1 * J2 ", 3) == (2,)
    with pytest.raises(CliError, match="cannot parse"):
        parse_module_spec("J2 + bogus", 5)
    with pytest.raises(CliError, match="outside"):
        parse_module_spec("J9", 5)
    with pytest.raises(CliError, match="positive"):
        parse_module_spec("0*J2", 5)


def test_fusion_command(capsys):
    assert run(["fusion", "--p", "5"]) == 0
    lines, _ = lines_of(capsys)
    assert "schema\t1" in lines
    assert any(l.startswith("fpdim\tL_2\t1.61803398875") for l in lines)
    assert "product\tL_2\tL_2\tL_3 + L_1" in lines


def test_fusion_rejects_composite(capsys):
    assert run(["fusion", "--p", "4"]) == 2
    _, err = lines_of(capsys)
    assert "error: p = 4 is not prime" in err


def _replay(check, p, trial=0, dim_cap=4, seed=0):
    """A replay file's contents; the test writes it out and passes its path."""
    violations = [{"trial": trial}]
    return {"check": check, "p": p, "seed": seed, "dim_cap": dim_cap, "violations": violations}


def _rep_file(entry=None, group=(), **fields):
    """A rep file's contents: J2 at p = 3 with `fields` and the `group` fields
    replaced and, given `entry`, its first matrix entry replaced."""
    obj = rep_to_json(cyclic_rep(3, (2,)))
    obj.update(fields)
    obj["group"].update(group)
    if entry is not None:
        obj["matrices"][0][0][0] = entry
    return obj


# argv, exit status, stderr fragment (None: no message), wall-clock bound in s;
# a dict in argv is written to a file whose path takes its place
HOSTILE_INPUTS = {
    # 2^61 - 1 is prime; trial division up to its square root would take minutes
    "modulus-too-large-for-int64": (
        ["check", "--suite", "nilmod", "--p", str(2**61 - 1), "--trials", "1"], 2, "too large", 1.0
    ),
    # a refused run builds no trial list: lemm1's default trial count is read off
    # its table by p, so no count that grows with p is formed before p is refused
    "lemm1-default-trials-modulus-too-large": (
        ["check", "--suite", "lemm1", "--p", str(2**61 - 1)], 2, "too large", 1.0
    ),
    "huge-trials-at-p-4": (
        ["check", "--suite", "nilmod", "--p", "4", "--trials", str(2**60)], 2,
        "p = 4 is not prime", 1.0,
    ),
    "huge-trials-negative-cap": (
        ["check", "--suite", "nilmod", "--p", "3", "--trials", str(2**60), "--dim-cap", "-1"],
        2, "--dim-cap must be nonnegative", 1.0,
    ),
    "frob-at-p-65521":(["frob", "--p", "65521", "--module", "J2"], 0, None, 10.0),
    # 2(p - 1) components: priced once the rep is built, whose cost does not grow with p
    "frob-at-p-1000003": (
        ["frob", "--p", "1000003", "--module", "J1"], 2, "frob report needs", 1.0
    ),
    "frob-at-p-2147483647": (
        ["frob", "--p", str(2**31 - 1), "--module", "J1"], 2, "frob report needs", 1.0
    ),
    "semisimplify-at-p-1000003": (
        ["semisimplify", "--p", "1000003", "--module", "J2"], 0, None, 3.0
    ),
    # Z/p has no p-letter relation and its Jordan types stop at the dimension,
    # so work that never forms a p-long class does not grow with p
    "hilbert-at-p-2147483647": (
        ["hilbert", "--p", str(2**31 - 1), "--module", "J2", "--terms", "10"], 0, None, 1.0
    ),
    "hilbert-at-p-3037000493": (
        ["hilbert", "--p", "3037000493", "--module", "J2", "--terms", "10"], 0, None, 1.0
    ),
    # the dense class of p - 1 multiplicities is priced where it is made
    "semisimplify-at-p-2147483647": (
        ["semisimplify", "--p", str(2**31 - 1), "--module", "J2"], 2, "fusion class needs", 1.0
    ),
    "greenhom-at-p-2147483647": (
        ["check", "--suite", "greenhom", "--p", str(2**31 - 1), "--trials", "2", "--dim-cap", "4"],
        2, "fusion class needs", 1.0,
    ),
    "nilmod-cap-0": (
        ["check", "--suite", "nilmod", "--p", "3", "--dim-cap", "0"], 2, "--dim-cap >= 1", 1.0
    ),
    "greenhom-cap-0": (
        ["check", "--suite", "greenhom", "--p", "3", "--dim-cap", "0"], 2, "--dim-cap >= 1", 1.0
    ),
    "fpdim-cap-0": (
        ["check", "--suite", "fpdim", "--p", "3", "--dim-cap", "0"], 2, "--dim-cap >= 1", 1.0
    ),
    "sixper-cap-0": (
        ["check", "--suite", "sixper", "--p", "3", "--dim-cap", "0"], 2, "--dim-cap >= 2", 1.0
    ),
    "sixper-cap-1": (
        ["check", "--suite", "sixper", "--p", "3", "--dim-cap", "1"], 2, "--dim-cap >= 2", 1.0
    ),
    # a replay file gets the flag path's checks
    "replay-nilmod-at-p-4": (
        ["check", "--replay", _replay("nilmod", 4)], 2, "p = 4 is not prime", 1.0
    ),
    "replay-sixper-at-p-7": (
        ["check", "--replay", _replay("sixper", 7)], 2, "suite sixper supports p in [2, 3, 5]", 1.0
    ),
    "replay-trial-minus-1": (
        ["check", "--replay", _replay("nilmod", 3, trial=-1)], 2,
        "trial indices must be nonnegative, got -1", 1.0,
    ),
    "replay-negative-cap": (
        ["check", "--replay", _replay("splitting", 3, dim_cap=-1)], 2,
        "--dim-cap must be nonnegative", 1.0,
    ),
    # outside JSON is read as integers, or refused naming the field; never rounded
    "replay-p-float": (
        ["check", "--replay", _replay("nilmod", 3.7)], 2, "p must be an integer, got 3.7", 1.0
    ),
    "replay-seed-float": (
        ["check", "--replay", _replay("nilmod", 3, seed=1.9)], 2,
        "seed must be an integer, got 1.9", 1.0,
    ),
    "replay-trial-float": (
        ["check", "--replay", _replay("nilmod", 3, trial=0.5)], 2,
        "trial must be an integer, got 0.5", 1.0,
    ),
    "replay-dim-cap-boolean": (
        ["check", "--replay", _replay("nilmod", 3, dim_cap=True)], 2,
        "dim_cap must be an integer, got True", 1.0,
    ),
    "replay-check-not-a-string": (
        ["check", "--replay", _replay(["nilmod"], 3)], 2, "unknown suite ['nilmod']", 1.0
    ),
    "rep-file-entry-float": (
        ["semisimplify", "--rep-file", _rep_file(entry=1.9)], 2,
        "matrix entry must be an integer, got 1.9", 1.0,
    ),
    "rep-file-p-float": (
        ["semisimplify", "--rep-file", _rep_file(p=3.7)], 2, "p must be an integer, got 3.7", 1.0
    ),
    "rep-file-dim-string": (
        ["semisimplify", "--rep-file", _rep_file(dim="2")], 2,
        "dim must be an integer, got '2'", 1.0,
    ),
    "rep-file-entry-past-int64": (
        ["semisimplify", "--rep-file", _rep_file(entry=2**70)], 2,
        "matrix entry lies outside int64", 1.0,
    ),
    "rep-file-entry-boolean": (
        ["semisimplify", "--rep-file", _rep_file(entry=True)], 2,
        "matrix entry must be an integer, got True", 1.0,
    ),
    # a string of relations was read as one relation per letter
    "rep-file-relations-string": (
        ["semisimplify", "--rep-file", _rep_file(group={"relations": "aaa"})], 2,
        "group.relations must be a list of strings, got 'aaa'", 1.0,
    ),
    "rep-file-relation-not-a-string": (
        ["semisimplify", "--rep-file", _rep_file(group={"relations": ["aaa", 3]})], 2,
        "group.relations entry must be a string, got 3", 1.0,
    ),
    "rep-file-name-number": (
        ["semisimplify", "--rep-file", _rep_file(group={"name": 17})], 2,
        "group.name must be a string, got 17", 1.0,
    ),
    "green-at-p-13": (["green", "--p", "13"], 0, None, 0.5),
    # P^2 rows of up to P entries: priced before any row is built
    "green-at-p-65521": (["green", "--p", "65521"], 2, "green table needs", 1.0),
    "fusion-at-p-65521": (["fusion", "--p", "65521"], 2, "fusion table needs", 1.0),
    # the dense generator is priced from the counts, before any part is listed
    "module-of-dim-2e7": (
        ["semisimplify", "--p", "3", "--module", "10000000*J2"], 2, "module generator needs", 1.0
    ),
    "module-of-dim-2e9": (
        ["semisimplify", "--p", "3", "--module", "1000000000*J2"], 2, "module generator needs",
        1.0,
    ),
    # a module given by its parts is a rep by construction, and is not validated
    "semisimplify-module-of-dim-3000": (
        ["semisimplify", "--p", "3", "--module", "3000*J1"], 0, None, 2.0
    ),
    "frob-module-of-dim-3000": (["frob", "--p", "3", "--module", "1000*J3"], 0, None, 8.0),
    # the coefficients and their output lines are priced before any is built
    "hilbert-terms-1e9": (
        ["hilbert", "--p", "3", "--module", "J2", "--terms", "1000000000"], 2, "needs", 1.0
    ),
    # coefficients past 2^1024: the growth diagnostic's roots leave the float range
    "hilbert-coefficients-past-float-range": (
        ["hilbert", "--p", "3", "--module", "200*J2", "--terms", "1000"], 0, None, 2.0
    ),
}


@pytest.mark.parametrize("case", list(HOSTILE_INPUTS))
def test_hostile_input(case, capsys, tmp_path):
    # in-process, so the bound times the command and not interpreter start-up,
    # and an exception that escapes `run` fails the test
    argv, status, message, seconds = HOSTILE_INPUTS[case]
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"arg{k}.json"
            path.write_text(json.dumps(arg))
            argv = argv[:k] + [str(path)] + argv[k + 1 :]
    start = time.perf_counter()
    assert run(argv) == status
    assert time.perf_counter() - start < seconds
    _, err = lines_of(capsys)
    assert "Traceback" not in err
    if message is None:
        assert err == ""
    else:
        assert err.startswith("error: ") and message in err


def test_module_command_stays_within_the_default_budget(capsys):
    # a 3000-dimensional --module rep: the generator's 72 MB and one rank of 1 - g
    tracemalloc.start()
    try:
        assert run(["semisimplify", "--p", "3", "--module", "3000*J1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < DEFAULT_BUDGET_MB * 1024 * 1024
    lines, _ = lines_of(capsys)
    assert "image\t3000*L_1" in lines


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    import argparse

    import frobcat.cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    frobcat.cli._build_parser.cache_clear()
    try:
        assert run(["hilbert", "--p", "3", "--terms", "x"]) == 2
        first = len(built)
        assert first > 0
        assert run(["hilbert", "--p", "3", "--module", "J2", "--terms", "5"]) == 0
        short, _ = lines_of(capsys)
        assert run(["hilbert", "--p", "3", "--module", "J2"]) == 0
        default, _ = lines_of(capsys)
        assert len(built) == first
    finally:
        frobcat.cli._build_parser.cache_clear()
    # no --terms leaks from the call before: the default of 20 gives 21 coefficients
    assert sum(line.startswith("coeff\t") for line in short) == 6
    assert sum(line.startswith("coeff\t") for line in default) == 21


def test_internal_fault_exits_3(monkeypatch, capsys):
    # an exception that is neither refused input nor a violation is a fault
    import frobcat.cli

    def broken(args):
        raise AssertionError("invariant broken")

    monkeypatch.setitem(frobcat.cli._HANDLERS, "fusion", broken)
    assert run(["fusion", "--p", "3"]) == 3
    out, err = lines_of(capsys)
    assert out == [""]
    assert err.startswith("internal error: AssertionError: invariant broken\n")
    assert "Traceback" in err


def _failing_trial(monkeypatch, error):
    """Patch the nilmod suite so that trial 2 raises error("claim failed");
    returns the list of trial indices run."""
    import dataclasses

    import frobcat.cli

    suite = frobcat.cli.SUITES["nilmod"]
    ran = []

    def trial(p, seed, t, cap):
        ran.append(t)
        if t == 2:
            raise error("claim failed")
        return suite.run_trial(p, seed, t, cap)

    monkeypatch.setitem(frobcat.cli.SUITES, "nilmod", dataclasses.replace(suite, run_trial=trial))
    return ran


def _replayable_violation(monkeypatch, tmp_path, capsys, error):
    ran = _failing_trial(monkeypatch, error)
    assert run(["check", "--suite", "nilmod", "--p", "3", "--trials", "4", "--format", "json"]) == 1
    lines, _ = lines_of(capsys)
    assert ran == [0, 1, 2, 3]
    assert json.loads(lines[0])["violations"] == [{"trial": 2, "reason": "claim failed"}]
    path = tmp_path / "report.json"
    path.write_text(lines[0])
    ran.clear()
    assert run(["check", "--replay", str(path), "--format", "json"]) == 1
    lines, _ = lines_of(capsys)
    assert ran == [2]
    assert json.loads(lines[0])["replayed_trials"] == [2]


def test_failed_claim_in_a_trial_is_a_replayable_violation(monkeypatch, tmp_path, capsys):
    _replayable_violation(monkeypatch, tmp_path, capsys, AssertionError)


def test_value_error_in_a_trial_is_a_replayable_violation(monkeypatch, tmp_path, capsys):
    # the flags were validated before the first trial, so this is no usage error
    _replayable_violation(monkeypatch, tmp_path, capsys, ValueError)


def test_budget_error_in_a_trial_is_refused_input(monkeypatch, capsys):
    from frobcat.linalg import BudgetError

    _failing_trial(monkeypatch, BudgetError)
    assert run(["check", "--suite", "nilmod", "--p", "3", "--trials", "4"]) == 2
    out, err = lines_of(capsys)
    assert out == [""]
    assert err == "error: claim failed\n"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_closed_stdout_pipe_keeps_the_report_status(fmt):
    # the report (over 500 kB) fills the pipe, so the reader's close interrupts a write
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "frobcat.cli", "green", "--p", "61", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head == (b'{"command"' if fmt == "json" else b"schema\t1\nc")
    assert err == b""


def test_green_command(capsys):
    assert run(["green", "--p", "3"]) == 0
    lines, _ = lines_of(capsys)
    assert "green\tJ2\tJ2\tJ3 + J1\tL_1" in lines
    assert "green\tJ3\tJ1\tJ3\t0" in lines


def test_frob_command(capsys):
    assert run(["frob", "--p", "3", "--module", "J2 + J1"]) == 0
    lines, _ = lines_of(capsys)
    assert "dim\t3" in lines
    assert "component\tF_1\tdim\t3\ttype\t2+1" in lines
    assert "component\tF_2\tdim\t0\ttype\t-" in lines
    assert "component\tG_2\tdim\t3\ttype\t2+1" in lines
    assert "fpdim_F\t3" in lines
    assert "preserved\ttrue" in lines


def test_semisimplify_command(capsys):
    assert run(["semisimplify", "--p", "5", "--module", "2*J5 + J3"]) == 0
    lines, _ = lines_of(capsys)
    assert "image\tL_3" in lines
    assert run(["semisimplify", "--p", "5", "--module", "J5"]) == 0
    lines, _ = lines_of(capsys)
    assert "image\t0" in lines


def test_hilbert_command(capsys):
    assert run(["hilbert", "--p", "3", "--module", "J2", "--terms", "12"]) == 0
    lines, _ = lines_of(capsys)
    assert "coeff\t0\t1" in lines and "coeff\t12\t13" in lines
    assert "verdict\tnon-polynomial" in lines
    assert "flagged\tfalse" in lines
    assert run(["hilbert", "--p", "3", "--module", "J1", "--terms", "5"]) == 0
    lines, _ = lines_of(capsys)
    assert not any(l.startswith("verdict") for l in lines)


def test_json_reports_are_byte_identical(capsys):
    argv = ["check", "--suite", "nilmod", "--p", "3", "--trials", "4", "--format", "json"]
    assert run(argv) == 0
    first, _ = lines_of(capsys)
    assert run(argv) == 0
    second, _ = lines_of(capsys)
    assert first == second
    report = json.loads(first[0])
    assert report["schema"] == 1
    assert report["check"] == "nilmod"
    assert report["violations"] == []


def test_rep_file_flow(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(cyclic_rep(3, (2,)))))
    assert run(["semisimplify", "--rep-file", str(path)]) == 0
    lines, _ = lines_of(capsys)
    assert "image\tL_2" in lines
    assert run(["frob", "--rep-file", str(path), "--p", "5"]) == 2
    _, err = lines_of(capsys)
    assert "does not match" in err


def test_rep_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["semisimplify", "--rep-file", str(missing)]) == 2
    _, err = lines_of(capsys)
    assert "cannot read" in err

    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert run(["semisimplify", "--rep-file", str(garbled)]) == 2
    _, err = lines_of(capsys)
    assert "malformed JSON" in err

    broken = tmp_path / "broken.json"
    obj = rep_to_json(cyclic_rep(3, (2,)))
    obj["matrices"][0][0][0] = 2  # the generator no longer has order 3
    broken.write_text(json.dumps(obj))
    assert run(["semisimplify", "--rep-file", str(broken)]) == 2
    _, err = lines_of(capsys)
    assert err == "error: sylow witness 'a' does not have order dividing 3\n"
    obj["group"]["relations"] = ["aaa"]  # a relation the file states is named
    broken.write_text(json.dumps(obj))
    assert run(["semisimplify", "--rep-file", str(broken)]) == 2
    _, err = lines_of(capsys)
    assert err.startswith("error: relation 'aaa' is violated; sylow witness 'a'")


def test_load_rep_direct(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(cyclic_rep(5, (3, 1)))))
    rep = load_rep(str(path))
    assert rep.p == 5 and rep.dim == 4


def test_malformed_budget_is_a_usage_error(monkeypatch, capsys):
    for bad in ("abc", "0"):
        monkeypatch.setenv("FROBCAT_BUDGET_MB", bad)
        assert run(["fusion", "--p", "3"]) == 2
        out, err = lines_of(capsys)
        assert out == [""]
        assert "FROBCAT_BUDGET_MB must be a positive integer" in err
    monkeypatch.setenv("FROBCAT_BUDGET_MB", "64")
    assert run(["fusion", "--p", "3"]) == 0
    capsys.readouterr()


def test_check_usage_errors(capsys):
    assert run(["check", "--p", "3"]) == 2
    _, err = lines_of(capsys)
    assert "--suite is required" in err
    assert run(["check", "--suite", "nilmod"]) == 2
    _, err = lines_of(capsys)
    assert "--p is required" in err
    assert run(["check", "--suite", "sixper", "--p", "7"]) == 2
    _, err = lines_of(capsys)
    assert "supports p in" in err
    assert run(["check", "--suite", "nilmod", "--p", "3", "--trials", "-1"]) == 2
    _, err = lines_of(capsys)
    assert "nonnegative" in err


MISSING_FLAGS = [
    ([], "one of --module or --rep-file is required"),
    (["--p", "5"], "one of --module or --rep-file is required"),
    (["--module", "J2"], "--p is required with --module"),
]


@pytest.mark.parametrize("command", ["frob", "semisimplify", "hilbert"])
@pytest.mark.parametrize("flags, message", MISSING_FLAGS)
def test_module_commands_refuse_missing_flags(command, flags, message):
    # a separate process, so an uncaught exception shows as a traceback on stderr
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "frobcat.cli", command, *flags],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_check_suites_clean_at_small_scale(capsys):
    quick = [
        ["check", "--suite", "nilmod", "--p", "3", "--trials", "4", "--dim-cap", "8"],
        ["check", "--suite", "splitting", "--p", "2", "--trials", "3", "--dim-cap", "4"],
        ["check", "--suite", "sixper", "--p", "2", "--trials", "3"],
        ["check", "--suite", "additivity", "--p", "3", "--trials", "2", "--dim-cap", "6"],
        ["check", "--suite", "monoidality", "--p", "3", "--trials", "2", "--dim-cap", "6"],
        ["check", "--suite", "greenhom", "--p", "5", "--trials", "4", "--dim-cap", "10"],
        ["check", "--suite", "fpdim", "--p", "3", "--trials", "4"],
        ["check", "--suite", "lemm1", "--p", "3"],
    ]
    for argv in quick:
        assert run(argv) == 0, argv
        lines, _ = lines_of(capsys)
        assert "violations\t0" in lines


def test_lemm1_default_trial_count(capsys):
    import frobcat.cli

    assert run(["check", "--suite", "lemm1", "--p", "3", "--format", "json"]) == 0
    lines, _ = lines_of(capsys)
    report = json.loads(lines[0])
    assert report["instances"] == 2
    # at each allowed p, the m whose m^p-dimensional power space fits the default budget
    suite = frobcat.cli.SUITES["lemm1"]
    assert {p: suite.default_trials(p) for p in suite.allowed} == {3: 2, 5: 4, 7: 3, 11: 2}


def test_a_broken_closed_form_is_a_replayable_lemm1_violation(monkeypatch, tmp_path, capsys):
    # frobenius_on_simple with L_m and L_{p-m} swapped for even m fails trials m = 2 and 4
    import frobcat.frobenius
    from test_frobenius import swapped_closed_form

    monkeypatch.setattr(frobcat.frobenius, "frobenius_on_simple", swapped_closed_form)
    assert run(["check", "--suite", "lemm1", "--p", "5", "--format", "json"]) == 1
    lines, _ = lines_of(capsys)
    report = json.loads(lines[0])
    assert [v["trial"] for v in report["violations"]] == [1, 3]
    assert all("rotation cores give" in v["reason"] for v in report["violations"])
    path = tmp_path / "report.json"
    path.write_text(lines[0])
    assert run(["check", "--replay", str(path), "--format", "json"]) == 1
    lines, _ = lines_of(capsys)
    replayed = json.loads(lines[0])
    assert replayed["replayed_trials"] == [1, 3]
    assert replayed["violations"] == report["violations"]


def test_replay_round_trip(tmp_path, capsys):
    argv = ["check", "--suite", "nilmod", "--p", "3", "--trials", "4", "--format", "json"]
    assert run(argv) == 0
    lines, _ = lines_of(capsys)
    path = tmp_path / "report.json"
    path.write_text(lines[0])
    assert run(["check", "--replay", str(path), "--format", "json"]) == 0
    lines, _ = lines_of(capsys)
    replayed = json.loads(lines[0])
    assert replayed["replayed_trials"] == []
    assert replayed["instances"] == 0


def test_replay_reruns_named_trials(tmp_path, capsys):
    synthetic = {
        "check": "nilmod",
        "p": 3,
        "seed": 0,
        "dim_cap": 8,
        "violations": [{"trial": 3}, {"trial": 1}],
    }
    path = tmp_path / "prev.json"
    path.write_text(json.dumps(synthetic))
    assert run(["check", "--replay", str(path), "--format", "json"]) == 0
    lines, _ = lines_of(capsys)
    report = json.loads(lines[0])
    assert report["replayed_trials"] == [1, 3]
    assert report["instances"] == 2
    assert report["violations"] == []


def test_replay_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"check\": \"nilmod\"}")
    assert run(["check", "--replay", str(path)]) == 2
    _, err = lines_of(capsys)
    assert "malformed replay file" in err
    path.write_text(json.dumps({"check": "??", "p": 3, "seed": 0, "dim_cap": 1, "violations": []}))
    assert run(["check", "--replay", str(path)]) == 2
    _, err = lines_of(capsys)
    assert "unknown suite" in err


def test_replay_refuses_a_cap_below_the_suite_minimum(tmp_path, capsys):
    path = tmp_path / "prev.json"
    prev = {"check": "sixper", "p": 3, "seed": 0, "dim_cap": 1, "violations": []}
    path.write_text(json.dumps(prev))
    assert run(["check", "--replay", str(path)]) == 2
    _, err = lines_of(capsys)
    assert err == "error: suite sixper needs --dim-cap >= 2, got 1\n"


def test_unknown_command_exits_with_usage(capsys):
    assert run(["bogus"]) == 2
    capsys.readouterr()

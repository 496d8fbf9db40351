"""Command-line interface: parsing, reports, suites, replay."""
import json

import pytest

from frobcat.cli import CliError, load_rep, parse_module_spec, run
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
    obj["matrices"][0][0][0] = 2
    broken.write_text(json.dumps(obj))
    assert run(["semisimplify", "--rep-file", str(broken)]) == 2
    _, err = lines_of(capsys)
    assert "relation" in err


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
    assert run(["check", "--suite", "lemm1", "--p", "3", "--format", "json"]) == 0
    lines, _ = lines_of(capsys)
    report = json.loads(lines[0])
    assert report["instances"] == 2


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


def test_unknown_command_exits_with_usage(capsys):
    assert run(["bogus"]) == 2
    capsys.readouterr()

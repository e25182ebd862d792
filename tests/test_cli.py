"""Tests for the command-line interface: commands, flags, exit codes,
and byte-identical deterministic reports."""

import argparse
import gc
import json
import math
import sys

import pytest

from detkit.catalog import verify_identity
from detkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_single_id(capsys):
    code, out = run(capsys, "verify", "--id", "macmahon",
                    "--trials", "5", "--seed", "42")
    assert code == 0
    assert "macmahon: PASS" in out


def test_verify_unknown_id(capsys):
    code, _ = run(capsys, "verify", "--id", "nosuch")
    assert code == 2


@pytest.mark.parametrize("raw", [",", ""])
def test_verify_empty_id_list_is_a_usage_error(capsys, raw):
    code = main(["verify", "--id", raw])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"unknown identity id: {raw}\n"


def test_verify_bad_trials(capsys):
    code, _ = run(capsys, "verify", "--id", "macmahon", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["guess", "1,2,3", "--trials", "3"],
    ["guess", "1,2,3", "--seed", "4"],
    ["guess", "1,2,3", "--max-n", "2"],
    ["hankel", "--trials", "3"],
    ["hankel", "--seed", "4"],
    ["hankel", "--max-n", "2"],
    ["list", "--trials", "3"],
    ["list", "--seed", "4"],
    ["list", "--max-n", "2"],
    ["eval", "--id", "macmahon", "--trials", "3"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_verify_json_schema(capsys):
    code, out = run(capsys, "verify", "--id", "vandermonde,cauchy",
                    "--seed", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["id"] for r in reports] == ["vandermonde", "cauchy"]
    assert all(r["overall"] for r in reports)


def test_verify_report_order_is_registry_order(capsys):
    # request order must not leak into report order
    _, out = run(capsys, "verify", "--id", "cauchy,vandermonde",
                 "--format", "json")
    assert [r["id"] for r in json.loads(out)] == ["vandermonde", "cauchy"]


def test_list(capsys):
    code, out = run(capsys, "list")
    ids = out.strip().splitlines()
    assert code == 0
    assert ids[0] == "vandermonde"
    assert len(ids) == 76


def test_eval(capsys):
    code, out = run(capsys, "eval", "--id", "macmahon", "--seed", "1")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("max_n", [None, 0, 1])
@pytest.mark.parametrize("rid", ["macmahon", "krat6", "okada", "nc-suite"])
def test_eval_is_first_verify_trial(capsys, rid, max_n):
    argv = ["eval", "--id", rid, "--seed", "3", "--format", "json"]
    if max_n is not None:
        argv += ["--max-n", str(max_n)]
    code, out = run(capsys, *argv)
    trial = verify_identity(rid, trials=1, seed=3, max_n=max_n).trials[0]
    assert code == 0
    assert json.loads(out) == {"id": rid, **trial.to_json_dict()}


def test_eval_requires_single_id(capsys):
    code, _ = run(capsys, "eval")
    assert code == 2


def test_guess_identity_law(capsys):
    code, out = run(capsys, "guess", "1,2,3")
    assert code == 0
    assert out.splitlines()[0] == "n -> n"


def test_guess_rejects_fibonacci(capsys):
    code, _ = run(capsys, "guess", "1,1,2,3,5,8")
    assert code == 1


def test_guess_parse_failure(capsys):
    code, _ = run(capsys, "guess", "1,two,3")
    assert code == 2


def test_hankel_bernoulli_example(capsys):
    code, out = run(capsys, "hankel", "--seq", "bernoulli",
                    "--offset", "2", "--n", "3")
    assert code == 0
    assert "1/6" in out and "-1/180" in out and "-1/5" in out
    assert "ok" in out


def test_hankel_euler_example(capsys):
    code, out = run(capsys, "hankel", "--seq", "euler", "--offset", "0",
                    "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dets"] == ["1", "4"]


def _parse_decimal(text):
    # int(text) refuses more than 4300 digits on Python 3.11+
    value = 0
    for at in range(0, len(text), 1000):
        chunk = text[at:at + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_hankel_prints_determinants_above_4300_digits(capsys, fmt):
    # the Euler Hankel determinants are prod_(k<n) ((2k)!)^2; H_42 has
    # 4462 digits, past Python's default limit for str() of an int,
    # which the command must leave as it is (Python 3.10 has no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out = run(capsys, "hankel", "--seq", "euler", "--n", "42", "--format", fmt)
    assert code == 0
    assert limit() == before
    if fmt == "json":
        payload = json.loads(out)
        assert payload["heilermann_ok"] is True
        printed = payload["dets"][-1]
    else:
        assert out.rstrip().endswith("Heilermann cross-check: ok")
        printed = next(line for line in out.splitlines()
                       if line.startswith("  n=42: ")).split(": ")[1]
    assert len(printed) > 4300
    assert _parse_decimal(printed) == math.prod(math.factorial(2 * k) ** 2 for k in range(42))


def test_printed_determinant_above_4300_digits_reads_back(capsys):
    # the printed H_42 of the Euler numbers is a custom moment and a guess
    # term; the same term with a stray character or over 0 is still a
    # usage error
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    _, out = run(capsys, "hankel", "--seq", "euler", "--n", "42", "--format", "json")
    printed = json.loads(out)["dets"][-1]
    h42 = _parse_decimal(printed)
    code, out = run(capsys, "hankel", "--seq", f"custom:1,{printed},1,1", "--n", "2",
                    "--format", "json")
    assert code == 0
    dets = json.loads(out)["dets"]
    assert dets[0] == "1" and dets[1][0] == "-" and _parse_decimal(dets[1][1:]) == h42 ** 2 - 1
    code, out = run(capsys, "guess", f"1,{printed},3", "--format", "json")
    assert code in (0, 1)
    assert json.loads(out)["terms"] == ["1", printed, "3"]
    for argv in (["guess", f"1,{printed}x,3"], ["guess", f"1,{printed}/0,3"],
                 ["hankel", "--seq", f"custom:1,{printed}/0,1,1", "--n", "2"],
                 ["hankel", "--seq", f"custom:1,+-{printed},1,1", "--n", "2"]):
        assert run(capsys, *argv)[0] == 2
    assert limit() == before


def test_hankel_degenerate_custom(capsys):
    code, _ = run(capsys, "hankel", "--seq", "custom:1,0,0", "--n", "2")
    assert code == 3


def test_hankel_unknown_seq(capsys):
    code, _ = run(capsys, "hankel", "--seq", "weird", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--n", "0"], "need n >= 1 and offset >= 0\n"),
    (["--seq", ""], "unknown sequence ''\n"),
], ids=["n-zero", "empty-seq"])
def test_hankel_rejects_zero_n_and_empty_seq(capsys, argv, message):
    # neither may fall back to the defaults n = 3 and bernoulli
    assert main(["hankel", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_no_command(capsys):
    assert main([]) == 2


def test_out_file_and_byte_identity(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _ = run(capsys, "verify", "--id", "weyl-b,krat1",
                      "--seed", "9", "--format", "json", "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _live_parsers():
    return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())


def test_main_reuses_one_parser(capsys):
    main(["list"])
    gc.collect()
    one = _live_parsers()
    # with the cyclic collector off, a parser built per call would stay
    # counted until the next collection
    gc.disable()
    try:
        for argv in (["list"], ["hankel", "--n", "x"]) * 10:
            main(argv)
        made = _live_parsers()
    finally:
        gc.enable()
    gc.collect()
    capsys.readouterr()
    assert made == one
    assert _live_parsers() == one

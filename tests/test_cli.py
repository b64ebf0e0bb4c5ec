import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ghwkit.cli import (
    EXIT_CLAIM_VIOLATED,
    EXIT_OK,
    EXIT_USAGE,
    CodeFileError,
    analysis_report,
    main,
    parse_code_file,
    serialize_code,
)
from ghwkit.constructions import reed_solomon, tamo_barg

PAIR_CODE_TEXT = "q 2\nn 4\nk 2\n1 1 0 0\n0 0 1 1\n"
GOLDEN_CODE = Path(__file__).resolve().parent / "golden" / "gf2_14_6.code"


class TestParseCodeFile:
    def test_pair_code(self, pair_code):
        assert parse_code_file(PAIR_CODE_TEXT) == pair_code

    def test_comments_and_blank_lines(self, pair_code):
        text = "# a fixture\n\nq 2\n# length\nn 4\nk 2\n1 1 0 0\n\n0 0 1 1\n"
        assert parse_code_file(text) == pair_code

    def test_trailing_comments(self, pair_code):
        text = "q 2 # binary\nn 4#length\nk 2\n1 1 0 0 # first\n0 0 1 1\n"
        assert parse_code_file(text) == pair_code

    def test_readme_format_example(self, lrc_12_6_3):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = re.search(r"### Code file format\n.*?```\n(.*?)```", readme, re.S).group(1)
        rows = "\n".join(serialize_code(lrc_12_6_3).splitlines()[-6:])
        text = re.sub(r"<k rows[^\n]*>", rows, example)
        assert parse_code_file(text) == lrc_12_6_3

    def test_extension_field_modulus(self):
        text = "q 4 modulus 1 1 1\nn 3\nk 1\n1 2 3\n"
        code = parse_code_file(text)
        assert code.field.q == 4 and code.field.modulus == (1, 1, 1)

    def test_entry_out_of_range(self):
        with pytest.raises(CodeFileError, match="outside"):
            parse_code_file("q 2\nn 2\nk 1\n1 2\n")

    def test_malformed_header(self):
        with pytest.raises(CodeFileError, match="expected 'q"):
            parse_code_file("n 4\nq 2\nk 2\n1 1 0 0\n0 0 1 1\n")

    def test_wrong_row_count(self):
        with pytest.raises(CodeFileError, match="generator rows"):
            parse_code_file("q 2\nn 4\nk 2\n1 1 0 0\n")

    def test_wrong_entry_count_reports_line(self):
        with pytest.raises(CodeFileError, match="line 4"):
            parse_code_file("q 2\nn 4\nk 2\n1 1 0\n0 0 1 1\n")

    def test_non_integer_entry(self):
        with pytest.raises(CodeFileError, match="not an integer"):
            parse_code_file("q 2\nn 2\nk 1\n1 x\n")

    def test_zero_column_rejected(self):
        with pytest.raises(CodeFileError, match="all-zero column"):
            parse_code_file("q 2\nn 3\nk 1\n1 0 1\n")

    def test_invalid_field(self):
        with pytest.raises(CodeFileError, match="invalid field"):
            parse_code_file("q 6\nn 2\nk 1\n1 1\n")

    def test_huge_field_size_rejected_before_factoring(self, tmp_path, capsys):
        path = tmp_path / "huge.code"
        path.write_text("q 1000000000000000003\nn 2\nk 1\n1 1\n")
        start = time.monotonic()
        assert main(["analyze", str(path)]) == EXIT_USAGE
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert "line 1: field size" in err and "Traceback" not in err

    def test_modulus_on_prime_field_rejected(self):
        with pytest.raises(CodeFileError, match="invalid field"):
            parse_code_file("q 13 modulus 1 1\nn 2\nk 1\n1 1\n")

    @pytest.mark.parametrize("text, line, reason", [
        ("q 1\nn 2\nk 1\n1 1\n", 1, "invalid field"),
        ("# header\nq 2\nn 0\nk 1\n1 1\n", 3, "n and k must be positive"),
        ("q 2\nn 2\nk 0\n", 3, "n and k must be positive"),
        ("q 2\nn 2\nk 2\n1 1\n", 3, "expected 2 generator rows, found 1"),
        ("q 2\nn 2\nk 1\n\n0 0\n", 5, "generator has rank 0"),
        ("q 2\nn 3\nk 1\n1 0 1\n", 4, "generator has all-zero column"),
        ("q 2\n", 2, "expected 'n <int>', found the end of the file"),
        ("q 2\nn 2\n", 3, "expected 'k <int>', found the end of the file"),
        ("# header\nq 2\nn 2  # length\n\n", 5, "expected 'k <int>', found the end"),
        ("q 4 modulus\nn 3\nk 1\n1 2 3\n", 1, "empty modulus"),
    ], ids=["q", "n", "k", "rows", "rank", "zero-column", "no-n", "no-k", "no-k-blank-tail",
            "modulus-without-coefficients"])
    def test_refusal_names_its_line(self, text, line, reason, tmp_path, capsys):
        path = tmp_path / "bad.code"
        path.write_text(text)
        assert main(["analyze", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert re.match(r"^error: line \d+", err) and "Traceback" not in err
        assert err.startswith(f"error: line {line}: {reason}")

    @pytest.mark.parametrize("text", ["", "# a comment only\n\n"], ids=["blank", "comments"])
    def test_empty_file_is_named_empty(self, text, tmp_path, capsys):
        path = tmp_path / "empty.code"
        path.write_text(text)
        assert main(["analyze", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: file is empty")


class TestRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: parse_code_file(PAIR_CODE_TEXT),
        lambda: tamo_barg(13, 12, 6, 3),
        lambda: tamo_barg(5, 4, 2, 1),
    ])
    def test_parse_serialize_identity(self, make):
        code = make()
        assert parse_code_file(serialize_code(code)) == code

    def test_extension_field_round_trip(self):
        text = "q 4 modulus 1 1 1\nn 3\nk 2\n1 2 3\n0 1 1\n"
        code = parse_code_file(text)
        again = parse_code_file(serialize_code(code))
        assert again == code and again.field == code.field


class TestAnalyze:
    def test_reference_fixture_json(self, tmp_path, capsys, lrc_12_6_3):
        path = tmp_path / "fixture.code"
        path.write_text(serialize_code(lrc_12_6_3))
        rc = main(["analyze", str(path), "--json"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["primal_hierarchy"] == [6, 7, 8, 10, 11, 12]
        assert report["dual_hierarchy"] == [4, 8, 9, 10, 11, 12]
        assert report["is_optimal"] is True
        assert report["locality"]["r"] == 3
        assert set(report["bounds"]) == {
            "eq1", "thm1", "lem1", "lem2", "lem3", "lem4", "thm2", "thm3",
            "lem5", "lem6", "thm4", "prop1", "prop2", "prop3_mu", "prop4_rho"}

    def test_repetition_code(self, tmp_path, capsys):
        path = tmp_path / "rep3.code"
        path.write_text("q 2\nn 3\nk 1\n1 1 1\n")
        rc = main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "d = 3" in out and "locality r = 1" in out
        assert "optimal (distance meets the Singleton-like bound): True" in out

    def test_limit_flag(self, tmp_path, capsys, lrc_12_6_3):
        path = tmp_path / "fixture.code"
        path.write_text(serialize_code(lrc_12_6_3))
        rc = main(["analyze", str(path), "--limit-n", "4"])
        assert rc == EXIT_USAGE
        assert "exceeds enumeration limit" in capsys.readouterr().err

    def test_time_limit_trips_the_guard(self, tmp_path, capsys):
        path = tmp_path / "rs.code"
        path.write_text(serialize_code(reed_solomon(32, 24, 12)))  # 32^12 dual words
        start = time.monotonic()
        rc = main(["analyze", str(path), "--time-limit", "0.05"])
        assert time.monotonic() - start < 1
        assert rc == EXIT_USAGE
        assert re.fullmatch(r"error: wall-time guard exceeded during locality search "
                            r"\(cover pass, size \d+ of 12, \d+ of 24 coordinates settled\)\n",
                            capsys.readouterr().err)

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/path.code"]) == EXIT_USAGE

    def test_full_space_code_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "full.code"
        path.write_text("q 2\nn 2\nk 2\n1 0\n0 1\n")
        assert main(["analyze", str(path)]) == EXIT_USAGE
        assert "no redundancy" in capsys.readouterr().err

    def test_uncoverable_coordinate_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "coloop.code"
        path.write_text("q 2\nn 3\nk 2\n1 0 0\n0 1 1\n")
        assert main(["analyze", str(path)]) == EXIT_USAGE
        assert "no dual codeword" in capsys.readouterr().err

    def test_witnesses_flag(self, tmp_path, capsys):
        path = tmp_path / "pair.code"
        path.write_text(PAIR_CODE_TEXT)
        rc = main(["analyze", str(path), "--json", "--witnesses"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["witnesses"]["1"]["support"] in ([1, 2], [3, 4])
        assert report["witnesses"]["2"]["support"] == [1, 2, 3, 4]

    def test_promised_r_flag(self, tmp_path, capsys, lrc_12_6_3):
        path = tmp_path / "fixture.code"
        path.write_text(serialize_code(lrc_12_6_3))
        rc = main(["analyze", str(path), "--json", "--promised-r", "6"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["r"] == 6 and report["params"]["promised_r"]
        assert report["locality"]["r"] == 3
        assert report["is_optimal"] is False

    def test_deterministic_comparable_section(self, tmp_path, capsys, lrc_12_5_3):
        path = tmp_path / "fixture.code"
        path.write_text(serialize_code(lrc_12_5_3))
        outputs = []
        for _ in range(2):
            assert main(["analyze", str(path), "--json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)

        def comparable(text):
            report = json.loads(text)
            report.pop("timings")
            return json.dumps(report, indent=2)

        assert comparable(outputs[0]) == comparable(outputs[1])


class TestConstruct:
    def test_tamo_barg(self, tmp_path, capsys, lrc_12_6_3):
        out = tmp_path / "c.code"
        rc = main(["construct", "tamo-barg", "--q", "13", "--n", "12",
                   "--k", "6", "--r", "3", "-o", str(out)])
        assert rc == EXIT_OK
        assert parse_code_file(out.read_text()) == lrc_12_6_3
        assert "evaluation points" in out.read_text()

    def test_reed_solomon(self, tmp_path, capsys):
        out = tmp_path / "rs.code"
        rc = main(["construct", "reed-solomon", "--q", "7", "--n", "6",
                   "--k", "3", "-o", str(out)])
        assert rc == EXIT_OK
        code = parse_code_file(out.read_text())
        assert (code.n, code.k) == (6, 3)

    def test_extension_field_construct_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rs8.code"
        rc = main(["construct", "reed-solomon", "--q", "8", "--n", "7",
                   "--k", "3", "-o", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        assert "q 8 modulus 1 1 0 1" in text
        code = parse_code_file(text)
        assert code.field.q == 8 and (code.n, code.k) == (7, 3)

    def test_random_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.code", tmp_path / "r2.code"
        for out in (out1, out2):
            rc = main(["construct", "random", "--q", "2", "--n", "8",
                       "--k", "4", "--seed", "1", "-o", str(out)])
            assert rc == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_parameter_violation(self, tmp_path, capsys):
        rc = main(["construct", "tamo-barg", "--q", "9", "--n", "8",
                   "--k", "4", "--r", "2", "-o", str(tmp_path / "x.code")])
        assert rc == EXIT_USAGE

    def test_missing_r(self, tmp_path, capsys):
        rc = main(["construct", "tamo-barg", "--q", "13", "--n", "12",
                   "--k", "6", "-o", str(tmp_path / "x.code")])
        assert rc == EXIT_USAGE

    def test_huge_field_size_fails_fast(self, tmp_path, capsys):
        out = tmp_path / "x.code"
        start = time.monotonic()
        rc = main(["construct", "random", "--q", "1000000000000000003", "--n", "4",
                   "--k", "2", "-o", str(out)])
        assert time.monotonic() - start < 1.0
        assert rc == EXIT_USAGE and not out.exists()
        assert "exceeds 65536" in capsys.readouterr().err


class TestVerify:
    def test_small_run_passes(self, capsys):
        rc = main(["verify", "duality", "--count", "10", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "duality: PASS" in out

    def test_all_suites_small(self, capsys):
        rc = main(["verify", "--count", "6", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("PASS") >= 6

    def test_failure_exit_code(self, capsys, monkeypatch):
        # force a synthetic failure to pin the exit-code contract
        from ghwkit import suites as suites_mod
        from ghwkit.suites import SuiteResult

        def broken(seed, count):
            return SuiteResult(name="duality", failures=["synthetic"])

        monkeypatch.setitem(suites_mod.SUITES, "duality", broken)
        rc = main(["verify", "duality"])
        assert rc == EXIT_CLAIM_VIOLATED
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "duality", "--count", "-5"],
    ["verify", "--count", "0"],
    ["verify", "--count", "abc"],
    ["bogus"],
    ["analyze"],
    ["analyze", str(GOLDEN_CODE), "--time-limit", "nan"],
    ["analyze", str(GOLDEN_CODE), "--time-limit", "-1"],
    ["analyze", str(GOLDEN_CODE), "--time-limit", "0"],
    ["analyze", str(GOLDEN_CODE), "--time-limit", "abc"],
    ["analyze", str(GOLDEN_CODE), "--limit-n", "0"],
    ["analyze", str(GOLDEN_CODE), "--limit-n", "-5"],
], ids=["count-negative", "count-zero", "count-text", "bogus-command", "analyze-no-file",
        "time-limit-nan", "time-limit-negative", "time-limit-zero", "time-limit-text",
        "limit-n-zero", "limit-n-negative"])
def test_usage_errors_exit_one(argv, capsys):
    """Argparse's refusals go through the one refusal handler: exit 1, not
    2, which stays reserved for a violated claim, and no suite or analysis
    runs: a NaN time limit would run with no guard at all, and the others
    would only fail later as a guard trip."""
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err
    assert captured.err.startswith("usage: ghwkit")  # refused by argparse, not a guard


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: ghwkit")


def test_analyze_violated_claim_exits_two(tmp_path, capsys, monkeypatch):
    """A violated verdict in the report must surface as exit code 2."""
    from ghwkit import cli as cli_mod

    real = cli_mod.analysis_report

    def tampered(code, **kwargs):
        report = real(code, **kwargs)
        report["bounds"]["eq1"]["status"] = "violated"
        return report

    monkeypatch.setattr(cli_mod, "analysis_report", tampered)
    path = tmp_path / "pair.code"
    path.write_text(PAIR_CODE_TEXT)
    rc = main(["analyze", str(path), "--json"])
    assert rc == EXIT_CLAIM_VIOLATED
    captured = capsys.readouterr()
    assert "VIOLATED CLAIMS: eq1" in captured.err


def test_violated_verdicts_reach_the_report(tmp_path, capsys, monkeypatch, lrc_12_6_3):
    """Bound formulas patched on `ghwkit.bounds` make thm1, thm2 and thm3
    fail; each failure must show in its JSON payload and exit 2."""
    from ghwkit import bounds

    real_bound = bounds.generalized_singleton_like_bound
    real_dual = bounds.optimal_dual_hierarchy

    def low_at_two(n, k, r, i):
        return real_bound(n, k, r, i) - (i == 2)

    monkeypatch.setattr(bounds, "generalized_singleton_like_bound", low_at_two)
    monkeypatch.setattr(bounds, "optimal_dual_hierarchy",
                        lambda n, k, r: tuple(v + 1 for v in real_dual(n, k, r)))

    report = bounds.certify_optimal(lrc_12_6_3)
    assert tuple(v.claim for v in report.verdicts) == bounds.CLAIM_IDS
    assert report.violated_claims == ("thm1", "thm2", "thm3")
    assert [report.verdict(c).witness_index for c in report.violated_claims] == [2, 1, 2]

    out = analysis_report(lrc_12_6_3)["bounds"]
    assert tuple(out) == bounds.CLAIM_IDS
    assert out["thm1"]["status"] == "violated"
    assert out["thm1"]["witness_index"] == 2
    assert out["thm1"]["per_i"] == [
        {"i": i, "d_i": d_i, "bound": low_at_two(12, 6, 3, i)}
        for i, d_i in enumerate(report.primal_hierarchy, start=1)]
    assert out["thm1"]["per_i"][1] == {"i": 2, "d_i": 7, "bound": 6}
    for claim, index in (("thm2", 1), ("thm3", 2)):
        assert out[claim] == {"status": "violated", "witness_index": index,
                              "expected": None}
    assert all(out[c]["status"] == "holds" for c in bounds.CLAIM_IDS
               if c not in report.violated_claims)

    path = tmp_path / "tamo_barg.code"
    path.write_text(serialize_code(lrc_12_6_3))
    assert main(["analyze", str(path), "--json"]) == EXIT_CLAIM_VIOLATED
    assert "VIOLATED CLAIMS: thm1, thm2, thm3" in capsys.readouterr().err
    assert main(["analyze", str(path)]) == EXIT_CLAIM_VIOLATED
    assert "\n  thm1       violated (index 2)\n" in capsys.readouterr().out


def test_analysis_report_key_order(lrc_12_6_3):
    report = analysis_report(lrc_12_6_3)
    assert list(report) == ["params", "locality", "primal_hierarchy",
                            "primal_gaps", "dual_hierarchy", "dual_gaps",
                            "bounds", "is_optimal", "timings"]


def test_timings_report_each_phase(lrc_12_6_3):
    timings = analysis_report(lrc_12_6_3)["timings"]
    assert list(timings) == ["analyze_ms", "locality_ms", "hierarchy_ms"]
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    assert timings["locality_ms"] + timings["hierarchy_ms"] <= timings["analyze_ms"]


def test_text_output_breaks_the_time_down(tmp_path, capsys, lrc_12_6_3):
    path = tmp_path / "fixture.code"
    path.write_text(serialize_code(lrc_12_6_3))
    assert main(["analyze", str(path)]) == EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"analyze time: [\d.]+ ms \(locality [\d.]+ ms, "
                        r"hierarchy [\d.]+ ms\)", last)


@pytest.mark.parametrize("name", ["locality", "weight_hierarchy"])
def test_certify_optimal_looks_locality_up_on_its_module(monkeypatch, lrc_12_6_3, name):
    """Wrappers installed on `ghwkit.bounds.locality` and
    `ghwkit.bounds.weight_hierarchy` (as the benchmark's spans do) see the
    locality search and the hierarchy sweep of every analysis, once each."""
    from ghwkit import bounds

    calls = []
    real = getattr(bounds, name)
    monkeypatch.setattr(bounds, name, lambda code, **kw: calls.append(code) or real(code, **kw))
    analysis_report(lrc_12_6_3)
    assert calls == [lrc_12_6_3]


class _ClosedPipe:
    """A stdout whose reader has gone: every write fails with EPIPE."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("argv", [["analyze", str(GOLDEN_CODE), "--json"],
                                  ["verify", "duality", "--count", "2"]])
def test_closed_stdout_exits_one_quietly(argv, tmp_path, capsys, monkeypatch):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["analyze", str(GOLDEN_CODE), "--json"],
                                  ["verify", "duality", "--count", "2"]])
def test_closed_pipe_in_a_subprocess_has_no_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ghwkit.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

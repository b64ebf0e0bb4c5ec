"""Golden corpus: `analyze --json` reports held byte-identical across changes.

Each case names a code file under tests/golden/, the extra `analyze`
arguments and the expected exit code.  The expected output sits next to the
code file: `<case>.json` holds the report with `timings` removed (the only
section that may differ between runs), `<case>.err` the error output of a
refused code.  A case also listed in TEXT_CASES has `<case>.txt`, the text
output of `analyze` without its last line (the time line).  A case marked `dual` analyzes the dual of the code in its
file, a code that misses a coordinate (`zero_coordinates`) and so cannot be
written as a code file itself.  A construct case holds the file that
`ghwkit construct` writes, comment lines included, as `<case>.code`.

A diff is a bug in the change, not in the golden file.  To add a case, add
it to CASES, TEXT_CASES or CONSTRUCT_CASES and write its missing outputs, from a
checkout of the commit the case should pin, with

    PYTHONPATH=src python tests/test_golden.py

which never overwrites an existing output.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ghwkit.cli import analysis_report, main, parse_code_file

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (code file stem, extra analyze arguments, exit code, dual)
CASES = {
    "gf2_14_6": ("gf2_14_6", [], 0, False),
    "gf2_14_6_witnesses": ("gf2_14_6", ["--witnesses"], 0, False),
    "gf2_15_8": ("gf2_15_8", [], 0, False),
    "gf2_16_7_witnesses": ("gf2_16_7", ["--witnesses"], 0, False),
    "gf2_17_9": ("gf2_17_9", [], 0, False),
    "gf2_18_8": ("gf2_18_8", [], 0, False),
    "tamo_barg_13_12_6_3": ("tamo_barg_13_12_6_3", [], 0, False),
    "tamo_barg_13_12_6_3_promised_r4": ("tamo_barg_13_12_6_3", ["--promised-r", "4"],
                                        0, False),
    "tamo_barg_13_12_5_3": ("tamo_barg_13_12_5_3", [], 0, False),
    "reed_solomon_13_12_5": ("reed_solomon_13_12_5", [], 0, False),
    "gf3_10_5": ("gf3_10_5", [], 0, False),
    "gf4_9_4": ("gf4_9_4", [], 0, False),
    "gf9_8_4": ("gf9_8_4", [], 0, False),
    "coloop_gf2_14_7": ("coloop_gf2_14_7", [], 1, False),
    "coloop_gf2_14_7_dual_witnesses": ("coloop_gf2_14_7", ["--witnesses"], 0, True),
    "tamo_barg_5_4_2_1": ("tamo_barg_5_4_2_1", [], 0, False),
    "tamo_barg_13_12_7_3": ("tamo_barg_13_12_7_3", [], 0, False),
    "tamo_barg_16_15_8_4": ("tamo_barg_16_15_8_4", [], 0, False),
    "tamo_barg_16_15_9_4": ("tamo_barg_16_15_9_4", [], 0, False),
}

# cases of CASES whose text output is held as well: binary, non-binary,
# promised locality, not distance-optimal
TEXT_CASES = ("gf2_14_6", "tamo_barg_13_12_6_3", "tamo_barg_13_12_6_3_promised_r4",
              "gf3_10_5")

# case -> `construct` arguments
CONSTRUCT_CASES = {
    "construct_tamo_barg_13_12_6_3": ["tamo-barg", "--q", "13", "--n", "12", "--k", "6",
                                      "--r", "3"],
    "construct_reed_solomon_8_7_3": ["reed-solomon", "--q", "8", "--n", "7", "--k", "3"],
    "construct_random_2_8_4_seed1": ["random", "--q", "2", "--n", "8", "--k", "4",
                                     "--seed", "1"],
}


def comparable(report: dict) -> str:
    report = dict(report)
    report.pop("timings")
    return json.dumps(report, indent=2) + "\n"


def run_case(name: str) -> tuple[int, str, str]:
    """(exit code, output text, suffix of the golden file) for one case."""
    stem, args, _, dual = CASES[name]
    path = GOLDEN / f"{stem}.code"
    if dual:
        code = parse_code_file(path.read_text()).dual()
        report = analysis_report(code, with_witnesses="--witnesses" in args)
        return 0, comparable(report), ".json"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["analyze", str(path), "--json", *args])
    if rc == 1:
        return rc, err.getvalue(), ".err"
    return rc, comparable(json.loads(out.getvalue())), ".json"


def run_text(name: str) -> tuple[int, str]:
    """(exit code, text output without its time line) for one text case."""
    stem, args, _, _ = CASES[name]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(["analyze", str(GOLDEN / f"{stem}.code"), *args])
    lines = out.getvalue().splitlines(keepends=True)
    assert lines[-1].startswith("analyze time: ")
    return rc, "".join(lines[:-1])


def run_construct(name: str, directory: Path) -> tuple[int, str]:
    """(exit code, file text) for one construct case."""
    target = directory / f"{name}.code"
    with redirect_stdout(io.StringIO()):
        rc = main(["construct", *CONSTRUCT_CASES[name], "-o", str(target)])
    return rc, target.read_text() if rc == 0 else ""


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    rc, text, suffix = run_case(name)
    assert rc == CASES[name][2]
    assert text == (GOLDEN / f"{name}{suffix}").read_text()


@pytest.mark.parametrize("name", TEXT_CASES)
def test_text_report_matches_golden(name):
    rc, text = run_text(name)
    assert rc == CASES[name][2]
    assert text == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(CONSTRUCT_CASES))
def test_construct_matches_golden(name, tmp_path):
    rc, text = run_construct(name, tmp_path)
    assert rc == 0
    assert text == (GOLDEN / f"{name}.code").read_text()


def test_dual_case_has_zero_coordinates():
    stem = CASES["coloop_gf2_14_7_dual_witnesses"][0]
    code = parse_code_file((GOLDEN / f"{stem}.code").read_text())
    assert code.dual().zero_coordinates == (0,)


if __name__ == "__main__":
    for case in sorted(CASES):
        rc, text, suffix = run_case(case)
        if rc != CASES[case][2]:
            sys.exit(f"{case}: exit {rc}, expected {CASES[case][2]}")
        target = GOLDEN / f"{case}{suffix}"
        if target.exists():
            continue
        target.write_text(text)
        print(f"wrote {target.relative_to(GOLDEN.parent.parent)}")
    for case in TEXT_CASES:
        target = GOLDEN / f"{case}.txt"
        if target.exists():
            continue
        rc, text = run_text(case)
        if rc != CASES[case][2]:
            sys.exit(f"{case}: exit {rc}, expected {CASES[case][2]}")
        target.write_text(text)
        print(f"wrote {target.relative_to(GOLDEN.parent.parent)}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CONSTRUCT_CASES):
            target = GOLDEN / f"{case}.code"
            if target.exists():
                continue
            rc, text = run_construct(case, Path(tmp))
            if rc != 0:
                sys.exit(f"{case}: exit {rc}")
            target.write_text(text)
            print(f"wrote {target.relative_to(GOLDEN.parent.parent)}")

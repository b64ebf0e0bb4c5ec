"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checks import Checker, report_problems  # noqa: E402
from workloads import WORKLOADS, CodeInput, generate  # noqa: E402

POOL_HASH = """
import hashlib, sys
sys.path.insert(0, {bench!r})
from workloads import generate
pool, warm = generate({workload!r}, 7)
print(hashlib.sha256("".join(c.text for c in pool + [warm]).encode()).hexdigest())
"""


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_byte_identical_across_processes(workload):
    script = POOL_HASH.format(bench=str(BENCH), workload=workload)
    hashes = [subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, timeout=120).stdout.strip()
              for _ in range(2)]
    pool, warm = generate(workload, 7)
    local = hashlib.sha256("".join(c.text for c in pool + [warm]).encode()).hexdigest()
    assert hashes == [local, local]


@pytest.fixture(scope="module")
def checked_report():
    """A verify_small input with a report whose checks all pass."""
    from ghwkit.cli import analysis_report, parse_code_file
    from ghwkit.locality import UncoverableCoordinateError

    pool, _ = generate("verify_small", 1)
    for code in pool:
        if code.q > 2 and code.n - code.k >= 2:
            try:
                report = analysis_report(parse_code_file(code.text))
            except UncoverableCoordinateError:
                continue
            assert report_problems(code, report) == []
            return code, report
    raise AssertionError("no suitable input in the pool")


def test_checker_rejects_a_changed_hierarchy_value(checked_report):
    code, report = checked_report
    for key in ("primal_hierarchy", "dual_hierarchy"):
        bad = json.loads(json.dumps(report))
        bad[key][0] += 1
        assert report_problems(code, bad), key


def test_checker_rejects_a_changed_covering_row_entry(checked_report):
    code, report = checked_report
    bad = json.loads(json.dumps(report))
    row = bad["locality"]["covering_rows"][0]
    row[0] = (row[0] + 1) % code.q
    assert any("not a dual codeword" in p for p in report_problems(code, bad))


def test_refusal_is_judged_by_the_check_matrix():
    # e_1 is a codeword, so H has an all-zero first column.
    uncoverable = CodeInput("q 2\nn 3\nk 2\n1 0 0\n0 1 1\n", 2, 3, 2,
                            ((1, 0, 0), (0, 1, 1)))
    coverable = CodeInput("q 2\nn 3\nk 1\n1 1 1\n", 2, 3, 1, ((1, 1, 1),))
    checker = Checker(lib=None, digests=None)
    assert checker.check(0, uncoverable, "refused", "coordinate 1") is None
    assert checker.check(1, coverable, "refused", "coordinate 1") is not None
    assert checker.check(2, coverable, "error", "ValueError: x") is not None


def test_printed_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run_bench("--workload", "verify_small", "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("--workload", "verify_small", "--seed", "1", "--seconds", "1",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

"""Acceptance criteria, one test per criterion, exact integer comparisons.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure); the expensive suites run once per session and are shared.
"""

import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ghwkit.bounds import (
    certify_optimal,
    generalized_singleton_like_bound,
    optimal_dual_hierarchy,
    optimal_primal_hierarchy,
    singleton_like_bound,
)
from ghwkit import cli
from ghwkit.cli import main, serialize_code
from ghwkit.constructions import tamo_barg
from ghwkit.suites import (
    SUITES,
    run_duality,
    run_lemmas,
    run_optimal_rk,
    run_optimal_rnk,
    run_oracle,
    run_props,
)

SEED = 2024
COUNT = 200
GOLDEN = Path(__file__).resolve().parent / "golden"


def report_line(cid: str, text: str) -> None:
    print(f"\nACCEPTANCE {cid}: PASS - {text}")


@pytest.fixture(scope="module")
def suite_results():
    return {
        "duality": run_duality(SEED, COUNT),
        "oracle": run_oracle(SEED, COUNT),
        "lemmas": run_lemmas(SEED, COUNT),
        "optimal_rk": run_optimal_rk(SEED, COUNT),
        "optimal_rnk": run_optimal_rnk(SEED, COUNT),
        "props": run_props(SEED, COUNT),
    }


def test_c1_example_reproduction():
    """Certified (12,6,3) code over GF(13) reproduces both hierarchies."""
    t0 = time.monotonic()
    code = tamo_barg(13, 12, 6, 3)
    report = certify_optimal(code)
    elapsed = time.monotonic() - t0
    assert report.is_optimal and report.r == 3
    assert report.primal_hierarchy == (6, 7, 8, 10, 11, 12)
    assert report.dual_hierarchy == (4, 8, 9, 10, 11, 12)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report_line("C1", f"(12,6,3) hierarchies match exactly in {elapsed:.2f}s")


def test_c2_wei_duality(suite_results):
    res = suite_results["duality"]
    assert res.ok, res.failures
    assert res.codes >= 200
    assert res.elapsed < 120.0, f"took {res.elapsed:.1f}s, budget 120s"
    report_line("C2", f"both duality identities exact on {res.codes} random "
                      f"codes in {res.elapsed:.1f}s")


def test_c3_oracle_equivalence(suite_results):
    res = suite_results["oracle"]
    assert res.ok, res.failures
    assert res.codes >= 200
    assert res.elapsed < 300.0, f"took {res.elapsed:.1f}s, budget 300s"
    report_line("C3", f"sweep equals subcode-enumeration oracle for all i on "
                      f"{res.codes} codes in {res.elapsed:.1f}s")


def test_c4_unconditional_lrc_bounds(suite_results):
    res = suite_results["lemmas"]
    assert res.ok, res.failures
    assert res.codes >= 200
    # formula-identity grid: hierarchy bound reduces to the distance bound
    # at i=1 and to the plain Singleton form at r=k, for 1<=r<=k<=n<=20
    for n in range(1, 21):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                assert generalized_singleton_like_bound(n, k, r, 1) == \
                    singleton_like_bound(n, k, r)
            for i in range(1, k + 1):
                assert generalized_singleton_like_bound(n, k, k, i) == n - k + i
    report_line("C4", f"unconditional bound claims hold on {res.codes} codes; "
                      "formula grid n<=20 identical")


def test_c5_optimal_r_divides_k(suite_results):
    res = suite_results["optimal_rk"]
    assert res.ok, res.failures
    assert res.codes >= 2  # (4,2,1) over GF(5) and (12,6,3) over GF(13)
    assert any("(8,4,2) fixture unavailable" in note for note in res.notes)
    # direct closed-form equalities, re-stated here
    for (q, n, k, r) in ((5, 4, 2, 1), (13, 12, 6, 3)):
        report = certify_optimal(tamo_barg(q, n, k, r))
        assert report.is_optimal
        assert report.dual_hierarchy == optimal_dual_hierarchy(n, k, r)
        assert report.primal_hierarchy == optimal_primal_hierarchy(n, k, r)
        assert report.primal_hierarchy == tuple(
            generalized_singleton_like_bound(n, k, r, i) for i in range(1, k + 1))
    report_line("C5", "closed-form hierarchies exact on certified fixtures; "
                      "(8,4,2) correctly reported unavailable")


def test_c6_optimal_r_not_dividing_k(suite_results):
    res = suite_results["optimal_rnk"]
    assert res.ok, res.failures
    report = certify_optimal(tamo_barg(13, 12, 5, 3))
    assert report.is_optimal and report.d == 7 == singleton_like_bound(12, 5, 3)
    for i in range(2, 8):  # second branch of the dual lower bound is exact
        assert report.dual_hierarchy[i - 1] == 5 + i
    for claim in ("lem5", "lem6", "thm4"):
        assert report.verdict(claim).status == "holds"
    report_line("C6", "certified (12,5,3) fixture: d=7, dual second branch "
                      "exact, every lower bound holds")


def test_c7_mu_rho_identities(suite_results):
    # the mu/rho identities are asserted for every code in every suite;
    # any violation lands in that suite's failure list
    for name, res in suite_results.items():
        assert res.ok, (name, res.failures)
    total = sum(res.codes for res in suite_results.values())
    report_line("C7", f"mu = rho+1 and d = n-k-mu+2 = n-k-rho+1 exact on "
                      f"{total} codes across all suites")


def test_c8_surrogate_soundness(suite_results):
    for name, res in suite_results.items():
        assert res.ok, (name, res.failures)
    res = suite_results["props"]
    assert res.codes >= 40
    report_line("C8", "surrogate bounds sound everywhere and tight (= 6) "
                      "for both distance and dimension on (12,6,3)")


def test_c9_determinism(tmp_path, capsys):
    code = tamo_barg(13, 12, 6, 3)
    path = tmp_path / "fixture.code"
    path.write_text(serialize_code(code))
    outputs = []
    for _ in range(2):
        assert main(["analyze", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)

    def comparable(text):
        report = json.loads(text)
        report.pop("timings")
        return json.dumps(report, indent=2)

    assert comparable(outputs[0]) == comparable(outputs[1])

    # reproducibility across two separate processes
    script = ("import sys; from ghwkit.cli import main; "
              "sys.exit(main(['construct', 'random', '--q', '3', '--n', '9', "
              "'--k', '4', '--seed', '42', '-o', sys.argv[1]]))")
    files = []
    for tag in ("a", "b"):
        out = tmp_path / f"rand_{tag}.code"
        proc = subprocess.run([sys.executable, "-c", script, str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        files.append(out.read_bytes())
    assert files[0] == files[1]
    report_line("C9", "JSON comparable sections byte-identical; random "
                      "construction identical across two processes")


def test_verify_all_matches_golden(suite_results, monkeypatch):
    """`ghwkit verify all` prints golden/verify_all.txt with each elapsed time
    masked as ?.?s.  The suites' results come from the shared fixture, so no
    suite runs twice.  Regenerate the golden from a checkout of the commit it
    should pin with

        PYTHONPATH=src python -m ghwkit.cli verify all \\
            | sed -E 's/, [0-9]+\\.[0-9]s\\)/, ?.?s)/' > tests/golden/verify_all.txt
    """
    by_name = {res.name: res for res in suite_results.values()}
    monkeypatch.setattr(cli, "run_suite",
                        lambda name, seed, count: [by_name[s] for s in SUITES])
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify", "all"]) == 0
    masked = re.sub(r", \d+\.\ds\)", ", ?.?s)", out.getvalue())
    assert masked == (GOLDEN / "verify_all.txt").read_text()

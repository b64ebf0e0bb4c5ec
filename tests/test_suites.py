import re
from dataclasses import replace

from ghwkit import bounds, suites
from ghwkit.suites import run_lemmas, run_optimal_rk, run_optimal_rnk, run_props


def test_lemmas_searches_each_code_locality_once(monkeypatch):
    calls = []
    real = suites.locality

    def counting(code, **kwargs):
        calls.append(code)
        return real(code, **kwargs)

    monkeypatch.setattr(suites, "locality", counting)
    monkeypatch.setattr(bounds, "locality", counting)
    result = run_lemmas(seed=2024, count=20)
    drawn = int(re.search(r"\((\d+) drawn\)", result.notes[0]).group(1))
    assert result.ok and result.codes == 23
    assert len(calls) == drawn + len(suites._fixtures())
    assert len({id(code) for code in calls}) == len(calls)


def test_optimal_suites_fail_through_the_exact_verdicts(monkeypatch):
    """optimal-rk compares no closed form itself and optimal-rnk loops over
    no second branch: closed forms patched off the true hierarchies must
    fail every fixture through its thm2 or lem5 verdict."""
    real_dual = bounds.optimal_dual_hierarchy
    real_lower = bounds.optimal_dual_ghw_lower
    with monkeypatch.context() as m:
        m.setattr(bounds, "optimal_dual_hierarchy",
                  lambda n, k, r: tuple(v + 1 for v in real_dual(n, k, r)))
        rk = run_optimal_rk()
    # one below the exact second branch: still a lower bound, no longer equal
    monkeypatch.setattr(bounds, "optimal_dual_ghw_lower",
                        lambda n, k, r, i: real_lower(n, k, r, i) - (i >= -(-k // r)))
    rnk = run_optimal_rnk()
    assert len(rk.failures) == rk.codes == 3
    assert all(": thm2 violated at index 1 " in f for f in rk.failures)
    assert [re.search(r": lem5 violated at index (\d+) ", f).group(1)
            for f in rnk.failures] == ["2", "3", "3"]  # ceil(k/r)
    assert rk.claim_counts["thm2"] == 15 and rnk.claim_counts["lem5_second_branch_exact"] == 13


def test_optimal_suites_require_their_exact_verdicts(monkeypatch):
    """A claim these suites tally must hold: one left unevaluated fails too."""
    real = suites.certify_optimal
    exact = ("thm2", "thm3", "lem5", "lem6", "thm4")

    def unevaluated(code, **kwargs):
        report = real(code, **kwargs)
        return replace(report, verdicts=tuple(
            replace(v, status="not_applicable") if v.claim in exact else v
            for v in report.verdicts))

    monkeypatch.setattr(suites, "certify_optimal", unevaluated)
    rk, rnk = run_optimal_rk(), run_optimal_rnk()
    def failed(result):
        return [tuple(f.split(": ", 1)[1].split()[:2]) for f in result.failures]

    assert failed(rk) == [(c, "not_applicable") for c in ("thm2", "thm3")] * 3
    assert failed(rnk) == [(c, "not_applicable") for c in ("lem5", "lem6", "thm4")] * 3


def test_distance_claims_failures_are_recorded(monkeypatch):
    """A violated distance claim fails a suite that holds no report for the
    code, and one that reads it off certify_optimal."""
    real = bounds.distance_claims

    def broken(code, d, dual_hierarchy, r=None):
        claims = real(code, d, dual_hierarchy, r)
        claims["prop3_mu"] = ("violated", None, claims["prop3_mu"][2])
        return claims

    monkeypatch.setattr(bounds, "distance_claims", broken)
    monkeypatch.setattr(suites, "distance_claims", broken)
    props, rk = run_props(count=4), run_optimal_rk()
    assert props.failures and all(": prop3_mu violated " in f for f in props.failures)
    assert len(rk.failures) == 3 and all(": prop3_mu violated " in f for f in rk.failures)

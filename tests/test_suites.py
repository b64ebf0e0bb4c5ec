import re
from dataclasses import replace

import pytest

from ghwkit import bounds, suites
from ghwkit.suites import run_lemmas, run_optimal_rk, run_optimal_rnk, run_props, run_suite


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


# The label of a suite code: a seeded random code or a structured fixture.
_LABEL = r"^(\(q=\d+,n=\d+,k=\d+,seed=\d+\)|tamo-barg\(\S+\)): "


def _shifted(real):
    return lambda code, **kwargs: tuple(v + 1 for v in real(code, **kwargs))


def _reported(**changes):
    def fake(real):
        def patched(code, **kwargs):
            report = real(code, **kwargs)
            return replace(report, **{name: change(getattr(report, name))
                                      for name, change in changes.items()})
        return patched
    return fake


def _no_mu_rho(real):
    def raising(*args, **kwargs):
        raise RuntimeError("mu != rho + 1")
    return raising


def _untight(real):
    def claims(code, d, dual_hierarchy, r=None):
        out = real(code, d, dual_hierarchy, r)
        status, index, payload = out["prop1"]
        out["prop1"] = (status, index, {**payload, "bound": payload["bound"] + 1})
        return out
    return claims


@pytest.mark.parametrize("name, fake, suite, failure", [
    ("check_wei_duality", _reported(holds=lambda _: False, violations=lambda _: ("patched",)),
     "duality", _LABEL + "patched$"),
    ("primal_hierarchy_values", _shifted, "lemmas", _LABEL + "hierarchy .* != check-side sweep "),
    ("dual_hierarchy_values", _shifted, "lemmas", _LABEL + "Wei-derived dual hierarchy .* != dual sweep "),
    ("ghw_oracle", lambda real: lambda code, i: real(code, i) + 1, "oracle",
     _LABEL + r"d_\d+ sweep=\d+ oracle=\d+$"),
    ("distance_claims", _no_mu_rho, "duality", _LABEL + r"mu/rho identities: mu != rho \+ 1$"),
    ("generalized_singleton_like_bound", lambda real: lambda *args: real(*args) + 1, "lemmas",
     r"^thm1\(\S+\) != \S+ at \(n=\d+,k=\d+,[ri]=\d+\)$"),
    ("certify_optimal", _reported(is_optimal=lambda _: False), "optimal-rk",
     _LABEL + "fixture unavailable - did not certify distance-optimal$"),
    ("certify_optimal", _reported(r=lambda r: r + 1), "optimal-rk",
     _LABEL + r"computed locality \d+ != \d+$"),
    ("certify_optimal", _reported(d=lambda d: d + 1), "optimal-rnk",
     _LABEL + r"d=\d+ != \d+ from the distance bound$"),
    ("distance_claims", _untight, "props", r"^\(12,6,3\): prop1 not tight: "),
    (None, None, "nope", None),
], ids=["duality-report", "lemmas-primal-sweep", "lemmas-dual-sweep", "oracle",
        "mu-rho", "thm1-formula", "fixture-not-optimal", "fixture-locality",
        "fixture-distance", "props-tightness", "unknown-suite"])
def test_every_cross_check_can_fail(monkeypatch, name, fake, suite, failure):
    """Each cross-check of a suite fails it once its value is patched off,
    and each failure line names the code (or the formula's parameters)."""
    if name is None:
        with pytest.raises(ValueError, match="unknown suite 'nope'; choose from "):
            run_suite(suite)
        return
    monkeypatch.setattr(suites, name, fake(getattr(suites, name)))
    (result,) = run_suite(suite, count=2)
    assert not result.ok
    assert all(re.search(failure, f) for f in result.failures), result.failures

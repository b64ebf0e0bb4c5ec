"""Verification suites: batches of codes checked against every claim.

Each suite draws seed-reproducible random codes (and the structured
fixtures), runs the relevant checks, and returns a ``SuiteResult`` with
per-claim counts.  Every code in every suite gets the four distance
claims of `distance_claims`: soundness of the surrogate bounds (prop1 >= d,
prop2 >= k) and the mu/rho identities d = n-k-mu+2 = n-k-rho+1.  A suite
that certifies a code reads every claim off its `certify_optimal` verdicts;
the others evaluate the distance claims on their own sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .bounds import (
    HOLDS,
    ClaimVerdict,
    _ceil_div,
    certify_optimal,
    distance_claims,
    generalized_singleton_like_bound,
    singleton_like_bound,
)
from .code import LinearCode
from .constructions import SplitMix64, random_code, tamo_barg
from .ghw import (
    check_wei_duality,
    dual_hierarchy_values,
    ghw_oracle,
    primal_hierarchy_values,
    weight_hierarchy,
)
from .locality import UncoverableCoordinateError, locality

DEFAULT_SEED = 2024
DEFAULT_COUNT = 200


@dataclass
class SuiteResult:
    name: str
    codes: int = 0
    checks: int = 0
    skipped: int = 0
    claim_counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def tally(self, claim: str, n: int = 1) -> None:
        self.checks += n
        self.claim_counts[claim] = self.claim_counts.get(claim, 0) + n

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = (f"{self.name}: {status} ({self.codes} codes, {self.checks} checks, "
                f"{self.skipped} skipped, {self.elapsed:.1f}s)")
        if self.claim_counts:
            parts = [f"{claim}={count}" for claim, count in
                     sorted(self.claim_counts.items())]
            line += "\n  per-claim: " + " ".join(parts)
        for f_ in self.failures:
            line += f"\n  failure: {f_}"
        for n_ in self.notes:
            line += f"\n  note: {n_}"
        return line


def _random_codes(seed: int, count: int, *, qs=(2, 3, 4), n_lo=3, n_hi=12,
                  k_top=None):
    """Deterministic stream of (label, code) pairs."""
    rng = SplitMix64(seed)
    produced = 0
    while produced < count:
        q = qs[rng.below(len(qs))]
        n = n_lo + rng.below(n_hi - n_lo + 1)
        top = min(n, k_top(q, n)) if k_top else n
        k = 1 + rng.below(top)
        code_seed = rng.next_u64()
        yield f"(q={q},n={n},k={k},seed={code_seed})", random_code(q, n, k, code_seed)
        produced += 1


def _record(label: str, verdicts, result: SuiteResult, required=()) -> None:
    """Tally the four distance claims, and record a failure for every
    violated verdict and for each claim of `required` that does not hold."""
    for claim in ("prop1", "prop2", "prop3_mu", "prop4_rho"):
        result.tally(claim)
    for v in verdicts:
        if v.violated or (v.claim in required and v.status != HOLDS):
            at = "" if v.witness_index is None else f" at index {v.witness_index}"
            result.failures.append(f"{label}: {v.claim} {v.status}{at} {v.payload}")


def _universal_checks(label: str, code: LinearCode, d: int, dual_values,
                      result: SuiteResult) -> None:
    """The distance claims of a code the suite holds no report for."""
    try:
        claims = distance_claims(code, d, dual_values)
    except RuntimeError as exc:  # mu != rho + 1
        result.failures.append(f"{label}: mu/rho identities: {exc}")
        return
    _record(label, [ClaimVerdict(claim, *entry) for claim, entry in claims.items()], result)


def _fixtures() -> list[tuple[str, LinearCode]]:
    return [
        ("tamo-barg(5,4,2,1)", tamo_barg(5, 4, 2, 1)),
        ("tamo-barg(13,12,6,3)", tamo_barg(13, 12, 6, 3)),
        ("tamo-barg(13,12,5,3)", tamo_barg(13, 12, 5, 3)),
    ]


SUITES: dict[str, Callable[[int, int], SuiteResult]] = {}


def _suite(check: Callable[[SuiteResult, int, int], None]) -> Callable[..., SuiteResult]:
    """Register `check(result, seed, count)` as the suite named after it
    (`run_optimal_rk` is "optimal-rk"), in definition order, behind a runner
    that builds, fills and times its `SuiteResult`."""
    name = check.__name__.removeprefix("run_").replace("_", "-")

    def run(seed: int = DEFAULT_SEED, count: int = DEFAULT_COUNT) -> SuiteResult:
        result = SuiteResult(name=name)
        t0 = time.monotonic()
        check(result, seed, count)
        result.elapsed = time.monotonic() - t0
        return result

    run.__name__ = run.__qualname__ = check.__name__
    run.__doc__ = check.__doc__
    SUITES[name] = run
    return run


@_suite
def run_duality(result: SuiteResult, seed: int, count: int) -> None:
    """Both hierarchy duality identities, exact, on seeded random codes."""
    for label, code in _random_codes(seed, count):
        result.codes += 1
        report = check_wei_duality(code)
        result.tally("duality_complement")
        result.tally("duality_gap_form")
        if not report.holds:
            result.failures.append(f"{label}: {'; '.join(report.violations)}")
            continue
        _universal_checks(label, code, report.primal[0], report.dual, result)


@_suite
def run_lemmas(result: SuiteResult, seed: int, count: int) -> None:
    """Unconditional LRC claims on random codes with computed locality r < k,
    plus the pure-formula reductions of the hierarchy bound on a grid."""
    # Formula identities, no codes involved.
    for n in range(1, 21):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                if generalized_singleton_like_bound(n, k, r, 1) != \
                        singleton_like_bound(n, k, r):
                    result.failures.append(f"thm1(i=1) != eq1 at (n={n},k={k},r={r})")
                result.tally("thm1_reduces_to_eq1")
            for i in range(1, k + 1):
                if generalized_singleton_like_bound(n, k, k, i) != n - k + i:
                    result.failures.append(f"thm1(r=k) != n-k+i at (n={n},k={k},i={i})")
                result.tally("thm1_reduces_to_eq2")

    pool = [(label, code, None) for label, code in _fixtures()]
    kept = 0
    attempts = 0
    stream = _random_codes(seed, count * 20, n_lo=3, n_hi=12,
                           k_top=lambda q, n: n - 1)
    while kept < count and attempts < count * 20:
        label, code = next(stream)
        attempts += 1
        try:
            prof = locality(code)
        except UncoverableCoordinateError:
            result.skipped += 1
            continue
        if prof.r >= code.k:
            result.skipped += 1
            continue
        kept += 1
        pool.append((label, code, prof))
    result.notes.append(f"{kept} random codes passed the locality-r<k filter "
                        f"({attempts} drawn)")

    for label, code, prof in pool:
        result.codes += 1
        report = certify_optimal(code, profile=prof)
        for claim in ("eq1", "thm1", "lem1", "lem2", "lem3", "lem4"):
            result.tally(claim)
        _record(label, report.verdicts, result)
        # certify_optimal sweeps one side and derives the other by Wei
        # duality; a sweep pinned to each side keeps both cross-checks here.
        primal_values = primal_hierarchy_values(code)
        if report.primal_hierarchy != primal_values:
            result.failures.append(f"{label}: hierarchy {report.primal_hierarchy} "
                                   f"!= check-side sweep {primal_values}")
        dual_values = dual_hierarchy_values(code)
        if report.dual_hierarchy != dual_values:
            result.failures.append(f"{label}: Wei-derived dual hierarchy "
                                   f"{report.dual_hierarchy} != dual sweep {dual_values}")


def _optimal_fixtures(result: SuiteResult, fixtures, required: tuple[str, ...],
                      tallies: Callable[[int, int, int], dict[str, int]]) -> None:
    """Certify each (label, code, r, d) fixture, require it distance-optimal
    with locality r and, unless d is None, distance d, tally
    `tallies(n, k, r)`, and record its verdicts with `required`."""
    for label, code, r, d in fixtures:
        result.codes += 1
        report = certify_optimal(code)
        if not report.is_optimal:
            result.failures.append(f"{label}: fixture unavailable - did not "
                                   "certify distance-optimal")
            continue
        if report.r != r:
            result.failures.append(f"{label}: computed locality {report.r} != {r}")
        if d is not None and report.d != d:
            result.failures.append(f"{label}: d={report.d} != {d} from the distance bound")
        for claim, checks in tallies(code.n, code.k, r).items():
            result.tally(claim, checks)
        _record(label, report.verdicts, result, required)


@_suite
def run_optimal_rk(result: SuiteResult, seed: int, count: int) -> None:
    """Exact-hierarchy statements on certified-optimal fixtures with r | k."""
    fixtures = [("tamo-barg(5,4,2,1)", tamo_barg(5, 4, 2, 1), 1, None),
                ("tamo-barg(13,12,6,3)", tamo_barg(13, 12, 6, 3), 3, None),
                ("tamo-barg(16,15,8,4)", tamo_barg(16, 15, 8, 4), 4, None)]
    try:
        fixtures.append(("tamo-barg(?,8,4,2)", tamo_barg(9, 8, 4, 2), 2, None))
    except ValueError as exc:
        result.notes.append(
            f"(8,4,2) fixture unavailable: {exc}; a distance-optimal code with "
            "r | k needs (r+1) | n, so no such fixture exists")
    # thm2 pins the dual hierarchy and thm3 the primal one to their closed
    # forms; thm3's is the generalized bound at every i.
    _optimal_fixtures(result, fixtures, ("thm2", "thm3"), lambda n, k, r: {
        "thm2": n - k, "thm3": k, "thm1_equality": k, "lem1": n - k})


@_suite
def run_optimal_rnk(result: SuiteResult, seed: int, count: int) -> None:
    """Lower-bound statements on certified-optimal fixtures with r not
    dividing k; certification failure marks the fixture unavailable and
    fails the suite."""
    fixtures = [("tamo-barg(13,12,5,3)", tamo_barg(13, 12, 5, 3), 3, 7),
                ("tamo-barg(13,12,7,3)", tamo_barg(13, 12, 7, 3), 3, 4),
                ("tamo-barg(16,15,9,4)", tamo_barg(16, 15, 9, 4), 4, 5)]
    # lem5 checks its second branch, dual d_i = k+i, as an equality.
    _optimal_fixtures(result, fixtures, ("lem5", "lem6", "thm4"), lambda n, k, r: {
        "lem5": 1, "lem6": 1, "thm4": 1,
        "lem5_second_branch_exact": n - k - _ceil_div(k, r) + 1})


@_suite
def run_props(result: SuiteResult, seed: int, count: int) -> None:
    """mu/rho identities and surrogate-bound soundness, plus tightness of
    both surrogate bounds on the (12,6,3) fixture."""
    pool = _fixtures()
    pool.extend(_random_codes(seed + 1, max(count // 4, 40)))
    for label, code in pool:
        result.codes += 1
        # d from H and the dual hierarchy from G: two sweeps, not one.
        _universal_checks(label, code, primal_hierarchy_values(code)[0],
                          dual_hierarchy_values(code), result)

    code = tamo_barg(13, 12, 6, 3)
    d1 = weight_hierarchy(code).values[0]
    claims = distance_claims(code, d1, dual_hierarchy_values(code), r=3)
    for claim, value in (("prop1", d1), ("prop2", code.k)):
        result.tally(f"{claim}_tight_on_fixture")
        payload = claims[claim][2]
        if not payload["bound"] == payload["lrc_bound"] == value == 6:
            result.failures.append(f"(12,6,3): {claim} not tight: {payload} vs {value}")


@_suite
def run_oracle(result: SuiteResult, seed: int, count: int) -> None:
    """Subset-rank hierarchy values against the definition-level oracle."""
    def k_top(q: int, n: int) -> int:
        return 6 if q == 2 else 5  # keeps the subspace enumeration tractable

    for label, code in _random_codes(seed, count, qs=(2, 3), n_lo=2, n_hi=8,
                                     k_top=k_top):
        result.codes += 1
        hier = weight_hierarchy(code)
        for i in range(1, code.k + 1):
            oracle = ghw_oracle(code, i)
            result.tally("oracle_agreement")
            if hier.values[i - 1] != oracle:
                result.failures.append(
                    f"{label}: d_{i} sweep={hier.values[i - 1]} oracle={oracle}")
        _universal_checks(label, code, hier.values[0], dual_hierarchy_values(code), result)


def run_suite(name: str, seed: int = DEFAULT_SEED,
              count: int = DEFAULT_COUNT) -> list[SuiteResult]:
    if name == "all":
        return [fn(seed, count) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    return [SUITES[name](seed, count)]

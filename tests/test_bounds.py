import time

import pytest
from hypothesis import given, settings, strategies as st

from ghwkit import bounds
from ghwkit.bounds import (
    certify_optimal,
    d_opt_surrogate,
    distance_claims,
    dual_ghw_saturation,
    dual_ghw_step_bound,
    dual_ghw_upper,
    gap_lower_bound,
    generalized_singleton_like_bound,
    k_opt_surrogate,
    mu_rho,
    optimal_dual_ghw_lower,
    optimal_dual_hierarchy,
    optimal_gap_upper,
    optimal_primal_ghw_lower,
    optimal_primal_hierarchy,
    prop1_bound,
    prop2_bound,
    singleton_like_bound,
)
from ghwkit.algebra import Field, Matrix
from ghwkit.code import LinearCode
from ghwkit.constructions import random_code, reed_solomon, tamo_barg
from ghwkit.ghw import (
    LimitError,
    WeightHierarchy,
    dual_hierarchy_values,
    ghw_oracle,
    primal_hierarchy_values,
    weight_hierarchy,
)
from ghwkit.locality import UncoverableCoordinateError, covering_rows, locality

KNOWN_PRIMAL_12_6_3 = (6, 7, 8, 10, 11, 12)
KNOWN_DUAL_12_6_3 = (4, 8, 9, 10, 11, 12)


class TestSingletonLike:
    def test_reference_fixture_value(self):
        assert singleton_like_bound(12, 6, 3) == 6

    def test_reduces_to_singleton_at_r_equals_k(self):
        for n in range(2, 15):
            for k in range(1, n + 1):
                assert singleton_like_bound(n, k, k) == n - k + 1

    def test_ceiling_arithmetic(self):
        assert singleton_like_bound(10, 4, 3) == 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            singleton_like_bound(4, 5, 1)
        with pytest.raises(ValueError):
            singleton_like_bound(4, 2, 3)


class TestGeneralizedSingletonLike:
    def test_reference_fixture_rows(self):
        values = tuple(generalized_singleton_like_bound(12, 6, 3, i)
                       for i in range(1, 7))
        assert values == KNOWN_PRIMAL_12_6_3

    def test_r_equals_k(self):
        for i in range(1, 7):
            assert generalized_singleton_like_bound(12, 6, 6, i) == 6 + i

    def test_first_index_gives_distance_bound(self):
        assert generalized_singleton_like_bound(12, 5, 3, 1) == 7 \
            == singleton_like_bound(12, 5, 3)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            generalized_singleton_like_bound(12, 6, 3, 0)
        with pytest.raises(ValueError):
            generalized_singleton_like_bound(12, 6, 3, 7)


class TestDualGhwUpper:
    def test_reference_fixture(self):
        assert dual_ghw_upper(12, 6, 3, 1) == 4
        assert dual_ghw_upper(12, 6, 3, 2) == 8

    def test_branches_agree_at_joint_when_r_divides_k(self):
        n, k, r = 12, 6, 3
        joint = k // r
        assert joint * (r + 1) == k + joint == dual_ghw_upper(n, k, r, joint)

    def test_second_branch(self):
        assert dual_ghw_upper(12, 5, 3, 3) == 8

    def test_index_validation(self):
        with pytest.raises(ValueError):
            dual_ghw_upper(12, 6, 3, 7)


class TestStepAndSaturation:
    def test_reference_fixture_steps(self):
        ok, bad = dual_ghw_step_bound(KNOWN_DUAL_12_6_3, 3, 6)
        assert ok and bad is None

    def test_mds_steps_of_one(self):
        dual = tuple(3 + i for i in range(1, 5))  # dual of a [7,3] MDS code
        assert dual_ghw_step_bound(dual, 3, 3) == (True, None)

    def test_violation_detected(self):
        assert dual_ghw_step_bound((2, 9, 10), 3, 6) == (False, 1)

    def test_saturation_forced(self):
        ok, bad = dual_ghw_saturation(KNOWN_DUAL_12_6_3, 3, 2)
        assert ok and bad is None

    def test_saturation_vacuous(self):
        assert dual_ghw_saturation((3, 7, 9), 3, 2) == (True, None)

    def test_saturation_violation(self):
        assert dual_ghw_saturation((3, 8, 9), 3, 2) == (False, 1)


class TestGapLowerBound:
    def test_base_case(self):
        assert gap_lower_bound(3, 1) == 1

    def test_reference_fixture_equality_at_top(self):
        # dual gaps of the fixture are (1,2,3,5,6,7); bound met with equality
        assert gap_lower_bound(3, 6) == 7

    def test_ceiling_arithmetic(self):
        assert gap_lower_bound(2, 5) == 7


class TestOptimalClosedForms:
    def test_dual_hierarchy_fixture(self):
        assert optimal_dual_hierarchy(12, 6, 3) == KNOWN_DUAL_12_6_3

    def test_dual_hierarchy_4_2_1(self):
        assert optimal_dual_hierarchy(4, 2, 1) == (2, 4)

    def test_requires_divisibility(self):
        with pytest.raises(ValueError, match="does not divide"):
            optimal_dual_hierarchy(12, 5, 3)
        with pytest.raises(ValueError, match="does not divide"):
            optimal_primal_hierarchy(12, 5, 3)

    def test_primal_hierarchy_fixture(self):
        assert optimal_primal_hierarchy(12, 6, 3) == KNOWN_PRIMAL_12_6_3

    def test_primal_hierarchy_4_2_1(self):
        assert optimal_primal_hierarchy(4, 2, 1) == (2, 4)

    def test_primal_hierarchy_8_4_2_formula(self):
        # pure arithmetic of the closed form; no such optimal code exists
        # (group size 3 does not divide 8) so this is formula-only
        assert optimal_primal_hierarchy(8, 4, 2) == (4, 5, 7, 8)

    def test_primal_equals_generalized_bound(self):
        for (n, k, r) in ((12, 6, 3), (4, 2, 1), (8, 4, 2), (15, 8, 4)):
            if k % r:
                continue
            assert optimal_primal_hierarchy(n, k, r) == tuple(
                generalized_singleton_like_bound(n, k, r, i)
                for i in range(1, k + 1))


class TestOptimalLowerBounds:
    def test_branch_one_reduces_when_r_divides_k(self):
        for i in range(1, 2):
            assert optimal_dual_ghw_lower(12, 6, 3, i) == i * 4

    def test_12_5_3_values(self):
        assert optimal_dual_ghw_lower(12, 5, 3, 1) == 3
        assert optimal_dual_ghw_lower(12, 5, 3, 2) == 7  # exact branch

    def test_gap_upper_reduces_when_r_divides_k(self):
        for i in range(1, 7):
            assert optimal_gap_upper(12, 6, 3, i) == gap_lower_bound(3, i)

    def test_gap_upper_12_5_3(self):
        assert optimal_gap_upper(12, 5, 3, 5) == 6

    def test_gap_upper_base_case(self):
        assert optimal_gap_upper(12, 6, 3, 6) == 7  # k + ceil(k/r) - 1

    def test_primal_lower_12_5_3(self):
        assert optimal_primal_ghw_lower(12, 5, 3, 1) == 7
        assert optimal_primal_ghw_lower(12, 5, 3, 2) == 8

    def test_primal_lower_sandwiches_when_r_divides_k(self):
        for (n, k, r) in ((12, 6, 3), (4, 2, 1), (8, 4, 2)):
            for i in range(1, k + 1):
                assert optimal_primal_ghw_lower(n, k, r, i) == \
                    generalized_singleton_like_bound(n, k, r, i)


class TestMuRho:
    """mu_rho reads mu and rho off a dual hierarchy; `distance_claims` checks
    d = n-k-mu+2 (prop3_mu) and d = n-k-rho+1 (prop4_rho) against a code."""

    @staticmethod
    def identities(code, d, dual):
        claims = distance_claims(code, d, dual)
        return claims["prop3_mu"], claims["prop4_rho"]

    def test_reference_fixture(self, lrc_12_6_3):
        assert mu_rho(KNOWN_DUAL_12_6_3, 12, 6) == (2, 1)
        assert self.identities(lrc_12_6_3, 6, KNOWN_DUAL_12_6_3) == (
            ("holds", None, {"mu": 2}), ("holds", None, {"rho": 1}))

    def test_mds(self):
        dual = tuple(3 + i for i in range(1, 5))
        assert mu_rho(dual, 7, 3) == (1, 0)
        assert self.identities(reed_solomon(8, 7, 3), 5, dual) == (
            ("holds", None, {"mu": 1}), ("holds", None, {"rho": 0}))

    def test_self_dual_pair_code(self, pair_code):
        assert mu_rho((2, 4), 4, 2) == (2, 1)
        assert self.identities(pair_code, 2, (2, 4)) == (
            ("holds", None, {"mu": 2}), ("holds", None, {"rho": 1}))

    def test_distance_mismatch_is_violated(self, lrc_12_6_3):
        assert self.identities(lrc_12_6_3, 5, KNOWN_DUAL_12_6_3) == (
            ("violated", None, {"mu": 2}), ("violated", None, {"rho": 1}))

    def test_identity_mismatch_raises(self):
        # dual d_1 = k+1 puts mu at 1, yet d_2 - 2 < k puts rho at 2
        with pytest.raises(RuntimeError, match="mu=1 != rho\\+1=3"):
            mu_rho((3, 3), 4, 2)
        with pytest.raises(RuntimeError):
            distance_claims(reed_solomon(5, 4, 2), 3, (3, 3))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            mu_rho((2, 4), 5, 2)


class TestSurrogates:
    def test_d_opt_binary_griesmer(self):
        # Griesmer: 4+2+1+1+1+1 = 10 <= 12, while d=5 gives 13 > 12
        assert d_opt_surrogate(2, 12, 6) == 4

    def test_d_opt_full_dimension(self):
        for q in (2, 5, 13):
            assert d_opt_surrogate(q, 9, 9) == 1

    def test_k_opt_singleton(self):
        assert k_opt_surrogate(13, 8, 6) == 3

    def test_k_opt_binary_single_parity(self):
        assert k_opt_surrogate(2, 7, 2) == 6

    def test_repetition_extremes(self):
        assert d_opt_surrogate(3, 9, 1) == 9
        assert k_opt_surrogate(3, 9, 9) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            d_opt_surrogate(2, 4, 5)
        with pytest.raises(ValueError):
            k_opt_surrogate(2, 4, 0)

    @settings(max_examples=80, deadline=None)
    @given(q=st.sampled_from([2, 3, 4, 5, 13]), n=st.integers(1, 40),
           data=st.data())
    def test_surrogates_are_consistent(self, q, n, data):
        k = data.draw(st.integers(1, n))
        d = d_opt_surrogate(q, n, k)
        assert 1 <= d <= n - k + 1
        # the dimension surrogate at that distance cannot exclude k
        assert k_opt_surrogate(q, n, d) >= k


class TestPropBounds:
    def test_fixture_tight(self, lrc_12_6_3):
        dual_values = dual_hierarchy_values(lrc_12_6_3)
        p1 = prop1_bound(lrc_12_6_3, dual_values, r=3)
        assert p1.value == 6 and p1.lrc_value == 6 and not p1.range_empty
        p2 = prop2_bound(lrc_12_6_3, dual_values, 6, r=3)
        assert p2.value == 6 and p2.lrc_value == 6

    def test_mds_range_empty_fallback(self):
        code = reed_solomon(7, 6, 3)
        dual_values = dual_hierarchy_values(code)
        p1 = prop1_bound(code, dual_values)
        assert p1.range_empty and p1.value == 6 - 3 + 1
        p2 = prop2_bound(code, dual_values, 4)
        assert p2.range_empty and p2.value == 6 - 4 + 1

    def test_general_form_matches_hand_arithmetic(self, lrc_12_6_3):
        # range is i = 1..1; term: d_opt(12-4, 6+1-4) = d_opt(8, 3) over GF(13)
        assert d_opt_surrogate(13, 8, 3) == 6
        assert k_opt_surrogate(13, 8, 6) - 1 + 4 == 6


class TestCertifyOptimal:
    def test_reference_fixture_all_claims(self, lrc_12_6_3):
        report = certify_optimal(lrc_12_6_3)
        assert report.is_optimal
        assert report.all_hold
        assert len(report.verdicts) == 15
        assert {v.status for v in report.verdicts} == {"holds"}
        assert report.primal_hierarchy == KNOWN_PRIMAL_12_6_3
        assert report.dual_hierarchy == KNOWN_DUAL_12_6_3
        assert (report.mu, report.rho) == (2, 1)

    def test_mds_optimal_at_r_equals_k(self):
        report = certify_optimal(reed_solomon(7, 6, 3))
        assert report.r == 3 == report.k
        assert report.is_optimal  # Singleton-like reduces to Singleton
        assert report.all_hold

    def test_non_optimal_random_code_claims_still_hold(self):
        code = random_code(2, 10, 5, seed=11)
        report = certify_optimal(code)
        assert report.all_hold
        for claim in ("eq1", "thm1", "lem1", "lem2", "lem3", "lem4",
                      "prop1", "prop2", "prop3_mu", "prop4_rho"):
            assert report.verdict(claim).status == "holds"
        if not report.is_optimal:
            assert report.verdict("thm2").status == "not_applicable"
            assert report.verdict("lem5").status == "not_applicable"

    def test_r_not_dividing_k_skips_exact_forms(self, lrc_12_5_3):
        report = certify_optimal(lrc_12_5_3)
        assert report.is_optimal and report.d == 7
        assert report.verdict("thm2").status == "not_applicable"
        assert report.verdict("thm3").status == "not_applicable"
        for claim in ("lem5", "lem6", "thm4"):
            assert report.verdict(claim).status == "holds"

    def test_promised_r(self, lrc_12_6_3):
        # at r=4 the bound is 12-6-ceil(6/4)+2 = 6, still met by d=6
        report = certify_optimal(lrc_12_6_3, promised_r=4)
        assert report.r == 4 and report.promised_r
        assert report.is_optimal and report.all_hold
        # at r=k=6 the bound relaxes to the Singleton value 7 > 6
        report = certify_optimal(lrc_12_6_3, promised_r=6)
        assert not report.is_optimal
        assert report.all_hold
        assert report.verdict("lem5").status == "not_applicable"

    def test_promised_r_below_exact_rejected(self, lrc_12_6_3):
        with pytest.raises(ValueError, match="below the exact locality"):
            certify_optimal(lrc_12_6_3, promised_r=2)

    @pytest.mark.parametrize("promised_r", [0, 99])
    def test_promised_r_out_of_range_rejected_before_any_search(self, promised_r,
                                                               monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking promised_r")

        monkeypatch.setattr(bounds, "locality", no_search)
        monkeypatch.setattr(bounds, "weight_hierarchy", no_search)
        code = random_code(16, 18, 9, seed=1)
        with pytest.raises(ValueError, match=rf"^promised locality r={promised_r} "
                                             r"outside 1\.\.k=9$"):
            certify_optimal(code, promised_r=promised_r)

    def test_full_support_required(self, gf2):
        from ghwkit.code import CodeValidationError, LinearCode
        from oracles import identity

        full = LinearCode(gf2, identity(gf2, 4))
        with pytest.raises(CodeValidationError):
            certify_optimal(full)

    def test_flagged_dual_certifies_cleanly(self, gf2):
        # the dual of span{e1, e2+e3} misses coordinate 1, which then has
        # locality 0 (the symbol is identically zero); every claim still holds
        from ghwkit.code import LinearCode

        code = LinearCode(gf2, [[1, 0, 0], [0, 1, 1]]).dual()
        assert code.zero_coordinates == (0,)
        report = certify_optimal(code)
        assert report.locality_profile.per_coordinate == (0, 1, 1)
        assert report.r == 1 and report.d == 2
        assert report.all_hold

    def test_length_guard_runs_before_locality(self):
        code = reed_solomon(32, 30, 15)
        start = time.monotonic()
        with pytest.raises(LimitError, match="exceeds enumeration limit"):
            certify_optimal(code, time_limit=2.0)
        assert time.monotonic() - start < 1.0

    def test_time_limit_stops_the_locality_search(self):
        code = reed_solomon(32, 24, 12)
        start = time.monotonic()
        with pytest.raises(LimitError, match="locality search"):
            certify_optimal(code, time_limit=1.0)
        assert time.monotonic() - start < 5.0

    def test_time_limit_stops_the_sweep_that_starts_past_the_dual_distance(self):
        # A tie (k = n - k): with the dual distance known, G is swept.
        code = random_code(2, 22, 11, seed=1)
        profile = locality(code)
        start = time.monotonic()
        with pytest.raises(LimitError, match=r"\(generator side, size \d+ of 22\)"):
            certify_optimal(code, profile=profile, time_limit=0.05)
        assert time.monotonic() - start < 0.5


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wei_derived_dual_hierarchy_matches_the_dual_sweep(data):
    q = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(3, 10))
    k = data.draw(st.integers(1, n - 1))
    code = random_code(q, n, k, data.draw(st.integers(0, 2**32)))
    try:
        report = certify_optimal(code)
    except UncoverableCoordinateError:
        return
    dual = dual_hierarchy_values(code)
    assert report.dual_hierarchy == dual
    assert report.dual_gaps == tuple(sorted(set(range(1, n + 1)) - set(dual)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_certification_agrees_with_independent_routes(data):
    """certify_optimal starts its G sweep past the dual distance that its
    locality search found.  Its hierarchies must equal a sweep pinned to each
    side, its dual distance the lightest covering dual word, and its
    witnesses those of weight_hierarchy.  Ties, high-rate codes (whose
    locality search walks the dual words) and duals with zero coordinates
    (dual distance 1) are drawn on purpose."""
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]), label="q")
    shape = data.draw(st.sampled_from(["any", "tie", "high rate", "zero coordinates"]),
                      label="shape")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    if shape == "tie":
        k = data.draw(st.integers(1, 6), label="k")
        code = random_code(q, 2 * k, k, seed)
    elif shape == "high rate":
        n = data.draw(st.integers(3, 12), label="n")
        code = random_code(q, n, n - data.draw(st.integers(1, 2), label="n - k"), seed)
    elif shape == "zero coordinates":
        # The dual of a code holding unit vectors misses their coordinates.
        n = data.draw(st.integers(4, 12), label="n")
        base = random_code(q, n, data.draw(st.integers(1, n - 3), label="k"), seed)
        units = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2),
                          label="units")
        rows = [*base.generator.rows, *([int(j == u) for j in range(n)] for u in units)]
        code = LinearCode(base.field, rows).dual()
        assert code.zero_coordinates
    else:
        n = data.draw(st.integers(8, 12), label="n")
        code = random_code(q, n, data.draw(st.integers(1, n - 1), label="k"), seed)
    try:
        report = certify_optimal(code, with_witnesses=True)
    except UncoverableCoordinateError:
        return
    assert report.primal_hierarchy == primal_hierarchy_values(code)
    assert report.dual_hierarchy == dual_hierarchy_values(code)
    assert report.dual_hierarchy[0] == min(report.locality_profile.per_coordinate) + 1
    assert report.witnesses == weight_hierarchy(code, with_witnesses=True).witnesses


def _pair_code():
    return LinearCode(Field(2), [[1, 1, 0, 0], [0, 0, 1, 1]])  # d_1, d_2 = 2, 4


@pytest.mark.parametrize("call, error, match", [
    (lambda: covering_rows(_pair_code(), 0), ValueError, "locality parameter must be >= 1"),
    (lambda: dual_ghw_saturation((3, 6), 2, 1), ValueError, r"i=1 outside 2\.\.2"),
    (lambda: dual_ghw_saturation((3, 6), 2, 3), ValueError, r"i=3 outside 2\.\.2"),
    (lambda: gap_lower_bound(0, 1), ValueError, "need r >= 1"),
    (lambda: optimal_dual_hierarchy(5, 4, 1), ValueError, "k/r=4 exceeds n-k=1"),
    (lambda: optimal_dual_ghw_lower(12, 6, 3, 0), ValueError, r"i=0 outside 1\.\.n-k=6"),
    (lambda: optimal_dual_ghw_lower(12, 6, 3, 7), ValueError, r"i=7 outside 1\.\.n-k=6"),
    (lambda: optimal_gap_upper(12, 6, 3, 7), ValueError, r"i=7 outside 1\.\.k=6"),
    (lambda: optimal_primal_ghw_lower(12, 6, 3, 0), ValueError, r"i=0 outside 1\.\.k=6"),
    (lambda: d_opt_surrogate(1, 5, 2), ValueError, "field size must be >= 2"),
    (lambda: ghw_oracle(_pair_code(), 0), ValueError, r"i=0 outside 1\.\.k=2"),
    # q^k = 2^19 passes the codeword limit; the count of 2-dimensional
    # subcodes, about 4.6e10, is refused before any is enumerated.
    (lambda: ghw_oracle(random_code(2, 20, 19, seed=1), 2), LimitError, "exceed the oracle cap"),
    (lambda: WeightHierarchy(_pair_code(), (4, 2), (1, 3)), ValueError, "not strictly increasing"),
    (lambda: WeightHierarchy(_pair_code(), (2, 4), (1, 2)), ValueError, "not the complement"),
    (lambda: Field(2, 0), ValueError, "extension degree must be >= 1"),
    (lambda: Field(2, 2, modulus=[1, 2, 1]), ValueError, r"must lie in \[0, p\)"),
    (lambda: reed_solomon(7, 3, 4), ValueError, "need 1 <= k <= n"),
    (lambda: tamo_barg(13, 12, 6, 0), ValueError, "locality parameter must be >= 1"),
    (lambda: tamo_barg(13, 12, 13, 3), ValueError, "need 1 <= k <= n"),
    (lambda: Matrix(Field(2), [[1, 0]], ncols=3), ValueError, "ncols does not match row length"),
    (lambda: Matrix(Field(2), [[1, 0]]).left_mul_vector((1, 1)), ValueError,
     "vector length does not match row count"),
    (lambda: certify_optimal(_pair_code()).verdict("nope"), KeyError, "nope"),
], ids=["covering-rows-r0", "saturation-i1", "saturation-past-end", "gap-lower-r0",
        "optimal-dual-k/r", "dual-lower-i0", "dual-lower-past-end", "gap-upper-past-k",
        "primal-lower-i0", "d-opt-q1", "oracle-i0", "oracle-subspace-cap",
        "hierarchy-not-increasing", "hierarchy-wrong-gaps", "field-degree-0",
        "modulus-coefficient-p", "reed-solomon-k-above-n", "tamo-barg-r0",
        "tamo-barg-k-above-n", "matrix-ncols-mismatch", "left-mul-length",
        "unknown-verdict"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()

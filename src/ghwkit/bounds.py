"""Distance and hierarchy bounds for locally repairable codes, plus the
certification engine that evaluates every bound against a concrete code.

Closed-form material implemented here, with (n, k, r, q) integer inputs:

* the Singleton-like distance bound  d <= n - k - ceil(k/r) + 2  and its
  hierarchy generalization  d_i <= n - k - ceil((k-i+1)/r) + i + 1;
* upper bounds on the dual hierarchy (two-branch i(r+1) / k+i form), the
  step bound d_{i+1} <= d_i + (r+1), the saturation property, and the gap
  lower bound g_i >= ceil(i/r) + i - 1 for dual gaps;
* exact dual and primal hierarchies of distance-optimal codes when r | k,
  and lower bounds (dual hierarchy, primal hierarchy, gap upper bound) for
  distance-optimal codes when r does not divide k;
* the mu/rho parameters read off the dual hierarchy, with the identities
  mu = rho + 1 and d = n - k - mu + 2 = n - k - rho + 1;
* field-size-aware bounds via analytic surrogates for the best possible
  distance/dimension (minimum of the Singleton and Griesmer bounds).

``certify_optimal`` computes the exact locality and hierarchy of a code,
derives the dual hierarchy by Wei duality (V. K. Wei, IEEE Trans. IT 37(5),
1991), evaluates every claim, and reports whether the code is
distance-optimal for its locality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .code import LinearCode, SubcodeWitness
from .ghw import DEFAULT_LIMIT_N, _deadline, _guard, weight_hierarchy
from .locality import LocalityProfile, locality

CLAIM_IDS = (
    "eq1", "thm1", "lem1", "lem2", "lem3", "lem4",
    "thm2", "thm3", "lem5", "lem6", "thm4",
    "prop1", "prop2", "prop3_mu", "prop4_rho",
)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_params(n: int, k: int, r: int) -> None:
    if not 1 <= r <= k <= n:
        raise ValueError(f"need 1 <= r <= k <= n, got r={r}, k={k}, n={n}")


# ---------------------------------------------------------------------------
# Closed-form bounds


def singleton_like_bound(n: int, k: int, r: int) -> int:
    """d <= n - k - ceil(k/r) + 2; reduces to Singleton at r = k."""
    _check_params(n, k, r)
    return n - k - _ceil_div(k, r) + 2


def generalized_singleton_like_bound(n: int, k: int, r: int, i: int) -> int:
    """d_i <= n - k - ceil((k-i+1)/r) + i + 1 for 1 <= i <= k."""
    _check_params(n, k, r)
    if not 1 <= i <= k:
        raise ValueError(f"index i={i} outside 1..k={k}")
    return n - k - _ceil_div(k - i + 1, r) + i + 1


def dual_ghw_upper(n: int, k: int, r: int, i: int) -> int:
    """Upper bound on the i-th dual hierarchy value of an (n,k,r) code:
    i(r+1) up to floor(k/r), then k+i."""
    _check_params(n, k, r)
    if not 1 <= i <= n - k:
        raise ValueError(f"index i={i} outside 1..n-k={n - k}")
    if i <= k // r:
        return i * (r + 1)
    return k + i


def dual_ghw_step_bound(dual_hierarchy: Sequence[int], r: int,
                        k: int) -> tuple[bool, int | None]:
    """Check d_{i+1} <= d_i + (r+1) over 1 <= i <= floor(k/r).

    The stated range can name an index one past the dual hierarchy length;
    only existing indices are checked.  Returns (holds, first violating i).
    """
    dh = list(dual_hierarchy)
    top = min(k // r, len(dh) - 1)
    for i in range(1, top + 1):
        if dh[i] > dh[i - 1] + (r + 1):
            return False, i
    return True, None


def dual_ghw_saturation(dual_hierarchy: Sequence[int], r: int,
                        i: int) -> tuple[bool, int | None]:
    """If dual d_i = i(r+1), every earlier value must saturate too:
    d_j = j(r+1) for all j < i.  Vacuously true when d_i < i(r+1).
    Returns (holds, first violating j)."""
    dh = list(dual_hierarchy)
    if not 1 < i <= len(dh):
        raise ValueError(f"index i={i} outside 2..{len(dh)}")
    if dh[i - 1] != i * (r + 1):
        return True, None
    for j in range(1, i):
        if dh[j - 1] != j * (r + 1):
            return False, j
    return True, None


def gap_lower_bound(r: int, i: int) -> int:
    """g_i >= ceil(i/r) + i - 1 for the dual gap numbers, 1 <= i <= k."""
    if r < 1 or i < 1:
        raise ValueError(f"need r >= 1 and i >= 1, got r={r}, i={i}")
    return _ceil_div(i, r) + i - 1


def optimal_dual_hierarchy(n: int, k: int, r: int) -> tuple[int, ...]:
    """Exact dual hierarchy of a distance-optimal (n,k,r) code with r | k:
    i(r+1) up to k/r, then k+i."""
    _check_params(n, k, r)
    if k % r != 0:
        raise ValueError(f"r={r} does not divide k={k}")
    if k // r > n - k:
        raise ValueError(f"parameters inconsistent with an optimal code: "
                         f"k/r={k // r} exceeds n-k={n - k}")
    return tuple(i * (r + 1) if i <= k // r else k + i for i in range(1, n - k + 1))


def optimal_primal_hierarchy(n: int, k: int, r: int) -> tuple[int, ...]:
    """Exact hierarchy of a distance-optimal (n,k,r) code with r | k; every
    value meets the generalized Singleton-like bound with equality."""
    _check_params(n, k, r)
    if k % r != 0:
        raise ValueError(f"r={r} does not divide k={k}")
    return tuple(generalized_singleton_like_bound(n, k, r, i) for i in range(1, k + 1))


def optimal_dual_ghw_lower(n: int, k: int, r: int, i: int) -> int:
    """Lower bound on the i-th dual hierarchy value of a distance-optimal
    (n,k,r) code; exact (k+i) from i = ceil(k/r) on."""
    _check_params(n, k, r)
    if not 1 <= i <= n - k:
        raise ValueError(f"index i={i} outside 1..n-k={n - k}")
    t = _ceil_div(k, r)
    if i >= t:
        return k + i
    return i * (r + 1) - t * r + k


def optimal_gap_upper(n: int, k: int, r: int, i: int) -> int:
    """Upper bound on the i-th dual gap number of a distance-optimal
    (n,k,r) code."""
    _check_params(n, k, r)
    if not 1 <= i <= k:
        raise ValueError(f"index i={i} outside 1..k={k}")
    offset = _ceil_div(k, r) * r - k
    return _ceil_div(i + offset, r) + i - 1


def optimal_primal_ghw_lower(n: int, k: int, r: int, i: int) -> int:
    """Lower bound on the i-th hierarchy value of a distance-optimal
    (n,k,r) code; matches the upper bound when r | k."""
    _check_params(n, k, r)
    if not 1 <= i <= k:
        raise ValueError(f"index i={i} outside 1..k={k}")
    t = _ceil_div(k, r)
    return n - k - _ceil_div(t * r - i + 1, r) + i + 1


# ---------------------------------------------------------------------------
# mu / rho


def mu_rho(dual_hierarchy: Sequence[int], n: int, k: int,
           d1: int | None = None) -> tuple[int, int]:
    """mu = min{v : dual d_v = k+v} and rho = max{x : dual d_x - x < k}.

    The indices where the dual hierarchy touches k+i form a suffix, so
    mu = rho + 1 always; empty sets take the conventions mu = n-k+1 and
    rho = 0.  When the code's minimum distance d1 is supplied, the exact
    identities d1 = n-k-mu+2 = n-k-rho+1 are verified and any mismatch
    raises.
    """
    dh = list(dual_hierarchy)
    if len(dh) != n - k:
        raise ValueError(f"dual hierarchy has {len(dh)} values, expected n-k={n - k}")
    at = [i for i in range(1, n - k + 1) if dh[i - 1] == k + i]
    below = [i for i in range(1, n - k + 1) if dh[i - 1] - i < k]
    mu = at[0] if at else n - k + 1
    rho = below[-1] if below else 0
    if mu != rho + 1:
        raise RuntimeError(f"mu={mu} != rho+1={rho + 1}; dual hierarchy {dh} "
                           "is not strictly increasing under the Singleton bound")
    if d1 is not None:
        if d1 != n - k - mu + 2:
            raise RuntimeError(f"d={d1} != n-k-mu+2={n - k - mu + 2}")
        if d1 != n - k - rho + 1:
            raise RuntimeError(f"d={d1} != n-k-rho+1={n - k - rho + 1}")
    return mu, rho


# ---------------------------------------------------------------------------
# Field-size-aware surrogates


def _griesmer_sum(d: int, k: int, q: int, cap: int) -> int:
    total = 0
    p = 1
    for j in range(k):
        total += _ceil_div(d, p)
        if total > cap:
            return total
        if p <= d:
            p *= q
    return total


def d_opt_surrogate(q: int, n: int, k: int) -> int:
    """Upper bound on the best minimum distance of a q-ary [n, k] code:
    the minimum of the Singleton bound and the largest d passing the
    Griesmer inequality sum_{j<k} ceil(d/q^j) <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    singleton = n - k + 1
    d = 1
    while d + 1 <= n and _griesmer_sum(d + 1, k, q, n) <= n:
        d += 1
    return min(singleton, d)


def k_opt_surrogate(q: int, n: int, d: int) -> int:
    """Upper bound on the best dimension of a q-ary length-n code with
    minimum distance d: minimum of Singleton and the largest k passing
    the Griesmer inequality."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    singleton = n - d + 1
    k = 1
    while _griesmer_sum(d, k + 1, q, n) <= n:
        k += 1
    return min(singleton, k)


@dataclass(frozen=True)
class PropBound:
    """A minimized surrogate bound; `lrc_value` carries the locality-aware
    specialization when r < k, and `range_empty` marks the Singleton
    fallback used when no dual hierarchy value sits below k+i."""

    value: int
    range_empty: bool
    lrc_value: int | None


def prop1_bound(code: LinearCode, dual_hierarchy: Sequence[int],
                r: int | None = None) -> PropBound:
    """Distance bound d <= min over 1 <= i <= rho of
    d_opt(n - dual_d_i, k + i - dual_d_i), plus the locality form
    d_opt(n - i(r+1), k - ir) when r < k."""
    q, n, k = code.field.q, code.n, code.k
    dh = list(dual_hierarchy)
    _, rho = mu_rho(dh, n, k)
    if rho == 0:
        value, empty = n - k + 1, True
    else:
        value = min(d_opt_surrogate(q, n - dh[i - 1], k + i - dh[i - 1])
                    for i in range(1, rho + 1))
        empty = False
    lrc_value = None
    if r is not None and r < k:
        lrc_value = min(d_opt_surrogate(q, n - i * (r + 1), k - i * r)
                        for i in range(1, _ceil_div(k, r)))
    return PropBound(value=value, range_empty=empty, lrc_value=lrc_value)


def prop2_bound(code: LinearCode, dual_hierarchy: Sequence[int], d: int,
                r: int | None = None) -> PropBound:
    """Dimension bound k <= min over 1 <= i <= rho of
    k_opt(n - dual_d_i, d) - i + dual_d_i, plus the locality form
    ir + k_opt(n - i(r+1), d) when r < k."""
    q, n, k = code.field.q, code.n, code.k
    dh = list(dual_hierarchy)
    _, rho = mu_rho(dh, n, k)
    if rho == 0:
        value, empty = n - d + 1, True
    else:
        value = min(k_opt_surrogate(q, n - dh[i - 1], d) - i + dh[i - 1]
                    for i in range(1, rho + 1))
        empty = False
    lrc_value = None
    if r is not None and r < k:
        lrc_value = min(i * r + k_opt_surrogate(q, n - i * (r + 1), d)
                        for i in range(1, _ceil_div(k, r)))
    return PropBound(value=value, range_empty=empty, lrc_value=lrc_value)


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class ClaimVerdict:
    claim: str
    status: str
    witness_index: int | None = None
    detail: str = ""

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED


@dataclass(frozen=True)
class BoundReport:
    """Everything the certification pipeline derives for one code."""

    n: int
    k: int
    r: int
    q: int
    d: int
    promised_r: bool
    is_optimal: bool
    singleton_like: int
    primal_hierarchy: tuple[int, ...]
    primal_gaps: tuple[int, ...]
    dual_hierarchy: tuple[int, ...]
    dual_gaps: tuple[int, ...]
    locality_profile: LocalityProfile
    mu: int
    rho: int
    prop1: PropBound
    prop2: PropBound
    generalized_rows: tuple[dict, ...]
    dual_rows: tuple[dict, ...]
    verdicts: tuple[ClaimVerdict, ...]
    witnesses: dict[int, SubcodeWitness] | None = None
    # Wall time of each phase in ms ("locality", "hierarchy"); not compared.
    timings: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def violated_claims(self) -> tuple[str, ...]:
        return tuple(v.claim for v in self.verdicts if v.violated)

    @property
    def all_hold(self) -> bool:
        return not self.violated_claims

    def verdict(self, claim: str) -> ClaimVerdict:
        for v in self.verdicts:
            if v.claim == claim:
                return v
        raise KeyError(claim)


def _first_failure(pairs) -> int | None:
    for i, ok in pairs:
        if not ok:
            return i
    return None


def certify_optimal(code: LinearCode, *, promised_r: int | None = None,
                    limit_n: int = DEFAULT_LIMIT_N,
                    time_limit: float | None = None,
                    with_witnesses: bool = False,
                    profile: LocalityProfile | None = None) -> BoundReport:
    """Full certification of one code: exact locality, both hierarchies,
    every claim verdict, and the optimality decision d = eq1 value.

    ``promised_r`` evaluates the claims at a caller-supplied locality
    parameter instead of the computed one; it must be a genuine upper
    bound on the exact locality.  ``time_limit`` bounds the whole run.
    ``profile`` is the code's `locality` result when the caller has it
    already; the locality search is then skipped.
    """
    n, k, q = code.n, code.k, code.field.q
    _guard(code, limit_n)
    deadline = _deadline(time_limit)
    t0 = time.perf_counter()
    if profile is None:
        profile = locality(code, _deadline=deadline)
    t1 = time.perf_counter()
    if promised_r is not None:
        if not 1 <= promised_r <= k:
            raise ValueError(f"promised locality r={promised_r} outside 1..k={k}")
        if promised_r < profile.r:
            raise ValueError(f"promised locality r={promised_r} is below the "
                             f"exact locality {profile.r}")
        r = promised_r
    else:
        r = profile.r

    remaining = None if deadline is None else deadline - time.monotonic()
    t2 = time.perf_counter()
    primal = weight_hierarchy(code, with_witnesses=with_witnesses, limit_n=limit_n,
                              time_limit=remaining)
    timings = {"locality": (t1 - t0) * 1000, "hierarchy": (time.perf_counter() - t2) * 1000}
    dual_gaps = tuple(sorted(n + 1 - d_i for d_i in primal.values))  # Wei duality
    dual_values = tuple(sorted(set(range(1, n + 1)) - set(dual_gaps)))
    d = primal.values[0]
    mu, rho = mu_rho(dual_values, n, k, d1=d)
    eq1_value = singleton_like_bound(n, k, r)
    optimal = d == eq1_value
    r_divides = k % r == 0
    t_floor = k // r
    t_ceil = _ceil_div(k, r)

    verdicts: list[ClaimVerdict] = []

    def record(claim: str, ok: bool, index: int | None = None, detail: str = "") -> None:
        verdicts.append(ClaimVerdict(claim, HOLDS if ok else VIOLATED, index, detail))

    def skip(claim: str, detail: str) -> None:
        verdicts.append(ClaimVerdict(claim, NOT_APPLICABLE, None, detail))

    # eq1 / thm1: distance and hierarchy against the Singleton-like forms.
    record("eq1", d <= eq1_value, None, f"d={d} <= {eq1_value}")
    thm1_fail = _first_failure(
        (i, primal.values[i - 1] <= generalized_singleton_like_bound(n, k, r, i))
        for i in range(1, k + 1))
    record("thm1", thm1_fail is None, thm1_fail)

    # lem1: two-branch dual hierarchy upper bound.
    lem1_fail = _first_failure(
        (i, dual_values[i - 1] <= dual_ghw_upper(n, k, r, i))
        for i in range(1, n - k + 1))
    record("lem1", lem1_fail is None, lem1_fail)

    # lem2: step bound over the stated range (clamped to existing indices).
    lem2_ok, lem2_fail = dual_ghw_step_bound(dual_values, r, k)
    record("lem2", lem2_ok, lem2_fail)

    # lem3: saturation. If dual d_i = i(r+1), every j < i saturates too.
    lem3_fail = None
    for i in range(2, min(t_floor, n - k) + 1):
        ok, _ = dual_ghw_saturation(dual_values, r, i)
        if not ok:
            lem3_fail = i
            break
    record("lem3", lem3_fail is None, lem3_fail)

    # lem4: dual gap lower bound.
    lem4_fail = _first_failure(
        (i, dual_gaps[i - 1] >= gap_lower_bound(r, i)) for i in range(1, k + 1))
    record("lem4", lem4_fail is None, lem4_fail)

    # thm2 / thm3: exact hierarchies, optimal codes with r | k only.
    if optimal and r_divides:
        expected_dual = optimal_dual_hierarchy(n, k, r)
        thm2_fail = _first_failure(
            (i, dual_values[i - 1] == expected_dual[i - 1])
            for i in range(1, n - k + 1))
        record("thm2", thm2_fail is None, thm2_fail)
        expected_primal = optimal_primal_hierarchy(n, k, r)
        thm3_fail = _first_failure(
            (i, primal.values[i - 1] == expected_primal[i - 1])
            for i in range(1, k + 1))
        record("thm3", thm3_fail is None, thm3_fail)
    else:
        reason = "code is not distance-optimal" if not optimal else "r does not divide k"
        skip("thm2", reason)
        skip("thm3", reason)

    # lem5 / lem6 / thm4: optimal codes, any r.
    if optimal:
        def lem5_ok(i: int) -> bool:
            bound = optimal_dual_ghw_lower(n, k, r, i)
            if i >= t_ceil:
                return dual_values[i - 1] == bound
            return dual_values[i - 1] >= bound

        lem5_fail = _first_failure((i, lem5_ok(i)) for i in range(1, n - k + 1))
        record("lem5", lem5_fail is None, lem5_fail)
        lem6_fail = _first_failure(
            (i, dual_gaps[i - 1] <= optimal_gap_upper(n, k, r, i))
            for i in range(1, k + 1))
        record("lem6", lem6_fail is None, lem6_fail)
        thm4_fail = _first_failure(
            (i, primal.values[i - 1] >= optimal_primal_ghw_lower(n, k, r, i))
            for i in range(1, k + 1))
        record("thm4", thm4_fail is None, thm4_fail)
    else:
        for claim in ("lem5", "lem6", "thm4"):
            skip(claim, "code is not distance-optimal")

    # prop1 / prop2: field-size-aware surrogate bounds.
    p1 = prop1_bound(code, dual_values, r=r)
    p1_ok = d <= p1.value and (p1.lrc_value is None or d <= p1.lrc_value)
    record("prop1", p1_ok, None,
           f"d={d} <= {p1.value}" + (f", lrc {p1.lrc_value}" if p1.lrc_value is not None else ""))
    p2 = prop2_bound(code, dual_values, d, r=r)
    p2_ok = k <= p2.value and (p2.lrc_value is None or k <= p2.lrc_value)
    record("prop2", p2_ok, None,
           f"k={k} <= {p2.value}" + (f", lrc {p2.lrc_value}" if p2.lrc_value is not None else ""))

    # prop3 / prop4: distance identities through mu and rho.
    record("prop3_mu", d == n - k - mu + 2, None, f"mu={mu}")
    record("prop4_rho", d == n - k - rho + 1 and mu == rho + 1, None, f"rho={rho}")

    generalized_rows = tuple(
        {
            "i": i,
            "d_i": primal.values[i - 1],
            "thm1": generalized_singleton_like_bound(n, k, r, i),
            "thm4": optimal_primal_ghw_lower(n, k, r, i) if optimal else None,
        }
        for i in range(1, k + 1))
    dual_rows = tuple(
        {
            "i": i,
            "d_i_dual": dual_values[i - 1],
            "lem1": dual_ghw_upper(n, k, r, i),
            "lem5": optimal_dual_ghw_lower(n, k, r, i) if optimal else None,
        }
        for i in range(1, n - k + 1))

    return BoundReport(
        n=n, k=k, r=r, q=q, d=d,
        promised_r=promised_r is not None,
        is_optimal=optimal,
        singleton_like=eq1_value,
        primal_hierarchy=primal.values,
        primal_gaps=primal.gaps,
        dual_hierarchy=dual_values,
        dual_gaps=dual_gaps,
        locality_profile=profile,
        mu=mu, rho=rho,
        prop1=p1, prop2=p2,
        generalized_rows=generalized_rows,
        dual_rows=dual_rows,
        verdicts=tuple(verdicts),
        witnesses=primal.witnesses,
        timings=timings,
    )

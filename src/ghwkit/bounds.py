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

``certify_optimal`` computes the exact locality of a code, which gives
its dual distance, then the hierarchy, from a sweep that starts past that
distance on the dual side; it derives the dual hierarchy by Wei duality
(V. K. Wei, IEEE Trans. IT 37(5), 1991), evaluates every claim, and
reports whether the code is distance-optimal for its locality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .code import LinearCode, SubcodeWitness
from .ghw import DEFAULT_LIMIT_N, _gaps, _guard, _wei_complement, weight_hierarchy
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


def mu_rho(dual_hierarchy: Sequence[int], n: int, k: int) -> tuple[int, int]:
    """mu = min{v : dual d_v = k+v} and rho = max{x : dual d_x - x < k}.

    The indices where the dual hierarchy touches k+i form a suffix, so
    mu = rho + 1 always, and a mismatch raises; empty sets take the
    conventions mu = n-k+1 and rho = 0.  `distance_claims` checks the
    identities d = n-k-mu+2 = n-k-rho+1 against a code.
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


def _griesmer_largest(q: int, n: int, fixed: int, name: str,
                      fits: Callable[[int], bool]) -> int:
    """min(n - fixed + 1, the largest x in 1..n with fits(2), ..., fits(x))
    for a q-ary length-n code whose other parameter `name` is `fixed`."""
    if not 1 <= fixed <= n:
        raise ValueError(f"need 1 <= {name} <= n, got {name}={fixed}, n={n}")
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    x = 1
    while x < n and fits(x + 1):
        x += 1
    return min(n - fixed + 1, x)


def d_opt_surrogate(q: int, n: int, k: int) -> int:
    """Upper bound on the best minimum distance of a q-ary [n, k] code:
    the minimum of the Singleton bound and the largest d passing the
    Griesmer inequality sum_{j<k} ceil(d/q^j) <= n."""
    return _griesmer_largest(q, n, k, "k", lambda d: _griesmer_sum(d, k, q, n) <= n)


def k_opt_surrogate(q: int, n: int, d: int) -> int:
    """Upper bound on the best dimension of a q-ary length-n code with
    minimum distance d: minimum of Singleton and the largest k passing
    the Griesmer inequality."""
    return _griesmer_largest(q, n, d, "d", lambda k: _griesmer_sum(d, k, q, n) <= n)


@dataclass(frozen=True)
class PropBound:
    """A minimized surrogate bound; `lrc_value` carries the locality-aware
    specialization when r < k, and `range_empty` marks the Singleton
    fallback used when no dual hierarchy value sits below k+i."""

    value: int
    range_empty: bool
    lrc_value: int | None


def _prop_bound(code: LinearCode, dh: Sequence[int], r: int | None, singleton: int,
                term: Callable[[int, int], int]) -> PropBound:
    """min over 1 <= i <= rho of term(n - dual_d_i, i - dual_d_i), or
    `singleton` when rho = 0, and, when r < k, the locality form: min over
    1 <= i < ceil(k/r) of term(n - i(r+1), -ir)."""
    n, k = code.n, code.k
    _, rho = mu_rho(dh, n, k)
    value = min((term(n - dh[i - 1], i - dh[i - 1]) for i in range(1, rho + 1)),
                default=singleton)
    lrc_value = None
    if r is not None and r < k:
        lrc_value = min(term(n - i * (r + 1), -i * r) for i in range(1, _ceil_div(k, r)))
    return PropBound(value=value, range_empty=rho == 0, lrc_value=lrc_value)


def prop1_bound(code: LinearCode, dual_hierarchy: Sequence[int],
                r: int | None = None) -> PropBound:
    """Distance bound d <= min over 1 <= i <= rho of
    d_opt(n - dual_d_i, k + i - dual_d_i), plus the locality form
    d_opt(n - i(r+1), k - ir) when r < k."""
    q, k = code.field.q, code.k
    return _prop_bound(code, dual_hierarchy, r, code.n - k + 1,
                       lambda length, shift: d_opt_surrogate(q, length, k + shift))


def prop2_bound(code: LinearCode, dual_hierarchy: Sequence[int], d: int,
                r: int | None = None) -> PropBound:
    """Dimension bound k <= min over 1 <= i <= rho of
    k_opt(n - dual_d_i, d) - i + dual_d_i, plus the locality form
    ir + k_opt(n - i(r+1), d) when r < k."""
    q = code.field.q
    return _prop_bound(code, dual_hierarchy, r, code.n - d + 1,
                       lambda length, shift: k_opt_surrogate(q, length, d) - shift)


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class ClaimVerdict:
    """One claim's verdict.  ``payload`` holds, in order, the values the
    JSON report prints after ``status`` and ``witness_index``."""

    claim: str
    status: str
    witness_index: int | None = None
    payload: dict = field(default_factory=dict)

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
    primal_hierarchy: tuple[int, ...]
    primal_gaps: tuple[int, ...]
    dual_hierarchy: tuple[int, ...]
    dual_gaps: tuple[int, ...]
    locality_profile: LocalityProfile
    mu: int
    rho: int
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


def _status(ok: bool) -> str:
    return HOLDS if ok else VIOLATED


def distance_claims(code: LinearCode, d: int, dual_hierarchy: Sequence[int],
                    r: int | None = None) -> dict[str, tuple[str, None, dict]]:
    """prop1, prop2, prop3_mu and prop4_rho of a code with minimum distance
    d and dual hierarchy `dual_hierarchy`, as claim -> (status, None,
    payload); prop1 and prop2 take their locality forms too when r < k.
    Raises RuntimeError when the dual hierarchy has mu != rho + 1."""
    n, k = code.n, code.k
    mu, rho = mu_rho(dual_hierarchy, n, k)
    claims: dict[str, tuple[str, None, dict]] = {}
    for claim, bound, value in (("prop1", prop1_bound(code, dual_hierarchy, r=r), d),
                                ("prop2", prop2_bound(code, dual_hierarchy, d, r=r), k)):
        ok = value <= bound.value and (bound.lrc_value is None or value <= bound.lrc_value)
        payload = {"bound": bound.value, "lrc_bound": bound.lrc_value,
                   "range_empty": bound.range_empty}
        claims[claim] = (_status(ok), None, payload)
    claims["prop3_mu"] = (_status(d == n - k - mu + 2), None, {"mu": mu})
    claims["prop4_rho"] = (_status(d == n - k - rho + 1), None, {"rho": rho})
    return claims


def _per_index(values: Sequence[int], bounds: Sequence[int],
               holds: Callable[[int, int, int], bool],
               row_key: str | None = None) -> tuple[str, int | None, dict]:
    """Status, first failing index and payload of a claim checked as
    ``holds(i, values[i-1], bounds[i-1])`` for every i.  With ``row_key``
    the payload lists every row as ``per_i``."""
    rows = list(enumerate(zip(values, bounds), start=1))
    fail = next((i for i, (v, b) in rows if not holds(i, v, b)), None)
    payload = {} if row_key is None else {
        "per_i": [{"i": i, row_key: v, "bound": b} for i, (v, b) in rows]}
    return _status(fail is None), fail, payload


def certify_optimal(code: LinearCode, *, promised_r: int | None = None,
                    limit_n: int = DEFAULT_LIMIT_N,
                    time_limit: float | None = None,
                    with_witnesses: bool = False,
                    profile: LocalityProfile | None = None) -> BoundReport:
    """Full certification of one code: exact locality, both hierarchies,
    every claim verdict (in ``CLAIM_IDS`` order), and the optimality
    decision d = eq1 value.

    ``promised_r`` evaluates the claims at a caller-supplied locality
    parameter instead of the computed one; it must be a genuine upper
    bound on the exact locality.  ``time_limit`` bounds the whole run.
    ``profile`` is the code's `locality` result when the caller has it
    already; the locality search is then skipped.  It must be that exact
    result: its smallest locality plus one is the dual distance, which
    starts the hierarchy sweep of G past the sizes it settles.
    """
    n, k, q = code.n, code.k, code.field.q
    if promised_r is not None and not 1 <= promised_r <= k:
        raise ValueError(f"promised locality r={promised_r} outside 1..k={k}")
    deadline = _guard(code, limit_n, time_limit)
    t0 = time.perf_counter()
    if profile is None:
        profile = locality(code, _deadline=deadline)
    t1 = time.perf_counter()
    r = profile.r if promised_r is None else promised_r
    if r < profile.r:
        raise ValueError(f"promised locality r={r} is below the exact locality {profile.r}")

    remaining = None if deadline is None else deadline - time.monotonic()
    t2 = time.perf_counter()
    # A coordinate's locality is the weight of the lightest dual codeword
    # covering it, minus one, so the lightest of all gives the dual distance.
    primal = weight_hierarchy(code, with_witnesses=with_witnesses, limit_n=limit_n,
                              time_limit=remaining,
                              _dual_distance=min(profile.per_coordinate) + 1)
    timings = {"locality": (t1 - t0) * 1000, "hierarchy": (time.perf_counter() - t2) * 1000}
    dual_values = _wei_complement(n, primal.values)
    dual_gaps = _gaps(n, dual_values)
    d = primal.values[0]
    eq1_value = singleton_like_bound(n, k, r)
    optimal = d == eq1_value

    def over(bound, count: int) -> list[int]:
        return [bound(n, k, r, i) for i in range(1, count + 1)]

    # claim -> (status, witness index, payload), evaluated in CLAIM_IDS order.
    claims: dict[str, tuple[str, int | None, dict]] = {}
    claims["eq1"] = (_status(d <= eq1_value), None, {"bound": eq1_value})
    claims["thm1"] = _per_index(primal.values, over(generalized_singleton_like_bound, k),
                                lambda i, v, b: v <= b, "d_i")
    claims["lem1"] = _per_index(dual_values, over(dual_ghw_upper, n - k),
                                lambda i, v, b: v <= b, "d_i_dual")
    # lem2: step bound over the stated range (clamped to existing indices).
    ok, fail = dual_ghw_step_bound(dual_values, r, k)
    claims["lem2"] = (_status(ok), fail, {})
    # lem3: saturation. If dual d_i = i(r+1), every j < i saturates too.
    fail = next((i for i in range(2, min(k // r, n - k) + 1)
                 if not dual_ghw_saturation(dual_values, r, i)[0]), None)
    claims["lem3"] = (_status(fail is None), fail, {})
    claims["lem4"] = _per_index(dual_gaps, [gap_lower_bound(r, i) for i in range(1, k + 1)],
                                lambda i, v, b: v >= b)

    # thm2 / thm3: exact hierarchies, optimal codes with r | k only.
    for claim, values, exact in (("thm2", dual_values, optimal_dual_hierarchy),
                                 ("thm3", primal.values, optimal_primal_hierarchy)):
        if optimal and k % r == 0:
            status, fail, _ = _per_index(values, exact(n, k, r), lambda i, v, b: v == b)
            claims[claim] = (status, fail, {"expected": list(values) if fail is None else None})
        else:
            claims[claim] = (NOT_APPLICABLE, None, {"expected": None})

    # lem5 / lem6 / thm4: optimal codes, any r; lem5 is exact from ceil(k/r) on.
    if optimal:
        t = _ceil_div(k, r)
        claims["lem5"] = _per_index(
            dual_values, over(optimal_dual_ghw_lower, n - k),
            lambda i, v, b: v == b if i >= t else v >= b, "d_i_dual")
        claims["lem6"] = _per_index(dual_gaps, over(optimal_gap_upper, k),
                                    lambda i, v, b: v <= b)
        claims["thm4"] = _per_index(primal.values, over(optimal_primal_ghw_lower, k),
                                    lambda i, v, b: v >= b, "d_i")
    else:
        claims["lem5"] = (NOT_APPLICABLE, None, {"per_i": None})
        claims["lem6"] = (NOT_APPLICABLE, None, {})
        claims["thm4"] = (NOT_APPLICABLE, None, {"per_i": None})

    claims.update(distance_claims(code, d, dual_values, r))
    mu, rho = claims["prop3_mu"][2]["mu"], claims["prop4_rho"][2]["rho"]

    return BoundReport(
        n=n, k=k, r=r, q=q, d=d,
        promised_r=promised_r is not None,
        is_optimal=optimal,
        primal_hierarchy=primal.values,
        primal_gaps=primal.gaps,
        dual_hierarchy=dual_values,
        dual_gaps=dual_gaps,
        locality_profile=profile,
        mu=mu, rho=rho,
        verdicts=tuple(ClaimVerdict(claim, *claims[claim]) for claim in CLAIM_IDS),
        witnesses=primal.witnesses,
        timings=timings,
    )

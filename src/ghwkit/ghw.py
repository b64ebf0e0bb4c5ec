"""Weight hierarchies, gap numbers and duality checks for linear codes.

The i-th hierarchy value of a code C with parity-check matrix H is

    d_i = min{ |S| : |S| - rank(H_S) >= i },

because the subcode of C supported inside a coordinate set S has dimension
|S| - rank(H_S).  A single ascending sweep over support sizes s = 1..n finds
all d_i at once: the per-size maximum of |S| - rank(H_S) is monotone in s,
so d_i is the first size whose maximum reaches i.  Subsets are enumerated
lexicographically with an incremental column basis and a pruning bound
(s - rank so far) that cannot change the result.

Over GF(2) the sweep takes a packed route (`_max_excess_gf2`): each column
of H is packed into one int once per code, and each search node carries the
remaining columns already reduced against the chosen ones, so a candidate
raises the rank exactly when its reduced column is nonzero, and choosing a
column XORs it into the later columns that share its lowest set bit (the
packing follows M4RI: Albrecht, Bard, Hart, "Algorithm 898", ACM TOMS 37(1),
2010).  It visits the same nodes in the same order as the generic route and
returns the same values and witness subsets.  `_size_search` picks the route
from the field; every other field reduces element lists against a basis
(`_max_excess_for_size`).

``ghw_oracle`` recomputes d_i straight from the definition by enumerating
every i-dimensional subcode once (canonical RREF bases over the message
space) and exists solely to validate the subset-rank route.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence

from .algebra import Matrix, reduce_against
from .code import LinearCode, SubcodeWitness

DEFAULT_LIMIT_N = 24
DEFAULT_ORACLE_LIMIT = 10**6
_ORACLE_SUBSPACE_CAP = 2 * 10**6


class LimitError(RuntimeError):
    """Instance exceeds an enumeration limit or the wall-time guard."""


# ---------------------------------------------------------------------------
# Subset-rank sweep


def _max_excess_for_size(cols, s, need, fld, deadline):
    """Maximum of |S| - rank(columns S) over |S| = s, with its first argmax.

    Values below `need` are not distinguished (they are pruned); the return
    is exact whenever it is >= need.
    """
    n = len(cols)
    best = need - 1
    best_subset: tuple[int, ...] | None = None
    mul, inv = fld.mul, fld.inv
    basis: list[tuple[int, list[int]]] = []
    chosen: list[int] = []
    ticks = [0]

    def extend(start: int, remaining: int) -> None:
        nonlocal best, best_subset
        ticks[0] += 1
        if deadline is not None and ticks[0] % 1024 == 0 and time.monotonic() > deadline:
            raise LimitError("wall-time guard exceeded during hierarchy sweep")
        last = n - remaining
        for j in range(start, last + 1):
            vec = list(cols[j])
            piv = reduce_against(vec, basis, fld)
            new_rank = len(basis) + (piv >= 0)
            if s - new_rank <= best:
                continue
            chosen.append(j)
            if remaining == 1:
                best = s - new_rank
                best_subset = tuple(chosen)
                chosen.pop()
                continue
            if piv >= 0:
                sc = inv(vec[piv])
                if sc != 1:
                    vec = [mul(sc, e) for e in vec]
                entry = (piv, vec)
                insort(basis, entry)
                extend(j + 1, remaining - 1)
                basis.remove(entry)
            else:
                extend(j + 1, remaining - 1)
            chosen.pop()

    extend(0, s)
    return best, best_subset


def _max_excess_gf2(cols: list[int], s, need, deadline):
    """`_max_excess_for_size` over GF(2), on columns packed into ints: the
    same nodes in the same order, the same pruning, the same first argmax.

    XORing a chosen reduced column v into each later column with v's lowest
    set bit keeps every later column zero at the chosen pivots, so it is
    zero exactly when it lies in the span of the chosen columns.
    """
    n = len(cols)
    best = need - 1
    best_subset: tuple[int, ...] | None = None
    chosen: list[int] = []
    ticks = 0

    def extend(red: list[int], start: int, rank: int, remaining: int) -> None:
        # red[j - start] is column j reduced against the chosen columns.
        nonlocal best, best_subset, ticks
        ticks += 1
        if deadline is not None and ticks % 1024 == 0 and time.monotonic() > deadline:
            raise LimitError("wall-time guard exceeded during hierarchy sweep")
        last = n - remaining
        for j in range(start, last + 1):
            v = red[j - start]
            new_rank = rank + 1 if v else rank
            if s - new_rank <= best:
                continue
            chosen.append(j)
            if remaining == 1:
                best = s - new_rank
                best_subset = tuple(chosen)
            elif v:
                low = v & -v
                extend([r ^ v if r & low else r for r in red[j + 1 - start:]],
                       j + 1, new_rank, remaining - 1)
            else:
                extend(red[j + 1 - start:], j + 1, rank, remaining - 1)
            chosen.pop()

    extend(cols, 0, 0, s)
    return best, best_subset


def _size_search(check: Matrix):
    """(s, need, deadline) -> `_max_excess_for_size` on the columns of
    `check`, through the packed kernel when the field is GF(2)."""
    if check.field.q == 2:
        packed = [sum(bit << i for i, bit in enumerate(col)) for col in check.columns()]
        return lambda s, need, deadline: _max_excess_gf2(packed, s, need, deadline)
    cols, fld = check.columns(), check.field
    return lambda s, need, deadline: _max_excess_for_size(cols, s, need, fld, deadline)


def _sweep_hierarchy(check: Matrix, dims: int, *, collect_subsets: bool,
                     deadline: float | None):
    """All d_1..d_dims for the code with the given check matrix."""
    n = check.ncols
    search = _size_search(check)
    values: list[int] = [0] * (dims + 1)
    subsets: dict[int, tuple[int, ...]] = {}
    i_min = 1
    for s in range(1, n + 1):
        if i_min > dims:
            break
        best, best_subset = search(s, i_min, deadline)
        if best >= i_min:
            for i in range(i_min, best + 1):
                values[i] = s
                if collect_subsets:
                    subsets[i] = best_subset
            i_min = best + 1
    if i_min <= dims:  # pragma: no cover - rank(check) = n - dims guarantees completion
        raise RuntimeError("hierarchy sweep did not resolve every index")
    return values[1:], subsets


def _witness_from_subset(code: LinearCode, subset: tuple[int, ...]) -> SubcodeWitness:
    """Basis of the subcode supported inside `subset`, embedded at full length."""
    basis = code.check.nullspace_within(subset)
    return SubcodeWitness(basis=basis, dimension=len(basis), support=tuple(subset))


def _guard(code: LinearCode, limit_n: int) -> None:
    if code.n > limit_n:
        raise LimitError(f"code length {code.n} exceeds enumeration limit {limit_n}")


def _deadline(time_limit: float | None) -> float | None:
    return None if time_limit is None else time.monotonic() + time_limit


@dataclass(frozen=True)
class WeightHierarchy:
    """d_1..d_k of a code plus the gap numbers (complement in 1..n)."""

    code: LinearCode
    values: tuple[int, ...]
    gaps: tuple[int, ...]
    witnesses: dict[int, SubcodeWitness] | None = None

    def __post_init__(self) -> None:
        v = self.values
        if any(v[i] >= v[i + 1] for i in range(len(v) - 1)):
            raise ValueError(f"hierarchy not strictly increasing: {v}")
        n = self.code.n
        expected = tuple(sorted(set(range(1, n + 1)) - set(v)))
        if self.gaps != expected:
            raise ValueError("gap numbers are not the complement of the hierarchy")

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def ghw(code: LinearCode, i: int, *, with_witness: bool = True,
        limit_n: int = DEFAULT_LIMIT_N, time_limit: float | None = None):
    """The i-th hierarchy value and (optionally) a witness subcode."""
    if not 1 <= i <= code.k:
        raise ValueError(f"index i={i} outside 1..k={code.k}")
    _guard(code, limit_n)
    values, subsets = _sweep_hierarchy(code.check, i, collect_subsets=with_witness,
                                       deadline=_deadline(time_limit))
    witness = _witness_from_subset(code, subsets[i]) if with_witness else None
    return values[-1], witness


def weight_hierarchy(code: LinearCode, *, with_witnesses: bool = False,
                     limit_n: int = DEFAULT_LIMIT_N,
                     time_limit: float | None = None) -> WeightHierarchy:
    _guard(code, limit_n)
    values, subsets = _sweep_hierarchy(code.check, code.k,
                                       collect_subsets=with_witnesses,
                                       deadline=_deadline(time_limit))
    gaps = tuple(sorted(set(range(1, code.n + 1)) - set(values)))
    witnesses = None
    if with_witnesses:
        cache: dict[tuple[int, ...], SubcodeWitness] = {}
        witnesses = {}
        for i, subset in subsets.items():
            if subset not in cache:
                cache[subset] = _witness_from_subset(code, subset)
            witnesses[i] = cache[subset]
    return WeightHierarchy(code=code, values=tuple(values), gaps=gaps,
                           witnesses=witnesses)


def gap_numbers(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                time_limit: float | None = None) -> tuple[int, ...]:
    """Sorted {1..n} minus the weight hierarchy; always n-k values."""
    return weight_hierarchy(code, limit_n=limit_n, time_limit=time_limit).gaps


# ---------------------------------------------------------------------------
# Duality


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the two hierarchy/dual-hierarchy identities."""

    holds: bool
    complement_identity: bool
    gap_identity: bool
    primal: tuple[int, ...]
    dual: tuple[int, ...]
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def dual_hierarchy_values(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                          time_limit: float | None = None) -> tuple[int, ...]:
    """Hierarchy of the dual code; empty for a full-space code (k = n)."""
    if code.k == code.n:
        return ()
    dual_h = weight_hierarchy(code.dual(), limit_n=limit_n, time_limit=time_limit)
    return dual_h.values


def check_wei_duality(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                      time_limit: float | None = None) -> DualityReport:
    """Verify {d_i} = {1..n} \\ {n+1-d_j of the dual} and the gap form
    d_i = (n+1) - g_{k-i+1} of the dual, both exactly."""
    n, k = code.n, code.k
    primal = weight_hierarchy(code, limit_n=limit_n, time_limit=time_limit)
    dual_values = dual_hierarchy_values(code, limit_n=limit_n, time_limit=time_limit)
    violations: list[str] = []

    mirror = {n + 1 - dj for dj in dual_values}
    complement_ok = set(primal.values) == set(range(1, n + 1)) - mirror
    if not complement_ok:
        violations.append(
            f"complement identity: {sorted(primal.values)} != "
            f"{sorted(set(range(1, n + 1)) - mirror)}"
        )

    dual_gaps = tuple(sorted(set(range(1, n + 1)) - set(dual_values)))  # k values
    gap_ok = True
    for i in range(1, k + 1):
        expected = (n + 1) - dual_gaps[k - i]
        if primal.values[i - 1] != expected:
            gap_ok = False
            violations.append(f"gap identity at i={i}: d_i={primal.values[i - 1]} "
                              f"!= {expected}")
    return DualityReport(holds=complement_ok and gap_ok,
                         complement_identity=complement_ok,
                         gap_identity=gap_ok,
                         primal=primal.values,
                         dual=dual_values,
                         violations=tuple(violations))


# ---------------------------------------------------------------------------
# Definition-level oracle


def _gaussian_binomial(k: int, i: int, q: int) -> int:
    num = den = 1
    for t in range(i):
        num *= q ** (k - t) - 1
        den *= q ** (t + 1) - 1
    return num // den


def ghw_oracle(code: LinearCode, i: int, *, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """d_i straight from the definition: minimum support size over all
    i-dimensional subcodes, each counted once via its canonical RREF basis
    in the message space."""
    if not 1 <= i <= code.k:
        raise ValueError(f"index i={i} outside 1..k={code.k}")
    q, k, n = code.field.q, code.k, code.n
    if q**k > limit:
        raise LimitError(f"q^k = {q**k} exceeds oracle limit {limit}")
    n_subspaces = _gaussian_binomial(k, i, q)
    if n_subspaces > _ORACLE_SUBSPACE_CAP:
        raise LimitError(f"{n_subspaces} subcodes of dimension {i} exceed the "
                         f"oracle cap {_ORACLE_SUBSPACE_CAP}")
    gen = code.generator

    def mask_of(message: Sequence[int]) -> int:
        word = gen.left_mul_vector(message)
        m = 0
        for j, e in enumerate(word):
            if e:
                m |= 1 << j
        return m

    best = n + 1
    for pivots in combinations(range(k), i):
        pivot_set = set(pivots)
        row_options: list[list[int]] = []
        for t, p in enumerate(pivots):
            free = [c for c in range(p + 1, k) if c not in pivot_set]
            options = []
            for assignment in product(range(q), repeat=len(free)):
                row = [0] * k
                row[p] = 1
                for c, v in zip(free, assignment):
                    row[c] = v
                options.append(mask_of(row))
            row_options.append(options)
        for masks in product(*row_options):
            union = 0
            for m in masks:
                union |= m
            w = union.bit_count()
            if w < best:
                best = w
    return best

"""Weight hierarchies, gap numbers and duality checks for linear codes.

The i-th hierarchy value of a code C with parity-check matrix H is

    d_i = min{ |S| : |S| - rank(H_S) >= i },

because the subcode of C supported inside a coordinate set S has dimension
|S| - rank(H_S), its excess.  A single ascending sweep over support sizes
s = 1..n finds all d_i at once.  The largest excess e(s) over size-s subsets
never falls as s grows and rises by at most 1 per step (dropping one column
from a size-s argmax costs at most 1), so d_i is the size where e(s) first
reaches i.  Each size therefore asks one question: which is the first
subset, in lex order, whose excess reaches need = e(s-1) + 1?  That subset
is also the first argmax at size s, and the search stops there.  Subsets are
enumerated lexicographically with an incremental column basis, and a branch
is pruned once its rank so far rules the need out.

The sweep runs over whichever of H and G has fewer rows.  G is the check
matrix of the dual code, so a sweep over G gives the dual hierarchy
d_1(C⊥)..d_(n-k)(C⊥), and Wei duality (V. K. Wei, IEEE Trans. IT 37(5),
1991) reads the hierarchy of C off it as {1..n} minus {n+1 - d_j(C⊥)}.
`weight_hierarchy` sweeps G when k < n - k and H otherwise.  The witness
subsets come from H in both cases: on the G side, one search on H at each
size d_i, with the need the H sweep would ask there.  `check_wei_duality`
pins one sweep to each side, so the identity it checks is never a sweep
compared with itself.

Over GF(2) the search takes a packed route (`_max_excess_gf2`): each column
is packed into one int once per code, and each search node carries the
remaining columns already reduced against the chosen ones, so a candidate
raises the rank exactly when its reduced column is nonzero, and choosing a
column XORs it into the later columns that share its lowest set bit (the
packing follows M4RI: Albrecht, Bard, Hart, "Algorithm 898", ACM TOMS 37(1),
2010).  It visits the same nodes in the same order as the generic route and
returns the same subsets.  `_size_search` picks the route from the field;
every other field reduces element lists against a basis
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
_WALL_TIME = "wall-time guard exceeded during hierarchy sweep"


class LimitError(RuntimeError):
    """Instance exceeds an enumeration limit or the wall-time guard."""


# ---------------------------------------------------------------------------
# Subset-rank sweep


def _max_excess_for_size(cols, s, need, fld, deadline):
    """The first subset S with |S| = s, in lex order, whose excess
    |S| - rank(columns S) reaches `need`, as (excess, S); (need - 1, None)
    when no subset reaches it.

    With need = e(s-1) + 1 the subset returned is the first argmax at size
    s; for a smaller need it need not be a maximum.
    """
    n = len(cols)
    max_rank = s - need  # a subset reaches need exactly when its rank is at most this
    found: list[int] = []
    mul, inv = fld.mul, fld.inv
    basis: list[tuple[int, list[int]]] = []
    chosen: list[int] = []
    ticks = [0]

    def extend(start: int, remaining: int) -> bool:
        ticks[0] += 1
        if deadline is not None and ticks[0] % 1024 == 0 and time.monotonic() > deadline:
            raise LimitError(_WALL_TIME)
        last = n - remaining
        for j in range(start, last + 1):
            vec = list(cols[j])
            piv = reduce_against(vec, basis, fld)
            new_rank = len(basis) + (piv >= 0)
            if new_rank > max_rank:
                continue
            chosen.append(j)
            if remaining == 1:
                found.append(new_rank)
                return True
            if piv >= 0:
                sc = inv(vec[piv])
                if sc != 1:
                    vec = [mul(sc, e) for e in vec]
                entry = (piv, vec)
                insort(basis, entry)
                if extend(j + 1, remaining - 1):
                    return True
                basis.remove(entry)
            elif extend(j + 1, remaining - 1):
                return True
            chosen.pop()
        return False

    if max_rank < 0 or not extend(0, s):
        return need - 1, None
    return s - found[0], tuple(chosen)


def _max_excess_gf2(cols: list[int], s, need, deadline):
    """`_max_excess_for_size` over GF(2), on columns packed into ints: the
    same nodes in the same order, the same pruning, the same return.

    XORing a chosen reduced column v into each later column with v's lowest
    set bit keeps every later column zero at the chosen pivots, so it is
    zero exactly when it lies in the span of the chosen columns.
    """
    n = len(cols)
    max_rank = s - need
    found: list[int] = []
    chosen: list[int] = []
    ticks = 0

    def extend(red: list[int], start: int, rank: int, remaining: int) -> bool:
        # red[j - start] is column j reduced against the chosen columns.
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % 1024 == 0 and time.monotonic() > deadline:
            raise LimitError(_WALL_TIME)
        last = n - remaining
        for j in range(start, last + 1):
            v = red[j - start]
            new_rank = rank + 1 if v else rank
            if new_rank > max_rank:
                continue
            chosen.append(j)
            if remaining == 1:
                found.append(new_rank)
                return True
            if v:
                low = v & -v
                if extend([r ^ v if r & low else r for r in red[j + 1 - start:]],
                          j + 1, new_rank, remaining - 1):
                    return True
            elif extend(red[j + 1 - start:], j + 1, rank, remaining - 1):
                return True
            chosen.pop()
        return False

    if max_rank < 0 or not extend(cols, 0, 0, s):
        return need - 1, None
    return s - found[0], tuple(chosen)


def _size_search(check: Matrix, side: str = "check"):
    """(s, need, deadline) -> `_max_excess_for_size` on the columns of
    `check`, through the packed kernel when the field is GF(2).  A guard
    error names the side of the duality and the size it stopped at."""
    cols, fld = check.columns(), check.field
    packed = [sum(bit << i for i, bit in enumerate(col)) for col in cols] if fld.q == 2 else None

    def search(s, need, deadline):
        try:
            if deadline is not None and time.monotonic() > deadline:
                raise LimitError(_WALL_TIME)
            if packed is not None:
                return _max_excess_gf2(packed, s, need, deadline)
            return _max_excess_for_size(cols, s, need, fld, deadline)
        except LimitError as exc:
            raise LimitError(f"{exc} ({side} side, size {s} of {check.ncols})") from None

    return search


def _sweep_hierarchy(check: Matrix, dims: int, *, side: str, deadline: float | None):
    """d_1..d_dims for the code with the given check matrix, and for each
    the first subset that reaches it."""
    search = _size_search(check, side)
    values: list[int] = []
    subsets: list[tuple[int, ...]] = []
    for s in range(1, check.ncols + 1):
        if len(values) == dims:
            break
        _, subset = search(s, len(values) + 1, deadline)
        if subset is not None:
            values.append(s)
            subsets.append(subset)
    if len(values) < dims:  # pragma: no cover - rank(check) = n - dims guarantees completion
        raise RuntimeError("hierarchy sweep did not resolve every index")
    return values, subsets


def _wei_complement(n: int, values: Sequence[int]) -> tuple[int, ...]:
    """The hierarchy of the dual of a length-n code with hierarchy `values`."""
    return tuple(sorted(set(range(1, n + 1)) - {n + 1 - d for d in values}))


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
    values, subsets = _sweep_hierarchy(code.check, i, side="check",
                                       deadline=_deadline(time_limit))
    witness = _witness_from_subset(code, subsets[-1]) if with_witness else None
    return values[-1], witness


def weight_hierarchy(code: LinearCode, *, with_witnesses: bool = False,
                     limit_n: int = DEFAULT_LIMIT_N,
                     time_limit: float | None = None) -> WeightHierarchy:
    """d_1..d_k from a sweep of H, or of G through Wei duality when G has
    fewer rows (k < n - k); the same values either way.  Witnesses are the
    first subsets the H sweep reaches each d_i with; on the G side they cost
    one search on H per d_i."""
    _guard(code, limit_n)
    deadline = _deadline(time_limit)
    n, k = code.n, code.k
    if k < n - k:
        dual_values, _ = _sweep_hierarchy(code.generator, n - k, side="generator",
                                          deadline=deadline)
        values = _wei_complement(n, dual_values)
        if with_witnesses:
            search = _size_search(code.check)
            subsets = [search(d_i, i, deadline)[1] for i, d_i in enumerate(values, 1)]
    else:
        values, subsets = _sweep_hierarchy(code.check, k, side="check", deadline=deadline)
    witnesses = None
    if with_witnesses:
        witnesses = {i: _witness_from_subset(code, subset)
                     for i, subset in enumerate(subsets, 1)}
    gaps = tuple(sorted(set(range(1, n + 1)) - set(values)))
    return WeightHierarchy(code=code, values=tuple(values), gaps=gaps, witnesses=witnesses)


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


def primal_hierarchy_values(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                            time_limit: float | None = None) -> tuple[int, ...]:
    """Hierarchy of the code from a sweep of its check matrix H, at any rate.

    The cross-checks pin this side and `dual_hierarchy_values` the other,
    so they never compare a sweep with itself."""
    _guard(code, limit_n)
    values, _ = _sweep_hierarchy(code.check, code.k, side="check",
                                 deadline=_deadline(time_limit))
    return tuple(values)


def dual_hierarchy_values(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                          time_limit: float | None = None) -> tuple[int, ...]:
    """Hierarchy of the dual code from a sweep of G, its check matrix;
    empty for a full-space code (k = n)."""
    if code.k == code.n:
        return ()
    _guard(code, limit_n)
    values, _ = _sweep_hierarchy(code.generator, code.n - code.k, side="generator",
                                 deadline=_deadline(time_limit))
    return tuple(values)


def check_wei_duality(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                      time_limit: float | None = None) -> DualityReport:
    """Verify {d_i} = {1..n} \\ {n+1-d_j of the dual} and the gap form
    d_i = (n+1) - g_{k-i+1} of the dual, both exactly, between a sweep of H
    and a sweep of G."""
    n, k = code.n, code.k
    primal = primal_hierarchy_values(code, limit_n=limit_n, time_limit=time_limit)
    dual_values = dual_hierarchy_values(code, limit_n=limit_n, time_limit=time_limit)
    violations: list[str] = []

    mirrored = _wei_complement(n, dual_values)
    complement_ok = primal == mirrored
    if not complement_ok:
        violations.append(f"complement identity: {list(primal)} != {list(mirrored)}")

    dual_gaps = tuple(sorted(set(range(1, n + 1)) - set(dual_values)))  # k values
    gap_ok = True
    for i in range(1, k + 1):
        expected = (n + 1) - dual_gaps[k - i]
        if primal[i - 1] != expected:
            gap_ok = False
            violations.append(f"gap identity at i={i}: d_i={primal[i - 1]} "
                              f"!= {expected}")
    return DualityReport(holds=complement_ok and gap_ok,
                         complement_identity=complement_ok,
                         gap_identity=gap_ok,
                         primal=primal,
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

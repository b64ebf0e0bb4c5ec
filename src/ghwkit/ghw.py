"""Weight hierarchies, gap numbers and duality checks for linear codes.

The i-th hierarchy value of a code C with parity-check matrix H is

    d_i = min{ |S| : |S| - rank(H_S) >= i },

because the subcode of C supported inside a coordinate set S has dimension
|S| - rank(H_S), its excess.  The largest excess e(s) over size-s subsets
never falls as s grows and rises by at most 1 per step (a column dropped
from a size-s argmax costs at most 1), so d_i is the size where e(s) first
reaches i, and one ascending sweep over s = 1..n finds all d_i: each size
asks for the first lex subset whose excess reaches need = e(s-1) + 1, which
is also the first argmax at size s.

The sweep runs over whichever of H and G has fewer rows.  G is the check
matrix of the dual code, and Wei duality (V. K. Wei, IEEE Trans. IT 37(5),
1991) reads the hierarchy of C off the dual one as {1..n} minus
{n+1 - d_j(C⊥)}.  Witness subsets always come from H: on the G side, one
search on H at each size d_i with need i.  `check_wei_duality` pins one
sweep to each side, so it never compares a sweep with itself.

Two kernels walk column subsets in lex order and answer one question: the
first subset S of size s with need <= |S| - rank(S) <= max_excess and a
target in span(S).  The sweep asks with no target and no cap.  The cover
search of `ghwkit.locality` asks with need = max_excess = 0, target G_j and
a node count shared across its calls, which tells it when to walk the dual
code instead.  Over GF(2), `_max_excess_gf2` packs each column into an int
and carries the later columns reduced against the chosen ones (the packing
follows M4RI: Albrecht, Bard, Hart, "Algorithm 898", ACM TOMS 37(1), 2010).
It visits the same nodes as `_max_excess_for_size`, which every other field
takes and which reduces element lists against a pivot basis.

``ghw_oracle`` recomputes d_i from the definition, enumerating every
i-dimensional subcode once, and exists only to validate the sweep.
"""

from __future__ import annotations

import math
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


class _OverBudget(Exception):
    """A kernel call took its shared node count past the count's limit."""


@dataclass
class _Nodes:
    """Kernel nodes visited over the calls sharing it; raise past `limit`."""

    limit: float = math.inf
    visited: int = 0


def _alarm(ticks: int, limit: float, deadline: float | None) -> float:
    """Raise past `limit` nodes or the deadline; else the count to look again at."""
    if ticks > limit:
        raise _OverBudget
    if deadline is not None and time.monotonic() > deadline:
        raise LimitError(_WALL_TIME)
    return min(limit, ticks + 1024)


def _max_excess_for_size(cols, s, need, fld, deadline, max_excess=None, target=None,
                         nodes=None):
    """The first subset S of size s, in lex order, with
    need <= |S| - rank(columns S) <= max_excess (None: no cap) and `target`
    in the span of columns S (None: any S), as (excess, S); (need - 1, None)
    when there is none.  Excess never falls along a DFS path, so at the cap
    a dependent column is pruned.  Each DFS call counts one node on `nodes`.
    """
    n, max_rank = len(cols), s - need  # need is reached exactly up to this rank
    floor = 0 if max_excess is None else s - max_excess  # rank + remaining at the cap
    nodes = nodes or _Nodes()
    ticks, limit = nodes.visited, nodes.limit
    alarm = _alarm(ticks, limit, deadline)
    found, chosen = [], []
    sub, mul, inv = fld.sub, fld.mul, fld.inv
    basis: list[tuple[int, list[int]]] = []

    def extend(start: int, remaining: int, rest: list[int] | None) -> bool:
        # `rest` is the target reduced against `basis`: zero iff it is in the span.
        nonlocal ticks, alarm
        ticks += 1
        if ticks > alarm:
            alarm = _alarm(ticks, limit, deadline)
        rank = len(basis)
        for j in range(start, n - remaining + 1):
            vec = list(cols[j])
            piv = reduce_against(vec, basis, fld)
            if piv < 0:
                if rank + remaining == floor:
                    continue
            elif rank == max_rank:
                continue
            if remaining == 1:
                if rest is not None:  # is rest a multiple of vec (zero when vec is)?
                    c = mul(rest[piv], inv(vec[piv])) if piv >= 0 else 0
                    if any(a != mul(c, b) for a, b in zip(rest, vec)):
                        continue
                chosen.append(j)
                found.append(s - rank - (piv >= 0))
                return True
            chosen.append(j)
            if piv >= 0:
                sc = inv(vec[piv])
                if sc != 1:
                    vec = [mul(sc, e) for e in vec]
                c = rest[piv] if rest else 0
                entry = (piv, vec)
                insort(basis, entry)
                if extend(j + 1, remaining - 1,
                          [sub(a, mul(c, b)) for a, b in zip(rest, vec)] if c else rest):
                    return True
                basis.remove(entry)
            elif extend(j + 1, remaining - 1, rest):
                return True
            chosen.pop()
        return False

    hit = max_rank >= floor and extend(0, s, None if target is None else list(target))
    nodes.visited = ticks
    return (found[0], tuple(chosen)) if hit else (need - 1, None)


def _max_excess_gf2(cols: list[int], s, need, deadline, max_excess=None, target=0,
                    nodes=None):
    """`_max_excess_for_size` over GF(2), on columns and a target packed into
    ints (target 0: none): the same nodes, order, pruning, count and return.
    XORing a chosen reduced column v into each later column with v's lowest
    set bit keeps them zero at the chosen pivots, so one is zero exactly when
    it lies in the span.  A nonzero target trails the columns, reduced alike.
    """
    n, max_rank = len(cols), s - need
    floor = 0 if max_excess is None else s - max_excess
    nodes = nodes or _Nodes()
    ticks, limit = nodes.visited, nodes.limit
    alarm = _alarm(ticks, limit, deadline)
    found, chosen = [], []

    def extend(red: list[int], start: int, rank: int, remaining: int) -> bool:
        # red[j - start] is column j reduced against the chosen columns.
        nonlocal ticks, alarm
        ticks += 1
        if ticks > alarm:
            alarm = _alarm(ticks, limit, deadline)
        for j in range(start, n - remaining + 1):
            v = red[j - start]
            if v:
                if rank == max_rank:
                    continue
            elif rank + remaining == floor:
                continue
            if remaining == 1:
                if target and red[-1] and red[-1] != v:  # the target stays out of the span
                    continue
                chosen.append(j)
                found.append(s - rank - (v != 0))
                return True
            chosen.append(j)
            if v:
                low = v & -v
                if extend([r ^ v if r & low else r for r in red[j + 1 - start:]],
                          j + 1, rank + 1, remaining - 1):
                    return True
            elif extend(red[j + 1 - start:], j + 1, rank, remaining - 1):
                return True
            chosen.pop()
        return False

    hit = max_rank >= floor and extend([*cols, target] if target else cols, 0, 0, s)
    nodes.visited = ticks
    return (found[0], tuple(chosen)) if hit else (need - 1, None)


def _kernel(cols, fld):
    """The columns as the kernel for `fld` takes them (packed ints over GF(2)),
    and that kernel as (cols, s, need, deadline, **contract)."""
    if fld.q == 2:
        return [sum(bit << i for i, bit in enumerate(col)) for col in cols], _max_excess_gf2
    return cols, lambda c, s, need, deadline, **contract: _max_excess_for_size(
        c, s, need, fld, deadline, **contract)


def _size_search(check: Matrix, side: str = "check"):
    """(s, need, deadline) -> the kernel's answer on the columns of `check`.
    A guard error names the side of the duality and the size it stopped at."""
    cols, kernel = _kernel(check.columns(), check.field)

    def search(s, need, deadline):
        try:
            return kernel(cols, s, need, deadline)
        except LimitError as exc:
            raise LimitError(f"{exc} ({side} side, size {s} of {check.ncols})") from None

    return search


def _sweep_hierarchy(check: Matrix, dims: int, *, side: str, deadline: float | None):
    """d_1..d_dims for the code with the given check matrix, and for each
    the first subset that reaches it."""
    search = _size_search(check, side)
    subsets: dict[int, tuple[int, ...]] = {}  # d_i -> the first subset reaching it
    for s in range(1, check.ncols + 1):
        if len(subsets) == dims:
            break
        _, subset = search(s, len(subsets) + 1, deadline)
        if subset is not None:
            subsets[s] = subset
    if len(subsets) < dims:  # pragma: no cover - rank(check) = n - dims guarantees completion
        raise RuntimeError("hierarchy sweep did not resolve every index")
    return list(subsets), list(subsets.values())


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


def _hierarchy(code: LinearCode, dims: int, witnessed, deadline: float | None):
    """d_1..d_dims by the side choice, and for each i in `witnessed` the first
    subset of H reaching d_i (after a G sweep, one H search: size d_i, need i)."""
    n, k = code.n, code.k
    if k >= n - k:
        values, subsets = _sweep_hierarchy(code.check, dims, side="check", deadline=deadline)
        return values, {i: subsets[i - 1] for i in witnessed}
    dual, _ = _sweep_hierarchy(code.generator, n - k, side="generator", deadline=deadline)
    values = _wei_complement(n, dual)[:dims]
    search = _size_search(code.check)
    return values, {i: search(values[i - 1], i, deadline)[1] for i in witnessed}


def ghw(code: LinearCode, i: int, *, with_witness: bool = True,
        limit_n: int = DEFAULT_LIMIT_N, time_limit: float | None = None):
    """The i-th hierarchy value, by the side choice of `weight_hierarchy`, and
    (optionally) a witness subcode on the first subset of H reaching it."""
    if not 1 <= i <= code.k:
        raise ValueError(f"index i={i} outside 1..k={code.k}")
    _guard(code, limit_n)
    values, subsets = _hierarchy(code, i, [i] if with_witness else [], _deadline(time_limit))
    return values[-1], _witness_from_subset(code, subsets[i]) if with_witness else None


def weight_hierarchy(code: LinearCode, *, with_witnesses: bool = False,
                     limit_n: int = DEFAULT_LIMIT_N,
                     time_limit: float | None = None) -> WeightHierarchy:
    """d_1..d_k from a sweep of H, or of G through Wei duality when G has
    fewer rows (k < n - k); the same values either way.  Witnesses are the
    first subsets the H sweep reaches each d_i with; on the G side they cost
    one search on H per d_i."""
    _guard(code, limit_n)
    values, subsets = _hierarchy(code, code.k, range(1, code.k + 1) if with_witnesses else [],
                                 _deadline(time_limit))
    witnesses = ({i: _witness_from_subset(code, subset) for i, subset in subsets.items()}
                 if with_witnesses else None)
    gaps = tuple(sorted(set(range(1, code.n + 1)) - set(values)))
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
            violations.append(f"gap identity at i={i}: d_i={primal[i - 1]} != {expected}")
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

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
sweep to each side under one deadline, and never compares a sweep with itself.

A caller that knows the dual distance d_1(C⊥) passes it in: the locality
search of `ghwkit.bounds.certify_optimal` finds it as the smallest locality
plus one.  The G sweep then starts at size d_1(C⊥) + 1 with need 2, and a
tie (k = n - k) sweeps G, since only that side is shortened.

One DFS body, `_subset_dfs`, walks column subsets in lex order for both
searches.  It reduces each candidate column against a pivot basis of the
chosen ones, over either of two column representations: over GF(2) each
column is packed into an int and reduced by XOR (the packing follows M4RI:
Albrecht, Bard, Hart, "Algorithm 898", ACM TOMS 37(1), 2010); every other
field keeps element lists and reduces them with `reduce_against`.  Both
visit the same nodes.  In sweep mode it returns the first subset of size s
whose excess reaches need.  In covers mode, for the cover search of
`ghwkit.locality`, it walks every independent subset of size s once and
settles each open column with the first one whose span holds it.

Each search, one per matrix and phase, keeps its state on a `_Search`: the
columns in the DFS's representation, the nodes its calls have visited, a
node limit (past it the cover search walks the dual code instead) and the
deadline.  It is the one place that reads the clock and words the guard
error, "wall-time guard exceeded during <phase> (<progress>)"; its caller
only keeps the progress text current.

``ghw_oracle`` recomputes d_i from the definition, enumerating every
i-dimensional subcode once, and exists only to validate the sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .algebra import Matrix, reduce_against
from .code import DEFAULT_LIMIT_N, LinearCode, SubcodeWitness

DEFAULT_ORACLE_LIMIT = 10**6
_ORACLE_SUBSPACE_CAP = 2 * 10**6


class LimitError(RuntimeError):
    """Instance exceeds an enumeration limit or the wall-time guard."""


# ---------------------------------------------------------------------------
# Subset-rank sweep


class _OverBudget(Exception):
    """A search's node count went past the search's node limit."""


class _Search:
    """One search over the columns of a matrix, for one phase, across every
    `_subset_dfs` call it makes: the columns as the DFS walks them (packed
    into ints over GF(2), element lists otherwise), the nodes visited, the
    node limit past which it raises `_OverBudget`, and the deadline past
    which it raises `LimitError` naming the phase and the progress text,
    which its caller keeps current."""

    def __init__(self, matrix: Matrix, phase: str, deadline: float | None,
                 limit: float = math.inf):
        self.field, self.packed = matrix.field, matrix.field.q == 2
        self.cols = matrix.columns()
        if self.packed:
            self.cols = [sum(bit << i for i, bit in enumerate(col)) for col in self.cols]
        self.visited, self.limit, self.deadline = 0, limit, deadline
        self.phase, self.progress = phase, ""

    def clock(self) -> None:
        """Raise `LimitError` once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise LimitError(f"wall-time guard exceeded during {self.phase} ({self.progress})")

    def alarm(self, ticks: int) -> float:
        """Raise past the node limit or the deadline; else the count to look again at."""
        if ticks > self.limit:
            raise _OverBudget
        self.clock()
        return min(self.limit, ticks + 1024)


def _subset_dfs(search: _Search, s: int, need: int, uncovered: dict | None = None):
    """Walk the size-s subsets S of `search`'s columns in lex order, reducing
    each candidate column against a pivot basis of the chosen ones.

    Sweep mode (`uncovered` None): the first S with |S| - rank(S) >= need;
    None when there is none.

    Covers mode, with need 0: `uncovered` maps each open column i to the
    column, and none of them lies in the span of fewer than s other columns.
    The walk visits only independent S, so an open column in the span of an
    (s-1)-prefix is one of the prefix.  At each prefix it keys every other
    open column by its reduced form (scaled to 1 at its pivot), and a leaf j
    with the same key settles it with S = prefix + j: the first lex S
    without i whose span holds column i.  Settled columns leave `uncovered`,
    and the walk stops once it is empty; returns {i: S}.

    Each DFS call counts one node on `search`.
    """
    cols, fld, packed = search.cols, search.field, search.packed
    n, max_rank = len(cols), s - need  # need is reached exactly up to this rank
    covers = uncovered is not None
    ticks = search.visited
    alarm = search.alarm(ticks)
    chosen, settled = [], {}
    basis: list = []  # (pivot, reduced column), each 0 at the pivots before it
    mul, inv = fld.mul, fld.inv

    def key(col):
        # The key of `col` reduced against `basis`; None when it is in the span.
        if packed:
            for low, b in basis:
                if col & low:
                    col ^= b
            return col or None
        vec = list(col)
        piv = reduce_against(vec, basis, fld)
        if piv < 0:
            return None
        c = inv(vec[piv])
        return tuple([mul(c, e) for e in vec])

    def extend(start: int, remaining: int) -> bool:
        nonlocal ticks, alarm
        ticks += 1
        if ticks > alarm:
            alarm = search.alarm(ticks)
        if covers and remaining == 1:
            keys: dict = {}
            for i, col in uncovered.items():
                keys.setdefault(key(col), []).append(i)
            keys.pop(None, None)  # the open columns of the prefix
            for j in range(start, n):
                k = key(cols[j])
                for i in keys.pop(k, ()):
                    if i == j:  # a cover of i leaves i out
                        keys[k] = [j]
                    else:
                        settled[i] = (*chosen, j)
                        del uncovered[i]
            return not uncovered
        rank = len(basis)
        for j in range(start, n - remaining + 1):
            if packed:
                v = cols[j]
                for low, b in basis:
                    if v & low:
                        v ^= b
            else:
                v = list(cols[j])
                piv = reduce_against(v, basis, fld)
                if piv < 0:
                    v = 0  # in the span, as a packed column is
            if not v:
                if covers:
                    continue
            elif rank == max_rank:
                continue
            chosen.append(j)
            if remaining == 1:  # every leaf left reaches need: rank stays <= max_rank
                return True
            if not v:
                if extend(j + 1, remaining - 1):
                    return True
            else:
                if packed:
                    piv = v & -v  # the pivot bit
                else:
                    c = inv(v[piv])
                    if c != 1:
                        v = [mul(c, e) for e in v]
                basis.append((piv, v))
                if extend(j + 1, remaining - 1):
                    return True
                basis.pop()
            chosen.pop()
        return False

    hit = max_rank >= 0 and extend(0, s)
    search.visited = ticks
    if covers:
        return settled
    return tuple(chosen) if hit else None


def _sweep_hierarchy(check: Matrix, dims: int, *, side: str, deadline: float | None,
                     d1: int | None = None):
    """d_1..d_dims for the code with the given check matrix, and for each
    the first subset that reaches it.  A caller that knows d_1 already (the
    minimum distance of that code) passes it as `d1`: the sweep records it
    with no subset and starts at size d1 + 1 with need 2, as e(d1) = 1."""
    search = _Search(check, "hierarchy sweep", deadline)
    # d_i -> the first subset reaching it
    subsets: dict[int, tuple[int, ...] | None] = {} if d1 is None else {d1: None}
    for s in range(1 if d1 is None else d1 + 1, check.ncols + 1):
        if len(subsets) == dims:
            break
        search.progress = f"{side} side, size {s} of {check.ncols}"
        subset = _subset_dfs(search, s, len(subsets) + 1)
        if subset is not None:
            subsets[s] = subset
    if len(subsets) < dims:  # pragma: no cover - rank(check) = n - dims guarantees completion
        raise RuntimeError("hierarchy sweep did not resolve every index")
    return list(subsets), list(subsets.values())


def _gaps(n: int, values) -> tuple[int, ...]:
    """{1..n} minus `values`, sorted: the gap numbers of a hierarchy."""
    return tuple(sorted(set(range(1, n + 1)) - set(values)))


def _wei_complement(n: int, values: Sequence[int]) -> tuple[int, ...]:
    """The hierarchy of the dual of a length-n code with hierarchy `values`."""
    return _gaps(n, [n + 1 - d for d in values])


def _witness_from_subset(code: LinearCode, subset: tuple[int, ...]) -> SubcodeWitness:
    """Basis of the subcode supported inside `subset`, embedded at full length."""
    basis = code.check.nullspace_within(subset)
    return SubcodeWitness(basis=basis, dimension=len(basis), support=tuple(subset))


def _guard(code: LinearCode, limit_n: int, time_limit: float | None) -> float | None:
    """Refuse a code longer than `limit_n`; else the clock time `time_limit`
    seconds from now, the deadline of every search for the code (None: no limit)."""
    if code.n > limit_n:
        raise LimitError(f"code length {code.n} exceeds enumeration limit {limit_n}")
    if time_limit is None:
        return None
    if math.isnan(time_limit):  # no clock time is ever past a NaN deadline
        raise ValueError("time limit must be a number of seconds, got nan")
    return time.monotonic() + time_limit


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
        if self.gaps != _gaps(self.code.n, v):
            raise ValueError("gap numbers are not the complement of the hierarchy")


def _hierarchy(code: LinearCode, dims: int, witnessed, deadline: float | None,
               dual_distance: int | None = None):
    """d_1..d_dims by the side choice, and for each i in `witnessed` the first
    subset of H reaching d_i (after a G sweep, one H search: size d_i, need i).
    A known `dual_distance` starts the G sweep past it, so a tie (k = n - k)
    then sweeps G."""
    n, k = code.n, code.k
    if k > n - k or (k == n - k and dual_distance is None):
        values, subsets = _sweep_hierarchy(code.check, dims, side="check", deadline=deadline)
        return values, {i: subsets[i - 1] for i in witnessed}
    dual, _ = _sweep_hierarchy(code.generator, n - k, side="generator", deadline=deadline,
                               d1=dual_distance)
    values = _wei_complement(n, dual)[:dims]
    subsets = {}
    if witnessed:
        search = _Search(code.check, "hierarchy sweep", deadline)
        for i in witnessed:
            search.progress = f"check side, size {values[i - 1]} of {n}"
            subsets[i] = _subset_dfs(search, values[i - 1], i)
    return values, subsets


def ghw(code: LinearCode, i: int, *, with_witness: bool = True,
        limit_n: int = DEFAULT_LIMIT_N, time_limit: float | None = None):
    """The i-th hierarchy value, by the side choice of `weight_hierarchy`, and
    (optionally) a witness subcode on the first subset of H reaching it."""
    if not 1 <= i <= code.k:
        raise ValueError(f"index i={i} outside 1..k={code.k}")
    values, subsets = _hierarchy(code, i, [i] if with_witness else [],
                                 _guard(code, limit_n, time_limit))
    return values[-1], _witness_from_subset(code, subsets[i]) if with_witness else None


def weight_hierarchy(code: LinearCode, *, with_witnesses: bool = False,
                     limit_n: int = DEFAULT_LIMIT_N,
                     time_limit: float | None = None,
                     _dual_distance: int | None = None) -> WeightHierarchy:
    """d_1..d_k from a sweep of H, or of G through Wei duality when G has
    fewer rows (k < n - k); the same values either way.  Witnesses are the
    first subsets the H sweep reaches each d_i with; on the G side they cost
    one search on H per d_i.  `_dual_distance`, the minimum distance of the
    dual code when the caller has it, lets the G sweep skip the sizes up to
    it, and a tie (k = n - k) then sweeps G."""
    values, subsets = _hierarchy(code, code.k, range(1, code.k + 1) if with_witnesses else [],
                                 _guard(code, limit_n, time_limit), _dual_distance)
    witnesses = ({i: _witness_from_subset(code, subset) for i, subset in subsets.items()}
                 if with_witnesses else None)
    return WeightHierarchy(code=code, values=tuple(values), gaps=_gaps(code.n, values),
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
    primal: tuple[int, ...]
    dual: tuple[int, ...]
    violations: tuple[str, ...] = ()


def primal_hierarchy_values(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                            time_limit: float | None = None) -> tuple[int, ...]:
    """Hierarchy of the code from a sweep of its check matrix H, at any rate.

    The cross-checks pin this side and `dual_hierarchy_values` the other,
    so they never compare a sweep with itself."""
    values, _ = _sweep_hierarchy(code.check, code.k, side="check",
                                 deadline=_guard(code, limit_n, time_limit))
    return tuple(values)


def dual_hierarchy_values(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                          time_limit: float | None = None) -> tuple[int, ...]:
    """Hierarchy of the dual code from a sweep of G, its check matrix;
    empty for a full-space code (k = n)."""
    if code.k == code.n:
        return ()
    values, _ = _sweep_hierarchy(code.generator, code.n - code.k, side="generator",
                                 deadline=_guard(code, limit_n, time_limit))
    return tuple(values)


def check_wei_duality(code: LinearCode, *, limit_n: int = DEFAULT_LIMIT_N,
                      time_limit: float | None = None) -> DualityReport:
    """Verify {d_i} = {1..n} \\ {n+1-d_j of the dual} and the gap form
    d_i = (n+1) - g_{k-i+1} of the dual, both exactly, between a sweep of H
    and a sweep of G, both under one `time_limit`."""
    n, k = code.n, code.k
    deadline = _guard(code, limit_n, time_limit)
    primal = tuple(_sweep_hierarchy(code.check, k, side="check", deadline=deadline)[0])
    dual_values = tuple(_sweep_hierarchy(code.generator, n - k, side="generator",
                                         deadline=deadline)[0])  # () when k = n
    violations: list[str] = []

    mirrored = _wei_complement(n, dual_values)
    complement_ok = primal == mirrored
    if not complement_ok:
        violations.append(f"complement identity: {list(primal)} != {list(mirrored)}")

    dual_gaps = _gaps(n, dual_values)  # k values
    gap_ok = True
    for i in range(1, k + 1):
        expected = (n + 1) - dual_gaps[k - i]
        if primal[i - 1] != expected:
            gap_ok = False
            violations.append(f"gap identity at i={i}: d_i={primal[i - 1]} != {expected}")
    return DualityReport(holds=complement_ok and gap_ok, primal=primal, dual=dual_values,
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

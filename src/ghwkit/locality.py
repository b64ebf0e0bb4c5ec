"""Locality of code coordinates and greedy covering sets of dual codewords.

The locality of coordinate j is min{wt(h) - 1 : h in the dual, h_j != 0}:
the size of the smallest set T of generator columns, j not in T, with G_j in
span(G_T).  The search has no subset walk of its own.  For sizes 1, 2, ...
it makes one covers-mode pass of the DFS in `ghwkit.ghw` (packed ints over
GF(2)) over the independent column sets of that size, in lex order.  Each
pass settles every still-open coordinate j with the first T whose span holds
G_j, so T + {j} is the lexicographically first minimal support; a minimal T
is independent, as a dependent one would contain a smaller cover.  A zero
column G_j gives locality 0.  A coordinate whose check-matrix column is zero
(e_j is a codeword) lies in no dual codeword support, and no pass could
settle it: each call refuses it, or `is_lrc` answers False, before searching.

A pass visits about C(n, s) sets for covers of size s, so the search is
slow on high-rate codes, whose covers are large and whose duals small.  Once
the passes have cost as much as walking all q^(n-k) dual codewords would,
the search walks them instead; both routes give the same supports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import CodeValidationError, LinearCode
from .ghw import _OverBudget, _Search, _subset_dfs


# One cover-pass node costs about as much as walking 2-12 dual codewords: in
# pure Python (3.11, 2 vCPU, CPU time) a node took 5-12 us on packed GF(2)
# columns and 16-18 us (median per field) on element lists over GF(3..16),
# and a walked word 1.4-3.9 us, on codes like the benchmark's.  Changing the
# value would change which codes walk.
_WORDS_PER_NODE = 4


class UncoverableCoordinateError(CodeValidationError):
    """Some coordinate lies in no dual codeword support (e_j is a codeword)."""


@dataclass(frozen=True)
class LocalityProfile:
    """Per-coordinate localities, the overall locality r = max, and a greedy
    covering set of dual codewords of weight <= r+1."""

    per_coordinate: tuple[int, ...]
    r: int
    covering_rows: tuple[tuple[int, ...], ...]


def _guard(code: LinearCode, *, covered: bool = False) -> None:
    """Refuse a code with k = n and, when `covered`, one with a coordinate
    in no dual codeword support."""
    if code.k >= code.n:
        raise CodeValidationError("code has no redundancy (k = n): locality undefined")
    bad = _uncoverable(code) if covered else []
    if bad:
        raise UncoverableCoordinateError(
            f"coordinate(s) {[j + 1 for j in bad]} lie in no dual codeword support")


def _uncoverable(code: LinearCode) -> list[int]:
    """Coordinates in no dual codeword support: the zero columns of H."""
    return [j for j, col in enumerate(code.check.columns()) if not any(col)]


def _dual_supports(code: LinearCode, cap: int, search: _Search) -> list[tuple[int, ...] | None]:
    """The same supports as the DFS, for every coordinate, by walking all
    q^(n-k) dual codewords: each is a word of the span of the first half of
    H's rows plus one of the span of the other half, so memory stays near
    2 q^((n-k)/2) words.  They agree because the minimum-weight dual words
    covering j have exactly the supports T + {j} of the smallest covers T,
    and adding j to two equal-size sets keeps their lexicographic order.
    The walk runs under the deadline of `search`."""
    search.progress = "dual-word walk"
    fld = code.field
    add, mul = fld.add, fld.mul
    rows = code.check.rows
    halves = []
    for part in (rows[:len(rows) // 2], rows[len(rows) // 2:]):
        span: list[tuple[int, ...]] = [(0,) * code.n]
        for row in part:
            scaled = [tuple(mul(c, e) for e in row) for c in range(1, fld.q)]
            span += [tuple(map(add, w, s)) for w in span for s in scaled]
        halves.append(span)
    best: list[tuple[int, ...] | None] = [None] * code.n
    for low in halves[0]:
        search.clock()
        for high in halves[1]:
            supp = tuple(j for j, e in enumerate(map(add, low, high)) if e)
            if not supp or len(supp) > cap + 1:
                continue
            for j in supp:
                b = best[j]
                if b is None or (len(supp), supp) < (len(b), b):
                    best[j] = supp
    return best


def _cover_search(code: LinearCode, cap: int, deadline: float | None = None,
                  only: int | None = None) -> list[tuple[int, ...] | None]:
    """For each coordinate j, the lexicographically first smallest support of
    a dual codeword covering j, with at most cap + 1 coordinates; None when
    there is none.  With `only`, the passes search for that coordinate
    alone, and the list is exact there.

    One covers-mode DFS pass per size settles every coordinate whose
    smallest cover has that size.  Once the passes have visited
    q^(n-k) / _WORDS_PER_NODE nodes, they have cost about as much as walking
    every dual codeword, and `_dual_supports` answers every coordinate.
    """
    n = code.n
    search = _Search(code.generator, "locality search", deadline,
                     limit=code.field.q ** (n - code.k) // _WORDS_PER_NODE)
    supports = [(j,) if j in code.zero_coordinates else None for j in range(n)]
    uncovered = {j: search.cols[j] for j, s in enumerate(supports)
                 if s is None and only in (None, j)}
    size = 0
    try:
        while uncovered and size < cap:
            size += 1
            search.progress = (f"cover pass, size {size} of {cap}, "
                               f"{n - supports.count(None)} of {n} coordinates settled")
            for j, cover in _subset_dfs(search, size, 0, uncovered).items():
                supports[j] = tuple(sorted((j, *cover)))
    except _OverBudget:
        return _dual_supports(code, cap, search)
    return supports


def _cover_word(code: LinearCode, subset: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The dual codeword on the minimal support `subset`, 1 at j; minimality
    makes the dual subcode on `subset` one-dimensional."""
    fld = code.field
    (row,) = code.generator.nullspace_within(subset)
    scale = fld.inv(row[j])
    return tuple(fld.mul(scale, e) for e in row)


def _greedy_rows(code: LinearCode, supports: list[tuple[int, ...] | None],
                 r: int) -> list[tuple[int, ...]]:
    """One covering word for each smallest still-uncovered coordinate."""
    uncovered = set(range(code.n))
    rows: list[tuple[int, ...]] = []
    while uncovered:
        j = min(uncovered)
        subset = supports[j]
        if subset is None:
            raise ValueError(f"coordinate {j + 1} has locality above {r}")
        rows.append(_cover_word(code, subset, j))
        uncovered -= set(subset)
    return rows


def coordinate_locality(code: LinearCode, j: int) -> int:
    """Locality of coordinate j (0-based): min covering dual weight minus one."""
    _guard(code)
    if not 0 <= j < code.n:
        raise IndexError(f"coordinate {j} out of range")
    if j in _uncoverable(code):
        raise UncoverableCoordinateError(
            f"coordinate {j + 1} lies in no dual codeword support")
    return len(_cover_search(code, code.k, only=j)[j]) - 1


def locality(code: LinearCode, *, _deadline: float | None = None) -> LocalityProfile:
    """Exact locality profile; r is the maximum per-coordinate locality.
    The search raises `LimitError` once the monotonic clock passes `_deadline`."""
    _guard(code, covered=True)
    # Every coordinate has a cover of size at most k: the other columns span.
    supports = _cover_search(code, code.k, _deadline)
    per_coordinate = tuple(len(s) - 1 for s in supports)
    r = max(per_coordinate)
    return LocalityProfile(per_coordinate=per_coordinate, r=r,
                           covering_rows=tuple(_greedy_rows(code, supports, r)))


def covering_rows(code: LinearCode, r: int) -> list[tuple[int, ...]]:
    """Greedy covering: repeatedly pick a minimum-weight dual codeword for the
    smallest uncovered coordinate (lex-smallest support, entry 1 there).

    Every row has weight <= r+1 and covers a previously uncovered coordinate,
    so the rows are linearly independent.
    """
    _guard(code, covered=True)
    if r < 1:
        raise ValueError(f"locality parameter must be >= 1, got {r}")
    return _greedy_rows(code, _cover_search(code, r), r)


def is_lrc(code: LinearCode, r: int) -> bool:
    """True iff every coordinate has locality <= r."""
    if code.k >= code.n or r < 1 or _uncoverable(code):
        return False
    return None not in _cover_search(code, r)

"""Locality of code coordinates and greedy covering sets of dual codewords.

The locality of coordinate j is min{wt(h) - 1 : h in the dual, h_j != 0}:
the size of the smallest set T of generator columns, j not in T, with G_j in
span(G_T).  The search has no subset walk of its own.  For sizes 1, 2, ...
it asks the kernel of `ghwkit.ghw` for the field (packed ints over GF(2))
for the first T among the other columns, in lex order, with excess
need = max_excess = 0 and target G_j; T + {j} is then the lexicographically
first minimal support.  The cap prunes dependent columns: at the minimal
size a dependent T would contain a smaller cover.  A zero column G_j gives
locality 0.  A coordinate whose check-matrix column is zero (e_j is a
codeword) lies in no dual codeword support and raises.

The kernels visit about C(n-1, s) sets for a cover of size s, so the search
is slow on high-rate codes, whose covers are large and whose duals small.
Once the kernels have cost as much as walking all q^(n-k) dual codewords
would, the search walks them instead; both routes give the same supports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .code import CodeValidationError, LinearCode
from .ghw import LimitError, _kernel, _Nodes, _OverBudget


# One kernel node costs about as much as walking four dual codewords: 5-23 us
# against 3-7 us in pure Python, measured on the generic (element-list) route
# on the benchmark's code pools.  The packed GF(2) route is cheaper per node;
# changing the value would change which codes walk.
_WORDS_PER_NODE = 4
_WALL_TIME = "wall-time guard exceeded during locality search"


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
    return [j for j in range(code.n) if not any(row[j] for row in code.check.rows)]


def _dual_supports(code: LinearCode, cap: int,
                   deadline: float | None) -> list[tuple[int, ...] | None]:
    """The same supports as the DFS, for every coordinate, by walking all
    q^(n-k) dual codewords: each is a word of the span of the first half of
    H's rows plus one of the span of the other half, so memory stays near
    2 q^((n-k)/2) words.  They agree because the minimum-weight dual words
    covering j have exactly the supports T + {j} of the smallest covers T,
    and adding j to two equal-size sets keeps their lexicographic order."""
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
        if deadline is not None and time.monotonic() > deadline:
            raise LimitError(_WALL_TIME)
        for high in halves[1]:
            supp = tuple(j for j, e in enumerate(map(add, low, high)) if e)
            if not supp or len(supp) > cap + 1:
                continue
            for j in supp:
                b = best[j]
                if b is None or (len(supp), supp) < (len(b), b):
                    best[j] = supp
    return best


def _cover_search(code: LinearCode, cap: int,
                  deadline: float | None = None) -> Callable[[int], tuple[int, ...] | None]:
    """j -> the lexicographically first smallest support of a dual codeword
    covering j, with at most cap + 1 coordinates; None when there is none.

    Once the kernels have visited q^(n-k) / _WORDS_PER_NODE nodes over all
    calls, they have cost about as much as walking every dual codeword, and
    the search switches to `_dual_supports` for good.
    """
    cols = code.generator.columns()
    vecs, kernel = _kernel(cols, code.field)
    uncoverable = set(_uncoverable(code))
    words, per_node = code.field.q ** (code.n - code.k), _WORDS_PER_NODE
    nodes = _Nodes(words // per_node if per_node else math.inf)
    walked: list[tuple[int, ...] | None] | None = None

    def cover(j: int) -> tuple[int, ...] | None:
        nonlocal walked
        if walked is None:
            if j in uncoverable:
                return None
            if not any(cols[j]):
                return (j,)
            others = vecs[:j] + vecs[j + 1:]
            try:
                for size in range(1, cap + 1):
                    _, found = kernel(others, size, 0, deadline, max_excess=0,
                                      target=vecs[j], nodes=nodes)
                    if found is not None:
                        return tuple(sorted((j, *(i + (i >= j) for i in found))))
                return None
            except _OverBudget:
                walked = _dual_supports(code, cap, deadline)
            except LimitError:
                raise LimitError(_WALL_TIME) from None
        return walked[j]

    return cover


def _cover_word(code: LinearCode, subset: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The dual codeword on the minimal support `subset`, 1 at j; minimality
    makes the dual subcode on `subset` one-dimensional."""
    fld = code.field
    (row,) = code.generator.nullspace_within(subset)
    scale = fld.inv(row[j])
    return tuple(fld.mul(scale, e) for e in row)


def _greedy_rows(code: LinearCode, cover: Callable[[int], tuple[int, ...] | None],
                 r: int) -> list[tuple[int, ...]]:
    """One covering word for each smallest still-uncovered coordinate."""
    uncovered = set(range(code.n))
    rows: list[tuple[int, ...]] = []
    while uncovered:
        j = min(uncovered)
        subset = cover(j)
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
    subset = _cover_search(code, code.k)(j)
    if subset is None:
        raise UncoverableCoordinateError(
            f"coordinate {j + 1} lies in no dual codeword support")
    return len(subset) - 1


def locality(code: LinearCode, *, _deadline: float | None = None) -> LocalityProfile:
    """Exact locality profile; r is the maximum per-coordinate locality.
    The search raises `LimitError` once `time.monotonic()` passes `_deadline`."""
    _guard(code, covered=True)
    # Every coordinate has a cover of size at most k: the other columns span.
    cover = _cover_search(code, code.k, _deadline)
    supports = [cover(j) for j in range(code.n)]
    per_coordinate = tuple(len(s) - 1 for s in supports)
    r = max(per_coordinate)
    return LocalityProfile(per_coordinate=per_coordinate, r=r,
                           covering_rows=tuple(_greedy_rows(code, supports.__getitem__, r)))


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
    if code.k >= code.n or r < 1:
        return False
    cover = _cover_search(code, r)
    return all(cover(j) is not None for j in range(code.n))

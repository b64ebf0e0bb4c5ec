"""Brute-force references that the tests hold the library to."""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

from ghwkit.algebra import Field, Matrix
from ghwkit.code import LinearCode
from ghwkit.ghw import dual_hierarchy_values, primal_hierarchy_values


def hamming_weight(vec: Sequence[int]) -> int:
    return sum(1 for e in vec if e)


def support(vec: Sequence[int]) -> tuple[int, ...]:
    """Coordinates (0-based) where the vector is nonzero."""
    return tuple(j for j, e in enumerate(vec) if e)


def identity(field: Field, n: int) -> Matrix:
    return Matrix(field, [[int(i == j) for j in range(n)] for i in range(n)])


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.field, m.columns(), ncols=m.nrows)


def _dot(field: Field, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    assert a.field == b.field and a.ncols == b.nrows
    cols = b.columns()
    return Matrix(a.field, [[_dot(a.field, row, col) for col in cols] for row in a.rows],
                  ncols=b.ncols)


def is_zero(m: Matrix) -> bool:
    return not any(any(row) for row in m.rows)


def gauss_jordan(field: Field, rows: Sequence[Sequence[int]], ncols: int):
    """Reduced row echelon form by Gauss-Jordan elimination, column by
    column, as (nonzero rows, pivot columns)."""
    mul, sub, inv = field.mul, field.sub, field.inv
    rows = [list(r) for r in rows]
    nr = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead != 1:
            s = inv(lead)
            rows[r] = [mul(s, e) for e in rows[r]]
        prow = rows[r]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                irow = rows[i]
                for t in range(c, ncols):
                    if prow[t]:
                        irow[t] = sub(irow[t], mul(f, prow[t]))
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def gauss_jordan_nullspace(field: Field, rows: Sequence[Sequence[int]], ncols: int):
    """RREF basis of {v : M v^T = 0}: one vector per free column of the
    Gauss-Jordan form of M, reduced again by Gauss-Jordan."""
    red, pivots = gauss_jordan(field, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for t, pc in enumerate(pivots):
            v[pc] = field.neg(red[t][f])
        basis.append(v)
    return gauss_jordan(field, basis, ncols)[0]


def first_excess_oracle(matrix: Matrix, s: int, need: int):
    """The first size-s column subset S, in lex order, with
    |S| - rank(columns S) >= need, as (excess, S); (need - 1, None) if none."""
    for subset in combinations(range(matrix.ncols), s):
        rows = [[row[c] for c in subset] for row in matrix.rows]
        excess = s - Matrix(matrix.field, rows, ncols=s).rank()
        if excess >= need:
            return excess, subset
    return need - 1, None


def first_cover_oracle(matrix: Matrix, s: int, j: int):
    """The first size-s independent column subset S, in lex order, without
    column j and with column j in its span; None if there is none."""
    for subset in combinations([c for c in range(matrix.ncols) if c != j], s):
        rows = [[row[c] for c in subset] for row in matrix.rows]
        with_j = [[*r, row[j]] for r, row in zip(rows, matrix.rows)]
        if (Matrix(matrix.field, rows, ncols=s).rank() == s
                == Matrix(matrix.field, with_j, ncols=s + 1).rank()):
            return subset
    return None


def codewords(code: LinearCode, limit: int = 10**6):
    """All q^k codewords in message order; refuses codes with more than `limit`."""
    count = code.field.q**code.k
    if count > limit:
        raise ValueError(f"codeword enumeration of size {count} exceeds limit {limit}")
    return (code.generator.left_mul_vector(msg)
            for msg in product(range(code.field.q), repeat=code.k))


def contains(code: LinearCode, vec) -> bool:
    """Whether `vec` is a codeword: every row of H is orthogonal to it."""
    return len(vec) == code.n and all(_dot(code.field, row, vec) == 0
                                      for row in code.check.rows)


def gk_dual(code: LinearCode) -> int:
    """The k-th gap number of the dual code.

    Cross-checks the max characterization (largest k+i with dual d_i < k+i),
    the min characterization (smallest k+i with dual d_i = k+i, minus one)
    and the relation d_1 = n+1 - g_k of the dual, with d_1 from a sweep of H
    and the dual values from a sweep of G; any disagreement raises.
    """
    n, k = code.n, code.k
    dual_values = dual_hierarchy_values(code)
    below = [k + i for i in range(1, n - k + 1) if dual_values[i - 1] < k + i]
    at = [k + i for i in range(1, n - k + 1) if dual_values[i - 1] == k + i]
    max_form = max(below) if below else k
    min_form = (min(at) - 1) if at else n
    if max_form != min_form:
        raise RuntimeError(f"gap characterizations disagree: {max_form} vs {min_form}")
    dual_gaps = tuple(sorted(set(range(1, n + 1)) - set(dual_values)))
    if dual_gaps[-1] != max_form:
        raise RuntimeError(f"computed dual gaps give {dual_gaps[-1]}, "
                           f"characterization gives {max_form}")
    d1 = primal_hierarchy_values(code)[0]
    if d1 != n + 1 - max_form:
        raise RuntimeError(f"d_1={d1} but n+1-g_k = {n + 1 - max_form}")
    return max_form


def dual_words(code: LinearCode) -> list[tuple[int, ...]]:
    """All q^(n-k) dual codewords, the span of H built one row at a time."""
    fld = code.field
    words: list[tuple[int, ...]] = [(0,) * code.n]
    for row in code.check.rows:
        scaled = [tuple(fld.mul(c, e) for e in row) for c in range(1, fld.q)]
        words.extend(tuple(fld.add(a, b) for a, b in zip(w, srow))
                     for w in list(words) for srow in scaled)
    return words


def dual_enum_locality(code: LinearCode):
    """Locality by walking every dual codeword.

    Returns the per-coordinate localities (None where no dual codeword
    covers the coordinate) and, when every coordinate is covered, the greedy
    covering rows: for the smallest uncovered coordinate j, the dual word of
    minimum weight covering j with the lexicographically first support,
    scaled to 1 at j.
    """
    fld = code.field
    best: list[tuple[int, tuple[int, ...], tuple[int, ...]] | None] = [None] * code.n
    for word in dual_words(code):
        supp = support(word)
        for j in supp:
            key = (len(supp), supp)
            if best[j] is None or key < best[j][:2]:
                scale = fld.inv(word[j])
                best[j] = (*key, tuple(fld.mul(scale, e) for e in word))
    localities = [None if b is None else b[0] - 1 for b in best]
    if None in localities:
        return localities, None
    rows = []
    uncovered = set(range(code.n))
    while uncovered:
        _, supp, word = best[min(uncovered)]
        rows.append(word)
        uncovered -= set(supp)
    return localities, rows

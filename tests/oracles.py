"""Brute-force references that the tests hold the library to."""

from __future__ import annotations

from itertools import combinations, product

from ghwkit.algebra import Field, Matrix
from ghwkit.code import LinearCode, support
from ghwkit.ghw import dual_hierarchy_values, primal_hierarchy_values


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


def first_excess_oracle(matrix: Matrix, s: int, need: int, max_excess: int | None = None,
                        target=None):
    """The first size-s column subset S, in lex order, with
    need <= |S| - rank(columns S) <= max_excess (no cap when None) and
    `target` in the span of columns S (any S when None), as (excess, S);
    (need - 1, None) if none."""
    for subset in combinations(range(matrix.ncols), s):
        rows = [[row[c] for c in subset] for row in matrix.rows]
        rank = Matrix(matrix.field, rows, ncols=s).rank()
        excess = s - rank
        if excess < need or (max_excess is not None and excess > max_excess):
            continue
        if target is not None and rank != Matrix(
                matrix.field, [[*row, t] for row, t in zip(rows, target)], ncols=s + 1).rank():
            continue
        return excess, subset
    return need - 1, None


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

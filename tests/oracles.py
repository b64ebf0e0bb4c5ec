"""Brute-force references that the tests hold the library to."""

from __future__ import annotations

from ghwkit.code import LinearCode, support


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

"""Small finite-field arithmetic for the benchmark's input generator and
output checks.

It is written independently of ghwkit, so neither the generated inputs nor
the correctness checks depend on the code under test.  Elements of GF(p^m)
are the integers 0..q-1; element e stands for the polynomial whose
coefficients are the base-p digits of e, lowest degree first (the ghwkit
code-file convention).
"""

from __future__ import annotations

from itertools import product


def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


class GF:
    """GF(q) by full addition, subtraction and multiplication tables."""

    def __init__(self, q: int):
        p, m = _prime_power(q)
        self.q, self.p, self.m = q, p, m
        self.modulus: tuple[int, ...] | None = None
        digits = [tuple((e // p**i) % p for i in range(m)) for e in range(q)]

        def encode(coeffs) -> int:
            return sum(c * p**i for i, c in enumerate(coeffs))

        self.add = [[encode((x + y) % p for x, y in zip(digits[a], digits[b]))
                     for b in range(q)] for a in range(q)]
        self.sub = [[encode((x - y) % p for x, y in zip(digits[a], digits[b]))
                     for b in range(q)] for a in range(q)]
        if m == 1:
            self.mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            # First monic irreducible in lexicographic order of its lower
            # coefficients; irreducible iff the quotient ring has no zero
            # divisors.
            for low in product(range(p), repeat=m):
                modulus = low[::-1] + (1,)
                table = [[encode(self._polymulmod(digits[a], digits[b], modulus))
                          for b in range(q)] for a in range(q)]
                if all(table[a][b] for a in range(1, q) for b in range(1, q)):
                    self.modulus, self.mul = modulus, table
                    break
        self.inv = [0] + [next(b for b in range(1, q) if self.mul[a][b] == 1)
                          for a in range(1, q)]

    def _polymulmod(self, a, b, modulus) -> tuple[int, ...]:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * m - 2, m - 1, -1):
            lead = prod[i]
            if lead:
                for t in range(m + 1):
                    prod[i - m + t] = (prod[i - m + t] - lead * modulus[t]) % p
        return tuple(prod[:m])

    def rank(self, rows) -> int:
        """Rank of a matrix given as a list of rows."""
        rows = [list(r) for r in rows]
        mul, sub, inv = self.mul, self.sub, self.inv
        rank = 0
        ncols = len(rows[0]) if rows else 0
        for c in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            s = inv[rows[rank][c]]
            prow = rows[rank] = [mul[s][e] for e in rows[rank]]
            for i in range(len(rows)):
                f = rows[i][c]
                if i != rank and f:
                    rows[i] = [sub[e][mul[f][pe]] for e, pe in zip(rows[i], prow)]
            rank += 1
        return rank

    def dot(self, u, v) -> int:
        acc = 0
        add, mul = self.add, self.mul
        for a, b in zip(u, v):
            acc = add[acc][mul[a][b]]
        return acc

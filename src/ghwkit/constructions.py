"""Test-fixture constructions: polynomial-evaluation LRCs with coset repair
groups, Reed-Solomon codes, and seeded random codes.

The LRC family evaluates polynomials of the shape

    f(x) = sum_{i,j} a_{ij} x^i (x^{r+1})^j,   i < r,

on the order-n multiplicative subgroup of GF(q)* (needs n | q-1).  The
subgroup splits into n/(r+1) cosets of the order-(r+1) subgroup; x^{r+1} is
constant on each coset, so f restricted to a coset has degree at most r-1
and every symbol is recoverable from the r others in its coset.  When r
does not divide k (k = a*r + b with 0 < b < r), the monomials x^i with
i < b take one extra power of x^{r+1}, keeping exactly k coefficients.

Constructions are never assumed distance-optimal: the analysis pipeline
re-derives optimality before a fixture is used to check any exact-hierarchy
statement.

The random generator uses splitmix64 so that identical (q, n, k, seed)
produce bit-identical codes on every platform.
"""

from __future__ import annotations

import math

from .algebra import MAX_FIELD_SIZE, Field, _prime_factors
from .code import LinearCode

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64), platform independent."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def field_for_order(q: int, modulus=None) -> Field:
    """Field of order q = p^m; the prime-power shape is derived from q."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"field size {q} exceeds {MAX_FIELD_SIZE}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p,) = factors
    return Field(p, round(math.log(q, p)), modulus)  # exact: q = p^m <= 2^16


def _subgroup(field: Field, order: int) -> list[int]:
    """The multiplicative subgroup of the given order, sorted by index."""
    g = field.multiplicative_generator()
    h = field.pow(g, (field.q - 1) // order)
    points = set()
    x = 1
    for _ in range(order):
        points.add(x)
        x = field.mul(x, h)
    if len(points) != order:  # pragma: no cover - generator order guarantees this
        raise RuntimeError("subgroup enumeration produced duplicates")
    return sorted(points)


def _lrc_monomial_exponents(k: int, r: int) -> list[int]:
    a, b = divmod(k, r)
    exps = []
    for i in range(r):
        top = a if i < b else a - 1
        for j in range(top + 1):
            exps.append(i + (r + 1) * j)
    return sorted(exps)


def tamo_barg(q: int, n: int, k: int, r: int) -> LinearCode:
    """Polynomial-evaluation LRC with coset repair groups of size r+1.

    Requires (r+1) | n, n | q-1 (so (r+1) | q-1) and k <= n*r/(r+1).  Every
    coordinate has locality at most r; distance-optimality is certified
    downstream, never assumed here.
    """
    if r < 1:
        raise ValueError(f"locality parameter must be >= 1, got {r}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n % (r + 1) != 0:
        raise ValueError(f"group size r+1={r + 1} must divide n={n}")
    field = field_for_order(q)
    if (q - 1) % n != 0:
        raise ValueError(f"n={n} must divide q-1={q - 1}")
    if k * (r + 1) > n * r:
        raise ValueError(f"k={k} exceeds n*r/(r+1)={n * r / (r + 1):g}")
    points = _subgroup(field, n)
    exponents = _lrc_monomial_exponents(k, r)
    rows = [[field.pow(alpha, e) for alpha in points] for e in exponents]
    code = LinearCode(field, rows)
    if code.k != k:  # pragma: no cover - distinct exponents below n force rank k
        raise RuntimeError(f"construction produced rank {code.k}, expected {k}")
    return code


def reed_solomon(q: int, n: int, k: int) -> LinearCode:
    """[n, k] Reed-Solomon code; Vandermonde generator on the first n field
    elements in index order."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    field = field_for_order(q)
    if n > q:
        raise ValueError(f"length n={n} exceeds field size q={q}")
    points = list(range(n))
    rows = [[field.pow(alpha, i) for alpha in points] for i in range(k)]
    return LinearCode(field, rows)


def random_code(q: int, n: int, k: int, seed: int = 0) -> LinearCode:
    """Seed-reproducible full-rank k x n generator with no zero column.

    Entries are drawn uniformly via splitmix64; all-zero columns are
    resampled in place, and a rank-deficient draw discards the whole matrix.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    field = field_for_order(q)
    rng = SplitMix64(seed)
    for _ in range(1000):
        entries = [[rng.below(q) for _ in range(n)] for _ in range(k)]
        for j in range(n):
            while all(entries[i][j] == 0 for i in range(k)):
                for i in range(k):
                    entries[i][j] = rng.below(q)
        code = LinearCode(field, entries)  # no zero column, so never refused
        if code.k == k:
            return code
    raise RuntimeError(f"could not draw a full-rank generator for "
                       f"(q={q}, n={n}, k={k}, seed={seed})")  # pragma: no cover

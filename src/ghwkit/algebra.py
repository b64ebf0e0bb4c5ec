"""Finite-field arithmetic GF(p^m) and dense matrices over a field.

Field elements are plain integers in [0, q).  For a prime field the index is
the residue itself.  For an extension field the base-p digits of the index
are the coefficients of the polynomial representation, lowest degree first,
so index 0 is the additive identity and index 1 the multiplicative identity
in every field.  Extension fields multiply through exp/log tables built once
at construction, on the smallest element of order q-1; prime fields use
direct modular arithmetic.  One square-and-multiply serves `Field.pow` and
that generator search.

All row reduction goes through `reduce_against`, which reduces one vector
against a pivot basis, and `scale`, which multiplies a vector by a scalar:
the subset search of `ghwkit.ghw` grows its bases with them, and
`_echelon`, behind `Matrix.rref`, `rank`, `nullspace` and
`nullspace_within`, inserts each row into a reduced-row-echelon basis.

Both run on two q x q tables when q <= TABLE_MAX_Q = 256: `Field.mul_rows`,
row c holding c*y at y, and `Field.sub_rows`, row x holding x-z at z.  So a
row operation fetches one product row per basis vector and then costs two
list lookups per entry, where the closures `Field.mul` and `Field.sub` cost
two calls, exp/log lookups or base-p digit loops.  The tables are filled
straight from exp/log (extension fields) or modular arithmetic (prime
fields), subtraction digit by digit (XOR in characteristic 2), never through
the closures; at q = 256 they hold about 1 MB.  Above 256 they are not
built: two tables of q^2 entries would hold 2 x 10^6 Python ints at
q = 1024 and 8.6 x 10^9 at 2^16, so both functions use the closures there.
Only these two functions choose between tables and closures; their callers
never look at q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

MAX_FIELD_SIZE = 1 << 16
TABLE_MAX_Q = 256


def _prime_factors(x: int) -> list[int]:
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


def is_prime(x: int) -> bool:
    return x >= 2 and _prime_factors(x) == [x]


def _base_p(x: int, p: int, m: int) -> list[int]:
    """The m lowest base-p digits of x, lowest first."""
    out = []
    for _ in range(m):
        x, d = divmod(x, p)
        out.append(d)
    return out


def _power(mul: Callable[[int, int], int], a: int, e: int) -> int:
    """a**e for e >= 0 by square-and-multiply with `mul`."""
    r = 1
    while e:
        if e & 1:
            r = mul(r, a)
        a = mul(a, a)
        e >>= 1
    return r


def _sub_rows(p: int, m: int) -> list[list[int]]:
    """Row x, entry z: x - z, digit by digit mod p on the base-p digits of
    the indices (XOR when p = 2)."""
    q = p**m
    if p == 2:
        return [[x ^ z for z in range(q)] for x in range(q)]
    digit = [list(range(a, -1, -1)) + list(range(p - 1, a, -1)) for a in range(p)]
    rows = digit
    for _ in range(m - 1):  # one more digit below the others: index = low + p * high
        rows = [[d + p * h for h in high for d in digit[low]]
                for high in rows for low in range(p)]
    return rows


def _smallest_generator(q: int, mul: Callable[[int, int], int]) -> int:
    """The smallest element of multiplicative order q-1 (1 in GF(2)): none
    of its powers (q-1)/f, f a prime factor of q-1, is 1."""
    factors = _prime_factors(q - 1)
    return next((g for g in range(2, q)
                 if all(_power(mul, g, (q - 1) // f) != 1 for f in factors)), 1)


# ---------------------------------------------------------------------------
# Polynomials over GF(p), coefficient lists lowest degree first.


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a mod b over GF(p); b must be monic."""
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - db
            for i in range(db + 1):
                r[shift + i] = (r[shift + i] - lead * b[i]) % p
        r.pop()
    return _poly_trim(r)


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by trial division
    against all monic polynomials of degree up to deg/2."""
    poly = list(coeffs)
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        return False
    for deg in range(1, m // 2 + 1):
        for enc in range(p**deg):
            if not _poly_rem(poly, _base_p(enc, p, deg) + [1], p):
                return False
    return True


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates are ordered by the base-p integer encoding of their low
    coefficients, which makes the choice reproducible.
    """
    for enc in range(p**m):
        cand = _base_p(enc, p, m) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


class Field:
    """Arithmetic for GF(p^m) with q = p^m <= 2**16.

    Parameters
    ----------
    p : int
        Characteristic; must be prime.
    m : int
        Extension degree.
    modulus : sequence of int or None
        Coefficients of a degree-m irreducible polynomial over GF(p),
        lowest degree first, length m+1, monic.  Only allowed for m > 1;
        when omitted the lexicographically smallest monic irreducible is
        selected.

    For q <= TABLE_MAX_Q, `mul_rows[c][y]` is c*y and `sub_rows[x][z]` is
    x - z; both are None above it.  Instances are immutable after
    construction and safe to share.
    """

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds the table limit {MAX_FIELD_SIZE}")
        self.p = p
        self.m = m
        self.q = q
        self.mul_rows: list[list[int]] | None = None
        self.sub_rows = _sub_rows(p, m) if q <= TABLE_MAX_Q else None
        if m == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to extension fields (m > 1)")
            self.modulus: tuple[int, ...] | None = None
            self._init_prime()
        else:
            if modulus is None:
                mod = default_modulus(p, m)
            else:
                mod = tuple(int(c) for c in modulus)
                if len(mod) != m + 1 or mod[-1] != 1:
                    raise ValueError(
                        f"modulus must be monic of degree {m} (got {list(mod)})"
                    )
                if any(not 0 <= c < p for c in mod):
                    raise ValueError("modulus coefficients must lie in [0, p)")
                if not is_irreducible(mod, p):
                    raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
            self.modulus = mod
            self._init_extension()

    # -- construction helpers ------------------------------------------------

    def _init_prime(self) -> None:
        p = self.p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.neg = lambda a: (-a) % p
        self.mul = lambda a, b: (a * b) % p

        def inv(a: int) -> int:
            if a % p == 0:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            return pow(a, p - 2, p)

        self.inv = inv
        self._generator = _smallest_generator(p, self.mul)
        if p <= TABLE_MAX_Q:
            self.mul_rows = [[c * y % p for y in range(p)] for c in range(p)]

    def _init_extension(self) -> None:
        p, m, q = self.p, self.m, self.q
        digits = [_base_p(idx, p, m) for idx in range(q)]
        mod = self.modulus

        def raw_mul(a: int, b: int) -> int:
            da, db = digits[a], digits[b]
            prod = [0] * (2 * m - 1)
            for i, ca in enumerate(da):
                if ca:
                    for j, cb in enumerate(db):
                        if cb:
                            prod[i + j] = (prod[i + j] + ca * cb) % p
            for i in range(2 * m - 2, m - 1, -1):
                lead = prod[i]
                if lead:
                    prod[i] = 0
                    for t in range(m + 1):
                        prod[i - m + t] = (prod[i - m + t] - lead * mod[t]) % p
            out = 0
            for i in range(m - 1, -1, -1):
                out = out * p + prod[i]
            return out

        gen = self._generator = _smallest_generator(q, raw_mul)

        exp = [1] * (q - 1)
        for t in range(1, q - 1):
            exp[t] = raw_mul(exp[t - 1], gen)
        log = [0] * q
        for t, v in enumerate(exp):
            log[v] = t

        if p == 2:
            self.add = lambda a, b: a ^ b
            self.sub = self.add
            self.neg = lambda a: a
        else:

            def add(a: int, b: int) -> int:
                da, db = digits[a], digits[b]
                out = 0
                for i in range(m - 1, -1, -1):
                    out = out * p + (da[i] + db[i]) % p
                return out

            def sub(a: int, b: int) -> int:
                da, db = digits[a], digits[b]
                out = 0
                for i in range(m - 1, -1, -1):
                    out = out * p + (da[i] - db[i]) % p
                return out

            self.add = add
            self.sub = sub
            self.neg = lambda a: sub(0, a)

        order = q - 1

        def mul(a: int, b: int) -> int:
            if a == 0 or b == 0:
                return 0
            return exp[(log[a] + log[b]) % order]

        def inv(a: int) -> int:
            if a == 0:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            return exp[(order - log[a]) % order]

        self.mul = mul
        self.inv = inv
        if q <= TABLE_MAX_Q:
            exp2 = exp + exp  # exp2[log a + log b] = a*b, no reduction mod q-1
            self.mul_rows = [[0] * q] + [[0] + [exp2[lc + lb] for lb in log[1:]]
                                         for lc in log[1:]]

    # -- generic operations ----------------------------------------------------

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; negative e inverts first."""
        if e < 0:
            a, e = self.inv(a), -e
        return _power(self.mul, a, e)

    def multiplicative_generator(self) -> int:
        """The smallest element of multiplicative order q-1."""
        return self._generator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}={self.p}^{self.m}, modulus={list(self.modulus)})"


def reduce_against(vec: list[int], basis: Sequence[tuple[int, Sequence[int]]],
                   field: Field) -> int:
    """Reduce `vec` in place against `basis`, (pivot, vector) pairs with each
    vector as long as `vec`, 0 before and 1 at its pivot and 0 at the pivots
    of the pairs before it: sorted by pivot, each reduced against those
    before it, or a full RREF (0 at every other pivot) in any order.  Returns the first
    nonzero position left, or -1 when `vec` lies in the span."""
    n, mul_rows, sub_rows = len(vec), field.mul_rows, field.sub_rows
    if mul_rows is None:
        sub, mul = field.sub, field.mul
        for p, b in basis:
            c = vec[p]
            if c:
                for t in range(p, n):
                    if b[t]:
                        vec[t] = sub(vec[t], mul(c, b[t]))
    else:
        for p, b in basis:
            c = vec[p]
            if c:
                row = mul_rows[c]  # row[y] = c*y
                for t in range(p, n):
                    vec[t] = sub_rows[vec[t]][row[b[t]]]
    for t, e in enumerate(vec):
        if e:
            return t
    return -1


def scale(c: int, vec: Sequence[int], field: Field) -> list[int]:
    """c * vec as a new list."""
    mul_rows = field.mul_rows
    if mul_rows is None:
        mul = field.mul
        return [mul(c, e) for e in vec]
    row = mul_rows[c]
    return [row[e] for e in vec]


def _echelon(rows: Iterable[Sequence[int]], field: Field) -> list[tuple[int, list[int]]]:
    """The RREF of the span of `rows` as (pivot, row) pairs sorted by pivot.
    Each row is reduced against the basis so far, scaled to 1 at its pivot
    and cleared from the rows already in the basis; a row already in RREF
    below them needs no field arithmetic."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        vec = list(row)
        p = reduce_against(vec, basis, field)
        if p < 0:
            continue
        if vec[p] != 1:
            vec = scale(field.inv(vec[p]), vec, field)
        for _, b in basis:
            if b[p]:
                reduce_against(b, ((p, vec),), field)
        basis.append((p, vec))
    basis.sort()
    return basis


def _nullspace_rows(rows: Sequence[Sequence[int]], ncols: int, field: Field) -> list[list[int]]:
    """The RREF basis of {v : M v^T = 0} for the matrix M with these rows."""
    basis = _echelon(rows, field)
    pivots = {p for p, _ in basis}
    free = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for p, b in basis:
                v[p] = field.neg(b[f])
            free.append(v)
    return [b for _, b in _echelon(free, field)]


@dataclass(frozen=True)
class RrefResult:
    reduced: "Matrix"
    rank: int
    pivots: tuple[int, ...]


class Matrix:
    """Immutable dense matrix over one Field; entries are element indices.

    Zero-row matrices are legal (e.g. the nullspace basis of an invertible
    matrix) but need an explicit column count.
    """

    def __init__(self, field: Field, rows: Iterable[Iterable[int]], ncols: int | None = None):
        norm = []
        for row in rows:
            out = []
            for e in row:
                e = int(e)
                if not 0 <= e < field.q:
                    raise ValueError(f"entry {e} outside [0, {field.q})")
                out.append(e)
            norm.append(tuple(out))
        self.field = field
        self.rows: tuple[tuple[int, ...], ...] = tuple(norm)
        self.nrows = len(self.rows)
        widths = {len(r) for r in self.rows} or {ncols}  # no rows: the width given
        if len(widths) > 1:
            raise ValueError("ragged rows")
        (self.ncols,) = widths
        if self.ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        if ncols not in (None, self.ncols):
            raise ValueError("ncols does not match row length")

    # -- basic views -----------------------------------------------------------

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows)) if self.rows else [()] * self.ncols

    # -- arithmetic --------------------------------------------------------------

    def left_mul_vector(self, x: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix: the combination sum_t x[t] * row_t."""
        if len(x) != self.nrows:
            raise ValueError("vector length does not match row count")
        add, mul = self.field.add, self.field.mul
        acc = [0] * self.ncols
        for c, row in zip(x, self.rows):
            if c:
                for j, e in enumerate(row):
                    if e:
                        acc[j] = add(acc[j], mul(c, e))
        return tuple(acc)

    # -- elimination -------------------------------------------------------------

    def rref(self) -> RrefResult:
        """Reduced row echelon form, rank and pivot columns."""
        basis = _echelon(self.rows, self.field)
        reduced = Matrix(self.field, [b for _, b in basis], ncols=self.ncols)
        return RrefResult(reduced, len(basis), tuple(p for p, _ in basis))

    def rank(self) -> int:
        return len(_echelon(self.rows, self.field))

    def nullspace(self) -> "Matrix":
        """Canonical basis of {v : M v^T = 0}: its RREF, one row per free column."""
        return Matrix(self.field, _nullspace_rows(self.rows, self.ncols, self.field),
                      ncols=self.ncols)

    def nullspace_within(self, columns: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Canonical basis of {v : M v^T = 0} restricted to vectors supported
        inside `columns`, each row embedded at full length."""
        basis = []
        for srow in _nullspace_rows([[row[c] for c in columns] for row in self.rows],
                                    len(columns), self.field):
            full = [0] * self.ncols
            for c, e in zip(columns, srow):
                full[c] = e
            basis.append(tuple(full))
        return tuple(basis)

    # -- misc ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols} over {self.field}: [{body}])"

"""Finite-field arithmetic GF(p^m) and dense matrices over a field.

Field elements are plain integers in [0, q).  For a prime field the index is
the residue itself.  For an extension field the base-p digits of the index
are the coefficients of the polynomial representation, lowest degree first,
so index 0 is the additive identity and index 1 the multiplicative identity
in every field.  Extension fields multiply through exp/log tables built once
at construction; prime fields use direct modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_FIELD_SIZE = 1 << 16


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


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
            div = [0] * (deg + 1)
            e = enc
            for i in range(deg):
                div[i] = e % p
                e //= p
            div[deg] = 1
            if not _poly_rem(poly, div, p):
                return False
    return True


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Candidates are ordered by the base-p integer encoding of their low
    coefficients, which makes the choice reproducible.
    """
    for enc in range(p**m):
        cand = [0] * (m + 1)
        e = enc
        for i in range(m):
            cand[i] = e % p
            e //= p
        cand[m] = 1
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

    Instances are immutable after construction and safe to share.
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
        gen = None
        for g in range(2, p):
            if all(pow(g, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1)):
                gen = g
                break
        self._generator = 1 if p == 2 else gen

    def _init_extension(self) -> None:
        p, m, q = self.p, self.m, self.q
        digits = []
        for idx in range(q):
            d, e = [0] * m, idx
            for i in range(m):
                d[i] = e % p
                e //= p
            digits.append(tuple(d))
        self._digits = tuple(digits)
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

        def raw_pow(a: int, e: int) -> int:
            r = 1
            while e:
                if e & 1:
                    r = raw_mul(r, a)
                a = raw_mul(a, a)
                e >>= 1
            return r

        gen = None
        factors = _prime_factors(q - 1)
        for cand in range(2, q):
            if all(raw_pow(cand, (q - 1) // f) != 1 for f in factors):
                gen = cand
                break
        if gen is None:  # pragma: no cover - irreducible modulus guarantees one
            raise ValueError("multiplicative group has no generator; modulus invalid")
        self._generator = gen

        exp = [1] * (q - 1)
        for t in range(1, q - 1):
            exp[t] = raw_mul(exp[t - 1], gen)
        log = [0] * q
        for t, v in enumerate(exp):
            log[v] = t
        self._exp, self._log = tuple(exp), tuple(log)

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

    # -- generic operations ----------------------------------------------------

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; negative e inverts first."""
        if e < 0:
            a, e = self.inv(a), -e
        r, base, mul = 1, a, self.mul
        while e:
            if e & 1:
                r = mul(r, base)
            base = mul(base, base)
            e >>= 1
        return r

    def multiplicative_generator(self) -> int:
        """An element of multiplicative order q-1."""
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
    vector 0 before and 1 at its pivot and 0 at the pivots of the pairs
    before it (sorted by pivot, or each reduced against those before it).
    Returns the first nonzero position left, or -1 when `vec` lies in the
    span."""
    sub, mul = field.sub, field.mul
    for p, b in basis:
        c = vec[p]
        if c:
            for t in range(p, len(b)):
                if b[t]:
                    vec[t] = sub(vec[t], mul(c, b[t]))
    for t in range(len(vec)):
        if vec[t]:
            return t
    return -1


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
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols does not match row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            self.ncols = ncols

    # -- basic views -----------------------------------------------------------

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.ncols)]

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
        field = self.field
        mul, sub, inv = field.mul, field.sub, field.inv
        rows = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for c in range(nc):
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
                    for t in range(c, nc):
                        if prow[t]:
                            irow[t] = sub(irow[t], mul(f, prow[t]))
            pivots.append(c)
            r += 1
            if r == nr:
                break
        reduced = Matrix(field, [tuple(row) for row in rows[:r]], ncols=nc)
        return RrefResult(reduced, r, tuple(pivots))

    def rank(self) -> int:
        return self.rref().rank

    def nullspace(self) -> "Matrix":
        """Canonical basis of {v : M v^T = 0}, one row per free column."""
        field = self.field
        res = self.rref()
        red, pivots = res.reduced, res.pivots
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [0] * self.ncols
            v[f] = 1
            for t, pc in enumerate(pivots):
                v[pc] = field.neg(red.rows[t][f])
            basis.append(v)
        ns = Matrix(field, basis, ncols=self.ncols)
        return ns.rref().reduced

    def nullspace_within(self, columns: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Canonical basis of {v : M v^T = 0} restricted to vectors supported
        inside `columns`, each row embedded at full length."""
        sub = Matrix(self.field, [[row[c] for c in columns] for row in self.rows],
                     ncols=len(columns))
        basis = []
        for srow in sub.nullspace().rows:
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


import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.algebra import (
    Field,
    Matrix,
    default_modulus,
    is_irreducible,
    is_prime,
    reduce_against,
)
from ghwkit.code import LinearCode

from oracles import (
    gauss_jordan,
    gauss_jordan_nullspace,
    identity,
    is_zero,
    mat_mul,
    transpose,
)


def extended_euclid_inverse(a, p):
    """Independent inverse oracle for prime fields."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    assert old_r == 1
    return old_s % p


class TestFieldConstruction:
    def test_gf2(self):
        f = Field(2)
        assert (f.p, f.m, f.q) == (2, 1, 2)

    def test_gf13_supports_length_12_cyclic_evaluation_sets(self):
        f = Field(13)
        assert (f.q - 1) % 12 == 0

    def test_gf4_polynomial_reduction(self):
        # index 2 encodes the polynomial x, index 3 encodes x+1
        f = Field(2, 2, modulus=[1, 1, 1])
        assert f.mul(2, 2) == 3

    def test_non_prime_characteristic_rejected(self):
        with pytest.raises(ValueError):
            Field(4)
        with pytest.raises(ValueError):
            Field(1)

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 = (x+1)^2 over GF(2)
        with pytest.raises(ValueError, match="reducible"):
            Field(2, 2, modulus=[1, 0, 1])

    def test_table_limit(self):
        with pytest.raises(ValueError, match="table limit"):
            Field(2, 17)

    def test_modulus_on_prime_field_rejected(self):
        with pytest.raises(ValueError):
            Field(5, 1, modulus=[1, 1])

    def test_default_modulus_is_lexicographically_smallest(self):
        assert default_modulus(2, 2) == (1, 1, 1)        # x^2+x+1
        assert default_modulus(2, 3) == (1, 1, 0, 1)     # x^3+x+1
        assert default_modulus(3, 2) == (1, 0, 1)        # x^2+1 over GF(3)

    def test_is_irreducible_trial_division(self):
        assert is_irreducible([1, 1, 1], 2)
        assert not is_irreducible([1, 0, 1], 2)
        assert is_irreducible([0, 1], 2)  # x itself, degree 1

    def test_is_irreducible_refuses_constants_and_non_monic(self):
        assert not is_irreducible([1], 2)  # degree 0
        assert not is_irreducible([1, 1, 2], 3)  # 2x^2 + x + 1: not monic

    def test_is_prime(self):
        assert [x for x in range(20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestElementArithmetic:
    def test_characteristic_two(self):
        f = Field(2)
        assert f.add(1, 1) == 0

    def test_gf13_inverse_matches_extended_euclid(self):
        f = Field(13)
        assert f.inv(5) == 8 == extended_euclid_inverse(5, 13)
        assert f.mul(5, f.inv(5)) == 1

    def test_gf4_mul(self):
        f = Field(2, 2)
        assert f.mul(2, 2) == 3        # x * x = x + 1
        assert f.mul(2, 3) == 1        # x * (x+1) = x^2 + x = 1

    def test_zero_inverse_raises(self):
        for f in (Field(7), Field(2, 3)):
            with pytest.raises(ZeroDivisionError):
                f.inv(0)

    def test_pow_square_and_multiply(self):
        f = Field(2, 4)
        for a in range(1, f.q):
            acc = 1
            for e in range(7):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)
        assert f.pow(0, 0) == 1
        assert f.pow(3, -1) == f.inv(3)

    def test_multiplicative_generator(self):
        for f in (Field(2), Field(13), Field(2, 2), Field(3, 2)):
            g = f.multiplicative_generator()
            seen = set()
            x = 1
            for _ in range(f.q - 1):
                seen.add(x)
                x = f.mul(x, g)
            assert len(seen) == f.q - 1


SMALL_FIELDS = [Field(2), Field(3), Field(5), Field(7), Field(11), Field(13),
                Field(2, 2), Field(2, 3), Field(2, 4), Field(3, 2)]


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: repr(f))
def test_field_axioms_exhaustive(f):
    """Field axioms, fully enumerated for q <= 16."""
    q = f.q
    elements = range(q)
    for a in elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elements:
        for b in elements:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if b:
                assert f.mul(f.mul(a, f.inv(b)), b) == a
    for a in elements:
        for b in elements:
            for c in elements:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


LARGE_FIELDS = [Field(251), Field(2, 8), Field(5, 3), Field(2, 10)]


@pytest.mark.parametrize("f", SMALL_FIELDS + LARGE_FIELDS, ids=lambda f: repr(f))
def test_multiplicative_generator_is_the_smallest(f):
    def order(g):
        x, t = g, 1
        while x != 1:
            x, t = f.mul(x, g), t + 1
        return t

    smallest = next(g for g in range(1, f.q) if order(g) == f.q - 1)
    assert f.multiplicative_generator() == smallest


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_field_axioms_randomized_large(data):
    f = data.draw(st.sampled_from(LARGE_FIELDS))
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


class TestRref:
    def test_identity(self, gf2):
        m = identity(gf2, 3)
        res = m.rref()
        assert res.rank == 3
        assert res.pivots == (0, 1, 2)
        assert res.reduced == m

    def test_duplicate_rows(self, gf2):
        res = Matrix(gf2, [[1, 1], [1, 1]]).rref()
        assert res.rank == 1
        assert res.reduced.rows == ((1, 1),)

    def test_proportional_rows_gf13(self, gf13):
        # row 2 = 2 * row 1 in GF(13)
        res = Matrix(gf13, [[1, 2], [2, 4]]).rref()
        assert res.rank == 1

    def test_normalizes_leading_entries(self, gf13):
        res = Matrix(gf13, [[2, 4, 6], [0, 0, 5]]).rref()
        assert res.reduced.rows == ((1, 2, 0), (0, 0, 1))


def rank_of_columns(m, cols):
    """Rank of a column subset, built up with `reduce_against` the way the
    hierarchy sweep and the cover search build their bases."""
    basis = []
    for j in sorted(cols):
        vec = list(m.column(j))
        piv = reduce_against(vec, basis, m.field)
        if piv >= 0:
            s = m.field.inv(vec[piv])
            basis.append((piv, [m.field.mul(s, e) for e in vec]))
    return len(basis)


class TestRankOfColumns:
    def test_identity_subset(self, gf2):
        assert rank_of_columns(identity(gf2, 4), {0, 2}) == 2

    def test_equal_columns(self, gf2):
        g = Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]])
        assert rank_of_columns(g, {0, 1}) == 1

    def test_empty_set(self, gf13):
        assert rank_of_columns(Matrix(gf13, [[1, 2], [3, 4]]), set()) == 0

    def test_out_of_range(self, gf2):
        with pytest.raises(IndexError):
            rank_of_columns(identity(gf2, 2), {5})


class TestNullspace:
    def test_identity_has_trivial_nullspace(self, gf2):
        ns = identity(gf2, 3).nullspace()
        assert ns.nrows == 0 and ns.ncols == 3

    def test_single_parity(self, gf2):
        ns = Matrix(gf2, [[1, 1]]).nullspace()
        assert ns.rows == ((1, 1),)

    def test_two_blocks(self, gf2):
        m = Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]])
        ns = m.nullspace()
        assert ns.nrows == 2
        # same row space as {1100, 0011}
        assert ns == Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]]).rref().reduced


def _random_matrix(f, nrows, ncols, seed):
    from ghwkit.constructions import SplitMix64
    rng = SplitMix64(seed)
    return Matrix(f, [[rng.below(f.q) for _ in range(ncols)] for _ in range(nrows)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_properties(data):
    f = data.draw(st.sampled_from([Field(2), Field(3), Field(2, 2), Field(13)]))
    nrows = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**32))
    m = _random_matrix(f, nrows, ncols, seed)

    assert m.rank() == transpose(m).rank()
    ns = m.nullspace()
    assert m.rank() + ns.nrows == m.ncols
    if ns.nrows:
        assert is_zero(mat_mul(m, transpose(ns)))
    red = m.rref().reduced
    if red.nrows:
        assert red.rref().reduced == red  # idempotent


ELIMINATION_FIELDS = [Field(2), Field(3), Field(2, 2), Field(3, 2), Field(13), Field(2, 4)]


@st.composite
def _degenerate_rows(draw):
    """A field and rows over it, often with zero rows, repeated rows, rows
    that combine earlier ones, and zero columns."""
    f = draw(st.sampled_from(ELIMINATION_FIELDS))
    ncols = draw(st.integers(1, 8))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=3))
    element = st.integers(0, f.q - 1)
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combine"])) if rows else "random"
        if kind == "random":
            row = draw(st.lists(element, min_size=ncols, max_size=ncols))
        elif kind == "zero":
            row = [0] * ncols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(element), draw(element)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = [f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(u, v)]
        rows.append([0 if j in zero_cols else e for j, e in enumerate(row)])
    return f, rows, ncols


class _CountingField:
    """A field that counts the arithmetic done through it."""

    def __init__(self, field):
        self.field, self.q, self.calls = field, field.q, 0

    def __getattr__(self, name):
        op = getattr(self.field, name)

        def counted(*args):
            self.calls += 1
            return op(*args)

        return counted


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_elimination_matches_gauss_jordan(data):
    """rref, rank, nullspace, nullspace_within and a code's check matrix
    against Gauss-Jordan elimination."""
    f, rows, ncols = data.draw(_degenerate_rows())
    m = Matrix(f, rows, ncols=ncols)
    red, pivots = gauss_jordan(f, rows, ncols)
    res = m.rref()
    assert (res.reduced.rows, res.rank, res.pivots) == (red, len(red), pivots)
    assert m.rank() == len(red)
    counting = _CountingField(f)  # an RREF input is re-reduced with no arithmetic
    assert Matrix(counting, red, ncols=ncols).rref().reduced.rows == red
    assert counting.calls == 0
    null = gauss_jordan_nullspace(f, rows, ncols)
    assert m.nullspace() == Matrix(f, null, ncols=ncols)

    cols = sorted(data.draw(st.sets(st.integers(0, ncols - 1))))
    expected = []
    for srow in gauss_jordan_nullspace(f, [[row[c] for c in cols] for row in rows], len(cols)):
        full = [0] * ncols
        for c, e in zip(cols, srow):
            full[c] = e
        expected.append(tuple(full))
    assert m.nullspace_within(cols) == tuple(expected)

    if red:
        code = LinearCode(f, rows, _allow_zero_columns=True)
        assert (code.generator.rows, code.check.rows) == (red, null)


def test_matrix_validation(gf2):
    with pytest.raises(ValueError):
        Matrix(gf2, [[0, 2]])
    with pytest.raises(ValueError):
        Matrix(gf2, [[1], [1, 0]])
    with pytest.raises(ValueError):
        Matrix(gf2, [])
    empty = Matrix(gf2, [], ncols=3)
    assert empty.nrows == 0 and empty.ncols == 3


def test_equal_matrices_hash_equal(gf2):
    """The reduced forms of two spanning sets of one space are one Matrix:
    equal, hashed equal and one set element; a zero-row matrix is equal only
    at the same width."""
    a = Matrix(gf2, [[1, 1, 0], [0, 1, 1]]).rref().reduced
    b = Matrix(gf2, ((1, 0, 1), (1, 1, 0), (0, 1, 1))).rref().reduced
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    empty = Matrix(gf2, [], ncols=3)
    assert empty == Matrix(gf2, iter([]), ncols=3) != Matrix(gf2, [], ncols=2)
    assert hash(empty) == hash(Matrix(gf2, (), ncols=3))

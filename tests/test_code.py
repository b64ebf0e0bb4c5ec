import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.algebra import Matrix
from ghwkit.code import CodeValidationError, LinearCode
from ghwkit.constructions import SplitMix64, random_code, reed_solomon
from ghwkit.ghw import weight_hierarchy

from oracles import codewords, hamming_weight, identity, is_zero, mat_mul, support, transpose

# The package re-exports the function `ghw`, which hides the module.
ghw_module = sys.modules["ghwkit.ghw"]


def brute_force_distance(code):
    """Independent oracle: minimum weight over enumerated nonzero codewords."""
    return min(hamming_weight(w) for w in codewords(code) if any(w))


class TestConstruction:
    def test_two_block_code(self, gf2, pair_code):
        assert (pair_code.n, pair_code.k) == (4, 2)
        expected = Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]]).rref().reduced
        assert pair_code.check == expected

    def test_repetition(self, gf2, repetition3):
        assert (repetition3.n, repetition3.k) == (3, 1)
        # H spans {110, 101} up to basis
        expected = Matrix(gf2, [[1, 1, 0], [1, 0, 1]]).rref().reduced
        assert repetition3.check == expected

    def test_zero_column_rejected(self, gf2):
        with pytest.raises(CodeValidationError, match="all-zero column"):
            LinearCode(gf2, [[1, 0, 1], [1, 0, 0]])

    def test_rank_zero_rejected(self, gf2):
        with pytest.raises(CodeValidationError, match="rank 0"):
            LinearCode(gf2, [[0, 0, 0]])

    def test_redundant_rows_canonicalized(self, gf2):
        code = LinearCode(gf2, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
        assert code.k == 2

    def test_spanning_sets_of_one_code_are_one_code(self, gf2):
        a = LinearCode(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]])
        b = LinearCode(gf2, [[1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != LinearCode(gf2, [[1, 0, 1, 0], [0, 1, 0, 1]])

    def test_field_mismatch(self, gf2, gf13):
        m = Matrix(gf13, [[1, 2]])
        with pytest.raises(CodeValidationError):
            LinearCode(gf2, m)

    def test_generator_times_check_transpose_is_zero(self, lrc_12_6_3):
        prod = mat_mul(lrc_12_6_3.generator, transpose(lrc_12_6_3.check))
        assert is_zero(prod)


class TestDual:
    def test_self_dual(self, pair_code):
        assert pair_code.dual() == pair_code

    def test_repetition_dual_is_single_parity_check(self, gf2, repetition3):
        d = repetition3.dual()
        assert (d.n, d.k) == (3, 2)
        assert set(codewords(d)) == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_dual_of_dual(self, pair_code, repetition3, lrc_12_6_3):
        for code in (pair_code, repetition3, lrc_12_6_3):
            assert code.dual().dual() == code

    def test_dual_of_mds_is_mds(self):
        # brute-force distance of the dual at n <= 8
        code = reed_solomon(7, 6, 3)
        d = code.dual()
        assert (d.n, d.k) == (6, 3)
        assert brute_force_distance(d) == code.k + 1

    def test_dual_zero_coordinate_flagged(self, gf2):
        # e_1 is a codeword, so no dual codeword touches coordinate 1
        code = LinearCode(gf2, [[1, 0, 0], [0, 1, 1]])
        d = code.dual()
        assert d.zero_coordinates == (0,)
        assert code.zero_coordinates == ()

    def test_full_space_has_no_dual(self, gf2):
        full = LinearCode(gf2, identity(gf2, 3))
        with pytest.raises(CodeValidationError):
            full.dual()


class TestMinDistance:
    def test_examples(self, pair_code, repetition3, lrc_12_6_3):
        assert pair_code.min_distance() == 2 == brute_force_distance(pair_code)
        assert repetition3.min_distance() == 3
        assert lrc_12_6_3.min_distance() == 6

    def test_matches_first_hierarchy_value(self, pair_code):
        assert pair_code.min_distance() == weight_hierarchy(pair_code).values[0]

    def test_default_length_limit_is_the_searches_one(self):
        default = inspect.signature(LinearCode.min_distance).parameters["limit_n"].default
        assert default == ghw_module.DEFAULT_LIMIT_N
        assert inspect.signature(weight_hierarchy).parameters["limit_n"].default == default

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_subset_rank_equals_codeword_enumeration(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32))
        code = random_code(q, n, k, seed)
        assert code.min_distance() == brute_force_distance(code)


def _random_invertible(field, k, seed):
    rng = SplitMix64(seed)
    while True:
        m = Matrix(field, [[rng.below(field.q) for _ in range(k)] for _ in range(k)])
        if m.rank() == k:
            return m


class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_row_transform_leaves_code_unchanged(self, data):
        q = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(3, 8))
        k = data.draw(st.integers(1, n - 1))
        seed = data.draw(st.integers(0, 2**31))
        code = random_code(q, n, k, seed)
        t = _random_invertible(code.field, k, seed + 1)
        transformed = LinearCode(code.field, mat_mul(t, code.generator))
        assert transformed == code  # canonical form is basis independent
        assert transformed.dual() == code.dual()
        assert weight_hierarchy(transformed).values == weight_hierarchy(code).values

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_column_permutation_preserves_hierarchy(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.integers(3, 8))
        k = data.draw(st.integers(1, n - 1))
        seed = data.draw(st.integers(0, 2**31))
        code = random_code(q, n, k, seed)
        perm = data.draw(st.permutations(range(n)))
        rows = [[row[perm[j]] for j in range(n)] for row in code.generator.rows]
        permuted = LinearCode(code.field, rows)
        assert weight_hierarchy(permuted).values == weight_hierarchy(code).values


def test_support_and_weight_helpers():
    assert support((0, 3, 0, 1)) == (1, 3)
    assert hamming_weight((0, 3, 0, 1)) == 2


def test_codeword_enumeration_guard(lrc_12_6_3):
    with pytest.raises(ValueError, match="exceeds limit"):
        list(codewords(lrc_12_6_3, limit=100))

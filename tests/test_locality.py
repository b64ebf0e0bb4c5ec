import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ghwkit.algebra import Matrix
from ghwkit.code import CodeValidationError, LinearCode, hamming_weight, support
from ghwkit.constructions import field_for_order, random_code, reed_solomon
from ghwkit.locality import (
    UncoverableCoordinateError,
    _WORDS_PER_NODE,
    _cover_search,
    _cover_word,
    coordinate_locality,
    covering_rows,
    is_lrc,
    locality,
)
from oracles import dual_enum_locality, identity, mat_mul, transpose


class TestCoordinateLocality:
    def test_pair_code(self, pair_code):
        for j in range(4):
            assert coordinate_locality(pair_code, j) == 1

    def test_single_parity_check(self, gf2):
        spc = LinearCode(gf2, [[1, 0, 1], [0, 1, 1]])
        for j in range(3):
            assert coordinate_locality(spc, j) == 2

    def test_reference_fixture(self, lrc_12_6_3):
        for j in range(12):
            assert coordinate_locality(lrc_12_6_3, j) == 3

    def test_no_redundancy(self, gf2):
        full = LinearCode(gf2, identity(gf2, 3))
        with pytest.raises(CodeValidationError, match="no redundancy"):
            coordinate_locality(full, 0)

    def test_uncoverable_coordinate(self, gf2):
        code = LinearCode(gf2, [[1, 0, 0], [0, 1, 1]])
        with pytest.raises(UncoverableCoordinateError):
            coordinate_locality(code, 0)
        assert coordinate_locality(code, 1) == 1

    def test_out_of_range(self, pair_code):
        with pytest.raises(IndexError):
            coordinate_locality(pair_code, 7)


class TestLocality:
    def test_reference_fixture(self, lrc_12_6_3):
        prof = locality(lrc_12_6_3)
        assert prof.r == 3
        assert prof.per_coordinate == (3,) * 12

    def test_mds_locality_is_k(self):
        code = reed_solomon(7, 6, 3)
        assert locality(code).r == 3 == code.k

    def test_pair_code(self, pair_code):
        prof = locality(pair_code)
        assert prof.r == 1
        assert prof.covering_rows == ((1, 1, 0, 0), (0, 0, 1, 1))

    def test_uncoverable(self, gf2):
        code = LinearCode(gf2, [[1, 0, 0], [0, 1, 1]])
        with pytest.raises(UncoverableCoordinateError):
            locality(code)


class TestCoveringRows:
    def test_pair_code(self, pair_code):
        assert covering_rows(pair_code, 1) == [(1, 1, 0, 0), (0, 0, 1, 1)]

    def test_single_parity_check(self, gf2):
        spc = LinearCode(gf2, [[1, 0, 1], [0, 1, 1]])
        assert covering_rows(spc, 2) == [(1, 1, 1)]

    def test_reference_fixture_disjoint_groups(self, lrc_12_6_3):
        rows = covering_rows(lrc_12_6_3, 3)
        assert len(rows) == 3
        supports = [set(support(row)) for row in rows]
        assert all(len(s) == 4 for s in supports)
        assert set().union(*supports) == set(range(12))
        for a in range(3):
            for b in range(a + 1, 3):
                assert not supports[a] & supports[b]

    def test_uncoverable_coordinate(self, gf2):
        # coordinate 1 lies in no dual codeword, at any r: not "locality above r"
        code = LinearCode(gf2, [[1, 0, 0], [0, 1, 1]])
        message = "coordinate(s) [1] lie in no dual codeword support"
        with pytest.raises(UncoverableCoordinateError, match=re.escape(message)):
            covering_rows(code, 1)

    def test_r_below_locality(self, lrc_12_6_3):
        with pytest.raises(ValueError, match="locality above"):
            covering_rows(lrc_12_6_3, 2)

    def test_rows_are_dual_codewords_with_pivot_one(self, lrc_12_6_3):
        rows = covering_rows(lrc_12_6_3, 3)
        g_t = transpose(lrc_12_6_3.generator)
        covered = set()
        for row in rows:
            assert all(v == 0 for v in
                       mat_mul(Matrix(lrc_12_6_3.field, [row]), g_t).rows[0])
            pivot = min(set(range(12)) - covered)
            assert row[pivot] == 1
            covered |= set(support(row))


class TestIsLrc:
    def test_reference_fixture(self, lrc_12_6_3):
        assert is_lrc(lrc_12_6_3, 3)
        assert not is_lrc(lrc_12_6_3, 2)

    def test_any_code_at_r_equals_k(self):
        code = reed_solomon(7, 6, 3)
        assert is_lrc(code, code.k)

    def test_mds_needs_full_locality(self):
        assert not is_lrc(reed_solomon(7, 6, 3), 2)

    def test_full_space_is_never_lrc(self, gf2):
        full = LinearCode(gf2, identity(gf2, 3))
        assert not is_lrc(full, 3)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_locality_invariants(data):
    q = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(3, 9))
    k = data.draw(st.integers(1, n - 1))
    seed = data.draw(st.integers(0, 2**32))
    code = random_code(q, n, k, seed)
    try:
        prof = locality(code)
    except UncoverableCoordinateError:
        return
    assert all(1 <= rj <= k for rj in prof.per_coordinate)
    assert prof.r == max(prof.per_coordinate)
    assert is_lrc(code, prof.r)
    assert prof.r == 1 or not is_lrc(code, prof.r - 1)

    rows = prof.covering_rows
    assert set().union(*(set(support(r)) for r in rows)) == set(range(code.n))
    assert all(hamming_weight(r) <= prof.r + 1 for r in rows)
    assert Matrix(code.field, rows).rank() == len(rows)  # independent
    assert -(-code.k // prof.r) <= len(rows) <= code.n - code.k
    g_t = transpose(code.generator)
    for row in rows:
        assert all(v == 0 for v in mat_mul(Matrix(code.field, [row]), g_t).rows[0])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enum_and_subset_paths_agree(data):
    """The cover search matches dual-word enumeration: per-coordinate
    localities, covering rows, `is_lrc` and the uncoverable coordinates, also
    over GF(4) and on duals that miss a coordinate (zero_coordinates).  The
    search runs as the DFS alone (0), as the walk over the dual alone
    (2^62), and with the default switch between them."""
    words_per_node = data.draw(st.sampled_from([0, 1 << 62, _WORDS_PER_NODE]))
    with mock.patch("ghwkit.locality._WORDS_PER_NODE", words_per_node):
        _check_against_dual_enum(data)


def _check_against_dual_enum(data):
    q = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(1, n - 1))
    seed = data.draw(st.integers(0, 2**32))
    code = random_code(q, n, k, seed)
    if k < n - 1 and data.draw(st.booleans()):
        # the dual of a code holding e_j is zero at coordinate j
        j = data.draw(st.integers(0, n - 1))
        unit = [1 if c == j else 0 for c in range(n)]
        code = LinearCode(code.field, [*code.generator.rows, unit]).dual()
        assert j in code.zero_coordinates
    localities, rows = dual_enum_locality(code)
    for j, expected in enumerate(localities):
        if expected is None:
            with pytest.raises(UncoverableCoordinateError):
                coordinate_locality(code, j)
        else:
            assert coordinate_locality(code, j) == expected
    bad = [j + 1 for j, x in enumerate(localities) if x is None]
    if bad:
        message = f"coordinate(s) {bad} lie in no dual codeword support"
        with pytest.raises(UncoverableCoordinateError, match=re.escape(message)):
            locality(code)
        return
    prof = locality(code)
    assert list(prof.per_coordinate) == localities
    assert list(prof.covering_rows) == rows
    assert covering_rows(code, prof.r) == rows
    for r in range(1, code.k + 1):
        assert is_lrc(code, r) == (max(localities) <= r)


@pytest.mark.parametrize("make", [
    lambda: LinearCode(field_for_order(2), [[1 if c in (i, 19) else 0 for c in range(20)]
                                            for i in range(19)]),
    lambda: reed_solomon(32, 20, 18),
    lambda: random_code(2, 18, 15, seed=1),
], ids=["single-parity-20", "rs-32-20-18", "random-2-18-15-seed1"])
def test_high_rate_codes_walk_the_small_dual(make):
    """Covers of high-rate codes are large, so the DFS alone would visit
    about 2^(n-1) column sets per coordinate; walking the few dual words
    gives the same answer at once."""
    code = make()
    localities, rows = dual_enum_locality(code)
    prof = locality(code)
    assert list(prof.per_coordinate) == localities
    assert list(prof.covering_rows) == rows
    assert is_lrc(code, prof.r) and not is_lrc(code, prof.r - 1)
    assert coordinate_locality(code, code.n - 1) == localities[-1]


@pytest.mark.parametrize("q, kernel, other", [
    (2, "_max_excess_gf2", "_max_excess_for_size"),
    (3, "_max_excess_for_size", "_max_excess_gf2"),
])
def test_locality_asks_the_kernel_of_its_field(monkeypatch, q, kernel, other):
    """The cover search runs on the sweep's kernels: packed over GF(2),
    generic over GF(3)."""
    ghw_module = sys.modules["ghwkit.ghw"]
    calls = {kernel: 0, other: 0}

    def spy(name):
        original = getattr(ghw_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(ghw_module, name, spy(name))
    code = random_code(q, 12, 6, seed=1)
    expected, _ = dual_enum_locality(code)
    assert list(locality(code).per_coordinate) == expected
    assert calls[kernel] > 0 and calls[other] == 0


def test_localities_witnessed_by_actual_dual_words(lrc_12_6_3):
    """Each per-coordinate locality is materialized by a real dual codeword:
    weight r_j + 1, nonzero at j, orthogonal to the generator."""
    code = lrc_12_6_3
    prof = locality(code)
    g_t = transpose(code.generator)
    cover = _cover_search(code, prof.r)
    for j, rj in enumerate(prof.per_coordinate):
        subset = cover(j)
        assert subset is not None and len(subset) == rj + 1
        word = _cover_word(code, subset, j)
        assert word[j] != 0
        assert hamming_weight(word) == rj + 1
        assert all(v == 0 for v in mat_mul(Matrix(code.field, [word]), g_t).rows[0])

import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from ghwkit.algebra import Field, Matrix
from ghwkit.bounds import certify_optimal
from ghwkit.code import CodeValidationError, LinearCode, hamming_weight
from ghwkit.constructions import random_code, reed_solomon
from ghwkit.ghw import (
    LimitError,
    check_wei_duality,
    dual_hierarchy_values,
    gap_numbers,
    ghw,
    ghw_oracle,
    weight_hierarchy,
)

from oracles import contains, first_excess_oracle, gk_dual, identity

# The package re-exports the function `ghw`, which hides the module.
ghw_module = sys.modules["ghwkit.ghw"]
GF2 = Field(2)


class TestGhw:
    def test_pair_code(self, pair_code):
        assert ghw(pair_code, 1, with_witness=False)[0] == 2
        assert ghw(pair_code, 2, with_witness=False)[0] == 4

    def test_full_space_hierarchy_is_identity(self, gf2):
        full = LinearCode(gf2, identity(gf2, 4))
        assert weight_hierarchy(full).values == (1, 2, 3, 4)
        for i in range(1, 5):
            assert ghw(full, i, with_witness=False)[0] == i

    def test_reference_fixture_fourth_value(self, lrc_12_6_3):
        assert ghw(lrc_12_6_3, 4, with_witness=False)[0] == 10

    def test_index_range(self, pair_code):
        with pytest.raises(ValueError):
            ghw(pair_code, 0)
        with pytest.raises(ValueError):
            ghw(pair_code, 3)

    def test_length_limit(self, lrc_12_6_3):
        with pytest.raises(LimitError):
            ghw(lrc_12_6_3, 1, limit_n=4)
        with pytest.raises(LimitError):
            weight_hierarchy(lrc_12_6_3, limit_n=4)

    def test_witness_is_a_genuine_subcode(self, pair_code, lrc_12_6_3):
        for code, i in ((pair_code, 1), (pair_code, 2), (lrc_12_6_3, 2),
                        (lrc_12_6_3, 4)):
            d_i, w = ghw(code, i)
            assert len(w.support) == d_i
            assert w.dimension >= i
            assert len(w.basis) == w.dimension
            mat = Matrix(code.field, w.basis)
            assert mat.rank() == w.dimension  # independent
            for vec in w.basis:
                assert contains(code, vec)
                assert all(vec[j] == 0 for j in range(code.n) if j not in w.support)


class TestWeightHierarchy:
    def test_reference_fixture(self, lrc_12_6_3):
        h = weight_hierarchy(lrc_12_6_3)
        assert h.values == (6, 7, 8, 10, 11, 12)
        assert h.gaps == (1, 2, 3, 4, 5, 9)

    def test_reference_fixture_dual(self, lrc_12_6_3):
        h = weight_hierarchy(lrc_12_6_3.dual())
        assert h.values == (4, 8, 9, 10, 11, 12)
        assert h.gaps == (1, 2, 3, 5, 6, 7)

    def test_mds_meets_generalized_singleton(self):
        code = reed_solomon(7, 6, 3)
        assert weight_hierarchy(code).values == (4, 5, 6)

    def test_witnesses_flag(self, pair_code):
        h = weight_hierarchy(pair_code, with_witnesses=True)
        assert set(h.witnesses) == {1, 2}
        assert weight_hierarchy(pair_code).witnesses is None


class TestGapNumbers:
    def test_reference_fixture(self, lrc_12_6_3):
        assert gap_numbers(lrc_12_6_3) == (1, 2, 3, 4, 5, 9)
        assert gap_numbers(lrc_12_6_3.dual()) == (1, 2, 3, 5, 6, 7)

    def test_mds(self):
        code = reed_solomon(7, 7, 3)
        assert weight_hierarchy(code).values == (5, 6, 7)
        assert gap_numbers(code) == (1, 2, 3, 4)


class TestWeiDuality:
    def test_examples(self, pair_code, repetition3, lrc_12_6_3):
        for code in (pair_code, repetition3, lrc_12_6_3):
            report = check_wei_duality(code)
            assert report.holds and not report.violations

    def test_reference_fixture_set_arithmetic(self, lrc_12_6_3):
        report = check_wei_duality(lrc_12_6_3)
        n = 12
        mirrored = {n + 1 - d for d in report.dual}
        assert set(report.primal) == set(range(1, 13)) - mirrored


class TestGkDual:
    def test_reference_fixture(self, lrc_12_6_3):
        g = gk_dual(lrc_12_6_3)
        assert g == 7
        assert 12 + 1 - g == 6

    def test_mds_737(self):
        # dual of an MDS code is MDS, so the first dual value already
        # touches k+1 and g_k = k + 1 - 1
        code = reed_solomon(8, 7, 3)
        assert gk_dual(code) == 3
        assert code.min_distance() == 8 - 3  # n + 1 - g_k = 5

    def test_pair_code(self, pair_code):
        assert gk_dual(pair_code) == 3
        assert pair_code.min_distance() == 4 + 1 - 3


class TestOracle:
    def test_pair_code(self, pair_code):
        assert ghw_oracle(pair_code, 1) == 2
        assert ghw_oracle(pair_code, 2) == 4

    def test_single_parity_check(self, gf2):
        spc = LinearCode(gf2, [[1, 0, 1], [0, 1, 1]])
        assert ghw_oracle(spc, 1) == 2
        assert ghw_oracle(spc, 2) == 3

    def test_limit(self):
        code = reed_solomon(13, 12, 6)
        with pytest.raises(LimitError):
            ghw_oracle(code, 2, limit=1000)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_oracle_agrees_with_sweep(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, min(n, 5)))
        seed = data.draw(st.integers(0, 2**32))
        code = random_code(q, n, k, seed)
        h = weight_hierarchy(code)
        for i in range(1, k + 1):
            assert h.values[i - 1] == ghw_oracle(code, i)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_hierarchy_invariants(data):
    q = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32))
    code = random_code(q, n, k, seed)
    h = weight_hierarchy(code)

    assert all(h.values[i] < h.values[i + 1] for i in range(k - 1))
    assert h.values[-1] == n                      # full support
    assert all(h.values[i - 1] <= n - k + i for i in range(1, k + 1))
    assert len(h.gaps) == n - k
    assert check_wei_duality(code).holds
    gk_dual(code)  # internal cross-assertions must not raise


def test_degenerate_dual_still_satisfies_duality(gf2):
    # e_1 is a codeword: the dual misses coordinate 1 and its hierarchy
    # tops out below n, yet both duality identities hold.
    code = LinearCode(gf2, [[1, 0, 0], [0, 1, 1]])
    assert dual_hierarchy_values(code) == (2,)
    report = check_wei_duality(code)
    assert report.holds
    assert gk_dual(code) == 3


def test_wall_time_guard():
    code = random_code(2, 16, 8, seed=5)
    with pytest.raises(LimitError, match="wall-time"):
        weight_hierarchy(code, time_limit=0.0)


def test_wall_time_guard_on_the_packed_route():
    code = random_code(2, 22, 11, seed=1)
    start = time.monotonic()
    with pytest.raises(LimitError, match="wall-time"):
        weight_hierarchy(code, time_limit=0.05)
    assert time.monotonic() - start < 0.5


def _binary_columns(data, n: int) -> list[tuple[int, ...]]:
    """n columns of a random binary check matrix: a few distinct columns,
    zero included, drawn with repetition, and possibly no rows at all."""
    m = data.draw(st.integers(0, 8), label="rows")
    palette = data.draw(st.lists(st.integers(0, 2**m - 1), min_size=1, max_size=n),
                        label="palette")
    picks = data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n),
                      label="columns")
    return [tuple((c >> i) & 1 for i in range(m)) for c in picks]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_kernel_matches_generic_search(data):
    """The GF(2) route returns the generic search's maximum and first argmax
    at every size and every threshold."""
    n = data.draw(st.integers(1, 14), label="n")
    cols = _binary_columns(data, n)
    check = Matrix(GF2, [list(row) for row in zip(*cols)], ncols=n)
    search = ghw_module._size_search(check)
    for s in range(1, n + 1):
        for need in range(1, s + 2):
            assert search(s, need, None) == ghw_module._max_excess_for_size(
                cols, s, need, GF2, None)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_binary_ghw_witnesses_match_generic_search(data):
    """ghw over GF(2) gives the generic search's first size and first
    argmax, and the definition's value whenever the code is small."""
    n = data.draw(st.integers(1, 14), label="n")
    rows = data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=n),
                     label="rows")
    # Unit vectors put zero columns in H; weight-2 words repeat columns.
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="extra")
    rows += [1 << j for j in extra[:1]] + [(1 << j) | (1 << (n - 1)) for j in extra[1:]]
    try:
        code = LinearCode(GF2, [[(r >> j) & 1 for j in range(n)] for r in rows])
    except CodeValidationError:
        assume(False)
    cols = code.check.columns()
    for i in range(1, code.k + 1):
        d_i, witness = ghw(code, i)
        for s in range(i, n + 1):
            best, subset = ghw_module._max_excess_for_size(cols, s, i, GF2, None)
            if best >= i:
                break
        assert (d_i, witness.support) == (s, subset)
        if 2**code.k <= 64:
            assert d_i == ghw_oracle(code, i)


def _field_columns(data, fld: Field, n: int) -> list[tuple[int, ...]]:
    """n columns over `fld` with up to 4 rows: a few distinct columns, zero
    included, drawn with repetition, and possibly no rows at all."""
    m = data.draw(st.integers(0, 4), label="rows")
    column = st.tuples(*[st.integers(0, fld.q - 1)] * m)
    palette = data.draw(st.lists(column, min_size=1, max_size=n), label="palette")
    return data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n),
                     label="columns")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernels_return_the_first_subset_reaching_need(data):
    """Both kernels stop at the first lex subset whose excess reaches need,
    at every size and every threshold, over GF(2), GF(3) and GF(4)."""
    fld = Field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]), label="field"))
    n = data.draw(st.integers(1, 9), label="n")
    cols = _field_columns(data, fld, n)
    check = Matrix(fld, [list(row) for row in zip(*cols)], ncols=n)
    packed = [sum(bit << i for i, bit in enumerate(col)) for col in cols]
    for s in range(1, n + 1):
        for need in range(1, s + 2):
            expected = first_excess_oracle(check, s, need)
            assert ghw_module._max_excess_for_size(cols, s, need, fld, None) == expected
            if fld.q == 2:
                assert ghw_module._max_excess_gf2(packed, s, need, None) == expected


def _pack(col) -> int:
    return sum(bit << i for i, bit in enumerate(col))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernels_meet_the_contract_with_a_cap_and_a_target(data):
    """Both kernels return the first lex subset with need <= excess <=
    max_excess and the target in its span, at every size, need and cap, over
    GF(2), GF(3) and GF(4), for a target drawn from the column palette (zero
    included) or none.  On binary input the packed and generic kernels count
    the same nodes, one shared count over all calls included."""
    fld = Field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]), label="field"))
    n = data.draw(st.integers(1, 7), label="n")
    cols = _field_columns(data, fld, n)
    m = len(cols[0])
    target = data.draw(st.sampled_from([None, (0,) * m, *cols]), label="target")
    check = Matrix(fld, [list(row) for row in zip(*cols)], ncols=n)
    packed, packed_target = [_pack(col) for col in cols], _pack(target or ())
    shared_generic, shared_packed = ghw_module._Nodes(), ghw_module._Nodes()
    for s in range(1, n + 1):
        for need in range(s + 2):
            for max_excess in (None, *range(s + 1)):
                expected = first_excess_oracle(check, s, need, max_excess, target)
                generic = ghw_module._Nodes()
                for nodes in (generic, shared_generic):
                    assert ghw_module._max_excess_for_size(
                        cols, s, need, fld, None, max_excess=max_excess, target=target,
                        nodes=nodes) == expected
                if fld.q == 2:
                    count = ghw_module._Nodes()
                    for nodes in (count, shared_packed):
                        assert ghw_module._max_excess_gf2(
                            packed, s, need, None, max_excess=max_excess,
                            target=packed_target, nodes=nodes) == expected
                    assert count.visited == generic.visited
    if fld.q == 2:
        assert shared_packed.visited == shared_generic.visited


@pytest.mark.parametrize("kernel", ["generic", "packed"])
def test_kernels_raise_once_the_shared_count_passes_its_limit(kernel):
    """A call that would take the shared count past `limit` raises
    `_OverBudget`; one that stays within it answers as with no limit."""
    code = random_code(2, 12, 5, seed=2)
    cols, target = code.generator.columns()[1:], code.generator.columns()[0]

    def ask(nodes):
        if kernel == "generic":
            return ghw_module._max_excess_for_size(cols, 4, 0, GF2, None, max_excess=0,
                                                   target=target, nodes=nodes)
        return ghw_module._max_excess_gf2([_pack(c) for c in cols], 4, 0, None, max_excess=0,
                                          target=_pack(target), nodes=nodes)

    free = ghw_module._Nodes()
    answer = ask(free)
    assert free.visited > 1
    exact = ghw_module._Nodes(limit=free.visited)
    assert ask(exact) == answer and exact.visited == free.visited
    with pytest.raises(ghw_module._OverBudget):
        ask(ghw_module._Nodes(limit=free.visited - 1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hierarchy_matches_the_definition_on_both_sides(data):
    """weight_hierarchy equals ghw_oracle at every index, for k on both sides
    of n - k.  Unit vectors added to a random code put zero columns in its
    H, and so in the G of its dual (a code with zero_coordinates)."""
    q = data.draw(st.sampled_from([2, 3, 4]), label="q")
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(1, n), label="k")
    base = random_code(q, n, k, data.draw(st.integers(0, 2**32), label="seed"))
    units = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="units")
    rows = [list(row) for row in base.generator.rows]
    rows += [[int(j == u) for j in range(n)] for u in units]
    code = LinearCode(base.field, rows)
    codes = [code] if code.k == n else [code, code.dual()]
    for c in codes:
        if q**c.k > 64:
            continue
        values = weight_hierarchy(c).values
        assert values == tuple(ghw_oracle(c, i) for i in range(1, c.k + 1))


def _spy_sweeps(monkeypatch) -> list[Matrix]:
    """Record the check matrix of every `_sweep_hierarchy` call."""
    swept: list[Matrix] = []
    original = ghw_module._sweep_hierarchy

    def spy(check, *args, **kwargs):
        swept.append(check)
        return original(check, *args, **kwargs)

    monkeypatch.setattr(ghw_module, "_sweep_hierarchy", spy)
    return swept


@pytest.mark.parametrize("k", [2, 8])
def test_wei_duality_check_sweeps_both_sides(monkeypatch, k):
    code = random_code(2, 10, k, seed=3)
    swept = _spy_sweeps(monkeypatch)
    assert check_wei_duality(code).holds
    assert len(swept) == 2
    assert swept[0] is code.check and swept[1] is code.generator


@pytest.mark.parametrize("n, k, side", [(10, 4, "generator"), (10, 5, "check"),
                                        (10, 6, "check")])
def test_weight_hierarchy_sweeps_the_side_with_fewer_rows(monkeypatch, n, k, side):
    code = random_code(2, n, k, seed=3)
    expected = weight_hierarchy(code).values
    swept = _spy_sweeps(monkeypatch)
    assert weight_hierarchy(code).values == expected
    assert swept == [getattr(code, side)]


def test_low_rate_certification_sweeps_the_generator():
    # A sweep of its H takes about 25 s; the sweep of its G, milliseconds.
    report = certify_optimal(random_code(2, 24, 2, seed=1), time_limit=5.0)
    assert report.primal_hierarchy == (15, 24)


def test_low_rate_min_distance_sweeps_the_generator():
    # ghw sweeps G here, as weight_hierarchy does; a sweep of H takes seconds.
    assert random_code(2, 24, 2, seed=1).min_distance(time_limit=5.0) == 15


def test_wall_time_guard_on_the_generator_side():
    code = random_code(2, 24, 11, seed=1)  # its G sweep visits far more than 1 024 nodes
    start = time.monotonic()
    with pytest.raises(LimitError, match=r"wall-time guard exceeded during hierarchy "
                                         r"sweep \(generator side, size \d+ of 24\)"):
        weight_hierarchy(code, time_limit=0.05)
    assert time.monotonic() - start < 0.5


def test_wall_time_guard_names_the_check_side():
    code = random_code(2, 22, 11, seed=1)
    with pytest.raises(LimitError, match=r"\(check side, size \d+ of 22\)"):
        weight_hierarchy(code, time_limit=0.05)

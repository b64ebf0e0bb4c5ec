import math
import sys
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from ghwkit.algebra import Field, Matrix
from ghwkit.bounds import certify_optimal
from ghwkit.code import CodeValidationError, LinearCode
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

from oracles import contains, first_cover_oracle, first_excess_oracle, gk_dual, identity

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
        assert dual_hierarchy_values(full) == ()

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


@pytest.mark.parametrize("run", [weight_hierarchy, certify_optimal])
def test_nan_time_limit_is_refused(run):
    # No clock time is past a NaN deadline, so it would disable the guard.
    with pytest.raises(ValueError, match="nan"):
        run(random_code(2, 16, 8, seed=5), time_limit=float("nan"))


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
    """The GF(2) route, on packed columns, returns the answer of the DFS on
    element lists at every size and every threshold."""
    n = data.draw(st.integers(1, 14), label="n")
    cols = _binary_columns(data, n)
    check = Matrix(GF2, [list(row) for row in zip(*cols)], ncols=n)
    lists, packed = _searches(check)
    for s in range(1, n + 1):
        for need in range(1, s + 2):
            assert ghw_module._subset_dfs(packed, s, need) == ghw_module._subset_dfs(lists, s, need)


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
    lists = _searches(code.check)[0]
    for i in range(1, code.k + 1):
        d_i, witness = ghw(code, i)
        for s in range(i, n + 1):
            subset = ghw_module._subset_dfs(lists, s, i)
            if subset is not None:
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


# Both kinds of prime and extension field, and GF(257), the first field
# above the bound on q for multiplication and subtraction tables.
DFS_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1), (2, 4), (257, 1)]


def _searches(check: Matrix, limit: float = math.inf) -> list:
    """A new `_Search` over the columns of `check` for each representation
    `_subset_dfs` walks: element lists, and packed ints over GF(2)."""
    lists = ghw_module._Search(check, "test", None, limit)
    lists.packed, lists.cols = False, check.columns()
    if check.field.q != 2:
        return [lists]
    return [lists, ghw_module._Search(check, "test", None, limit)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernels_return_the_first_subset_reaching_need(data):
    """In sweep mode, the DFS stops at the first lex subset whose excess
    reaches need, at every size and every threshold, over each field of
    `DFS_FIELDS`, on both column representations.  On binary input both
    count the same nodes, per call and on one count shared by every call."""
    fld = Field(*data.draw(st.sampled_from(DFS_FIELDS), label="field"))
    n = data.draw(st.integers(1, 9), label="n")
    cols = _field_columns(data, fld, n)
    check = Matrix(fld, [list(row) for row in zip(*cols)], ncols=n)
    shared = _searches(check)
    for s in range(1, n + 1):
        for need in range(s + 2):
            expected = first_excess_oracle(check, s, need)[1]
            counts = []
            for fresh, total in zip(_searches(check), shared):
                for search in (fresh, total):
                    assert ghw_module._subset_dfs(search, s, need) == expected
                counts.append((fresh.visited, total.visited))
            assert len(set(counts)) == 1
    assert len({total.visited for total in shared}) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_covers_mode_settles_each_open_column_with_its_first_cover(data):
    """In covers mode, the DFS settles each open column j with the first lex
    independent S without j whose span holds column j, and leaves open those
    with none: at every size s and for every open set of columns with no
    cover smaller than s, over each field of `DFS_FIELDS`, on both column
    representations.  On binary input both count the same nodes, per call
    and on one count shared by every call."""
    fld = Field(*data.draw(st.sampled_from(DFS_FIELDS), label="field"))
    n = data.draw(st.integers(1, 7), label="n")
    cols = _field_columns(data, fld, n)
    check = Matrix(fld, [list(row) for row in zip(*cols)], ncols=n)
    first = {(s, j): first_cover_oracle(check, s, j) for s in range(n + 1) for j in range(n)}
    shared = _searches(check)
    for s in range(1, n + 1):
        eligible = [j for j in range(n) if all(first[t, j] is None for t in range(s))]
        for size in range(1, len(eligible) + 1):
            for open_set in combinations(eligible, size):
                expected = {j: first[s, j] for j in open_set if first[s, j] is not None}
                counts = []
                for fresh, total in zip(_searches(check), shared):
                    for search in (fresh, total):
                        uncovered = {j: search.cols[j] for j in open_set}
                        assert ghw_module._subset_dfs(search, s, 0, uncovered) == expected
                        assert set(uncovered) == set(open_set) - set(expected)
                    counts.append((fresh.visited, total.visited))
                assert len(set(counts)) == 1
    assert len({total.visited for total in shared}) == 1


@pytest.mark.parametrize("kernel", ["generic", "packed"])
def test_kernels_raise_once_the_shared_count_passes_its_limit(kernel):
    """Cover passes at sizes 1..k that would take their shared count past
    `limit` raise `_OverBudget`; passes that stay within it answer as with no
    limit."""
    code = random_code(2, 12, 5, seed=2)

    def ask(limit):
        search = _searches(code.generator, limit)[["generic", "packed"].index(kernel)]
        uncovered, settled = dict(enumerate(search.cols)), {}
        for s in range(1, code.k + 1):
            settled.update(ghw_module._subset_dfs(search, s, 0, uncovered))
        return search, settled

    free, answer = ask(math.inf)
    assert free.visited > 1 and len(answer) == code.n
    exact, exact_answer = ask(free.visited)
    assert exact_answer == answer and exact.visited == free.visited
    with pytest.raises(ghw_module._OverBudget):
        ask(free.visited - 1)


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


@pytest.mark.parametrize("k", [4, 10])
def test_wei_duality_check_runs_both_sweeps_under_one_deadline(monkeypatch, k):
    """One guard per call: both sweeps share its deadline, so `time_limit`
    bounds the whole check.  A full-space code (k = n) keeps its empty dual."""
    code = random_code(2, 10, k, seed=3)
    guards, deadlines = [], []
    guard, sweep = ghw_module._guard, ghw_module._sweep_hierarchy

    def guard_spy(*args):
        guards.append(args)
        return guard(*args)

    def sweep_spy(check, dims, **kwargs):
        deadlines.append(kwargs["deadline"])
        return sweep(check, dims, **kwargs)

    monkeypatch.setattr(ghw_module, "_guard", guard_spy)
    monkeypatch.setattr(ghw_module, "_sweep_hierarchy", sweep_spy)
    report = check_wei_duality(code, time_limit=60)
    assert report.holds and len(guards) == 1
    assert len(deadlines) == 2 and deadlines[0] == deadlines[1] is not None
    assert report.dual == (() if k == code.n else dual_hierarchy_values(code))


@pytest.mark.parametrize("n, k, side", [(10, 4, "generator"), (10, 5, "check"),
                                        (10, 6, "check")])
def test_weight_hierarchy_sweeps_the_side_with_fewer_rows(monkeypatch, n, k, side):
    code = random_code(2, n, k, seed=3)
    expected = weight_hierarchy(code).values
    swept = _spy_sweeps(monkeypatch)
    assert weight_hierarchy(code).values == expected
    assert swept == [getattr(code, side)]


def test_certification_sweeps_a_tie_on_the_generator(monkeypatch):
    """certify_optimal knows the dual distance from the locality search, so a
    tie (k = n - k) sweeps G from past it; weight_hierarchy still sweeps H."""
    code = random_code(2, 10, 5, seed=3)
    expected = weight_hierarchy(code).values
    swept = _spy_sweeps(monkeypatch)
    assert certify_optimal(code).primal_hierarchy == expected
    assert swept == [code.generator]


def _spy_generator_sizes(monkeypatch, code: LinearCode) -> list[int]:
    """Record the size of every sweep-mode `_subset_dfs` call on G's columns."""
    generator = ghw_module._Search(code.generator, "test", None).cols
    assert generator != ghw_module._Search(code.check, "test", None).cols
    sizes: list[int] = []
    original = ghw_module._subset_dfs

    def spy(search, s, need, uncovered=None):
        if uncovered is None and search.cols == generator:
            sizes.append(s)
        return original(search, s, need, uncovered)

    monkeypatch.setattr(ghw_module, "_subset_dfs", spy)
    return sizes


def _dual_of_a_code_holding_e1() -> LinearCode:
    base = random_code(3, 10, 5, seed=2)
    code = LinearCode(base.field, [*base.generator.rows, [1] + [0] * 9]).dual()
    assert code.zero_coordinates == (0,)  # its dual distance is 1
    return code


@pytest.mark.parametrize("make", [
    lambda: random_code(2, 16, 5, seed=1),
    lambda: random_code(9, 11, 5, seed=1),
    lambda: random_code(13, 10, 5, seed=1),
    _dual_of_a_code_holding_e1,
], ids=["gf2-16-5", "gf9-11-5", "gf13-10-5-tie", "gf3-zero-coordinate"])
def test_certification_sweeps_no_generator_size_up_to_the_dual_distance(monkeypatch, make):
    """The sizes up to the dual distance d are settled by the locality search:
    certify_optimal's first sweep-mode call on G is at size d + 1, where
    weight_hierarchy, which does not know d, starts at size 1."""
    code = make()
    d = dual_hierarchy_values(code)[0]
    sizes = _spy_generator_sizes(monkeypatch, code)
    report = certify_optimal(code, with_witnesses=True)
    assert report.dual_hierarchy[0] == d
    assert sizes and min(sizes) == d + 1
    if code.k < code.n - code.k:
        sizes.clear()
        weight_hierarchy(code)
        assert min(sizes) == 1


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


def test_wall_time_guard_names_the_witness_search():
    # Its G sweep takes about 1 ms; the witness search on H at d_1 = 15, far
    # more than 0.05 s.
    code = random_code(2, 24, 2, seed=1)
    with pytest.raises(LimitError, match=r"hierarchy sweep \(check side, size 15 of 24\)$"):
        weight_hierarchy(code, with_witnesses=True, time_limit=0.05)

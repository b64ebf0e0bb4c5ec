import pytest

from ghwkit.bounds import certify_optimal, optimal_primal_hierarchy
from ghwkit.code import CodeValidationError
from ghwkit.constructions import (
    SplitMix64,
    _subgroup,
    field_for_order,
    random_code,
    reed_solomon,
    tamo_barg,
)
from ghwkit.ghw import ghw_oracle, weight_hierarchy
from ghwkit.locality import is_lrc, locality


class TestFieldForOrder:
    def test_prime(self):
        assert repr(field_for_order(13)) == "GF(13)"

    def test_prime_power(self):
        f = field_for_order(9)
        assert (f.p, f.m) == (3, 2)

    def test_non_prime_power(self):
        with pytest.raises(ValueError, match="not a prime power"):
            field_for_order(12)


class TestTamoBarg:
    def test_reference_fixture_certifies(self, lrc_12_6_3):
        report = certify_optimal(lrc_12_6_3)
        assert report.is_optimal and report.r == 3 and report.d == 6
        assert report.primal_hierarchy == (6, 7, 8, 10, 11, 12)
        assert report.dual_hierarchy == (4, 8, 9, 10, 11, 12)

    def test_12_5_3_certifies_with_distance_seven(self, lrc_12_5_3):
        report = certify_optimal(lrc_12_5_3)
        assert report.is_optimal and report.d == 7 and report.r == 3

    def test_4_2_1_certifies(self):
        code = tamo_barg(5, 4, 2, 1)
        report = certify_optimal(code)
        assert report.is_optimal
        assert report.primal_hierarchy == (2, 4)
        assert report.primal_hierarchy == optimal_primal_hierarchy(4, 2, 1)

    def test_locality_from_cosets(self, lrc_12_6_3, lrc_12_5_3):
        assert is_lrc(lrc_12_6_3, 3)
        assert is_lrc(lrc_12_5_3, 3)

    def test_divisibility_validation(self):
        with pytest.raises(ValueError, match="divide n"):
            tamo_barg(9, 8, 4, 2)       # 3 does not divide 8
        with pytest.raises(ValueError, match="divide q-1"):
            tamo_barg(7, 4, 2, 1)       # 4 does not divide 6
        with pytest.raises(ValueError, match="exceeds"):
            tamo_barg(13, 12, 10, 3)    # k above n*r/(r+1)
        with pytest.raises(ValueError, match="not a prime power"):
            tamo_barg(12, 11, 5, 10)

    def test_evaluation_points_are_the_order_n_subgroup(self):
        assert _subgroup(field_for_order(13), 12) == list(range(1, 13))

    def test_larger_instance_with_extension_field(self):
        # GF(16): subgroup of order 15, groups of size 5
        code = tamo_barg(16, 15, 8, 4)
        assert (code.n, code.k) == (15, 8)
        assert is_lrc(code, 4)


class TestReedSolomon:
    def test_hierarchy_7_6_3(self):
        assert weight_hierarchy(reed_solomon(7, 6, 3)).values == (4, 5, 6)

    def test_full_space(self):
        code = reed_solomon(5, 4, 4)
        assert weight_hierarchy(code).values == (1, 2, 3, 4)

    def test_extension_field_8_7_3(self):
        assert weight_hierarchy(reed_solomon(8, 7, 3)).values == (5, 6, 7)

    def test_length_validation(self):
        with pytest.raises(ValueError, match="exceeds field size"):
            reed_solomon(7, 8, 3)

    @pytest.mark.parametrize("q,n,k", [(7, 6, 3), (5, 5, 2), (8, 7, 3), (9, 8, 4)])
    def test_mds_hierarchy_by_brute_force(self, q, n, k):
        code = reed_solomon(q, n, k)
        values = weight_hierarchy(code).values
        assert values == tuple(n - k + i for i in range(1, k + 1))
        # independent confirmation through the subcode-enumeration oracle
        if q**k <= 10**6:
            assert values[0] == ghw_oracle(code, 1)


class TestRandomCode:
    def test_reproducible(self):
        a = random_code(2, 8, 4, seed=1)
        b = random_code(2, 8, 4, seed=1)
        assert a == b and a.generator.rows == b.generator.rows

    def test_seeds_differ(self):
        assert random_code(2, 8, 4, seed=1) != random_code(2, 8, 4, seed=2)

    def test_invariants(self):
        code = random_code(2, 8, 4, seed=1)
        assert code.k == 4 and code.zero_coordinates == ()

    def test_oracle_agreement(self):
        code = random_code(3, 6, 3, seed=7)
        h = weight_hierarchy(code)
        for i in range(1, 4):
            assert h.values[i - 1] == ghw_oracle(code, i)

    def test_full_space_has_no_locality(self):
        code = random_code(2, 8, 8, seed=0)
        with pytest.raises(CodeValidationError, match="no redundancy"):
            locality(code)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_code(2, 4, 5, seed=0)

    def test_splitmix_reference_values(self):
        # frozen from the published splitmix64 reference sequence for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

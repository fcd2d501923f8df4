import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np
from references import complement as reference_complement
from references import rank, subsets, without
from synergy.combinatorics import (
    Subset,
    epsilon,
    format_rational,
    group_table,
    harmonic,
    system_rows,
)


def bitmask_subsets(universe, size):
    """Independent oracle: enumerate via bitmasks, then sort lexicographically."""
    found = []
    for mask in range(1 << universe):
        elems = tuple(i + 1 for i in range(universe) if mask >> i & 1)
        if len(elems) == size:
            found.append(elems)
    return sorted(found)


def test_harmonic_small_values():
    assert harmonic(0) == 0
    assert harmonic(1) == Fraction(1)
    assert harmonic(4) == Fraction(25, 12)


def test_harmonic_ten_matches_direct_sum():
    direct = sum((Fraction(1, i) for i in range(1, 11)), Fraction(0))
    assert direct == Fraction(7381, 2520)
    assert harmonic(10) == direct


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


@pytest.mark.parametrize("n", [2.5, 3.0, -0.5, "3", Fraction(3), None])
@pytest.mark.parametrize("function", [harmonic, epsilon])
def test_harmonic_and_epsilon_reject_non_integers(function, n):
    # 2.5 used to recurse until RecursionError; 3.0 must not be served
    # from a cached harmonic(3) or harmonic(np.int64(3)).
    function(3)
    function(np.int64(3))
    with pytest.raises(ValueError, match=f"^{function.__name__} is defined for integer n"):
        function(n)


def test_epsilon_rejects_a_non_integer_above_the_exact_limit():
    with pytest.raises(ValueError, match="integer n"):
        epsilon(10**5 + 0.5)


def test_harmonic_accepts_integer_likes():
    assert harmonic(np.int64(4)) == Fraction(25, 12)
    assert harmonic(True) == 1
    assert type(harmonic(np.int64(40)).numerator) is int
    assert epsilon(np.int64(36)) == epsilon(36)


@given(st.integers(min_value=1, max_value=10_000))
def test_harmonic_difference_is_reciprocal(n):
    assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)


def test_epsilon_at_one():
    assert epsilon(1) == 1.0


def test_epsilon_at_36_matches_exact_harmonic():
    exact = sum((Fraction(1, i) for i in range(1, 37)), Fraction(0))
    assert epsilon(36) == pytest.approx(float(exact) - math.log(36), abs=1e-12)


def test_epsilon_converges():
    assert epsilon(10**6) == pytest.approx(0.5772156649, abs=1e-3)


def test_epsilon_non_increasing_on_log_grid():
    grid = sorted({int(round(10 ** (e / 8))) for e in range(49)})
    values = [epsilon(n) for n in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_epsilon_rejects_zero():
    with pytest.raises(ValueError):
        epsilon(0)


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(4, 2)) == "2/1"


@pytest.mark.parametrize("value", [None, float("inf"), float("-inf"), float("nan"), "1/0x"])
def test_format_rational_rejects_what_is_not_a_finite_rational(value):
    # None raised TypeError and an infinity OverflowError
    with pytest.raises(ValueError, match=r"^value must be a finite rational, got "):
        format_rational(value)


def test_enumerate_pairs_of_three():
    assert group_table(3, 2)[0].tolist() == [[1, 2], [1, 3], [2, 3]]


def test_enumerate_empty_subset():
    assert group_table(5, 0)[0].tolist() == [[]]


def test_enumerate_five_choose_three():
    members = group_table(5, 3)[0].tolist()
    assert len(members) == 10
    assert members[0] == [1, 2, 3]
    assert members[-1] == [3, 4, 5]


def test_enumerate_matches_bitmask_oracle():
    for universe in range(7):
        for size in range(universe + 1):
            expected = bitmask_subsets(universe, size)
            assert [tuple(row) for row in group_table(universe, size)[0].tolist()] == expected
            assert subsets(universe, size) == expected


def test_enumerate_count_matches_binomial():
    for universe in range(17):
        for size in range(universe + 1):
            assert len(group_table(universe, size)[0]) == math.comb(universe, size)


def test_enumerate_rejects_bad_size():
    with pytest.raises(ValueError):
        group_table(3, 4)
    with pytest.raises(ValueError):
        group_table(3, -1)


def test_rank_unrank_roundtrip_exhaustive():
    # Row r of the table is the subset of rank r: rank maps the row back
    # to r, and unranking r is reading row r.
    for universe in range(9):
        for size in range(universe + 1):
            for index, sub in enumerate(subsets(universe, size)):
                assert rank(sub, universe) == index
                assert tuple(group_table(universe, size)[0][index].tolist()) == sub


def test_group_table_matches_subset_exhaustive():
    for universe in range(11):
        for size in range(universe + 1):
            members, complement, without_rank = group_table(universe, size)
            count = math.comb(universe, size)
            assert members.shape == (count, size)
            assert complement.shape == (count, universe - size)
            assert without_rank.shape == (count, size)
            expected = subsets(universe, size)
            for index, row in enumerate(members.tolist()):
                sub = expected[index]
                assert tuple(row) == sub
                assert rank(tuple(row), universe) == index
                assert tuple(complement[index].tolist()) == reference_complement(sub, universe)
                for position, member in enumerate(sub):
                    assert without_rank[index, position] == rank(without(sub, member), universe)
    assert not group_table(5, 2)[0].flags.writeable
    with pytest.raises(ValueError):
        group_table(3, 4)


def test_system_rows_list_own_row_then_non_members():
    for universe in range(1, 9):
        for size in range(1, universe + 1):
            rows = system_rows(universe, size)
            assert rows.shape == (math.comb(universe, size), size, universe - size + 1)
            assert rows.dtype == np.int64 and not rows.flags.writeable
            for index, sub in enumerate(subsets(universe, size)):
                others = [e - 1 for e in reference_complement(sub, universe)]
                assert rows[index].tolist() == [[member - 1] + others for member in sub]
    assert system_rows(4, 2) is system_rows(4, 2)


@given(st.data())
def test_rank_unrank_roundtrip_random(data):
    universe = data.draw(st.integers(min_value=1, max_value=16))
    size = data.draw(st.integers(min_value=0, max_value=universe))
    index = data.draw(st.integers(min_value=0, max_value=math.comb(universe, size) - 1))
    sub = tuple(group_table(universe, size)[0][index].tolist())
    assert rank(sub, universe) == index


def test_unrank_rejects_out_of_range():
    # C(4, 2) = 6 subsets: the table has no row of rank 6.
    members = group_table(4, 2)[0]
    assert len(members) == 6
    with pytest.raises(IndexError):
        members[6]


def test_subset_validation():
    with pytest.raises(ValueError):
        Subset((2, 1), 3)
    with pytest.raises(ValueError):
        Subset((1, 1), 3)
    with pytest.raises(ValueError):
        Subset((0,), 3)
    with pytest.raises(ValueError):
        Subset((4,), 3)


@pytest.mark.parametrize("elements", [(1.5, 2), ("1", "2"), (1, 2.0), (None,)])
def test_subset_rejects_non_integer_elements(elements):
    # int() once truncated these to (1, 2) without a word.
    with pytest.raises(ValueError, match="^subset elements must be integers, got "):
        Subset(elements, 3)


def test_subset_helpers():
    # The subset {1, 3} of {1, ..., 4} read off its row of the group tables.
    members, complement, without_rank = group_table(4, 2)
    row = members.tolist().index([1, 3])
    assert members.shape[1] == 2
    assert 3 in members[row] and 2 not in members[row]
    assert members[row].tolist() == [1, 3]
    assert group_table(4, 1)[0][without_rank[row, 1]].tolist() == [1]
    assert complement[row].tolist() == [2, 4]
    assert members[row].tolist().index(3) == 1


@pytest.mark.parametrize("universe", range(11, 17))
def test_group_table_matches_brute_force_at_every_size(universe):
    # The tables are unranked, not enumerated: hold every row of every
    # size against the enumeration, each removal ranked by its index there.
    for size in range(universe + 1):
        members, complement, without_rank = group_table(universe, size)
        expected = subsets(universe, size)
        assert members.tolist() == [list(sub) for sub in expected]
        assert complement.tolist() == [list(reference_complement(sub, universe)) for sub in expected]
        if size:
            index = {sub: r for r, sub in enumerate(subsets(universe, size - 1))}
            removed = [[index[without(sub, member)] for member in sub] for sub in expected]
            assert without_rank.tolist() == removed


@given(st.data())
def test_group_table_rows_match_the_rank_reference(data):
    universe = data.draw(st.integers(min_value=0, max_value=18), label="universe")
    size = data.draw(st.integers(min_value=0, max_value=universe), label="size")
    members, complement, without_rank = group_table(universe, size)
    assert members.shape == (math.comb(universe, size), size)
    row = data.draw(st.integers(min_value=0, max_value=len(members) - 1), label="row")
    sub = tuple(members[row].tolist())
    assert rank(sub, universe) == row and list(sub) == sorted(set(sub))
    assert tuple(complement[row].tolist()) == reference_complement(sub, universe)
    assert without_rank[row].tolist() == [rank(without(sub, member), universe) for member in sub]


@pytest.mark.parametrize("universe, size", [(70, 2), (66, 3), (70, 68)])
def test_group_table_builds_where_large_binomials_would_overflow(universe, size):
    # The table reads binomial columns up to the size only: (70, 2) and
    # (66, 3) stay far below 2**63, and (70, 68) reaches C(70, 35), past
    # it, which the table caps.
    members, complement, without_rank = group_table(universe, size)
    count = math.comb(universe, size)
    assert members.shape == (count, size) and complement.shape == (count, universe - size)
    for row in (0, 1, count // 2, count - 1):
        sub = tuple(members[row].tolist())
        assert rank(sub, universe) == row
        assert tuple(complement[row].tolist()) == reference_complement(sub, universe)
        assert without_rank[row].tolist() == [rank(without(sub, member), universe) for member in sub]

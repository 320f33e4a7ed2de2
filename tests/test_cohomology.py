"""Bipartitions, Gaussian binomials, and the cohomology polynomials."""

import math
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endoscopylab import cohomology
from endoscopylab.cohomology import (
    Bipartition,
    PoincarePoly,
    _box_partition_counts,
    _packet_count,
    _packet_windows,
    bipartition_from_json,
    bipartition_to_json,
    brute_poincare,
    degree_R,
    enumerate_bipartitions,
    gaussian_binomial,
    lowest_degree,
    poincare_poly,
)
from endoscopylab.guards import GuardError
from endoscopylab.selftest import _compositions, check_poincare_oracle, packet_members


def bp(*pairs):
    return Bipartition(tuple(pairs))


def test_bipartition_sums():
    B = bp((2, 1), (0, 3))
    assert (B.a, B.b, B.N) == (2, 4, 6)
    assert str(B) == "(2,1)(0,3)"


def test_bipartition_validation():
    with pytest.raises(ValueError):
        bp()
    with pytest.raises(ValueError):
        bp((0, 0))
    with pytest.raises(ValueError):
        bp((1, -1))


def test_reduction():
    B = bp((2, 0), (1, 1), (0, 2))
    assert not B.is_reduced


def test_enumerate_with_partition_is_ordered():
    members = enumerate_bipartitions(2, 1, (2, 1))
    assert members == [bp((2, 0), (0, 1)), bp((1, 1), (1, 0))]
    firsts = [tuple(x for x, _ in B.pairs) for B in members]
    assert firsts == sorted(firsts, reverse=True)


def test_enumerate_rejects_size_mismatch():
    with pytest.raises(ValueError):
        enumerate_bipartitions(2, 1, (2, 2))


def test_discrete_packet_sizes():
    for N in range(1, 8):
        for a in range(N + 1):
            assert len(enumerate_bipartitions(a, N - a, (1,) * N)) == math.comb(N, a)


def test_degree_R_discrete_series():
    B = bp((1, 0), (0, 1), (1, 0))
    assert degree_R(B) == B.a * B.b


@pytest.mark.parametrize(
    "a,b,k,expected", [(1, 4, 2, 1), (3, 4, 2, 8), (0, 5, 1, 0), (2, 3, 2, 2)]
)
def test_lowest_degree_values(a, b, k, expected):
    assert lowest_degree(a, b, k) == expected


def test_lowest_degree_validation():
    with pytest.raises(ValueError):
        lowest_degree(3, 2, 1)  # a > b
    with pytest.raises(ValueError):
        lowest_degree(1, 4, 0)
    with pytest.raises(ValueError):
        lowest_degree(1, 4, 3)


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1) == PoincarePoly((1, 1))
    assert gaussian_binomial(4, 2) == PoincarePoly((1, 1, 2, 1, 1))
    assert gaussian_binomial(3, 0) == PoincarePoly((1,))


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_gaussian_binomial_properties(nk):
    n, k = nk
    poly = gaussian_binomial(n, k)
    assert poly == gaussian_binomial(n, n - k)
    assert poly(1) == math.comb(n, k)
    assert poly.is_palindromic()


def test_poly_arithmetic():
    p = PoincarePoly((1, 1))
    assert p.shift(2) == PoincarePoly((0, 0, 1, 1))
    assert p(3) == 4
    assert str(PoincarePoly((1, 0, 2))) == "1 + 2*t^2"


def test_poly_strips_trailing_zeros():
    assert PoincarePoly((1, 1, 0, 0)) == PoincarePoly((1, 1))
    assert PoincarePoly((0, 0)).is_zero


def test_poincare_poly_values():
    assert poincare_poly(bp((1, 1))) == PoincarePoly((1, 0, 1))
    assert poincare_poly(bp((1, 1), (1, 0))) == PoincarePoly((0, 1, 0, 1))
    assert poincare_poly(bp((2, 2))) == PoincarePoly((1, 0, 1, 0, 2, 0, 1, 0, 1))


def test_discrete_series_polynomial_is_monomial():
    B = bp((1, 0), (1, 0), (0, 1))
    assert poincare_poly(B) == PoincarePoly((0,) * (B.a * B.b) + (1,))


def test_brute_matches_recurrence():
    for B in [bp((2, 1)), bp((1, 1), (1, 1)), bp((3, 1), (0, 2))]:
        assert brute_poincare(B) == poincare_poly(B)


def test_brute_guard(monkeypatch):
    with pytest.raises(GuardError, match="118264581564861424 cells"):
        brute_poincare(bp((30, 30)))
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "2")  # [3 choose 1] has 3 cells
    with pytest.raises(GuardError, match="3 cells exceeds the cap 2"):
        brute_poincare(bp((2, 1)))
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "3")
    assert brute_poincare(bp((2, 1))) == poincare_poly(bp((2, 1)))


small_bipartitions = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: sum(p) > 0),
    min_size=1,
    max_size=3,
).map(lambda pairs: Bipartition(tuple(pairs)))


@given(small_bipartitions)
@settings(max_examples=60)
def test_poincare_is_palindromic_with_known_total(B):
    poly = poincare_poly(B)
    assert poly.is_palindromic()
    assert poly(1) == math.prod(math.comb(x + y, x) for x, y in B.pairs)
    assert poly.low_degree == degree_R(B)


@given(small_bipartitions)
def test_bipartition_json_roundtrip(B):
    assert bipartition_from_json(bipartition_to_json(B)) == B


def test_bipartition_json_accepts_bare_list():
    assert bipartition_from_json([[2, 1], [0, 1]]) == bp((2, 1), (0, 1))
    with pytest.raises(ValueError):
        bipartition_from_json({"rows": []})


def test_kernel_matches_brute_on_every_packet_member():
    # every member with N <= 8, plus an all-one-sided member (q = [1]) and a
    # long pair; the result must also equal the fully checked constructor,
    # and a second pass over the filled memo must return the same objects
    cases = 0
    members = list(
        chain(packet_members(8), [bp((1, 0), (0, 2), (3, 0)), bp((1000, 1))])
    )
    cohomology._poincare_of.cache_clear()
    cold = [poincare_poly(B) for B in members]
    for B, poly in zip(members, cold):
        assert poincare_poly(B) is poly, B
        coeffs = poly.coeffs
        assert type(coeffs) is tuple and {int}.issuperset(map(type, coeffs)), B
        assert coeffs and coeffs[-1], B
        for other in (PoincarePoly(coeffs), brute_poincare(B)):
            assert poly == other and hash(poly) == hash(other), B
        cases += 1
    assert cases == 15759 + 2


@pytest.mark.parametrize(
    "factor", [(1, 1.0, 1), (1, 1, 0)], ids=["float coefficient", "zero top entry"]
)
def test_planted_gaussian_fault_is_refused_by_the_kernel(monkeypatch, factor):
    # an earlier test may have memoized this bipartition's polynomial
    cohomology._poincare_of.cache_clear()
    monkeypatch.setattr(
        cohomology, "gaussian_binomial", lambda n, k: SimpleNamespace(coeffs=factor)
    )
    with pytest.raises(ValueError):
        poincare_poly(bp((1, 1), (2, 0)))


@pytest.mark.parametrize(
    "parts,a,size,keys", [((1,) * 16, 7, 11440, 1), ((5, 4, 4, 3, 2, 2), 10, 674, 227)]
)
def test_packet_members_share_memoized_polynomials(parts, a, size, keys):
    # the memo key is (R, sorted mixed pairs): 1^16 has no mixed pair and
    # one R, so all 11440 members share a single polynomial
    members = enumerate_bipartitions(a, sum(parts) - a, parts)
    assert len(members) == size
    cohomology._poincare_of.cache_clear()
    polys = {id(poincare_poly(B)) for B in members}
    info = cohomology._poincare_of.cache_info()
    assert (info.currsize, info.misses, len(polys)) == (keys, keys, keys)


def test_mixed_pair_order_does_not_split_the_memo():
    poly = poincare_poly(bp((2, 1), (1, 2)))
    assert poincare_poly(bp((1, 2), (2, 1))) is poly
    assert poincare_poly(bp((1, 2), (0, 1), (2, 1))) is not poly  # R differs
    assert poly == brute_poincare(bp((1, 2), (2, 1)))


@pytest.mark.parametrize(
    "parts,a,size", [((1,) * 16, 7, 11440), ((5, 4, 4, 3, 2, 2), 10, 674)]
)
def test_kernel_invariants_on_deck_packet(parts, a, size):
    members = enumerate_bipartitions(a, sum(parts) - a, parts)
    assert len(members) == size
    for B in members:
        poly = poincare_poly(B)
        assert poly(1) == math.prod(math.comb(x + y, x) for x, y in B.pairs)
        assert poly.low_degree == degree_R(B)
        assert poly.is_palindromic()


def test_packet_counts_match_enumeration():
    for N in range(1, 9):
        for parts in _compositions(N):
            for a in range(N + 1):
                members = enumerate_bipartitions(a, N - a, parts)
                assert len(members) == _packet_count(parts, _packet_windows(parts, a))
                firsts = [tuple(x for x, _ in B.pairs) for B in members]
                assert all(u > v for u, v in zip(firsts, firsts[1:])), (parts, a)


def test_packet_guard():
    with pytest.raises(GuardError, match="155117520 members"):
        enumerate_bipartitions(15, 15, (1,) * 30)


def test_packet_guard_reads_env(monkeypatch):
    # (1,)^5 on (2, 3): partial-sum windows of width <= 3 and 10 members
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "2")
    with pytest.raises(GuardError, match="hold >= 3 members, above the cap 2"):
        enumerate_bipartitions(2, 3, (1,) * 5)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "9")
    with pytest.raises(GuardError, match="hold 10 members, above the cap 9"):
        enumerate_bipartitions(2, 3, (1,) * 5)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "10")
    assert len(enumerate_bipartitions(2, 3, (1,) * 5)) == 10


@pytest.mark.parametrize(
    "pairs", [((1.7, 0),), ((True, 1),), (("1", 0),), ((1, 0), (0, 2.0))]
)
def test_bipartition_rejects_non_int_entries(pairs):
    with pytest.raises(ValueError, match="integers"):
        Bipartition(pairs)
    with pytest.raises(ValueError):
        bipartition_from_json([list(p) for p in pairs])


@pytest.mark.parametrize("coeffs", [(1.7, True), (True,), (1, "1"), (1, 2.0)])
def test_poly_rejects_non_int_coefficients(coeffs):
    with pytest.raises(ValueError, match="integers"):
        PoincarePoly(coeffs)


def test_partition_rejects_bool_parts():
    with pytest.raises(ValueError, match="positive integers"):
        enumerate_bipartitions(1, 2, (True, 2))


def test_box_counts_walk_the_short_side():
    assert _box_partition_counts(3, 5) == _box_partition_counts(5, 3)
    assert _box_partition_counts(0, 4) == [1]
    # one row of 1000 cells: one partition of each area, no deep recursion
    assert _box_partition_counts(1000, 1) == [1] * 1001


def test_long_pair_needs_no_deep_recursion():
    B = bp((1000, 1))
    poly = poincare_poly(B)
    assert poly == brute_poincare(B)
    assert poly.coeffs[::2] == (1,) * 1001


def test_gaussian_binomial_product_formula_matches_pascal():
    for n in range(12):
        for k in range(1, n):
            # [n, k] = [n-1, k-1] + q^k [n-1, k], summed as int lists
            pascal = [0] * (k * (n - k) + 1)
            for i, c in enumerate(gaussian_binomial(n - 1, k - 1).coeffs):
                pascal[i] += c
            for i, c in enumerate(gaussian_binomial(n - 1, k).coeffs, k):
                pascal[i] += c
            assert gaussian_binomial(n, k).coeffs == tuple(pascal)


def test_gaussian_binomial_guard(monkeypatch):
    with pytest.raises(GuardError, match="64000000 coefficient updates"):
        gaussian_binomial(800, 400)
    with pytest.raises(GuardError):
        poincare_poly(bp((400, 400)))
    # 3 * 3 * 4 = 36 updates; a miss is counted against the env cap
    gaussian_binomial.cache_clear()
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "35")
    with pytest.raises(GuardError):
        gaussian_binomial(7, 3)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "36")
    assert gaussian_binomial(7, 3)(1) == math.comb(7, 3)


def test_brute_calls_neither_gaussian_nor_kernel(monkeypatch):
    members = list(packet_members(4))
    expected = [poincare_poly(B) for B in members]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached into the kernel")

    monkeypatch.setattr(cohomology, "gaussian_binomial", refuse)
    monkeypatch.setattr(cohomology, "poincare_poly", refuse)
    monkeypatch.setattr(cohomology, "_poincare_of", refuse)
    assert [brute_poincare(B) for B in members] == expected


def test_planted_cell_count_fault_fails_the_oracle(monkeypatch):
    honest = cohomology._box_partition_counts

    def off_by_one(rows, cols):
        counts = honest(rows, cols)
        if len(counts) > 2:
            counts[1] += 1
        return counts

    monkeypatch.setattr(cohomology, "_box_partition_counts", off_by_one)
    B = bp((2, 1), (1, 0))
    assert brute_poincare(B) != poincare_poly(B)
    result = check_poincare_oracle()
    assert not result.passed
    assert result.detail.startswith("mismatch at")


# the eight (parts, a) packets of the benchmark's library deck
DECK_PACKETS = (
    ((1,) * 16, 7),
    ((1,) * 13, 4),
    ((1,) * 10, 3),
    ((1,) * 7, 2),
    ((3, 2, 2, 1, 1, 1, 1, 1), 6),
    ((4, 3, 3, 2, 2, 1, 1), 8),
    ((5, 4, 4, 3, 2, 2), 10),
    ((3, 3, 2, 2, 2), 5),
)


def assert_same_as_checked(members):
    for B in members:
        checked = Bipartition(B.pairs)
        assert B.pairs == checked.pairs and B == checked, B
        assert hash(B) == hash(checked) and repr(B) == repr(checked), B
        assert B._key == checked._key, B


def test_walk_members_equal_the_checked_constructor():
    # the walk skips the constructor's checks and keeps the memo key as it
    # goes; every member must still be the one the constructor builds
    members = list(packet_members(8))
    assert len(members) == 15759
    assert_same_as_checked(members)


@pytest.mark.parametrize("parts,a", DECK_PACKETS)
def test_deck_packet_members_equal_the_checked_constructor(parts, a):
    b = sum(parts) - a
    for x, y in ((a, b), (b, a)):
        assert_same_as_checked(enumerate_bipartitions(x, y, parts))


def test_constructor_computes_the_memo_key_without_printing_it():
    B = bp((2, 1), (0, 3), (1, 2), (1, 0))
    assert B._key == (degree_R(B), ((1, 2), (2, 1)))
    assert repr(B) == "Bipartition(pairs=((2, 1), (0, 3), (1, 2), (1, 0)))"
    assert bp((0, 1), (1, 0))._key == (1, ())


def test_planted_wrong_key_fails_only_the_kernel(monkeypatch):
    # a member built with a wrong key: the kernel reads the key, so it is off,
    # while degree_R and the oracle read the pairs and stay right
    pairs = ((2, 1), (1, 1), (0, 2))
    right = bp(*pairs)
    R, mixed = right._key
    wrong = Bipartition._walked(pairs, (R, ((1, 1),)))
    assert wrong == right
    assert poincare_poly(wrong) != brute_poincare(wrong)
    assert poincare_poly(right) == brute_poincare(wrong) == brute_poincare(right)
    assert degree_R(wrong) == degree_R(right) == R
    # the same fault in the walk fails the selftest's member check
    honest = Bipartition._walked.__func__

    def off_by_one(cls, pairs, key):
        return honest(cls, pairs, (key[0] + 1, key[1]))

    monkeypatch.setattr(Bipartition, "_walked", classmethod(off_by_one))
    result = check_poincare_oracle()
    assert not result.passed
    assert result.detail.startswith("walk member")

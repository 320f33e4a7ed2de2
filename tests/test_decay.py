"""Decay ratios, integrability bounds, and the exponent comparison."""

from fractions import Fraction

import pytest

from endoscopylab.cohomology import Bipartition
from endoscopylab.decay import (
    p_bound_of_bipartition,
    ratio_profile,
    sx_check,
)


def test_ratio_profile_example():
    profile = ratio_profile(5, 4, 2, 2)
    assert profile.ratios == (Fraction(3, 4), Fraction(2, 3))
    assert profile.p_bound == 8
    assert profile.p_bound is not None


def test_ratio_profile_tempered_direction():
    profile = ratio_profile(6, 1, 3, 0)
    assert profile.ratios == (0, 0, 0)
    assert profile.p_bound == 2


def test_ratio_profile_half():
    assert ratio_profile(7, 4, 3, 2).p_bound == 4
    assert ratio_profile(7, 4, 3, 2).ratios[0] == Fraction(1, 2)


def test_ratio_profile_unbounded():
    assert ratio_profile(4, 4, 2, 2).p_bound is None


def test_ratios_nonincreasing_and_max():
    for N in range(2, 13):
        for N_k in range(1, N + 1):
            c_k = N_k // 2
            profile = ratio_profile(N, N_k, max(c_k, 1), c_k)
            rs = profile.ratios
            assert all(x >= y for x, y in zip(rs, rs[1:]))
            if c_k >= 1:
                assert rs[0] == Fraction(N_k - 1, N - 1)
            if profile.p_bound is not None:
                assert profile.p_bound >= 2
                assert (profile.p_bound == 2) == (N_k == 1)


def test_ratio_profile_validation():
    with pytest.raises(ValueError):
        ratio_profile(5, 6, 2, 2)
    with pytest.raises(ValueError):
        ratio_profile(5, 4, 1, 2)  # c < c_k
    with pytest.raises(ValueError):
        ratio_profile(5, 3, 2, 2)  # c_k above half the pair


def test_p_bound_of_bipartition():
    assert p_bound_of_bipartition(Bipartition(((2, 2), (1, 0)))) == 8
    assert p_bound_of_bipartition(Bipartition(((2, 3),))) is None


def test_p_bound_hypothesis_gate():
    with pytest.raises(ValueError):
        p_bound_of_bipartition(Bipartition(((1, 0), (0, 1))))
    with pytest.raises(ValueError):
        p_bound_of_bipartition(Bipartition(((1, 1), (1, 1))))


def test_p_bound_gate_message_names_the_pair_count():
    pairs = ((1, 0),) * 300000
    with pytest.raises(ValueError, match="found 0 among 300000 pairs") as info:
        p_bound_of_bipartition(Bipartition(pairs))
    assert len(str(info.value).encode()) < 200


@pytest.mark.parametrize(
    "N,k,expected",
    [(5, 2, (5, 6, True)), (4, 2, (0, 0, True)), (9, 1, (63, 70, True))],
)
def test_sx_values(N, k, expected):
    assert tuple(sx_check(N, k)) == expected


def test_sx_equality_only_at_half():
    for N in range(2, 20):
        for k in range(1, N // 2 + 1):
            result = sx_check(N, k)
            assert result.holds
            assert (result.theorem_exponent == result.sx_exponent) == (2 * k == N)


def test_sx_validation():
    with pytest.raises(ValueError):
        sx_check(5, 0)
    with pytest.raises(ValueError):
        sx_check(5, 3)

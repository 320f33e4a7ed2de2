"""Stable coefficients, the dominance inequality, and the exponent derivation."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from endoscopylab import bounds
from endoscopylab.bounds import (
    PacketModel,
    coefficient_sum,
    derive_exponent,
    dominance_check,
    i_disc_model,
    random_packet,
    savin_exponent,
    stable_coefficient,
)
from endoscopylab.endoscopy import bijection, dominant_group
from endoscopylab.guards import GuardError
from endoscopylab.hyperendoscopy import GroupSymbol
from endoscopylab.params import (
    ArthurShape,
    BlockSignVector,
    GroupChar,
    Summand,
    TwoGroup,
    centralizer_group,
    from_cohomological,
    s_psi,
)
from endoscopylab.selftest import brute_coefficients, brute_i_disc


def trivial_packet(shape):
    group = centralizer_group(shape)
    chars = group.characters()
    members = tuple((chi, Fraction(1)) for chi in chars)
    trivial = next(chi for chi in chars if chi.mask == 0)
    return PacketModel(group.rank, members, trivial)


def test_stable_coefficient_values():
    single = from_cohomological((3,))
    assert stable_coefficient(single, s_psi(single)) == 1
    pair = from_cohomological((2, 1))
    assert stable_coefficient(pair, s_psi(pair)) == Fraction(1, 2)
    triple = from_cohomological((1, 1, 1))
    assert stable_coefficient(triple, s_psi(triple)) == Fraction(1, 4)


def test_stable_coefficients_bounded():
    for parts in [(2, 1), (1, 1, 1), (4, 2, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1)]:
        shape = from_cohomological(parts)
        group = centralizer_group(shape)
        total = Fraction(0)
        for e in group.elements:
            value = stable_coefficient(shape, group.to_sign_vector(e))
            assert 0 < value <= 1
            total += value
        assert total <= 2 ** (shape.r - 1)


def test_packet_model_validation():
    shape = from_cohomological((2, 1))
    group = centralizer_group(shape)
    chi = group.characters()[0]
    with pytest.raises(ValueError):
        PacketModel(group.rank, ((chi, Fraction(-1)),), chi)
    wrong_rank = centralizer_group(from_cohomological((1, 1, 1))).characters()[0]
    with pytest.raises(ValueError):
        PacketModel(group.rank, ((wrong_rank, Fraction(1)),), chi)


def test_i_disc_trivial_packet():
    shape = from_cohomological((2, 1))
    assert i_disc_model(shape, trivial_packet(shape)) == 1


def test_dominance_trivial_packet():
    shape = from_cohomological((2, 1))
    result = dominance_check(shape, trivial_packet(shape))
    assert result.holds
    assert result.i_value == 1
    assert result.c_psi == 2
    assert result.c_psi * result.s_dominant >= result.i_value


def test_dominance_single_block():
    shape = from_cohomological((4,))
    result = dominance_check(shape, trivial_packet(shape))
    assert result.holds
    assert result.c_psi == 1


def test_savin_exponent():
    assert savin_exponent(GroupSymbol((1,))) == 0
    assert savin_exponent(GroupSymbol((3,))) == 8
    assert savin_exponent(GroupSymbol((2, 1))) == 4


def test_derive_exponent_n5():
    d = derive_exponent(5, 1, 2)
    assert d.final == 5
    assert d.max_matches_dominant
    assert [(str(sym), e) for sym, e in d.chain_exponents] == [("U(4)xU(1)", 5)]
    assert d.steps[0].name == "packet"
    assert any(step.name == "exponent" for step in d.steps)


def test_derive_exponent_n7_chain_table():
    d = derive_exponent(7, 3, 2)
    assert d.final == 21
    table = {str(sym): e for sym, e in d.chain_exponents}
    assert table == {"U(4)xU(3)": 21, "U(4)xU(2)xU(1)": 19, "U(4)xU(1)^3": 18}
    # table sorted with the dominant term first
    assert d.chain_exponents[0][1] == 21


def test_derive_exponent_half_rank():
    d = derive_exponent(6, 2, 3)
    assert d.final == 0
    assert d.max_matches_dominant
    assert [str(sym) for sym, _ in d.chain_exponents] == ["U(6)"]


def test_derive_exponent_odd_top_k():
    # N odd with the largest k gives exponent N
    for N in (3, 5, 7, 9):
        assert derive_exponent(N, 1, (N - 1) // 2).final == N


def test_derive_validation():
    with pytest.raises(ValueError):
        derive_exponent(5, 1, 0)
    with pytest.raises(ValueError):
        derive_exponent(5, 1, 3)
    with pytest.raises(ValueError):
        derive_exponent(5, 3, 2)  # a beyond half rank


def test_dominance_respects_epsilon_twist():
    shape = from_cohomological((2, 1))
    group = centralizer_group(shape)
    chars = group.characters()
    sign_char = next(chi for chi in chars if chi.mask != 0)
    members = tuple((chi, Fraction(1, 3)) for chi in chars)
    packet = PacketModel(group.rank, members, sign_char)
    result = dominance_check(shape, packet)
    assert result.holds


def fast_path_shapes():
    """Cohomological shapes with parts <= 4 and r <= 6, in both part orders,
    plus a labelled shape with blocks of rank n > 1."""
    for r in range(1, 7):
        for parts in combinations_with_replacement(range(4, 0, -1), r):
            yield from_cohomological(parts)
            if parts != parts[::-1]:
                yield from_cohomological(parts[::-1])
    yield ArthurShape(
        (
            Summand("a", 2, 3),
            Summand("b", 1, 2),
            Summand("c", 3, 1),
            Summand("d", 1, 5),
        )
    )


def test_fast_paths_match_brute_oracles():
    rng = random.Random(7)
    for shape in fast_path_shapes():
        coefficients = brute_coefficients(shape)
        for vector, coeff in coefficients.items():
            assert stable_coefficient(shape, vector) == coeff, (shape, vector)
        assert dominant_group(shape) == bijection(shape)[s_psi(shape)]
        assert coefficient_sum(shape) == sum(coefficients.values())
        group = centralizer_group(shape)
        chars = group.characters()
        members = tuple(
            (chi, Fraction(rng.randint(0, 9), rng.randint(1, 9)))
            for chi in rng.sample(chars, rng.randint(1, len(chars)))
        )
        seeded = PacketModel(group.rank, members, rng.choice(chars))
        for packet in (trivial_packet(shape), seeded):
            expected = brute_i_disc(shape, packet, coefficients)
            assert i_disc_model(shape, packet) == expected


def test_stable_coefficient_rejects_bad_input():
    shape = from_cohomological((2, 1, 1))
    with pytest.raises(ValueError):
        stable_coefficient(shape, BlockSignVector((1, -1)))
    with pytest.raises(ValueError):
        stable_coefficient(shape, BlockSignVector((1, -1, 1, 1)))
    with pytest.raises(ValueError):  # a repeated block is refused with the shape
        ArthurShape((Summand("c", 1, 2), Summand("c", 1, 2)))


def test_derive_exponent_n40():
    d = derive_exponent(40, 1, 1)
    assert d.final == 1520
    assert len(d.chain_exponents) == 26015
    assert d.max_matches_dominant


def test_derive_guard_refuses_before_enumerating(monkeypatch):
    with pytest.raises(GuardError):
        derive_exponent(3000, 1, 1)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "41")
    with pytest.raises(GuardError, match=r"p\(10\) >= 42 rows"):
        derive_exponent(12, 1, 1)  # p(10) = 42 rows
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "42")
    assert len(derive_exponent(12, 1, 1).chain_exponents) == 42


def test_dominance_full_packet_ten_blocks():
    shape = from_cohomological((2,) + (1,) * 9)
    result = dominance_check(shape, trivial_packet(shape))
    assert result.holds
    assert result.i_value == 1  # only the trivial character survives the group sum
    c_dom = stable_coefficient(shape, s_psi(shape))
    assert result.c_psi == coefficient_sum(shape) / c_dom == 512


def test_dominance_check_guard_counts_the_table_first(monkeypatch):
    # 8 members + min(8, 2*2*2 count tuples) * 7 entries visited per subset
    # sum: blocks of rank 3, 2 and 1 meet 1, min(2, 3 + 1) and min(4, 5 + 1)
    shape = from_cohomological((4, 3, 2, 1))
    packet = trivial_packet(shape)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "63")
    with pytest.raises(GuardError, match="64 summing steps"):
        dominance_check(shape, packet)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "64")
    assert dominance_check(shape, packet).holds
    monkeypatch.delenv("ENDOSCOPYLAB_GUARD")
    # a one-member packet on a 2^23-element group: chi = epsilon gives m = 0
    wide = from_cohomological((1,) * 24)
    single = PacketModel(23, ((GroupChar(23, 0), Fraction(1)),), GroupChar(23, 0))
    assert i_disc_model(wide, single) == coefficient_sum(wide)
    assert dominance_check(wide, single).holds


def test_i_disc_model_guard_reads_env(monkeypatch):
    shape = from_cohomological((4, 3, 2, 1))
    packet = trivial_packet(shape)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "63")
    with pytest.raises(GuardError, match="64 summing steps"):
        i_disc_model(shape, packet)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "64")
    assert i_disc_model(shape, packet) == 1


def visited_entries(classes):
    """The entries _signed_sum's pass over the blocks visits, and the ranks it
    ends with: its loop, replayed with every sign +1 (a sign changes no key)."""
    poly, visited = {0: 1}, 0
    for d, mask in classes.items():
        for _ in range(mask.bit_count()):
            visited += len(poly)
            for n2, v in list(poly.items()):
                poly[n2 + d] = poly.get(n2 + d, 0) + v
    return visited, len(poly)


@pytest.mark.parametrize(
    "parts, counted, visited, ranks",
    [
        ((4, 3, 2, 1), 7, 7, 7),
        ((2,) + (1,) * 13, 91, 91, 14),
        (tuple(range(10, 0, -1)), 191, 172, 46),  # the old count took 9 * 46 = 414
    ],
)
def test_the_step_count_bounds_the_entries_a_subset_sum_visits(parts, counted, visited, ranks):
    classes, *count = bounds._rank_classes(from_cohomological(parts))
    assert count == [counted, ranks]
    assert visited_entries(classes) == (visited, ranks)


def test_the_step_count_bounds_the_visits_on_random_shapes():
    rng = random.Random(11)
    for _ in range(200):
        parts = [rng.choice((1, 1, 2, 3, 5, 8)) for _ in range(rng.randint(1, 12))]
        classes, counted, ranks = bounds._rank_classes(from_cohomological(parts))
        visited, reached = visited_entries(classes)
        assert visited <= counted and reached <= ranks, parts
        assert ranks <= min(2 ** (len(parts) - 1), sum(parts) - parts[0] + 1)


def test_dominance_check_puts_the_traces_over_one_denominator_once(monkeypatch):
    # the lcm is taken once, when the packet is built; dominance_check takes none
    calls = []
    honest = bounds.math.lcm

    def counted(*dens):
        calls.append(len(dens))
        return honest(*dens)

    monkeypatch.setattr(bounds.math, "lcm", counted)
    shape = from_cohomological((2, 1, 1, 1))
    group = centralizer_group(shape)
    rng = random.Random(5)
    for trial in range(1, 21):
        calls.clear()
        packet = random_packet(rng, group)
        assert calls == [len(packet.members)], trial
        expected = brute_i_disc(shape, packet, brute_coefficients(shape))
        calls.clear()
        result = dominance_check(shape, packet)
        assert calls == [], trial
        assert result.i_value == expected
        assert result.s_dominant == stable_coefficient(shape, s_psi(shape)) * sum(
            (t for _, t in packet.members), Fraction(0)
        )


def test_i_disc_model_evaluates_each_minus_rank_once(monkeypatch):
    calls = []
    honest = bounds._numerator

    def counted(N, n2):
        calls.append(n2)
        return honest(N, n2)

    monkeypatch.setattr(bounds, "_numerator", counted)
    shape = from_cohomological((2,) + (1,) * 7)  # 2^7 entries, minus ranks 0..7
    packet = trivial_packet(shape)
    expected = brute_i_disc(shape, packet, brute_coefficients(shape))
    calls.clear()
    assert i_disc_model(shape, packet) == expected
    assert sorted(calls) == list(range(8))


def test_i_disc_model_matches_brute_on_random_packets():
    # seeded labelled shapes with r <= 8 and blocks of rank n*m, n and m in
    # 1..3, so that ranks repeat; against the double sum over the bijection table
    rng = random.Random(21)
    for _ in range(320):
        shape = ArthurShape(
            tuple(
                Summand(f"c{i}", rng.randint(1, 3), rng.randint(1, 3))
                for i in range(rng.randint(1, 8))
            )
        )
        packet = random_packet(rng, centralizer_group(shape))
        expected = brute_i_disc(shape, packet, brute_coefficients(shape))
        assert i_disc_model(shape, packet) == expected, (shape, packet)


def test_i_disc_model_on_forty_blocks_is_the_closed_form():
    # N = 41 is odd: only the members with chi = epsilon survive the group sum
    shape = from_cohomological((2,) + (1,) * 39)
    rng = random.Random(40)
    eps = GroupChar(39, rng.getrandbits(39))
    masks = [eps.mask] + [rng.getrandbits(39) for _ in range(9)]
    members = tuple(
        (GroupChar(39, mask), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for mask in masks
    )
    packet = PacketModel(39, members, eps)
    assert len({chi.mask for chi, _ in members}) == 10
    expected = sum(t for chi, t in members if chi.mask == eps.mask)
    assert i_disc_model(shape, packet) == expected != 0
    assert dominance_check(shape, packet).holds


@pytest.mark.parametrize("parts", [(2, 1, 1, 1), (3, 2, 1, 1, 1), (4, 3, 2, 1)])
def test_i_disc_model_sums_mixed_denominators_exactly(parts):
    # the traces are summed as int numerators over the lcm of their
    # denominators (here 21), then divided once
    shape = from_cohomological(parts)
    group = centralizer_group(shape)
    chars = group.characters()
    traces = (Fraction(1, 3), Fraction(2, 7), 5, 0)
    coefficients = brute_coefficients(shape)
    for eps in chars:
        for start in range(len(chars)):
            picked = [chars[(start + j) % len(chars)] for j in range(len(traces))]
            members = tuple(zip(picked, traces))
            packet = PacketModel(group.rank, members, eps)
            # the traces are kept as given, the int ones included
            assert [type(t) for _, t in packet.members] == [Fraction, Fraction, int, int]
            assert packet._den == 21
            total = Fraction(sum(packet._numerators), packet._den)
            assert total == sum((t for _, t in members), Fraction(0))
            value = i_disc_model(shape, packet)
            assert type(value) is Fraction
            assert value == brute_i_disc(shape, packet, coefficients), (eps, start)
    empty = PacketModel(group.rank, (), chars[0])
    assert i_disc_model(shape, empty) == 0


@pytest.mark.parametrize("rank", range(10))
def test_random_packet_draws_what_the_character_list_drew(rank):
    # random_packet draws masks from range(group.order); sample and choice
    # pick by index, so the packets are those drawn from the character list
    group = TwoGroup(rank)
    chars = group.characters()
    for seed in range(200):
        rng = random.Random(seed)
        size = rng.randint(1, len(chars))
        members = tuple(
            (chi, Fraction(rng.randint(0, 9), rng.randint(1, 9)))
            for chi in rng.sample(chars, size)
        )
        listed = PacketModel(rank, members, rng.choice(chars))
        drawn = random.Random(seed)
        assert random_packet(drawn, group) == listed, seed
        assert drawn.random() == rng.random(), seed

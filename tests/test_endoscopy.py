"""Elliptic data, the sign-character bijection, and inner-form bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from endoscopylab.endoscopy import (
    EndoscopicDatum,
    InnerFormSpec,
    ParameterSplit,
    bijection,
    check_inner_form,
    datum_to_json,
    dominant_group,
    elliptic_data,
    global_kottwitz_product,
    iota,
    kottwitz_sign_padic,
    kottwitz_sign_real,
    make_split,
)
from endoscopylab.guards import GuardError
from endoscopylab.params import BlockSignVector, Summand, from_cohomological, s_psi


def test_elliptic_data_list():
    assert [(d.n1, d.n2) for d in elliptic_data(5)] == [(5, 0), (4, 1), (3, 2)]
    assert [(d.n1, d.n2) for d in elliptic_data(4)] == [(4, 0), (3, 1), (2, 2)]
    assert [(d.n1, d.n2) for d in elliptic_data(1)] == [(1, 0)]


def test_datum_validation():
    with pytest.raises(ValueError):
        EndoscopicDatum(1, 2)
    with pytest.raises(ValueError):
        EndoscopicDatum(2, -1)


def test_iota_case_table():
    assert iota(EndoscopicDatum(5, 0)) == 1
    assert iota(EndoscopicDatum(4, 1)) == Fraction(1, 2)
    assert iota(EndoscopicDatum(2, 2)) == Fraction(1, 4)


def test_kappa_alternates():
    d = EndoscopicDatum(4, 1)
    assert d.kappa == ((-1) ** (5 - 4), (-1) ** (5 - 1))
    assert EndoscopicDatum(3, 0).kappa[0] == 1


def test_make_split_orders_by_rank():
    big = (Summand("c1", 1, 4),)
    small = (Summand("c2", 1, 1),)
    split = make_split(small, big)
    assert split.part1 == big
    assert split.part2 == small
    assert split.datum == EndoscopicDatum(4, 1)


def test_split_validation():
    a, b = Summand("a", 1, 2), Summand("b", 1, 1)
    with pytest.raises(ValueError):
        ParameterSplit((), (a,))
    with pytest.raises(ValueError):
        ParameterSplit((b,), (a,))  # smaller rank leading
    with pytest.raises(ValueError):
        ParameterSplit((a,), (a,))  # block reused


def test_bijection_sizes():
    for parts in [(2, 1), (1, 1, 1), (4, 2, 1), (3, 2, 1, 1)]:
        shape = from_cohomological(parts)
        assert len(bijection(shape)) == 2 ** (shape.r - 1)


def test_bijection_identity_is_improper():
    shape = from_cohomological((2, 1))
    datum, split = bijection(shape)[BlockSignVector((1, 1))]
    assert not datum.proper
    assert split.is_trivial


def test_bijection_splits_by_sign():
    shape = from_cohomological((4, 1, 1, 1))
    s = BlockSignVector((-1, 1, 1, 1))
    datum, split = bijection(shape)[s]
    assert (datum.n1, datum.n2) == (4, 3)
    assert [x.m for x in split.part1] == [4]
    assert sorted(x.m for x in split.part2) == [1, 1, 1]


def test_dominant_group_matches_s_psi():
    shape = from_cohomological((2, 1))
    datum, split = dominant_group(shape)
    assert (datum.n1, datum.n2) == (2, 1)
    assert bijection(shape)[s_psi(shape)] == (datum, split)


@pytest.mark.parametrize(
    "p,q,sign", [(3, 0, 1), (4, 0, 1), (3, 1, -1), (2, 2, 1), (1, 1, 1), (2, 0, -1)]
)
def test_kottwitz_real(p, q, sign):
    assert kottwitz_sign_real(p, q) == sign


@given(st.integers(0, 6), st.integers(0, 6))
def test_kottwitz_real_symmetric(p, q):
    assume(p + q >= 1)
    assert kottwitz_sign_real(p, q) == kottwitz_sign_real(q, p)


def test_kottwitz_padic():
    assert kottwitz_sign_padic(0) == 1
    assert kottwitz_sign_padic(1) == -1
    assert kottwitz_sign_padic(2) == 1


def test_inner_form_odd_rank_always_valid():
    spec = InnerFormSpec(((2, 1), (3, 0)))
    assert check_inner_form(spec, 3)
    assert global_kottwitz_product(spec, 3) == 1


def test_inner_form_odd_rank_rejects_finite_flips():
    with pytest.raises(ValueError):
        check_inner_form(InnerFormSpec(((2, 1),), frozenset({"w"})), 3)


def test_inner_form_even_rank_parity():
    # N=2, signature (2,0): one flip fixes the parity
    assert not check_inner_form(InnerFormSpec(((2, 0),)), 2)
    assert check_inner_form(InnerFormSpec(((2, 0),), frozenset({"w"})), 2)
    assert check_inner_form(InnerFormSpec(((1, 1),)), 2)


def test_inner_form_signature_must_sum():
    with pytest.raises(ValueError):
        check_inner_form(InnerFormSpec(((2, 1),)), 4)


@pytest.mark.parametrize(
    "signatures, flips",
    [
        pytest.param(((2.9, 1.2),), frozenset(), id="float entries"),
        pytest.param(((True, 3),), frozenset(), id="bool entry"),
        pytest.param(((2, 1.0),), frozenset(), id="integral float"),
        pytest.param((("2", 1),), frozenset(), id="str entry"),
        pytest.param(((2, 2),), "w1", id="bare str flips"),
    ],
)
def test_inner_form_spec_refuses_what_it_would_coerce(signatures, flips):
    with pytest.raises(ValueError):
        InnerFormSpec(signatures, flips)


even_specs = st.integers(1, 5).flatmap(
    lambda h: st.tuples(
        st.lists(
            st.integers(0, 2 * h).map(lambda q: (2 * h - q, q)),
            min_size=1,
            max_size=3,
        ),
        st.sets(st.sampled_from(["u", "v", "w"])),
    ).map(lambda t: (InnerFormSpec(tuple(t[0]), frozenset(t[1])), 2 * h))
)


@given(even_specs)
def test_validity_tracks_kottwitz_product(spec_n):
    spec, n = spec_n
    assert check_inner_form(spec, n) == (global_kottwitz_product(spec, n) == 1)


def test_datum_json():
    data = datum_to_json(EndoscopicDatum(4, 1))
    assert data["n1"] == 4 and data["n2"] == 1


def test_bijection_guard_counts_the_table_first():
    shape = from_cohomological((1,) * 24)  # 2^23 entries
    with pytest.raises(GuardError, match="8388608 entries"):
        bijection(shape)


def test_bijection_guard_reads_env(monkeypatch):
    four = from_cohomological((4, 3, 2, 1))
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "7")
    with pytest.raises(GuardError):
        bijection(four)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "8")
    assert len(bijection(four)) == 8

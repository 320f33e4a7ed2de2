"""Shapes, sign vectors, and the character group."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from endoscopylab import cli
from endoscopylab.bounds import PacketModel
from endoscopylab.hyperendoscopy import FormalDist
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


def test_summand_basics():
    s = Summand("c1", 2, 3)
    assert s.block_dim == 6
    assert s.key == ("c1", 3)
    assert str(s) == "c1[2]*nu(3)"
    assert str(Summand("c2", 1, 4)) == "c2*nu(4)"


@pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (-1, 2), (2, -3)])
def test_summand_rejects_nonpositive(n, m):
    with pytest.raises(ValueError):
        Summand("x", n, m)


def test_shape_totals():
    shape = ArthurShape((Summand("a", 2, 2), Summand("b", 1, 3)))
    assert shape.N == 7
    assert shape.r == 2
    assert str(shape) == "a[2]*nu(2) + b*nu(3)"


def test_shape_needs_summands():
    with pytest.raises(ValueError):
        ArthurShape(())


def test_canonical_is_order_independent():
    x, y = Summand("a", 1, 2), Summand("b", 1, 1)
    assert ArthurShape((x, y)).canonical() == ArthurShape((y, x)).canonical()


def test_ellipticity():
    # the constructor refuses two blocks with the same label and m
    with pytest.raises(ValueError) as info:
        ArthurShape((Summand("a", 1, 2), Summand("a", 1, 2)))
    assert str(info.value) == "shape is not elliptic: a*nu(2) + a*nu(2)"
    with pytest.raises(ValueError, match="not elliptic"):
        ArthurShape((Summand("a", 1, 2), Summand("b", 1, 1), Summand("a", 3, 2)))
    assert ArthurShape((Summand("a", 1, 2), Summand("a", 1, 1))).r == 2


def test_sign_vector_canonical_negation():
    v = BlockSignVector((-1, 1, 1))
    assert v.signs == (1, -1, -1)
    assert v == BlockSignVector((1, -1, -1))
    assert str(v) == "+--"
    assert v.minus_indices == (1, 2)


def test_sign_vector_identity():
    assert BlockSignVector((1, 1)).is_identity
    assert not BlockSignVector((1, -1)).is_identity
    with pytest.raises(ValueError):
        BlockSignVector(())
    with pytest.raises(ValueError):
        BlockSignVector((1, 0))


def test_two_group_roundtrip():
    group = TwoGroup(3)
    assert group.order == 8
    assert list(group.elements) == list(range(8))
    for e in group.elements:
        assert group.from_sign_vector(group.to_sign_vector(e)) == e
    assert group.to_sign_vector(0).is_identity


def test_characters_count_and_orthogonality():
    group = TwoGroup(3)
    chars = group.characters()
    assert len(chars) == 8
    for chi in chars:
        total = sum(chi(e) for e in group.elements)
        assert total == (group.order if chi.mask == 0 else 0)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_character_multiplicativity(mask, x, y):
    chi = GroupChar(4, mask)
    assert chi(x ^ y) == chi(x) * chi(y)


def test_centralizer_group_rank():
    assert centralizer_group(from_cohomological((1, 1, 1))).rank == 2
    assert centralizer_group(from_cohomological((3,))).rank == 0
    with pytest.raises(ValueError):  # no repeated shape reaches centralizer_group
        centralizer_group(ArthurShape((Summand("a", 1, 2), Summand("a", 1, 2))))


def test_s_psi_sign_by_parity():
    # minus exactly on even SL(2) dimension
    assert str(s_psi(from_cohomological((2, 1)))) == "+-"
    assert s_psi(from_cohomological((1, 1, 1))).is_identity
    assert str(s_psi(from_cohomological((4, 2, 1)))) == "++-"


def test_from_cohomological_labels():
    shape = from_cohomological((3, 2, 1))
    assert [s.label for s in shape.summands] == ["c1", "c2", "c3"]
    assert [s.m for s in shape.summands] == [3, 2, 1]
    assert all(s.n == 1 for s in shape.summands)


def test_from_cohomological_rejects_bad_parts():
    with pytest.raises(ValueError):
        from_cohomological(())
    with pytest.raises(ValueError):
        from_cohomological((2, 0))


# The shape's JSON codec lives in the CLI, the one module that reads and
# writes JSON; its tests stay here, next to the shapes they build.
labels = st.text(alphabet="abcxyz", min_size=1, max_size=3)
summands = st.builds(Summand, label=labels, n=st.integers(1, 3), m=st.integers(1, 4))
shapes = st.lists(summands, min_size=1, max_size=4, unique_by=lambda s: s.key).map(
    lambda xs: ArthurShape(tuple(xs))
)


@given(shapes)
def test_shape_json_roundtrip(shape):
    assert cli._shape_from_json(cli._shape_to_json(shape)) == shape


def test_shape_json_rejects_garbage():
    with pytest.raises(ValueError):
        cli._shape_from_json({"blocks": []})
    with pytest.raises(ValueError):
        cli._shape_from_json({"summands": [{"label": "a", "n": 0, "m": 1}]})


@pytest.mark.parametrize(
    "data",
    [
        {"summands": 5},
        {"summands": "ab"},
        {"summands": [5]},
        {"summands": [["a", 1, 1]]},
        {"summands": [{"label": 7, "n": 1, "m": 1}]},
        {"summands": [{"label": "a", "n": 1.9, "m": 1}]},
        {"summands": [{"label": "a", "n": "1", "m": 1}]},
        {"summands": [{"label": "a", "n": True, "m": 1}]},
        {"summands": [{"label": "a", "n": 1, "m": True}]},
        {"summands": [{"label": "a", "n": 1, "m": 1, "self_dual": "false"}]},
        {"summands": [{"label": "a", "n": 1, "m": 1, "self_dual": 0}]},
        {"summands": [{"label": "a", "m": 1}]},
    ],
)
def test_shape_json_rejects_wrong_types(data):
    with pytest.raises(ValueError):
        cli._shape_from_json(data)
    with pytest.raises(ValueError):
        cli._shape_from_json(json.dumps(data))


def test_shape_json_reads_explicit_self_dual():
    # every block is conjugate self-dual: true is accepted and means nothing
    entry = {"label": "a", "n": 1, "m": 1}
    shape = cli._shape_from_json({"summands": [{**entry, "self_dual": True}]})
    assert shape == cli._shape_from_json({"summands": [entry]})
    with pytest.raises(ValueError, match="self_dual"):
        cli._shape_from_json({"summands": [{**entry, "self_dual": False}]})


# each public constructor or operator that takes an exact number, fed one
# wrong value
COERCION_SITES = {
    "Summand.n": lambda v: Summand("c", v, 2),
    "Summand.m": lambda v: Summand("c", 1, v),
    "from_cohomological": lambda v: from_cohomological((v, 2)),
    "PacketModel trace": lambda v: PacketModel(1, ((GroupChar(1, 0), v),), GroupChar(1, 0)),
    "FormalDist coefficient": lambda v: FormalDist({(from_cohomological((2,)),): v}),
    "FormalDist scalar": lambda v: v * FormalDist({(from_cohomological((2,)),): 1}),
}


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=repr)
@pytest.mark.parametrize("site", sorted(COERCION_SITES))
def test_constructors_refuse_silent_coercions(site, value):
    build = COERCION_SITES[site]
    build(1)  # the exact value is accepted
    with pytest.raises(ValueError):
        build(value)


# the block field that holds a str, with an exact value and values of other
# types, each a label that breaks the sort
FIELD_SITES = {
    "Summand.label": (lambda v: Summand(v, 1, 2), "a", (5, True, None)),
}


@pytest.mark.parametrize("site", sorted(FIELD_SITES))
def test_block_fields_refuse_silent_coercions(site):
    build, exact, wrong = FIELD_SITES[site]
    build(exact)
    for value in wrong:
        with pytest.raises(ValueError):
            build(value)

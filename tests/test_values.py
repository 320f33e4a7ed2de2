"""The value classes: equality, ordering, hash, repr, immutability, copy and
pickle behave as in a frozen, ordered dataclass with the same fields."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from endoscopylab.bounds import DerivationStep, PacketModel
from endoscopylab.cohomology import Bipartition, PoincarePoly
from endoscopylab.decay import ratio_profile
from endoscopylab.endoscopy import EndoscopicDatum, InnerFormSpec, ParameterSplit
from endoscopylab.guards import _Frozen
from endoscopylab.hyperendoscopy import ChainStep, GroupSymbol, HyperChain
from endoscopylab.params import ArthurShape, BlockSignVector, GroupChar, Summand, TwoGroup

S1, S2 = Summand("c1", 1, 3), Summand("cé\"", 2, 1)
SPLIT = ParameterSplit((S1,), (S2,))
STEP = ChainStep(0, EndoscopicDatum(3, 2), SPLIT)

VALUES = [
    S1,
    S2,
    ArthurShape((S1, S2)),
    BlockSignVector((-1, 1, -1)),
    TwoGroup(3),
    GroupChar(3, 5),
    EndoscopicDatum(3, 1),
    SPLIT,
    InnerFormSpec(((2, 1), (0, 3)), {"p"}),
    GroupSymbol((1, 3, 1)),
    STEP,
    HyperChain((ArthurShape((S1, S2)),), (STEP,)),
    Bipartition(((1, 0), (2, 1))),
    PoincarePoly((1, 0, 2, 0)),
    PacketModel(1, ((GroupChar(1, 0), Fraction(1, 2)),), GroupChar(1, 1)),
    DerivationStep("packet", "claim", "why", Fraction(3, 4)),
    ratio_profile(7, 4, 3, 2),
]
IDS = [type(v).__name__ for v in VALUES]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


TWINS: dict[type, type] = {}


def twin(value):
    """The frozen, ordered dataclass with the same name and fields, on the same values."""
    cls = type(value)
    if cls not in TWINS:
        TWINS[cls] = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True, order=True)
    return TWINS[cls](*fields(value))


def test_every_library_value_class_is_covered():
    library = {c for c in _Frozen.__subclasses__() if c.__module__.startswith("endoscopylab.")}
    assert {cls.__name__ for cls in library} == set(IDS)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_hash_and_repr_are_those_of_the_dataclass(value):
    assert hash(value) == hash(fields(value)) == hash(twin(value))
    assert repr(value) == repr(twin(value))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_a_value_equals_only_its_own_class(value):
    assert value == type(value)(*fields(value))
    assert value != fields(value)
    assert value != twin(value)
    if len(value._fields) == 1:
        assert value != fields(value)[0]
    with pytest.raises(TypeError):
        value < fields(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_a_value_is_immutable(value):
    name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copy_and_pickle_give_an_equal_value(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)


def test_repr_is_the_old_dataclass_repr():
    assert repr(S1) == "Summand(label='c1', n=1, m=3)"
    assert repr(GroupSymbol((1, 3))) == "GroupSymbol(ranks=(3, 1))"
    assert repr(Bipartition([[1, 0], (0, 2)])) == "Bipartition(pairs=((1, 0), (0, 2)))"
    assert repr(PoincarePoly([1, 0, 1, 0])) == "PoincarePoly(coeffs=(1, 0, 1))"
    assert repr(EndoscopicDatum(2, 2)) == "EndoscopicDatum(n1=2, n2=2)"


class Ranks(_Frozen):
    __slots__ = ("ranks",)

    def __init__(self, ranks):
        object.__setattr__(self, "ranks", ranks)


def test_the_same_fields_in_another_class_are_unequal():
    ranks, symbol = Ranks((3, 1)), GroupSymbol((3, 1))
    assert ranks != symbol and symbol != ranks
    assert hash(ranks) == hash(symbol) == hash(((3, 1),))
    assert repr(ranks) == "Ranks(ranks=(3, 1))"
    with pytest.raises(TypeError):
        ranks < symbol


@pytest.mark.parametrize("seed", range(5))
def test_sorting_orders_by_the_field_tuple(seed):
    rng = random.Random(seed)
    summands = [
        Summand(rng.choice("abc"), rng.randint(1, 3), rng.randint(1, 3)) for _ in range(40)
    ]
    data = [EndoscopicDatum(n1, rng.randint(0, n1)) for n1 in rng.choices(range(1, 6), k=40)]
    symbols = [GroupSymbol(rng.choices(range(1, 5), k=rng.randint(1, 4))) for _ in range(40)]
    for values in (summands, data, symbols):
        assert sorted(values) == sorted(values, key=fields)
        assert [twin(v) for v in sorted(values)] == sorted(map(twin, values))
        assert sorted(values, reverse=True) == sorted(values, key=fields, reverse=True)
        a, b = values[:2]
        assert (a <= b) == (fields(a) <= fields(b)) and (a > b) == (fields(a) > fields(b))
        assert (a >= b) == (fields(a) >= fields(b))


def test_the_bipartition_key_is_outside_equality_hash_and_repr():
    checked = Bipartition(((2, 1), (1, 0)))
    assert checked._key == (1, ((2, 1),))
    walked = Bipartition._walked(((2, 1), (1, 0)), (99, ()))
    assert walked == checked and hash(walked) == hash(checked)
    assert repr(walked) == repr(checked) == "Bipartition(pairs=((2, 1), (1, 0)))"
    assert Bipartition._fields == ("pairs",)
    # a copy rebuilds through the constructor, which derives the key again
    assert pickle.loads(pickle.dumps(walked))._key == checked._key
    with pytest.raises(AttributeError):
        checked._key = None

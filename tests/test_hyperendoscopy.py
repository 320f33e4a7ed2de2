"""Refinement chains, formal distributions, and the inversion identity."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from endoscopylab import hyperendoscopy
from endoscopylab.endoscopy import EndoscopicDatum, _subset_ranks, iota
from endoscopylab.guards import GuardError
from endoscopylab.hyperendoscopy import (
    FormalDist,
    GroupSymbol,
    _chain_sum,
    _plan_count,
    _plans,
    _splits,
    chain_expansion,
    chain_iota,
    dominant_contribution,
    enumerate_chains,
    expand_stable,
    verify_inversion,
)
from endoscopylab.params import ArthurShape, Summand, from_cohomological
from endoscopylab.selftest import _LABELLED_SHAPE as LABELLED
from endoscopylab.selftest import _PRODUCT_ASSIGNMENT as PRODUCT
from endoscopylab.selftest import hyperchain_sum as literal_chain_sum


def shapes_of(*parts_list):
    return [from_cohomological(parts) for parts in parts_list]


def test_group_symbol_normalizes():
    g = GroupSymbol((1, 2, 2))
    assert g.ranks == (2, 2, 1)
    assert g.dim == 9
    assert sum(g.ranks) == 5
    assert str(g) == "U(2)^2xU(1)"
    with pytest.raises(ValueError):
        GroupSymbol(())
    with pytest.raises(ValueError):
        GroupSymbol((0, 1))


def test_formal_dist_algebra():
    (x,) = shapes_of((2,))
    (y,) = shapes_of((1, 1))
    a = FormalDist({(x,): Fraction(1), (x, y): Fraction(1, 2)})
    assert 2 * a == a * 2 == FormalDist({(x,): 2, (x, y): 1})
    assert 0 * a == FormalDist()
    # canonical factor order: either order of the factors is the same key
    assert FormalDist({(x, y): 1}) == FormalDist({(y, x): 1})
    assert FormalDist({(y, x): 1}).coefficient((x, y)) == 1


def test_formal_dist_drops_zeros():
    (x,) = shapes_of((2,))
    d = FormalDist([((x,), Fraction(1)), ((x,), Fraction(-1))])
    assert len(d) == 0
    assert d.coefficient((x,)) == 0


# forest counts per number of blocks
PLAN_COUNTS = {1: 1, 2: 2, 3: 7, 4: 41, 5: 346, 6: 3797, 7: 51157, 8: 816356}


@pytest.mark.parametrize("r,count", sorted(PLAN_COUNTS.items()))
def test_plan_counts(r, count):
    assert _plan_count(r) == count
    if r <= 6:  # the plans themselves, kept small
        assert len(_plans(r)) == count


def test_splits_yield_each_two_way_split_once():
    for mask in range(1 << 10):
        pairs = list(_splits(mask))
        assert len(pairs) == max(2 ** (mask.bit_count() - 1) - 1, 0), mask
        low = mask & -mask
        for T, Tc in pairs:
            assert T & low and T | Tc == mask and not T & Tc, (mask, T, Tc)
        assert [T for T, _ in pairs] == sorted({T for T, _ in pairs}), mask


def test_subset_ranks_are_the_sums_over_the_bits():
    dims = [3, 1, 4, 1, 5, 9]
    ranks = _subset_ranks(dims)
    assert len(ranks) == 1 << len(dims)
    for m, rank in enumerate(ranks):
        assert rank == sum(d for i, d in enumerate(dims) if m >> i & 1), m
    assert _subset_ranks([]) == [0]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_chain_enumeration_matches_plan_count(r):
    shape = from_cohomological((1,) * r)
    assert len(enumerate_chains(shape=shape)) == PLAN_COUNTS[r]


def test_u2_chains():
    shape = from_cohomological((1, 1))
    chains = enumerate_chains(shape=shape)
    assert sorted(c.depth for c in chains) == [0, 1]
    deep = next(c for c in chains if c.depth == 1)
    assert chain_iota(deep) == Fraction(-1, 4)
    assert str(deep.terminal) == "U(1)^2"


def test_u3_depth_distribution():
    shape = from_cohomological((1, 1, 1))
    chains = enumerate_chains(shape=shape)
    by_depth = {}
    for c in chains:
        by_depth[c.depth] = by_depth.get(c.depth, 0) + 1
    assert by_depth == {0: 1, 1: 3, 2: 3}
    assert {chain_iota(c) for c in chains if c.depth == 2} == {Fraction(1, 8)}


def test_u3_expansion_coefficients():
    shape = from_cohomological((1, 1, 1))
    dist = chain_expansion(shape=shape)
    assert dist.coefficient((shape,)) == 1
    # three U(2)xU(1) terms at -1/2, one U(1)^3 term at 3/8
    values = sorted(coeff for key, coeff in dist.items() if len(key) == 2)
    assert values == [Fraction(-1, 2)] * 3
    triple = [coeff for key, coeff in dist.items() if len(key) == 3]
    assert triple == [Fraction(3, 8)]


def test_recursion_equals_chain_sum():
    for parts in [(2,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2, 1)]:
        shape = from_cohomological(parts)
        assert expand_stable(shape=shape) == chain_expansion(shape=shape)


@pytest.mark.parametrize("parts", [(1,), (2, 1), (1, 1, 1), (2, 2, 1), (3, 1)])
def test_verify_inversion(parts):
    assert verify_inversion(shape=from_cohomological(parts))


def test_product_start_factorizes():
    a = ArthurShape((Summand("a1", 1, 1), Summand("a2", 1, 1)))
    b = ArthurShape((Summand("b1", 1, 2), Summand("b2", 1, 1)))
    chains = enumerate_chains(assignment=(a, b))
    assert len(chains) == 2 * 2
    product = FormalDist(
        (key_a + key_b, coeff_a * coeff_b)
        for key_a, coeff_a in chain_expansion(assignment=(a,)).items()
        for key_b, coeff_b in chain_expansion(assignment=(b,)).items()
    )
    assert chain_expansion(assignment=(a, b)) == product
    assert verify_inversion(assignment=(a, b))


def test_chains_need_a_shape_or_an_assignment():
    with pytest.raises(ValueError):
        enumerate_chains()


def test_a_shape_and_an_assignment_together_are_refused():
    shape = from_cohomological((2, 1))
    for call in (enumerate_chains, expand_stable, chain_expansion, verify_inversion):
        with pytest.raises(ValueError, match="exactly one"):
            call(shape=shape, assignment=(shape,))


def test_chain_guard_trips(monkeypatch):
    shape = from_cohomological((1, 1, 1))  # 7 chains
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "6")
    with pytest.raises(GuardError, match="7 chains"):
        enumerate_chains(shape=shape)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "7")
    assert len(enumerate_chains(shape=shape)) == 7


def test_default_guard_blocks_eight_blocks():
    shape = from_cohomological((1,) * 8)
    with pytest.raises(GuardError):
        enumerate_chains(shape=shape)


def test_dominant_contribution_proper():
    shape = from_cohomological((2, 1))
    dist = dominant_contribution(shape)
    items = dist.items()
    assert len(items) == 1
    key, coeff = items[0]
    assert coeff == Fraction(1, 2)
    assert str(GroupSymbol.of_factors(key)) == "U(2)xU(1)"


def test_dominant_contribution_identity_sign():
    shape = from_cohomological((1, 1))
    assert dominant_contribution(shape) == expand_stable(shape=shape)


def test_terminal_factors_replay():
    shape = from_cohomological((1, 1, 1))
    chains = enumerate_chains(shape=shape)
    deepest = next(c for c in chains if c.depth == 2)
    terminals = deepest.terminal_factors()
    assert sorted(f.N for f in terminals) == [1, 1, 1]


# every cohomological shape with parts <= 3 and r <= 6, parts non-increasing
SMALL_PARTS = [
    parts
    for r in range(1, 7)
    for parts in combinations_with_replacement((3, 2, 1), r)
]


@pytest.mark.parametrize("parts", SMALL_PARTS, ids=str)
def test_kernel_equals_enumerated_chain_sum(parts):
    shape = from_cohomological(parts)
    oracle = _chain_sum((shape,))
    assert expand_stable(shape=shape) == oracle
    assert chain_expansion(shape=shape) == oracle


def test_kernel_equals_chain_sum_on_labelled_and_product():
    assert expand_stable(shape=LABELLED) == _chain_sum((LABELLED,))
    assert expand_stable(assignment=PRODUCT) == _chain_sum(PRODUCT)
    assert verify_inversion(shape=LABELLED)
    assert verify_inversion(assignment=PRODUCT)


def test_dominant_contribution_splits_labelled_shape():
    # even m: a*nu(2), d[2]*nu(2); odd m: a[2], b*nu(3), c[3]
    evens = ArthurShape((Summand("a", 1, 2), Summand("d", 2, 2)))
    odds = ArthurShape((Summand("a", 2, 1), Summand("b", 1, 3), Summand("c", 3, 1)))
    # ranks 6 against 8: iota = 1/2
    expected = Fraction(1, 2) * _chain_sum((evens, odds))
    assert dominant_contribution(LABELLED) == expected


def test_expand_stable_nine_blocks():
    assert len(expand_stable(shape=from_cohomological(tuple(range(1, 10))))) == 21147


def test_stable_expansion_guard_counts_terms(monkeypatch):
    ten = from_cohomological((1,) * 10)  # Bell(10) = 115975 terms
    with pytest.raises(GuardError, match="115975 terms"):
        expand_stable(shape=ten)
    with pytest.raises(GuardError):
        chain_expansion(shape=ten)
    with pytest.raises(GuardError):
        dominant_contribution(ten)
    three = from_cohomological((1, 1, 1))  # Bell(3) = 5 terms
    mixed = from_cohomological((2, 1, 1, 1))  # Bell(1) * Bell(3) terms
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "4")
    with pytest.raises(GuardError):
        expand_stable(shape=three)
    with pytest.raises(GuardError):
        dominant_contribution(mixed)
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "5")
    assert len(expand_stable(shape=three)) == 5
    assert len(dominant_contribution(mixed)) == 5


def test_chain_iota_is_the_literal_product_on_every_chain():
    shape = from_cohomological((2, 2, 1, 1, 1))
    chains = enumerate_chains(shape=shape)
    assert len(chains) == PLAN_COUNTS[5]
    for chain in chains:
        literal = Fraction((-1) ** chain.depth)
        for step in chain.steps:
            literal *= iota(step.datum)
        assert chain_iota(chain) == literal


def test_chain_sum_calls_no_kernel_function(monkeypatch):
    shape = from_cohomological((2, 1, 1, 1))
    expected = expand_stable(shape=shape)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached into the kernel")

    for name in ("_tree_sum", "_factor_terms", "expand_stable", "chain_expansion"):
        monkeypatch.setattr(hyperendoscopy, name, refuse)
    assert _chain_sum((shape,)) == expected


def test_planted_iota_fault_fails_verify_inversion(monkeypatch):
    # (2, 1, 1) has the rank tie 2 = 1 + 1, so an iota of 1/4 occurs
    shape = from_cohomological((2, 1, 1))
    assert verify_inversion(shape=shape)
    swapped = {Fraction(1, 4): Fraction(1, 2), Fraction(1, 2): Fraction(1, 4)}
    monkeypatch.setattr(
        hyperendoscopy, "iota", lambda datum: swapped.get(iota(datum), iota(datum))
    )
    assert not verify_inversion(shape=shape)


def test_planted_iota_off_the_quarter_grid_makes_the_chain_sum_raise(monkeypatch):
    # every chain of a term has the same step count, so the oracle sums each
    # term over one power of 4 and refuses a split weight -4 * iota that is
    # not an int rather than round it
    shape = from_cohomological((2, 1, 1))
    tie = EndoscopicDatum(2, 2)
    monkeypatch.setattr(
        hyperendoscopy, "iota", lambda datum: Fraction(1, 3) if datum == tie else iota(datum)
    )
    with pytest.raises(RuntimeError, match="1/3"):
        _chain_sum((shape,))


def test_planted_sub_sum_fault_fails_the_recursion_check(monkeypatch):
    # the shape's own chain sum stays right, so only the substitution into the
    # recursion sees the doubled chain sums of the split parameters
    shape = from_cohomological((2, 1, 1))
    real = hyperendoscopy._chain_sum
    monkeypatch.setattr(
        hyperendoscopy,
        "_chain_sum",
        lambda factors: real(factors) * (2 if len(factors) == 2 else 1),
    )
    assert not verify_inversion(shape=shape)


def test_planted_factor_sum_fault_fails_the_product_check(monkeypatch):
    # the product's own chain sum stays right, so only the comparison with the
    # product of the per-factor chain sums sees the doubled factors
    assert verify_inversion(assignment=PRODUCT)
    real = hyperendoscopy._chain_sum
    monkeypatch.setattr(
        hyperendoscopy,
        "_chain_sum",
        lambda factors: real(factors) * (2 if len(factors) == 1 else 1),
    )
    assert not verify_inversion(assignment=PRODUCT)


# every composition with parts <= 3 and r <= 5, in every order of its parts
COMPOSITIONS = [c for r in range(1, 6) for c in product((1, 2, 3), repeat=r)]


def test_record_oracle_equals_the_literal_chain_sum():
    cases = [(from_cohomological(c),) for c in COMPOSITIONS]
    for factors in cases + [(LABELLED,), PRODUCT]:
        assert _chain_sum(factors) == literal_chain_sum(factors), factors


def test_planted_dropped_plan_fails_verify_inversion(monkeypatch):
    shape = from_cohomological((2, 1, 1, 1))
    assert verify_inversion(shape=shape)
    plans = hyperendoscopy._plans

    def one_plan_short(r):
        return plans(r)[:-1] if r == shape.r else plans(r)

    monkeypatch.setattr(hyperendoscopy, "_plans", one_plan_short)
    assert not verify_inversion(shape=shape)


def test_chains_share_their_steps():
    chains = enumerate_chains(shape=from_cohomological((3, 2, 2, 1, 1, 1)))
    steps = [step for chain in chains for step in chain.steps]
    assert len(steps) == 14521
    assert len({id(step) for step in steps}) * 10 < len(steps)


def test_record_oracle_builds_no_chain_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the record walk built a chain object")

    for name in ("HyperChain", "ChainStep", "enumerate_chains"):
        monkeypatch.setattr(hyperendoscopy, name, refuse)
    assert verify_inversion(shape=from_cohomological((2, 2, 1, 1, 1)))
    assert verify_inversion(assignment=PRODUCT)


def test_verify_inversion_leaves_the_caches_keyed_by_block_count():
    caches = [f for f in vars(hyperendoscopy).values() if hasattr(f, "cache_info")]
    for name in ("_plans", "_split_pickers"):
        assert getattr(hyperendoscopy, name) in caches
    for cache in caches:
        cache.cache_clear()

    def fresh(k):
        return ArthurShape(
            tuple(Summand(f"f{k}b{i}", 1, m) for i, m in enumerate((3, 2, 2, 1, 1, 1)))
        )

    assert verify_inversion(shape=fresh(0))
    after_one = [cache.cache_info().currsize for cache in caches]
    assert verify_inversion(shape=fresh(1))
    assert verify_inversion(shape=fresh(2))
    after_three = [cache.cache_info().currsize for cache in caches]
    assert all(three <= one for three, one in zip(after_three, after_one))


def label_terms(dist, perm=None):
    """Each term keyed by the label sets of its factors, the labels renamed by perm."""
    rename = perm.get if perm else (lambda label: label)
    return {
        frozenset(frozenset(rename(s.label) for s in f.summands) for f in key): coeff
        for key, coeff in dist.items()
    }


def test_relabelling_blocks_permutes_the_terms():
    # labels are opaque: renaming the blocks (here a rotation of the labels)
    # renames every term's blocks the same way and keeps its coefficient, in
    # the kernel and in the dominant term
    for parts in COMPOSITIONS:
        shape = from_cohomological(parts)
        labels = [s.label for s in shape.summands]
        perm = dict(zip(labels, labels[1:] + labels[:1]))
        moved = ArthurShape(
            tuple(Summand(perm[s.label], s.n, s.m) for s in shape.summands)
        )
        assert label_terms(expand_stable(shape=moved)) == label_terms(
            expand_stable(shape=shape), perm
        ), parts
        dominant = label_terms(dominant_contribution(shape), perm)
        moved_dominant = label_terms(dominant_contribution(moved))
        assert moved_dominant == dominant, parts

"""Iterated endoscopic refinement chains and the stable inversion they resolve.

A chain starts from a product of unitary factors carrying an assignment of
parameter blocks and repeatedly replaces one factor by a proper endoscopic
product of it, each step separating whole blocks.  Chains are identified up to
reordering of steps on independent factors, so a chain is effectively a
refinement forest: per factor a binary tree whose leaves are the terminal
block groups.  Summing iota(chain) * I^{terminal} over all chains inverts the
defining recursion of the stable distribution,

    S^G = I^G - sum over proper splits of iota(G, H) * S^H,

with S multiplicative over product factors.  Both sides are modeled as exact
formal combinations keyed by the terminal factored parameter.

The kernel behind :func:`expand_stable`, :func:`chain_expansion` and
:func:`dominant_contribution` works on bit masks: a block is a bit, a part is
a submask, and a terminal set partition is a tuple of disjoint submasks.
Every set partition occurs once, and its coefficient is the signed sum over
the binary refinement trees whose leaves are its parts.  Each split in a
tree is worth -iota, which depends only on the ranks of the two sides, so
the sum depends only on the ranks of the parts; it is computed once per
multiset of part ranks by a subset recursion over the parts, as an integer
numerator over 4^(parts - 1).  The memo lives for one call, and a product
assignment multiplies the per-factor coefficients.  The work is Bell(r)
terms per factor, which the chain guard caps before anything runs.

The independent oracle is the enumerated chain sum.  Both it and
:func:`enumerate_chains` take every refinement forest from the same plans:
per block count r (the only cache key), every binary tree over the submasks
of the full mask 2^r - 1, a node holding the two submasks of its split and a
leaf the mask of its part.  Every split of a mask, here, in the kernel's
tree sum and in :func:`verify_inversion`, comes from one generator,
:func:`_splits`, which yields each unordered pair once, the side holding the
lowest bit first, in ascending order of that side.  :func:`enumerate_chains`
turns each choice of one plan per factor into a :class:`HyperChain`, handing
out one shared :class:`ChainStep` per step position and split.
:func:`verify_inversion` instead walks each choice as an integer record: the
leaves give the chain's terminal parts as masks over all the factors'
blocks, and the nodes give its steps, each worth -iota of the split
:func:`make_split` makes of its blocks.  The record walk streams, sums the
chains term by term as ints, checks the recursion with that sum and compares
it with the kernel term by term.  It stays independent because it never
groups trees: it visits every chain and weighs it by the product of its own
steps' iota values, so a wrong tree weight or a wrong part in the kernel
cannot hide in both.  Each split's weight is kept as the int -4 * iota, so
the chains of a term, which all make the same number of steps, sum as ints
over one power of 4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import comb, prod
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .endoscopy import (
    EndoscopicDatum,
    ParameterSplit,
    _at,
    _split_at,
    _subset_ranks,
    iota,
)
from .guards import _Frozen, refuse_above
from .params import ArthurShape, Summand, _is_exact_number, s_psi
from . import endoscopy

__all__ = [
    "GroupSymbol",
    "ChainStep",
    "HyperChain",
    "FormalDist",
    "canonical_factors",
    "enumerate_chains",
    "chain_iota",
    "chain_expansion",
    "expand_stable",
    "verify_inversion",
    "dominant_contribution",
]


class GroupSymbol(_Frozen):
    """Multiset of ranks [k_1, ..., k_t] standing for U(k_1) x ... x U(k_t)."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: Iterable[int]) -> None:
        ranks = tuple(sorted(ranks, reverse=True))
        if not ranks:
            raise ValueError("a group symbol needs at least one factor")
        if any(k < 1 for k in ranks):
            raise ValueError(f"factor ranks must be positive, got {ranks}")
        object.__setattr__(self, "ranks", ranks)

    @property
    def dim(self) -> int:
        return sum(k * k for k in self.ranks)

    @classmethod
    def of_factors(cls, factors: Iterable[ArthurShape]) -> "GroupSymbol":
        return cls(tuple(f.N for f in factors))

    def __str__(self) -> str:
        return "x".join([
            f"U({k})^{count}" if (count := len(list(run))) > 1 else f"U({k})"
            for k, run in groupby(self.ranks)
        ])


class ChainStep(_Frozen):
    """Refine the factor at ``factor`` (index into the current factor list)."""

    __slots__ = ("factor", "datum", "split")

    def __init__(self, factor: int, datum: EndoscopicDatum, split: ParameterSplit) -> None:
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "split", split)


class HyperChain(_Frozen):
    """A refinement chain with its per-step block splits."""

    __slots__ = ("assignment", "steps")

    def __init__(self, assignment: tuple[ArthurShape, ...], steps: tuple[ChainStep, ...]) -> None:
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "steps", steps)

    @property
    def depth(self) -> int:
        return len(self.steps)

    def terminal_factors(self) -> tuple[ArthurShape, ...]:
        """Replay the steps; factors in the order the splits produce them."""
        return tuple(ArthurShape(part) for part in _replay(self))

    @property
    def terminal(self) -> GroupSymbol:
        return GroupSymbol(sum(s.block_dim for s in part) for part in _replay(self))


def _replay(chain: HyperChain) -> list[tuple[Summand, ...]]:
    """The terminal parts of a chain as summand tuples, in split order."""
    work = [f.summands for f in chain.assignment]
    for step in chain.steps:
        work[step.factor : step.factor + 1] = (step.split.part1, step.split.part2)
    return work


def _factor_key(shape: ArthurShape) -> tuple:
    return (-shape.N, tuple((s.label, s.n, s.m) for s in shape.summands))


def canonical_factors(factors: Iterable[ArthurShape]) -> tuple[ArthurShape, ...]:
    """Canonical form of a factored parameter: sorted blocks, sorted factors."""
    canon = [f.canonical() for f in factors]
    canon.sort(key=_factor_key)
    return tuple(canon)


def _canonical_part(blocks: Sequence[Summand], mask: int) -> tuple[tuple, ArthurShape]:
    """The blocks at mask as a canonical shape, with its :func:`_factor_key`."""
    part = ArthurShape(tuple(sorted(_at(blocks, mask))))
    return _factor_key(part), part


FactorKey = tuple[ArthurShape, ...]
_TermsLike = Union[Mapping[FactorKey, Fraction], Iterable[tuple[FactorKey, Fraction]]]


class FormalDist:
    """Exact linear combination of distribution symbols I^{factored parameter}.

    Keys are canonical factor tuples; zero coefficients are never stored.
    The constructor canonicalizes the keys and sums repeated ones; each
    coefficient must be an int or a Fraction, never a bool.  A distribution
    can be read term by term and scaled by an exact number, under the same
    rule.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: _TermsLike | None = None) -> None:
        data: dict[FactorKey, Fraction] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, value in items:
                if not _is_exact_number(value):
                    raise ValueError(f"coefficients must be int or Fraction, got {value!r}")
                key = canonical_factors(key)
                coeff = data.get(key, Fraction(0)) + value
                if coeff:
                    data[key] = coeff
                else:
                    data.pop(key, None)
        self._terms = data

    @classmethod
    def _of(cls, terms: dict[FactorKey, Fraction]) -> "FormalDist":
        """Wrap terms whose keys are canonical and whose values are nonzero."""
        dist = object.__new__(cls)
        dist._terms = terms
        return dist

    def items(self) -> list[tuple[FactorKey, Fraction]]:
        return sorted(
            self._terms.items(), key=lambda kv: tuple(_factor_key(f) for f in kv[0])
        )

    def coefficient(self, factors: Iterable[ArthurShape]) -> Fraction:
        return self._terms.get(canonical_factors(factors), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __mul__(self, scalar: Fraction | int) -> "FormalDist":
        if not _is_exact_number(scalar):
            raise ValueError(f"scalar must be int or Fraction, got {scalar!r}")
        scalar = Fraction(scalar)
        terms = {k: v * scalar for k, v in self._terms.items()} if scalar else {}
        return FormalDist._of(terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalDist):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalDist(0)"
        parts = []
        for key, value in self.items():
            label = " x ".join(f"U({f.N})[{f}]" for f in key)
            parts.append(f"({value}) I^{{{label}}}")
        return "FormalDist(" + " + ".join(parts) + ")"


# A refinement plan for one factor of r blocks, over block positions 0..r-1
# taken as bits of a mask: a leaf is the int mask of its part; otherwise the
# chosen split (T, Tc) of a part's mask into two submasks plus plans for the
# two parts.
_Plan = Union[int, tuple[int, int, "_Plan", "_Plan"]]


def _splits(mask: int) -> Iterator[tuple[int, int]]:
    """Each unordered proper split (T, mask ^ T) of a mask once.

    T holds the mask's lowest bit, and T comes in ascending order.
    """
    low = mask & -mask
    rest = mask ^ low
    sub = 0
    while sub != rest:
        T = low | sub
        yield T, mask ^ T
        sub = (sub - rest) & rest  # the next submask of rest, ascending


@lru_cache(maxsize=None)
def _plan_count(r: int) -> int:
    """Number of refinement forests over r distinct blocks on one factor."""
    if r <= 1:
        return 1
    total = 1
    for j in range(1, r):
        # splits whose T has j blocks including the leading one
        total += comb(r - 1, j - 1) * _plan_count(j) * _plan_count(r - j)
    return total


@lru_cache(maxsize=None)
def _plans(r: int) -> tuple[_Plan, ...]:
    """Every refinement forest on one factor of r blocks; bit i is block i."""
    memo: dict[int, tuple[_Plan, ...]] = {}

    def plans_of(mask: int) -> tuple[_Plan, ...]:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        out: list[_Plan] = [mask]
        for T, Tc in _splits(mask):
            for plan_t in plans_of(T):
                for plan_c in plans_of(Tc):
                    out.append((T, Tc, plan_t, plan_c))
        memo[mask] = result = tuple(out)
        return result

    return plans_of((1 << r) - 1)


def _linearize(
    assignment: tuple[ArthurShape, ...], plans: Sequence[_Plan], splits: dict
) -> tuple[ChainStep, ...]:
    """Depth-first canonical step order; indices refer to the evolving list.

    The trees are walked in preorder, the plan of each split's part1 first,
    so a step's index is the number of leaves already passed.
    ``splits`` keeps, for one enumeration, the datum and split made at each
    (factor, T, Tc) plan node, whether T came out as part1, and one
    :class:`ChainStep` per index the node is applied at; the steps are
    immutable, so every chain of the enumeration shares them.
    """
    steps: list[ChainStep] = []
    stack: list[tuple[int, _Plan]] = list(enumerate(plans))
    stack.reverse()
    index = 0
    while stack:
        f, plan = stack.pop()
        if plan.__class__ is int:
            index += 1
            continue
        T, Tc, plan_t, plan_c = plan
        key = (f, T, Tc)
        known = splits.get(key)
        if known is None:
            lead, split = _split_at(assignment[f], T, Tc)
            splits[key] = known = (split.datum, split, split.part1 == lead, {})
        datum, split, lead_first, at = known
        step = at.get(index)
        if step is None:
            at[index] = step = ChainStep(index, datum, split)
        steps.append(step)
        if lead_first:
            stack += ((f, plan_c), (f, plan_t))
        else:
            stack += ((f, plan_t), (f, plan_c))
    return tuple(steps)


def _resolve_assignment(
    shape: ArthurShape | None, assignment: Sequence[ArthurShape] | None
) -> tuple[ArthurShape, ...]:
    if (shape is None) == (assignment is None):
        raise ValueError("give exactly one of a shape and an explicit assignment")
    factors = (shape,) if assignment is None else tuple(assignment)
    if not factors:
        raise ValueError("assignment needs at least one factor")
    ArthurShape(tuple(s for f in factors for s in f.summands))  # refuses a shared block
    return factors


def _check_chain_count(factors: tuple[ArthurShape, ...]) -> None:
    """Refuse, before any work, more chains than the cap."""
    refuse_above(
        prod(_plan_count(f.r) for f in factors),
        "chain enumeration would produce {count} chains, above the cap {cap}",
    )


def enumerate_chains(
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
) -> list[HyperChain]:
    """All refinement chains of the assignment, the trivial one included.

    Chains are counted up to reordering of steps on independent factors, so
    the result enumerates per-factor refinement forests; every step separates
    whole blocks and a single-block factor admits no step at all.
    """
    factors = _resolve_assignment(shape, assignment)
    _check_chain_count(factors)
    splits: dict = {}
    return [
        HyperChain(factors, _linearize(factors, chosen, splits))
        for chosen in product(*(_plans(f.r) for f in factors))
    ]


def chain_iota(chain: HyperChain) -> Fraction:
    """(-1)^depth times the product of the per-step iota factors."""
    num = den = 1
    for step in chain.steps:
        value = iota(step.datum)
        num *= value.numerator
        den *= value.denominator
    return Fraction(-num if len(chain.steps) % 2 else num, den)


def _chain_sum(factors: tuple[ArthurShape, ...]) -> FormalDist:
    """Sum of iota(chain) * I^{terminal}, walked chain by chain as integer records.

    This is the independent oracle that :func:`verify_inversion` holds the
    kernel to.  It takes every chain that :func:`enumerate_chains` gives,
    one :func:`_plans` tree per factor, without building its objects: block
    p of a factor is bit offset + p of a mask over all the factors' blocks,
    a leaf of a tree is one terminal part as such a mask, and a node is one
    step, worth -iota of :func:`make_split` on its two sides.  A chain
    ending in k parts makes k - len(factors) steps, so its weight, the
    product of its own steps' ints -4 * iota, is over 4^(k - len(factors));
    an iota that is not a multiple of 1/4 raises RuntimeError.  Nothing of
    the kernel's subset recursion is used.  The chains stream: within one
    call, a dict keyed by int holds each distinct split's weight, and a dict
    keyed by the sorted part masks sums each term's weights.  Canonical
    factor tuples and Fractions are made once per term, at the end.
    """
    _check_chain_count(factors)
    walks = []  # per factor: shape, block count, bit offset, split weights
    start = 0
    for f in factors:
        walks.append((f, f.r, start, {}))
        start += f.r
    sums: dict[tuple[int, ...], int] = {}  # sorted part masks -> numerator
    for chosen in product(*(_plans(f.r) for f in factors)):
        parts: list[int] = []
        num = 1
        for plan, (shape, r, offset, weights) in zip(chosen, walks):
            nodes = [plan]
            while nodes:
                node = nodes.pop()
                if node.__class__ is int:
                    parts.append(node << offset)
                    continue
                T, Tc, plan_t, plan_c = node
                key = T | Tc << r
                w = weights.get(key)
                if w is None:
                    value = iota(_split_at(shape, T, Tc)[1].datum)
                    if (4 * value).denominator != 1:
                        raise RuntimeError(f"iota {value} is not a multiple of 1/4")
                    weights[key] = w = int(-4 * value)
                num *= w
                nodes += (plan_t, plan_c)
        parts.sort()
        term = tuple(parts)
        sums[term] = sums.get(term, 0) + num
    blocks = [b for f in factors for b in f.summands]
    canon: dict[int, tuple[tuple, ArthurShape]] = {}
    terms: dict[FactorKey, Fraction] = {}
    for term, num in sums.items():
        if not num:
            continue
        shapes = []
        for mask in term:
            known = canon.get(mask)
            if known is None:
                canon[mask] = known = _canonical_part(blocks, mask)
            shapes.append(known)
        shapes.sort(key=itemgetter(0))
        steps = len(term) - len(factors)
        terms[tuple(part for _, part in shapes)] = Fraction(num, 4**steps)
    return FormalDist._of(terms)


def _bell(r: int) -> int:
    """Number of set partitions of r blocks (Bell triangle)."""
    row = [1]
    for _ in range(r):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _picker(mask: int) -> itemgetter:
    """Getter of the items at the set bits of mask, always as a tuple."""
    positions = _at(range(mask.bit_length()), mask)
    if len(positions) == 1:
        # a single index would give the bare item; a slice gives a 1-tuple
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


@lru_cache(maxsize=None)
def _split_pickers(k: int) -> tuple[tuple[itemgetter, itemgetter], ...]:
    """:func:`_splits` of k items as getters of the two sides."""
    return tuple((_picker(T), _picker(Tc)) for T, Tc in _splits((1 << k) - 1))


def _tree_sum(ranks: tuple[int, ...], memo: dict[tuple[int, ...], int]) -> int:
    """Signed sum over refinement trees with leaves of the given sorted ranks.

    Each tree with k leaves makes k - 1 splits, each worth -iota = -w/4 with
    w = 1 on a rank tie and 2 otherwise; the sum is returned as an integer
    numerator over 4^(k-1).  All trees share the sign (-1)^(k-1), so the sum
    is never zero.  The value depends on the leaf ranks alone, which is why
    the memo is keyed by them.
    """
    if len(ranks) == 1:
        return 1
    value = memo.get(ranks)
    if value is None:
        value = 0
        total = sum(ranks)
        for pick_lead, pick_other in _split_pickers(len(ranks)):
            lead = pick_lead(ranks)
            w = 1 if 2 * sum(lead) == total else 2
            value -= w * _tree_sum(lead, memo) * _tree_sum(pick_other(ranks), memo)
        memo[ranks] = value
    return value


def _factor_terms(
    shape: ArthurShape, memo: dict[tuple[int, ...], int]
) -> list[tuple[list[tuple[tuple, ArthurShape]], int, int]]:
    """Every set partition of one factor's blocks with its coefficient.

    A block is a bit of a mask and a part is a submask.  Each entry holds the
    parts (canonical shape with its sort key), the integer numerator and the
    exponent k - 1 of its denominator 4^(k-1).
    """
    blocks = shape.summands
    full = (1 << len(blocks)) - 1
    rank = _subset_ranks([b.block_dim for b in blocks])
    part = [None] + [_canonical_part(blocks, mask) for mask in range(1, full + 1)]
    out: list[tuple[list[tuple[tuple, ArthurShape]], int, int]] = []

    def walk(rest: int, chosen: tuple[int, ...]) -> None:
        if not rest:
            ranks = tuple(sorted(rank[m] for m in chosen))
            out.append(([part[m] for m in chosen], _tree_sum(ranks, memo), len(chosen) - 1))
            return
        # the part holding rest's lowest block: all of rest, or the T of a split
        walk(0, chosen + (rest,))
        for T, Tc in _splits(rest):
            walk(Tc, chosen + (T,))

    walk(full, ())
    return out


def chain_expansion(
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
) -> FormalDist:
    """Sum of iota(chain) * I^{terminal} over all chains of the assignment.

    Grouped by root split: a refinement forest on one factor is either a leaf
    or a root split with a forest on each part, so the chain sum obeys the
    stable recursion and equals :func:`expand_stable`, which computes it.
    """
    return expand_stable(shape, assignment)


def expand_stable(
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
) -> FormalDist:
    """Fully resolve the stable distribution into I-symbols via the recursion.

    Raises GuardError before any work when the term count, one per set
    partition of each factor's blocks, exceeds the cap.  The coefficient of
    a set partition is the tree sum over its part ranks, and a product
    assignment multiplies the per-factor coefficients.
    """
    factors = _resolve_assignment(shape, assignment)
    refuse_above(
        prod(_bell(f.r) for f in factors),
        "stable expansion would produce {count} terms, above the cap {cap}",
    )
    memo: dict[tuple[int, ...], int] = {}
    terms: dict[FactorKey, Fraction] = {}
    for combo in product(*(_factor_terms(f, memo) for f in factors)):
        parts: list[tuple[tuple, ArthurShape]] = []
        num, splits = 1, 0
        for factor_parts, factor_num, factor_splits in combo:
            parts += factor_parts
            num *= factor_num
            splits += factor_splits
        parts.sort(key=itemgetter(0))
        terms[tuple(canon for _, canon in parts)] = Fraction(num, 4**splits)
    return FormalDist._of(terms)


def verify_inversion(
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
) -> bool:
    """Substitute the chain sum back into the recursion; exact identity check.

    The chain sum here is the enumerated one, walked chain by chain as
    integer records without building chain objects, and it must agree term
    by term with the kernel of :func:`expand_stable`.  It must then satisfy
    the recursion, checked as one residual dict that ends all zero: for a
    single factor the chain sum minus I^{shape} plus iota times the chain
    sum of each split, and for a product assignment the chain sum minus the
    product of the per-factor chain sums, each product of terms keyed by
    :func:`canonical_factors`.
    """
    factors = _resolve_assignment(shape, assignment)
    cs = _chain_sum(factors)
    if cs != expand_stable(assignment=factors):
        return False
    residual = dict(cs._terms)
    if len(factors) == 1:
        shp = factors[0]
        unit = canonical_factors((shp,))
        residual[unit] = residual.get(unit, 0) - 1
        for T, Tc in _splits((1 << shp.r) - 1):
            split = _split_at(shp, T, Tc)[1]
            weight = iota(split.datum)
            sub = _chain_sum((ArthurShape(split.part1), ArthurShape(split.part2)))
            for key, value in sub._terms.items():
                residual[key] = residual.get(key, 0) + weight * value
    else:
        per_factor = [_chain_sum((f,))._terms.items() for f in factors]
        for combo in product(*per_factor):
            key = canonical_factors(part for factor_key, _ in combo for part in factor_key)
            residual[key] = residual.get(key, 0) - prod(value for _, value in combo)
    return not any(residual.values())


def dominant_contribution(shape: ArthurShape) -> FormalDist:
    """Expansion of the stable term at the distinguished central sign.

    For a shape whose central sign is the identity this is the full stable
    expansion on the group itself; otherwise the blocks split by SL(2)
    parity onto the dominant endoscopic product, which expands factor by
    factor (split held fixed) under the leading iota factor.  Raises
    GuardError when the Bell-number term count exceeds the cap.
    """
    if s_psi(shape).is_identity:
        return expand_stable(shape=shape)
    datum, split = endoscopy.dominant_group(shape)
    if split.is_trivial:
        raise RuntimeError(f"nontrivial central sign of {shape} gave a trivial split")
    assignment = (ArthurShape(split.part1), ArthurShape(split.part2))
    return iota(datum) * expand_stable(assignment=assignment)

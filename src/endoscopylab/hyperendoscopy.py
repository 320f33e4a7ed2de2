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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .endoscopy import EndoscopicDatum, ParameterSplit, iota, make_split
from .guards import DEFAULT_CHAIN_GUARD, GuardError, guard_limit
from .params import ArthurShape, Summand, is_elliptic, s_psi
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


@dataclass(frozen=True, order=True)
class GroupSymbol:
    """Multiset of ranks [k_1, ..., k_t] standing for U(k_1) x ... x U(k_t)."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        ranks = tuple(sorted(self.ranks, reverse=True))
        if not ranks:
            raise ValueError("a group symbol needs at least one factor")
        if any(k < 1 for k in ranks):
            raise ValueError(f"factor ranks must be positive, got {ranks}")
        object.__setattr__(self, "ranks", ranks)

    @property
    def dim(self) -> int:
        return sum(k * k for k in self.ranks)

    @property
    def total_rank(self) -> int:
        return sum(self.ranks)

    @classmethod
    def of_factors(cls, factors: Iterable[ArthurShape]) -> "GroupSymbol":
        return cls(tuple(f.N for f in factors))

    def __str__(self) -> str:
        out = []
        i = 0
        while i < len(self.ranks):
            j = i
            while j < len(self.ranks) and self.ranks[j] == self.ranks[i]:
                j += 1
            count = j - i
            out.append(f"U({self.ranks[i]})" + (f"^{count}" if count > 1 else ""))
            i = j
        return "x".join(out)


@dataclass(frozen=True)
class ChainStep:
    """Refine the factor at ``factor`` (index into the current factor list)."""

    factor: int
    datum: EndoscopicDatum
    split: ParameterSplit


@dataclass(frozen=True)
class HyperChain:
    """A refinement chain with its per-step block splits."""

    assignment: tuple[ArthurShape, ...]
    steps: tuple[ChainStep, ...]

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def start(self) -> GroupSymbol:
        return GroupSymbol.of_factors(self.assignment)

    def terminal_factors(self) -> tuple[ArthurShape, ...]:
        """Replay the steps; factors in the order the splits produce them."""
        work: list[tuple[Summand, ...]] = [s.summands for s in self.assignment]
        for step in self.steps:
            work[step.factor : step.factor + 1] = [
                step.split.part1,
                step.split.part2,
            ]
        return tuple(ArthurShape(t) for t in work)

    @property
    def terminal(self) -> GroupSymbol:
        return GroupSymbol.of_factors(self.terminal_factors())


def _factor_key(shape: ArthurShape) -> tuple:
    return (-shape.N, tuple((s.label, s.n, s.m) for s in shape.summands))


def canonical_factors(factors: Iterable[ArthurShape]) -> tuple[ArthurShape, ...]:
    """Canonical form of a factored parameter: sorted blocks, sorted factors."""
    canon = [f.canonical() for f in factors]
    canon.sort(key=_factor_key)
    return tuple(canon)


FactorKey = tuple[ArthurShape, ...]
_TermsLike = Union[Mapping[FactorKey, Fraction], Iterable[tuple[FactorKey, Fraction]]]


class FormalDist:
    """Exact linear combination of distribution symbols I^{factored parameter}.

    Keys are canonical factor tuples; zero coefficients are never stored.
    Supports addition, subtraction, scalar multiplication, and the tensor
    product that concatenates factor tuples.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: _TermsLike | None = None) -> None:
        data: dict[FactorKey, Fraction] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, value in items:
                key = canonical_factors(key)
                coeff = data.get(key, Fraction(0)) + Fraction(value)
                if coeff:
                    data[key] = coeff
                else:
                    data.pop(key, None)
        self._terms = data

    @classmethod
    def unit(cls, factors: Iterable[ArthurShape]) -> "FormalDist":
        return cls({tuple(factors): Fraction(1)})

    def items(self) -> list[tuple[FactorKey, Fraction]]:
        return sorted(
            self._terms.items(), key=lambda kv: tuple(_factor_key(f) for f in kv[0])
        )

    def coefficient(self, factors: Iterable[ArthurShape]) -> Fraction:
        return self._terms.get(canonical_factors(factors), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FormalDist") -> "FormalDist":
        if not isinstance(other, FormalDist):
            return NotImplemented
        out = dict(self._terms)
        for key, value in other._terms.items():
            coeff = out.get(key, Fraction(0)) + value
            if coeff:
                out[key] = coeff
            else:
                out.pop(key, None)
        result = FormalDist()
        result._terms = out
        return result

    def __neg__(self) -> "FormalDist":
        result = FormalDist()
        result._terms = {k: -v for k, v in self._terms.items()}
        return result

    def __sub__(self, other: "FormalDist") -> "FormalDist":
        if not isinstance(other, FormalDist):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: Fraction | int) -> "FormalDist":
        if not isinstance(scalar, (Fraction, int)):
            return NotImplemented
        scalar = Fraction(scalar)
        result = FormalDist()
        if scalar:
            result._terms = {k: v * scalar for k, v in self._terms.items()}
        return result

    __rmul__ = __mul__

    def tensor(self, other: "FormalDist") -> "FormalDist":
        out: dict[FactorKey, Fraction] = {}
        for key1, value1 in self._terms.items():
            for key2, value2 in other._terms.items():
                key = canonical_factors(key1 + key2)
                coeff = out.get(key, Fraction(0)) + value1 * value2
                if coeff:
                    out[key] = coeff
                else:
                    out.pop(key, None)
        result = FormalDist()
        result._terms = out
        return result

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


# A refinement plan for one factor: None is a leaf; otherwise the chosen split
# (T, Tc) of its blocks plus plans for the two parts.
_Plan = Union[
    None, tuple[tuple[Summand, ...], tuple[Summand, ...], "_Plan", "_Plan"]
]

_PLAN_CACHE: dict[tuple[Summand, ...], tuple[_Plan, ...]] = {}


def _proper_splits(
    summands: tuple[Summand, ...]
) -> Iterator[tuple[tuple[Summand, ...], tuple[Summand, ...]]]:
    """Unordered proper two-way splits; T always holds the leading block."""
    rest = summands[1:]
    n = len(rest)
    for bits in range((1 << n) - 1):
        T = (summands[0],) + tuple(s for i, s in enumerate(rest) if bits >> i & 1)
        Tc = tuple(s for i, s in enumerate(rest) if not bits >> i & 1)
        yield T, Tc


@lru_cache(maxsize=None)
def _plan_count(r: int) -> int:
    """Number of refinement forests over r distinct blocks on one factor."""
    if r <= 1:
        return 1
    total = 1
    for j in range(1, r):
        # splits whose T has j blocks including the leading one
        from math import comb

        total += comb(r - 1, j - 1) * _plan_count(j) * _plan_count(r - j)
    return total


def _plans(summands: tuple[Summand, ...]) -> tuple[_Plan, ...]:
    cached = _PLAN_CACHE.get(summands)
    if cached is not None:
        return cached
    out: list[_Plan] = [None]
    if len(summands) >= 2:
        for T, Tc in _proper_splits(summands):
            for plan_t in _plans(T):
                for plan_c in _plans(Tc):
                    out.append((T, Tc, plan_t, plan_c))
    result = tuple(out)
    _PLAN_CACHE[summands] = result
    return result


def _linearize(
    assignment: tuple[ArthurShape, ...], plans: Sequence[_Plan]
) -> tuple[ChainStep, ...]:
    """Depth-first canonical step order; indices refer to the evolving list."""
    work: list[tuple[tuple[Summand, ...], _Plan]] = [
        (shape.summands, plan) for shape, plan in zip(assignment, plans)
    ]
    steps: list[ChainStep] = []

    def expand(i: int) -> int:
        summands, plan = work[i]
        if plan is None:
            return 1
        T, Tc, plan_t, plan_c = plan
        split = make_split(T, Tc)
        first, second = (plan_t, plan_c) if split.part1 == T else (plan_c, plan_t)
        steps.append(ChainStep(i, split.datum, split))
        work[i] = (split.part1, first)
        work.insert(i + 1, (split.part2, second))
        c1 = expand(i)
        c2 = expand(i + c1)
        return c1 + c2

    pos = 0
    for _ in range(len(assignment)):
        pos += expand(pos)
    return tuple(steps)


def _resolve_assignment(
    start: GroupSymbol | None,
    shape: ArthurShape | None,
    assignment: Sequence[ArthurShape] | None,
) -> tuple[ArthurShape, ...]:
    if assignment is not None:
        factors = tuple(assignment)
        if not factors:
            raise ValueError("assignment needs at least one factor")
        if shape is not None:
            declared = sorted(s.key for f in factors for s in f.summands)
            expected = sorted(s.key for s in shape.summands)
            if declared != expected:
                raise ValueError("assignment does not redistribute the shape's blocks")
    else:
        if shape is None:
            raise ValueError("either a shape or an explicit assignment is required")
        if start is not None and len(start.ranks) > 1:
            raise ValueError(
                "product start needs a declared assignment of blocks to factors"
            )
        factors = (shape,)
    if start is not None:
        if tuple(sorted((f.N for f in factors), reverse=True)) != start.ranks:
            raise ValueError(
                f"assignment ranks do not match start symbol {start}"
            )
    combined = ArthurShape(tuple(s for f in factors for s in f.summands))
    if not is_elliptic(combined):
        raise ValueError(f"shape is not elliptic: {combined}")
    return factors


def enumerate_chains(
    start: GroupSymbol | None = None,
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
    *,
    guard: int | None = None,
) -> list[HyperChain]:
    """All refinement chains of the assignment, the trivial one included.

    Chains are counted up to reordering of steps on independent factors, so
    the result enumerates per-factor refinement forests; every step separates
    whole blocks and a single-block factor admits no step at all.
    """
    factors = _resolve_assignment(start, shape, assignment)
    cap = guard_limit(guard, DEFAULT_CHAIN_GUARD)
    count = 1
    for f in factors:
        count *= _plan_count(f.r)
    if count > cap:
        raise GuardError(
            f"chain enumeration would produce {count} chains, above the cap {cap}"
        )
    chains: list[HyperChain] = []

    def recurse(index: int, chosen: list[_Plan]) -> None:
        if index == len(factors):
            chains.append(
                HyperChain(factors, _linearize(factors, chosen))
            )
            return
        for plan in _plans(factors[index].summands):
            chosen.append(plan)
            recurse(index + 1, chosen)
            chosen.pop()

    recurse(0, [])
    return chains


def chain_iota(chain: HyperChain) -> Fraction:
    """(-1)^depth times the product of the per-step iota factors."""
    value = Fraction((-1) ** chain.depth)
    for step in chain.steps:
        value *= iota(step.datum)
    return value


def chain_expansion(
    start: GroupSymbol | None = None,
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
    *,
    guard: int | None = None,
) -> FormalDist:
    """Sum of iota(chain) * I^{terminal} over all chains of the assignment."""
    chains = enumerate_chains(start, shape, assignment, guard=guard)
    terms: dict[FactorKey, Fraction] = {}
    for chain in chains:
        key = canonical_factors(chain.terminal_factors())
        coeff = terms.get(key, Fraction(0)) + chain_iota(chain)
        if coeff:
            terms[key] = coeff
        else:
            terms.pop(key, None)
    result = FormalDist()
    result._terms = terms
    return result


_STABLE_CACHE: dict[tuple[Summand, ...], FormalDist] = {}


def _stable_of_shape(shape: ArthurShape) -> FormalDist:
    """S for one factor via the recursion; a single block is its own I."""
    key = shape.canonical().summands
    cached = _STABLE_CACHE.get(key)
    if cached is not None:
        return cached
    dist = FormalDist.unit((shape,))
    for T, Tc in _proper_splits(shape.summands):
        split = make_split(T, Tc)
        sub = _stable_of_shape(ArthurShape(split.part1)).tensor(
            _stable_of_shape(ArthurShape(split.part2))
        )
        dist = dist - iota(split.datum) * sub
    _STABLE_CACHE[key] = dist
    return dist


def expand_stable(
    start: GroupSymbol | None = None,
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
) -> FormalDist:
    """Fully resolve the stable distribution into I-symbols via the recursion."""
    factors = _resolve_assignment(start, shape, assignment)
    out = FormalDist({(): Fraction(1)})
    for f in factors:
        out = out.tensor(_stable_of_shape(f))
    return out


def verify_inversion(
    start: GroupSymbol | None = None,
    shape: ArthurShape | None = None,
    assignment: Sequence[ArthurShape] | None = None,
    *,
    guard: int | None = None,
) -> bool:
    """Substitute the chain sum back into the recursion; exact identity check.

    Also requires the chain sum and the recursive expansion to agree term by
    term; for a product start the chain sum must equal the tensor product of
    the per-factor chain sums.
    """
    factors = _resolve_assignment(start, shape, assignment)
    cs = chain_expansion(assignment=factors, guard=guard)
    if cs != expand_stable(assignment=factors):
        return False
    if len(factors) == 1:
        shp = factors[0]
        residual = cs - FormalDist.unit((shp,))
        for T, Tc in _proper_splits(shp.summands):
            split = make_split(T, Tc)
            sub = chain_expansion(
                assignment=(ArthurShape(split.part1), ArthurShape(split.part2)),
                guard=guard,
            )
            residual = residual + iota(split.datum) * sub
        return residual.is_zero
    product = FormalDist({(): Fraction(1)})
    for f in factors:
        product = product.tensor(chain_expansion(assignment=(f,), guard=guard))
    return (cs - product).is_zero


def dominant_contribution(
    shape: ArthurShape, *, guard: int | None = None
) -> FormalDist:
    """Expansion of the stable term at the distinguished central sign.

    For a shape whose central sign is the identity this is the full stable
    expansion on the group itself; otherwise the blocks split by SL(2)
    parity onto the dominant endoscopic product and the chains of that
    product (componentwise, split held fixed) are summed with the leading
    iota factor.
    """
    if s_psi(shape).is_identity:
        return expand_stable(shape=shape)
    datum, split = endoscopy.dominant_group(shape)
    if split.is_trivial:
        raise RuntimeError(f"nontrivial central sign of {shape} gave a trivial split")
    assignment = (split.shape1, split.shape2)
    return iota(datum) * chain_expansion(assignment=assignment, guard=guard)

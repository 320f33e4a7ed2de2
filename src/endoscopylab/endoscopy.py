"""Elliptic endoscopic data of U(N), splits of parameters, and local signs.

An elliptic endoscopic group of U(N) is a product U(n1) x U(n2) with
n1 + n2 = N, determined by the unordered pair {n1, n2}; the transfer factor
normalization attaches the character pair kappa = ((-1)^(N-n1), (-1)^(N-n2)).
Elements of a shape's sign group correspond bijectively to such data together
with a two-way split of the blocks.  A set of blocks is an int mask, bit i
standing for block i, and every split is made from two masks by
``_split_at``.  The module also carries the real and p-adic Kottwitz signs
and the parity bookkeeping that decides which collections of local unitary
groups glue to a global inner form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .guards import _Frozen, refuse_above
from .params import (
    ArthurShape,
    BlockSignVector,
    Summand,
    centralizer_group,
    s_psi,
)

__all__ = [
    "EndoscopicDatum",
    "ParameterSplit",
    "InnerFormSpec",
    "elliptic_data",
    "iota",
    "make_split",
    "bijection",
    "dominant_group",
    "kottwitz_sign_real",
    "kottwitz_sign_padic",
    "global_kottwitz_product",
    "check_inner_form",
]


class EndoscopicDatum(_Frozen):
    """Unordered pair {n1, n2} with n1 >= n2, standing for U(n1) x U(n2)."""

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int) -> None:
        if n2 < 0 or n1 < n2:
            raise ValueError(f"need n1 >= n2 >= 0, got ({n1}, {n2})")
        if n1 + n2 < 1:
            raise ValueError("total rank must be positive")
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    @property
    def N(self) -> int:
        return self.n1 + self.n2

    @property
    def proper(self) -> bool:
        """False exactly for the datum (N, 0), i.e. the group itself."""
        return self.n2 > 0

    @property
    def kappa(self) -> tuple[int, int]:
        return ((-1) ** (self.N - self.n1), (-1) ** (self.N - self.n2))

    def __str__(self) -> str:
        return f"U({self.n1})xU({self.n2})" if self.proper else f"U({self.n1})"


def elliptic_data(N: int) -> list[EndoscopicDatum]:
    """All elliptic data of U(N), improper (N, 0) first, n1 descending.

    There are N // 2 + 1 of them, refused above the chain cap before any is built.
    """
    if N < 1:
        raise ValueError(f"rank must be positive, got {N}")
    refuse_above(N // 2 + 1, "U({N}) has {count} elliptic data, above the cap {cap}", N=N)
    return [EndoscopicDatum(n1, N - n1) for n1 in range(N, (N - 1) // 2, -1)]


_ONE, _HALF, _QUARTER = Fraction(1), Fraction(1, 2), Fraction(1, 4)


def iota(datum: EndoscopicDatum) -> Fraction:
    """The factor iota(G, H): 1 improper, 1/4 for the equal split, else 1/2.

    The three values are shared constants; a Fraction is immutable.
    """
    if not datum.proper:
        return _ONE
    if datum.n1 == datum.n2:
        return _QUARTER
    return _HALF


def _rank(part: Sequence[Summand]) -> int:
    return sum(s.block_dim for s in part)


class ParameterSplit(_Frozen):
    """Two-way split of a shape's blocks; larger-rank part first.

    ``part2`` may be empty (the trivial split belonging to the improper
    datum).  On a rank tie the part containing the shape's leading block
    comes first; construction sites go through :func:`make_split` which
    enforces that convention.
    """

    __slots__ = ("part1", "part2")

    def __init__(self, part1: Iterable[Summand], part2: Iterable[Summand]) -> None:
        part1, part2 = tuple(part1), tuple(part2)
        if not part1:
            raise ValueError("first part of a split may not be empty")
        if _rank(part1) < _rank(part2):
            raise ValueError("parts out of order: part1 must carry rank n1 >= n2")
        keys = [s.key for s in part1 + part2]
        if len(set(keys)) != len(keys):
            raise ValueError("split parts share a block")
        object.__setattr__(self, "part1", part1)
        object.__setattr__(self, "part2", part2)

    @property
    def n1(self) -> int:
        return _rank(self.part1)

    @property
    def n2(self) -> int:
        return _rank(self.part2)

    @property
    def is_trivial(self) -> bool:
        return not self.part2

    @property
    def datum(self) -> EndoscopicDatum:
        return EndoscopicDatum(self.n1, self.n2)

    def __str__(self) -> str:
        left = ", ".join(str(s) for s in self.part1)
        right = ", ".join(str(s) for s in self.part2)
        return f"{{{left}}} | {{{right}}}"


def make_split(
    leading: Iterable[Summand], other: Iterable[Summand]
) -> ParameterSplit:
    """Split with canonical part order; ``leading`` holds the parent's first block."""
    a, b = tuple(leading), tuple(other)
    if _rank(b) > _rank(a):
        a, b = b, a
    return ParameterSplit(a, b)


def _at(items: Sequence, mask: int) -> tuple:
    """The items at the set bits of mask, lowest bit first."""
    return tuple(items[i] for i in range(mask.bit_length()) if mask >> i & 1)


def _subset_ranks(dims: Sequence[int]) -> list[int]:
    """Entry m is the sum of dims over the set bits of m, for m < 2^len(dims)."""
    ranks = [0]
    for d in dims:
        ranks += [rank + d for rank in ranks]
    return ranks


def _split_at(
    shape: ArthurShape, T: int, Tc: int
) -> tuple[tuple[Summand, ...], ParameterSplit]:
    """The blocks at mask T, and :func:`make_split` of them against those at Tc.

    Bit i of a mask stands for block i of the shape.
    """
    lead = _at(shape.summands, T)
    return lead, make_split(lead, _at(shape.summands, Tc))


def _datum_split(shape: ArthurShape, element: int) -> tuple[EndoscopicDatum, ParameterSplit]:
    """The datum and split under a sign-group element, bit i toggling block i + 1."""
    minus = element << 1
    split = _split_at(shape, ((1 << shape.r) - 1) ^ minus, minus)[1]
    return split.datum, split


def bijection(
    shape: ArthurShape,
) -> dict[BlockSignVector, tuple[EndoscopicDatum, ParameterSplit]]:
    """Sign-group elements <-> (endoscopic datum, block split).

    An element's minus-blocks (in the canonical representative) land on one
    factor and the plus-blocks on the other; the datum records the two ranks
    with n1 >= n2.  The identity maps to the improper datum with the trivial
    split.  The image has exactly 2^(r-1) entries, counted first against
    the chain cap.
    """
    group = centralizer_group(shape)
    refuse_above(
        group.order, "the sign table would hold {count} entries, above the cap {cap}"
    )
    return {group.to_sign_vector(e): _datum_split(shape, e) for e in group.elements}


def dominant_group(shape: ArthurShape) -> tuple[EndoscopicDatum, ParameterSplit]:
    """The datum and split sitting under the distinguished central sign.

    Blocks with even SL(2) dimension form one factor and those with odd
    dimension the other; for a shape with all dimensions of equal parity this
    is the improper datum with the trivial split.  Costs O(r): only the one
    entry of :func:`bijection` is built.
    """
    group = centralizer_group(shape)
    return _datum_split(shape, group.from_sign_vector(s_psi(shape)))


def kottwitz_sign_real(p: int, q: int) -> int:
    """Sign (-1)^(q(G) - q(G*)) of U(p, q): q(U(p, q)) = pq, quasisplit ceil*floor."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError(f"invalid signature ({p}, {q})")
    N = p + q
    return -1 if (p * q - (N // 2) * ((N + 1) // 2)) % 2 else 1


def kottwitz_sign_padic(rank_drop: int) -> int:
    """Sign (-1)^(rank drop) against the quasisplit inner form."""
    if rank_drop < 0:
        raise ValueError(f"rank drop must be nonnegative, got {rank_drop}")
    return -1 if rank_drop % 2 else 1


class InnerFormSpec(_Frozen):
    """Local data of a would-be global inner form.

    ``signatures`` lists (p_v, q_v) at the archimedean places;
    ``finite_flips`` names the finite places carrying the nontrivial local
    invariant, meaningful only in even total rank.
    """

    __slots__ = ("signatures", "finite_flips")

    def __init__(self, signatures: Iterable[tuple[int, int]],
                 finite_flips: Iterable[str] = frozenset()) -> None:
        signatures = tuple((p, q) for p, q in signatures)
        if any(type(x) is not int for pair in signatures for x in pair):
            raise ValueError(f"signature entries must be integers, got {signatures!r}")
        if isinstance(finite_flips, str):
            raise ValueError(f"finite_flips must name places, got {finite_flips!r}")
        object.__setattr__(self, "signatures", signatures)
        object.__setattr__(self, "finite_flips", frozenset(finite_flips))


def _validate_spec(spec: InnerFormSpec, N: int) -> None:
    if N < 1:
        raise ValueError(f"rank must be positive, got {N}")
    if not spec.signatures:
        raise ValueError("an inner form needs at least one archimedean signature")
    for p, q in spec.signatures:
        if p < 0 or q < 0 or p + q != N:
            raise ValueError(f"malformed signature ({p}, {q}) for rank {N}")
    if N % 2 == 1 and spec.finite_flips:
        raise ValueError("no finite invariant flips exist in odd rank")


def global_kottwitz_product(spec: InnerFormSpec, N: int) -> int:
    """Product of the local Kottwitz signs over all places of the spec.

    A flipped finite place is the non-quasisplit even-rank form, whose rank
    drops by one; unflipped finite places contribute +1.
    """
    _validate_spec(spec, N)
    sign = 1
    for p, q in spec.signatures:
        sign *= kottwitz_sign_real(p, q)
    for _ in spec.finite_flips:
        sign *= kottwitz_sign_padic(1)
    return sign


def check_inner_form(spec: InnerFormSpec, N: int) -> bool:
    """Whether the local collection glues to a global inner form of U(N).

    Odd rank: always.  Even rank: the local invariants (N/2 + q_v at the
    archimedean places, 1 at flipped finite places) must sum to 0 mod 2.
    Equivalently the global Kottwitz product is +1; both are computed and
    cross-checked.
    """
    _validate_spec(spec, N)
    product = global_kottwitz_product(spec, N)
    if N % 2 == 1:
        if product != 1:
            raise RuntimeError(f"odd rank {N} gave global Kottwitz product {product}")
        return True
    parity = (sum(N // 2 + q for _, q in spec.signatures) + len(spec.finite_flips)) % 2
    ok = parity == 0
    if (product == 1) != ok:
        raise RuntimeError(
            f"Kottwitz product {product} disagrees with invariant parity {parity}"
        )
    return ok


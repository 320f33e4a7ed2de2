"""Formal parameter shapes and their two-torsion centralizer algebra.

A shape is an ordered list of blocks, each pairing an opaque cuspidal label of
rank ``n`` with the ``m``-dimensional irreducible representation ``nu(m)`` of
SL(2); the total rank is ``N = sum(n_i * m_i)``.  Every shape is elliptic:
its blocks are conjugate self-dual, and the constructor refuses two with the
same label and ``m``.  So the centralizer of the image in the dual group has
component group ``(Z/2Z)^(r-1)``: one sign per block, modulo negating all of
them at once.  This module models that group concretely:
elements as sign vectors, characters as parity functionals on bit masks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .guards import _Frozen

__all__ = [
    "Summand",
    "ArthurShape",
    "BlockSignVector",
    "TwoGroup",
    "GroupChar",
    "centralizer_group",
    "s_psi",
    "from_cohomological",
]


def _is_exact_number(value) -> bool:
    """An ``int`` or a ``Fraction``: no bool, float, string or int subclass."""
    return type(value) is int or isinstance(value, Fraction)


class Summand(_Frozen):
    """One conjugate self-dual block ``label (x) nu(m)`` of rank ``n * m``."""

    # shapes hash and sort their blocks often, so the field tuple is kept
    __slots__ = ("label", "n", "m", "_values")

    def __init__(self, label: str, n: int, m: int) -> None:
        if type(label) is not str:
            raise ValueError(f"label must be a string, got {label!r}")
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"n and m must be integers, got n={n!r}, m={m!r}")
        if n < 1:
            raise ValueError(f"block rank must be positive, got n={n}")
        if m < 1:
            raise ValueError(f"SL(2) dimension must be positive, got m={m}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_values", (label, n, m))

    @property
    def block_dim(self) -> int:
        return self.n * self.m

    @property
    def key(self) -> tuple[str, int]:
        """Identity used for distinctness: the pair (label, m)."""
        return (self.label, self.m)

    def __str__(self) -> str:
        core = self.label if self.n == 1 else f"{self.label}[{self.n}]"
        return f"{core}*nu({self.m})"


class ArthurShape(_Frozen):
    """Formal sum of pairwise distinct blocks: the SL(2) shape of an elliptic
    parameter."""

    __slots__ = ("summands",)

    def __init__(self, summands: Iterable[Summand]) -> None:
        summands = tuple(summands)
        if not summands:
            raise ValueError("a shape needs at least one summand")
        object.__setattr__(self, "summands", summands)
        if len({s.key for s in summands}) != len(summands):
            raise ValueError(f"shape is not elliptic: {self}")

    @property
    def N(self) -> int:
        return sum(s.block_dim for s in self.summands)

    @property
    def r(self) -> int:
        return len(self.summands)

    def canonical(self) -> "ArthurShape":
        """Same shape with summands in sorted order (for use as a dict key)."""
        return ArthurShape(tuple(sorted(self.summands)))

    def __str__(self) -> str:
        return " + ".join(str(s) for s in self.summands)


class BlockSignVector(_Frozen):
    """Per-block signs modulo global negation.

    The canonical representative leads with +1, so two vectors are equal
    exactly when they agree componentwise or are componentwise opposite.
    """

    __slots__ = ("signs",)

    def __init__(self, signs: Iterable[int]) -> None:
        signs = tuple(signs)
        if not signs:
            raise ValueError("empty sign vector")
        if any(x not in (1, -1) for x in signs):
            raise ValueError(f"signs must be +1 or -1, got {signs}")
        if signs[0] == -1:
            signs = tuple(-x for x in signs)
        object.__setattr__(self, "signs", signs)

    def __len__(self) -> int:
        return len(self.signs)

    @property
    def is_identity(self) -> bool:
        return all(x == 1 for x in self.signs)

    @property
    def minus_indices(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.signs) if x == -1)

    def __str__(self) -> str:
        return "".join("+" if x == 1 else "-" for x in self.signs)


class TwoGroup(_Frozen):
    """Elementary abelian 2-group of the given rank.

    Elements are integers 0 .. 2**rank - 1 composed by XOR.  For the
    centralizer of a shape with r blocks the rank is r - 1 and bit i of an
    element toggles the sign of block i + 1 relative to block 0.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        object.__setattr__(self, "rank", rank)

    @property
    def order(self) -> int:
        return 1 << self.rank

    @property
    def elements(self) -> range:
        return range(self.order)

    def to_sign_vector(self, element: int) -> BlockSignVector:
        if not 0 <= element < self.order:
            raise ValueError(f"element {element} outside group of rank {self.rank}")
        return BlockSignVector(
            (1,) + tuple(-1 if element >> i & 1 else 1 for i in range(self.rank))
        )

    def from_sign_vector(self, vector: BlockSignVector) -> int:
        if len(vector) != self.rank + 1:
            raise ValueError(
                f"sign vector of length {len(vector)} does not match rank {self.rank}"
            )
        # canonical form leads with +1, so the minus positions determine the bits
        element = 0
        for i in vector.minus_indices:
            element |= 1 << (i - 1)
        return element

    def characters(self) -> list["GroupChar"]:
        return [GroupChar(self.rank, mask) for mask in self.elements]


class GroupChar(_Frozen):
    """Character s -> (-1)^<mask, s> of a TwoGroup of the given rank."""

    __slots__ = ("rank", "mask")

    def __init__(self, rank: int, mask: int) -> None:
        if not 0 <= mask < 1 << rank:
            raise ValueError(f"mask {mask} outside group of rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "mask", mask)

    def __call__(self, element: int) -> int:
        if not 0 <= element < 1 << self.rank:
            raise ValueError(f"element {element} outside group of rank {self.rank}")
        return -1 if (self.mask & element).bit_count() % 2 else 1


def centralizer_group(shape: ArthurShape) -> TwoGroup:
    """Component group of the centralizer of a shape: rank r - 1."""
    return TwoGroup(shape.r - 1)


def s_psi(shape: ArthurShape) -> BlockSignVector:
    """Image of the distinguished central element under the shape.

    nu(m) sends -I to (-1)^(m+1) times the identity, so the sign on a block
    is +1 for odd m and -1 for even m, taken modulo global negation.
    """
    return BlockSignVector(tuple(1 if s.m % 2 else -1 for s in shape.summands))


def from_cohomological(parts: Iterable[int] | Sequence[int]) -> ArthurShape:
    """Shape attached to an ordered partition (N_1, ..., N_r) of N.

    Each part becomes a block of rank one paired with nu(N_i); labels are
    fresh and pairwise distinct.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty partition")
    if any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"partition parts must be positive integers, got {parts}")
    return ArthurShape(
        tuple(Summand(f"c{i + 1}", 1, p) for i, p in enumerate(parts))
    )


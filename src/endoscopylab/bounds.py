"""Stable coefficients, the trace dominance inequality, and exponent derivations.

The discrete trace of a parameter is an exact double sum over the sign group:
stable coefficients C(psi, s) = iota(s) / |sign group of the split parameter|
against character-twisted packet traces.  For nonnegative traces every
twisted term is dominated by the term at the distinguished central sign,
giving I <= C(psi) * S_dominant with C(psi) the ratio of summed coefficients
to the dominant one.  Both sign-group sums are signed subset sums over the
ranks of the minus blocks, so neither lists the 2^(r-1) elements.  The
derivation engine composes that inequality with the refinement-chain
expansion, congruence transfer scaling, character counting, and limit
multiplicity growth into the closed exponent N(N - 2k).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .endoscopy import EndoscopicDatum, dominant_group, iota
from .guards import DEFAULT_CHAIN_GUARD, _Frozen, guard_limit, refuse_above
from .params import (
    ArthurShape,
    BlockSignVector,
    GroupChar,
    TwoGroup,
    _is_exact_number,
    centralizer_group,
    from_cohomological,
    s_psi,
)

if TYPE_CHECKING:
    from .hyperendoscopy import GroupSymbol

__all__ = [
    "PacketModel",
    "DerivationStep",
    "Derivation",
    "DominanceResult",
    "stable_coefficient",
    "coefficient_sum",
    "i_disc_model",
    "dominance_check",
    "derive_exponent",
    "savin_exponent",
    "random_packet",
]


class PacketModel(_Frozen):
    """Abstract packet: members (character, nonnegative trace) plus a sign
    character epsilon, all on a sign group of the given rank.

    The traces are also kept as int numerators over the lcm of their
    denominators, in ``_numerators`` and ``_den``; like every ``_`` slot
    these stay outside equality, the hash and the repr."""

    __slots__ = ("rank", "members", "epsilon", "_numerators", "_den")

    def __init__(self, rank: int, members: Iterable[tuple[GroupChar, Fraction | int]],
                 epsilon: GroupChar) -> None:
        if epsilon.rank != rank:
            raise ValueError("epsilon character has mismatched group rank")
        members = tuple(members)
        for chi, trace in members:
            if not _is_exact_number(trace):
                raise ValueError(f"traces must be int or Fraction, got {trace!r}")
            if chi.rank != rank:
                raise ValueError("member character has mismatched group rank")
            if trace.numerator < 0:  # a Fraction compare costs about 5x more
                raise ValueError(f"negative trace {trace} in packet")
        den = math.lcm(*(t.denominator for _, t in members))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(
            self, "_numerators", tuple(t.numerator * (den // t.denominator) for _, t in members)
        )
        object.__setattr__(self, "_den", den)


def random_packet(rng: random.Random, group: TwoGroup) -> PacketModel:
    """A random set of the group's characters with random traces and a random
    epsilon, drawn as masks from ``range(group.order)``, not from a list.

    The set may hold all 2^(r-1) characters, so a group above the chain cap
    raises :class:`GuardError` before anything is drawn from ``rng``.
    """
    refuse_above(
        group.order, "a random packet could hold {count} entries, above the cap {cap}"
    )
    masks = range(group.order)
    members = tuple(
        (GroupChar(group.rank, mask), Fraction(rng.randint(0, 9), rng.randint(1, 9)))
        for mask in rng.sample(masks, rng.randint(1, group.order))
    )
    return PacketModel(group.rank, members, GroupChar(group.rank, rng.choice(masks)))


def _numerator(N: int, n2: int) -> int:
    """C(psi, s) * 4 * 2^(r-1) for an element whose minus blocks have rank n2.

    The identity (n2 = 0) has the improper datum and the trivial split, whose
    sign group has order 2^(r-1).  Any other element splits the blocks into
    two nonempty parts of lengths l1 + l2 = r, whose sign group has order
    2^((l1-1)+(l2-1)) = 2^(r-2) whatever l1 and l2 are.  Over the common
    denominator 4 * 2^(r-1) the coefficient is therefore 4 * iota or 8 * iota.
    """
    datum = EndoscopicDatum(max(N - n2, n2), min(N - n2, n2))
    scaled = iota(datum) * (4 if n2 == 0 else 8)
    return scaled.numerator


def stable_coefficient(shape: ArthurShape, s: BlockSignVector) -> Fraction:
    """C(psi, s) = iota of the datum under s divided by the split sign-group order.

    Read off the minus blocks of s in O(r); the datum and the split are those
    of ``bijection(shape)[s]``.
    """
    group = centralizer_group(shape)
    if len(s) != shape.r:
        raise ValueError(f"sign vector {s} does not belong to the group of {shape}")
    n2 = sum(shape.summands[i].block_dim for i in s.minus_indices)
    return Fraction(_numerator(shape.N, n2), 4 << group.rank)


def _rank_classes(shape: ArthurShape) -> tuple[dict[int, int], int, int]:
    """Rank d -> mask of the blocks 1..r-1 of rank d (bit i is block i + 1),
    the entries one :func:`_signed_sum` visits, s_0 + ... + s_(r-2), and the
    most ranks it ends with, s_(r-1) <= min(2^(r-1), N - dim_0 + 1).  Before
    block i in class order its poly holds at most s_i <= min(2^i, D_i + 1)
    entries: s_0 = 1, s_(i+1) = min(2 * s_i, D_(i+1) + 1), where D_i is the
    rank sum of the blocks before block i."""
    classes: dict[int, int] = {}
    for i, s in enumerate(shape.summands[1:]):
        classes[s.block_dim] = classes.get(s.block_dim, 0) | 1 << i
    passes, size, reach = 0, 1, 0
    for d, mask in classes.items():
        for _ in range(mask.bit_count()):
            passes, reach = passes + size, reach + d
            size = min(2 * size, reach + 1)
    return classes, passes, size


def _signed_sum(numerator: Callable[[int], int], classes: dict[int, int], m: int) -> int:
    """C^[m] * 4 * 2^(r-1), the sign-group transform of the coefficients at m:
    sum_n2 numerator(n2) * [x^n2] prod_d (1 - x^d)^k (1 + x^d)^(c - k),
    where m flips k of the c blocks of rank d."""
    poly = {0: 1}  # poly[n2]: signed count of subsets of blocks 1..r-1 of rank n2
    for d, mask in classes.items():
        flipped = (m & mask).bit_count()
        for j in range(mask.bit_count()):
            sign = -1 if j < flipped else 1
            for n2, v in list(poly.items()):
                poly[n2 + d] = poly.get(n2 + d, 0) + sign * v
    return sum(v * numerator(n2) for n2, v in poly.items())


def coefficient_sum(shape: ArthurShape) -> Fraction:
    """sum over the sign group of C(psi, s), one term per reachable minus rank.

    The minus blocks of an element are a subset of blocks 1..r-1 and its
    coefficient depends only on their total rank, so a count of those
    subsets by rank (C^[0] of :func:`i_disc_model`) replaces the walk over
    all 2^(r-1) elements.  The count holds at most min(2^(r-1), N - dim_0 + 1)
    ranks (:func:`_rank_classes`), which is refused above the chain cap first.
    """
    group = centralizer_group(shape)
    classes, _, ranks = _rank_classes(shape)
    refuse_above(
        ranks, "the coefficient sum would count up to {count} minus ranks, above the cap {cap}"
    )
    return Fraction(_signed_sum(partial(_numerator, shape.N), classes, 0), 4 << group.rank)


def i_disc_model(shape: ArthurShape, packet: PacketModel) -> Fraction:
    """Exact double sum: coefficients against character values at s_psi * s.

    With m = chi.mask ^ epsilon.mask the double sum is
    sum_chi t_chi * (-1)^<m, s_psi> * C^(m), where C^ is the sign-group
    transform of the coefficients.  C^(m) depends on m only through how many
    blocks of each rank it flips, so one signed subset sum per such count
    tuple, kept for this call, replaces a 2^(r-1)-entry table.  The members
    are summed as the packet's int numerators over its common denominator,
    and divided once.  The work is counted first and refused above the chain
    cap.
    """
    group = centralizer_group(shape)
    if packet.rank != group.rank:
        raise ValueError(
            f"packet rank {packet.rank} does not match group rank {group.rank}"
        )
    classes, passes, _ = _rank_classes(shape)
    members = len(packet.members)
    tuples = math.prod(mask.bit_count() + 1 for mask in classes.values())
    refuse_above(
        members + min(members, tuples) * passes,
        "the discrete trace would take {count} summing steps, above the cap {cap}",
    )
    sp = group.from_sign_vector(s_psi(shape))
    eps = packet.epsilon.mask
    of_rank = cache(partial(_numerator, shape.N))  # one call per minus rank
    transform: dict[tuple[int, ...], int] = {}
    total = 0
    for (chi, _), numerator in zip(packet.members, packet._numerators):
        m = chi.mask ^ eps
        flips = tuple((m & mask).bit_count() for mask in classes.values())
        if flips not in transform:
            transform[flips] = _signed_sum(of_rank, classes, m)
        term = numerator * transform[flips]
        total += -term if (m & sp).bit_count() % 2 else term
    return Fraction(total, packet._den * (4 << group.rank))


class DominanceResult(NamedTuple):
    i_value: Fraction
    s_dominant: Fraction
    c_psi: Fraction
    holds: bool


def dominance_check(shape: ArthurShape, packet: PacketModel) -> DominanceResult:
    """I against C(psi) times the dominant stable term; exact comparison.

    At s = s_psi the twist is trivial (all signs +1), so the dominant term
    is the plain trace sum; every other term is bounded by it when traces
    are nonnegative.  Both sums count their work first and refuse it above
    the chain cap; neither builds a 2^(r-1)-entry table.  Both read the
    traces over the common denominator the packet keeps.
    """
    i_value = i_disc_model(shape, packet)
    c_dom = stable_coefficient(shape, s_psi(shape))
    s_dominant = c_dom * Fraction(sum(packet._numerators), packet._den)
    c_psi = coefficient_sum(shape) / c_dom
    return DominanceResult(i_value, s_dominant, c_psi, i_value <= c_psi * s_dominant)


class DerivationStep(_Frozen):
    __slots__ = ("name", "claim", "justification", "value")

    def __init__(self, name: str, claim: str, justification: str, value: Fraction | int) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "justification", justification)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class Derivation:
    """Step-by-step exponent derivation; every value is recomputed.  (A
    dataclass: the bench tests build wrong ones with ``dataclasses.replace``.)"""

    steps: tuple[DerivationStep, ...]
    chain_exponents: tuple[tuple[GroupSymbol, int], ...]
    final: int
    max_matches_dominant: bool


def _partitions(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    top = min(n, max_part) if max_part is not None else n
    for p in range(top, 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def _partition_count(n: int, cap: int) -> int:
    """p(n) by Euler's pentagonal recurrence, stopping early above ``cap``.

    p is nondecreasing, so the first p(m) > cap with m <= n is returned as a
    lower bound for p(n) that already exceeds the cap; the work is
    O(min(n, m)^1.5) integer additions either way.
    """
    p = [1]
    for m in range(1, n + 1):
        total, j = 0, 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > m:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[m - g]
            if g + j <= m:
                total += sign * p[m - g - j]
            j += 1
        p.append(total)
        if total > cap:
            break
    return p[-1]


def savin_exponent(group: GroupSymbol) -> int:
    """Volume growth exponent dim(group) - 1 = sum of squared ranks minus one."""
    return group.dim - 1


def derive_exponent(N: int, a: int, k: int) -> Derivation:
    """Exponent derivation for level growth on U(a, b), b = N - a.

    The parameter family has SL(2) shape nu(2k) + nu(1)^(N-2k); the dominant
    endoscopic product is U(2k) x U(N-2k) with the even block on the first
    factor.  Each refinement chain of the second factor with terminal ranks
    lambda contributes exponent (N^2 - (2k)^2 + sum(lambda_j^2))/2, maximal
    at the unrefined dominant group where it equals N(N - 2k).

    The table has one row per partition of N - 2k; above the chain cap the
    derivation raises :class:`GuardError` before building anything.
    """
    # imported here, so that dominance loads neither module
    from .cohomology import lowest_degree
    from .hyperendoscopy import GroupSymbol
    if not 1 <= k <= N // 2:
        raise ValueError(f"need 1 <= k <= {N // 2}, got k={k}")
    if not 0 <= a <= N // 2:
        raise ValueError(f"need 0 <= a <= {N // 2}, got a={a}")
    rank_even_block = 2 * k
    rank_odd_block = N - rank_even_block
    rows = _partition_count(rank_odd_block, guard_limit(DEFAULT_CHAIN_GUARD))
    refuse_above(
        rows,
        "the chain table of derive would hold p({n}) >= {count} rows, above the cap {cap}",
        n=rank_odd_block,
    )
    b = N - a
    i0 = lowest_degree(a, b, k)
    shape = from_cohomological((rank_even_block,) + (1,) * rank_odd_block)
    c_psi = coefficient_sum(shape) / stable_coefficient(shape, s_psi(shape))

    steps = [
        DerivationStep(
            "packet",
            f"count cohomological forms on U({a},{b}) with SL(2) shape "
            f"nu({rank_even_block}) + nu(1)^{rank_odd_block}; first nonzero "
            f"cohomology degree {i0}",
            "minimum of ab - sum(a_i*b_i) over the packet of the reordered "
            "partition; closed form a(N-2k) for a <= k, a(N-a) - k^2 above",
            i0,
        ),
        DerivationStep(
            "spectral",
            "the family's discrete trace equals its full spectral contribution",
            "a regular infinitesimal character at infinity kills every proper "
            "Levi term of the discrete trace expansion",
            0,
        ),
        DerivationStep(
            "dominance",
            f"trace sum <= C * dominant stable term with C = {c_psi}",
            "with nonnegative traces each character-twisted term is bounded by "
            "the untwisted one; C is the ratio of summed stable coefficients "
            "to the dominant coefficient",
            c_psi,
        ),
    ]

    table = []
    for lam in _partitions(rank_odd_block):
        dim2 = sum(x * x for x in lam)
        if dim2 > rank_odd_block**2:
            raise RuntimeError(f"terminal ranks {lam} exceed the odd block")
        exponent = (N * N - rank_even_block**2 + dim2) // 2
        table.append((GroupSymbol((rank_even_block,) + lam), exponent))
    table.sort(key=lambda te: (-te[1], te[0].ranks))
    final = table[0][1]
    max_matches = final == N * (N - 2 * k)

    if rank_odd_block == 0:
        # single-block parameter: the one row is U(N) itself, exponent 0
        steps.append(
            DerivationStep(
                "bounded",
                f"the nu({N}) family transfers to one-dimensional data with "
                "level-independent multiplicity",
                "a single block admits no proper refinement and its members "
                "are characters, so the count is bounded in the level",
                0,
            )
        )
    else:
        datum, split = dominant_group(shape)
        iota_val = iota(datum)
        d_gap = (
            N * N - rank_even_block**2 - rank_odd_block**2
        ) // 2
        savin = savin_exponent(GroupSymbol((rank_odd_block,)))
        dominant_exponent = d_gap + 1 + savin
        # composition identity 2k(N-2k) + 1 + ((N-2k)^2 - 1) = N(N-2k)
        if dominant_exponent != N * (N - 2 * k):
            raise RuntimeError(
                f"dominant composition gave {dominant_exponent}, not N(N - 2k)"
            )
        steps.extend(
            [
                DerivationStep(
                    "dominant_group",
                    f"the dominant stable term lives on U({rank_even_block})x"
                    f"U({rank_odd_block}) with leading factor {iota_val}",
                    "the distinguished central sign separates blocks by SL(2) "
                    "parity: the even-dimensional block on one factor, the "
                    "odd units on the other",
                    iota_val,
                ),
                DerivationStep(
                    "chains",
                    f"the stable term expands over {len(table)} terminal rank "
                    f"patterns; the nu({rank_even_block}) factor never refines",
                    "a refinement step separates whole blocks and a single "
                    "block cannot split",
                    len(table),
                ),
                DerivationStep(
                    "transfer",
                    f"congruence transfer to the dominant group rescales the "
                    f"count by the level to the power d = {d_gap}",
                    "half the dimension gap between the group and its "
                    "endoscopic product governs the index of the transferred "
                    "congruence subgroup",
                    d_gap,
                ),
                DerivationStep(
                    "characters",
                    "central character families at the level grow with exponent 1",
                    "characters of the norm-one torus with conductor dividing "
                    "the level form a family of linear size",
                    1,
                ),
                DerivationStep(
                    "growth",
                    f"discrete-series multiplicities on the U({rank_odd_block}) "
                    f"side grow with exponent dim - 1 = {savin}",
                    "limit multiplicity of discrete series is proportional to "
                    "the congruence covolume",
                    savin,
                ),
                DerivationStep(
                    "bounded",
                    "all remaining factors are level-independent",
                    "one-dimensional members on the even-block side, finitely "
                    "many chain terms, and uniform transfer constants",
                    0,
                ),
                DerivationStep(
                    "maximum",
                    f"each chain term has exponent (N^2 - {rank_even_block**2} "
                    f"+ sum of squared terminal ranks)/2; largest value "
                    f"{final}, dominant-group term {dominant_exponent}",
                    "refining the odd-block factor strictly decreases the sum "
                    "of squared ranks",
                    final,
                ),
                DerivationStep(
                    "exponent",
                    f"total exponent {final}; the dominant composition "
                    f"{d_gap} + 1 + {savin} equals N(N - 2k) = "
                    f"{N}*{N - 2 * k}",
                    "transfer gap plus character count plus multiplicity "
                    "growth; the chain maximum is the reported exponent",
                    final,
                ),
            ]
        )

    return Derivation(
        steps=tuple(steps),
        chain_exponents=tuple(table),
        final=final,
        max_matches_dominant=max_matches,
    )

"""Expected values the benchmark derives on its own, and one checker per op.

Every checker takes the op's inputs and the program's answer and returns
``(ok, items)``: whether the answer matches what this module computes
independently, and the output size recorded in the trace.  None of this
code imports endoscopylab; answers are read through their public
attributes only.  Checks run outside the timed span of an op.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    """Number of set partitions of n blocks (terms of a stable expansion)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int | None = None) -> int:
    """p(n): partitions of n into parts of size at most ``max_part``."""
    top = n if max_part is None else min(n, max_part)
    if n == 0:
        return 1
    return sum(partition_count(n - p, p) for p in range(1, top + 1))


@lru_cache(maxsize=None)
def chain_count(r: int) -> int:
    """Refinement forests over r distinct blocks on one factor.

    The split that holds the leading block together with j - 1 others is
    chosen in C(r-1, j-1) ways, and each side refines independently.
    """
    if r <= 1:
        return 1
    return 1 + sum(
        comb(r - 1, j - 1) * chain_count(j) * chain_count(r - j) for j in range(1, r)
    )


def packet_size(parts: tuple[int, ...], a: int) -> int:
    """Number of (a_1, ..., a_r) with 0 <= a_i <= N_i and sum a_i = a."""
    ways = [1] + [0] * a
    for n in parts:
        nxt = [0] * (a + 1)
        for total, count in enumerate(ways):
            if count:
                for x in range(min(n, a - total) + 1):
                    nxt[total + x] += count
        ways = nxt
    return ways[a]


def cell_count(pairs) -> int:
    """Cells of the product of Grassmannians: the Poincare polynomial at t = 1."""
    return prod(comb(x + y, x) for x, y in pairs)


def degree_r(pairs) -> int:
    a = sum(x for x, _ in pairs)
    b = sum(y for _, y in pairs)
    return a * b - sum(x * y for x, y in pairs)


def s_psi_mask(parts: tuple[int, ...]) -> int:
    """Group element of the central sign: block i > 0 flips when its parity
    differs from block 0 (a block's sign is -1 exactly for even m)."""
    mask = 0
    for i, m in enumerate(parts[1:]):
        if m % 2 != parts[0] % 2:
            mask |= 1 << i
    return mask


def _iota(n1: int, n2: int) -> Fraction:
    if n2 == 0:
        return Fraction(1)
    return Fraction(1, 4) if n1 == n2 else Fraction(1, 2)


def stable_sum(parts: tuple[int, ...]) -> Fraction:
    """Sum of C(psi, s) over the sign group of a cohomological shape."""
    r = len(parts)
    total = Fraction(0)
    for element in range(1 << (r - 1)):
        minus = [parts[i + 1] for i in range(r - 1) if element >> i & 1]
        if not minus:
            total += Fraction(1, 1 << (r - 1))
            continue
        plus_rank = sum(parts) - sum(minus)
        n1, n2 = max(plus_rank, sum(minus)), min(plus_rank, sum(minus))
        total += _iota(n1, n2) / (1 << (r - 2))
    return total


def dominant_iota(parts: tuple[int, ...]) -> Fraction:
    """iota of the datum under the central sign: even blocks against odd ones."""
    even = sum(m for m in parts if m % 2 == 0)
    odd = sum(parts) - even
    return _iota(max(even, odd), min(even, odd))


def _dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


# --- exponent -------------------------------------------------------------


def check_derive(N: int, a: int, k: int, d) -> tuple[bool, int]:
    rows = len(d.chain_exponents)
    ok = (
        d.final == N * (N - 2 * k)
        and d.max_matches_dominant
        and rows == partition_count(N - 2 * k)
    )
    return ok, rows


def check_characters(parts: tuple[int, ...], values: list[int]) -> tuple[bool, int]:
    sp = s_psi_mask(parts)
    expected = [
        -1 if (mask & sp).bit_count() % 2 else 1 for mask in range(1 << (len(parts) - 1))
    ]
    return values == expected, len(values)


def check_bijection(parts: tuple[int, ...], table: dict) -> tuple[bool, int]:
    N = sum(parts)
    ok = len(table) == 1 << (len(parts) - 1) and all(
        datum.N == N for datum, _ in table.values()
    )
    return ok, len(table)


def check_stable_sum(parts: tuple[int, ...], total: Fraction) -> tuple[bool, int]:
    return total == stable_sum(parts), 1 << (len(parts) - 1)


def check_dominance(members: int, result) -> tuple[bool, int]:
    return bool(result.holds), members


# --- refinement -----------------------------------------------------------


def check_expansion(blocks, dist, shape) -> tuple[bool, int]:
    """Bell(r) terms, unit coefficient on the unrefined term, dyadic coefficients."""
    ok = (
        len(dist) == bell(len(blocks))
        and dist.coefficient((shape,)) == 1
        and all(_dyadic(c) for _, c in dist.items())
    )
    return ok, len(dist)


def check_dominant(blocks, dist, shape, factors) -> tuple[bool, int]:
    """Identity central sign: the full expansion.  Otherwise the even and odd
    blocks expand independently under the leading iota factor."""
    parts = tuple(m for _, m in blocks)
    if factors is None:
        return check_expansion(blocks, dist, shape)
    even = sum(1 for m in parts if m % 2 == 0)
    ok = (
        len(dist) == bell(even) * bell(len(parts) - even)
        and dist.coefficient(factors) == dominant_iota(parts)
        and all(_dyadic(c) for _, c in dist.items())
    )
    return ok, len(dist)


def check_chains(blocks, chains) -> tuple[bool, int]:
    return len(chains) == chain_count(len(blocks)), len(chains)


def check_verify(blocks, holds) -> tuple[bool, int]:
    return holds is True, bell(len(blocks))


# --- packets --------------------------------------------------------------


def check_packet(parts: tuple[int, ...], a: int, members) -> tuple[bool, int]:
    ok = len(members) == packet_size(parts, a) and all(
        tuple(x + y for x, y in B.pairs) == parts and B.a == a for B in members
    )
    return ok, len(members)


def check_poincare(pairs, poly) -> tuple[bool, int]:
    ok = poly(1) == cell_count(pairs) and poly.low_degree == degree_r(pairs)
    return ok, len(poly.coeffs)


def check_brute(reference, poly) -> tuple[bool, int]:
    return poly == reference, len(poly.coeffs)


def _mixed(pairs) -> tuple[int, int]:
    (pair,) = [(x, y) for x, y in pairs if x and y]
    return pair


def expected_p_bound(pairs) -> Fraction | None:
    N = sum(x + y for x, y in pairs)
    N_k = sum(_mixed(pairs))
    return None if N_k == N else Fraction(2 * (N - 1), N - N_k)


def check_p_bound(pairs, bound) -> tuple[bool, int]:
    return bound == expected_p_bound(pairs), 1


def check_ratio_profile(pairs, profile) -> tuple[bool, int]:
    N = sum(x + y for x, y in pairs)
    x, y = _mixed(pairs)
    c = min(sum(p for p, _ in pairs), sum(q for _, q in pairs))
    expected = [
        Fraction(x + y - j, N - j) if j <= min(x, y) else Fraction(0)
        for j in range(1, c + 1)
    ]
    ok = list(profile.ratios) == expected and profile.p_bound == expected_p_bound(pairs)
    return ok, len(profile.ratios)

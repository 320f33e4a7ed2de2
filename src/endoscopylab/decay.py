"""Matrix-coefficient decay profiles and the Sarnak-Xue exponent comparison.

For a bipartition with a single mixed pair of size N_k, the decay of
K-finite matrix coefficients is controlled by the ratios
(N_k - j)/(N - j) over the first c_k fundamental weights, giving the
integrability bound p <= 2(N - 1)/(N - N_k).  Everything is exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .guards import _Frozen, refuse_above

if TYPE_CHECKING:
    from .cohomology import Bipartition

__all__ = ["DecayProfile", "SxResult", "ratio_profile", "p_bound_of_bipartition", "sx_check"]


class DecayProfile(_Frozen):
    """Exact decay data; ``p_bound`` is None when no finite bound exists."""

    __slots__ = ("ratios", "p_bound")

    def __init__(self, ratios: tuple[Fraction, ...], p_bound: Fraction | None) -> None:
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "p_bound", p_bound)


def ratio_profile(N: int, N_k: int, c: int, c_k: int) -> DecayProfile:
    """Ratios (N_k - j)/(N - j) for j = 1..c, zero past c_k.

    ``c_k`` is the smaller side of the mixed pair (so c_k <= N_k / 2) and
    ``c`` the smaller side of the full signature, c >= c_k.  The ratios are
    nonincreasing with maximum (N_k - 1)/(N - 1) at j = 1; the bound is
    p = 2(N - 1)/(N - N_k), unbounded when N_k = N.  The c ratios are
    refused above the chain cap before any is built.
    """
    if not 1 <= N_k <= N:
        raise ValueError(f"need 1 <= N_k <= N, got N_k={N_k}, N={N}")
    if c_k < 0 or c < c_k:
        raise ValueError(f"need 0 <= c_k <= c, got c_k={c_k}, c={c}")
    if c_k > N_k // 2:
        raise ValueError(f"c_k={c_k} exceeds half the mixed pair size {N_k}")
    refuse_above(c, "the decay profile would hold {count} ratios, above the cap {cap}")
    ratios = tuple(
        Fraction(N_k - j, N - j) if j <= c_k else Fraction(0) for j in range(1, c + 1)
    )
    p_bound = None if N_k == N else Fraction(2 * (N - 1), N - N_k)
    return DecayProfile(ratios, p_bound)


def p_bound_of_bipartition(B: Bipartition) -> Fraction | None:
    """Integrability bound 2(N - 1)/(N - N_k) for the unique mixed pair.

    Raises unless exactly one pair of B has both entries positive; returns
    None (unbounded) when that pair is the whole signature.
    """
    mixed = [(x, y) for x, y in B.pairs if x >= 1 and y >= 1]
    if len(mixed) != 1:
        raise ValueError(
            f"decay bound needs exactly one mixed pair, found {len(mixed)} "
            f"among {len(B.pairs)} pairs"
        )
    N = B.N
    N_k = sum(mixed[0])
    if N_k == N:
        return None
    return Fraction(2 * (N - 1), N - N_k)


class SxResult(NamedTuple):
    theorem_exponent: int
    sx_exponent: int
    holds: bool


def sx_check(N: int, k: int) -> SxResult:
    """Compare the proved exponent N(N - 2k) with the allowance (N + 1)(N - 2k).

    The allowance is (N^2 - 1)(N - 2k)/(N - 1): volume exponent N^2 - 1 times
    the decay rate (N - 2k)/(N - 1); it is an exact integer.
    """
    if N < 2:
        raise ValueError(f"rank must be at least 2, got {N}")
    if not 1 <= k <= N // 2:
        raise ValueError(f"need 1 <= k <= {N // 2}, got k={k}")
    theorem = N * (N - 2 * k)
    sx = Fraction((N * N - 1) * (N - 2 * k), N - 1)
    if sx.denominator != 1:
        raise RuntimeError(f"allowance {sx} is not an integer")
    return SxResult(theorem, int(sx), theorem <= int(sx))

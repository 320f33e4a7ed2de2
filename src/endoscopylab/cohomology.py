"""Bipartitions, packets, and Poincare polynomials of (g, K)-cohomology.

A bipartition B = ((a_1, b_1), ..., (a_r, b_r)) with sum a_i = a, sum b_i = b
indexes a cohomological representation of U(a, b).  Its cohomology starts in
degree R = ab - sum(a_i b_i) and the Poincare polynomial is t^R times the
product of Gaussian binomials [a_i + b_i choose a_i] evaluated at t^2, i.e.
the cohomology of a product of complex Grassmannians shifted by R.

:func:`poincare_poly` works over q = t^2 in plain ``int`` lists.  The
polynomial depends only on R and the mixed pairs (a_i, b_i both positive; a
one-sided pair's factor is 1), so it is memoized under (R, sorted mixed
pairs) and the members of a packet share one object per key; a hit skips the
guards, as the Gaussian binomials' own cache does.  Each
:class:`Bipartition` carries that key: the public constructor computes it in
its one pass over the pairs, and :func:`enumerate_bipartitions` keeps R and
the mixed pairs as it walks and builds each member with its key through the
private ``Bipartition._walked``, which skips the re-check of pairs the walk
took from checked options.  So a call on a member is one lookup.
:func:`degree_R`, :func:`brute_poincare` and the decay bounds read the
pairs, never the key.  On a miss the degree is held to the brute-force cap
first: a polynomial on U(a, b) has degree ab + sum(a_i b_i) >= ab, so ab is
refused above the cap before any list is built.  Then the cached Gaussian
binomials of the mixed pairs are convolved, the product is written into
every other coefficient from degree R on, and the list goes through the
:class:`PoincarePoly` constructor and its check.  The oracle
:func:`brute_poincare` shares none of that code but the degree guard: it
counts the partitions in every a_i x b_i box by area (the Schubert cells),
one-sided boxes included, and multiplies those counts with a loop of its
own, so the two are independent computations of the same polynomial.  It
too works in int lists and builds one :class:`PoincarePoly`, since building
a polynomial object per pair cost more than the counting.

:func:`gaussian_binomial` uses the product formula instead of the Pascal
recurrence, so no path recurses deeper than the short side of a box, and it
counts its work on a cache miss and refuses above the chain cap.  Packet
enumeration counts its members first, refuses above the chain cap, and then
lists them without recursion, however many parts the partition has.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, Sequence

from .guards import DEFAULT_BRUTE_GUARD, _Frozen, refuse_above

__all__ = [
    "Bipartition",
    "PoincarePoly",
    "enumerate_bipartitions",
    "degree_R",
    "lowest_degree",
    "gaussian_binomial",
    "poincare_poly",
    "brute_poincare",
    "bipartition_to_json",
    "bipartition_from_json",
]


def _exact_ints(values: Iterable) -> bool:
    """Every value is a plain ``int``: no bool, float, string or int subclass."""
    return {int}.issuperset(map(type, values))


class Bipartition(_Frozen):
    """Ordered pairs (a_i, b_i), none equal to (0, 0).

    ``_key`` is the Poincare memo key (R, sorted mixed pairs), a function of
    the pairs; only ``pairs`` is compared, hashed or printed.
    """

    __slots__ = ("pairs", "_key")

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = tuple((x, y) for x, y in pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("a bipartition needs at least one pair")
        if not _exact_ints(chain.from_iterable(pairs)):
            raise ValueError(f"pair entries must be integers, got {pairs!r}")
        a = b = cross = 0
        mixed = []
        for x, y in pairs:
            if x < 0 or y < 0:
                raise ValueError(f"negative entry in pair ({x}, {y})")
            if x == 0 and y == 0:
                raise ValueError("(0, 0) pairs are not allowed")
            a += x
            b += y
            if x and y:
                cross += x * y
                mixed.append((x, y))
        mixed.sort()
        object.__setattr__(self, "_key", (a * b - cross, tuple(mixed)))

    @classmethod
    def _walked(
        cls, pairs: tuple[tuple[int, int], ...], key: tuple
    ) -> "Bipartition":
        """A member built by the packet walk from its checked pairs and key.

        The pairs come from the walk's checked options and the key from its
        running sums, so neither is checked again here.
        """
        B = object.__new__(cls)
        object.__setattr__(B, "pairs", pairs)
        object.__setattr__(B, "_key", key)
        return B

    @property
    def a(self) -> int:
        return sum(x for x, _ in self.pairs)

    @property
    def b(self) -> int:
        return sum(y for _, y in self.pairs)

    @property
    def N(self) -> int:
        return self.a + self.b

    @property
    def is_reduced(self) -> bool:
        """Every one-sided pair is a unit (1,0) or (0,1)."""
        return all(x + y == 1 for x, y in self.pairs if x == 0 or y == 0)

    def __str__(self) -> str:
        return "".join(f"({x},{y})" for x, y in self.pairs)


class PoincarePoly(_Frozen):
    """Polynomial with integer coefficients; index = degree in t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)
        if not _exact_ints(coeffs):
            raise ValueError(f"coefficients must be integers, got {coeffs!r}")
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the top term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def low_degree(self) -> int:
        """Degree of the bottom nonzero term; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def shift(self, k: int) -> "PoincarePoly":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero:
            return self
        return PoincarePoly((0,) * k + self.coeffs)

    def __call__(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def is_palindromic(self) -> bool:
        """Coefficients symmetric about the midpoint of the nonzero support."""
        if self.is_zero:
            return True
        lo, hi = self.low_degree, self.degree
        body = self.coeffs[lo : hi + 1]
        return body == body[::-1]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(terms)


def enumerate_bipartitions(a: int, b: int, P: tuple[int, ...]) -> list[Bipartition]:
    """Bipartitions of (a, b) compatible with P, the members of its packet.

    P is an ordered partition: a non-empty tuple of positive ints.  Members
    have a_i + b_i = N_i in order and sum a_i = a; the first coordinates run
    in decreasing lexicographic order.  The members are counted first; above
    the chain cap the call raises :class:`GuardError` before building any.
    The walk keeps its state in one list of chosen pairs, so no length of P
    makes it recurse.  Beside it, the walk keeps the R and mixed pairs of
    the Poincare memo key, so it builds each member once, through the
    private ``Bipartition._walked``, without checking its pairs again.
    """
    if a < 0 or b < 0:
        raise ValueError(f"signature entries must be nonnegative, got ({a}, {b})")
    if a + b < 1:
        raise ValueError("a + b must be positive")
    parts = tuple(P)
    if not parts:
        raise ValueError("empty partition")
    if not _exact_ints(parts) or any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive integers, got {parts}")
    if sum(parts) != a + b:
        raise ValueError(
            f"partition {parts} has size {sum(parts)}, cannot fill ({a}, {b})"
        )
    windows = _packet_windows(parts, a)
    refuse_above(
        _packet_count(parts, windows),
        "the packet would hold {count} members, above the cap {cap}",
    )
    # one (a_i, b_i) tuple per position and feasible a_i, shared by every
    # member: options[i][a_i] for a_i from max(0, N_i - b) to min(N_i, a)
    options = [
        {x: (x, n - x) for x in range(max(0, n - b), min(n, a) + 1)} for n in parts
    ]
    ab, last = a * b, len(parts) - 1
    out: list[Bipartition] = []
    chosen: list[tuple[int, int]] = []  # the pairs of the first positions
    s = 0  # their sum of a_i, inside the window of the last one
    # beside chosen, for the memo key: the mixed pairs among the chosen ones
    # and R, ab minus their a_i * b_i (zero for a one-sided pair)
    R = ab
    mixed: list[tuple[int, int]] = []
    i, x = 0, min(parts[0], windows[0][1])
    while True:
        # place a_i = x, then fill the open positions, each with the largest
        # a_i its window allows
        while True:
            pair = options[i][x]
            chosen.append(pair)
            y = pair[1]
            if x and y:
                mixed.append(pair)
                R -= x * y
            s += x
            if i == last:
                break
            i += 1
            x = min(parts[i], windows[i][1] - s)
        key = (R, tuple(sorted(mixed) if len(mixed) > 1 else mixed))
        out.append(Bipartition._walked(tuple(chosen), key))
        # back up to the last position whose a_i can still fall by one
        while True:
            x, y = chosen.pop()
            if x and y:
                mixed.pop()
                R += x * y
            s -= x
            if x and s + x > windows[i][0]:
                x -= 1
                break
            if not i:
                return out
            i -= 1


def _packet_windows(parts: tuple[int, ...], a: int) -> list[tuple[int, int]]:
    """Range [lo, hi] of a_1 + ... + a_i over the members, for each i.

    After i parts the partial sum lies in [max(0, a - suffix_i), min(a, prefix_i)],
    and each sum there extends to a member, so a window wider than the chain
    cap is refused, as a lower bound on the count, before any list is built.
    """
    total = sum(parts)
    windows = [(max(0, a - total + p), min(a, p)) for p in accumulate(parts)]
    refuse_above(
        max(hi - lo + 1 for lo, hi in windows),
        "the packet would hold >= {count} members, above the cap {cap}",
    )
    return windows


def _packet_count(parts: tuple[int, ...], windows: list[tuple[int, int]]) -> int:
    """Number of (a_i) with 0 <= a_i <= N_i and partial sums in the windows.

    O(r * window): one count per partial sum in the current window.
    """
    ways, base = [1], 0  # ways[s - base] over the current window
    for n, (lo, hi) in zip(parts, windows):
        # Each new entry sums ways[s - n .. s], kept as a sliding window.
        start, size = lo - base, len(ways)
        window = sum(ways[max(0, start - n) : start + 1])
        nxt = []
        for j in range(start + 1, hi - base + 2):
            nxt.append(window)
            if j < size:
                window += ways[j]
            if j > n:
                window -= ways[j - n - 1]
        ways, base = nxt, lo
    return ways[0]


def degree_R(B: Bipartition) -> int:
    """Lowest cohomological degree of the representation indexed by B."""
    return B.a * B.b - sum(x * y for x, y in B.pairs)


def lowest_degree(a: int, b: int, k: int) -> int:
    """Minimal positive-split degree over the packet of (2k, 1, ..., 1).

    Closed form: a(N - 2k) when a <= k, else a(N - a) - k^2, for N = a + b,
    a <= b, and 1 <= k <= floor(N / 2).
    """
    if a < 0 or b < a:
        raise ValueError(f"need 0 <= a <= b, got ({a}, {b})")
    N = a + b
    if not 1 <= k <= N // 2:
        raise ValueError(f"need 1 <= k <= {N // 2}, got k={k}")
    if a <= k:
        return a * (N - 2 * k)
    return a * (N - a) - k * k


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> PoincarePoly:
    """Gaussian binomial [n choose k]_q by the product formula.

    [n choose k] = prod over i = 1..m of (1 - q^(n-m+i)) / (1 - q^i) with
    m = min(k, n - k), in one int list: each step multiplies by one binomial
    and divides exactly by the other, so nothing recurses.  On a cache miss
    the work, m * k * (n - k) coefficient updates up to a constant, is
    counted first and refused above the chain cap with :class:`GuardError`.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    m = min(k, n - k)
    refuse_above(
        m * k * (n - k),
        "the Gaussian binomial [{n} choose {k}] would take {count} "
        "coefficient updates, above the cap {cap}",
        n=n,
        k=k,
    )
    # room for the product before the last division: degree m(n-m) + m
    coeffs = [1] + [0] * (m * (n - m) + m)
    top = 0  # degree of the running quotient
    for i in range(1, m + 1):
        shift = n - m + i
        for j in range(top + shift, shift - 1, -1):  # times (1 - q^shift)
            coeffs[j] -= coeffs[j - shift]
        top += n - m
        for j in range(i, top + 1):  # divided by (1 - q^i), exactly
            coeffs[j] += coeffs[j - i]
        for j in range(top + 1, top + i + 1):
            coeffs[j] = 0
    return PoincarePoly(tuple(coeffs[: top + 1]))


def poincare_poly(B: Bipartition) -> PoincarePoly:
    """t^R times the product over pairs of [a_i + b_i choose a_i] at t^2.

    The polynomial depends only on R and the multiset of mixed pairs (a_i
    and b_i both positive; a one-sided pair contributes the factor 1), so it
    is memoized under the key (R, sorted mixed pairs): the members of a
    packet share one object per key.  The key is ``B._key``, which the
    public constructor computes in its pass over the pairs and the packet
    walk keeps up to date as it goes, so a call is one lookup.  Like
    :func:`gaussian_binomial`'s own cache, a hit returns the stored
    polynomial without consulting the Gaussian-binomial guard again.
    """
    return _poincare_of(*B._key)


@lru_cache(maxsize=None)
def _poincare_of(R: int, mixed: tuple[tuple[int, int], ...]) -> PoincarePoly:
    """t^R times the product of the mixed pairs' Gaussian binomials at t^2.

    After the degree guard the product q is taken over t^2 as an int list;
    it must end in a nonzero entry, which the constructor would strip.
    """
    _refuse_long_polynomial(R + sum(x * y for x, y in mixed))
    q = [1]
    for x, y in mixed:
        factor = gaussian_binomial(x + y, x).coeffs
        out = [0] * (len(q) + len(factor) - 1)
        for i, c in enumerate(q):
            for j, d in enumerate(factor, i):
                out[j] += c * d
        q = out
    if not q[-1]:
        raise ValueError(f"the product must end in a nonzero entry, got {q!r}")
    coeffs = [0] * (R + 2 * len(q) - 1)
    coeffs[R::2] = q
    return PoincarePoly(tuple(coeffs))


def _refuse_long_polynomial(ab: int) -> None:
    """Refuse a Poincare polynomial on U(a, b) too long to build.

    Its degree is ab + sum(a_i * b_i) >= ab, so it holds at least ab + 1
    coefficients; ab is held to the brute-force cap.
    """
    refuse_above(
        ab,
        "a Poincare polynomial would have degree >= {count}, above the cap {cap}",
        DEFAULT_BRUTE_GUARD,
    )


def _box_partition_counts(rows: int, cols: int) -> list[int]:
    """Number of partitions inside a rows x cols box, indexed by area.

    Conjugation maps the partitions in a box onto those in the transposed
    box and keeps their area, so the walk goes down the shorter side and
    recurses at most min(rows, cols) deep.
    """
    rows, cols = min(rows, cols), max(rows, cols)
    counts = [0] * (rows * cols + 1)

    def walk(row: int, limit: int, area: int) -> None:
        if row == rows:
            counts[area] += 1
            return
        for part in range(limit, -1, -1):
            walk(row + 1, part, area + part)

    walk(0, cols, 0)
    return counts


def brute_poincare(B: Bipartition) -> PoincarePoly:
    """Oracle for :func:`poincare_poly`: each factor counted cell by cell.

    Enumerates the partitions in every a_i x b_i box, one-sided boxes
    included (the Schubert cells of the Grassmannian, counted by area),
    instead of using Gaussian binomials.  The area counts are multiplied as
    int lists by a loop of its own and placed at degree R + 2d; only the
    result is a :class:`PoincarePoly`.  Refuses when the total
    specialization product exceeds the brute cap, and, as the kernel does,
    when ab does.
    """
    refuse_above(
        math.prod(math.comb(x + y, x) for x, y in B.pairs),
        "brute enumeration of {count} cells exceeds the cap {cap}",
        DEFAULT_BRUTE_GUARD,
    )
    _refuse_long_polynomial(B.a * B.b)
    by_area = [1]
    for x, y in B.pairs:
        cells = _box_partition_counts(x, y)
        product = [0] * (len(by_area) + len(cells) - 1)
        for d, count in enumerate(by_area):
            for e, cell_count in enumerate(cells):
                product[d + e] += count * cell_count
        by_area = product
    R = degree_R(B)
    coeffs = [0] * (R + 2 * len(by_area) - 1)
    for d, count in enumerate(by_area):
        coeffs[R + 2 * d] = count
    return PoincarePoly(tuple(coeffs))


def bipartition_to_json(B: Bipartition) -> dict:
    return {"pairs": [[x, y] for x, y in B.pairs]}


def bipartition_from_json(data: dict | Sequence) -> Bipartition:
    """Bipartition from its parsed JSON: an object with a "pairs" list, or the list."""
    if isinstance(data, dict):
        if "pairs" not in data:
            raise ValueError('bipartition JSON must carry a "pairs" list')
        data = data["pairs"]
    try:
        pairs = tuple((x, y) for x, y in data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed bipartition data: {data!r}") from exc
    return Bipartition(pairs)

"""Acceptance checks: one callable per criterion, exact arithmetic throughout.

Each ``check_<name>`` body is a function of the seed that returns its pass
detail, a case count, or raises :class:`_Failed` carrying the failure's
detail.  The :func:`_check` wrapper turns either outcome into a
:class:`CheckResult` named after the function.  Every check takes the seed, defaulting to the fixed one
used by the test suite and the CLI ``selftest`` subcommand; the deterministic
checks ignore it.  :data:`ALL_CHECKS` is the checks themselves, in order.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from typing import Callable, Iterator, NamedTuple

from .bounds import (
    PacketModel,
    _partitions,
    coefficient_sum,
    derive_exponent,
    dominance_check,
    random_packet,
    stable_coefficient,
)
from .cohomology import (
    Bipartition,
    brute_poincare,
    degree_R,
    enumerate_bipartitions,
    lowest_degree,
    poincare_poly,
)
from .decay import sx_check
from .endoscopy import (
    InnerFormSpec,
    bijection,
    check_inner_form,
    dominant_group,
    elliptic_data,
    global_kottwitz_product,
    iota,
)
from .guards import DEFAULT_SEED
from .hyperendoscopy import (
    FormalDist,
    _chain_sum,
    chain_iota,
    enumerate_chains,
    expand_stable,
    verify_inversion,
)
from .params import (
    ArthurShape,
    BlockSignVector,
    Summand,
    centralizer_group,
    from_cohomological,
    s_psi,
)

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "run_all",
    "DEFAULT_SEED",
    "brute_coefficients",
    "brute_i_disc",
    "hyperchain_sum",
    "packet_members",
    "random_packet",
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0  # wall time of the check, set by run_all


class _Failed(Exception):
    """A check's failure; its one argument is the detail."""


def _name(check: Callable) -> str:
    return check.__name__.removeprefix("check_")


def _check(body: Callable[[int], str]) -> Callable[[int], CheckResult]:
    """The public check: the body's pass detail, or the detail of the
    :class:`_Failed` it raised, as a :class:`CheckResult` named after it."""

    @functools.wraps(body)
    def check(seed: int = DEFAULT_SEED) -> CheckResult:
        try:
            return CheckResult(_name(body), True, body(seed))
        except _Failed as failure:
            return CheckResult(_name(body), False, str(failure))

    return check


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Every ordered tuple of positive parts summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def packet_members(max_N: int) -> Iterator[Bipartition]:
    """Every member of every packet over the compositions of N <= max_N, every a."""
    for N in range(1, max_N + 1):
        for P in _compositions(N):
            for a in range(N + 1):
                yield from enumerate_bipartitions(a, N - a, P)


def _random_bipartition(rng: random.Random, max_total: int) -> Bipartition:
    total = rng.randint(1, max_total)
    a = rng.randint(0, total)
    b = total - a
    pairs: list[tuple[int, int]] = []
    ra, rb = a, b
    while ra or rb:
        choices = [
            (x, y) for x in range(ra + 1) for y in range(rb + 1) if x + y >= 1
        ]
        x, y = rng.choice(choices)
        pairs.append((x, y))
        ra -= x
        rb -= y
    return Bipartition(tuple(pairs))


@_check
def check_poincare_oracle(seed: int = DEFAULT_SEED) -> str:
    """Criterion 1: the q = t^2 kernel == brute cell count, exhaustive + random.

    Every member the packet walk builds must also equal the same pairs built
    through the public constructor and carry the same memo key, since the
    walk builds it without the constructor's checks.
    """
    cases = 0
    rng = random.Random(seed)
    randoms = [_random_bipartition(rng, 8) for _ in range(50)]
    for B in chain(packet_members(6), randoms):
        checked = Bipartition(B.pairs)
        if checked != B or checked._key != B._key:
            raise _Failed(f"walk member {B} differs")
        if poincare_poly(B) != brute_poincare(B):
            raise _Failed(f"mismatch at {B}")
        cases += 1
    return (
        f"{cases} cases (every packet member over compositions with N<=6, "
        "every a, + 50 random)"
    )


@_check
def check_degree_formula(seed: int = DEFAULT_SEED) -> str:
    """Criterion 2: closed-form lowest degree == packet minimum, N <= 9."""
    cases = 0
    for N in range(2, 10):
        for a in range(0, N // 2 + 1):
            b = N - a
            for k in range(1, N // 2 + 1):
                packet = enumerate_bipartitions(a, b, (2 * k,) + (1,) * (N - 2 * k))
                observed = min(degree_R(B) for B in packet)
                expected = lowest_degree(a, b, k)
                if observed != expected:
                    raise _Failed(f"N={N} a={a} k={k}: formula {expected}, packet {observed}")
                if N % 2 == 1 and k == (N - 1) // 2 and expected != a:
                    raise _Failed(f"N={N} a={a}: expected degree a, got {expected}")
                cases += 1
    return f"{cases} (N,a,k) triples, N<=9"


def _shapes_with_r_parts(max_N: int, r: int) -> list[ArthurShape]:
    out = []
    for N in range(r, max_N + 1):
        for parts in _partitions(N):
            if len(parts) == r:
                out.append(from_cohomological(parts))
    return out


def brute_coefficients(shape: ArthurShape) -> dict[BlockSignVector, Fraction]:
    """Oracle for C(psi, s), from every entry of the bijection table.

    The value is iota of the entry's datum over the sign-group order of its split.
    """
    out = {}
    for vector, (datum, split) in bijection(shape).items():
        order = 1 << (len(split.part1) - 1 + max(len(split.part2) - 1, 0))
        out[vector] = iota(datum) / order
    return out


def brute_i_disc(
    shape: ArthurShape,
    packet: PacketModel,
    coefficients: dict[BlockSignVector, Fraction],
) -> Fraction:
    """Oracle for the discrete trace: the double sum over group and members."""
    group = centralizer_group(shape)
    sp = group.from_sign_vector(s_psi(shape))
    total = Fraction(0)
    for element in group.elements:
        shifted = sp ^ element
        inner = sum(
            (packet.epsilon(shifted) * chi(shifted) * trace
             for chi, trace in packet.members),
            Fraction(0),
        )
        total += coefficients[group.to_sign_vector(element)] * inner
    return total


def _cross_check_shape(
    shape: ArthurShape, coefficients: dict[BlockSignVector, Fraction]
) -> None:
    """Hold the fast shape-level paths to the brute oracles; raise on the first miss."""
    for vector, coeff in coefficients.items():
        if stable_coefficient(shape, vector) != coeff:
            raise _Failed(f"stable_coefficient off at {vector} for {shape}")
    if dominant_group(shape) != bijection(shape)[s_psi(shape)]:
        raise _Failed(f"dominant_group off for {shape}")
    if coefficient_sum(shape) != sum(coefficients.values()):
        raise _Failed(f"coefficient_sum off for {shape}")


@_check
def check_dominance(seed: int = DEFAULT_SEED) -> str:
    """Criterion 3: dominance holds over exhaustive and random packets.

    Each distinct shape also cross-checks the fast coefficient, dominant
    group and coefficient-sum paths against the brute oracles above, and
    every packet the subset-sum trace against :func:`brute_i_disc`.
    """

    def exhaustive():
        for r in range(1, 6):
            for shape in _shapes_with_r_parts(6, r):
                group = centralizer_group(shape)
                chars = group.characters()
                members = tuple((chi, Fraction(1)) for chi in chars)
                for eps in chars:
                    yield shape, PacketModel(group.rank, members, eps), eps

    def drawn():
        rng = random.Random(seed)
        shapes_by_r = {r: _shapes_with_r_parts(8, r) for r in range(1, 6)}
        for _ in range(1000):
            shape = rng.choice(shapes_by_r[rng.randint(1, 5)])
            yield shape, random_packet(rng, centralizer_group(shape)), None

    coefficients: dict[ArthurShape, dict[BlockSignVector, Fraction]] = {}
    cases = 0
    for shape, packet, eps in chain(exhaustive(), drawn()):
        result = dominance_check(shape, packet)
        if not result.holds:
            raise _Failed(
                f"random violation for {shape}"
                if eps is None
                else f"violated for {shape}, eps={eps.mask}"
            )
        coeffs = coefficients.get(shape)
        if coeffs is None:
            coeffs = coefficients[shape] = brute_coefficients(shape)
            _cross_check_shape(shape, coeffs)
        if result.i_value != brute_i_disc(shape, packet, coeffs):
            raise _Failed(f"i_disc_model off for {shape}")
        cases += 1
    return (
        f"{cases} packets (exhaustive r<=5 + 1000 random), 0 violations, "
        "fast paths equal to the brute oracles"
    )


# A labelled shape with blocks of rank n > 1, and a product assignment with
# rank ties inside and across its factors; both are elliptic.
_LABELLED_SHAPE = ArthurShape(
    (
        Summand("a", 2, 1),
        Summand("b", 1, 3),
        Summand("c", 3, 1),
        Summand("a", 1, 2),
        Summand("d", 2, 2),
    )
)
_PRODUCT_ASSIGNMENT = (
    ArthurShape((Summand("a1", 1, 1), Summand("a2", 1, 2), Summand("a3", 2, 1))),
    ArthurShape((Summand("b1", 1, 2), Summand("b2", 1, 1), Summand("b3", 1, 3))),
)


def hyperchain_sum(factors: tuple[ArthurShape, ...]) -> FormalDist:
    """iota(chain) * I^{terminal} summed over the :class:`HyperChain` objects."""
    return FormalDist(
        (chain.terminal_factors(), chain_iota(chain))
        for chain in enumerate_chains(assignment=factors)
    )


@_check
def check_inversion(seed: int = DEFAULT_SEED) -> str:
    """Criterion 4: kernel == enumerated chain sum, dyadic, unit leading coefficient.

    Covers every U(N) shape with N <= 6, a labelled shape with n > 1 blocks
    and a product assignment.  On the cases with at most 4 blocks the
    enumerated sum, walked as integer records, is also held to
    :func:`hyperchain_sum` over the chain objects.
    """
    cases: list[tuple[str, tuple[ArthurShape, ...]]] = [
        (str(parts), (from_cohomological(parts),))
        for N in range(1, 7)
        for parts in _partitions(N)
    ]
    cases.append((str(_LABELLED_SHAPE), (_LABELLED_SHAPE,)))
    cases.append(
        (" x ".join(str(f) for f in _PRODUCT_ASSIGNMENT), _PRODUCT_ASSIGNMENT)
    )
    crossed = 0
    for name, factors in cases:
        rec = expand_stable(assignment=factors)
        oracle = _chain_sum(factors)
        if rec != oracle:
            raise _Failed(f"expansion mismatch at {name}")
        if sum(f.r for f in factors) <= 4:
            crossed += 1
            if oracle != hyperchain_sum(factors):
                raise _Failed(f"record walk differs from the chains at {name}")
        if not verify_inversion(assignment=factors):
            raise _Failed(f"inversion fails at {name}")
        for _, coeff in rec.items():
            den = coeff.denominator
            if den & (den - 1):
                raise _Failed(f"non-dyadic coefficient {coeff} at {name}")
        if rec.coefficient(factors) != 1:
            raise _Failed(f"leading coefficient != 1 at {name}")
    return (
        f"{len(cases)} cases: all U(N) shapes with N<=6, a labelled shape "
        "and a product assignment, kernel equal to the enumerated chain sum, "
        f"which equals the HyperChain sum on the {crossed} with r<=4"
    )


@_check
def check_exponent_pipeline(seed: int = DEFAULT_SEED) -> str:
    """Criterion 5: derived exponent N(N-2k) with the chain max at the dominant term."""
    cases = 0
    for N in range(2, 17):
        for k in range(1, N // 2 + 1):
            for a in range(0, N // 2 + 1):
                d = derive_exponent(N, a, k)
                if d.final != N * (N - 2 * k):
                    raise _Failed(f"N={N} a={a} k={k}: final {d.final}")
                if not d.max_matches_dominant:
                    raise _Failed(f"N={N} a={a} k={k}: chain max off the dominant term")
                cases += 1
    final = derive_exponent(5, 1, 2).final
    if final != 5:
        raise _Failed(f"N=5 k=2 gave {final}")
    return f"{cases} (N,a,k) triples, N<=16"


@_check
def check_sarnak_xue(seed: int = DEFAULT_SEED) -> str:
    """Criterion 6: proved exponent within the allowance for all N <= 50."""
    cases = 0
    for N in range(2, 51):
        for k in range(1, N // 2 + 1):
            result = sx_check(N, k)
            if not result.holds:
                raise _Failed(f"fails at N={N}, k={k}")
            cases += 1
    return f"{cases} (N,k) pairs, N<=50"


def _block_shapes(max_weight: int) -> Iterator[ArthurShape]:
    pairs = [
        (n, m)
        for n in range(1, max_weight + 1)
        for m in range(1, max_weight + 1)
        if n * m <= max_weight
    ]
    for r in range(1, max_weight + 1):
        for combo in combinations_with_replacement(pairs, r):
            if sum(n * m for n, m in combo) <= max_weight:
                yield ArthurShape(
                    tuple(
                        Summand(f"b{i + 1}", n, m) for i, (n, m) in enumerate(combo)
                    )
                )


@_check
def check_structure_counts(seed: int = DEFAULT_SEED) -> str:
    """Criterion 7: group orders, bijection sizes, packet sizes, iota table."""
    shape_cases = 0
    sevens = (from_cohomological(parts) for parts in _partitions(7) if len(parts) <= 6)
    for shape in chain(_block_shapes(6), sevens):
        expected = 1 << (shape.r - 1)
        if centralizer_group(shape).order != expected or len(bijection(shape)) != expected:
            raise _Failed(f"group/bijection size off for {shape}")
        shape_cases += 1
    packet_cases = 0
    for N in range(1, 11):
        for a in range(0, N + 1):
            size = len(enumerate_bipartitions(a, N - a, (1,) * N))
            if size != math.comb(N, a):
                raise _Failed(f"discrete packet size {size} != C({N},{a})")
            packet_cases += 1
    iota_cases = 0
    for N in range(1, 13):
        for datum in elliptic_data(N):
            if not datum.proper:
                expected = Fraction(1)
            elif datum.n1 == datum.n2:
                expected = Fraction(1, 4)
            else:
                expected = Fraction(1, 2)
            if iota(datum) != expected:
                raise _Failed(f"iota off at {datum}")
            iota_cases += 1
    return f"{shape_cases} shapes, {packet_cases} packets, {iota_cases} iota values"


def _random_inner_form(rng: random.Random) -> tuple[InnerFormSpec, int]:
    N = 2 * rng.randint(1, 6)
    signatures = []
    for _ in range(rng.randint(1, 3)):
        q = rng.randint(0, N)
        signatures.append((N - q, q))
    flips = {f"w{i}" for i in range(1, 4) if rng.getrandbits(1)}
    spec = InnerFormSpec(tuple(signatures), frozenset(flips))
    if not check_inner_form(spec, N):
        # repair parity by toggling one more finite place
        flips ^= {"w0"}
        spec = InnerFormSpec(tuple(signatures), frozenset(flips))
    return spec, N


@_check
def check_inner_forms(seed: int = DEFAULT_SEED) -> str:
    """Criterion 8: valid specs have Kottwitz product +1; one flip breaks them."""
    rng = random.Random(seed)
    for case in range(200):
        spec, N = _random_inner_form(rng)
        if not check_inner_form(spec, N):
            raise _Failed(f"repair failed, case {case}")
        if global_kottwitz_product(spec, N) != 1:
            raise _Failed(f"product != +1 for valid spec, case {case}")
        if rng.getrandbits(1):
            flips = set(spec.finite_flips) ^ {f"w{rng.randint(0, 3)}"}
            flipped = InnerFormSpec(spec.signatures, frozenset(flips))
        else:
            idx = rng.randrange(len(spec.signatures))
            p, q = spec.signatures[idx]
            p, q = (p - 1, q + 1) if p >= 1 else (p + 1, q - 1)
            signatures = list(spec.signatures)
            signatures[idx] = (p, q)
            flipped = InnerFormSpec(tuple(signatures), spec.finite_flips)
        if check_inner_form(flipped, N):
            raise _Failed(f"single flip kept validity, case {case}")
    return "200 random specs, flip sensitivity held"


ALL_CHECKS: tuple[Callable[[int], CheckResult], ...] = (
    check_poincare_oracle,
    check_degree_formula,
    check_dominance,
    check_inversion,
    check_exponent_pipeline,
    check_sarnak_xue,
    check_structure_counts,
    check_inner_forms,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check in order, each with its wall time in ``elapsed_s``."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        try:
            result = check(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            result = CheckResult(_name(check), False, f"error: {exc}")
        results.append(result._replace(elapsed_s=time.perf_counter() - start))
    return results

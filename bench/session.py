"""One library unit in a fresh interpreter: build the decks, run them, check them.

    python3 bench/session.py SEED UNIT TRACE [--tiny]

runs the seeded ``exponent``, ``refinement`` and ``packets`` decks of one
unit once, as a single caller that waits for each answer before the next
call, and prints one JSON line: per-op latencies, the failure count, the
decks' input properties and, with TRACE = 1, one span per op.  Only the call
into the program is timed; building its inputs and checking its answer are
not.

The decks are interleaved: the next op always comes from the deck that is
least far through its own ops.  Each deck keeps its own order, and its ops
spread over the whole unit, so a statistic that one deck dominates (the
median is a packets op) is taken over the unit's whole time, not over one
stretch of it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from endoscopylab import (  # noqa: E402
    ArthurShape,
    GroupChar,
    PacketModel,
    Summand,
    bijection,
    brute_poincare,
    centralizer_group,
    chain_expansion,
    derive_exponent,
    dominance_check,
    dominant_contribution,
    enumerate_bipartitions,
    enumerate_chains,
    expand_stable,
    from_cohomological,
    p_bound_of_bipartition,
    poincare_poly,
    ratio_profile,
    s_psi,
    stable_coefficient,
    verify_inversion,
)
from endoscopylab.guards import DEFAULT_BRUTE_GUARD  # noqa: E402


class Recorder:
    """Times each op, checks its answer, and (traced) keeps one span per op.

    A span is ``[op_id, name, start, end, parent, items, tag, ok]`` with times
    in seconds on this process's perf_counter; the parent is the session
    span, id 0.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.spans: list[list] = []
        self.start = time.perf_counter()

    def op(self, name: str, call, check, tag: str = ""):
        """Run ``call()`` timed, then ``check(answer) -> (ok, items)`` untimed.

        An exception from the call or the checker counts as a failed op.
        """
        answer = None
        t0 = time.perf_counter()
        try:
            answer = call()
        except Exception as exc:  # an unexpected exception is a failed op
            t1 = time.perf_counter()
            ok, items, why = False, 0, repr(exc)
        else:
            t1 = time.perf_counter()
            try:
                ok, items = check(answer)
                why = "wrong answer"
            except Exception as exc:  # a malformed answer is a failed op
                ok, items, why = False, 0, repr(exc)
        self.latencies.append(t1 - t0)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{name}: {why}")
        if self.trace:
            self.spans.append([len(self.spans) + 1, name, t0, t1, 0, items, tag, ok])
        return answer


def _shape(blocks) -> ArthurShape:
    return ArthurShape(tuple(Summand(label, 1, m) for label, m in blocks))


def run_exponent(rec: Recorder, ops):
    """Yields the share of the deck done after each op, as the other runners do."""
    for done, op in enumerate(ops, 1):
        kind, *args = op
        if kind == "derive_exponent":
            N, a, k = args
            rec.op("bounds.derive_exponent", lambda: derive_exponent(N, a, k),
                   lambda d: checks.check_derive(N, a, k, d))
            yield done / len(ops)
            continue
        parts = args[0]
        shape = from_cohomological(parts)
        if kind == "characters":
            def call():
                group = centralizer_group(shape)
                center = group.from_sign_vector(s_psi(shape))
                return [chi(center) for chi in group.characters()]
            rec.op("params.characters", call, lambda v: checks.check_characters(parts, v))
        elif kind == "bijection":
            rec.op("endoscopy.bijection", lambda: bijection(shape),
                   lambda t: checks.check_bijection(parts, t))
        elif kind == "stable_coefficient":
            group = centralizer_group(shape)
            vectors = [group.to_sign_vector(e) for e in group.elements]

            def call():
                return sum((stable_coefficient(shape, s) for s in vectors), Fraction(0))
            rec.op("bounds.stable_coefficient", call,
                   lambda total: checks.check_stable_sum(parts, total))
        elif kind == "dominance_check":
            spec = args[1]
            rank = len(parts) - 1
            packet = PacketModel(
                rank,
                tuple((GroupChar(rank, m), Fraction(p, q)) for m, p, q in spec["members"]),
                GroupChar(rank, spec["epsilon"]),
            )
            rec.op("bounds.dominance_check", lambda: dominance_check(shape, packet),
                   lambda res: checks.check_dominance(len(spec["members"]), res))
        else:
            raise ValueError(f"unknown exponent op {kind!r}")
        yield done / len(ops)


def run_refinement(rec: Recorder, ops):
    # Answers by exact blocks: once expand_stable and chain_expansion have
    # both run on a shape, the second of them must equal the first.
    answers: dict = {}

    def expansion_check(kind, blocks, shape):
        other = "chain_expansion" if kind == "expand_stable" else "expand_stable"

        def check(dist):
            answers[kind, blocks] = dist
            ok, items = checks.check_expansion(blocks, dist, shape)
            earlier = answers.get((other, blocks))
            return ok and (earlier is None or earlier == dist), items
        return check

    for done, (kind, blocks, tag) in enumerate(ops, 1):
        shape = _shape(blocks)
        name = f"hyperendoscopy.{kind}"
        if kind == "expand_stable":
            rec.op(name, lambda: expand_stable(shape=shape),
                   expansion_check(kind, blocks, shape), tag)
        elif kind == "chain_expansion":
            rec.op(name, lambda: chain_expansion(shape=shape),
                   expansion_check(kind, blocks, shape), tag)
        elif kind == "enumerate_chains":
            rec.op(name, lambda: enumerate_chains(shape=shape),
                   lambda c: checks.check_chains(blocks, c), tag)
        elif kind == "dominant_contribution":
            evens = tuple(s for s in shape.summands if s.m % 2 == 0)
            odds = tuple(s for s in shape.summands if s.m % 2)
            factors = (ArthurShape(evens), ArthurShape(odds)) if evens and odds else None
            rec.op(name, lambda: dominant_contribution(shape),
                   lambda d: checks.check_dominant(blocks, d, shape, factors), tag)
        elif kind == "verify_inversion":
            rec.op(name, lambda: verify_inversion(shape=shape),
                   lambda v: checks.check_verify(blocks, v), tag)
        else:
            raise ValueError(f"unknown refinement op {kind!r}")
        yield done / len(ops)


def run_packets(rec: Recorder, ops):
    total = sum(checks.packet_size(parts, a) for _, parts, a, _, _ in ops)
    done = 0
    for _, parts, a, b, sample_seed in ops:
        members = rec.op("cohomology.enumerate_bipartitions",
                         lambda: enumerate_bipartitions(a, b, parts),
                         lambda m: checks.check_packet(parts, a, m)) or []
        offset = random.Random(sample_seed).randrange(workloads.BRUTE_EVERY)
        for index, B in enumerate(members):
            pairs = B.pairs
            poly = rec.op("cohomology.poincare_poly", lambda: poincare_poly(B),
                          lambda p: checks.check_poincare(pairs, p))
            if ((index + offset) % workloads.BRUTE_EVERY == 0
                    and checks.cell_count(pairs) <= DEFAULT_BRUTE_GUARD):
                rec.op("cohomology.brute_poincare", lambda: brute_poincare(B),
                       lambda p: checks.check_brute(poly, p))
            mixed = [(x, y) for x, y in pairs if x and y]
            if len(mixed) == 1:
                rec.op("decay.p_bound_of_bipartition", lambda: p_bound_of_bipartition(B),
                       lambda v: checks.check_p_bound(pairs, v))
                x, y = mixed[0]
                c, c_k = min(B.a, B.b), min(x, y)
                rec.op("decay.ratio_profile", lambda: ratio_profile(B.N, x + y, c, c_k),
                       lambda prof: checks.check_ratio_profile(pairs, prof))
            done += 1
            yield done / total


RUNNERS = {"exponent": run_exponent, "refinement": run_refinement, "packets": run_packets}
DECKS = {
    "exponent": workloads.exponent_deck,
    "refinement": workloads.refinement_deck,
    "packets": workloads.packets_deck,
}


def interleave(streams: dict) -> None:
    """Run the decks' runners to the end, always advancing the one least done."""
    progress = dict.fromkeys(streams, 0.0)
    while progress:
        deck = min(progress, key=progress.get)
        try:
            progress[deck] = next(streams[deck])
        except StopIteration:
            del progress[deck]


def main(argv: list[str]) -> int:
    seed, unit, trace = int(argv[0]), int(argv[1]), argv[2] == "1"
    decks = {deck: DECKS[deck](seed, unit, tiny="--tiny" in argv[3:])
             for deck in workloads.LIBRARY_DECKS}
    rec = Recorder(trace)
    interleave({deck: RUNNERS[deck](rec, ops) for deck, (ops, _) in decks.items()})
    end = time.perf_counter()
    result = {
        "latencies": rec.latencies,
        "failed": rec.failed,
        "failures": rec.failures,
        "props": {deck: props for deck, (_, props) in decks.items()},
    }
    if trace:
        result["spans"] = [[0, "unit", rec.start, end, None, len(rec.latencies), "library", True]] + rec.spans
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

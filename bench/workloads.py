"""Seeded input decks for the two workloads, as plain data.

A ``library`` unit (one fresh interpreter) runs one ``exponent``, one
``refinement`` and one ``packets`` deck; the ``cli`` deck is one round of
subprocess commands.  Each deck has a fixed composition:
the number of ops of every kind and size class is the same for every seed,
and the seed picks only the concrete values inside a class (parts, labels,
packets, signatures, order).  That keeps the cost of a deck nearly
independent of the seed, so runs on different seeds can be compared.

Every deck function also returns the deck's input properties (histograms of the
block count r and the rank N, repeat and relabel shares, packet sizes, the
command mix), which the harness prints beside the metrics.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from checks import bell, chain_count, packet_size, partition_count

WORKLOADS = ("library", "cli")
# The decks of one library unit, in the order they run.
LIBRARY_DECKS = ("exponent", "refinement", "packets")

# Percentile reported as op_tail_ms, fixed per workload so that it means the
# same on every commit.  A run holds at least two library units or cli
# rounds; a 55-second run holds two or three library units of about 17920 ops
# (254 exponent, 67 refinement, about 17600 packets) or eight to ten cli
# rounds of 23 commands.  Every unit has the same composition, so a
# percentile falls at the same depth of each unit, and it is chosen inside
# one class of ops, not on the border between two (where run-to-run noise
# decides which class it reads), and near the middle of that class rather
# than at its fast end (which reads only the fastest stretch of the run):
#   library p99.92: depth 14.3 of each unit, the middle of the nine ops of
#     0.3 to 0.5 s (four chain_expansion calls at r = 6, five derive_exponent
#     calls at N = 9, k = 1); 28 samples lie beyond it in two units.  Above
#     that band lie ten calls of 0.8 to 1.8 s per unit, which two units give
#     too few samples of.
#   cli p75: depth 5.75 of each round, inside the middle cost tier.
TAIL_PERCENTILE = {"library": 99.92, "cli": 75.0}


def rng_for(workload: str, seed: int, session: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{session}")


def _parts(rng: random.Random, r: int, even: int | None = None, top: int = 6) -> tuple[int, ...]:
    """r SL(2) dimensions in 1..top; with ``even`` given, exactly that many even."""
    if even is None:
        return tuple(rng.randint(1, top) for _ in range(r))
    odds = [m for m in range(1, top + 1) if m % 2]
    evens = [m for m in range(1, top + 1) if m % 2 == 0]
    parts = [rng.choice(evens) for _ in range(even)] + [
        rng.choice(odds) for _ in range(r - even)
    ]
    rng.shuffle(parts)
    return tuple(parts)


def _hist(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


# --- exponent -------------------------------------------------------------


def exponent_deck(seed: int, session: int, tiny: bool = False):
    """The full (N, a, k) derivation grid plus sign-group queries.

    For each block count r, two cohomological shapes each take four
    character queries, four bijections, two whole-group coefficient sums and
    two dominance trials with independent seeded packets, so every shape is
    queried twelve times.
    """
    rng = rng_for("exponent", seed, session)
    n_max, r_max = (6, 4) if tiny else (10, 7)
    ops: list[tuple] = [
        ("derive_exponent", N, a, k)
        for N in range(2, n_max + 1)
        for k in range(1, N // 2 + 1)
        for a in range(N // 2 + 1)
    ]
    shapes = []
    for r in range(2, r_max + 1):
        for _ in range(2):
            parts = _parts(rng, r, top=5)
            shapes.append(parts)
            ops += [("characters", parts)] * 4 + [("bijection", parts)] * 4
            ops += [("stable_coefficient", parts)] * 2
            for _ in range(2):
                ops.append(("dominance_check", parts, _packet(rng, r)))
    rng.shuffle(ops)
    shape_ops = [op[1] for op in ops if op[0] != "derive_exponent"]
    props = {
        "derive_N": _hist(op[1] for op in ops if op[0] == "derive_exponent"),
        "shape_r": _hist(len(p) for p in shape_ops),
        "shape_N": _hist(sum(p) for p in shape_ops),
        "repeated_shape_ops": len(shape_ops) - len(set(shapes)),
        "shape_ops": len(shape_ops),
    }
    return ops, props


def _packet(rng: random.Random, r: int) -> dict:
    """Seeded packet on the sign group of rank r - 1: half the characters as
    members, with nonnegative rational traces, and an epsilon mask.  The
    member count is fixed by r so that a trial's cost does not vary."""
    order = 1 << (r - 1)
    masks = rng.sample(range(order), max(1, order // 2))
    members = [[m, rng.randint(0, 9), rng.randint(1, 9)] for m in masks]
    return {"members": members, "epsilon": rng.randrange(order)}


# --- refinement -----------------------------------------------------------


def refinement_deck(seed: int, session: int, tiny: bool = False):
    """Stable expansion and chain ops on shapes with fresh, repeated and
    relabelled blocks.

    For each r in the chain range, shape A has r // 2 even blocks (so the
    dominant term splits) and shape B none (so it is the full expansion).
    Each takes all five ops.  Then A is re-issued with identical labels and
    B with new labels, each for expand_stable, chain_expansion and
    dominant_contribution.  At the top r one fresh shape takes expand_stable,
    then its repeat and its relabel do.  The order is fixed, so the caches
    hold the same entries at every point of every session and the peak RSS
    does not depend on the seed.
    """
    rng = rng_for("refinement", seed, session)
    chain_rs, top_r = ((2, 3), 4) if tiny else ((3, 4, 5, 6), 7)
    counter = iter(range(10**9))

    def fresh(parts) -> tuple[tuple[str, int], ...]:
        return tuple((f"s{session}b{next(counter)}", m) for m in parts)

    full = ("expand_stable", "enumerate_chains", "chain_expansion",
            "dominant_contribution", "verify_inversion")
    again = ("expand_stable", "chain_expansion", "dominant_contribution")
    ops: list[tuple] = []
    for r in chain_rs:
        a = fresh(_parts(rng, r, r // 2))
        b_parts = _parts(rng, r, 0)
        b = fresh(b_parts)
        ops += [(op, a, "fresh") for op in full] + [(op, b, "fresh") for op in full]
        ops += [(op, a, "repeat") for op in again]
        ops += [(op, fresh(b_parts), "relabel") for op in again]
    top_parts = _parts(rng, top_r)
    top = fresh(top_parts)
    ops += [("expand_stable", top, "fresh"), ("expand_stable", top, "repeat"),
            ("expand_stable", fresh(top_parts), "relabel")]
    tags = Counter(tag for _, _, tag in ops)
    props = {
        "r": _hist(len(b) for _, b, _ in ops),
        "N": _hist(sum(m for _, m in b) for _, b, _ in ops),
        "ops": _hist(op for op, _, _ in ops),
        "fresh_share": round(tags["fresh"] / len(ops), 4),
        "repeat_share": round(tags["repeat"] / len(ops), 4),
        "relabel_share": round(tags["relabel"] / len(ops), 4),
    }
    return ops, props


# --- packets --------------------------------------------------------------

# (parts, a) size classes; the seed permutes the parts and may swap a and b,
# neither of which changes the packet size.
_PACKETS = (
    ((1,) * 16, 7),
    ((1,) * 13, 4),
    ((1,) * 10, 3),
    ((1,) * 7, 2),
    ((3, 2, 2, 1, 1, 1, 1, 1), 6),
    ((4, 3, 3, 2, 2, 1, 1), 8),
    ((5, 4, 4, 3, 2, 2), 10),
    ((3, 3, 2, 2, 2), 5),
)
_TINY_PACKETS = (((1,) * 6, 2), ((3, 2, 1, 1), 3))

# Every BRUTE_EVERY-th member (within the guard), from a seeded offset, also
# goes through brute_poincare: a fixed share, so the cost of a deck does not
# depend on the seed.
BRUTE_EVERY = 4


def packets_deck(seed: int, session: int, tiny: bool = False):
    rng = rng_for("packets", seed, session)
    ops = []
    for parts, a in _TINY_PACKETS if tiny else _PACKETS:
        parts = list(parts)
        rng.shuffle(parts)
        N = sum(parts)
        a = a if rng.random() < 0.5 else N - a
        ops.append(("packet", tuple(parts), a, N - a, rng.randrange(2**32)))
    rng.shuffle(ops)
    sizes = [packet_size(op[1], op[2]) for op in ops]
    props = {
        "packet_sizes": _hist(sizes),
        "members": sum(sizes),
        "N": _hist(sum(op[1]) for op in ops),
        "pairs": _hist(len(op[1]) for op in ops),
        "brute_share": 1 / BRUTE_EVERY,
    }
    return ops, props


# --- cli ------------------------------------------------------------------


def _shape_json(parts) -> str:
    return json.dumps(
        {"summands": [{"label": f"c{i + 1}", "n": 1, "m": m} for i, m in enumerate(parts)]}
    )


def cli_round(seed: int, rnd: int, tiny: bool = False):
    """One round of commands: (name, argv, expectation) triples.

    ``name`` is the command and its form, which keys the per-command
    metrics; the expectation holds the values the checker compares against.
    """
    rng = rng_for("cli", seed, rnd)
    cmds: list[tuple[str, list[str], dict]] = []

    def sx():
        N = rng.randint(4, 12)
        k = rng.randint(1, N // 2)
        cmds.append(("sx", ["sx", "--N", str(N), "--k", str(k)], {"exponent": N * (N - 2 * k)}))

    def endoscopy(r, fmt):
        parts = _parts(rng, r, top=5)
        argv = ["endoscopy", "--N", str(sum(parts)), "--shape", _shape_json(parts), "--format", fmt]
        cmds.append(("endoscopy", argv, {"rows": 1 << (r - 1), "format": fmt}))

    def chains(r, fmt):
        parts = _parts(rng, r)
        argv = ["chains", "--shape", _shape_json(parts), "--format", fmt]
        cmds.append((f"chains_{fmt}", argv, {"chains": chain_count(r), "terms": bell(r)}))

    def dominant(r):
        parts = _parts(rng, r, even=r // 2)
        even = r // 2
        argv = ["chains", "--shape", _shape_json(parts), "--dominant"]
        cmds.append(("chains_dominant", argv, {"terms": bell(even) * bell(r - even)}))

    def packet(parts, a, fmt):
        parts = list(parts)
        rng.shuffle(parts)
        a = a if rng.random() < 0.5 else sum(parts) - a
        argv = ["packet", "--a", str(a), "--b", str(sum(parts) - a),
                "--P", ",".join(map(str, parts)), "--format", fmt]
        cmds.append((f"packet_{fmt}", argv, {"size": packet_size(tuple(parts), a)}))

    def derive(N, k, as_json):
        a = rng.randint(0, N // 2)
        argv = ["derive", "--N", str(N), "--a", str(a), "--k", str(k)] + (["--json"] if as_json else [])
        cmds.append(("derive", argv, {"final": N * (N - 2 * k),
                                      "rows": partition_count(N - 2 * k), "json": as_json}))

    def dominance(r):
        parts = _parts(rng, r, top=5)
        argv = ["dominance", "--shape", _shape_json(parts), "--trials", "10",
                "--seed", str(rng.randrange(10**6))]
        cmds.append(("dominance", argv, {}))

    def guard():
        parts = _parts(rng, 8)
        cmds.append(("guard_refusal", ["chains", "--shape", _shape_json(parts)], {}))

    if tiny:
        sx()
        endoscopy(3, "json")
        chains(3, "table")
        chains(3, "json")
        dominant(3)
        packet((1,) * 5, 2, "json")
        packet((2, 1, 1), 2, "csv")
        derive(5, 2, True)
        dominance(3)
        guard()
    else:
        # Three cost tiers, so that p50 and p75 each fall inside one tier.
        # About the import floor (14 commands):
        for _ in range(4):
            sx()
        endoscopy(3, "table")
        endoscopy(5, "table")
        endoscopy(7, "json")
        chains(4, "table")
        chains(3, "json")
        dominant(5)
        dominant(6)
        derive(6, rng.randint(1, 3), False)
        derive(7, rng.randint(2, 3), False)
        guard()
        # A few tenths of a second more (7):
        packet((1,) * 10, 3, "json")
        packet((3, 2, 2, 1, 1, 1, 1, 1), 6, "json")
        packet((1,) * 13, 4, "csv")
        packet((4, 3, 3, 2, 2, 1, 1), 8, "csv")
        derive(8, 1, True)
        dominance(5)
        chains(5, "json")
        # The two heaviest:
        chains(6, "table")
        dominance(6)
    rng.shuffle(cmds)
    props = {"mix": _hist(name for name, _, _ in cmds), "commands": len(cmds)}
    return cmds, props


def check_cli(name: str, expect: dict, code: int, out: bytes, err: bytes) -> bool:
    """Exit code and content of one command's output against the expectation."""
    text = out.decode()
    if name == "guard_refusal":
        lines = err.decode().splitlines()
        return code == 1 and not out and len(lines) == 1 and lines[0].startswith("error:")
    if code != 0 or err:
        return False
    if name == "sx":
        return f"proved exponent N(N-2k) = {expect['exponent']}\n" in text
    if name == "endoscopy":
        if expect["format"] == "json":
            return len(json.loads(text)["table"]) == expect["rows"]
        return sum(" -> " in line for line in text.splitlines()) == expect["rows"]
    if name == "chains_table":
        depth = sum(line.startswith("  depth ") for line in text.splitlines())
        return depth == expect["chains"] and text.count("I^{") == expect["terms"]
    if name == "chains_json":
        payload = json.loads(text)
        return len(payload["chains"]) == expect["chains"] and len(payload["expansion"]) == expect["terms"]
    if name == "chains_dominant":
        return text.count("I^{") == expect["terms"]
    if name == "packet_json":
        payload = json.loads(text)
        return payload["size"] == expect["size"] == len(payload["members"])
    if name == "packet_csv":
        return len(text.splitlines()) == expect["size"] + 1
    if name == "derive":
        if expect["json"]:
            payload = json.loads(text)
            return (payload["final"] == expect["final"] and payload["max_matches_dominant"]
                    and len(payload["chain_exponents"]) == expect["rows"])
        return f"final exponent: {expect['final']}\n" in text
    if name == "dominance":
        return "holds: yes\n" in text
    raise ValueError(f"no check for command {name!r}")

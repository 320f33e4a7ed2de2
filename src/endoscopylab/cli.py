"""Command-line front end: exact tables, JSON, and CSV for every module.

Exit codes: 0 success, 1 guard violation or failed check run, 2 usage error.
All numeric output is exact; fractions render as "p/q".  Shapes and
bipartitions are given inline as JSON or as a path to a JSON file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from typing import TYPE_CHECKING, Sequence

# Library modules are imported inside the commands, so a process loads only
# what its command uses.
from .guards import DEFAULT_CHAIN_GUARD, DEFAULT_SEED, GuardError, guard_limit

if TYPE_CHECKING:
    from fractions import Fraction

    from .cohomology import Bipartition, PoincarePoly
    from .params import ArthurShape

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1


def _load_json_text(text: str):
    """Inline JSON when the argument looks like it, else a file path."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    try:
        with open(text, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{text!r} is not valid JSON: {exc}") from exc


def _shape_arg(text: str) -> ArthurShape:
    from .params import shape_from_json

    return shape_from_json(_load_json_text(text))


def _bipartition_arg(text: str) -> Bipartition:
    from .cohomology import bipartition_from_json

    return bipartition_from_json(_load_json_text(text))


def _add_expansion(terms: list, want_json: bool, payload: dict, lines: list[str]) -> None:
    """Render the sorted terms of an expansion as lines and, for json, a payload list."""
    from .hyperendoscopy import GroupSymbol
    from .params import num_json, shape_to_json

    if want_json:
        payload["expansion"] = [
            {
                "coefficient": num_json(coeff),
                "group": str(GroupSymbol.of_factors(key)) if key else "1",
                "factors": [shape_to_json(f) for f in key],
            }
            for key, coeff in terms
        ]
    for key, coeff in terms:
        factors = (
            f"{GroupSymbol.of_factors(key)} [{' | '.join(map(str, key))}]" if key else "1"
        )
        lines.append(f"  {coeff!s:>8}  I^{{{factors}}}")


def _emit(fmt: str, payload: dict, lines: list[str], rows: list[Sequence]) -> None:
    """The one render path of every command; json output leads with the schema."""
    if fmt == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        for row in rows:
            writer.writerow(row)
    else:
        for line in lines:
            print(line)


def _cmd_endoscopy(ns: argparse.Namespace) -> int:
    from .endoscopy import bijection, datum_to_json, elliptic_data, iota, split_to_json
    from .params import num_json, s_psi, shape_to_json

    data = elliptic_data(ns.N)
    payload: dict = {
        "N": ns.N,
        "data": [
            {**datum_to_json(d), "iota": num_json(iota(d))} for d in data
        ],
    }
    lines = [f"elliptic endoscopic data for U({ns.N}):"]
    rows: list[Sequence] = [("n1", "n2", "iota", "kappa1", "kappa2")]
    for d in data:
        k1, k2 = d.kappa
        lines.append(f"  {d}  iota={iota(d)!s}  kappa=({k1:+d},{k2:+d})")
        rows.append((d.n1, d.n2, str(iota(d)), k1, k2))
    if ns.shape is not None:
        shape = _shape_arg(ns.shape)
        if shape.N != ns.N:
            raise ValueError(f"shape has N={shape.N}, but --N {ns.N} was given")
        table = bijection(shape)
        center = s_psi(shape)
        payload["shape"] = shape_to_json(shape)
        payload["s_psi"] = str(center)
        payload["table"] = []
        lines.append(f"shape: {shape}")
        lines.append(f"character table (s_psi = {center}):")
        rows = [("s", "n1", "n2", "iota", "is_s_psi")]
        for s in sorted(table, key=lambda v: str(v)):
            datum, split = table[s]
            mark = "  <-- s_psi" if s == center else ""
            lines.append(
                f"  {s}  ->  {datum}  iota={iota(datum)!s}  [{split}]{mark}"
            )
            rows.append((str(s), datum.n1, datum.n2, str(iota(datum)), s == center))
            payload["table"].append(
                {
                    "s": str(s),
                    "datum": datum_to_json(datum),
                    "iota": num_json(iota(datum)),
                    "split": split_to_json(split),
                    "is_s_psi": s == center,
                }
            )
    _emit(ns.format, payload, lines, rows)
    return 0


def _cmd_chains(ns: argparse.Namespace) -> int:
    from .endoscopy import datum_to_json, dominant_group, iota, split_to_json
    from .hyperendoscopy import (
        GroupSymbol,
        chain_expansion,
        chain_iota,
        dominant_contribution,
        enumerate_chains,
    )
    from .params import num_json, s_psi, shape_to_json

    shape = _shape_arg(ns.shape)
    if ns.N is not None and shape.N != ns.N:
        raise ValueError(f"shape has N={shape.N}, but --N {ns.N} was given")
    payload: dict = {
        "shape": shape_to_json(shape),
        "dominant": ns.dominant,
    }
    lines: list[str] = []
    rows: list[Sequence] = []
    want_json = ns.format == "json"
    if ns.dominant:
        center = s_psi(shape)
        terms = dominant_contribution(shape).items()
        if center.is_identity:
            lines.append(
                f"s_psi = {center} is the identity; full stable expansion on U({shape.N}):"
            )
            payload["dominant_datum"] = None
        else:
            datum, split = dominant_group(shape)
            lines.append(
                f"dominant group {datum} at s_psi = {center}, "
                f"iota={iota(datum)!s}, split [{split}]:"
            )
            payload["dominant_datum"] = datum_to_json(datum)
            payload["dominant_split"] = split_to_json(split)
        _add_expansion(terms, want_json, payload, lines)
        rows.append(("coefficient", "group", "factors"))
        rows.extend(
            (str(coeff), str(GroupSymbol.of_factors(key)), " | ".join(map(str, key)))
            for key, coeff in terms
        )
        _emit(ns.format, payload, lines, rows)
        return 0
    chains = enumerate_chains(shape=shape)
    terms = chain_expansion(shape=shape).items()
    if want_json:
        payload["chains"] = []
    lines.append(f"refinement chains for {shape} on U({shape.N}):")
    rows.append(("depth", "iota", "terminal", "steps"))
    # the chains share their ChainStep objects, and the list keeps them alive,
    # so each distinct step is rendered once, keyed by its id
    step_text: dict[int, str] = {}
    step_json: dict[int, dict] = {}
    for chain in chains:
        texts = []
        for step in chain.steps:
            text = step_text.get(id(step))
            if text is None:
                text = f"factor {step.factor}: {step.datum} [{step.split}]"
                step_text[id(step)] = text
            texts.append(text)
        steps_str = "; ".join(texts)
        value = chain_iota(chain)
        terminal = str(chain.terminal)
        lines.append(
            f"  depth {chain.depth}  iota={value!s:>6}  {terminal}"
            + (f"  ({steps_str})" if steps_str else "")
        )
        rows.append((chain.depth, str(value), terminal, steps_str))
        if want_json:
            steps = []
            for step in chain.steps:
                entry = step_json.get(id(step))
                if entry is None:
                    entry = step_json[id(step)] = {
                        "factor": step.factor,
                        "datum": datum_to_json(step.datum),
                        "split": split_to_json(step.split),
                    }
                steps.append(entry)
            payload["chains"].append(
                {
                    "depth": chain.depth,
                    "iota": num_json(value),
                    "terminal": terminal,
                    "steps": steps,
                }
            )
    lines.append("chain-sum expansion:")
    _add_expansion(terms, want_json, payload, lines)
    _emit(ns.format, payload, lines, rows)
    return 0


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError as exc:
        raise ValueError(f"--P expects a comma list of integers, got {text!r}") from exc
    if not parts:
        raise ValueError("--P must name at least one part")
    return parts


def _member_json(B: Bipartition, R: int, poly: PoincarePoly) -> dict:
    from .cohomology import bipartition_to_json

    return {
        **bipartition_to_json(B),
        "R": R,
        "poincare": list(poly.coeffs),
        "reduced": B.is_reduced,
    }


def _cmd_packet(ns: argparse.Namespace) -> int:
    from .cohomology import degree_R, enumerate_bipartitions, poincare_poly

    parts = _parse_partition(ns.P)
    members = enumerate_bipartitions(ns.a, ns.b, parts)
    lines = [
        f"packet of P={list(parts)} on U({ns.a},{ns.b}): {len(members)} members"
    ]
    rows: list[Sequence] = [("pairs", "R", "poincare", "reduced")]
    want_json = ns.format == "json"
    member_json = []
    for B in members:
        R, poly = degree_R(B), poincare_poly(B)
        name, text = str(B), str(poly)
        if want_json:
            member_json.append(_member_json(B, R, poly))
        lines.append(f"  {name}  R={R}  P(t) = {text}")
        rows.append((name, R, text, B.is_reduced))
    payload = {
        "a": ns.a,
        "b": ns.b,
        "P": list(parts),
        "size": len(members),
        "members": member_json,
    }
    _emit(ns.format, payload, lines, rows)
    return 0


def _cmd_poincare(ns: argparse.Namespace) -> int:
    from .cohomology import degree_R, poincare_poly

    B = _bipartition_arg(ns.bipartition)
    R, poly = degree_R(B), poincare_poly(B)
    palindromic = poly.is_palindromic()
    payload = {
        **_member_json(B, R, poly),
        "a": B.a,
        "b": B.b,
        "degree": poly.degree,
        "palindromic": palindromic,
    }
    lines = [
        f"B = {B} on U({B.a},{B.b})",
        f"R = {R}",
        f"P(t) = {poly}",
        f"palindromic: {'yes' if palindromic else 'no'}",
    ]
    rows = [
        ("pairs", "R", "poincare", "palindromic"),
        (str(B), R, str(poly), palindromic),
    ]
    _emit(ns.format, payload, lines, rows)
    return 0


def _cmd_decay(ns: argparse.Namespace) -> int:
    from .cohomology import bipartition_to_json
    from .decay import p_bound_of_bipartition, ratio_profile
    from .params import num_json

    B = _bipartition_arg(ns.bipartition)
    bound = p_bound_of_bipartition(B)
    mixed = next((x, y) for x, y in B.pairs if x >= 1 and y >= 1)
    profile = ratio_profile(B.N, sum(mixed), min(B.a, B.b), min(mixed))
    payload = {
        **bipartition_to_json(B),
        "N": profile.N,
        "N_k": profile.N_k,
        "c": profile.c,
        "c_k": profile.c_k,
        "ratios": [num_json(r) for r in profile.ratios],
        "p_bound": num_json(bound) if bound is not None else None,
    }
    lines = [
        f"B = {B}: N = {profile.N}, mixed pair size N_k = {profile.N_k}",
        "ratios: "
        + (
            ", ".join(
                f"j={j}: {r!s}" for j, r in enumerate(profile.ratios, 1)
            )
            if profile.ratios
            else "(none)"
        ),
        f"p bound: {str(bound) if bound is not None else 'unbounded (N_k = N)'}",
    ]
    rows: list[Sequence] = [("j", "ratio")]
    rows.extend((j, str(r)) for j, r in enumerate(profile.ratios, 1))
    rows.append(("p_bound", str(bound) if bound is not None else "unbounded"))
    _emit(ns.format, payload, lines, rows)
    return 0


def _cmd_sx(ns: argparse.Namespace) -> int:
    from .decay import sx_check

    result = sx_check(ns.N, ns.k)
    payload = {
        "N": ns.N,
        "k": ns.k,
        "theorem_exponent": result.theorem_exponent,
        "sx_exponent": result.sx_exponent,
        "holds": result.holds,
    }
    lines = [
        f"N = {ns.N}, k = {ns.k}",
        f"proved exponent N(N-2k) = {result.theorem_exponent}",
        f"allowed exponent (N+1)(N-2k) = {result.sx_exponent}",
        f"holds: {'yes' if result.holds else 'no'}",
    ]
    rows = [
        ("N", "k", "theorem_exponent", "sx_exponent", "holds"),
        (ns.N, ns.k, result.theorem_exponent, result.sx_exponent, result.holds),
    ]
    _emit(ns.format, payload, lines, rows)
    return 0


def _cmd_derive(ns: argparse.Namespace) -> int:
    from .bounds import derive_exponent

    d = derive_exponent(ns.N, ns.a, ns.k)
    fmt = "json" if ns.json else ns.format
    lines = [f"exponent derivation for U({ns.a},{ns.N - ns.a}), N={ns.N}, k={ns.k}:"]
    for step in d.steps:
        lines.append(f"  [{step.name}] {step.claim}")
        lines.append(f"      why: {step.justification}")
    lines.append("per-chain exponents (terminal group -> exponent):")
    for sym, exponent in d.chain_exponents:
        lines.append(f"  {exponent:>4}  {sym}")
    lines.append(f"final exponent: {d.final}")
    lines.append(
        "chain maximum at the dominant group: "
        + ("yes" if d.max_matches_dominant else "NO (reported, see steps)")
    )
    rows: list[Sequence] = [("terminal", "exponent")]
    rows.extend((str(sym), exponent) for sym, exponent in d.chain_exponents)
    rows.append(("final", d.final))
    _emit(fmt, d.to_json(), lines, rows)
    return 0


def _cmd_dominance(ns: argparse.Namespace) -> int:
    from .bounds import dominance_check, random_packet
    from .endoscopy import _guarded_sign_group
    from .params import num_json, shape_to_json

    if ns.trials < 1:
        raise ValueError(f"--trials must be positive, got {ns.trials}")
    shape = _shape_arg(ns.shape)
    # refuse a big sign group before random_packet draws up to 2^(r-1) members from it
    group = _guarded_sign_group(shape)
    rng = random.Random(ns.seed)
    violations = 0
    min_margin: Fraction | None = None
    for _ in range(ns.trials):
        result = dominance_check(shape, random_packet(rng, group))
        margin = result.c_psi * result.s_dominant - result.i_value
        if min_margin is None or margin < min_margin:
            min_margin = margin
        if not result.holds:
            violations += 1
    payload = {
        "shape": shape_to_json(shape),
        "trials": ns.trials,
        "seed": ns.seed,
        "violations": violations,
        "min_margin": num_json(min_margin) if min_margin is not None else None,
        "holds": violations == 0,
    }
    lines = [
        f"dominance for {shape}: {ns.trials} random packets, seed {ns.seed}",
        f"violations: {violations}",
        f"smallest margin C*S - I: {str(min_margin) if min_margin is not None else 'n/a'}",
        f"holds: {'yes' if violations == 0 else 'no'}",
    ]
    rows = [
        ("trials", "seed", "violations", "min_margin", "holds"),
        (
            ns.trials,
            ns.seed,
            violations,
            str(min_margin) if min_margin is not None else "",
            violations == 0,
        ),
    ]
    _emit(ns.format, payload, lines, rows)
    return 0 if violations == 0 else 1


def _cmd_selftest(ns: argparse.Namespace) -> int:
    from .selftest import run_all

    results = run_all(ns.seed)
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    payload = {
        "seed": ns.seed,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_s": r.elapsed_s,
            }
            for r in results
        ],
        "passed": passed,
        "failed": failed,
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}: {r.name} ({r.detail})" for r in results
    ]
    lines.append(f"{passed} passed, {failed} failed")
    rows: list[Sequence] = [("name", "passed", "detail", "elapsed_s")]
    rows.extend((r.name, r.passed, r.detail, r.elapsed_s) for r in results)
    _emit(ns.format, payload, lines, rows)
    return 0 if failed == 0 else 1


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endoscopylab",
        description="Exact calculator for endoscopic multiplicity bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("endoscopy", help="elliptic endoscopic data and sign table")
    p.add_argument("--N", type=int, required=True, help="rank of the group")
    p.add_argument("--shape", help="shape JSON (inline or file) for the sign table")
    _add_format(p)
    p.set_defaults(func=_cmd_endoscopy)

    p = sub.add_parser("chains", help="refinement chains and their expansion")
    p.add_argument("--shape", required=True, help="shape JSON (inline or file)")
    p.add_argument("--N", type=int, help="cross-check the shape's rank")
    p.add_argument(
        "--dominant",
        action="store_true",
        help="expand the distinguished central-sign term instead",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("packet", help="all members over an ordered partition")
    p.add_argument("--a", type=int, required=True, help="first signature entry")
    p.add_argument("--b", type=int, required=True, help="second signature entry")
    p.add_argument("--P", required=True, help="comma list of parts, e.g. 2,1,1")
    _add_format(p)
    p.set_defaults(func=_cmd_packet)

    p = sub.add_parser("poincare", help="cohomology polynomial of one member")
    p.add_argument("--bipartition", required=True, help="JSON (inline or file)")
    _add_format(p)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("decay", help="matrix-coefficient decay profile")
    p.add_argument("--bipartition", required=True, help="JSON (inline or file)")
    _add_format(p)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("sx", help="compare the proved exponent with the allowance")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_sx)

    p = sub.add_parser("derive", help="step-by-step exponent derivation")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true", help="shorthand for --format json")
    _add_format(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("dominance", help="randomized dominance trials on a shape")
    p.add_argument("--shape", required=True, help="shape JSON (inline or file)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_format(p)
    p.set_defaults(func=_cmd_dominance)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_format(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        # a malformed ENDOSCOPYLAB_GUARD is a usage error on every command
        guard_limit(DEFAULT_CHAIN_GUARD)
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`); send the rest of the
        # output to devnull so the interpreter's final flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

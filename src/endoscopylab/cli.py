"""Command-line front end: exact tables, JSON, and CSV for every module.

Exit codes: 0 success, 1 guard violation or failed check run, 2 usage error.
All numeric output is exact; fractions render as "p/q".  Shapes and
bipartitions are given inline as JSON or as a path to a JSON file.

Each command makes every call that can refuse, then returns the requested
format only: a json payload, csv rows or table lines.  ``_emit`` writes them
as they are rendered, so a refusal leaves stdout empty.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from collections.abc import Iterator
from itertools import chain
from typing import TYPE_CHECKING, Sequence

# Library modules are imported inside the commands, so a process loads only
# what its command uses.
from .guards import DEFAULT_CHAIN_GUARD, DEFAULT_SEED, GuardError, guard_limit

if TYPE_CHECKING:
    from .cohomology import Bipartition, PoincarePoly
    from .params import ArthurShape

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1


def _load_json_text(text: str):
    """Inline JSON when the argument looks like it, else a file path."""
    stripped = text.strip()
    inline = stripped.startswith("{") or stripped.startswith("[")
    try:
        if inline:
            return json.loads(stripped)
        with open(text, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        if inline:  # already a ValueError that gives the position
            raise
        raise ValueError(f"{text!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        source = "the inline JSON" if inline else repr(text)
        raise ValueError(f"{source} is nested too deeply") from exc


def _shape_arg(text: str) -> ArthurShape:
    from .params import shape_from_json

    return shape_from_json(_load_json_text(text))


def _bipartition_arg(text: str) -> Bipartition:
    from .cohomology import bipartition_from_json

    return bipartition_from_json(_load_json_text(text))


def _expansion(terms, fmt: str):
    """The sorted terms of an expansion as json items, csv rows or table lines."""
    from .hyperendoscopy import GroupSymbol
    from .params import num_json, shape_to_json

    for key, coeff in terms:
        group = str(GroupSymbol.of_factors(key))
        if fmt == "json":
            yield {
                "coefficient": num_json(coeff),
                "group": group if key else "1",
                "factors": [shape_to_json(f) for f in key],
            }
        elif fmt == "csv":
            yield str(coeff), group, " | ".join(map(str, key))
        else:
            label = f"{group} [{' | '.join(map(str, key))}]" if key else "1"
            yield f"  {coeff!s:>8}  I^{{{label}}}"


class _JsonItem(str):
    """JSON text already laid out at its depth, which _json_text keeps as it is."""


def _json_text(value, pad: str) -> str:
    """json.dumps(value, indent=2) with pad in place of each line break, made by
    the C encoder alone (an indent selects the pure-Python one).  Keys are str,
    and a _JsonItem is kept as it is."""
    if type(value) is int:  # not a bool; str is json.dumps's text, at a fraction of its cost
        return str(value)
    inner = pad + "  "
    if isinstance(value, dict):
        ends, texts = "{}", [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        ends, texts = "[]", [_json_text(v, inner) for v in value]
    else:
        return value if isinstance(value, _JsonItem) else json.dumps(value)
    if not texts:
        return ends
    return ends[0] + inner + ("," + inner).join(texts) + pad + ends[1]


def _json_chunks(payload: dict):
    """The text of json.dumps({"schema_version": 1, **payload}, indent=2) and a
    newline, in pieces: a value that is an iterator is written as a list, one
    item at a time."""
    sep = "{"
    for key, value in {"schema_version": SCHEMA_VERSION, **payload}.items():
        yield f"{sep}\n  {json.dumps(key)}: "
        sep = ","
        if isinstance(value, Iterator):
            head = "["
            for item in value:
                yield head + "\n    " + _json_text(item, "\n    ")
                head = ","
            yield "[]" if head == "[" else "\n  ]"
        else:
            yield _json_text(value, "\n  ")
    yield "\n}\n"


def _emit(fmt: str, out) -> None:
    """The one writer to stdout: each piece of the output as it is rendered."""
    if fmt == "json":
        sys.stdout.writelines(_json_chunks(out))
    elif fmt == "csv":
        csv.writer(sys.stdout).writerows(out)
    else:
        sys.stdout.writelines(f"{line}\n" for line in out)


def _cmd_endoscopy(ns: argparse.Namespace, fmt: str):
    from .endoscopy import bijection, datum_to_json, elliptic_data, iota, split_to_json
    from .params import num_json, s_psi, shape_to_json

    data = elliptic_data(ns.N)
    table = None
    if ns.shape is not None:
        shape = _shape_arg(ns.shape)
        if shape.N != ns.N:
            raise ValueError(f"shape has N={shape.N}, but --N {ns.N} was given")
        center = s_psi(shape)
        table = sorted(bijection(shape).items(), key=lambda entry: str(entry[0]))
    if fmt == "json":
        payload: dict = {
            "N": ns.N,
            "data": ({**datum_to_json(d), "iota": num_json(iota(d))} for d in data),
        }
        if table is not None:
            payload["shape"] = shape_to_json(shape)
            payload["s_psi"] = str(center)
            payload["table"] = (
                {
                    "s": str(s),
                    "datum": datum_to_json(datum),
                    "iota": num_json(iota(datum)),
                    "split": split_to_json(split),
                    "is_s_psi": s == center,
                }
                for s, (datum, split) in table
            )
        return payload
    if fmt == "csv":
        if table is None:
            return chain(
                [("n1", "n2", "iota", "kappa1", "kappa2")],
                ((d.n1, d.n2, str(iota(d)), *d.kappa) for d in data),
            )
        return chain(
            [("s", "n1", "n2", "iota", "is_s_psi")],
            (
                (str(s), datum.n1, datum.n2, str(iota(datum)), s == center)
                for s, (datum, _) in table
            ),
        )

    def lines():
        yield f"elliptic endoscopic data for U({ns.N}):"
        for d in data:
            k1, k2 = d.kappa
            yield f"  {d}  iota={iota(d)!s}  kappa=({k1:+d},{k2:+d})"
        if table is not None:
            yield f"shape: {shape}"
            yield f"character table (s_psi = {center}):"
            for s, (datum, split) in table:
                mark = "  <-- s_psi" if s == center else ""
                yield f"  {s}  ->  {datum}  iota={iota(datum)!s}  [{split}]{mark}"

    return lines()


def _cmd_chains(ns: argparse.Namespace, fmt: str):
    from .endoscopy import datum_to_json, dominant_group, iota, split_to_json
    from .hyperendoscopy import (chain_expansion, chain_iota, dominant_contribution,
                                 enumerate_chains)
    from .params import num_json, s_psi, shape_to_json

    shape = _shape_arg(ns.shape)
    if ns.dominant:
        center = s_psi(shape)
        terms = dominant_contribution(shape).items()
        dominant = None if center.is_identity else dominant_group(shape)
        if fmt == "json":
            payload: dict = {"shape": shape_to_json(shape), "dominant": True}
            payload["dominant_datum"] = None
            if dominant:
                payload["dominant_datum"] = datum_to_json(dominant[0])
                payload["dominant_split"] = split_to_json(dominant[1])
            payload["expansion"] = _expansion(terms, fmt)
            return payload
        if fmt == "csv":
            head = ("coefficient", "group", "factors")
        elif dominant:
            datum, split = dominant
            head = (
                f"dominant group {datum} at s_psi = {center}, "
                f"iota={iota(datum)!s}, split [{split}]:"
            )
        else:
            head = f"s_psi = {center} is the identity; full stable expansion on U({shape.N}):"
        return chain([head], _expansion(terms, fmt))
    chains = enumerate_chains(shape=shape)
    terms = chain_expansion(shape=shape).items()
    # the chains share their ChainStep objects, and the list keeps them alive,
    # so each distinct step is rendered once, keyed by its id; in json at the
    # depth of a step in a chain item
    rendered: dict[int, str] = {}

    def render(step):
        if id(step) not in rendered:
            if fmt == "json":
                rendered[id(step)] = _JsonItem(_json_text(
                    {"factor": step.factor, "datum": datum_to_json(step.datum),
                     "split": split_to_json(step.split)}, "\n        "))
            else:
                rendered[id(step)] = f"factor {step.factor}: {step.datum} [{step.split}]"
        return rendered[id(step)]

    if fmt == "json":
        return {
            "shape": shape_to_json(shape),
            "dominant": False,
            "chains": (
                {"depth": c.depth, "iota": num_json(chain_iota(c)), "terminal": str(c.terminal),
                 "steps": list(map(render, c.steps))}
                for c in chains
            ),
            "expansion": _expansion(terms, fmt),
        }
    if fmt == "csv":
        return chain(
            [("depth", "iota", "terminal", "steps")],
            (
                (c.depth, str(chain_iota(c)), str(c.terminal), "; ".join(map(render, c.steps)))
                for c in chains
            ),
        )

    def lines():
        yield f"refinement chains for {shape} on U({shape.N}):"
        for c in chains:
            steps = "; ".join(map(render, c.steps))
            yield (
                f"  depth {c.depth}  iota={chain_iota(c)!s:>6}  {c.terminal}"
                + (f"  ({steps})" if steps else "")
            )
        yield "chain-sum expansion:"
        yield from _expansion(terms, fmt)

    return lines()


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


def _cmd_packet(ns: argparse.Namespace, fmt: str):
    from .cohomology import degree_R, enumerate_bipartitions, poincare_poly

    parts = _parse_partition(ns.P)
    members = enumerate_bipartitions(ns.a, ns.b, parts)
    for B in members:  # the degree guard refuses here, before the header
        poincare_poly(B)
    if fmt == "json":
        return {
            "a": ns.a,
            "b": ns.b,
            "P": list(parts),
            "size": len(members),
            "members": (_member_json(B, degree_R(B), poincare_poly(B)) for B in members),
        }
    if fmt == "csv":
        return chain(
            [("pairs", "R", "poincare", "reduced")],
            ((str(B), degree_R(B), str(poincare_poly(B)), B.is_reduced) for B in members),
        )
    return chain(
        [f"packet of P={list(parts)} on U({ns.a},{ns.b}): {len(members)} members"],
        (f"  {B}  R={degree_R(B)}  P(t) = {poincare_poly(B)}" for B in members),
    )


def _cmd_poincare(ns: argparse.Namespace, fmt: str):
    from .cohomology import degree_R, poincare_poly

    B = _bipartition_arg(ns.bipartition)
    R, poly = degree_R(B), poincare_poly(B)
    palindromic = poly.is_palindromic()
    if fmt == "json":
        return {
            **_member_json(B, R, poly),
            "a": B.a,
            "b": B.b,
            "degree": poly.degree,
            "palindromic": palindromic,
        }
    if fmt == "csv":
        return [("pairs", "R", "poincare", "palindromic"), (str(B), R, str(poly), palindromic)]
    return [
        f"B = {B} on U({B.a},{B.b})",
        f"R = {R}",
        f"P(t) = {poly}",
        f"palindromic: {'yes' if palindromic else 'no'}",
    ]


def _cmd_decay(ns: argparse.Namespace, fmt: str):
    from .cohomology import bipartition_to_json
    from .decay import p_bound_of_bipartition, ratio_profile
    from .params import num_json

    B = _bipartition_arg(ns.bipartition)
    bound = p_bound_of_bipartition(B)
    mixed = next((x, y) for x, y in B.pairs if x >= 1 and y >= 1)
    N_k, c, c_k = sum(mixed), min(B.a, B.b), min(mixed)
    profile = ratio_profile(B.N, N_k, c, c_k)
    if fmt == "json":
        return {
            **bipartition_to_json(B),
            "N": B.N,
            "N_k": N_k,
            "c": c,
            "c_k": c_k,
            "ratios": [num_json(r) for r in profile.ratios],
            "p_bound": num_json(bound) if bound is not None else None,
        }
    if fmt == "csv":
        return chain(
            [("j", "ratio")],
            ((j, str(r)) for j, r in enumerate(profile.ratios, 1)),
            [("p_bound", str(bound) if bound is not None else "unbounded")],
        )
    ratios = ", ".join(f"j={j}: {r!s}" for j, r in enumerate(profile.ratios, 1))
    return [
        f"B = {B}: N = {B.N}, mixed pair size N_k = {N_k}",
        f"ratios: {ratios or '(none)'}",
        f"p bound: {str(bound) if bound is not None else 'unbounded (N_k = N)'}",
    ]


def _cmd_sx(ns: argparse.Namespace, fmt: str):
    from .decay import sx_check

    result = sx_check(ns.N, ns.k)
    if fmt == "json":
        return {
            "N": ns.N,
            "k": ns.k,
            "theorem_exponent": result.theorem_exponent,
            "sx_exponent": result.sx_exponent,
            "holds": result.holds,
        }
    if fmt == "csv":
        return [
            ("N", "k", "theorem_exponent", "sx_exponent", "holds"),
            (ns.N, ns.k, result.theorem_exponent, result.sx_exponent, result.holds),
        ]
    return [
        f"N = {ns.N}, k = {ns.k}",
        f"proved exponent N(N-2k) = {result.theorem_exponent}",
        f"allowed exponent (N+1)(N-2k) = {result.sx_exponent}",
        f"holds: {'yes' if result.holds else 'no'}",
    ]


def _cmd_derive(ns: argparse.Namespace, fmt: str):
    from .bounds import derive_exponent
    from .params import num_json

    d = derive_exponent(ns.N, ns.a, ns.k)
    if fmt == "json":
        return {
            "input": {"N": ns.N, "a": ns.a, "k": ns.k},
            "steps": [
                {"name": s.name, "claim": s.claim, "justification": s.justification,
                 "value": num_json(s.value)}
                for s in d.steps
            ],
            "chain_exponents": (
                {"terminal": str(sym), "ranks": sym.ranks, "exponent": e}
                for sym, e in d.chain_exponents
            ),
            "final": d.final,
            "max_matches_dominant": d.max_matches_dominant,
        }
    if fmt == "csv":
        return chain(
            [("terminal", "exponent")],
            ((str(sym), exponent) for sym, exponent in d.chain_exponents),
            [("final", d.final)],
        )

    def lines():
        yield f"exponent derivation for U({ns.a},{ns.N - ns.a}), N={ns.N}, k={ns.k}:"
        for step in d.steps:
            yield f"  [{step.name}] {step.claim}"
            yield f"      why: {step.justification}"
        yield "per-chain exponents (terminal group -> exponent):"
        for sym, exponent in d.chain_exponents:
            yield f"  {exponent:>4}  {sym}"
        yield f"final exponent: {d.final}"
        yield "chain maximum at the dominant group: " + (
            "yes" if d.max_matches_dominant else "NO (reported, see steps)"
        )

    return lines()


def _cmd_dominance(ns: argparse.Namespace, fmt: str):
    from .bounds import dominance_check, random_packet
    from .params import centralizer_group, num_json, shape_to_json

    if ns.trials < 1:
        raise ValueError(f"--trials must be positive, got {ns.trials}")
    shape = _shape_arg(ns.shape)
    group = centralizer_group(shape)
    rng = random.Random(ns.seed)
    violations = 0
    for trial in range(ns.trials):
        result = dominance_check(shape, random_packet(rng, group))
        margin = result.c_psi * result.s_dominant - result.i_value
        min_margin = margin if trial == 0 else min(min_margin, margin)
        violations += not result.holds
    code = 0 if violations == 0 else 1
    if fmt == "json":
        return {
            "shape": shape_to_json(shape),
            "trials": ns.trials,
            "seed": ns.seed,
            "violations": violations,
            "min_margin": num_json(min_margin),
            "holds": violations == 0,
        }, code
    if fmt == "csv":
        return [
            ("trials", "seed", "violations", "min_margin", "holds"),
            (ns.trials, ns.seed, violations, str(min_margin), violations == 0),
        ], code
    return [
        f"dominance for {shape}: {ns.trials} random packets, seed {ns.seed}",
        f"violations: {violations}",
        f"smallest margin C*S - I: {min_margin}",
        f"holds: {'yes' if violations == 0 else 'no'}",
    ], code


def _cmd_selftest(ns: argparse.Namespace, fmt: str):
    from .selftest import run_all

    results = run_all(ns.seed)
    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    code = 0 if failed == 0 else 1
    if fmt == "json":
        checks = [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "elapsed_s": r.elapsed_s}
            for r in results
        ]
        return {"seed": ns.seed, "checks": checks, "passed": passed, "failed": failed}, code
    if fmt == "csv":
        rows = [(r.name, r.passed, r.detail, r.elapsed_s) for r in results]
        return [("name", "passed", "detail", "elapsed_s"), *rows], code
    lines = [f"{'PASS' if r.passed else 'FAIL'}: {r.name} ({r.detail})" for r in results]
    return [*lines, f"{passed} passed, {failed} failed"], code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endoscopylab",
        description="Exact calculator for endoscopic multiplicity bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    # every command takes --format, first, so that its default wins where
    # derive's --json shares its dest
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json", "csv"), default="table",
                     help="output format (default: table)")

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[fmt], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("endoscopy", _cmd_endoscopy, "elliptic endoscopic data and sign table")
    p.add_argument("--N", type=int, required=True, help="rank of the group")
    p.add_argument("--shape", help="shape JSON (inline or file) for the sign table")

    p = command("chains", _cmd_chains, "refinement chains and their expansion")
    p.add_argument("--shape", required=True, help="shape JSON (inline or file)")
    p.add_argument("--dominant", action="store_true",
                   help="expand the distinguished central-sign term instead")

    p = command("packet", _cmd_packet, "all members over an ordered partition")
    p.add_argument("--a", type=int, required=True, help="first signature entry")
    p.add_argument("--b", type=int, required=True, help="second signature entry")
    p.add_argument("--P", required=True, help="comma list of parts, e.g. 2,1,1")

    p = command("poincare", _cmd_poincare, "cohomology polynomial of one member")
    p.add_argument("--bipartition", required=True, help="JSON (inline or file)")

    p = command("decay", _cmd_decay, "matrix-coefficient decay profile")
    p.add_argument("--bipartition", required=True, help="JSON (inline or file)")

    p = command("sx", _cmd_sx, "compare the proved exponent with the allowance")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = command("derive", _cmd_derive, "step-by-step exponent derivation")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_const", const="json", dest="format",
                   help="shorthand for --format json")

    p = command("dominance", _cmd_dominance, "randomized dominance trials on a shape")
    p.add_argument("--shape", required=True, help="shape JSON (inline or file)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = command("selftest", _cmd_selftest, "run the acceptance checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

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
        out = ns.func(ns, ns.format)
        # dominance and selftest return their exit code with their output
        out, code = out if isinstance(out, tuple) else (out, 0)
        _emit(ns.format, out)
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

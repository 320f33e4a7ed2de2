"""End-to-end CLI behavior through main()."""

import contextlib
import functools
import io
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from endoscopylab import cli, selftest
from endoscopylab.guards import decimal_int
from endoscopylab.selftest import CheckResult, run_all

SHAPE_21 = '{"summands": [{"label": "c1", "n": 1, "m": 2}, {"label": "c2", "n": 1, "m": 1}]}'
SHAPE_11 = '{"summands": [{"label": "c1", "n": 1, "m": 1}, {"label": "c2", "n": 1, "m": 1}]}'
# deeper than the json decoder's recursion limit
NESTED = pytest.param("[" * 50000, id="nested")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exact(value):
    """The JSON value of an exact number, kept apart from cli._json_text so that
    something outside the CLI checks its layout: an int when it is integral,
    else the string "p/q"."""
    value = Fraction(value)
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_packet_example(capsys):
    code, out, _ = run(capsys, "packet", "--a", "1", "--b", "1", "--P", "2")
    assert code == 0
    assert "1 members" in out
    assert "(1,1)" in out
    assert "1 + t^2" in out


def test_packet_json_agrees_with_table(capsys):
    code, out, _ = run(
        capsys, "packet", "--a", "1", "--b", "1", "--P", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["size"] == 1
    member = data["members"][0]
    assert member["pairs"] == [[1, 1]]
    assert member["R"] == 0
    assert member["poincare"] == [1, 0, 1]


GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
PACKET_AND_POINCARE = [c for c in GOLDEN if c["argv"][0] in ("packet", "poincare")]
OTHER_COMMANDS = [c for c in GOLDEN if c not in PACKET_AND_POINCARE]


def golden_id(case):
    return " ".join(case["argv"][:1] + case["argv"][-1:])


@pytest.mark.parametrize("case", PACKET_AND_POINCARE, ids=golden_id)
def test_packet_and_poincare_stdout_is_golden(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (0, "")
    assert out == case["stdout"]


def mask_elapsed(out):
    """Blank the wall-time field of selftest json and csv output."""
    out = re.sub(r'("elapsed_s": )[-+.0-9eE]+', r'\1"*"', out)
    return re.sub(r",[0-9][-+.0-9eE]*(\r?)$", r",*\1", out, flags=re.M)


@functools.lru_cache(maxsize=None)
def run_all_once(seed):
    return run_all(seed)


@pytest.mark.parametrize("case", OTHER_COMMANDS, ids=golden_id)
def test_command_stdout_is_golden(capsys, monkeypatch, case):
    # the three selftest entries share one run of the checks
    monkeypatch.setattr(selftest, "run_all", run_all_once)
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (0, "")
    if case.get("mask") == "elapsed_s":
        out = mask_elapsed(out)
    assert out == case["stdout"]


def test_packet_guard_exit_code(capsys):
    ones = ",".join(["1"] * 60)
    code, out, err = run(capsys, "packet", "--a", "30", "--b", "30", "--P", ones)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the packet would hold 118264581564861424 members, above the cap 100000"
    ]
    assert len(err.splitlines()) == 1


def run_in_bounded_memory(*args):
    """A Python child under a 400 MB address-space limit, with the default caps."""
    limit = 400 * 2**20
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("ENDOSCOPYLAB_GUARD", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ["packet", "--a", "200000000", "--b", "0", "--P", "200000000"],
            0,
            "packet of P=[200000000] on U(200000000,0): 1 members\n"
            "  (200000000,0)  R=0  P(t) = 1\n",
            "",
        ),
        (
            ["packet", "--a", "100000000", "--b", "100000000", "--P", "100000000,100000000"],
            1,
            "",
            "error: the packet would hold >= 100000001 members, above the cap 100000\n",
        ),
        (
            ["packet", "--a", "0", "--b", "5000", "--P", ",".join(["1"] * 5000)],
            0,
            "packet of P=[" + ", ".join(["1"] * 5000) + "] on U(0,5000): 1 members\n"
            "  " + "(0,1)" * 5000 + "  R=0  P(t) = 1\n",
            "",
        ),
        (
            ["packet", "--a", "2", "--b", "4998", "--P", ",".join(["1"] * 5000)],
            1,
            "",
            "error: the packet would hold 12497500 members, above the cap 100000\n",
        ),
        (
            ["poincare", "--bipartition", "[[50000,0],[0,50000]]"],
            1,
            "",
            "error: a Poincare polynomial would have degree"
            " >= 2500000000, above the cap 1000000\n",
        ),
        (
            ["packet", "--a", "50000", "--b", "50000", "--P", "50000,50000"],
            1,
            "",
            "error: a Poincare polynomial would have degree"
            " >= 2500000000, above the cap 1000000\n",
        ),
        (
            ["endoscopy", "--N", "1000000000"],
            1,
            "",
            "error: U(1000000000) has 500000001 elliptic data, above the cap 100000\n",
        ),
        (
            ["decay", "--bipartition", "[[1000000000,1],[0,999999999]]"],
            1,
            "",
            "error: the decay profile would hold 1000000000 ratios, above the cap 100000\n",
        ),
        (
            [
                "dominance",
                "--shape",
                '{"summands":[{"label":"a","n":1,"m":1},{"label":"b","n":1,"m":1000000000}]}',
                "--trials",
                "1",
            ],
            0,
            "dominance for a*nu(1) + b*nu(1000000000): 1 random packets, seed 1729\n"
            "violations: 0\n"
            "smallest margin C*S - I: 1\n"
            "holds: yes\n",
            "",
        ),
        (
            ["chains", "--shape", '{"summands":[{"label":"a","n":1,"m":1000000000}]}'],
            0,
            "refinement chains for a*nu(1000000000) on U(1000000000):\n"
            "  depth 0  iota=     1  U(1000000000)\n"
            "chain-sum expansion:\n"
            "         1  I^{U(1000000000) [a*nu(1000000000)]}\n",
            "",
        ),
        (
            ["derive", "--N", "1000000000", "--a", "1", "--k", "499999999", "--format", "csv"],
            0,
            "terminal,exponent\n"
            "U(999999998)xU(2),2000000000\n"
            "U(999999998)xU(1)^2,1999999999\n"
            "final,2000000000\n",
            "",
        ),
    ],
    ids=[
        "one member",
        "refused",
        "5000 parts",
        "5000 parts refused",
        "poincare degree refused",
        "packet degree refused",
        "endoscopy data refused",
        "decay ratios refused",
        "dominance minus ranks",
        "chains one huge block",
        "derive two unit blocks",
    ],
)
def test_huge_packet_parts_run_in_bounded_memory(argv, code, out, err):
    # a list with one entry per unit of a would need gigabytes, as would a
    # polynomial of degree ab = 2.5e9, one entry per elliptic datum, decay
    # ratio or minus rank up to 1e9, and a walk with one stack frame per part
    # overflows at 1000 parts; under a 400 MB address-space limit such a
    # regression fails instead of taking the host
    proc = run_in_bounded_memory("-m", "endoscopylab.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_huge_polynomials_are_refused_by_the_library():
    # both builders refuse the polynomial themselves, with no CLI in front
    proc = run_in_bounded_memory(
        "-c",
        "from endoscopylab.cohomology import Bipartition, brute_poincare, poincare_poly\n"
        "from endoscopylab.guards import GuardError\n"
        "B = Bipartition(((50000, 0), (0, 50000)))\n"
        "for build in (poincare_poly, brute_poincare):\n"
        "    try:\n"
        "        build(B)\n"
        "    except GuardError as exc:\n"
        "        print(build.__name__, exc)\n",
    )
    message = "a Poincare polynomial would have degree >= 2500000000, above the cap 1000000"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        f"poincare_poly {message}\nbrute_poincare {message}\n",
        "",
    )


def test_random_packet_refuses_a_big_group_before_it_draws():
    # the library guards its own draw: 2^40 characters are refused before
    # rng.sample lists a range that size, and rng is left untouched
    proc = run_in_bounded_memory(
        "-c",
        "import random\n"
        "from endoscopylab.bounds import random_packet\n"
        "from endoscopylab.guards import GuardError\n"
        "from endoscopylab.params import TwoGroup\n"
        "rng = random.Random(1)\n"
        "try:\n"
        "    random_packet(rng, TwoGroup(40))\n"
        "except GuardError as exc:\n"
        "    print(exc)\n"
        "print(rng.getstate() == random.Random(1).getstate())\n",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        "a random packet could hold 1099511627776 entries, above the cap 100000\nTrue\n",
        "",
    )


def test_packet_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "9")
    code, _, err = run(capsys, "packet", "--a", "2", "--b", "3", "--P", "1,1,1,1,1")
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "10")
    code, _, _ = run(capsys, "packet", "--a", "2", "--b", "3", "--P", "1,1,1,1,1")
    assert code == 0


@pytest.mark.parametrize(
    "bipartition",
    ['[[1.7,0],[true,1]]', '[[true,1]]', '[["1",0]]', '{"pairs": [[1,0.0]]}', NESTED],
)
@pytest.mark.parametrize("command", ["poincare", "decay"])
def test_non_int_bipartition_is_usage_error(capsys, command, bipartition):
    code, out, err = run(capsys, command, "--bipartition", bipartition)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive", "--N", "5", "--a", "1", "--k", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["final"] == 5
    assert data["chain_exponents"][0]["terminal"] == "U(4)xU(1)"


@pytest.mark.parametrize("N, a, k", [(2, 1, 1), (6, 2, 3), (5, 1, 2), (12, 3, 2), (40, 1, 1)])
def test_derive_json_is_json_dumps_of_the_derivation(capsys, N, a, k):
    # the chain rows are rendered one item at a time, never held as a list
    from endoscopylab.bounds import derive_exponent

    argv = ["derive", "--N", str(N), "--a", str(a), "--k", str(k), "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert out == json.dumps(data, indent=2) + "\n"
    d = derive_exponent(N, a, k)
    assert data == {
        "schema_version": 1,
        "input": {"N": N, "a": a, "k": k},
        "steps": [
            {"name": s.name, "claim": s.claim, "justification": s.justification,
             "value": exact(s.value)}
            for s in d.steps
        ],
        "chain_exponents": [
            {"terminal": str(sym), "ranks": list(sym.ranks), "exponent": e}
            for sym, e in d.chain_exponents
        ],
        "final": d.final,
        "max_matches_dominant": d.max_matches_dominant,
    }
    assert data["final"] == N * (N - 2 * k)
    assert data["max_matches_dominant"] is True
    assert [step["name"] for step in data["steps"]][:3] == ["packet", "spectral", "dominance"]
    for step in data["steps"]:
        assert isinstance(step["value"], (int, str))
    dominant = [2 * k, N - 2 * k] if N > 2 * k else [N]
    assert data["chain_exponents"][0]["ranks"] == sorted(dominant, reverse=True)
    payload = cli._cmd_derive(cli.build_parser().parse_args(argv), "json")
    assert isinstance(payload["chain_exponents"], Iterator)


def test_derive_json_is_a_later_wins_shorthand(capsys):
    argv = ("derive", "--N", "5", "--a", "1", "--k", "2")
    _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    _, json_out, _ = run(capsys, *argv, "--json")
    assert run(capsys, *argv, "--json", "--format", "csv") == (0, csv_out, "")
    assert run(capsys, *argv, "--format", "csv", "--json") == (0, json_out, "")
    assert json.loads(json_out)["final"] == 5


def test_derive_table_names_final(capsys):
    code, out, _ = run(capsys, "derive", "--N", "7", "--a", "3", "--k", "2")
    assert code == 0
    assert "final exponent: 21" in out
    assert "U(4)xU(2)xU(1)" in out


def test_derive_bad_range(capsys):
    code, _, err = run(capsys, "derive", "--N", "5", "--a", "1", "--k", "9")
    assert code == 2
    assert "error" in err


def test_sx_csv(capsys):
    code, out, _ = run(capsys, "sx", "--N", "5", "--k", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,k,theorem_exponent,sx_exponent,holds"
    assert lines[1] == "5,2,5,6,True"


def test_endoscopy_table(capsys):
    code, out, _ = run(capsys, "endoscopy", "--N", "5")
    assert code == 0
    assert "U(4)xU(1)" in out
    assert "iota=1/2" in out


def test_endoscopy_with_shape_marks_s_psi(capsys):
    code, out, _ = run(capsys, "endoscopy", "--N", "3", "--shape", SHAPE_21)
    assert code == 0
    assert "s_psi = +-" in out
    assert "<-- s_psi" in out


def test_endoscopy_shape_rank_mismatch(capsys):
    code, _, err = run(capsys, "endoscopy", "--N", "4", "--shape", SHAPE_21)
    assert code == 2
    assert "N=3" in err


def test_chains_json(capsys):
    code, out, _ = run(capsys, "chains", "--shape", SHAPE_11, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["chains"]) == 2
    coeffs = {term["group"]: term["coefficient"] for term in data["expansion"]}
    assert coeffs == {"U(2)": 1, "U(1)^2": "-1/4"}


@pytest.mark.parametrize("parts", [(1,), (2, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1)])
def test_chains_json_is_json_dumps_of_the_chains(capsys, parts):
    # each chain item is put together from the once-rendered text of its steps
    from endoscopylab.hyperendoscopy import chain_iota, enumerate_chains
    from endoscopylab.params import from_cohomological

    shape = from_cohomological(parts)
    text = json.dumps(cli._shape_to_json(shape)).replace('"c1"', '"c\\u00e9\\""')
    code, out, _ = run(capsys, "chains", "--shape", text, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert out == json.dumps(data, indent=2) + "\n"
    steps = lambda c: [
        {"factor": s.factor, "datum": cli._datum_to_json(s.datum),
         "split": cli._split_to_json(s.split)}
        for s in c.steps
    ]
    chains = enumerate_chains(shape=cli._shape_arg(text))
    assert data["chains"] == [
        {"depth": c.depth, "iota": exact(chain_iota(c)), "terminal": str(c.terminal),
         "steps": steps(c)}
        for c in chains
    ]
    assert '"label": "c\\u00e9\\""' in out


def test_chains_dominant(capsys):
    code, out, _ = run(capsys, "chains", "--shape", SHAPE_21, "--dominant")
    assert code == 0
    assert "dominant group U(2)xU(1)" in out
    assert "1/2" in out


def test_chains_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "3")
    shape = json.dumps(
        {"summands": [{"label": f"c{i}", "n": 1, "m": 1} for i in range(1, 4)]}
    )
    code, _, err = run(capsys, "chains", "--shape", shape)
    assert code == 1
    assert "cap" in err


def test_chains_dominant_guard_on_ten_blocks(capsys):
    shape = json.dumps(
        {"summands": [{"label": f"c{i}", "n": 1, "m": 1} for i in range(1, 11)]}
    )
    code, out, err = run(capsys, "chains", "--shape", shape, "--dominant")
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.strip()
    ]
    assert "115975 terms" in err


@pytest.mark.parametrize(
    "shape",
    [
        '{"summands": 5}',
        '{"summands": [5]}',
        '{"summands": [{"label": 7, "n": 1, "m": 1}]}',
        '{"summands": [{"label": "a", "n": 1.9, "m": 1}]}',
        '{"summands": [{"label": "a", "n": 1, "m": true}]}',
        '{"summands": [{"label": "a", "n": 1, "m": 1, "self_dual": "false"}]}',
        # a misspelt field is not ignored, and a repeated one not overwritten
        '{"summands": [{"label": "a", "n": 1, "m": 1, "selfdual": false}]}',
        '{"summands": [{"label": "a", "n": 1, "m": 2, "m": 1}]}',
        NESTED,
    ],
)
def test_malformed_shape_json_is_usage_error(capsys, shape):
    code, out, err = run(capsys, "endoscopy", "--N", "1", "--shape", shape)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_closed_stdout_exits_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    shape = json.dumps(
        {"summands": [{"label": f"c{i}", "n": 1, "m": i} for i in range(1, 6)]}
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "endoscopylab.cli", "chains", "--shape", shape,
         "--format", "json"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the first write
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.stderr.close()
    assert code == 0
    assert err == b""


def test_reader_closing_the_pipe_after_one_line_exits_quietly():
    # the 11440 members of 1^16 at a = 7 take about 1.2 MB, far more than a
    # pipe holds, so the command is still writing when the reader goes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "endoscopylab.cli", "packet", "--a", "7", "--b", "9",
         "--P", ",".join(["1"] * 16)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.stderr.close()
    assert first == b"packet of P=[" + b", ".join([b"1"] * 16) + b"] on U(7,9): 11440 members\n"
    assert (code, err) == (0, b"")


def traced_peak_over_member_list(a, b, parts, fmt):
    """The peak memory traced while main writes a packet to a discarding sink,
    over the traced size of the packet's member list."""
    from endoscopylab.cohomology import enumerate_bipartitions

    argv = ["packet", f"--a={a}", f"--b={b}", f"--P={','.join(map(str, parts))}", "--format", fmt]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        members = enumerate_bipartitions(a, b, parts)
        listed = tracemalloc.get_traced_memory()[0] - before
        del members
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / listed


@pytest.mark.parametrize(
    "parts, fmt, bound",
    [((1,) * 400, "table", 1.6), ((1,) * 400, "csv", 1.6), ((1,) * 150, "json", 2)],
    ids=["table", "csv", "json"],
)
def test_packet_output_streams(parts, fmt, bound):
    # a command that held its whole output would peak at more than twice the
    # member list (each member's text is longer than its pairs), and json at
    # dozens of times it
    assert traced_peak_over_member_list(1, len(parts) - 1, parts, fmt) <= bound


@pytest.mark.parametrize(
    "payload, streamed",
    [
        ({"members": []}, {"members"}),
        ({"size": 3, "members": [1, "two", None, True, 2.5], "after": []}, {"members"}),
        ({"a": {"b": {"c": [1, {"d": []}], "e": {}}}, "rows": [{"x": [1, 2]}, {}, []]}, {"rows"}),
        ({"λ": "U(2)×U(1) — ε", "items": ["é", {"ü": ["ß"]}]}, {"items"}),
        ({}, set()),
        ({"t": (1, ("a\"b\\c\n\t\x01", None)), "rows": [(-2, "/"), '"q"\r\n']}, {"rows"}),
    ],
    ids=["empty streamed list", "scalars", "nested dicts", "non-ascii", "schema only",
         "tuples and escapes"],
)
def test_json_writer_matches_json_dumps(payload, streamed):
    # the writer takes the streamed lists as iterators, json.dumps as lists
    expected = json.dumps({"schema_version": 1, **payload}, indent=2) + "\n"
    lazy = {key: iter(v) if key in streamed else v for key, v in payload.items()}
    assert "".join(cli._json_chunks(lazy)) == expected


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers() | st.integers(-(10**80), 10**80)
    | st.text(st.characters(codec="utf-8"))
    | st.text('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600', max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, depth=st.sampled_from([0, 1, 4]))
def test_json_text_is_json_dumps_at_a_depth(value, depth):
    pad = "\n" + "  " * depth
    assert cli._json_text(value, pad) == json.dumps(value, indent=2).replace("\n", pad)


@given(
    value=st.fractions() | st.fractions(max_denominator=1)
    | st.builds(Fraction, st.integers(-(10**80), 10**80), st.integers(1, 10**80)),
    depth=st.sampled_from([0, 1, 4]),
)
def test_json_text_lays_out_a_fraction_exactly(value, depth):
    pad = "\n" + "  " * depth
    assert cli._json_text(value, pad) == json.dumps(exact(value))
    assert cli._json_text([value], pad) == json.dumps([exact(value)], indent=2).replace("\n", pad)


@pytest.mark.parametrize("depth", [0, 1, 4])
def test_json_text_keeps_a_prerendered_item(depth):
    pad = "\n" + "  " * depth
    item = cli._JsonItem('{"kept":  [1,2]}')
    assert cli._json_text(item, pad) is item
    assert cli._json_text({"x": [item, 3]}, pad) == (
        "{" + pad + '  "x": [' + pad + "    " + item + "," + pad + "    3" + pad + "  ]" + pad + "}"
    )


# labels that json.dumps escapes: non-ASCII letters, a quote and a backslash
ODD_LABEL_SHAPE = json.dumps({"summands": [
    {"label": "\u00e9\"1", "n": 1, "m": 2}, {"label": "c2", "n": 1, "m": 1},
    {"label": "\u00df\\", "n": 1, "m": 1}, {"label": "c3", "n": 1, "m": 3},
]})


@pytest.mark.parametrize(
    "argv",
    [
        ["endoscopy", "--N", "7", "--shape", ODD_LABEL_SHAPE],
        ["chains", "--shape", ODD_LABEL_SHAPE],
        ["chains", "--shape", ODD_LABEL_SHAPE, "--dominant"],
        ["packet", "--a", "5", "--b", "7", "--P", ",".join(["1"] * 12)],
        ["poincare", "--bipartition", "[[2,1],[0,3],[1,1]]"],
        ["decay", "--bipartition", "[[2,2],[1,0]]"],
        ["sx", "--N", "7", "--k", "2"],
        ["dominance", "--shape", ODD_LABEL_SHAPE, "--trials", "5"],
    ],
    ids=["endoscopy", "chains", "chains --dominant", "packet", "poincare", "decay", "sx",
         "dominance"],
)
def test_json_output_is_json_dumps_of_itself(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_derive_guard_exit_code(capsys):
    code, out, err = run(capsys, "derive", "--N", "3000", "--a", "1", "--k", "1")
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.strip()
    ]


def test_selftest_survives_optimized_interpreter():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "endoscopylab.cli", "selftest"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8 passed, 0 failed" in proc.stdout


def test_shape_file_argument(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(SHAPE_21)
    code, out, _ = run(capsys, "chains", "--shape", str(path), "--dominant")
    assert code == 0
    assert "U(2)xU(1)" in out


def test_nested_shape_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text("[" * 50000)
    code, out, err = run(capsys, "chains", "--shape", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {str(path)!r} is nested too deeply\n"


def test_missing_shape_file(capsys):
    code, _, err = run(capsys, "chains", "--shape", "nowhere.json")
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text('{"summands": [}')
    code, out, err = run(capsys, "chains", "--shape", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {str(path)!r} is not valid JSON: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_repeated_json_key_is_usage_error(tmp_path, capsys, inline):
    # json.loads would keep the last value of the key, and the command would run on it
    text = '{"pairs": [[1,1]], "pairs": [[2,2]]}'
    if not inline:
        (tmp_path / "bipartition.json").write_text(text)
        text = str(tmp_path / "bipartition.json")
    code, out, err = run(capsys, "decay", "--bipartition", text)
    assert (code, out, err) == (2, "", "error: a JSON object repeats the key 'pairs'\n")


def test_json_output_passes_back_as_input(capsys):
    # the top-level shape and bipartition objects ignore the payload's other keys
    _, out, _ = run(capsys, "poincare", "--bipartition", "[[2,1],[0,3]]", "--format", "json")
    assert run(capsys, "poincare", "--bipartition", out.strip(), "--format", "json") == (0, out, "")
    _, out, _ = run(capsys, "packet", "--a", "2", "--b", "2", "--P", "2,2", "--format", "json")
    member = json.dumps(json.loads(out)["members"][1])
    code, again, _ = run(capsys, "poincare", "--bipartition", member, "--format", "json")
    assert code == 0 and json.loads(again)["pairs"] == json.loads(member)["pairs"]
    _, out, _ = run(capsys, "chains", "--shape", SHAPE_21, "--format", "json")
    shape = {**json.loads(out)["shape"], "dominant": False}
    assert run(capsys, "chains", "--shape", json.dumps(shape), "--format", "json") == (0, out, "")


@pytest.mark.parametrize("P", ["1,,1", "1,1,", "", "1,x"],
                         ids=["empty piece", "trailing comma", "empty", "not an integer"])
def test_partition_needs_an_integer_in_every_piece(capsys, P):
    code, out, err = run(capsys, "packet", "--a", "1", "--b", "1", f"--P={P}")
    assert (code, out) == (2, "")
    assert err == f"error: --P expects a comma list of integers, got {P!r}\n"


@pytest.mark.parametrize("text", ["", "-", "+5", " 5", "5 ", "1_0", "\u0665", "5.0", "--5", "0x5"])
def test_decimal_int_takes_only_ascii_digits(text):
    with pytest.raises(ValueError):
        decimal_int(text)


def test_decimal_int_reads_a_sign_and_leading_zeros():
    texts = ("0", "-0", "007", "-12", "9" * 40)
    assert [decimal_int(t) for t in texts] == [0, 0, 7, -12, 10**40 - 1]


@pytest.mark.parametrize(
    "argv",
    [
        ("packet", "--a", "1", "--b", "9", "--P", "1_0"),
        ("packet", "--a", "1", "--b", "9", "--P= 1, 1"),
        ("packet", "--a", "1", "--b", "9", "--P", "+1"),
        ("packet", "--a", "+1", "--b", "9", "--P", "1"),
        ("endoscopy", "--N", "1_0"),
        ("sx", "--N= 7", "--k", "2"),
        ("sx", "--N", "\u0667", "--k", "2"),
        ("derive", "--N", "12", "--a", "3", "--k", "2 "),
        ("dominance", "--shape", SHAPE_21, "--trials", "1_0"),
    ],
    ids=["P underscore", "P spaces", "P plus", "a plus", "N underscore", "N space",
         "N arabic-indic", "k trailing space", "trials underscore"],
)
def test_integer_arguments_are_plain_decimal(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error:" in err


@pytest.mark.parametrize("value", ["1_0", "+5", " 50 ", "\u0665"])
def test_guard_variable_is_plain_decimal(capsys, monkeypatch, value):
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", value)
    code, out, err = run(capsys, "sx", "--N", "5", "--k", "2")
    assert (code, out) == (2, "")
    assert err == f"error: ENDOSCOPYLAB_GUARD must be an integer, got {value!r}\n"


def test_negative_integer_arguments_still_parse(capsys):
    code, out, err = run(capsys, "dominance", "--shape", SHAPE_21, "--trials", "2",
                         "--seed", "-5", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["seed"] == -5
    # the library, not the parser, refuses k = -1
    assert run(capsys, "sx", "--N", "5", "--k", "-1") == (
        2, "", "error: need 1 <= k <= 2, got k=-1\n"
    )


REPEATED = json.dumps({"summands": [{"label": "a", "n": 1, "m": 2}] * 2})


@pytest.mark.parametrize(
    "argv",
    [("chains",), ("chains", "--dominant"), ("endoscopy", "--N", "4"), ("dominance",)],
    ids=" ".join,
)
def test_a_shape_that_repeats_a_block_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--shape", REPEATED)
    assert (code, out) == (2, "")
    assert err == "error: shape is not elliptic: a*nu(2) + a*nu(2)\n"


def test_poincare_json(capsys):
    code, out, _ = run(
        capsys, "poincare", "--bipartition", "[[1,1],[1,0]]", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["R"] == 1
    assert data["poincare"] == [0, 1, 0, 1]
    assert data["palindromic"] is True


def test_decay_table(capsys):
    code, out, _ = run(capsys, "decay", "--bipartition", "[[2,2],[1,0]]")
    assert code == 0
    assert "N_k = 4" in out
    assert "3/4" in out
    assert "p bound: 8" in out


def test_decay_unbounded(capsys):
    code, out, _ = run(capsys, "decay", "--bipartition", "[[2,3]]")
    assert code == 0
    assert "unbounded" in out


def test_decay_rejects_two_mixed_pairs(capsys):
    code, _, err = run(capsys, "decay", "--bipartition", "[[1,1],[1,1]]")
    assert code == 2
    assert "mixed pair" in err


def test_dominance_runs_clean(capsys):
    code, out, _ = run(
        capsys,
        "dominance",
        "--shape",
        SHAPE_21,
        "--trials",
        "25",
        "--seed",
        "7",
    )
    assert code == 0
    assert "violations: 0" in out
    assert "holds: yes" in out


def test_dominance_runs_on_ten_blocks_of_distinct_ranks(capsys):
    # every packet on (10,9,...,1) counts at most 512 members + 512 count
    # tuples * 191 entries visited per subset sum = 98304 steps
    shape = json.dumps(
        {"summands": [{"label": f"c{i}", "n": 1, "m": 11 - i} for i in range(1, 11)]}
    )
    code, out, err = run(capsys, "dominance", "--shape", shape, "--trials", "20", "--seed", "3")
    assert (code, err) == (0, "")
    assert out.endswith("violations: 0\nsmallest margin C*S - I: 67247/1260\nholds: yes\n")


def test_dominance_rejects_nonpositive_trials(capsys):
    code, _, err = run(capsys, "dominance", "--shape", SHAPE_21, "--trials", "0")
    assert code == 2
    assert "--trials" in err


def test_selftest_reports_lines(capsys, monkeypatch):
    fake = [
        CheckResult("alpha", True, "ok"),
        CheckResult("beta", False, "broke"),
    ]
    monkeypatch.setattr(selftest, "run_all", lambda seed: fake)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "PASS: alpha (ok)" in out
    assert "FAIL: beta (broke)" in out
    assert "1 passed, 1 failed" in out


def test_selftest_all_green_exit_zero(capsys, monkeypatch):
    monkeypatch.setattr(
        selftest, "run_all", lambda seed: [CheckResult("alpha", True, "ok")]
    )
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.strip().endswith("1 passed, 0 failed")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "selftest" in out


def one_error_line(err):
    return err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_guard_variable_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", value)
    code, out, err = run(capsys, "sx", "--N", "5", "--k", "2")
    assert (code, out) == (2, "")
    assert one_error_line(err)
    assert "ENDOSCOPYLAB_GUARD" in err


def test_poincare_long_pair_prints(capsys):
    code, out, err = run(capsys, "poincare", "--bipartition", "[[1000,1]]")
    assert (code, err) == (0, "")
    assert out.startswith("B = (1000,1) on U(1000,1)\nR = 0\nP(t) = 1 + t^2 + ")
    assert "+ t^2000\n" in out


def test_poincare_gaussian_guard_exit_code(capsys):
    code, out, err = run(capsys, "poincare", "--bipartition", "[[400,400]]")
    assert code == 1
    assert out == ""
    assert one_error_line(err)
    assert "Gaussian binomial [800 choose 400]" in err


BLOCKS_24 = json.dumps(
    {"summands": [{"label": f"c{i}", "n": 1, "m": 1} for i in range(1, 25)]}
)
BLOCKS_4 = json.dumps(
    {"summands": [{"label": f"c{i}", "n": 1, "m": i} for i in range(1, 5)]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ("endoscopy", "--N", "24", "--shape", BLOCKS_24),
        ("dominance", "--shape", BLOCKS_24, "--trials", "1"),
    ],
    ids=["endoscopy", "dominance"],
)
def test_sign_table_guard_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert one_error_line(err)
    assert "8388608 entries" in err


@pytest.mark.parametrize(
    "argv, runs_at",
    [
        (("endoscopy", "--N", "10", "--shape", BLOCKS_4), 8),
        # past the 8-entry sign table, the trace of a packet counts at most
        # 8 members + 8 count tuples * 7 entries visited per subset sum = 64 steps
        (("dominance", "--shape", BLOCKS_4, "--trials", "3"), 64),
    ],
    ids=["endoscopy", "dominance"],
)
def test_sign_table_guard_env_override(capsys, monkeypatch, argv, runs_at):
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", "7")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert one_error_line(err)
    assert "8 entries" in err
    monkeypatch.setenv("ENDOSCOPYLAB_GUARD", str(runs_at))
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_selftest_json_reports_each_check_with_its_time(capsys):
    code, out, err = run(capsys, "selftest", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["passed"], payload["failed"]) == (8, 0)
    assert len(payload["checks"]) == 8
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "detail", "elapsed_s"}
        assert check["passed"] and check["elapsed_s"] >= 0


def test_selftest_csv_and_table_share_the_results(capsys, monkeypatch):
    fake = [CheckResult("alpha", True, "ok", 0.25), CheckResult("beta", False, "x")]
    monkeypatch.setattr(selftest, "run_all", lambda seed: fake)
    code, out, _ = run(capsys, "selftest", "--format", "csv")
    assert code == 1
    assert out.splitlines() == [
        "name,passed,detail,elapsed_s",
        "alpha,True,ok,0.25",
        "beta,False,x,0.0",
    ]
    code, out, _ = run(capsys, "selftest")
    assert out == "PASS: alpha (ok)\nFAIL: beta (x)\n1 passed, 1 failed\n"


# Fuzzing: generated shape and bipartition JSON through main() ends in exit 0
# with a quiet stderr, or in exit 2 (usage) or 1 (guard) with exactly one
# "error:" line; any other exception escapes main() and fails the test.

ODD_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# where a drawn document is spoiled: nowhere (most often), one field, one
# entry, or the whole document
SPOIL = st.sampled_from(["none", "none", "none", "field", "entry", "document"])


@st.composite
def shape_documents(draw):
    """A shape JSON document and the rank N of its unspoilt form."""
    r = draw(st.integers(0, 5))
    labels = draw(
        st.lists(st.sampled_from(["c1", "c2", "c3", "c4", "c5"]), min_size=r, max_size=r,
                 unique=draw(st.booleans()))
    )
    summands = [
        {"label": label, "n": draw(st.integers(1, 2)), "m": draw(st.integers(1, 4))}
        for label in labels
    ]
    for entry in summands:
        if draw(st.integers(0, 5)) == 0:  # true is accepted, false a usage error
            entry["self_dual"] = draw(st.booleans())
    N = sum(entry["n"] * entry["m"] for entry in summands)
    spoil = draw(SPOIL)
    if spoil == "document":
        return draw(ODD_JSON | st.fixed_dictionaries({"summands": ODD_JSON})), N
    if summands and spoil == "entry":
        summands[draw(st.integers(0, r - 1))] = draw(ODD_JSON)
    if summands and spoil == "field":
        entry = summands[draw(st.integers(0, r - 1))]
        key = draw(st.sampled_from(["label", "n", "m", "self_dual"]))
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(ODD_JSON)
    return {"summands": summands}, N


@st.composite
def bipartition_documents(draw):
    pair = st.lists(st.integers(0, 4), min_size=2, max_size=2)
    pairs = draw(st.lists(pair, min_size=1, max_size=5))
    if draw(st.integers(0, 7)) == 0:
        pairs[0] = [400, draw(st.sampled_from([1, 400]))]  # a large one: long, or refused
    spoil = draw(SPOIL)
    if spoil == "document":
        return draw(ODD_JSON)
    if spoil == "entry":
        pairs[draw(st.integers(0, len(pairs) - 1))] = draw(ODD_JSON)
    if spoil == "field":
        pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = draw(ODD_JSON)
    return {"pairs": pairs} if draw(st.booleans()) else pairs


FORMATS = st.sampled_from(["table", "json", "csv"])


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_clean_outcome(code, err):
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2)
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(
    command=st.sampled_from(["endoscopy", "chains", "dominance"]),
    shape_and_N=shape_documents(),
    N_offset=st.sampled_from([0, 0, 0, 1]),
    fmt=FORMATS,
)
def test_fuzzed_shape_json_ends_cleanly(command, shape_and_N, N_offset, fmt):
    shape, N = shape_and_N
    # "--opt=value": argparse reads a separate value such as "-1e-05" as an option
    argv = [command, f"--shape={json.dumps(shape)}", "--format", fmt]
    if command == "endoscopy":
        argv += ["--N", str(N + N_offset)]
    elif command == "dominance":
        argv += ["--trials", "3"]
    assert_clean_outcome(*run_quietly(argv))


@FUZZ
@given(
    command=st.sampled_from(["poincare", "decay"]),
    bipartition=bipartition_documents(),
    fmt=FORMATS,
)
def test_fuzzed_bipartition_json_ends_cleanly(command, bipartition, fmt):
    argv = [command, f"--bipartition={json.dumps(bipartition)}", "--format", fmt]
    assert_clean_outcome(*run_quietly(argv))


# Integer and list arguments: small magnitudes, with a drawn cap, so that no
# example allocates much; the huge-value cases are pinned above.

SMALL = st.integers(-2, 60)


def run_under_cap(argv, cap):
    with mock.patch.dict(os.environ, {"ENDOSCOPYLAB_GUARD": str(cap)}):
        return run_quietly(argv)


@st.composite
def packet_arguments(draw):
    """An a and a parts list: a few small integers, or sometimes many ones."""
    if draw(st.integers(0, 3)):
        return draw(SMALL), draw(st.lists(SMALL, max_size=12))
    # a walk deeper than the default recursion limit, with a near 0 or N: one
    # member, or C(n, 2) members refused; a = 1 is left out, since its n members
    # of n pairs each would make an example take seconds
    n = draw(st.integers(1000, 3000))
    return draw(st.sampled_from([0, 2, n - 2, n])), [1] * n


@FUZZ
@given(
    a_and_parts=packet_arguments(),
    b_offset=st.sampled_from([0, 0, 0, 1, -1]),  # b fills the parts, or misses by one
    cap=st.integers(1, 2000),
    fmt=FORMATS,
)
def test_fuzzed_packet_integers_end_cleanly(a_and_parts, b_offset, cap, fmt):
    a, parts = a_and_parts
    b = sum(parts) - a + b_offset
    argv = ["packet", f"--a={a}", f"--b={b}", f"--P={','.join(map(str, parts))}"]
    assert_clean_outcome(*run_under_cap(argv + ["--format", fmt], cap))


@FUZZ
@given(
    command=st.sampled_from(["derive", "sx"]),
    N=SMALL,
    a=SMALL,
    k=st.integers(-2, 31),
    cap=st.integers(1, 2000),
    fmt=FORMATS,
)
def test_fuzzed_derive_and_sx_integers_end_cleanly(command, N, a, k, cap, fmt):
    argv = [command, f"--N={N}", f"--k={k}", "--format", fmt]
    if command == "derive":
        argv.append(f"--a={a}")
    assert_clean_outcome(*run_under_cap(argv, cap))

"""Tests of the benchmark harness itself: metrics printed, failures counted.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402
from endoscopylab import (  # noqa: E402
    derive_exponent,
    enumerate_bipartitions,
    expand_stable,
    from_cohomological,
    poincare_poly,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_named_metric(workload, trace):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.decode().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, unit in names.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in names)
        assert any(line.startswith("failed_share = 0.0 ") for line in lines)


def test_harness_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in run.per_layer_names()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = run_tiny("library", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert b"{" not in proc.stdout


def test_decks_depend_only_on_seed():
    assert workloads.exponent_deck(3, 0) == workloads.exponent_deck(3, 0)
    assert workloads.refinement_deck(3, 1) == workloads.refinement_deck(3, 1)
    assert workloads.cli_round(3, 0)[0] != workloads.cli_round(4, 0)[0]
    # the composition is the same whatever the seed
    sizes = [workloads.packets_deck(s, 0)[1]["packet_sizes"] for s in (1, 2)]
    assert sizes[0] == sizes[1]


def test_independent_counts():
    assert [checks.bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert checks.chain_count(8) == 816356
    assert [checks.partition_count(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert checks.packet_size((1,) * 16, 7) == comb(16, 7)
    assert checks.packet_size((3, 2, 1), 3) == len(enumerate_bipartitions(3, 3, (3, 2, 1)))


def _recorded(call, check) -> session.Recorder:
    rec = session.Recorder(trace=True)
    rec.op("layer.op", call, check)
    return rec


def test_off_by_one_exponent_counts_as_failed():
    good = derive_exponent(6, 1, 1)
    assert _recorded(lambda: good, lambda d: checks.check_derive(6, 1, 1, d)).failed == 0
    bad = dataclasses.replace(good, final=good.final + 1)
    rec = _recorded(lambda: bad, lambda d: checks.check_derive(6, 1, 1, d))
    assert rec.failed == 1 and rec.spans[0][-1] is False


def test_corrupted_answers_count_as_failed():
    shape = from_cohomological((1, 2, 3))
    blocks = tuple((s.label, s.m) for s in shape.summands)
    dist = expand_stable(shape=shape)
    assert checks.check_expansion(blocks, dist, shape)[0]
    assert not checks.check_expansion(blocks, dist * 2, shape)[0]
    members = enumerate_bipartitions(2, 2, (2, 1, 1))
    assert not checks.check_packet((2, 1, 1), 2, members[1:])[0]
    B = members[0]
    assert not checks.check_poincare(B.pairs, poincare_poly(B).shift(1))[0]
    assert not workloads.check_cli("guard_refusal", {}, 1, b"", b"error: a\nerror: b\n")
    assert not workloads.check_cli("sx", {"exponent": 5}, 0, b"proved exponent N(N-2k) = 6\n", b"")


def test_exception_counts_as_failed():
    rec = _recorded(lambda: 1 // 0, lambda _: (True, 1))
    assert rec.failed == 1 and "ZeroDivisionError" in rec.failures[0]

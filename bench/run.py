"""Benchmark harness for endoscopylab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one seeded workload from the root of a source checkout and prints, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs both workloads in
turn, untraced, and reports every end-to-end metric of each.

Workloads (see bench/README.md for why each exists):

* ``library``: units.  Each unit is a fresh interpreter (bench/session.py)
  that runs three seeded decks (``exponent``, ``refinement``, ``packets``),
  interleaved, as a single caller.
* ``cli``: rounds of ``python -m endoscopylab.cli ...`` commands, one child
  process at a time.

Whole units or rounds follow each other for about ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run is traced (one span per op, written to .bench_trace/ at the end)
and the same units or rounds are then replayed untraced, so the metrics
are the per-layer ones plus ``trace.overhead_share``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = {
    "params": ("characters",),
    "endoscopy": ("bijection",),
    "bounds": ("derive_exponent", "stable_coefficient", "dominance_check"),
    "hyperendoscopy": (
        "expand_stable",
        "chain_expansion",
        "enumerate_chains",
        "dominant_contribution",
        "verify_inversion",
    ),
    "cohomology": ("enumerate_bipartitions", "poincare_poly", "brute_poincare"),
    "decay": ("p_bound_of_bipartition", "ratio_profile"),
}
LAYER_STATS = (("calls", "count"), ("busy_s", "s"), ("items", "count"), ("failed", "count"))
CLI_COMMANDS = (
    "sx",
    "endoscopy",
    "chains_table",
    "chains_json",
    "chains_dominant",
    "packet_json",
    "packet_csv",
    "derive",
    "dominance",
    "guard_refusal",
)

# Fresh interpreters timed from spawn until the package is imported, spread
# evenly over the run; one more before them (which may compile bytecode) is
# not counted.
SETUP_SPAWNS = 12
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import endoscopylab, endoscopylab.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)
CHILD_TIMEOUT_S = 150
MIN_UNITS = 2


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            names += [(f"{module}.{func}.{stat}", unit) for stat, unit in LAYER_STATS]
    names += [
        ("hyperendoscopy.expand_stable.busy_s.repeat", "s"),
        ("hyperendoscopy.expand_stable.busy_s.fresh", "s"),
    ]
    for cmd in CLI_COMMANDS:
        names += [(f"cli.{cmd}.p50_ms", "ms"), (f"cli.{cmd}.out_bytes", "bytes")]
    names.append(("trace.overhead_share", "share"))
    return names


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENDOSCOPYLAB_GUARD", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Value at the percentile (nearest rank) and the count of samples above it."""
    index = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


class SetupProbe:
    """setup_s: median time from spawning a fresh interpreter until
    endoscopylab and all its submodules are imported.

    The harness calls :meth:`catch_up` before each unit or round, so the
    probes are spread over the run and see the same machine as the ops.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.times: list[float] = []
        self.start = time.perf_counter()
        self._spawn()

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line != b"ready\n":
            raise BenchError(f"cannot import endoscopylab from {SRC}: {err.decode()[-500:]}")
        return t1 - t0

    def catch_up(self) -> None:
        share = min(1.0, (time.perf_counter() - self.start) / self.seconds)
        while len(self.times) < 1 + (SETUP_SPAWNS - 1) * share:
            self.times.append(self._spawn())

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:
            self.times.append(self._spawn())
        return statistics.median(self.times)


class Pass:
    """Latencies, failures and spans gathered over the units or rounds of one pass."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.units = 0
        self.props: dict = {}
        self.spans: list[list] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Correct ops per second of op time, over the whole run.

        A whole-run rate rather than the median of the per-unit rates: the
        shared machine changes speed in stretches of tens of seconds, and a
        run of two or three units is steadier averaged than cut to one."""
        return (self.attempted - self.failed) / sum(self.latencies)

    def end_unit(self, latencies: list[float], failed: int, failures: list[str]) -> None:
        self.latencies += latencies
        self.failed += failed
        self.failures += failures[: 5 - len(self.failures)]
        self.units += 1

    def add_props(self, props: dict) -> None:
        self.props = merge_props(self.props, props)


def merge_props(a: dict, b: dict) -> dict:
    """Histograms and counts add up; shares are the same in every deck."""
    out = dict(a)
    for key, value in b.items():
        if key not in out:
            out[key] = value
        elif isinstance(value, dict):
            out[key] = merge_props(out[key], value)
        elif isinstance(value, int):
            out[key] = out[key] + value
    return out


def _keep_going(done: int, start: float, seconds: float, count: int | None,
                probe: SetupProbe | None, trace: bool) -> bool:
    if count is not None:
        return done < count
    if probe is not None:
        probe.catch_up()
    # At least two units, so that op_tail_ms keeps ten samples beyond it (a
    # traced pass reports no tail and needs one); then another only if it
    # would end nearer to ``seconds`` than stopping now, so that a run lasts
    # about ``seconds`` whatever the unit.
    elapsed = time.perf_counter() - start
    return done < (1 if trace else MIN_UNITS) or elapsed + 0.5 * elapsed / done < seconds


def library_pass(seed: int, seconds: float, trace: bool, tiny: bool,
                 count: int | None = None, probe: SetupProbe | None = None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    while _keep_going(result.units, start, seconds, count, probe, trace):
        argv = [sys.executable, str(BENCH / "session.py"), str(seed), str(result.units),
                "1" if trace else "0"] + (["--tiny"] if tiny else [])
        proc = subprocess.run(argv, capture_output=True, cwd=ROOT, env=child_env(),
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"unit {result.units} failed: {proc.stderr.decode()[-2000:]}")
        session = json.loads(proc.stdout.decode().splitlines()[-1])
        result.add_props(session["props"])
        if trace:
            # Ids become unique over the run; ops point at their unit span.
            base = len(result.spans)
            for span in session["spans"]:
                span[0] += base
                span[4] = None if span[4] is None else span[4] + base
                span.append(result.units)
            result.spans += session["spans"]
        result.end_unit(session["latencies"], session["failed"], session["failures"])
    return result


def cli_pass(seed: int, seconds: float, trace: bool, tiny: bool,
             count: int | None = None, probe: SetupProbe | None = None) -> Pass:
    """Rounds of CLI commands; spans carry the command's stdout size as items."""
    result = Pass()
    start = time.perf_counter()
    env = child_env()
    while _keep_going(result.units, start, seconds, count, probe, trace):
        cmds, props = workloads.cli_round(seed, result.units, tiny)
        result.add_props(props)
        round_id = len(result.spans) + 1
        round_start = time.perf_counter()
        latencies, failures, spans = [], [], []
        for name, argv, expect in cmds:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "endoscopylab.cli", *argv],
                                  capture_output=True, cwd=ROOT, env=env,
                                  timeout=CHILD_TIMEOUT_S)
            t1 = time.perf_counter()
            try:
                ok = workloads.check_cli(name, expect, proc.returncode, proc.stdout, proc.stderr)
                why = proc.stderr.decode()[-300:]
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                ok, why = False, repr(exc)
            latencies.append(t1 - t0)
            if not ok:
                failures.append(f"cli.{name} exit {proc.returncode}: {why}")
            if trace:
                spans.append([round_id + len(spans) + 1, f"cli.{name}", t0, t1, round_id,
                              len(proc.stdout), "", ok, result.units])
        if trace:
            result.spans.append([round_id, "round", round_start, time.perf_counter(), None,
                                 len(cmds), "cli", True, result.units])
            result.spans += spans
        result.end_unit(latencies, len(failures), failures)
    return result


def run_pass(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
             count: int | None = None, probe: SetupProbe | None = None) -> Pass:
    if workload == "cli":
        return cli_pass(seed, seconds, trace, tiny, count, probe)
    return library_pass(seed, seconds, trace, tiny, count, probe)


def end_to_end_metrics(workload: str, measured: Pass, setup_s: float) -> tuple[dict, list[str]]:
    lat = sorted(measured.latencies)
    pct = workloads.TAIL_PERCENTILE[workload]
    tail, beyond = nearest_rank(lat, pct)
    values = {
        "ops_per_s": measured.ops_per_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = [
        f"failed_share = {measured.failed / measured.attempted} share",
        f"op_tail_ms is p{pct:g}: {beyond} of {len(lat)} samples lie beyond it",
    ]
    return metrics, notes


def per_layer_metrics(traced: Pass, untraced: Pass) -> dict:
    values: dict[str, float] = {name: 0 for name, _ in per_layer_names()}
    cli_latencies: dict[str, list[float]] = {}
    for _, name, t0, t1, parent, items, tag, ok, unit in traced.spans:
        if parent is None:
            continue
        busy = t1 - t0
        if name.startswith("cli."):
            cli_latencies.setdefault(name, []).append(busy)
            if unit == 0:
                values[f"{name}.out_bytes"] += items
            continue
        values[f"{name}.calls"] += 1
        values[f"{name}.busy_s"] += busy
        values[f"{name}.items"] += items
        values[f"{name}.failed"] += 0 if ok else 1
        if name == "hyperendoscopy.expand_stable":
            values[f"{name}.busy_s.{'repeat' if tag == 'repeat' else 'fresh'}"] += busy
    for name, lat in cli_latencies.items():
        values[f"{name}.p50_ms"] = statistics.median(lat) * 1e3
    values["trace.overhead_share"] = 1 - traced.ops_per_s / untraced.ops_per_s
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def write_trace(workload: str, seed: int, traced: Pass) -> Path:
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.jsonl"
    keys = ("id", "name", "start", "end", "parent", "items", "tag", "ok", "unit")
    with open(path, "w", encoding="utf-8") as handle:
        for span in traced.spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> tuple[dict, list[str]]:
    if trace:
        # Half the time traced, then the same units or rounds untraced.
        measured = run_pass(workload, seed, seconds / 2, True, tiny)
    else:
        probe = SetupProbe(seconds)
        measured = run_pass(workload, seed, seconds, False, tiny, probe=probe)
        setup_s = probe.median()
    attempted, failed, failures = measured.attempted, measured.failed, list(measured.failures)
    unit = "rounds" if workload == "cli" else "units"
    lines = [f"# {workload}, seed {seed}: {measured.units} {unit}, "
             f"{attempted} ops, {failed} failed"]
    if trace:
        replay = run_pass(workload, seed, seconds, False, tiny, count=measured.units)
        attempted += replay.attempted
        failed += replay.failed
        failures += replay.failures
        metrics = per_layer_metrics(measured, replay)
        lines.append(f"spans written to {write_trace(workload, seed, measured).relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end_metrics(workload, measured, setup_s)
        lines += notes
    lines += [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    lines.append("inputs " + json.dumps(measured.props, sort_keys=True))
    lines += [f"FAILED {f}" for f in failures]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small decks, for the benchmark's own tests")
    ns = parser.parse_args(argv)
    if not (SRC / "endoscopylab" / "__init__.py").is_file():
        print(f"error: no endoscopylab sources under {SRC}", file=sys.stderr)
        return 2
    if ns.workload == "all":
        return run_all(ns.seed, ns.seconds, ns.tiny)
    try:
        result, lines = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace), ns.tiny)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    """Each workload in its own harness process, so peak_rss_mb stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.decode().splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

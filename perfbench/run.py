"""Benchmark for the build -> validate -> realize -> races pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_pipeline, realize_growth, race_search, graph_io (see
perfbench/README.md).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` one more setup and round run under the span wrappers
of ``tracing.py`` and the metrics are the per-module ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: rounds per run at least, so wall_s is never a single sample
MIN_ROUNDS = 2
#: fresh interpreters per import-time sample
IMPORT_SAMPLES = 5

#: how long each calibration task takes on the reference machine (the
#: 2.0 GHz Xeon the README figures come from, in its fast stretches)
CAL_REF_S = {"python": 0.0015, "process": 0.125}
_CAL_KEYS = [f"http://example.org/k{i}" for i in range(4000)]


def _python_task() -> None:
    """Fixed dict, tuple and string work much like the store's, on data
    of its own; it never touches the package."""
    table = {}
    for key in _CAL_KEYS:
        table[(key, "p")] = {key: None}
    for key in _CAL_KEYS:
        table[(key, "p")].get(key)
    sorted(_CAL_KEYS, reverse=True)


_PROCESS_TASK = """
import argparse, dataclasses, decimal, email.parser, enum, hashlib, http.client, json
import xml.dom.minidom
keys = [f"http://example.org/k{i}" for i in range(4000)]
for _ in range(5):
    table = {}
    for key in keys:
        table[(key, "p")] = {key: None}
    sorted(keys, reverse=True)
"""


def _process_task() -> None:
    """A fresh interpreter that imports standard modules and does some
    dict work: start-up, imports and Python, like one CLI command."""
    subprocess.run([sys.executable, "-c", _PROCESS_TASK], check=True)


#: calibration kind -> (task, samples per probe)
CAL_TASKS = {"python": (_python_task, 3), "process": (_process_task, 1)}


def machine_speed(kind: str, samples: int | None = None) -> float:
    """Median duration of the calibration task right now.  The collector
    is off meanwhile: the task's short-lived containers would otherwise
    advance its counters and move full collections into the operations."""
    task, default = CAL_TASKS[kind]
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples or default):
            start = time.perf_counter()
            task()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scale(seconds: list[float], probes: list[float], kind: str) -> list[float]:
    """Each time times CAL_REF_S / (mean of the calibrations just before
    and just after it): the time at the reference machine's speed.
    ``probes`` has one more entry than ``seconds``."""
    ref = CAL_REF_S[kind]
    return [t * ref * 2 / (probes[i] + probes[i + 1]) for i, t in enumerate(seconds)]


def tail_floor(pct: int) -> int:
    """Fewest operations for which the pct-th percentile (nearest rank)
    still has at least ten samples beyond it."""
    return math.ceil(10 / (1 - pct / 100))


def percentile(samples: list[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb(workload) -> float:
    """The measuring process's peak, or the largest child's where the
    workload runs children."""
    kib = getattr(workload, "peak_rss_kb", None)
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024


class Run:
    """One benchmark run: set-ups, measured rounds, checks."""

    def __init__(self, workload, seconds: float) -> None:
        self.w = workload
        self.seconds = seconds
        self.probe = lambda: machine_speed(workload.calibration)
        # raw times; each set-up and operation with the calibrations around it
        self.setups: list[tuple[float, float, float]] = []  # (seconds, before, after)
        self.rounds: list[tuple[list[float], list[float]]] = []  # (op seconds, probes)
        self.elapsed: list[float] = []  # real duration of each round, probes included
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = ""

    def fresh_setup(self):
        before = machine_speed("python", 5)
        start = time.perf_counter()
        state = self.w.setup()
        elapsed = time.perf_counter() - start
        self.setups.append((elapsed, before, machine_speed("python", 5)))
        return state

    def one_round(self, state, traced: bool = False) -> list:
        """Run one round and keep its times; returns its operations."""
        gc.collect()  # start every round from the same heap state
        start = time.perf_counter()
        ops = self.w.round(state, self.probe, traced=traced)
        probes = [op.probe for op in ops] + [self.probe()]
        self.elapsed.append(time.perf_counter() - start)
        self.rounds.append(([op.seconds for op in ops], probes))
        return ops

    def record(self, state, ops) -> None:
        checked = self.w.check(state, ops)
        self.attempted += len(checked.failed)
        self.failed += sum(checked.failed)
        self.problems.extend(checked.problems)
        if not self.digest:
            self.digest = checked.digest
        elif checked.digest != self.digest:
            self.problems.append("outputs differ between rounds on the same inputs")

    def measure(self, min_ops: int, setups: int = SETUP_REPEATS, min_rounds: int = MIN_ROUNDS) -> None:
        """Closed loop: rounds until another round would take the measured
        time past ``seconds``, and at least ``min_ops`` operations."""
        for _ in range(setups - 1):
            self.fresh_setup()  # timed only; one state is kept alive at a time
        state = self.fresh_setup()
        k = 0
        while True:
            if self.w.mutates and k:
                state = self.fresh_setup()
            self.record(state, self.one_round(state))
            k += 1
            spent = sum(self.elapsed)
            ops_done = sum(len(seconds) for seconds, _probes in self.rounds)
            if ops_done >= min_ops and k >= min_rounds and spent + spent / k > self.seconds:
                break

    def scaled(self) -> dict[str, list[float]]:
        """Set-up, round and operation times at the reference speed.  A
        round's time is the sum of its operations' times."""
        ops = [scale(seconds, probes, self.w.calibration) for seconds, probes in self.rounds]
        return {
            "setup": [scale([t], [b, a], "python")[0] for t, b, a in self.setups],
            "wall": [sum(times) for times in ops],
            "ops": [t for times in ops for t in times],
        }

    def unscaled(self) -> dict[str, list[float]]:
        return {
            "setup": [t for t, _b, _a in self.setups],
            "wall": [sum(seconds) for seconds, _probes in self.rounds],
            "ops": [t for seconds, _probes in self.rounds for t in seconds],
        }


def import_times() -> tuple[float, float]:
    """Fresh-interpreter import of oasiskg.cli minus a bare interpreter
    start (median of IMPORT_SAMPLES each), and the cumulative import
    time of jsonschema as ``-X importtime`` reports it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall(args: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
        return time.perf_counter() - start

    bare = statistics.median(wall(["-c", "pass"]) for _ in range(IMPORT_SAMPLES))
    full = statistics.median(wall(["-c", "import oasiskg.cli"]) for _ in range(IMPORT_SAMPLES))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import oasiskg.cli"],
        env=env, check=True, capture_output=True, text=True,
    )
    jsonschema_us = 0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+jsonschema$", line)
        if match:
            jsonschema_us = int(match.group(1))
    return (full - bare) * 1000, jsonschema_us / 1000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oasiskg" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/oasiskg", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oasiskg

    if Path(oasiskg.__file__).resolve().parent != (SRC / "oasiskg").resolve():
        print(f"perfbench: oasiskg imported from {oasiskg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oasiskg.cli  # noqa: F401 - the tracer wraps its bindings too

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    in_process = args.workload != "cli_pipeline"
    run = Run(workload, args.seconds)
    floor = tail_floor(workload.tail_pct)

    if not args.trace:
        run.measure(floor)
        scaled, raw = run.scaled(), run.unscaled()
        factors = [f for seconds, probes in run.rounds
                   for f in scale([1.0] * len(seconds), probes, workload.calibration)]
        metrics = {
            "setup_s": (statistics.median(scaled["setup"]), "s"),
            "wall_s": (statistics.median(scaled["wall"]), "s"),
            "op_p50_ms": (statistics.median(scaled["ops"]) * 1000, "ms"),
            "op_tail_ms": (percentile(scaled["ops"], workload.tail_pct) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb(workload), "MB"),
            "success_rate": (1 - run.failed / max(run.attempted, 1), "ratio"),
        }
        summary = (f"{args.workload}: {len(run.rounds)} rounds, {len(raw['ops'])} ops, "
                   f"tail = p{workload.tail_pct} of {len(raw['ops'])}, "
                   f"error_rate = {run.failed}/{run.attempted}; unscaled: "
                   f"setup_s {statistics.median(raw['setup']):.4f}, "
                   f"wall_s {statistics.median(raw['wall']):.4f}, "
                   f"op_p50_ms {statistics.median(raw['ops']) * 1000:.3f}, "
                   f"op_tail_ms {percentile(raw['ops'], workload.tail_pct) * 1000:.3f}, "
                   f"speed factor {statistics.median(factors):.3f}")
    else:
        # an untraced round on each side of one set-up and round under the
        # wrappers; the overhead is taken against their mean
        run.seconds = 0
        run.measure(0, setups=1, min_rounds=1)
        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}")
        if in_process:
            tracer.install()
        try:
            state = workload.setup()
            ops = run.one_round(state, traced=True)
            exports = [tracer.export()]
        finally:
            tracer.uninstall()
        run.record(state, ops)  # also compares outputs with the untraced round
        run.measure(0, setups=1, min_rounds=1)
        before, traced_wall, after = run.scaled()["wall"]
        untraced_wall = (before + after) / 2
        exports.extend(getattr(workload, "child_exports", ()))
        if hasattr(workload, "schedule_counts"):
            exports.append({"spans": [], "counters": dict(workload.schedule_counts(state))})
        layer = tracing.layer_metrics(exports)
        layer["cli.import_ms"], layer["cli.import_jsonschema_ms"] = import_times()
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(exports, fh)
        metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER.items()}
        summary = f"{args.workload}: traced round {traced_wall:.3f} s, untraced {untraced_wall:.3f} s"

    for problem in run.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(summary)
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

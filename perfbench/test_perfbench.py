"""Self-test of the benchmark at tiny sizes.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.  Covers the
race oracle on hand-checked cases, the oracle against the package on
small random runs, and traced versus untraced rounds of every workload
giving byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oasiskg import Iri, ProtocolRun, Step, StepKind, detect_races  # noqa: E402

A = "http://example.org/agent_a"
B = "http://example.org/agent_b"
R = "http://example.org/shared_resource"


def steps(*kinds: str, resource: str = R):
    return tuple((kind, resource) for kind in kinds)


def test_two_free_three_step_runs_give_c_6_3_schedules():
    _reports, counts = oracle.explore([(A, steps(*["modify"] * 3)), (B, steps(*["modify"] * 3))], 12)
    assert counts == {"complete": math.comb(6, 3)} == {"complete": 20}


def test_rogue_writer_is_reported_at_0001_step_3():
    runs = [(A, steps("request", "modify", "release")), (B, steps("modify"))]
    reports, _counts = oracle.explore(runs, 12)
    first = json.loads(reports[0])
    assert first == {
        "schedule": [0, 0, 0, 1],
        "conflict": {"resource": R, "agentA": B, "agentB": A, "stepIndex": 3},
        "kind": "UnlockedModify",
    }


def test_lock_order_deadlock_and_hidden_race_stay_silent_but_counted():
    deadlock, hidden = gen.race_batch(random.Random(0))[:2]
    reports, counts = oracle.explore([(a, s) for a, s in deadlock.agents], gen.RACE_BOUND)
    assert reports == [] and counts["deadlock"] > 0
    reports, counts = oracle.explore([(a, s) for a, s in hidden.agents], gen.RACE_BOUND)
    assert reports == [] and set(counts) == {"truncated"}
    reports, _counts = oracle.explore([(a, s) for a, s in hidden.agents], 40)
    assert reports


@pytest.mark.parametrize("seed", range(20))
def test_oracle_matches_detect_races_on_small_random_runs(seed):
    rng = random.Random(seed)
    resources = [R, R + "_2"]
    runs = [
        (f"http://example.org/agent_{i}",
         tuple((rng.choice(gen.PROTOCOL), rng.choice(resources)) for _ in range(rng.randint(1, 3))))
        for i in range(rng.randint(2, 3))
    ]
    package_runs = [
        ProtocolRun(Iri(agent), tuple(Step(StepKind(kind.capitalize()), Iri(res)) for kind, res in s))
        for agent, s in runs
    ]
    got = oracle.race_lines([r.json_line() for r in detect_races(package_runs, 6)])
    assert oracle.explore(runs, 6)[0] == got


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few operations."""
    monkeypatch.setattr(gen, "GROWTH_PROCESSES", 8)
    monkeypatch.setattr(gen, "GROWTH_EVENT_PROTOCOLS", 2)
    monkeypatch.setattr(gen, "GRAPH_UNITS", 2)
    monkeypatch.setattr(gen, "TURTLE_UNITS", 1)
    monkeypatch.setattr(gen, "CLI_AGENTS", 2)
    monkeypatch.setattr(gen, "CLI_EVENT_AGENTS", 1)
    full_batch = gen.race_batch
    # the two known-silent scenarios plus six small ones; no heavy ones
    monkeypatch.setattr(gen, "race_batch", lambda rng: (lambda b: b[:2] + b[18:24])(full_batch(rng)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_on_and_off_give_identical_outputs(tiny, tmp_path, name):
    workload = workloads.WORKLOADS[name](7, tmp_path)
    state = workload.setup()
    plain = workload.check(state, workload.round(state, probe=lambda: 1.0))
    assert not any(plain.failed) and plain.problems == []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = workload.setup()
        ops = workload.round(state, probe=lambda: 1.0, traced=True)
        exports = [tracer.export()]
    finally:
        tracer.uninstall()
    traced = workload.check(state, ops)
    assert not any(traced.failed) and traced.problems == []
    assert traced.digest == plain.digest

    layer = tracing.layer_metrics(exports + getattr(workload, "child_exports", []))
    assert set(layer) == set(tracing.PER_LAYER)
    assert layer["core.inserts"] > 0 and layer["builder.s"] > 0

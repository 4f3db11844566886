"""Reproduce the ROADMAP baseline rows at matching sizes.

Usage (from the repository root): ``python3 perfbench/baseline.py``.
Prints a Markdown table; each time is the median of three repeats.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oasiskg  # noqa: E402
from oasiskg import Iri, KnowledgeBase, ProtocolRun, Step, StepKind, builder, engine, rdfio  # noqa: E402

import gen  # noqa: E402
from run import import_times  # noqa: E402
from workloads import GraphIO, declare_consumer, declare_resources  # noqa: E402

REPEATS = 3


def median_time(fn) -> tuple[float, object]:
    samples, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def build_and_realize(agents: int) -> KnowledgeBase:
    """The ROADMAP's protocol scenario: per agent, build and realize a
    request/modify/release process."""
    kb = KnowledgeBase()
    declare_resources(kb, ["shared_resource"])
    for tag in (f"t{i}" for i in range(agents)):
        agent, behaviour = declare_consumer(kb, tag)
        spec = gen.chain_process(tag, gen.protocol_steps())
        process = builder.build_process(kb, spec)
        engine.realize_process(kb, process, {kb.resolve(s): (agent, behaviour)
                                             for s in gen.state_names(spec)})
    return kb


def main() -> None:
    rows = []
    for agents in (10, 40):
        seconds, kb = median_time(lambda: build_and_realize(agents))
        rows.append((f"build + realize, {agents} protocol agents ({len(kb) / 1000:.1f}k triples)",
                     seconds))
    big = GraphIO._build(gen.graph_units(random.Random(0), 27))
    size = f"{len(big) / 1000:.1f}k triples"
    rows.append((f"`validate`, {size}", median_time(lambda: oasiskg.validate(big))[0]))
    seconds, text = median_time(lambda: rdfio.export_canonical(big))
    rows.append((f"`export_canonical`, {size}", seconds))
    rows.append(("`parse_turtle` of that export", median_time(lambda: rdfio.parse_turtle(text))[0]))
    free = [ProtocolRun(Iri(f"http://example.org/agent_{i}"),
                        tuple(Step(StepKind.MODIFY, Iri("http://example.org/r")) for _ in range(3)))
            for i in range(3)]
    rows.append(("`detect_races`, free modify chains, 3x3 (1680 schedules)",
                 median_time(lambda: oasiskg.detect_races(free, 12))[0]))
    import_ms, jsonschema_ms = import_times()
    print("| workload | time |\n| --- | --- |")
    for label, seconds in rows:
        print(f"| {label} | {seconds:.3f} s |")
    print(f"| `import oasiskg.cli` minus a bare interpreter | {import_ms / 1000:.3f} s, "
          f"of which `jsonschema` {jsonschema_ms / 1000:.3f} s |")


if __name__ == "__main__":
    main()

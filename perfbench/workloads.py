"""The four workloads.

Each workload is a closed loop with one client: the next operation
starts when the previous one has returned.  ``setup`` builds the inputs
from the seed (untimed by the round, timed as ``setup_s``); ``round``
runs one pass of operations and returns per-operation latencies and
outputs, calling ``probe()`` (a short calibration, see run.py) right
before each operation; ``check`` compares the outputs with references that the code
under test does not produce, and returns a failure flag per operation,
whole-round problems and a digest used to compare traced and untraced
rounds.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oasiskg
import oasiskg.concurrency
import oasiskg.engine
import oasiskg.rdfio
import oasiskg.validator
from oasiskg import KnowledgeBase, builder, vocab

import gen
import oracle

HERE = Path(__file__).resolve().parent
EX = "http://example.org/"
SRC = Path(oasiskg.__file__).resolve().parents[1]


@dataclass
class Op:
    name: str
    seconds: float
    output: object = None
    error: str | None = None
    probe: float = 0.0  # calibration time measured just before the operation


@dataclass
class Checked:
    failed: list[bool]
    problems: list[str] = field(default_factory=list)
    digest: str = ""


def timed(ops: list[Op], probe, name: str, fn, *args) -> object:
    """Run one operation after one calibration ``probe()``, recording its
    latency; an exception is kept as the operation's error instead of
    ending the round."""
    before = probe()
    start = time.perf_counter()
    try:
        result = fn(*args)
        error = None
    except Exception as exc:  # noqa: BLE001 - any failure is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    ops.append(Op(name, time.perf_counter() - start, result, error, before))
    return result


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _triples(kb: KnowledgeBase):
    """The store's assertions as plain strings (literals as 1-tuples)."""
    return [
        (a.subject.value, a.predicate.value, a.object.value if hasattr(a.object, "value") else (a.object,))
        for a in kb.assertions
    ]


def _trace_problems(lines: list[str], agent: str, states: list[str], events: list[int]) -> list[str]:
    """Expected from construction: one trace line per state, in order,
    performed by the assigned agent, with the state's events fired."""
    if len(lines) != len(states):
        return [f"{len(lines)} trace lines for {len(states)} states"]
    out = []
    for k, (line, state, n_events) in enumerate(zip(lines, states, events)):
        d = json.loads(line)
        if (
            d["index"] != k
            or d["agent"] != agent
            or not d["state"].startswith(state + "__execution__")
            or "__execution__" not in d["planExec"]
            or len(d["events"]) != n_events
        ):
            out.append(f"trace line {k} does not match state {state}: {line}")
    return out


def declare_consumer(kb: KnowledgeBase, tag: str):
    agent = builder.declare_agent(kb, kb.resolve(f"agent_{tag}"))
    template = builder.build_template(kb, gen.consumer_template(tag))
    return agent, builder.derive_behaviour(kb, template, agent)


def declare_resources(kb: KnowledgeBase, names) -> None:
    kb.declare_class(kb.resolve("Resource"))
    for name in names:
        kb.assert_membership(kb.resolve(name), kb.resolve("Resource"))


# ---------------------------------------------------------------------------
# realize_growth
# ---------------------------------------------------------------------------


class RealizeGrowth:
    """48 processes realized and run to completion in turn on one
    knowledge base.  One operation: realize_process + run_to_completion."""

    name = "realize_growth"
    tail_pct = 75
    mutates = True  # a round consumes its knowledge base
    calibration = "python"  # see run.CAL_TASKS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self):
        items = gen.growth_mix(random.Random(self.seed))
        kb = KnowledgeBase()
        declare_resources(kb, ["shared_resource"])
        work = []
        for item in items:
            agent, behaviour = declare_consumer(kb, item.tag)
            process = builder.build_process(kb, item.spec)
            states = [kb.resolve(s) for s in gen.state_names(item.spec)]
            work.append((process, {s: (agent, behaviour) for s in states}, agent, states,
                         gen.event_counts(item.spec)))
        return kb, work

    def round(self, state, probe, traced: bool = False) -> list[Op]:
        kb, work = state
        ops: list[Op] = []
        for process, assignment, *_ in work:
            timed(ops, probe, "realize", lambda p=process, a=assignment: [
                step.trace_line()
                for step in oasiskg.engine.realize_process(kb, p, a).run_to_completion()
            ])
        return ops

    def check(self, state, ops: list[Op]) -> Checked:
        kb, work = state
        failed, problems = [], []
        for op, (_p, _a, agent, states, events) in zip(ops, work):
            bad = [op.error] if op.error else _trace_problems(
                op.output, agent.value, [s.value for s in states], events)
            failed.append(bool(bad))
            problems.extend(bad)
        n_states = sum(len(w[3]) for w in work)
        for pred in (vocab.HAS_PLAN_EXECUTION, vocab.PERFORMS_PLAN_EXECUTION):
            have = sum(1 for a in kb.assertions if a.predicate == pred)
            if have != n_states:
                problems.append(f"{pred.local}: {have} edges for {n_states} realized states")
        findings = oasiskg.validator.validate(kb)
        if findings:
            problems.append(f"realized graph has {len(findings)} findings: {findings[0].render()}")
        lines = [line for op in ops for line in (op.output or [])]
        return Checked(failed, problems, _digest(*lines, oasiskg.rdfio.export_canonical(kb)))


# ---------------------------------------------------------------------------
# race_search
# ---------------------------------------------------------------------------


class RaceSearch:
    """60 small realized lock-protocol scenarios.  One operation:
    extract_runs + detect_races at the fixed bound."""

    name = "race_search"
    tail_pct = 80
    mutates = False
    calibration = "python"  # see run.CAL_TASKS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self._expected: list[list[str]] | None = None

    def setup(self):
        out = []
        for scenario in gen.race_batch(random.Random(self.seed)):
            kb = KnowledgeBase()
            declare_resources(kb, scenario.resources)
            handles, runs = [], []
            for tag, steps in scenario.agents:
                agent, behaviour = declare_consumer(kb, tag)
                spec = gen.chain_process(tag, list(steps))
                process = builder.build_process(kb, spec)
                assignment = {kb.resolve(s): (agent, behaviour) for s in gen.state_names(spec)}
                handles.append(oasiskg.engine.realize_process(kb, process, assignment).exec_process)
                runs.append((agent.value, tuple((k, kb.resolve(r).value) for k, r in steps)))
            out.append((scenario, kb, handles, runs))
        return out

    def round(self, state, probe, traced: bool = False) -> list[Op]:
        ops: list[Op] = []
        for _scenario, kb, handles, _runs in state:
            timed(ops, probe, "races", self._search, kb, handles)
        return ops

    @staticmethod
    def _search(kb, handles):
        runs = oasiskg.concurrency.extract_runs(kb, handles)
        reports = oasiskg.concurrency.detect_races(runs, gen.RACE_BOUND)
        return runs, [r.json_line() for r in reports]

    def expected(self, state) -> list[list[str]]:
        if self._expected is None:
            self._expected = [oracle.explore(runs, gen.RACE_BOUND)[0] for *_, runs in state]
        return self._expected

    def check(self, state, ops: list[Op]) -> Checked:
        failed, problems, lines = [], [], []
        for op, (scenario, _kb, _h, runs), want in zip(ops, state, self.expected(state)):
            bad = []
            if op.error:
                bad.append(op.error)
            else:
                got_runs, got = op.output
                lines.extend(got)
                shape = [(r.agent.value, tuple((s.kind.value.lower(), s.resource.value) for s in r.steps))
                         for r in got_runs]
                if shape != runs:
                    bad.append(f"{scenario.name}: extracted runs differ from construction")
                if oracle.race_lines(got) != want:
                    bad.append(f"{scenario.name} ({scenario.note}): reports differ from the oracle")
            failed.append(bool(bad))
            problems.extend(bad)
        return Checked(failed, problems, _digest(*lines))

    def schedule_counts(self, state) -> Counter:
        """Complete / deadlock / truncated schedules over the batch, from
        a separate enumerate_schedules call per scenario."""
        counts: Counter = Counter()
        for _scenario, kb, handles, _runs in state:
            runs = oasiskg.concurrency.extract_runs(kb, handles)
            for schedule in oasiskg.concurrency.enumerate_schedules(runs, gen.RACE_BOUND):
                counts[f"concurrency.schedules.{schedule.status}"] += 1
        return counts


# ---------------------------------------------------------------------------
# graph_io
# ---------------------------------------------------------------------------


class GraphIO:
    """A ~25k-triple builder graph through export, write, read and
    validate, then a ~1.4k-triple Turtle document parsed.  One operation
    is one of these calls."""

    name = "graph_io"
    tail_pct = 75
    mutates = False
    calibration = "python"  # see run.CAL_TASKS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.path = workdir / f"graph_io_{seed}.nt"

    @staticmethod
    def _build(units) -> KnowledgeBase:
        kb = KnowledgeBase()
        for unit in units:
            agent = builder.declare_agent(kb, kb.resolve(unit.agent))
            template = builder.build_template(kb, unit.template)
            builder.derive_behaviour(kb, template, agent)
            builder.build_process(kb, unit.process)
        return kb

    def setup(self):
        rng = random.Random(self.seed)
        big = self._build(gen.graph_units(rng, gen.GRAPH_UNITS))
        small = self._build(gen.graph_units(rng, gen.TURTLE_UNITS))
        small_triples = _triples(small)
        turtle = gen.render_turtle(small_triples, gen.TURTLE_PREFIXES)
        return {
            "kb": big,
            "canonical": oracle.canonical_ntriples(_triples(big)),
            "turtle": turtle,
            "turtle_canonical": oracle.canonical_ntriples(small_triples),
        }

    def round(self, state, probe, traced: bool = False) -> list[Op]:
        kb = state["kb"]
        path = str(self.path)
        ops: list[Op] = []
        timed(ops, probe, "export", oasiskg.rdfio.export_canonical, kb)
        timed(ops, probe, "write", oasiskg.rdfio.write_graph, kb, path)
        read = timed(ops, probe, "read", oasiskg.rdfio.read_graph, path)
        timed(ops, probe, "validate", oasiskg.validator.validate, read)
        timed(ops, probe, "turtle", self._parse_turtle, state["turtle"])
        return ops

    @staticmethod
    def _parse_turtle(text: str) -> KnowledgeBase:
        kb = KnowledgeBase()
        oasiskg.rdfio.import_turtle(kb, text)
        return kb

    def check(self, state, ops: list[Op]) -> Checked:
        want = state["canonical"]
        export, write, read, validate, turtle = ops
        written = ""
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8", newline="") as fh:
                written = fh.read()
            self.path.unlink()
        verdicts = [
            export.output == want,
            written == want,
            read.output is not None and oasiskg.rdfio.export_canonical(read.output) == want,
            validate.output == [],
            turtle.output is not None
            and oasiskg.rdfio.export_canonical(turtle.output) == state["turtle_canonical"],
        ]
        names = ("export differs from the canonical rendering",
                 "written file differs from the canonical rendering",
                 "export -> read -> export is not byte-identical",
                 "validate reports findings on a clean graph",
                 "Turtle document does not parse to its canonical bytes")
        failed = [op.error is not None or not ok for op, ok in zip(ops, verdicts)]
        problems = [op.error or msg for op, msg, bad in zip(ops, names, failed) if bad]
        return Checked(failed, problems, _digest(export.output or "", written))


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment for CLI children: the package from an absolute
    ``src`` path, no extra prefix map."""
    env = {k: v for k, v in os.environ.items() if k not in ("OASIS_PREFIX_MAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


FORCED = ("--op-map", "request=Modify", "--op-map", "release=Modify")
COMMAND_TIMEOUT = 60  # seconds; a command that takes longer counts as failed


class CliPipeline:
    """The README pipeline as separate processes: build, validate, one
    run per agent (each reading the previous output), validate, races
    clean and races with the lock steps forced to Modify.  One operation
    is one command."""

    name = "cli_pipeline"
    tail_pct = 75
    mutates = False
    calibration = "process"  # see run.CAL_TASKS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.child_exports: list[dict] = []  # spans and counters of traced commands
        self.peak_rss_kb = 0  # largest child so far
        self._last: tuple[Path, list[str]] | None = None  # the last round's directory and handles

    def setup(self):
        """The build document, and every graph, trace and report the
        pipeline must produce, computed in-process through the library."""
        agents = gen.cli_agents(random.Random(self.seed))
        kb = KnowledgeBase()
        members = [builder.declare_agent(kb, kb.resolve(f"agent_{a.tag}")) for a in agents]
        templates = [builder.build_template(kb, a.template) for a in agents]
        behaviours = [builder.derive_behaviour(kb, t, m) for t, m in zip(templates, members)]
        processes = [builder.build_process(kb, a.process) for a in agents]
        state = {
            "agents": agents,
            "doc": json.dumps(gen.cli_document(agents)),
            "roots": [r.value for r in templates + behaviours + processes],
            "graph": oasiskg.rdfio.export_canonical(kb),
            "assigns": [
                {s: {"agent": f"agent_{a.tag}", "behaviour": b.value} for s in gen.state_names(a.process)}
                for a, b in zip(agents, behaviours)
            ],
        }
        state["ref"] = self._reference(state)
        return state

    @staticmethod
    def _reference(state) -> dict:
        """Like the CLI, each realization starts from a fresh knowledge
        base loaded from the previous graph."""
        graphs, traces, roots = [state["graph"]], [], []
        for agent, assign in zip(state["agents"], state["assigns"]):
            kb = KnowledgeBase()
            oasiskg.rdfio.import_turtle(kb, graphs[-1])
            assignment = {kb.resolve(s): (kb.resolve(e["agent"]), kb.resolve(e["behaviour"]))
                          for s, e in assign.items()}
            handle = oasiskg.engine.realize_process(kb, kb.resolve(agent.process.name), assignment)
            traces.append([s.trace_line() for s in handle.run_to_completion()])
            graphs.append(oasiskg.rdfio.export_canonical(kb))
            roots.append((handle.exec_process.value, f"{EX}agent_{agent.tag}"))
        roots.sort()
        resource = f"{EX}shared_resource"
        return {
            "graphs": graphs,
            "traces": traces,
            "handles": [root for root, _agent in roots],
            "races": oracle.explore(
                [(agent, tuple((k, resource) for k in gen.PROTOCOL)) for _r, agent in roots],
                gen.CLI_BOUND)[0],
            "races_forced": oracle.explore(
                [(agent, tuple(("modify", resource) for _k in gen.PROTOCOL)) for _r, agent in roots],
                gen.CLI_BOUND)[0],
        }

    def commands(self, state) -> list[tuple[str, list[str], int]]:
        """Every command up to the final validate."""
        cmds = [("build", ["build", "--spec", "spec.json", "--out", "g0.nt"], 0),
                ("validate", ["validate", "g0.nt"], 0)]
        for i, agent in enumerate(state["agents"]):
            cmds.append(("run", ["run", "--kb", f"g{i}.nt", "--process", agent.process.name,
                                 "--assign", f"assign{i}.json", "--trace", f"trace{i}.jsonl",
                                 "--out", f"g{i + 1}.nt"], 0))
        cmds.append(("validate", ["validate", f"g{len(state['agents'])}.nt"], 0))
        return cmds

    @staticmethod
    def race_commands(final: str, handles: list[str]) -> list[tuple[str, list[str], int]]:
        races = ["races", "--kb", final, "--handles", *handles, "--bound", str(gen.CLI_BOUND)]
        return [("races", races, 0), ("races_forced", races + list(FORCED), 3)]

    def round(self, state, probe, traced: bool = False) -> list[Op]:
        run_dir = Path(tempfile.mkdtemp(prefix="cli_", dir=self.workdir))
        (run_dir / "spec.json").write_text(state["doc"], encoding="utf-8")
        for i, assign in enumerate(state["assigns"]):
            (run_dir / f"assign{i}.json").write_text(json.dumps(assign), encoding="utf-8")
        env = child_env()
        ops: list[Op] = []

        def execute(commands) -> None:
            for name, argv, _code in commands:
                report = run_dir / f"report{len(ops)}.json"  # written by launch.py
                cmd = [sys.executable, str(HERE / "launch.py"), str(report), "1" if traced else "0", *argv]
                before = probe()
                start = time.perf_counter()
                try:
                    proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True,
                                          text=True, timeout=COMMAND_TIMEOUT)
                    output = (proc.returncode, proc.stdout, proc.stderr)
                except subprocess.TimeoutExpired:
                    output = (None, "", f"timed out after {COMMAND_TIMEOUT} s")
                ops.append(Op(name, time.perf_counter() - start, output, probe=before))
                if report.exists():
                    data = json.loads(report.read_text(encoding="utf-8"))
                    self.peak_rss_kb = max(self.peak_rss_kb, data.pop("peak_rss_kb"))
                    if traced:
                        self.child_exports.append(data)

        execute(self.commands(state))
        # like a user would: the realized roots come from the final graph
        final = f"g{len(state['agents'])}.nt"
        path = run_dir / final
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        handles = sorted(line.split(" ")[0].strip("<>") for line in text.splitlines()
                         if "processDrawnBy" in line)
        execute(self.race_commands(final, handles))
        self._last = run_dir, handles
        return ops

    def check(self, state, ops: list[Op]) -> Checked:
        run_dir, handles = self._last
        ref = state["ref"]
        files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
                 if p.suffix in (".nt", ".jsonl")}
        failed, problems = [], []
        run_index = 0
        final = f"g{len(state['agents'])}.nt"
        commands = self.commands(state) + self.race_commands(final, handles)
        for op, (name, _argv, want_code) in zip(ops, commands):
            code, out, err = op.output
            lines = out.splitlines()
            bad = []
            if code != want_code:
                bad.append(f"{name}: exit {code}, expected {want_code}: {err.strip()[-300:]}")
            if name == "build":
                if lines != state["roots"]:
                    bad.append("build: printed roots differ from the library path")
                if files.get("g0.nt", b"").decode() != state["graph"]:
                    bad.append("build: graph bytes differ from the library path")
            elif name == "validate" and lines:
                bad.append(f"validate: {len(lines)} findings on a clean graph")
            elif name == "run":
                i = run_index
                run_index += 1
                agent = state["agents"][i]
                bad.extend(_trace_problems(
                    lines, f"{EX}agent_{agent.tag}",
                    [f"{EX}{s}" for s in gen.state_names(agent.process)],
                    gen.event_counts(agent.process)))
                if lines != ref["traces"][i]:
                    bad.append(f"run {i}: trace differs from the library path")
                if files.get(f"trace{i}.jsonl", b"").decode() != out:
                    bad.append(f"run {i}: trace file differs from stdout")
                if files.get(f"g{i + 1}.nt", b"").decode() != ref["graphs"][i + 1]:
                    bad.append(f"run {i}: graph bytes differ from the library path")
            elif name.startswith("races"):
                if handles != ref["handles"]:
                    bad.append(f"{name}: realized roots in the final graph differ from the library path")
                if oracle.race_lines(lines) != ref[name]:
                    bad.append(f"{name}: reports differ from the oracle")
            failed.append(bool(bad))
            problems.extend(bad)
        digest = _digest(*(op.output[1] for op in ops), *files.values())
        shutil.rmtree(run_dir)
        return Checked(failed, problems, digest)

    def schedule_counts(self, state) -> Counter:
        """Schedules of both ``races`` commands, from a separate
        enumerate_schedules call on the final graph."""
        ref = state["ref"]
        kb = KnowledgeBase()
        oasiskg.rdfio.import_turtle(kb, ref["graphs"][-1])
        handles = [kb.resolve(h) for h in ref["handles"]]
        forced = {"request": oasiskg.StepKind.MODIFY, "release": oasiskg.StepKind.MODIFY}
        counts: Counter = Counter()
        for op_map in (None, forced):
            runs = oasiskg.concurrency.extract_runs(kb, handles, op_map)
            for schedule in oasiskg.concurrency.enumerate_schedules(runs, gen.CLI_BOUND):
                counts[f"concurrency.schedules.{schedule.status}"] += 1
        return counts


WORKLOADS = {w.name: w for w in (CliPipeline, RealizeGrowth, RaceSearch, GraphIO)}

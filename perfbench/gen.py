"""Seeded input generators for the benchmark.

These mirror the shapes the test suite builds (lock-protocol
scenarios, random behaviour and process specs, the CLI protocol
document) but live here on purpose: editing a test must never change a
workload silently.  Every generator takes a ``random.Random`` and uses
fixed counts; the seed only changes names, reference modes, dependency
edges and which steps touch which resource, so the amount of work per
workload stays the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oasiskg import (
    BehaviourSpec,
    EventSpec,
    GoalSpec,
    ProcedureSpec,
    ProcessSpec,
    Ref,
    StateSpec,
    TaskSpec,
)

#: name stems, all five letters long so that names (and so graph and
#: document sizes) do not depend on the seed
_WORDS = (
    "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heath",
    "irony", "jumpy", "kelps", "larch", "maple", "nerve", "oaken", "pines",
    "quart", "reeds", "sages", "thyme", "umber", "vales", "wills", "yarns",
)


def tags(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct, seeded name stems (word plus index)."""
    return [f"{rng.choice(_WORDS)}{i}" for i in range(count)]


# ---------------------------------------------------------------------------
# Lock-protocol shapes
# ---------------------------------------------------------------------------


def step_plan(name: str, kind: str, resource: str, lock: str) -> BehaviourSpec:
    """One-task plan for a lock-protocol step: ``request`` outputs a new
    lock, ``release`` takes it as input, ``modify`` only names the
    resource."""
    extras: dict = {}
    if kind == "request":
        extras = dict(outputs=(Ref.new(lock, instance_of=("Lock",)),))
    elif kind == "release":
        extras = dict(inputs=(Ref.exact(lock),))
    return BehaviourSpec(
        name=f"{name}_plan",
        goals=(
            GoalSpec(
                name=f"{name}_goal",
                tasks=(
                    TaskSpec(
                        name=f"{name}_task",
                        operator_action=Ref.exact(kind),
                        obj=Ref.exact(resource),
                        **extras,
                    ),
                ),
            ),
        ),
    )


def consumer_template(tag: str) -> BehaviourSpec:
    return BehaviourSpec(
        name=f"consume_{tag}_template",
        goals=(
            GoalSpec(
                name=f"consume_{tag}_goal",
                tasks=(
                    TaskSpec(
                        name=f"consume_{tag}_task",
                        operator_action=Ref.exact("consume"),
                        obj=Ref.exact("shared_resource"),
                    ),
                ),
            ),
        ),
    )


def notify_event(name: str) -> EventSpec:
    return EventSpec(
        name=f"{name}_event",
        action=TaskSpec(name=f"{name}_notify_task", operator_action=Ref.exact("notify")),
        kind="signal",
    )


def chain_process(
    tag: str,
    steps: list[tuple[str, str]],
    event_at: frozenset[int] = frozenset(),
) -> ProcessSpec:
    """One procedure whose states run ``steps`` ((kind, resource) pairs)
    in order; states ``{tag}_s{i}``; an event on each index in
    ``event_at``."""
    states = tuple(
        StateSpec(
            name=f"{tag}_s{i}",
            plan=step_plan(f"{tag}_s{i}_{kind}", kind, resource, f"lock_{tag}_{resource}"),
            events=(notify_event(f"{tag}_s{i}"),) if i in event_at else (),
        )
        for i, (kind, resource) in enumerate(steps)
    )
    return ProcessSpec(
        name=f"consume_{tag}_process",
        procedures=(ProcedureSpec(name=f"consume_{tag}_procedure", states=states),),
    )


PROTOCOL = ("request", "modify", "release")


def protocol_steps(resource: str = "shared_resource") -> list[tuple[str, str]]:
    return [(kind, resource) for kind in PROTOCOL]


# ---------------------------------------------------------------------------
# Random behaviour and process specs, fixed shape
# ---------------------------------------------------------------------------


def random_behaviour_spec(
    rng: random.Random, tag: str, goals: int = 2, tasks: int = 2
) -> BehaviourSpec:
    """A behaviour with ``goals`` x ``tasks`` tasks; the seed picks
    reference modes, parameter refs and dependency edges."""
    goal_specs = []
    goal_names: list[str] = []
    for gi in range(goals):
        task_specs = []
        task_names: list[str] = []
        for ti in range(tasks):
            name = f"{tag}_g{gi}_t{ti}"
            mode = rng.random()
            if mode < 0.4:
                obj = Ref.exact(f"{tag}_obj{gi}")
            elif mode < 0.7:
                obj = Ref.new(f"{tag}_new_obj_{gi}_{ti}")
            else:
                obj = Ref.new(f"{tag}_typed_obj_{gi}_{ti}", instance_of=("Widget",))
            task_specs.append(
                TaskSpec(
                    name=name,
                    operator_action=Ref.exact(f"{tag}_act{ti}"),
                    operator_argument=Ref.exact(f"{tag}_arg{ti}"),
                    obj=obj,
                    inputs=(Ref.exact(f"{tag}_in_{gi}_{ti}"),),
                    outputs=(Ref.new(f"{tag}_out_{gi}_{ti}"),),
                    depends_on=tuple(n for n in task_names if rng.random() < 0.3),
                )
            )
            task_names.append(name)
        gname = f"{tag}_g{gi}"
        goal_specs.append(
            GoalSpec(
                name=gname,
                tasks=tuple(task_specs),
                depends_on=tuple(n for n in goal_names if rng.random() < 0.3),
            )
        )
        goal_names.append(gname)
    return BehaviourSpec(name=f"{tag}_behaviour", goals=tuple(goal_specs))


def random_process_spec(
    rng: random.Random,
    tag: str,
    procedures: int = 2,
    states: int = 3,
    events: int = 2,
) -> ProcessSpec:
    """``procedures`` x ``states`` states with random plans; exactly
    ``events`` states (seeded positions) carry a notify event."""
    slots = [(pi, si) for pi in range(procedures) for si in range(states)]
    with_event = set(rng.sample(slots, events))
    procs = []
    for pi in range(procedures):
        state_specs = []
        for si in range(states):
            name = f"{tag}_p{pi}_s{si}"
            state_specs.append(
                StateSpec(
                    name=name,
                    plan=random_behaviour_spec(rng, f"{name}_plan"),
                    events=(notify_event(name),) if (pi, si) in with_event else (),
                )
            )
        procs.append(ProcedureSpec(name=f"{tag}_p{pi}", states=tuple(state_specs)))
    return ProcessSpec(name=f"{tag}_process", procedures=tuple(procs))


def state_names(spec: ProcessSpec) -> list[str]:
    return [s.name for p in spec.procedures for s in p.states]


def event_counts(spec: ProcessSpec) -> list[int]:
    return [len(s.events) for p in spec.procedures for s in p.states]


# ---------------------------------------------------------------------------
# realize_growth: one knowledge base, many processes realized in turn
# ---------------------------------------------------------------------------

GROWTH_PROCESSES = 48
GROWTH_RANDOM_EVERY = 8  # every 8th process is a random multi-procedure one
GROWTH_EVENT_PROTOCOLS = 14  # protocol processes whose modify state has an event


@dataclass(frozen=True)
class GrowthItem:
    tag: str
    spec: ProcessSpec


def growth_mix(rng: random.Random) -> list[GrowthItem]:
    names = tags(rng, GROWTH_PROCESSES)
    protocol_slots = [
        i for i in range(GROWTH_PROCESSES) if i % GROWTH_RANDOM_EVERY != GROWTH_RANDOM_EVERY - 1
    ]
    with_event = set(rng.sample(protocol_slots, GROWTH_EVENT_PROTOCOLS))
    items = []
    for i, tag in enumerate(names):
        if i in protocol_slots:
            spec = chain_process(
                tag, protocol_steps(), frozenset({1}) if i in with_event else frozenset()
            )
        else:
            spec = random_process_spec(rng, tag)
        items.append(GrowthItem(tag, spec))
    return items


# ---------------------------------------------------------------------------
# graph_io: a bulk graph built with builders, never realized
# ---------------------------------------------------------------------------

GRAPH_UNITS = 26  # ~25k triples
TURTLE_UNITS = 2  # ~1.4k triples for the Turtle rendering


@dataclass(frozen=True)
class GraphUnit:
    agent: str
    template: BehaviourSpec
    process: ProcessSpec


def graph_units(rng: random.Random, count: int) -> list[GraphUnit]:
    return [
        GraphUnit(
            agent=f"agent_{tag}",
            template=random_behaviour_spec(rng, f"{tag}_tpl"),
            process=random_process_spec(rng, tag),
        )
        for tag in tags(rng, count)
    ]


# ---------------------------------------------------------------------------
# race_search: a batch of small lock-protocol scenarios
# ---------------------------------------------------------------------------

RACE_BOUND = 12


@dataclass(frozen=True)
class Scenario:
    """Agents (name stem, ordered (kind, resource) steps) plus the
    resources they share.  ``note`` says why the scenario is there."""

    name: str
    resources: tuple[str, ...]
    agents: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    note: str


def _agent_steps(rng: random.Random, resources: list[str], blocks: int, style: str):
    """Disciplined blocks all lock the first resource, so how often they
    block (and so the schedule count) does not depend on the seed; lock-free
    modifies pick a resource at random."""
    steps: list[tuple[str, str]] = []
    for _ in range(blocks):
        if style == "disciplined":
            steps.extend((kind, resources[0]) for kind in PROTOCOL)
        else:  # rogue and free agents modify without taking the lock
            steps.append(("modify", rng.choice(resources)))
    return tuple(steps)


def race_batch(rng: random.Random) -> list[Scenario]:
    """60 scenarios with heavy-tailed schedule counts: 2 with 11550
    schedules, 14 with 560, 42 with at most 28, plus the lock-order
    deadlock pair and a race hidden beyond the bound.  The counts do not
    depend on the seed."""
    out: list[Scenario] = []
    stem = tags(rng, 60)

    def make(i: int, agent_shapes: list[tuple[str, int]], n_res: int, note: str) -> Scenario:
        resources = [f"{stem[i]}_r{k}" for k in range(n_res)]
        agents = tuple(
            (f"{stem[i]}_{chr(97 + a)}", _agent_steps(rng, resources, blocks, style))
            for a, (style, blocks) in enumerate(agent_shapes)
        )
        return Scenario(f"scenario_{stem[i]}", tuple(resources), agents, note)

    # lock-order deadlock: A takes r0 then r1, B takes r1 then r0
    r0, r1 = f"{stem[0]}_r0", f"{stem[0]}_r1"
    out.append(
        Scenario(
            f"scenario_{stem[0]}",
            (r0, r1),
            (
                (f"{stem[0]}_a", (("request", r0), ("request", r1), ("modify", r1),
                                   ("release", r1), ("release", r0))),
                (f"{stem[0]}_b", (("request", r1), ("request", r0), ("modify", r0),
                                   ("release", r0), ("release", r1))),
            ),
            "lock-order deadlock",
        )
    )
    # a race that only shows after 14 lock steps, beyond RACE_BOUND
    r = f"{stem[1]}_r0"
    hidden = tuple([("request", r), ("release", r)] * 7 + [("modify", r)])
    out.append(
        Scenario(
            f"scenario_{stem[1]}",
            (r,),
            ((f"{stem[1]}_a", hidden), (f"{stem[1]}_b", hidden)),
            "race beyond the bound",
        )
    )
    # heavy: three lock-free agents, 4 + 4 + 3 modifies = 11550 schedules
    for i in (2, 3):
        out.append(make(i, [("free", 4), ("free", 4), ("free", 3)], 2, "heavy free"))
    # medium: three agents with 3 + 3 + 2 steps and at most one lock
    # holder, so each has C(8;3,3,2) = 560 schedules
    medium_shapes = [
        [("free", 3), ("free", 3), ("free", 2)],
        [("disciplined", 1), ("free", 3), ("rogue", 2)],
        [("rogue", 3), ("disciplined", 1), ("free", 2)],
        [("free", 3), ("rogue", 3), ("disciplined", 1)],
    ]
    for k, i in enumerate(range(4, 18)):
        out.append(make(i, medium_shapes[k % len(medium_shapes)], 1 + k % 2, "medium"))
    # small: two agents, a few steps
    small_shapes = [
        [("disciplined", 1), ("disciplined", 1)],
        [("disciplined", 1), ("rogue", 1)],
        [("free", 2), ("free", 2)],
        [("disciplined", 2), ("rogue", 2)],
        [("free", 3), ("disciplined", 1)],
        [("disciplined", 1), ("disciplined", 2)],
    ]
    for k, i in enumerate(range(18, 60)):
        out.append(make(i, small_shapes[k % len(small_shapes)], 1 + k % 2, "small"))
    return out


# ---------------------------------------------------------------------------
# cli_pipeline: the build document
# ---------------------------------------------------------------------------

CLI_AGENTS = 10
CLI_EVENT_AGENTS = 3
CLI_BOUND = 3


def ref_json(ref: Ref):
    if ref.mode.value == "exact":
        return ref.target
    doc: dict = {"iri": ref.target, "mode": "new"}
    if ref.instance_of:
        doc["instanceOf"] = list(ref.instance_of)
    return doc


def task_json(spec: TaskSpec) -> dict:
    doc: dict = {"name": spec.name, "operatorAction": ref_json(spec.operator_action)}
    if spec.operator_argument is not None:
        doc["operatorArgument"] = ref_json(spec.operator_argument)
    if spec.obj is not None:
        doc["object"] = ref_json(spec.obj)
    if spec.inputs:
        doc["inputs"] = [ref_json(r) for r in spec.inputs]
    if spec.outputs:
        doc["outputs"] = [ref_json(r) for r in spec.outputs]
    if spec.depends_on:
        doc["dependsOn"] = list(spec.depends_on)
    return doc


def behaviour_json(spec: BehaviourSpec) -> dict:
    goals = []
    for g in spec.goals:
        goal: dict = {"name": g.name, "tasks": [task_json(t) for t in g.tasks]}
        if g.depends_on:
            goal["dependsOn"] = list(g.depends_on)
        goals.append(goal)
    return {"name": spec.name, "goals": goals}


def event_json(spec: EventSpec) -> dict:
    doc: dict = {"name": spec.name, "action": task_json(spec.action)}
    for key in ("kind", "duration", "window"):
        if getattr(spec, key) is not None:
            doc[key] = getattr(spec, key)
    return doc


def process_json(spec: ProcessSpec) -> dict:
    return {
        "name": spec.name,
        "procedures": [
            {
                "name": p.name,
                "states": [
                    {
                        "name": s.name,
                        "plan": behaviour_json(s.plan),
                        **({"events": [event_json(e) for e in s.events]} if s.events else {}),
                    }
                    for s in p.states
                ],
            }
            for p in spec.procedures
        ],
    }


@dataclass(frozen=True)
class CliAgent:
    tag: str
    template: BehaviourSpec
    process: ProcessSpec


def cli_agents(rng: random.Random) -> list[CliAgent]:
    names = tags(rng, CLI_AGENTS)
    with_event = set(rng.sample(range(CLI_AGENTS), CLI_EVENT_AGENTS))
    return [
        CliAgent(
            tag,
            consumer_template(tag),
            chain_process(tag, protocol_steps(), frozenset({1}) if i in with_event else frozenset()),
        )
        for i, tag in enumerate(names)
    ]


def cli_document(agents: list[CliAgent]) -> dict:
    """The ``oasiskg build`` document for the agents, in the layout of
    the README: agents, templates, behaviours, processes."""
    return {
        "prefixes": {},
        "agents": [f"agent_{a.tag}" for a in agents],
        "templates": [behaviour_json(a.template) for a in agents],
        "behaviours": [
            {"id": f"behaviour_{a.tag}", "template": a.template.name, "agent": f"agent_{a.tag}"}
            for a in agents
        ],
        "processes": [process_json(a.process) for a in agents],
    }


# ---------------------------------------------------------------------------
# Turtle rendering, written here rather than by the package
# ---------------------------------------------------------------------------

#: the prefixes the rendering declares (narrower bases first)
TURTLE_PREFIXES = {
    "o": "http://example.org/oasis#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "x": "http://example.org/",
}
_LOCAL_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-.")
_RDF_TYPE = TURTLE_PREFIXES["rdf"] + "type"


def _turtle_term(value: str, prefixes: dict[str, str]) -> str:
    for prefix, base in prefixes.items():
        local = value[len(base):]
        if value.startswith(base) and local and set(local) <= _LOCAL_CHARS and not local.endswith("."):
            return f"{prefix}:{local}"
    return f"<{value}>"


def _turtle_literal(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{escaped}"'


def render_turtle(triples: list[tuple[str, str, object]], prefixes: dict[str, str]) -> str:
    """Turtle for ``(subject, predicate, object)`` triples (IRIs as
    strings, literals wrapped in a 1-tuple): ``@prefix`` lines, one block
    per subject with ``;`` between predicates, ``,`` between objects and
    ``a`` for rdf:type.  Blocks follow first appearance."""
    grouped: dict[str, dict[str, list[str]]] = {}
    for s, p, o in triples:
        obj = _turtle_literal(o[0]) if isinstance(o, tuple) else _turtle_term(o, prefixes)
        grouped.setdefault(s, {}).setdefault(p, []).append(obj)
    lines = [f"@prefix {prefix}: <{base}> ." for prefix, base in prefixes.items()]
    for s, preds in grouped.items():
        lines.append("")
        lines.append(_turtle_term(s, prefixes))
        parts = [
            f"    {'a' if p == _RDF_TYPE else _turtle_term(p, prefixes)} {', '.join(objs)}"
            for p, objs in preds.items()
        ]
        lines.append(" ;\n".join(parts) + " .")
    return "\n".join(lines) + "\n"

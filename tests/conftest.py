from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from oasiskg import (
    BehaviourSpec,
    EventSpec,
    GoalSpec,
    KnowledgeBase,
    ProcedureSpec,
    ProcessSpec,
    Ref,
    StateSpec,
    TaskSpec,
    build_process,
    build_template,
    declare_agent,
    derive_behaviour,
    realize_process,
    validate,
)
from oasiskg.core import EntityRecord


def store_state(kb: KnowledgeBase) -> dict:
    """Everything the store's inserts write, with its order."""
    return {
        "assertions": list(kb.assertions),
        "entities": [
            (iri, list(rec.memberships), list(rec._out), list(rec._in))
            for iri, rec in kb.entities.items()
        ],
        "literal_in": [(k, list(v)) for k, v in kb._literal_in.items()],
        "journal": None if kb.journal is None else list(kb.journal),
    }


def count_edge_reads(kb: KnowledgeBase, monkeypatch) -> Counter:
    """Count each read of a node's edges from now on, per node: through
    ``kb.edges`` or through its record's ``edges``, the two ways the
    store hands out a node's edge list."""
    reads: Counter = Counter()
    edges = kb.edges
    record_edges = EntityRecord.edges.fget

    def counting_edges(subject):
        reads[subject] += 1
        return edges(subject)

    def counting_record_edges(rec):
        reads[rec.iri] += 1
        return record_edges(rec)

    monkeypatch.setattr(kb, "edges", counting_edges)
    monkeypatch.setattr(EntityRecord, "edges", property(counting_record_edges))
    return reads


def lock_step_plan(tag: str, step: str, resource: str = "shared_resource") -> BehaviourSpec:
    """One-task plan for a lock-protocol step (request/modify/release)."""
    extras = {}
    if step == "request":
        extras = dict(outputs=(Ref.new(f"lock_{tag}", instance_of=("Lock",)),))
    elif step == "release":
        extras = dict(inputs=(Ref.exact(f"lock_{tag}"),))
    return BehaviourSpec(
        name=f"{step}_{tag}_plan",
        goals=(
            GoalSpec(
                name=f"{step}_{tag}_goal",
                tasks=(
                    TaskSpec(
                        name=f"{step}_{tag}_task",
                        operator_action=Ref.exact(step),
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


def protocol_process_spec(tag: str, with_event: bool = False) -> ProcessSpec:
    """Request / modify / release chain for one consumer."""
    events = (
        (
            EventSpec(
                name=f"{tag}_modify_event",
                action=TaskSpec(
                    name=f"{tag}_notify_task",
                    operator_action=Ref.exact("notify"),
                ),
                kind="signal",
            ),
        )
        if with_event
        else ()
    )
    return ProcessSpec(
        name=f"consume_{tag}_process",
        procedures=(
            ProcedureSpec(
                name=f"consume_{tag}_procedure",
                states=(
                    StateSpec(name=f"{tag}_s1", plan=lock_step_plan(tag, "request")),
                    StateSpec(
                        name=f"{tag}_s2",
                        plan=lock_step_plan(tag, "modify"),
                        events=events,
                    ),
                    StateSpec(name=f"{tag}_s3", plan=lock_step_plan(tag, "release")),
                ),
            ),
        ),
    )


def build_protocol_scenario(kb: KnowledgeBase, tags=("a", "b"), with_events=False):
    """Full case study: one consumer agent, behaviour, process and
    realization per tag.  Returns per-tag dicts of the interesting IRIs."""
    kb.declare_class(kb.resolve("Resource"))
    kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
    out = {}
    for tag in tags:
        agent = declare_agent(kb, kb.resolve(f"agent_{tag}"))
        template = build_template(kb, consumer_template(tag))
        behaviour = derive_behaviour(kb, template, agent)
        process = build_process(kb, protocol_process_spec(tag, with_events))
        assignment = {
            kb.resolve(f"{tag}_s{i}"): (agent, behaviour) for i in (1, 2, 3)
        }
        handle = realize_process(kb, process, assignment)
        out[tag] = {
            "agent": agent,
            "template": template,
            "behaviour": behaviour,
            "process": process,
            "handle": handle,
        }
    return out


# ---------------------------------------------------------------------------
# Randomized spec generation (seeded, no external library)
# ---------------------------------------------------------------------------


def random_behaviour_spec(rng: random.Random, tag: str) -> BehaviourSpec:
    goals = []
    goal_names: list[str] = []
    for gi in range(rng.randint(1, 3)):
        tasks = []
        task_names: list[str] = []
        for ti in range(rng.randint(1, 3)):
            name = f"{tag}_g{gi}_t{ti}"
            deps = tuple(
                n for n in task_names if rng.random() < 0.3
            )
            refs = {}
            if rng.random() < 0.5:
                refs["operator_argument"] = Ref.exact(f"{tag}_arg{ti}")
            if rng.random() < 0.8:
                mode = rng.random()
                if mode < 0.4:
                    refs["obj"] = Ref.exact(f"{tag}_obj{gi}")
                elif mode < 0.7:
                    refs["obj"] = Ref.new(f"{tag}_new_obj_{gi}_{ti}")
                else:
                    refs["obj"] = Ref.new(
                        f"{tag}_typed_obj_{gi}_{ti}", instance_of=("Widget",)
                    )
            refs["inputs"] = tuple(
                Ref.exact(f"{tag}_in_{gi}_{ti}_{k}") for k in range(rng.randint(0, 2))
            )
            refs["outputs"] = tuple(
                Ref.new(f"{tag}_out_{gi}_{ti}_{k}") for k in range(rng.randint(0, 2))
            )
            tasks.append(
                TaskSpec(
                    name=name,
                    operator_action=Ref.exact(f"{tag}_act{ti}"),
                    depends_on=deps,
                    **refs,
                )
            )
            task_names.append(name)
        gname = f"{tag}_g{gi}"
        goals.append(
            GoalSpec(
                name=gname,
                tasks=tuple(tasks),
                depends_on=tuple(n for n in goal_names if rng.random() < 0.3),
            )
        )
        goal_names.append(gname)
    return BehaviourSpec(name=f"{tag}_behaviour", goals=tuple(goals))


def random_process_spec(rng: random.Random, tag: str) -> ProcessSpec:
    procedures = []
    for pi in range(rng.randint(1, 2)):
        states = []
        for si in range(rng.randint(1, 4)):
            events = ()
            if rng.random() < 0.3:
                events = (
                    EventSpec(
                        name=f"{tag}_p{pi}_s{si}_event",
                        action=TaskSpec(
                            name=f"{tag}_p{pi}_s{si}_event_task",
                            operator_action=Ref.exact("notify"),
                        ),
                        kind="signal" if rng.random() < 0.5 else None,
                        duration="PT1S" if rng.random() < 0.5 else None,
                    ),
                )
            states.append(
                StateSpec(
                    name=f"{tag}_p{pi}_s{si}",
                    plan=random_behaviour_spec(rng, f"{tag}_p{pi}_s{si}_plan"),
                    events=events,
                )
            )
        procedures.append(ProcedureSpec(name=f"{tag}_p{pi}", states=tuple(states)))
    return ProcessSpec(name=f"{tag}_process", procedures=tuple(procedures))


def whole_graph_pass(kb: KnowledgeBase) -> list:
    """``validate`` with the journal set aside, which runs every check
    over the whole graph; the journal is put back unchanged."""
    journal, kb.journal = kb.journal, None
    try:
        return validate(kb)
    finally:
        kb.journal = journal


def load_benchmark_module(name: str):
    """A module of ``perfbench``, the benchmark, imported read-only.  Its
    modules import each other by their bare names, so ``perfbench`` is on
    ``sys.path`` while the import runs."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, path)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(path)


@pytest.fixture
def kb() -> KnowledgeBase:
    return KnowledgeBase()


@pytest.fixture
def fig_template_spec() -> BehaviourSpec:
    """A template shaped like the canonical single-task lock request."""
    return BehaviourSpec(
        name="request_lock_behaviour_template",
        goals=(
            GoalSpec(
                name="request_lock_goal_template",
                tasks=(
                    TaskSpec(
                        name="request_lock_task",
                        operator_action=Ref.exact("request"),
                        operator_argument=Ref.exact("request_argument"),
                        obj=Ref.exact("shared_resource"),
                        outputs=(Ref.new("lock", instance_of=("Lock",)),),
                    ),
                ),
            ),
        ),
    )

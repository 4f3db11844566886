"""Realizing processes into the execution layer and stepping through them.

``realize_process`` gates on a clean validation pass and on every
assigned agent being capable of the behaviour it is given (own
behaviour, or one provided by a live role).  It then clones the process,
its procedures, states and plans into the execution layer and
cross-links everything: processDrawnBy / procedureDrawnBy at the roots,
one hasExecution-family edge per plan-tree node, planExecutionDrawnBy
from each plan execution to the behaviour it draws on, and
performsPlanExecution from the agent.

``ProcessHandle.step`` walks the realized states in chain order, firing
(cloning) the events foreseen on the planning states.
"""

from __future__ import annotations

import json

from .core import KnowledgeBase
from .terms import Frozen, Iri, ModelError, Record, set_field
from .trees import (
    clone_node,
    clone_tree,
    is_root,
    link_pairs,
    link_procedures,
    link_states,
    procedure_order,
    state_chain,
)
from .validator import Code, Violation, capability_gap, validate
from .vocab import (
    CLASS_TO_HAS_EXECUTION,
    EVENT_DESCRIBED_BY_ACTION,
    HAS_EVENT_DURATION,
    HAS_EVENT_KIND,
    HAS_EVENT_WINDOW,
    IS_DESCRIBED_BY,
    LayerTag,
    PERFORMS_PLAN_EXECUTION,
    PLAN_EXECUTION_DRAWN_BY,
    PROCEDURE_DRAWN_BY,
    PROCESS,
    PROCESS_DRAWN_BY,
    TRIGGERS_EVENT,
)


class ValidationFailed(ModelError):
    def __init__(self, violations: list[Violation]) -> None:
        super().__init__(
            f"knowledge base has {len(violations)} validation finding(s)"
        )
        self.violations = violations


class NotAProcess(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"not a planning-layer process: {iri}")
        self.iri = iri


class AssignmentIncomplete(ModelError):
    def __init__(self, missing: list[Iri]) -> None:
        names = ", ".join(str(m) for m in missing)
        super().__init__(f"states without an assignment: {names}")
        self.missing = missing


class PerformerLacksCapability(ModelError):
    code = Code.PERFORMER_LACKS_CAPABILITY.value

    def __init__(self, state: Iri, agent: Iri, behaviour: Iri) -> None:
        super().__init__(
            f"{self.code}: {agent} cannot perform {behaviour} (state {state})"
        )
        self.state = state
        self.agent = agent
        self.behaviour = behaviour


class RoleDeprecatedUse(ModelError):
    code = Code.ROLE_DEPRECATED_USE.value

    def __init__(self, state: Iri, agent: Iri, role: Iri) -> None:
        super().__init__(
            f"{self.code}: {agent} only qualifies through deprecated role "
            f"{role} (state {state})"
        )
        self.state = state
        self.agent = agent
        self.role = role


_CAPABILITY_ERRORS: dict[Code, type[ModelError]] = {
    Code(cls.code): cls for cls in (PerformerLacksCapability, RoleDeprecatedUse)
}


class CursorCompleted(ModelError):
    def __init__(self) -> None:
        super().__init__("the process run is already complete")


#: per procedure-state assignment: state -> (agent, behaviour)
Assignment = dict[Iri, tuple[Iri, Iri]]


class StateRecord(Frozen):
    __slots__ = (
        "index", "planning_state", "exec_state", "plan_exec", "agent", "behaviour"
    )

    def __init__(
        self, index: int, planning_state: Iri, exec_state: Iri, plan_exec: Iri,
        agent: Iri, behaviour: Iri,
    ) -> None:
        set_field(self, "index", index)
        set_field(self, "planning_state", planning_state)
        set_field(self, "exec_state", exec_state)
        set_field(self, "plan_exec", plan_exec)
        set_field(self, "agent", agent)
        set_field(self, "behaviour", behaviour)


class StepRecord(Frozen):
    __slots__ = ("state", "plan_exec", "agent", "events", "index")

    def __init__(
        self, state: Iri, plan_exec: Iri, agent: Iri, events: tuple[Iri, ...],
        index: int,
    ) -> None:
        set_field(self, "state", state)
        set_field(self, "plan_exec", plan_exec)
        set_field(self, "agent", agent)
        set_field(self, "events", events)
        set_field(self, "index", index)

    def trace_line(self) -> str:
        return json.dumps(
            {
                "state": self.state.value,
                "planExec": self.plan_exec.value,
                "agent": self.agent.value,
                "events": [e.value for e in self.events],
                "index": self.index,
            },
            separators=(",", ":"),
        )


class ProcessHandle(Record):
    __slots__ = ("kb", "process", "exec_process", "records", "cursor", "_steps")

    def __init__(
        self, kb: KnowledgeBase, process: Iri, exec_process: Iri,
        records: list[StateRecord], cursor: int = 0, _steps: list[StepRecord] | None = None,
    ) -> None:
        self.kb = kb
        self.process = process
        self.exec_process = exec_process
        self.records = records
        self.cursor = cursor
        self._steps = [] if _steps is None else _steps

    @property
    def completed(self) -> bool:
        return self.cursor >= len(self.records)

    def step(self) -> StepRecord:
        """Advance one state: fire its foreseen events, move the cursor."""
        if self.completed:
            raise CursorCompleted()
        rec = self.records[self.cursor]
        events = tuple(
            _fire_event(self.kb, rec.exec_state, ev)
            for ev in self.kb.objects(rec.planning_state, TRIGGERS_EVENT)
            if isinstance(ev, Iri)
        )
        step = StepRecord(
            state=rec.exec_state,
            plan_exec=rec.plan_exec,
            agent=rec.agent,
            events=events,
            index=rec.index,
        )
        self._steps.append(step)
        self.cursor += 1
        return step

    def run_to_completion(self) -> list[StepRecord]:
        while not self.completed:
            self.step()
        return list(self._steps)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


def _clone_linked(kb: KnowledgeBase, root: Iri) -> Iri:
    """Clone a behaviour-shaped tree into the execution layer, link every
    source node to its clone through the hasExecution family and return
    the root's clone."""
    mapping = clone_tree(kb, root, LayerTag.EXECUTION)
    link_pairs(kb, mapping, CLASS_TO_HAS_EXECUTION)
    return mapping[root]


def realize_process(
    kb: KnowledgeBase, process: Iri, assignment: Assignment
) -> ProcessHandle:
    """Clone a validated planning process into the execution layer.

    ``assignment`` must cover every procedure state; each pair is gated
    through capability_gap before anything is emitted.
    """
    violations = validate(kb)
    if violations:
        raise ValidationFailed(violations)
    if not is_root(kb, process, PROCESS, LayerTag.PLANNING):
        raise NotAProcess(process)

    procedures = procedure_order(kb, process)
    chains = {proc: state_chain(kb, proc) for proc in procedures}
    all_states = [s for proc in procedures for s in chains[proc]]
    missing = [s for s in all_states if s not in assignment]
    if missing:
        raise AssignmentIncomplete(missing)
    for state in all_states:
        agent, behaviour = assignment[state]
        gap = capability_gap(kb, agent, behaviour)
        if gap is not None:
            code, named = gap
            raise _CAPABILITY_ERRORS[code](state, agent, named)

    exec_process = clone_node(kb, process, LayerTag.EXECUTION)
    kb.assert_property(exec_process, PROCESS_DRAWN_BY, process)
    records: list[StateRecord] = []
    exec_procs: list[Iri] = []
    for proc in procedures:
        exec_proc = clone_node(kb, proc, LayerTag.EXECUTION)
        kb.assert_property(exec_proc, PROCEDURE_DRAWN_BY, proc)
        exec_procs.append(exec_proc)

        states = chains[proc]
        exec_states = [clone_node(kb, s, LayerTag.EXECUTION) for s in states]
        link_states(kb, exec_proc, exec_states)

        for state, exec_state in zip(states, exec_states):
            agent, behaviour = assignment[state]
            plans = [
                o for o in kb.objects(state, IS_DESCRIBED_BY) if isinstance(o, Iri)
            ]
            plan_exec = _clone_linked(kb, plans[0])
            kb.assert_property(plan_exec, PLAN_EXECUTION_DRAWN_BY, behaviour)
            kb.assert_property(exec_state, IS_DESCRIBED_BY, plan_exec)
            kb.assert_property(agent, PERFORMS_PLAN_EXECUTION, plan_exec)
            records.append(
                StateRecord(
                    index=len(records),
                    planning_state=state,
                    exec_state=exec_state,
                    plan_exec=plan_exec,
                    agent=agent,
                    behaviour=behaviour,
                )
            )
    link_procedures(kb, exec_process, exec_procs)
    return ProcessHandle(kb=kb, process=process, exec_process=exec_process, records=records)


def _fire_event(kb: KnowledgeBase, exec_state: Iri, event: Iri) -> Iri:
    """Clone a foreseen event (and its action) into the execution layer
    and hang it off the realized state."""
    exec_event = clone_node(kb, event, LayerTag.EXECUTION)
    for pred in (HAS_EVENT_KIND, HAS_EVENT_DURATION, HAS_EVENT_WINDOW):
        for value in kb.objects(event, pred):
            kb.assert_property(exec_event, pred, value)
    for action in kb.objects(event, EVENT_DESCRIBED_BY_ACTION):
        if not isinstance(action, Iri):
            continue
        action_exec = _clone_linked(kb, action)
        kb.assert_property(exec_event, EVENT_DESCRIBED_BY_ACTION, action_exec)
    kb.assert_property(exec_state, TRIGGERS_EVENT, exec_event)
    return exec_event

"""Realizing processes into the execution layer and stepping through them.

``realize_process`` gates on a clean validation pass and on every
assigned agent being capable of the behaviour it is given (own
behaviour, or one provided by a live role).  It refuses a procedure,
state or plan-tree node outside the planning layer, in the one walk it
makes over what it will clone before the first write.  It then clones
the process, its procedures, states and plans into the execution layer
and cross-links everything: processDrawnBy / procedureDrawnBy at the
roots, one hasExecution-family edge per plan-tree node,
planExecutionDrawnBy from each plan execution to the behaviour it draws
on, and performsPlanExecution from the agent.

``ProcessHandle.step`` walks the realized states in chain order, firing
(cloning) the events foreseen on the planning states; it refuses an
event or action node outside the planning layer before its first write.

Each plan or action tree is read once, by ``trees.tree_rows``, before
the call's first write: each row's entity record gives the canonical
check the node's typing, and the clone its edges and its link's class,
so no tree node is looked up again; a plan tree that describes several
states is read once for all of them.  Each tree's clone then
reaches the store as one batch, its hasExecution links included.

Both calls journal their writes like any other.  A call that began on a
clean graph (journal ``[]``) and cloned only canonical nodes returns
with the journal ``[]`` again: ``_certify`` clears the call's own
entries, because such writes cannot make a clean graph dirty, so the
next ``validate`` has nothing to re-check.  A canonical node is a
single-layer planning node typed as ``trees.type_node`` types it at its
position, and with nothing else; ``tests/test_certified_writes.py`` holds, for every
finding code, why a certified call cannot raise it or which of these
conditions keeps the call's entries when it can.
"""

from __future__ import annotations

import json

from .core import EntityRecord, KnowledgeBase
from .terms import Frozen, Iri, ModelError, Record, set_field
from .trees import (
    TreeRow,
    clone_node,
    clone_tree,
    is_root,
    link_procedures,
    link_states,
    procedure_order,
    state_chain,
    state_classes,
    tree_class,
    tree_rows,
    typed_as,
    typing_of,
)
from .validator import Code, Violation, capability_gap, validate
from .vocab import (
    CLASS_TO_HAS_EXECUTION,
    EVENT,
    EVENT_DESCRIBED_BY_ACTION,
    HAS_EVENT_DURATION,
    HAS_EVENT_KIND,
    HAS_EVENT_WINDOW,
    IS_DESCRIBED_BY,
    LayerTag,
    PERFORMS_PLAN_EXECUTION,
    PLAN_EXECUTION_DRAWN_BY,
    PROCEDURE_DRAWN_BY,
    PROCEDURE,
    PROCEDURE_STATE_CLASSES,
    PROCESS,
    PROCESS_DRAWN_BY,
    TREE_NODE_CLASSES,
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


class OutsidePlanningLayer(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"not a planning-layer node: {iri}")
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
        """Advance one state: fire its foreseen events, move the cursor.

        An event or action node outside the planning layer is refused
        before anything is written.  The call's journal entries are
        cleared when it began on a clean graph, the realized state is
        still typed a state, and every node it cloned is canonical."""
        if self.completed:
            raise CursorCompleted()
        kb = self.kb
        clean = kb.journal == []
        rec = self.records[self.cursor]
        # the events hang off the realized state, which must still be one
        canonical = not PROCEDURE_STATE_CLASSES.isdisjoint(
            kb.entities[rec.exec_state].memberships
        )
        # every event and action node to clone is checked before the first write
        fired: list[tuple[Iri, list[list[TreeRow]]]] = []
        for ev in kb.objects(rec.planning_state, TRIGGERS_EVENT):
            if isinstance(ev, Iri):
                canonical &= _source(kb, ev, (EVENT,))
                actions = []
                for action in kb.objects(ev, EVENT_DESCRIBED_BY_ACTION):
                    if isinstance(action, Iri):
                        rows, tree_canonical = _tree_sources(kb, action)
                        canonical &= tree_canonical
                        actions.append(rows)
                fired.append((ev, actions))
        events = tuple(
            _fire_event(kb, rec.exec_state, ev, actions) for ev, actions in fired
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
        _certify(kb, clean, canonical)
        return step

    def run_to_completion(self) -> list[StepRecord]:
        while not self.completed:
            self.step()
        return list(self._steps)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

#: each position's ``trees.typing_of`` in the planning layer, keyed by its
#: classes: a tree node's class (``None`` for a node with none), an
#: event, a process, a procedure, and a state first, last, both or neither
_PLANNED: dict[tuple[Iri | None, ...], frozenset[Iri | None]] = {
    classes: typing_of(classes, LayerTag.PLANNING)
    for classes in (
        *((cls,) for cls in (*TREE_NODE_CLASSES, None)),
        (EVENT,),
        (PROCESS,),
        (PROCEDURE,),
        *(state_classes(index, last) for index, last in ((0, 1), (1, 1), (0, 0), (1, 2))),
    )
}


def _source(kb: KnowledgeBase, node: Iri, classes: tuple[Iri | None, ...]) -> bool:
    """Whether a node the engine would clone, a process, procedure,
    state or event, is canonical (see ``_canonical``)."""
    return _canonical(node, kb.entity(node), classes)


def _canonical(
    node: Iri, rec: EntityRecord | None, classes: tuple[Iri | None, ...]
) -> bool:
    """Whether ``node``, recorded by ``rec``, is canonical: typed as
    ``trees.type_node`` types a planning node whose position needs
    ``classes``, and with nothing else.  ``OutsidePlanningLayer`` unless
    the planning class is its one layer class."""
    if typed_as(rec, _PLANNED[classes]):
        return True
    if rec is None or rec.layer is not LayerTag.PLANNING:
        raise OutsidePlanningLayer(node)
    return False


def _tree_sources(kb: KnowledgeBase, root: Iri) -> tuple[list[TreeRow], bool]:
    """A tree to be cloned, as ``tree_rows`` walks it root first, and
    whether every node of it is canonical (see ``_canonical``), read
    from each row's own record: on a clean graph the edge that reaches
    a tree node has fixed which tree-node class it needs."""
    rows = tree_rows(kb, root)
    canonical = True
    for node, rec, _ in rows:
        canonical &= _canonical(node, rec, (tree_class(rec),))
    return rows, canonical


def _certify(kb: KnowledgeBase, clean: bool, canonical: bool) -> None:
    """Clear the journal after an engine call that returned normally,
    when the journal was ``[]`` as the call began (``clean``: the graph
    was clean and every entry since is the call's own) and every node
    the call cloned is canonical.  Such writes leave a clean graph
    clean.  Otherwise the entries stay, and the next ``validate`` checks
    what they reach, as it does after any other write.  This is the one
    place the engine touches the journal."""
    if clean and canonical:
        kb.journal = []


def _clone_linked(kb: KnowledgeBase, rows: list[TreeRow]) -> Iri:
    """Clone a behaviour-shaped tree, walked into ``rows`` root first, into
    the execution layer, link every source node to its clone through the
    hasExecution family and return the root's clone."""
    root = rows[0][0]
    return clone_tree(kb, rows, LayerTag.EXECUTION, CLASS_TO_HAS_EXECUTION)[root]


def realize_process(
    kb: KnowledgeBase, process: Iri, assignment: Assignment
) -> ProcessHandle:
    """Clone a validated planning process into the execution layer.

    ``assignment`` must cover every procedure state; each pair is gated
    through capability_gap, and every procedure, state and plan-tree
    node must be in the planning layer alone, before anything is
    emitted.  The call's journal entries are cleared when every node it
    cloned is canonical.
    """
    violations = validate(kb)
    if violations:
        raise ValidationFailed(violations)
    if not is_root(kb, process, PROCESS, LayerTag.PLANNING):
        raise NotAProcess(process)
    clean = kb.journal == []

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

    # one walk over every node to be cloned: refuse any outside the
    # planning layer, and note whether all of them are canonical
    canonical = _source(kb, process, (PROCESS,))
    plans: dict[Iri, Iri] = {}  # state -> the root of its plan tree
    plan_rows: dict[Iri, list[TreeRow]] = {}  # plan root -> its rows, root first
    for proc in procedures:
        canonical &= _source(kb, proc, (PROCEDURE,))
        states = chains[proc]
        last = len(states) - 1
        for j, state in enumerate(states):
            canonical &= _source(kb, state, state_classes(j, last))
            plan = plans[state] = [
                o for o in kb.objects(state, IS_DESCRIBED_BY) if isinstance(o, Iri)
            ][0]
            if plan not in plan_rows:
                plan_rows[plan], tree_canonical = _tree_sources(kb, plan)
                canonical &= tree_canonical

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
            plan_exec = _clone_linked(kb, plan_rows[plans[state]])
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
    _certify(kb, clean, canonical)
    return ProcessHandle(kb=kb, process=process, exec_process=exec_process, records=records)


def _fire_event(
    kb: KnowledgeBase, exec_state: Iri, event: Iri, actions: list[list[TreeRow]]
) -> Iri:
    """Clone a foreseen event and its action trees, each walked root first,
    into the execution layer and hang the event off the realized state."""
    exec_event = clone_node(kb, event, LayerTag.EXECUTION)
    for pred in (HAS_EVENT_KIND, HAS_EVENT_DURATION, HAS_EVENT_WINDOW):
        for value in kb.objects(event, pred):
            kb.assert_property(exec_event, pred, value)
    for rows in actions:
        action_exec = _clone_linked(kb, rows)
        kb.assert_property(exec_event, EVENT_DESCRIBED_BY_ACTION, action_exec)
    kb.assert_property(exec_state, TRIGGERS_EVENT, exec_event)
    return exec_event

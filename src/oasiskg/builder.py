"""Graph construction: templates, behaviours, plans, processes, roles.

Naming conventions (all deterministic):

* task elements are minted under the task name: ``<task>_operator``,
  ``<task>_operator_argument``, ``<task>_object``, ``<task>_input``,
  ``<task>_output``; second and later parameters are numbered from 2
  (``<task>_input_2``); in the template layer object and parameter nodes
  additionally carry a ``_template`` suffix.  They are written in the
  order of ``vocab.TREE_SHAPE``'s edges from a task description;
* layer clones append ``__<layer>__<n>`` to the source IRI, where ``n``
  comes from the knowledge base's clone counter;
* role individuals append ``__role__<n>`` to the role type IRI.

Walking, cloning, ordering and the layer rules (``tree_rows``,
``clone_tree``, ``link_procedures``, ``link_states``, ``is_root``) live
in ``trees``, and capability in ``validator``; this module imports only
the ones it calls.  ``pair_trees`` and ``submit_plan`` pair two trees
from their ``tree_rows`` walks, so a submitted link takes its member
from the class in the plan node's row, and reaches the store in one
batch with the others.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from operator import attrgetter

from .core import KnowledgeBase
from .specs import (
    BehaviourSpec,
    EventSpec,
    ProcessSpec,
    Ref,
    RefMode,
    SpecInvalid,
    TaskSpec,
)
from .terms import Assertion, Iri, ModelError
from .trees import (
    CHILD_RANK,
    TreeRow,
    clone_tree,
    depth_first,
    is_root,
    link_procedures,
    link_states,
    plan_tasks,
    state_classes,
    tree_class,
    tree_rows,
    type_node,
)
from .vocab import (
    ACTION,
    AGENT,
    BEHAVIOUR,
    CLASS_TO_OVERLOAD,
    CLASS_TO_SUBMITTED,
    CONSISTS_OF_GOAL,
    CONSISTS_OF_TASK,
    DEPENDS_ON,
    DEPRECATED_THING,
    EVENT,
    EVENT_DESCRIBED_BY_ACTION,
    GOAL_DESCRIPTION,
    HAS_BEHAVIOUR,
    HAS_EVENT_DURATION,
    HAS_EVENT_KIND,
    HAS_EVENT_WINDOW,
    IS_DESCRIBED_BY,
    LayerTag,
    PLAY_ROLE,
    PROCEDURE,
    PROCEDURE_STATE_CLASSES,
    PROCESS,
    PROVIDES_BEHAVIOUR,
    REFERS_AS_INSTANCE_OF,
    REFERS_AS_NEW_TO,
    REFERS_EXACTLY_TO,
    ROLE,
    ROLE_TYPE,
    TASK_DESCRIPTION,
    TASK_INPUT_PARAMETER,
    TASK_OBJECT,
    TASK_OPERATOR,
    TASK_OPERATOR_ARGUMENT,
    TASK_OUTPUT_PARAMETER,
    TREE_SHAPE,
    TRIGGERS_EVENT,
)


class NotATemplate(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"not a template behaviour root: {iri}")
        self.iri = iri


class MissingAgent(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"agent not present in the knowledge base: {iri}")
        self.iri = iri


class LayerError(ModelError):
    def __init__(self, iri: Iri, expected: str) -> None:
        super().__init__(f"{iri} is not a {expected}")
        self.iri = iri
        self.expected = expected


class StructureMismatch(ModelError):
    def __init__(self, left: Iri, right: Iri, detail: str) -> None:
        super().__init__(f"{left} vs {right}: {detail}")
        self.left = left
        self.right = right
        self.detail = detail


class NotARole(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"not a role individual: {iri}")
        self.iri = iri


class NotAProcedureState(ModelError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"not a procedure state: {iri}")
        self.iri = iri


def declare_agent(kb: KnowledgeBase, iri: Iri) -> Iri:
    kb.assert_membership(iri, AGENT)
    return iri


# ---------------------------------------------------------------------------
# Spec checking
# ---------------------------------------------------------------------------


def _check_depends(
    names: list[str], deps: dict[str, tuple[str, ...]], path: str
) -> None:
    """Names unique, dependencies known and acyclic.  ``path`` names the
    array; an error names its item as ``path[i]``."""
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise SpecInvalid(path, "duplicate names")
    for name, wanted in deps.items():
        for j, dep in enumerate(wanted):
            if dep not in index:
                raise SpecInvalid(
                    f"{path}[{index[name]}].dependsOn[{j}]",
                    f"{name} depends on unknown name {dep!r}",
                )
    _, back = depth_first(names, lambda name: deps.get(name, ()))
    if back is not None:
        raise SpecInvalid(
            f"{path}[{index[back]}]", f"dependency cycle through {back!r}"
        )


def _check_behaviour_spec(spec: BehaviourSpec) -> None:
    where = spec.path or spec.name
    if not spec.goals:
        raise SpecInvalid(f"{where}.goals", "a behaviour needs at least one goal")
    _check_depends(
        [g.name for g in spec.goals],
        {g.name: g.depends_on for g in spec.goals},
        f"{where}.goals",
    )
    for i, goal in enumerate(spec.goals):
        if not goal.tasks:
            raise SpecInvalid(
                f"{where}.goals[{i}].tasks", "a goal needs at least one task"
            )
        _check_depends(
            [t.name for t in goal.tasks],
            {t.name: t.depends_on for t in goal.tasks},
            f"{where}.goals[{i}].tasks",
        )


# ---------------------------------------------------------------------------
# Tree emission
# ---------------------------------------------------------------------------


#: task element class -> the ``TaskSpec`` field holding its references,
#: the suffix its nodes' names add to the task's name, and whether a
#: template-layer node's name also ends in ``_template``
_ELEMENTS: dict[Iri, tuple[str, str, bool]] = {
    TASK_OPERATOR: ("operator_action", "_operator", False),
    TASK_OPERATOR_ARGUMENT: ("operator_argument", "_operator_argument", False),
    TASK_OBJECT: ("obj", "_object", True),
    TASK_INPUT_PARAMETER: ("inputs", "_input", True),
    TASK_OUTPUT_PARAMETER: ("outputs", "_output", True),
}
#: a task's rows, one per tree edge from a task description, in the
#: shape's order: (edge, element class, field, suffix, templated)
_TASK_ROWS = tuple(
    (edge, cls, *_ELEMENTS[cls])
    for edge, (parent, cls) in TREE_SHAPE.items()
    if parent == TASK_DESCRIPTION
)
#: reads a ``TaskSpec``'s fields in ``_TASK_ROWS`` order, in one call
_ROW_FIELDS = attrgetter(*(field for _, _, field, _, _ in _TASK_ROWS))


def _row_refs(spec: TaskSpec) -> list[tuple[Ref, ...]]:
    """``spec``'s references row by row: a field holds a tuple, one or none."""
    return [r if isinstance(r, tuple) else (r,) if r else () for r in _ROW_FIELDS(spec)]


def _resolve_refs(kb: KnowledgeBase, tasks: Iterable[TaskSpec]) -> dict[str, Iri]:
    """Each reference target and ``instanceOf`` class the tasks name, by
    name.  Callers resolve them before the first write, so a bad one
    leaves the graph as it was."""
    return {
        name: kb.resolve(name)
        for task in tasks
        for refs in _row_refs(task)
        for ref in refs
        for name in (ref.target, *ref.instance_of)
    }


def _emit_ref(
    kb: KnowledgeBase,
    node: Iri,
    ref: Ref,
    layer_cls: Iri | None,
    iris: dict[str, Iri],
) -> None:
    target = iris[ref.target]
    if ref.mode is RefMode.EXACT:
        kb.assert_property(node, REFERS_EXACTLY_TO, target)
        return
    # a new individual is introduced in the layer under construction
    if layer_cls is not None:
        kb.assert_membership(target, layer_cls)
    kb.assert_property(node, REFERS_AS_NEW_TO, target)
    for name in ref.instance_of:
        cls = iris[name]
        kb.assert_membership(target, cls)
        kb.assert_property(target, REFERS_AS_INSTANCE_OF, cls)


def _emit_task(
    kb: KnowledgeBase,
    spec: TaskSpec,
    task: Iri,
    layer_cls: Iri | None,
    iris: dict[str, Iri],
    *,
    template_names: bool,
) -> None:
    type_node(kb, task, (TASK_DESCRIPTION,), layer_cls)
    for (edge, cls, _, suffix, templated), refs in zip(_TASK_ROWS, _row_refs(spec)):
        tail = "_template" if templated and template_names else ""
        for i, ref in enumerate(refs, start=1):
            nth = "" if i == 1 else f"_{i}"
            node = kb.mint_iri("ex", f"{spec.name}{suffix}{nth}{tail}")
            type_node(kb, node, (cls,), layer_cls)
            kb.assert_property(task, edge, node)
            if cls == TASK_OPERATOR:
                kb.assert_membership(iris[ref.target], ACTION)
            _emit_ref(kb, node, ref, layer_cls, iris)


def _emit_behaviour(kb: KnowledgeBase, spec: BehaviourSpec, layer: LayerTag) -> Iri:
    _check_behaviour_spec(spec)
    layer_cls = layer.class_iri
    template_names = layer is LayerTag.TEMPLATE
    # every name is minted and every reference resolved before the first
    # write, so a bad one leaves the graph as it was; task element names
    # only add suffixes
    root = kb.mint_iri("ex", spec.name)
    goal_nodes = {goal.name: kb.mint_iri("ex", goal.name) for goal in spec.goals}
    task_nodes = {
        goal.name: {task.name: kb.mint_iri("ex", task.name) for task in goal.tasks}
        for goal in spec.goals
    }
    iris = _resolve_refs(kb, (task for goal in spec.goals for task in goal.tasks))
    type_node(kb, root, (BEHAVIOUR,), layer_cls)
    for goal in spec.goals:
        node = goal_nodes[goal.name]
        type_node(kb, node, (GOAL_DESCRIPTION,), layer_cls)
        kb.assert_property(root, CONSISTS_OF_GOAL, node)
        for task_spec in goal.tasks:
            task = task_nodes[goal.name][task_spec.name]
            _emit_task(
                kb, task_spec, task, layer_cls, iris, template_names=template_names
            )
            kb.assert_property(node, CONSISTS_OF_TASK, task)
    # dependency edges once every node exists
    for goal in spec.goals:
        for dep in goal.depends_on:
            kb.assert_property(goal_nodes[goal.name], DEPENDS_ON, goal_nodes[dep])
        for task_spec in goal.tasks:
            for dep in task_spec.depends_on:
                kb.assert_property(
                    task_nodes[goal.name][task_spec.name],
                    DEPENDS_ON,
                    task_nodes[goal.name][dep],
                )
    return root


def build_template(kb: KnowledgeBase, spec: BehaviourSpec) -> Iri:
    """Emit a behaviour template (everything tagged as template layer)."""
    return _emit_behaviour(kb, spec, LayerTag.TEMPLATE)


def build_plan(kb: KnowledgeBase, spec: BehaviourSpec) -> Iri:
    """Emit a plan: behaviour-shaped, tagged as planning layer."""
    return _emit_behaviour(kb, spec, LayerTag.PLANNING)


def derive_behaviour(kb: KnowledgeBase, template_root: Iri, agent: Iri) -> Iri:
    """Clone a template into the behaviour layer and hand it to an agent.

    Every clone overloads its source through the subproperty matching its
    class, and the agent is linked with hasBehaviour.
    """
    if not is_root(kb, template_root, BEHAVIOUR, LayerTag.TEMPLATE):
        raise NotATemplate(template_root)
    if not kb.has_class(agent, AGENT):
        raise MissingAgent(agent)
    mapping = clone_tree(
        kb, tree_rows(kb, template_root), LayerTag.BEHAVIOUR, CLASS_TO_OVERLOAD,
        from_clone=True,
    )
    kb.assert_property(agent, HAS_BEHAVIOUR, mapping[template_root])
    return mapping[template_root]


def pair_trees(
    kb: KnowledgeBase, left_root: Iri, right_root: Iri
) -> dict[Iri, Iri]:
    """Positional pairing of two behaviour-shaped trees: their walks,
    zipped.

    Each pair must share its tree class and its fan-out under every
    child predicate, and the walks their length; any shape difference
    raises StructureMismatch.
    """
    return {left: right for (left, _, _), right in _paired_rows(kb, left_root, right_root)}


def _paired_rows(
    kb: KnowledgeBase, left_root: Iri, right_root: Iri
) -> list[tuple[TreeRow, Iri]]:
    """``pair_trees``' pairs, each left node with its ``tree_rows`` row."""
    left_rows = tree_rows(kb, left_root, CHILD_RANK)
    right_rows = tree_rows(kb, right_root, CHILD_RANK)
    for (left, left_rec, left_edges), (right, right_rec, right_edges) in zip(
        left_rows, right_rows
    ):
        if tree_class(left_rec) != tree_class(right_rec):
            raise StructureMismatch(left, right, "node classes differ")
        lf, rf = _fan_out(left_edges), _fan_out(right_edges)
        for pred in CHILD_RANK:
            if lf[pred] != rf[pred]:
                raise StructureMismatch(
                    left,
                    right,
                    f"{pred.local} fan-out differs ({lf[pred]} vs {rf[pred]})",
                )
    if len(left_rows) != len(right_rows):
        raise StructureMismatch(
            left_root,
            right_root,
            f"tree sizes differ ({len(left_rows)} vs {len(right_rows)})",
        )
    return [(row, right) for row, (right, _, _) in zip(left_rows, right_rows)]


def _fan_out(edges: list[Assertion]) -> Counter[Iri]:
    """A node's tree children, from its child edges, counted by child
    predicate."""
    return Counter(a.predicate for a in edges if isinstance(a.object, Iri))


def submit_plan(kb: KnowledgeBase, plan_root: Iri, behaviour_root: Iri) -> None:
    """Submit a plan to a structurally matching behaviour.

    Emits one submittedTo-family edge per paired node, the member that
    the plan node's tree class names, in one batch in walk order; a
    node with no tree class gets none.
    """
    if not is_root(kb, plan_root, BEHAVIOUR, LayerTag.PLANNING):
        raise LayerError(plan_root, "planning-layer behaviour root")
    if not is_root(kb, behaviour_root, BEHAVIOUR, LayerTag.BEHAVIOUR):
        raise LayerError(behaviour_root, "behaviour-layer behaviour root")
    links = []
    for (plan, rec, _), behaviour in _paired_rows(kb, plan_root, behaviour_root):
        cls = tree_class(rec)
        if cls is not None:
            links.append((plan, CLASS_TO_SUBMITTED[cls], behaviour))
    kb.load(links)


# ---------------------------------------------------------------------------
# Processes and events
# ---------------------------------------------------------------------------


def build_process(kb: KnowledgeBase, spec: ProcessSpec) -> Iri:
    """Emit a process: ordered procedures, each a chain of states whose
    plans are built inline and wired up with isDescribedBy.  The whole
    spec is checked before the first write, every name minted and every
    reference resolved; a name that stands for two kinds of node
    (process, procedure, state, plan, goal, task, event) is refused, as
    they would be one IRI."""
    where = spec.path or spec.name
    if not spec.procedures:
        raise SpecInvalid(
            f"{where}.procedures", "a process needs at least one procedure"
        )
    root = kb.mint_iri("ex", spec.name)
    chains: dict[Iri, list[Iri]] = {}  # each procedure's states
    seen: set[Iri] = set()
    for i, proc_spec in enumerate(spec.procedures):
        if not proc_spec.states:
            raise SpecInvalid(
                f"{where}.procedures[{i}].states",
                "a procedure needs at least one state",
            )
        proc = kb.mint_iri("ex", proc_spec.name)
        # a second procedure of that name would merge into the first
        if proc in chains or kb.has_class(proc, PROCEDURE):
            raise SpecInvalid(f"{where}.procedures", "duplicate names")
        chains[proc] = [kb.mint_iri("ex", s.name) for s in proc_spec.states]
        for state in chains[proc]:
            # a state at two positions would carry both positions' classes
            if state in seen or any(
                kb.has_class(state, cls) for cls in PROCEDURE_STATE_CLASSES
            ):
                raise SpecInvalid(f"{where}.procedures[{i}].states", "duplicate names")
            seen.add(state)
        for state_spec in proc_spec.states:
            _check_behaviour_spec(state_spec.plan)
            _resolve_refs(
                kb,
                [task for goal in state_spec.plan.goals for task in goal.tasks]
                + [event.action for event in state_spec.events],
            )
    # one name for two kinds of node would merge them into one node
    kinds: dict[Iri, tuple[str, str]] = {}
    for name, kind, path in _process_names(spec, where):
        first, at = kinds.setdefault(kb.mint_iri("ex", name), (kind, path))
        if first != kind:
            raise SpecInvalid(path, f"{name!r} already names the {first} at {at}")

    planning = LayerTag.PLANNING.class_iri
    type_node(kb, root, (PROCESS,), planning)
    for (proc, states), proc_spec in zip(chains.items(), spec.procedures):
        type_node(kb, proc, (PROCEDURE,), planning)
        last = len(states) - 1
        for j, state in enumerate(states):
            type_node(kb, state, state_classes(j, last), planning)
        link_states(kb, proc, states)
        for state, state_spec in zip(states, proc_spec.states):
            plan_root = build_plan(kb, state_spec.plan)
            kb.assert_property(state, IS_DESCRIBED_BY, plan_root)
            for event_spec in state_spec.events:
                attach_event(kb, state, event_spec)
    link_procedures(kb, root, list(chains))
    return root


def _process_names(spec: ProcessSpec, where: str) -> Iterator[tuple[str, str, str]]:
    """``(name, kind, path)`` for every node the process spec names, in
    document order; actions are tasks."""
    yield spec.name, "process", where
    for i, proc in enumerate(spec.procedures):
        at = f"{where}.procedures[{i}]"
        yield proc.name, "procedure", at
        for j, state in enumerate(proc.states):
            at_state = f"{at}.states[{j}]"
            yield state.name, "state", at_state
            yield state.plan.name, "plan", f"{at_state}.plan"
            for k, goal in enumerate(state.plan.goals):
                at_goal = f"{at_state}.plan.goals[{k}]"
                yield goal.name, "goal", at_goal
                for m, task in enumerate(goal.tasks):
                    yield task.name, "task", f"{at_goal}.tasks[{m}]"
            for k, event in enumerate(state.events):
                yield event.name, "event", f"{at_state}.events[{k}]"
                yield event.action.name, "task", f"{at_state}.events[{k}].action"


def attach_event(kb: KnowledgeBase, state: Iri, spec: EventSpec) -> Iri:
    """Attach an event (with its task-shaped action) to a procedure state.

    The event inherits the state's layer tag.
    """
    rec = kb.entity(state)
    if rec is None or not PROCEDURE_STATE_CLASSES.intersection(rec.memberships):
        raise NotAProcedureState(state)
    layer = rec.layer
    event = kb.mint_iri("ex", spec.name)
    action = kb.mint_iri("ex", spec.action.name)  # all before the first write
    iris = _resolve_refs(kb, (spec.action,))
    layer_cls = layer.class_iri if layer is not None else None
    type_node(kb, event, (EVENT,), layer_cls)
    _emit_task(kb, spec.action, action, layer_cls, iris, template_names=False)
    kb.assert_property(state, TRIGGERS_EVENT, event)
    kb.assert_property(event, EVENT_DESCRIBED_BY_ACTION, action)
    if spec.kind is not None:
        kb.assert_property(event, HAS_EVENT_KIND, spec.kind)
    if spec.duration is not None:
        kb.assert_property(event, HAS_EVENT_DURATION, spec.duration)
    if spec.window is not None:
        kb.assert_property(event, HAS_EVENT_WINDOW, spec.window)
    return event


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------


def grant_role(
    kb: KnowledgeBase,
    agent: Iri,
    role_type: Iri,
    behaviours: list[Iri],
) -> Iri:
    """Mint a fresh role of ``role_type``, played by ``agent`` and
    providing each behaviour.

    The role type doubles as a class for the role individual and as an
    individual typed RoleType.
    """
    for behaviour in behaviours:
        if not is_root(kb, behaviour, BEHAVIOUR, LayerTag.BEHAVIOUR):
            raise LayerError(behaviour, "behaviour-layer behaviour root")
    if not kb.has_class(agent, AGENT):
        raise MissingAgent(agent)
    kb.assert_membership(role_type, ROLE_TYPE)
    role = kb.fresh_iri(role_type, "__role__")
    kb.assert_membership(role, ROLE)
    kb.assert_membership(role, role_type)
    kb.assert_property(agent, PLAY_ROLE, role)
    for behaviour in behaviours:
        kb.assert_property(role, PROVIDES_BEHAVIOUR, behaviour)
    return role


def deprecate_role(kb: KnowledgeBase, role: Iri) -> None:
    """Mark a role deprecated.  Idempotent; never removed."""
    if not kb.has_class(role, ROLE):
        raise NotARole(role)
    kb.assert_membership(role, DEPRECATED_THING)

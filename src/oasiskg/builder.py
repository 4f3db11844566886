"""Graph construction: templates, behaviours, plans, processes, roles.

Naming conventions (all deterministic):

* task elements are minted under the task name: ``<task>_operator``,
  ``<task>_operator_argument``, ``<task>_object``, ``<task>_input``,
  ``<task>_output``; second and later parameters are numbered from 2
  (``<task>_input_2``); in the template layer object and parameter nodes
  additionally carry a ``_template`` suffix;
* layer clones append ``__<layer>__<n>`` to the source IRI, where ``n``
  comes from the knowledge base's clone counter;
* role individuals append ``__role__<n>`` to the role type IRI.

Walking, cloning, ordering, capability queries and the layer rules
(``link_states``, ``link_pairs``, ``is_root``) live in ``trees``; they
are bound here too, so ``builder.clone_tree`` and the rest keep working.
"""

from __future__ import annotations

from collections import deque

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
from .terms import Iri, ModelError
from .trees import (  # noqa: F401 - the tree queries are part of this module's API
    CapabilityKind,
    CapabilitySource,
    check_capability,
    clone_node,
    clone_tree,
    depth_first,
    deprecated_role_providing,
    is_root,
    link_pairs,
    link_states,
    plan_tasks,
    tree_class,
    walk_tree,
)
from .vocab import (
    ACTION,
    AGENT,
    BEHAVIOUR,
    CHILD_PREDICATES,
    CLASS_TO_OVERLOAD,
    CLASS_TO_SUBMITTED,
    CONSISTS_OF_GOAL,
    CONSISTS_OF_PROCEDURE,
    CONSISTS_OF_TASK,
    DEPENDS_ON,
    DEPRECATED_THING,
    EVENT,
    EVENT_DESCRIBED_BY_ACTION,
    FINAL_STATE,
    GOAL_DESCRIPTION,
    HAS_BEHAVIOUR,
    HAS_EVENT_DURATION,
    HAS_EVENT_KIND,
    HAS_EVENT_WINDOW,
    HAS_NEXT_PROCEDURE,
    HAS_TASK_INPUT_PARAMETER,
    HAS_TASK_OBJECT,
    HAS_TASK_OPERATOR,
    HAS_TASK_OPERATOR_ARGUMENT,
    HAS_TASK_OUTPUT_PARAMETER,
    INITIAL_STATE,
    IS_DESCRIBED_BY,
    LayerTag,
    NON_TERMINATING_STATE,
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


def _emit_ref(
    kb: KnowledgeBase,
    node: Iri,
    ref: Ref,
    layer_cls: Iri | None,
    *,
    as_action: bool = False,
) -> None:
    target = kb.resolve(ref.target)
    kb.ensure_entity(target)
    if as_action:
        kb.assert_membership(target, ACTION)
    if ref.mode is RefMode.EXACT:
        kb.assert_property(node, REFERS_EXACTLY_TO, target)
        return
    # a new individual is introduced in the layer under construction
    if layer_cls is not None:
        kb.assert_membership(target, layer_cls)
    kb.assert_property(node, REFERS_AS_NEW_TO, target)
    for name in ref.instance_of:
        cls = kb.resolve(name)
        kb.declare_class(cls)
        kb.assert_membership(target, cls)
        kb.assert_property(target, REFERS_AS_INSTANCE_OF, cls)


def _emit_task(
    kb: KnowledgeBase,
    spec: TaskSpec,
    layer_cls: Iri | None,
    *,
    template_names: bool,
) -> Iri:
    def typed(node: Iri, cls: Iri) -> None:
        kb.assert_membership(node, cls)
        if layer_cls is not None:
            kb.assert_membership(node, layer_cls)

    suffix = "_template" if template_names else ""
    task = kb.mint_iri("ex", spec.name)
    typed(task, TASK_DESCRIPTION)

    operator = kb.mint_iri("ex", f"{spec.name}_operator")
    typed(operator, TASK_OPERATOR)
    kb.assert_property(task, HAS_TASK_OPERATOR, operator)
    _emit_ref(kb, operator, spec.operator_action, layer_cls, as_action=True)

    if spec.operator_argument is not None:
        argument = kb.mint_iri("ex", f"{spec.name}_operator_argument")
        typed(argument, TASK_OPERATOR_ARGUMENT)
        kb.assert_property(task, HAS_TASK_OPERATOR_ARGUMENT, argument)
        _emit_ref(kb, argument, spec.operator_argument, layer_cls)

    if spec.obj is not None:
        obj = kb.mint_iri("ex", f"{spec.name}_object{suffix}")
        typed(obj, TASK_OBJECT)
        kb.assert_property(task, HAS_TASK_OBJECT, obj)
        _emit_ref(kb, obj, spec.obj, layer_cls)

    for kind, cls, pred, refs in (
        ("input", TASK_INPUT_PARAMETER, HAS_TASK_INPUT_PARAMETER, spec.inputs),
        ("output", TASK_OUTPUT_PARAMETER, HAS_TASK_OUTPUT_PARAMETER, spec.outputs),
    ):
        for i, ref in enumerate(refs, start=1):
            nth = "" if i == 1 else f"_{i}"
            param = kb.mint_iri("ex", f"{spec.name}_{kind}{nth}{suffix}")
            typed(param, cls)
            kb.assert_property(task, pred, param)
            _emit_ref(kb, param, ref, layer_cls)
    return task


def _emit_behaviour(kb: KnowledgeBase, spec: BehaviourSpec, layer: LayerTag) -> Iri:
    _check_behaviour_spec(spec)
    layer_cls = layer.class_iri
    template_names = layer is LayerTag.TEMPLATE
    root = kb.mint_iri("ex", spec.name)
    kb.assert_membership(root, BEHAVIOUR)
    kb.assert_membership(root, layer_cls)
    goal_nodes: dict[str, Iri] = {}
    task_nodes: dict[str, dict[str, Iri]] = {}
    for goal in spec.goals:
        node = kb.mint_iri("ex", goal.name)
        kb.assert_membership(node, GOAL_DESCRIPTION)
        kb.assert_membership(node, layer_cls)
        kb.assert_property(root, CONSISTS_OF_GOAL, node)
        goal_nodes[goal.name] = node
        task_nodes[goal.name] = {}
        for task_spec in goal.tasks:
            task = _emit_task(kb, task_spec, layer_cls, template_names=template_names)
            kb.assert_property(node, CONSISTS_OF_TASK, task)
            task_nodes[goal.name][task_spec.name] = task
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
    mapping = clone_tree(kb, template_root, LayerTag.BEHAVIOUR)
    overloads = {clone: source for source, clone in mapping.items()}
    link_pairs(kb, overloads, CLASS_TO_OVERLOAD)
    kb.assert_property(agent, HAS_BEHAVIOUR, mapping[template_root])
    return mapping[template_root]


def pair_trees(
    kb: KnowledgeBase, left_root: Iri, right_root: Iri
) -> dict[Iri, Iri]:
    """Positional pairing of two behaviour-shaped trees.

    Children are matched index by index within each child-predicate
    group; any shape difference raises StructureMismatch.
    """
    pairs: dict[Iri, Iri] = {}
    queue: deque[tuple[Iri, Iri]] = deque([(left_root, right_root)])
    while queue:
        left, right = queue.popleft()
        if tree_class(kb, left) != tree_class(kb, right):
            raise StructureMismatch(left, right, "node classes differ")
        pairs[left] = right
        for pred in CHILD_PREDICATES:
            lc = [o for o in kb.objects(left, pred) if isinstance(o, Iri)]
            rc = [o for o in kb.objects(right, pred) if isinstance(o, Iri)]
            if len(lc) != len(rc):
                raise StructureMismatch(
                    left,
                    right,
                    f"{pred.local} fan-out differs ({len(lc)} vs {len(rc)})",
                )
            queue.extend(zip(lc, rc))
    return pairs


def submit_plan(kb: KnowledgeBase, plan_root: Iri, behaviour_root: Iri) -> None:
    """Submit a plan to a structurally matching behaviour.

    Emits one submittedTo-family edge per paired node.
    """
    if not is_root(kb, plan_root, BEHAVIOUR, LayerTag.PLANNING):
        raise LayerError(plan_root, "planning-layer behaviour root")
    if not is_root(kb, behaviour_root, BEHAVIOUR, LayerTag.BEHAVIOUR):
        raise LayerError(behaviour_root, "behaviour-layer behaviour root")
    link_pairs(kb, pair_trees(kb, plan_root, behaviour_root), CLASS_TO_SUBMITTED)


# ---------------------------------------------------------------------------
# Processes and events
# ---------------------------------------------------------------------------


def build_process(kb: KnowledgeBase, spec: ProcessSpec) -> Iri:
    """Emit a process: ordered procedures, each a chain of states whose
    plans are built inline and wired up with isDescribedBy."""
    where = spec.path or spec.name
    if not spec.procedures:
        raise SpecInvalid(
            f"{where}.procedures", "a process needs at least one procedure"
        )
    root = kb.mint_iri("ex", spec.name)
    kb.assert_membership(root, PROCESS)
    kb.assert_membership(root, LayerTag.PLANNING.class_iri)
    previous_proc: Iri | None = None
    for i, proc_spec in enumerate(spec.procedures):
        if not proc_spec.states:
            raise SpecInvalid(
                f"{where}.procedures[{i}].states",
                "a procedure needs at least one state",
            )
        proc = kb.mint_iri("ex", proc_spec.name)
        # a second procedure of that name would merge into the first
        if kb.has_class(proc, PROCEDURE):
            raise SpecInvalid(f"{where}.procedures", "duplicate names")
        kb.assert_membership(proc, PROCEDURE)
        kb.assert_membership(proc, LayerTag.PLANNING.class_iri)
        kb.assert_property(root, CONSISTS_OF_PROCEDURE, proc)
        if previous_proc is not None:
            kb.assert_property(previous_proc, HAS_NEXT_PROCEDURE, proc)
        previous_proc = proc

        last = len(proc_spec.states) - 1
        states: list[Iri] = []
        for j, state_spec in enumerate(proc_spec.states):
            state = kb.mint_iri("ex", state_spec.name)
            # a state at two positions would carry both positions' classes
            if any(kb.has_class(state, cls) for cls in PROCEDURE_STATE_CLASSES):
                raise SpecInvalid(f"{where}.procedures[{i}].states", "duplicate names")
            if j == 0:
                kb.assert_membership(state, INITIAL_STATE)
            if j == last:
                kb.assert_membership(state, FINAL_STATE)
            if 0 < j < last:
                kb.assert_membership(state, NON_TERMINATING_STATE)
            kb.assert_membership(state, LayerTag.PLANNING.class_iri)
            states.append(state)
        link_states(kb, proc, states)
        for state, state_spec in zip(states, proc_spec.states):
            plan_root = build_plan(kb, state_spec.plan)
            kb.assert_property(state, IS_DESCRIBED_BY, plan_root)
            for event_spec in state_spec.events:
                attach_event(kb, state, event_spec)
    return root


def attach_event(kb: KnowledgeBase, state: Iri, spec: EventSpec) -> Iri:
    """Attach an event (with its task-shaped action) to a procedure state.

    The event inherits the state's layer tag.
    """
    rec = kb.entity(state)
    if rec is None or not PROCEDURE_STATE_CLASSES.intersection(rec.memberships):
        raise NotAProcedureState(state)
    layer = rec.layer
    event = kb.mint_iri("ex", spec.name)
    kb.assert_membership(event, EVENT)
    layer_cls = layer.class_iri if layer is not None else None
    if layer_cls is not None:
        kb.assert_membership(event, layer_cls)
    action = _emit_task(kb, spec.action, layer_cls, template_names=False)
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
    kb.declare_class(role_type)
    kb.assert_membership(role_type, ROLE_TYPE)
    role = Iri(f"{role_type.value}__role__{kb.next_clone_index()}")
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

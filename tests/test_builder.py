from __future__ import annotations

import random
import signal

import pytest

from oasiskg import (
    Assertion,
    BehaviourSpec,
    CapabilityKind,
    EventSpec,
    GoalSpec,
    Iri,
    KnowledgeBase,
    LayerTag,
    ProcedureSpec,
    ProcessSpec,
    Ref,
    StateSpec,
    TaskSpec,
    attach_event,
    build_plan,
    build_process,
    build_template,
    check_capability,
    declare_agent,
    deprecate_role,
    derive_behaviour,
    export_canonical,
    grant_role,
    import_turtle,
    submit_plan,
    validate,
)
from oasiskg.builder import (
    LayerError,
    MissingAgent,
    NotAProcedureState,
    NotARole,
    NotATemplate,
    StructureMismatch,
    _check_depends,
    pair_trees,
)
from oasiskg.trees import clone_tree, plan_tasks, tree_rows
from oasiskg.validator import Code, capability_gap
from oasiskg.specs import SpecInvalid
from oasiskg.terms import InvalidLocalName
from oasiskg import vocab

from conftest import random_behaviour_spec
from tree_oracle import tree_class, walk_tree


EX = "http://example.org/"


def ex(local: str) -> Iri:
    return Iri(EX + local)


def simple_spec(name: str, tasks_per_goal=(1,)) -> BehaviourSpec:
    goals = []
    for gi, n_tasks in enumerate(tasks_per_goal):
        tasks = tuple(
            TaskSpec(
                name=f"{name}_g{gi}_t{ti}",
                operator_action=Ref.exact("act"),
            )
            for ti in range(n_tasks)
        )
        goals.append(GoalSpec(name=f"{name}_g{gi}", tasks=tasks))
    return BehaviourSpec(name=name, goals=tuple(goals))


# ---------------------------------------------------------------------------
# Templates and plans
# ---------------------------------------------------------------------------


def test_template_tree_has_the_expected_nodes(kb, fig_template_spec):
    root = build_template(kb, fig_template_spec)
    assert root == ex("request_lock_behaviour_template")
    assert [n.value for n in walk_tree(kb, root)] == [
        EX + "request_lock_behaviour_template",
        EX + "request_lock_goal_template",
        EX + "request_lock_task",
        EX + "request_lock_task_operator",
        EX + "request_lock_task_operator_argument",
        EX + "request_lock_task_object_template",
        EX + "request_lock_task_output_template",
    ]
    for node in walk_tree(kb, root):
        assert kb.entity(node).layer is LayerTag.TEMPLATE


def test_template_reference_edges(kb, fig_template_spec):
    build_template(kb, fig_template_spec)
    op = ex("request_lock_task_operator")
    assert kb.objects(op, vocab.REFERS_EXACTLY_TO) == [ex("request")]
    # exact operator targets are typed as actions, nothing else
    assert kb.has_class(ex("request"), vocab.ACTION)
    assert kb.entity(ex("request")).layer is None
    # fresh outputs join the tree's layer and carry their declared class
    out = ex("request_lock_task_output_template")
    assert kb.objects(out, vocab.REFERS_AS_NEW_TO) == [ex("lock")]
    assert kb.entity(ex("lock")).layer is LayerTag.TEMPLATE
    assert kb.has_class(ex("lock"), ex("Lock"))
    assert kb.objects(ex("lock"), vocab.REFERS_AS_INSTANCE_OF) == [ex("Lock")]
    assert Assertion(ex("lock"), vocab.RDF_TYPE, ex("Lock")) in kb
    # the domain class itself is recorded, untyped
    assert kb.entity(ex("Lock")).memberships == {}


def test_plan_is_template_shaped_but_planning_tagged(kb, fig_template_spec):
    root = build_plan(kb, fig_template_spec)
    for node in walk_tree(kb, root):
        assert kb.entity(node).layer is LayerTag.PLANNING
    # the object node drops the template-only suffix
    assert ex("request_lock_task_object") in walk_tree(kb, root)


#: every assertion one full task writes, in order; ``{L}`` is the layer
#: class and ``{T}`` the template layer's name suffix
WRITE_ORDER = """
ex:b rdf:type oasis:Behaviour
ex:b rdf:type oasis:{L}
ex:g rdf:type oasis:GoalDescription
ex:g rdf:type oasis:{L}
ex:b oasis:consistsOfGoalDescription ex:g
ex:t rdf:type oasis:TaskDescription
ex:t rdf:type oasis:{L}
ex:t_operator rdf:type oasis:TaskOperator
ex:t_operator rdf:type oasis:{L}
ex:t oasis:hasTaskOperator ex:t_operator
ex:act rdf:type oasis:Action
ex:t_operator oasis:refersExactlyTo ex:act
ex:t_operator_argument rdf:type oasis:TaskOperatorArgument
ex:t_operator_argument rdf:type oasis:{L}
ex:t oasis:hasTaskOperatorArgument ex:t_operator_argument
ex:t_operator_argument oasis:refersExactlyTo ex:arg
ex:t_object{T} rdf:type oasis:TaskObject
ex:t_object{T} rdf:type oasis:{L}
ex:t oasis:hasTaskObject ex:t_object{T}
ex:thing rdf:type oasis:{L}
ex:t_object{T} oasis:refersAsNewTo ex:thing
ex:thing rdf:type ex:Thing
ex:thing oasis:refersAsInstanceOf ex:Thing
ex:t_input{T} rdf:type oasis:TaskInputParameter
ex:t_input{T} rdf:type oasis:{L}
ex:t oasis:hasTaskInputParameter ex:t_input{T}
ex:t_input{T} oasis:refersExactlyTo ex:in1
ex:t_input_2{T} rdf:type oasis:TaskInputParameter
ex:t_input_2{T} rdf:type oasis:{L}
ex:t oasis:hasTaskInputParameter ex:t_input_2{T}
ex:t_input_2{T} oasis:refersExactlyTo ex:in2
ex:t_input_3{T} rdf:type oasis:TaskInputParameter
ex:t_input_3{T} rdf:type oasis:{L}
ex:t oasis:hasTaskInputParameter ex:t_input_3{T}
ex:t_input_3{T} oasis:refersExactlyTo ex:in3
ex:t_output{T} rdf:type oasis:TaskOutputParameter
ex:t_output{T} rdf:type oasis:{L}
ex:t oasis:hasTaskOutputParameter ex:t_output{T}
ex:out1 rdf:type oasis:{L}
ex:t_output{T} oasis:refersAsNewTo ex:out1
ex:t_output_2{T} rdf:type oasis:TaskOutputParameter
ex:t_output_2{T} rdf:type oasis:{L}
ex:t oasis:hasTaskOutputParameter ex:t_output_2{T}
ex:out2 rdf:type oasis:{L}
ex:t_output_2{T} oasis:refersAsNewTo ex:out2
ex:t_output_3{T} rdf:type oasis:TaskOutputParameter
ex:t_output_3{T} rdf:type oasis:{L}
ex:t oasis:hasTaskOutputParameter ex:t_output_3{T}
ex:out3 rdf:type oasis:{L}
ex:t_output_3{T} oasis:refersAsNewTo ex:out3
ex:g oasis:consistsOfTaskDescription ex:t
"""


@pytest.mark.parametrize(
    "build, layer, suffix",
    [(build_template, "TemplateThing", "_template"), (build_plan, "PlanningThing", "")],
    ids=["template", "plan"],
)
def test_one_task_writes_its_elements_in_shape_order(kb, build, layer, suffix):
    """Each element's node, then its edge from the task, then its
    reference; elements in the tree shape's order, later parameters
    numbered from 2.  Clone numbers follow this order."""
    task = TaskSpec(
        "t",
        operator_action=Ref.exact("act"),
        operator_argument=Ref.exact("arg"),
        obj=Ref.new("thing", instance_of=("Thing",)),
        inputs=tuple(Ref.exact(f"in{i}") for i in (1, 2, 3)),
        outputs=tuple(Ref.new(f"out{i}") for i in (1, 2, 3)),
    )
    build(kb, BehaviourSpec("b", (GoalSpec("g", (task,)),)))

    def short(term: Iri) -> str:
        value = term.value
        for base, prefix in ((vocab.OASIS, "oasis:"), (vocab.RDF, "rdf:"), (EX, "ex:")):
            value = value.replace(base, prefix)
        return value

    got = [" ".join(short(t) for t in (a.subject, a.predicate, a.object)) for a in kb.assertions]
    assert got == WRITE_ORDER.format(L=layer, T=suffix).split("\n")[1:-1]


def test_tree_class_identifies_each_node(kb, fig_template_spec):
    root = build_template(kb, fig_template_spec)
    classes = [tree_class(kb, n) for n in walk_tree(kb, root)]
    assert classes == [
        vocab.BEHAVIOUR,
        vocab.GOAL_DESCRIPTION,
        vocab.TASK_DESCRIPTION,
        vocab.TASK_OPERATOR,
        vocab.TASK_OPERATOR_ARGUMENT,
        vocab.TASK_OBJECT,
        vocab.TASK_OUTPUT_PARAMETER,
    ]


def test_multiple_inputs_get_numbered_names(kb):
    spec = BehaviourSpec(
        name="multi",
        goals=(
            GoalSpec(
                name="multi_g",
                tasks=(
                    TaskSpec(
                        name="multi_t",
                        operator_action=Ref.exact("act"),
                        inputs=(Ref.exact("x"), Ref.exact("y"), Ref.exact("z")),
                    ),
                ),
            ),
        ),
    )
    root = build_plan(kb, spec)
    nodes = {n.value.rsplit("/", 1)[-1] for n in walk_tree(kb, root)}
    assert {"multi_t_input", "multi_t_input_2", "multi_t_input_3"} <= nodes


def test_depends_on_edges_are_emitted(kb):
    spec = BehaviourSpec(
        name="dep",
        goals=(
            GoalSpec(
                name="dep_g",
                tasks=(
                    TaskSpec(name="dep_t1", operator_action=Ref.exact("act")),
                    TaskSpec(
                        name="dep_t2",
                        operator_action=Ref.exact("act"),
                        depends_on=("dep_t1",),
                    ),
                ),
            ),
        ),
    )
    build_plan(kb, spec)
    assert Assertion(ex("dep_t2"), vocab.DEPENDS_ON, ex("dep_t1")) in kb


# ---------------------------------------------------------------------------
# Spec sanity checks
# ---------------------------------------------------------------------------


def test_behaviour_spec_needs_goals_and_tasks(kb):
    with pytest.raises(SpecInvalid):
        build_template(kb, BehaviourSpec(name="empty", goals=()))
    with pytest.raises(SpecInvalid):
        build_template(
            kb, BehaviourSpec(name="bare", goals=(GoalSpec(name="g", tasks=()),))
        )


def test_duplicate_task_names_are_rejected(kb):
    spec = BehaviourSpec(
        name="dup",
        goals=(
            GoalSpec(
                name="dup_g",
                tasks=(
                    TaskSpec(name="same", operator_action=Ref.exact("act")),
                    TaskSpec(name="same", operator_action=Ref.exact("act")),
                ),
            ),
        ),
    )
    with pytest.raises(SpecInvalid):
        build_template(kb, spec)


def test_unknown_dependency_is_rejected(kb):
    spec = BehaviourSpec(
        name="ghost",
        goals=(
            GoalSpec(
                name="ghost_g",
                tasks=(
                    TaskSpec(
                        name="t",
                        operator_action=Ref.exact("act"),
                        depends_on=("nowhere",),
                    ),
                ),
            ),
        ),
    )
    with pytest.raises(SpecInvalid):
        build_template(kb, spec)


def test_dependency_cycles_are_rejected(kb):
    spec = BehaviourSpec(
        name="loop",
        goals=(
            GoalSpec(
                name="loop_g",
                tasks=(
                    TaskSpec(
                        name="t1", operator_action=Ref.exact("act"), depends_on=("t2",)
                    ),
                    TaskSpec(
                        name="t2", operator_action=Ref.exact("act"), depends_on=("t1",)
                    ),
                ),
            ),
        ),
    )
    with pytest.raises(SpecInvalid):
        build_template(kb, spec)


def chained_tasks(count: int, back_to: int | None = None) -> tuple[TaskSpec, ...]:
    """``t0`` depends on ``t1``, ``t1`` on ``t2`` ... and the last task on
    nothing, or on ``t<back_to>`` to close a cycle."""
    last = () if back_to is None else (f"t{back_to}",)
    return tuple(
        TaskSpec(
            name=f"t{i}",
            operator_action=Ref.exact("act"),
            depends_on=(f"t{i + 1}",) if i + 1 < count else last,
        )
        for i in range(count)
    )


def test_long_depends_on_chains_build_without_recursion(kb):
    goal = GoalSpec(name="long_g", tasks=chained_tasks(1100))
    build_template(kb, BehaviourSpec(name="long", goals=(goal,)))
    assert len(kb.query(predicate=vocab.DEPENDS_ON)) == 1099
    goals = tuple(
        GoalSpec(
            name=f"g{i}",
            tasks=(TaskSpec(name=f"g{i}_t", operator_action=Ref.exact("act")),),
            depends_on=(f"g{i + 1}",) if i + 1 < 1100 else (),
        )
        for i in range(1100)
    )
    build_plan(kb, BehaviourSpec(name="long_goals", goals=goals))
    assert len(kb.query(predicate=vocab.DEPENDS_ON)) == 2198
    assert validate(kb) == []


def test_long_dependency_cycle_names_the_first_name_met_again(kb):
    goal = GoalSpec(name="loop_g", tasks=chained_tasks(1100, back_to=500))
    with pytest.raises(SpecInvalid) as err:
        build_template(kb, BehaviourSpec(name="loop", goals=(goal,)))
    assert err.value.detail == "dependency cycle through 't500'"


def _recursive_cycle_name(names: list[str], deps: dict[str, tuple[str, ...]]):
    """The recursive depth-first check the builder once ran: the name it
    reports in "dependency cycle through ...", or None."""
    state: dict[str, int] = {}

    class Found(Exception):
        pass

    def visit(name: str) -> None:
        if state.get(name) == 1:
            raise Found(name)
        if state.get(name) == 2:
            return
        state[name] = 1
        for dep in deps.get(name, ()):
            visit(dep)
        state[name] = 2

    try:
        for name in names:
            visit(name)
    except Found as found:
        return found.args[0]
    return None


def test_dependency_check_matches_the_recursive_walk_on_seeded_graphs():
    rng = random.Random(7)
    cycles = 0
    for _ in range(600):
        names = [f"n{i}" for i in range(rng.randint(1, 8))]
        deps = {
            name: tuple(rng.sample(names, rng.randint(0, min(3, len(names)))))
            for name in names
            if rng.random() < 0.7
        }
        expected = _recursive_cycle_name(names, deps)
        try:
            _check_depends(names, deps, "spec")
            got = None
        except SpecInvalid as err:
            got = err.detail
        if expected is None:
            assert got is None, (names, deps)
        else:
            cycles += 1
            assert got == f"dependency cycle through {expected!r}", (names, deps)
    assert 100 <= cycles <= 500


# ---------------------------------------------------------------------------
# Cloning and derivation
# ---------------------------------------------------------------------------


CHILD_EDGES = frozenset(vocab.CHILD_PREDICATES)


def tree_form(kb: KnowledgeBase, node: Iri, root: bool = True) -> tuple:
    """Canonical form of the rooted labelled tree under ``node`` (Aho,
    Hopcroft & Ullman, 1974, tree isomorphism): the node's class, then
    its sorted (child predicate, child form) pairs.  Two trees are
    isomorphic exactly when their roots' forms are equal.  The form
    assumes a tree, so each node is first checked to have exactly one
    parent, the root none; read straight off the store's edges."""
    parents = [a for a in kb.in_edges(node) if a.predicate in CHILD_EDGES]
    assert len(parents) == (0 if root else 1), (node, parents)
    cls = tree_class(kb, node)
    children = [a for a in kb.edges(node) if a.predicate in CHILD_EDGES]
    return (
        cls.value if cls else "",
        tuple(sorted((a.predicate.value, tree_form(kb, a.object, False)) for a in children)),
    )


def assert_isomorphic(kb: KnowledgeBase, left: Iri, right: Iri) -> None:
    assert tree_form(kb, left) == tree_form(kb, right)


def test_clone_tree_copies_structure_and_shares_references(kb, fig_template_spec):
    root = build_template(kb, fig_template_spec)
    mapping = clone_tree(kb, tree_rows(kb, root), LayerTag.PLANNING, vocab.CLASS_TO_OVERLOAD)
    assert set(mapping) == set(walk_tree(kb, root))
    clone_root = mapping[root]
    assert clone_root.value.startswith(root.value + "__planning__")
    assert_isomorphic(kb, root, clone_root)
    for source, clone in mapping.items():
        assert kb.entity(clone).layer is LayerTag.PLANNING
        assert tree_class(kb, clone) == tree_class(kb, source)
    # reference targets are shared, not cloned
    op_clone = mapping[ex("request_lock_task_operator")]
    assert kb.objects(op_clone, vocab.REFERS_EXACTLY_TO) == [ex("request")]


def test_derive_behaviour_builds_an_isomorphic_copy(kb, fig_template_spec):
    template = build_template(kb, fig_template_spec)
    agent = declare_agent(kb, ex("alice"))
    behaviour = derive_behaviour(kb, template, agent)
    assert_isomorphic(kb, template, behaviour)
    for node in walk_tree(kb, behaviour):
        assert kb.entity(node).layer is LayerTag.BEHAVIOUR
    assert Assertion(agent, vocab.HAS_BEHAVIOUR, behaviour) in kb


def test_derive_behaviour_links_every_node_to_its_template(kb, fig_template_spec):
    template = build_template(kb, fig_template_spec)
    agent = declare_agent(kb, ex("alice"))
    behaviour = derive_behaviour(kb, template, agent)
    overload_edges = kb.query(predicate=vocab.OVERLOADS, entail=True)
    assert len(overload_edges) == 7  # one per tree node
    sources = {a.subject for a in overload_edges}
    targets = {a.object for a in overload_edges}
    assert sources == set(walk_tree(kb, behaviour))
    assert targets == set(walk_tree(kb, template))
    # each edge uses the member matching its endpoint class
    for edge in overload_edges:
        cls = tree_class(kb, edge.subject)
        assert edge.predicate == vocab.CLASS_TO_OVERLOAD[cls]


def test_derive_behaviour_rejects_non_templates(kb, fig_template_spec):
    agent = declare_agent(kb, ex("alice"))
    plan = build_plan(kb, fig_template_spec)
    with pytest.raises(NotATemplate):
        derive_behaviour(kb, plan, agent)
    with pytest.raises(NotATemplate):
        derive_behaviour(kb, ex("nothing"), agent)


def test_derive_behaviour_requires_a_declared_agent(kb, fig_template_spec):
    template = build_template(kb, fig_template_spec)
    with pytest.raises(MissingAgent):
        derive_behaviour(kb, template, ex("stranger"))


def test_derivation_is_isomorphic_for_random_specs(kb):
    rng = random.Random(411)
    for i in range(10):
        spec = random_behaviour_spec(rng, f"r{i}")
        spec = BehaviourSpec(name=spec.name + "_template", goals=spec.goals)
        template = build_template(kb, spec)
        agent = declare_agent(kb, ex(f"agent{i}"))
        behaviour = derive_behaviour(kb, template, agent)
        assert_isomorphic(kb, template, behaviour)
        n = len(walk_tree(kb, template))
        edges = [
            a
            for a in kb.query(predicate=vocab.OVERLOADS, entail=True)
            if a.subject in set(walk_tree(kb, behaviour))
        ]
        assert len(edges) == n


def test_a_graph_read_back_mints_names_it_does_not_hold(kb, fig_template_spec):
    """A fresh store's clone counter starts over, so a derivation or a
    role grant on a graph read back skips the names the graph holds."""
    template = build_template(kb, fig_template_spec)
    first = derive_behaviour(kb, template, declare_agent(kb, ex("alice")))
    first_role = grant_role(kb, declare_agent(kb, ex("bob")), ex("Consumer"), [first])
    again = KnowledgeBase()
    import_turtle(again, export_canonical(kb))
    second = derive_behaviour(again, template, ex("bob"))
    second_role = grant_role(again, ex("alice"), ex("Consumer"), [second])
    assert set(walk_tree(again, first)).isdisjoint(walk_tree(again, second))
    assert_isomorphic(again, template, second)
    assert again.objects(ex("bob"), vocab.HAS_BEHAVIOUR) == [second]
    assert again.objects(ex("alice"), vocab.PLAY_ROLE) == [second_role]
    assert second_role != first_role
    assert validate(again) == []


# ---------------------------------------------------------------------------
# Task ordering
# ---------------------------------------------------------------------------


def test_plan_tasks_respects_dependencies_with_stable_ties(kb):
    spec = BehaviourSpec(
        name="order",
        goals=(
            GoalSpec(
                name="order_g",
                tasks=(
                    TaskSpec(
                        name="t_b",
                        operator_action=Ref.exact("act"),
                        depends_on=("t_a",),
                    ),
                    TaskSpec(name="t_a", operator_action=Ref.exact("act")),
                    TaskSpec(name="t_c", operator_action=Ref.exact("act")),
                ),
            ),
        ),
    )
    root = build_plan(kb, spec)
    names = [t.local for t in plan_tasks(kb, root)]
    assert names == ["t_a", "t_b", "t_c"]


def test_plan_tasks_walks_goals_in_order(kb):
    root = build_plan(kb, simple_spec("two", tasks_per_goal=(1, 2)))
    names = [t.local for t in plan_tasks(kb, root)]
    assert names == ["two_g0_t0", "two_g1_t0", "two_g1_t1"]


# ---------------------------------------------------------------------------
# Submission
# ---------------------------------------------------------------------------


def submit_scenario(kb, fig_template_spec):
    template = build_template(kb, fig_template_spec)
    agent = declare_agent(kb, ex("alice"))
    behaviour = derive_behaviour(kb, template, agent)
    task = fig_template_spec.goals[0].tasks[0]
    plan_spec = BehaviourSpec(
        name="request_lock_plan",
        goals=(
            GoalSpec(
                name="request_lock_plan_goal",
                tasks=(
                    TaskSpec(
                        name="request_lock_plan_task",
                        operator_action=task.operator_action,
                        operator_argument=task.operator_argument,
                        obj=task.obj,
                        outputs=(Ref.exact("lock"),),
                    ),
                ),
            ),
        ),
    )
    plan = build_plan(kb, plan_spec)
    return template, agent, behaviour, plan


def test_submit_plan_mirrors_every_node(kb, fig_template_spec):
    _, _, behaviour, plan = submit_scenario(kb, fig_template_spec)
    submit_plan(kb, plan, behaviour)
    edges = kb.query(predicate=vocab.SUBMITTED_TO, entail=True)
    assert len(edges) == 7
    assert {a.subject for a in edges} == set(walk_tree(kb, plan))
    assert {a.object for a in edges} == set(walk_tree(kb, behaviour))
    for edge in edges:
        cls = tree_class(kb, edge.subject)
        assert edge.predicate == vocab.CLASS_TO_SUBMITTED[cls]


def test_submit_plan_checks_layers(kb, fig_template_spec):
    template, _, behaviour, plan = submit_scenario(kb, fig_template_spec)
    with pytest.raises(LayerError):
        submit_plan(kb, behaviour, behaviour)
    with pytest.raises(LayerError):
        submit_plan(kb, plan, template)


def test_submit_plan_rejects_shape_mismatches(kb, fig_template_spec):
    _, _, behaviour, _ = submit_scenario(kb, fig_template_spec)
    other = build_plan(kb, simple_spec("small"))
    with pytest.raises(StructureMismatch):
        submit_plan(kb, other, behaviour)


def test_pair_trees_matches_nodes_positionally(kb, fig_template_spec):
    template = build_template(kb, fig_template_spec)
    mapping = clone_tree(kb, tree_rows(kb, template), LayerTag.PLANNING, vocab.CLASS_TO_OVERLOAD)
    pairs = pair_trees(kb, mapping[template], template)
    assert dict(pairs) == {clone: src for src, clone in mapping.items()}


def _goal_trees(kb, shapes):
    """One behaviour per entry of ``shapes``: ``(root, {goal: tasks})``."""
    for root, goals in shapes:
        kb.assert_membership(root, vocab.BEHAVIOUR)
        for goal, tasks in goals.items():
            kb.assert_membership(goal, vocab.GOAL_DESCRIPTION)
            kb.assert_property(root, vocab.CONSISTS_OF_GOAL, goal)
            for task in tasks:
                kb.assert_membership(task, vocab.TASK_DESCRIPTION)
                kb.assert_property(goal, vocab.CONSISTS_OF_TASK, task)


def test_pair_trees_returns_on_a_child_edge_cycle(kb):
    a, b, ga, gb = (Iri(f"http://x/{n}") for n in ("a", "b", "ga", "gb"))
    _goal_trees(kb, ((a, {ga: ()}), (b, {gb: ()})))
    kb.assert_property(ga, vocab.CONSISTS_OF_GOAL, ga)
    kb.assert_property(gb, vocab.CONSISTS_OF_GOAL, gb)

    def hang(signum, frame):
        raise TimeoutError("pair_trees did not return")

    before = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        assert pair_trees(kb, a, b) == {a: b, ga: gb}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


def test_pair_trees_refuses_walks_of_different_length(kb):
    a, b, g1, g2, h1, h2, t, u1, u2 = (
        Iri(f"http://x/{n}") for n in "a b g1 g2 h1 h2 t u1 u2".split()
    )
    # t sits under both of a's goals, so a's walk meets it once
    _goal_trees(kb, ((a, {g1: (t,), g2: (t,)}), (b, {h1: (u1,), h2: (u2,)})))
    with pytest.raises(StructureMismatch, match=r"tree sizes differ \(4 vs 5\)"):
        pair_trees(kb, a, b)


# ---------------------------------------------------------------------------
# Processes, procedures, states, events
# ---------------------------------------------------------------------------


def three_state_process(name: str) -> ProcessSpec:
    return ProcessSpec(
        name=name,
        procedures=(
            ProcedureSpec(
                name=f"{name}_proc",
                states=tuple(
                    StateSpec(
                        name=f"{name}_s{i}",
                        plan=simple_spec(f"{name}_plan{i}"),
                    )
                    for i in (1, 2, 3)
                ),
            ),
        ),
    )


def test_build_process_types_and_chains_states(kb):
    root = build_process(kb, three_state_process("p"))
    assert kb.has_class(root, vocab.PROCESS)
    assert kb.entity(root).layer is LayerTag.PLANNING
    proc = kb.objects(root, vocab.CONSISTS_OF_PROCEDURE)[0]
    assert kb.has_class(proc, vocab.PROCEDURE)
    s1, s2, s3 = (ex(f"p_s{i}") for i in (1, 2, 3))
    assert kb.has_class(s1, vocab.INITIAL_STATE)
    assert kb.has_class(s2, vocab.NON_TERMINATING_STATE)
    assert kb.has_class(s3, vocab.FINAL_STATE)
    assert kb.objects(proc, vocab.PROC_CONSISTS_INITIAL) == [s1]
    assert kb.objects(proc, vocab.PROC_CONSISTS_NON_TERMINATING) == [s2]
    assert kb.objects(proc, vocab.PROC_CONSISTS_FINAL) == [s3]
    assert kb.entails(proc, vocab.PROC_CONSISTS_STATE, s2)
    assert kb.objects(s1, vocab.HAS_NEXT_NON_TERMINATING) == [s2]
    assert kb.objects(s2, vocab.HAS_FINAL_STATE) == [s3]
    # every state is described by a planning-layer plan
    for state in (s1, s2, s3):
        plans = kb.objects(state, vocab.IS_DESCRIBED_BY)
        assert len(plans) == 1
        assert kb.entity(plans[0]).layer is LayerTag.PLANNING


def test_build_process_refuses_a_state_name_already_used(kb):
    # a state at two chain positions would carry both positions' classes,
    # and two procedures of one name would merge into a self-looped one;
    # every check runs before the first write, so a refused spec leaves
    # the graph as it was
    def process(name, *procedures, proc_names=None, plan=None):
        names = proc_names or [f"{name}_p{i}" for i in range(len(procedures))]
        return ProcessSpec(
            name=name,
            procedures=tuple(
                ProcedureSpec(
                    name=proc_name,
                    states=tuple(
                        StateSpec(
                            name=state,
                            plan=plan or simple_spec(f"{name}_{i}_{state}"),
                        )
                        for state in states
                    ),
                )
                for i, (proc_name, states) in enumerate(zip(names, procedures))
            ),
        )

    build_process(kb, process("built", ("b",)))
    refused = [
        (
            process("across", ("s", "t"), ("u", "s", "v")),
            "across.procedures[1].states",
            "duplicate names",
        ),
        (process("again", ("b",)), "again.procedures[0].states", "duplicate names"),
        (
            process("twice", ("w",), ("x",), proc_names=("pp", "pp")),
            "twice.procedures",
            "duplicate names",
        ),
        (
            process("later", ("y",), proc_names=("built_p0",)),
            "later.procedures",
            "duplicate names",
        ),
        (
            process("hollow", ("h",), ()),
            "hollow.procedures[1].states",
            "a procedure needs at least one state",
        ),
        (
            process("aimless", ("a",), plan=BehaviourSpec(name="aimless_plan", goals=())),
            "aimless_plan.goals",
            "a behaviour needs at least one goal",
        ),
    ]
    for spec, path, detail in refused:
        before = (export_canonical(kb), len(kb.entities))
        with pytest.raises(SpecInvalid) as err:
            build_process(kb, spec)
        assert (err.value.path, err.value.detail) == (path, detail)
        assert (export_canonical(kb), len(kb.entities)) == before, spec.name
    assert Assertion(ex("pp"), vocab.HAS_NEXT_PROCEDURE, ex("pp")) not in kb


def one_state_process(
    proc="one_proc", state="one_s", plan="one_plan", goal="one_g", task="one_t", events=()
) -> ProcessSpec:
    tasks = (TaskSpec(name=task, operator_action=Ref.exact("act")),)
    plan_spec = BehaviourSpec(name=plan, goals=(GoalSpec(name=goal, tasks=tasks),))
    states = (StateSpec(name=state, plan=plan_spec, events=events),)
    return ProcessSpec(name="one", procedures=(ProcedureSpec(name=proc, states=states),))


def one_event(name="one_event", action="one_action") -> EventSpec:
    return EventSpec(name=name, action=TaskSpec(name=action, operator_action=Ref.exact("notify")))


def test_a_bad_name_is_refused_before_the_first_write(kb):
    # every goal, task, event and action name is minted before anything
    # is written, so an unusable one leaves the graph as it was
    build_process(kb, three_state_process("p"))
    state = ex("p_s1")
    plan = one_state_process().procedures[0].states[0].plan
    bad_task = one_state_process(task="bad name").procedures[0].states[0].plan
    bad_goal = one_state_process(goal="bad name").procedures[0].states[0].plan
    attempts = [
        lambda: build_template(kb, bad_task),
        lambda: build_plan(kb, bad_goal),
        lambda: build_template(kb, BehaviourSpec(name="bad name", goals=plan.goals)),
        lambda: build_process(kb, one_state_process(task="bad name")),
        lambda: build_process(kb, one_state_process(goal="bad name")),
        lambda: build_process(kb, one_state_process(events=(one_event(name="bad name"),))),
        lambda: build_process(kb, one_state_process(events=(one_event(action="bad name"),))),
        lambda: attach_event(kb, state, one_event(name="bad name")),
        lambda: attach_event(kb, state, one_event(action="bad name")),
    ]
    for i, attempt in enumerate(attempts):
        before = (export_canonical(kb), len(kb.entities))
        with pytest.raises(InvalidLocalName):
            attempt()
        assert (export_canonical(kb), len(kb.entities)) == before, i


BAD_REFERENCES = {
    "target": TaskSpec(name="t1", operator_action=Ref.exact("bad name")),
    "class": TaskSpec(
        name="t1",
        operator_action=Ref.exact("act"),
        inputs=(Ref.new("in", ("bad cls",)),),
    ),
}


@pytest.mark.parametrize("task", BAD_REFERENCES.values(), ids=BAD_REFERENCES)
def test_a_bad_reference_is_refused_before_the_first_write(task):
    # reference targets and instanceOf classes are resolved before
    # anything is written too, in plans and in event actions alike
    def process(plan, events=()):
        state = StateSpec(name="s1", plan=plan, events=events)
        return ProcessSpec(
            name="p1", procedures=(ProcedureSpec(name="pr1", states=(state,)),)
        )

    plan = BehaviourSpec(name="plan_x", goals=(GoalSpec(name="g1", tasks=(task,)),))
    good = one_state_process().procedures[0].states[0].plan
    event = EventSpec(name="e1", action=task)
    attempts = [
        lambda kb: build_template(kb, plan),
        lambda kb: build_plan(kb, plan),
        lambda kb: build_process(kb, process(plan)),
        lambda kb: build_process(kb, process(good, events=(event,))),
    ]
    for i, attempt in enumerate(attempts):
        kb = KnowledgeBase()
        with pytest.raises(InvalidLocalName):
            attempt(kb)
        assert (len(kb), len(kb.entities)) == (0, 0), i
    kb = KnowledgeBase()
    build_process(kb, process(good))
    before = (export_canonical(kb), len(kb.entities))
    with pytest.raises(InvalidLocalName):
        attach_event(kb, ex("s1"), event)
    assert (export_canonical(kb), len(kb.entities)) == before


def test_build_process_refuses_a_name_shared_across_kinds(kb):
    # a procedure, its state and the state's plan named alike would merge
    # into one node typed Procedure, both chain ends and Behaviour, and
    # validate would accept it
    at = "one.procedures[0].states[0]"
    refused = [
        (
            one_state_process("s", "s", "s"),
            at,
            "'s' already names the procedure at one.procedures[0]",
        ),
        (one_state_process(plan="one"), f"{at}.plan", "'one' already names the process at one"),
        (
            one_state_process(goal="one_s"),
            f"{at}.plan.goals[0]",
            f"'one_s' already names the state at {at}",
        ),
        (
            one_state_process(task="one_g"),
            f"{at}.plan.goals[0].tasks[0]",
            f"'one_g' already names the goal at {at}.plan.goals[0]",
        ),
        (
            one_state_process(events=(one_event(name="one_plan"),)),
            f"{at}.events[0]",
            f"'one_plan' already names the plan at {at}.plan",
        ),
        (
            one_state_process(events=(one_event(action="one_proc"),)),
            f"{at}.events[0].action",
            "'one_proc' already names the procedure at one.procedures[0]",
        ),
    ]
    for spec, path, detail in refused:
        before = (export_canonical(kb), len(kb.entities))
        with pytest.raises(SpecInvalid) as err:
            build_process(kb, spec)
        assert (err.value.path, err.value.detail) == (path, detail)
        assert (export_canonical(kb), len(kb.entities)) == before
    # one name for nodes of one kind is not refused: two states may share
    # a plan, and an event's action may share a plan task's name
    plan = one_state_process(task="one_action").procedures[0].states[0].plan
    twice = ProcessSpec(
        name="twice",
        procedures=(
            ProcedureSpec(
                name="twice_proc",
                states=(
                    StateSpec(name="twice_a", plan=plan),
                    StateSpec(name="twice_b", plan=plan, events=(one_event(),)),
                ),
            ),
        ),
    )
    build_process(kb, twice)
    assert kb.objects(ex("twice_a"), vocab.IS_DESCRIBED_BY) == [ex("one_plan")]
    assert kb.objects(ex("twice_b"), vocab.IS_DESCRIBED_BY) == [ex("one_plan")]


def test_single_state_procedure_is_both_initial_and_final(kb):
    spec = ProcessSpec(
        name="solo",
        procedures=(
            ProcedureSpec(
                name="solo_proc",
                states=(StateSpec(name="solo_s", plan=simple_spec("solo_plan")),),
            ),
        ),
    )
    build_process(kb, spec)
    s = ex("solo_s")
    assert kb.has_class(s, vocab.INITIAL_STATE)
    assert kb.has_class(s, vocab.FINAL_STATE)
    proc = ex("solo_proc")
    assert kb.objects(proc, vocab.PROC_CONSISTS_INITIAL) == [s]
    assert kb.objects(proc, vocab.PROC_CONSISTS_FINAL) == [s]
    assert kb.query(s, vocab.HAS_NEXT, entail=True) == []


def test_multiple_procedures_are_chained(kb):
    spec = ProcessSpec(
        name="duo",
        procedures=(
            ProcedureSpec(
                name="duo_p1",
                states=(StateSpec(name="duo_p1_s", plan=simple_spec("dp1")),),
            ),
            ProcedureSpec(
                name="duo_p2",
                states=(StateSpec(name="duo_p2_s", plan=simple_spec("dp2")),),
            ),
        ),
    )
    root = build_process(kb, spec)
    assert kb.objects(root, vocab.CONSISTS_OF_PROCEDURE) == [
        ex("duo_p1"),
        ex("duo_p2"),
    ]
    assert kb.objects(ex("duo_p1"), vocab.HAS_NEXT_PROCEDURE) == [ex("duo_p2")]


def test_event_specs_attach_to_their_state(kb):
    spec = ProcessSpec(
        name="ev",
        procedures=(
            ProcedureSpec(
                name="ev_proc",
                states=(
                    StateSpec(
                        name="ev_s",
                        plan=simple_spec("ev_plan"),
                        events=(
                            EventSpec(
                                name="ping",
                                action=TaskSpec(
                                    name="ping_task",
                                    operator_action=Ref.exact("notify"),
                                ),
                                kind="signal",
                                duration="PT1S",
                                window="PT10S",
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    build_process(kb, spec)
    state, event = ex("ev_s"), ex("ping")
    assert kb.objects(state, vocab.TRIGGERS_EVENT) == [event]
    assert kb.has_class(event, vocab.EVENT)
    assert kb.entity(event).layer is LayerTag.PLANNING
    actions = kb.objects(event, vocab.EVENT_DESCRIBED_BY_ACTION)
    assert actions == [ex("ping_task")]
    assert kb.objects(event, vocab.HAS_EVENT_KIND) == ["signal"]
    assert kb.objects(event, vocab.HAS_EVENT_DURATION) == ["PT1S"]
    assert kb.objects(event, vocab.HAS_EVENT_WINDOW) == ["PT10S"]


def test_attach_event_rejects_non_states(kb):
    build_process(kb, three_state_process("q"))
    event = EventSpec(
        name="stray",
        action=TaskSpec(name="stray_task", operator_action=Ref.exact("notify")),
    )
    with pytest.raises(NotAProcedureState):
        attach_event(kb, ex("q"), event)  # the process root is not a state


# ---------------------------------------------------------------------------
# Roles and capabilities
# ---------------------------------------------------------------------------


def role_scenario(kb, fig_template_spec):
    template = build_template(kb, fig_template_spec)
    owner = declare_agent(kb, ex("owner"))
    behaviour = derive_behaviour(kb, template, owner)
    other = declare_agent(kb, ex("other"))
    return owner, other, behaviour


def test_grant_role_mints_a_typed_role(kb, fig_template_spec):
    owner, other, behaviour = role_scenario(kb, fig_template_spec)
    role = grant_role(kb, other, ex("Consumer"), [behaviour])
    assert role.value.startswith(ex("Consumer").value + "__role__")
    assert kb.has_class(role, vocab.ROLE)
    assert kb.has_class(role, ex("Consumer"))
    # the role type is both a class and an individual
    assert Assertion(role, vocab.RDF_TYPE, ex("Consumer")) in kb
    assert Assertion(ex("Consumer"), vocab.RDF_TYPE, vocab.ROLE_TYPE) in kb
    assert Assertion(other, vocab.PLAY_ROLE, role) in kb
    assert Assertion(role, vocab.PROVIDES_BEHAVIOUR, behaviour) in kb


def test_grant_role_validates_inputs(kb, fig_template_spec):
    owner, other, behaviour = role_scenario(kb, fig_template_spec)
    template = ex("request_lock_behaviour_template")
    with pytest.raises(LayerError):
        grant_role(kb, other, ex("Consumer"), [template])
    with pytest.raises(MissingAgent):
        grant_role(kb, ex("stranger"), ex("Consumer"), [behaviour])


def test_check_capability_prefers_own_behaviours(kb, fig_template_spec):
    owner, other, behaviour = role_scenario(kb, fig_template_spec)
    role = grant_role(kb, owner, ex("Consumer"), [behaviour])
    source = check_capability(kb, owner, behaviour)
    assert source.kind is CapabilityKind.INTRINSIC
    assert source.role is None
    via = check_capability(kb, other, behaviour)
    assert via is None
    role2 = grant_role(kb, other, ex("Consumer"), [behaviour])
    via = check_capability(kb, other, behaviour)
    assert via.kind is CapabilityKind.VIA_ROLE
    assert via.role == role2


def test_check_capability_picks_the_lowest_live_role(kb, fig_template_spec):
    _, other, behaviour = role_scenario(kb, fig_template_spec)
    first = grant_role(kb, other, ex("Consumer"), [behaviour])
    second = grant_role(kb, other, ex("Consumer"), [behaviour])
    lowest = min(first, second)
    assert check_capability(kb, other, behaviour).role == lowest
    deprecate_role(kb, lowest)
    assert check_capability(kb, other, behaviour).role == max(first, second)


def test_deprecation_is_idempotent_and_final(kb, fig_template_spec):
    _, other, behaviour = role_scenario(kb, fig_template_spec)
    role = grant_role(kb, other, ex("Consumer"), [behaviour])
    deprecate_role(kb, role)
    deprecate_role(kb, role)
    assert kb.entity(role).deprecated
    assert check_capability(kb, other, behaviour) is None
    assert capability_gap(kb, other, behaviour) == (Code.ROLE_DEPRECATED_USE, role)


def test_deprecate_role_rejects_non_roles(kb):
    with pytest.raises(NotARole):
        deprecate_role(kb, ex("nothing"))
    declare_agent(kb, ex("alice"))
    with pytest.raises(NotARole):
        deprecate_role(kb, ex("alice"))

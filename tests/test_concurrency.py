from __future__ import annotations

import json
import math
import random

import pytest

from oasiskg import (
    BehaviourSpec,
    GoalSpec,
    Iri,
    KnowledgeBase,
    ProcedureSpec,
    ProcessSpec,
    ProtocolRun,
    Ref,
    StateSpec,
    Step,
    StepKind,
    TaskSpec,
    build_process,
    build_template,
    declare_agent,
    derive_behaviour,
    detect_races,
    enumerate_schedules,
    extract_runs,
    interpret_step,
    realize_process,
)
from oasiskg import concurrency
from oasiskg.concurrency import (
    MixedAgents,
    RaceKind,
    ResourceState,
    UnknownHandle,
    UnknownStepKind,
    search_races,
)

import race_oracle
import search_oracle
from conftest import build_protocol_scenario


A = Iri("http://example.org/agent_a")
B = Iri("http://example.org/agent_b")
C = Iri("http://example.org/agent_c")
R1 = Iri("http://example.org/r1")
R2 = Iri("http://example.org/r2")


def run_of(agent: Iri, *kinds: StepKind, resource: Iri = R1) -> ProtocolRun:
    return ProtocolRun(agent, tuple(Step(k, resource) for k in kinds))


@pytest.fixture(autouse=True)
def cleared_tables():
    """Each test starts and ends with no shared transition table, so one
    filled under a patched ``interpret_step`` reaches no other test."""
    concurrency._TABLES.clear()
    yield
    concurrency._TABLES.clear()


# ---------------------------------------------------------------------------
# Step semantics, case by case
# ---------------------------------------------------------------------------


def test_request_takes_a_free_resource():
    out = interpret_step(ResourceState(), A, StepKind.REQUEST)
    assert out.state.holder == A
    assert not out.blocked and out.race is None


def test_request_blocks_while_held_by_anyone():
    held = ResourceState(holder=A)
    assert interpret_step(held, B, StepKind.REQUEST).blocked
    # not reentrant: the holder itself cannot request again
    assert interpret_step(held, A, StepKind.REQUEST).blocked


def test_modify_under_own_lock_is_safe():
    held = ResourceState(holder=A)
    out = interpret_step(held, A, StepKind.MODIFY)
    assert out.race is None
    assert out.state.modified_by == (A,)


def test_modify_under_someone_elses_lock_races():
    held = ResourceState(holder=A)
    out = interpret_step(held, B, StepKind.MODIFY)
    assert out.race is RaceKind.UNLOCKED_MODIFY
    assert out.other == A


def test_unlocked_modify_races_with_the_latest_other_writer():
    dirty = ResourceState(modified_by=(B, C))
    out = interpret_step(dirty, A, StepKind.MODIFY)
    assert out.race is RaceKind.UNLOCKED_MODIFY
    assert out.other == C
    # a lone writer, or one racing only itself, is fine
    assert interpret_step(ResourceState(), A, StepKind.MODIFY).race is None
    solo = ResourceState(modified_by=(A,))
    assert interpret_step(solo, A, StepKind.MODIFY).race is None
    # the history keeps what a later Modify reads: the latest other
    # writer, then the last one
    for before, after in (((B, C), (C, A)), ((A, B, A), (B, A)), ((A,), (A,))):
        touched = interpret_step(ResourceState(modified_by=before), A, StepKind.MODIFY)
        assert touched.state.modified_by == after, before


def test_release_by_the_holder_frees_the_resource():
    held = ResourceState(holder=A, modified_by=(A,))
    out = interpret_step(held, A, StepKind.RELEASE)
    assert out.state.holder is None
    assert out.race is None


def test_release_of_a_free_resource_is_a_no_op():
    out = interpret_step(ResourceState(), A, StepKind.RELEASE)
    assert out.state == ResourceState()
    assert out.race is None


def test_release_of_someone_elses_lock_races():
    held = ResourceState(holder=A)
    out = interpret_step(held, B, StepKind.RELEASE)
    assert out.race is RaceKind.DOUBLE_LOCK
    assert out.other == A
    assert out.state.holder == A  # the lock survives


# ---------------------------------------------------------------------------
# Schedule enumeration against counting oracles
# ---------------------------------------------------------------------------


def interleaving_count(*lengths: int) -> int:
    total = math.factorial(sum(lengths))
    for n in lengths:
        total //= math.factorial(n)
    return total


def test_two_unblocked_runs_enumerate_all_interleavings():
    runs = [
        run_of(A, StepKind.MODIFY, StepKind.MODIFY, StepKind.MODIFY),
        run_of(B, StepKind.MODIFY, StepKind.MODIFY, StepKind.MODIFY),
    ]
    schedules = enumerate_schedules(runs)
    assert len(schedules) == interleaving_count(3, 3) == math.comb(6, 3) == 20
    assert all(s.complete for s in schedules)
    assert len({s.indices for s in schedules}) == 20


def test_three_unblocked_runs_match_the_multinomial():
    runs = [
        run_of(A, StepKind.MODIFY, StepKind.MODIFY),
        run_of(B, StepKind.MODIFY, StepKind.MODIFY),
        run_of(C, StepKind.MODIFY, StepKind.MODIFY),
    ]
    schedules = enumerate_schedules(runs)
    assert len(schedules) == interleaving_count(2, 2, 2) == 90
    assert all(s.complete for s in schedules)


def test_enumeration_explores_lowest_run_first():
    runs = [run_of(A, StepKind.MODIFY), run_of(B, StepKind.MODIFY)]
    schedules = enumerate_schedules(runs)
    assert [s.indices for s in schedules] == [(0, 1), (1, 0)]


def test_no_runs_yield_one_empty_schedule():
    schedules = enumerate_schedules([])
    assert len(schedules) == 1
    assert schedules[0].indices == ()
    assert schedules[0].complete


def test_self_blocking_run_deadlocks():
    runs = [run_of(A, StepKind.REQUEST, StepKind.REQUEST)]
    schedules = enumerate_schedules(runs)
    assert len(schedules) == 1
    assert schedules[0].status == "deadlock"
    assert schedules[0].indices == (0,)


def test_cross_resource_acquisition_can_deadlock():
    runs = [
        ProtocolRun(
            A,
            (
                Step(StepKind.REQUEST, R1),
                Step(StepKind.REQUEST, R2),
                Step(StepKind.RELEASE, R2),
                Step(StepKind.RELEASE, R1),
            ),
        ),
        ProtocolRun(
            B,
            (
                Step(StepKind.REQUEST, R2),
                Step(StepKind.REQUEST, R1),
                Step(StepKind.RELEASE, R1),
                Step(StepKind.RELEASE, R2),
            ),
        ),
    ]
    statuses = {s.status for s in enumerate_schedules(runs)}
    assert statuses == {"complete", "deadlock"}


def test_bound_truncates_long_explorations():
    runs = [
        run_of(A, StepKind.MODIFY, StepKind.MODIFY, StepKind.MODIFY),
        run_of(B, StepKind.MODIFY, StepKind.MODIFY, StepKind.MODIFY),
    ]
    schedules = enumerate_schedules(runs, bound=4)
    assert all(s.status == "truncated" for s in schedules)
    assert all(len(s.indices) == 4 for s in schedules)
    # sequences of length 4 over two runs, minus the two that overrun a run
    assert len(schedules) == 2**4 - 2


# ---------------------------------------------------------------------------
# Race detection
# ---------------------------------------------------------------------------


def test_detect_races_reports_hazards_in_schedule_positions():
    runs = [
        run_of(A, StepKind.REQUEST, StepKind.RELEASE),
        run_of(B, StepKind.MODIFY, StepKind.RELEASE),
    ]
    reports = detect_races(runs)
    assert [(r.schedule, r.kind) for r in reports] == [
        ((0, 1, 0, 1), RaceKind.UNLOCKED_MODIFY),
        ((0, 1, 1, 0), RaceKind.DOUBLE_LOCK),
    ]
    # B writes under A's lock at the second step of the first schedule
    assert reports[0].conflict.step_index == 1
    assert reports[0].conflict.agent_a == B
    assert reports[0].conflict.agent_b == A
    # B releases A's lock at the third step of the next schedule
    assert reports[1].conflict.step_index == 2
    assert reports[1].conflict.agent_a == B
    assert reports[1].conflict.agent_b == A


def test_lockless_writers_race_and_the_first_schedule_wins():
    runs = [run_of(A, StepKind.MODIFY), run_of(B, StepKind.MODIFY)]
    reports = detect_races(runs)
    assert len(reports) == 2  # one per ordered pair of writers
    first = reports[0]
    assert first.schedule == (0, 1)
    assert first.conflict.resource == R1
    assert first.conflict.agent_a == B
    assert first.conflict.agent_b == A
    assert first.conflict.step_index == 1
    assert first.kind is RaceKind.UNLOCKED_MODIFY


def test_a_writer_races_the_writer_before_its_own_locked_write():
    # A writes unlocked; B then writes under its own lock, releases and
    # writes again: that last write races A, though B wrote last
    protocol = (StepKind.REQUEST, StepKind.MODIFY, StepKind.RELEASE, StepKind.MODIFY)
    runs = [run_of(A, StepKind.MODIFY), run_of(B, *protocol)]
    first = detect_races(runs)[0]
    assert first.schedule == (0, 1, 1, 1, 1)
    assert (first.conflict.agent_a, first.conflict.agent_b) == (B, A)
    assert first.conflict.step_index == 4


def test_detect_races_deduplicates_across_schedules():
    runs = [
        run_of(A, StepKind.MODIFY, StepKind.MODIFY),
        run_of(B, StepKind.MODIFY),
    ]
    reports = detect_races(runs)
    keys = {(r.kind, r.conflict.resource, r.conflict.agent_a, r.conflict.agent_b) for r in reports}
    assert len(reports) == len(keys) == 2


def test_full_lock_protocol_has_no_races():
    protocol = (StepKind.REQUEST, StepKind.MODIFY, StepKind.RELEASE)
    runs = [run_of(A, *protocol), run_of(B, *protocol)]
    schedules = enumerate_schedules(runs)
    assert sorted(s.status for s in schedules) == ["complete", "complete"]
    assert detect_races(runs) == []


def test_race_report_json_shape():
    runs = [run_of(A, StepKind.MODIFY), run_of(B, StepKind.MODIFY)]
    line = detect_races(runs)[0].json_line()
    doc = json.loads(line)
    assert list(doc) == ["schedule", "conflict", "kind"]
    assert list(doc["conflict"]) == ["resource", "agentA", "agentB", "stepIndex"]
    assert doc["kind"] == "UnlockedModify"
    assert " " not in line


# ---------------------------------------------------------------------------
# Differential check against the enumerate-then-replay oracle
# ---------------------------------------------------------------------------

RESOURCES = (R1, R2, Iri("http://example.org/r3"))


def random_runs(rng: random.Random) -> list[ProtocolRun]:
    """1-4 agents, at most 8 steps in all, over 1-3 resources."""
    resources = RESOURCES[: rng.randint(1, 3)]
    agents = [Iri(f"http://example.org/agent_{n}") for n in range(rng.randint(1, 4))]
    budget = 8
    runs = []
    for agent in agents:
        length = rng.randint(0, min(4, budget))
        budget -= length
        steps = tuple(
            Step(rng.choice(list(StepKind)), rng.choice(resources))
            for _ in range(length)
        )
        runs.append(ProtocolRun(agent, steps))
    return runs


def schedule_rows(schedules) -> list[tuple[tuple[int, ...], str]]:
    return [(s.indices, s.status) for s in schedules]


def schedule_counts(schedules) -> dict[str, int]:
    counts = dict.fromkeys(("complete", "deadlock", "truncated"), 0)
    for schedule in schedules:
        counts[schedule.status] += 1
    return counts


def test_single_walk_matches_the_replay_oracle_on_seeded_runs():
    statuses: set[str] = set()
    with_races = 0
    for seed in range(240):
        rng = random.Random(seed)
        runs = random_runs(rng)
        bound = rng.choice((2, 3, 6, 12))
        got = enumerate_schedules(runs, bound)
        want = race_oracle.enumerate_schedules(runs, bound)
        assert schedule_rows(got) == schedule_rows(want), f"seed {seed}"
        lines = [r.json_line() for r in detect_races(runs, bound)]
        expected = [r.json_line() for r in race_oracle.detect_races(runs, bound)]
        assert lines == expected, f"seed {seed}"
        assert search_races(runs, bound).schedules == schedule_counts(want)
        statuses.update(s.status for s in want)
        with_races += bool(expected)
    # the seeds cover every leaf kind and plenty of reports
    assert statuses == {"complete", "deadlock", "truncated"}
    assert with_races >= 60


def test_lock_order_deadlock_and_truncated_race_match_the_oracle():
    def locked(agent: Iri, first: Iri, second: Iri) -> ProtocolRun:
        kinds = (StepKind.REQUEST, StepKind.REQUEST, StepKind.MODIFY)
        kinds += (StepKind.RELEASE, StepKind.RELEASE)
        order = (first, second, first, second, first)
        return ProtocolRun(agent, tuple(Step(k, r) for k, r in zip(kinds, order)))

    crossed = [locked(A, R1, R2), locked(B, R2, R1), run_of(C, StepKind.MODIFY)]
    statuses: set[str] = set()
    for bound in (3, 7, 12):
        got = enumerate_schedules(crossed, bound)
        want = race_oracle.enumerate_schedules(crossed, bound)
        assert schedule_rows(got) == schedule_rows(want)
        assert [r.json_line() for r in detect_races(crossed, bound)] == [
            r.json_line() for r in race_oracle.detect_races(crossed, bound)
        ]
        assert search_races(crossed, bound).schedules == schedule_counts(want)
        statuses.update(s.status for s in want)
    assert statuses == {"complete", "deadlock", "truncated"}


def revisiting_runs(rng: random.Random) -> list[ProtocolRun]:
    """2-4 runs, two of them by the same agent, at most 12 steps in all,
    over 1-3 resources: interleavings that reach one state many ways."""
    resources = RESOURCES[: rng.randint(1, 3)]
    count = rng.randint(2, 4)
    agents = [Iri(f"http://example.org/agent_{n}") for n in range(count - 1)]
    agents.insert(rng.randrange(count), rng.choice(agents))
    budget = 12
    runs = []
    for agent in agents:
        length = rng.randint(min(1, budget), min(6, budget))
        budget -= length
        steps = tuple(
            Step(rng.choice(list(StepKind)), rng.choice(resources))
            for _ in range(length)
        )
        runs.append(ProtocolRun(agent, steps))
    return runs


def test_memoized_search_matches_the_oracle_when_states_recur():
    statuses: set[str] = set()
    with_races = 0
    for seed in range(60):
        rng = random.Random(seed)
        runs = revisiting_runs(rng)
        assert len({r.agent for r in runs}) < len(runs)
        # the oracle walks every schedule: at bound 12 keep it to 6k
        full = interleaving_count(*(len(r.steps) for r in runs)) <= 6_000
        for bound in (3, 6, 12) if full else (3, 6):
            got = enumerate_schedules(runs, bound)
            want = race_oracle.enumerate_schedules(runs, bound)
            assert schedule_rows(got) == schedule_rows(want), (seed, bound)
            search = search_races(runs, bound)
            expected = [r.json_line() for r in race_oracle.detect_races(runs, bound)]
            assert [r.json_line() for r in search.reports] == expected, seed
            assert search.schedules == schedule_counts(want), (seed, bound)
            statuses.update(s.status for s in want)
            with_races += bool(expected)
    assert statuses == {"complete", "deadlock", "truncated"}
    assert with_races >= 60


def packed_runs(rng: random.Random) -> list[ProtocolRun]:
    """1-8 runs by 1-8 distinct agents, shared when there are fewer
    agents than runs, over 1-4 resources, at most 14 steps in all; a run
    may be empty or take up to 9 steps, so every position field width
    from 0 to 4 bits and every lock field width from 2 to 10 occurs."""
    resources = [Iri(f"http://example.org/r{n}") for n in range(rng.randint(1, 4))]
    count = rng.randint(1, 8)
    pool = [Iri(f"http://example.org/agent_{n}") for n in range(rng.randint(1, count))]
    agents = pool + [rng.choice(pool) for _ in range(count - len(pool))]
    rng.shuffle(agents)
    budget = 14
    runs = []
    for agent in agents:
        length = min(budget, rng.choice((0, 1, 1, 2, 3, 5, 9)))
        budget -= length
        steps = tuple(
            Step(rng.choice(list(StepKind)), rng.choice(resources))
            for _ in range(length)
        )
        runs.append(ProtocolRun(agent, steps))
    return runs


def test_packed_search_matches_the_generator_search_it_replaced():
    """The frame walk over one-int states against the search it
    replaced, kept in ``tests/search_oracle.py``: the same moves and
    counts by state number, reports and state counts.  The sets are
    searched twice: forward, each on the shared tables that the sets
    before it filled, then in reverse order on tables cleared first."""
    widths: set[int] = set()
    agent_counts: set[int] = set()
    resource_counts: set[int] = set()
    statuses: set[int] = set()
    with_races = 0
    seeds = range(150)
    for order in (seeds, seeds[::-1]):
        concurrency._TABLES.clear()
        for seed in order:
            rng = random.Random(seed)
            runs = packed_runs(rng)
            total = sum(len(r.steps) for r in runs)
            for bound in (1, 3, 8, total):
                moves, counts, reports = concurrency._search(runs, bound)
                want_moves, want_counts, want_reports = search_oracle._search(runs, bound)
                assert moves == want_moves, (seed, bound)
                assert counts == want_counts, (seed, bound)
                lines = [r.json_line() for r in reports]
                assert lines == [r.json_line() for r in want_reports], (seed, bound)
                want_states = len(want_counts)
                assert search_races(runs, bound).states == want_states, (seed, bound)
                statuses.update(n for n, c in enumerate(counts[0]) if c)
                with_races += bool(lines)
            widths.update(len(r.steps).bit_length() for r in runs)
            agent_counts.add(len({r.agent for r in runs}))
            resource_counts.add(len({s.resource for r in runs for s in r.steps}))
    assert widths == {0, 1, 2, 3, 4}
    assert agent_counts == set(range(1, 9))
    assert resource_counts >= {1, 2, 3, 4}
    assert statuses == {0, 1, 2}  # complete, deadlock and truncated
    assert with_races >= 200


@pytest.mark.parametrize("agents, states", [(4, 1_741), (5, 11_116)])
def test_search_interprets_each_distinct_state_once(monkeypatch, agents, states):
    """Three free modifies per agent: 369,600 schedules for 4x3 and
    40,656,000 cut at 12 steps for 5x3, but only ``states`` distinct
    states, stepped from a cleared table."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return interpret_step(*args)

    monkeypatch.setattr(concurrency, "interpret_step", counting)
    agent_iris = [Iri(f"http://example.org/agent_{n}") for n in range(agents)]
    runs = [run_of(agent, *(StepKind.MODIFY,) * 3) for agent in agent_iris]
    reports = detect_races(runs, 12)
    assert len(reports) == agents * (agents - 1)
    assert 0 < calls <= agents * states


def free_chains(agents: int) -> list[ProtocolRun]:
    """``agents`` runs of three modifies each on one resource, no locks."""
    agent_iris = [Iri(f"http://example.org/agent_{n}") for n in range(agents)]
    return [run_of(agent, *(StepKind.MODIFY,) * 3) for agent in agent_iris]


@pytest.mark.parametrize("agents, transitions", [(4, 68), (5, 130)])
def test_search_interprets_each_distinct_transition_once(
    monkeypatch, agents, transitions
):
    """Free modify chains reach 1 + n + n(n-1) distinct lock states (none
    modified, one last writer, or a last writer and the one before it),
    each stepped by n agents' modifies: 17 x 4 and 26 x 5 transitions
    from a cleared table, and none when the same runs are searched
    again."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return interpret_step(*args)

    monkeypatch.setattr(concurrency, "interpret_step", counting)
    detect_races(free_chains(agents), 12)
    assert calls == transitions
    # the table is shared by every search over as many agents
    calls = 0
    detect_races(free_chains(agents), 12)
    assert calls == 0


def lock_states(agents: int) -> list[ResourceState]:
    """Every lock state over agent indices ``0 .. agents - 1``: a holder
    or none, and no, one or two distinct last writers."""
    everyone = range(agents)
    writers = [()] + [(w,) for w in everyone] + [
        (w1, w2) for w1 in everyone for w2 in everyone if w1 != w2
    ]
    return [ResourceState(h, w) for h in (None, *everyone) for w in writers]


@pytest.mark.parametrize("agents", range(1, 11))
def test_lock_state_ids_number_every_lock_state_once(agents):
    """``_lock_id`` maps the lock states over agent indices one to one
    onto 0 .. (A + 1)(A² + 1) - 1, the free state to 0, and the largest
    id fits the width the search gives a lock field."""
    count = (agents + 1) * (agents * agents + 1)
    states = lock_states(agents)
    assert len(set(states)) == len(states) == count
    assert sorted(concurrency._lock_id(state, agents) for state in states) == list(range(count))
    assert concurrency._lock_id(ResourceState(), agents) == 0
    everyone = range(agents)
    # the largest id: the last agent holds the lock, agent A - 2 wrote
    # last, and the last agent wrote before that
    last = agents - 1
    largest = ResourceState(last, (last, last - 1) if agents > 1 else (last,))
    assert concurrency._lock_id(largest, agents) == count - 1
    # a search that puts it in the first lock field, below a second
    # resource's field, agrees with the oracle, so it fits its field
    iris = [Iri(f"http://example.org/agent_{n}") for n in everyone]
    runs = [run_of(agent, StepKind.RELEASE) for agent in iris[:-2]]
    if agents > 1:
        runs.append(run_of(iris[-2], StepKind.MODIFY))
    reach = (Step(StepKind.MODIFY, R1), Step(StepKind.REQUEST, R1), Step(StepKind.MODIFY, R2))
    runs.append(ProtocolRun(iris[-1], reach))
    total = sum(len(r.steps) for r in runs)
    moves, counts, reports = concurrency._search(runs, total)
    want_moves, want_counts, want_reports = search_oracle._search(runs, total)
    assert (moves, counts) == (want_moves, want_counts)
    assert [r.json_line() for r in reports] == [r.json_line() for r in want_reports]
    table, kept = concurrency._TABLES[agents]
    assert count - 1 in {lid for lid, _ in table.values()}
    assert kept[count - 1] == largest


def test_a_table_keeps_only_the_lock_states_searches_reach():
    """One step by each of 1,000 agents: a lock field could take about
    10⁹ ids, but the table keeps the free state and the 1,000 states one
    Modify leaves, and one entry per agent."""
    agents = 1_000
    iris = [Iri(f"http://example.org/agent_{n}") for n in range(agents)]
    search = search_races([run_of(agent, StepKind.MODIFY) for agent in iris], 1)
    assert search.schedules == {"complete": 0, "deadlock": 0, "truncated": agents}
    table, kept = concurrency._TABLES[agents]
    assert len(table) == agents
    assert len(kept) == agents + 1


@pytest.mark.parametrize(
    "agents, bound, states", [(4, 12, 1_741), (5, 12, 11_116), (5, 15, 11_536)]
)
def test_search_counts_the_distinct_states_it_searched(agents, bound, states):
    search = search_races(free_chains(agents), bound)
    assert search.states == states
    if bound == 15:  # every schedule of 5 x 3 steps: 15! / 3!^5
        assert len(search.reports) == 20
        assert search.schedules == {
            "complete": 168_168_000,
            "deadlock": 0,
            "truncated": 0,
        }


def test_search_runs_schedules_longer_than_the_recursion_limit():
    """One run of 1,100 modifies: 1,101 states on a single path, deeper
    than the interpreter's default recursion limit of 1,000 frames."""
    runs = [run_of(A, *(StepKind.MODIFY,) * 1_100)]
    search = search_races(runs, 2_000)
    assert search.reports == []
    assert search.schedules == {"complete": 1, "deadlock": 0, "truncated": 0}
    schedules = enumerate_schedules(runs, 2_000)
    assert [(s.indices, s.status) for s in schedules] == [((0,) * 1_100, "complete")]


def test_long_schedules_report_the_races_at_their_ends():
    """A race after 1,000 lock-protected steps is reported on the
    leftmost schedule that raises it, as by the oracle's walk."""
    guarded = (StepKind.REQUEST, *(StepKind.MODIFY,) * 998, StepKind.RELEASE)
    runs = [run_of(A, *guarded, StepKind.MODIFY), run_of(B, StepKind.MODIFY)]
    reports = detect_races(runs, 2_000)
    assert [(r.kind, r.conflict.agent_a, r.conflict.agent_b) for r in reports] == [
        (RaceKind.UNLOCKED_MODIFY, B, A),
        (RaceKind.UNLOCKED_MODIFY, A, B),
    ]
    assert reports[0].schedule == (0,) * 1_001 + (1,)
    assert reports[1].schedule == (0,) * 1_000 + (1, 0)


# ---------------------------------------------------------------------------
# Extraction from realized graphs
# ---------------------------------------------------------------------------


def test_extract_runs_recovers_the_lock_protocol(kb):
    ctx = build_protocol_scenario(kb)
    handles = [ctx[t]["handle"].exec_process for t in ("a", "b")]
    runs = extract_runs(kb, handles)
    assert [r.agent.local for r in runs] == ["agent_a", "agent_b"]
    shared = kb.resolve("shared_resource")
    for run in runs:
        assert [s.kind for s in run.steps] == [
            StepKind.REQUEST,
            StepKind.MODIFY,
            StepKind.RELEASE,
        ]
        assert all(s.resource == shared for s in run.steps)
    schedules = enumerate_schedules(runs)
    assert len([s for s in schedules if s.complete]) == 2
    assert detect_races(runs) == []


def test_extract_runs_rejects_non_execution_roots(kb):
    ctx = build_protocol_scenario(kb, tags=("a",))
    with pytest.raises(UnknownHandle):
        extract_runs(kb, [ctx["a"]["process"]])  # planning root
    with pytest.raises(UnknownHandle):
        extract_runs(kb, [kb.resolve("missing")])


def test_extract_runs_rejects_mixed_performers(kb):
    ctx = build_protocol_scenario(kb)
    a, b = ctx["a"], ctx["b"]
    assignment = {
        kb.resolve("a_s1"): (a["agent"], a["behaviour"]),
        kb.resolve("a_s2"): (b["agent"], b["behaviour"]),
        kb.resolve("a_s3"): (a["agent"], a["behaviour"]),
    }
    handle = realize_process(kb, a["process"], assignment)
    with pytest.raises(MixedAgents):
        extract_runs(kb, [handle.exec_process])


def one_step_scenario(kb, operator: str):
    kb.declare_class(kb.resolve("Resource"))
    kb.assert_membership(kb.resolve("shared_resource"), kb.resolve("Resource"))
    agent = declare_agent(kb, kb.resolve("solo_agent"))
    template = build_template(
        kb,
        BehaviourSpec(
            name="solo_template",
            goals=(
                GoalSpec(
                    name="solo_template_g",
                    tasks=(
                        TaskSpec(name="solo_template_t", operator_action=Ref.exact("act")),
                    ),
                ),
            ),
        ),
    )
    behaviour = derive_behaviour(kb, template, agent)
    process = build_process(
        kb,
        ProcessSpec(
            name="solo_process",
            procedures=(
                ProcedureSpec(
                    name="solo_proc",
                    states=(
                        StateSpec(
                            name="solo_s1",
                            plan=BehaviourSpec(
                                name="solo_plan",
                                goals=(
                                    GoalSpec(
                                        name="solo_plan_g",
                                        tasks=(
                                            TaskSpec(
                                                name="solo_plan_t",
                                                operator_action=Ref.exact(operator),
                                                obj=Ref.exact("shared_resource"),
                                            ),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    handle = realize_process(
        kb, process, {kb.resolve("solo_s1"): (agent, behaviour)}
    )
    return handle.exec_process


def test_extract_runs_matches_operator_names_loosely(kb):
    handle = one_step_scenario(kb, "request_primary_lock")
    runs = extract_runs(kb, [handle])
    assert runs[0].steps[0].kind is StepKind.REQUEST


def test_extract_runs_takes_custom_operator_maps(kb):
    handle = one_step_scenario(kb, "grab")
    with pytest.raises(UnknownStepKind):
        extract_runs(kb, [handle])
    runs = extract_runs(kb, [handle], op_map={"Grab": StepKind.REQUEST})
    assert runs[0].steps[0].kind is StepKind.REQUEST


def test_extract_runs_rejects_ambiguous_operator_names(kb):
    handle = one_step_scenario(kb, "request_release_cycle")
    with pytest.raises(UnknownStepKind) as err:
        extract_runs(kb, [handle])
    assert "request_release_cycle" in str(err.value)

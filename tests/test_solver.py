import dataclasses
import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from searchbench.answers import verify
from searchbench.generate import GenSpec, generate
from searchbench.solver import (
    Action,
    PRUNE_REASONS,
    SearchMode,
    TooLargeError,
    count_trip_plans,
    enumerate_all,
    matching_witness,
    min_cover_size,
    optimal_schedule,
    solve,
    solve_payload,
    success_path,
    trip_legs_for_order,
)
from searchbench.tasks import (
    CoverSet,
    Friend,
    Matching,
    Meeting,
    MeetingPayload,
    MeetingSchedule,
    ProblemInstance,
    TaskKind,
    ThreeDMPayload,
    TripPayload,
    TripPlan,
    TripWindow,
    VertexCoverPayload,
)

from conftest import DEAD_END_BELOW_ROOT, ENUMERABLE_LEVELS


# ---------------------------------------------------------------------------
# Reference itinerary: exact trace shape
# ---------------------------------------------------------------------------


def test_reference_dfs_finds_the_unique_plan(reference_trip):
    trace = solve(reference_trip, SearchMode.DFS)
    assert trace.succeeded
    order = [leg.city for leg in trace.solution.legs]
    assert order == ["Edinburgh", "Milan", "Copenhagen", "Riga", "Vilnius", "Brussels"]


def test_reference_dfs_prunes_first_root_before_second(reference_trip):
    trace = solve(reference_trip, SearchMode.DFS)
    expansions = [e for e in trace.events if e.action is Action.EXPANSION]
    roots = [e.move for e in expansions if e.step_label == "S0"]
    assert roots == ["Riga", "Edinburgh"]
    # everything tried under the first root is pruned, then the root closes
    first_root_at = next(
        i for i, e in enumerate(trace.events)
        if e.action is Action.EXPANSION and e.move == "Riga"
    )
    second_root_at = next(
        i for i, e in enumerate(trace.events)
        if e.action is Action.EXPANSION and e.move == "Edinburgh"
    )
    between = trace.events[first_root_at + 1 : second_root_at]
    assert between, "first root must be explored before the second opens"
    assert all(e.action in (Action.PRUNE, Action.BACKTRACK) for e in between)
    assert between[-1].action is Action.BACKTRACK


def test_reference_greedy_never_backtracks(reference_trip):
    trace = solve(reference_trip, SearchMode.GREEDY)
    assert trace.succeeded
    actions = {e.action for e in trace.events}
    assert Action.PRUNE not in actions and Action.BACKTRACK not in actions
    labels = [e.step_label for e in trace.events if e.action is Action.EXPANSION]
    assert labels == [f"G{i}" for i in range(len(labels))]


# ---------------------------------------------------------------------------
# Trace protocol invariants
# ---------------------------------------------------------------------------

_CHILD_LABEL = re.compile(r"^S0$|^G\d+$|^[A-Z](\d+|[a-z])*$|^[A-Z](\d+[a-z]?)*\d*$")


def _protocol_checks(trace):
    assert trace.events[0].action is Action.INITIALIZATION
    expansions = [e for e in trace.events if e.action is Action.EXPANSION]
    assert trace.explored_count == len(expansions)
    for event in trace.events:
        if event.action is Action.PRUNE:
            assert event.reason in PRUNE_REASONS, event
        else:
            assert event.reason == ""
    successes = [e for e in trace.events if e.action is Action.SUCCESS]
    if trace.succeeded:
        assert len(successes) == 1
        assert trace.events[-1].action is Action.SUCCESS
    else:
        assert not successes


def test_trace_protocol_over_generated_instances():
    for kind, levels in ENUMERABLE_LEVELS.items():
        for seed in range(4):
            inst = generate(GenSpec(kind=kind, level=levels[seed % len(levels)], seed=seed))
            for mode in SearchMode:
                _protocol_checks(solve(inst, mode))


def test_greedy_on_unsolvable_payloads_keeps_only_the_initialization(
    unsolvable_instances,
):
    for inst in unsolvable_instances:
        dfs = solve(inst, SearchMode.DFS)
        assert not dfs.succeeded, inst.id
        greedy = solve(inst, SearchMode.GREEDY)
        assert greedy.kind is inst.kind and greedy.mode is SearchMode.GREEDY
        assert greedy.events == dfs.events[:1]
        assert greedy.events[0].action is Action.INITIALIZATION
        assert greedy.solution is None and greedy.explored_count == 0
        _protocol_checks(greedy)


def test_cover_search_prunes_both_root_children_on_a_zero_budget():
    payload = VertexCoverPayload(2, ((0, 1),), 0)
    dfs = solve_payload(payload, SearchMode.DFS)
    assert [(e.action, e.reason, e.move) for e in dfs.events] == [
        (Action.INITIALIZATION, "", ""),
        (Action.PRUNE, "budget", "V0"),
        (Action.PRUNE, "budget", "V1"),
    ]
    assert {e.state_summary for e in dfs.events[1:]} == {"size budget 0 exhausted"}
    assert dfs.solution is None and not dfs.succeeded
    greedy = solve_payload(payload, SearchMode.GREEDY)
    assert greedy.events == dfs.events[:1] and greedy.solution is None


def test_replay_reconstructs_trip_solution(reference_trip):
    trace = solve(reference_trip, SearchMode.DFS)
    assert [e.move for e in success_path(trace)] == [
        leg.city for leg in trace.solution.legs
    ]


def test_solve_payload_matches_solve(sample_instances):
    for instances in sample_instances.values():
        inst = instances[0]
        a = solve(inst, SearchMode.DFS)
        b = solve_payload(inst.payload, SearchMode.DFS)
        assert a.solution == b.solution
        assert [e.step_label for e in a.events] == [e.step_label for e in b.events]


# ---------------------------------------------------------------------------
# Agreement with exhaustive enumeration
# ---------------------------------------------------------------------------


def test_solver_agrees_with_enumeration_sample():
    for kind, levels in ENUMERABLE_LEVELS.items():
        for seed in range(10):
            inst = generate(GenSpec(kind=kind, level=levels[seed % len(levels)], seed=100 + seed))
            trace = solve(inst, SearchMode.DFS)
            everything = enumerate_all(inst)
            assert trace.succeeded == bool(everything), (kind, seed)
            if kind is TaskKind.VERTEX_COVER and everything:
                assert len(trace.solution.vertices) == len(
                    next(iter(everything)).vertices
                )
            if kind is TaskKind.MEETING_PLANNING and everything:
                assert len(trace.solution.meetings) == len(
                    next(iter(everything)).meetings
                )


def _candidate_space(payload):
    """Every candidate of the task's answer shape: every city order, every
    vertex subset, every n-subset of triples, and every friend sequence met
    at its earliest starts."""
    if isinstance(payload, TripPayload):
        return [
            TripPlan(legs=trip_legs_for_order(payload, order))
            for order in itertools.permutations(payload.cities)
        ]
    if isinstance(payload, VertexCoverPayload):
        n = payload.vertex_count
        return [
            CoverSet(vertices=frozenset(subset))
            for size in range(n + 1)
            for subset in itertools.combinations(range(n), size)
        ]
    if isinstance(payload, ThreeDMPayload):
        return [
            Matching(triples=frozenset(subset))
            for subset in itertools.combinations(payload.triples, payload.n)
        ]
    schedules = []
    for size in range(len(payload.friends) + 1):
        for sequence in itertools.permutations(payload.friends, size):
            loc, time, meetings = payload.start_location, payload.day_start, []
            for f in sequence:
                start = max(time + payload.travel(loc, f.location), f.avail_start)
                loc, time = f.location, start + f.min_minutes
                meetings.append(Meeting(f.name, f.location, start, time))
            schedules.append(MeetingSchedule(meetings=tuple(meetings)))
    return schedules


def _assert_verify_accepts_exactly_the_enumerated(instance):
    candidates = _candidate_space(instance.payload)
    accepted = {c for c in candidates if verify(instance, c).ok}
    assert accepted == set(enumerate_all(instance)), instance.id


def test_verify_agrees_with_enumeration_over_every_candidate():
    for kind in TaskKind:
        for level in (1, 2, 3):
            for seed in range(10):
                _assert_verify_accepts_exactly_the_enumerated(
                    generate(GenSpec(kind=kind, level=level, seed=seed))
                )


def test_enumeration_guards():
    big_trip = TripPayload(
        cities=tuple(f"City{i}" for i in range(9)),
        total_days=19,
        stays={f"City{i}": 3 for i in range(9)},
        windows={},
        flights=frozenset(),
    )
    with pytest.raises(TooLargeError):
        enumerate_all(big_trip)
    big_graph = VertexCoverPayload(
        vertex_count=17, edges=((0, 1),), target_size=1
    )
    with pytest.raises(TooLargeError):
        enumerate_all(big_graph)


# ---------------------------------------------------------------------------
# Property tests against first-principles brute force
# ---------------------------------------------------------------------------


@st.composite
def _graphs(draw):
    n = draw(st.integers(4, 12))
    possible = list(itertools.combinations(range(n), 2))
    edges = tuple(sorted(draw(st.sets(st.sampled_from(possible), min_size=1, max_size=36))))
    return n, edges


def _brute_min_cover(n, edges):
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("full vertex set always covers")


@settings(max_examples=40, deadline=None)
@given(_graphs())
def test_min_cover_size_matches_brute_force(graph):
    n, edges = graph
    expected = _brute_min_cover(n, edges)
    size, cover = min_cover_size(n, edges)
    assert size == expected
    assert len(cover.vertices) == size
    assert all(u in cover.vertices or v in cover.vertices for u, v in edges)
    payload = VertexCoverPayload(vertex_count=n, edges=edges, target_size=size)
    trace = solve_payload(payload, SearchMode.DFS)
    assert trace.succeeded
    assert cover.vertices == trace.solution.vertices


@pytest.mark.parametrize("level", [7, 8, 9, 10])
def test_generated_cover_target_is_the_traced_optimum(level):
    # Past the brute-force guard: the traced search, which shares no code
    # with min_cover_size, finds no cover one below the target and finds the
    # ground-truth cover at it.
    for seed in range(4):
        inst = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=level, seed=seed))
        payload = inst.payload
        below = dataclasses.replace(payload, target_size=payload.target_size - 1)
        assert not solve_payload(below, SearchMode.DFS).succeeded, seed
        assert solve_payload(payload, SearchMode.DFS).solution == inst.ground_truth, seed


@st.composite
def _triple_systems(draw):
    n = draw(st.integers(2, 4))
    all_triples = [
        (x, y, z) for x in range(n) for y in range(n) for z in range(n)
    ]
    triples = tuple(sorted(draw(st.sets(st.sampled_from(all_triples), min_size=1, max_size=3 * n))))
    return n, triples


def _brute_matching_exists(n, triples):
    for combo in itertools.combinations(triples, n):
        if (
            len({t[0] for t in combo}) == n
            and len({t[1] for t in combo}) == n
            and len({t[2] for t in combo}) == n
        ):
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(_triple_systems())
def test_matching_search_matches_brute_force(system):
    n, triples = system
    payload = ThreeDMPayload(n=n, triples=triples)
    trace = solve_payload(payload, SearchMode.DFS)
    assert trace.succeeded == _brute_matching_exists(n, triples)
    if trace.succeeded:
        chosen = trace.solution.triples
        assert len(chosen) == n
        for axis in range(3):
            assert len({t[axis] for t in chosen}) == n
        assert chosen <= set(triples)


@st.composite
def _trip_payloads(draw):
    pool = ("Avila", "Bergen", "Cadiz", "Delft", "Evora", "Fulda")
    count = draw(st.integers(3, 5))
    cities = pool[:count]
    stays = {c: draw(st.integers(2, 4)) for c in cities}
    total = sum(stays.values()) - (count - 1)
    pairs = [
        (a, b)
        for a, b in itertools.permutations(cities, 2)
    ]
    flights = frozenset(draw(st.sets(st.sampled_from(pairs), min_size=2, max_size=14)))
    return TripPayload(
        cities=cities, total_days=total, stays=stays, windows={}, flights=flights
    )


@st.composite
def _windowed_trip_payloads(draw):
    # Windows sit in (or shift from) the legs of a drawn order, and that
    # order's flights are usually offered one way, so many draws have plans
    # that the windows cut down.  The calendar always closes.
    pool = ("Avila", "Bergen", "Cadiz", "Delft", "Evora", "Fulda")
    count = draw(st.integers(2, 6))
    cities = pool[:count]
    stays = {c: draw(st.integers(2, 4)) for c in cities}
    total = sum(stays.values()) - (count - 1)
    order = draw(st.permutations(cities))
    legs = trip_legs_for_order(TripPayload(cities, total, stays, {}, frozenset()), order)
    windows = {}
    for leg in legs:
        if draw(st.booleans()):
            shift = draw(st.integers(-2, 2))
            start = draw(st.integers(leg.day_from, leg.day_to))
            end = draw(st.integers(start, leg.day_to))
            start, end = max(1, start + shift), min(total, end + shift)
            windows[leg.city] = TripWindow(start, max(start, end), f"event in {leg.city}")
    pairs = list(itertools.permutations(cities, 2))
    flights = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    if draw(st.integers(0, 3)):
        flights.update(zip(order, order[1:]))
    return TripPayload(
        cities=cities, total_days=total, stays=stays, windows=windows, flights=frozenset(flights)
    )


@settings(max_examples=150, deadline=None)
@given(_windowed_trip_payloads())
def test_trip_count_with_windows_matches_enumeration(payload):
    plans = len(enumerate_all(payload))
    for limit in (1, 2, 10**6):
        assert count_trip_plans(payload, limit) == min(plans, limit)


# Two plans, Avila-Bergen-Cadiz and its reverse.
_TWO_PLAN_TRIP = TripPayload(
    cities=("Avila", "Bergen", "Cadiz"), total_days=4,
    stays={"Avila": 2, "Bergen": 2, "Cadiz": 2}, windows={},
    flights=frozenset({("Avila", "Bergen"), ("Bergen", "Avila"),
                       ("Bergen", "Cadiz"), ("Cadiz", "Bergen")}),
)


@settings(max_examples=60, deadline=None)
@given(_windowed_trip_payloads())
@example(_TWO_PLAN_TRIP)
def test_verify_accepts_every_valid_trip_plan(payload):
    """A trip is judged by feasibility alone: every valid plan verifies,
    whichever one is the ground truth."""
    plans = enumerate_all(payload)
    instance = ProblemInstance(
        id="windowed-trip", kind=TaskKind.TRIP_PLANNING, level=1, seed=0,
        payload=payload, ground_truth=plans[0] if plans else TripPlan(legs=()),
    )
    _assert_verify_accepts_exactly_the_enumerated(instance)


@settings(max_examples=40, deadline=None)
@given(_trip_payloads())
def test_trip_search_matches_enumeration(payload):
    trace = solve_payload(payload, SearchMode.DFS)
    plans = enumerate_all(payload)
    assert trace.succeeded == bool(plans)
    if trace.succeeded:
        assert trace.solution in plans
    assert count_trip_plans(payload, limit=10**6) == len(plans)


def _meeting(friends, travel, start="Bayview", day_start=540):
    """A hand-built MeetingPayload: ``friends`` as (name, location, open,
    close, minutes) rows, ``travel`` as {(a, b): minutes}."""
    locations = tuple(dict.fromkeys([start] + [f[1] for f in friends]))
    return MeetingPayload(
        locations=locations, start_location=start, day_start=day_start,
        travel_minutes={tuple(sorted(pair)): t for pair, t in travel.items()},
        friends=tuple(Friend(*f) for f in friends),
    )


# (payload, the canonical schedule as (friend, start, end) rows)
_MEETING_CASES = {
    # Alice and Brian cannot both be met and finish alike: name order picks.
    "equal-finish tie": (
        _meeting(
            [("Brian", "Chinatown", 600, 640, 30), ("Alice", "Presidio", 600, 640, 30)],
            {("Bayview", "Chinatown"): 10, ("Bayview", "Presidio"): 10,
             ("Chinatown", "Presidio"): 20},
        ),
        (("Alice", 600, 630),),
    ),
    # Brian ends before Alice, but both wait for Carol's window to open, so
    # the two pairs finish alike and name order picks Alice.
    "wait absorbs an earlier finish": (
        _meeting(
            [("Alice", "Chinatown", 600, 660, 60), ("Brian", "Presidio", 600, 640, 30),
             ("Carol", "Nob Hill", 720, 780, 30)],
            {("Bayview", "Chinatown"): 10, ("Bayview", "Presidio"): 10,
             ("Bayview", "Nob Hill"): 10, ("Chinatown", "Presidio"): 30,
             ("Chinatown", "Nob Hill"): 10, ("Nob Hill", "Presidio"): 10},
        ),
        (("Alice", 600, 660), ("Carol", 720, 750)),
    ),
    # Carol's window is shorter than her minimum; Brian's fits after Alice's.
    "window shorter than min_minutes": (
        _meeting(
            [("Carol", "Nob Hill", 540, 580, 45), ("Brian", "Presidio", 600, 700, 30),
             ("Alice", "Chinatown", 550, 590, 30)],
            {("Bayview", "Chinatown"): 5, ("Bayview", "Presidio"): 5,
             ("Bayview", "Nob Hill"): 5, ("Chinatown", "Presidio"): 5,
             ("Chinatown", "Nob Hill"): 5, ("Nob Hill", "Presidio"): 5},
        ),
        (("Alice", 550, 580), ("Brian", 600, 630)),
    ),
    "zero-friend optimum": (
        _meeting(
            [("Alice", "Chinatown", 600, 615, 30), ("Brian", "Bayview", 500, 560, 30)],
            {("Bayview", "Chinatown"): 10},
        ),
        (),
    ),
    "no friends": (_meeting([], {}), ()),
}


def test_optimal_schedule_matches_enumeration():
    """The optimum is the earliest-finishing maximum-count schedule, then the
    smallest friend-name sequence, over every schedule enumerated."""
    payloads = [
        generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=4, seed=200 + seed)).payload
        for seed in range(6)
    ]
    for name, (payload, expected) in _MEETING_CASES.items():
        _, best = optimal_schedule(payload)
        assert tuple((m.friend, m.start, m.end) for m in best.meetings) == expected, name
        payloads.append(payload)
    for payload in payloads:
        best_count, best = optimal_schedule(payload)
        everything = enumerate_all(payload)
        assert best_count == len(best.meetings)
        assert {len(s.meetings) for s in everything} == {best_count}
        assert best == min(everything, key=lambda s: (
            s.meetings[-1].end if s.meetings else payload.day_start,
            tuple(m.friend for m in s.meetings),
        ))


@st.composite
def _meeting_payloads(draw):
    """Up to five friends with distinct names, so every schedule has its own
    name sequence; zero travel and zero minimum minutes are drawn often."""
    places = ["Bayview", "Chinatown", "Presidio", "Nob Hill"]
    names = draw(st.lists(st.sampled_from(["Alice", "Brian", "Carol", "Dana", "Eve"]),
                          max_size=5, unique=True))
    friends = []
    for name in names:
        opens = draw(st.integers(540, 700))
        friends.append((name, draw(st.sampled_from(places)), opens,
                        draw(st.integers(opens, 760)), draw(st.sampled_from([0, 0, 15, 30, 45]))))
    travel = {pair: draw(st.sampled_from([0, 0, 5, 10, 30]))
              for pair in itertools.combinations(places, 2)}
    return _meeting(friends, travel)


@settings(max_examples=150, deadline=None)
@given(_meeting_payloads())
def test_meeting_searches_reach_the_enumerated_optimum(payload):
    best_count, best = optimal_schedule(payload)
    everything = enumerate_all(payload)
    assert {len(s.meetings) for s in everything} == {best_count}
    assert best == min(everything, key=lambda s: (
        s.meetings[-1].end if s.meetings else payload.day_start,
        tuple(m.friend for m in s.meetings),
    ))
    trace = solve_payload(payload, SearchMode.DFS)
    if best_count:
        assert len(trace.solution.meetings) == best_count
    else:
        assert trace.solution is None


def test_friends_named_alike_are_rejected_so_the_optimum_verifies():
    """Under two friends named Alice, a verifier that looks the name up could
    not tell them apart: the optimum meets the Alice at Chinatown (the one at
    Presidio has a 20-minute window for a 30-minute meeting), and the lookup
    finds the Alice at Presidio.  So the payload is refused, and under
    distinct names the optimum verifies."""
    travel = {pair: 10 for pair in itertools.combinations(
        ["Bayview", "Chinatown", "Nob Hill", "Presidio"], 2)}

    def rows(second):
        return [("Alice", "Presidio", 540, 560, 30), ("Brian", "Nob Hill", 600, 800, 30),
                (second, "Chinatown", 700, 800, 30)]

    with pytest.raises(ValueError, match="friend name 'Alice' repeats"):
        _meeting(rows("Alice"), travel)
    payload = _meeting(rows("Carol"), travel)
    count, best = optimal_schedule(payload)
    assert [(m.friend, m.location) for m in best.meetings] == [
        ("Brian", "Nob Hill"), ("Carol", "Chinatown"),
    ]
    instance = ProblemInstance(
        id="two-friends", kind=TaskKind.MEETING_PLANNING, level=1, seed=0,
        payload=payload, ground_truth=best,
    )
    assert verify(instance, best).ok


def test_matching_witness_is_the_traced_matching(unsolvable_instances):
    payloads = [
        generate(GenSpec(kind=TaskKind.THREE_DM, level=level, seed=seed)).payload
        for level in range(1, 11)
        for seed in range(30)
    ]
    payloads.append(DEAD_END_BELOW_ROOT)
    payloads += [i.payload for i in unsolvable_instances if i.kind is TaskKind.THREE_DM]
    for payload in payloads:
        assert matching_witness(payload) == solve_payload(payload, SearchMode.DFS).solution


@pytest.mark.parametrize("mode", list(SearchMode))
def test_meeting_solve_computes_the_optimum_once(monkeypatch, mode, unsolvable_instances):
    from searchbench import solver

    calls = []

    def counted(payload):
        calls.append(payload)
        return optimal_schedule(payload)

    monkeypatch.setattr(solver, "optimal_schedule", counted)
    unsolvable = next(i for i in unsolvable_instances if i.kind is TaskKind.MEETING_PLANNING)
    for inst in (generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=6, seed=0)), unsolvable):
        calls.clear()
        trace = solve(inst, mode)
        assert len(calls) == 1, (inst.id, mode)
        assert trace.succeeded is (inst is not unsolvable)

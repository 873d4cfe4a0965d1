"""Independent references the suite checks the package against.

``enumerate_all`` is a brute-force oracle: it shares no code with the
solvers' searches, only the payload and solution types and
``trip_legs_for_order``'s day arithmetic, so a pruning bug in a search
cannot hide in it.  ``appendix_b_task1`` is the paper's Appendix B trip
with its known itinerary.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from searchbench.cover import CoverSet
from searchbench.meeting import Meeting, MeetingSchedule
from searchbench.tasks import Payload, ProblemInstance, Solution, TaskKind
from searchbench.threedm import Matching
from searchbench.trip import TripPayload, TripPlan, TripWindow, trip_legs_for_order


class TooLargeError(Exception):
    """The instance exceeds the exhaustive-enumeration guard."""


def check_trip_order(payload: TripPayload, order: Sequence[str]) -> bool:
    """Whether an order of all of ``payload.cities`` keeps every flight and
    window; the payload's stays fill ``total_days``, so every such order ends
    on the last day."""
    legs = trip_legs_for_order(payload, order)
    for prev, cur in zip(order, order[1:]):
        if not payload.has_flight(prev, cur):
            return False
    for leg in legs:
        w = payload.window_of(leg.city)
        if w and not (leg.day_from <= w.start and w.end <= leg.day_to):
            return False
    return True


_ENUM_GUARDS: dict[TaskKind, tuple[str, Callable[..., int], int]] = {
    TaskKind.TRIP_PLANNING: ("cities", lambda p: len(p.cities), 8),
    TaskKind.VERTEX_COVER: ("vertices", lambda p: p.vertex_count, 16),
    TaskKind.THREE_DM: ("elements per axis", lambda p: p.n, 6),
    TaskKind.MEETING_PLANNING: ("friends", lambda p: len(p.friends), 7),
}


def enumerate_all(instance: ProblemInstance | Payload) -> list[Solution]:
    """Brute-force enumeration of every valid solution.

    No pruning beyond direct constraint checks.  For optimization tasks
    (VertexCover, MeetingPlanning) "valid" means optimal: all minimum-size
    covers / all maximum-count canonical schedules.  Raises TooLargeError
    beyond the per-task size guards.
    """
    payload = instance.payload if isinstance(instance, ProblemInstance) else instance
    kind = payload.kind
    noun, size, limit = _ENUM_GUARDS[kind]
    if size(payload) > limit:
        raise TooLargeError(f"{size(payload)} {noun} exceeds the enumeration guard of {limit}")

    if kind is TaskKind.TRIP_PLANNING:
        return [
            TripPlan(legs=trip_legs_for_order(payload, order))
            for order in itertools.permutations(payload.cities)
            if check_trip_order(payload, order)
        ]

    if kind is TaskKind.VERTEX_COVER:
        n = payload.vertex_count
        by_size = (
            [
                CoverSet(vertices=frozenset(combo))
                for combo in itertools.combinations(range(n), size)
                if all(u in combo or v in combo for u, v in payload.edges)
            ]
            for size in range(n + 1)
        )
        return next(covers for covers in by_size if covers)  # all n vertices cover

    if kind is TaskKind.THREE_DM:
        n = payload.n
        by_x: dict[int, list[tuple[int, int, int]]] = {}
        for t in sorted(payload.triples):
            by_x.setdefault(t[0], []).append(t)
        matchings: list[Solution] = []

        def extend(x: int, used_y: set[int], used_z: set[int], picked: list) -> None:
            if x == n:
                matchings.append(Matching(triples=frozenset(picked)))
                return
            for t in by_x.get(x, []):
                if t[1] in used_y or t[2] in used_z:
                    continue
                picked.append(t)
                extend(x + 1, used_y | {t[1]}, used_z | {t[2]}, picked)
                picked.pop()

        extend(0, set(), set(), [])
        return matchings

    friends = sorted(payload.friends, key=lambda f: f.name)
    schedules: list[tuple[Meeting, ...]] = []

    def walk(loc: str, time: int, met: set[str], sched: list[Meeting]) -> None:
        schedules.append(tuple(sched))
        for f in friends:
            if f.name in met:
                continue
            arrive = time + payload.travel(loc, f.location)
            start = max(arrive, f.avail_start)
            end = start + f.min_minutes
            if end > f.avail_end:
                continue
            sched.append(Meeting(friend=f.name, location=f.location, start=start, end=end))
            met.add(f.name)
            walk(f.location, end, met, sched)
            met.discard(f.name)
            sched.pop()

    walk(payload.start_location, payload.day_start, set(), [])
    best = max(len(s) for s in schedules)
    return [MeetingSchedule(meetings=s) for s in schedules if len(s) == best]


_TASK1_BIDIRECTIONAL = (
    ("Edinburgh", "Copenhagen"),
    ("Vilnius", "Brussels"),
    ("Copenhagen", "Riga"),
    ("Milan", "Vilnius"),
    ("Milan", "Brussels"),
    ("Edinburgh", "Milan"),
    ("Edinburgh", "Riga"),
    ("Edinburgh", "Brussels"),
    ("Milan", "Copenhagen"),
    ("Copenhagen", "Brussels"),
    ("Copenhagen", "Vilnius"),
    ("Milan", "Riga"),
    ("Riga", "Brussels"),
)

_TASK1_ONE_WAY = (("Riga", "Vilnius"),)


def appendix_b_task1() -> ProblemInstance:
    """The six-city Appendix B trip, with its one valid itinerary as ground
    truth."""
    flights: set[tuple[str, str]] = set()
    for a, b in _TASK1_BIDIRECTIONAL:
        flights.add((a, b))
        flights.add((b, a))
    flights.update(_TASK1_ONE_WAY)
    payload = TripPayload(
        cities=("Riga", "Edinburgh", "Milan", "Copenhagen", "Vilnius", "Brussels"),
        total_days=16,
        stays={
            "Riga": 3,
            "Edinburgh": 4,
            "Milan": 2,
            "Copenhagen": 4,
            "Vilnius": 5,
            "Brussels": 3,
        },
        windows={
            "Milan": TripWindow(start=4, end=5, label="wedding"),
            "Copenhagen": TripWindow(start=5, end=8, label="visit relatives"),
            "Vilnius": TripWindow(start=10, end=14, label="workshop"),
        },
        flights=frozenset(flights),
    )
    order = ("Edinburgh", "Milan", "Copenhagen", "Riga", "Vilnius", "Brussels")
    return ProblemInstance(
        id="appendixB-task1",
        kind=TaskKind.TRIP_PLANNING,
        level=6,
        seed=0,
        payload=payload,
        ground_truth=TripPlan(legs=trip_legs_for_order(payload, order)),
    )

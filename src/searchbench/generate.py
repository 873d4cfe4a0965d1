"""Seeded instance generation with a controlled difficulty ladder.

Every generator is a pure function of (kind, level, seed): the same triple
always reproduces the same payload bit for bit.  Hard instances are built
solution-first — plant a solution, add constraints and distractors around it —
then checked with the exact solver; a failed check (e.g. a non-unique trip
plan) moves to the next derived sub-seed rather than perturbing in place, so
determinism survives regeneration.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

from .solver import (
    count_trip_plans,
    matching_witness,
    min_cover_size,
    optimal_schedule,
    solve_payload,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    trip_legs_for_order,
)
from .tasks import (
    Friend,
    MeetingPayload,
    ProblemInstance,
    TaskError,
    TaskKind,
    ThreeDMPayload,
    TripPayload,
    TripPlan,
    TripWindow,
    VertexCoverPayload,
)


class UnsupportedLevelError(TaskError):
    """The difficulty table has no row for the requested level."""


class UnknownFixtureError(TaskError):
    """No bundled fixture has the requested name."""


class RegenBudgetExhaustedError(TaskError):
    """No attempt within the regeneration budget produced a well-formed instance."""


# ---------------------------------------------------------------------------
# Difficulty table: every size column is strictly increasing in level, so a
# higher level is never a smaller search space.  Swap values here to re-shape
# the ladder; no generator code depends on the specific numbers.
# ---------------------------------------------------------------------------

MIN_LEVEL = 1
MAX_LEVEL = 10

DIFFICULTY_TABLE: dict[int, dict[str, int]] = {
    1: {"trip_cities": 1, "trip_days": 4, "cover_vertices": 6, "threedm_axis": 3, "meeting_friends": 1},
    2: {"trip_cities": 2, "trip_days": 7, "cover_vertices": 8, "threedm_axis": 4, "meeting_friends": 2},
    3: {"trip_cities": 3, "trip_days": 9, "cover_vertices": 10, "threedm_axis": 5, "meeting_friends": 3},
    4: {"trip_cities": 4, "trip_days": 11, "cover_vertices": 12, "threedm_axis": 6, "meeting_friends": 4},
    5: {"trip_cities": 5, "trip_days": 14, "cover_vertices": 14, "threedm_axis": 7, "meeting_friends": 5},
    6: {"trip_cities": 6, "trip_days": 16, "cover_vertices": 16, "threedm_axis": 8, "meeting_friends": 6},
    7: {"trip_cities": 7, "trip_days": 18, "cover_vertices": 18, "threedm_axis": 9, "meeting_friends": 7},
    8: {"trip_cities": 8, "trip_days": 21, "cover_vertices": 20, "threedm_axis": 10, "meeting_friends": 8},
    9: {"trip_cities": 9, "trip_days": 23, "cover_vertices": 22, "threedm_axis": 11, "meeting_friends": 9},
    10: {"trip_cities": 10, "trip_days": 25, "cover_vertices": 24, "threedm_axis": 12, "meeting_friends": 10},
}

STAY_MIN, STAY_MAX = 2, 5
COVER_EDGE_DENSITY = 0.35
DISTRACTOR_FLIGHT_DENSITY = 0.4
ONE_WAY_FLIGHT_SHARE = 0.25
THREEDM_TRIPLES_PER_ELEMENT = 3
MEETING_DAY_START = 9 * 60
MEETING_DAY_END = 22 * 60
MAX_REGEN = 100  # attempts per instance before generation gives up

CITY_POOL: tuple[str, ...] = (
    "Amsterdam", "Athens", "Barcelona", "Berlin", "Brussels", "Bucharest",
    "Budapest", "Copenhagen", "Dublin", "Dubrovnik", "Edinburgh", "Florence",
    "Geneva", "Hamburg", "Helsinki", "Istanbul", "Krakow", "Lisbon", "London",
    "Lyon", "Madrid", "Manchester", "Milan", "Munich", "Naples", "Nice",
    "Oslo", "Paris", "Porto", "Prague", "Reykjavik", "Riga", "Rome",
    "Salzburg", "Santorini", "Seville", "Sofia", "Stockholm", "Stuttgart",
    "Tallinn", "Valencia", "Venice", "Vienna", "Vilnius", "Warsaw", "Zurich",
)

WINDOW_LABELS: tuple[str, ...] = (
    "wedding", "visit relatives", "workshop", "meet your friends",
    "annual show", "conference",
)

FRIEND_POOL: tuple[str, ...] = (
    "Alice", "Brian", "Carol", "David", "Emma", "Frank", "Grace", "Henry",
    "Isabel", "James", "Karen", "Liam", "Mary", "Noah", "Olivia", "Paul",
    "Quinn", "Rachel", "Samuel", "Teresa", "Victor", "Wendy",
)

LOCATION_POOL: tuple[str, ...] = (
    "Alamo Square", "Bayview", "Chinatown", "Embarcadero", "Fisherman's Wharf",
    "Golden Gate Park", "Haight-Ashbury", "Marina District", "Mission District",
    "Nob Hill", "North Beach", "Pacific Heights", "Presidio",
    "Richmond District", "Russian Hill", "Sunset District", "Union Square",
)


@dataclass(frozen=True)
class GenSpec:
    kind: TaskKind
    level: int
    seed: int

    def __post_init__(self) -> None:
        if self.level not in DIFFICULTY_TABLE:
            raise UnsupportedLevelError(
                f"level {self.level} outside [{MIN_LEVEL}, {MAX_LEVEL}]"
            )


def _subseed(seed: int, attempt: int, salt: str) -> int:
    digest = hashlib.sha256(f"{salt}:{seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def instance_id(kind: TaskKind, level: int, seed: int) -> str:
    return f"{kind.value}-L{level}-s{seed}"


def _stay_composition(rng: random.Random, parts: int, total: int) -> list[int]:
    """Random composition of ``total`` into ``parts`` values in [STAY_MIN, STAY_MAX]."""
    extra = total - STAY_MIN * parts
    if extra < 0 or extra > (STAY_MAX - STAY_MIN) * parts:
        raise UnsupportedLevelError(
            f"stay range cannot realize {total} days over {parts} cities"
        )
    stays = [STAY_MIN] * parts
    while extra > 0:
        i = rng.randrange(parts)
        if stays[i] < STAY_MAX:
            stays[i] += 1
            extra -= 1
    return stays


def _build_trip(level: int, rng: random.Random) -> tuple[TripPayload, TripPlan] | None:
    row = DIFFICULTY_TABLE[level]
    n = row["trip_cities"]
    total_days = row["trip_days"]
    cities = tuple(rng.sample(CITY_POOL, n))
    stay_values = _stay_composition(rng, n, total_days + n - 1)
    stays = dict(zip(cities, stay_values))

    order = list(cities)
    rng.shuffle(order)
    legs = {}
    day = 1
    for city in order:
        end = day + stays[city] - 1
        legs[city] = (day, end)
        day = end

    windows: dict[str, TripWindow] = {}
    pinnable = list(range(1, n))  # never pin the start city
    if pinnable:
        want = min(len(pinnable), rng.randint(2, 3))
        chosen = sorted(rng.sample(pinnable, want))
        labels = rng.sample(WINDOW_LABELS, want)
        for label, pos in zip(labels, chosen):
            city = order[pos]
            start, end = legs[city]
            windows[city] = TripWindow(start=start, end=end, label=label)

    flights: set[tuple[str, str]] = set()
    for a, b in zip(order, order[1:]):
        flights.add((a, b))
        flights.add((b, a))
    path_pairs = {frozenset(p) for p in zip(order, order[1:])}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cities[i], cities[j]
            if frozenset((a, b)) in path_pairs:
                continue
            if rng.random() >= DISTRACTOR_FLIGHT_DENSITY:
                continue
            if rng.random() < ONE_WAY_FLIGHT_SHARE:
                flights.add((a, b) if rng.random() < 0.5 else (b, a))
            else:
                flights.add((a, b))
                flights.add((b, a))

    payload = TripPayload(
        cities=cities,
        total_days=total_days,
        stays=stays,
        windows=windows,
        flights=frozenset(flights),
    )
    if count_trip_plans(payload, limit=2) != 1:
        return None
    return payload, TripPlan(legs=trip_legs_for_order(payload, order))


def _build_cover(level: int, rng: random.Random):
    n = DIFFICULTY_TABLE[level]["cover_vertices"]
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < COVER_EDGE_DENSITY
    )
    if not edges:
        return None
    size, cover = min_cover_size(n, edges)
    return VertexCoverPayload(vertex_count=n, edges=edges, target_size=size), cover


def _build_threedm(level: int, rng: random.Random):
    # The planted matching is always offered and the search is complete, so
    # every candidate is solvable; the witness is the traced search's matching.
    n = DIFFICULTY_TABLE[level]["threedm_axis"]
    total = THREEDM_TRIPLES_PER_ELEMENT * n
    perm_y = list(range(n))
    perm_z = list(range(n))
    rng.shuffle(perm_y)
    rng.shuffle(perm_z)
    triples = {(i, perm_y[i], perm_z[i]) for i in range(n)}
    while len(triples) < total:
        triples.add(
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        )
    payload = ThreeDMPayload(n=n, triples=tuple(sorted(triples)))
    return payload, matching_witness(payload)


def _build_meeting(level: int, rng: random.Random):
    n = DIFFICULTY_TABLE[level]["meeting_friends"]
    locations = tuple(rng.sample(LOCATION_POOL, n + 1))
    start_location = locations[0]
    names = rng.sample(FRIEND_POOL, n)
    spots = list(locations[1:])
    rng.shuffle(spots)
    friends = []
    for name, spot in zip(names, spots):
        w_start = rng.randrange(MEETING_DAY_START, 20 * 60 + 1, 15)
        length = rng.randrange(45, 241, 15)
        w_end = min(w_start + length, MEETING_DAY_END)
        choices = [m for m in (15, 30, 45, 60) if m <= w_end - w_start]
        friends.append(
            Friend(
                name=name,
                location=spot,
                avail_start=w_start,
                avail_end=w_end,
                min_minutes=rng.choice(choices),
            )
        )
    travel = {}
    for i in range(len(locations)):
        for j in range(i + 1, len(locations)):
            a, b = sorted((locations[i], locations[j]))
            travel[(a, b)] = rng.randrange(5, 31)
    payload = MeetingPayload(
        locations=locations,
        start_location=start_location,
        day_start=MEETING_DAY_START,
        travel_minutes=travel,
        friends=tuple(friends),
    )
    count, schedule = optimal_schedule(payload)
    if count < 1:
        return None
    return payload, schedule


#: kind -> (sub-seed salt, builder).  A builder turns one attempt's RNG into
#: (payload, ground truth), or None when the candidate must be regenerated.
_BUILDERS = {
    TaskKind.TRIP_PLANNING: ("trip", _build_trip),
    TaskKind.VERTEX_COVER: ("cover", _build_cover),
    TaskKind.THREE_DM: ("threedm", _build_threedm),
    TaskKind.MEETING_PLANNING: ("meeting", _build_meeting),
}


def generate(spec: GenSpec) -> ProblemInstance:
    salt, build = _BUILDERS[spec.kind]
    for attempt in range(MAX_REGEN):
        built = build(spec.level, random.Random(_subseed(spec.seed, attempt, salt)))
        if built is not None:
            payload, ground_truth = built
            return ProblemInstance(
                id=instance_id(spec.kind, spec.level, spec.seed),
                kind=spec.kind,
                level=spec.level,
                seed=spec.seed,
                payload=payload,
                ground_truth=ground_truth,
            )
    raise RegenBudgetExhaustedError(
        f"no usable {spec.kind.value} instance for level {spec.level}, "
        f"seed {spec.seed} within {MAX_REGEN} attempts"
    )


# ---------------------------------------------------------------------------
# Generating many instances on every usable CPU
# ---------------------------------------------------------------------------


class GenerationChildError(TaskError):
    """A generation worker process died before sending its instances."""


def generate_all(specs: Sequence[GenSpec]) -> list[ProblemInstance]:
    """``[generate(s) for s in specs]``, spread over every usable CPU.

    The width is the number of usable CPUs, at most one per spec.  At width 2
    or more, chunks of ``specs`` go to a process pool of that many forked
    workers; below that, or without ``os.fork``, the loop runs in this
    process.  ``map`` yields in spec order and a chunk stops at its first
    failure, so the records and the first failure raised are the serial
    loop's.  Every worker is reaped before this returns or raises.

    A fork-context pool forks all its workers before it starts its manager
    thread (CPython issue 90622), and fork copies only the calling thread, so
    call this before any other thread starts: a lock another thread holds at
    the fork stays held in the child for good.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    width = min(len(specs), cpus) if hasattr(os, "fork") else 1
    if width < 2:
        return [generate(s) for s in specs]
    pool = ProcessPoolExecutor(width, mp_context=multiprocessing.get_context("fork"))
    try:
        # Several chunks per worker, so that no worker gets a whole task
        # of a task-ordered spec list.
        return list(pool.map(generate, specs, chunksize=math.ceil(len(specs) / (8 * width))))
    except BrokenProcessPool as err:
        raise GenerationChildError(
            "a generation worker died before sending its instances"
        ) from err
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Exemplar provisioning: worked examples shown inside prompts come from a
# dedicated seed namespace so they can never collide with target instances.
# ---------------------------------------------------------------------------

EXEMPLAR_LEVEL = 6


def exemplar_instance(kind: TaskKind, index: int) -> ProblemInstance:
    seed = _subseed(0, index, f"exemplar:{kind.value}")
    return generate(GenSpec(kind=kind, level=EXEMPLAR_LEVEL, seed=seed))


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------

FIXTURE_NAMES = ("appendixB-task1",)

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


def load_fixture(name: str) -> ProblemInstance:
    """Bundled reference instances with known-good solutions."""
    if name not in FIXTURE_NAMES:
        raise UnknownFixtureError(f"unknown fixture: {name!r}")
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

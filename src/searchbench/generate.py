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
import random
from dataclasses import dataclass

# The builders stay here, not in the family modules: perfbench/tracing.py
# wraps min_cover_size, count_trip_plans, optimal_schedule and solve_payload
# as this module's globals, and the builders call the solvers through them.
from .cover import VertexCoverPayload, min_cover_size
from .meeting import Friend, MeetingPayload, optimal_schedule
from .solver import solve_payload  # noqa: F401
from .threedm import ThreeDMPayload, matching_witness
from .trip import TripPayload, TripPlan, TripWindow, count_trip_plans, trip_legs_for_order
from .tasks import ProblemInstance, TaskError, TaskKind


class UnsupportedLevelError(TaskError):
    """The difficulty table has no row for the requested level."""


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
MAX_REGEN = 1000  # attempts per instance before generation gives up

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


def _reversed_run_order(
    order: list[str], windows: dict[str, TripWindow], flights: set[tuple[str, str]]
) -> list[str] | None:
    """A second plan beside the planted ``order``, or None when this finds none.

    It reverses the first run ``order[i..j]`` (``j > i``) that holds no
    windowed city and whose ends join their outer neighbours by flights.
    Every path pair is a flight both ways and the run keeps its day range,
    so the result keeps every flight and every windowed city's leg.
    """
    n = len(order)
    for i in range(n - 1):
        if order[i] in windows:
            continue
        for j in range(i + 1, n):
            if order[j] in windows:
                break
            if (i == 0 or (order[i - 1], order[j]) in flights) and (
                j == n - 1 or (order[i], order[j + 1]) in flights
            ):
                return order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
    return None


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
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cities[i], cities[j]
            # Each pair comes up once, so (a, b) is a flight yet only on the path.
            if (a, b) in flights:
                continue
            if rng.random() >= DISTRACTOR_FLIGHT_DENSITY:
                continue
            if rng.random() < ONE_WAY_FLIGHT_SHARE:
                flights.add((a, b) if rng.random() < 0.5 else (b, a))
            else:
                flights.add((a, b))
                flights.add((b, a))

    if _reversed_run_order(order, windows, flights) is not None:
        return None
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
# Exemplar provisioning: worked examples shown inside prompts come from a
# dedicated seed namespace, so their seeds never collide with target seeds.
# Their content can still equal a target's.
# ---------------------------------------------------------------------------

EXEMPLAR_LEVEL = 6


def exemplar_instance(kind: TaskKind, index: int) -> ProblemInstance:
    seed = _subseed(0, index, f"exemplar:{kind.value}")
    return generate(GenSpec(kind=kind, level=EXEMPLAR_LEVEL, seed=seed))

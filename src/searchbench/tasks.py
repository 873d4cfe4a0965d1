"""Core task domain: problem payloads, solutions, verdicts and day/time arithmetic.

Four task families are supported, all of them hard-search planning problems with
exactly checkable answers:

* ``TripPlanning``    -- order a set of city stays into one contiguous itinerary
                         connected by direct flights, hitting fixed event windows.
* ``VertexCover``     -- pick an optimal-size vertex cover of an undirected graph.
* ``ThreeDM``         -- pick ``n`` disjoint triples covering three element axes.
* ``MeetingPlanning`` -- meet as many friends as possible under travel times and
                         availability windows.

Everything here is an immutable value object; solvers, generators, renderers and
verifiers live in sibling modules and only consume these types.  Every payload
and solution class names its task in the class attribute ``kind``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Mapping, TypeVar, Union

T = TypeVar("T")


class TaskError(Exception):
    """Base class for domain-level errors."""


class InputFileError(TaskError):
    """An input file cannot be opened, or one of its lines cannot be read."""


class UnknownCityError(TaskError):
    """A plan references a city the payload does not know about."""


class KindMismatchError(TaskError):
    """A solution of one task kind was paired with a payload of another."""


class TaskKind(str, Enum):
    VERTEX_COVER = "VertexCover"
    THREE_DM = "ThreeDM"
    TRIP_PLANNING = "TripPlanning"
    MEETING_PLANNING = "MeetingPlanning"


# ---------------------------------------------------------------------------
# Trip planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripWindow:
    """A fixed event window: the stay at ``city`` must cover days [start, end]."""

    start: int
    end: int
    label: str


@dataclass(frozen=True)
class TripPayload:
    """An itinerary puzzle over direct flights.

    Day ranges are closed intervals starting at day 1, and consecutive cities
    share their transition day: the flight day is the last day of one stay and
    the first day of the next.

    ``cities`` carries the statement/declaration order, which is meaningful:
    solvers iterate start candidates in this order.  ``flights`` holds
    *directed* pairs; a bidirectional route simply appears twice.

    It needs at least one city.  Its cities must be distinct and be the keys
    of ``stays``, its windows and flights may name no other city, and
    ``total_days == 1 + Σ(stay − 1)``, so every ordering ends on the last
    day: solvers and verifier assume all five.
    """

    kind: ClassVar[TaskKind] = TaskKind.TRIP_PLANNING
    cities: tuple[str, ...]
    total_days: int
    stays: Mapping[str, int]
    windows: Mapping[str, TripWindow]
    flights: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.cities:
            raise ValueError("a trip needs at least one city")
        known = set(self.cities)
        if len(known) != len(self.cities) or known != self.stays.keys():
            raise ValueError(
                f"cities {list(self.cities)} repeat or differ from stays {sorted(self.stays)}"
            )
        unknown = ({c for pair in self.flights for c in pair} | self.windows.keys()) - known
        if unknown:
            raise ValueError(f"windows or flights name unknown cities {sorted(unknown)}")
        days = 1 + sum(stay - 1 for stay in self.stays.values())
        if days != self.total_days:
            raise ValueError(f"stays fill {days} days, not total_days {self.total_days}")

    def stay_of(self, city: str) -> int:
        try:
            return self.stays[city]
        except KeyError:
            raise UnknownCityError(f"unknown city: {city!r}") from None

    def window_of(self, city: str) -> TripWindow | None:
        return self.windows.get(city)

    def has_flight(self, origin: str, dest: str) -> bool:
        return (origin, dest) in self.flights


@dataclass(frozen=True)
class TripLeg:
    city: str
    day_from: int
    day_to: int

    @property
    def span(self) -> int:
        return self.day_to - self.day_from + 1


@dataclass(frozen=True)
class TripPlan:
    kind: ClassVar[TaskKind] = TaskKind.TRIP_PLANNING
    legs: tuple[TripLeg, ...]

    @property
    def cities(self) -> tuple[str, ...]:
        return tuple(leg.city for leg in self.legs)


# ---------------------------------------------------------------------------
# Vertex cover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexCoverPayload:
    """An undirected graph plus the target cover size (the known optimum)."""

    kind: ClassVar[TaskKind] = TaskKind.VERTEX_COVER
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    target_size: int

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) must be stored with u < v")


@dataclass(frozen=True)
class CoverSet:
    kind: ClassVar[TaskKind] = TaskKind.VERTEX_COVER
    vertices: frozenset[int]


# ---------------------------------------------------------------------------
# Three-dimensional matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeDMPayload:
    """Triples over three disjoint axes x/y/z, each axis of size ``n``."""

    kind: ClassVar[TaskKind] = TaskKind.THREE_DM
    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for t in self.triples:
            if any(not (0 <= c < self.n) for c in t):
                raise ValueError(f"triple {t} outside element range")


@dataclass(frozen=True)
class Matching:
    kind: ClassVar[TaskKind] = TaskKind.THREE_DM
    triples: frozenset[tuple[int, int, int]]


# ---------------------------------------------------------------------------
# Meeting planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Friend:
    name: str
    location: str
    avail_start: int  # minutes of day
    avail_end: int
    min_minutes: int


@dataclass(frozen=True)
class MeetingPayload:
    """A one-day meeting tour.

    Times are minutes of day in [0, 1439].  The tour begins at ``day_start``
    at ``start_location``; travel times are symmetric and given per unordered
    location pair, for every pair of places the start and the friends name.
    No two friend names are alike once lower-cased, so a name the verifier
    reads names one friend.
    """

    kind: ClassVar[TaskKind] = TaskKind.MEETING_PLANNING
    locations: tuple[str, ...]
    start_location: str
    day_start: int
    travel_minutes: Mapping[tuple[str, str], int]
    friends: tuple[Friend, ...]

    def __post_init__(self) -> None:
        # The exact solvers' bounds assume the clock never runs backwards.
        for (a, b), minutes in self.travel_minutes.items():
            if minutes < 0:
                raise ValueError(f"negative travel time between {a!r} and {b!r}: {minutes}")
        names: set[str] = set()
        for f in self.friends:
            if f.min_minutes < 0:
                raise ValueError(f"negative min_minutes for {f.name!r}: {f.min_minutes}")
            if f.name.lower() in names:
                raise ValueError(f"friend name {f.name!r} repeats, ignoring case")
            names.add(f.name.lower())
        places = sorted({self.start_location, *(f.location for f in self.friends)})
        for i, a in enumerate(places):
            for b in places[i + 1:]:
                if (a, b) not in self.travel_minutes:
                    raise ValueError(f"no travel time between {a!r} and {b!r}")

    def travel(self, a: str, b: str) -> int:
        if a == b:
            return 0
        key = (a, b) if a <= b else (b, a)
        try:
            return self.travel_minutes[key]
        except KeyError:
            raise UnknownCityError(f"no travel time between {a!r} and {b!r}") from None

    def friends_by_name(self) -> dict[str, Friend]:
        """Each friend under their lower-cased name, which no other friend's
        name shares."""
        return {f.name.lower(): f for f in self.friends}


@dataclass(frozen=True)
class Meeting:
    friend: str
    location: str
    start: int
    end: int


@dataclass(frozen=True)
class MeetingSchedule:
    kind: ClassVar[TaskKind] = TaskKind.MEETING_PLANNING
    meetings: tuple[Meeting, ...]


Payload = Union[TripPayload, VertexCoverPayload, ThreeDMPayload, MeetingPayload]
Solution = Union[TripPlan, CoverSet, Matching, MeetingSchedule]


# ---------------------------------------------------------------------------
# Instances and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemInstance:
    id: str
    kind: TaskKind
    level: int
    seed: int
    payload: Payload
    ground_truth: Solution

    def __post_init__(self) -> None:
        if self.payload.kind is not self.kind:
            raise KindMismatchError(f"payload kind {self.payload.kind.value} != {self.kind.value}")
        if self.ground_truth.kind is not self.kind:
            raise KindMismatchError(f"ground truth kind {self.ground_truth.kind.value} != {self.kind.value}")

    @functools.cached_property
    def statement(self) -> str:
        """``prompts.statement_text`` of the payload, built on first use: a
        run renders it into every mode's prompt and the oracle keys on it."""
        from .prompts import statement_text  # prompts imports this module

        return statement_text(self.payload)


class VerdictStatus(str, Enum):
    SUCCESS = "Success"
    WRONG_ANSWER = "WrongAnswer"
    CONSTRAINT_VIOLATION = "ConstraintViolation"
    PARSE_FAILURE = "ParseFailure"
    BACKEND_ERROR = "BackendError"


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status is VerdictStatus.SUCCESS


def minutes_to_clock(minutes: int) -> str:
    """Render minutes-of-day as H:MM (24h, no leading zero on the hour)."""
    if not (0 <= minutes < 24 * 60):
        raise ValueError(f"minutes of day out of range: {minutes}")
    hours, mins = divmod(minutes, 60)
    return f"{hours}:{mins:02d}"


# ---------------------------------------------------------------------------
# Serialization: one self-describing JSON record per instance, one per line
# ---------------------------------------------------------------------------


def _payload_to_json(payload: Payload) -> dict:
    if isinstance(payload, TripPayload):
        return {
            "cities": list(payload.cities),
            "total_days": payload.total_days,
            "stays": {c: payload.stays[c] for c in payload.cities},
            "windows": {
                c: [w.start, w.end, w.label]
                for c, w in sorted(payload.windows.items())
            },
            "flights": sorted(list(pair) for pair in payload.flights),
        }
    if isinstance(payload, VertexCoverPayload):
        return {
            "vertex_count": payload.vertex_count,
            "edges": [list(e) for e in payload.edges],
            "target_size": payload.target_size,
        }
    if isinstance(payload, ThreeDMPayload):
        return {"n": payload.n, "triples": [list(t) for t in payload.triples]}
    return {
        "locations": list(payload.locations),
        "start_location": payload.start_location,
        "day_start": payload.day_start,
        "travel_minutes": [
            [a, b, t] for (a, b), t in sorted(payload.travel_minutes.items())
        ],
        "friends": [
            {
                "name": f.name,
                "location": f.location,
                "window": [f.avail_start, f.avail_end],
                "min_minutes": f.min_minutes,
            }
            for f in payload.friends
        ],
    }


def _payload_from_json(kind: TaskKind, data: dict) -> Payload:
    if kind is TaskKind.TRIP_PLANNING:
        return TripPayload(
            cities=tuple(data["cities"]),
            total_days=data["total_days"],
            stays=dict(data["stays"]),
            windows={
                c: TripWindow(start=w[0], end=w[1], label=w[2])
                for c, w in data["windows"].items()
            },
            flights=frozenset((a, b) for a, b in data["flights"]),
        )
    if kind is TaskKind.VERTEX_COVER:
        return VertexCoverPayload(
            vertex_count=data["vertex_count"],
            edges=tuple((u, v) for u, v in data["edges"]),
            target_size=data["target_size"],
        )
    if kind is TaskKind.THREE_DM:
        return ThreeDMPayload(
            n=data["n"], triples=tuple((x, y, z) for x, y, z in data["triples"])
        )
    return MeetingPayload(
        locations=tuple(data["locations"]),
        start_location=data["start_location"],
        day_start=data["day_start"],
        travel_minutes=_travel_from_json(data["travel_minutes"]),
        friends=tuple(
            Friend(
                name=f["name"],
                location=f["location"],
                avail_start=f["window"][0],
                avail_end=f["window"][1],
                min_minutes=f["min_minutes"],
            )
            for f in data["friends"]
        ),
    )


def _travel_from_json(rows) -> dict[tuple[str, str], int]:
    """Travel times keyed by sorted place pair, as ``MeetingPayload.travel``
    looks them up; a pair given twice, in either order, is a ValueError."""
    travel: dict[tuple[str, str], int] = {}
    for a, b, minutes in rows:
        key = (a, b) if a <= b else (b, a)
        if key in travel:
            raise ValueError(f"travel time between {a!r} and {b!r} given twice")
        travel[key] = minutes
    return travel


def _solution_to_json(solution: Solution) -> dict:
    if isinstance(solution, TripPlan):
        return {"legs": [[l.city, l.day_from, l.day_to] for l in solution.legs]}
    if isinstance(solution, CoverSet):
        return {"vertices": sorted(solution.vertices)}
    if isinstance(solution, Matching):
        return {"triples": sorted(list(t) for t in solution.triples)}
    return {
        "meetings": [
            [m.friend, m.location, m.start, m.end] for m in solution.meetings
        ]
    }


def _solution_from_json(kind: TaskKind, data: dict) -> Solution:
    if kind is TaskKind.TRIP_PLANNING:
        return TripPlan(
            legs=tuple(TripLeg(city=c, day_from=a, day_to=b) for c, a, b in data["legs"])
        )
    if kind is TaskKind.VERTEX_COVER:
        return CoverSet(vertices=frozenset(data["vertices"]))
    if kind is TaskKind.THREE_DM:
        return Matching(triples=frozenset((x, y, z) for x, y, z in data["triples"]))
    return MeetingSchedule(
        meetings=tuple(
            Meeting(friend=f, location=l, start=s, end=e)
            for f, l, s, e in data["meetings"]
        )
    )


def instance_to_record(instance: ProblemInstance) -> dict:
    return {
        "id": instance.id,
        "kind": instance.kind.value,
        "level": instance.level,
        "seed": instance.seed,
        "payload": _payload_to_json(instance.payload),
        "ground_truth": _solution_to_json(instance.ground_truth),
    }


def instance_from_record(record: dict) -> ProblemInstance:
    kind = TaskKind(record["kind"])
    return ProblemInstance(
        id=record["id"],
        kind=kind,
        level=record["level"],
        seed=record["seed"],
        payload=_payload_from_json(kind, record["payload"]),
        ground_truth=_solution_from_json(kind, record["ground_truth"]),
    )


def write_instances(path: str | Path, instances: Iterable[ProblemInstance]) -> int:
    """Write instances as line-delimited JSON records; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_record(inst), sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path: str | Path, convert: Callable[[Any], T]) -> list[T]:
    """``convert`` applied to each non-blank JSON line of ``path``.

    A file that cannot be opened, or a line that is not JSON or that
    ``convert`` rejects with a missing key or a bad value, is an
    InputFileError naming ``path:line``.
    """
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    out.append(convert(json.loads(line)))
                except json.JSONDecodeError as err:
                    raise InputFileError(f"{path}:{number}: not JSON ({err})") from None
                except KeyError as err:
                    raise InputFileError(f"{path}:{number}: missing key {err}") from None
                except (TypeError, ValueError, TaskError) as err:
                    raise InputFileError(f"{path}:{number}: {err}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise InputFileError(f"cannot read {path}: {err}") from None
    return out


def read_instances(path: str | Path) -> list[ProblemInstance]:
    """An instance file; a repeated instance id is an InputFileError naming
    the line of its second occurrence (bundles and verdicts are keyed by id)."""
    seen: set[str] = set()

    def convert(record) -> ProblemInstance:
        instance = instance_from_record(record)
        if instance.id in seen:
            raise InputFileError(f"repeated instance id {instance.id!r}")
        seen.add(instance.id)
        return instance

    return read_jsonl(path, convert)

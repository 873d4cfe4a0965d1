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
verifiers live in sibling modules and only consume these types.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, TypeVar, Union

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
    """

    cities: tuple[str, ...]
    total_days: int
    stays: Mapping[str, int]
    windows: Mapping[str, TripWindow]
    flights: frozenset[tuple[str, str]]

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
    vertices: frozenset[int]


# ---------------------------------------------------------------------------
# Three-dimensional matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeDMPayload:
    """Triples over three disjoint axes x/y/z, each axis of size ``n``."""

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for t in self.triples:
            if any(not (0 <= c < self.n) for c in t):
                raise ValueError(f"triple {t} outside element range")


@dataclass(frozen=True)
class Matching:
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
    location pair.
    """

    locations: tuple[str, ...]
    start_location: str
    day_start: int
    travel_minutes: Mapping[tuple[str, str], int]
    friends: tuple[Friend, ...]

    def travel(self, a: str, b: str) -> int:
        if a == b:
            return 0
        key = (a, b) if a <= b else (b, a)
        try:
            return self.travel_minutes[key]
        except KeyError:
            raise UnknownCityError(f"no travel time between {a!r} and {b!r}") from None

    def friend_named(self, name: str) -> Friend | None:
        lowered = name.lower()
        for f in self.friends:
            if f.name.lower() == lowered:
                return f
        return None


@dataclass(frozen=True)
class Meeting:
    friend: str
    location: str
    start: int
    end: int


@dataclass(frozen=True)
class MeetingSchedule:
    meetings: tuple[Meeting, ...]


Payload = Union[TripPayload, VertexCoverPayload, ThreeDMPayload, MeetingPayload]
Solution = Union[TripPlan, CoverSet, Matching, MeetingSchedule]

_PAYLOAD_KINDS: tuple[tuple[type, TaskKind], ...] = (
    (TripPayload, TaskKind.TRIP_PLANNING),
    (VertexCoverPayload, TaskKind.VERTEX_COVER),
    (ThreeDMPayload, TaskKind.THREE_DM),
    (MeetingPayload, TaskKind.MEETING_PLANNING),
)

_SOLUTION_KINDS: tuple[tuple[type, TaskKind], ...] = (
    (TripPlan, TaskKind.TRIP_PLANNING),
    (CoverSet, TaskKind.VERTEX_COVER),
    (Matching, TaskKind.THREE_DM),
    (MeetingSchedule, TaskKind.MEETING_PLANNING),
)


def payload_kind(payload: Payload) -> TaskKind:
    for cls, kind in _PAYLOAD_KINDS:
        if isinstance(payload, cls):
            return kind
    raise KindMismatchError(f"not a payload: {type(payload).__name__}")


def solution_kind(solution: Solution) -> TaskKind:
    for cls, kind in _SOLUTION_KINDS:
        if isinstance(solution, cls):
            return kind
    raise KindMismatchError(f"not a solution: {type(solution).__name__}")


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
        if payload_kind(self.payload) is not self.kind:
            raise KindMismatchError(
                f"payload kind {payload_kind(self.payload)} != {self.kind}"
            )
        if solution_kind(self.ground_truth) is not self.kind:
            raise KindMismatchError(
                f"ground truth kind {solution_kind(self.ground_truth)} != {self.kind}"
            )


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
    if isinstance(payload, MeetingPayload):
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
    raise KindMismatchError(f"not a payload: {type(payload).__name__}")


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
    if kind is TaskKind.MEETING_PLANNING:
        return MeetingPayload(
            locations=tuple(data["locations"]),
            start_location=data["start_location"],
            day_start=data["day_start"],
            travel_minutes={(a, b): t for a, b, t in data["travel_minutes"]},
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
    raise KindMismatchError(f"unknown kind: {kind}")


def _solution_to_json(solution: Solution) -> dict:
    if isinstance(solution, TripPlan):
        return {"legs": [[l.city, l.day_from, l.day_to] for l in solution.legs]}
    if isinstance(solution, CoverSet):
        return {"vertices": sorted(solution.vertices)}
    if isinstance(solution, Matching):
        return {"triples": sorted(list(t) for t in solution.triples)}
    if isinstance(solution, MeetingSchedule):
        return {
            "meetings": [
                [m.friend, m.location, m.start, m.end] for m in solution.meetings
            ]
        }
    raise KindMismatchError(f"not a solution: {type(solution).__name__}")


def _solution_from_json(kind: TaskKind, data: dict) -> Solution:
    if kind is TaskKind.TRIP_PLANNING:
        return TripPlan(
            legs=tuple(TripLeg(city=c, day_from=a, day_to=b) for c, a, b in data["legs"])
        )
    if kind is TaskKind.VERTEX_COVER:
        return CoverSet(vertices=frozenset(data["vertices"]))
    if kind is TaskKind.THREE_DM:
        return Matching(triples=frozenset((x, y, z) for x, y, z in data["triples"]))
    if kind is TaskKind.MEETING_PLANNING:
        return MeetingSchedule(
            meetings=tuple(
                Meeting(friend=f, location=l, start=s, end=e)
                for f, l, s, e in data["meetings"]
            )
        )
    raise KindMismatchError(f"unknown kind: {kind}")


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
    return read_jsonl(path, instance_from_record)

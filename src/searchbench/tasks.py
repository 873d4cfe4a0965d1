"""Core task domain: problem payloads, solutions, verdicts and day/time arithmetic.

Four task families are supported, all of them hard-search planning problems with
exactly checkable answers:

* ``TripPlanning``    -- order a set of city stays into one contiguous itinerary
                         connected by direct flights, hitting fixed event windows.
* ``VertexCover``     -- pick an optimal-size vertex cover of an undirected graph.
* ``ThreeDM``         -- pick ``n`` disjoint triples covering three element axes.
* ``MeetingPlanning`` -- meet as many friends as possible under travel times and
                         availability windows.

Everything here is an immutable value object.  Each task's statement, answer
format, parser, verifier and searches live in its own family module
(``trip``, ``cover``, ``threedm``, ``meeting``), which :func:`family` finds
by kind; the shared pipeline modules reach a task only through it.  Every
payload and solution class names its task in the class attribute ``kind``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, ClassVar, Iterable, Mapping, TextIO, TypeVar, Union

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


@functools.cache
def family(kind: TaskKind) -> ModuleType:
    """The module that holds everything particular to task ``kind``.

    Each family module defines the same names:

    - ``KIND``: its ``TaskKind``;
    - ``DISPLAY``, ``DESCRIPTION``: its report caption and its prompts' system text;
    - ``PREVIEW_HEADER``, ``STATE_DEFINITIONS``: a search step's preview label and
      an exemplar's state lines;
    - ``statement(payload)``, ``objective(payload)``, ``constraints(payload)``:
      the question and an exemplar's sections;
    - ``canonical_text(payload, solution)``, ``output(payload, solution)``: an
      answer as exemplars write it, and an exemplar's output phase;
    - ``parse(text, payload)``, ``verify(payload, truth, candidate)``: a
      ``ParseReport`` from model text and a ``Verdict`` on a candidate;
    - ``dfs(payload)``, ``greedy(payload)``: its traced searches.

    Each also holds its exact ground-truth solver, which ``generate``'s
    builders call.  They import the pipeline modules, so they are imported
    here on first use.
    """
    from . import cover, meeting, threedm, trip

    return {task.KIND: task for task in (cover, meeting, threedm, trip)}[kind]


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
        if not 0 <= self.target_size <= self.vertex_count:
            raise ValueError(f"target_size {self.target_size} outside [0, {self.vertex_count}]")
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
        if not 0 <= self.day_start < 24 * 60:
            raise ValueError(f"day_start {self.day_start} is not a minute of the day in [0, 1439]")
        names: set[str] = set()
        for f in self.friends:
            if not (0 <= f.avail_start < 24 * 60 and 0 <= f.avail_end < 24 * 60):
                raise ValueError(
                    f"window {f.avail_start}-{f.avail_end} of {f.name!r} is not within "
                    "the minutes of the day [0, 1439]"
                )
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
        """The family's question for the payload, built on first use: a run
        renders it into every mode's prompt and the oracle keys on it."""
        return family(self.kind).statement(self.payload)


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


_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen", "twenty",
)


def number_word(n: int) -> str:
    return _NUMBER_WORDS[n] if 0 <= n < len(_NUMBER_WORDS) else str(n)


def minutes_to_clock(minutes: int) -> str:
    """Render minutes-of-day as H:MM (24h, no leading zero on the hour).  A
    time worked out past midnight reads on as 24:00, 24:15, ..."""
    if minutes < 0:
        raise ValueError(f"minutes of day out of range: {minutes}")
    hours, mins = divmod(minutes, 60)
    return f"{hours}:{mins:02d}"


# ---------------------------------------------------------------------------
# Serialization: one self-describing JSON record per instance, one per line
# ---------------------------------------------------------------------------

#: ``read_field``'s ``want`` for an integer >= 1
COUNT = "an integer >= 1"
_REQUIRED = object()
_WANTS = {str: "a string", int: "an integer", float: "a number", dict: "an object", COUNT: COUNT}


def read_field(doc, key, want, default=_REQUIRED, where: str = ""):
    """``doc[key]`` read as ``want``, from a JSON object or, by index, an array:

    - ``str`` or ``dict``: a JSON string or object, as it is; ``int``: an
      integer, which ``true`` is not; ``COUNT``: one >= 1; ``float``: any number;
    - an Enum class: the member whose value it is;
    - ``[item]``: an array, each element read as ``item``, as a list;
      ``(first, ...)``: an array of one element per entry, as a tuple.

    An absent key reads as ``default``, and so does null when ``default`` is
    None; with no default it is a KeyError.  Any other value is a ValueError
    naming ``where`` + ``key``, which ``read_jsonl`` reports as ``path:line``.
    """
    try:
        value = doc[key]
    except KeyError:
        if default is _REQUIRED:
            raise
        return default
    if type(value) is want:  # a bool's type is not int
        return value
    if value is None and default is None:
        return None
    return _read(value, want, f"{where}[{key}]" if type(key) is int else f"{where}{key}")


def _read(value, want, name: str):
    """The rest of ``read_field``, apart so that the common field, of the
    exact type, takes a small and fast frame."""
    if type(want) is list:
        if type(value) is list:
            return [read_field(value, i, want[0], where=name) for i in range(len(value))]
        what = "a list"
    elif type(want) is tuple:
        if type(value) is list and len(value) == len(want):
            return tuple(read_field(value, i, w, where=name) for i, w in enumerate(want))
        what = f"a list of {len(want)}"
    elif isinstance(want, type) and issubclass(want, Enum):
        for member in want:
            if type(value) is type(member.value) and value == member.value:
                return member
        what = f"one of {[m.value for m in want]}"
    else:
        if (want is float and type(value) is int
                or want is COUNT and type(value) is int and value >= 1):
            return value
        what = _WANTS[want]
    raise ValueError(f"{name}: must be {what}, not {value!r}")


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
    at = "payload."
    if kind is TaskKind.TRIP_PLANNING:
        stays = read_field(data, "stays", dict, where=at)
        windows = read_field(data, "windows", dict, where=at)
        return TripPayload(
            cities=tuple(read_field(data, "cities", [str], where=at)),
            total_days=read_field(data, "total_days", int, where=at),
            stays={c: read_field(stays, c, int, where=at + "stays.") for c in stays},
            windows={
                c: TripWindow(*read_field(windows, c, (int, int, str), where=at + "windows."))
                for c in windows
            },
            flights=frozenset(read_field(data, "flights", [(str, str)], where=at)),
        )
    if kind is TaskKind.VERTEX_COVER:
        return VertexCoverPayload(
            vertex_count=read_field(data, "vertex_count", int, where=at),
            edges=tuple(read_field(data, "edges", [(int, int)], where=at)),
            target_size=read_field(data, "target_size", int, where=at),
        )
    if kind is TaskKind.THREE_DM:
        return ThreeDMPayload(
            n=read_field(data, "n", int, where=at),
            triples=tuple(read_field(data, "triples", [(int, int, int)], where=at)),
        )
    friends = read_field(data, "friends", [dict], where=at)
    return MeetingPayload(
        locations=tuple(read_field(data, "locations", [str], where=at)),
        start_location=read_field(data, "start_location", str, where=at),
        day_start=read_field(data, "day_start", int, where=at),
        travel_minutes=_travel_from_json(
            read_field(data, "travel_minutes", [(str, str, int)], where=at)
        ),
        friends=tuple(
            Friend(
                read_field(f, "name", str, where=f"{at}friends[{i}]."),
                read_field(f, "location", str, where=f"{at}friends[{i}]."),
                *read_field(f, "window", (int, int), where=f"{at}friends[{i}]."),
                read_field(f, "min_minutes", int, where=f"{at}friends[{i}]."),
            )
            for i, f in enumerate(friends)
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
    at = "ground_truth."
    if kind is TaskKind.TRIP_PLANNING:
        return TripPlan(legs=tuple(
            TripLeg(*leg) for leg in read_field(data, "legs", [(str, int, int)], where=at)
        ))
    if kind is TaskKind.VERTEX_COVER:
        return CoverSet(vertices=frozenset(read_field(data, "vertices", [int], where=at)))
    if kind is TaskKind.THREE_DM:
        return Matching(triples=frozenset(
            read_field(data, "triples", [(int, int, int)], where=at)
        ))
    return MeetingSchedule(meetings=tuple(
        Meeting(*m) for m in read_field(data, "meetings", [(str, str, int, int)], where=at)
    ))


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
    """An instance from its record; a field of the wrong JSON type is a
    ValueError (see ``read_field``)."""
    kind = read_field(record, "kind", TaskKind)
    return ProblemInstance(
        id=read_field(record, "id", str),
        kind=kind,
        level=read_field(record, "level", int),
        seed=read_field(record, "seed", int),
        payload=_payload_from_json(kind, read_field(record, "payload", dict)),
        ground_truth=_solution_from_json(kind, read_field(record, "ground_truth", dict)),
    )


def open_output(path: str | Path, mode: str = "w") -> TextIO:
    """``path`` opened in ``mode``, after making its directory; a path that
    still cannot be opened is a TaskError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return open(path, mode, encoding="utf-8")
    except OSError as err:
        raise TaskError(f"cannot write {path}: {err}") from None


def output_dir(path: str | Path) -> Path:
    """``path`` as a directory, made if missing; a path that cannot be one
    is a TaskError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise TaskError(f"cannot write {path}: {err}") from None
    return Path(path)


def write_instances(path: str | Path, instances: Iterable[ProblemInstance]) -> int:
    """Write instances as line-delimited JSON records; returns the count."""
    count = 0
    with open_output(path) as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_record(inst), sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path: str | Path, convert: Callable[[Any], T]) -> list[T]:
    """``convert`` applied to each non-blank line of ``path``, a JSON object.

    A file that cannot be opened, or a line that is not a JSON object or
    that ``convert`` rejects with a missing key or a bad value, is an
    InputFileError naming ``path:line``.
    """
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if type(record) is not dict:
                        raise ValueError(f"not a JSON object: {line.strip()[:80]}")
                    out.append(convert(record))
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

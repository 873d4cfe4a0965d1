"""Core task domain: task kinds, instances, verdicts, records and day/time arithmetic.

Four task families are supported, all of them hard-search planning problems with
exactly checkable answers:

* ``TripPlanning``    -- order a set of city stays into one contiguous itinerary
                         connected by direct flights, hitting fixed event windows.
* ``VertexCover``     -- pick an optimal-size vertex cover of an undirected graph.
* ``ThreeDM``         -- pick ``n`` disjoint triples covering three element axes.
* ``MeetingPlanning`` -- meet as many friends as possible under travel times and
                         availability windows.

Each task's payload and solution classes, record format, statement, answer
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
from typing import Any, Callable, ClassVar, Iterable, Protocol, TextIO, TypeVar

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


#: The order of the tasks in reports.  The enum's own order sets the order
#: of generation, and with it the bytes of a run's cache.
TASK_ORDER = (
    TaskKind.VERTEX_COVER,
    TaskKind.TRIP_PLANNING,
    TaskKind.THREE_DM,
    TaskKind.MEETING_PLANNING,
)


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
    - ``dfs(payload)``, ``greedy(payload)``: its traced searches;
    - ``payload_to_json(payload)``, ``payload_from_json(data)``: an instance
      record's ``payload`` object, written and read back;
    - ``solution_to_json(solution)``, ``solution_from_json(data)``: a record's
      ``ground_truth`` object, likewise; both readers use ``read_field``.

    Each also defines its payload and solution classes, whose ``kind`` is
    its ``KIND``, and holds its exact ground-truth solver, which
    ``generate``'s builders call.  They import the pipeline modules, so they
    are imported here on first use.
    """
    from . import cover, meeting, threedm, trip

    return {task.KIND: task for task in (cover, meeting, threedm, trip)}[kind]


class Payload(Protocol):
    """A task's problem, of its family module's payload class; for annotations."""

    kind: ClassVar[TaskKind]


class Solution(Protocol):
    """An answer to a task, of its family module's solution class; for annotations."""

    kind: ClassVar[TaskKind]


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
      integer, which ``true`` is not; ``COUNT``: one >= 1; ``float``: any
      number a float can hold, as a float;
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
        if want is float and type(value) is int:
            try:
                return float(value)
            except OverflowError:  # an integer no float can hold
                pass
        elif want is COUNT and type(value) is int and value >= 1:
            return value
        what = _WANTS[want]
    raise ValueError(f"{name}: must be {what}, not {value!r}")


def instance_to_record(instance: ProblemInstance) -> dict:
    return {
        "id": instance.id,
        "kind": instance.kind.value,
        "level": instance.level,
        "seed": instance.seed,
        "payload": family(instance.kind).payload_to_json(instance.payload),
        "ground_truth": family(instance.kind).solution_to_json(instance.ground_truth),
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
        payload=family(kind).payload_from_json(read_field(record, "payload", dict)),
        ground_truth=family(kind).solution_from_json(read_field(record, "ground_truth", dict)),
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

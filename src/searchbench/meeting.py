"""MeetingPlanning's family module (see ``tasks.family``): meet as many
friends as possible in one day; ground truth from ``optimal_schedule``."""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar, Iterator, Mapping, Sequence

from .answers import _OK, ParseReport, _bad, _clean, _last_run, _match_vocab, _wrong
from .solver import Action, SearchMode, SearchTrace, _close, _narrate, _no_commits, _search, _Step, _Tracer
from .tasks import TaskKind, UnknownCityError, Verdict, minutes_to_clock, number_word, read_field

KIND = TaskKind.MEETING_PLANNING
DISPLAY = "Meeting Planning"
DESCRIPTION = (
    "You are an expert at planning meetings. You are given friends' "
    "locations and availability windows along with travel times between "
    "locations. You must meet as many friends as possible."
)
PREVIEW_HEADER = "Schedule preview & test:"
STATE_DEFINITIONS = (
    "location  where you currently are",
    "clock  the current time of day",
    "met  friends already met",
)


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

    kind: ClassVar[TaskKind] = KIND
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
    kind: ClassVar[TaskKind] = KIND
    meetings: tuple[Meeting, ...]


def payload_to_json(payload: MeetingPayload) -> dict:
    return {
        "locations": list(payload.locations),
        "start_location": payload.start_location,
        "day_start": payload.day_start,
        "travel_minutes": [[a, b, t] for (a, b), t in sorted(payload.travel_minutes.items())],
        "friends": [
            {"name": f.name, "location": f.location,
             "window": [f.avail_start, f.avail_end], "min_minutes": f.min_minutes}
            for f in payload.friends
        ],
    }


def payload_from_json(data: dict) -> MeetingPayload:
    at = "payload."
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


def solution_to_json(solution: MeetingSchedule) -> dict:
    return {"meetings": [[m.friend, m.location, m.start, m.end] for m in solution.meetings]}


def solution_from_json(data: dict) -> MeetingSchedule:
    return MeetingSchedule(meetings=tuple(
        Meeting(*m)
        for m in read_field(data, "meetings", [(str, str, int, int)], where="ground_truth.")
    ))



def statement(payload: MeetingPayload) -> str:
    sentences = [
        "You are visiting San Francisco for one day and want to meet as many "
        "friends as possible.",
        f"You arrive at {payload.start_location} at "
        f"{minutes_to_clock(payload.day_start)}.",
    ]
    for f in payload.friends:
        sentences.append(
            f"{f.name} will be at {f.location} from "
            f"{minutes_to_clock(f.avail_start)} to {minutes_to_clock(f.avail_end)}; "
            f"you would like to meet {f.name} for at least {f.min_minutes} minutes."
        )
    travel = (
        ", ".join(
            f"{a} and {b}: {t}"
            for (a, b), t in sorted(payload.travel_minutes.items())
        )
        + "."
        if payload.travel_minutes
        else "none."
    )
    return (
        " ".join(sentences)
        + "\n\nHere are the travel times in minutes:\n"
        + travel
        + "\n\nFind a schedule that meets as many friends as possible, honoring "
        "every availability window and all travel times."
    )


def objective(payload: MeetingPayload) -> str:
    return (
        f"Plan one day that meets as many of the "
        f"**{number_word(len(payload.friends))}** friends below as possible, "
        f"starting from {payload.start_location} at "
        f"{minutes_to_clock(payload.day_start)}."
    )


def constraints(payload: MeetingPayload) -> str:
    parts = [
        "1. **Availability windows**  A friend can only be met inside the "
        "listed window, for at least the listed minimum duration.",
        f"2. **Travel**  You start at {payload.start_location} at "
        f"{minutes_to_clock(payload.day_start)}; moving between locations "
        "costs the listed minutes.",
    ]
    for f in payload.friends:
        parts.append(
            f"Friend: {f.name}\nLocation: {f.location}\n"
            f"Available: {minutes_to_clock(f.avail_start)}-"
            f"{minutes_to_clock(f.avail_end)}\n"
            f"Minimum: {f.min_minutes} minutes"
        )
    by_first: dict[str, list[str]] = {}
    for (a, b), t in sorted(payload.travel_minutes.items()):
        by_first.setdefault(a, []).append(f"{a} ↔ {b}: {t}")
    lines = ["  ".join(by_first[a]) for a in sorted(by_first)]
    travel = "\n".join(lines) if lines else "none"
    parts.append("Travel times in minutes:\n" + travel)
    return "\n\n".join(parts)


def output(payload: MeetingPayload, solution: MeetingSchedule) -> str:
    return "\n".join(
        f"Meet {m.friend} at {m.location} from {minutes_to_clock(m.start)} "
        f"to {minutes_to_clock(m.end)}."
        for m in solution.meetings
    )


def canonical_text(payload: MeetingPayload, solution: MeetingSchedule) -> str:
    count = len(solution.meetings)
    noun = "friend" if count == 1 else "friends"
    return f"Here is the schedule to meet {count} {noun}:\n\n{output(payload, solution)}"


_MEETING = re.compile(
    r"\bmeet(?:ing)?\s+([A-Z][A-Za-z'\-]*)\s*"
    r"(?:at\s+(.+?))?\s*"
    r"(?:from\s+)?(\d{1,2}):(\d{2})\s*(AM|PM)?\s*(?:to|until|-|–)\s*"
    r"(\d{1,2}):(\d{2})\s*(AM|PM)?",
    re.IGNORECASE,
)


def _to_minutes(hours: int, minutes: int, meridian: str | None) -> int:
    if meridian:
        meridian = meridian.upper()
        if meridian == "PM" and hours < 12:
            hours += 12
        if meridian == "AM" and hours == 12:
            hours = 0
    return hours * 60 + minutes


def parse(text: str, payload: MeetingPayload) -> ParseReport:
    lines = text.splitlines()
    names = tuple(f.name for f in payload.friends)
    friends = payload.friends_by_name()
    hits: list[tuple[int, Meeting]] = []
    for idx, line in enumerate(lines):
        m = _MEETING.search(_clean(line))
        if not m:
            continue
        name, location, h1, m1, meridian1, h2, m2, meridian2 = m.groups()
        location = (location or "").strip().rstrip(".,")
        start = _to_minutes(int(h1), int(m1), meridian1)
        end = _to_minutes(int(h2), int(m2), meridian2)
        snapped = _match_vocab(name, names)
        if snapped:
            name = snapped
        friend = friends.get(name.lower())
        snapped_loc = _match_vocab(location, payload.locations) if location else None
        if snapped_loc:
            location = snapped_loc
        elif not location and friend is not None:
            location = friend.location
        hits.append((idx, Meeting(friend=name, location=location, start=start, end=end)))
    if not hits:
        return ParseReport(None, "no meeting lines found")
    return ParseReport(MeetingSchedule(meetings=tuple(m for _, m in _last_run(lines, hits))))


def verify(
    payload: MeetingPayload, truth: MeetingSchedule, candidate: MeetingSchedule
) -> Verdict:
    friends = payload.friends_by_name()
    seen: set[str] = set()
    for mtg in candidate.meetings:
        friend = friends.get(mtg.friend.lower())
        if friend is None:
            return _bad(f"unknown friend: {mtg.friend}")
        if friend.name in seen:
            return _bad(f"{friend.name} met twice")
        seen.add(friend.name)
        if mtg.location.lower() != friend.location.lower():
            return _bad(
                f"{friend.name} is at {friend.location}, not {mtg.location or '?'}"
            )
        if mtg.end - mtg.start < friend.min_minutes:
            return _bad(
                f"meeting {friend.name} for {mtg.end - mtg.start} min, "
                f"minimum {friend.min_minutes}"
            )
        if mtg.start < friend.avail_start or mtg.end > friend.avail_end:
            return _bad(
                f"window: {friend.name} available "
                f"{minutes_to_clock(friend.avail_start)}-"
                f"{minutes_to_clock(friend.avail_end)}"
            )
    loc = payload.start_location
    time = payload.day_start
    for mtg in candidate.meetings:
        friend = friends[mtg.friend.lower()]
        arrive = time + payload.travel(loc, friend.location)
        if mtg.start < arrive:
            return _bad(
                f"travel: cannot reach {friend.name} by {minutes_to_clock(mtg.start)}"
                f" (earliest arrival {minutes_to_clock(arrive)})"
            )
        loc = friend.location
        time = mtg.end
    optimum = len(truth.meetings)
    if len(candidate.meetings) != optimum:
        return _wrong(
            f"met {len(candidate.meetings)} friends; the optimum is {optimum}"
        )
    return _OK


def _meetable(friends: Sequence[Friend], met: set[str], time: int) -> int:
    """How many friends not in ``met`` could still be met from ``time`` on,
    travel aside: a bound on the meetings a schedule can still add."""
    return sum(
        1
        for f in friends
        if f.name not in met and max(time, f.avail_start) + f.min_minutes <= f.avail_end
    )


def optimal_schedule(payload: MeetingPayload) -> tuple[int, MeetingSchedule]:
    """Exact maximum-friends schedule.

    Meetings run at minimum duration from the earliest feasible start.  Among
    maximum-count schedules the canonical one finishes earliest, with remaining
    ties broken by the lexicographically smallest friend-name sequence.

    A branch-and-bound over friends in name order, on ints: friend indices
    (the payload's names are distinct, so an index is its name's rank), a
    ``met`` bitmask of one bit per friend and a travel matrix with rows for
    the start and each friend's location.  Friend k can still be met from
    clock ``t`` only if ``t <= deadline[k]``, its window end less its minimum
    minutes and its shortest travel in, so the unmet friends alive at ``t``
    bound the meetings a schedule can add.  A node is cut when that bound
    cannot beat the best count, or can only tie it while already finishing
    later, since a finish only grows along a path.

    A node is also cut when an earlier node met the same friends, ended at
    the same place and was no later.  Paths are visited in lexicographic
    order, so that node's path is the smaller one: every way on from here
    is open from there, ends no later and wins the name tie-break.
    """
    friends = sorted(payload.friends, key=lambda f: f.name)
    n = len(friends)
    places = [payload.start_location] + [f.location for f in friends]
    travel = [[payload.travel(a, f.location) for f in friends] for a in places]
    # shortest travel into each friend, from the start or another friend
    into = [min(row[k] for p, row in enumerate(travel) if p != k + 1) for k in range(n)]
    due = sorted(
        (f.avail_end - f.min_minutes - into[k], k)
        for k, f in enumerate(friends)
        if f.avail_start + f.min_minutes <= f.avail_end
    )
    deadlines = [d for d, _ in due]
    alive = [0] * (len(due) + 1)
    for i in range(len(due) - 1, -1, -1):
        alive[i] = alive[i + 1] | 1 << due[i][1]
    opens = [f.avail_start for f in friends]
    closes = [f.avail_end for f in friends]
    lasts = [f.min_minutes for f in friends]

    path: list[int] = []
    starts: list[int] = []
    # (count, finish, path, starts) of the best schedule
    best: list = [0, payload.day_start, (), ()]
    # per friend met last: the met set -> the earliest clock seen there
    earliest: list[dict[int, int]] = [{} for _ in friends]

    def visit(p: int, time: int, met: int) -> None:
        depth = len(path)
        if depth > best[0] or depth == best[0] and (
            time < best[1] or time == best[1] and tuple(path) < best[2]
        ):
            best[:] = depth, time, tuple(path), tuple(starts)
        live = alive[bisect_left(deadlines, time)] & ~met
        reach = depth + live.bit_count()
        if reach < best[0] or reach == best[0] and time > best[1]:
            return
        row = travel[p]
        while live:
            bit = live & -live
            live ^= bit
            k = bit.bit_length() - 1
            start = time + row[k]
            if start < opens[k]:
                start = opens[k]
            end = start + lasts[k]
            if end > closes[k]:
                continue
            seen = earliest[k]
            if seen.get(met | bit, end + 1) <= end:
                continue
            seen[met | bit] = end
            path.append(k)
            starts.append(start)
            visit(k + 1, end, met | bit)
            path.pop()
            starts.pop()

    visit(0, payload.day_start, 0)
    meetings = tuple(
        Meeting(friend=friends[k].name, location=friends[k].location, start=s, end=s + lasts[k])
        for k, s in zip(best[2], best[3])
    )
    return len(meetings), MeetingSchedule(meetings=meetings)


def dfs(
    payload: MeetingPayload, optimum: tuple[int, MeetingSchedule] | None = None
) -> SearchTrace:
    """Depth-first search for a schedule of the optimum's size; ``optimum``
    is ``optimal_schedule(payload)``, computed here when not given."""
    target_count, _ = optimum or optimal_schedule(payload)
    friends = sorted(payload.friends, key=lambda f: f.name)
    tracer = _Tracer(
        detail="state = (location, clock, met set); try friends in name order",
        state=(
            f"(at {payload.start_location}, {minutes_to_clock(payload.day_start)}, "
            f"met 0; best reachable = {target_count})"
        ),
    )
    if target_count == 0:
        tracer.emit("", Action.EVALUATION, detail="no friend can be met at all", state="met 0")
        return tracer.finish(KIND, SearchMode.DFS, None)

    sched: list[Meeting] = []
    met: set[str] = set()

    def goal(label: str) -> MeetingSchedule | None:
        if len(sched) < target_count:
            return None
        _close(
            tracer, label, len(sched),
            ("count check", f"met {target_count} friends — the optimum"),
            ("meet " + ", ".join(m.friend for m in sched), f"finish {minutes_to_clock(sched[-1].end)}"),
        )
        return MeetingSchedule(meetings=tuple(sched))

    def children() -> Iterator[_Step]:
        loc, time = (
            (sched[-1].location, sched[-1].end) if sched
            else (payload.start_location, payload.day_start)
        )
        depth = len(sched) + 1
        for f in friends:
            if f.name in met:
                continue
            transition = f"Meet **{f.name}** at {f.location}"
            travel = payload.travel(loc, f.location)
            arrive = time + travel
            start = max(arrive, f.avail_start)
            end = start + f.min_minutes
            if end > f.avail_end:
                yield _Step(
                    f.name, transition,
                    (
                        f"arrive {minutes_to_clock(arrive)}; window closes "
                        f"{minutes_to_clock(f.avail_end)}, needs {f.min_minutes} min"
                    ),
                    depth, prune="window",
                )
                continue
            met.add(f.name)
            reachable = depth + _meetable(friends, met, end)
            if reachable < target_count:
                met.discard(f.name)
                yield _Step(
                    f.name, transition,
                    f"at most {reachable} friends reachable this way; need {target_count}",
                    depth, prune="budget",
                )
                continue
            sched.append(Meeting(friend=f.name, location=f.location, start=start, end=end))
            yield _Step(
                f.name, transition,
                f"travel {travel} min → meet {minutes_to_clock(start)}-{minutes_to_clock(end)}",
                depth, undo=f"dead end after meeting {f.name}; undo it",
            )
            sched.pop()
            met.discard(f.name)

    return tracer.finish(KIND, SearchMode.DFS, _search(tracer, children, goal))


def greedy(payload: MeetingPayload) -> SearchTrace:
    """Commit the canonical optimal schedule (earliest finish), which need not
    be the first optimal schedule the depth-first search reaches.  The one
    ``optimal_schedule`` call is the whole solve: no search runs."""
    optimum = optimal_schedule(payload)
    count, schedule = optimum
    if count == 0:
        return _no_commits(dfs(payload, optimum))
    commits = []
    loc = payload.start_location
    for mtg in schedule.meetings:
        travel = payload.travel(loc, mtg.location)
        commits.append((
            mtg.friend,
            f"Meet **{mtg.friend}** at {mtg.location}",
            f"travel {travel} min → meet "
            f"{minutes_to_clock(mtg.start)}-{minutes_to_clock(mtg.end)}",
        ))
        loc = mtg.location
    return _narrate(
        KIND,
        (
            "commit one meeting per step",
            f"(at {payload.start_location}, {minutes_to_clock(payload.day_start)}, met 0)",
        ),
        commits,
        ("count check", f"met {count} friends"),
        (
            "meet " + ", ".join(m.friend for m in schedule.meetings),
            f"finish {minutes_to_clock(schedule.meetings[-1].end)}",
        ),
        schedule,
    )

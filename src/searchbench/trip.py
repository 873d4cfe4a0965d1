"""TripPlanning's family module (see ``tasks.family``): order city stays
into one itinerary over direct flights; ground truth from ``count_trip_plans``."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import ClassVar, Iterator, Mapping, Sequence

from .answers import _OK, ParseReport, _bad, _clean, _match_vocab
from .solver import Action, SearchMode, SearchTrace, _close, _narrate_path, _no_commits, _search, _Step, _Tracer
from .tasks import TaskKind, UnknownCityError, Verdict, number_word, read_field

KIND = TaskKind.TRIP_PLANNING
DISPLAY = "Trip Planning"
DESCRIPTION = (
    "You are an expert at planning trips. You are given a few constraints "
    "regarding the cities to visit and the durations of staying at each "
    "city. You are also given the flight information between the cities."
)
PREVIEW_HEADER = "Calendar preview & test:"
STATE_DEFINITIONS = (
    "path  ordered list of visited cities",
    "UD  current independent-day total",
    "start  calendar start-day of the last city",
    "used  set of visited cities",
)


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

    kind: ClassVar[TaskKind] = KIND
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
    kind: ClassVar[TaskKind] = KIND
    legs: tuple[TripLeg, ...]

    @property
    def cities(self) -> tuple[str, ...]:
        return tuple(leg.city for leg in self.legs)


def payload_to_json(payload: TripPayload) -> dict:
    return {
        "cities": list(payload.cities),
        "total_days": payload.total_days,
        "stays": {c: payload.stays[c] for c in payload.cities},
        "windows": {c: [w.start, w.end, w.label] for c, w in sorted(payload.windows.items())},
        "flights": sorted(list(pair) for pair in payload.flights),
    }


def payload_from_json(data: dict) -> TripPayload:
    at = "payload."
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


def solution_to_json(solution: TripPlan) -> dict:
    return {"legs": [[l.city, l.day_from, l.day_to] for l in solution.legs]}


def solution_from_json(data: dict) -> TripPlan:
    return TripPlan(legs=tuple(
        TripLeg(*leg) for leg in read_field(data, "legs", [(str, int, int)], where="ground_truth.")
    ))


_WINDOW_SENTENCES: dict[str, str] = {
    "wedding": "You are going to attend a wedding in {city} between day {a} and day {b}.",
    "visit relatives": "You plan to visit relatives in {city} between day {a} and day {b}.",
    "workshop": "You have to attend a workshop in {city} between day {a} and day {b}.",
    "meet your friends": (
        "You would like to meet your friends at {city} between day {a} and "
        "day {b} to tour together."
    ),
    "annual show": "You want to attend the annual show in {city} between day {a} and day {b}.",
    "conference": "You have to attend a conference in {city} between day {a} and day {b}.",
}


def statement(payload: TripPayload) -> str:
    n = len(payload.cities)
    noun = "city" if n == 1 else "cities"
    sentences = [
        f"You plan to visit {n} European {noun} for {payload.total_days} days in total.",
        "You only take direct flights to commute between cities.",
    ]
    for city in payload.cities:
        sentences.append(f"You plan to stay in {city} for {payload.stay_of(city)} days.")
        w = payload.window_of(city)
        if w:
            sentences.append(
                _WINDOW_SENTENCES[w.label].format(city=city, a=w.start, b=w.end)
            )
    items = []
    for i, a in enumerate(payload.cities):
        for b in payload.cities[i + 1 :]:
            there = payload.has_flight(a, b)
            back = payload.has_flight(b, a)
            if there and back:
                items.append(f"{a} and {b}")
            elif there:
                items.append(f"from {a} to {b}")
            elif back:
                items.append(f"from {b} to {a}")
    flights = ", ".join(items) + "." if items else "none."
    return (
        " ".join(sentences)
        + "\n\nHere are the cities that have direct flights:\n"
        + flights
        + f"\n\nFind a trip plan of visiting the cities for {payload.total_days} "
        "days by taking direct flights to commute between them."
    )


def objective(payload: TripPayload) -> str:
    return (
        f"Plan a **{payload.total_days}-day** trip that visits the "
        f"**{number_word(len(payload.cities))}** European cities below, "
        "using only the direct flights provided."
    )


def constraints(payload: TripPayload) -> str:
    parts = [
        "1. **Adjacency overlap**  The last day of city *i* is also the first "
        "day of city *i + 1*.",
        "2. **Stay-length & fixed-window requirements**",
    ]
    for city in payload.cities:
        w = payload.window_of(city)
        window = (
            f"**must cover Day {w.start}-{w.end}** ({w.label})" if w else "--"
        )
        parts.append(
            f"City: {city}\nRequired stay: {payload.stay_of(city)} days\n"
            f"Fixed-day window: {window}"
        )
    parts.append(
        "The sum of **independent days** (Σ stay - overlaps) must equal "
        f"**{payload.total_days}** exactly."
    )
    lines = []
    for origin in payload.cities:
        hops = [
            f"{origin}→{dest}"
            for dest in payload.cities
            if dest != origin and payload.has_flight(origin, dest)
        ]
        if hops:
            lines.append("  ".join(hops))
    flights = "\n".join(lines) if lines else "none"
    parts.append(
        "3. **Flights requirements**  A direct flight exists **only** when "
        "explicitly listed:\n\n" + flights
    )
    return "\n\n".join(parts)


def canonical_text(payload: TripPayload, solution: TripPlan) -> str:
    lines = [
        f"Here is the trip plan for visiting the {len(payload.cities)} European "
        f"cities for {payload.total_days} days:",
        "",
    ]
    for i, leg in enumerate(solution.legs):
        if i == 0:
            lines.append(
                f"**Day {leg.day_from}-{leg.day_to}:** Arriving in {leg.city} "
                f"and visit {leg.city} for {leg.span} days."
            )
        else:
            prev = solution.legs[i - 1]
            lines.append(
                f"**Day {prev.day_to}:** Fly from {prev.city} to {leg.city}."
            )
            lines.append(
                f"**Day {leg.day_from}-{leg.day_to}:** Visit {leg.city} "
                f"for {leg.span} days."
            )
    return "\n".join(lines)


def output(payload: TripPayload, solution: TripPlan) -> str:
    """The output phase of a worked exemplar: one leg a line, with its window."""
    lines = []
    for leg in solution.legs:
        w = payload.window_of(leg.city)
        suffix = f"  ({w.label})" if w else ""
        lines.append(f"Day {leg.day_from}-{leg.day_to}  {leg.city}{suffix}")
    return "\n".join(lines)


_DAY_RANGE = re.compile(r"Day\s*(\d+)\s*-\s*(\d+)\s*:?\s*(.*)", re.IGNORECASE)


def parse(text: str, payload: TripPayload) -> ParseReport:
    hits: list[tuple[int, int, str]] = []
    for line in text.splitlines():
        cleaned = _clean(line)
        if not cleaned or "fly from" in cleaned.lower():
            continue
        m = _DAY_RANGE.search(cleaned)
        if not m:
            continue
        day_from, day_to, rest = m.groups()
        day_from, day_to = int(day_from), int(day_to)
        city = _match_vocab(rest, payload.cities)
        if city is None:
            continue
        hits.append((day_from, day_to, city))
    if not hits:
        return ParseReport(None, "no day-range itinerary lines found")
    # Last answer wins: a restated plan begins again at day 1.
    start = 0
    for i, (day_from, _, _) in enumerate(hits):
        if day_from == 1 and i > 0:
            start = i
    legs = tuple(TripLeg(city=c, day_from=a, day_to=b) for a, b, c in hits[start:])
    return ParseReport(TripPlan(legs=legs))


def verify(payload: TripPayload, truth: TripPlan, plan: TripPlan) -> Verdict:
    """Success for any plan that keeps every constraint, as for ThreeDM; the
    payload's stays fill ``total_days``, so such a plan ends on the last day."""
    if not plan.legs:
        return _bad("empty plan")
    for leg in plan.legs:
        if leg.city not in payload.stays:
            return _bad(f"unknown city: {leg.city}")
    seen: set[str] = set()
    for leg in plan.legs:
        if leg.city in seen:
            return _bad(f"coverage: {leg.city} visited twice")
        seen.add(leg.city)
    for city in payload.cities:
        if city not in seen:
            return _bad(f"coverage: {city} missing")
    if plan.legs[0].day_from != 1:
        return _bad(f"plan starts day {plan.legs[0].day_from}, not day 1")
    for prev, cur in zip(plan.legs, plan.legs[1:]):
        if cur.day_from != prev.day_to:
            return _bad(
                f"calendar gap: {cur.city} starts day {cur.day_from} but "
                f"{prev.city} ends day {prev.day_to}"
            )
    for leg in plan.legs:
        want = payload.stay_of(leg.city)
        if leg.span != want:
            return _bad(
                f"stay length: {leg.city} spans {leg.span} days, needs {want}"
            )
    for leg in plan.legs:
        w = payload.window_of(leg.city)
        if w and not (leg.day_from <= w.start and w.end <= leg.day_to):
            return _bad(f"window: {w.label} Day {w.start}-{w.end}")
    for prev, cur in zip(plan.legs, plan.legs[1:]):
        if not payload.has_flight(prev.city, cur.city):
            return _bad(f"flight: no direct flight {prev.city} → {cur.city}")
    return _OK


def trip_legs_for_order(payload: TripPayload, order: Sequence[str]) -> tuple[TripLeg, ...]:
    """Build day-stamped legs for a visit order (closed intervals, shared
    transition days); validity is not checked."""
    legs = []
    day = 1
    for city in order:
        end = day + payload.stay_of(city) - 1
        legs.append(TripLeg(city=city, day_from=day, day_to=end))
        day = end
    return tuple(legs)


def _trip_try(
    payload: TripPayload,
    path: Sequence[str],
    end_day: int,
    cand: str,
) -> tuple[bool, str, str, int]:
    """Feasibility tests for extending ``path`` with ``cand``.

    Returns (keep, prune_reason, preview_text, new_end_day).  Test order:
    flight, visited, own window, then reachability of every other unvisited
    window.  The payload's stays fill ``total_days`` exactly, so every
    ordering ends on the last day and the calendar needs no test.
    """
    start = end_day if path else 1
    end = start + payload.stay_of(cand) - 1
    if path and not payload.has_flight(path[-1], cand):
        return False, "flight", f"no direct flight {path[-1]} → {cand}", end
    if cand in path:
        return False, "visited", "revisit city", end
    remaining = [c for c in payload.cities if c != cand and c not in path]
    own = payload.window_of(cand)
    if own and not (start <= own.start and own.end <= end):
        return (
            False,
            "window",
            f"{cand} Day {start}-{end} vs {own.label} Day {own.start}-{own.end}",
            end,
        )
    for other in remaining:
        w = payload.window_of(other)
        if w and end > w.start:
            return (
                False,
                "window",
                f"{cand} Day {start}-{end} → {other} cannot cover {w.label} (Day {w.start}-{w.end})",
                end,
            )
    if own:
        preview = f"{cand} Day {start}-{end} covers {own.label} (Day {own.start}-{own.end})"
    else:
        preview = f"{cand} Day {start}-{end} (no window)"
    return True, "", preview, end


def dfs(payload: TripPayload) -> SearchTrace:
    cities = payload.cities
    tracer = _Tracer(
        detail=(
            "state = (path, UD, start); try start cities in declaration order, "
            "children in name order"
        ),
        state="(path=[], UD=0, start=1)",
    )
    path: list[str] = []
    ends: list[int] = []

    def goal(label: str) -> TripPlan | None:
        if len(path) < len(cities):
            return None
        _close(
            tracer, label, len(path),
            ("all cities placed", f"UD = {ends[-1]} (check)"),
            (" → ".join(path), f"UD = {ends[-1]}"),
        )
        return TripPlan(legs=trip_legs_for_order(payload, path))

    def children() -> Iterator[_Step]:
        for cand in sorted(cities):
            if cand == path[-1]:
                continue
            keep, reason, preview, new_end = _trip_try(payload, path, ends[-1], cand)
            transition = f"{path[-1]}→**{cand}**"
            depth = len(path) + 1
            if not keep:
                yield _Step(cand, transition, preview, depth, prune=reason)
                continue
            path.append(cand)
            ends.append(new_end)
            yield _Step(
                cand, transition, f"{preview} → UD = {new_end}", depth,
                undo=f"dead end under {cand}; backtrack",
            )
            path.pop()
            ends.pop()

    solution: TripPlan | None = None
    for start in cities:
        keep, reason, preview, end = _trip_try(payload, [], 0, start)
        action = Action.EXPANSION if keep else Action.PRUNE
        tracer.emit("S0", action, reason, start, f"**Start {start}**", preview, 1)
        if not keep:
            continue
        path[:] = [start]
        ends[:] = [end]
        solution = _search(tracer, children, goal)
        if solution is not None:
            break
        tracer.emit(
            "", Action.BACKTRACK,
            detail=f"No child of the {start} root survives; backtrack to choose a new start city.",
            depth=1,
        )
    return tracer.finish(KIND, SearchMode.DFS, solution)


def greedy(payload: TripPayload) -> SearchTrace:
    """The depth-first search's own success path, narrated."""
    searched = dfs(payload)
    if searched.solution is None:
        return _no_commits(searched)
    first = searched.solution.cities[0]
    d0 = payload.stay_of(first)
    return _narrate_path(
        searched, (f"{first} spans Day 1-{d0}", f"(path=[{first}], UD={d0}, start=1)")
    )


def count_trip_plans(payload: TripPayload, limit: int = 2) -> int:
    """``min(number of valid plans, limit)``; a return of 1 proves uniqueness.

    The visited set fixes the calendar (a leg ends on day ``1 + Σ(stay − 1)``
    over the cities placed so far), so the search is memoised over (visited,
    last city).  The payload's distinct cities fill ``total_days`` exactly,
    so every full ordering ends on the last day.  A city is added under
    ``_trip_try``'s tests, which prune only dead branches: a flight from the
    last city, its own window, and no unvisited window starting before its
    leg ends.
    """
    cities = payload.cities
    spans = [payload.stay_of(c) - 1 for c in cities]
    full = (1 << len(cities)) - 1
    index = {c: j for j, c in enumerate(cities)}
    flights = [0] * len(cities)
    for a, b in payload.flights:
        flights[index[a]] |= 1 << index[b]
    window = [payload.window_of(c) for c in cities]
    windowed = [(j, w.start) for j, w in enumerate(window) if w]
    memo: dict[tuple[int, int], int] = {}

    def count(visited: int, last: int, start: int) -> int:
        if visited == full:
            return 1
        key = (visited, last)
        if key in memo:
            return memo[key]
        # The two earliest window starts still pending: a city may not end
        # its leg after any pending window other than its own begins.
        first = second = math.inf
        first_j = -1
        for j, opens in windowed:
            if not visited >> j & 1:
                if opens < first:
                    first, second, first_j = opens, first, j
                elif opens < second:
                    second = opens
        total = 0
        options = full & ~visited & (flights[last] if visited else full)
        while options and total < limit:
            bit = options & -options
            options ^= bit
            i = bit.bit_length() - 1
            end = start + spans[i]
            own = window[i]
            if own and not (start <= own.start and own.end <= end):
                continue
            if end > (second if i == first_j else first):
                continue
            total += count(visited | bit, i, end)
        memo[key] = total = min(total, limit)
        return total

    return count(0, -1, 1)

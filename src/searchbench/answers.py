"""Answer rendering, parsing and verification.

``canonical_text`` renders a solution the way exemplar answers are written;
``parse_answer`` recovers a structured candidate from free-form model output
(tolerant, last-answer-wins); ``verify`` scores a candidate against the
instance with a named first-failed-check diagnostic.  ``evaluate`` composes
parse + verify into a single verdict.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from .tasks import (
    CoverSet,
    Matching,
    Meeting,
    MeetingPayload,
    MeetingSchedule,
    KindMismatchError,
    Payload,
    ProblemInstance,
    Solution,
    TaskKind,
    ThreeDMPayload,
    TripPayload,
    TripLeg,
    TripPlan,
    Verdict,
    VerdictStatus,
    VertexCoverPayload,
    minutes_to_clock,
)


@dataclass(frozen=True)
class ParseReport:
    candidate: Solution | None
    matched_lines: tuple[str, ...]
    failure_reason: str = ""


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------


def canonical_text(payload: Payload, solution: Solution) -> str:
    if solution.kind is not payload.kind:
        raise KindMismatchError(
            f"solution kind {solution.kind.value} does not fit payload kind {payload.kind.value}"
        )
    if isinstance(solution, TripPlan):
        assert isinstance(payload, TripPayload)
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
    rows = answer_lines(solution)
    if isinstance(solution, CoverSet):
        return f"Here is a vertex cover of size {len(solution.vertices)}:\n\n{rows}"
    if isinstance(solution, Matching):
        return (
            f"Here is a perfect matching with {len(solution.triples)} disjoint "
            f"triples:\n\n{rows}"
        )
    count = len(solution.meetings)
    noun = "friend" if count == 1 else "friends"
    return f"Here is the schedule to meet {count} {noun}:\n\n{rows}"


def answer_lines(solution: CoverSet | Matching | MeetingSchedule) -> str:
    """The answer rows of a cover, matching or schedule: the body of its
    ``canonical_text`` and the output phase of its exemplars."""
    if isinstance(solution, CoverSet):
        return "Vertex cover: [" + ", ".join(f"V{v}" for v in sorted(solution.vertices)) + "]"
    if isinstance(solution, Matching):
        return "\n".join(f"(x{x}, y{y}, z{z})" for x, y, z in sorted(solution.triples))
    assert isinstance(solution, MeetingSchedule)
    return "\n".join(
        f"Meet {m.friend} at {m.location} from {minutes_to_clock(m.start)} "
        f"to {minutes_to_clock(m.end)}."
        for m in solution.meetings
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_DAY_RANGE = re.compile(r"Day\s*(\d+)\s*-\s*(\d+)\s*:?\s*(.*)", re.IGNORECASE)
_VERTEX_GROUP = re.compile(r"\[([^\[\]]*)\]")
_VERTEX_TOKEN = re.compile(r"[Vv]?(\d+)")
_VERTEX_LINE = re.compile(
    r"^(?:[A-Za-z ]{0,40}:)?\s*([Vv]?\d+(?:\s*,\s*[Vv]?\d+)+)\s*\.?\s*$"
)
_TRIPLE = re.compile(
    r"\(\s*(?:x\s*)?(\d+)\s*,\s*(?:y\s*)?(\d+)\s*,\s*(?:z\s*)?(\d+)\s*\)"
)
_MEETING = re.compile(
    r"\bmeet(?:ing)?\s+([A-Z][A-Za-z'\-]*)\s*"
    r"(?:at\s+(.+?))?\s*"
    r"(?:from\s+)?(\d{1,2}):(\d{2})\s*(AM|PM)?\s*(?:to|until|-|–)\s*"
    r"(\d{1,2}):(\d{2})\s*(AM|PM)?",
    re.IGNORECASE,
)


_ASCII_LETTERS = frozenset(string.ascii_lowercase)


def _clean(line: str) -> str:
    return line.replace("**", "").strip()


def _lowered(vocabulary: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(name.lower() for name in vocabulary)


def _match_vocab(
    raw: str, vocabulary: tuple[str, ...], lowered: tuple[str, ...] | None = None
) -> str | None:
    """Earliest, then longest, then smallest vocabulary name found inside
    ``raw`` case-insensitively with no ASCII letter glued to either side.
    ``lowered`` is ``_lowered(vocabulary)``, so a caller matching many lines
    against one vocabulary lower-cases it once."""
    low = raw.lower()
    lowered = lowered or _lowered(vocabulary)
    if low.isascii() and lowered.count(low) == 1:
        # The one name spelled ``low`` is found at 0 and is as long as ``low``
        # (only the Kelvin sign lower-cases into ASCII, one letter to one),
        # so no other name can beat it.
        return vocabulary[lowered.index(low)]
    best: tuple[int, int, str] | None = None
    for name, needle in zip(vocabulary, lowered):
        at = low.find(needle)
        while at >= 0:
            end = at + len(needle)
            if low[at - 1 : at] not in _ASCII_LETTERS and low[end : end + 1] not in _ASCII_LETTERS:
                key = (at, -len(name), name)
                if best is None or key < best:
                    best = key
                break
            at = low.find(needle, at + 1)
    return best[2] if best else None


def _parse_trip(text: str, payload: TripPayload) -> ParseReport:
    hits: list[tuple[int, int, str, str]] = []
    cities = _lowered(payload.cities)
    for line in text.splitlines():
        cleaned = _clean(line)
        if not cleaned or "fly from" in cleaned.lower():
            continue
        m = _DAY_RANGE.search(cleaned)
        if not m:
            continue
        day_from, day_to, rest = m.groups()
        day_from, day_to = int(day_from), int(day_to)
        city = _match_vocab(rest, payload.cities, cities)
        if city is None:
            continue
        hits.append((day_from, day_to, city, line.rstrip()))
    if not hits:
        return ParseReport(None, (), "no day-range itinerary lines found")
    # Last answer wins: a restated plan begins again at day 1.
    start = 0
    for i, (day_from, _, _, _) in enumerate(hits):
        if day_from == 1 and i > 0:
            start = i
    block = hits[start:]
    legs = tuple(
        TripLeg(city=c, day_from=a, day_to=b) for a, b, c, _ in block
    )
    return ParseReport(TripPlan(legs=legs), tuple(raw for *_, raw in block))


def _parse_cover(text: str) -> ParseReport:
    best: tuple[list[int], str] | None = None
    for m in _VERTEX_GROUP.finditer(text):
        tokens = _VERTEX_TOKEN.findall(m.group(1))
        if tokens:
            best = ([int(t) for t in tokens], m.group(0))
    if best is None:
        for line in text.splitlines():
            lm = _VERTEX_LINE.match(_clean(line))
            if lm:
                best = ([int(t) for t in _VERTEX_TOKEN.findall(lm.group(1))], line.rstrip())
    if best is None:
        return ParseReport(None, (), "no bracketed or comma-separated vertex list found")
    vertices, raw = best
    return ParseReport(CoverSet(vertices=frozenset(vertices)), (raw,))


def _last_run(lines: list[str], hits: list[tuple]) -> list[tuple]:
    """Last answer wins: the final run of ``hits`` (each led by its line index
    into ``lines``) separated only by blank lines."""
    start = len(hits) - 1
    while start > 0 and not any(
        line.strip() for line in lines[hits[start - 1][0] + 1 : hits[start][0]]
    ):
        start -= 1
    return hits[start:]


def _parse_threedm(text: str) -> ParseReport:
    lines = text.splitlines()
    hits: list[tuple[int, list, str]] = []
    for idx, line in enumerate(lines):
        triples = [
            (int(x), int(y), int(z)) for x, y, z in _TRIPLE.findall(line)
        ]
        if triples:
            hits.append((idx, triples, line.rstrip()))
    if not hits:
        return ParseReport(None, (), "no (x, y, z) triples found")
    block = _last_run(lines, hits)
    triples = frozenset(t for _, ts, _ in block for t in ts)
    return ParseReport(
        Matching(triples=triples), tuple(raw for _, _, raw in block)
    )


def _to_minutes(hours: int, minutes: int, meridian: str | None) -> int:
    if meridian:
        meridian = meridian.upper()
        if meridian == "PM" and hours < 12:
            hours += 12
        if meridian == "AM" and hours == 12:
            hours = 0
    return hours * 60 + minutes


def _parse_meeting(text: str, payload: MeetingPayload) -> ParseReport:
    lines = text.splitlines()
    names = tuple(f.name for f in payload.friends)
    names_low = _lowered(names)
    locations = _lowered(payload.locations)
    friends = payload.friends_by_name()
    hits: list[tuple[int, Meeting, str]] = []
    for idx, line in enumerate(lines):
        m = _MEETING.search(_clean(line))
        if not m:
            continue
        name, location, h1, m1, meridian1, h2, m2, meridian2 = m.groups()
        location = (location or "").strip().rstrip(".,")
        start = _to_minutes(int(h1), int(m1), meridian1)
        end = _to_minutes(int(h2), int(m2), meridian2)
        snapped = _match_vocab(name, names, names_low)
        if snapped:
            name = snapped
        friend = friends.get(name.lower())
        snapped_loc = _match_vocab(location, payload.locations, locations) if location else None
        if snapped_loc:
            location = snapped_loc
        elif not location and friend is not None:
            location = friend.location
        hits.append(
            (idx, Meeting(friend=name, location=location, start=start, end=end), line.rstrip())
        )
    if not hits:
        return ParseReport(None, (), "no meeting lines found")
    block = _last_run(lines, hits)
    return ParseReport(
        MeetingSchedule(meetings=tuple(m for _, m, _ in block)),
        tuple(raw for _, _, raw in block),
    )


def parse_answer(payload: Payload, text: str) -> ParseReport:
    """Extract a structured candidate for ``payload``'s task from model text.

    City, name and location tokens snap case-insensitively to the payload's
    vocabulary.  A number too long for ``int`` to read (over 4,300 digits by
    default) fails the parse.
    """
    try:
        if isinstance(payload, TripPayload):
            return _parse_trip(text, payload)
        if isinstance(payload, VertexCoverPayload):
            return _parse_cover(text)
        if isinstance(payload, ThreeDMPayload):
            return _parse_threedm(text)
        return _parse_meeting(text, payload)
    except ValueError:  # the parsers' only ValueError is int() refusing a digit run
        return ParseReport(None, (), "a number in the answer has too many digits to read")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _bad(reason: str) -> Verdict:
    return Verdict(status=VerdictStatus.CONSTRAINT_VIOLATION, reason=reason)


def _wrong(reason: str) -> Verdict:
    return Verdict(status=VerdictStatus.WRONG_ANSWER, reason=reason)


_OK = Verdict(status=VerdictStatus.SUCCESS)


def _verify_trip(payload: TripPayload, plan: TripPlan) -> Verdict:
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


def _verify_cover(payload: VertexCoverPayload, candidate: CoverSet) -> Verdict:
    for v in candidate.vertices:
        if not (0 <= v < payload.vertex_count):
            return _bad(f"unknown vertex: V{v}")
    for u, v in sorted(payload.edges):
        if u not in candidate.vertices and v not in candidate.vertices:
            return _bad(f"edge uncovered: V{u}-V{v}")
    if len(candidate.vertices) != payload.target_size:
        return _wrong(
            f"cover size {len(candidate.vertices)} differs from optimal "
            f"{payload.target_size}"
        )
    return _OK


def _verify_threedm(payload: ThreeDMPayload, candidate: Matching) -> Verdict:
    offered = set(payload.triples)
    ordered = sorted(candidate.triples)
    for t in ordered:
        if t not in offered:
            return _bad(f"triple not offered: (x{t[0]}, y{t[1]}, z{t[2]})")
    for axis, axis_name in ((0, "x"), (1, "y"), (2, "z")):
        used: set[int] = set()
        for t in ordered:
            if t[axis] in used:
                return _bad(f"element {axis_name}{t[axis]} used twice")
            used.add(t[axis])
    if len(candidate.triples) != payload.n:
        return _wrong(f"{len(candidate.triples)} triples, need {payload.n}")
    return _OK


def _verify_meeting(
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


def verify(instance: ProblemInstance, candidate: Solution) -> Verdict:
    """Score a structured candidate; Success only for a fully correct answer."""
    if candidate.kind is not instance.kind:
        raise KindMismatchError(
            f"candidate kind {candidate.kind.value} does not match "
            f"instance kind {instance.kind.value}"
        )
    if instance.kind is TaskKind.TRIP_PLANNING:
        return _verify_trip(instance.payload, candidate)  # type: ignore[arg-type]
    if instance.kind is TaskKind.VERTEX_COVER:
        return _verify_cover(instance.payload, candidate)  # type: ignore[arg-type]
    if instance.kind is TaskKind.THREE_DM:
        return _verify_threedm(instance.payload, candidate)  # type: ignore[arg-type]
    return _verify_meeting(instance.payload, instance.ground_truth, candidate)  # type: ignore[arg-type]


def evaluate(instance: ProblemInstance, text: str) -> tuple[ParseReport, Verdict]:
    """Parse model text, then verify; ParseFailure when nothing parseable."""
    report = parse_answer(instance.payload, text)
    if report.candidate is None:
        return report, Verdict(
            status=VerdictStatus.PARSE_FAILURE, reason=report.failure_reason
        )
    return report, verify(instance, report.candidate)

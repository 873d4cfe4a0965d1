import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from searchbench.answers import (
    _match_vocab,
    canonical_text,
    evaluate,
    parse_answer,
    verify,
)
from searchbench.generate import GenSpec, generate
from searchbench.cover import CoverSet
from searchbench.meeting import Friend, Meeting, MeetingPayload, MeetingSchedule
from searchbench.threedm import Matching
from searchbench.trip import TripLeg, TripPayload, TripPlan
from searchbench.tasks import (
    KindMismatchError,
    ProblemInstance,
    TaskKind,
    VerdictStatus,
    family,
)

from conftest import ENUMERABLE_LEVELS

ANSWER_FIXTURE = (
    Path(__file__).resolve().parents[1]
    / "docs" / "prompt-formats" / "appendixB-task1.answer.txt"
)


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------


def test_reference_render_matches_bundled_answer(reference_trip):
    text = canonical_text(reference_trip.payload, reference_trip.ground_truth)
    assert text + "\n" == ANSWER_FIXTURE.read_text(encoding="utf-8")
    assert text.startswith(
        "Here is the trip plan for visiting the 6 European cities for 16 days:"
    )
    assert "**Day 1-4:** Arriving in Edinburgh and visit Edinburgh for 4 days." in text
    assert "**Day 4:** Fly from Edinburgh to Milan." in text
    assert text.endswith("**Day 14-16:** Visit Brussels for 3 days.")


def test_cover_render_shape():
    inst = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=2, seed=1))
    text = canonical_text(inst.payload, inst.ground_truth)
    k = len(inst.ground_truth.vertices)
    assert text.startswith(f"Here is a vertex cover of size {k}:")
    assert "Vertex cover: [" in text and text.endswith("]")


def test_threedm_render_shape():
    inst = generate(GenSpec(kind=TaskKind.THREE_DM, level=2, seed=1))
    text = canonical_text(inst.payload, inst.ground_truth)
    n = inst.payload.n
    assert f"Here is a perfect matching with {n} disjoint triples:" in text
    assert text.count("(") == n


def test_meeting_render_shape():
    inst = generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=3, seed=1))
    text = canonical_text(inst.payload, inst.ground_truth)
    count = len(inst.ground_truth.meetings)
    noun = "friend" if count == 1 else "friends"
    assert text.startswith(f"Here is the schedule to meet {count} {noun}:")
    assert text.count("Meet ") == count


# ---------------------------------------------------------------------------
# Parse round trips and tolerance
# ---------------------------------------------------------------------------


def test_round_trip_identity_sample():
    for kind, levels in ENUMERABLE_LEVELS.items():
        for seed in range(6):
            inst = generate(GenSpec(kind=kind, level=levels[seed % len(levels)], seed=seed))
            text = canonical_text(inst.payload, inst.ground_truth)
            report = parse_answer(inst.payload, text)
            assert report.candidate == inst.ground_truth, (kind, seed)


def test_trip_parse_tolerates_markup_and_case(reference_trip):
    text = (
        "Sure! Here is my plan.\n"
        "Day 1-4: arriving in EDINBURGH and visit edinburgh for 4 days\n"
        "Day 4: fly from Edinburgh to Milan.\n"
        "day 4-5: visit milan for 2 days\n"
        "Day 5: Fly from Milan to Copenhagen.\n"
        "Day 5-8: visit Copenhagen for 4 days.\n"
        "Day 8-10: visit Riga for 3 days.\n"
        "Day 10-14: visit Vilnius for 5 days.\n"
        "Day 14-16: visit Brussels for 3 days.\n"
    )
    report = parse_answer(reference_trip.payload, text)
    assert report.candidate == reference_trip.ground_truth


def test_trip_parse_last_answer_wins(reference_trip):
    wrong = (
        "**Day 1-3:** Visit Riga for 3 days.\n"
        "**Day 3-6:** Visit Brussels for 4 days.\n"
    )
    right = canonical_text(reference_trip.payload, reference_trip.ground_truth)
    report = parse_answer(
        reference_trip.payload, wrong + "\nWait, let me redo this.\n\n" + right
    )
    assert report.candidate == reference_trip.ground_truth


@pytest.mark.parametrize("kind", [TaskKind.THREE_DM, TaskKind.MEETING_PLANNING])
def test_block_parse_last_answer_wins(kind):
    inst = generate(GenSpec(kind=kind, level=6, seed=0))
    rows = family(kind).output(inst.payload, inst.ground_truth).splitlines()
    other = generate(GenSpec(kind=kind, level=6, seed=1))
    earlier = family(kind).output(other.payload, other.ground_truth)
    assert len(rows) >= 2 and earlier.splitlines() != rows
    half = len(rows) // 2
    text = (
        earlier + "\nWait, let me redo this.\n"
        + "\n".join(rows[:half]) + "\n\n" + "\n".join(rows[half:]) + "\n"
    )
    report = parse_answer(inst.payload, text)
    # Rows of the earlier answer would add triples or meetings to the candidate.
    assert report.candidate == inst.ground_truth


def test_cover_parse_variants():
    inst = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=2, seed=3))
    want = inst.ground_truth
    ids = sorted(want.vertices)
    bracketed = "The answer is [" + ", ".join(f"V{i}" for i in ids) + "]"
    bare = "Vertices: " + ", ".join(str(i) for i in ids)
    for text in (bracketed, bare):
        report = parse_answer(inst.payload, text)
        assert report.candidate == want, text


def test_threedm_parse_prefixed_triples():
    inst = generate(GenSpec(kind=TaskKind.THREE_DM, level=1, seed=2))
    lines = [f"(x{t[0]}, y{t[1]}, z{t[2]})" for t in sorted(inst.ground_truth.triples)]
    report = parse_answer(inst.payload, "\n".join(lines))
    assert report.candidate == inst.ground_truth


def test_meeting_parse_twelve_hour_clock():
    inst = generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=1, seed=4))
    meeting = inst.ground_truth.meetings[0]

    def twelve(minutes):
        h, m = divmod(minutes, 60)
        suffix = "AM" if h < 12 else "PM"
        h = h % 12 or 12
        return f"{h}:{m:02d}{suffix}"

    text = (
        f"Meet {meeting.friend.upper()} at {meeting.location.lower()} "
        f"from {twelve(meeting.start)} to {twelve(meeting.end)}."
    )
    report = parse_answer(inst.payload, text)
    assert report.candidate == inst.ground_truth


def test_parse_failure_on_garbage(sample_instances):
    for group in sample_instances.values():
        report = parse_answer(group[0].payload, "complete nonsense with no structure")
        assert report.candidate is None
        assert report.failure_reason


# ---------------------------------------------------------------------------
# Verification diagnostics
# ---------------------------------------------------------------------------


def _trip_plan(payload, order):
    legs = []
    day = 1
    for city in order:
        stay = payload.stay_of(city)
        legs.append(TripLeg(city=city, day_from=day, day_to=day + stay - 1))
        day += stay - 1
    return TripPlan(legs=tuple(legs))


def test_verify_reference_ground_truth(reference_trip):
    assert verify(reference_trip, reference_trip.ground_truth).status is VerdictStatus.SUCCESS


def test_verify_trip_swapped_legs_names_the_window(reference_trip):
    swapped = _trip_plan(
        reference_trip.payload,
        ["Edinburgh", "Milan", "Copenhagen", "Vilnius", "Riga", "Brussels"],
    )
    verdict = verify(reference_trip, swapped)
    assert verdict.status is VerdictStatus.CONSTRAINT_VIOLATION
    assert verdict.reason == "window: workshop Day 10-14"


def test_verify_trip_duplicate_and_missing(reference_trip):
    payload = reference_trip.payload
    dup = _trip_plan(payload, ["Edinburgh", "Milan", "Milan", "Copenhagen"])
    verdict = verify(reference_trip, dup)
    assert "visited twice" in verdict.reason
    missing = _trip_plan(payload, ["Edinburgh", "Milan", "Copenhagen"])
    verdict = verify(reference_trip, missing)
    assert "missing" in verdict.reason


def test_verify_trip_unknown_flight(reference_trip):
    plan = _trip_plan(
        reference_trip.payload,
        ["Edinburgh", "Milan", "Copenhagen", "Vilnius", "Brussels", "Riga"],
    )
    verdict = verify(reference_trip, plan)
    assert verdict.status is VerdictStatus.CONSTRAINT_VIOLATION
    # the swapped tail breaks a window before flights are even consulted
    assert verdict.reason.startswith(("window:", "flight:"))


def test_verify_cover_uncovered_edge_and_size():
    inst = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=2, seed=5))
    verdict = verify(inst, CoverSet(vertices=frozenset()))
    assert verdict.status is VerdictStatus.CONSTRAINT_VIOLATION
    assert "uncovered" in verdict.reason
    padded = frozenset(range(inst.payload.vertex_count))
    verdict = verify(inst, CoverSet(vertices=padded))
    assert verdict.status is VerdictStatus.WRONG_ANSWER


def test_verify_threedm_reuse_and_count():
    inst = generate(GenSpec(kind=TaskKind.THREE_DM, level=2, seed=6))
    triples = sorted(inst.ground_truth.triples)
    short = Matching(triples=frozenset(triples[:-1]))
    verdict = verify(inst, short)
    assert verdict.status is VerdictStatus.WRONG_ANSWER
    outside = Matching(triples=frozenset([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)][: len(triples)]))
    verdict = verify(inst, outside)
    assert verdict.status in (
        VerdictStatus.CONSTRAINT_VIOLATION,
        VerdictStatus.WRONG_ANSWER,
    )


def test_verify_meeting_suboptimal_count():
    inst = generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=3, seed=7))
    if len(inst.ground_truth.meetings) > 1:
        fewer = MeetingSchedule(meetings=inst.ground_truth.meetings[:-1])
        verdict = verify(inst, fewer)
        assert verdict.status is VerdictStatus.WRONG_ANSWER


def test_verify_meeting_duplicate_friend():
    inst = generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=2, seed=8))
    first = inst.ground_truth.meetings[0]
    doubled = MeetingSchedule(meetings=(first, first))
    verdict = verify(inst, doubled)
    assert verdict.status is VerdictStatus.CONSTRAINT_VIOLATION


def _hand_built(payload, truth):
    return ProblemInstance(
        id=f"{payload.kind.value}-hand", kind=payload.kind, level=1, seed=0,
        payload=payload, ground_truth=truth,
    )


# Oslo-Rome-Nice and its reverse are both valid; Oslo and Nice share no flight.
_TWO_PLAN_TRIP = _hand_built(
    TripPayload(
        cities=("Oslo", "Rome", "Nice"), total_days=7,
        stays={"Oslo": 3, "Rome": 3, "Nice": 3}, windows={},
        flights=frozenset({("Oslo", "Rome"), ("Rome", "Oslo"),
                           ("Rome", "Nice"), ("Nice", "Rome")}),
    ),
    TripPlan(legs=(TripLeg("Oslo", 1, 3), TripLeg("Rome", 3, 5), TripLeg("Nice", 5, 7))),
)
_ALICE = _hand_built(
    MeetingPayload(
        locations=("Bayview", "Chinatown"), start_location="Bayview", day_start=540,
        travel_minutes={("Bayview", "Chinatown"): 10},
        friends=(Friend("Alice", "Chinatown", 600, 700, 30),),
    ),
    MeetingSchedule(meetings=(Meeting("Alice", "Chinatown", 600, 630),)),
)


def test_meeting_parse_reads_12_am_and_takes_a_missing_place_from_the_friend():
    report = parse_answer(_ALICE.payload, "Meet Alice from 12:15 AM to 12:45 AM.")
    assert report.candidate == MeetingSchedule(meetings=(Meeting("Alice", "Chinatown", 15, 45),))


def test_kind_guards_name_the_kinds_by_value(reference_trip):
    cover = CoverSet(vertices=frozenset({0}))
    with pytest.raises(KindMismatchError) as info:
        canonical_text(reference_trip.payload, cover)
    assert str(info.value) == "solution kind VertexCover does not fit payload kind TripPlanning"
    with pytest.raises(KindMismatchError) as info:
        verify(reference_trip, cover)
    assert str(info.value) == (
        "candidate kind VertexCover does not match instance kind TripPlanning"
    )


@pytest.mark.parametrize("instance, answer, status, reason", [
    # a valid plan that is not the ground truth
    (_TWO_PLAN_TRIP, "Day 1-3: Visit Nice\nDay 3-5: Visit Rome\nDay 5-7: Visit Oslo",
     VerdictStatus.SUCCESS, ""),
    (_TWO_PLAN_TRIP, "Day 1-4: Visit Oslo\nDay 4-5: Visit Rome\nDay 5-7: Visit Nice",
     VerdictStatus.CONSTRAINT_VIOLATION, "stay length: Oslo spans 4 days, needs 3"),
    (_TWO_PLAN_TRIP, "Day 1-3: Visit Oslo\nDay 3-5: Visit Nice\nDay 5-7: Visit Rome",
     VerdictStatus.CONSTRAINT_VIOLATION, "flight: no direct flight Oslo → Nice"),
    # the parser snaps cities to the payload's, so only a direct candidate
    # can hold no leg or an unknown city
    (_TWO_PLAN_TRIP, TripPlan(legs=()), VerdictStatus.CONSTRAINT_VIOLATION, "empty plan"),
    (_TWO_PLAN_TRIP, TripPlan(legs=(TripLeg("Paris", 1, 7),)),
     VerdictStatus.CONSTRAINT_VIOLATION, "unknown city: Paris"),
    (_ALICE, "Meet Alice at Chinatown from 10:00 to 10:15.",
     VerdictStatus.CONSTRAINT_VIOLATION, "meeting Alice for 15 min, minimum 30"),
    (_ALICE, "Meet Alice at Chinatown from 11:30 to 12:00.",
     VerdictStatus.CONSTRAINT_VIOLATION, "window: Alice available 10:00-11:40"),
])
def test_verdict_names_the_first_broken_constraint(instance, answer, status, reason):
    """Text answers go through ``evaluate``, structured ones to ``verify``."""
    if isinstance(answer, str):
        _, verdict = evaluate(instance, answer)
    else:
        verdict = verify(instance, answer)
    assert (verdict.status, verdict.reason) == (status, reason)


# ---------------------------------------------------------------------------
# evaluate = parse + verify
# ---------------------------------------------------------------------------


def test_evaluate_success_and_parse_failure(reference_trip):
    text = canonical_text(reference_trip.payload, reference_trip.ground_truth)
    report, verdict = evaluate(reference_trip, text)
    assert verdict.status is VerdictStatus.SUCCESS
    assert report.candidate == reference_trip.ground_truth
    report, verdict = evaluate(reference_trip, "no itinerary here")
    assert verdict.status is VerdictStatus.PARSE_FAILURE
    assert report.candidate is None


def test_evaluate_wrong_but_valid_looking_plan(reference_trip):
    wrong = (
        "**Day 1-3:** Arriving in Riga and visit Riga for 3 days.\n"
        "**Day 3-7:** Visit Edinburgh for 4 days.\n"
    )
    _, verdict = evaluate(reference_trip, wrong)
    assert verdict.status in (
        VerdictStatus.CONSTRAINT_VIOLATION,
        VerdictStatus.WRONG_ANSWER,
    )
    assert verdict.status is not VerdictStatus.SUCCESS


def test_evaluate_reads_an_overlong_number_as_a_parse_failure(sample_instances):
    digits = "7" * 5000
    texts = {
        TaskKind.TRIP_PLANNING: f"Day 1-{digits}: Visit Rome",
        TaskKind.VERTEX_COVER: f"Vertex cover: [V{digits}, V1]",
        TaskKind.THREE_DM: f"(x{digits}, y0, z0)",
    }
    for kind, text in texts.items():
        _, verdict = evaluate(sample_instances[kind][0], text)
        assert verdict.status is VerdictStatus.PARSE_FAILURE
        assert "too many digits" in verdict.reason


# ---------------------------------------------------------------------------
# Vocabulary snapping against the regex matcher it replaced
# ---------------------------------------------------------------------------


def _regex_match_vocab(raw, vocabulary):
    """The former matcher: one lookaround regex per name over the lower-cased
    text; earliest start, then longest name, then smallest name."""
    low = raw.lower()
    best = None
    for name in vocabulary:
        pattern = re.escape(name.lower())
        m = re.search(rf"(?<![a-z]){pattern}(?![a-z])", low)
        if m:
            key = (m.start(), -len(name), name)
            if best is None or key < best:
                best = key
    return best[2] if best else None


# Names that collide once lower-cased, are prefixes of each other, are empty,
# or change length when lower-cased (İ lowers to two code points).
_NAMES = st.one_of(
    st.sampled_from([
        "", "Rome", "ROME", "rome", "Rom", "Romeo", "Ro", "San Jose", "San", "Jose",
        "İstanbul", "istanbul", "İ", "i", "ß", "SS", "ss", "Ōslo", "ōslo", "Oslo",
        "St. Ives", "x1", "a-b",
    ]),
    st.text(alphabet="abAB İıßŌō-.", max_size=4),
)
_BOUNDARIES = st.sampled_from(["`", "{", "-", ".", " ", "0", "7", "@", "[", "_", "a", "Z", "é", "İ"])


@st.composite
def _vocab_and_text(draw):
    vocabulary = tuple(draw(st.lists(_NAMES, max_size=6)))
    names = st.sampled_from(vocabulary or ("",))
    pieces = st.one_of(_BOUNDARIES, names, names.map(str.upper), names.map(str.swapcase))
    return vocabulary, "".join(draw(st.lists(pieces, max_size=12)))


@settings(max_examples=500, deadline=None)
@given(_vocab_and_text())
@example((("Rome", "ROME", "rome"), "xrome rome"))
@example((("San", "San Jose"), "`san jose{"))
@example((("İstanbul", "istanbul"), "İstanbul"))
@example((("i", "İ"), "İ"))  # ties on the name's length, not its lower-cased length
@example((("", "ß"), "ß-"))
def test_scan_matcher_equals_the_regex_matcher(case):
    vocabulary, text = case
    assert _match_vocab(text, vocabulary) == _regex_match_vocab(text, vocabulary)


# Names that share a prefix, differ only in case, or hold the Kelvin sign
# (which lower-cases to ASCII "k") or İ (which lower-cases to two code points).
_EXACT_NAMES = st.sampled_from([
    "San", "San Francisco", "San Jose", "Sa", "Rome", "ROME", "rome", "RoMe", "Kelvin",
    "\u212aelvin", "KELVIN", "İstanbul", "istanbul", "İ", "i", "I", "ı", "Oslo", "Ōslo",
    "ß", "SS", "St. Ives", "a-b", "",
])


@st.composite
def _vocab_and_a_name_in_it(draw):
    vocabulary = tuple(draw(st.lists(_EXACT_NAMES, min_size=1, max_size=8)))
    name = draw(st.sampled_from(vocabulary))
    spell = draw(st.sampled_from([str, str.lower, str.upper, str.swapcase, str.title]))
    return vocabulary, spell(name)


@settings(max_examples=500, deadline=None)
@given(_vocab_and_a_name_in_it())
@example((("San", "San Francisco"), "san francisco"))
@example((("San Francisco", "San"), "SAN"))
@example((("Rome", "ROME", "rome"), "rOME"))
@example((("Kelvin", "\u212aelvin", "KELVIN"), "kelvin"))
@example((("\u212aelvin",), "\u212aELVIN"))
@example((("İstanbul", "istanbul"), "ISTANBUL"))
@example((("i", "İ", "I"), "i"))
def test_an_exact_name_snaps_as_the_full_scan_does(case):
    """Text that lower-cases to a vocabulary entry snaps to that entry, or to
    the name the regex matcher prefers when several entries spell it."""
    vocabulary, text = case
    assert _match_vocab(text, vocabulary) == _regex_match_vocab(text, vocabulary)


# ---------------------------------------------------------------------------
# evaluate never raises
# ---------------------------------------------------------------------------


_FRAGMENTS = st.sampled_from([
    "Day ", "-", ":", "**", " ", "\n", "\n\n", "Fly from ", " to ", "Visit ", "Arriving in ",
    "Vertex cover: [", "]", "[", "V", ", ", "(x", "y", "z", ")", "(", "Meet ", " at ",
    " from ", "AM", "PM", "12", "0", "99", "9:30", "23:59", "–", "until",
])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_evaluate_returns_a_verdict_for_any_text(sample_instances, data):
    instances = [inst for group in sample_instances.values() for inst in group]
    inst = data.draw(st.sampled_from(instances))
    rows = canonical_text(inst.payload, inst.ground_truth).splitlines()
    piece = st.one_of(_FRAGMENTS, st.sampled_from(rows), st.text(max_size=6))
    report, verdict = evaluate(inst, "".join(data.draw(st.lists(piece, max_size=25))))
    assert verdict.status in VerdictStatus
    assert (report.candidate is None) == (verdict.status is VerdictStatus.PARSE_FAILURE)

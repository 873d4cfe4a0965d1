from pathlib import Path

import pytest

from searchbench.answers import (
    canonical_text,
    evaluate,
    parse_answer,
    verify,
)
from searchbench.generate import GenSpec, generate
from searchbench.tasks import (
    CoverSet,
    Matching,
    Meeting,
    MeetingSchedule,
    TaskKind,
    TripLeg,
    TripPlan,
    VerdictStatus,
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
    assert verify(reference_trip, reference_trip.ground_truth).ok


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


# ---------------------------------------------------------------------------
# evaluate = parse + verify
# ---------------------------------------------------------------------------


def test_evaluate_success_and_parse_failure(reference_trip):
    text = canonical_text(reference_trip.payload, reference_trip.ground_truth)
    report, verdict = evaluate(reference_trip, text)
    assert verdict.ok and report.candidate == reference_trip.ground_truth
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
    assert not verdict.ok

import dataclasses
import json
import re

import pytest

from searchbench.generate import GenSpec, generate
from searchbench.tasks import (
    Friend,
    InputFileError,
    KindMismatchError,
    MeetingPayload,
    ProblemInstance,
    TaskKind,
    TripPayload,
    TripWindow,
    Verdict,
    VerdictStatus,
    instance_from_record,
    instance_to_record,
    minutes_to_clock,
    read_instances,
    write_instances,
)


def test_task_kind_values_round_trip():
    for kind in TaskKind:
        assert TaskKind(kind.value) is kind


def test_payload_and_solution_kinds_agree(sample_instances):
    for kind, instances in sample_instances.items():
        for inst in instances:
            assert inst.payload.kind is kind
            assert inst.ground_truth.kind is kind
            assert inst.kind is kind


def test_instance_rejects_mismatched_kind(sample_instances):
    trip = sample_instances[TaskKind.TRIP_PLANNING][0]
    cover = sample_instances[TaskKind.VERTEX_COVER][0]
    with pytest.raises(KindMismatchError) as info:
        ProblemInstance(
            id="bad",
            kind=TaskKind.TRIP_PLANNING,
            level=1,
            seed=0,
            payload=trip.payload,
            ground_truth=cover.ground_truth,
        )
    assert str(info.value) == "ground truth kind VertexCover != TripPlanning"
    with pytest.raises(KindMismatchError) as info:
        dataclasses.replace(trip, payload=cover.payload)
    assert str(info.value) == "payload kind VertexCover != TripPlanning"


def test_payloads_are_immutable(sample_instances):
    trip = sample_instances[TaskKind.TRIP_PLANNING][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        trip.payload.total_days = 99


def test_trip_payload_accessors(reference_trip):
    payload = reference_trip.payload
    assert payload.cities[0] == "Riga"
    assert payload.stay_of("Edinburgh") == 4
    window = payload.window_of("Vilnius")
    assert (window.start, window.end, window.label) == (10, 14, "workshop")
    assert payload.window_of("Brussels") is None
    assert payload.has_flight("Riga", "Vilnius")
    assert not payload.has_flight("Vilnius", "Riga")  # one-way pair
    assert payload.has_flight("Edinburgh", "Milan")
    assert payload.has_flight("Milan", "Edinburgh")


def test_minutes_to_clock():
    assert minutes_to_clock(9 * 60) == "9:00"
    assert minutes_to_clock(13 * 60 + 5) == "13:05"
    assert minutes_to_clock(0) == "0:00"
    assert minutes_to_clock(23 * 60 + 59) == "23:59"
    with pytest.raises(ValueError):
        minutes_to_clock(24 * 60)
    with pytest.raises(ValueError):
        minutes_to_clock(-1)


def test_record_round_trip_all_kinds(sample_instances):
    for instances in sample_instances.values():
        for inst in instances:
            again = instance_from_record(instance_to_record(inst))
            assert again == inst


def test_jsonl_file_round_trip(tmp_path, sample_instances):
    path = tmp_path / "instances.jsonl"
    flat = [inst for group in sample_instances.values() for inst in group]
    assert write_instances(path, flat) == len(flat)
    assert list(read_instances(path)) == flat


def _meeting_with(travel: int, min_minutes: int) -> MeetingPayload:
    return MeetingPayload(
        locations=("Bayview", "Chinatown"), start_location="Bayview", day_start=540,
        travel_minutes={("Bayview", "Chinatown"): travel},
        friends=(Friend("Alice", "Chinatown", 600, 700, min_minutes),),
    )


def test_meeting_payload_rejects_negative_minutes():
    assert _meeting_with(travel=0, min_minutes=0).travel("Bayview", "Chinatown") == 0
    with pytest.raises(ValueError, match="negative travel time between 'Bayview' and 'Chinatown'"):
        _meeting_with(travel=-1, min_minutes=30)
    with pytest.raises(ValueError, match="negative min_minutes for 'Alice'"):
        _meeting_with(travel=10, min_minutes=-1)
    # the verifier looks friends up by lower-cased name
    alice = _meeting_with(travel=10, min_minutes=30)
    with pytest.raises(ValueError, match="friend name 'alice' repeats, ignoring case"):
        dataclasses.replace(
            alice, friends=alice.friends + (Friend("alice", "Bayview", 600, 700, 30),)
        )
    # every pair of places the start and the friends name needs a time
    with pytest.raises(ValueError, match="no travel time between 'Bayview' and 'Presidio'"):
        MeetingPayload(
            locations=("Bayview", "Chinatown", "Presidio"), start_location="Bayview",
            day_start=540, travel_minutes={("Bayview", "Chinatown"): 10,
                                           ("Chinatown", "Presidio"): 10},
            friends=(Friend("Alice", "Chinatown", 600, 700, 30),
                     Friend("Brian", "Presidio", 600, 700, 30)),
        )


_TRIP = TripPayload(
    cities=("Oslo", "Rome"), total_days=5, stays={"Oslo": 3, "Rome": 3},
    windows={"Rome": TripWindow(3, 5, "show")}, flights=frozenset({("Oslo", "Rome")}),
)


@pytest.mark.parametrize("change, message", [
    pytest.param({"cities": ("Oslo", "Rome", "Oslo")},
                 r"cities \['Oslo', 'Rome', 'Oslo'\] repeat or differ", id="repeated city"),
    pytest.param({"stays": {"Oslo": 3}}, r"repeat or differ from stays \['Oslo'\]",
                 id="missing stay"),
    pytest.param({"stays": {"Oslo": 3, "Rome": 3, "Nice": 1}},
                 "repeat or differ from stays .*'Nice'", id="stay elsewhere"),
    pytest.param({"windows": {"Nice": TripWindow(3, 5, "show")}},
                 r"windows or flights name unknown cities \['Nice'\]", id="window elsewhere"),
    pytest.param({"flights": frozenset({("Oslo", "Nice")})},
                 r"name unknown cities \['Nice'\]", id="flight to elsewhere"),
    pytest.param({"flights": frozenset({("Nice", "Rome")})},
                 r"name unknown cities \['Nice'\]", id="flight from elsewhere"),
    pytest.param({"total_days": 6}, "stays fill 5 days, not total_days 6", id="calendar"),
    pytest.param({"cities": (), "total_days": 1, "stays": {}, "windows": {},
                  "flights": frozenset()}, "a trip needs at least one city", id="no cities"),
])
def test_trip_payload_rejects_inconsistent_inputs(change, message):
    assert _TRIP.stay_of("Rome") == 3
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(_TRIP, **change)


def _spoil(field: str, payload: dict) -> None:
    """Break one payload rule, named by ``field``, in a record's payload."""
    if field == "travel":
        payload["travel_minutes"][0][2] = -5
    elif field == "min_minutes":
        payload["friends"][0]["min_minutes"] = -5
    elif field == "missing pair":
        del payload["travel_minutes"][0]
    elif field == "doubled pair":
        a, b, minutes = payload["travel_minutes"][0]
        payload["travel_minutes"].append([b, a, minutes])
    elif field == "repeated name":
        payload["friends"][1]["name"] = payload["friends"][0]["name"].lower()
    elif field == "repeated city":
        payload["cities"].append(payload["cities"][0])
    elif field == "stay elsewhere":
        payload["stays"]["Atlantis"] = 1
    elif field == "window elsewhere":
        payload["windows"]["Atlantis"] = [1, 2, "show"]
    elif field == "flight elsewhere":
        payload["flights"].append([payload["cities"][0], "Atlantis"])
    elif field == "no cities":
        payload.update(cities=[], total_days=1, stays={}, windows={}, flights=[])
    else:
        payload["total_days"] += 1


# field: (the task whose record is spoiled, the error message's pattern)
_SPOILED = {
    "travel": (TaskKind.MEETING_PLANNING, "negative travel"),
    "min_minutes": (TaskKind.MEETING_PLANNING, "negative min_minutes"),
    "missing pair": (TaskKind.MEETING_PLANNING, "no travel time between"),
    "doubled pair": (TaskKind.MEETING_PLANNING, "travel time between .* given twice"),
    "repeated name": (TaskKind.MEETING_PLANNING, "friend name '[a-z]+' repeats, ignoring case"),
    "repeated city": (TaskKind.TRIP_PLANNING, "cities .* repeat or differ from stays"),
    "stay elsewhere": (TaskKind.TRIP_PLANNING, "cities .* differ from stays .*'Atlantis'"),
    "window elsewhere": (TaskKind.TRIP_PLANNING, r"windows or flights name .* \['Atlantis'\]"),
    "flight elsewhere": (TaskKind.TRIP_PLANNING, r"windows or flights name .* \['Atlantis'\]"),
    "calendar": (TaskKind.TRIP_PLANNING, "stays fill [0-9]+ days, not total_days"),
    "no cities": (TaskKind.TRIP_PLANNING, "a trip needs at least one city"),
}


@pytest.mark.parametrize("field", list(_SPOILED))
def test_reading_negative_meeting_minutes_names_path_and_line(tmp_path, field):
    kind, message = _SPOILED[field]
    record = instance_to_record(generate(GenSpec(kind=kind, level=2, seed=0)))
    _spoil(field, record["payload"])
    path = tmp_path / "instances.jsonl"
    path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(InputFileError, match=rf"^{re.escape(str(path))}:2: {message}"):
        read_instances(path)


def test_verdict_ok_flag():
    assert Verdict(status=VerdictStatus.SUCCESS).ok
    for status in VerdictStatus:
        if status is not VerdictStatus.SUCCESS:
            assert not Verdict(status=status).ok

import dataclasses

import pytest

from searchbench.tasks import (
    KindMismatchError,
    ProblemInstance,
    TaskKind,
    Verdict,
    VerdictStatus,
    instance_from_record,
    instance_to_record,
    minutes_to_clock,
    payload_kind,
    read_instances,
    solution_kind,
    write_instances,
)


def test_task_kind_values_round_trip():
    for kind in TaskKind:
        assert TaskKind(kind.value) is kind


def test_payload_and_solution_kinds_agree(sample_instances):
    for kind, instances in sample_instances.items():
        for inst in instances:
            assert payload_kind(inst.payload) is kind
            assert solution_kind(inst.ground_truth) is kind
            assert inst.kind is kind


def test_instance_rejects_mismatched_kind(sample_instances):
    trip = sample_instances[TaskKind.TRIP_PLANNING][0]
    cover = sample_instances[TaskKind.VERTEX_COVER][0]
    with pytest.raises(KindMismatchError):
        ProblemInstance(
            id="bad",
            kind=TaskKind.TRIP_PLANNING,
            level=1,
            seed=0,
            payload=trip.payload,
            ground_truth=cover.ground_truth,
        )


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


def test_verdict_ok_flag():
    assert Verdict(status=VerdictStatus.SUCCESS).ok
    for status in VerdictStatus:
        if status is not VerdictStatus.SUCCESS:
            assert not Verdict(status=status).ok

import ast
import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

from searchbench.generate import GenSpec, generate
from searchbench.cover import VertexCoverPayload
from searchbench.meeting import Friend, MeetingPayload
from searchbench.threedm import ThreeDMPayload
from searchbench.trip import TripPayload, TripWindow
from searchbench.tasks import (
    InputFileError,
    KindMismatchError,
    ProblemInstance,
    TaskKind,
    UnknownCityError,
    VerdictStatus,
    family,
    instance_from_record,
    instance_to_record,
    minutes_to_clock,
    read_instances,
    write_instances,
)


def test_task_kind_values_round_trip():
    for kind in TaskKind:
        assert TaskKind(kind.value) is kind


def test_every_kind_resolves_to_a_family_module_with_every_family_name():
    """The names ``family``'s docstring lists, each a bullet's head."""
    heads = [line.split(":")[0] for line in family.__doc__.splitlines()
             if line.lstrip().startswith("- ``")]
    names = {name for head in heads for name in re.findall(r"``(\w+)", head)}
    assert len(names) == 18
    modules = {kind: family(kind) for kind in TaskKind}
    assert len(set(modules.values())) == len(TaskKind)
    for kind, module in modules.items():
        assert module.KIND is kind and family(kind) is module
        assert {n for n in names if callable(getattr(module, n, None)) == n.islower()} == names


# Every class whose ``kind`` names a task, each defined in its family module,
# and the two names that annotate any of them.
TASK_CLASSES = {
    name for kind in TaskKind for name, value in vars(family(kind)).items()
    if isinstance(getattr(value, "kind", None), TaskKind) and isinstance(value, type)
} | {"Payload", "Solution"}


@pytest.mark.parametrize(
    "module", ["answers", "prompts", "solver", "reporting", "tasks", "generate"]
)
def test_shared_modules_test_no_payload_or_solution_class(module):
    """The shared modules reach a task only through ``family``."""
    path = importlib.import_module(f"searchbench.{module}").__file__
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    tested = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            for part in ast.walk(node.args[1]):
                tested.add(getattr(part, "id", None) or getattr(part, "attr", None))
    assert len(TASK_CLASSES) == 10
    assert tested & TASK_CLASSES == set()


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
    with pytest.raises(UnknownCityError, match="unknown city: 'Nice'"):
        payload.stay_of("Nice")
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
    # a time worked out past midnight, such as a late arrival, reads on
    assert minutes_to_clock(24 * 60) == "24:00"
    assert minutes_to_clock(24 * 60 + 15) == "24:15"
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


def test_instance_file_rewrites_to_the_same_bytes(tmp_path):
    """Each family's record writer and reader are inverses on every level:
    a file read back and written again is byte for byte the file."""
    first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
    write_instances(first, [generate(GenSpec(kind=kind, level=level, seed=3))
                            for kind in TaskKind for level in range(1, 11)])
    assert write_instances(again, read_instances(first)) == 4 * 10
    assert again.read_bytes() == first.read_bytes()


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
    with pytest.raises(UnknownCityError, match="no travel time between 'Bayview' and 'Presidio'"):
        alice.travel("Bayview", "Presidio")
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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: VertexCoverPayload(vertex_count=3, edges=((0, 1), (1, 3)), target_size=1),
                 r"edge \(1, 3\) outside vertex range", id="edge outside"),
    pytest.param(lambda: VertexCoverPayload(vertex_count=3, edges=((0, 1), (2, 1)), target_size=1),
                 r"edge \(2, 1\) must be stored with u < v", id="edge reversed"),
    pytest.param(lambda: VertexCoverPayload(vertex_count=3, edges=((1, 1),), target_size=1),
                 r"edge \(1, 1\) must be stored with u < v", id="self loop"),
    pytest.param(lambda: ThreeDMPayload(n=2, triples=((0, 0, 0), (1, 2, 1))),
                 r"triple \(1, 2, 1\) outside element range", id="triple outside"),
    pytest.param(lambda: VertexCoverPayload(vertex_count=3, edges=((0, 1),), target_size=4),
                 r"target_size 4 outside \[0, 3\]", id="cover larger than the graph"),
    pytest.param(lambda: VertexCoverPayload(vertex_count=3, edges=((0, 1),), target_size=-1),
                 r"target_size -1 outside \[0, 3\]", id="negative cover size"),
])
def test_graph_payloads_reject_out_of_range_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    elif field == "window past midnight":
        payload["friends"][0]["window"][1] = 1500
    elif field == "start before midnight":
        payload["day_start"] = -30
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
    elif field == "edge outside":
        payload["edges"][0][1] = payload["vertex_count"]
    elif field == "edge reversed":
        payload["edges"][0].reverse()
    elif field == "triple outside":
        payload["triples"][0][2] = payload["n"]
    elif field == "target size":
        payload["target_size"] = 99
    else:
        payload["total_days"] += 1


# field: (the task whose record is spoiled, the error message's pattern)
_SPOILED = {
    "travel": (TaskKind.MEETING_PLANNING, "negative travel"),
    "min_minutes": (TaskKind.MEETING_PLANNING, "negative min_minutes"),
    "missing pair": (TaskKind.MEETING_PLANNING, "no travel time between"),
    "doubled pair": (TaskKind.MEETING_PLANNING, "travel time between .* given twice"),
    "repeated name": (TaskKind.MEETING_PLANNING, "friend name '[a-z]+' repeats, ignoring case"),
    "window past midnight": (
        TaskKind.MEETING_PLANNING, "window [0-9]+-1500 of '[A-Za-z]+' is not within the minutes"
    ),
    "start before midnight": (TaskKind.MEETING_PLANNING, "day_start -30 is not a minute of"),
    "repeated city": (TaskKind.TRIP_PLANNING, "cities .* repeat or differ from stays"),
    "stay elsewhere": (TaskKind.TRIP_PLANNING, "cities .* differ from stays .*'Atlantis'"),
    "window elsewhere": (TaskKind.TRIP_PLANNING, r"windows or flights name .* \['Atlantis'\]"),
    "flight elsewhere": (TaskKind.TRIP_PLANNING, r"windows or flights name .* \['Atlantis'\]"),
    "calendar": (TaskKind.TRIP_PLANNING, "stays fill [0-9]+ days, not total_days"),
    "no cities": (TaskKind.TRIP_PLANNING, "a trip needs at least one city"),
    "edge outside": (TaskKind.VERTEX_COVER, r"edge \(0, 8\) outside vertex range"),
    "edge reversed": (TaskKind.VERTEX_COVER, r"edge \(3, 0\) must be stored with u < v"),
    "triple outside": (TaskKind.THREE_DM, r"triple \(0, 0, 4\) outside element range"),
    "target size": (TaskKind.VERTEX_COVER, r"target_size 99 outside \[0, 8\]"),
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


@pytest.mark.parametrize("key, value, message", [
    ("id", 7, "id: must be a string, not 7"),
    ("id", None, "id: must be a string, not None"),
    ("level", "2", "level: must be an integer, not '2'"),
    ("level", True, "level: must be an integer, not True"),
    ("seed", None, "seed: must be an integer, not None"),
    ("seed", 1.0, "seed: must be an integer, not 1.0"),
])
def test_reading_an_instance_id_level_or_seed_of_the_wrong_type_names_path_and_line(
    tmp_path, key, value, message
):
    """An id names output files and outcome records, and a level and seed
    name the generator's input; none may be taken as some other JSON type."""
    record = instance_to_record(generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=2, seed=0)))
    path = tmp_path / "instances.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, key: value}) + "\n",
                    encoding="utf-8")
    with pytest.raises(InputFileError, match=rf"^{re.escape(str(path))}:2: {re.escape(message)}$"):
        read_instances(path)

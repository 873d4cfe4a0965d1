import importlib
import random

import pytest

from searchbench.answers import verify
from searchbench.generate import (
    DIFFICULTY_TABLE,
    EXEMPLAR_LEVEL,
    MAX_REGEN,
    GenSpec,
    RegenBudgetExhaustedError,
    UnknownFixtureError,
    UnsupportedLevelError,
    exemplar_instance,
    generate,
    instance_id,
    load_fixture,
)
from searchbench.solver import count_trip_plans
from searchbench.tasks import TaskKind, VerdictStatus

from conftest import ENUMERABLE_LEVELS

# The package re-exports the function ``generate`` under the module's name.
generate_module = importlib.import_module("searchbench.generate")


def test_generate_is_deterministic():
    for kind in TaskKind:
        spec = GenSpec(kind=kind, level=3, seed=17)
        assert generate(spec) == generate(spec)


def test_instance_ids_are_stable():
    inst = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=4, seed=9))
    assert inst.id == instance_id(TaskKind.TRIP_PLANNING, 4, 9) == "TripPlanning-L4-s9"


def test_difficulty_table_strictly_increasing():
    levels = sorted(DIFFICULTY_TABLE)
    assert levels == list(range(1, 11))
    for column in DIFFICULTY_TABLE[1]:
        values = [DIFFICULTY_TABLE[level][column] for level in levels]
        assert values == sorted(set(values)), column


def test_unsupported_level_rejected():
    with pytest.raises(UnsupportedLevelError):
        generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=0, seed=1))
    with pytest.raises(UnsupportedLevelError):
        generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=11, seed=1))


def test_trip_sizes_follow_difficulty_table():
    for level in (2, 5, 8, 10):
        inst = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=level, seed=3))
        row = DIFFICULTY_TABLE[level]
        assert len(inst.payload.cities) == row["trip_cities"]
        assert inst.payload.total_days == row["trip_days"]
        stays = sum(inst.payload.stays.values())
        assert stays - (len(inst.payload.cities) - 1) == inst.payload.total_days


def test_other_task_sizes_follow_difficulty_table():
    for level in (2, 4):
        row = DIFFICULTY_TABLE[level]
        cover = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=level, seed=5))
        assert cover.payload.vertex_count == row["cover_vertices"]
        tdm = generate(GenSpec(kind=TaskKind.THREE_DM, level=level, seed=5))
        assert tdm.payload.n == row["threedm_axis"]
        assert len(tdm.payload.triples) == 3 * row["threedm_axis"]
        meet = generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=level, seed=5))
        assert len(meet.payload.friends) == row["meeting_friends"]


def test_ground_truth_verifies_for_every_generated_instance():
    for kind, levels in ENUMERABLE_LEVELS.items():
        for seed in range(5):
            inst = generate(GenSpec(kind=kind, level=levels[seed % len(levels)], seed=seed))
            verdict = verify(inst, inst.ground_truth)
            assert verdict.status is VerdictStatus.SUCCESS, (kind, seed, verdict)


def test_trip_plans_are_unique_over_all_orderings():
    for level in (3, 5, 7, 10):
        for seed in range(3):
            inst = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=level, seed=seed))
            assert count_trip_plans(inst.payload) == 1, (level, seed)


def test_exemplar_instances_fixed_level_and_distinct():
    ids = set()
    for index in range(5):
        inst = exemplar_instance(TaskKind.TRIP_PLANNING, index)
        assert inst.level == EXEMPLAR_LEVEL
        assert inst == exemplar_instance(TaskKind.TRIP_PLANNING, index)
        ids.add(inst.id)
    assert len(ids) == 5


def test_fixture_contents(reference_trip):
    payload = reference_trip.payload
    assert payload.cities == ("Riga", "Edinburgh", "Milan", "Copenhagen", "Vilnius", "Brussels")
    assert payload.total_days == 16
    assert len(payload.flights) == 27  # 13 bidirectional pairs + 1 one-way
    windows = {w.label: (w.start, w.end) for w in payload.windows.values()}
    assert windows == {
        "wedding": (4, 5),
        "visit relatives": (5, 8),
        "workshop": (10, 14),
    }
    order = [leg.city for leg in reference_trip.ground_truth.legs]
    assert order == ["Edinburgh", "Milan", "Copenhagen", "Riga", "Vilnius", "Brussels"]


def test_unknown_fixture_rejected():
    with pytest.raises(UnknownFixtureError):
        load_fixture("no-such-fixture")


# ---------------------------------------------------------------------------
# The regeneration loop
# ---------------------------------------------------------------------------


def test_generate_gives_up_after_max_regen_attempts(monkeypatch):
    calls = []

    def never(level, rng):
        calls.append(level)
        return None

    monkeypatch.setitem(generate_module._BUILDERS, TaskKind.THREE_DM, ("threedm", never))
    with pytest.raises(RegenBudgetExhaustedError) as info:
        generate(GenSpec(kind=TaskKind.THREE_DM, level=4, seed=123))
    assert len(calls) == MAX_REGEN
    message = str(info.value)
    assert "ThreeDM" in message and "level 4" in message and "seed 123" in message


@pytest.mark.parametrize("failures", [1, 3])
def test_generate_returns_the_first_accepted_attempt(monkeypatch, failures):
    salt, build = generate_module._BUILDERS[TaskKind.VERTEX_COVER]
    calls = 0

    def flaky(level, rng):
        nonlocal calls
        calls += 1
        return None if calls <= failures else build(level, rng)

    monkeypatch.setitem(generate_module._BUILDERS, TaskKind.VERTEX_COVER, (salt, flaky))
    inst = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=7))
    assert calls == failures + 1

    def attempt(k):
        return build(3, random.Random(generate_module._subseed(7, k, salt)))

    assert (inst.payload, inst.ground_truth) == attempt(failures)
    assert inst.payload != attempt(0)[0]

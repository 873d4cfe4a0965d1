import importlib
import json
import os
import random
import subprocess
import sys

import pytest

from searchbench.answers import verify
from searchbench.generate import (
    DIFFICULTY_TABLE,
    EXEMPLAR_LEVEL,
    MAX_REGEN,
    GenSpec,
    RegenBudgetExhaustedError,
    UnsupportedLevelError,
    exemplar_instance,
    generate,
    instance_id,
)
from searchbench.trip import TripPlan, count_trip_plans, trip_legs_for_order
from searchbench.tasks import ProblemInstance, TaskKind, VerdictStatus

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


def test_a_reversed_run_is_a_second_plan_of_every_candidate_it_settles(monkeypatch):
    """Every trip candidate of levels 2-10, seeds 0-29, up to the accepted
    one: the rule is stubbed out so that each candidate reaches the count,
    and wherever the rule finds a reversed order, that order is another
    valid plan and the count sees two."""
    find = generate_module._reversed_run_order
    found = []  # (planted order, reversed order or None), one per candidate
    counts = []  # (payload, plans counted up to 2), one per candidate

    def no_rule(order, windows, flights):
        found.append((order, find(order, windows, flights)))
        return None

    def counted(payload, limit):
        counts.append((payload, count_trip_plans(payload, limit)))
        return counts[-1][1]

    monkeypatch.setattr(generate_module, "_reversed_run_order", no_rule)
    monkeypatch.setattr(generate_module, "count_trip_plans", counted)
    for level in range(2, 11):
        for seed in range(30):
            generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=level, seed=seed))
    assert len(found) == len(counts)
    settled = 0
    for (order, reversed_order), (payload, plans) in zip(found, counts):
        if reversed_order is None:
            continue
        settled += 1
        assert reversed_order != order and sorted(reversed_order) == sorted(order)
        instance = ProblemInstance(
            id="candidate", kind=TaskKind.TRIP_PLANNING, level=1, seed=0, payload=payload,
            ground_truth=TripPlan(legs=trip_legs_for_order(payload, order)),
        )
        plan = TripPlan(legs=trip_legs_for_order(payload, reversed_order))
        assert verify(instance, plan).status is VerdictStatus.SUCCESS, (order, reversed_order)
        assert plans == 2
    assert settled > len(found) // 2


def test_the_reversal_rule_settles_most_paper_sized_trip_candidates(monkeypatch):
    """The 100 level-10 trips of seeds 1-100 draw 1,378 candidates; only 259
    of them reach the exact count, the rest have a reversed run as a second
    plan."""
    calls = 0

    def counted(payload, limit):
        nonlocal calls
        calls += 1
        return count_trip_plans(payload, limit)

    monkeypatch.setattr(generate_module, "count_trip_plans", counted)
    for seed in range(1, 101):
        generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=10, seed=seed))
    assert calls == 259


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


@pytest.mark.parametrize("kind, level, seed, first_accepted", [
    pytest.param(TaskKind.TRIP_PLANNING, 10, 3040, 102, id="trip without a unique plan"),
    pytest.param(TaskKind.VERTEX_COVER, 1, 738, 1, id="graph without edges"),
    pytest.param(TaskKind.MEETING_PLANNING, 1, 103, 1, id="day that meets no friend"),
])
def test_generate_retries_a_rejected_candidate_until_one_verifies(
    kind, level, seed, first_accepted
):
    salt, build = generate_module._BUILDERS[kind]
    accepted = [
        build(level, random.Random(generate_module._subseed(seed, attempt, salt))) is not None
        for attempt in range(first_accepted + 1)
    ]
    assert accepted == [False] * first_accepted + [True]
    inst = generate(GenSpec(kind=kind, level=level, seed=seed))
    assert verify(inst, inst.ground_truth).status is VerdictStatus.SUCCESS
    if kind is TaskKind.TRIP_PLANNING:
        assert count_trip_plans(inst.payload, limit=2) == 1


@pytest.mark.parametrize("parts, total", [(3, 5), (3, 16)])
def test_stay_composition_rejects_a_total_its_stays_cannot_fill(parts, total):
    with pytest.raises(UnsupportedLevelError, match=f"cannot realize {total} days over {parts}"):
        generate_module._stay_composition(random.Random(0), parts, total)


# ---------------------------------------------------------------------------
# Generation in the calling process
# ---------------------------------------------------------------------------


def test_importing_searchbench_leaves_multiprocessing_unloaded(tmp_path):
    """Neither ``import searchbench`` nor a whole oracle run over all four
    tasks loads ``multiprocessing`` or ``concurrent.futures``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "tasks": [kind.value for kind in TaskKind],
        "levels": [4],
        "instance_count": 3,
        "models": [{"name": "m-oracle", "backend": "oracle"}],
        "out_dir": str(tmp_path / "out"),
        "cache_path": str(tmp_path / "cache.jsonl"),
    }), encoding="utf-8")
    script = (
        "import sys; sys.path[:0] = sys.argv[2:]; import searchbench; "
        "loaded = lambda: sorted(m for m in sys.modules "
        "if m.startswith(('multiprocessing', 'concurrent.futures'))); "
        "imported = loaded(); "
        "code = searchbench.cli.main(['run', '--config', sys.argv[1]]); "
        "print(imported, code, loaded())"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), src],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] 0 []"
    assert (tmp_path / "out" / "report.md").exists()

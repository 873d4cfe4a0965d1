import importlib
import json
import os
import random
import signal
import threading
import time

import pytest

from searchbench.answers import verify
from searchbench.generate import (
    DIFFICULTY_TABLE,
    EXEMPLAR_LEVEL,
    MAX_REGEN,
    GenerationChildError,
    GenSpec,
    RegenBudgetExhaustedError,
    UnknownFixtureError,
    UnsupportedLevelError,
    exemplar_instance,
    generate,
    generate_all,
    instance_id,
    load_fixture,
)
from searchbench.solver import count_trip_plans
from searchbench.tasks import TaskKind, VerdictStatus, instance_to_record

from conftest import ENUMERABLE_LEVELS, fail_seeds

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


# ---------------------------------------------------------------------------
# Generating on every usable CPU
# ---------------------------------------------------------------------------

# Seven cheap specs of all four kinds, so every stripe mixes kinds.
MIXED_SPECS = [
    GenSpec(kind=kind, level=level, seed=seed)
    for kind, level, seed in [
        (TaskKind.TRIP_PLANNING, 4, 0), (TaskKind.VERTEX_COVER, 5, 1),
        (TaskKind.THREE_DM, 4, 2), (TaskKind.MEETING_PLANNING, 5, 3),
        (TaskKind.TRIP_PLANNING, 5, 4), (TaskKind.VERTEX_COVER, 3, 5),
        (TaskKind.MEETING_PLANNING, 2, 6),
    ]
]


@pytest.fixture
def cpus(monkeypatch):
    """Report ``n`` usable CPUs; count the forks; check that none is left
    unreaped after the test."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    def report(n: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    yield report
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _records(instances) -> list[str]:
    return [json.dumps(instance_to_record(inst), sort_keys=True) for inst in instances]


# n_extra: the CPUs used beyond the first.  With any, the pool forks one
# worker per CPU used; with none, the serial loop forks nothing.
@pytest.mark.parametrize("n_cpus, n_specs, n_extra", [
    (1, 7, 0), (2, 7, 1), (3, 7, 2), (5, 7, 4), (5, 3, 2), (3, 1, 0), (3, 0, 0),
])
def test_generate_all_writes_the_serial_loops_records(cpus, n_cpus, n_specs, n_extra):
    forks = cpus(n_cpus)
    specs = MIXED_SPECS[:n_specs]
    assert _records(generate_all(specs)) == _records(generate(s) for s in specs)
    assert len(forks) == (n_extra + 1 if n_extra else 0)


def test_generate_all_counts_cpus_without_affinity(cpus, monkeypatch):
    forks = cpus(3)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _records(generate_all(MIXED_SPECS)) == _records(map(generate, MIXED_SPECS))
    assert len(forks) == 2


def test_generate_all_runs_in_process_without_fork(cpus, monkeypatch):
    cpus(4)
    monkeypatch.delattr(os, "fork")
    assert _records(generate_all(MIXED_SPECS)) == _records(map(generate, MIXED_SPECS))


def _assert_the_first_failure_is_the_serial_loops(specs, named: int) -> None:
    with pytest.raises(RegenBudgetExhaustedError) as serial:
        [generate(s) for s in specs]
    with pytest.raises(RegenBudgetExhaustedError) as pooled:
        generate_all(specs)
    assert str(pooled.value) == str(serial.value)
    assert f"seed {named} within" in str(pooled.value)


# Chunks hold ceil(specs / (8 * CPUs)) specs: one each for 6 specs on 3 CPUs.
@pytest.mark.parametrize("failing, named", [((4, 2), 2), ((3, 1), 1), ((5, 3), 3)])
def test_generate_all_raises_the_first_failure_in_spec_order(cpus, monkeypatch, failing, named):
    cpus(3)
    fail_seeds(monkeypatch, TaskKind.VERTEX_COVER, failing)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(6)]
    _assert_the_first_failure_is_the_serial_loops(specs, named)


# 24 specs on 2 CPUs make chunks of two: {0, 1}, {2, 3}, {4, 5}, ...
@pytest.mark.parametrize("failing, named", [((10, 4), 4), ((23, 5, 4), 4)])
def test_generate_all_raises_the_first_failure_of_chunks_of_several(
    cpus, monkeypatch, failing, named
):
    cpus(2)
    fail_seeds(monkeypatch, TaskKind.VERTEX_COVER, failing)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(24)]
    _assert_the_first_failure_is_the_serial_loops(specs, named)


def test_generate_all_turns_a_worker_that_died_into_a_task_error(cpus, monkeypatch):
    cpus(2)
    parent = os.getpid()
    salt, build = generate_module._BUILDERS[TaskKind.THREE_DM]

    def die_in_a_child(level, rng):
        if os.getpid() != parent:
            os._exit(3)
        return build(level, rng)

    monkeypatch.setitem(generate_module._BUILDERS, TaskKind.THREE_DM, (salt, die_in_a_child))
    specs = [GenSpec(kind=TaskKind.THREE_DM, level=3, seed=seed) for seed in range(4)]
    with pytest.raises(GenerationChildError, match="died before sending its instances"):
        generate_all(specs)


def test_generate_all_leaves_no_thread_behind(cpus, monkeypatch):
    cpus(2)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(8)]
    threads = threading.active_count()
    generate_all(specs)
    assert threading.active_count() == threads
    fail_seeds(monkeypatch, TaskKind.VERTEX_COVER, (5,))
    with pytest.raises(RegenBudgetExhaustedError):
        generate_all(specs)
    assert threading.active_count() == threads


class _Stop(BaseException):
    """Stands for an interrupt that reaches this process mid-generation."""


def test_generate_all_reaps_its_children_when_this_process_raises(cpus, monkeypatch):
    cpus(3)
    salt, build = generate_module._BUILDERS[TaskKind.THREE_DM]

    def slow_build(level, rng):
        time.sleep(0.02)
        return build(level, rng)

    def stop(signum, frame):
        raise _Stop

    monkeypatch.setitem(generate_module._BUILDERS, TaskKind.THREE_DM, (salt, slow_build))
    # 60 specs at 20 ms each keep three workers busy for 0.4 s; the interval
    # timer is not inherited across fork, so only this process is stopped
    specs = [GenSpec(kind=TaskKind.THREE_DM, level=3, seed=seed) for seed in range(60)]
    previous = signal.signal(signal.SIGALRM, stop)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(_Stop):
            generate_all(specs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

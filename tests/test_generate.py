import gc
import importlib
import itertools
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
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
    UnsupportedLevelError,
    exemplar_instance,
    generate,
    generate_all,
    instance_id,
)
from searchbench.trip import count_trip_plans, trip_legs_for_order
from searchbench.tasks import (
    ProblemInstance,
    TaskKind,
    TripPlan,
    VerdictStatus,
    instance_to_record,
)

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


class _Stop(BaseException):
    """Stands for an interrupt that reaches this process mid-generation."""


@pytest.fixture
def cpus(monkeypatch):
    """Report ``n`` usable CPUs; count the forks, raising ``_Stop`` in this
    process in place of the fork after ``stop_at`` of them; check that none
    is left unreaped after the test."""
    forks = []
    fork = os.fork

    def counted_fork(stop_at: int | None):
        if len(forks) == stop_at:
            raise _Stop
        forks.append(1)
        return fork()

    def report(n: int, stop_at: int | None = None) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "fork", lambda: counted_fork(stop_at))
        return forks

    yield report
    try:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        # Kill what a failed check left running, so that the run can exit.
        for child in multiprocessing.active_children():
            child.kill()
            child.join()


@pytest.fixture
def eager_pool(monkeypatch):
    """Hand the specs left to the pool before the second spec, whatever
    the projection reads."""
    monkeypatch.setattr(generate_module, "POOL_BREAK_EVEN_S", 0)


def _records(instances) -> list[str]:
    return [json.dumps(instance_to_record(inst), sort_keys=True) for inst in instances]


# The first spec is generated in this process.  n_extra: the CPUs used
# beyond the first for the specs left.  With any, the pool forks one worker
# per CPU used; with none, the serial loop forks nothing.
@pytest.mark.parametrize("n_cpus, n_specs, n_extra", [
    (1, 7, 0), (2, 7, 1), (3, 7, 2), (5, 7, 4), (5, 3, 1), (3, 2, 0), (3, 1, 0),
    (3, 0, 0),
])
def test_generate_all_writes_the_serial_loops_records(
    cpus, eager_pool, n_cpus, n_specs, n_extra
):
    forks = cpus(n_cpus)
    specs = MIXED_SPECS[:n_specs]
    assert _records(generate_all(specs)) == _records(generate(s) for s in specs)
    assert len(forks) == (n_extra + 1 if n_extra else 0)


def test_generate_all_counts_cpus_without_affinity(cpus, eager_pool, monkeypatch):
    forks = cpus(3)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _records(generate_all(MIXED_SPECS)) == _records(map(generate, MIXED_SPECS))
    assert len(forks) == 2


def test_generate_all_runs_in_process_without_fork(cpus, eager_pool, monkeypatch):
    cpus(4)
    monkeypatch.delattr(os, "fork")
    assert _records(generate_all(MIXED_SPECS)) == _records(map(generate, MIXED_SPECS))


# 4 tasks x 16 specs at level 6, as perfbench's slow-provider workload runs:
# about 0.016 s in all, well under the pool's break-even.
SMALL_RUN_SPECS = [
    GenSpec(kind=kind, level=6, seed=seed) for kind in TaskKind for seed in range(1, 17)
]


@pytest.mark.parametrize("n_cpus", [2, 3, 4, 5])
def test_generate_all_forks_nothing_for_a_small_run(cpus, n_cpus):
    forks = cpus(n_cpus)
    assert _records(generate_all(SMALL_RUN_SPECS)) == _records(map(generate, SMALL_RUN_SPECS))
    assert forks == []


def test_importing_searchbench_leaves_multiprocessing_unloaded():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]; import searchbench; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", script, src],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _assert_the_first_failure_is_the_serial_loops(specs, named: int) -> None:
    with pytest.raises(RegenBudgetExhaustedError) as serial:
        [generate(s) for s in specs]
    with pytest.raises(RegenBudgetExhaustedError) as pooled:
        generate_all(specs)
    assert str(pooled.value) == str(serial.value)
    assert f"seed {named} within" in str(pooled.value)


# Spec 0 runs in this process, and chunks of the specs left hold
# ceil(specs / (8 * CPUs)) specs: one each for the 5 left on 3 CPUs.
@pytest.mark.parametrize("failing, named", [((4, 2), 2), ((3, 1), 1), ((5, 3), 3)])
def test_generate_all_raises_the_first_failure_in_spec_order(
    cpus, eager_pool, monkeypatch, failing, named
):
    cpus(3)
    fail_seeds(monkeypatch, TaskKind.VERTEX_COVER, failing)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(6)]
    _assert_the_first_failure_is_the_serial_loops(specs, named)


# Of 24 specs on 2 CPUs, spec 0 runs in this process and the 23 left make
# chunks of two: {1, 2}, {3, 4}, {5, 6}, ...
@pytest.mark.parametrize("failing, named", [((10, 4), 4), ((23, 5, 4), 4), ((23, 4, 3), 3)])
def test_generate_all_raises_the_first_failure_of_chunks_of_several(
    cpus, eager_pool, monkeypatch, failing, named
):
    cpus(2)
    fail_seeds(monkeypatch, TaskKind.VERTEX_COVER, failing)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(24)]
    _assert_the_first_failure_is_the_serial_loops(specs, named)


def test_generate_all_turns_a_worker_that_died_into_a_task_error(cpus, eager_pool, monkeypatch):
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


def test_generate_all_leaves_no_thread_behind(cpus, eager_pool, monkeypatch):
    cpus(2)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(8)]
    threads = threading.active_count()
    generate_all(specs)
    assert threading.active_count() == threads
    fail_seeds(monkeypatch, TaskKind.VERTEX_COVER, (5,))
    with pytest.raises(RegenBudgetExhaustedError):
        generate_all(specs)
    assert threading.active_count() == threads


# A clock that reads 0 until its k-th reading after the start: the projection
# stays 0 before spec k and exceeds any break-even there, so specs 0..k-1
# run in this process and the pool gets spec k onwards.
@pytest.mark.parametrize("k, failing, named", [
    (4, (), None), (1, (), None), (10, (), None),
    (4, (2, 7), 2), (4, (3,), 3), (4, (9, 4), 4), (4, (11, 6), 6),
])
def test_generate_all_hands_off_where_the_projection_says(
    cpus, monkeypatch, k, failing, named
):
    forks = cpus(2)
    ticks = itertools.count()
    monkeypatch.setattr(generate_module, "perf_counter", lambda: float(next(ticks) >= k))
    fail_seeds(monkeypatch, TaskKind.VERTEX_COVER, failing)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(12)]
    if named is None:
        assert _records(generate_all(specs)) == _records(map(generate, specs))
    else:
        _assert_the_first_failure_is_the_serial_loops(specs, named)
    # A failure before spec k is raised in this process, before any fork.
    assert len(forks) == (0 if named is not None and named < k else 2)


# A clock that advances the same step per reading: after spec 1 of 12 the
# projection is step x 11, and it only falls after that.
@pytest.mark.parametrize("scale, n_forks", [(1.02, 2), (0.98, 0)])
def test_generate_all_projects_the_mean_time_times_the_specs_left(
    cpus, monkeypatch, scale, n_forks
):
    forks = cpus(2)
    step = generate_module.POOL_BREAK_EVEN_S / 11 * scale
    ticks = itertools.count()
    monkeypatch.setattr(generate_module, "perf_counter", lambda: next(ticks) * step)
    specs = [GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=seed) for seed in range(12)]
    assert _records(generate_all(specs)) == _records(map(generate, specs))
    assert len(forks) == n_forks


def test_generate_all_reaps_the_workers_of_a_pool_stopped_while_it_forks(cpus, eager_pool):
    """A fork pool starts the manager thread that joins its workers only
    once it has forked them all; a stop in between must still reap them."""
    forks = cpus(3, stop_at=1)
    with pytest.raises(_Stop):
        generate_all(MIXED_SPECS)
    assert len(forks) == 1


def test_generate_all_reaps_its_children_when_this_process_raises(cpus, eager_pool, monkeypatch):
    cpus(3)
    salt, build = generate_module._BUILDERS[TaskKind.THREE_DM]

    def slow_build(level, rng):
        time.sleep(0.02)
        return build(level, rng)

    def stop(signum, frame):
        raise _Stop

    monkeypatch.setitem(generate_module._BUILDERS, TaskKind.THREE_DM, (salt, slow_build))
    # 60 specs at 20 ms each keep three workers busy for 0.4 s; the interval
    # timer is not inherited across fork, so only this process is stopped.
    # A handler that runs inside a gc callback (Hypothesis installs one) has
    # its raise reported and dropped, so no collection may run meanwhile.
    specs = [GenSpec(kind=TaskKind.THREE_DM, level=3, seed=seed) for seed in range(60)]
    previous = signal.signal(signal.SIGALRM, stop)
    gc.disable()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(_Stop):
            generate_all(specs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        gc.enable()

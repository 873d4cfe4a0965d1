import random
import sys
from pathlib import Path

import pytest

from searchbench.generate import MAX_REGEN, GenSpec, generate, load_fixture
from searchbench.tasks import (
    CoverSet,
    Friend,
    Matching,
    MeetingPayload,
    MeetingSchedule,
    ProblemInstance,
    TaskKind,
    ThreeDMPayload,
    TripPayload,
    TripPlan,
    VertexCoverPayload,
)

TESTS_DIR = Path(__file__).parent


def fail_seeds(monkeypatch, kind: TaskKind, seeds) -> None:
    """Make ``kind``'s builder reject every attempt of ``seeds``, so that
    ``generate`` raises its regeneration error for exactly those seeds."""
    # The package re-exports the function ``generate`` under the module's name.
    generate_module = sys.modules["searchbench.generate"]
    salt, build = generate_module._BUILDERS[kind]
    doomed = {
        random.Random(generate_module._subseed(seed, attempt, salt)).getstate()
        for seed in seeds
        for attempt in range(MAX_REGEN)
    }

    def build_unless_doomed(level, rng):
        return None if rng.getstate() in doomed else build(level, rng)

    monkeypatch.setitem(generate_module._BUILDERS, kind, (salt, build_unless_doomed))


def pytest_collection_modifyitems(config, items):
    """A test under ``tests/`` fails when it leaks a file handle or raises in
    a finalizer."""
    for item in items:
        if TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


# Per-task difficulty levels that stay inside the exhaustive-enumeration
# guards, so brute-force oracles are always available.
ENUMERABLE_LEVELS = {
    TaskKind.TRIP_PLANNING: (2, 3, 4, 5, 6),
    TaskKind.VERTEX_COVER: (1, 2, 3, 4, 5, 6),
    TaskKind.THREE_DM: (1, 2, 3, 4),
    TaskKind.MEETING_PLANNING: (1, 2, 3, 4, 5),
}

# x2 has no candidate triple, so the search dies under A1 and again under A2.
DEAD_END_BELOW_ROOT = ThreeDMPayload(n=3, triples=((0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 2, 2)))


@pytest.fixture(scope="session")
def reference_trip():
    """The bundled six-city reference itinerary used across the suite."""
    return load_fixture("appendixB-task1")


@pytest.fixture(scope="session")
def sample_instances():
    """A few deterministic instances per task at an enumerable level."""
    return {
        kind: tuple(
            generate(GenSpec(kind=kind, level=4, seed=seed)) for seed in range(3)
        )
        for kind in TaskKind
    }


@pytest.fixture(scope="session")
def unsolvable_instances():
    """One hand-built instance per task that has no solution.  The ground
    truths are empty placeholders: a solver never reads them."""
    payloads = (
        (
            TripPayload(
                cities=("Oslo", "Rome", "Nice"), total_days=7,
                stays={"Oslo": 3, "Rome": 3, "Nice": 3}, windows={},
                flights=frozenset(),
            ),
            TripPlan(legs=()),
        ),
        # a triangle needs two cover vertices; the target allows one
        (
            VertexCoverPayload(vertex_count=3, edges=((0, 1), (0, 2), (1, 2)), target_size=1),
            CoverSet(vertices=frozenset()),
        ),
        (
            ThreeDMPayload(n=2, triples=((1, 0, 0), (1, 1, 1))),
            Matching(triples=frozenset()),
        ),
        (
            MeetingPayload(
                locations=("Bayview", "Chinatown"), start_location="Bayview",
                day_start=9 * 60, travel_minutes={("Bayview", "Chinatown"): 10},
                friends=(
                    Friend(name="Alice", location="Chinatown",
                           avail_start=600, avail_end=615, min_minutes=30),
                    Friend(name="Brian", location="Bayview",
                           avail_start=660, avail_end=680, min_minutes=45),
                ),
            ),
            MeetingSchedule(meetings=()),
        ),
    )
    instances = []
    for payload, truth in payloads:
        kind = payload.kind
        instances.append(ProblemInstance(
            id=f"{kind.value}-unsolvable", kind=kind, level=1, seed=0,
            payload=payload, ground_truth=truth,
        ))
    return tuple(instances)

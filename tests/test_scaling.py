import pytest

from searchbench.answers import canonical_text
from searchbench.gateway import MockBackend, ModelGateway, OracleBackend
from searchbench.prompts import PromptMode, default_exemplars, render
from searchbench.scaling import (
    TEMPERATURES,
    ScalingKind,
    ScalingSpecError,
    ScalingStrategy,
    default_matrix,
    execute,
)
from searchbench.tasks import VerdictStatus


@pytest.fixture()
def trip_cell(sample_instances):
    from searchbench.tasks import TaskKind

    inst = sample_instances[TaskKind.TRIP_PLANNING][0]
    bundle = render(inst, PromptMode.COT, default_exemplars(inst.kind, PromptMode.COT))
    return inst, bundle


def _right(inst):
    return canonical_text(inst.payload, inst.ground_truth)


# ---------------------------------------------------------------------------
# Strategy parsing and formatting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, kind, n, rounds, budget",
    [
        ("ws", ScalingKind.NO_SCALING, 1, 1, None),
        ("ps", ScalingKind.PARALLEL, 3, 1, None),
        ("ps:5", ScalingKind.PARALLEL, 5, 1, None),
        ("ss", ScalingKind.SEQUENTIAL, 1, 1, None),
        ("ss:4", ScalingKind.SEQUENTIAL, 1, 4, None),
        ("is", ScalingKind.INTERNAL, 1, 1, None),
        ("is:8000", ScalingKind.INTERNAL, 1, 1, 8000),
        ("  PS:2  ", ScalingKind.PARALLEL, 2, 1, None),
    ],
)
def test_parse_specs(spec, kind, n, rounds, budget):
    strategy = ScalingStrategy.parse(spec)
    assert strategy.kind is kind
    assert strategy.n == n
    assert strategy.rounds == rounds
    assert strategy.thinking_budget == budget


@pytest.mark.parametrize("spec", ["", "xx", "ws:2", "ps:0", "ss:0", "ps:-1", "ps:a", "ps:"])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ScalingSpecError):
        ScalingStrategy.parse(spec)


def test_format_round_trips():
    for spec in ("ws", "ps:3", "ps:7", "ss:1", "ss:2", "is", "is:8000"):
        assert ScalingStrategy.parse(spec).format() == spec
        assert ScalingStrategy.parse(ScalingStrategy.parse(spec).format()) == ScalingStrategy.parse(spec)


def test_short_labels_and_temperatures():
    assert [ScalingStrategy.parse(s).short_label for s in ("ws", "ps", "ss", "is")] == [
        "WS", "PS", "SS", "IS",
    ]
    assert TEMPERATURES[ScalingKind.PARALLEL] == 0.7
    assert all(
        TEMPERATURES[k] == 0.0
        for k in (ScalingKind.NO_SCALING, ScalingKind.SEQUENTIAL, ScalingKind.INTERNAL)
    )


# ---------------------------------------------------------------------------
# Single-call strategies
# ---------------------------------------------------------------------------


def test_no_scaling_single_call(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend([_right(inst)])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ws"), model="m"
    )
    assert outcome.success
    assert len(outcome.attempts) == 1
    assert len(backend.calls) == 1
    request = backend.calls[0]
    assert request.temperature == 0.0
    assert request.thinking is False
    assert request.messages == (("user", bundle.body),)
    assert outcome.strategy == "ws"
    assert outcome.mode is PromptMode.COT
    assert outcome.instance_id == inst.id


def test_internal_scaling_sets_thinking(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend([_right(inst)])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("is:9000"), model="m"
    )
    assert outcome.success and len(backend.calls) == 1
    request = backend.calls[0]
    assert request.thinking is True
    assert request.thinking_budget == 9000
    assert outcome.strategy == "is:9000"


# ---------------------------------------------------------------------------
# Parallel sampling
# ---------------------------------------------------------------------------


def test_parallel_any_correct(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend(["garbage", _right(inst), "more garbage"])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ps:3"), model="m"
    )
    assert outcome.success
    assert len(outcome.attempts) == 3  # all n samples are drawn regardless
    assert [a.sample_index for a in outcome.attempts] == [0, 1, 2]
    assert [r.sample_index for r in backend.calls] == [0, 1, 2]
    assert all(r.temperature == 0.7 for r in backend.calls)
    digests = {a.request_digest for a in outcome.attempts}
    assert len(digests) == 3  # sample_index keeps cache entries distinct


def test_parallel_all_wrong_keeps_last_verdict(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend(["nope", "still no", "nothing"])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ps:3"), model="m"
    )
    assert not outcome.success
    assert outcome.final == outcome.attempts[-1].verdict


# ---------------------------------------------------------------------------
# Sequential refinement
# ---------------------------------------------------------------------------


def test_sequential_early_stop(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend([_right(inst), "never consulted"])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ss:3"), model="m"
    )
    assert outcome.success
    assert len(outcome.attempts) == 1
    assert len(backend.calls) == 1


def test_sequential_refines_with_history(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend(["first try is wrong", _right(inst)])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ss:2"), model="m"
    )
    assert outcome.success
    assert [a.round_index for a in outcome.attempts] == [0, 1]
    second = backend.calls[1]
    roles = [role for role, _ in second.messages]
    assert roles == ["user", "assistant", "user"]
    assert second.messages[0][1] == bundle.body
    assert second.messages[1][1] == "first try is wrong"
    assert "first try is wrong" in second.messages[2][1]
    assert "review the original question" in second.messages[2][1]


def test_sequential_exhausts_rounds(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend(["wrong"])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ss:2"), model="m"
    )
    assert not outcome.success
    assert [a.round_index for a in outcome.attempts] == [0, 1, 2]
    assert len(backend.calls) == 3  # initial + two refinement rounds
    # every later round replays the whole conversation so far
    assert len(backend.calls[2].messages) == 5


def test_sequential_temperature_and_thinking_off(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend(["wrong"])
    execute(ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ss:1"), model="m")
    assert all(r.temperature == 0.0 and not r.thinking for r in backend.calls)


# ---------------------------------------------------------------------------
# Oracle integration and the default grid
# ---------------------------------------------------------------------------


def test_every_strategy_succeeds_against_oracle(sample_instances):
    instances = [inst for group in sample_instances.values() for inst in group]
    oracle = OracleBackend(instances)
    gateway = ModelGateway(oracle)
    inst = instances[0]
    for mode, strategy in default_matrix():
        bundle = render(inst, mode, default_exemplars(inst.kind, mode))
        outcome = execute(gateway, inst, bundle, strategy, model="m")
        assert outcome.success, (mode, strategy.format())


def test_default_matrix_shape():
    grid = default_matrix()
    assert len(grid) == 12
    specs = [strategy.format() for _, strategy in grid]
    assert specs[0:3] == ["ws"] * 3
    assert specs[3:6] == ["ps:3"] * 3
    assert specs[6:9] == ["ss:1"] * 3
    assert specs[9:12] == ["is"] * 3
    modes = [mode for mode, _ in grid]
    assert modes[0:3] == [PromptMode.DIRECT, PromptMode.COT, PromptMode.AOT]
    assert modes == modes[0:3] * 4


def test_outcome_final_matches_verdict_status(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend(["gibberish"])
    outcome = execute(
        ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ws"), model="m"
    )
    assert outcome.final.status is VerdictStatus.PARSE_FAILURE
    assert not outcome.success

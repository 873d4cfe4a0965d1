import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from searchbench import scaling
from searchbench.answers import canonical_text, evaluate
from searchbench.gateway import (
    MockBackend,
    ModelGateway,
    OracleBackend,
    ResponseCache,
    canonical_digest,
)
from searchbench.prompts import PromptMode, Shots, default_exemplars, render
from searchbench.reporting import AblationCell
from searchbench.scaling import (
    TEMPERATURES,
    ScalingKind,
    ScalingSpecError,
    ScalingStrategy,
    _request,
    default_matrix,
    execute,
)
from searchbench.tasks import TaskKind, VerdictStatus


@pytest.fixture()
def trip_cell(sample_instances):
    inst = sample_instances[TaskKind.TRIP_PLANNING][0]
    bundle = render(inst, Shots(PromptMode.COT, default_exemplars(inst.kind)))
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
    """A spec stands for ``n`` samples, ``rounds`` refinement rounds and a
    thinking ``budget``; the strategy keeps only its kind's number, as ``arg``."""
    strategy = ScalingStrategy.parse(spec)
    assert strategy.kind is kind
    assert strategy.arg == {ScalingKind.PARALLEL: n, ScalingKind.SEQUENTIAL: rounds}.get(
        kind, budget
    )
    assert strategy.max_calls == n + (rounds if kind is ScalingKind.SEQUENTIAL else 0)


@pytest.mark.parametrize("spec", ["", "xx", "ws:2", "ps:0", "ss:0", "ps:-1", "ps:a", "ps:"])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ScalingSpecError):
        ScalingStrategy.parse(spec)


def test_format_round_trips():
    for spec in ("ws", "ps:3", "ps:7", "ss:1", "ss:2", "is", "is:8000"):
        assert ScalingStrategy.parse(spec).format() == spec
        assert ScalingStrategy.parse(ScalingStrategy.parse(spec).format()) == ScalingStrategy.parse(spec)
    for spec in ("ps", "ss", "is:0", " IS:0 "):
        strategy = ScalingStrategy.parse(spec)
        assert ScalingStrategy.parse(strategy.format()) == strategy


def test_is_0_is_the_is_cell_and_request(trip_cell):
    _, bundle = trip_cell
    zero, plain = ScalingStrategy.parse("is:0"), ScalingStrategy.parse("is")
    assert zero == plain and zero.arg is None
    requests = [_request(bundle, "m", s, 4096) for s in (zero, plain)]
    assert requests[0].messages == (("user", bundle.body),)
    assert canonical_digest(requests[0]) == canonical_digest(requests[1])


def test_short_labels_and_temperatures():
    cells = [
        AblationCell(task=TaskKind.THREE_DM, level=1, model="m", prompt_mode=PromptMode.AOT,
                     strategy=ScalingStrategy.parse(spec), successes=0, total=1)
        for spec in ("ws", "ps", "ss", "is")
    ]
    assert [c.configuration for c in cells] == ["AoT-WS", "AoT-PS", "AoT-SS", "AoT-IS"]
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
    assert outcome.strategy == ScalingStrategy.parse("ws")
    assert (outcome.level, outcome.model) == (inst.level, "m")
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
    assert outcome.strategy == ScalingStrategy.parse("is:9000")


def test_outcome_is_filed_under_the_name_requests_under_the_model_id(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend([_right(inst)])
    outcome = execute(ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ws"),
                      model="provider-id", name="table-name")
    assert backend.calls[0].model == "provider-id"
    assert outcome.model == "table-name"


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


@pytest.mark.parametrize(
    "spec, calls",
    [("ws", 1), ("ps:1", 1), ("ps:4", 4), ("ss:1", 2), ("ss:3", 4), ("is", 1), ("is:512", 1)],
)
def test_max_calls_is_what_a_failing_unit_spends(trip_cell, spec, calls):
    """``--dry-run``'s ``max_backend_calls`` reads ``max_calls``."""
    inst, bundle = trip_cell
    strategy = ScalingStrategy.parse(spec)
    wrong = MockBackend(["no usable plan here"])
    outcome = execute(ModelGateway(wrong), inst, bundle, strategy, model="m")
    assert not outcome.success
    assert len(outcome.attempts) == strategy.max_calls == len(wrong.calls) == calls
    right = MockBackend([_right(inst)])
    outcome = execute(ModelGateway(right), inst, bundle, strategy, model="m")
    assert outcome.success
    expected = 1 if strategy.kind is ScalingKind.SEQUENTIAL else strategy.max_calls
    assert len(outcome.attempts) == expected == len(right.calls)


def test_sequential_temperature_and_thinking_off(trip_cell):
    inst, bundle = trip_cell
    backend = MockBackend(["wrong"])
    execute(ModelGateway(backend), inst, bundle, ScalingStrategy.parse("ss:1"), model="m")
    assert all(r.temperature == 0.0 and not r.thinking for r in backend.calls)


# ---------------------------------------------------------------------------
# Request digests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec, calls", [("ws", 1), ("ps:3", 3), ("ss:1", 2), ("is:4096", 1)])
def test_attempt_digest_is_the_request_digest_and_the_cache_key(trip_cell, tmp_path, spec, calls):
    inst, bundle = trip_cell
    # A wrong first answer makes ``ss:1`` send its refinement turn too.
    backend = MockBackend(["wrong", _right(inst)])
    path = tmp_path / "cache.jsonl"
    outcome = execute(
        ModelGateway(backend, ResponseCache(path)), inst, bundle,
        ScalingStrategy.parse(spec), model="m",
    )
    assert len(backend.calls) == calls
    assert all(r.digest == canonical_digest(r) for r in backend.calls)
    digests = [a.request_digest for a in outcome.attempts]
    assert digests == [r.digest for r in backend.calls]
    written = [json.loads(line)["digest"] for line in path.read_text(encoding="utf-8").splitlines()]
    assert written == digests


# ---------------------------------------------------------------------------
# Oracle integration and the default grid
# ---------------------------------------------------------------------------


def test_every_strategy_succeeds_against_oracle(sample_instances):
    instances = [inst for group in sample_instances.values() for inst in group]
    oracle = OracleBackend(instances)
    gateway = ModelGateway(oracle)
    inst = instances[0]
    for mode, strategy in default_matrix():
        bundle = render(inst, Shots(mode, default_exemplars(inst.kind)))
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


# ---------------------------------------------------------------------------
# Each distinct answer text is judged once
# ---------------------------------------------------------------------------


def _count_evaluate(monkeypatch) -> list[str]:
    texts = []
    evaluate = scaling.evaluate

    def counting(instance, text):
        texts.append(text)
        return evaluate(instance, text)

    monkeypatch.setattr(scaling, "evaluate", counting)
    return texts


def test_execute_without_a_map_judges_each_distinct_text_once(trip_cell, monkeypatch):
    inst, bundle = trip_cell
    texts = _count_evaluate(monkeypatch)
    gateway = ModelGateway(MockBackend(["nope", _right(inst), "nope"]))
    outcome = execute(gateway, inst, bundle, ScalingStrategy.parse("ps:3"), model="m")
    assert [a.verdict.status for a in outcome.attempts] == [
        VerdictStatus.PARSE_FAILURE, VerdictStatus.SUCCESS, VerdictStatus.PARSE_FAILURE,
    ]
    assert texts == ["nope", _right(inst)]
    # with no map, the next call judges its texts afresh
    gateway = ModelGateway(MockBackend([_right(inst)]))
    execute(gateway, inst, bundle, ScalingStrategy.parse("ws"), model="m")
    assert texts == ["nope", _right(inst), _right(inst)]


def test_execute_reads_and_fills_the_map_it_is_given(trip_cell, monkeypatch):
    inst, bundle = trip_cell
    texts = _count_evaluate(monkeypatch)
    verdicts = {}
    for spec in ("ws", "is"):
        gateway = ModelGateway(MockBackend([_right(inst)]))
        outcome = execute(gateway, inst, bundle, ScalingStrategy.parse(spec), model="m",
                          verdicts=verdicts)
        assert outcome.success
    assert texts == [_right(inst)]
    assert verdicts == {_right(inst): outcome.final}


def test_workers_sharing_a_map_keep_every_verdict(trip_cell):
    """Pooled units of one instance share its map; with threads switching
    often, a race may judge a text twice but never files a wrong verdict."""
    inst, bundle = trip_cell
    texts = ["nope", _right(inst), _right(inst).replace("Day 1-", "Day 2-", 1)]
    expected = {text: evaluate(inst, text)[1] for text in texts}
    assert len(set(expected.values())) == 3

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            verdicts = {}

            def unit(_):
                gateway = ModelGateway(MockBackend(texts))
                return execute(gateway, inst, bundle, ScalingStrategy.parse("ps:3"),
                               model="m", verdicts=verdicts)

            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(unit, range(8), timeout=60))
            for outcome in outcomes:
                assert [a.verdict for a in outcome.attempts] == [expected[t] for t in texts]
            assert verdicts == expected
    finally:
        sys.setswitchinterval(switch)

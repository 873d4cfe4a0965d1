import random
from pathlib import Path

import pytest

from searchbench.answers import parse_answer
from searchbench.generate import EXEMPLAR_LEVEL, GenSpec, exemplar_instance, generate
from searchbench.prompts import (
    ContextBudgetExceeded,
    ExemplarTargetOverlap,
    PromptError,
    PromptMode,
    REFINE_INSTRUCTION,
    Shots,
    TraceNotSuccessful,
    WrongTraceMode,
    bundle_text,
    default_exemplars,
    estimate_tokens,
    render,
    render_refine,
    statement_text,
)
from searchbench.solver import SearchMode, solve, solve_payload
from searchbench.tasks import MeetingPayload, ProblemInstance, TaskKind, ThreeDMPayload

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "docs" / "prompt-formats"


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Golden documents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode, filename",
    [
        (PromptMode.DIRECT, "appendixB-task1.direct.txt"),
        (PromptMode.COT, "appendixB-task1.cot.txt"),
        (PromptMode.AOT, "appendixB-task1.aot.txt"),
    ],
)
def test_reference_bundles_match_goldens(reference_trip, mode, filename):
    bundle = render(reference_trip, mode, default_exemplars(reference_trip.kind, mode))
    assert bundle_text(bundle) == _golden(filename)


def test_cot_has_no_prune_lines_aot_does(reference_trip):
    cot = _golden("appendixB-task1.cot.txt")
    aot = _golden("appendixB-task1.aot.txt")
    assert cot.count("Prune") == 0
    assert aot.count("Prune") >= 1
    assert "Greedy Search" in cot and "Depth-First Search" in aot


def test_bundle_text_layout(reference_trip):
    bundle = render(
        reference_trip, PromptMode.COT, default_exemplars(reference_trip.kind, PromptMode.COT)
    )
    text = bundle_text(bundle)
    assert text == f"{bundle.system_text}\n\n{bundle.body}\n"
    assert text.endswith("\n") and not text.endswith("\n\n")


# ---------------------------------------------------------------------------
# Bundle metadata and structure
# ---------------------------------------------------------------------------


def test_direct_bundle_fields(reference_trip):
    exemplars = default_exemplars(reference_trip.kind, PromptMode.DIRECT)
    bundle = render(reference_trip, PromptMode.DIRECT, exemplars)
    assert bundle.mode is PromptMode.DIRECT
    assert bundle.target_id == reference_trip.id
    assert len(bundle.exemplar_ids) == 5
    assert all(f"L{EXEMPLAR_LEVEL}" in ex_id for ex_id in bundle.exemplar_ids)
    assert bundle.body.count("### Task") == 5
    assert bundle.body.count("### Solution") == 5
    assert bundle.body.count("### Target Question ###") == 1


def test_worked_modes_use_one_exemplar(reference_trip):
    for mode in (PromptMode.COT, PromptMode.AOT):
        bundle = render(reference_trip, mode, default_exemplars(reference_trip.kind, mode))
        assert len(bundle.exemplar_ids) == 1
        assert bundle.body.count("### Target Question ###") == 1
        assert "Thinking Process:" in bundle.body


def test_target_statement_is_verbatim(reference_trip):
    for mode in PromptMode:
        bundle = render(reference_trip, mode, default_exemplars(reference_trip.kind, mode))
        marker = "### Target Question ###\n"
        tail = bundle.body.split(marker, 1)[1]
        assert tail == statement_text(reference_trip.payload)


def test_statement_phrasing_is_fixed():
    inst = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=4, seed=11))
    text = statement_text(inst.payload)
    days = inst.payload.total_days
    assert text.startswith(f"You plan to visit 4 European cities for {days} days in total.")
    assert "You only take direct flights to commute between cities." in text
    assert text.count("You plan to stay in") == 4
    assert "Here are the cities that have direct flights:" in text
    assert text.endswith(
        f"Find a trip plan of visiting the cities for {days} days "
        "by taking direct flights to commute between them."
    )


def test_statements_say_none_for_an_empty_list():
    assert "Here are the available triples:\nnone.\n" in statement_text(ThreeDMPayload(1, ()))
    friendless = MeetingPayload(
        locations=("Bayview",), start_location="Bayview", day_start=540,
        travel_minutes={}, friends=(),
    )
    assert "Here are the travel times in minutes:\nnone.\n" in statement_text(friendless)


def test_exemplar_solution_parses_back():
    for kind in TaskKind:
        ex, trace = default_exemplars(kind, PromptMode.COT)[0]
        assert trace.succeeded
        body = render(
            generate(GenSpec(kind=kind, level=3, seed=21)), PromptMode.COT, [(ex, trace)]
        ).body
        report = parse_answer(ex.payload, body.split("### Target Question ###")[0])
        assert report.candidate is not None


# ---------------------------------------------------------------------------
# Exemplar policy errors
# ---------------------------------------------------------------------------


def test_wrong_trace_mode_rejected(reference_trip):
    ex = exemplar_instance(reference_trip.kind, 0)
    greedy, dfs = solve(ex, SearchMode.GREEDY), solve(ex, SearchMode.DFS)
    with pytest.raises(WrongTraceMode):
        render(reference_trip, PromptMode.COT, [(ex, dfs)])
    with pytest.raises(WrongTraceMode):
        render(reference_trip, PromptMode.AOT, [(ex, greedy)])


def test_unsuccessful_trace_rejected(reference_trip):
    ex = exemplar_instance(reference_trip.kind, 0)
    trace = solve(ex, SearchMode.DFS)
    failed = type(trace)(
        kind=trace.kind,
        mode=trace.mode,
        events=trace.events[:-1],
        solution=None,
        explored_count=trace.explored_count,
    )
    assert not failed.succeeded
    with pytest.raises(TraceNotSuccessful):
        render(reference_trip, PromptMode.AOT, [(ex, failed)])


def test_target_as_own_exemplar_rejected(reference_trip):
    trace = solve(reference_trip, SearchMode.DFS)
    with pytest.raises(ExemplarTargetOverlap):
        render(reference_trip, PromptMode.AOT, [(reference_trip, trace)])


def test_kind_and_count_mismatches_rejected(reference_trip):
    other = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=1))
    with pytest.raises(PromptError):
        render(reference_trip, PromptMode.AOT, [(other, solve(other, SearchMode.DFS))])
    with pytest.raises(PromptError):
        render(reference_trip, PromptMode.DIRECT, [])
    two = default_exemplars(reference_trip.kind, PromptMode.AOT) * 2
    with pytest.raises(PromptError):
        render(reference_trip, PromptMode.AOT, two)
    aot = Shots(PromptMode.AOT, default_exemplars(reference_trip.kind, PromptMode.AOT))
    with pytest.raises(PromptError):
        render(reference_trip, PromptMode.COT, aot)


def test_a_trace_of_another_kind_is_rejected(reference_trip):
    ex = exemplar_instance(reference_trip.kind, 0)
    other = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=1))
    with pytest.raises(PromptError) as info:
        Shots(PromptMode.AOT, [(ex, solve(other, SearchMode.DFS))])
    assert str(info.value) == f"trace kind VertexCover does not match {ex.id}"


# ---------------------------------------------------------------------------
# Token budgets and truncation
# ---------------------------------------------------------------------------


def test_estimate_tokens_scale():
    text = "word " * 400
    est = estimate_tokens(text)
    assert 300 < est < 800
    assert estimate_tokens(text * 2) > est


def test_aot_truncation_preserves_accepting_path(reference_trip):
    exemplars = default_exemplars(reference_trip.kind, PromptMode.AOT)
    full = render(reference_trip, PromptMode.AOT, exemplars)
    full_tokens = estimate_tokens(full.body)
    squeezed = render(
        reference_trip, PromptMode.AOT, exemplars, token_budget=full_tokens - 50
    )
    assert estimate_tokens(squeezed.body) <= full_tokens - 50
    assert "Success" in squeezed.body
    assert "### Target Question ###" in squeezed.body
    assert squeezed.body != full.body


def test_budget_too_small_raises(reference_trip):
    for mode in PromptMode:
        with pytest.raises(ContextBudgetExceeded):
            render(
                reference_trip, mode,
                default_exemplars(reference_trip.kind, mode),
                token_budget=20,
            )


def test_cot_budget_all_or_nothing(reference_trip):
    exemplars = default_exemplars(reference_trip.kind, PromptMode.COT)
    full = render(reference_trip, PromptMode.COT, exemplars)
    need = estimate_tokens(full.body)
    assert render(reference_trip, PromptMode.COT, exemplars, token_budget=need).body == full.body
    with pytest.raises(ContextBudgetExceeded):
        render(reference_trip, PromptMode.COT, exemplars, token_budget=need - 1)


def _outcome(target, mode, exemplars, budget):
    try:
        return render(target, mode, exemplars, token_budget=budget)
    except ContextBudgetExceeded as err:
        return str(err)


@pytest.mark.parametrize("kind", list(TaskKind))
def test_a_shared_half_renders_what_a_fresh_one_does(kind):
    """One ``Shots`` per mode serves targets of different statement lengths
    in shuffled order, so a target may need fewer drops than the one before
    it; every body, or budget error, must match a render from a plain
    exemplar list.  Budgets: each AoT elision step's size and one token
    below it, the CoT size and one below, the Direct size, and none."""
    targets = [generate(GenSpec(kind=kind, level=level, seed=0)) for level in (1, 3, 10)]
    cases = []
    for mode in PromptMode:
        exemplars = default_exemplars(kind, mode)
        for target in targets:
            budgets, outcome = {None}, render(target, mode, exemplars)
            while not isinstance(outcome, str):
                size = estimate_tokens(outcome.body)
                budgets.update((size, size - 1))
                outcome = _outcome(target, mode, exemplars, size - 1)
            cases += [(mode, exemplars, target, budget) for budget in budgets]
    random.Random(0).shuffle(cases)
    shared = {mode: Shots(mode, default_exemplars(kind, mode)) for mode in PromptMode}
    for mode, exemplars, target, budget in cases:
        fresh = _outcome(target, mode, exemplars, budget)
        assert _outcome(target, mode, shared[mode], budget) == fresh


# x1 has ten candidate triples, so the accepting label is A10a3 and A1 is the
# root of a dead subtree whose label is a prefix of A10.
TEN_CHILDREN = ThreeDMPayload(n=4, triples=(
    (0, 2, 2), (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 1, 3), (1, 2, 2), (1, 2, 3),
    (1, 3, 0), (1, 3, 2), (1, 3, 3), (2, 0, 0), (2, 2, 3), (3, 0, 1), (3, 1, 0), (3, 1, 1),
))


def _ten_children_prompt():
    trace = solve_payload(TEN_CHILDREN, SearchMode.DFS)
    assert trace.events[-1].step_label == "A10a3"
    exemplar = ProblemInstance(
        id="ThreeDM-ten-children", kind=TaskKind.THREE_DM, level=0, seed=0,
        payload=TEN_CHILDREN, ground_truth=trace.solution,
    )
    return generate(GenSpec(kind=TaskKind.THREE_DM, level=3, seed=5)), exemplar, trace


def test_aot_elision_drops_subtrees_whose_label_prefixes_the_accepting_one():
    target, exemplar, trace = _ten_children_prompt()
    body = render(target, PromptMode.AOT, [(exemplar, trace)]).body
    while True:  # shrink the budget to the smallest body that still fits
        try:
            body = render(
                target, PromptMode.AOT, [(exemplar, trace)],
                token_budget=estimate_tokens(body) - 1,
            ).body
        except ContextBudgetExceeded:
            break
    assert "Step: A1\n" not in body
    assert "Step: A10\n" in body and "Step: A10a3\n" in body


def test_aot_elision_order_is_depth_then_trace_order():
    # The dead subtrees A1..A9 hang at one depth, so they go in trace order:
    # A1 first, although its label shares two characters with A10a3.
    target, exemplar, trace = _ten_children_prompt()
    dead = [f"A{i}" for i in range(1, 10)]
    elided: dict[str, int] = {}  # label -> body tokens once it is gone
    budget = estimate_tokens(render(target, PromptMode.AOT, [(exemplar, trace)]).body)
    while True:  # one token at a time, down to the smallest body that fits
        try:
            body = render(target, PromptMode.AOT, [(exemplar, trace)], token_budget=budget).body
        except ContextBudgetExceeded:
            break
        for label in dead:
            if f"Step: {label}\n" not in body:
                elided.setdefault(label, estimate_tokens(body))
        budget -= 1
    assert list(elided) == dead
    assert elided["A1"] == 1319
    assert budget + 1 == estimate_tokens(body) == 582


@pytest.mark.parametrize("seed", [100, 101])
def test_one_city_trip_section_is_the_accepting_search(seed):
    exemplar = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=1, seed=seed))
    (city,) = exemplar.payload.cities
    target = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=2, seed=seed))
    body = render(
        target, PromptMode.AOT, [(exemplar, solve(exemplar, SearchMode.DFS))]
    ).body
    assert f"\n\n3-A. {city}-rooted search (full trace)\n\n4. " in body
    assert "subtree" not in body


# ---------------------------------------------------------------------------
# Refinement rounds
# ---------------------------------------------------------------------------


def test_render_refine_quotes_and_increments():
    """The follow-up quotes the answer; ``execute`` numbers the rounds
    (``test_scaling.py``'s ``[0, 1, 2]`` round assertions)."""
    answer = "**Day 1-4:** Visit Edinburgh for 4 days."
    follow = render_refine(f"  {answer}\n")
    assert follow == f"Your previous answer was:\n\n<<<\n{answer}\n>>>\n\n{REFINE_INSTRUCTION}"
    assert "review the original question" in follow
    assert render_refine("still wrong") != follow


def test_render_refine_empty_previous_uses_placeholder():
    follow = render_refine("   \n  ")
    assert "<<<\nno plan was produced\n>>>" in follow

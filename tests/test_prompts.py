from pathlib import Path

import pytest

from searchbench.answers import parse_answer
from searchbench.generate import EXEMPLAR_LEVEL, GenSpec, exemplar_instance, generate
from searchbench.prompts import (
    ContextBudgetExceeded,
    ExemplarTargetOverlap,
    PromptError,
    PromptMode,
    TraceNotSuccessful,
    WrongTraceMode,
    bundle_text,
    default_exemplars,
    estimate_tokens,
    render,
    render_refine,
    statement_text,
)
from searchbench.solver import SearchMode, solve
from searchbench.tasks import TaskKind

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
    assert bundle.round_index == 0
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


# ---------------------------------------------------------------------------
# Refinement rounds
# ---------------------------------------------------------------------------


def test_render_refine_quotes_and_increments(reference_trip):
    first = render(
        reference_trip, PromptMode.COT, default_exemplars(reference_trip.kind, PromptMode.COT)
    )
    answer = "**Day 1-4:** Visit Edinburgh for 4 days."
    follow = render_refine(first, answer)
    assert follow.round_index == 1
    assert answer in follow.body
    assert "<<<" in follow.body and ">>>" in follow.body
    assert "review the original question" in follow.body
    assert follow.system_text == first.system_text
    assert follow.target_id == first.target_id
    third = render_refine(follow, "still wrong")
    assert third.round_index == 2


def test_render_refine_empty_previous_uses_placeholder(reference_trip):
    first = render(
        reference_trip, PromptMode.DIRECT, default_exemplars(reference_trip.kind, PromptMode.DIRECT)
    )
    follow = render_refine(first, "   \n  ")
    assert "no plan was produced" in follow.body

import random
from pathlib import Path

import pytest

from searchbench.answers import parse_answer
from searchbench.generate import EXEMPLAR_LEVEL, GenSpec, generate
from searchbench.prompts import (
    ExemplarTargetOverlap,
    PromptError,
    PromptMode,
    REFINE_INSTRUCTION,
    Shots,
    bundle_text,
    default_exemplars,
    estimate_tokens,
    render,
    render_refine,
    statement_text,
    written_search_tokens,
)
from searchbench.solver import SearchMode, solve
from searchbench.meeting import MeetingPayload
from searchbench.threedm import ThreeDMPayload
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
    bundle = render(reference_trip, Shots(mode, default_exemplars(reference_trip.kind)))
    assert bundle_text(bundle) == _golden(filename)


def test_cot_has_no_prune_lines_aot_does(reference_trip):
    cot = _golden("appendixB-task1.cot.txt")
    aot = _golden("appendixB-task1.aot.txt")
    assert cot.count("Prune") == 0
    assert aot.count("Prune") >= 1
    assert "Greedy Search" in cot and "Depth-First Search" in aot


def test_bundle_text_layout(reference_trip):
    bundle = render(reference_trip, Shots(PromptMode.COT, default_exemplars(reference_trip.kind)))
    text = bundle_text(bundle)
    assert text == f"{bundle.system_text}\n\n{bundle.body}\n"
    assert text.endswith("\n") and not text.endswith("\n\n")


# ---------------------------------------------------------------------------
# Bundle metadata and structure
# ---------------------------------------------------------------------------


def test_direct_bundle_fields(reference_trip):
    shots = Shots(PromptMode.DIRECT, default_exemplars(reference_trip.kind))
    bundle = render(reference_trip, shots)
    assert bundle.mode is PromptMode.DIRECT
    assert len(shots.exemplars) == 5
    assert all(f"L{EXEMPLAR_LEVEL}" in ex.id for ex, _ in shots.exemplars)
    assert bundle.body.count("### Task") == 5
    assert bundle.body.count("### Solution") == 5
    assert bundle.body.count("### Target Question ###") == 1


def test_worked_modes_use_one_exemplar(reference_trip):
    """CoT and AoT narrate exemplar 0 of the set: CoT a greedy trace of it,
    AoT the set's own depth-first trace."""
    exemplars = default_exemplars(reference_trip.kind)
    for mode, search in ((PromptMode.COT, SearchMode.GREEDY), (PromptMode.AOT, SearchMode.DFS)):
        shots = Shots(mode, exemplars)
        bundle = render(reference_trip, shots)
        ((ex, trace),) = shots.exemplars
        assert ex is exemplars[0][0] and trace.mode is search
        assert bundle.body.count("### Target Question ###") == 1
        assert "Thinking Process:" in bundle.body


def test_target_statement_is_verbatim(reference_trip):
    exemplars = default_exemplars(reference_trip.kind)
    for mode in PromptMode:
        bundle = render(reference_trip, Shots(mode, exemplars))
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
        shots = Shots(PromptMode.COT, default_exemplars(kind))
        ((ex, trace),) = shots.exemplars
        assert trace.succeeded
        body = render(generate(GenSpec(kind=kind, level=3, seed=21)), shots).body
        report = parse_answer(ex.payload, body.split("### Target Question ###")[0])
        assert report.candidate is not None


# ---------------------------------------------------------------------------
# Exemplar policy errors
# ---------------------------------------------------------------------------


def test_target_as_own_exemplar_rejected(reference_trip):
    trace = solve(reference_trip, SearchMode.DFS)
    for mode in PromptMode:
        with pytest.raises(ExemplarTargetOverlap):
            render(reference_trip, Shots(mode, [(reference_trip, trace)]))


def test_exemplars_of_another_task_are_rejected(reference_trip):
    other = default_exemplars(TaskKind.VERTEX_COVER)
    message = f"exemplar {other[0][0].id} is VertexCover, target is TripPlanning"
    for mode in PromptMode:
        with pytest.raises(PromptError, match=f"^{message}$"):
            render(reference_trip, Shots(mode, other))


# ---------------------------------------------------------------------------
# Token estimates and shared halves
# ---------------------------------------------------------------------------


def test_estimate_tokens_scale():
    text = "word " * 400
    est = estimate_tokens(text)
    assert 300 < est < 800
    assert estimate_tokens(text * 2) > est


@pytest.mark.parametrize("kind", list(TaskKind))
def test_a_shared_half_renders_what_a_fresh_one_does(kind):
    """One ``Shots`` per mode serves targets of different statement lengths
    in shuffled order; every body must match a render from a fresh
    ``Shots``."""
    exemplars = default_exemplars(kind)
    targets = [generate(GenSpec(kind=kind, level=level, seed=0)) for level in (1, 3, 10)]
    cases = [(mode, target) for mode in PromptMode for target in targets]
    random.Random(0).shuffle(cases)
    shared = {mode: Shots(mode, exemplars) for mode in PromptMode}
    for mode, target in cases:
        assert render(target, shared[mode]) == render(target, Shots(mode, exemplars))


@pytest.mark.parametrize("kind", list(TaskKind))
def test_a_written_search_is_the_span_its_aot_head_shows(kind):
    """The AoT exemplar's own written-search length is the estimate of its
    head from phase 3 through the Output Format."""
    shots = Shots(PromptMode.AOT, default_exemplars(kind))
    ((exemplar, _),) = shots.exemplars
    start = shots.head.index("\n\n3. Depth-First Search with pruning\n\n") + 2
    end = shots.head.index("\n\nQuestion:\n\n### Target Question ###\n")
    assert "\n\n5. Output Format\n" in shots.head[start:end]
    assert written_search_tokens(exemplar) == estimate_tokens(shots.head[start:end])


@pytest.mark.parametrize("seed", [100, 101])
def test_one_city_trip_section_is_the_accepting_search(seed):
    exemplar = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=1, seed=seed))
    (city,) = exemplar.payload.cities
    target = generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=2, seed=seed))
    shots = Shots(PromptMode.AOT, [(exemplar, solve(exemplar, SearchMode.DFS))])
    body = render(target, shots).body
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

"""Prompt rendering: statements, worked exemplars, and refinement follow-ups.

Three prompt modes share one pipeline:

* ``Direct`` -- m statement/solution shot pairs, then the target question.
* ``CoT``    -- one worked exemplar whose reasoning section replays a greedy
  trace (straight-line, no backtracking).
* ``AoT``    -- one worked exemplar whose reasoning section replays a full
  depth-first trace, prunes and backtracks included.

The exemplar reasoning section always has the same five numbered phases
(State definition / Initialization / Search / Solution path / Output Format),
and every search step is rendered with the same four fields (Step /
Transition tried / preview & test / Outcome).  Formats are fixed: rendering
is a pure function of the instance, mode and exemplars.  Each task has one
exemplar set, five instances with their depth-first traces; every body is a
target-independent exemplar half cut from it, ending in the target marker,
followed by the target's statement.  ``Shots`` renders that half once per
(task, mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .answers import canonical_text
from .generate import exemplar_instance
from .solver import Action, SearchMode, SearchTrace, TraceEvent, _letters, solve
from .tasks import Payload, ProblemInstance, TaskError, TaskKind, family


class PromptError(TaskError):
    """Base class for prompt-rendering failures."""


class ExemplarTargetOverlap(PromptError):
    """The target instance may never appear among its own exemplars."""


class PromptMode(str, Enum):
    DIRECT = "Direct"
    COT = "CoT"
    AOT = "AoT"


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt, kept as its shared exemplar half and its statement."""

    mode: PromptMode
    system_text: str
    head: str
    statement: str

    @property
    def body(self) -> str:
        return self.head + self.statement


DIRECT_SHOT_COUNT = 5

SEARCH_PHASE_TITLES: dict[PromptMode, str] = {
    PromptMode.COT: "Greedy Search",
    PromptMode.AOT: "Depth-First Search with pruning",
}

THINKING_HEADERS: dict[PromptMode, str] = {
    PromptMode.COT: "Greedy Search Thinking Process:",
    PromptMode.AOT: "Depth-First Search Thinking Process:",
}


def estimate_tokens(text: str) -> int:
    """Cheap length-based token estimate (≈4 characters per token)."""
    return max(1, len(text) // 4)


def statement_text(payload: Payload) -> str:
    """The natural-language question for a payload (deterministic, fixed form)."""
    return family(payload.kind).statement(payload)


# ---------------------------------------------------------------------------
# Exemplars: the search narrative
# ---------------------------------------------------------------------------


def _event_block(header: str, rooted: bool, event: TraceEvent, success_label: str) -> str:
    if event.action is Action.BACKTRACK:
        return f"Backtrack: {event.detail}"
    if event.action is Action.PRUNE:
        outcome = f"**Prune ({event.reason})**"
    elif event.step_label == success_label:
        outcome = "**Success**"
    else:
        outcome = "keep"
    transition = event.detail
    # The depth-first trip exemplar elides the parent on deep transitions;
    # the greedy one names it at every step.
    if rooted and event.depth >= 3 and "→" in transition:
        transition = "…→" + transition.split("→", 1)[1]
    return (
        f"Step: {event.step_label}\n"
        f"Transition tried: {transition}\n"
        f"{header} {event.state_summary}\n"
        f"Outcome: {outcome}"
    )


@dataclass
class _Section:
    """One root subtree of a trace (the whole trace when it has no roots)."""

    root: str
    blocks: list[str] = field(default_factory=list)
    step_count: int = 0
    expanded: bool = False
    narrative: str | None = None


def _folded_root(events: Sequence[TraceEvent]) -> str | None:
    """Only a depth-first trip trace splits at start-city roots (``S0``
    events), and it starts with one; that first city, when kept, is folded
    into the initial state."""
    first = events[0]
    if first.step_label == "S0" and first.action is Action.EXPANSION:
        return first.move
    return None


def _sections(header: str, events: Sequence[TraceEvent], success_label: str) -> list[_Section]:
    """Phase 3's search events split at their start-city roots (``S0``
    events); a trace with no roots is one section with root ``""``, whose
    steps name their parent in full."""
    fold = _folded_root(events) is not None
    sections: list[_Section] = []
    for event in events:
        if event.step_label == "S0":
            sections.append(_Section(event.move))
            if fold and len(sections) == 1:
                continue
        elif not sections:
            sections.append(_Section(""))
        section = sections[-1]
        if event.action is Action.BACKTRACK and event.step_label == "":
            section.narrative = (
                f"No child of the {section.root} root survives, so the "
                "algorithm back-tracks to choose a new start city."
            )
            continue
        section.expanded |= event.action is Action.EXPANSION
        section.blocks.append(_event_block(header, bool(section.root), event, success_label))
        section.step_count += event.action is not Action.BACKTRACK
    return sections


def _section_title(index: int, section: _Section, accepting: bool) -> str:
    if accepting:
        qualifier = "search (full trace)"
    elif section.step_count and not section.expanded:
        qualifier = "subtree (cut in one shot)"
    else:
        qualifier = "subtree (exhausted)"
    return f"3-{_letters(index + 1)}. {section.root}-rooted {qualifier}"


def _written_search(instance: ProblemInstance, trace: SearchTrace, mode: PromptMode) -> str:
    """Phases 3 to 5 of a worked exemplar: the search, the path it found and
    the answer in the output format.  The search stops at its first
    solution, so its last section is the accepting one; a section with a
    root is titled."""
    payload = instance.payload
    task = family(payload.kind)
    _, *core, _, found = trace.events
    sections = _sections(task.PREVIEW_HEADER, core, found.step_label)
    blocks: list[str] = [f"3. {SEARCH_PHASE_TITLES[mode]}"]
    for i, section in enumerate(sections):
        if section.root:
            blocks.append(_section_title(i, section, i == len(sections) - 1))
        blocks.extend(section.blocks)
        if section.narrative:
            blocks.append(section.narrative)
    return (
        "\n\n".join(blocks)
        + f"\n\n4. Unique solution path found\n{found.detail}\n\n"
        f"5. Output Format\n{task.output(payload, trace.solution)}"
    )


def _exemplar(instance: ProblemInstance, trace: SearchTrace, mode: PromptMode) -> str:
    """The worked exemplar of ``mode``; a successful trace ends in its
    Evaluation and Success."""
    payload = instance.payload
    task = family(payload.kind)
    init, *core = trace.events
    root = _folded_root(core)
    if root is not None:
        span = payload.stay_of(root)
        init_line = (
            f"Pick an initial state: (path=[{root}], UD={span}, start=1) "
            f"# {root} spans Day 1-{span}"
        )
    else:
        verb = "Initial state" if mode is PromptMode.COT else "Pick an initial state"
        init_line = f"{verb}: {init.state_summary} # {init.detail.split('; ')[-1]}"
    state_lines = "\n".join(task.STATE_DEFINITIONS)
    return (
        f"{THINKING_HEADERS[mode]}\n\n"
        f"### Objective ###\n\n{task.objective(payload)}\n\n"
        f"### Constraints ###\n\n{task.constraints(payload)}\n\n"
        "### Solution Thinking Process ###\n\n"
        f"1. State definition\n{state_lines}\n\n"
        f"2. Initialization\n{init_line}\n\n"
        + _written_search(instance, trace, mode)
    )


def written_search_tokens(instance: ProblemInstance) -> int:
    """Estimated tokens of the target's own depth-first search written out
    as the AoT exemplar writes one, from phase 3 through the Output Format:
    a proxy for the answer an AoT prompt asks for, since this DFS is one
    search order of many."""
    return estimate_tokens(
        _written_search(instance, solve(instance, SearchMode.DFS), PromptMode.AOT)
    )


# ---------------------------------------------------------------------------
# Rendering entry points
# ---------------------------------------------------------------------------


#: Ends the exemplar half of every body; the target's statement follows it.
TARGET_MARKER = "### Target Question ###"
_TARGET_HEADER = f"Question:\n\n{TARGET_MARKER}\n"


class Shots:
    """The target-independent half of every prompt body of one (task, mode):
    the exemplar text up to and including the target marker, built once as
    ``head`` so one ``Shots`` serves every target of its task and mode.

    It is cut from one task's exemplar set, instances with their successful
    depth-first traces (``default_exemplars``): Direct shows every solution,
    AoT narrates exemplar 0's trace and CoT a greedy trace of exemplar 0.
    ``exemplars`` keeps the (instance, trace) pairs the half shows.
    """

    def __init__(
        self,
        mode: PromptMode,
        exemplars: Sequence[tuple[ProblemInstance, SearchTrace]],
    ) -> None:
        self.mode = mode
        if mode is PromptMode.DIRECT:
            self.exemplars = tuple(exemplars)
            parts = [f"{len(exemplars)}-Shot In-Context Examples:"]
            for i, (ex, trace) in enumerate(exemplars, start=1):
                parts.append(f"### Task{i} ###\n{ex.statement}")
                parts.append(
                    f"### Solution{i} ###\n{canonical_text(ex.payload, trace.solution)}"
                )
        else:
            ex, trace = exemplars[0]
            if mode is PromptMode.COT:
                trace = solve(ex, SearchMode.GREEDY)
            self.exemplars = ((ex, trace),)
            parts = [_exemplar(ex, trace, mode)]
        self.head = "\n\n".join(parts) + "\n\n" + _TARGET_HEADER


def render(instance: ProblemInstance, shots: Shots) -> PromptBundle:
    """Render the full prompt for ``instance`` in ``shots.mode``: the shared
    exemplar half of the instance's task, then the instance's statement."""
    for ex, _ in shots.exemplars:
        if ex.kind is not instance.kind:
            raise PromptError(
                f"exemplar {ex.id} is {ex.kind.value}, target is {instance.kind.value}"
            )
        if ex.id == instance.id:
            raise ExemplarTargetOverlap(f"{ex.id} is both target and exemplar")
    return PromptBundle(
        mode=shots.mode,
        system_text=family(instance.kind).DESCRIPTION,
        head=shots.head,
        statement=instance.statement,
    )


EMPTY_ANSWER_PLACEHOLDER = "no plan was produced"

REFINE_INSTRUCTION = (
    "Carefully review the original question and your previous answer against "
    "every stated constraint. If you find any mistake, correct it and give a "
    "complete final answer in the required format. If your answer is already "
    "correct, restate it in the required format."
)


def render_refine(previous_text: str) -> str:
    """The follow-up user message of one refinement round.

    Refinement is verdict-blind: nothing of the previous verdict reaches the
    prompt — the model must find mistakes on its own.
    """
    quoted = previous_text.strip() or EMPTY_ANSWER_PLACEHOLDER
    return "Your previous answer was:\n\n<<<\n" + quoted + "\n>>>\n\n" + REFINE_INSTRUCTION


def default_exemplars(kind: TaskKind) -> list[tuple[ProblemInstance, SearchTrace]]:
    """The task's exemplar set: fixed mid-difficulty instances from a
    reserved seed namespace, each with its depth-first trace."""
    out = []
    for index in range(DIRECT_SHOT_COUNT):
        ex = exemplar_instance(kind, index)
        out.append((ex, solve(ex, SearchMode.DFS)))
    return out


def bundle_text(bundle: PromptBundle) -> str:
    """System text and body as one inspectable document (golden-file format)."""
    return f"{bundle.system_text}\n\n{bundle.body}\n"

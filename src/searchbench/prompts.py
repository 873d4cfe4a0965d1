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

A token budget elides only the AoT search phase, never the accepting path.
The search stops at its first solution, so the accepting root section is the
last one: earlier root sections go first, in trace order; then the accepting
section's pruned steps and dead subtrees, shallowest first and in trace order
within a depth.  Direct and CoT bodies have nothing to elide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from typing import Sequence

from .answers import canonical_text
from .generate import exemplar_instance
from .solver import Action, SearchMode, SearchTrace, TraceEvent, _letters, solve, success_path
from .tasks import Payload, ProblemInstance, TaskError, TaskKind, family


class PromptError(TaskError):
    """Base class for prompt-rendering failures."""


class ExemplarTargetOverlap(PromptError):
    """The target instance may never appear among its own exemplars."""


class ContextBudgetExceeded(PromptError):
    """The body exceeds the token budget even after trace truncation."""


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
    """One root subtree of a trace (the whole trace when it has no roots).

    Each unit is ``(blocks, step count, depth)``; depth is None for a unit
    that is never elided.
    """

    root: str
    units: list[tuple[list[str], int, int | None]] = field(default_factory=list)
    expanded: bool = False
    narrative: str | None = None

    @property
    def step_count(self) -> int:
        return sum(steps for _, steps, _ in self.units)


def _sections(
    header: str,
    events: Sequence[TraceEvent],
    success_label: str,
    on_path: set[str],
    fold_first_root: bool,
) -> list[_Section]:
    """Phase 3 in one pass over the search events.

    The trace is split at its start-city roots (``S0`` events); a trace with
    no roots is one section with root ``""``, whose steps name their parent
    in full.  An Expansion off the accepting path (``on_path`` holds its
    labels) opens a unit that runs to the Backtrack that pairs it; every
    other event is a unit of its own, and of those only Prunes are ever
    elided.
    """
    sections: list[_Section] = []
    closing = None  # the label whose Backtrack closes the open unit
    for event in events:
        if event.step_label == "S0":
            sections.append(_Section(event.move))
            if fold_first_root and len(sections) == 1:
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
        block = _event_block(header, bool(section.root), event, success_label)
        step = int(event.action is not Action.BACKTRACK)
        if closing is not None:
            blocks, steps, depth = section.units[-1]
            blocks.append(block)
            section.units[-1] = (blocks, steps + step, depth)
            if event.action is Action.BACKTRACK and event.step_label == closing:
                closing = None
            continue
        elidable = event.action is Action.PRUNE or (
            event.action is Action.EXPANSION and event.step_label not in on_path
        )
        if elidable and event.action is Action.EXPANSION:
            closing = event.step_label
        section.units.append(([block], step, event.depth if elidable else None))
    return sections


def _section_title(index: int, section: _Section, accepting: bool) -> str:
    if accepting:
        qualifier = "search (full trace)"
    elif section.step_count and not section.expanded:
        qualifier = "subtree (cut in one shot)"
    else:
        qualifier = "subtree (exhausted)"
    return f"3-{_letters(index + 1)}. {section.root}-rooted {qualifier}"


def _search_phase(mode: PromptMode, sections: list[_Section], dropped: set) -> str:
    """Phase 3 without the ``dropped`` items: section indices ``i`` and unit
    indices ``(i, j)``, each run of them replaced by a count of its steps.
    A section with a root is titled."""
    blocks: list[str] = [f"3. {SEARCH_PHASE_TITLES[mode]}"]
    for i, section in enumerate(sections):
        if section.root:
            blocks.append(_section_title(i, section, i == len(sections) - 1))
        if i in dropped:
            blocks.append(
                f"(… {section.step_count} steps under the {section.root} root omitted …)"
            )
        else:
            runs = groupby(enumerate(section.units), key=lambda ju: (i, ju[0]) in dropped)
            for omitted, run in runs:
                units = [unit for _, unit in run]
                if omitted:
                    blocks.append(f"(… {sum(steps for _, steps, _ in units)} steps omitted …)")
                else:
                    blocks.extend(b for unit_blocks, _, _ in units for b in unit_blocks)
        if section.narrative:
            blocks.append(section.narrative)
    return "\n\n".join(blocks)


def _exemplar(
    instance: ProblemInstance,
    trace: SearchTrace,
    mode: PromptMode,
) -> tuple[str, list[_Section], str]:
    """The worked exemplar as (text before phase 3, phase 3's sections,
    text after it); phase 3 is assembled separately so elision can
    re-assemble it.  A successful trace ends in its Evaluation and Success."""
    payload = instance.payload
    task = family(payload.kind)
    init, *core, _, found = trace.events
    # Only a depth-first trip trace splits at start-city roots (``S0``
    # events), and it starts with one; that first city, when kept, is
    # folded into the initial state.
    fold = core[0].step_label == "S0" and core[0].action is Action.EXPANSION
    if fold:
        root = core[0].move
        span = payload.stay_of(root)
        init_line = (
            f"Pick an initial state: (path=[{root}], UD={span}, start=1) "
            f"# {root} spans Day 1-{span}"
        )
    else:
        verb = "Initial state" if mode is PromptMode.COT else "Pick an initial state"
        init_line = f"{verb}: {init.state_summary} # {init.detail.split('; ')[-1]}"
    sections = _sections(
        task.PREVIEW_HEADER, core, found.step_label,
        {e.step_label for e in success_path(trace)}, fold,
    )
    state_lines = "\n".join(task.STATE_DEFINITIONS)
    prefix = (
        f"### Objective ###\n\n{task.objective(payload)}\n\n"
        f"### Constraints ###\n\n{task.constraints(payload)}\n\n"
        "### Solution Thinking Process ###\n\n"
        f"1. State definition\n{state_lines}\n\n"
        f"2. Initialization\n{init_line}\n\n"
    )
    suffix = (
        f"\n\n4. Unique solution path found\n{found.detail}\n\n"
        f"5. Output Format\n{task.output(payload, trace.solution)}"
    )
    return prefix, sections, suffix


# ---------------------------------------------------------------------------
# Rendering entry points
# ---------------------------------------------------------------------------


#: Ends the exemplar half of every body; the target's statement follows it.
TARGET_MARKER = "### Target Question ###"
_TARGET_HEADER = f"Question:\n\n{TARGET_MARKER}\n"


class Shots:
    """The target-independent half of every prompt body of one (task, mode):
    the exemplar text up to and including the target marker.

    It is cut from one task's exemplar set, instances with their successful
    depth-first traces (``default_exemplars``): Direct shows every solution,
    AoT narrates exemplar 0's trace and CoT a greedy trace of exemplar 0.
    ``exemplars`` keeps the (instance, trace) pairs the half shows.

    ``head(k)`` is the half with the first ``k`` items of ``drop_order``
    elided; each is assembled the first time a target needs it, so one
    ``Shots`` serves every target of its task and mode.  Only AoT has
    anything to drop.
    """

    def __init__(
        self,
        mode: PromptMode,
        exemplars: Sequence[tuple[ProblemInstance, SearchTrace]],
    ) -> None:
        self.mode = mode
        self.drop_order: list = []
        if mode is PromptMode.DIRECT:
            self.exemplars = tuple(exemplars)
            parts = [f"{len(exemplars)}-Shot In-Context Examples:"]
            for i, (ex, trace) in enumerate(exemplars, start=1):
                parts.append(f"### Task{i} ###\n{ex.statement}")
                parts.append(
                    f"### Solution{i} ###\n{canonical_text(ex.payload, trace.solution)}"
                )
            self._heads = {0: "\n\n".join(parts) + "\n\n" + _TARGET_HEADER}
            return
        ex, trace = exemplars[0]
        if mode is PromptMode.COT:
            trace = solve(ex, SearchMode.GREEDY)
        self.exemplars = ((ex, trace),)
        self._prefix, sections, suffix = _exemplar(ex, trace, mode)
        self._sections, self._suffix = sections, f"{suffix}\n\n{_TARGET_HEADER}"
        # The search stops at its first solution, so the accepting section is
        # the last: earlier sections go first, then the accepting section's
        # elidable units, shallowest first.  A greedy trace has none.
        last = len(sections) - 1
        elidable = sorted(
            (depth, j)
            for j, (_, _, depth) in enumerate(sections[last].units if sections else [])
            if depth is not None
        )
        self.drop_order = [*range(last), *((last, j) for _, j in elidable)]
        self._heads = {}

    def head(self, k: int) -> str:
        head = self._heads.get(k)
        if head is None:
            phase3 = _search_phase(self.mode, self._sections, set(self.drop_order[:k]))
            head = self._heads.setdefault(
                k, f"{THINKING_HEADERS[self.mode]}\n\n{self._prefix}{phase3}{self._suffix}"
            )
        return head


def render(
    instance: ProblemInstance,
    shots: Shots,
    token_budget: int | None = None,
) -> PromptBundle:
    """Render the full prompt for ``instance`` in ``shots.mode``.

    ``shots`` is the exemplar half of the instance's task, shared across
    targets.  When ``token_budget`` is given and the body estimate exceeds
    it, AoT elides earlier root sections first, in trace order, then the
    accepting section's pruned steps and dead subtrees, shallowest first and
    in trace order within a depth; the accepting path itself is never cut.
    ContextBudgetExceeded is raised if even the fully elided body is too big.
    """
    mode = shots.mode
    for ex, _ in shots.exemplars:
        if ex.kind is not instance.kind:
            raise PromptError(
                f"exemplar {ex.id} is {ex.kind.value}, target is {instance.kind.value}"
            )
        if ex.id == instance.id:
            raise ExemplarTargetOverlap(f"{ex.id} is both target and exemplar")
    for k in range(len(shots.drop_order) + 1):
        head = shots.head(k)
        if token_budget is None or estimate_tokens(head + instance.statement) <= token_budget:
            break
    else:
        raise ContextBudgetExceeded(
            f"{mode.value} body for {instance.id} is ≈{estimate_tokens(head + instance.statement)}"
            f" tokens after eliding every elidable step; budget {token_budget}"
        )
    return PromptBundle(
        mode=mode,
        system_text=family(instance.kind).DESCRIPTION,
        head=head,
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

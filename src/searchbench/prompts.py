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
is a pure function of the instance, mode and exemplars.  Every body is a
target-independent exemplar half, ending in the target marker, followed by
the target's statement; ``Shots`` renders that half once per (task, mode).

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

from .answers import answer_lines, canonical_text
from .generate import exemplar_instance
from .solver import Action, SearchMode, SearchTrace, TraceEvent, _letters, solve, success_path
from .tasks import (
    MeetingPayload,
    Payload,
    ProblemInstance,
    TaskError,
    TaskKind,
    ThreeDMPayload,
    TripPayload,
    VertexCoverPayload,
    minutes_to_clock,
)


class PromptError(TaskError):
    """Base class for prompt-rendering failures."""


class WrongTraceMode(PromptError):
    """The exemplar trace's search mode does not fit the prompt mode."""


class TraceNotSuccessful(PromptError):
    """Worked exemplars must come from traces that found a solution."""


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
    """A fully rendered prompt plus the metadata needed to trace it back."""

    mode: PromptMode
    system_text: str
    exemplar_ids: tuple[str, ...]
    body: str
    target_id: str


DIRECT_SHOT_COUNT = 5
WORKED_SHOT_COUNT = 1

TASK_DESCRIPTIONS: dict[TaskKind, str] = {
    TaskKind.TRIP_PLANNING: (
        "You are an expert at planning trips. You are given a few constraints "
        "regarding the cities to visit and the durations of staying at each "
        "city. You are also given the flight information between the cities."
    ),
    TaskKind.VERTEX_COVER: (
        "You are an expert at graph covering problems. You are given an "
        "undirected graph and a required cover size. You must choose vertices "
        "so that every edge has at least one chosen endpoint."
    ),
    TaskKind.THREE_DM: (
        "You are an expert at combinatorial matching problems. You are given "
        "triples drawn from three disjoint element sets. You must select "
        "disjoint triples that cover every element exactly once."
    ),
    TaskKind.MEETING_PLANNING: (
        "You are an expert at planning meetings. You are given friends' "
        "locations and availability windows along with travel times between "
        "locations. You must meet as many friends as possible."
    ),
}

PREVIEW_HEADERS: dict[TaskKind, str] = {
    TaskKind.TRIP_PLANNING: "Calendar preview & test:",
    TaskKind.VERTEX_COVER: "Cover preview & test:",
    TaskKind.THREE_DM: "Matching preview & test:",
    TaskKind.MEETING_PLANNING: "Schedule preview & test:",
}

SEARCH_PHASE_TITLES: dict[PromptMode, str] = {
    PromptMode.COT: "Greedy Search",
    PromptMode.AOT: "Depth-First Search with pruning",
}

THINKING_HEADERS: dict[PromptMode, str] = {
    PromptMode.COT: "Greedy Search Thinking Process:",
    PromptMode.AOT: "Depth-First Search Thinking Process:",
}

_STATE_DEFINITIONS: dict[TaskKind, tuple[str, ...]] = {
    TaskKind.TRIP_PLANNING: (
        "path  ordered list of visited cities",
        "UD  current independent-day total",
        "start  calendar start-day of the last city",
        "used  set of visited cities",
    ),
    TaskKind.VERTEX_COVER: (
        "cover  set of chosen vertices",
        "uncovered  edges with no chosen endpoint yet",
        "budget  total number of vertices allowed",
    ),
    TaskKind.THREE_DM: (
        "matched  chosen triples so far",
        "used  y and z elements already taken",
        "next  the smallest x element still unmatched",
    ),
    TaskKind.MEETING_PLANNING: (
        "location  where you currently are",
        "clock  the current time of day",
        "met  friends already met",
    ),
}

_WINDOW_SENTENCES: dict[str, str] = {
    "wedding": "You are going to attend a wedding in {city} between day {a} and day {b}.",
    "visit relatives": "You plan to visit relatives in {city} between day {a} and day {b}.",
    "workshop": "You have to attend a workshop in {city} between day {a} and day {b}.",
    "meet your friends": (
        "You would like to meet your friends at {city} between day {a} and "
        "day {b} to tour together."
    ),
    "annual show": "You want to attend the annual show in {city} between day {a} and day {b}.",
    "conference": "You have to attend a conference in {city} between day {a} and day {b}.",
}

_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen", "twenty",
)


def _number_word(n: int) -> str:
    return _NUMBER_WORDS[n] if 0 <= n < len(_NUMBER_WORDS) else str(n)


def estimate_tokens(text: str) -> int:
    """Cheap length-based token estimate (≈4 characters per token)."""
    return max(1, len(text) // 4)


# ---------------------------------------------------------------------------
# Problem statements
# ---------------------------------------------------------------------------


def _trip_statement(payload: TripPayload) -> str:
    n = len(payload.cities)
    noun = "city" if n == 1 else "cities"
    sentences = [
        f"You plan to visit {n} European {noun} for {payload.total_days} days in total.",
        "You only take direct flights to commute between cities.",
    ]
    for city in payload.cities:
        sentences.append(f"You plan to stay in {city} for {payload.stay_of(city)} days.")
        w = payload.window_of(city)
        if w:
            sentences.append(
                _WINDOW_SENTENCES[w.label].format(city=city, a=w.start, b=w.end)
            )
    items = []
    for i, a in enumerate(payload.cities):
        for b in payload.cities[i + 1 :]:
            there = payload.has_flight(a, b)
            back = payload.has_flight(b, a)
            if there and back:
                items.append(f"{a} and {b}")
            elif there:
                items.append(f"from {a} to {b}")
            elif back:
                items.append(f"from {b} to {a}")
    flights = ", ".join(items) + "." if items else "none."
    return (
        " ".join(sentences)
        + "\n\nHere are the cities that have direct flights:\n"
        + flights
        + f"\n\nFind a trip plan of visiting the cities for {payload.total_days} "
        "days by taking direct flights to commute between them."
    )


def _cover_statement(payload: VertexCoverPayload) -> str:
    n, m, k = payload.vertex_count, len(payload.edges), payload.target_size
    edges = ", ".join(f"V{u}-V{v}" for u, v in payload.edges) + "." if payload.edges else "none."
    return (
        f"You are given an undirected graph with {n} vertices, labeled V0 "
        f"through V{n - 1}, and {m} edges. A vertex cover is a set of vertices "
        "that includes at least one endpoint of every edge.\n\n"
        "Here are the edges of the graph:\n"
        + edges
        + f"\n\nFind a vertex cover of the graph that uses exactly {k} vertices."
    )


def _threedm_statement(payload: ThreeDMPayload) -> str:
    n = payload.n
    triples = (
        ", ".join(f"(x{x}, y{y}, z{z})" for x, y, z in payload.triples) + "."
        if payload.triples
        else "none."
    )
    return (
        f"You are given three disjoint sets X, Y and Z, each with {n} elements: "
        f"x0 through x{n - 1}, y0 through y{n - 1}, and z0 through z{n - 1}. "
        f"A perfect matching is a set of {n} triples, each using one element of "
        "X, one of Y and one of Z, such that every element appears in exactly "
        "one chosen triple.\n\n"
        "Here are the available triples:\n"
        + triples
        + "\n\nFind a perfect matching using only the listed triples."
    )


def _meeting_statement(payload: MeetingPayload) -> str:
    sentences = [
        "You are visiting San Francisco for one day and want to meet as many "
        "friends as possible.",
        f"You arrive at {payload.start_location} at "
        f"{minutes_to_clock(payload.day_start)}.",
    ]
    for f in payload.friends:
        sentences.append(
            f"{f.name} will be at {f.location} from "
            f"{minutes_to_clock(f.avail_start)} to {minutes_to_clock(f.avail_end)}; "
            f"you would like to meet {f.name} for at least {f.min_minutes} minutes."
        )
    travel = (
        ", ".join(
            f"{a} and {b}: {t}"
            for (a, b), t in sorted(payload.travel_minutes.items())
        )
        + "."
        if payload.travel_minutes
        else "none."
    )
    return (
        " ".join(sentences)
        + "\n\nHere are the travel times in minutes:\n"
        + travel
        + "\n\nFind a schedule that meets as many friends as possible, honoring "
        "every availability window and all travel times."
    )


def statement_text(payload: Payload) -> str:
    """The natural-language question for a payload (deterministic, fixed form)."""
    if isinstance(payload, TripPayload):
        return _trip_statement(payload)
    if isinstance(payload, VertexCoverPayload):
        return _cover_statement(payload)
    if isinstance(payload, ThreeDMPayload):
        return _threedm_statement(payload)
    assert isinstance(payload, MeetingPayload)
    return _meeting_statement(payload)


# ---------------------------------------------------------------------------
# Exemplar sections: objective and constraints
# ---------------------------------------------------------------------------


def _objective(payload: Payload) -> str:
    if isinstance(payload, TripPayload):
        return (
            f"Plan a **{payload.total_days}-day** trip that visits the "
            f"**{_number_word(len(payload.cities))}** European cities below, "
            "using only the direct flights provided."
        )
    if isinstance(payload, VertexCoverPayload):
        return (
            f"Choose **{payload.target_size}** vertices of the "
            f"**{payload.vertex_count}-vertex** graph below so that every "
            "listed edge has at least one chosen endpoint."
        )
    if isinstance(payload, ThreeDMPayload):
        return (
            f"Choose **{_number_word(payload.n)}** pairwise-disjoint triples "
            "from the list below so that every element of X, Y and Z is "
            "covered exactly once."
        )
    assert isinstance(payload, MeetingPayload)
    return (
        f"Plan one day that meets as many of the "
        f"**{_number_word(len(payload.friends))}** friends below as possible, "
        f"starting from {payload.start_location} at "
        f"{minutes_to_clock(payload.day_start)}."
    )


def _trip_constraints(payload: TripPayload) -> str:
    parts = [
        "1. **Adjacency overlap**  The last day of city *i* is also the first "
        "day of city *i + 1*.",
        "2. **Stay-length & fixed-window requirements**",
    ]
    for city in payload.cities:
        w = payload.window_of(city)
        window = (
            f"**must cover Day {w.start}-{w.end}** ({w.label})" if w else "--"
        )
        parts.append(
            f"City: {city}\nRequired stay: {payload.stay_of(city)} days\n"
            f"Fixed-day window: {window}"
        )
    parts.append(
        "The sum of **independent days** (Σ stay - overlaps) must equal "
        f"**{payload.total_days}** exactly."
    )
    lines = []
    for origin in payload.cities:
        hops = [
            f"{origin}→{dest}"
            for dest in payload.cities
            if dest != origin and payload.has_flight(origin, dest)
        ]
        if hops:
            lines.append("  ".join(hops))
    flights = "\n".join(lines) if lines else "none"
    parts.append(
        "3. **Flights requirements**  A direct flight exists **only** when "
        "explicitly listed:\n\n" + flights
    )
    return "\n\n".join(parts)


def _cover_constraints(payload: VertexCoverPayload) -> str:
    by_u: dict[int, list[str]] = {}
    for u, v in payload.edges:
        by_u.setdefault(u, []).append(f"V{u}-V{v}")
    lines = ["  ".join(by_u[u]) for u in sorted(by_u)]
    edges = "\n".join(lines) if lines else "none"
    return "\n\n".join(
        [
            "1. **Coverage**  Every listed edge needs at least one chosen endpoint.",
            f"2. **Size budget**  The cover must use exactly "
            f"**{payload.target_size}** vertices.",
            "3. **Edges**  An edge exists **only** when explicitly listed:\n\n"
            + edges,
        ]
    )


def _threedm_constraints(payload: ThreeDMPayload) -> str:
    by_x: dict[int, list[str]] = {}
    for x, y, z in payload.triples:
        by_x.setdefault(x, []).append(f"(x{x}, y{y}, z{z})")
    lines = [f"x{x}: " + "  ".join(by_x[x]) for x in sorted(by_x)]
    triples = "\n".join(lines) if lines else "none"
    return "\n\n".join(
        [
            "1. **Disjointness**  No two chosen triples may share any element.",
            "2. **Coverage**  Every element of X, Y and Z must appear in "
            "exactly one chosen triple.",
            "3. **Available triples**  A triple may be chosen **only** when "
            "explicitly listed:\n\n" + triples,
        ]
    )


def _meeting_constraints(payload: MeetingPayload) -> str:
    parts = [
        "1. **Availability windows**  A friend can only be met inside the "
        "listed window, for at least the listed minimum duration.",
        f"2. **Travel**  You start at {payload.start_location} at "
        f"{minutes_to_clock(payload.day_start)}; moving between locations "
        "costs the listed minutes.",
    ]
    for f in payload.friends:
        parts.append(
            f"Friend: {f.name}\nLocation: {f.location}\n"
            f"Available: {minutes_to_clock(f.avail_start)}-"
            f"{minutes_to_clock(f.avail_end)}\n"
            f"Minimum: {f.min_minutes} minutes"
        )
    by_first: dict[str, list[str]] = {}
    for (a, b), t in sorted(payload.travel_minutes.items()):
        by_first.setdefault(a, []).append(f"{a} ↔ {b}: {t}")
    lines = ["  ".join(by_first[a]) for a in sorted(by_first)]
    travel = "\n".join(lines) if lines else "none"
    parts.append("Travel times in minutes:\n" + travel)
    return "\n\n".join(parts)


def _constraints(payload: Payload) -> str:
    if isinstance(payload, TripPayload):
        return _trip_constraints(payload)
    if isinstance(payload, VertexCoverPayload):
        return _cover_constraints(payload)
    if isinstance(payload, ThreeDMPayload):
        return _threedm_constraints(payload)
    assert isinstance(payload, MeetingPayload)
    return _meeting_constraints(payload)


# ---------------------------------------------------------------------------
# Exemplar sections: the search narrative
# ---------------------------------------------------------------------------


def _event_block(kind: TaskKind, mode: PromptMode, event: TraceEvent, success_label: str) -> str:
    if event.action is Action.BACKTRACK:
        return f"Backtrack: {event.detail}"
    if event.action is Action.PRUNE:
        outcome = f"**Prune ({event.reason})**"
    elif event.step_label == success_label:
        outcome = "**Success**"
    else:
        outcome = "keep"
    transition = event.detail
    # The depth-first exemplar elides the parent on deep trip transitions;
    # the greedy exemplar names it at every step.
    if (
        mode is PromptMode.AOT
        and kind is TaskKind.TRIP_PLANNING
        and event.depth >= 3
        and "→" in transition
    ):
        transition = "…→" + transition.split("→", 1)[1]
    return (
        f"Step: {event.step_label}\n"
        f"Transition tried: {transition}\n"
        f"{PREVIEW_HEADERS[kind]} {event.state_summary}\n"
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
    kind: TaskKind,
    mode: PromptMode,
    events: Sequence[TraceEvent],
    success_label: str,
    on_path: set[str],
    fold_first_root: bool,
) -> list[_Section]:
    """Phase 3 in one pass over the search events.

    The trace is split at its start-city roots (``S0`` events); a trace with
    no roots is one section with root ``""``.  An Expansion off the accepting
    path (``on_path`` holds its labels) opens a unit that runs to the
    Backtrack that pairs it; every other event is a unit of its own, and of
    those only Prunes are ever elided.
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
        block = _event_block(kind, mode, event, success_label)
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


def _search_phase(
    kind: TaskKind,
    mode: PromptMode,
    sections: list[_Section],
    dropped: set,
) -> str:
    """Phase 3 without the ``dropped`` items: section indices ``i`` and unit
    indices ``(i, j)``, each run of them replaced by a count of its steps."""
    blocks: list[str] = [f"3. {SEARCH_PHASE_TITLES[mode]}"]
    named = kind is TaskKind.TRIP_PLANNING and mode is PromptMode.AOT
    for i, section in enumerate(sections):
        if named:
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
    init, *core, _, found = trace.events
    # A depth-first trip trace folds its first start city into the initial
    # state; only depth-first trip traces have ``S0`` roots.
    fold = bool(core) and core[0].step_label == "S0" and core[0].action is Action.EXPANSION
    if fold:
        root = core[0].move
        assert isinstance(payload, TripPayload)
        span = payload.stay_of(root)
        init_line = (
            f"Pick an initial state: (path=[{root}], UD={span}, start=1) "
            f"# {root} spans Day 1-{span}"
        )
    else:
        verb = "Initial state" if mode is PromptMode.COT else "Pick an initial state"
        init_line = f"{verb}: {init.state_summary} # {init.detail.split('; ')[-1]}"
    sections = _sections(
        payload.kind, mode, core, found.step_label,
        {e.step_label for e in success_path(trace)}, fold,
    )

    if isinstance(payload, TripPayload):
        lines = []
        for leg in trace.solution.legs:  # type: ignore[union-attr]
            w = payload.window_of(leg.city)
            suffix = f"  ({w.label})" if w else ""
            lines.append(f"Day {leg.day_from}-{leg.day_to}  {leg.city}{suffix}")
        output = "\n".join(lines)
    else:
        output = answer_lines(trace.solution)  # type: ignore[arg-type]
    state_lines = "\n".join(_STATE_DEFINITIONS[payload.kind])
    prefix = (
        f"### Objective ###\n\n{_objective(payload)}\n\n"
        f"### Constraints ###\n\n{_constraints(payload)}\n\n"
        "### Solution Thinking Process ###\n\n"
        f"1. State definition\n{state_lines}\n\n"
        f"2. Initialization\n{init_line}\n\n"
    )
    suffix = (
        f"\n\n4. Unique solution path found\n{found.detail}\n\n"
        f"5. Output Format\n{output}"
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
        if mode is PromptMode.DIRECT:
            if not exemplars:
                raise PromptError("Direct mode needs at least one exemplar")
        elif len(exemplars) != WORKED_SHOT_COUNT:
            raise PromptError(f"{mode.value} mode uses exactly one worked exemplar")
        for ex, trace in exemplars:
            if trace.kind is not ex.kind:
                raise PromptError(f"trace kind {trace.kind.value} does not match {ex.id}")
            if mode is PromptMode.COT and trace.mode is not SearchMode.GREEDY:
                raise WrongTraceMode("CoT requires a greedy trace")
            if mode is PromptMode.AOT and trace.mode is not SearchMode.DFS:
                raise WrongTraceMode("AoT requires a depth-first trace")
            if not trace.succeeded:
                raise TraceNotSuccessful(f"exemplar trace for {ex.id} found no solution")
        self.mode = mode
        self.exemplars = tuple(exemplars)
        self.drop_order: list = []
        if mode is PromptMode.DIRECT:
            parts = [f"{len(exemplars)}-Shot In-Context Examples:"]
            for i, (ex, trace) in enumerate(exemplars, start=1):
                parts.append(f"### Task{i} ###\n{statement_text(ex.payload)}")
                parts.append(
                    f"### Solution{i} ###\n{canonical_text(ex.payload, trace.solution)}"
                )
            self._heads = {0: "\n\n".join(parts) + "\n\n" + _TARGET_HEADER}
            return
        ex, trace = exemplars[0]
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
            kind = self.exemplars[0][0].kind
            phase3 = _search_phase(kind, self.mode, self._sections, set(self.drop_order[:k]))
            head = self._heads.setdefault(
                k, f"{THINKING_HEADERS[self.mode]}\n\n{self._prefix}{phase3}{self._suffix}"
            )
        return head


def render(
    instance: ProblemInstance,
    mode: PromptMode,
    exemplars: Shots | Sequence[tuple[ProblemInstance, SearchTrace]],
    token_budget: int | None = None,
) -> PromptBundle:
    """Render the full prompt for ``instance``.

    ``exemplars`` pairs worked instances with their traces: any number of
    successful traces for Direct, exactly one greedy trace for CoT, exactly
    one depth-first trace for AoT; a ``Shots`` built from them for ``mode``
    shares its rendered half across targets.  When ``token_budget`` is given
    and the body estimate exceeds it, AoT elides earlier root sections first,
    in trace order, then the accepting section's pruned steps and dead
    subtrees, shallowest first and in trace order within a depth; the
    accepting path itself is never cut.  ContextBudgetExceeded is raised if
    even the fully elided body is too big.
    """
    shots = exemplars if isinstance(exemplars, Shots) else Shots(mode, exemplars)
    if shots.mode is not mode:
        raise PromptError(f"{shots.mode.value} exemplars cannot render a {mode.value} prompt")
    for ex, _ in shots.exemplars:
        if ex.kind is not instance.kind:
            raise PromptError(
                f"exemplar {ex.id} is {ex.kind.value}, target is {instance.kind.value}"
            )
        if ex.id == instance.id:
            raise ExemplarTargetOverlap(f"{ex.id} is both target and exemplar")
    for k in range(len(shots.drop_order) + 1):
        body = shots.head(k) + instance.statement
        if token_budget is None or estimate_tokens(body) <= token_budget:
            break
    else:
        raise ContextBudgetExceeded(
            f"{mode.value} body for {instance.id} is ≈{estimate_tokens(body)} tokens "
            f"after eliding every elidable step; budget {token_budget}"
        )
    return PromptBundle(
        mode=mode,
        system_text=TASK_DESCRIPTIONS[instance.kind],
        exemplar_ids=tuple(ex.id for ex, _ in shots.exemplars),
        body=body,
        target_id=instance.id,
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


def default_exemplars(
    kind: TaskKind, mode: PromptMode
) -> list[tuple[ProblemInstance, SearchTrace]]:
    """Stock exemplars: fixed mid-difficulty instances from a reserved seed
    namespace, solved in the trace mode the prompt mode calls for."""
    count = DIRECT_SHOT_COUNT if mode is PromptMode.DIRECT else WORKED_SHOT_COUNT
    search = SearchMode.GREEDY if mode is PromptMode.COT else SearchMode.DFS
    out = []
    for index in range(count):
        ex = exemplar_instance(kind, index)
        out.append((ex, solve(ex, search)))
    return out


def bundle_text(bundle: PromptBundle) -> str:
    """System text and body as one inspectable document (golden-file format)."""
    return f"{bundle.system_text}\n\n{bundle.body}\n"

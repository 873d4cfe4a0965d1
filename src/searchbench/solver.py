"""Search traces: the event protocol every task's exact searches emit.

Two trace modes exist for every task kind, both defined in the task's family
module (``tasks.family``) and run through :func:`solve_payload`:

* ``dfs``    -- depth-first search with explicit pruning.  The trace records
  every tried transition (kept or pruned), every backtrack, and the final
  outcome.
* ``greedy`` -- a straight-line commit trace that narrates the solution of
  one depth-first search, with local evaluation commentary and no prune or
  backtrack.  Trip and matching commits are the search's own success path,
  closed by the search's own Evaluation and Success texts; cover commits the
  same vertices by falling degree; meeting commits the canonical optimal
  schedule (``meeting.optimal_schedule``), which the search may not reach
  first.  On unsolvable inputs there is nothing to narrate: the greedy trace
  is the search's Initialization alone, with no Success.

All traces share one event protocol so renderers and tests can stay mostly
task-agnostic.  :func:`_search` is its one owner for depth-first traces:
each task's search supplies only its state, a goal test and a generator of
tried transitions.  :func:`_narrate` is the one greedy narrator: each task
supplies only its commit rows and closing texts.  Both close through
:func:`_close`.
The protocol:

* the first event is always ``Initialization``;
* ``Expansion`` marks a kept transition (a push onto the search stack),
  ``Prune`` a rejected one with a reason drawn from :data:`PRUNE_REASONS`;
* ``Backtrack`` pops the most recent kept transition;
* ``Evaluation`` checks a complete candidate;
* a trace ends with ``Success`` if and only if a solution was found, and
  replaying pushes/pops up to that point reconstructs the returned solution.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence

from .tasks import Payload, ProblemInstance, Solution, TaskKind, family


class Action(str, Enum):
    INITIALIZATION = "Initialization"
    EXPANSION = "Expansion"
    EVALUATION = "Evaluation"
    PRUNE = "Prune"
    BACKTRACK = "Backtrack"
    SUCCESS = "Success"


PRUNE_REASONS = ("window", "flight", "visited", "budget", "coverage")


class SearchMode(str, Enum):
    GREEDY = "greedy"
    DFS = "dfs"


@dataclass(frozen=True)
class TraceEvent:
    """One step of a search trace.

    ``move`` is the machine token of the transition (a city, ``V3``, a triple,
    a friend name); ``detail`` is the human transition text and
    ``state_summary`` the "preview & test" commentary rendered into prompts.
    """

    step_label: str
    action: Action
    reason: str = ""
    move: str = ""
    detail: str = ""
    state_summary: str = ""
    depth: int = 0


@dataclass(frozen=True)
class SearchTrace:
    kind: TaskKind
    mode: SearchMode
    events: tuple[TraceEvent, ...]
    solution: Solution | None

    @property
    def succeeded(self) -> bool:
        return self.solution is not None

    @property
    def explored_count(self) -> int:
        return sum(e.action is Action.EXPANSION for e in self.events)


class _Tracer:
    """Collects a trace's events, starting with its Initialization."""

    def __init__(self, detail: str, state: str) -> None:
        self.events = [TraceEvent("", Action.INITIALIZATION, detail=detail, state_summary=state)]

    def emit(
        self,
        label: str,
        action: Action,
        reason: str = "",
        move: str = "",
        detail: str = "",
        state: str = "",
        depth: int = 0,
    ) -> None:
        self.events.append(TraceEvent(label, action, reason, move, detail, state, depth))

    def finish(self, kind: TaskKind, mode: SearchMode, solution: Solution | None) -> SearchTrace:
        return SearchTrace(kind, mode, tuple(self.events), solution)


def _letters(index: int, alphabet: str = string.ascii_uppercase) -> str:
    """1-based index to letters: 1->A, 26->Z, 27->AA ..."""
    out = ""
    while index > 0:
        index, rem = divmod(index - 1, 26)
        out = alphabet[rem] + out
    return out


def _child_label(parent: str, rel_depth: int, index: int) -> str:
    """Step labels alternate letter/number by depth below the first branching.

    rel_depth 0 yields uppercase letters (A, B, ...), odd depths append a
    number, positive even depths append a lowercase letter — producing the
    C / C4 / C4c / C4c4 / C4c4a family of labels.
    """
    if rel_depth == 0:
        return _letters(index)
    if rel_depth % 2 == 1:
        return f"{parent}{index}"
    return f"{parent}{_letters(index, string.ascii_lowercase)}"


class _Step(NamedTuple):
    """One tried transition, as a task's ``children()`` generator yields it.

    A step with a ``prune`` reason was rejected.  A kept step is applied to the
    search state before it is yielded and undone when the generator resumes;
    ``undo`` is the text of the Backtrack that pairs its Expansion.
    ``at_parent`` marks a dead end reported under the parent's own label,
    taking no child index.
    """

    move: str
    detail: str
    state: str
    depth: int
    prune: str = ""
    undo: str = ""
    at_parent: bool = False


def _search(
    tracer: _Tracer,
    children: Callable[[], Iterator[_Step]],
    goal: Callable[[str], Solution | None],
    label: str = "",
    rel_depth: int = 0,
) -> Solution | None:
    """Depth-first search that owns the trace protocol; returns the first solution.

    ``goal(label)`` closes the trace and returns the solution once the current
    state is complete, else None.  Otherwise each step of ``children()`` is
    labelled, emitted as a Prune or an Expansion, and a kept one is searched
    below and, when it fails, paired with its Backtrack.
    """
    found = goal(label)
    if found is not None:
        return found
    index = 0
    for step in children():
        if step.at_parent:
            child = label
        else:
            index += 1
            child = _child_label(label, rel_depth, index)
        if step.prune:
            tracer.emit(child, Action.PRUNE, step.prune, step.move, step.detail, step.state, step.depth)
            continue
        tracer.emit(child, Action.EXPANSION, "", step.move, step.detail, step.state, step.depth)
        found = _search(tracer, children, goal, child, rel_depth + 1)
        if found is not None:
            return found
        tracer.emit(child, Action.BACKTRACK, detail=step.undo, depth=step.depth)
    return None


def _close(
    tracer: _Tracer, label: str, depth: int, check: tuple[str, str], found: tuple[str, str]
) -> None:
    """Emit the Evaluation of a complete candidate and the Success that ends
    the trace; ``check`` and ``found`` are their (detail, state) texts."""
    tracer.emit(label, Action.EVALUATION, detail=check[0], state=check[1], depth=depth)
    tracer.emit(label, Action.SUCCESS, detail=found[0], state=found[1], depth=depth)


def _narrate(
    kind: TaskKind,
    init: tuple[str, str],
    commits: Sequence[tuple[str, str, str]],
    check: tuple[str, str],
    found: tuple[str, str],
    solution: Solution,
) -> SearchTrace:
    """The greedy trace: ``commits`` (move, detail, state) as straight-line
    Expansions ``G0 .. G{n-1}``, closed on the last one; ``init``, ``check``
    and ``found`` are the (detail, state) texts of the Initialization, the
    Evaluation and the Success."""
    tracer = _Tracer(*init)
    for i, (move, detail, state) in enumerate(commits):
        tracer.emit(f"G{i}", Action.EXPANSION, move=move, detail=detail, state=state, depth=i + 1)
    _close(tracer, f"G{len(commits) - 1}" if commits else "", len(commits), check, found)
    return tracer.finish(kind, SearchMode.GREEDY, solution)


def _narrate_path(dfs: SearchTrace, init: tuple[str, str]) -> SearchTrace:
    """Narrate a successful depth-first trace's own success path, closed by
    its own Evaluation and Success texts."""
    *_, check, found = dfs.events
    return _narrate(
        dfs.kind, init,
        [(e.move, e.detail, e.state_summary) for e in success_path(dfs)],
        (check.detail, check.state_summary), (found.detail, found.state_summary),
        dfs.solution,
    )


def _no_commits(dfs: SearchTrace) -> SearchTrace:
    """Without a solution there is nothing to commit to: the greedy trace is the
    search's Initialization alone, with no Success."""
    return SearchTrace(dfs.kind, SearchMode.GREEDY, dfs.events[:1], None)


def solve_payload(payload: Payload, mode: SearchMode = SearchMode.DFS) -> SearchTrace:
    """Run the depth-first search of the payload's task once; in greedy mode
    narrate its solution.

    MeetingPlanning's greedy trace commits the exact optimum instead, so it
    runs no search.
    """
    task = family(payload.kind)
    return task.dfs(payload) if mode is SearchMode.DFS else task.greedy(payload)


def solve(instance: ProblemInstance, mode: SearchMode = SearchMode.DFS) -> SearchTrace:
    """Solve an instance from its payload alone (ground truth is never read)."""
    return solve_payload(instance.payload, mode)


# ---------------------------------------------------------------------------
# Trace utilities
# ---------------------------------------------------------------------------


def success_path(trace: SearchTrace) -> tuple[TraceEvent, ...]:
    """Replay pushes/pops over the events; returns the kept Expansion events.

    For a Success trace this is the solution path.
    """
    stack: list[TraceEvent] = []
    for event in trace.events:
        if event.action is Action.EXPANSION:
            stack.append(event)
        elif event.action is Action.BACKTRACK:
            if not stack:
                raise ValueError("Backtrack with empty stack: unmatched pop")
            stack.pop()
    return tuple(stack)


def trace_to_records(trace: SearchTrace) -> list[dict]:
    return [
        {
            "step": e.step_label,
            "action": e.action.value,
            "reason": e.reason or None,
            "move": e.move,
            "detail": e.detail,
            "state": e.state_summary,
            "depth": e.depth,
        }
        for e in trace.events
    ]


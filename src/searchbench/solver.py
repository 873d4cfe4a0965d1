"""Exact solvers that emit machine-readable search traces.

Two trace modes exist for every task kind:

* ``dfs``    -- depth-first search with explicit pruning.  The trace records
  every tried transition (kept or pruned), every backtrack, and the final
  outcome.
* ``greedy`` -- a straight-line commit trace that narrates the solution of
  one depth-first search, with local evaluation commentary and no prune or
  backtrack.  Trip and matching commits are the search's own success path;
  cover commits the same vertices by falling degree; meeting commits the
  canonical optimal schedule (:func:`optimal_schedule`), which the search
  may not reach first.  On unsolvable inputs there is nothing to narrate:
  the greedy trace is the search's Initialization alone, with no Success.

All traces share one event protocol so renderers and tests can stay mostly
task-agnostic.  :func:`_search` is its one owner: each task's depth-first
search supplies only its state, a goal test and a generator of tried
transitions, and greedy narrators close through the same :func:`_close`.
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

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .tasks import (
    CoverSet,
    Matching,
    Meeting,
    MeetingPayload,
    MeetingSchedule,
    Payload,
    ProblemInstance,
    Solution,
    TaskError,
    TaskKind,
    ThreeDMPayload,
    TripLeg,
    TripPayload,
    TripPlan,
    VertexCoverPayload,
    minutes_to_clock,
    payload_kind,
)


class TooLargeError(TaskError):
    """The instance exceeds the exhaustive-enumeration guard."""


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

    def __post_init__(self) -> None:
        if self.action is Action.PRUNE and self.reason not in PRUNE_REASONS:
            raise ValueError(f"invalid prune reason: {self.reason!r}")
        if self.action is not Action.PRUNE and self.reason:
            raise ValueError("reason is only meaningful on Prune events")


@dataclass(frozen=True)
class SearchTrace:
    kind: TaskKind
    mode: SearchMode
    events: tuple[TraceEvent, ...]
    solution: Solution | None
    explored_count: int

    @property
    def succeeded(self) -> bool:
        return self.solution is not None


class _Tracer:
    """Collects a trace's events, starting with its Initialization."""

    def __init__(self, detail: str, state: str) -> None:
        self.events = [TraceEvent("", Action.INITIALIZATION, detail=detail, state_summary=state)]
        self.explored = 0

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
        if action is Action.EXPANSION:
            self.explored += 1
        self.events.append(TraceEvent(label, action, reason, move, detail, state, depth))

    def finish(self, kind: TaskKind, mode: SearchMode, solution: Solution | None) -> SearchTrace:
        return SearchTrace(kind, mode, tuple(self.events), solution, self.explored)


def _commit_trace(dfs: SearchTrace, detail: str, state: str) -> SearchTrace:
    """Greedy narration of a successful depth-first trace: its success path
    replayed as straight-line commits ``G0 .. G{n-1}``, closed by the search's
    own Evaluation and Success relabelled onto the last commit."""
    path = success_path(dfs)
    last = f"G{len(path) - 1}" if path else ""
    events = (
        (TraceEvent("", Action.INITIALIZATION, detail=detail, state_summary=state),)
        + tuple(replace(e, step_label=f"G{i}") for i, e in enumerate(path))
        + tuple(replace(e, step_label=last) for e in dfs.events[-2:])
    )
    return SearchTrace(dfs.kind, SearchMode.GREEDY, events, dfs.solution, len(path))


def _letters(index: int, alphabet: str) -> str:
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
        return _letters(index, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    if rel_depth % 2 == 1:
        return f"{parent}{index}"
    return f"{parent}{_letters(index, 'abcdefghijklmnopqrstuvwxyz')}"


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


# ---------------------------------------------------------------------------
# Trip planning
# ---------------------------------------------------------------------------


def trip_legs_for_order(payload: TripPayload, order: Sequence[str]) -> tuple[TripLeg, ...]:
    """Build day-stamped legs for a visit order (closed intervals, shared
    transition days); validity is not checked."""
    legs = []
    day = 1
    for city in order:
        end = day + payload.stay_of(city) - 1
        legs.append(TripLeg(city=city, day_from=day, day_to=end))
        day = end
    return tuple(legs)


def check_trip_order(payload: TripPayload, order: Sequence[str]) -> bool:
    """Full validity check of a visit order against every trip constraint."""
    if sorted(order) != sorted(payload.cities):
        return False
    legs = trip_legs_for_order(payload, order)
    if legs[-1].day_to != payload.total_days:
        return False
    for prev, cur in zip(order, order[1:]):
        if not payload.has_flight(prev, cur):
            return False
    for leg in legs:
        w = payload.window_of(leg.city)
        if w and not (leg.day_from <= w.start and w.end <= leg.day_to):
            return False
    return True


def _trip_try(
    payload: TripPayload,
    path: Sequence[str],
    end_day: int,
    cand: str,
) -> tuple[bool, str, str, int]:
    """Feasibility tests for extending ``path`` with ``cand``.

    Returns (keep, prune_reason, preview_text, new_end_day).  Test order:
    flight, visited, calendar budget, own window, then reachability of every
    other unvisited window.
    """
    start = end_day if path else 1
    end = start + payload.stay_of(cand) - 1
    if path and not payload.has_flight(path[-1], cand):
        return False, "flight", f"no direct flight {path[-1]} → {cand}", end
    if cand in path:
        return False, "visited", "revisit city", end
    remaining = [c for c in payload.cities if c != cand and c not in path]
    final_end = end + sum(payload.stay_of(c) - 1 for c in remaining)
    if final_end != payload.total_days:
        return (
            False,
            "budget",
            f"calendar arithmetic fails: final day would be {final_end}, not {payload.total_days}",
            end,
        )
    own = payload.window_of(cand)
    if own and not (start <= own.start and own.end <= end):
        return (
            False,
            "window",
            f"{cand} Day {start}-{end} vs {own.label} Day {own.start}-{own.end}",
            end,
        )
    for other in remaining:
        w = payload.window_of(other)
        if w and end > w.start:
            return (
                False,
                "window",
                f"{cand} Day {start}-{end} → {other} cannot cover {w.label} (Day {w.start}-{w.end})",
                end,
            )
    if own:
        preview = f"{cand} Day {start}-{end} covers {own.label} (Day {own.start}-{own.end})"
    else:
        preview = f"{cand} Day {start}-{end} (no window)"
    return True, "", preview, end


def _trip_dfs(payload: TripPayload) -> SearchTrace:
    cities = payload.cities
    tracer = _Tracer(
        detail=(
            "state = (path, UD, start); try start cities in declaration order, "
            "children in name order"
        ),
        state="(path=[], UD=0, start=1)",
    )
    path: list[str] = []
    ends: list[int] = []

    def goal(label: str) -> TripPlan | None:
        if len(path) < len(cities):
            return None
        _close(
            tracer, label, len(path),
            ("all cities placed", f"UD = {ends[-1]} (check)"),
            (" → ".join(path), f"UD = {ends[-1]}"),
        )
        return TripPlan(legs=trip_legs_for_order(payload, path))

    def children() -> Iterator[_Step]:
        for cand in sorted(cities):
            if cand == path[-1]:
                continue
            keep, reason, preview, new_end = _trip_try(payload, path, ends[-1], cand)
            transition = f"{path[-1]}→**{cand}**"
            depth = len(path) + 1
            if not keep:
                yield _Step(cand, transition, preview, depth, prune=reason)
                continue
            path.append(cand)
            ends.append(new_end)
            yield _Step(
                cand, transition, f"{preview} → UD = {new_end}", depth,
                undo=f"dead end under {cand}; backtrack",
            )
            path.pop()
            ends.pop()

    solution: Solution | None = None
    for start in cities:
        keep, reason, preview, end = _trip_try(payload, [], 0, start)
        action = Action.EXPANSION if keep else Action.PRUNE
        tracer.emit("S0", action, reason, start, f"**Start {start}**", preview, 1)
        if not keep:
            continue
        path[:] = [start]
        ends[:] = [end]
        solution = _search(tracer, children, goal)
        if solution is not None:
            break
        tracer.emit(
            "", Action.BACKTRACK,
            detail=f"No child of the {start} root survives; backtrack to choose a new start city.",
            depth=1,
        )
    return tracer.finish(TaskKind.TRIP_PLANNING, SearchMode.DFS, solution)


def _trip_greedy(payload: TripPayload, dfs: SearchTrace) -> SearchTrace:
    first = dfs.solution.cities[0]
    d0 = payload.stay_of(first)
    return _commit_trace(
        dfs, f"{first} spans Day 1-{d0}", f"(path=[{first}], UD={d0}, start=1)"
    )


def count_trip_plans(payload: TripPayload, limit: int = 2) -> int:
    """Count valid plans with a pruned exact search, stopping at ``limit``.

    Complete (it only prunes provably-dead branches), so a return of 1 proves
    uniqueness; used by the generator where full enumeration would be wasteful.
    """
    found = 0

    def descend(path: list[str], end_day: int) -> bool:
        nonlocal found
        if len(path) == len(payload.cities):
            found += 1
            return found >= limit
        for cand in sorted(payload.cities):
            if path and cand == path[-1]:
                continue
            keep, _, _, new_end = _trip_try(payload, path, end_day, cand)
            if not keep:
                continue
            path.append(cand)
            if descend(path, new_end):
                return True
            path.pop()
        return False

    for start in payload.cities:
        keep, _, _, end = _trip_try(payload, [], 0, start)
        if keep and descend([start], end):
            break
    return found


# ---------------------------------------------------------------------------
# Vertex cover
# ---------------------------------------------------------------------------


def _fmt_vertices(vertices: Iterable[int]) -> str:
    return "[" + ", ".join(f"V{v}" for v in sorted(vertices)) + "]"


def _matching_bound(edges: Sequence[tuple[int, int]], covered: set[int]) -> int:
    """Greedy maximal matching over uncovered edges: each matched edge needs at
    least one extra cover vertex, so the matching size lower-bounds the work left."""
    used: set[int] = set()
    count = 0
    for u, v in edges:
        if u in covered or v in covered or u in used or v in used:
            continue
        used.add(u)
        used.add(v)
        count += 1
    return count


def _cover_dfs(payload: VertexCoverPayload) -> SearchTrace:
    k = payload.target_size
    edges = sorted(payload.edges)
    m = len(edges)
    tracer = _Tracer(
        detail=(
            "state = (cover, uncovered edges); branch on the first uncovered "
            "edge, endpoints in id order"
        ),
        state=f"(cover=[], uncovered={m}, budget={k})",
    )
    chosen: set[int] = set()

    def uncovered() -> list[tuple[int, int]]:
        return [(u, v) for u, v in edges if u not in chosen and v not in chosen]

    def goal(label: str) -> CoverSet | None:
        if uncovered():
            return None
        _close(
            tracer, label, len(chosen),
            ("coverage check", f"all {m} edges covered, size = {len(chosen)}"),
            (f"cover {_fmt_vertices(chosen)}", f"size = {len(chosen)} (target {k})"),
        )
        return CoverSet(vertices=frozenset(chosen))

    def children() -> Iterator[_Step]:
        u, v = uncovered()[0]
        for x in (u, v):
            transition = f"Add **V{x}** (for edge V{u}-V{v})"
            depth = len(chosen) + 1
            if depth > k:
                yield _Step(f"V{x}", transition, f"size budget {k} exhausted", depth, prune="budget")
                continue
            chosen.add(x)
            need = _matching_bound(edges, chosen)
            if depth + need > k:
                chosen.discard(x)
                yield _Step(
                    f"V{x}", transition, f"still needs ≥ {need} more vertices; budget {k}",
                    depth, prune="budget",
                )
                continue
            yield _Step(
                f"V{x}", transition,
                f"cover size {depth}, uncovered edges {len(uncovered())}", depth,
                undo=f"dead end after adding V{x}; remove it",
            )
            chosen.discard(x)

    return tracer.finish(TaskKind.VERTEX_COVER, SearchMode.DFS, _search(tracer, children, goal))


def min_cover_size(vertex_count: int, edges: Sequence[tuple[int, int]]) -> tuple[int, CoverSet]:
    """Exact minimum vertex cover size and cover, from one untraced pass.

    Branch and bound in ``_cover_dfs``'s order (first uncovered edge of the
    sorted edges, endpoint u before v) keeps a child while its size plus the
    matching bound is at most ``limit``, one less than the best cover so far.
    ``limit`` stays at or above the optimum until an optimum cover is found, so
    every node ``_cover_dfs`` visits at ``target_size = optimum`` is visited
    first, in the same order: the cover returned is the one it finds.
    """
    edges = sorted(edges)
    covered: set[int] = set()
    best = CoverSet(vertices=frozenset(range(vertex_count)))
    limit = vertex_count - 1

    def descend() -> None:
        nonlocal best, limit
        edge = next(
            ((u, v) for u, v in edges if u not in covered and v not in covered),
            None,
        )
        if edge is None:
            best = CoverSet(vertices=frozenset(covered))
            limit = len(covered) - 1
            return
        for x in edge:
            covered.add(x)
            if len(covered) + _matching_bound(edges, covered) <= limit:
                descend()
            covered.discard(x)

    descend()
    return len(best.vertices), best


def _cover_greedy(payload: VertexCoverPayload, dfs: SearchTrace) -> SearchTrace:
    """Commit the depth-first cover's vertices by falling degree, then id."""
    edges = sorted(payload.edges)
    m = len(edges)
    k = payload.target_size
    tracer = _Tracer(
        detail="state = (cover, uncovered edges); commit one vertex per step",
        state=f"(cover=[], uncovered={m}, budget={k})",
    )
    target = dfs.solution
    chosen: set[int] = set()

    def covers_now(x: int) -> int:
        return sum(
            1
            for u, v in edges
            if (u == x or v == x) and u not in chosen and v not in chosen
        )

    degree = {x: 0 for x in target.vertices}
    for u, v in edges:
        if u in degree:
            degree[u] += 1
        if v in degree:
            degree[v] += 1
    order = sorted(target.vertices, key=lambda x: (-degree[x], x))
    for i, x in enumerate(order):
        gained = covers_now(x)
        chosen.add(x)
        left = sum(1 for u, v in edges if u not in chosen and v not in chosen)
        tracer.emit(
            f"G{i}", Action.EXPANSION, move=f"V{x}",
            detail=f"Add **V{x}**",
            state=f"covers {gained} uncovered edges → uncovered {left}",
            depth=i + 1,
        )
    _close(
        tracer, f"G{len(order) - 1}" if order else "", len(order),
        ("coverage check", f"all {m} edges covered, size = {len(order)} (target {k})"),
        (f"cover {_fmt_vertices(target.vertices)}", f"size = {len(order)}"),
    )
    return tracer.finish(TaskKind.VERTEX_COVER, SearchMode.GREEDY, target)


# ---------------------------------------------------------------------------
# Three-dimensional matching
# ---------------------------------------------------------------------------


def _fmt_triple(t: tuple[int, int, int]) -> str:
    return f"(x{t[0]}, y{t[1]}, z{t[2]})"


def _threedm_dfs(payload: ThreeDMPayload) -> SearchTrace:
    n = payload.n
    by_x: dict[int, list[tuple[int, int, int]]] = {}
    for t in sorted(payload.triples):
        by_x.setdefault(t[0], []).append(t)
    tracer = _Tracer(
        detail=(
            "state = (matched triples, free elements); always extend the "
            "smallest unmatched x, candidates in triple order"
        ),
        state=f"(matched=0 of {n})",
    )
    picked: list[tuple[int, int, int]] = []
    used_y: set[int] = set()
    used_z: set[int] = set()

    def goal(label: str) -> Matching | None:
        if len(picked) < n:
            return None
        _close(
            tracer, label, n,
            ("matching check", f"all 3×{n} elements matched, {n} disjoint triples"),
            (", ".join(_fmt_triple(t) for t in sorted(picked)), f"{n} triples"),
        )
        return Matching(triples=frozenset(picked))

    def children() -> Iterator[_Step]:
        x = len(picked)
        depth = x + 1
        candidates = by_x.get(x, [])
        if not candidates:
            yield _Step(
                "", f"x{x} has no candidate triple", "dead end", depth,
                prune="coverage", at_parent=True,
            )
        for t in candidates:
            move = _fmt_triple(t)
            transition = f"Pick **{move}** for x{x}"
            if t[1] in used_y:
                yield _Step(move, transition, f"y{t[1]} already matched", depth, prune="visited")
                continue
            if t[2] in used_z:
                yield _Step(move, transition, f"z{t[2]} already matched", depth, prune="visited")
                continue
            picked.append(t)
            used_y.add(t[1])
            used_z.add(t[2])
            yield _Step(
                move, transition, f"y{t[1]}, z{t[2]} free → matched {depth} of {n}", depth,
                undo=f"dead end after {move}; drop it",
            )
            picked.pop()
            used_y.discard(t[1])
            used_z.discard(t[2])

    return tracer.finish(TaskKind.THREE_DM, SearchMode.DFS, _search(tracer, children, goal))


def _threedm_greedy(payload: ThreeDMPayload, dfs: SearchTrace) -> SearchTrace:
    return _commit_trace(
        dfs,
        "commit one triple per step, covering x elements in order",
        f"(matched=0 of {payload.n})",
    )


# ---------------------------------------------------------------------------
# Meeting planning
# ---------------------------------------------------------------------------


def optimal_schedule(payload: MeetingPayload) -> tuple[int, MeetingSchedule]:
    """Exact maximum-friends schedule.

    Meetings run at minimum duration from the earliest feasible start.  Among
    maximum-count schedules the canonical one finishes earliest, with remaining
    ties broken by the lexicographically smallest friend-name sequence.
    """
    friends = sorted(payload.friends, key=lambda f: f.name)
    best_key: tuple[int, int, tuple[str, ...]] | None = None
    best_sched: tuple[Meeting, ...] = ()

    def rec(loc: str, time: int, met: set[str], sched: list[Meeting]) -> None:
        nonlocal best_key, best_sched
        finish = sched[-1].end if sched else payload.day_start
        key = (-len(sched), finish, tuple(m.friend for m in sched))
        if best_key is None or key < best_key:
            best_key = key
            best_sched = tuple(sched)
        optimistic = len(sched) + sum(
            1
            for f in friends
            if f.name not in met and max(time, f.avail_start) + f.min_minutes <= f.avail_end
        )
        if best_key is not None and optimistic < -best_key[0]:
            return
        for f in friends:
            if f.name in met:
                continue
            arrive = time + payload.travel(loc, f.location)
            start = max(arrive, f.avail_start)
            end = start + f.min_minutes
            if end > f.avail_end:
                continue
            sched.append(Meeting(friend=f.name, location=f.location, start=start, end=end))
            met.add(f.name)
            rec(f.location, end, met, sched)
            met.discard(f.name)
            sched.pop()

    rec(payload.start_location, payload.day_start, set(), [])
    return len(best_sched), MeetingSchedule(meetings=best_sched)


def _meeting_dfs(payload: MeetingPayload) -> SearchTrace:
    target_count, _ = optimal_schedule(payload)
    friends = sorted(payload.friends, key=lambda f: f.name)
    tracer = _Tracer(
        detail="state = (location, clock, met set); try friends in name order",
        state=(
            f"(at {payload.start_location}, {minutes_to_clock(payload.day_start)}, "
            f"met 0; best reachable = {target_count})"
        ),
    )
    if target_count == 0:
        tracer.emit("", Action.EVALUATION, detail="no friend can be met at all", state="met 0")
        return tracer.finish(TaskKind.MEETING_PLANNING, SearchMode.DFS, None)

    sched: list[Meeting] = []
    met: set[str] = set()

    def goal(label: str) -> MeetingSchedule | None:
        if len(sched) < target_count:
            return None
        _close(
            tracer, label, len(sched),
            ("count check", f"met {target_count} friends — the optimum"),
            ("meet " + ", ".join(m.friend for m in sched), f"finish {minutes_to_clock(sched[-1].end)}"),
        )
        return MeetingSchedule(meetings=tuple(sched))

    def children() -> Iterator[_Step]:
        loc, time = (
            (sched[-1].location, sched[-1].end) if sched
            else (payload.start_location, payload.day_start)
        )
        depth = len(sched) + 1
        for f in friends:
            if f.name in met:
                continue
            transition = f"Meet **{f.name}** at {f.location}"
            travel = payload.travel(loc, f.location)
            arrive = time + travel
            start = max(arrive, f.avail_start)
            end = start + f.min_minutes
            if end > f.avail_end:
                yield _Step(
                    f.name, transition,
                    (
                        f"arrive {minutes_to_clock(arrive)}; window closes "
                        f"{minutes_to_clock(f.avail_end)}, needs {f.min_minutes} min"
                    ),
                    depth, prune="window",
                )
                continue
            met.add(f.name)
            reachable = depth + sum(
                1
                for g in friends
                if g.name not in met and max(end, g.avail_start) + g.min_minutes <= g.avail_end
            )
            if reachable < target_count:
                met.discard(f.name)
                yield _Step(
                    f.name, transition,
                    f"at most {reachable} friends reachable this way; need {target_count}",
                    depth, prune="budget",
                )
                continue
            sched.append(Meeting(friend=f.name, location=f.location, start=start, end=end))
            yield _Step(
                f.name, transition,
                f"travel {travel} min → meet {minutes_to_clock(start)}-{minutes_to_clock(end)}",
                depth, undo=f"dead end after meeting {f.name}; undo it",
            )
            sched.pop()
            met.discard(f.name)

    return tracer.finish(
        TaskKind.MEETING_PLANNING, SearchMode.DFS, _search(tracer, children, goal)
    )


def _meeting_greedy(payload: MeetingPayload, dfs: SearchTrace) -> SearchTrace:
    """Commit the canonical optimal schedule (earliest finish), which need not
    be the first optimal schedule the depth-first search reaches."""
    count, schedule = optimal_schedule(payload)
    tracer = _Tracer(
        detail="commit one meeting per step",
        state=(
            f"(at {payload.start_location}, {minutes_to_clock(payload.day_start)}, met 0)"
        ),
    )
    loc = payload.start_location
    for i, mtg in enumerate(schedule.meetings):
        travel = payload.travel(loc, mtg.location)
        tracer.emit(
            f"G{i}", Action.EXPANSION, move=mtg.friend,
            detail=f"Meet **{mtg.friend}** at {mtg.location}",
            state=(
                f"travel {travel} min → meet {minutes_to_clock(mtg.start)}-"
                f"{minutes_to_clock(mtg.end)}"
            ),
            depth=i + 1,
        )
        loc = mtg.location
    _close(
        tracer, f"G{count - 1}", count,
        ("count check", f"met {count} friends"),
        (
            "meet " + ", ".join(m.friend for m in schedule.meetings),
            f"finish {minutes_to_clock(schedule.meetings[-1].end)}",
        ),
    )
    return tracer.finish(TaskKind.MEETING_PLANNING, SearchMode.GREEDY, schedule)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


_DFS: dict[TaskKind, Callable] = {
    TaskKind.TRIP_PLANNING: _trip_dfs,
    TaskKind.VERTEX_COVER: _cover_dfs,
    TaskKind.THREE_DM: _threedm_dfs,
    TaskKind.MEETING_PLANNING: _meeting_dfs,
}

_GREEDY: dict[TaskKind, Callable] = {
    TaskKind.TRIP_PLANNING: _trip_greedy,
    TaskKind.VERTEX_COVER: _cover_greedy,
    TaskKind.THREE_DM: _threedm_greedy,
    TaskKind.MEETING_PLANNING: _meeting_greedy,
}


def solve_payload(payload: Payload, mode: SearchMode = SearchMode.DFS) -> SearchTrace:
    """Run the depth-first search once; in greedy mode narrate its solution.

    Without a solution there is nothing to commit to: the greedy trace is the
    search's Initialization alone, with no Success.
    """
    kind = payload_kind(payload)
    dfs = _DFS[kind](payload)
    if mode is SearchMode.DFS:
        return dfs
    if dfs.solution is None:
        return SearchTrace(kind, SearchMode.GREEDY, dfs.events[:1], None, 0)
    return _GREEDY[kind](payload, dfs)


def solve(instance: ProblemInstance, mode: SearchMode = SearchMode.DFS) -> SearchTrace:
    """Solve an instance from its payload alone (ground truth is never read)."""
    return solve_payload(instance.payload, mode)


_ENUM_GUARDS = {
    TaskKind.TRIP_PLANNING: ("cities", 8),
    TaskKind.VERTEX_COVER: ("vertices", 16),
    TaskKind.THREE_DM: ("element axis size", 6),
    TaskKind.MEETING_PLANNING: ("friends", 7),
}


def enumerate_all(instance: ProblemInstance | Payload) -> list[Solution]:
    """Brute-force enumeration of every valid solution, as an independent oracle.

    No pruning beyond direct constraint checks.  For optimization tasks
    (VertexCover, MeetingPlanning) "valid" means optimal: all minimum-size
    covers / all maximum-count canonical schedules.  Raises TooLargeError
    beyond the per-task size guards.
    """
    payload = instance.payload if isinstance(instance, ProblemInstance) else instance
    kind = payload_kind(payload)

    if kind is TaskKind.TRIP_PLANNING:
        assert isinstance(payload, TripPayload)
        if len(payload.cities) > _ENUM_GUARDS[kind][1]:
            raise TooLargeError(
                f"{len(payload.cities)} cities exceeds the enumeration guard "
                f"of {_ENUM_GUARDS[kind][1]}"
            )
        plans = []
        for order in itertools.permutations(payload.cities):
            if check_trip_order(payload, order):
                plans.append(TripPlan(legs=trip_legs_for_order(payload, order)))
        return plans

    if kind is TaskKind.VERTEX_COVER:
        assert isinstance(payload, VertexCoverPayload)
        n = payload.vertex_count
        if n > _ENUM_GUARDS[kind][1]:
            raise TooLargeError(
                f"{n} vertices exceeds the enumeration guard of {_ENUM_GUARDS[kind][1]}"
            )
        for size in range(0, n + 1):
            covers = [
                CoverSet(vertices=frozenset(combo))
                for combo in itertools.combinations(range(n), size)
                if all(u in combo or v in combo for u, v in payload.edges)
            ]
            if covers:
                return covers
        return []

    if kind is TaskKind.THREE_DM:
        assert isinstance(payload, ThreeDMPayload)
        n = payload.n
        if n > _ENUM_GUARDS[kind][1]:
            raise TooLargeError(
                f"axis size {n} exceeds the enumeration guard of {_ENUM_GUARDS[kind][1]}"
            )
        by_x: dict[int, list[tuple[int, int, int]]] = {}
        for t in sorted(payload.triples):
            by_x.setdefault(t[0], []).append(t)
        matchings: list[Solution] = []

        def extend(x: int, used_y: set[int], used_z: set[int], picked: list) -> None:
            if x == n:
                matchings.append(Matching(triples=frozenset(picked)))
                return
            for t in by_x.get(x, []):
                if t[1] in used_y or t[2] in used_z:
                    continue
                picked.append(t)
                extend(x + 1, used_y | {t[1]}, used_z | {t[2]}, picked)
                picked.pop()

        extend(0, set(), set(), [])
        return matchings

    assert isinstance(payload, MeetingPayload)
    if len(payload.friends) > _ENUM_GUARDS[kind][1]:
        raise TooLargeError(
            f"{len(payload.friends)} friends exceeds the enumeration guard "
            f"of {_ENUM_GUARDS[kind][1]}"
        )
    friends = sorted(payload.friends, key=lambda f: f.name)
    schedules: list[tuple[Meeting, ...]] = []

    def walk(loc: str, time: int, met: set[str], sched: list[Meeting]) -> None:
        schedules.append(tuple(sched))
        for f in friends:
            if f.name in met:
                continue
            arrive = time + payload.travel(loc, f.location)
            start = max(arrive, f.avail_start)
            end = start + f.min_minutes
            if end > f.avail_end:
                continue
            sched.append(Meeting(friend=f.name, location=f.location, start=start, end=end))
            met.add(f.name)
            walk(f.location, end, met, sched)
            met.discard(f.name)
            sched.pop()

    walk(payload.start_location, payload.day_start, set(), [])
    best = max(len(s) for s in schedules)
    return [MeetingSchedule(meetings=s) for s in schedules if len(s) == best]


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
    records = []
    for e in trace.events:
        records.append(
            {
                "step": e.step_label,
                "action": e.action.value,
                "reason": e.reason or None,
                "move": e.move,
                "detail": e.detail,
                "state": e.state_summary,
                "depth": e.depth,
            }
        )
    return records


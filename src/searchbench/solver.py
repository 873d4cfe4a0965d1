"""Exact solvers that emit machine-readable search traces.

Two trace modes exist for every task kind:

* ``dfs``    -- depth-first search with explicit pruning.  The trace records
  every tried transition (kept or pruned), every backtrack, and the final
  outcome.
* ``greedy`` -- a straight-line commit trace that narrates the solution of
  one depth-first search, with local evaluation commentary and no prune or
  backtrack.  Trip and matching commits are the search's own success path,
  closed by the search's own Evaluation and Success texts; cover commits the
  same vertices by falling degree; meeting commits the canonical optimal
  schedule (:func:`optimal_schedule`), which the search may not reach
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

import math
import string
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .tasks import (
    CoverSet,
    Friend,
    Matching,
    Meeting,
    MeetingPayload,
    MeetingSchedule,
    Payload,
    ProblemInstance,
    Solution,
    TaskKind,
    ThreeDMPayload,
    TripLeg,
    TripPayload,
    TripPlan,
    VertexCoverPayload,
    minutes_to_clock,
)


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


def _trip_try(
    payload: TripPayload,
    path: Sequence[str],
    end_day: int,
    cand: str,
) -> tuple[bool, str, str, int]:
    """Feasibility tests for extending ``path`` with ``cand``.

    Returns (keep, prune_reason, preview_text, new_end_day).  Test order:
    flight, visited, own window, then reachability of every other unvisited
    window.  The payload's stays fill ``total_days`` exactly, so every
    ordering ends on the last day and the calendar needs no test.
    """
    start = end_day if path else 1
    end = start + payload.stay_of(cand) - 1
    if path and not payload.has_flight(path[-1], cand):
        return False, "flight", f"no direct flight {path[-1]} → {cand}", end
    if cand in path:
        return False, "visited", "revisit city", end
    remaining = [c for c in payload.cities if c != cand and c not in path]
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
    return _narrate_path(
        dfs, (f"{first} spans Day 1-{d0}", f"(path=[{first}], UD={d0}, start=1)")
    )


def count_trip_plans(payload: TripPayload, limit: int = 2) -> int:
    """``min(number of valid plans, limit)``; a return of 1 proves uniqueness.

    The visited set fixes the calendar (a leg ends on day ``1 + Σ(stay − 1)``
    over the cities placed so far), so the search is memoised over (visited,
    last city).  The payload's distinct cities fill ``total_days`` exactly,
    so every full ordering ends on the last day.  A city is added under
    ``_trip_try``'s tests, which prune only dead branches: a flight from the
    last city, its own window, and no unvisited window starting before its
    leg ends.
    """
    cities = payload.cities
    spans = [payload.stay_of(c) - 1 for c in cities]
    full = (1 << len(cities)) - 1
    index = {c: j for j, c in enumerate(cities)}
    flights = [0] * len(cities)
    for a, b in payload.flights:
        flights[index[a]] |= 1 << index[b]
    window = [payload.window_of(c) for c in cities]
    windowed = [(j, w.start) for j, w in enumerate(window) if w]
    memo: dict[tuple[int, int], int] = {}

    def count(visited: int, last: int, start: int) -> int:
        if visited == full:
            return 1
        key = (visited, last)
        if key in memo:
            return memo[key]
        # The two earliest window starts still pending: a city may not end
        # its leg after any pending window other than its own begins.
        first = second = math.inf
        first_j = -1
        for j, opens in windowed:
            if not visited >> j & 1:
                if opens < first:
                    first, second, first_j = opens, first, j
                elif opens < second:
                    second = opens
        total = 0
        options = full & ~visited & (flights[last] if visited else full)
        while options and total < limit:
            bit = options & -options
            options ^= bit
            i = bit.bit_length() - 1
            end = start + spans[i]
            own = window[i]
            if own and not (start <= own.start and own.end <= end):
                continue
            if end > (second if i == first_j else first):
                continue
            total += count(visited | bit, i, end)
        memo[key] = total = min(total, limit)
        return total

    return count(0, -1, 1)


# ---------------------------------------------------------------------------
# Vertex cover
# ---------------------------------------------------------------------------


def _fmt_vertices(vertices: Iterable[int]) -> str:
    return "[" + ", ".join(f"V{v}" for v in sorted(vertices)) + "]"


def _incidence(payload: VertexCoverPayload) -> tuple[list[tuple[int, int]], list[int]]:
    """The sorted edges, and each vertex's mask of the indexes of its edges in
    that order: edge sets are int bitmasks over the sorted edges."""
    edges = sorted(payload.edges)
    incident = [0] * payload.vertex_count
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    return edges, incident


def _matching_bound(edges: Sequence[tuple[int, int]], incident: Sequence[int], left: int) -> int:
    """Greedy maximal matching over the uncovered edges ``left``, lowest edge
    first: each matched edge needs at least one extra cover vertex, so the
    matching size lower-bounds the work left."""
    count = 0
    while left:
        u, v = edges[(left & -left).bit_length() - 1]
        left &= ~(incident[u] | incident[v])
        count += 1
    return count


def _cover_dfs(payload: VertexCoverPayload) -> SearchTrace:
    k = payload.target_size
    edges, incident = _incidence(payload)
    m = len(edges)
    tracer = _Tracer(
        detail=(
            "state = (cover, uncovered edges); branch on the first uncovered "
            "edge, endpoints in id order"
        ),
        state=f"(cover=[], uncovered={m}, budget={k})",
    )
    chosen: list[int] = []
    uncovered = [(1 << m) - 1]  # the uncovered-edge mask at each depth

    def goal(label: str) -> CoverSet | None:
        if uncovered[-1]:
            return None
        _close(
            tracer, label, len(chosen),
            ("coverage check", f"all {m} edges covered, size = {len(chosen)}"),
            (f"cover {_fmt_vertices(chosen)}", f"size = {len(chosen)} (target {k})"),
        )
        return CoverSet(vertices=frozenset(chosen))

    def children() -> Iterator[_Step]:
        here = uncovered[-1]
        u, v = edges[(here & -here).bit_length() - 1]
        depth = len(chosen) + 1
        for x in (u, v):
            transition = f"Add **V{x}** (for edge V{u}-V{v})"
            if depth > k:
                yield _Step(f"V{x}", transition, f"size budget {k} exhausted", depth, prune="budget")
                continue
            left = here & ~incident[x]
            need = _matching_bound(edges, incident, left)
            if depth + need > k:
                yield _Step(
                    f"V{x}", transition, f"still needs ≥ {need} more vertices; budget {k}",
                    depth, prune="budget",
                )
                continue
            chosen.append(x)
            uncovered.append(left)
            yield _Step(
                f"V{x}", transition,
                f"cover size {depth}, uncovered edges {left.bit_count()}", depth,
                undo=f"dead end after adding V{x}; remove it",
            )
            chosen.pop()
            uncovered.pop()

    return tracer.finish(TaskKind.VERTEX_COVER, SearchMode.DFS, _search(tracer, children, goal))


def _mis(adj: Sequence[int], cand: int) -> int:
    """Size of a maximum independent set of the subgraph induced on ``cand``.

    Vertex sets are int bitmasks and ``adj[v]`` is the neighbour mask of v.  A
    vertex with at most one neighbour left lies in some maximum set, so it is
    taken outright; otherwise the search branches on a vertex of highest
    degree, leaving it out or taking it and dropping its neighbours.
    """
    size = 0
    while cand:
        pick, most = 0, -1
        rest = cand
        while rest:
            bit = rest & -rest
            rest ^= bit
            degree = (adj[bit.bit_length() - 1] & cand).bit_count()
            if degree <= 1:
                pick, most = bit, degree
                break
            if degree > most:
                pick, most = bit, degree
        cand &= ~pick
        if_taken = cand & ~adj[pick.bit_length() - 1]
        if most > 1:
            return size + max(_mis(adj, cand), 1 + _mis(adj, if_taken))
        size += 1
        cand = if_taken
    return size


def min_cover_size(vertex_count: int, edges: Sequence[tuple[int, int]]) -> tuple[int, CoverSet]:
    """Exact minimum vertex cover size ``n − MIS``, and the cover ``_cover_dfs``
    finds at that ``target_size``.

    The cover comes from one walk over the sorted edges, in ``_cover_dfs``'s
    branching order: at each uncovered edge (u, v) it adds u if a cover of
    optimum size still contains the cover so far plus u, that is if the
    vertices outside them still hold an independent set of size MIS, and v
    otherwise.  Branching reaches every cover containing the current one, and
    the traced bound prunes only subtrees with no cover of optimum size, so
    the traced search's first leaf is the one this walk reaches.
    """
    adj = [0] * vertex_count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << vertex_count) - 1
    mis = _mis(adj, full)
    cover = 0
    for u, v in sorted(edges):
        if not (cover >> u | cover >> v) & 1:
            with_u = cover | 1 << u
            cover = with_u if _mis(adj, full & ~with_u) == mis else cover | 1 << v
    return vertex_count - mis, CoverSet(
        vertices=frozenset(x for x in range(vertex_count) if cover >> x & 1)
    )


def _cover_greedy(payload: VertexCoverPayload, dfs: SearchTrace) -> SearchTrace:
    """Commit the depth-first cover's vertices by falling degree, then id."""
    edges, incident = _incidence(payload)
    m = len(edges)
    k = payload.target_size
    target = dfs.solution
    order = sorted(target.vertices, key=lambda x: (-incident[x].bit_count(), x))
    left = (1 << m) - 1
    commits = []
    for x in order:
        gained = (left & incident[x]).bit_count()
        left &= ~incident[x]
        commits.append((
            f"V{x}", f"Add **V{x}**",
            f"covers {gained} uncovered edges → uncovered {left.bit_count()}",
        ))
    return _narrate(
        TaskKind.VERTEX_COVER,
        (
            "state = (cover, uncovered edges); commit one vertex per step",
            f"(cover=[], uncovered={m}, budget={k})",
        ),
        commits,
        ("coverage check", f"all {m} edges covered, size = {len(order)} (target {k})"),
        (f"cover {_fmt_vertices(target.vertices)}", f"size = {len(order)}"),
        target,
    )


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


def matching_witness(payload: ThreeDMPayload) -> Matching | None:
    """The matching ``_threedm_dfs`` finds, or None, without building a trace.

    The same depth-first search over the sorted triples, smallest unmatched x
    first, with the used y and z elements as int bitmasks.
    """
    n = payload.n
    by_x: dict[int, list[tuple[tuple[int, int, int], int, int]]] = {}
    for t in sorted(payload.triples):
        by_x.setdefault(t[0], []).append((t, 1 << t[1], 1 << t[2]))
    picked: list[tuple[int, int, int]] = []

    def extend(x: int, used_y: int, used_z: int) -> bool:
        if x >= n:
            return True
        for t, y, z in by_x.get(x, ()):
            if used_y & y or used_z & z:
                continue
            picked.append(t)
            if extend(x + 1, used_y | y, used_z | z):
                return True
            picked.pop()
        return False

    return Matching(triples=frozenset(picked)) if extend(0, 0, 0) else None


def _threedm_greedy(payload: ThreeDMPayload, dfs: SearchTrace) -> SearchTrace:
    return _narrate_path(
        dfs,
        ("commit one triple per step, covering x elements in order", f"(matched=0 of {payload.n})"),
    )


# ---------------------------------------------------------------------------
# Meeting planning
# ---------------------------------------------------------------------------


def _meetable(friends: Sequence[Friend], met: set[str], time: int) -> int:
    """How many friends not in ``met`` could still be met from ``time`` on,
    travel aside: a bound on the meetings a schedule can still add."""
    return sum(
        1
        for f in friends
        if f.name not in met and max(time, f.avail_start) + f.min_minutes <= f.avail_end
    )


def optimal_schedule(payload: MeetingPayload) -> tuple[int, MeetingSchedule]:
    """Exact maximum-friends schedule.

    Meetings run at minimum duration from the earliest feasible start.  Among
    maximum-count schedules the canonical one finishes earliest, with remaining
    ties broken by the lexicographically smallest friend-name sequence.

    A branch-and-bound over friends in name order, on ints: friend indices
    (the payload's names are distinct, so an index is its name's rank), a
    ``met`` bitmask of one bit per friend and a travel matrix with rows for
    the start and each friend's location.  Friend k can still be met from
    clock ``t`` only if ``t <= deadline[k]``, its window end less its minimum
    minutes and its shortest travel in, so the unmet friends alive at ``t``
    bound the meetings a schedule can add.  A node is cut when that bound
    cannot beat the best count, or can only tie it while already finishing
    later, since a finish only grows along a path.
    """
    friends = sorted(payload.friends, key=lambda f: f.name)
    n = len(friends)
    places = [payload.start_location] + [f.location for f in friends]
    travel = [[payload.travel(a, f.location) for f in friends] for a in places]
    # shortest travel into each friend, from the start or another friend
    into = [min(row[k] for p, row in enumerate(travel) if p != k + 1) for k in range(n)]
    due = sorted(
        (f.avail_end - f.min_minutes - into[k], k)
        for k, f in enumerate(friends)
        if f.avail_start + f.min_minutes <= f.avail_end
    )
    deadlines = [d for d, _ in due]
    alive = [0] * (len(due) + 1)
    for i in range(len(due) - 1, -1, -1):
        alive[i] = alive[i + 1] | 1 << due[i][1]
    opens = [f.avail_start for f in friends]
    closes = [f.avail_end for f in friends]
    lasts = [f.min_minutes for f in friends]

    path: list[int] = []
    starts: list[int] = []
    # (count, finish, path, starts) of the best schedule
    best: list = [0, payload.day_start, (), ()]

    def visit(p: int, time: int, met: int) -> None:
        depth = len(path)
        if depth > best[0] or depth == best[0] and (
            time < best[1] or time == best[1] and tuple(path) < best[2]
        ):
            best[:] = depth, time, tuple(path), tuple(starts)
        live = alive[bisect_left(deadlines, time)] & ~met
        reach = depth + live.bit_count()
        if reach < best[0] or reach == best[0] and time > best[1]:
            return
        row = travel[p]
        while live:
            bit = live & -live
            live ^= bit
            k = bit.bit_length() - 1
            start = time + row[k]
            if start < opens[k]:
                start = opens[k]
            end = start + lasts[k]
            if end > closes[k]:
                continue
            path.append(k)
            starts.append(start)
            visit(k + 1, end, met | bit)
            path.pop()
            starts.pop()

    visit(0, payload.day_start, 0)
    meetings = tuple(
        Meeting(friend=friends[k].name, location=friends[k].location, start=s, end=s + lasts[k])
        for k, s in zip(best[2], best[3])
    )
    return len(meetings), MeetingSchedule(meetings=meetings)


def _meeting_dfs(
    payload: MeetingPayload, optimum: tuple[int, MeetingSchedule] | None = None
) -> SearchTrace:
    target_count, _ = optimum or optimal_schedule(payload)
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
            reachable = depth + _meetable(friends, met, end)
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


def _meeting_greedy(payload: MeetingPayload) -> SearchTrace:
    """Commit the canonical optimal schedule (earliest finish), which need not
    be the first optimal schedule the depth-first search reaches.  The one
    ``optimal_schedule`` call is the whole solve: no search runs."""
    optimum = optimal_schedule(payload)
    count, schedule = optimum
    if count == 0:
        return _no_commits(_meeting_dfs(payload, optimum))
    commits = []
    loc = payload.start_location
    for mtg in schedule.meetings:
        travel = payload.travel(loc, mtg.location)
        commits.append((
            mtg.friend,
            f"Meet **{mtg.friend}** at {mtg.location}",
            f"travel {travel} min → meet "
            f"{minutes_to_clock(mtg.start)}-{minutes_to_clock(mtg.end)}",
        ))
        loc = mtg.location
    return _narrate(
        TaskKind.MEETING_PLANNING,
        (
            "commit one meeting per step",
            f"(at {payload.start_location}, {minutes_to_clock(payload.day_start)}, met 0)",
        ),
        commits,
        ("count check", f"met {count} friends"),
        (
            "meet " + ", ".join(m.friend for m in schedule.meetings),
            f"finish {minutes_to_clock(schedule.meetings[-1].end)}",
        ),
        schedule,
    )


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
}


def _no_commits(dfs: SearchTrace) -> SearchTrace:
    """Without a solution there is nothing to commit to: the greedy trace is the
    search's Initialization alone, with no Success."""
    return SearchTrace(dfs.kind, SearchMode.GREEDY, dfs.events[:1], None, 0)


def solve_payload(payload: Payload, mode: SearchMode = SearchMode.DFS) -> SearchTrace:
    """Run the depth-first search once; in greedy mode narrate its solution.

    MeetingPlanning's greedy trace commits the exact optimum instead, so it
    runs no search.
    """
    kind = payload.kind
    if mode is SearchMode.GREEDY and kind is TaskKind.MEETING_PLANNING:
        return _meeting_greedy(payload)
    dfs = _DFS[kind](payload)
    if mode is SearchMode.DFS:
        return dfs
    if dfs.solution is None:
        return _no_commits(dfs)
    return _GREEDY[kind](payload, dfs)


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


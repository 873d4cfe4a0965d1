"""VertexCover's family module (see ``tasks.family``): pick an optimal-size
vertex cover of a graph; ground truth from ``min_cover_size``."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Sequence

from .answers import _OK, ParseReport, _bad, _clean, _wrong
from .solver import SearchMode, SearchTrace, _close, _narrate, _no_commits, _search, _Step, _Tracer
from .tasks import TaskKind, Verdict, read_field

KIND = TaskKind.VERTEX_COVER
DISPLAY = "Vertex Cover"
DESCRIPTION = (
    "You are an expert at graph covering problems. You are given an "
    "undirected graph and a required cover size. You must choose vertices "
    "so that every edge has at least one chosen endpoint."
)
PREVIEW_HEADER = "Cover preview & test:"
STATE_DEFINITIONS = (
    "cover  set of chosen vertices",
    "uncovered  edges with no chosen endpoint yet",
    "budget  total number of vertices allowed",
)


@dataclass(frozen=True)
class VertexCoverPayload:
    """An undirected graph plus the target cover size (the known optimum)."""

    kind: ClassVar[TaskKind] = KIND
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    target_size: int

    def __post_init__(self) -> None:
        if not 0 <= self.target_size <= self.vertex_count:
            raise ValueError(f"target_size {self.target_size} outside [0, {self.vertex_count}]")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) must be stored with u < v")


@dataclass(frozen=True)
class CoverSet:
    kind: ClassVar[TaskKind] = KIND
    vertices: frozenset[int]


def payload_to_json(payload: VertexCoverPayload) -> dict:
    return {"vertex_count": payload.vertex_count, "edges": [list(e) for e in payload.edges],
            "target_size": payload.target_size}


def payload_from_json(data: dict) -> VertexCoverPayload:
    return VertexCoverPayload(
        vertex_count=read_field(data, "vertex_count", int, where="payload."),
        edges=tuple(read_field(data, "edges", [(int, int)], where="payload.")),
        target_size=read_field(data, "target_size", int, where="payload."),
    )


def solution_to_json(solution: CoverSet) -> dict:
    return {"vertices": sorted(solution.vertices)}


def solution_from_json(data: dict) -> CoverSet:
    return CoverSet(vertices=frozenset(read_field(data, "vertices", [int], where="ground_truth.")))



def statement(payload: VertexCoverPayload) -> str:
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


def objective(payload: VertexCoverPayload) -> str:
    return (
        f"Choose **{payload.target_size}** vertices of the "
        f"**{payload.vertex_count}-vertex** graph below so that every "
        "listed edge has at least one chosen endpoint."
    )


def constraints(payload: VertexCoverPayload) -> str:
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


def output(payload: VertexCoverPayload, solution: CoverSet) -> str:
    return "Vertex cover: " + _fmt_vertices(solution.vertices)


def canonical_text(payload: VertexCoverPayload, solution: CoverSet) -> str:
    return (
        f"Here is a vertex cover of size {len(solution.vertices)}:\n\n"
        f"{output(payload, solution)}"
    )


_VERTEX_GROUP = re.compile(r"\[([^\[\]]*)\]")
_VERTEX_TOKEN = re.compile(r"[Vv]?(\d+)")
_VERTEX_LINE = re.compile(
    r"^(?:[A-Za-z ]{0,40}:)?\s*([Vv]?\d+(?:\s*,\s*[Vv]?\d+)+)\s*\.?\s*$"
)


def parse(text: str, payload: VertexCoverPayload) -> ParseReport:
    best: list[int] | None = None
    for m in _VERTEX_GROUP.finditer(text):
        tokens = _VERTEX_TOKEN.findall(m.group(1))
        if tokens:
            best = [int(t) for t in tokens]
    if best is None:
        for line in text.splitlines():
            lm = _VERTEX_LINE.match(_clean(line))
            if lm:
                best = [int(t) for t in _VERTEX_TOKEN.findall(lm.group(1))]
    if best is None:
        return ParseReport(None, "no bracketed or comma-separated vertex list found")
    return ParseReport(CoverSet(vertices=frozenset(best)))


def verify(payload: VertexCoverPayload, truth: CoverSet, candidate: CoverSet) -> Verdict:
    for v in candidate.vertices:
        if not (0 <= v < payload.vertex_count):
            return _bad(f"unknown vertex: V{v}")
    for u, v in sorted(payload.edges):
        if u not in candidate.vertices and v not in candidate.vertices:
            return _bad(f"edge uncovered: V{u}-V{v}")
    if len(candidate.vertices) != payload.target_size:
        return _wrong(
            f"cover size {len(candidate.vertices)} differs from optimal "
            f"{payload.target_size}"
        )
    return _OK


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


def dfs(payload: VertexCoverPayload) -> SearchTrace:
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

    return tracer.finish(KIND, SearchMode.DFS, _search(tracer, children, goal))


def greedy(payload: VertexCoverPayload) -> SearchTrace:
    """Commit the depth-first cover's vertices by falling degree, then id."""
    searched = dfs(payload)
    target = searched.solution
    if target is None:
        return _no_commits(searched)
    edges, incident = _incidence(payload)
    m = len(edges)
    k = payload.target_size
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
        KIND,
        (
            "state = (cover, uncovered edges); commit one vertex per step",
            f"(cover=[], uncovered={m}, budget={k})",
        ),
        commits,
        ("coverage check", f"all {m} edges covered, size = {len(order)} (target {k})"),
        (f"cover {_fmt_vertices(target.vertices)}", f"size = {len(order)}"),
        target,
    )


def _mis(adj: Sequence[int], cand: int) -> int:
    """A maximum independent set of the subgraph induced on ``cand``.

    Vertex sets are int bitmasks and ``adj[v]`` is the neighbour mask of v.  A
    vertex with at most one neighbour left lies in some maximum set, so it is
    taken outright; otherwise the search branches on a vertex of highest
    degree, leaving it out or taking it and dropping its neighbours.
    """
    taken = 0
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
            left_out = _mis(adj, cand)
            with_pick = _mis(adj, if_taken) | pick
            return taken | max(left_out, with_pick, key=int.bit_count)
        taken |= pick
        cand = if_taken
    return taken


def min_cover_size(vertex_count: int, edges: Sequence[tuple[int, int]]) -> tuple[int, CoverSet]:
    """Exact minimum vertex cover size ``n − MIS``, and the cover ``dfs``
    finds at that ``target_size``.

    The cover comes from one walk over the sorted edges, in ``dfs``'s
    branching order: at each uncovered edge (u, v) it adds u if a cover of
    optimum size still contains the cover so far plus u, that is if the
    vertices outside them still hold an independent set of size MIS, and v
    otherwise.  Branching reaches every cover containing the current one, and
    the traced bound prunes only subtrees with no cover of optimum size, so
    the traced search's first leaf is the one this walk reaches.

    The walk keeps a witness: a maximum independent set outside the cover so
    far.  A witness without u answers for u at once, so only an edge whose u
    it holds costs a search.  When that search finds a smaller set, v is
    added and the witness stays: it holds u, so it cannot hold v.
    """
    adj = [0] * vertex_count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << vertex_count) - 1
    witness = _mis(adj, full)
    mis = witness.bit_count()
    cover = 0
    for u, v in sorted(edges):
        if not (cover >> u | cover >> v) & 1:
            if witness >> u & 1:
                found = _mis(adj, full & ~(cover | 1 << u))
                if found.bit_count() < mis:
                    cover |= 1 << v
                    continue
                witness = found
            cover |= 1 << u
    return vertex_count - mis, CoverSet(
        vertices=frozenset(x for x in range(vertex_count) if cover >> x & 1)
    )

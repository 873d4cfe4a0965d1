"""ThreeDM's family module (see ``tasks.family``): pick ``n`` disjoint
triples covering three element axes; ground truth from ``matching_witness``."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Iterator

from .answers import _OK, ParseReport, _bad, _last_run, _wrong
from .solver import SearchMode, SearchTrace, _close, _narrate_path, _no_commits, _search, _Step, _Tracer
from .tasks import TaskKind, Verdict, number_word, read_field

KIND = TaskKind.THREE_DM
DISPLAY = "3-Dimensional Matching (3DM)"
DESCRIPTION = (
    "You are an expert at combinatorial matching problems. You are given "
    "triples drawn from three disjoint element sets. You must select "
    "disjoint triples that cover every element exactly once."
)
PREVIEW_HEADER = "Matching preview & test:"
STATE_DEFINITIONS = (
    "matched  chosen triples so far",
    "used  y and z elements already taken",
    "next  the smallest x element still unmatched",
)


@dataclass(frozen=True)
class ThreeDMPayload:
    """Triples over three disjoint axes x/y/z, each axis of size ``n``."""

    kind: ClassVar[TaskKind] = KIND
    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for t in self.triples:
            if any(not (0 <= c < self.n) for c in t):
                raise ValueError(f"triple {t} outside element range")


@dataclass(frozen=True)
class Matching:
    kind: ClassVar[TaskKind] = KIND
    triples: frozenset[tuple[int, int, int]]


def payload_to_json(payload: ThreeDMPayload) -> dict:
    return {"n": payload.n, "triples": [list(t) for t in payload.triples]}


def payload_from_json(data: dict) -> ThreeDMPayload:
    return ThreeDMPayload(
        n=read_field(data, "n", int, where="payload."),
        triples=tuple(read_field(data, "triples", [(int, int, int)], where="payload.")),
    )


def solution_to_json(solution: Matching) -> dict:
    return {"triples": sorted(list(t) for t in solution.triples)}


def solution_from_json(data: dict) -> Matching:
    return Matching(triples=frozenset(read_field(data, "triples", [(int, int, int)], where="ground_truth.")))



def statement(payload: ThreeDMPayload) -> str:
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


def objective(payload: ThreeDMPayload) -> str:
    return (
        f"Choose **{number_word(payload.n)}** pairwise-disjoint triples "
        "from the list below so that every element of X, Y and Z is "
        "covered exactly once."
    )


def constraints(payload: ThreeDMPayload) -> str:
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


def output(payload: ThreeDMPayload, solution: Matching) -> str:
    return "\n".join(_fmt_triple(t) for t in sorted(solution.triples))


def canonical_text(payload: ThreeDMPayload, solution: Matching) -> str:
    return (
        f"Here is a perfect matching with {len(solution.triples)} disjoint "
        f"triples:\n\n{output(payload, solution)}"
    )


_TRIPLE = re.compile(
    r"\(\s*(?:x\s*)?(\d+)\s*,\s*(?:y\s*)?(\d+)\s*,\s*(?:z\s*)?(\d+)\s*\)"
)


def parse(text: str, payload: ThreeDMPayload) -> ParseReport:
    lines = text.splitlines()
    hits: list[tuple[int, list]] = []
    for idx, line in enumerate(lines):
        triples = [
            (int(x), int(y), int(z)) for x, y, z in _TRIPLE.findall(line)
        ]
        if triples:
            hits.append((idx, triples))
    if not hits:
        return ParseReport(None, "no (x, y, z) triples found")
    triples = frozenset(t for _, ts in _last_run(lines, hits) for t in ts)
    return ParseReport(Matching(triples=triples))


def verify(payload: ThreeDMPayload, truth: Matching, candidate: Matching) -> Verdict:
    offered = set(payload.triples)
    ordered = sorted(candidate.triples)
    for t in ordered:
        if t not in offered:
            return _bad(f"triple not offered: {_fmt_triple(t)}")
    for axis, axis_name in ((0, "x"), (1, "y"), (2, "z")):
        used: set[int] = set()
        for t in ordered:
            if t[axis] in used:
                return _bad(f"element {axis_name}{t[axis]} used twice")
            used.add(t[axis])
    if len(candidate.triples) != payload.n:
        return _wrong(f"{len(candidate.triples)} triples, need {payload.n}")
    return _OK


def _fmt_triple(t: tuple[int, int, int]) -> str:
    return f"(x{t[0]}, y{t[1]}, z{t[2]})"


def dfs(payload: ThreeDMPayload) -> SearchTrace:
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

    return tracer.finish(KIND, SearchMode.DFS, _search(tracer, children, goal))


def greedy(payload: ThreeDMPayload) -> SearchTrace:
    """The depth-first search's own success path, narrated."""
    searched = dfs(payload)
    if searched.solution is None:
        return _no_commits(searched)
    return _narrate_path(
        searched,
        ("commit one triple per step, covering x elements in order", f"(matched=0 of {payload.n})"),
    )


def matching_witness(payload: ThreeDMPayload) -> Matching | None:
    """The matching ``dfs`` finds, or None, without building a trace.

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

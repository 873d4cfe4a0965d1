"""Answer rendering, parsing and verification.

``canonical_text`` renders a solution the way exemplar answers are written;
``parse_answer`` recovers a structured candidate from free-form model output
(tolerant, last-answer-wins); ``verify`` scores a candidate against the
instance with a named first-failed-check diagnostic.  ``evaluate`` composes
parse + verify into a single verdict.  Each task's format, parser and
verifier live in its family module (``tasks.family``); the helpers below are
the parts they share.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .tasks import (
    KindMismatchError,
    Payload,
    ProblemInstance,
    Solution,
    Verdict,
    VerdictStatus,
    family,
)


@dataclass(frozen=True)
class ParseReport:
    candidate: Solution | None
    failure_reason: str = ""


def canonical_text(payload: Payload, solution: Solution) -> str:
    if solution.kind is not payload.kind:
        raise KindMismatchError(
            f"solution kind {solution.kind.value} does not fit payload kind {payload.kind.value}"
        )
    return family(payload.kind).canonical_text(payload, solution)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_ASCII_LETTERS = frozenset(string.ascii_lowercase)


def _clean(line: str) -> str:
    return line.replace("**", "").strip()


def _match_vocab(raw: str, vocabulary: tuple[str, ...]) -> str | None:
    """Earliest, then longest, then smallest vocabulary name found inside
    ``raw`` case-insensitively with no ASCII letter glued to either side."""
    low = raw.lower()
    best: tuple[int, int, str] | None = None
    for name in vocabulary:
        needle = name.lower()
        at = low.find(needle)
        while at >= 0:
            end = at + len(needle)
            if low[at - 1 : at] not in _ASCII_LETTERS and low[end : end + 1] not in _ASCII_LETTERS:
                key = (at, -len(name), name)
                if best is None or key < best:
                    best = key
                break
            at = low.find(needle, at + 1)
    return best[2] if best else None


def _last_run(lines: list[str], hits: list[tuple]) -> list[tuple]:
    """Last answer wins: the final run of ``hits`` (each led by its line index
    into ``lines``) separated only by blank lines."""
    start = len(hits) - 1
    while start > 0 and not any(
        line.strip() for line in lines[hits[start - 1][0] + 1 : hits[start][0]]
    ):
        start -= 1
    return hits[start:]


def parse_answer(payload: Payload, text: str) -> ParseReport:
    """Extract a structured candidate for ``payload``'s task from model text.

    City, name and location tokens snap case-insensitively to the payload's
    vocabulary.  A number too long for ``int`` to read (over 4,300 digits by
    default) fails the parse.
    """
    try:
        return family(payload.kind).parse(text, payload)
    except ValueError:  # the parsers' only ValueError is int() refusing a digit run
        return ParseReport(None, "a number in the answer has too many digits to read")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _bad(reason: str) -> Verdict:
    return Verdict(status=VerdictStatus.CONSTRAINT_VIOLATION, reason=reason)


def _wrong(reason: str) -> Verdict:
    return Verdict(status=VerdictStatus.WRONG_ANSWER, reason=reason)


_OK = Verdict(status=VerdictStatus.SUCCESS)


def verify(instance: ProblemInstance, candidate: Solution) -> Verdict:
    """Score a structured candidate; Success only for a fully correct answer."""
    if candidate.kind is not instance.kind:
        raise KindMismatchError(
            f"candidate kind {candidate.kind.value} does not match "
            f"instance kind {instance.kind.value}"
        )
    return family(instance.kind).verify(instance.payload, instance.ground_truth, candidate)


def evaluate(instance: ProblemInstance, text: str) -> tuple[ParseReport, Verdict]:
    """Parse model text, then verify; ParseFailure when nothing parseable."""
    report = parse_answer(instance.payload, text)
    if report.candidate is None:
        return report, Verdict(
            status=VerdictStatus.PARSE_FAILURE, reason=report.failure_reason
        )
    return report, verify(instance, report.candidate)

"""Test-time scaling strategies: how many model calls buy one answer.

Four strategies share one interface:

* ``ws``      -- a single call, thinking disabled (the baseline).
* ``ps:<n>``  -- n independent samples at temperature 0.7; the attempt
  counts as solved if any sample verifies.
* ``ss:<r>``  -- an initial call plus up to r self-refinement rounds; each
  round replays the conversation so far and asks the model to re-check its
  answer; stops early once a round verifies.
* ``is[:<T>]`` -- a single call with the provider's internal thinking mode
  enabled (optionally with an explicit thinking-token budget T).

``execute`` runs one (instance, prompt bundle, strategy) cell through a
gateway and returns every attempt plus the final verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .answers import evaluate
from .gateway import BackendRequest, ModelGateway
from .gateway import canonical_digest  # noqa: F401 - perfbench/tracing.py wraps this name
from .prompts import PromptBundle, PromptMode, render_refine
from .tasks import ProblemInstance, TaskError, TaskKind, Verdict, VerdictStatus


class ScalingSpecError(TaskError):
    """A strategy string that does not name a known strategy."""


class ScalingKind(str, Enum):
    NO_SCALING = "ws"
    PARALLEL = "ps"
    SEQUENTIAL = "ss"
    INTERNAL = "is"


#: Sampling temperature per strategy; only parallel sampling diversifies.
TEMPERATURES = {
    ScalingKind.NO_SCALING: 0.0,
    ScalingKind.PARALLEL: 0.7,
    ScalingKind.SEQUENTIAL: 0.0,
    ScalingKind.INTERNAL: 0.0,
}

_SPEC_RE = re.compile(r"^(ws|ps|ss|is)(?::(\d+))?$")


@dataclass(frozen=True)
class ScalingStrategy:
    """One parsed strategy: the kind plus its one number ``arg``, the
    ``:N`` of the spec: samples for ``ps``, rounds for ``ss``, the thinking
    budget for ``is`` (None for no budget and for ``ws``)."""

    kind: ScalingKind
    arg: int | None = None

    @classmethod
    def parse(cls, spec: str) -> "ScalingStrategy":
        match = _SPEC_RE.match(spec.strip().lower())
        if not match:
            raise ScalingSpecError(
                f"bad strategy {spec!r}; expected ws, ps:<n>, ss:<rounds> or is[:<budget>]"
            )
        kind = ScalingKind(match.group(1))
        arg = int(match.group(2)) if match.group(2) else None
        if kind is ScalingKind.NO_SCALING and arg is not None:
            raise ScalingSpecError("ws takes no argument")
        if kind is ScalingKind.PARALLEL:
            arg = 3 if arg is None else arg
            if arg < 1:
                raise ScalingSpecError("ps needs at least one sample")
        elif kind is ScalingKind.SEQUENTIAL:
            arg = 1 if arg is None else arg
            if arg < 1:
                raise ScalingSpecError("ss needs at least one refinement round")
        # ``is:0`` sets no budget, so it is the same cell and request as ``is``.
        return cls(kind, arg or None)

    def format(self) -> str:
        return f"{self.kind.value}:{self.arg}" if self.arg else self.kind.value

    @property
    def max_calls(self) -> int:
        """How many backend calls one unit of this strategy can make."""
        if self.kind is ScalingKind.PARALLEL:
            return self.arg
        if self.kind is ScalingKind.SEQUENTIAL:
            return self.arg + 1
        return 1


@dataclass(frozen=True)
class Attempt:
    """One model call inside a strategy, as ``outcomes.jsonl`` holds it; the
    reply text stays in the response cache under ``request_digest``."""

    round_index: int
    sample_index: int
    request_digest: str
    verdict: Verdict


@dataclass(frozen=True)
class RunOutcome:
    """Everything one cell of the ablation produced for one instance; the
    cell's key is ``(task, level, model, mode, strategy)``."""

    instance_id: str
    task: TaskKind
    level: int
    model: str
    mode: PromptMode
    strategy: ScalingStrategy
    attempts: tuple[Attempt, ...]
    final: Verdict
    unexpected_error: bool = False  # ``final`` stands for an exception not a TaskError

    @property
    def success(self) -> bool:
        return self.final.status is VerdictStatus.SUCCESS


def _request(
    bundle: PromptBundle,
    model: str,
    strategy: ScalingStrategy,
    max_tokens: int,
    history: tuple[tuple[str, str], ...] = (),
    sample_index: int = 0,
) -> BackendRequest:
    internal = strategy.kind is ScalingKind.INTERNAL
    return BackendRequest(
        model=model,
        system_text=bundle.system_text,
        head=bundle.head,
        statement=bundle.statement,
        history=history,
        temperature=TEMPERATURES[strategy.kind],
        max_tokens=max_tokens,
        thinking=internal,
        thinking_budget=strategy.arg if internal else None,
        sample_index=sample_index,
    )


def execute(
    gateway: ModelGateway,
    instance: ProblemInstance,
    bundle: PromptBundle,
    strategy: ScalingStrategy,
    model: str,
    max_tokens: int = 4096,
    name: str | None = None,
    verdicts: dict[str, Verdict] | None = None,
) -> RunOutcome:
    """Run one strategy for one instance and judge every answer it produces.

    Only ``ss`` stops at its first success; the final verdict is the first
    successful attempt's, else the last attempt's.

    Requests carry the provider id ``model``; the outcome is filed under the
    table name ``name`` (default ``model``).  A ``TaskError`` on the way
    becomes a ``BackendError`` verdict that keeps the attempts made before
    it, and so does any other ``Exception``, with the reason
    ``"<Type>: <message>"`` and ``unexpected_error`` set.  Such a unit is
    unjudged, even where an earlier attempt succeeded: ``aggregate`` leaves
    it out of its cell's n.

    ``verdicts`` maps answer texts already judged against ``instance`` to
    their verdicts; ``evaluate`` runs only on a text it lacks, and adds it.
    Pass one map per instance to judge each distinct text once per run.
    """
    attempts: list[Attempt] = []
    if verdicts is None:
        verdicts = {}
    sequential = strategy.kind is ScalingKind.SEQUENTIAL
    history: tuple[tuple[str, str], ...] = ()
    unexpected_error = False
    try:
        # Call i is round i of an ss conversation, else sample i of the first turn.
        for i in range(strategy.max_calls):
            if sequential and i:  # replay the conversation and ask for a re-check
                history += (("assistant", text), ("user", render_refine(text)))
            round_index, sample_index = (i, 0) if sequential else (0, i)
            request = _request(bundle, model, strategy, max_tokens, history, sample_index)
            text = gateway.complete(request).text
            verdict = verdicts.get(text)
            if verdict is None:
                verdict = verdicts[text] = evaluate(instance, text)[1]
            attempts.append(Attempt(round_index, sample_index, request.digest, verdict))
            if sequential and verdict.status is VerdictStatus.SUCCESS:
                break
        final = next(
            (a.verdict for a in attempts if a.verdict.status is VerdictStatus.SUCCESS),
            attempts[-1].verdict,
        )
    except TaskError as err:
        final = Verdict(VerdictStatus.BACKEND_ERROR, reason=str(err))
    except Exception as err:  # a fault in the program or a backend ends this unit only
        final = Verdict(VerdictStatus.BACKEND_ERROR, reason=f"{type(err).__name__}: {err}")
        unexpected_error = True

    return RunOutcome(
        instance_id=instance.id,
        task=instance.kind,
        level=instance.level,
        model=name or model,
        mode=bundle.mode,
        strategy=strategy,
        attempts=tuple(attempts),
        final=final,
        unexpected_error=unexpected_error,
    )


def default_matrix() -> list[tuple[PromptMode, ScalingStrategy]]:
    """The full ablation grid: every prompt mode under ws, ps:3, ss:1 and is.

    Ordered row-major like the result tables (strategy rows, mode columns).
    """
    return [
        (mode, ScalingStrategy.parse(spec))
        for spec in ("ws", "ps:3", "ss:1", "is")
        for mode in (PromptMode.DIRECT, PromptMode.COT, PromptMode.AOT)
    ]

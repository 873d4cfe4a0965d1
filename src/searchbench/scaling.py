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
    """One parsed strategy: the kind plus its single numeric knob."""

    kind: ScalingKind
    n: int = 1
    rounds: int = 1
    thinking_budget: int | None = None

    @classmethod
    def parse(cls, spec: str) -> "ScalingStrategy":
        match = _SPEC_RE.match(spec.strip().lower())
        if not match:
            raise ScalingSpecError(
                f"bad strategy {spec!r}; expected ws, ps:<n>, ss:<rounds> or is[:<budget>]"
            )
        kind = ScalingKind(match.group(1))
        arg = int(match.group(2)) if match.group(2) else None
        if kind is ScalingKind.NO_SCALING:
            if arg is not None:
                raise ScalingSpecError("ws takes no argument")
            return cls(kind)
        if kind is ScalingKind.PARALLEL:
            n = arg if arg is not None else 3
            if n < 1:
                raise ScalingSpecError("ps needs at least one sample")
            return cls(kind, n=n)
        if kind is ScalingKind.SEQUENTIAL:
            rounds = arg if arg is not None else 1
            if rounds < 1:
                raise ScalingSpecError("ss needs at least one refinement round")
            return cls(kind, rounds=rounds)
        # ``is:0`` sets no budget, so it is the same cell and request as ``is``.
        return cls(kind, thinking_budget=arg or None)

    def format(self) -> str:
        if self.kind is ScalingKind.PARALLEL:
            return f"ps:{self.n}"
        if self.kind is ScalingKind.SEQUENTIAL:
            return f"ss:{self.rounds}"
        if self.kind is ScalingKind.INTERNAL and self.thinking_budget:
            return f"is:{self.thinking_budget}"
        return self.kind.value

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()

    @property
    def max_calls(self) -> int:
        """How many backend calls one unit of this strategy can make."""
        if self.kind is ScalingKind.PARALLEL:
            return self.n
        if self.kind is ScalingKind.SEQUENTIAL:
            return self.rounds + 1
        return 1

    @property
    def short_label(self) -> str:
        """Two-letter tag used in plot-data column names (WS/PS/SS/IS)."""
        return self.kind.value.upper()


@dataclass(frozen=True)
class Attempt:
    """One model call inside a strategy."""

    round_index: int
    sample_index: int
    request_digest: str
    text: str
    thinking_text: str
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
    messages: tuple[tuple[str, str], ...],
    sample_index: int = 0,
) -> BackendRequest:
    return BackendRequest(
        model=model,
        system_text=bundle.system_text,
        messages=messages,
        temperature=TEMPERATURES[strategy.kind],
        max_tokens=max_tokens,
        thinking=strategy.kind is ScalingKind.INTERNAL,
        thinking_budget=strategy.thinking_budget,
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

    Requests carry the provider id ``model``; the outcome is filed under the
    table name ``name`` (default ``model``).  A ``TaskError`` on the way
    becomes a ``BackendError`` verdict with no attempts, and so does any
    other ``Exception``, with the reason ``"<Type>: <message>"`` and
    ``unexpected_error`` set.

    ``verdicts`` maps answer texts already judged against ``instance`` to
    their verdicts; ``evaluate`` runs only on a text it lacks, and adds it.
    Pass one map per instance to judge each distinct text once per run.
    """
    attempts: list[Attempt] = []
    if verdicts is None:
        verdicts = {}

    def call(
        messages: tuple[tuple[str, str], ...], round_index: int, sample_index: int = 0
    ) -> Attempt:
        request = _request(bundle, model, strategy, max_tokens, messages, sample_index)
        response = gateway.complete(request)
        verdict = verdicts.get(response.text)
        if verdict is None:
            verdict = verdicts[response.text] = evaluate(instance, response.text)[1]
        attempt = Attempt(
            round_index=round_index,
            sample_index=sample_index,
            request_digest=request.digest,
            text=response.text,
            thinking_text=response.thinking_text,
            verdict=verdict,
        )
        attempts.append(attempt)
        return attempt

    base_messages = (("user", bundle.body),)
    unexpected_error = False
    try:
        if strategy.kind is ScalingKind.PARALLEL:
            final = None
            for i in range(strategy.n):
                attempt = call(base_messages, round_index=0, sample_index=i)
                if final is None and attempt.verdict.status is VerdictStatus.SUCCESS:
                    final = attempt.verdict
            if final is None:
                final = attempts[-1].verdict
        elif strategy.kind is ScalingKind.SEQUENTIAL:
            attempt = call(base_messages, round_index=0)
            history = list(base_messages)
            current_bundle = bundle
            while (
                attempt.verdict.status is not VerdictStatus.SUCCESS
                and attempt.round_index < strategy.rounds
            ):
                history.append(("assistant", attempt.text))
                current_bundle = render_refine(current_bundle, attempt.text)
                history.append(("user", current_bundle.body))
                attempt = call(tuple(history), round_index=current_bundle.round_index)
            final = attempt.verdict
        else:  # NO_SCALING and INTERNAL: a single call
            final = call(base_messages, round_index=0).verdict
    except TaskError as err:
        attempts.clear()
        final = Verdict(VerdictStatus.BACKEND_ERROR, reason=str(err))
    except Exception as err:  # a fault in the program or a backend ends this unit only
        attempts.clear()
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

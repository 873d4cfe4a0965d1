"""Command-line front end and pipeline orchestration.

Subcommands:

* ``gen``    -- generate problem instances to a JSONL file.
* ``solve``  -- run the exact solver over instances; write trace JSONL.
* ``render`` -- write the prompt text for each instance in one mode.
* ``run``    -- the full pipeline: generate, render, execute the scaling
  matrix against a backend, verify, aggregate, and emit reports.
* ``verify`` -- judge externally produced answer texts against instances.
* ``report`` -- re-aggregate a previous run's outcome log into reports.

``run`` is resumable: every backend call is identified by a content digest
and cached, so an interrupted run repeated with the same config replays
finished calls from the cache and only pays for the remainder.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .answers import evaluate
from .gateway import (
    DEFAULT_THINKING_BUDGET,
    DIALECTS,
    MAX_WAIT_S,
    MIN_ANTHROPIC_THINKING_BUDGET,
    GatewayError,
    HttpBackend,
    MockBackend,
    ModelGateway,
    OracleBackend,
    RateLimiter,
    ResponseCache,
    split_http_url,
)
from .generate import (
    MAX_LEVEL,
    MIN_LEVEL,
    GenSpec,
    generate,
)
from .prompts import (
    PromptBundle,
    PromptError,
    PromptMode,
    Shots,
    bundle_text,
    default_exemplars,
    estimate_tokens,
    render,
    written_search_tokens,
)
from .reporting import RunReport, aggregate, emit
from .scaling import Attempt, RunOutcome, ScalingKind, ScalingStrategy, default_matrix, execute
from .solver import SearchMode, solve, trace_to_records
from .tasks import (
    InputFileError,
    ProblemInstance,
    TaskError,
    TaskKind,
    Verdict,
    VerdictStatus,
    COUNT,
    open_output,
    output_dir,
    read_field,
    read_instances,
    read_jsonl,
    write_instances,
)


class ConfigError(TaskError):
    """A config document that cannot be turned into a valid run plan."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

DEFAULT_LEVEL = 10
DEFAULT_COUNT = 100

_BACKEND_KINDS = ("oracle", "mock", "http")


@dataclass(frozen=True)
class ModelConfig:
    name: str
    model: str
    backend: str = "http"
    url: str = ""
    dialect: str = "anthropic"
    api_key_env: str = "ANTHROPIC_API_KEY"
    timeout_s: float = 120.0
    requests_per_second: float = 0.0
    script: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    tasks: tuple[TaskKind, ...]
    levels: tuple[int, ...]
    models: tuple[ModelConfig, ...]
    matrix: tuple[tuple[PromptMode, ScalingStrategy], ...]
    instance_count: int = DEFAULT_COUNT
    seed: int = 0
    concurrency: int = 4
    cache_path: str | None = None
    out_dir: str = "out"
    max_tokens: int = 4096


def _defaults(cls) -> dict:
    """Each field of the dataclass ``cls`` mapped to its default, or to
    ``dataclasses.MISSING``; a config block accepts exactly these keys."""
    return {f.name: f.default for f in dataclasses.fields(cls)}


_MODEL_DEFAULTS = _defaults(ModelConfig)
_RUN_DEFAULTS = _defaults(RunConfig)


def _reject_unknown(doc: Mapping, allowed: Mapping, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{where}{key}: unknown key")


def _reject_duplicates(where: str, items: Sequence, field: str = "") -> None:
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{where}[{i}]{field}: duplicate {item!r}")


#: model key -> its type (see ``read_field``); ``name`` is read on its own
_MODEL_FIELDS = {"backend": str, "script": [str], "model": str, "url": str, "api_key_env": str,
                 "dialect": str, "timeout_s": float, "requests_per_second": float}

#: model key -> (rule on its value, what the rule wants)
_MODEL_RULES = {
    "backend": (lambda v: v in _BACKEND_KINDS, f"one of {_BACKEND_KINDS}"),
    "dialect": (lambda v: v in DIALECTS, f"one of {sorted(DIALECTS)}"),
    # every wait is at most MAX_WAIT_S; JSON reads 1e309 as inf
    "timeout_s": (lambda v: 0 < v <= MAX_WAIT_S, f"a number in (0, {MAX_WAIT_S:g}]"),
    "requests_per_second": (lambda v: v == 0 or v >= 1 / MAX_WAIT_S,
                            f"0 or a number >= 1/{MAX_WAIT_S:g}"),
}


def _model_config(doc: Mapping, where: str) -> ModelConfig:
    """A model block; ``model`` defaults to ``name``, every other key to its
    ``ModelConfig`` default."""
    _reject_unknown(doc, _MODEL_DEFAULTS, where)
    name = read_field(doc, "name", str, "", where=where)
    if not name:
        raise ConfigError(f"{where}name: required string")
    defaults = dict(_MODEL_DEFAULTS, model=name)
    values = {key: read_field(doc, key, want, defaults[key], where=where)
              for key, want in _MODEL_FIELDS.items()}
    for key, (ok, want) in _MODEL_RULES.items():
        if not ok(values[key]):
            raise ConfigError(f"{where}{key}: must be {want}")
    if values["backend"] == "http":
        try:
            split_http_url(values["url"])
        except GatewayError as err:
            raise ConfigError(f"{where}url: {err}") from err
    return ModelConfig(name=name, **dict(values, script=tuple(values["script"])))


#: scalar key -> its type; defaults are ``RunConfig``'s, and a key whose
#: default is None may also be null
_SCALAR_FIELDS = {"instance_count": COUNT, "seed": int, "concurrency": COUNT, "cache_path": str,
                  "out_dir": str, "max_tokens": COUNT}


def config_from_dict(doc: Mapping) -> RunConfig:
    """Validate a parsed config document; unknown keys are errors, and so
    is a value of the wrong type, named by its key path."""
    if not isinstance(doc, Mapping):
        raise ConfigError("config root: expected an object")
    try:
        return _config(doc)
    except ValueError as err:  # from ``read_field``
        raise ConfigError(str(err)) from None


def _config(doc: Mapping) -> RunConfig:
    _reject_unknown(doc, _RUN_DEFAULTS, "")
    tasks = tuple(read_field(doc, "tasks", [TaskKind], list(TaskKind)))
    if not tasks:
        raise ConfigError("tasks: must name at least one task")
    _reject_duplicates("tasks", [kind.value for kind in tasks])

    levels = tuple(read_field(doc, "levels", [int], [DEFAULT_LEVEL]))
    if not levels or not all(MIN_LEVEL <= level <= MAX_LEVEL for level in levels):
        raise ConfigError(f"levels: must be a non-empty list of integers in "
                          f"[{MIN_LEVEL}, {MAX_LEVEL}]")
    _reject_duplicates("levels", levels)

    models = tuple(_model_config(m, f"models[{i}].")
                   for i, m in enumerate(read_field(doc, "models", [dict], [])))
    if not models:
        raise ConfigError("models: must be a non-empty list of models")
    _reject_duplicates("models", [m.name for m in models], ".name")
    _reject_duplicates("models", [m.model for m in models], ".model")

    if "matrix" in doc:
        matrix = []
        for i, (mode, spec) in enumerate(read_field(doc, "matrix", [(PromptMode, str)])):
            try:
                matrix.append((mode, ScalingStrategy.parse(spec)))
            except TaskError as err:
                raise ConfigError(f"matrix[{i}]: {err}") from err
        matrix = tuple(matrix)
    else:
        matrix = tuple(default_matrix())
    if not matrix:
        raise ConfigError("matrix: must not be empty")
    # report tables and plotdata label a cell by its mode and strategy kind
    _reject_duplicates(
        "matrix", [(mode.value, s.kind.value) for mode, s in matrix], " (mode, strategy kind)"
    )
    if any(m.backend == "http" and m.dialect == "anthropic" for m in models):
        for i, (_, s) in enumerate(matrix):
            if s.kind is ScalingKind.INTERNAL and s.arg and s.arg < MIN_ANTHROPIC_THINKING_BUDGET:
                raise ConfigError(
                    f"matrix[{i}]: {s.format()} is a thinking budget below "
                    f"{MIN_ANTHROPIC_THINKING_BUDGET} tokens, which the anthropic dialect refuses"
                )

    return RunConfig(
        tasks=tasks,
        levels=levels,
        models=models,
        matrix=matrix,
        **{key: read_field(doc, key, want, _RUN_DEFAULTS[key])
           for key, want in _SCALAR_FIELDS.items()},
    )


def validate_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def generate_instances(config: RunConfig) -> list[ProblemInstance]:
    return [
        generate(GenSpec(kind=kind, level=level, seed=config.seed + i))
        for kind in config.tasks
        for level in config.levels
        for i in range(config.instance_count)
    ]


def prompt_lookup() -> Callable[[ProblemInstance, PromptMode], PromptBundle | Verdict]:
    """A lookup from (instance, mode) to its prompt or, where ``render``
    raises a PromptError, to the BackendError verdict
    its units get without a call.  Each task's exemplar set (through
    ``default_exemplars``) and each (task, mode) half is built on first
    use, once under one lock, so many threads can share it."""
    lock = threading.Lock()
    sets: dict[TaskKind, list] = {}
    halves: dict[tuple[TaskKind, PromptMode], Shots] = {}

    def prompt(instance: ProblemInstance, mode: PromptMode) -> PromptBundle | Verdict:
        kind = instance.kind
        with lock:
            if (kind, mode) not in halves:
                if kind not in sets:
                    sets[kind] = default_exemplars(kind)
                halves[kind, mode] = Shots(mode, sets[kind])
            shots = halves[kind, mode]
        try:
            return render(instance, shots)
        except PromptError as err:
            return Verdict(VerdictStatus.BACKEND_ERROR, str(err))

    return prompt


def build_backend(model: ModelConfig, instances: Sequence[ProblemInstance]):
    if model.backend == "oracle":
        return OracleBackend(instances)
    if model.backend == "mock":
        return MockBackend(model.script)
    return HttpBackend(
        url=model.url,
        dialect=model.dialect,
        api_key_env=model.api_key_env,
        timeout_s=model.timeout_s,
    )


def _outcome_record(outcome: RunOutcome) -> dict:
    return {
        "model": outcome.model,
        "instance_id": outcome.instance_id,
        "task": outcome.task.value,
        "level": outcome.level,
        "mode": outcome.mode.value,
        "strategy": outcome.strategy.format(),
        "final": {
            "status": outcome.final.status.value,
            "reason": outcome.final.reason,
        },
        "attempts": [
            {
                "round": a.round_index,
                "sample": a.sample_index,
                "digest": a.request_digest,
                "status": a.verdict.status.value,
                "reason": a.verdict.reason,
            }
            for a in outcome.attempts
        ],
    }


def _outcome_from_record(record) -> RunOutcome:
    """Inverse of ``_outcome_record``; a field of the wrong JSON type is a
    ValueError (see ``read_field``)."""
    def verdict(doc: Mapping, where: str) -> Verdict:
        return Verdict(read_field(doc, "status", VerdictStatus, where=where),
                       read_field(doc, "reason", str, "", where=where))

    attempts = read_field(record, "attempts", [dict])
    return RunOutcome(
        instance_id=read_field(record, "instance_id", str),
        task=read_field(record, "task", TaskKind),
        level=read_field(record, "level", int),
        model=read_field(record, "model", str),
        mode=read_field(record, "mode", PromptMode),
        strategy=ScalingStrategy.parse(read_field(record, "strategy", str)),
        attempts=tuple(Attempt(
            round_index=read_field(a, "round", int, where=f"attempts[{i}]."),
            sample_index=read_field(a, "sample", int, where=f"attempts[{i}]."),
            request_digest=read_field(a, "digest", str, where=f"attempts[{i}]."),
            verdict=verdict(a, f"attempts[{i}]."),
        ) for i, a in enumerate(attempts)),
        final=verdict(read_field(record, "final", dict), "final."),
    )


def read_outcomes(path: str | Path) -> list[RunOutcome]:
    """A run's outcome log; see ``read_jsonl`` for the errors it raises."""
    return read_jsonl(path, _outcome_from_record)


def run_threaded(work: Callable, items: Sequence, threads: int) -> list:
    """``[work(item) for item in items]``, on up to ``threads`` plain threads
    that each take the next (index, item) and store its result at the index.

    Once an item raises, no thread takes another; when every thread has
    stopped, the exception of the first such item in ``items`` order is
    raised.  An interrupt of the calling thread stops them the same way."""
    results: list = [None] * len(items)
    raised: dict[int, BaseException] = {}
    todo = enumerate(items)
    lock = threading.Lock()
    stop = threading.Event()

    def worker() -> None:
        while True:
            with lock:
                taken = None if stop.is_set() else next(todo, None)
            if taken is None:
                return
            index, item = taken
            try:
                results[index] = work(item)
            except BaseException as err:
                raised[index] = err
                stop.set()

    pool = [threading.Thread(target=worker) for _ in range(min(threads, len(items)))]
    for thread in pool:
        thread.start()
    try:
        for thread in pool:
            thread.join()
    except BaseException:
        stop.set()
        raise
    if raised:
        raise raised[min(raised)]
    return results


def run(config: RunConfig, echo: Callable[[str], None] = print) -> RunReport:
    """Execute the full pipeline described by ``config``."""
    started = time.time()
    stage_s: dict[str, float] = {}
    stage_start = time.perf_counter()

    def stage(name: str) -> None:
        """Record the wall seconds since the previous stage ended."""
        nonlocal stage_start
        now = time.perf_counter()
        stage_s[name] = round(now - stage_start, 3)
        stage_start = now

    out_dir = output_dir(config.out_dir)
    if config.cache_path is not None:  # a cache that cannot take a line fails before any unit runs
        open_output(config.cache_path, "a").close()
    # so does an output path that a directory or a file already holds
    open_output(out_dir / "outcomes.jsonl", "a").close()
    output_dir(out_dir / "plotdata")

    echo(f"generating {len(config.tasks)} task(s) x {len(config.levels)} level(s) "
         f"x {config.instance_count} instance(s) ...")
    instances = generate_instances(config)
    stage("generate")

    cache = ResponseCache(config.cache_path)
    gateways = {}
    for model in config.models:
        backend = build_backend(model, instances)
        gateways[model.name] = ModelGateway(
            backend,
            cache=cache,
            rate_limiter=RateLimiter(model.requests_per_second),
        )
    stage("load")

    jobs = [(model, instance) for model in config.models for instance in instances]
    # Oracle and mock answers are CPU work in this process, so worker threads
    # would overlap nothing and only hand the interpreter lock back and forth.
    pooled = any(model.backend == "http" for model in config.models)
    echo(f"executing {len(jobs) * len(config.matrix)} cell-instance unit(s) "
         + (f"with concurrency {config.concurrency} ..." if pooled
            else "on the calling thread ..."))

    prompt = prompt_lookup()

    def job(pair: tuple[ModelConfig, ProblemInstance]) -> list[RunOutcome]:
        """The matrix's units for one model on one instance, in matrix order.
        Each mode's prompt is rendered when its first unit starts, so a
        pooled run sends its first request while later prompts are still
        unrendered; evaluate is pure, so each distinct answer text is judged
        once."""
        model, instance = pair
        bundles: dict[PromptMode, PromptBundle | Verdict] = {}
        verdicts: dict[str, Verdict] = {}
        outcomes = []
        for mode, strategy in config.matrix:
            if mode not in bundles:
                bundles[mode] = prompt(instance, mode)
            bundle = bundles[mode]
            if isinstance(bundle, Verdict):  # no prompt to send: its units fail without a call
                outcomes.append(RunOutcome(
                    instance_id=instance.id, task=instance.kind, level=instance.level,
                    model=model.name, mode=mode, strategy=strategy, attempts=(), final=bundle,
                ))
            else:
                outcomes.append(execute(gateways[model.name], instance, bundle, strategy,
                                        model=model.model, max_tokens=config.max_tokens,
                                        name=model.name, verdicts=verdicts))
        return outcomes

    try:
        done = run_threaded(job, jobs, config.concurrency) if pooled else map(job, jobs)
        outcomes = [outcome for job_outcomes in done for outcome in job_outcomes]
    finally:
        for gateway in gateways.values():  # each worker thread kept a connection open
            if isinstance(gateway.backend, HttpBackend):
                gateway.backend.close()
    stage("execute")

    with open(out_dir / "outcomes.jsonl", "w", encoding="utf-8") as fh:
        for outcome in sorted(outcomes, key=lambda o: (
            o.model, o.task.value, o.level, o.mode.value, o.strategy.format(),
            o.instance_id,
        )):
            fh.write(json.dumps(_outcome_record(outcome), sort_keys=True) + "\n")

    report = aggregate(outcomes, expected_per_cell=config.instance_count)
    stage("report")

    unexpected_errors = dict.fromkeys(sorted(gateways), 0)
    for outcome in outcomes:
        unexpected_errors[outcome.model] += outcome.unexpected_error
    run_meta = {
        "version": __version__,
        "config": {
            "tasks": [k.value for k in config.tasks],
            "levels": list(config.levels),
            "instance_count": config.instance_count,
            "seed": config.seed,
            "models": [
                {"name": m.name, "backend": m.backend, "dialect": m.dialect}
                for m in config.models
            ],
            "matrix": [[mode.value, s.format()] for mode, s in config.matrix],
            "max_tokens": config.max_tokens,
        },
        "cache_stats": {name: gw.cache_stats for name, gw in sorted(gateways.items())},
        "cache_skipped_lines": cache.skipped_lines,
        "unexpected_errors": unexpected_errors,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        "duration_s": round(time.time() - started, 3),
        "stage_s": stage_s,
    }
    report = dataclasses.replace(report, run_meta=run_meta)
    paths = emit(report, out_dir)
    echo(f"report written to {paths['report']}")
    return report


def dry_run(config: RunConfig, echo: Callable[[str], None] = print) -> dict:
    """Plan what ``run`` does, with no backend call: calls and prompt tokens
    count only the prompts that render, as ``run`` sends no other, each once
    per call that can send it (a lower bound: ``ss`` rounds add the replies).

    Per (task, level), it also counts the targets whose own depth-first
    search, written as the AoT exemplar writes one (``written_search_tokens``),
    fits each answer allowance the matrix uses: ``max_tokens``, plus the
    thinking budget of an ``is`` cell."""
    instances = generate_instances(config)
    prompt = prompt_lookup()
    calls = prompt_tokens = 0
    unrenderable = []  # the reason of each prompt that cannot be rendered
    for instance in instances:
        for mode in dict.fromkeys(mode for mode, _ in config.matrix):
            bundle = prompt(instance, mode)
            if isinstance(bundle, Verdict):
                unrenderable.append(bundle.reason)
                continue
            mode_calls = len(config.models) * sum(
                s.max_calls for m, s in config.matrix if m is mode)
            calls += mode_calls
            tokens = estimate_tokens(bundle.system_text) + estimate_tokens(bundle.body)
            prompt_tokens += mode_calls * tokens

    plan = {
        "instances": len(instances),
        "models": len(config.models),
        "matrix_cells": len(config.matrix),
        "max_backend_calls": calls,
        "prompt_tokens_estimate": prompt_tokens,
    }
    allowances = sorted({
        config.max_tokens + ((s.arg or DEFAULT_THINKING_BUDGET)
                             if s.kind is ScalingKind.INTERNAL else 0)
        for _, s in config.matrix
    })
    count = config.instance_count
    for start in range(0, len(instances), count):  # one (task, level) in config order
        targets = instances[start:start + count]
        lengths = [written_search_tokens(target) for target in targets]
        plan[f"written_search_fits[{targets[0].kind.value} L{targets[0].level}]"] = "; ".join(
            f"{sum(n <= allowance for n in lengths)}/{count} within {allowance}"
            for allowance in allowances
        )
    plan["unrenderable_prompts"] = len(unrenderable)
    if unrenderable:
        plan["first_unrenderable"] = unrenderable[0]
    for key, value in plan.items():
        echo(f"{key}: {value}")
    return plan


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    kinds = list(TaskKind) if args.task == "all" else [TaskKind(args.task)]
    out = Path(args.out or "instances.jsonl")
    open_output(out).close()  # an unwritable path fails before anything is generated
    instances = [
        generate(GenSpec(kind=kind, level=args.level, seed=args.seed + i))
        for kind in kinds
        for i in range(args.count)
    ]
    count = write_instances(out, instances)
    print(f"wrote {count} instance(s) to {out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    mode = SearchMode(args.search)
    out = Path(args.out or "traces.jsonl")
    instances = read_instances(args.instances)
    with open_output(out) as fh:
        for instance in instances:
            trace = solve(instance, mode)
            record = {
                "instance_id": instance.id,
                "search": mode.value,
                "succeeded": trace.succeeded,
                "explored": trace.explored_count,
                "events": trace_to_records(trace),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(instances)} trace(s) to {out}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    mode = PromptMode(args.mode)
    instances = read_instances(args.instances)
    out_dir = Path(args.out or "prompts")
    for instance in instances:  # an id names a file, which must land in out_dir
        if (out_dir / f"{instance.id}.{mode.value}.txt").parent != out_dir:
            raise TaskError(f"instance id {instance.id!r} is not a file name in {out_dir}")
    output_dir(out_dir)  # an unwritable directory fails before anything is rendered
    prompt = prompt_lookup()
    bundles = [prompt(instance, mode) for instance in instances]
    for bundle in bundles:  # a prompt that cannot be rendered fails the command, before any file
        if isinstance(bundle, Verdict):
            raise PromptError(bundle.reason)
    for instance, bundle in zip(instances, bundles):
        path = out_dir / f"{instance.id}.{mode.value}.txt"
        path.write_text(bundle_text(bundle), encoding="utf-8")
    print(f"wrote {len(bundles)} prompt(s) to {out_dir}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = validate_config(args.config)
    overrides = {}
    if args.out:
        overrides["out_dir"] = args.out
    if args.cache:
        overrides["cache_path"] = args.cache
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if args.dry_run:
        dry_run(config)
        return 0
    run(config)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    instances = {inst.id: inst for inst in read_instances(args.instances)}
    answers = read_jsonl(args.answers, lambda record: (
        read_field(record, "instance_id", str), read_field(record, "text", str)
    ))
    failures = 0
    for instance_id, text in answers:
        instance = instances.get(instance_id)
        if instance is None:
            print(f"{instance_id}: unknown instance")
            failures += 1
            continue
        _, verdict = evaluate(instance, text)
        tail = f" ({verdict.reason})" if verdict.reason else ""
        print(f"{instance.id}: {verdict.status.value}{tail}")
        if verdict.status is not VerdictStatus.SUCCESS:
            failures += 1
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Re-emit a run's reports.  With the ``run_meta.json`` of its run beside
    the log, flag each cell short of that run's ``instance_count``, and
    write that run's metadata again rather than an empty one."""
    path = Path(args.outcomes).with_name("run_meta.json")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
        expected = read_field(read_field(meta, "config", dict), "instance_count", COUNT,
                              where="config.")
    except FileNotFoundError:
        meta, expected = {}, None
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise InputFileError(f"cannot read {path}: {err!r}") from None
    meta.pop("incomplete_cells", None)
    report = aggregate(read_outcomes(args.outcomes), expected)
    paths = emit(dataclasses.replace(report, run_meta=meta), args.out or "out")
    print(f"report written to {paths['report']}")
    return 0


def _count(text: str) -> int:
    """A count flag, which, as in a config, must be an integer >= 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file or directory")

    parser = argparse.ArgumentParser(
        prog="searchbench",
        description="Benchmark harness for search-guided prompting under "
        "test-time scaling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[out], help="generate instances")
    p_gen.add_argument(
        "--task",
        default="all",
        choices=["all"] + [k.value for k in TaskKind],
    )
    p_gen.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p_gen.add_argument("--count", type=_count, default=DEFAULT_COUNT)
    p_gen.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", parents=[out], help="trace the exact solver")
    p_solve.add_argument("--instances", required=True, help="instances JSONL")
    p_solve.add_argument(
        "--search", default=SearchMode.DFS.value,
        choices=[m.value for m in SearchMode],
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_render = sub.add_parser("render", parents=[out], help="write prompt texts")
    p_render.add_argument("--instances", required=True, help="instances JSONL")
    p_render.add_argument(
        "--mode", required=True, choices=[m.value for m in PromptMode]
    )
    p_render.set_defaults(func=_cmd_render)

    p_run = sub.add_parser("run", parents=[out], help="full pipeline")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--cache", help="response cache path (JSONL)")
    p_run.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p_run.add_argument("--dry-run", action="store_true",
                       help="render prompts and estimate cost without backend calls")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="judge answer texts")
    p_verify.add_argument("--instances", required=True, help="instances JSONL")
    p_verify.add_argument(
        "--answers", required=True,
        help='JSONL of {"instance_id": ..., "text": ...}',
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", parents=[out], help="re-emit reports")
    p_report.add_argument("--outcomes", required=True, help="outcomes JSONL")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TaskError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

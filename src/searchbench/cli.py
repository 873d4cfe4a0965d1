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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import __version__
from .answers import evaluate
from .gateway import (
    DIALECTS,
    HttpBackend,
    MockBackend,
    ModelGateway,
    OracleBackend,
    RateLimiter,
    ResponseCache,
)
from .generate import (
    MAX_LEVEL,
    MIN_LEVEL,
    GenSpec,
    generate,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    generate_all,
)
from .prompts import (
    PromptBundle,
    PromptMode,
    Shots,
    bundle_text,
    default_exemplars,
    estimate_tokens,
    render,
)
from .reporting import ReportError, RunReport, aggregate, emit
from .scaling import RunOutcome, ScalingStrategy, default_matrix, execute
from .solver import SearchMode, solve, trace_to_records
from .tasks import (
    ProblemInstance,
    TaskError,
    TaskKind,
    Verdict,
    VerdictStatus,
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
    token_budget: int | None = None


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


def _checked(doc: Mapping, key: str, default, ok: Callable[[object], bool],
             want: str, where: str = ""):
    """``doc[key]``, or ``default`` when absent; a ConfigError unless ``ok``."""
    value = doc.get(key, default)
    if not ok(value):
        raise ConfigError(f"{where}{key}: must be {want}")
    return value


def _is_int(value) -> bool:
    return type(value) is int  # not a bool, which is a subclass of int


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_list(value) -> bool:
    return isinstance(value, list)


def _reject_duplicates(where: str, items: Sequence, field: str = "") -> None:
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{where}[{i}]{field}: duplicate {item!r}")


#: model key -> (check, what the check wants); ``name`` is checked on its own
_MODEL_CHECKS = {
    "backend": (lambda v: v in _BACKEND_KINDS, f"one of {_BACKEND_KINDS}"),
    # the default is the tuple the field holds; JSON gives lists
    "script": (lambda v: isinstance(v, (list, tuple)) and all(_is_str(s) for s in v),
               "a list of strings"),
    "model": (_is_str, "a string"),
    "url": (_is_str, "a string"),
    "api_key_env": (_is_str, "a string"),
    # a str first: ``in`` raises TypeError on an unhashable value
    "dialect": (lambda v: _is_str(v) and v in DIALECTS, f"one of {sorted(DIALECTS)}"),
    "timeout_s": (lambda v: _is_number(v) and v > 0, "a number > 0"),
    "requests_per_second": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
}


def _model_config(doc: Mapping, where: str) -> ModelConfig:
    """A model block; ``model`` defaults to ``name``, every other key to its
    ``ModelConfig`` default."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{where}: expected an object")
    _reject_unknown(doc, _MODEL_DEFAULTS, where + ".")
    name = doc.get("name")
    if not name or not isinstance(name, str):
        raise ConfigError(f"{where}.name: required string")
    defaults = dict(_MODEL_DEFAULTS, model=name)
    values = {key: _checked(doc, key, defaults[key], *check, where + ".")
              for key, check in _MODEL_CHECKS.items()}
    url = values["url"].lower()
    if values["backend"] == "http" and not url.startswith(("http://", "https://")):
        raise ConfigError(f"{where}.url: an http:// or https:// URL is required for http backends")
    values.update(
        timeout_s=float(values["timeout_s"]),
        requests_per_second=float(values["requests_per_second"]),
        script=tuple(values["script"]),
    )
    return ModelConfig(name=name, **values)


#: scalar key -> (check, what the check wants); defaults are ``RunConfig``'s
_SCALAR_KEYS = {
    "instance_count": (_is_count, "an integer >= 1"),
    "seed": (_is_int, "an integer"),
    "concurrency": (_is_count, "an integer >= 1"),
    "cache_path": (lambda v: v is None or _is_str(v), "a string or null"),
    "out_dir": (_is_str, "a string"),
    "max_tokens": (_is_count, "an integer >= 1"),
    "token_budget": (lambda v: v is None or _is_count(v), "an integer >= 1 or null"),
}


def config_from_dict(doc: Mapping) -> RunConfig:
    """Validate a parsed config document; unknown keys are errors."""
    if not isinstance(doc, Mapping):
        raise ConfigError("config root: expected an object")
    _reject_unknown(doc, _RUN_DEFAULTS, "")

    tasks_doc = _checked(doc, "tasks", [k.value for k in TaskKind], _is_list, "a list")
    try:
        tasks = tuple(TaskKind(t) for t in tasks_doc)
    except ValueError as err:
        raise ConfigError(f"tasks: {err}") from err
    if not tasks:
        raise ConfigError("tasks: must name at least one task")
    _reject_duplicates("tasks", tasks_doc)

    levels = tuple(_checked(
        doc, "levels", [DEFAULT_LEVEL],
        lambda v: _is_list(v) and v
        and all(_is_int(l) and MIN_LEVEL <= l <= MAX_LEVEL for l in v),
        f"a non-empty list of integers in [{MIN_LEVEL}, {MAX_LEVEL}]",
    ))
    _reject_duplicates("levels", levels)

    models = tuple(
        _model_config(m, f"models[{i}]")
        for i, m in enumerate(_checked(
            doc, "models", None, lambda v: _is_list(v) and v, "a non-empty list of models"
        ))
    )
    _reject_duplicates("models", [m.name for m in models], ".name")
    _reject_duplicates("models", [m.model for m in models], ".model")

    if "matrix" in doc:
        matrix = []
        for i, pair in enumerate(_checked(doc, "matrix", None, _is_list, "a list")):
            try:
                mode_name, strategy_spec = pair
                if not isinstance(strategy_spec, str):
                    raise TypeError(f"strategy {strategy_spec!r} is not a string")
                matrix.append(
                    (PromptMode(mode_name), ScalingStrategy.parse(strategy_spec))
                )
            except (TypeError, ValueError, TaskError) as err:
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

    return RunConfig(
        tasks=tasks,
        levels=levels,
        models=models,
        matrix=matrix,
        **{key: _checked(doc, key, _RUN_DEFAULTS[key], *check)
           for key, check in _SCALAR_KEYS.items()},
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
    return generate_all([
        GenSpec(kind=kind, level=level, seed=config.seed + i)
        for kind in config.tasks
        for level in config.levels
        for i in range(config.instance_count)
    ])


def render_bundles(
    instances: Iterable[ProblemInstance],
    modes: Iterable[PromptMode],
    token_budget: int | None,
) -> dict[tuple[str, PromptMode], PromptBundle]:
    """Render every (instance, mode) prompt, in ``modes`` order within each
    instance, building each (task, mode) exemplar half once; bundles are
    keyed by (instance id, mode)."""
    modes = tuple(modes)
    shots: dict[tuple[TaskKind, PromptMode], Shots] = {}
    bundles = {}
    for instance in instances:
        for mode in modes:
            key = (instance.kind, mode)
            if key not in shots:
                shots[key] = Shots(mode, default_exemplars(instance.kind, mode))
            bundles[(instance.id, mode)] = render(
                instance, mode, shots[key], token_budget=token_budget
            )
    return bundles


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
    """Inverse of ``_outcome_record`` without the attempts; a ReportError
    names the key that is missing or holds an unknown value."""

    def get(key: str, convert: Callable, doc=record):
        try:
            return convert(doc[key])
        except (TypeError, ValueError, TaskError) as err:
            raise ReportError(f"{key}: {err}") from None

    final = get("final", dict)
    return RunOutcome(
        instance_id=get("instance_id", str),
        task=get("task", TaskKind),
        level=get("level", int),
        model=get("model", str),
        mode=get("mode", PromptMode),
        strategy=get("strategy", lambda v: ScalingStrategy.parse(str(v))),
        attempts=(),
        final=Verdict(get("status", VerdictStatus, final), final.get("reason", "")),
    )


def read_outcomes(path: str | Path) -> list[RunOutcome]:
    """A run's outcome log; see ``read_jsonl`` for the errors it raises."""
    return read_jsonl(path, _outcome_from_record)


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

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    echo(f"generating {len(config.tasks)} task(s) x {len(config.levels)} level(s) "
         f"x {config.instance_count} instance(s) ...")
    # Generation forks a pool worker for each usable CPU, and fork copies
    # only the calling thread, so it runs before any worker thread exists: a
    # lock held by another thread at the fork would stay held in the child.
    instances = generate_instances(config)
    stage("generate")

    bundles = render_bundles(
        instances, dict.fromkeys(mode for mode, _ in config.matrix), config.token_budget
    )
    stage("render")

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

    units = [
        (model, instance, mode, strategy)
        for model in config.models
        for instance in instances
        for mode, strategy in config.matrix
    ]
    # Oracle and mock answers are CPU work in this process, so worker threads
    # would overlap nothing and only hand the interpreter lock back and forth.
    pooled = any(model.backend == "http" for model in config.models)
    echo(f"executing {len(units)} cell-instance unit(s) "
         + (f"with concurrency {config.concurrency} ..." if pooled
            else "on the calling thread ..."))

    # evaluate is pure, so each instance's distinct answer texts are judged
    # once; pooled workers share a map, and a race only judges a text twice
    verdicts: dict[str, dict[str, Verdict]] = {instance.id: {} for instance in instances}

    def work(unit) -> RunOutcome:
        model, instance, mode, strategy = unit
        return execute(
            gateways[model.name],
            instance,
            bundles[(instance.id, mode)],
            strategy,
            model=model.model,
            max_tokens=config.max_tokens,
            name=model.name,
            verdicts=verdicts[instance.id],
        )

    if pooled:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            outcomes = list(pool.map(work, units))
        for gateway in gateways.values():  # each pool thread kept a connection open
            if isinstance(gateway.backend, HttpBackend):
                gateway.backend.close()
    else:
        outcomes = [work(unit) for unit in units]
    stage("execute")

    with open(out_dir / "outcomes.jsonl", "w", encoding="utf-8") as fh:
        for outcome in sorted(outcomes, key=lambda o: (
            o.model, o.task.value, o.level, o.mode.value, o.strategy.format(),
            o.instance_id,
        )):
            fh.write(json.dumps(_outcome_record(outcome), sort_keys=True) + "\n")

    report = aggregate(outcomes, expected_per_cell=config.instance_count)
    stage("report")

    cache_stats = {
        name: gw.cache_stats for name, gw in sorted(gateways.items())
    }
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
            "token_budget": config.token_budget,
        },
        "cache_stats": cache_stats,
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
    """Render everything and estimate cost without touching any backend."""
    instances = generate_instances(config)
    bundles = render_bundles(
        instances, dict.fromkeys(mode for mode, _ in config.matrix), config.token_budget
    )
    prompt_tokens = sum(
        estimate_tokens(bundle.system_text) + estimate_tokens(bundle.body)
        for bundle in bundles.values()
    )

    calls = sum(
        strategy.max_calls for _, strategy in config.matrix
    ) * len(instances) * len(config.models)

    plan = {
        "instances": len(instances),
        "models": len(config.models),
        "matrix_cells": len(config.matrix),
        "max_backend_calls": calls,
        "prompt_tokens_estimate": prompt_tokens,
    }
    for key, value in plan.items():
        echo(f"{key}: {value}")
    return plan


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    kinds = list(TaskKind) if args.task == "all" else [TaskKind(args.task)]
    base_seed = args.seed if args.seed is not None else 0
    instances = generate_all([
        GenSpec(kind=kind, level=args.level, seed=base_seed + i)
        for kind in kinds
        for i in range(args.count)
    ])
    out = Path(args.out or "instances.jsonl")
    count = write_instances(out, instances)
    print(f"wrote {count} instance(s) to {out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    mode = SearchMode(args.search)
    out = Path(args.out or "traces.jsonl")
    instances = read_instances(args.instances)
    with open(out, "w", encoding="utf-8") as fh:
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
    bundles = render_bundles(read_instances(args.instances), [mode], args.budget)
    out_dir = Path(args.out or "prompts")
    out_dir.mkdir(parents=True, exist_ok=True)
    for (instance_id, _), bundle in bundles.items():
        path = out_dir / f"{instance_id}.{mode.value}.txt"
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
    answers = read_jsonl(args.answers, lambda r: (str(r["instance_id"]), str(r["text"])))
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
    paths = emit(aggregate(read_outcomes(args.outcomes)), args.out or "out")
    print(f"report written to {paths['report']}")
    return 0


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
    p_gen.add_argument("--count", type=int, default=DEFAULT_COUNT)
    p_gen.add_argument("--seed", type=int, default=None, help="base RNG seed")
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
    p_render.add_argument("--budget", type=int, default=None,
                          help="context token budget")
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

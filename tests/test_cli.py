import csv
import dataclasses
import gc
import hashlib
import json
import os
import runpy
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from searchbench import __version__, cli, prompts, scaling
from searchbench.answers import canonical_text
from searchbench.gateway import HttpBackend, MockBackend, ModelGateway, ResponseCache
from searchbench.generate import GenSpec, generate
from searchbench.prompts import PromptMode
from searchbench.solver import SearchMode
from searchbench.cli import (
    ConfigError,
    ModelConfig,
    config_from_dict,
    dry_run,
    generate_instances,
    main,
    prompt_lookup,
    run,
    validate_config,
)
from searchbench.meeting import Friend, Meeting, MeetingPayload, MeetingSchedule
from searchbench.tasks import (
    ProblemInstance,
    TaskKind,
    family,
    instance_to_record,
    read_instances,
    write_instances,
)

from conftest import fail_seeds

QUIET = lambda s: None
ORACLE = {"name": "m", "backend": "oracle"}


def _doc(tmp_path, **over):
    doc = {
        "tasks": ["TripPlanning"],
        "levels": [3],
        "instance_count": 2,
        "seed": 0,
        "models": [{"name": "m-oracle", "backend": "oracle"}],
        "matrix": [["Direct", "ws"], ["CoT", "ps:2"], ["AoT", "ss:1"], ["CoT", "is"]],
        "out_dir": str(tmp_path / "out"),
        "cache_path": str(tmp_path / "cache.jsonl"),
        "concurrency": 2,
    }
    doc.update(over)
    return doc


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_defaults():
    config = config_from_dict({"models": [{"name": "m", "backend": "oracle"}]})
    assert config.tasks == tuple(TaskKind)
    assert config.levels == (10,)
    assert config.instance_count == 100
    assert config.seed == 0
    assert config.concurrency == 4
    assert config.max_tokens == 4096
    assert len(config.matrix) == 12
    assert config.matrix[3][1].format() == "ps:3"
    assert config.matrix[6][1].format() == "ss:1"
    (model,) = config.models
    assert (model.name, model.model, model.backend) == ("m", "m", "oracle")
    for field in dataclasses.fields(ModelConfig):
        if field.name not in ("name", "model", "backend"):
            assert getattr(model, field.name) == field.default, field.name


def test_a_model_block_takes_exactly_the_model_config_fields():
    (model,) = config_from_dict({"models": [ORACLE]}).models
    full = {f.name: getattr(model, f.name) for f in dataclasses.fields(ModelConfig)}
    full["script"] = ["x"]
    assert config_from_dict({"models": [full]}).models == (
        dataclasses.replace(model, script=("x",)),
    )
    with pytest.raises(ConfigError, match=r"^models\[0\]\.pulse: unknown key"):
        config_from_dict({"models": [{**full, "pulse": 1}]})


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"models": [{"name": "m", "backend": "oracle"}], "typo_key": 1}, "typo_key"),
        ({"models": [{"name": "m", "backend": "oracle", "pulse": 2}]}, "models[0].pulse"),
        ({"models": [{"backend": "oracle"}]}, "models[0].name"),
        ({"models": [{"name": "m", "backend": "carrier-pigeon"}]}, "models[0].backend"),
        ({"models": [{"name": "m", "backend": "http"}]}, "models[0].url"),
        ({"models": []}, "models"),
        ({"models": [{"name": "m", "backend": "oracle"}], "tasks": []}, "tasks"),
        ({"models": [{"name": "m", "backend": "oracle"}], "tasks": ["SudokuHard"]}, "tasks"),
        ({"models": [{"name": "m", "backend": "oracle"}], "levels": [0]}, "levels"),
        ({"models": [{"name": "m", "backend": "oracle"}], "instance_count": 0}, "instance_count"),
        ({"models": [{"name": "m", "backend": "oracle"}], "concurrency": 0}, "concurrency"),
        ({"models": [{"name": "m", "backend": "oracle"}], "thinking_budget": -5}, "thinking_budget"),
        ({"models": [{"name": "m", "backend": "oracle"}],
          "matrix": [["CoT", "ws"], ["CoT", "qq:9"]]}, "matrix[1]"),
        ({"models": [{"name": "m", "backend": "oracle"}], "matrix": []}, "matrix"),
        # the default grid is set by ``matrix`` alone
        ({"models": [ORACLE], "parallel_n": 3}, "parallel_n: unknown key"),
        ({"models": [ORACLE], "refine_rounds": 1}, "refine_rounds: unknown key"),
        ({"models": [ORACLE], "matrix": [["AoT", "ps:0"]]}, "matrix[0]"),
        ({"models": [ORACLE], "matrix": [["AoT", "ss:0"]]}, "matrix[0]"),
        # malformed values
        ({"models": [ORACLE], "seed": "x"}, "seed"),
        ({"models": [ORACLE], "out_dir": 5}, "out_dir"),
        ({"models": [ORACLE], "cache_path": 5}, "cache_path"),
        # prompts are never cut to a length, so no key caps it
        ({"models": [ORACLE], "token_budget": 900}, "token_budget"),
        ({"models": [ORACLE], "token_budget": None}, "token_budget"),
        ({"models": [ORACLE], "max_tokens": -1}, "max_tokens"),
        ({"models": [ORACLE], "levels": 5}, "levels"),
        ({"models": [ORACLE], "levels": [11]}, "levels"),
        ({"models": [ORACLE], "levels": [True]}, "levels"),
        ({"models": [ORACLE], "tasks": 5}, "tasks"),
        ({"models": 5}, "models"),
        ({"models": [ORACLE], "matrix": 5}, "matrix"),
        ({"models": [ORACLE], "matrix": [5]}, "matrix[0]"),
        ({"models": [ORACLE], "instance_count": True}, "instance_count"),
        ({"models": [ORACLE], "concurrency": True}, "concurrency"),
        ({"models": [{**ORACLE, "timeout_s": "x"}]}, "models[0].timeout_s"),
        ({"models": [{**ORACLE, "timeout_s": 0}]}, "models[0].timeout_s"),
        ({"models": [{**ORACLE, "requests_per_second": -1}]},
         "models[0].requests_per_second"),
        ({"models": [{**ORACLE, "script": "abc"}]}, "models[0].script"),
        # duplicates, which would collide in the outcome log or the cache
        ({"models": [ORACLE], "tasks": ["ThreeDM", "ThreeDM"]}, "tasks[1]"),
        ({"models": [ORACLE], "levels": [3, 4, 3]}, "levels[2]"),
        ({"models": [ORACLE], "matrix": [["AoT", "is"], ["AoT", "is:0"]]}, "matrix[1]"),
        ({"models": [ORACLE, {**ORACLE, "model": "other"}]}, "models[1].name"),
        ({"models": [ORACLE, {**ORACLE, "name": "n", "model": "m"}]}, "models[1].model"),
        # the other keys of a model block are typed as well
        ({"models": [{**ORACLE, "dialect": "foo"}]}, "models[0].dialect"),
        ({"models": [{**ORACLE, "dialect": ["openai"]}]}, "models[0].dialect"),
        ({"models": [{**ORACLE, "model": 5}]}, "models[0].model"),
        ({"models": [{"name": "m", "backend": "http", "url": 5}]}, "models[0].url"),
        ({"models": [{**ORACLE, "api_key_env": None}]}, "models[0].api_key_env"),
        # two strategies of one kind under one mode would share a report row
        ({"models": [ORACLE],
          "matrix": [["CoT", "ps:2"], ["CoT", "ps:3"], ["AoT", "is"], ["AoT", "is:64"]]},
         "matrix[1]"),
        # an http backend speaks http:// or https:// only
        ({"models": [{"name": "m", "backend": "http", "url": "localhost:8080/v1"}]},
         "models[0].url"),
        # valid JSON that parses to inf, which no socket timeout takes
        ({"models": [{**ORACLE, "timeout_s": json.loads("1e309")}]}, "models[0].timeout_s"),
        # a URL needs a host and a port that can be read
        ({"models": [{"name": "m", "backend": "http", "url": "http:///v1"}]}, "models[0].url"),
        ({"models": [{"name": "m", "backend": "http", "url": "http://h:abc/v1"}]},
         "models[0].url"),
        ({"models": [{"name": "m", "backend": "http", "url": "http://h:99999/v1"}]},
         "models[0].url"),
        ({"models": [{"name": "m", "backend": "http", "url": "http://[::1/v1"}]},
         "models[0].url"),
        # waits longer than a day: a socket timeout and rate-limit spacing
        ({"models": [{**ORACLE, "timeout_s": 1e10}]}, "models[0].timeout_s"),
        ({"models": [{**ORACLE, "requests_per_second": 1e-320}]},
         "models[0].requests_per_second"),
        ({"models": [{**ORACLE, "requests_per_second": 1e-300}]},
         "models[0].requests_per_second"),
        # JSON integers too large for a float
        ({"models": [{**ORACLE, "timeout_s": 10**400}]}, "models[0].timeout_s"),
        ({"models": [{**ORACLE, "requests_per_second": 10**400}]},
         "models[0].requests_per_second"),
        # anthropic's extended thinking takes a budget of 1024 tokens or more
        ({"models": [{"name": "m", "backend": "http", "url": "http://h:80/v1"}],
          "matrix": [["AoT", "ws"], ["AoT", "is:512"]]}, "matrix[1]"),
    ],
)
def test_config_rejects_bad_documents(doc, fragment):
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "doc, message",
    [
        (["not", "an", "object"], "config root: expected an object"),
        ({"models": ["oracle"]}, "models[0]: must be an object, not 'oracle'"),
        ({"models": [ORACLE], "matrix": [["CoT", 3]]}, "matrix[0][1]: must be a string, not 3"),
    ],
)
def test_config_rejects_documents_of_the_wrong_shape(doc, message):
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "doc, prefix",
    [
        ({"models": [ORACLE], "levels": 5}, "error: levels:"),
        ({"models": [ORACLE], "timeout_s": 1}, "error: timeout_s: unknown key"),
        ({"models": [{**ORACLE, "timeout_s": "x"}]}, "error: models[0].timeout_s:"),
        ({"models": [{**ORACLE, "dialect": "foo"}]}, "error: models[0].dialect:"),
        # prompts are never cut to a length, so no key caps it
        ({"models": [ORACLE], "token_budget": 2000}, "error: token_budget: unknown key\n"),
    ],
)
def test_run_with_bad_config_exits_2(tmp_path, capsys, doc, prefix):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
@pytest.mark.parametrize("model, key", [
    ({"name": "m", "backend": "http", "url": "http://127.0.0.1:abc/v1"}, "url"),
    ({"name": "m", "backend": "http", "url": "http://[::1/v1"}, "url"),
    ({**ORACLE, "timeout_s": 1e10}, "timeout_s"),
    ({**ORACLE, "requests_per_second": 1e-320}, "requests_per_second"),
    ({**ORACLE, "requests_per_second": 10**400}, "requests_per_second"),
])
def test_a_model_no_run_can_use_exits_2_before_generation(
    tmp_path, monkeypatch, capsys, dry_run, model, key
):
    def generate_nothing(config):
        raise AssertionError("generated for a config the validator should refuse")

    monkeypatch.setattr(cli, "generate_instances", generate_nothing)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_doc(tmp_path, models=[model])), encoding="utf-8")
    assert main(["run", "--config", str(path), *dry_run]) == 2
    assert capsys.readouterr().err.startswith(f"error: models[0].{key}: ")


def test_an_is_budget_anthropic_refuses_exits_2_only_beside_an_anthropic_http_model(
    tmp_path, capsys
):
    """Anthropic's extended thinking takes ``budget_tokens`` >= 1024; no
    other backend or dialect has that floor, and ``is:0`` sets no budget."""
    http = {"name": "m", "backend": "http", "url": "http://127.0.0.1:9/v1"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_doc(tmp_path, models=[ORACLE, {**http, "name": "h"}],
                                    matrix=[["CoT", "ws"], ["AoT", "is:512"]])),
                    encoding="utf-8")
    assert main(["run", "--config", str(path), "--dry-run"]) == 2
    assert capsys.readouterr().err == (
        "error: matrix[1]: is:512 is a thinking budget below 1024 tokens, "
        "which the anthropic dialect refuses\n"
    )
    for models, spec in [([http], "is:1024"), ([http], "is:0"), ([http], "is"),
                         ([{**http, "dialect": "openai"}], "is:512"), ([ORACLE], "is:512")]:
        config_from_dict({"models": models, "matrix": [["AoT", spec]]})


def test_run_exits_2_naming_a_proxy_it_cannot_reach(tmp_path, monkeypatch, capsys):
    """A proxy comes from the environment, so it is judged when the backend
    is built, after generation; a port it cannot read is a TaskError."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("http_proxy", "http://proxy:bad")
    model = {"name": "m", "backend": "http", "url": "http://provider.test/v1"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_doc(tmp_path, models=[model])), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: http proxy 'http://proxy:bad' ")


def test_validate_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        validate_config(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        validate_config(broken)
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps({"models": [{"name": "m", "backend": "oracle"}]}), encoding="utf-8"
    )
    assert validate_config(good).models[0].name == "m"


# ---------------------------------------------------------------------------
# The pipeline against the oracle
# ---------------------------------------------------------------------------


def test_run_oracle_end_to_end(tmp_path):
    config = config_from_dict(_doc(tmp_path))
    report = run(config, echo=QUIET)

    assert len(report.cells) == 4
    assert all(c.successes == c.total == 2 for c in report.cells)
    assert report.incomplete == ()

    out = tmp_path / "out"
    for name in ("report.md", "cells.csv", "outcomes.jsonl", "run_meta.json"):
        assert (out / name).exists()
    assert (out / "plotdata" / "TripPlanning.csv").exists()

    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    assert "level" not in meta and meta["config"]["levels"] == [3]
    assert meta["config"]["instance_count"] == 2
    assert "m-oracle" in meta["cache_stats"]
    assert meta["cache_stats"]["m-oracle"]["misses"] > 0
    assert "started_at" in meta and "duration_s" in meta
    stages = meta["stage_s"]
    assert list(stages) == ["execute", "generate", "load", "report"]
    assert all(type(v) is float and v >= 0 and round(v, 3) == v for v in stages.values())

    lines = (out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8  # 2 instances x 4 matrix pairs
    records = [json.loads(l) for l in lines]
    assert all(r["final"]["status"] == "Success" for r in records)
    assert lines == sorted(lines) or records == sorted(
        records, key=lambda r: (r["task"], r["mode"], r["strategy"], r["instance_id"])
    )


def test_run_replays_from_cache_bit_identically(tmp_path):
    first = config_from_dict(_doc(tmp_path, out_dir=str(tmp_path / "one")))
    run(first, echo=QUIET)
    second = config_from_dict(_doc(tmp_path, out_dir=str(tmp_path / "two")))
    run(second, echo=QUIET)

    for name in ("report.md", "cells.csv", "outcomes.jsonl", "plotdata/TripPlanning.csv"):
        a = (tmp_path / "one" / name).read_text(encoding="utf-8")
        b = (tmp_path / "two" / name).read_text(encoding="utf-8")
        assert a == b, name

    meta = json.loads((tmp_path / "two" / "run_meta.json").read_text(encoding="utf-8"))
    stats = meta["cache_stats"]["m-oracle"]
    assert stats["misses"] == 0 and stats["hits"] > 0


def _unreachable_http_doc(tmp_path, monkeypatch):
    monkeypatch.delenv("NO_SUCH_KEY_EVER", raising=False)
    return _doc(
        tmp_path,
        models=[
            {
                "name": "m-broken",
                "backend": "http",
                "url": "http://127.0.0.1:1/v1/messages",
                "api_key_env": "NO_SUCH_KEY_EVER",
            }
        ],
    )


def _records(tmp_path) -> list[dict]:
    lines = (tmp_path / "out" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def test_run_isolates_backend_failures(tmp_path, monkeypatch):
    """A unit whose call fails is unjudged: its cell's n leaves it out, and
    the incomplete list counts it."""
    report = run(config_from_dict(_unreachable_http_doc(tmp_path, monkeypatch)), echo=QUIET)
    assert all(c.successes == 0 and c.total == 0 for c in report.cells)
    assert len(report.incomplete) == len(report.cells)
    assert all(note.endswith(": 2 of 2 unjudged (BackendError), left out of n; a re-run with "
                             "the same cache re-asks only the calls that failed")
               for note in report.incomplete)
    records = [
        json.loads(l)
        for l in (tmp_path / "out" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert all(r["final"]["status"] == "BackendError" for r in records)
    assert all("NO_SUCH_KEY_EVER" in r["final"]["reason"] for r in records)
    # a cell that judged nothing has no rate, so no table or plot reads it as 0%
    out = tmp_path / "out"
    assert all(c.rate is None for c in report.cells)
    cells = (out / "cells.csv").read_text(encoding="utf-8").splitlines()
    assert len(cells) == 1 + len(report.cells) and all(row.endswith(",0,0,") for row in cells[1:])
    plot_rows = [row for f in (out / "plotdata").iterdir()
                 for row in f.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(plot_rows) == len(report.cells) and all(row.endswith(",") for row in plot_rows)
    text = (out / "report.md").read_text(encoding="utf-8")
    assert text.count("0/0 = n/a") == len(report.cells) and "%" not in text
    assert main(["report", "--outcomes", str(out / "outcomes.jsonl"), "--out",
                 str(tmp_path / "again")]) == 0
    for name in ["report.md", "cells.csv", *(f"plotdata/{f.name}" for f in (out / "plotdata").iterdir())]:
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()


def test_run_turns_an_unexpected_exception_into_one_verdict(tmp_path, monkeypatch):
    calls = []

    def script(request):
        calls.append(request)
        if len(calls) == 30:
            raise KeyError("boom")
        return "no answer here"

    monkeypatch.setattr(cli, "build_backend", lambda model, instances: MockBackend(script))
    doc = _doc(tmp_path, tasks=["ThreeDM"], instance_count=5,
               models=[{"name": "m-mock", "backend": "mock"}])
    doc.pop("matrix")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 0

    records = _records(tmp_path)
    assert len(records) == 60
    errors = [r for r in records if r["final"]["status"] == "BackendError"]
    assert [r["final"]["reason"] for r in errors] == ["KeyError: 'boom'"]
    # the fault met the third sample of a ps:3 unit, which keeps the two before it
    assert errors[0]["strategy"] == "ps:3"
    assert [(a["sample"], a["status"]) for a in errors[0]["attempts"]] == [
        (0, "ParseFailure"), (1, "ParseFailure")
    ]
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
    assert meta["unexpected_errors"] == {"m-mock": 1}
    cache_lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(cache_lines) == len(calls) - 1


def test_run_meta_counts_no_unexpected_error_for_a_failing_backend(tmp_path, monkeypatch):
    run(config_from_dict(_unreachable_http_doc(tmp_path, monkeypatch)), echo=QUIET)
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
    assert meta["unexpected_errors"] == {"m-broken": 0}


def _record_execute_threads(monkeypatch) -> list[int]:
    threads = []
    execute = cli.execute

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return execute(*args, **kwargs)

    monkeypatch.setattr(cli, "execute", recording)
    return threads


@pytest.mark.parametrize("models", [
    [{"name": "m-oracle", "backend": "oracle"}],
    [{"name": "m-mock", "backend": "mock"}, {"name": "m-oracle", "backend": "oracle"}],
])
def test_in_process_models_execute_on_the_calling_thread(tmp_path, monkeypatch, models):
    threads = _record_execute_threads(monkeypatch)
    said = []
    run(config_from_dict(_doc(tmp_path, models=models, concurrency=4)), echo=said.append)
    assert threads == [threading.get_ident()] * (8 * len(models))
    assert said[1].endswith("unit(s) on the calling thread ...")


def test_http_models_execute_on_the_worker_pool(tmp_path, monkeypatch):
    threads = _record_execute_threads(monkeypatch)
    config = config_from_dict(_unreachable_http_doc(tmp_path, monkeypatch))
    said = []
    run(config, echo=said.append)
    assert len(threads) == 8
    assert threading.get_ident() not in threads
    assert len(set(threads)) <= config.concurrency == 2
    assert said[1].endswith("unit(s) with concurrency 2 ...")


def test_pooled_runs_write_pinned_outcome_bytes(tmp_path, monkeypatch):
    """An unreachable ``http`` model puts the run on the worker pool, so the
    oracle's jobs run on worker threads too."""
    doc = _unreachable_http_doc(tmp_path, monkeypatch)
    doc["models"].append({"name": "m-oracle", "backend": "oracle"})
    doc["tasks"] = ["TripPlanning", "VertexCover"]
    run(config_from_dict(doc), echo=QUIET)
    outcomes = (tmp_path / "out" / "outcomes.jsonl").read_bytes()
    assert hashlib.sha256(outcomes).hexdigest() == (
        "1ff54efee46e682126ca7328f9cd2d3f1eae370d7f91f88800fc1630544a20f1"
    )


def test_a_pooled_run_sends_its_first_request_before_its_last_render(tmp_path, monkeypatch):
    """Each job renders a mode's prompt when that mode's first unit needs
    it, so requests start while later prompts are still unrendered."""
    events = []
    render, complete = cli.render, ModelGateway.complete

    def rendering(*args, **kwargs):
        events.append("render")
        return render(*args, **kwargs)

    def completing(self, request):
        events.append("complete")
        return complete(self, request)

    monkeypatch.setattr(cli, "render", rendering)
    monkeypatch.setattr(ModelGateway, "complete", completing)
    doc = _unreachable_http_doc(tmp_path, monkeypatch)
    doc["tasks"] = [k.value for k in TaskKind]
    run(config_from_dict(doc), echo=QUIET)
    assert events.count("render") == 4 * 2 * 3  # 3 distinct modes in the matrix
    last_render = len(events) - 1 - events[::-1].index("render")
    assert events.index("complete") < last_render


def test_threads_build_each_exemplar_half_and_prompt_once(tmp_path, monkeypatch):
    """Eight workers switching every microsecond still reach
    ``default_exemplars`` once per task and ``render`` once per
    (instance, mode), the names the benchmark's tracer wraps."""
    exemplar_calls, render_calls = [], []
    default_exemplars, render = cli.default_exemplars, cli.render

    def counted_exemplars(kind):
        exemplar_calls.append(kind)
        return default_exemplars(kind)

    def counted_render(instance, shots, *args, **kwargs):
        render_calls.append((instance.id, shots.mode))
        return render(instance, shots, *args, **kwargs)

    monkeypatch.setattr(cli, "default_exemplars", counted_exemplars)
    monkeypatch.setattr(cli, "render", counted_render)
    doc = _unreachable_http_doc(tmp_path, monkeypatch)
    doc.update(tasks=[k.value for k in TaskKind], instance_count=3, concurrency=8)
    del doc["matrix"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run(config_from_dict(doc), echo=QUIET)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(exemplar_calls) == sorted(TaskKind)
    assert len(render_calls) == len(set(render_calls)) == 4 * 3 * len(PromptMode)
    assert len(_records(tmp_path)) == 4 * 3 * 12


def test_one_exemplar_set_per_task_serves_its_three_halves(monkeypatch):
    """All 12 (task, mode) prompts of one target per task from one lookup
    generate the 20 exemplar instances once and trace them 24 times: five
    depth-first traces per task and one greedy trace of its exemplar 0.  The
    first mode asked cuts only its own half, each half is cut once, and a
    task's AoT and Direct halves show exemplar 0's one depth-first trace."""
    targets = {kind: generate(GenSpec(kind=kind, level=3, seed=0)) for kind in TaskKind}
    generated, traced, cut = [], [], {}
    exemplar_instance, solve, shots = prompts.exemplar_instance, prompts.solve, cli.Shots

    def counted_instance(kind, index):
        generated.append((kind, index))
        return exemplar_instance(kind, index)

    def counted_solve(instance, search):
        traced.append((instance.id, search))
        return solve(instance, search)

    def kept_shots(mode, exemplars):
        key = exemplars[0][0].kind, mode
        assert key not in cut
        cut[key] = shots(mode, exemplars)
        return cut[key]

    monkeypatch.setattr(prompts, "exemplar_instance", counted_instance)
    monkeypatch.setattr(prompts, "solve", counted_solve)
    monkeypatch.setattr(cli, "Shots", kept_shots)
    prompt = prompt_lookup()
    prompt(targets[TaskKind.TRIP_PLANNING], PromptMode.AOT)
    assert (len(generated), len(traced)) == (5, 5)
    for kind in TaskKind:
        for mode in PromptMode:
            assert prompt(targets[kind], mode).mode is mode
    assert len(generated) == len(set(generated)) == 20
    assert len(traced) == len(set(traced)) == 24
    assert sum(search is SearchMode.GREEDY for _, search in traced) == 4
    assert len(cut) == len(TaskKind) * len(PromptMode)
    for kind in TaskKind:
        (aot,) = cut[kind, PromptMode.AOT].exemplars
        direct = cut[kind, PromptMode.DIRECT].exemplars
        assert aot[1] is direct[0][1]
        assert cut[kind, PromptMode.COT].exemplars[0][0] is direct[0][0]


def test_a_unit_that_raises_in_a_worker_raises_from_run(tmp_path, monkeypatch):
    def raising(gateway, instance, bundle, strategy, **kwargs):
        raise RuntimeError(f"{instance.id} {bundle.mode.value} {strategy.format()}")

    monkeypatch.setattr(cli, "execute", raising)
    config = config_from_dict(_unreachable_http_doc(tmp_path, monkeypatch))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^TripPlanning-L3-s0 Direct ws$"):
        run(config, echo=QUIET)
    assert threading.active_count() == threads
    assert not (tmp_path / "out" / "report.md").exists()


def test_a_pooled_run_closes_its_http_backends_when_a_job_raises(tmp_path, monkeypatch):
    closed = []
    close = HttpBackend.close

    def closing(self):
        closed.append(self)
        close(self)

    def raising(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(HttpBackend, "close", closing)
    monkeypatch.setattr(cli, "execute", raising)
    with pytest.raises(RuntimeError, match="^boom$"):
        run(config_from_dict(_unreachable_http_doc(tmp_path, monkeypatch)), echo=QUIET)
    assert len(closed) == 1


def test_run_threaded_raises_the_first_failure_in_item_order():
    """Item 6 raises while item 3 is still running; item 3 then raises
    too, and no thread takes item 7."""
    ran = []
    six_raised = threading.Event()

    def work(item):
        ran.append(item)
        if item == 3:
            assert six_raised.wait(timeout=30)
            raise ValueError("three")
        if item == 6:
            six_raised.set()
            raise ValueError("six")
        return item * 10

    threads = threading.active_count()
    with pytest.raises(ValueError, match="^three$"):
        cli.run_threaded(work, range(8), 2)
    assert threading.active_count() == threads
    assert sorted(ran) == list(range(7))
    assert cli.run_threaded(lambda item: item * 10, range(5), 8) == [0, 10, 20, 30, 40]
    assert threading.active_count() == threads


def test_http_runs_never_load_concurrent_futures(tmp_path, monkeypatch):
    """An ``http`` run's workers are plain threads; the executor module and
    the logging it imports are never loaded."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_unreachable_http_doc(tmp_path, monkeypatch)), encoding="utf-8")
    script = (
        "import sys; sys.path[:0] = sys.argv[2:]; "
        "import searchbench; "
        "code = searchbench.cli.main(['run', '--config', sys.argv[1]]); "
        "print(code, sorted(m for m in sys.modules "
        "if m.startswith(('concurrent.futures', 'logging'))))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert len(_records(tmp_path)) == 8


def test_an_oracle_run_judges_each_instance_once(tmp_path, monkeypatch):
    """The oracle gives all 18 requests of an instance one answer text, and
    ``evaluate`` is pure, so the default 12-cell matrix judges it once."""
    judged = []
    evaluate = scaling.evaluate

    def counting(instance, text):
        judged.append(instance.id)
        return evaluate(instance, text)

    monkeypatch.setattr(scaling, "evaluate", counting)
    doc = _doc(tmp_path, tasks=[k.value for k in TaskKind])
    del doc["matrix"]
    report = run(config_from_dict(doc), echo=QUIET)
    assert len(report.cells) == 4 * 12
    assert all(c.successes == c.total == 2 for c in report.cells)
    assert sorted(judged) == sorted({o["instance_id"] for o in _records(tmp_path)})
    assert len(judged) == 8


def test_an_oracle_run_builds_each_target_statement_once(tmp_path, monkeypatch):
    """Every mode's prompt and the oracle's answer key share one statement
    text per target instance."""
    built = []

    def counting(statement):
        def wrapped(payload):
            built.append(payload)
            return statement(payload)
        return wrapped

    for kind in TaskKind:
        task = family(kind)
        monkeypatch.setattr(task, "statement", counting(task.statement))
    generated = []
    generate_instances = cli.generate_instances

    def kept(config):
        generated.extend(generate_instances(config))
        return generated

    monkeypatch.setattr(cli, "generate_instances", kept)
    doc = _doc(tmp_path, tasks=[k.value for k in TaskKind])
    del doc["matrix"]
    report = run(config_from_dict(doc), echo=QUIET)
    assert all(c.successes == c.total == 2 for c in report.cells)
    assert len(generated) == 8
    targets = [p for p in built if any(p is inst.payload for inst in generated)]
    assert sorted(map(id, targets)) == sorted(id(inst.payload) for inst in generated)


def test_bundles_of_one_task_and_mode_share_one_head_object():
    """A bundle keeps the exemplar half its (task, mode) shares and the
    instance's own statement; neither is copied per prompt."""
    instances = [generate(GenSpec(kind=kind, level=3, seed=seed))
                 for kind in TaskKind for seed in range(4)]
    prompt = prompt_lookup()
    heads = {}
    for instance in instances:
        for mode in PromptMode:
            bundle = prompt(instance, mode)
            assert bundle.statement is instance.statement
            assert bundle.head is heads.setdefault((instance.kind, mode), bundle.head)
            assert bundle.body == bundle.head + instance.statement
    assert len(heads) == len(TaskKind) * len(PromptMode)


def test_rendered_bundles_hold_no_joined_body():
    """Rendered bundles, with every body read once, retain under a third of
    the bodies' size: the shared halves, not one body per prompt."""
    instances = [generate(GenSpec(kind=kind, level=6, seed=seed))
                 for kind in TaskKind for seed in range(10)]
    for instance in instances:
        instance.statement  # the instances' own text, not the bundles'
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prompt = prompt_lookup()
        bundles = [prompt(instance, mode) for instance in instances for mode in PromptMode]
        del prompt  # and with it the exemplar sets and halves, which no bundle needs
        body_bytes = sum(sys.getsizeof(bundle.body) for bundle in bundles)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(bundles) == 120
    assert retained < body_bytes / 3, (retained, body_bytes)


def test_one_text_keeps_each_instance_its_own_verdict(tmp_path):
    """Each (model, instance) job keeps its own verdicts: one cover text is
    right for the first instance and wrong for the second."""
    first, second = (generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=s))
                     for s in (0, 1))
    text = canonical_text(first.payload, first.ground_truth)
    doc = _doc(tmp_path, tasks=["VertexCover"], cache_path=None,
               models=[{"name": "m-mock", "backend": "mock", "script": [text]}])
    run(config_from_dict(doc), echo=QUIET)
    finals = {}
    for record in _records(tmp_path):
        finals.setdefault(record["instance_id"], set()).add(record["final"]["status"])
    assert finals == {first.id: {"Success"}, second.id: {"ConstraintViolation"}}


def test_a_warm_run_asks_again_for_a_cached_reply_of_the_wrong_type(tmp_path):
    """A cache line whose ``text`` is not a string is a miss, not an entry:
    the warm run calls the backend for it, every unit succeeds, and
    ``run_meta.json`` counts the skipped line."""
    doc = _doc(tmp_path, tasks=["TripPlanning", "VertexCover"])
    run(config_from_dict(doc), echo=QUIET)
    cache = tmp_path / "cache.jsonl"
    lines = cache.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["response"]["text"] = 5
    lines[0] = json.dumps(record, sort_keys=True)
    cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert ResponseCache(cache).skipped_lines == 1

    report = run(config_from_dict(doc), echo=QUIET)
    assert all(c.successes == c.total == 2 for c in report.cells)
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
    assert meta["unexpected_errors"] == {"m-oracle": 0}
    assert meta["cache_stats"]["m-oracle"]["misses"] == 1
    assert meta["cache_skipped_lines"] == 1


def test_cold_in_process_runs_write_the_same_cache_bytes(tmp_path):
    caches = []
    for name in ("one", "two"):
        cache = tmp_path / f"{name}.jsonl"
        run(config_from_dict(_doc(
            tmp_path, tasks=[k.value for k in TaskKind], instance_count=3, concurrency=4,
            out_dir=str(tmp_path / name), cache_path=str(cache),
        )), echo=QUIET)
        caches.append(cache.read_bytes())
    assert caches[0] == caches[1]


def test_run_merges_models_alphabetically(tmp_path):
    doc = _doc(
        tmp_path,
        models=[
            {"name": "zeta-mock", "backend": "mock", "script": ["nonsense"]},
            {"name": "alpha-oracle", "backend": "oracle"},
        ],
        matrix=[["CoT", "ws"]],
    )
    report = run(config_from_dict(doc), echo=QUIET)
    assert [c.model for c in report.cells] == ["alpha-oracle", "zeta-mock"]
    rates = {c.model: c.rate for c in report.cells}
    assert rates == {"alpha-oracle": 1.0, "zeta-mock": 0.0}
    text = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    assert text.index("alpha-oracle") < text.index("zeta-mock")


def test_run_keys_cells_by_level(tmp_path):
    doc = _doc(tmp_path, levels=[3, 4], models=[
        {"name": "m-oracle", "backend": "oracle", "model": "provider-id"},
    ])
    report = run(config_from_dict(doc), echo=QUIET)
    assert [c.level for c in report.cells] == [3] * 4 + [4] * 4
    assert all(c.label == "2/2 = 100%" and c.model == "m-oracle" for c in report.cells)
    assert report.incomplete == ()

    out = tmp_path / "out"
    text = (out / "report.md").read_text(encoding="utf-8")
    assert "Incomplete" not in text
    assert "## Table 1: Performance on *Trip Planning* (Difficulty Level = 3)" in text
    assert "## Table 2: Performance on *Trip Planning* (Difficulty Level = 4)" in text
    assert text.count("## Table") == 2 and text.count("2/2 = 100%") == 8
    records = [json.loads(l) for l in (out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()]
    assert sorted({(r["level"], r["instance_id"]) for r in records}) == [
        (3, "TripPlanning-L3-s0"), (3, "TripPlanning-L3-s1"),
        (4, "TripPlanning-L4-s0"), (4, "TripPlanning-L4-s1"),
    ]
    assert all(r["model"] == "m-oracle" for r in records)
    plot = (out / "plotdata" / "TripPlanning.csv").read_text(encoding="utf-8").splitlines()
    assert plot[0] == "configuration,level,model,rate"
    assert [row.split(",")[1] for row in plot[1:]] == ["3"] * 4 + ["4"] * 4
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--outcomes", str(out / "outcomes.jsonl"), "--out", str(rebuilt)]) == 0
    assert (rebuilt / "report.md").read_text(encoding="utf-8") == text


def test_dry_run_counts_without_backend_calls(tmp_path):
    doc = _doc(tmp_path)
    doc.pop("matrix")
    config = config_from_dict(doc)
    plan = dry_run(config, echo=QUIET)
    assert plan["instances"] == 2
    assert plan["models"] == 1
    assert plan["matrix_cells"] == 12
    # per instance: 3 modes x (ws 1 + ps:3 3 + ss:1 2 + is 1) calls
    assert plan["max_backend_calls"] == 2 * 3 * (1 + 3 + 2 + 1)
    assert plan["prompt_tokens_estimate"] > 1000
    assert not (tmp_path / "cache.jsonl").exists()


def test_dry_run_call_bound_is_what_a_failing_run_spends(tmp_path):
    """Also when a VertexCover L6 target is the second Direct exemplar: the
    bound leaves out the units of the one prompt that cannot be rendered."""
    mock = [{"name": "m-mock", "backend": "mock", "script": ["nonsense"]}]
    overlap = {"tasks": ["VertexCover"], "levels": [6], "instance_count": 3,
               "seed": prompts.exemplar_instance(TaskKind.VERTEX_COVER, 1).seed}
    for over, unrenderable in (({}, 0), (overlap, 1)):
        doc = _doc(tmp_path, models=mock, **over)
        doc.pop("matrix")
        config = config_from_dict(doc)
        plan = dry_run(config, echo=QUIET)
        run(config, echo=QUIET)
        records = _records(tmp_path)
        assert records and all(r["final"]["status"] != "Success" for r in records)
        assert sum(len(r["attempts"]) for r in records) == plan["max_backend_calls"]
        assert plan["unrenderable_prompts"] == unrenderable
    assert plan["max_backend_calls"] == (3 * 3 - 1) * (1 + 3 + 2 + 1)
    assert sum(r["attempts"] == [] for r in records) == 4


def test_dry_run_counts_each_prompt_once_per_call_it_can_be_sent_in(tmp_path):
    """A prompt is sent once per call its mode's cells can make, for every
    model: 7 calls per mode in the default matrix, 14 with two models.  At
    the seed of the second VertexCover exemplar, its one Direct prompt is
    not sent."""
    oracle = [{"name": "m-oracle", "backend": "oracle"}]
    mock = [{"name": "m-mock", "backend": "mock", "script": ["nonsense"]}]
    overlap = {"tasks": ["VertexCover"], "levels": [6], "instance_count": 3,
               "seed": 15735530717821978019, "models": oracle}
    two = {"tasks": ["VertexCover"], "levels": [4], "instance_count": 3,
           "models": oracle + mock}
    plans = []
    for over in (overlap, two):
        doc = _doc(tmp_path, **over)
        doc.pop("matrix")
        plans.append(dry_run(config_from_dict(doc), echo=QUIET))
    one_model, two_models = plans
    assert (one_model["max_backend_calls"], one_model["prompt_tokens_estimate"],
            one_model["unrenderable_prompts"]) == (56, 82656, 1)
    assert (two_models["max_backend_calls"], two_models["prompt_tokens_estimate"]) == (
        126, 14 * 12501)


def test_an_outcome_log_reads_back_as_it_was_written(tmp_path):
    """Every field of every line, attempts included, survives
    ``read_outcomes``: the ss and ps units of an oracle and of a mock that
    answers wrongly make attempts of several rounds and samples."""
    models = [ORACLE, {"name": "m-mock", "backend": "mock", "script": ["nonsense"]}]
    matrix = [["Direct", "ws"], ["CoT", "ps:3"], ["AoT", "ss:2"], ["CoT", "is:2048"]]
    run(config_from_dict(_doc(tmp_path, models=models, matrix=matrix)), echo=QUIET)
    records = _records(tmp_path)
    attempts = [a for r in records for a in r["attempts"]]
    assert {(a["round"], a["sample"]) for a in attempts} == {
        (0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}
    assert {a["status"] for a in attempts} == {"Success", "ParseFailure"}
    outcomes = cli.read_outcomes(tmp_path / "out" / "outcomes.jsonl")
    assert [cli._outcome_record(o) for o in outcomes] == records


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------


def test_cmd_chain_gen_solve_render_verify(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([
        "gen", "--task", "TripPlanning", "--level", "3", "--count", "2",
        "--out", "inst.jsonl",
    ]) == 0
    instances = list(read_instances("inst.jsonl"))
    assert [i.id for i in instances] == ["TripPlanning-L3-s0", "TripPlanning-L3-s1"]

    assert main([
        "solve", "--instances", "inst.jsonl", "--search", "dfs",
        "--out", "traces.jsonl",
    ]) == 0
    traces = [json.loads(l) for l in Path("traces.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(traces) == 2 and all(t["succeeded"] for t in traces)
    assert all(t["events"][-1]["action"] == "Success" for t in traces)

    assert main([
        "render", "--instances", "inst.jsonl", "--mode", "AoT", "--out", "prompts",
    ]) == 0
    prompt = (tmp_path / "prompts" / "TripPlanning-L3-s0.AoT.txt").read_text(
        encoding="utf-8"
    )
    assert "### Target Question ###" in prompt

    with open("answers.jsonl", "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps({
                "instance_id": inst.id,
                "text": canonical_text(inst.payload, inst.ground_truth),
            }) + "\n")
    assert main(["verify", "--instances", "inst.jsonl", "--answers", "answers.jsonl"]) == 0
    out = capsys.readouterr().out
    assert out.count("Success") == 2


def test_cmd_gen_writes_the_per_spec_loops_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "gen", "--task", "all", "--level", "10", "--count", "12", "--seed", "3",
        "--out", "gen.jsonl",
    ]) == 0
    write_instances("loop.jsonl", [
        generate(GenSpec(kind=kind, level=10, seed=3 + i))
        for kind in TaskKind
        for i in range(12)
    ])
    assert Path("gen.jsonl").read_bytes() == Path("loop.jsonl").read_bytes()


def test_cmd_gen_writes_a_trip_that_needs_over_100_attempts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "gen", "--task", "TripPlanning", "--level", "10", "--seed", "3040", "--count", "1",
        "--out", "gen.jsonl",
    ]) == 0
    (instance,) = read_instances("gen.jsonl")
    assert instance == generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=10, seed=3040))


def test_run_exits_2_naming_a_seed_that_fails(tmp_path, monkeypatch, capsys):
    fail_seeds(monkeypatch, TaskKind.TRIP_PLANNING, (1,))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_doc(tmp_path, instance_count=4)), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: no usable TripPlanning instance for level 3, seed 1 within 1000 attempts\n"
    )


def test_a_paper_sized_run_never_forks(tmp_path, monkeypatch):
    """Every target of a paper-sized run (4 tasks x 100 level-10 instances x
    12 cells, oracle) is generated in this process."""

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    doc = _doc(tmp_path, tasks=[k.value for k in TaskKind], levels=[10], instance_count=100)
    del doc["matrix"]
    report = run(config_from_dict(doc), echo=QUIET)
    assert len(report.cells) == 4 * 12
    assert all(c.successes == c.total == 100 for c in report.cells)


def test_a_run_generates_every_target_through_cli_generate(tmp_path, monkeypatch):
    """The benchmark's tracer times generation by wrapping ``cli.generate``
    (see ``perfbench/tracing.py``), so a run must call it once per target,
    in config order, in this process."""
    calls = []

    def wrapped(spec):
        calls.append((spec.kind, spec.seed, os.getpid()))
        return generate(spec)

    monkeypatch.setattr(cli, "generate", wrapped)
    doc = _doc(tmp_path, tasks=["VertexCover", "MeetingPlanning"], instance_count=3, seed=5)
    run(config_from_dict(doc), echo=QUIET)
    assert calls == [
        (kind, seed, os.getpid())
        for kind in (TaskKind.VERTEX_COVER, TaskKind.MEETING_PLANNING)
        for seed in (5, 6, 7)
    ]


def test_run_prints_each_line_once_with_stdout_piped(tmp_path):
    """stdout to a pipe is block-buffered; each progress line still reaches
    it exactly once."""
    config = tmp_path / "config.json"
    doc = _doc(tmp_path, tasks=[k.value for k in TaskKind], instance_count=3)
    config.write_text(json.dumps(doc), encoding="utf-8")
    script = (
        "import sys; sys.path[:0] = sys.argv[2:]; "
        "import searchbench; "
        "sys.exit(searchbench.cli.main(['run', '--config', sys.argv[1]]))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), src],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["generating", "executing", "report"]


def test_cmd_solve_reads_meeting_travel_pairs_in_either_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([
        "gen", "--task", "MeetingPlanning", "--level", "6", "--count", "2",
        "--out", "sorted.jsonl",
    ]) == 0
    with open("sorted.jsonl", encoding="utf-8") as src, \
            open("swapped.jsonl", "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            pairs = record["payload"]["travel_minutes"]
            assert all(a < b for a, b, _ in pairs)
            for pair in pairs[::2]:
                pair[0], pair[1] = pair[1], pair[0]
            dst.write(json.dumps(record) + "\n")
    assert read_instances("swapped.jsonl") == read_instances("sorted.jsonl")
    for name in ("sorted", "swapped"):
        assert main([
            "solve", "--instances", f"{name}.jsonl", "--search", "dfs",
            "--out", f"{name}.traces.jsonl",
        ]) == 0
    assert Path("swapped.traces.jsonl").read_bytes() == Path("sorted.traces.jsonl").read_bytes()


def test_cmd_solve_greedy_records_unsolvable_inputs(
    tmp_path, monkeypatch, unsolvable_instances
):
    monkeypatch.chdir(tmp_path)
    write_instances("inst.jsonl", unsolvable_instances)
    assert main([
        "solve", "--instances", "inst.jsonl", "--search", "greedy",
        "--out", "traces.jsonl",
    ]) == 0
    traces = [json.loads(l) for l in Path("traces.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [t["instance_id"] for t in traces] == [i.id for i in unsolvable_instances]
    for t in traces:
        assert t["search"] == "greedy"
        assert t["succeeded"] is False and t["explored"] == 0
        assert [e["action"] for e in t["events"]] == ["Initialization"]


def test_cmd_verify_flags_failures(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(["gen", "--task", "VertexCover", "--level", "2", "--count", "1",
          "--out", "inst.jsonl"])
    with open("answers.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"instance_id": "VertexCover-L2-s0", "text": "garbage"}) + "\n")
        fh.write(json.dumps({"instance_id": "Phantom-L1-s9", "text": "x"}) + "\n")
    assert main(["verify", "--instances", "inst.jsonl", "--answers", "answers.jsonl"]) == 1
    out = capsys.readouterr().out
    assert "ParseFailure" in out and "unknown instance" in out


@pytest.mark.parametrize("key", ["instance_id", "text"])
@pytest.mark.parametrize("value", [None, 5, ["x"]], ids=["null", "5", "list"])
def test_verify_exits_2_on_an_answer_field_that_is_not_a_string(
    tmp_path, monkeypatch, capsys, key, value
):
    """An instance id or answer text that is not a JSON string is an input
    error naming its line, not a text judged as ``str(value)``."""
    monkeypatch.chdir(tmp_path)
    write_instances("inst.jsonl", [generate(GenSpec(kind=TaskKind.THREE_DM, level=2, seed=0))])
    answer = {"instance_id": "ThreeDM-L2-s0", "text": "garbage", key: value}
    Path("answers.jsonl").write_text(json.dumps(answer) + "\n", encoding="utf-8")
    assert main(["verify", "--instances", "inst.jsonl", "--answers", "answers.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: answers.jsonl:1: {key}: must be a string, not {value!r}\n"


def _window_past_midnight(payload: dict) -> None:
    payload["friends"][0]["window"][1] = 1500


def _start_before_midnight(payload: dict) -> None:
    payload["day_start"] = -30


@pytest.mark.parametrize("spoil, message", [
    (_window_past_midnight,
     "window 690-1500 of 'Grace' is not within the minutes of the day [0, 1439]"),
    (_start_before_midnight, "day_start -30 is not a minute of the day in [0, 1439]"),
], ids=["window past midnight", "start before midnight"])
def test_render_exits_2_on_meeting_times_outside_a_day(
    tmp_path, monkeypatch, capsys, spoil, message
):
    monkeypatch.chdir(tmp_path)
    record = instance_to_record(generate(GenSpec(kind=TaskKind.MEETING_PLANNING, level=2, seed=0)))
    spoil(record["payload"])
    Path("inst.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main([
        "render", "--mode", "Direct", "--instances", "inst.jsonl", "--out", "prompts",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: inst.jsonl:1: {message}\n"
    assert not Path("prompts").exists()


@pytest.mark.parametrize("bad_id", ["../escaped/VC", "a/b"])
def test_render_exits_2_on_an_id_that_is_not_a_file_name(tmp_path, monkeypatch, capsys, bad_id):
    """An id that would put its prompt file outside ``--out``, or in a
    directory under it, stops render before any file is written."""
    monkeypatch.chdir(tmp_path)
    instance = generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=0))
    write_instances("evil.jsonl", [dataclasses.replace(instance, id=bad_id)])
    assert main([
        "render", "--instances", "evil.jsonl", "--mode", "Direct", "--out", "sub/prompts",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: instance id {bad_id!r} is not a file name in sub/prompts\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["evil.jsonl"]


def test_verify_judges_an_arrival_after_midnight(tmp_path, monkeypatch, capsys):
    """Brian's window closes at 23:59, and the earliest arrival from Alice's
    meeting falls after midnight."""
    monkeypatch.chdir(tmp_path)
    payload = MeetingPayload(
        locations=("Bayview", "Chinatown"), start_location="Bayview", day_start=23 * 60,
        travel_minutes={("Bayview", "Chinatown"): 30},
        friends=(Friend("Alice", "Bayview", 23 * 60, 23 * 60 + 30, 30),
                 Friend("Brian", "Chinatown", 23 * 60 + 20, 23 * 60 + 59, 15)),
    )
    alice = Meeting("Alice", "Bayview", 23 * 60, 23 * 60 + 30)
    write_instances("inst.jsonl", [ProblemInstance(
        "late", TaskKind.MEETING_PLANNING, 1, 0, payload, MeetingSchedule((alice,)),
    )])
    text = ("Meet Alice at Bayview from 23:00 to 23:30.\n"
            "Meet Brian at Chinatown from 23:40 to 23:59.")
    Path("answers.jsonl").write_text(
        json.dumps({"instance_id": "late", "text": text}) + "\n", encoding="utf-8"
    )
    assert main(["verify", "--instances", "inst.jsonl", "--answers", "answers.jsonl"]) == 1
    assert capsys.readouterr().out == (
        "late: ConstraintViolation "
        "(travel: cannot reach Brian by 23:40 (earliest arrival 24:00))\n"
    )


@pytest.mark.parametrize("command", [
    ["gen", "--task", "ThreeDM", "--level", "2", "--count", "1"],
    ["solve", "--instances", "inst.jsonl"],
], ids=["gen", "solve"])
@pytest.mark.parametrize("out", ["nd/x.jsonl", "taken"], ids=["missing directory", "directory"])
def test_gen_and_solve_make_the_output_directory_and_exit_2_on_a_directory(
    tmp_path, monkeypatch, capsys, command, out
):
    monkeypatch.chdir(tmp_path)
    Path("taken").mkdir()
    write_instances("inst.jsonl", [generate(GenSpec(kind=TaskKind.THREE_DM, level=2, seed=0))])
    code = main(command + ["--out", out])
    captured = capsys.readouterr()
    if out == "taken":
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1, captured.err
        assert not any(Path("taken").iterdir())
    else:
        assert code == 0 and captured.err == ""
        assert captured.out.endswith(f" to {out}\n")
        assert len(Path(out).read_text(encoding="utf-8").splitlines()) == 1


def test_gen_fails_on_an_unwritable_out_before_it_generates(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("nd").mkdir()
    calls = []
    monkeypatch.setattr(cli, "generate", lambda spec: calls.append(spec))
    code = main(["gen", "--task", "VertexCover", "--level", "10", "--count", "100", "--out", "nd"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write nd: ")
    assert calls == []


@pytest.mark.parametrize("cache", ["afile/c.jsonl", "adir"], ids=["parent is a file", "directory"])
def test_run_exits_2_on_an_unwritable_cache_before_it_generates(
    tmp_path, monkeypatch, capsys, cache
):
    """A cache that cannot take a line stops the run before any unit runs,
    rather than failing every unit with a BackendError and exiting 0."""
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("", encoding="utf-8")
    Path("adir").mkdir()
    doc = _doc(tmp_path, out_dir="out", cache_path=cache)
    Path("config.json").write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "generate_instances", lambda config: calls.append(config) or [])
    assert main(["run", "--config", "config.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {cache}: ")
    assert captured.err.count("\n") == 1, captured.err
    assert calls == []
    assert not Path("out/outcomes.jsonl").exists()


@pytest.mark.parametrize("command", [
    ["run", "--config", "config.json"],
    ["render", "--instances", "inst.jsonl", "--mode", "AoT"],
    ["report", "--outcomes", "outcomes.jsonl"],
], ids=["run", "render", "report"])
def test_an_output_directory_that_is_a_file_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.chdir(tmp_path)
    Path("taken").write_text("kept\n", encoding="utf-8")
    Path("config.json").write_text(json.dumps(_doc(tmp_path, cache_path=None)), encoding="utf-8")
    write_instances("inst.jsonl", [generate(GenSpec(kind=TaskKind.THREE_DM, level=2, seed=0))])
    Path("outcomes.jsonl").write_text("", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "generate_instances", lambda config: calls.append(config) or [])
    monkeypatch.setattr(cli, "render", lambda *args, **kwargs: calls.append(args))
    assert main(command + ["--out", "taken"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write taken: ")
    assert captured.err.count("\n") == 1, captured.err
    assert calls == []
    assert Path("taken").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("taken, make", [
    ("out/outcomes.jsonl", Path.mkdir),
    ("out/plotdata", lambda path: path.write_text("kept\n", encoding="utf-8")),
], ids=["outcomes is a directory", "plotdata is a file"])
def test_run_exits_2_on_an_output_it_cannot_write_before_it_generates(
    tmp_path, monkeypatch, capsys, taken, make
):
    monkeypatch.chdir(tmp_path)
    Path("out").mkdir()
    make(Path(taken))
    Path("config.json").write_text(json.dumps(_doc(tmp_path, out_dir="out")), encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "generate_instances", lambda config: calls.append(config) or [])
    assert main(["run", "--config", "config.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {taken}: ")
    assert captured.err.count("\n") == 1, captured.err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["render", "--mode", "CoT", "--out", "prompts"],
    ["verify", "--answers", "answers.jsonl"],
])
def test_repeated_instance_ids_exit_2_naming_the_second_line(tmp_path, monkeypatch, capsys, argv):
    """VertexCover L3 seeds 5 and 6, the second under the first's id."""
    monkeypatch.chdir(tmp_path)
    first, second = (generate(GenSpec(kind=TaskKind.VERTEX_COVER, level=3, seed=s))
                     for s in (5, 6))
    write_instances("inst.jsonl", [first, dataclasses.replace(second, id=first.id)])
    text = canonical_text(first.payload, first.ground_truth)
    Path("answers.jsonl").write_text(
        json.dumps({"instance_id": first.id, "text": text}) + "\n", encoding="utf-8"
    )
    assert main(argv + ["--instances", "inst.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: inst.jsonl:2: repeated instance id '{first.id}'\n"
    )
    assert not Path("prompts").exists()


def test_cmd_run_and_report_round_trip(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_doc(tmp_path)), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0

    rebuilt = tmp_path / "rebuilt"
    assert main([
        "report", "--outcomes", str(tmp_path / "out" / "outcomes.jsonl"),
        "--out", str(rebuilt),
    ]) == 0
    for name in ("report.md", "cells.csv", "plotdata/TripPlanning.csv"):
        original = (tmp_path / "out" / name).read_text(encoding="utf-8")
        assert (rebuilt / name).read_text(encoding="utf-8") == original, name


def test_cmd_report_flags_the_cells_a_partial_log_leaves_short(tmp_path, capsys):
    """With its run's run_meta.json beside it, a log that lost lines lists
    the cells they leave short, as the run itself would have."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_doc(tmp_path)), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    log = tmp_path / "out" / "outcomes.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    log.write_text("".join(lines[1:-1]), encoding="utf-8")
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--outcomes", str(log), "--out", str(rebuilt)]) == 0
    short = [
        f"- {r['task']}/L{r['level']}/{r['model']}/{r['mode']}/{r['strategy']}: 1 of 2 instances"
        for r in map(json.loads, (lines[0], lines[-1]))
    ]
    text = (rebuilt / "report.md").read_text(encoding="utf-8")
    assert "**Incomplete cells:**" in text
    assert sorted(line for line in text.splitlines() if line.startswith("- ")) == sorted(short)
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
    rebuilt_meta = json.loads((rebuilt / "run_meta.json").read_text(encoding="utf-8"))
    assert rebuilt_meta == {**meta, "incomplete_cells": rebuilt_meta["incomplete_cells"]}
    # Re-emitted in place, twice, the run keeps its metadata and its flags.
    for _ in range(2):
        assert main(["report", "--outcomes", str(log), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.md").read_text(encoding="utf-8") == text
    (tmp_path / "out" / "run_meta.json").write_text("{}", encoding="utf-8")
    assert main(["report", "--outcomes", str(log), "--out", str(rebuilt)]) == 2
    assert "run_meta.json: KeyError('config')" in capsys.readouterr().err


_RECORD = {
    "attempts": [], "final": {"reason": "", "status": "Success"},
    "instance_id": "TripPlanning-L3-s0", "level": 3, "mode": "CoT", "model": "m",
    "strategy": "ws", "task": "TripPlanning",
}


@pytest.mark.parametrize("line, message", [
    ("{not json", ":2: not JSON"),
    (json.dumps({k: v for k, v in _RECORD.items() if k != "level"}), ":2: missing key 'level'"),
    (json.dumps({**_RECORD, "final": {"status": "Maybe"}}), ":2: final.status: must be one of"),
    (json.dumps({**_RECORD, "strategy": "qq:1"}), ":2: bad strategy 'qq:1'"),
    (json.dumps({**_RECORD, "level": "high"}), ":2: level:"),
    ("[1, 2]", ":2: not a JSON object: [1, 2]"),
], ids=["bad-json", "no-level", "unknown-status", "unknown-strategy", "level-not-int",
        "not-an-object"])
def test_cmd_report_rejects_unreadable_records(tmp_path, capsys, line, message):
    log = tmp_path / "outcomes.jsonl"
    log.write_text(json.dumps({**_RECORD, "instance_id": "TripPlanning-L3-s1"}) + "\n"
                   + line + "\n", encoding="utf-8")
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--outcomes", str(log), "--out", str(rebuilt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}{message}"), err
    assert not rebuilt.exists()


def _write_unreadable(path, problem, record):
    if problem == "bad-json":
        path.write_text("{not json\n", encoding="utf-8")
    elif problem == "missing-key":
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command, flag, key", [
    ("solve", "--instances", "payload"),
    ("render", "--instances", "payload"),
    ("verify", "--answers", "instance_id"),
    ("report", "--outcomes", "task"),
])
@pytest.mark.parametrize("problem", ["missing-file", "bad-json", "missing-key"])
def test_unreadable_input_files_exit_2_naming_path_line_and_key(
    tmp_path, capsys, command, flag, key, problem
):
    instances = tmp_path / "inst.jsonl"
    write_instances(instances, [generate(GenSpec(kind=TaskKind.THREE_DM, level=1, seed=0))])
    valid = {
        "--instances": json.loads(instances.read_text(encoding="utf-8")),
        "--answers": {"instance_id": "ThreeDM-L1-s0", "text": ""},
        "--outcomes": _RECORD,
    }[flag]
    record = {k: v for k, v in valid.items() if k != key}
    bad = _write_unreadable(tmp_path / "bad.jsonl", problem, record)
    out = tmp_path / "out"
    argv = [command, flag, str(bad), "--out", str(out)]
    if command == "render":
        argv += ["--mode", "AoT"]
    if command == "verify":
        argv = [command, "--instances", str(instances), flag, str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    expected = {
        "missing-file": f"error: cannot read {bad}: ",
        "bad-json": f"error: {bad}:1: not JSON",
        "missing-key": f"error: {bad}:1: missing key '{key}'",
    }[problem]
    assert err.startswith(expected), err
    assert not out.exists()


def test_cmd_run_dry_run_flag(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_doc(tmp_path)), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--dry-run"]) == 0
    assert "max_backend_calls" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_dry_run_counts_the_targets_whose_written_search_fits_each_answer_allowance(
    tmp_path, capsys
):
    """Per (task, level) in config order, before the unrenderable count: how
    many targets' own depth-first search, written as AoT writes one, fits
    ``max_tokens`` and ``max_tokens`` plus each ``is`` cell's thinking budget,
    16,000 for a bare ``is``."""
    matrix = [["AoT", "ws"], ["AoT", "is:300"], ["CoT", "is"], ["Direct", "ss:1"]]
    doc = _doc(tmp_path, tasks=["VertexCover", "ThreeDM"], levels=[4], instance_count=5,
               max_tokens=700, matrix=matrix)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config), "--dry-run"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "written_search_fits[VertexCover L4]: 3/5 within 700; 5/5 within 1000; 5/5 within 16700",
        "written_search_fits[ThreeDM L4]: 1/5 within 700; 3/5 within 1000; 5/5 within 16700",
        "unrenderable_prompts: 0",
    ]


def test_cmd_run_seed_and_out_overrides(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_doc(tmp_path)), encoding="utf-8")
    override = tmp_path / "elsewhere"
    assert main([
        "run", "--config", str(config_path), "--out", str(override), "--seed", "5",
    ]) == 0
    records = [
        json.loads(l)
        for l in (override / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert {r["instance_id"] for r in records} == {
        "TripPlanning-L3-s5", "TripPlanning-L3-s6",
    }


def test_cmd_run_cache_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_doc(tmp_path)), encoding="utf-8")
    override = tmp_path / "elsewhere" / "replies.jsonl"
    assert main(["run", "--config", str(config_path), "--cache", str(override)]) == 0
    assert len(ResponseCache(override)) > 0
    assert not (tmp_path / "cache.jsonl").exists()


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run"])  # missing --config
    with pytest.raises(SystemExit):
        main([])  # missing subcommand


@pytest.mark.parametrize("argv", [
    ["verify", "--instances", "i.jsonl", "--answers", "a.jsonl", "--dry-run"],
    ["verify", "--instances", "i.jsonl", "--answers", "a.jsonl", "--out", "x"],
    ["gen", "--count", "1", "--cache", "c.jsonl"],
    ["solve", "--instances", "i.jsonl", "--config", "c.json"],
    ["render", "--instances", "i.jsonl", "--mode", "AoT", "--seed", "1"],
    ["report", "--outcomes", "o.jsonl", "--dry-run"],
    ["report", "--outcomes", "o.jsonl", "--level", "3"],
    ["render", "--instances", "i.jsonl", "--mode", "AoT", "--budget", "900"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["gen", "--count", "0"],
    ["gen", "--count", "-2"],
])
def test_counts_and_budgets_below_one_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    """A config needs an ``instance_count`` of at least 1, and so does the
    flag that stands for it."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"{argv[-2]}: must be an integer >= 1, not {argv[-1]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_benchmark_tracer_wraps_every_layer_name():
    """The benchmark's traced run wraps module attributes by name (see
    ``perfbench/tracing.py``); renaming one must fail here, not there."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        "import searchbench, tracing; tracing.install(tracing.Tracer())"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_in_process_runs_never_load_an_http_client(tmp_path):
    """``http.client`` is imported only once an ``http`` model is built, so an
    oracle run's process never pays for loading an HTTP client."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_doc(tmp_path)), encoding="utf-8")
    script = (
        "import sys; sys.path[:0] = sys.argv[2:]; "
        "import searchbench; "
        "code = searchbench.cli.main(['run', '--config', sys.argv[1]]); "
        "print(code, any(m in sys.modules for m in ('requests', 'urllib3', 'http.client')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "report.md").exists()


def test_run_goes_through_a_positional_complete_wrapper(tmp_path, monkeypatch):
    """The benchmark stamps the first request by replacing
    ``ModelGateway.complete`` with a ``(self, request)`` wrapper (see
    ``perfbench/child.py``); a run must pass every request through it."""
    seen = []
    complete = ModelGateway.complete

    def stamp_first(self, request):
        seen.append(request.digest)
        return complete(self, request)

    monkeypatch.setattr(ModelGateway, "complete", stamp_first)
    report = run(config_from_dict(_doc(tmp_path)), echo=QUIET)
    assert all(c.successes == c.total == 2 for c in report.cells)
    lines = (tmp_path / "out" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    attempts = [a["digest"] for line in lines for a in json.loads(line)["attempts"]]
    assert sorted(attempts) == sorted(seen)


def test_python_dash_m_searchbench_runs_the_cli_without_warnings():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "searchbench", "--version"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stdout.strip(), done.stderr) == (0, __version__, "")


def test_python_dash_m_searchbench_prints_the_version_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["searchbench", "--version"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("searchbench", run_name="__main__")
    assert (exit_info.value.code, capsys.readouterr().out) == (0, "0.1.0\n")


def test_a_target_that_is_its_own_exemplar_fails_its_units_and_the_run_stands(
    tmp_path, capsys
):
    """VertexCover L6 at the seed of the second Direct exemplar: that
    instance's Direct prompt cannot be rendered, so its Direct units fail
    and every other unit runs; a dry run counts that prompt and names why,
    and ``render`` exits 2."""
    exemplar = prompts.exemplar_instance(TaskKind.VERTEX_COVER, 1)
    doc = _doc(tmp_path, tasks=["VertexCover"], levels=[exemplar.level], seed=exemplar.seed)
    del doc["matrix"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    reason = f"{exemplar.id} is both target and exemplar"
    failed = []
    for record in _records(tmp_path):
        if record["final"]["status"] == "Success":
            continue
        assert record["final"] == {"status": "BackendError", "reason": reason}
        assert record["attempts"] == []
        failed.append((record["instance_id"], record["mode"]))
    assert failed == [(exemplar.id, "Direct")] * 4
    assert len(_records(tmp_path)) == 2 * 12
    run_meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
    assert run_meta["unexpected_errors"] == {"m-oracle": 0}
    write_instances(tmp_path / "inst.jsonl", [exemplar])
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--dry-run"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["unrenderable_prompts: 1", f"first_unrenderable: {reason}"]
    assert main(["render", "--instances", str(tmp_path / "inst.jsonl"), "--mode", "Direct",
                 "--out", str(tmp_path / "prompts")]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_units_that_meet_a_provider_fault_are_unjudged_and_keep_their_attempts(
    tmp_path, monkeypatch
):
    """A loopback ``anthropic``-dialect provider answers every request with
    the instance's canonical answer and injects a fault into some sendings,
    drawn from a hash of the request body and how often it was sent.  A
    retried fault (429 with ``Retry-After: 0``, 500, 408, or a connection
    closed before any reply) comes at most three times in a row for one
    body, so its call recovers within ``RETRY_ATTEMPTS``.  A truncated body
    or a text block that is not a string is final: its unit is unjudged,
    left out of n and counted as incomplete, and keeps the attempts made
    before it.  A ``usage: null`` reply is judged.  The server answers 400
    unless Anthropic's documented thinking rule holds (1024 <= budget_tokens
    < max_tokens), and the default ``is`` cells still read 100%."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from searchbench import gateway

    monkeypatch.setattr(gateway, "RETRY_BASE_DELAY", 0.0)
    monkeypatch.setenv("FAULT_KEY", "k")
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    doc = _doc(tmp_path, tasks=["VertexCover", "ThreeDM"], levels=[4], instance_count=10,
               matrix=[["AoT", "ws"], ["AoT", "ps:3"], ["AoT", "ss:1"], ["AoT", "is"]])
    answers = {i.statement: (i.id, canonical_text(i.payload, i.ground_truth))
               for i in generate_instances(config_from_dict(doc))}
    retried = ("429", "500", "408", "closed")
    final = {"truncated": "reply body is not JSON", "text not a string": "unexpected reply shape: "}
    lock = threading.Lock()
    sent, in_a_row, ended = {}, {}, {}
    met = []  # (instance id, strategy, fault or "") of every sending, in order

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def reply(self, status, data=b"", headers=()):
            self.send_response(status)
            for header in headers:
                self.send_header(*header)
            self.send_header("content-length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            body = self.rfile.read(int(self.headers["content-length"]))
            request = json.loads(body)
            thinking, messages = request.get("thinking"), request["messages"]
            if thinking and not 1024 <= thinking["budget_tokens"] < request["max_tokens"]:
                return self.reply(400, b'{"type": "error"}')
            ((instance_id, text),) = [
                a for s, a in answers.items() if messages[0]["content"].endswith(s)]
            with lock:  # ps samples send one body, so its n-th sending counts too
                sent[body] = sent.get(body, 0) + 1
                draw = hashlib.sha256(body + b"#%d" % sent[body]).digest()
                if thinking:
                    unit = "is"
                elif len(messages) > 1:
                    unit = "ss:1"
                elif request["temperature"]:
                    unit = "ps:3"
                else:  # ws goes first; ss round 0 sends its body only after a final fault
                    unit = ("ws", "ss:1")[ended.get(body, 0)]
                if draw[0] < 80 and in_a_row.get(body, 0) < 3:
                    fault = retried[draw[1] % 4]
                    in_a_row[body] = in_a_row.get(body, 0) + 1
                else:
                    fault = ("truncated", "text not a string", "usage null", "")[
                        min(draw[1] // 16, 3)]
                    in_a_row[body], ended[body] = 0, ended.get(body, 0) + 1
                met.append((instance_id, unit, fault))
            if fault == "429":
                return self.reply(429, headers=[("retry-after", "0")])
            if fault in ("500", "408"):
                return self.reply(int(fault))
            if fault == "closed":
                self.close_connection = True
                return
            data = {"content": [{"type": "text", "text": 7 if fault == "text not a string"
                                 else text}],
                    "usage": None if fault == "usage null"
                    else {"input_tokens": 1, "output_tokens": 1}}
            raw = json.dumps(data).encode()
            self.reply(200, raw[: len(raw) // 2] if fault == "truncated" else raw)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        url = "http://%s:%d/v1/messages" % server.server_address[:2]
        doc["models"] = [{"name": "m-http", "backend": "http", "api_key_env": "FAULT_KEY",
                          "url": url}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        too_small = gateway.BackendRequest(model="m", system_text="", head="", statement="s",
                                           max_tokens=4096, thinking=True, thinking_budget=512)
        probe = HttpBackend(url, api_key_env="FAULT_KEY")
        with pytest.raises(gateway.ProviderHTTPError, match="unexpected status 400"):
            probe.complete(too_small)
        probe.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join()

    records = {(r["instance_id"], r["strategy"]): r for r in _records(tmp_path)}
    assert len(records) == 2 * 10 * 4
    unjudged = {key: r for key, r in records.items() if r["final"]["status"] == "BackendError"}
    assert all(r["final"]["status"] == "Success" for key, r in records.items()
               if key not in unjudged)
    faulted = {(i, unit): fault for i, unit, fault in met if fault in final}
    assert 0 < len(faulted) == sum(fault in final for *_, fault in met) < len(records)
    assert faulted.keys() == unjudged.keys()
    assert all(unjudged[key]["final"]["reason"].startswith(final[fault])
               for key, fault in faulted.items())
    kept = [a for r in unjudged.values() for a in r["attempts"]]
    assert kept and all(a["status"] == "Success" for a in kept)
    assert {fault for *_, fault in met} == {*retried, *final, "usage null", ""}
    for judged_after in (retried, ("usage null",)):
        assert {(i, unit) for i, unit, fault in met if fault in judged_after} - unjudged.keys()
    with open(tmp_path / "out" / "cells.csv", encoding="utf-8", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(cells) == 2 * 4 and all(0 < int(c["total"]) == int(c["successes"]) for c in cells)
    assert sum(int(c["total"]) for c in cells) == len(records) - len(unjudged)
    run_meta = json.loads((tmp_path / "out" / "run_meta.json").read_text(encoding="utf-8"))
    counted = sum(int(note.split(": ")[1].split(" of ")[0])
                  for note in run_meta["incomplete_cells"])
    assert counted == len(unjudged)
    # the log rebuilds the same tables, the incomplete list included
    assert main(["report", "--outcomes", str(tmp_path / "out" / "outcomes.jsonl"),
                 "--out", str(tmp_path / "rebuilt")]) == 0
    for name in ("report.md", "cells.csv"):
        assert ((tmp_path / "rebuilt" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes())

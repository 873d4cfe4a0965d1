import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from searchbench import __version__, cli, prompts, scaling
from searchbench.answers import canonical_text
from searchbench.gateway import MockBackend, ModelGateway, ResponseCache
from searchbench.generate import GenSpec, generate
from searchbench.cli import (
    ConfigError,
    ModelConfig,
    config_from_dict,
    dry_run,
    main,
    run,
    validate_config,
)
from searchbench.tasks import TaskKind, read_instances, write_instances

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
        ({"models": [ORACLE], "token_budget": "abc"}, "token_budget"),
        ({"models": [ORACLE], "token_budget": 0}, "token_budget"),
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
        ({"models": ["oracle"]}, "models[0]: expected an object"),
        ({"models": [ORACLE], "matrix": [["CoT", 3]]}, "matrix[0]: strategy 3 is not a string"),
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
    ],
)
def test_run_with_bad_config_exits_2(tmp_path, capsys, doc, prefix):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(prefix)


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
    assert list(stages) == ["execute", "generate", "load", "render", "report"]
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
    report = run(config_from_dict(_unreachable_http_doc(tmp_path, monkeypatch)), echo=QUIET)
    assert all(c.successes == 0 and c.total == 2 for c in report.cells)
    records = [
        json.loads(l)
        for l in (tmp_path / "out" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert all(r["final"]["status"] == "BackendError" for r in records)
    assert all("NO_SUCH_KEY_EVER" in r["final"]["reason"] for r in records)


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
    assert errors[0]["attempts"] == []
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
    oracle's units share each instance's verdicts across threads."""
    doc = _unreachable_http_doc(tmp_path, monkeypatch)
    doc["models"].append({"name": "m-oracle", "backend": "oracle"})
    doc["tasks"] = ["TripPlanning", "VertexCover"]
    run(config_from_dict(doc), echo=QUIET)
    outcomes = (tmp_path / "out" / "outcomes.jsonl").read_bytes()
    assert hashlib.sha256(outcomes).hexdigest() == (
        "1ff54efee46e682126ca7328f9cd2d3f1eae370d7f91f88800fc1630544a20f1"
    )


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
    statement_text = prompts.statement_text

    def counting(payload):
        built.append(payload)
        return statement_text(payload)

    monkeypatch.setattr(prompts, "statement_text", counting)
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


def test_one_text_keeps_each_instance_its_own_verdict(tmp_path):
    """The verdicts of a run are kept per instance: one cover text is right
    for the first instance and wrong for the second."""
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
    doc = _doc(tmp_path, models=[{"name": "m-mock", "backend": "mock", "script": ["nonsense"]}])
    doc.pop("matrix")
    config = config_from_dict(doc)
    plan = dry_run(config, echo=QUIET)
    run(config, echo=QUIET)
    records = [
        json.loads(line)
        for line in (tmp_path / "out" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert records and all(r["final"]["status"] != "Success" for r in records)
    assert sum(len(r["attempts"]) for r in records) == plan["max_backend_calls"]


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


def test_run_exits_2_naming_a_seed_that_fails_in_a_child(tmp_path, monkeypatch, capsys):
    """With two CPUs, every spec is generated in a pool worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fail_seeds(monkeypatch, TaskKind.TRIP_PLANNING, (1,))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_doc(tmp_path, instance_count=4)), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: no usable TripPlanning instance for level 3, seed 1 within 100 attempts\n"
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_prints_each_line_once_with_stdout_piped(tmp_path):
    """stdout to a pipe is block-buffered, so the ``generating`` line is still
    in the buffer when generation forks; a child that flushed its copy on
    exit would print the line again."""
    config = tmp_path / "config.json"
    doc = _doc(tmp_path, tasks=[k.value for k in TaskKind], instance_count=3)
    config.write_text(json.dumps(doc), encoding="utf-8")
    script = (
        "import os, sys; sys.path[:0] = sys.argv[2:]; "
        "os.sched_getaffinity = lambda pid: {0, 1, 2}; "
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


_RECORD = {
    "attempts": [], "final": {"reason": "", "status": "Success"},
    "instance_id": "TripPlanning-L3-s0", "level": 3, "mode": "CoT", "model": "m",
    "strategy": "ws", "task": "TripPlanning",
}


@pytest.mark.parametrize("line, message", [
    ("{not json", ":2: not JSON"),
    (json.dumps({k: v for k, v in _RECORD.items() if k != "level"}), ":2: missing key 'level'"),
    (json.dumps({**_RECORD, "final": {"status": "Maybe"}}), ":2: status: 'Maybe'"),
    (json.dumps({**_RECORD, "strategy": "qq:1"}), ":2: strategy: bad strategy 'qq:1'"),
    (json.dumps({**_RECORD, "level": "high"}), ":2: level:"),
    ("[1, 2]", ":2: final:"),
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
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
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


def test_a_budget_failure_reads_the_same_under_every_hash_seed(tmp_path):
    """Modes render in matrix order, so the first body over budget, and the
    error naming it, do not depend on the interpreter's hash seed."""
    config = tmp_path / "config.json"
    doc = _doc(tmp_path, tasks=["MeetingPlanning"], levels=[10], token_budget=1300)
    config.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    errors = []
    for hash_seed in ("1", "3"):
        done = subprocess.run(
            [sys.executable, "-m", "searchbench", "run", "--config", str(config)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 2
        errors.append(done.stderr)
    assert errors == [
        "error: Direct body for MeetingPlanning-L10-s0 is ≈3370 tokens after eliding "
        "every elidable step; budget 1300\n"
    ] * 2

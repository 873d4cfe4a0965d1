"""Every file the program reads refuses a field of the wrong JSON type.

Each input kind is mistyped one field at a time, with each of a float,
``true``, null, a string and a list that is not the field's own type.  A
JSONL line must be refused with an error naming ``path:line`` and the
field's key path; a config with a ConfigError naming the key path; a cache
line is skipped and counted.  Nothing is accepted and nothing else raises.
"""

import copy
import json
from pathlib import Path

import pytest

from searchbench.answers import canonical_text
from searchbench.cli import ConfigError, config_from_dict, main, read_outcomes
from searchbench.gateway import ResponseCache
from searchbench.generate import GenSpec, generate
from searchbench.tasks import (
    InputFileError,
    TaskKind,
    instance_to_record,
    read_instances,
    write_instances,
)

BAD = {"float": 1.5, "true": True, "null": None, "string": "7", "list": [7]}


def _name(path: tuple) -> str:
    """A key path as the program names it: ``payload.edges[0][1]``."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


def _fields(doc, path=()):
    """The path of every field under ``doc``; of an array, only its first
    element, which stands for the rest."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:1])
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


def _mistypes(doc, skip=(), nullable=()):
    """(path, copy of ``doc`` with that field replaced) for every field not
    under a ``skip`` prefix and every BAD value of another type than the
    field's own; null stays out for a ``nullable`` path."""
    for path in _fields(doc):
        if any(path[:len(prefix)] == prefix for prefix in skip):
            continue
        at = doc
        for key in path[:-1]:
            at = at[key]
        for bad in BAD.values():
            if type(bad) is type(at[path[-1]]) or (bad is None and path in nullable):
                continue
            changed = copy.deepcopy(doc)
            target = changed
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = bad
            yield path, changed


def _refused(read, cases, expect) -> list:
    """The ``_mistypes`` cases that ``read`` did not refuse as
    ``expect(path)``, an (exception class, message prefix), says, each
    with what happened instead."""
    wrong = []
    for path, changed in cases:
        try:
            read(changed)
        except Exception as err:  # noqa: BLE001 - any other error is a finding
            cls, prefix = expect(path)
            if not (isinstance(err, cls) and str(err).startswith(prefix)):
                wrong.append((_name(path), f"{type(err).__name__}: {err}"))
        else:
            wrong.append((_name(path), "accepted"))
    return wrong


def _instance(kind):
    return generate(GenSpec(kind=kind, level=3, seed=0))


@pytest.mark.parametrize("kind", list(TaskKind), ids=lambda k: k.value)
def test_every_instance_field_of_the_wrong_type_names_path_line_and_key(tmp_path, kind):
    record = instance_to_record(_instance(kind))
    path = tmp_path / "inst.jsonl"
    cases = list(_mistypes(record))
    assert len(cases) > 30

    def read(changed):
        path.write_text(json.dumps(changed) + "\n", encoding="utf-8")
        read_instances(path)

    expect = lambda p: (InputFileError, f"{path}:1: {_name(p)}: must be ")  # noqa: E731
    assert _refused(read, cases, expect) == []


def test_every_config_field_of_the_wrong_type_names_its_key_path():
    model = {"name": "m", "model": "m-1", "backend": "mock", "url": "http://127.0.0.1:1/v1",
             "dialect": "openai", "api_key_env": "KEY", "timeout_s": 30.5,
             "requests_per_second": 0.5, "script": ["x"]}
    doc = {"tasks": ["ThreeDM"], "levels": [3], "models": [model], "matrix": [["CoT", "ws"]],
           "instance_count": 2, "seed": 0, "concurrency": 2, "cache_path": "c.jsonl",
           "out_dir": "out", "max_tokens": 100}
    config_from_dict(doc)
    cases = list(_mistypes(doc, nullable={("cache_path",)}))
    assert len(cases) > 60
    assert _refused(config_from_dict, cases, lambda p: (ConfigError, f"{_name(p)}: ")) == []


def test_every_answers_field_of_the_wrong_type_exits_2_naming_path_line_and_key(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    instance = _instance(TaskKind.THREE_DM)
    write_instances("inst.jsonl", [instance])
    answer = {"instance_id": instance.id,
              "text": canonical_text(instance.payload, instance.ground_truth)}

    def read(changed):
        Path("answers.jsonl").write_text(json.dumps(changed) + "\n", encoding="utf-8")
        code = main(["verify", "--instances", "inst.jsonl", "--answers", "answers.jsonl"])
        out, err = capsys.readouterr()
        if code != 2 or out:
            return
        raise InputFileError(err)

    cases = list(_mistypes(answer))
    assert len(cases) == 8
    assert _refused(read, cases, lambda p: (
        InputFileError, f"error: answers.jsonl:1: {_name(p)}: must be a string, not "
    )) == []


def _outcome_line() -> dict:
    return {
        "attempts": [{"digest": "ab" * 32, "reason": "", "round": 0, "sample": 0,
                      "status": "Success"}],
        "final": {"reason": "", "status": "Success"},
        "instance_id": "MeetingPlanning-L10-s1", "level": 10, "mode": "AoT",
        "model": "checker", "strategy": "is", "task": "MeetingPlanning",
    }


def test_every_outcome_field_of_the_wrong_type_names_path_line_and_key(tmp_path):
    path = tmp_path / "outcomes.jsonl"
    path.write_text(json.dumps(_outcome_line()) + "\n", encoding="utf-8")
    assert len(read_outcomes(path)) == 1
    cases = list(_mistypes(_outcome_line()))
    assert len(cases) == 38 + 31

    def read(changed):
        path.write_text(json.dumps(changed) + "\n", encoding="utf-8")
        read_outcomes(path)

    expect = lambda p: (InputFileError, f"{path}:1: {_name(p)}: must be ")  # noqa: E731
    assert _refused(read, cases, expect) == []


def test_every_attempt_field_of_the_wrong_type_exits_2_naming_path_line_and_key(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    line = _outcome_line()
    cases = [(path, changed) for path, changed in _mistypes(line) if path[0] == "attempts"]
    assert len(cases) == 31

    def read(changed):
        Path("outcomes.jsonl").write_text(json.dumps(changed) + "\n", encoding="utf-8")
        code = main(["report", "--outcomes", "outcomes.jsonl", "--out", "rep"])
        out, err = capsys.readouterr()
        if code != 2 or out:
            return
        raise InputFileError(err)

    assert _refused(read, cases, lambda p: (
        InputFileError, f"error: outcomes.jsonl:1: {_name(p)}: must be "
    )) == []
    assert not Path("rep").exists()


def test_a_run_meta_instance_count_of_the_wrong_type_is_an_error_naming_file_and_key(
    tmp_path, capsys
):
    log = tmp_path / "outcomes.jsonl"
    log.write_text(json.dumps(_outcome_line()) + "\n", encoding="utf-8")
    meta = {"config": {"instance_count": 1}}
    cases = list(_mistypes(meta))
    assert len(cases) == 10
    wrong = []
    for path, changed in cases:
        (tmp_path / "run_meta.json").write_text(json.dumps(changed), encoding="utf-8")
        code = main(["report", "--outcomes", str(log), "--out", str(tmp_path / "rep")])
        out, err = capsys.readouterr()
        if (code, out) != (2, "") or not err.startswith(
            f"error: cannot read {tmp_path / 'run_meta.json'}: ValueError("
        ) or f"{_name(path)}: must be " not in err:
            wrong.append((_name(path), code, out, err))
    assert wrong == []


def test_every_cache_field_of_the_wrong_type_skips_and_counts_the_line(tmp_path):
    """The ``model`` of a cache line is not read, so it is not mistyped here."""
    good = {"digest": "ab" * 32, "model": "m", "response": {
        "text": "x", "thinking_text": "", "prompt_tokens": 1, "completion_tokens": 2,
        "thinking_tokens": 0, "latency_ms": 3, "provider_meta": {"stop_reason": "end"}}}
    other = {**good, "digest": "cd" * 32}
    path = tmp_path / "cache.jsonl"
    cases = list(_mistypes(other, skip={("model",), ("response", "provider_meta", "stop_reason")}))
    assert len(cases) == 42

    class Skipped(Exception):
        pass

    def read(changed):
        path.write_text(json.dumps(good) + "\n" + json.dumps(changed) + "\n", encoding="utf-8")
        cache = ResponseCache(path)
        if (len(cache), cache.skipped_lines) == (1, 1):
            raise Skipped

    assert _refused(read, cases, lambda p: (Skipped, "")) == []


# ---------------------------------------------------------------------------
# Regressions: each read a mistyped field as some other value
# ---------------------------------------------------------------------------


def test_report_refuses_an_outcome_line_with_a_float_level_and_a_null_model(
    tmp_path, capsys
):
    """Such a line once gave the row ``MeetingPlanning,10,None,AoT,is,1,1,1.0``."""
    log = tmp_path / "outcomes.jsonl"
    log.write_text(json.dumps({**_outcome_line(), "level": 10.9, "model": None},
                              sort_keys=True) + "\n", encoding="utf-8")
    assert main(["report", "--outcomes", str(log), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == (
        f"error: {log}:1: level: must be an integer, not 10.9\n"
    )
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "traces.jsonl"],
    ["render", "--mode", "Direct", "--out", "prompts"],
    ["verify", "--answers", "answers.jsonl"],
], ids=["solve", "render", "verify"])
def test_a_float_vertex_count_exits_2_naming_path_line_and_key(
    tmp_path, monkeypatch, capsys, argv
):
    """``solve`` once raised a TypeError, and ``render`` wrote a graph with
    "10.0 vertices, labeled V0 through V9.0"."""
    monkeypatch.chdir(tmp_path)
    record = instance_to_record(_instance(TaskKind.VERTEX_COVER))
    record["payload"]["vertex_count"] = float(record["payload"]["vertex_count"])
    Path("inst.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    Path("answers.jsonl").write_text(
        json.dumps({"instance_id": record["id"], "text": "V0"}) + "\n", encoding="utf-8"
    )
    assert main([argv[0], "--instances", "inst.jsonl", *argv[1:]]) == 2
    count = record["payload"]["vertex_count"]
    assert capsys.readouterr() == (
        "", f"error: inst.jsonl:1: payload.vertex_count: must be an integer, not {count!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["answers.jsonl", "inst.jsonl"]


def test_ground_truth_vertices_given_as_strings_are_refused(tmp_path, capsys):
    record = instance_to_record(_instance(TaskKind.VERTEX_COVER))
    record["ground_truth"]["vertices"] = [str(v) for v in record["ground_truth"]["vertices"]]
    path = tmp_path / "inst.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    first = record["ground_truth"]["vertices"][0]
    message = f"{path}:1: ground_truth.vertices[0]: must be an integer, not {first!r}"
    with pytest.raises(InputFileError, match=f"^{message}$".replace("[", r"\[")):
        read_instances(path)
    assert main(["solve", "--instances", str(path), "--out", str(tmp_path / "t.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


"""Every config the validator accepts gives a run that stands and tables
that can be trusted: a property over drawn configs.

Each draw takes 1-4 tasks, 1-2 levels, 1-3 instances from any seed, a
matrix of 1-3 modes by 1-4 strategy kinds with a drawn ``:N``, and an
oracle, a scripted mock or both.  Half the draws start at an exemplar's
seed with level 6 among the levels, so that exemplar's task has a target
some of whose prompts cannot be rendered.  It runs the config cold, again
from the same cache, rebuilds the report from the log and plans it with
``--dry-run``, each from the command line in a directory of its own.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from searchbench.cli import main
from searchbench.generate import EXEMPLAR_LEVEL, exemplar_instance
from searchbench.prompts import DIRECT_SHOT_COUNT, PromptMode
from searchbench.tasks import TaskKind

_SPECS = {
    "ws": st.just("ws"),
    "ps": st.integers(1, 4).map("ps:{}".format),
    "ss": st.integers(1, 3).map("ss:{}".format),
    "is": st.one_of(st.just("is"), st.integers(0, 20_000).map("is:{}".format)),
}


@st.composite
def _configs(draw) -> dict:
    def some(values, most):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=most, unique=True))

    modes = some([m.value for m in PromptMode], 3)
    models = [{"name": "oracle", "backend": "oracle"},
              {"name": "mock", "backend": "mock",
               "script": draw(st.lists(st.text(max_size=20), max_size=3))}]
    tasks = some([k.value for k in TaskKind], 4)
    levels = some(list(range(1, EXEMPLAR_LEVEL + 1)), 2)
    seed = draw(st.integers(-5, 10**6))
    if draw(st.booleans()):  # the first target of one task is one of its exemplars
        exemplar = exemplar_instance(TaskKind(draw(st.sampled_from(tasks))),
                                     draw(st.integers(0, DIRECT_SHOT_COUNT - 1)))
        seed, levels = exemplar.seed, list(dict.fromkeys([levels[0], EXEMPLAR_LEVEL]))
    return {
        "tasks": tasks,
        "levels": levels,
        "instance_count": draw(st.integers(1, 3)),
        "seed": seed,
        "matrix": [[mode, draw(_SPECS[kind])] for kind in some(list(_SPECS), 4)
                   for mode in modes],
        "max_tokens": draw(st.integers(1, 8192)),
        "models": draw(st.sampled_from([models[:1], models[1:], models])),
    }


def _main(*argv) -> tuple[int, str]:
    """``searchbench ARGV``'s exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


@settings(max_examples=30, deadline=None)
@given(_configs())
def test_every_drawn_config_runs_replays_reports_and_plans_faithfully(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, cache = tmp / "config.json", tmp / "cache.jsonl"
        config.write_text(json.dumps(doc), encoding="utf-8")
        for out in ("cold", "warm"):
            assert _main("run", "--config", config, "--cache", cache, "--out", tmp / out)[0] == 0
        cold, warm = tmp / "cold", tmp / "warm"
        for name in ("outcomes.jsonl", "cells.csv", "report.md"):
            assert (cold / name).read_bytes() == (warm / name).read_bytes(), name
        stats = json.loads((warm / "run_meta.json").read_text(encoding="utf-8"))["cache_stats"]
        assert [s["misses"] for s in stats.values()] == [0] * len(doc["models"])

        assert _main("report", "--outcomes", cold / "outcomes.jsonl", "--out", tmp / "rep")[0] == 0
        for name in ("cells.csv", "report.md"):
            assert (cold / name).read_bytes() == (tmp / "rep" / name).read_bytes(), name

        code, printed = _main("run", "--config", config, "--dry-run")
        assert code == 0
        plan = dict(line.split(": ", 1) for line in printed.splitlines())
        lines = (cold / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        unprompted = {(r["instance_id"], r["mode"]) for r in records
                      if r["final"]["status"] == "BackendError" and not r["attempts"]}
        event("some prompts unrenderable" if unprompted else "every prompt rendered")
        assert int(plan["unrenderable_prompts"]) == len(unprompted)
        assert sum(len(r["attempts"]) for r in records) <= int(plan["max_backend_calls"])
        assert [r for r in records if r["model"] == "oracle"
                and (r["instance_id"], r["mode"]) not in unprompted
                and r["final"]["status"] != "Success"] == []

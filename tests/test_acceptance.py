"""End-to-end acceptance gate.

Nine numbered checks, one per shipped guarantee, each printing its own
pass/fail line under ``pytest -v``.  Stated time bounds are asserted inside
the tests themselves.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from searchbench.answers import canonical_text, evaluate, parse_answer, verify
from searchbench.cli import config_from_dict, run
from searchbench.generate import GenSpec, generate
from searchbench.gateway import MockBackend, ModelGateway
from searchbench.prompts import PromptMode, Shots, default_exemplars, render
from searchbench.reporting import aggregate, render_report_md
from searchbench.scaling import (
    RunOutcome,
    ScalingKind,
    ScalingStrategy,
    execute,
)
from searchbench.solver import Action, SearchMode, solve
from searchbench.tasks import TaskKind, Verdict, VerdictStatus

from conftest import ENUMERABLE_LEVELS, cells_csv_mismatches
from reference import enumerate_all

DOCS = Path(__file__).resolve().parents[1] / "docs" / "prompt-formats"
QUIET = lambda s: None


def test_01_fixture_search_shape_and_reference_answer(reference_trip):
    started = time.monotonic()

    trace = solve(reference_trip, SearchMode.DFS)
    assert trace.succeeded
    assert [leg.city for leg in trace.solution.legs] == [
        "Edinburgh", "Milan", "Copenhagen", "Riga", "Vilnius", "Brussels",
    ]

    # the first root (Riga) is opened, every child pruned, and the subtree
    # closed by a backtrack before the second root (Edinburgh) is opened
    roots = [
        i for i, e in enumerate(trace.events)
        if e.action is Action.EXPANSION and e.depth == 1
    ]
    assert [trace.events[i].move for i in roots[:2]] == ["Riga", "Edinburgh"]
    riga_subtree = trace.events[roots[0] + 1 : roots[1]]
    assert all(e.action is Action.PRUNE for e in riga_subtree[:-1])
    assert riga_subtree[-1].action is Action.BACKTRACK
    assert all(e.action is not Action.SUCCESS for e in riga_subtree)

    # the bundled reference answer text passes the verifier as-is
    answer_text = (DOCS / "appendixB-task1.answer.txt").read_text(encoding="utf-8")
    _, verdict = evaluate(reference_trip, answer_text)
    assert verdict.status is VerdictStatus.SUCCESS

    assert time.monotonic() - started < 1.0


def test_02_exact_solver_agrees_with_brute_force_enumeration():
    started = time.monotonic()
    mismatches = 0
    for kind, levels in ENUMERABLE_LEVELS.items():
        for i in range(200):
            inst = generate(GenSpec(kind=kind, level=levels[i % len(levels)], seed=i))
            trace = solve(inst, SearchMode.DFS)
            solutions = enumerate_all(inst)
            if trace.succeeded != bool(solutions):
                mismatches += 1
                continue
            if kind is TaskKind.VERTEX_COVER:
                optimum = len(next(iter(solutions)).vertices)
                agreed = len(trace.solution.vertices) == optimum
            elif kind is TaskKind.MEETING_PLANNING:
                optimum = len(solutions[0].meetings)
                agreed = len(trace.solution.meetings) == optimum
            else:  # exact-cover style: the found solution must be enumerated
                agreed = trace.solution in solutions
            if not agreed or verify(inst, trace.solution).status is not VerdictStatus.SUCCESS:
                mismatches += 1
    assert mismatches == 0
    assert time.monotonic() - started < 300.0


def test_03_oracle_run_solves_every_cell(tmp_path):
    started = time.monotonic()
    config = config_from_dict(
        {
            "tasks": [k.value for k in TaskKind],
            "levels": [4],
            "instance_count": 10,
            "seed": 0,
            "models": [{"name": "oracle-check", "backend": "oracle"}],
            "out_dir": str(tmp_path / "out"),
            "cache_path": str(tmp_path / "cache.jsonl"),
            "concurrency": 4,
        }
    )
    assert len(config.matrix) == 12
    report = run(config, echo=QUIET)
    assert len(report.cells) == 4 * 12
    assert report.incomplete == ()
    assert all(cell.label == "10/10 = 100%" for cell in report.cells)
    assert time.monotonic() - started < 120.0


def test_04_fixed_verdict_sets_render_exact_cell_strings():
    # success counts per task -> model -> strategy -> (Direct, CoT, AoT)
    data = {
        TaskKind.VERTEX_COVER: {
            "model-a": {"ws": (0, 0, 0), "ps:3": (0, 0, 0), "ss:1": (0, 0, 0), "is": (0, 1, 2)},
            "model-b": {"ws": (0, 1, 1), "ps:3": (0, 4, 4), "ss:1": (0, 5, 3), "is": (2, 21, 31)},
        },
        TaskKind.TRIP_PLANNING: {
            "model-a": {"ws": (0, 0, 0), "ps:3": (0, 0, 0), "ss:1": (0, 0, 1), "is": (0, 24, 30)},
            "model-b": {"ws": (0, 2, 3), "ps:3": (0, 8, 9), "ss:1": (0, 9, 7), "is": (4, 26, 40)},
        },
        TaskKind.THREE_DM: {
            "model-a": {"ws": (0, 0, 0), "ps:3": (0, 0, 0), "ss:1": (0, 0, 0), "is": (0, 1, 1)},
            "model-b": {"ws": (0, 0, 0), "ps:3": (0, 0, 0), "ss:1": (0, 0, 0), "is": (1, 2, 15)},
        },
        TaskKind.MEETING_PLANNING: {
            "model-a": {"ws": (0, 0, 0), "ps:3": (0, 0, 0), "ss:1": (0, 0, 1), "is": (0, 1, 8)},
            "model-b": {"ws": (0, 0, 0), "ps:3": (0, 1, 1), "ss:1": (0, 1, 1), "is": (1, 8, 20)},
        },
    }
    modes = (PromptMode.DIRECT, PromptMode.COT, PromptMode.AOT)
    outcomes: list[RunOutcome] = []
    for task, blocks in data.items():
        for model, rows in blocks.items():
            for spec, counts in rows.items():
                for mode, successes in zip(modes, counts):
                    for i in range(100):
                        verdict = (
                            Verdict(VerdictStatus.SUCCESS)
                            if i < successes
                            else Verdict(VerdictStatus.WRONG_ANSWER, "off")
                        )
                        outcomes.append(
                            RunOutcome(
                                instance_id=f"{task.value}-L10-s{i}",
                                task=task,
                                level=10,
                                model=model,
                                mode=mode,
                                strategy=ScalingStrategy.parse(spec),
                                attempts=(),
                                final=verdict,
                            )
                        )

    text = render_report_md(aggregate(outcomes))

    for required in (
        "21/100 = 21%", "31/100 = 31%",   # table 1
        "40/100 = 40%", "24/100 = 24%",   # table 2
        "15/100 = 15%",                   # table 3
        "20/100 = 20%", "8/100 = 8%",     # table 4
    ):
        assert required in text, required

    sections = {}
    for number, display in (
        (1, "Vertex Cover"), (2, "Trip Planning"),
        (3, "3-Dimensional Matching (3DM)"), (4, "Meeting Planning"),
    ):
        caption = f"## Table {number}: Performance on *{display}* (Difficulty Level = 10)"
        assert caption in text
        start = text.index(caption)
        rest = text[start + len(caption):]
        end = rest.find("## Table")
        sections[number] = rest if end < 0 else rest[:end]

    think = "Internal Scaling (Thinking Mode)"
    assert f"| model-b | {think} | 2/100 = 2% | 21/100 = 21% | 31/100 = 31% |" in sections[1]
    assert f"| model-a | {think} | 0/100 = 0% | 24/100 = 24% | 30/100 = 30% |" in sections[2]
    assert f"| model-b | {think} | 4/100 = 4% | 26/100 = 26% | 40/100 = 40% |" in sections[2]
    assert f"| model-b | {think} | 1/100 = 1% | 2/100 = 2% | 15/100 = 15% |" in sections[3]
    assert f"| model-a | {think} | 0/100 = 0% | 1/100 = 1% | 8/100 = 8% |" in sections[4]
    assert f"| model-b | {think} | 1/100 = 1% | 8/100 = 8% | 20/100 = 20% |" in sections[4]


def test_05_canonical_render_parse_round_trip():
    started = time.monotonic()
    failures = 0
    for kind, levels in ENUMERABLE_LEVELS.items():
        for i in range(125):
            inst = generate(GenSpec(kind=kind, level=levels[i % len(levels)], seed=i))
            text = canonical_text(inst.payload, inst.ground_truth)
            report = parse_answer(inst.payload, text)
            if report.candidate != inst.ground_truth:
                failures += 1
    assert failures == 0
    assert time.monotonic() - started < 30.0


def test_06_prompt_goldens_byte_identical(reference_trip):
    for mode, name in (
        (PromptMode.DIRECT, "appendixB-task1.direct.txt"),
        (PromptMode.COT, "appendixB-task1.cot.txt"),
        (PromptMode.AOT, "appendixB-task1.aot.txt"),
    ):
        bundle = render(reference_trip, Shots(mode, default_exemplars(reference_trip.kind)))
        golden = (DOCS / name).read_text(encoding="utf-8")
        rendered = f"{bundle.system_text}\n\n{bundle.body}\n"
        assert rendered == golden, f"{name} drifted"
        if mode is PromptMode.AOT:
            assert bundle.body.count("Prune") >= 1
        if mode is PromptMode.COT:
            assert bundle.body.count("Prune") == 0


def test_07_cached_rerun_is_bit_identical_with_zero_backend_calls(tmp_path):
    doc = {
        "tasks": ["TripPlanning", "VertexCover"],
        "levels": [3],
        "instance_count": 3,
        "seed": 0,
        "models": [{"name": "oracle-replay", "backend": "oracle"}],
        "matrix": [["Direct", "ws"], ["CoT", "ps:2"], ["AoT", "ss:1"], ["AoT", "is"]],
        "cache_path": str(tmp_path / "cache.jsonl"),
        "concurrency": 2,
    }
    run(config_from_dict(dict(doc, out_dir=str(tmp_path / "one"))), echo=QUIET)
    replay = run(config_from_dict(dict(doc, out_dir=str(tmp_path / "two"))), echo=QUIET)

    for name in (
        "report.md",
        "cells.csv",
        "outcomes.jsonl",
        "plotdata/VertexCover.csv",
        "plotdata/TripPlanning.csv",
    ):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second, f"{name} differs between runs"

    meta = json.loads((tmp_path / "two" / "run_meta.json").read_text(encoding="utf-8"))
    stats = meta["cache_stats"]["oracle-replay"]
    assert stats["misses"] == 0, "replay reached the backend"
    assert stats["hits"] > 0
    assert replay.cells
    assert cells_csv_mismatches(tmp_path / "two" / "cells.csv", replay.cells) == []


def test_08_scaling_contracts_hold_over_randomized_logs():
    rng = random.Random(20260819)
    pool = [
        generate(GenSpec(kind=kind, level=2, seed=seed))
        for kind in (TaskKind.VERTEX_COVER, TaskKind.TRIP_PLANNING)
        for seed in range(3)
    ]
    bundles = {
        inst.id: render(inst, Shots(PromptMode.COT, default_exemplars(inst.kind)))
        for inst in pool
    }
    rights = {inst.id: canonical_text(inst.payload, inst.ground_truth) for inst in pool}

    for _ in range(1000):
        inst = rng.choice(pool)
        pick = rng.randrange(4)
        if pick == 0:
            strategy = ScalingStrategy.parse("ws")
            plan = [rng.random() < 0.5]
        elif pick == 1:
            strategy = ScalingStrategy.parse(f"ps:{rng.randint(1, 4)}")
            plan = [rng.random() < 0.4 for _ in range(strategy.arg)]
        elif pick == 2:
            strategy = ScalingStrategy.parse(f"ss:{rng.randint(1, 3)}")
            plan = [rng.random() < 0.4 for _ in range(strategy.arg + 1)]
        else:
            strategy = ScalingStrategy.parse("is")
            plan = [rng.random() < 0.5]

        backend = MockBackend(
            [rights[inst.id] if ok else "no usable plan here" for ok in plan]
        )
        outcome = execute(
            ModelGateway(backend), inst, bundles[inst.id], strategy, model="sim"
        )

        internal = strategy.kind is ScalingKind.INTERNAL
        assert all(req.thinking == internal for req in backend.calls)

        if strategy.kind is ScalingKind.PARALLEL:
            # any-correct: success iff at least one of the n samples verifies
            assert len(outcome.attempts) == strategy.arg
            assert outcome.success == any(plan)
        elif strategy.kind is ScalingKind.SEQUENTIAL:
            # early stop: calls run only until the first verified round
            first_good = plan.index(True) if True in plan else None
            expected_calls = (
                first_good + 1 if first_good is not None else strategy.arg + 1
            )
            assert len(backend.calls) == expected_calls
            assert outcome.success == (first_good is not None)
            assert all(a.verdict.status is not VerdictStatus.SUCCESS for a in outcome.attempts[:-1])
        else:
            assert len(backend.calls) == 1
            assert outcome.success == plan[0]


@pytest.mark.skipif(
    not os.environ.get("BENCH_LIVE_SMOKE"),
    reason="live smoke disabled; set BENCH_LIVE_SMOKE=1 with BENCH_LIVE_URL/"
    "BENCH_LIVE_MODEL (and optionally BENCH_LIVE_DIALECT, BENCH_LIVE_API_KEY_ENV)",
)
def test_09_live_backend_smoke(tmp_path):
    url = os.environ.get("BENCH_LIVE_URL")
    model = os.environ.get("BENCH_LIVE_MODEL")
    if not url or not model:
        pytest.skip("BENCH_LIVE_URL and BENCH_LIVE_MODEL are required")
    config = config_from_dict(
        {
            "tasks": ["TripPlanning"],
            "levels": [6],
            "instance_count": 5,
            "seed": 0,
            "models": [
                {
                    "name": "live",
                    "backend": "http",
                    "model": model,
                    "url": url,
                    "dialect": os.environ.get("BENCH_LIVE_DIALECT", "anthropic"),
                    "api_key_env": os.environ.get(
                        "BENCH_LIVE_API_KEY_ENV", "ANTHROPIC_API_KEY"
                    ),
                    "requests_per_second": 1.0,
                }
            ],
            "matrix": [["CoT", "ws"]],
            "out_dir": str(tmp_path / "out"),
            "cache_path": str(tmp_path / "cache.jsonl"),
            "concurrency": 1,
        }
    )
    report = run(config, echo=QUIET)
    records = [
        json.loads(line)
        for line in (tmp_path / "out" / "outcomes.jsonl")
        .read_text(encoding="utf-8")
        .splitlines()
    ]
    assert len(records) == 5
    assert all(r["final"]["status"] != "BackendError" for r in records)
    assert (tmp_path / "out" / "report.md").exists()
    assert cells_csv_mismatches(tmp_path / "out" / "cells.csv", report.cells) == []

import dataclasses
import json

import pytest

from searchbench.prompts import PromptMode
from searchbench.reporting import (
    MODE_COLUMNS,
    PLOT_CONFIGURATIONS,
    STRATEGY_ROWS,
    TASK_DISPLAY,
    TASK_ORDER,
    AblationCell,
    ReportError,
    aggregate,
    emit,
    read_cells_csv,
    render_report_md,
    write_cells_csv,
)
from searchbench.scaling import RunOutcome, ScalingStrategy
from searchbench.tasks import TaskKind, Verdict, VerdictStatus

OK = Verdict(VerdictStatus.SUCCESS)
BAD = Verdict(VerdictStatus.WRONG_ANSWER, "off by one")


def _outcome(instance_id, task=TaskKind.VERTEX_COVER, mode=PromptMode.COT,
             strategy="ws", good=True, level=10, model="m"):
    return RunOutcome(
        instance_id=instance_id,
        task=task,
        level=level,
        model=model,
        mode=mode,
        strategy=ScalingStrategy.parse(strategy),
        attempts=(),
        final=OK if good else BAD,
    )


def _fill(task, mode, strategy, successes, total, level=10, model="m"):
    """A full synthetic cell: `successes` solved + the rest failed."""
    outcomes = []
    for i in range(total):
        outcomes.append(
            _outcome(f"{task.value}-L{level}-s{i}", task, mode, strategy,
                     good=i < successes, level=level, model=model)
        )
    return outcomes


# ---------------------------------------------------------------------------
# Fixed vocabulary
# ---------------------------------------------------------------------------


def test_table_order_and_captions():
    assert TASK_ORDER == (
        TaskKind.VERTEX_COVER,
        TaskKind.TRIP_PLANNING,
        TaskKind.THREE_DM,
        TaskKind.MEETING_PLANNING,
    )
    assert TASK_DISPLAY[TaskKind.THREE_DM] == "3-Dimensional Matching (3DM)"
    assert list(STRATEGY_ROWS.values()) == [
        "No Scaling (Base Model)",
        "Parallel Scaling (Best-of-N)",
        "Sequential Scaling (Self-Refine)",
        "Internal Scaling (Thinking Mode)",
    ]
    assert list(MODE_COLUMNS.values()) == [
        "Direct Prompting",
        "Greedy Search (CoT)",
        "Depth-First Search (AoT)",
    ]


def test_plot_configurations_mode_major():
    assert len(PLOT_CONFIGURATIONS) == 12
    assert PLOT_CONFIGURATIONS[0] == "Direct-WS"
    assert PLOT_CONFIGURATIONS[3] == "Direct-IS"
    assert PLOT_CONFIGURATIONS[4] == "CoT-WS"
    assert PLOT_CONFIGURATIONS[-1] == "AoT-IS"


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def test_cell_label_and_rate():
    cell = AblationCell(
        task=TaskKind.VERTEX_COVER, level=10, model="m", prompt_mode=PromptMode.AOT,
        strategy=ScalingStrategy.parse("is"), successes=31, total=100,
    )
    assert cell.label == "31/100 = 31%"
    assert cell.rate == 0.31
    assert cell.configuration == "AoT-IS"
    rounded = AblationCell(
        task=TaskKind.VERTEX_COVER, level=10, model="m", prompt_mode=PromptMode.COT,
        strategy=ScalingStrategy.parse("ws"), successes=1, total=3,
    )
    assert rounded.label == "1/3 = 33%"


def test_cell_rejects_impossible_counts():
    with pytest.raises(ReportError):
        AblationCell(
            task=TaskKind.VERTEX_COVER, level=10, model="m", prompt_mode=PromptMode.COT,
            strategy=ScalingStrategy.parse("ws"), successes=5, total=3,
        )
    with pytest.raises(ReportError):
        AblationCell(
            task=TaskKind.VERTEX_COVER, level=10, model="m", prompt_mode=PromptMode.COT,
            strategy=ScalingStrategy.parse("ws"), successes=-1, total=3,
        )


def test_empty_cell_rate_is_zero():
    cell = AblationCell(
        task=TaskKind.VERTEX_COVER, level=10, model="m", prompt_mode=PromptMode.COT,
        strategy=ScalingStrategy.parse("ws"), successes=0, total=0,
    )
    assert cell.rate == 0.0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_counts_and_orders():
    outcomes = (
        _fill(TaskKind.TRIP_PLANNING, PromptMode.AOT, "is", 2, 5)
        + _fill(TaskKind.TRIP_PLANNING, PromptMode.DIRECT, "ws", 1, 5)
        + _fill(TaskKind.VERTEX_COVER, PromptMode.COT, "ps:3", 4, 5)
    )
    report = aggregate(outcomes)
    assert [c.task for c in report.cells] == [
        TaskKind.VERTEX_COVER, TaskKind.TRIP_PLANNING, TaskKind.TRIP_PLANNING,
    ]
    by_label = {(c.task, c.prompt_mode): c for c in report.cells}
    assert by_label[(TaskKind.VERTEX_COVER, PromptMode.COT)].successes == 4
    assert by_label[(TaskKind.TRIP_PLANNING, PromptMode.AOT)].label == "2/5 = 40%"
    assert report.incomplete == ()


def test_aggregate_rejects_duplicate_identity():
    twice = [_outcome("X-1"), _outcome("X-1")]
    with pytest.raises(ReportError):
        aggregate(twice)


def test_aggregate_same_instance_across_cells_is_fine():
    outcomes = [
        _outcome("X-1", strategy="ws"),
        _outcome("X-1", strategy="ps:3"),
        _outcome("X-1", mode=PromptMode.AOT),
    ]
    report = aggregate(outcomes)
    assert len(report.cells) == 3


def test_aggregate_flags_incomplete_cells():
    report = aggregate(
        _fill(TaskKind.THREE_DM, PromptMode.COT, "ws", 1, 3),
        expected_per_cell=5,
    )
    assert len(report.incomplete) == 1
    assert "3 of 5 instances" in report.incomplete[0]
    assert report.cells[0].total == 3  # still reported


def test_aggregate_keys_cells_by_level():
    outcomes = (
        _fill(TaskKind.TRIP_PLANNING, PromptMode.COT, "ws", 2, 2, level=4)
        + _fill(TaskKind.TRIP_PLANNING, PromptMode.COT, "ws", 1, 2, level=3)
        + _fill(TaskKind.TRIP_PLANNING, PromptMode.AOT, "is", 0, 1, level=3)
    )
    report = aggregate(outcomes, expected_per_cell=2)
    assert [(c.level, c.label) for c in report.cells] == [
        (3, "1/2 = 50%"), (3, "0/1 = 0%"), (4, "2/2 = 100%"),
    ]
    assert report.incomplete == ("TripPlanning/L3/m/AoT/is: 1 of 2 instances",)
    text = render_report_md(report)
    assert "## Table 1: Performance on *Trip Planning* (Difficulty Level = 3)" in text
    assert "## Table 2: Performance on *Trip Planning* (Difficulty Level = 4)" in text
    assert text.count("## Table") == 2


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------


def test_report_md_layout():
    outcomes = (
        _fill(TaskKind.VERTEX_COVER, PromptMode.DIRECT, "ws", 0, 4, 7, "m-x")
        + _fill(TaskKind.VERTEX_COVER, PromptMode.COT, "ws", 2, 4, 7, "m-x")
        + _fill(TaskKind.TRIP_PLANNING, PromptMode.AOT, "is", 3, 4, 7, "m-x")
    )
    text = render_report_md(aggregate(outcomes))
    assert "## Table 1: Performance on *Vertex Cover* (Difficulty Level = 7)" in text
    assert "## Table 2: Performance on *Trip Planning* (Difficulty Level = 7)" in text
    assert "3-Dimensional" not in text  # absent tasks produce no table
    assert "| Model | Evaluation Strategy | Direct Prompting | Greedy Search (CoT) | Depth-First Search (AoT) |" in text
    assert "| m-x | No Scaling (Base Model) | 0/4 = 0% | 2/4 = 50% | — |" in text
    assert "| m-x | Internal Scaling (Thinking Mode) | — | — | 3/4 = 75% |" in text
    assert "Parallel Scaling" not in text  # all-empty rows are dropped


def test_report_md_sorts_models_alphabetically():
    zulu = aggregate(_fill(TaskKind.THREE_DM, PromptMode.COT, "ws", 1, 2, model="zulu"))
    alpha = aggregate(_fill(TaskKind.THREE_DM, PromptMode.COT, "ws", 2, 2, model="alpha"))
    merged = type(zulu)(cells=tuple(sorted(
        zulu.cells + alpha.cells, key=AblationCell.sort_key
    )))
    text = render_report_md(merged)
    assert text.index("| alpha |") < text.index("| zulu |")


def test_report_md_incomplete_banner():
    report = aggregate(
        _fill(TaskKind.THREE_DM, PromptMode.COT, "ws", 1, 3),
        expected_per_cell=10,
    )
    text = render_report_md(report)
    assert "**Incomplete cells:**" in text
    assert "3 of 10 instances" in text


def test_report_md_empty_report():
    text = render_report_md(aggregate([]))
    assert text.startswith("# Success-rate ablation")
    assert "## Table" not in text


# ---------------------------------------------------------------------------
# CSV and plot data round trips
# ---------------------------------------------------------------------------


def test_cells_csv_round_trip(tmp_path):
    outcomes = (
        _fill(TaskKind.VERTEX_COVER, PromptMode.COT, "ps:3", 1, 3)
        + _fill(TaskKind.MEETING_PLANNING, PromptMode.AOT, "is:2048", 2, 3)
        + _fill(TaskKind.MEETING_PLANNING, PromptMode.AOT, "is:2048", 1, 3, level=3)
    )
    report = aggregate(outcomes)
    path = tmp_path / "cells.csv"
    write_cells_csv(report, path)
    assert read_cells_csv(path) == list(report.cells)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "task,level,model,prompt_mode,strategy,successes,total,rate"


def test_cells_csv_detects_tampered_rate(tmp_path):
    report = aggregate(_fill(TaskKind.THREE_DM, PromptMode.COT, "ws", 1, 3))
    path = tmp_path / "cells.csv"
    write_cells_csv(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",0.99"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ReportError):
        read_cells_csv(path)


def test_emit_writes_all_artifacts(tmp_path):
    outcomes = []
    for strategy in ("ws", "ps:3", "ss:1", "is"):
        for mode in PromptMode:
            outcomes += _fill(TaskKind.TRIP_PLANNING, mode, strategy, 1, 2)
    report = dataclasses.replace(
        aggregate(outcomes), run_meta={"level": 10, "started_at": "2026-01-01T00:00:00Z"}
    )
    paths = emit(report, tmp_path / "out")
    assert paths["report"].read_text(encoding="utf-8").startswith("# Success-rate ablation")
    meta = json.loads(paths["run_meta"].read_text(encoding="utf-8"))
    assert meta["level"] == 10 and "started_at" in meta

    plot_files = paths["plotdata"]
    assert [p.name for p in plot_files] == ["TripPlanning.csv"]
    rows = plot_files[0].read_text(encoding="utf-8").splitlines()
    assert rows[0] == "configuration,level,model,rate"
    labels = [r.split(",")[0] for r in rows[1:]]
    assert labels == list(PLOT_CONFIGURATIONS)
    assert all(r.endswith(",0.5") for r in rows[1:])


def test_emit_writes_incomplete_cells_to_run_meta(tmp_path):
    outcomes = _fill(TaskKind.VERTEX_COVER, PromptMode.AOT, "is", 1, 2)
    paths = emit(aggregate(outcomes, expected_per_cell=3), tmp_path / "out")
    meta = json.loads(paths["run_meta"].read_text(encoding="utf-8"))
    assert meta == {"incomplete_cells": ["VertexCover/L10/m/AoT/is: 2 of 3 instances"]}


def test_emit_is_deterministic_apart_from_meta(tmp_path):
    outcomes = _fill(TaskKind.VERTEX_COVER, PromptMode.AOT, "is", 3, 4)
    for name, meta in (("a", {"level": 4, "duration_s": 1.23}),
                       ("b", {"level": 4, "duration_s": 9.87})):
        emit(dataclasses.replace(aggregate(outcomes), run_meta=meta), tmp_path / name)
    read = lambda n, f: (tmp_path / n / f).read_text(encoding="utf-8")
    assert read("a", "report.md") == read("b", "report.md")
    assert read("a", "cells.csv") == read("b", "cells.csv")
    assert read("a", "plotdata/VertexCover.csv") == read("b", "plotdata/VertexCover.csv")
    assert read("a", "run_meta.json") != read("b", "run_meta.json")

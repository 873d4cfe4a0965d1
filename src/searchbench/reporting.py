"""Aggregate run outcomes into ablation matrices and emit report files.

One ``AblationCell`` is one (task, level, model, prompt mode, strategy)
group: how many of its instances verified.  ``emit`` writes four artifacts
into an output directory:

* ``report.md``          -- one success-rate table per (task, level),
  strategy rows by prompt-mode columns, one row block per model.
* ``cells.csv``          -- one row per cell, raw counts plus the ratio, which
  is empty for a cell with no judged instance.
* ``plotdata/<task>.csv`` -- per-task line-graph series over the twelve
  mode-strategy configurations, one series per (level, model).
* ``run_meta.json``      -- config snapshot, seeds, cache statistics and
  timestamps.  Everything volatile lives here and only here, so the other
  three files are byte-identical when a run is replayed from cache.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .prompts import PromptMode
from .scaling import RunOutcome, ScalingKind, ScalingStrategy
from .tasks import TASK_ORDER, TaskKind, TaskError, VerdictStatus, family, output_dir


class ReportError(TaskError):
    """Raised when an aggregate cannot be assembled coherently."""


STRATEGY_ROWS = {
    ScalingKind.NO_SCALING: "No Scaling (Base Model)",
    ScalingKind.PARALLEL: "Parallel Scaling (Best-of-N)",
    ScalingKind.SEQUENTIAL: "Sequential Scaling (Self-Refine)",
    ScalingKind.INTERNAL: "Internal Scaling (Thinking Mode)",
}

MODE_COLUMNS = {
    PromptMode.DIRECT: "Direct Prompting",
    PromptMode.COT: "Greedy Search (CoT)",
    PromptMode.AOT: "Depth-First Search (AoT)",
}

_STRATEGY_ORDER = tuple(STRATEGY_ROWS)
_MODE_ORDER = tuple(MODE_COLUMNS)


@dataclass(frozen=True)
class AblationCell:
    """One table cell: success count over instance count."""

    task: TaskKind
    level: int
    model: str
    prompt_mode: PromptMode
    strategy: ScalingStrategy
    successes: int
    total: int

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.total:
            raise ReportError(
                f"cell needs 0 <= successes <= total, got {self.successes}/{self.total}"
            )

    @property
    def rate(self) -> float | None:
        """Successes over judged instances; None when none was judged."""
        return self.successes / self.total if self.total else None

    @property
    def rate_text(self) -> str:
        """``rate`` as the CSV files write it: empty when there is none."""
        return "" if self.rate is None else repr(self.rate)

    @property
    def label(self) -> str:
        """The rendered cell, e.g. ``21/100 = 21%``, or ``0/0 = n/a``."""
        rate = "n/a" if self.rate is None else f"{round(100 * self.rate)}%"
        return f"{self.successes}/{self.total} = {rate}"

    @property
    def configuration(self) -> str:
        """Line-graph label, e.g. ``AoT-IS``."""
        return f"{self.prompt_mode.value}-{self.strategy.kind.value.upper()}"

    def sort_key(self) -> tuple:
        return (
            TASK_ORDER.index(self.task),
            self.level,
            self.model,
            _STRATEGY_ORDER.index(self.strategy.kind),
            _MODE_ORDER.index(self.prompt_mode),
        )


@dataclass(frozen=True)
class RunReport:
    cells: tuple[AblationCell, ...]
    run_meta: Mapping[str, object] = field(default_factory=dict)
    incomplete: tuple[str, ...] = ()


def aggregate(
    outcomes: Iterable[RunOutcome],
    expected_per_cell: int | None = None,
) -> RunReport:
    """Group outcomes into cells; count an outcome once per cell.

    A ``BackendError`` outcome is unjudged: its prompt could not be rendered
    or a call it needed failed, which says nothing about the answer.  So it
    is left out of its cell's n, and ``incomplete`` counts it.
    ``expected_per_cell`` also flags there the cells that hold another
    number of outcomes (reported, not fatal), so partial runs still produce
    a report.
    """
    groups: dict[tuple, dict[str, RunOutcome]] = {}
    for outcome in outcomes:
        key = (outcome.task, outcome.level, outcome.model, outcome.mode, outcome.strategy)
        group = groups.setdefault(key, {})
        if outcome.instance_id in group:
            raise ReportError(f"duplicate outcome for {key + (outcome.instance_id,)}")
        group[outcome.instance_id] = outcome

    noted = []  # (cell, its incomplete note or "")
    for (task, level, model, mode, strategy), group in groups.items():
        unjudged = sum(o.final.status is VerdictStatus.BACKEND_ERROR for o in group.values())
        cell = AblationCell(
            task=task,
            level=level,
            model=model,
            prompt_mode=mode,
            strategy=strategy,
            successes=sum(1 for o in group.values() if o.success),
            total=len(group) - unjudged,
        )
        notes = []
        if expected_per_cell is not None and len(group) != expected_per_cell:
            notes.append(f"{len(group)} of {expected_per_cell} instances")
        if unjudged:
            notes.append(f"{unjudged} of {len(group)} unjudged (BackendError), left out of n; "
                         "a re-run with the same cache re-asks only the calls that failed")
        where = f"{task.value}/L{level}/{model}/{mode.value}/{strategy.format()}: "
        noted.append((cell, where + "; ".join(notes) if notes else ""))
    noted.sort(key=lambda pair: pair[0].sort_key())  # notes in table order, however outcomes came
    return RunReport(cells=tuple(cell for cell, _ in noted),
                     incomplete=tuple(note for _, note in noted if note))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def render_report_md(report: RunReport) -> str:
    """The human-readable tables, one per (task, level); deterministic
    given the same cells."""
    lines = ["# Success-rate ablation", ""]
    if report.incomplete:
        lines.append("**Incomplete cells:**")
        lines.extend(f"- {note}" for note in report.incomplete)
        lines.append("")

    tables: dict[tuple[TaskKind, int], list[AblationCell]] = {}
    for cell in sorted(report.cells, key=AblationCell.sort_key):
        tables.setdefault((cell.task, cell.level), []).append(cell)

    for table_no, ((task, level), cells) in enumerate(tables.items(), 1):
        lines.append(
            f"## Table {table_no}: Performance on *{family(task).DISPLAY}* "
            f"(Difficulty Level = {level})"
        )
        lines.append("")
        header = ["Model", "Evaluation Strategy"] + [
            MODE_COLUMNS[m] for m in _MODE_ORDER
        ]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        index = {
            (c.model, c.strategy.kind, c.prompt_mode): c.label for c in cells
        }
        for model in sorted({c.model for c in cells}):
            for kind in _STRATEGY_ORDER:
                row_cells = [
                    index.get((model, kind, mode), "—") for mode in _MODE_ORDER
                ]
                if all(c == "—" for c in row_cells):
                    continue
                lines.append(
                    "| "
                    + " | ".join([model, STRATEGY_ROWS[kind]] + row_cells)
                    + " |"
                )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


CSV_COLUMNS = ("task", "level", "model", "prompt_mode", "strategy", "successes", "total",
               "rate")


def write_cells_csv(report: RunReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for cell in report.cells:
            writer.writerow(
                [
                    cell.task.value,
                    cell.level,
                    cell.model,
                    cell.prompt_mode.value,
                    cell.strategy.format(),
                    cell.successes,
                    cell.total,
                    cell.rate_text,
                ]
            )


def write_plotdata(report: RunReport, directory: Path) -> list[Path]:
    """Per-task series of (configuration, level, model, rate), one series
    per (level, model), each in line-graph order: mode-major, Direct-WS ..
    AoT-IS."""
    directory.mkdir(parents=True, exist_ok=True)
    by_task: dict[TaskKind, list[AblationCell]] = {}
    for cell in report.cells:
        by_task.setdefault(cell.task, []).append(cell)
    written = []
    for task in TASK_ORDER:
        cells = by_task.get(task)
        if not cells:
            continue
        path = directory / f"{task.value}.csv"
        rows = sorted(cells, key=lambda c: (c.level, _MODE_ORDER.index(c.prompt_mode),
                                            _STRATEGY_ORDER.index(c.strategy.kind), c.model))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["configuration", "level", "model", "rate"])
            for cell in rows:
                writer.writerow([cell.configuration, cell.level, cell.model, cell.rate_text])
        written.append(path)
    return written


def emit(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write all four artifacts; volatile data goes only to run_meta.json."""
    out = output_dir(out_dir)
    report_path = out / "report.md"
    report_path.write_text(render_report_md(report), encoding="utf-8")
    cells_path = out / "cells.csv"
    write_cells_csv(report, cells_path)
    plot_paths = write_plotdata(report, out / "plotdata")
    meta_path = out / "run_meta.json"
    meta = dict(report.run_meta)
    if report.incomplete:
        meta["incomplete_cells"] = list(report.incomplete)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {
        "report": report_path,
        "cells": cells_path,
        "plotdata": plot_paths,
        "run_meta": meta_path,
    }

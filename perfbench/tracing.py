"""Spans around the public functions of each searchbench layer.

``install`` wraps module attributes from outside the program: the names
``cli`` calls (``generate``, ``render``, ``execute`` ...), the solver names
``generate`` and ``prompts`` call, and the gateway's classes.  Modules are
reached through ``sys.modules`` because ``searchbench.generate`` resolves
to the function of that name, not to the module.

Spans stay in memory until the run ends: (id, parent, name, start, end,
thread, unit, attrs).  Every span inside one ``execute`` call carries that
call's unit id.  ``layer_metrics`` turns a span log into the per-layer
metrics listed in ``LAYER_TABLE``.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from checks import MODES, TASKS

STRATEGY_KINDS = ("ws", "ps", "ss", "is")

# (metrics, unit, end-to-end metric it should move, workloads where it does
# most of the work, workloads where it is predicted to be about 0 or not move)
LAYER_TABLE: tuple[tuple[tuple[str, ...], str, str, str, str], ...] = (
    (("generate.targets_s",) + tuple(f"generate.targets_s.{t}" for t in TASKS)
     + ("generate.exemplar_instances_s",),
     "s", "setup_s, wall_s", "paper-cold, paper-warm", "slow-provider"),
    (("solver.min_cover_s", "solver.witness_s", "solver.trip_unique_s",
      "solver.meeting_opt_s"),
     "s", "setup_s", "paper-cold, paper-warm", "slow-provider"),
    (("solver.min_cover_calls", "solver.witness_calls", "solver.trip_unique_calls",
      "solver.meeting_opt_calls"),
     "count", "setup_s", "paper-cold, paper-warm", "slow-provider"),
    (("solver.trace_dfs_s", "solver.trace_greedy_s"), "s", "setup_s", "all three", "-"),
    (("solver.trace_calls",), "count", "setup_s", "all three", "-"),
    (("prompts.exemplars_s",), "s", "setup_s", "paper-*", "-"),
    (("prompts.exemplars_calls",), "count", "setup_s", "paper-*", "-"),
    (tuple(f"prompts.render_s.{m}" for m in MODES), "s", "setup_s", "all three", "-"),
    (("prompts.render_calls",), "count", "setup_s", "all three", "-"),
    (("prompts.prompt_bytes",), "bytes", "setup_s", "all three", "-"),
    (("prompts.refine_s",), "s", "wall_s", "slow-provider", "paper-* (0 calls)"),
    (("prompts.refine_calls",), "count", "wall_s", "slow-provider", "paper-* (0 calls)"),
    (("gateway.requests", "gateway.hits", "gateway.misses", "gateway.duplicate_calls"),
     "count", "wall_s", "slow-provider, paper-cold", "-"),
    (("gateway.complete_s",), "s", "wall_s", "slow-provider, paper-cold", "-"),
    (("gateway.backend_calls",), "count", "wall_s", "slow-provider", "paper-warm (0 calls)"),
    (("gateway.backend_s",), "s", "wall_s", "slow-provider", "paper-warm (0 calls)"),
    (("gateway.digest_calls",), "count", "wall_s", "paper-warm", "-"),
    (("gateway.digest_s",), "s", "wall_s", "paper-warm", "-"),
    (("gateway.cache_load_s",), "s", "setup_s", "paper-warm", "paper-cold, slow-provider"),
    (("gateway.cache_entries_loaded",), "count", "setup_s", "paper-warm",
     "paper-cold, slow-provider"),
    (("gateway.cache_puts",), "count", "wall_s", "paper-cold, slow-provider",
     "paper-warm (0 puts)"),
    (("gateway.cache_put_s",), "s", "wall_s", "paper-cold, slow-provider",
     "paper-warm (0 puts)"),
    (("scaling.units", "scaling.attempts"), "count", "wall_s", "slow-provider", "-"),
    (tuple(f"scaling.execute_s.{k}" for k in STRATEGY_KINDS) + ("scaling.execute_phase_s",),
     "s", "wall_s", "slow-provider", "-"),
    (("answers.evaluate_calls", "answers.success_attempts"), "count", "wall_s",
     "slow-provider, paper-warm", "-"),
    (("answers.evaluate_s",), "s", "wall_s", "slow-provider, paper-warm", "-"),
    (("reporting.aggregate_s", "reporting.emit_s"), "s", "wall_s", "all three (small)", "-"),
    (("cli.run_s", "cli.self_s"), "s", "wall_s", "all three", "-"),
    (("cli.outcomes_bytes",), "bytes", "wall_s", "all three", "-"),
    (("trace.overhead_s",), "s", "wall_s", "all three", "-"),
)

#: Counts where a larger figure is the better one; every other metric is
#: better lower.
HIGHER_IS_BETTER = ("gateway.hits", "answers.success_attempts")


def metric_units() -> dict[str, str]:
    return {name: unit for names, unit, *_ in LAYER_TABLE for name in names}


class Tracer:
    """Records spans from any thread; a thread-local stack gives parents."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._units = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner: object, attr: str, name: str,
             attrs: Callable[[tuple, object], dict] | None = None,
             new_unit: bool = False) -> None:
        fn = getattr(owner, attr)
        spans, ids, units, local = self.spans, self._ids, self._units, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent, unit = stack[-1] if stack else (0, 0)
            sid = next(ids)
            if new_unit:
                unit = next(units)
            stack.append((sid, unit))
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, result) if attrs and ok else None
                spans.append((sid, parent, name, start, end,
                              threading.get_ident(), unit, extra))

        setattr(owner, attr, traced)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    mod = sys.modules
    cli, gen, prompts = mod["searchbench.cli"], mod["searchbench.generate"], mod["searchbench.prompts"]
    scaling, gateway = mod["searchbench.scaling"], mod["searchbench.gateway"]
    w = tracer.wrap
    w(cli, "run", "cli.run")
    w(cli, "generate", "generate.target", lambda a, r: {"task": r.kind.value})
    w(prompts, "exemplar_instance", "generate.exemplar_instance")
    w(gen, "min_cover_size", "solver.min_cover")
    w(gen, "solve_payload", "solver.witness")
    w(gen, "count_trip_plans", "solver.trip_unique")
    w(gen, "optimal_schedule", "solver.meeting_opt")
    w(prompts, "solve", "solver.trace", lambda a, r: {"search": r.mode.value})
    w(cli, "default_exemplars", "prompts.exemplars")
    w(cli, "render", "prompts.render", lambda a, r: {
        "mode": r.mode.value,
        "bytes": len(r.system_text.encode()) + len(r.body.encode()),
    })
    w(scaling, "render_refine", "prompts.refine")
    w(cli, "execute", "scaling.execute", lambda a, r: {
        "kind": a[3].kind.value, "attempts": len(r.attempts),
    }, new_unit=True)
    w(scaling, "evaluate", "answers.evaluate", lambda a, r: {
        "success": r[1].status.value == "Success",
    })
    w(gateway.ModelGateway, "complete", "gateway.complete")
    w(gateway.OracleBackend, "complete", "gateway.backend")
    w(gateway.HttpBackend, "complete", "gateway.backend")
    w(gateway, "canonical_digest", "gateway.digest")
    w(scaling, "canonical_digest", "gateway.digest")
    w(gateway.ResponseCache, "__init__", "gateway.cache_load",
      lambda a, r: {"entries": len(a[0])})
    w(gateway.ResponseCache, "put", "gateway.cache_put")
    w(cli, "aggregate", "reporting.aggregate")
    w(cli, "emit", "reporting.emit")


def read_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(spans: list[list], cache_stats: dict, outcomes_bytes: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and run_meta cache stats."""
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    by_id = {}
    for sid, parent, name, start, end, _thread, _unit, extra in spans:
        by_id[sid] = (parent, name, start, end, extra or {})
        total[name] += end - start
        count[name] += 1
        if name == "generate.target":
            total[f"generate.target.{extra['task']}"] += end - start
        elif name == "solver.trace":
            total[f"solver.trace.{extra['search']}"] += end - start
        elif name == "prompts.render":
            total[f"prompts.render.{extra['mode']}"] += end - start
            count["prompt_bytes"] += extra["bytes"]
        elif name == "scaling.execute":
            total[f"scaling.execute.{extra['kind']}"] += end - start
            count["attempts"] += extra["attempts"]
        elif name == "answers.evaluate":
            count["success_attempts"] += extra["success"]
        elif name == "gateway.cache_load":
            count["entries_loaded"] += extra["entries"]

    run_ids = [sid for sid, (_, name, *_rest) in by_id.items() if name == "cli.run"]
    children = sum(end - start for parent, _, start, end, _ in by_id.values()
                   if parent in run_ids)
    executes = [(s, e) for _, name, s, e, _ in by_id.values() if name == "scaling.execute"]
    hits = sum(s["hits"] for s in cache_stats.values())
    misses = sum(s["misses"] for s in cache_stats.values())
    entries = sum(s["entries"] for s in cache_stats.values())

    m = {f"generate.targets_s.{t}": total[f"generate.target.{t}"] for t in TASKS}
    m.update({
        "generate.targets_s": total["generate.target"],
        "generate.exemplar_instances_s": total["generate.exemplar_instance"],
        "solver.trace_dfs_s": total["solver.trace.dfs"],
        "solver.trace_greedy_s": total["solver.trace.greedy"],
        "solver.trace_calls": count["solver.trace"],
        "prompts.exemplars_s": total["prompts.exemplars"],
        "prompts.exemplars_calls": count["prompts.exemplars"],
        "prompts.render_calls": count["prompts.render"],
        "prompts.prompt_bytes": count["prompt_bytes"],
        "prompts.refine_s": total["prompts.refine"],
        "prompts.refine_calls": count["prompts.refine"],
        "gateway.requests": count["gateway.complete"],
        "gateway.hits": hits,
        "gateway.misses": misses,
        "gateway.duplicate_calls": misses - (entries - count["entries_loaded"]),
        "gateway.complete_s": total["gateway.complete"],
        "gateway.backend_calls": count["gateway.backend"],
        "gateway.backend_s": total["gateway.backend"],
        "gateway.digest_calls": count["gateway.digest"],
        "gateway.digest_s": total["gateway.digest"],
        "gateway.cache_load_s": total["gateway.cache_load"],
        "gateway.cache_entries_loaded": count["entries_loaded"],
        "gateway.cache_puts": count["gateway.cache_put"],
        "gateway.cache_put_s": total["gateway.cache_put"],
        "scaling.units": count["scaling.execute"],
        "scaling.attempts": count["attempts"],
        "scaling.execute_phase_s": (max(e for _, e in executes) - min(s for s, _ in executes))
        if executes else 0.0,
        "answers.evaluate_calls": count["answers.evaluate"],
        "answers.evaluate_s": total["answers.evaluate"],
        "answers.success_attempts": count["success_attempts"],
        "reporting.aggregate_s": total["reporting.aggregate"],
        "reporting.emit_s": total["reporting.emit"],
        "cli.run_s": total["cli.run"],
        "cli.self_s": total["cli.run"] - children,
        "cli.outcomes_bytes": outcomes_bytes,
        "trace.overhead_s": overhead_s,
    })
    for name in ("min_cover", "witness", "trip_unique", "meeting_opt"):
        m[f"solver.{name}_s"] = total[f"solver.{name}"]
        m[f"solver.{name}_calls"] = count[f"solver.{name}"]
    for mode in MODES:
        m[f"prompts.render_s.{mode}"] = total[f"prompts.render.{mode}"]
    for kind in STRATEGY_KINDS:
        m[f"scaling.execute_s.{kind}"] = total[f"scaling.execute.{kind}"]
    return m


def format_table(workload: str, metrics: dict[str, float]) -> str:
    """The per-layer table for one workload, one metric a line."""
    lines = [f"per-layer metrics, workload {workload}",
             f"{'metric':34} {'value':>14} {'unit':6} {'moves':16} "
             f"{'most work on':28} predicted ~0 on"]
    for names, unit, moves, busy, idle in LAYER_TABLE:
        for name in names:
            lines.append(f"{name:34} {metrics[name]:>14.4f} {unit:6} {moves:16} "
                         f"{busy:28} {idle}")
    return "\n".join(lines)

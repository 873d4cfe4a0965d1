"""Benchmark of ``searchbench run``: paper-sized cold and warm runs, and a
slow HTTP provider.

Run from the root of a searchbench checkout:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

Each round starts a fresh process (``child.py``) that runs the workload's
config through ``searchbench.cli`` with concurrency 2, then checks every
artifact the run wrote (``checks.py``).  Rounds repeat while another one
fits in ``--seconds``; at least one always runs.  The last line of standard
output is one JSON object: ``correct``, units ``attempted`` and ``failed``,
and the metrics.  With ``--trace 0`` these are the end-to-end medians
(``wall_s``, ``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` one untraced
and one traced round run, and the metrics are the per-layer figures of the
traced round (see ``tracing.py``) plus the tracing overhead.

Workloads (see README.md for why each exists):

* ``paper-cold``    -- 4 tasks x 100 instances x level 10 x 12 cells,
  ``oracle`` backend, empty cache.
* ``paper-warm``    -- the same config replayed from the cache an untimed
  cold run filled (zero backend calls).
* ``slow-provider`` -- the ``http`` backend against ``provider.py`` at
  20 ms a reply, 4 tasks x 16 instances x level 6, empty cache; the first
  answer is wrong for every odd instance and a refinement answers right.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from provider import FakeProvider

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
CHILD = Path(__file__).resolve().with_name("child.py")

CONCURRENCY = 2
# The benchmark seed is the config seed, as in ``searchbench run --seed``:
# instance i of each task uses seed + i.  A block of instances whose trip
# generator gives up is skipped, at most this many times.
SKIPPED_BLOCKS_MAX = 10
PROVIDER_LATENCY_S = 0.020
API_KEY_ENV = "PERFBENCH_PROVIDER_KEY"
API_KEY = "perfbench-local-key"
# A run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0
FILLS_KEPT = 24

# ``setup_probes`` extra processes per run stop at the first request, so a
# set-up of about a second is measured several times.
WORKLOADS = {
    "paper-cold": {"level": 10, "count": 100, "backend": "oracle", "warm": False,
                   "setup_probes": 0},
    "paper-warm": {"level": 10, "count": 100, "backend": "oracle", "warm": True,
                   "setup_probes": 0},
    "slow-provider": {"level": 6, "count": 16, "backend": "http", "warm": False,
                      "setup_probes": 6},
}


class BenchError(Exception):
    """The program did not run to its end, so there is nothing to measure."""


@dataclasses.dataclass
class Round:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    errors: list[str]


class Bench:
    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.base_seed = pick_base_seed(seed, self.spec["level"], self.spec["count"])
        self.deadline = started + RUN_BUDGET_S
        self.dir = OUT / workload
        self.provider: FakeProvider | None = None
        self.model = {"name": "oracle", "backend": "oracle"}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        if self.spec["backend"] == "http":
            self.env[API_KEY_ENV] = API_KEY

    # -- the workload's rule ---------------------------------------------

    def wrong_first(self, record: dict) -> bool:
        """The provider answers the first turn wrongly for odd instances."""
        return self.spec["backend"] == "http" and (record["seed"] - self.base_seed) % 2 == 1

    def expect_success(self, record: dict, strategy: str) -> bool:
        return strategy == "ss:1" or not self.wrong_first(record)

    def config(self, round_dir: Path) -> dict:
        return {
            "tasks": list(checks.TASKS),
            "levels": [self.spec["level"]],
            "instance_count": self.spec["count"],
            "seed": self.base_seed,
            "models": [self.model],
            "concurrency": CONCURRENCY,
            "out_dir": str(round_dir / "out"),
            "cache_path": str(round_dir / "cache.jsonl"),
        }

    # -- rounds ----------------------------------------------------------

    def spawn(self, round_dir: Path, flag: str | None, cache_from: Path | None) -> dict:
        shutil.rmtree(round_dir, ignore_errors=True)
        round_dir.mkdir(parents=True)
        (round_dir / "config.json").write_text(json.dumps(self.config(round_dir)))
        if cache_from is not None:
            shutil.copyfile(cache_from, round_dir / "cache.jsonl")
        if self.provider is not None:
            self.provider.served = self.provider.rejected = 0
        cmd = [sys.executable, str(CHILD), str(round_dir)] + ([flag] if flag else [])
        with open(round_dir / "child.log", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1.0, self.deadline - spawned))
            except subprocess.TimeoutExpired as err:
                raise BenchError(f"{round_dir.name}: run exceeded the time budget") from err
        if proc.returncode != 0:
            raise BenchError(f"{round_dir.name}: searchbench exited {proc.returncode}; "
                             f"see {round_dir / 'child.log'}")
        child = json.loads((round_dir / "child.json").read_text())
        if child["first_request"] is None:
            raise BenchError(f"{round_dir.name}: the run made no model request")
        child["spawned"] = spawned
        return child

    def run_round(self, label: str, trace: bool = False, fill: Path | None = None) -> Round:
        round_dir = self.dir / label
        cache_from = fill / "cache.jsonl" if fill else None
        child = self.spawn(round_dir, "--trace" if trace else None, cache_from)
        if Path(child["searchbench_file"]).resolve().parent.parent != SRC.resolve():
            raise BenchError(f"searchbench was imported from {child['searchbench_file']}")
        attempted, failed, errors = self.check(round_dir, fill)
        return Round(
            wall_s=child["returned"] - child["spawned"],
            setup_s=child["first_request"] - child["spawned"],
            peak_rss_mb=child["peak_rss_kb"] / 1024,
            attempted=attempted,
            failed=failed,
            errors=errors,
        )

    def probe_setup(self, label: str) -> float:
        """Set-up time of a process that stops at its first request."""
        child = self.spawn(self.dir / label, "--setup-only", None)
        return child["first_request"] - child["spawned"]

    def check(self, round_dir: Path, fill: Path | None) -> tuple[int, int, list[str]]:
        out = round_dir / "out"
        records = checks.read_jsonl(round_dir / "instances.jsonl")
        outcomes = checks.read_jsonl(out / "outcomes.jsonl")
        name = self.model["name"]
        attempted, failed, errors = checks.check_outcomes(
            outcomes, records, name, self.expect_success)
        errors += checks.check_cells(out / "cells.csv", records, name, self.expect_success)
        stats = json.loads((out / "run_meta.json").read_text())["cache_stats"][name]
        cache_path = round_dir / "cache.jsonl"
        entries = count_lines(cache_path)
        before = count_lines(fill / "cache.jsonl") if fill else 0
        errors += checks.check_gateway(stats, outcomes, records, entries - before,
                                       self.wrong_first, warm=fill is not None)
        if stats["entries"] != entries:
            errors.append(f"run_meta counts {stats['entries']} entries, cache file {entries}")
        if self.provider is not None:
            if self.provider.served != stats["misses"] or self.provider.rejected:
                errors.append(f"provider served {self.provider.served} and rejected "
                              f"{self.provider.rejected}; gateway missed {stats['misses']}")
        if fill is None:
            errors += checks.check_instances(records, checks.TASKS, self.spec["level"],
                                             self.spec["count"], self.base_seed)
        else:
            saved = json.loads((fill / "artifacts.json").read_text())
            now = artifact_digests(round_dir)
            errors += [f"warm {key} differs from the filling run's"
                       for key in sorted(saved) if saved[key] != now.get(key)]
        return attempted, failed, errors

    # -- the cache a warm replay starts from -----------------------------

    def fill_dir(self) -> Path:
        """Where the filled cache of this code and config is kept."""
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        config = self.config(Path("."))
        digest.update(json.dumps(config, sort_keys=True).encode())
        return OUT / "fills" / digest.hexdigest()[:20]

    def keep_fill(self, round_dir: Path) -> None:
        """Keep a checked cold round as the fill for warm replays."""
        target = self.fill_dir()
        if target.exists():
            return
        staging = target.with_name(target.name + ".tmp")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        shutil.copyfile(round_dir / "cache.jsonl", staging / "cache.jsonl")
        (staging / "artifacts.json").write_text(json.dumps(artifact_digests(round_dir)))
        os.replace(staging, target)
        kept = sorted(target.parent.iterdir(), key=lambda p: p.stat().st_mtime)
        for old in kept[:-FILLS_KEPT]:
            shutil.rmtree(old, ignore_errors=True)

    def prepare_fill(self) -> Path:
        """The fill for this seed: an earlier checked cold round's, or a new one."""
        if not self.fill_dir().exists():
            filled = self.run_round("fill")
            if filled.failed or filled.errors:
                raise BenchError(f"filling run: {filled.failed} units failed; "
                                 + "; ".join(filled.errors[:5]))
            self.keep_fill(self.dir / "fill")
        return self.fill_dir()

    # -- the provider ----------------------------------------------------

    def start_provider(self) -> FakeProvider:
        from searchbench.answers import canonical_text
        from searchbench.cli import config_from_dict, generate_instances
        from searchbench.prompts import statement_text

        answers = {}
        for inst in generate_instances(config_from_dict(self.config(self.dir))):
            right = canonical_text(inst.payload, inst.ground_truth)
            first = right
            if self.wrong_first({"seed": inst.seed}):
                first = canonical_text(inst.payload, wrong_solution(inst.ground_truth))
            answers[statement_text(inst.payload)] = (first, right)
        self.provider = FakeProvider(answers, PROVIDER_LATENCY_S, API_KEY)
        self.model = {"name": "provider", "backend": "http", "url": self.provider.url,
                      "dialect": "anthropic", "api_key_env": API_KEY_ENV}
        return self.provider


def pick_base_seed(seed: int, level: int, count: int) -> int:
    """The first block of ``count`` seeds from ``seed`` on whose TripPlanning
    instances all generate.

    The trip generator gives up on some seeds (no unique plan within its
    regeneration budget, e.g. level 10, seed 3040), and ``searchbench run``
    then exits without a report.  Such a block is skipped, so that every
    benchmark seed yields a run that completes.  The other three generators
    plant a solution and have not been seen to give up.
    """
    sys.path.insert(0, str(SRC))
    from searchbench import GenSpec, TaskError, TaskKind, generate

    for base in range(seed, seed + count * SKIPPED_BLOCKS_MAX, count):
        try:
            for i in range(count):
                generate(GenSpec(kind=TaskKind.TRIP_PLANNING, level=level, seed=base + i))
        except TaskError:
            continue
        return base
    raise BenchError(f"no block of {count} generable trip instances for seed {seed}")


def wrong_solution(truth):
    """A solution that parses but fails verification: one item short, or,
    for a meeting schedule, a first meeting one minute too short."""
    if hasattr(truth, "legs"):
        return dataclasses.replace(truth, legs=truth.legs[:-1])
    if hasattr(truth, "vertices"):
        return dataclasses.replace(truth, vertices=frozenset(sorted(truth.vertices)[:-1]))
    if hasattr(truth, "triples"):
        return dataclasses.replace(truth, triples=frozenset(sorted(truth.triples)[:-1]))
    first = truth.meetings[0]
    return dataclasses.replace(
        truth, meetings=(dataclasses.replace(first, end=first.end - 1),) + truth.meetings[1:])


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def artifact_digests(round_dir: Path) -> dict[str, str]:
    """sha256 of every artifact a warm replay must reproduce byte for byte."""
    out = round_dir / "out"
    files = [out / "report.md", out / "cells.csv", out / "outcomes.jsonl",
             round_dir / "instances.jsonl", round_dir / "cache.jsonl"]
    files += sorted((out / "plotdata").iterdir())
    return {str(p.relative_to(round_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    errors: list[str] = []
    fill = bench.prepare_fill() if bench.spec["warm"] else None
    if trace:
        plain = bench.run_round("untraced", fill=fill)
        traced = bench.run_round("traced", trace=True, fill=fill)
        rounds = [plain, traced]
        run_meta = json.loads((bench.dir / "traced" / "out" / "run_meta.json").read_text())
        metrics = tracing.layer_metrics(
            tracing.read_spans(bench.dir / "traced" / "spans.jsonl"),
            run_meta["cache_stats"],
            (bench.dir / "traced" / "out" / "outcomes.jsonl").stat().st_size,
            traced.wall_s - plain.wall_s,
        )
        if bench.provider is not None and bench.provider.served != metrics["gateway.backend_calls"]:
            errors.append(f"provider served {bench.provider.served}, traced gateway made "
                          f"{metrics['gateway.backend_calls']} backend calls")
        print(tracing.format_table(bench.name, metrics))
        units = tracing.metric_units()
        report = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    else:
        rounds = []
        started = time.monotonic()
        while True:
            rounds.append(bench.run_round(f"round{len(rounds)}", fill=fill))
            first = rounds[0]
            if bench.name == "paper-cold" and len(rounds) == 1 and not (first.errors or first.failed):
                bench.keep_fill(bench.dir / "round0")
            now = time.monotonic()
            per_round = (now - started) / len(rounds)
            if now + per_round > min(started + seconds, bench.deadline):
                break
        setups = [r.setup_s for r in rounds] + [
            bench.probe_setup(f"setup{i}") for i in range(bench.spec["setup_probes"])]
        report = {
            "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in rounds),
                            "unit": "MB"},
        }
        for i, r in enumerate(rounds):
            print(f"round {i}: wall_s {r.wall_s:.3f} setup_s {r.setup_s:.3f} "
                  f"peak_rss_mb {r.peak_rss_mb:.1f} units {r.attempted} failed {r.failed}")
    for r in rounds:
        errors += r.errors
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": report,
    }


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "searchbench" / "__init__.py").is_file():
        print(f"error: no searchbench sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        bench = Bench(args.workload, args.seed, started)
        shutil.rmtree(bench.dir, ignore_errors=True)
        if bench.spec["backend"] == "http":
            with bench.start_provider():
                result = measure(bench, args.seconds, bool(args.trace))
        else:
            result = measure(bench, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

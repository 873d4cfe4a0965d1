"""Correctness checks computed apart from the program under test.

Ground truths are re-derived here from the instance records alone, with
algorithms of this file's own (no call into ``searchbench.solver``):

* VertexCover: the target size is ``n - MIS`` with a bitmask
  maximum-independent-set search, and the truth is a cover of that size.
* ThreeDM: the truth is a perfect matching made of offered triples.
* TripPlanning: the truth plan is valid and is the only valid visit order,
  counted by a DP over (visited set, last city).
* MeetingPlanning: the truth schedule is feasible and meets the optimal
  number of friends, found by a DP over (met set, last friend) that keeps
  the earliest finishing time.

The run-level checks compare a run's artifacts with closed-form figures
derived from the workload's config and its backend's reply rule.  Every
checker returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable

TASKS = ("TripPlanning", "VertexCover", "ThreeDM", "MeetingPlanning")
MODES = ("Direct", "CoT", "AoT")
STRATEGIES = ("ws", "ps:3", "ss:1", "is")

# Requests and new cache entries per (instance, mode) under the default
# matrix (ws, ps:3, ss:1, is).  ``ws`` and ``ss`` round 0 send the same
# request, so they share one digest.  A unit whose first answer is wrong
# adds one refinement request under ``ss``.
REQUESTS_PER_MODE = {False: 6, True: 7}
ENTRIES_PER_MODE = {False: 5, True: 6}


# ---------------------------------------------------------------------------
# Ground truths
# ---------------------------------------------------------------------------


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def max_independent_set(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Size of a maximum independent set, by branching on bitmasks."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0

    def grow(cands: int, size: int) -> None:
        nonlocal best
        while cands:
            if size + cands.bit_count() <= best:
                return
            degrees = {v: (adj[v] & cands).bit_count() for v in _bits(cands)}
            low = min(degrees, key=degrees.__getitem__)
            if degrees[low] > 1:
                break
            # A vertex of degree 0 or 1 is in some maximum independent set.
            cands &= ~(adj[low] | 1 << low)
            size += 1
        else:
            best = max(best, size)
            return
        high = max(degrees, key=degrees.__getitem__)
        grow(cands & ~(adj[high] | 1 << high), size + 1)
        grow(cands & ~(1 << high), size)

    grow((1 << n) - 1, 0)
    return best


def check_cover(payload: dict, truth: dict) -> list[str]:
    n = payload["vertex_count"]
    edges = [tuple(e) for e in payload["edges"]]
    cover = set(truth["vertices"])
    errors = []
    if not all(0 <= v < n for v in cover):
        errors.append("cover names a vertex outside the graph")
    uncovered = [e for e in edges if e[0] not in cover and e[1] not in cover]
    if uncovered:
        errors.append(f"edge {uncovered[0]} is not covered")
    if len(cover) != payload["target_size"]:
        errors.append(f"cover has {len(cover)} vertices, target is {payload['target_size']}")
    minimum = n - max_independent_set(n, edges)
    if payload["target_size"] != minimum:
        errors.append(f"target {payload['target_size']} is not the minimum {minimum}")
    return errors


def check_threedm(payload: dict, truth: dict) -> list[str]:
    n = payload["n"]
    offered = {tuple(t) for t in payload["triples"]}
    chosen = [tuple(t) for t in truth["triples"]]
    errors = []
    if any(t not in offered for t in chosen):
        errors.append("matching uses a triple that is not offered")
    for axis in range(3):
        if sorted(t[axis] for t in chosen) != list(range(n)):
            errors.append(f"axis {axis} is not covered exactly once")
    return errors


def _trip_window_ok(window, start: int, end: int) -> bool:
    return window is None or (start <= window[0] and window[1] <= end)


def count_trip_plans(payload: dict, limit: int = 2) -> int:
    """Number of valid visit orders, capped at ``limit``."""
    cities = payload["cities"]
    n = len(cities)
    index = {c: i for i, c in enumerate(cities)}
    stays = [payload["stays"][c] for c in cities]
    windows = [payload["windows"].get(c) for c in cities]
    flights = {(index[a], index[b]) for a, b in payload["flights"]}
    if 1 + sum(s - 1 for s in stays) != payload["total_days"]:
        return 0
    # The city entered after ``mask`` starts on the day the last one ends.
    layer = {
        (1 << i, i): 1 for i in range(n) if _trip_window_ok(windows[i], 1, stays[i])
    }
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (mask, last), ways in layer.items():
            start = 1 + sum(stays[j] - 1 for j in _bits(mask))
            for c in range(n):
                if mask >> c & 1 or (last, c) not in flights:
                    continue
                if not _trip_window_ok(windows[c], start, start + stays[c] - 1):
                    continue
                key = (mask | 1 << c, c)
                nxt[key] = min(limit, nxt.get(key, 0) + ways)
        layer = nxt
    return min(limit, sum(layer.values()))


def check_trip(payload: dict, truth: dict) -> list[str]:
    legs = truth["legs"]
    errors = []
    if sorted(c for c, _, _ in legs) != sorted(payload["cities"]):
        errors.append("plan does not visit every city exactly once")
        return errors
    day = 1
    for i, (city, start, end) in enumerate(legs):
        if start != day or end - start + 1 != payload["stays"][city]:
            errors.append(f"leg {city} {start}-{end} breaks the calendar")
        if not _trip_window_ok(payload["windows"].get(city), start, end):
            errors.append(f"leg {city} {start}-{end} misses its window")
        if i and [legs[i - 1][0], city] not in payload["flights"]:
            errors.append(f"no flight {legs[i - 1][0]} -> {city}")
        day = end
    if day != payload["total_days"]:
        errors.append(f"plan ends day {day}, not {payload['total_days']}")
    plans = count_trip_plans(payload)
    if plans != 1:
        errors.append(f"instance has {plans if plans < 2 else '2 or more'} valid plans, not 1")
    return errors


def _travel_table(payload: dict) -> dict[tuple[str, str], int]:
    table = {}
    for a, b, minutes in payload["travel_minutes"]:
        table[(a, b)] = table[(b, a)] = minutes
    return table


def meeting_optimum(payload: dict) -> int:
    """Most friends that can be met, keeping the earliest finish per state."""
    travel = _travel_table(payload)
    friends = payload["friends"]
    best = 0
    layer = {(0, -1): payload["day_start"]}
    while layer:
        nxt: dict[tuple[int, int], int] = {}
        for (mask, last), clock in layer.items():
            here = friends[last]["location"] if last >= 0 else payload["start_location"]
            for i, f in enumerate(friends):
                if mask >> i & 1:
                    continue
                arrive = clock + (0 if here == f["location"] else travel[(here, f["location"])])
                end = max(arrive, f["window"][0]) + f["min_minutes"]
                if end > f["window"][1]:
                    continue
                key = (mask | 1 << i, i)
                if end < nxt.get(key, end + 1):
                    nxt[key] = end
        if nxt:
            best += 1
        layer = nxt
    return best


def check_meeting(payload: dict, truth: dict) -> list[str]:
    travel = _travel_table(payload)
    by_name = {f["name"]: f for f in payload["friends"]}
    here, clock = payload["start_location"], payload["day_start"]
    errors = []
    met = set()
    for name, location, start, end in truth["meetings"]:
        f = by_name.get(name)
        if f is None or name in met or location != f["location"]:
            errors.append(f"meeting with {name} at {location} is not possible")
            break
        met.add(name)
        arrive = clock + (0 if here == location else travel[(here, location)])
        if start < max(arrive, f["window"][0]) or end > f["window"][1]:
            errors.append(f"meeting with {name} {start}-{end} is outside reach")
        if end - start < f["min_minutes"]:
            errors.append(f"meeting with {name} is shorter than {f['min_minutes']} min")
        here, clock = location, end
    optimum = meeting_optimum(payload)
    if len(truth["meetings"]) != optimum:
        errors.append(f"schedule meets {len(truth['meetings'])} friends, optimum is {optimum}")
    return errors


TRUTH_CHECKS: dict[str, Callable[[dict, dict], list[str]]] = {
    "VertexCover": check_cover,
    "ThreeDM": check_threedm,
    "TripPlanning": check_trip,
    "MeetingPlanning": check_meeting,
}


def check_instances(records: list[dict], tasks: Iterable[str], level: int,
                    count: int, base_seed: int) -> list[str]:
    """Every instance of the config is present once and its truth holds."""
    errors = []
    want = {(t, base_seed + i) for t in tasks for i in range(count)}
    got = [(r["kind"], r["seed"]) for r in records]
    if sorted(got) != sorted(want):
        errors.append(f"run generated {len(got)} instances; config asks for {len(want)}")
    for r in records:
        if r["level"] != level:
            errors.append(f"{r['id']}: level {r['level']}, config asks for {level}")
        errors.extend(f"{r['id']}: {e}" for e in TRUTH_CHECKS[r["kind"]](r["payload"], r["ground_truth"]))
    return errors


# ---------------------------------------------------------------------------
# Run artifacts
# ---------------------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_outcomes(outcomes: list[dict], records: list[dict], model: str,
                   expect_success: Callable[[dict, str], bool]) -> tuple[int, int, list[str]]:
    """Compare each unit's final verdict with what the backend implies.

    Returns (units attempted, units failed, errors).  A unit fails when it is
    missing, repeated, or its final verdict is not the expected one.
    """
    seen: dict[tuple[str, str, str], dict] = {}
    errors = []
    for o in outcomes:
        key = (o["instance_id"], o["mode"], o["strategy"])
        if o["model"] != model or key in seen:
            errors.append(f"unexpected outcome record {key}")
        seen[key] = o
    attempted = failed = 0
    for r in records:
        for mode in MODES:
            for strategy in STRATEGIES:
                attempted += 1
                o = seen.pop((r["id"], mode, strategy), None)
                want = "Success" if expect_success(r, strategy) else "not Success"
                got = o and o["final"]["status"]
                if got is None or (got == "Success") != (want == "Success"):
                    failed += 1
                    if failed <= 5:
                        errors.append(f"{r['id']} {mode} {strategy}: {got}, expected {want}")
    errors.extend(f"outcome for a unit outside the config: {k}" for k in list(seen)[:5])
    return attempted, failed, errors


def check_cells(path: Path, records: list[dict], model: str,
                expect_success: Callable[[dict, str], bool]) -> list[str]:
    want = {}
    for task in sorted({r["kind"] for r in records}):
        mine = [r for r in records if r["kind"] == task]
        for mode in MODES:
            for strategy in STRATEGIES:
                wins = sum(expect_success(r, strategy) for r in mine)
                want[(task, model, mode, strategy)] = (wins, len(mine))
    with open(path, encoding="utf-8", newline="") as fh:
        got = {
            (row["task"], row["model"], row["prompt_mode"], row["strategy"]):
            (int(row["successes"]), int(row["total"]))
            for row in csv.DictReader(fh)
        }
    return [
        f"cells.csv {key}: {got.get(key)}, expected {value}"
        for key, value in sorted(want.items()) if got.get(key) != value
    ] + [f"cells.csv has an extra cell {key}" for key in sorted(set(got) - set(want))]


def check_gateway(stats: dict, outcomes: list[dict], records: list[dict],
                  new_entries: int, wrong_first: Callable[[dict], bool],
                  warm: bool) -> list[str]:
    """Requests, hits, misses and cache growth against closed-form figures."""
    requests = sum(len(o["attempts"]) for o in outcomes)
    want_requests = sum(len(MODES) * REQUESTS_PER_MODE[wrong_first(r)] for r in records)
    want_entries = 0 if warm else sum(
        len(MODES) * ENTRIES_PER_MODE[wrong_first(r)] for r in records
    )
    errors = []
    if requests != want_requests:
        errors.append(f"{requests} requests, expected {want_requests}")
    if stats["hits"] + stats["misses"] != requests:
        errors.append(f"hits {stats['hits']} + misses {stats['misses']} != {requests} requests")
    if new_entries != want_entries:
        errors.append(f"{new_entries} new cache entries, expected {want_entries}")
    if warm and stats["misses"]:
        errors.append(f"warm replay missed the cache {stats['misses']} times")
    return errors

"""Each benchmark checker rejects a hand-made wrong input.

Run from the checkout root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from provider import FakeProvider  # noqa: E402

TRIANGLE = {"vertex_count": 3, "edges": [[0, 1], [0, 2], [1, 2]], "target_size": 2}


def test_max_independent_set_small_graphs():
    assert checks.max_independent_set(3, [(0, 1), (0, 2), (1, 2)]) == 1
    assert checks.max_independent_set(4, [(0, 1), (1, 2), (2, 3)]) == 2
    assert checks.max_independent_set(5, []) == 5
    # 5-cycle: every vertex has degree 2, so the search must branch.
    assert checks.max_independent_set(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]) == 2


def test_cover_check():
    assert checks.check_cover(TRIANGLE, {"vertices": [0, 1]}) == []
    not_minimum = dict(TRIANGLE, target_size=3)
    assert checks.check_cover(not_minimum, {"vertices": [0, 1, 2]})
    assert checks.check_cover(TRIANGLE, {"vertices": [0]})


def test_threedm_check():
    payload = {"n": 2, "triples": [[0, 0, 0], [1, 1, 1], [0, 1, 1]]}
    assert checks.check_threedm(payload, {"triples": [[0, 0, 0], [1, 1, 1]]}) == []
    assert checks.check_threedm(payload, {"triples": [[0, 1, 1], [1, 1, 1]]})
    assert checks.check_threedm(payload, {"triples": [[0, 0, 0], [1, 0, 1]]})


def _trip(windows):
    return {
        "cities": ["A", "B", "C"],
        "total_days": 4,
        "stays": {"A": 2, "B": 2, "C": 2},
        "windows": windows,
        "flights": [["A", "B"], ["B", "A"], ["B", "C"], ["C", "B"]],
    }


def test_trip_check():
    plan = {"legs": [["A", 1, 2], ["B", 2, 3], ["C", 3, 4]]}
    unique = _trip({"A": [1, 2, "wedding"]})
    assert checks.count_trip_plans(unique) == 1
    assert checks.check_trip(unique, plan) == []
    # Without the window C-B-A is valid too, so the plan is not unique.
    assert checks.count_trip_plans(_trip({})) == 2
    assert checks.check_trip(_trip({}), plan)
    assert checks.check_trip(unique, {"legs": [["A", 1, 3], ["B", 3, 4], ["C", 4, 5]]})


def _meeting(f2_end):
    return {
        "locations": ["S", "L1", "L2"],
        "start_location": "S",
        "day_start": 540,
        "travel_minutes": [["L1", "L2", 30], ["L1", "S", 10], ["L2", "S", 10]],
        "friends": [
            {"name": "Ann", "location": "L1", "window": [600, 660], "min_minutes": 30},
            {"name": "Bob", "location": "L2", "window": [600, f2_end], "min_minutes": 30},
        ],
    }


def test_meeting_check():
    one = {"meetings": [["Ann", "L1", 600, 630]]}
    both = {"meetings": [["Ann", "L1", 600, 630], ["Bob", "L2", 660, 690]]}
    assert checks.meeting_optimum(_meeting(660)) == 1
    assert checks.check_meeting(_meeting(660), one) == []
    assert checks.meeting_optimum(_meeting(720)) == 2
    assert checks.check_meeting(_meeting(720), both) == []
    assert checks.check_meeting(_meeting(720), one)
    too_early = {"meetings": [["Ann", "L1", 540, 570]]}
    assert checks.check_meeting(_meeting(660), too_early)


def test_check_instances_rejects_missing_instance():
    record = {"id": "VertexCover-L3-s0", "kind": "VertexCover", "level": 3, "seed": 0,
              "payload": TRIANGLE, "ground_truth": {"vertices": [0, 1]}}
    assert checks.check_instances([record], ["VertexCover"], 3, 1, 0) == []
    assert checks.check_instances([record], ["VertexCover"], 3, 2, 0)
    assert checks.check_instances([record], ["VertexCover"], 4, 1, 0)


RECORDS = [{"id": "T-0", "kind": "VertexCover", "seed": 0},
           {"id": "T-1", "kind": "VertexCover", "seed": 1}]


def _wrong_first(record):
    return record["seed"] == 1


def _expect(record, strategy):
    return strategy == "ss:1" or not _wrong_first(record)


def _outcomes(flip=None):
    out = []
    for r in RECORDS:
        for mode in checks.MODES:
            for strategy in checks.STRATEGIES:
                ok = _expect(r, strategy) != ((r["id"], mode, strategy) == flip)
                wrong = _wrong_first(r)
                attempts = {"ws": 1, "ps:3": 3, "ss:1": 1 + wrong, "is": 1}[strategy]
                out.append({"model": "m", "instance_id": r["id"], "mode": mode,
                            "strategy": strategy, "attempts": [{}] * attempts,
                            "final": {"status": "Success" if ok else "WrongAnswer"}})
    return out


def test_outcome_check_counts_wrong_verdicts():
    assert checks.check_outcomes(_outcomes(), RECORDS, "m", _expect) == (24, 0, [])
    attempted, failed, errors = checks.check_outcomes(
        _outcomes(("T-1", "CoT", "ws")), RECORDS, "m", _expect)
    assert (attempted, failed) == (24, 1) and errors
    attempted, failed, _ = checks.check_outcomes(_outcomes()[1:], RECORDS, "m", _expect)
    assert failed == 1


def test_cells_check(tmp_path):
    rows = ["task,model,prompt_mode,strategy,successes,total,rate"]
    for mode in checks.MODES:
        for strategy in checks.STRATEGIES:
            wins = 2 if strategy == "ss:1" else 1
            rows.append(f"VertexCover,m,{mode},{strategy},{wins},2,{wins / 2!r}")
    path = tmp_path / "cells.csv"
    path.write_text("\n".join(rows) + "\n")
    assert checks.check_cells(path, RECORDS, "m", _expect) == []
    path.write_text("\n".join(rows).replace(",ps:3,1,2,", ",ps:3,2,2,", 1) + "\n")
    assert checks.check_cells(path, RECORDS, "m", _expect)


def test_gateway_check():
    outcomes = _outcomes()
    # 3 modes x (6 + 7) requests, 3 x (5 + 6) new entries.
    good = {"hits": 6, "misses": 33}
    assert checks.check_gateway(good, outcomes, RECORDS, 33, _wrong_first, warm=False) == []
    assert checks.check_gateway(good, outcomes, RECORDS, 34, _wrong_first, warm=False)
    assert checks.check_gateway({"hits": 6, "misses": 34}, outcomes, RECORDS, 33,
                                _wrong_first, warm=False)
    assert checks.check_gateway(good, outcomes[1:], RECORDS, 33, _wrong_first, warm=False)
    assert checks.check_gateway(good, outcomes, RECORDS, 0, _wrong_first, warm=True)
    assert checks.check_gateway({"hits": 39, "misses": 0}, outcomes, RECORDS, 0,
                                _wrong_first, warm=True) == []


def _post(url, messages, key="k"):
    body = json.dumps({"model": "m", "messages": messages}).encode()
    request = urllib.request.Request(url, body, {"x-api-key": key})
    with urllib.request.urlopen(request, timeout=10) as reply:
        return json.loads(reply.read())["content"][0]["text"]


def test_provider_reply_rule():
    question = {"role": "user", "content": "shots\n### Target Question ###\nQ1"}
    with FakeProvider({"Q1": ("wrong", "right")}, 0.0, "k") as provider:
        assert _post(provider.url, [question]) == "wrong"
        assert _post(provider.url, [question, {"role": "assistant", "content": "wrong"},
                                    {"role": "user", "content": "re-check"}]) == "right"
        for messages, key, status in (([question], "bad", 401),
                                      ([{"role": "user", "content": "no marker"}], "k", 400)):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(provider.url, messages, key)
            assert err.value.code == status
        assert (provider.served, provider.rejected) == (2, 2)


def test_wrong_first_answers_parse_but_fail():
    src = HERE.parent / "src"
    if not (src / "searchbench").is_dir():
        pytest.skip("needs the searchbench sources")
    sys.path.insert(0, str(src))
    from searchbench import GenSpec, TaskKind, canonical_text, evaluate, generate

    for kind in TaskKind:
        inst = generate(GenSpec(kind=kind, level=3, seed=1))
        report, verdict = evaluate(
            inst, canonical_text(inst.payload, run.wrong_solution(inst.ground_truth)))
        assert report.candidate is not None, kind
        assert verdict.status.value in ("WrongAnswer", "ConstraintViolation"), kind


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m for m in spec["per_layer"]}
    assert {name: m["unit"] for name, m in listed.items()} == tracing.metric_units()
    for name, m in listed.items():
        want = "higher" if name in tracing.HIGHER_IS_BETTER else "lower"
        assert m["better"] == want, name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

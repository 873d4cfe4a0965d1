"""Byte pins for every artifact a refactor of the solver or renderer could move.

Each digest changes only with a format change recorded in CHANGES.md:

* the 12 default-exemplar prompts (4 tasks x Direct/CoT/AoT), each rendered
  against one fixed target per task;
* ``instance_to_record`` and ``trace_to_records`` of the depth-first and the
  greedy trace over a small grid that covers every task and includes the
  exemplar instances the prompts embed;
* the instances of every task, whose generator asks an exact search for its
  ground truth (VertexCover's optimum cover, TripPlanning's plan uniqueness,
  MeetingPlanning's optimal schedule, ThreeDM's depth-first matching), one
  digest per level over seeds 0-29: a wrong answer changes which regeneration
  attempt is accepted or which truth is kept, which two seeds per level would
  rarely show;
* the ``(status, reason)`` verdicts of ``evaluate`` on a seeded corpus of
  mutated canonical answers for every task at levels 1, 6 and 10: a dropped
  row, two swapped rows, a changed case, a vocabulary name glued to letters,
  markdown wrapping and the answer restated twice;
* both traces of hand-built unsolvable payloads.  The generator emits only
  solvable instances, so these alone reach the failure paths: every child
  pruned, a dead end below the root, Trip's root loop and Meeting's
  zero-target exit;
* ``outcomes.jsonl``, ``cells.csv`` and ``cache.jsonl`` of a scripted
  ``mock`` run over every task whose answers reach every verdict status, an
  ``ss:1`` refinement that turns a wrong answer right and a ``ps:3`` unit of
  three distinct samples, with answer texts repeated inside and across
  instances;
* ``cache.jsonl`` of an ``oracle`` run of every task over the default
  matrix, the response cache a cold run appends line by line;
* every bundle ``cli.prompt_lookup`` gives for one target per task at levels
  1, 3 and 10.

A prompt change alters every request digest and orphans existing response
caches, so a failure here is a format change, not a test to update.
"""

import hashlib
import json
import random
import re

from searchbench import cli
from searchbench.answers import canonical_text, evaluate
from searchbench.cli import config_from_dict, generate_instances, run
from searchbench.generate import MAX_LEVEL, MIN_LEVEL, GenSpec, exemplar_instance, generate
from searchbench.prompts import (
    DIRECT_SHOT_COUNT,
    PromptMode,
    Shots,
    bundle_text,
    default_exemplars,
    render,
)
from searchbench.solver import SearchMode, solve, solve_payload, trace_to_records
from searchbench.meeting import MeetingPayload
from searchbench.trip import TripPayload
from searchbench.tasks import TaskKind, VerdictStatus, instance_to_record

from conftest import DEAD_END_BELOW_ROOT

GRID_LEVELS = (1, 3, 6, 8, 10)
GRID_SEEDS = (0, 1)
GROUND_TRUTH_KINDS = (
    TaskKind.VERTEX_COVER,
    TaskKind.TRIP_PLANNING,
    TaskKind.MEETING_PLANNING,
    TaskKind.THREE_DM,
)
GROUND_TRUTH_SEEDS = range(30)


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _grid():
    for kind in TaskKind:
        for level in GRID_LEVELS:
            for seed in GRID_SEEDS:
                yield generate(GenSpec(kind=kind, level=level, seed=seed))
        for index in range(DIRECT_SHOT_COUNT):
            yield exemplar_instance(kind, index)


def prompt_digests() -> dict[str, str]:
    out = {}
    for kind in TaskKind:
        target = generate(GenSpec(kind=kind, level=3, seed=0))
        exemplars = default_exemplars(kind)
        for mode in PromptMode:
            bundle = render(target, Shots(mode, exemplars))
            out[f"{kind.value}.{mode.value}"] = _digest(bundle_text(bundle))
    return out


def record_digests() -> dict[str, str]:
    out = {}
    for inst in _grid():
        out[inst.id] = _digest(
            {
                "instance": instance_to_record(inst),
                "dfs": trace_to_records(solve(inst, SearchMode.DFS)),
                "greedy": trace_to_records(solve(inst, SearchMode.GREEDY)),
            }
        )
    return out


def instance_digests() -> dict[str, str]:
    return {
        f"{kind.value}-L{level}": _digest(
            [
                instance_to_record(generate(GenSpec(kind=kind, level=level, seed=seed)))
                for seed in GROUND_TRUTH_SEEDS
            ]
        )
        for kind in GROUND_TRUTH_KINDS
        for level in range(MIN_LEVEL, MAX_LEVEL + 1)
    }



VERDICT_LEVELS = (1, 6, 10)
VERDICT_SEEDS = range(5)
VERDICT_DRAWS = 3


def _vocabulary(payload) -> list[str]:
    """The names an answer must snap back to: cities, or friends and places."""
    if isinstance(payload, TripPayload):
        return list(payload.cities)
    if isinstance(payload, MeetingPayload):
        return [f.name for f in payload.friends] + list(payload.locations)
    return []


def _split_rows(text: str) -> tuple[str, list[str], str]:
    """(head, rows, tail) of a canonical answer; a cover's rows are the
    items of its one bracketed list."""
    head, _, body = text.partition("\n\n")
    if body.startswith("Vertex cover: ["):
        return head + "\n\nVertex cover: [", body[len("Vertex cover: ["):-1].split(", "), "]"
    return head + "\n\n", body.split("\n"), ""


def _drop_row(rng, text, vocab):
    head, rows, tail = _split_rows(text)
    del rows[rng.randrange(len(rows))]
    return head + ("\n" if not tail else ", ").join(rows) + tail


def _swap_rows(rng, text, vocab):
    head, rows, tail = _split_rows(text)
    if len(rows) > 1:
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return head + ("\n" if not tail else ", ").join(rows) + tail


def _change_case(rng, text, vocab):
    change = rng.choice((str.upper, str.lower, str.swapcase, str.title))
    lines = text.split("\n")
    if rng.random() < 0.5:
        return change(text)
    i = rng.randrange(len(lines))
    lines[i] = change(lines[i])
    return "\n".join(lines)


def _glue_name(rng, text, vocab):
    present = [name for name in vocab or ("V", "x") if name in text]
    name = rng.choice(present)
    starts = [m.start() for m in re.finditer(re.escape(name), text)]
    at = rng.choice(starts)
    glue = "".join(rng.choice("abcxyzq") for _ in range(rng.randint(1, 2)))
    if rng.random() < 0.5:
        return text[:at] + glue + text[at:]
    end = at + len(name)
    return text[:end] + glue + text[end:]


def _markdown(rng, text, vocab):
    style = rng.randrange(4)
    if style == 0:
        return "```\n" + text + "\n```"
    lines = text.split("\n")
    if style == 1:
        return "\n".join(f"- {line}" if line else line for line in lines)
    if style == 2:
        return "\n".join(f"**{line}**" if line else line for line in lines)
    return "\n".join(f"| {line} |" if line else line for line in lines)


def _restate(rng, text, vocab):
    first = rng.choice((text, _drop_row(rng, text, vocab), _swap_rows(rng, text, vocab)))
    second = rng.choice((text, _drop_row(rng, text, vocab)))
    return first + "\n\nLet me restate the final answer.\n\n" + second


MUTATIONS = (
    ("drop-row", _drop_row),
    ("swap-rows", _swap_rows),
    ("case", _change_case),
    ("glue-name", _glue_name),
    ("markdown", _markdown),
    ("restate", _restate),
)


def verdict_digests() -> dict[str, str]:
    """Per task: every ``(status, reason)`` of ``evaluate`` on the canonical
    answer and on ``VERDICT_DRAWS`` seeded draws of each mutation."""
    out = {}
    for kind in TaskKind:
        rows = []
        for level in VERDICT_LEVELS:
            for seed in VERDICT_SEEDS:
                inst = generate(GenSpec(kind=kind, level=level, seed=seed))
                text = canonical_text(inst.payload, inst.ground_truth)
                vocab = _vocabulary(inst.payload)
                rng = random.Random(f"{inst.id}-verdicts")
                cases = [("canonical", text)] + [
                    (name, mutate(rng, text, vocab))
                    for name, mutate in MUTATIONS
                    for _ in range(VERDICT_DRAWS)
                ]
                for name, answer in cases:
                    _, verdict = evaluate(inst, answer)
                    rows.append([inst.id, name, verdict.status.value, verdict.reason])
        out[kind.value] = _digest(rows)
    return out


def unsolvable_digests(instances) -> dict[str, str]:
    payloads = {inst.id: inst.payload for inst in instances}
    payloads["ThreeDM-dead-end-below-root"] = DEAD_END_BELOW_ROOT
    return {
        key: _digest({mode.value: trace_to_records(solve_payload(p, mode)) for mode in SearchMode})
        for key, p in payloads.items()
    }


NO_ANSWER = "I could not find an answer."


def _wrong_and_broken(inst) -> tuple[str, str]:
    """Two parseable answers: one that verifies as wrong (a constraint
    violation for TripPlanning, whose valid plan is unique) and one that
    breaks a constraint."""
    right = canonical_text(inst.payload, inst.ground_truth)
    lines = right.splitlines()
    if inst.kind is TaskKind.VERTEX_COVER:
        every = ", ".join(f"V{v}" for v in range(inst.payload.vertex_count))
        return f"Vertex cover: [{every}]", "Vertex cover: [V0, V99]"
    if inst.kind is TaskKind.THREE_DM:
        return "\n".join(lines[:-1]), right + "\n(x99, y99, z99)"
    if inst.kind is TaskKind.TRIP_PLANNING:
        return right.replace("Day 1-", "Day 2-", 1), "\n".join(lines[:-2])
    return "\n".join(lines[:-1]), right + "\nMeet Zed at Nowhere from 9:00 to 10:00."


def scripted_run_digests(tmp_path) -> dict[str, str]:
    """Per instance, in matrix order: ``ws`` answers wrong; ``ps:3`` samples
    no answer, a broken answer and the right one; ``ss:1`` answers wrong,
    then right after refinement; ``is`` gives no answer."""
    doc = {
        "tasks": [k.value for k in TaskKind],
        "levels": [4],
        "instance_count": 1,
        "models": [{"name": "m-mock", "backend": "mock"}],
        "matrix": [["Direct", "ws"], ["CoT", "ps:3"], ["AoT", "ss:1"], ["AoT", "is"]],
        "out_dir": str(tmp_path),
        "cache_path": str(tmp_path / "cache.jsonl"),
    }
    script = []
    for inst in generate_instances(config_from_dict(doc)):
        right = canonical_text(inst.payload, inst.ground_truth)
        wrong, broken = _wrong_and_broken(inst)
        script += [wrong, NO_ANSWER, broken, right, wrong, right, NO_ANSWER]
    doc["models"][0]["script"] = script
    run(config_from_dict(doc), echo=lambda _: None)
    outcomes = (tmp_path / "outcomes.jsonl").read_text(encoding="utf-8")
    statuses = {
        attempt["status"]
        for line in outcomes.splitlines()
        for attempt in json.loads(line)["attempts"]
    }
    assert statuses == {s.value for s in VerdictStatus} - {"BackendError"}
    return {name: _digest((tmp_path / name).read_text(encoding="utf-8"))
            for name in ("outcomes.jsonl", "cells.csv", "cache.jsonl")}


def oracle_cache_digest(tmp_path) -> str:
    """The cache file of an oracle run of every task on the calling thread,
    so its lines are appended in unit order."""
    cache = tmp_path / "cache.jsonl"
    run(config_from_dict({
        "tasks": [k.value for k in TaskKind],
        "levels": [3],
        "instance_count": 2,
        "models": [{"name": "m-oracle", "backend": "oracle"}],
        "out_dir": str(tmp_path),
        "cache_path": str(cache),
    }), echo=lambda _: None)
    return _digest(cache.read_text(encoding="utf-8"))


def bundle_digests(monkeypatch) -> dict[str, str]:
    """Per (task, mode): the bundle texts ``cli.prompt_lookup`` gives for one
    target per task at levels 1, 3 and 10.  Every exemplar set must come
    through ``cli.default_exemplars`` and every bundle through ``cli.render``,
    the names the benchmark's tracer wraps: one call per task and one per
    (instance, mode)."""
    exemplar_calls, bundles = [], []
    default_exemplars, render = cli.default_exemplars, cli.render

    def counted_exemplars(kind):
        exemplar_calls.append(kind)
        return default_exemplars(kind)

    def kept_render(instance, *args, **kwargs):
        bundles.append((instance, render(instance, *args, **kwargs)))
        return bundles[-1][1]

    monkeypatch.setattr(cli, "default_exemplars", counted_exemplars)
    monkeypatch.setattr(cli, "render", kept_render)
    doc = {
        "tasks": [k.value for k in TaskKind],
        "levels": [1, 3, 10],
        "instance_count": 1,
        "models": [{"name": "m-oracle", "backend": "oracle"}],
    }
    instances = generate_instances(config_from_dict(doc))
    prompt = cli.prompt_lookup()
    for inst in instances:
        for mode in PromptMode:
            prompt(inst, mode)
    assert exemplar_calls == list(TaskKind)
    assert [(inst.id, b.mode) for inst, b in bundles] == [
        (inst.id, mode) for inst in instances for mode in PromptMode
    ]
    out: dict[str, list] = {}
    for inst, bundle in bundles:
        key = f"{inst.kind.value}.{bundle.mode.value}"
        out.setdefault(key, []).append(_digest(bundle_text(bundle)))
    return {key: _digest(texts) for key, texts in out.items()}


PROMPT_DIGESTS: dict[str, str] = {
    "VertexCover.Direct": "a2797eba2ca42e7b47ced388edb0a99198e8db66fbe393b2aa00b4544bea70b6",
    "VertexCover.CoT": "d8add8aad74bf19b027c0d6b9a9f7d49da7975f9642a4c516d4e4191b75682aa",
    "VertexCover.AoT": "393ab12f5698c0413cdfd898559c8e885d35c577a02eb147bb04308426a259fe",
    "ThreeDM.Direct": "f6ce44553ce51b319d44361b1b116e907cb9ce069b1a58c64b251ffd3e6b8002",
    "ThreeDM.CoT": "c607f8a19e32ab92253aec5213a120b2b81a05b7c3396afc0858c5a7683c12da",
    "ThreeDM.AoT": "0c344b4a9c95b7c84a34b787330267449d4a32693713bc9163dc8ddf89ddf2e7",
    "TripPlanning.Direct": "fafbff46c44ee4a065dbb0d21e2fe903928074a04156288e293cbae0746ab483",
    "TripPlanning.CoT": "08dd3da52107de704620afcbeed22a6e45b40d769461a78783ac2ed99f732a34",
    "TripPlanning.AoT": "da0a61eb1013652f2aaf325816d27a48c60d6b9b78d14d1e5d4813f9dbc5f9a6",
    "MeetingPlanning.Direct": "a109ccfacbb00aceb035e1e5fcdbc7795fdbc21dd352a3cf8d805647b2ebaa2a",
    "MeetingPlanning.CoT": "b25cf90bf09d62274faf96e5916ff54bcfa4f9b3cb8f594faff499773e66d83e",
    "MeetingPlanning.AoT": "554cf8fb702d9c86ea22edad244a0505c21dd4ff92ce050153c2afc81ccf33da",
}

RECORD_DIGESTS: dict[str, str] = {
    "VertexCover-L1-s0": "78a21280d37d20d67edafce5c8ac49751163a087c0abd64dc698fd559f434ded",
    "VertexCover-L1-s1": "d494a6d8a64aebcf24d90eb9508960cd2f006d3a9e9616dbc1e7b7ec6f045593",
    "VertexCover-L3-s0": "ca210ee091f8f6d23fa02e1de6b27bec3481f93c8f96b67c40d2211d078fb964",
    "VertexCover-L3-s1": "2f0fd4cf1cd924ecd05822ecb5cffe89c9f36729ae08b110cd19efcac8b9d819",
    "VertexCover-L6-s0": "e39db6d43284f45dfa1032595991d910838239f3989d519119f0c77519ebf4f2",
    "VertexCover-L6-s1": "0261cc141d6c5faa6833c9af0df66a4190adc12c19eeba3de4874e0598b18753",
    "VertexCover-L8-s0": "cedc532020acf288b6e3b251f3fa653d3603922845d37c884947c3bb87272b7d",
    "VertexCover-L8-s1": "29b4b6474422c1609f7d6a3dd202557f8ec96996735b411f4fa4b7dbabc4adb9",
    "VertexCover-L10-s0": "a69b34c8a6e0404ded032fa404ebc43da8a83445e4ff837dc8a3c88a85f44dc2",
    "VertexCover-L10-s1": "ae7a76483a92fd549a63698d5d9200c5642a409a3fd24589851061e4efa0c661",
    "VertexCover-L6-s5557310338282525420": "e99cad968aa1d3079b53ee1b8a91c6e94d0e21883b7c1f24241d6956be22c5de",
    "VertexCover-L6-s15735530717821978019": "81fb5dabdd552e1b42c97ae7a43b868e1bbd1e883448d95bf5ddd11142c6b71e",
    "VertexCover-L6-s8164557844437578804": "67afbbd5f1ec9f3e4a3e39efb392146840ba4a0e4755fca69b6ee57048d509e1",
    "VertexCover-L6-s10943988384652187409": "cc83b25d85fc8510b86b3aa69cabe62089175f6c2b7539d09d21a44ba5b1b86e",
    "VertexCover-L6-s12915870052504132696": "6faee66cecb6ec6d3de95ba61233194fc02a5ecada08a42473f848f0e4b3b9f3",
    "ThreeDM-L1-s0": "62761752a2d102e4eb1293ce18db999f6020cb4cfa91647bd3c49c9131ce83aa",
    "ThreeDM-L1-s1": "be6d1dee1c27db111201d47abbe4c3332f4048ffa2bea0916daae068f5afce2a",
    "ThreeDM-L3-s0": "e77673e2730a501b45daed7bef80fab47d0976572966e57e4f8e4520664c234a",
    "ThreeDM-L3-s1": "4f5d5ae1b2fc58ae931d3629124acde04b246a6cab44c029137fac00fd6b36e1",
    "ThreeDM-L6-s0": "03e8ed3a02298175e2258a29b897f16d2b8ae0ac2b30a8a1be57ea704facc9fd",
    "ThreeDM-L6-s1": "c58280f51f093427ad52511170cf84cda6c4d9f065386ee90672a0a6e41dd0cf",
    "ThreeDM-L8-s0": "6374b9b2bd101bd48c0216e0323274286f3bd7ff2c80da3ab8e42a1481bdbea4",
    "ThreeDM-L8-s1": "c7e6bb6699c54cbbb605324e38dd169624ba99f77d79ed318b372c871d9c119c",
    "ThreeDM-L10-s0": "9117444d206f8c7326cd7de53f6f0e9b9154369b6802e19ea4c9c7316b9b91e6",
    "ThreeDM-L10-s1": "6ffd94284bc0e3750a506b80551b802cd8a70007c57c0739151acd7c396632b0",
    "ThreeDM-L6-s9310076797285300999": "745df2f83c22d9c05a0f85c2c0f3456d38d25ee5da3121fa55190ef07df6cc24",
    "ThreeDM-L6-s5710143715560611531": "5b9d81e9e042bcb8e056426398fb65a5d1fa6249159146d2ae8d3d2727fefb07",
    "ThreeDM-L6-s3931938196457219879": "d1aa53b10ecd7f8c61b2a82fbc92b339ee72e08c5397486de07e3bcf4604345f",
    "ThreeDM-L6-s17796964460333077770": "45aa34c81cb012e5104d7afdb408e0eface8593458ea7d6b8bb95014e5f06b12",
    "ThreeDM-L6-s5251973555289194899": "ce588146b61cb6487227f47a8162163262776714c56414699fc0f8955564dc1f",
    "TripPlanning-L1-s0": "96eb5d2765693020441c3bd2470615c6703b4136c2573c69988335ae02f20a5d",
    "TripPlanning-L1-s1": "d55784f27cca82c00a6cbbfc8133df95af70ba256b17d1ab23d7c9b9a8e968b8",
    "TripPlanning-L3-s0": "90ed8a747b84dd26c1587ecfbb9fc4c9f508b592622e4628f023ff3d205fc6a3",
    "TripPlanning-L3-s1": "d3fd6e186e6dff116d2625d55e86894e8f86bd620ed75b67e2a501a13d8ed22f",
    "TripPlanning-L6-s0": "362f7b8253221989e8730d4182e48d348f0bde18284ced71d45e920b68560b00",
    "TripPlanning-L6-s1": "e341d3a195544a95a7f83560d6b7f5a43c8de1fa8bfa29e651fa7e01c6d69841",
    "TripPlanning-L8-s0": "5ee7af5858eb88374a6393ebf0a239e07309f61e3ecb47d4cb3e685167bb707c",
    "TripPlanning-L8-s1": "99ad85da4653a8bdc6aed59abc9f755e82d923c10c43732eaf7c243b192e3bad",
    "TripPlanning-L10-s0": "d0f097d3c57b5007e9bc030a0495fcdf85f6774168ae8e4451dd55ec8d298b4e",
    "TripPlanning-L10-s1": "20fc4b0b639214a72373ca0afe76616732752510e8c77ea23dd1a4f893d3b701",
    "TripPlanning-L6-s16695085972075268407": "7e58e6e68805f3896dbf6e7bb55cc4f867cd6e5cb8838e70a7e5c9928d934872",
    "TripPlanning-L6-s1261148835137363837": "fa11021c6c53b728d8df712d481f6eefc81d7063f71ae7f8c2aa2b538b26f259",
    "TripPlanning-L6-s5091622190218996942": "aa21d6d981a649411ad924a6d90f0b49a4390f6057ec0c61dec2a1fa5ef0f817",
    "TripPlanning-L6-s2949564658303080582": "4a00e67e534ad14ac217c20b1e4972f70fe3df4ef6ef2307ab2b284aa43c79f5",
    "TripPlanning-L6-s14050041850594952897": "0695bfd7b37ad3872dca6b17ea632bed4b369ad2c1a3b1aed1561b2246ee2294",
    "MeetingPlanning-L1-s0": "45991e1fc7f55abdf7de0955d305a6d4112d369f0c74029fd2f77354763d0363",
    "MeetingPlanning-L1-s1": "afe77e6e646ba071d53f3572527a59e57f66cea846080ec1aeec4d1965198540",
    "MeetingPlanning-L3-s0": "da788d8a8988e438e257de3f3ad3e2ca3728050462bd403d5a574a41aa47c81c",
    "MeetingPlanning-L3-s1": "8d4d36244c569ab873a59d2766d9752d5ab1371520e0e6ea5eabad5b2e2261d1",
    "MeetingPlanning-L6-s0": "e76da221e5afaa528135396382bffcd376eabc44b813b491e4e0cb1ad18ef224",
    "MeetingPlanning-L6-s1": "b8c71783abe053d97d82b725b76ab4944fbe58120921ae23c3fc439937986d7a",
    "MeetingPlanning-L8-s0": "2b8010b8a693d0e58d8d6631f47c6bb15380236eaeba63a53c71af0b1694cda0",
    "MeetingPlanning-L8-s1": "69700e172bfed83ce9b681f560bd7cd1995caf8c3a15bf217991b46c140ca698",
    "MeetingPlanning-L10-s0": "62de3681312b21b6ed64b8a68903b8197b1913ffc4429de0042a1059a1e0cc3d",
    "MeetingPlanning-L10-s1": "5b1b9c0becf38ffec88fca8f13731c9e04ef17707e4b6d86784204df911fa13c",
    "MeetingPlanning-L6-s5988290363070431771": "633f94e3f774bead88eb1bfaba2085f846284a7bb98e73390076abb4870027dc",
    "MeetingPlanning-L6-s9647915442433589015": "63a62b9f2d73165e86282093f726ed4ae0558108c5e80ae73bde84d5d3dbe218",
    "MeetingPlanning-L6-s6653621608716083031": "a51ad50ef5352bc5c5f01ba4a86b30a4997c979a5a6a6ff0ccb5a1be4a7566c5",
    "MeetingPlanning-L6-s16300891492664304635": "9448ba4f474e6681ace2b640dd1ef5378588de036a589587ae1837337bbd2427",
    "MeetingPlanning-L6-s7801095620611994934": "adf32491146ca4b658e39c3acc034013fe41f25facaf62ca257126567a844ea1",
}

INSTANCE_DIGESTS: dict[str, str] = {
    "VertexCover-L1": "1e173c408463554082eed82bfe488b3dd7b7872e67c2b7d7785068419f28b3c5",
    "VertexCover-L2": "9d2fca51af647e3154465b70356742f531c8cd5b934e310a893fda95d319efb4",
    "VertexCover-L3": "47568d5eb1a20e9325322da211fdda6f5fff111722bbf97454368d3a13f8feab",
    "VertexCover-L4": "c3fb6b288e0827de431ae26f1aca7fcd015e1ee8ac2ca745c6d730427aed8399",
    "VertexCover-L5": "c86ec803235732fe36eef3af47c05f42bc6f895c1fc4f3b76215f2cd44a4e529",
    "VertexCover-L6": "77b0b5ca843e0b22a0b0a1fdcce0be907e56ac6a0fe32bc1131cf9ca9fb5f846",
    "VertexCover-L7": "03602c2f5d49100f299f57060bc668ae406a5f845a83b509549cbf054df07700",
    "VertexCover-L8": "1ac2262576e9f5efb8b8ae13339cd4ddc056c9ff739f0c1f9c03f6de56cc1b45",
    "VertexCover-L9": "66b7f2765a5874f9c975eb82e512932fc2a29fd045fd916cfa41098150116880",
    "VertexCover-L10": "76c1769298f665c1f9af6d00ccdae3438d95be8b58d501a0affa41604bfb231d",
    "TripPlanning-L1": "3e47505a53a28f68bdda7b5defe36cc682b6faa61a3e1dc282dc51552e9e7843",
    "TripPlanning-L2": "6f4dac389d839fac8eb48532d7f1fcafed95545ec85c6029379b48af0be6256e",
    "TripPlanning-L3": "f5a957a90cda5c876f38b81b6542bc50d3bca7072392119e98ca9616c479fca0",
    "TripPlanning-L4": "012d1f1cfdaa1ae90f8bc54317fa176623df5f4428b865ed4f3a5a7f4bb4de30",
    "TripPlanning-L5": "2f42f6a221681db85acadce0b15419bebcefed68ebc2b574acb911b7c4bb9fab",
    "TripPlanning-L6": "91d27e748665f7e09524dc3d03ebceb51841355cbc069d424a24c9998e3709cf",
    "TripPlanning-L7": "359075b78cbe0b662c787668fb60f2118b3d3d393233d9417d09e52fe207ce76",
    "TripPlanning-L8": "4f4113cb44251cef8073beab38f2c1597593099157679a934a700a25e0e836e4",
    "TripPlanning-L9": "fc12e03e75330fc9fc1868350f64b360016ac6f8498a83110c445c9ab1dee4ee",
    "TripPlanning-L10": "cbb774698ce6ef30883a43954b7a9a83e7fdc81325357178b960efaae56e66d9",
    "MeetingPlanning-L1": "c088e6d84d81278f6a40cd19e1e1ae496371f3b11f7fdb42f7f19b9ca9d9481d",
    "MeetingPlanning-L2": "ad9da8e9420ba3241cd7ce54a51042d2ea23e698e21f3d10bc49c3e4a455160b",
    "MeetingPlanning-L3": "ecd0c18926699a4919e09b59c58b29e222812896f94727983558f6861ebe7077",
    "MeetingPlanning-L4": "7d7038576ac2775f949cbc9d714940535fd69c12fe88afdfb97fd7971daac655",
    "MeetingPlanning-L5": "6cbf296c95ff3649c4f790bcb6b110b6c3bed6684b8ed45a40c951a53178cddd",
    "MeetingPlanning-L6": "23ed51c811103e072d850811c75502773308f77da1907f3fbd9fca2f676c679f",
    "MeetingPlanning-L7": "788c2cd03aac855d3cae4ac3cdd856c0e2aff2bfaba3dc7b20191a93ffbdff3f",
    "MeetingPlanning-L8": "679fe6cda0c2a0000b3b42c085bdc94c90eda3bf8027fe93df34fe483766503e",
    "MeetingPlanning-L9": "740da1076ffccf5289fce645993494db521bb25a530a93151a4070ccede3e989",
    "MeetingPlanning-L10": "6f997b31caafa776fd58a9bec77a7c010c2681e4779a4010a81fabdddbba702c",
    "ThreeDM-L1": "a37cac1c59a0ba321c1c2202ba8ae805883d78ba95cbaf7ceac1954ed889634d",
    "ThreeDM-L2": "6ba7b3335370cf261b1c47c30c4b006081a894b238b46de413239b9bdf9a4217",
    "ThreeDM-L3": "7f4923768ba8721444ba5b50e43fd53dd9bd7ff9d5265eaa5610da5abb729968",
    "ThreeDM-L4": "a243c71cadcc4edaeb7607bd24901ae4ee94d1ec7c9c0c10ddb29cfe104cfbb3",
    "ThreeDM-L5": "13944e9cfd77c7eecad561cf493d17decd4f8cda0d9956f0403f875b5c576e93",
    "ThreeDM-L6": "8ace1ee248af30e6e3d5584f4125c55a42a9235cb340a67641c3b7881d570126",
    "ThreeDM-L7": "00b46f195371b273f0baff74321303897b5ec5e7dabda60250ab02dca3140dd0",
    "ThreeDM-L8": "42424b77503a74a65e4ab5e5f6c6353897fc5d7102524e1174b0b3e70d2937a2",
    "ThreeDM-L9": "5ea597612bebd381f6ed5b969fb421096a6d31d465640450efae94b4ef23287c",
    "ThreeDM-L10": "08c4fc06df9c46e75876027422920c2fe197034103c4b168218b1de6db5b99e7",
}


VERDICT_DIGESTS: dict[str, str] = {
    "VertexCover": "7cf0845ccd3216008fc9846e428924fb76fa60e13a7df67300782667e9effae6",
    "ThreeDM": "b417df4490176882965c8fa38dfebb34f5133f0a70598bc7318186aea4a5da0c",
    "TripPlanning": "fc0dfb633d46a116a8c88cd185916bbef4879ee6475177e258b8313756f2e89e",
    "MeetingPlanning": "cc187e56b45cb021a4c131f9b3114fdbc91703bef09d9b4d11f7f69ae178db0d",
}


UNSOLVABLE_DIGESTS: dict[str, str] = {
    "TripPlanning-unsolvable": "7884bb3653f107b0d6e42f5298863f469ea8792533598677be723386324bb5f4",
    "VertexCover-unsolvable": "c307eb0e1b797cbbe44ddba9aa76ec627eed78bd694335d9c4f078d40de441f4",
    "ThreeDM-unsolvable": "d435f5e6def51cc204955b3138d67f605c553b4ee67f6e27015879206fa7cc00",
    "MeetingPlanning-unsolvable": "8d477ab3ba2d7d02fd68aacf1835c2d6b2174ac7d1f41408499743acc185a123",
    "ThreeDM-dead-end-below-root": "9ecda70970c463dde2e81b7c18bd15207c606ff8ba20ee209400a4fd9e59c294",
}


SCRIPTED_RUN_DIGESTS: dict[str, str] = {
    "outcomes.jsonl": "4cb1f14ede5bf52baa7126df67b58ba4b02c58339ef004534347fa7fb4d3f25b",
    "cells.csv": "6471dde685e8d87dc4e1b88f55f3d59e3b22372adf172bf8c709237bb07001c7",
    "cache.jsonl": "ba4e45d203c4c9b632c347a60060d3bbd0ce405c0ac571e257ec6f2cee4db610",
}


ORACLE_CACHE_DIGEST = "36268c69d7bc2a703caa394f59eea23b1f0011d76395f3e45da33d797db3f44d"


BUNDLE_DIGESTS: dict[str, str] = {
    "VertexCover.Direct": "3e734ce853a7315798d576ddc4441ac904c10433c6c37e3c18311bc308f93fab",
    "VertexCover.CoT": "1327e9e4af3996f000e4e9a015cbbf4c2cdc6492e3e629756f54667256b183c0",
    "VertexCover.AoT": "235c6c8c93202f726b51f02119dcafd947eff63d97181313255ae9ae274268a5",
    "ThreeDM.Direct": "b7cfdfcdc2c3ca8afab1bd5d241f030e0b3a5ef1392d8ae96796eb6cefaa66f8",
    "ThreeDM.CoT": "50065b790ff61d0f689eff8437709cd9a4e573d4423a80c00c315d77909e1d62",
    "ThreeDM.AoT": "8cf17bcaab52f7bb9a5b7748b2dde210c40a1c41e69cd61effe65a3943cbe7be",
    "TripPlanning.Direct": "5226d7acc3acd2211789fd6f739b945e50b426ed16ab36c36ddbc038328b4bef",
    "TripPlanning.CoT": "aa6e6bb297812abc8cfe071ca8a18235352653007e5af40f6af4bcf6d8d88514",
    "TripPlanning.AoT": "a3005e741fde3b20ef7685b7589dfbff1ba469de524b7c73468643eae8178cf7",
    "MeetingPlanning.Direct": "dd326afb216dee7c334c8477654539ddc09e98d0c7da52df34abf219b1afffd2",
    "MeetingPlanning.CoT": "3de0b6f6011b091f2476eb2eacbf7e60d1c3e4eb8681d0fc94ffc60e64605292",
    "MeetingPlanning.AoT": "725aee38eaef74bb4cf9fb9145eeec6810e780c7619eb5436f63eb467eb4bd10",
}


def test_default_exemplar_prompts_are_pinned():
    assert prompt_digests() == PROMPT_DIGESTS


def test_instance_and_trace_records_are_pinned():
    assert record_digests() == RECORD_DIGESTS


def test_ground_truth_instances_are_pinned():
    assert instance_digests() == INSTANCE_DIGESTS


def test_evaluate_verdicts_are_pinned():
    assert verdict_digests() == VERDICT_DIGESTS


def test_unsolvable_trace_records_are_pinned(unsolvable_instances):
    assert unsolvable_digests(unsolvable_instances) == UNSOLVABLE_DIGESTS


def test_scripted_run_outcomes_are_pinned(tmp_path):
    assert scripted_run_digests(tmp_path) == SCRIPTED_RUN_DIGESTS


def test_oracle_run_cache_is_pinned(tmp_path):
    assert oracle_cache_digest(tmp_path) == ORACLE_CACHE_DIGEST


def test_render_bundles_calls_and_bytes_are_pinned(monkeypatch):
    assert bundle_digests(monkeypatch) == BUNDLE_DIGESTS

"""Byte pins for every artifact a refactor of the solver or renderer could move.

Each digest changes only with a format change recorded in CHANGES.md:

* the 12 default-exemplar prompts (4 tasks x Direct/CoT/AoT), each rendered
  against one fixed target per task;
* ``instance_to_record`` and ``trace_to_records`` of the depth-first and the
  greedy trace over a small grid that covers every task and includes the
  exemplar instances the prompts embed;
* both traces of hand-built unsolvable payloads.  The generator emits only
  solvable instances, so these alone reach the failure paths: every child
  pruned, a dead end below the root, Trip's root loop and Meeting's
  zero-target exit.

A prompt change alters every request digest and orphans existing response
caches, so a failure here is a format change, not a test to update.
"""

import hashlib
import json

from searchbench.generate import GenSpec, exemplar_instance, generate
from searchbench.prompts import (
    DIRECT_SHOT_COUNT,
    PromptMode,
    bundle_text,
    default_exemplars,
    render,
)
from searchbench.solver import SearchMode, solve, solve_payload, trace_to_records
from searchbench.tasks import TaskKind, ThreeDMPayload, instance_to_record

GRID_LEVELS = (1, 3, 6, 8, 10)
GRID_SEEDS = (0, 1)


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
        for mode in PromptMode:
            bundle = render(target, mode, default_exemplars(kind, mode))
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


# x2 has no candidate triple, so the search dies under A1 and again under A2.
DEAD_END_BELOW_ROOT = ThreeDMPayload(n=3, triples=((0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 2, 2)))


def unsolvable_digests(instances) -> dict[str, str]:
    payloads = {inst.id: inst.payload for inst in instances}
    payloads["ThreeDM-dead-end-below-root"] = DEAD_END_BELOW_ROOT
    return {
        key: _digest({mode.value: trace_to_records(solve_payload(p, mode)) for mode in SearchMode})
        for key, p in payloads.items()
    }


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


UNSOLVABLE_DIGESTS: dict[str, str] = {
    "TripPlanning-unsolvable": "7884bb3653f107b0d6e42f5298863f469ea8792533598677be723386324bb5f4",
    "VertexCover-unsolvable": "c307eb0e1b797cbbe44ddba9aa76ec627eed78bd694335d9c4f078d40de441f4",
    "ThreeDM-unsolvable": "d435f5e6def51cc204955b3138d67f605c553b4ee67f6e27015879206fa7cc00",
    "MeetingPlanning-unsolvable": "8d477ab3ba2d7d02fd68aacf1835c2d6b2174ac7d1f41408499743acc185a123",
    "ThreeDM-dead-end-below-root": "9ecda70970c463dde2e81b7c18bd15207c606ff8ba20ee209400a4fd9e59c294",
}


def test_default_exemplar_prompts_are_pinned():
    assert prompt_digests() == PROMPT_DIGESTS


def test_instance_and_trace_records_are_pinned():
    assert record_digests() == RECORD_DIGESTS


def test_unsolvable_trace_records_are_pinned(unsolvable_instances):
    assert unsolvable_digests(unsolvable_instances) == UNSOLVABLE_DIGESTS

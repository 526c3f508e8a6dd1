"""Golden sha256 digests of ``swati match`` artifacts.

Refactors of the scoring and matching code must leave every artifact
byte-identical; a digest change here has to be intentional and recorded with
its reason. Each ``match`` runs as a fresh ``python -m swati.cli`` process
with relative paths (so ``manifest.json``'s config digest does not depend on
the temporary directory) and one BLAS thread, because the content cosine's
last bits depend on the BLAS thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swati
from swati.cli import main as cli_main

ARTIFACTS = ("assignment.jsonl", "ledger.bin", "quality.csv", "manifest.json")

# (method, epochs, extra arguments) per seed; every run uses history and
# capacity 2 on a 30-volunteer, 24-task market.
RUNS = (
    ("swati", 1, ()),
    ("swati", 3, ()),
    ("skill", 1, ()),
    ("skill", 3, ()),
    ("random", 1, ("--seed", "5")),
    ("random", 3, ("--seed", "5")),
)

GOLDEN = {
    1: {
        "random-e1/assignment.jsonl":
            "21fa0834d964bc7e0b75ce3b101a9f300b9acd27f5e70c5256c7e879cb4fe458",
        "random-e1/ledger.bin":
            "0b24d5e8177dcd93df4b7d2994f481e5ffba499572982d4c43a0c1ad2596f1f1",
        "random-e1/manifest.json":
            "2369ea42b501a67321e48e2a77143a59b70953a827316a178bb426ccb9ba8ad2",
        "random-e1/quality.csv":
            "8410a0ca95064b2d7c1c05df2344efd2780d9ea189d9ecd9d41607a3cf1e2cd5",
        "random-e3/assignment.jsonl":
            "31d9ae00dfe9d75c64bc8c6ad35c51f7dea77e40f3c48ed207a0f0484695c68c",
        "random-e3/ledger.bin":
            "96d50ceb4dbf0c582b894f051ae9c684466397d47c23a90c9ab5ca5a70db95ab",
        "random-e3/manifest.json":
            "0998fe216e51c04510cfc157dd8fb195ab501f2fad789d957f93b94d8fce854b",
        "random-e3/quality.csv":
            "8410a0ca95064b2d7c1c05df2344efd2780d9ea189d9ecd9d41607a3cf1e2cd5",
        "skill-e1/assignment.jsonl":
            "564a6656a4c88db99aab84f3635db496913041c03e1f053b3d88151b676e0c25",
        "skill-e1/ledger.bin":
            "60269b1b4372c37992cdd4d304b0165215cb661dafede970feed53fc36ccf438",
        "skill-e1/manifest.json":
            "cf3becb366dc53c9a48ba129e05c5908a3e8330c36ae09a41d45f481d86d1518",
        "skill-e1/quality.csv":
            "8e67f8d3049dea8fd989f442131ecb78f4630002a04ef4debcebde8af01cea0f",
        "skill-e3/assignment.jsonl":
            "657b2941981219f7b9bc19c78808c15fcd564fb99dcca3998c48cefc17815060",
        "skill-e3/ledger.bin":
            "6f88b93bd21a89fb583b8cb0d0285bc50f26bec7a90c769f8f2bc803278bf74e",
        "skill-e3/manifest.json":
            "59ed76af91d1e228938725987fdadaa4c26fb6780a199b3e08145176fa23c12d",
        "skill-e3/quality.csv":
            "8e67f8d3049dea8fd989f442131ecb78f4630002a04ef4debcebde8af01cea0f",
        "swati-e1/assignment.jsonl":
            "8f9632076aa56e9af3dace287a882f090c31ec8b3d925acca3cf4f6195033e4f",
        "swati-e1/ledger.bin":
            "45f59c29db2ae4ce72d83b1583125b29ab70401e48fe3f69cdc5aedac4727ca4",
        "swati-e1/manifest.json":
            "9a4d8d46cf95b5fbfdd314901b1ea4ec83b475d29580e79441b2a7070b152272",
        "swati-e1/quality.csv":
            "e0d5c88ed99277d9c87331b4f37b1ab5c7fd9ef0d2941a33e7f971912174fdd6",
        "swati-e3/assignment.jsonl":
            "8f9632076aa56e9af3dace287a882f090c31ec8b3d925acca3cf4f6195033e4f",
        "swati-e3/ledger.bin":
            "4af84d7e3a22ec45d7445f3dd24d598e636e833bba91258e9a737fdaf199ae99",
        "swati-e3/manifest.json":
            "19f4afd26ff9ee0df702b5c51cef58607d678179e4d0f190249565027169b72a",
        "swati-e3/quality.csv":
            "e0d5c88ed99277d9c87331b4f37b1ab5c7fd9ef0d2941a33e7f971912174fdd6",
    },
    2: {
        "random-e1/assignment.jsonl":
            "22192d50463d721fbbbf7632ada9d2511b69377916dbb0d2d0034f10ba770b37",
        "random-e1/ledger.bin":
            "d2b57592d383e3523808f5f5df8596b7dae1986a6fee21bf307e041cb35488c5",
        "random-e1/manifest.json":
            "f7a55b1aeca358113a91f702075102679223a9843de2d30f68576eb1bf058297",
        "random-e1/quality.csv":
            "6bb69c2b5aac621624dfe87dd0c0c1f5d638a34d9f617bfa7192610cceac7848",
        "random-e3/assignment.jsonl":
            "1050f08f0ea69df9c715e01cca4f823538be54cea2b57379012b938b9f292e5e",
        "random-e3/ledger.bin":
            "96a6b483c0a50659a8e62bf55b109b156a069c87d6e89da963db73a55724ad0f",
        "random-e3/manifest.json":
            "6f4e7bd4516485c4b456c7eb85df5acb804804b3951d98ca8263ae44d18a4ec0",
        "random-e3/quality.csv":
            "6bb69c2b5aac621624dfe87dd0c0c1f5d638a34d9f617bfa7192610cceac7848",
        "skill-e1/assignment.jsonl":
            "e9ccca4a50c7753e4026ee78dd954139f991070c8feb6507715447e1bf602202",
        "skill-e1/ledger.bin":
            "2f7f20ec6b157925edf1a938e91287ae61a8176e1e12e86eb947ea753629d6e2",
        "skill-e1/manifest.json":
            "4b60dc4c3fd0d714cece1c5c1c087f16918e7da603ece6ab68f7ac536df3ed0e",
        "skill-e1/quality.csv":
            "7e54e4cec0cb11d63f8cdf9b25299b91110bb4cf27be759d47a6772cfbf9e49c",
        "skill-e3/assignment.jsonl":
            "ce4e8732d901e00d7eb6599dbf94284b55592ed1c88ac621e2adebeaaec4f429",
        "skill-e3/ledger.bin":
            "41a7b76d71e1f851a17f1ec5a124adf08b10d70ab1afcbe1187f756a9bf73947",
        "skill-e3/manifest.json":
            "75fb5c828840d73f1ab95d07e6a2af97c6d08dafc49f36adfa2afe23c586e0e6",
        "skill-e3/quality.csv":
            "7e54e4cec0cb11d63f8cdf9b25299b91110bb4cf27be759d47a6772cfbf9e49c",
        "swati-e1/assignment.jsonl":
            "549f505be9530e658249cb76013639c0903e2f400308b3cc8bb338b7f2e4bfda",
        "swati-e1/ledger.bin":
            "6b5b029397b57f81146a2d17114f9af0a15f69b0a48b5849836d42356b8d6497",
        "swati-e1/manifest.json":
            "77267fff8251707e0fef253f04df4f728c7e8c1d2400113af898c9e63d7bc6e4",
        "swati-e1/quality.csv":
            "b0c5534a664726a4ad95cfeef79964faa388e14f1cf33c483b16ee4eb77e7870",
        "swati-e3/assignment.jsonl":
            "8e239a4867bf1f8210332234ec15a1466617ecadf16d0e553c98bdb1773b9bbf",
        "swati-e3/ledger.bin":
            "b0795d9bd4daf4e47de9d0e09f27dfe562b37793f884f0ad60656f3457ea6532",
        "swati-e3/manifest.json":
            "4da2c929a10f1b215821b7b7c034aa6a22a02bd933e5cdd5a80735007554a302",
        "swati-e3/quality.csv":
            "b0c5534a664726a4ad95cfeef79964faa388e14f1cf33c483b16ee4eb77e7870",
    },
    3: {
        "random-e1/assignment.jsonl":
            "01614b356bf91e6e197fe0b2118016cbd23a38c7973edab2cd7b0ddfebeda38d",
        "random-e1/ledger.bin":
            "4ce69c986ebeb8a3f0254b7af67472c7456277b284cb62187666190072bda795",
        "random-e1/manifest.json":
            "9e83b4f6c78c18cb98fd5f87c117343211a45f5964c5312dcdcca141655d6d51",
        "random-e1/quality.csv":
            "8a7dd371548eff32c5a5669efa670a8cb83c071d13ea9bffea9e74e27cde1eca",
        "random-e3/assignment.jsonl":
            "f552a5ce2484715dba175f799a0153a408930bfd74a7217d1fefc92597f89aeb",
        "random-e3/ledger.bin":
            "9b4bdc276f1048b2cab6a61491725d5e4d20e0a22f0cbf35904b681bfcbf9553",
        "random-e3/manifest.json":
            "fbb24ee3e4a8a1545de1721f857492764cb444fdfce5355eb0688f6a67617315",
        "random-e3/quality.csv":
            "8a7dd371548eff32c5a5669efa670a8cb83c071d13ea9bffea9e74e27cde1eca",
        "skill-e1/assignment.jsonl":
            "bda03870ea37dde4adaddadbb69742c170dc553f4f7044ed20adc512f5834004",
        "skill-e1/ledger.bin":
            "230d032012a07495851d1642a7c202c2e2bb097853691629279b4e6fafe41700",
        "skill-e1/manifest.json":
            "ba8b3ab0a00b01322a175b680d99d8f3f39b6420cb2887e2b1918011da3be774",
        "skill-e1/quality.csv":
            "2adf8cbb56c0e7fe7de6390345af353e138dfc78fe3c4b33841d60ef798d8642",
        "skill-e3/assignment.jsonl":
            "00543a7c342920edea1df28a2f31d5121aba5a556f3ae7061d8850556a8ce66e",
        "skill-e3/ledger.bin":
            "b7fa64346b162e34bcad7fd9f5d1ee61c4947d4a18b926aa1aea0149070b851a",
        "skill-e3/manifest.json":
            "c091f5489ba158624f516204db3e8b446997a0ae656b4f4f1a46209c2ed24a69",
        "skill-e3/quality.csv":
            "2adf8cbb56c0e7fe7de6390345af353e138dfc78fe3c4b33841d60ef798d8642",
        "swati-e1/assignment.jsonl":
            "492db721321645c8416781ec54fabce6a5fb205b47a7bef275e6f175e300efab",
        "swati-e1/ledger.bin":
            "7a6c6f7961a91ebfbe4a05b6d5ef10f8c20b67203f04e5305456e2796b6cc7e6",
        "swati-e1/manifest.json":
            "bab3b3626a4c3928cb4972ada321b4f29ff5de225851cd645c770f97fe0b6091",
        "swati-e1/quality.csv":
            "3cc19dec1578c8796a7f5bf0360e92ba8b44a7e480cfd924270b9a36a41367e4",
        "swati-e3/assignment.jsonl":
            "641af0f70f0a988d7c314730b3d46d6d9e9f78957d92e2dd41ce45a4aac45683",
        "swati-e3/ledger.bin":
            "993ba1d3733b187793e1eb7ffa4c84df179f632182ee2598170390d1aa030b83",
        "swati-e3/manifest.json":
            "66c7cb48aed0bef7b7940de9377c6796e80532ef929d22baa20406dd908a36f8",
        "swati-e3/quality.csv":
            "3cc19dec1578c8796a7f5bf0360e92ba8b44a7e480cfd924270b9a36a41367e4",
    },
}


def _env():
    env = dict(os.environ)
    src = str(Path(swati.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_match_artifacts_match_golden_digests(tmp_path, seed):
    # generation is pure Python with no BLAS call, so it runs in-process
    gen = ["gen", "--out", str(tmp_path / "gen"), "--seed", str(seed),
           "--n-volunteers", "30", "--n-tasks", "24"]
    assert cli_main(gen) == 0
    (tmp_path / "config.json").write_text(
        json.dumps({"history_path": "gen/history.jsonl", "capacities": {"default": 2}})
    )
    env = _env()
    digests = {}
    for method, epochs, extra in RUNS:
        name = f"{method}-e{epochs}"
        subprocess.run(
            [sys.executable, "-m", "swati.cli", "match", "--config", "config.json",
             "--corpus", "gen/corpus.jsonl", "--method", method,
             "--epochs", str(epochs), *extra, "--out", name],
            cwd=tmp_path, env=env, check=True, capture_output=True,
        )
        for artifact in ARTIFACTS:
            data = (tmp_path / name / artifact).read_bytes()
            digests[f"{name}/{artifact}"] = hashlib.sha256(data).hexdigest()
    assert digests == GOLDEN[seed]

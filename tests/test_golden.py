"""Golden sha256 digests of ``swati gen``, ``match``, ``extract`` and ``bench`` artifacts.

Refactors of the extraction, scoring and matching code must leave every
artifact byte-identical; a digest change here has to be intentional and recorded with
its reason. Each ``match`` and ``bench`` runs as a fresh ``python -m swati.cli`` process
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

ARTIFACTS = ("assignment.jsonl", "ledger.bin", "quality.csv", "manifest.json", "ledger.txt")
GEN_ARTIFACTS = ("corpus.jsonl", "history.jsonl", "manifest.json")

# (method, epochs, extra arguments) per seed; every run uses history and
# capacity 2 on a 30-volunteer, 24-task market. ``gen/`` pins the generated
# corpus, history and manifest that the runs read.
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
        "gen/corpus.jsonl":
            "537a7ace69eadb3b8ab5ea07c5aad27d92baece8dabfe7ff43d74d772d2afcd2",
        "gen/history.jsonl":
            "bd9438d20cb68bdc8899f554f9bb8eb86785c0de2e7e2beb706cde7a4cf6bde8",
        "gen/manifest.json":
            "f24dabc1855b3b19ce603375db9719606a9f0f17f17650f05ac66ed902a5b2f4",
        "random-e1/assignment.jsonl":
            "21fa0834d964bc7e0b75ce3b101a9f300b9acd27f5e70c5256c7e879cb4fe458",
        "random-e1/ledger.bin":
            "0b24d5e8177dcd93df4b7d2994f481e5ffba499572982d4c43a0c1ad2596f1f1",
        "random-e1/ledger.txt":
            "6bbd95690627b69070698ce348d68a7792bfd9d678ec8ee656a1cd2f9c10d23b",
        "random-e1/manifest.json":
            "2369ea42b501a67321e48e2a77143a59b70953a827316a178bb426ccb9ba8ad2",
        "random-e1/quality.csv":
            "8410a0ca95064b2d7c1c05df2344efd2780d9ea189d9ecd9d41607a3cf1e2cd5",
        "random-e3/assignment.jsonl":
            "31d9ae00dfe9d75c64bc8c6ad35c51f7dea77e40f3c48ed207a0f0484695c68c",
        "random-e3/ledger.bin":
            "96d50ceb4dbf0c582b894f051ae9c684466397d47c23a90c9ab5ca5a70db95ab",
        "random-e3/ledger.txt":
            "6e76a962189da21d113f8ac330ad61ab9aabc6db964433a0022e571ed6db12e2",
        "random-e3/manifest.json":
            "0998fe216e51c04510cfc157dd8fb195ab501f2fad789d957f93b94d8fce854b",
        "random-e3/quality.csv":
            "8410a0ca95064b2d7c1c05df2344efd2780d9ea189d9ecd9d41607a3cf1e2cd5",
        "skill-e1/assignment.jsonl":
            "564a6656a4c88db99aab84f3635db496913041c03e1f053b3d88151b676e0c25",
        "skill-e1/ledger.bin":
            "60269b1b4372c37992cdd4d304b0165215cb661dafede970feed53fc36ccf438",
        "skill-e1/ledger.txt":
            "f1432d8713d4cd5a9c51113c49a77840c9e973e8465aa60e25b562a347ded7bf",
        "skill-e1/manifest.json":
            "cf3becb366dc53c9a48ba129e05c5908a3e8330c36ae09a41d45f481d86d1518",
        "skill-e1/quality.csv":
            "8e67f8d3049dea8fd989f442131ecb78f4630002a04ef4debcebde8af01cea0f",
        "skill-e3/assignment.jsonl":
            "657b2941981219f7b9bc19c78808c15fcd564fb99dcca3998c48cefc17815060",
        "skill-e3/ledger.bin":
            "6f88b93bd21a89fb583b8cb0d0285bc50f26bec7a90c769f8f2bc803278bf74e",
        "skill-e3/ledger.txt":
            "f8885df05b0ff7db798720ce8e57cfdc78f77045836912b1a6f4bace797dff70",
        "skill-e3/manifest.json":
            "59ed76af91d1e228938725987fdadaa4c26fb6780a199b3e08145176fa23c12d",
        "skill-e3/quality.csv":
            "8e67f8d3049dea8fd989f442131ecb78f4630002a04ef4debcebde8af01cea0f",
        "swati-e1/assignment.jsonl":
            "8f9632076aa56e9af3dace287a882f090c31ec8b3d925acca3cf4f6195033e4f",
        "swati-e1/ledger.bin":
            "45f59c29db2ae4ce72d83b1583125b29ab70401e48fe3f69cdc5aedac4727ca4",
        "swati-e1/ledger.txt":
            "4b3dbc23cd1558103ca8353c6cf0860fb0a911072168ec0c65f081d25cd64a05",
        "swati-e1/manifest.json":
            "9a4d8d46cf95b5fbfdd314901b1ea4ec83b475d29580e79441b2a7070b152272",
        "swati-e1/quality.csv":
            "e0d5c88ed99277d9c87331b4f37b1ab5c7fd9ef0d2941a33e7f971912174fdd6",
        "swati-e3/assignment.jsonl":
            "8f9632076aa56e9af3dace287a882f090c31ec8b3d925acca3cf4f6195033e4f",
        "swati-e3/ledger.bin":
            "4af84d7e3a22ec45d7445f3dd24d598e636e833bba91258e9a737fdaf199ae99",
        "swati-e3/ledger.txt":
            "9a24cedc57a7dd03fd1f36850944934013beea42bf2bd2e9af1ec735a060bd3b",
        "swati-e3/manifest.json":
            "19f4afd26ff9ee0df702b5c51cef58607d678179e4d0f190249565027169b72a",
        "swati-e3/quality.csv":
            "e0d5c88ed99277d9c87331b4f37b1ab5c7fd9ef0d2941a33e7f971912174fdd6",
    },
    2: {
        "gen/corpus.jsonl":
            "111087af83dad40577644fbcb47f65374ba480a4d1a5717a53c40f6e897f9b72",
        "gen/history.jsonl":
            "f508f581b5690d26f295012656a25187c27c671bbd2e44dbf0dd464ff4fb856d",
        "gen/manifest.json":
            "aac8ab8549a5fae25ca54af098ed7b052a23fc0cd2976c2dcf8906a9c7bfbf2b",
        "random-e1/assignment.jsonl":
            "22192d50463d721fbbbf7632ada9d2511b69377916dbb0d2d0034f10ba770b37",
        "random-e1/ledger.bin":
            "d2b57592d383e3523808f5f5df8596b7dae1986a6fee21bf307e041cb35488c5",
        "random-e1/ledger.txt":
            "72449d1bee4fe6e75867fcc8b5c46be0776fb46cc3b46dc829d91f18a959e18b",
        "random-e1/manifest.json":
            "f7a55b1aeca358113a91f702075102679223a9843de2d30f68576eb1bf058297",
        "random-e1/quality.csv":
            "6bb69c2b5aac621624dfe87dd0c0c1f5d638a34d9f617bfa7192610cceac7848",
        "random-e3/assignment.jsonl":
            "1050f08f0ea69df9c715e01cca4f823538be54cea2b57379012b938b9f292e5e",
        "random-e3/ledger.bin":
            "96a6b483c0a50659a8e62bf55b109b156a069c87d6e89da963db73a55724ad0f",
        "random-e3/ledger.txt":
            "0ac7670266ea42b85f7db508ddf4a396640c38ae505811cfdaa2cc3b92829b99",
        "random-e3/manifest.json":
            "6f4e7bd4516485c4b456c7eb85df5acb804804b3951d98ca8263ae44d18a4ec0",
        "random-e3/quality.csv":
            "6bb69c2b5aac621624dfe87dd0c0c1f5d638a34d9f617bfa7192610cceac7848",
        "skill-e1/assignment.jsonl":
            "e9ccca4a50c7753e4026ee78dd954139f991070c8feb6507715447e1bf602202",
        "skill-e1/ledger.bin":
            "2f7f20ec6b157925edf1a938e91287ae61a8176e1e12e86eb947ea753629d6e2",
        "skill-e1/ledger.txt":
            "81cf0f57338f42af2ac377c8788c6f83cd53688cba6575cb04c2e8fc6b630786",
        "skill-e1/manifest.json":
            "4b60dc4c3fd0d714cece1c5c1c087f16918e7da603ece6ab68f7ac536df3ed0e",
        "skill-e1/quality.csv":
            "7e54e4cec0cb11d63f8cdf9b25299b91110bb4cf27be759d47a6772cfbf9e49c",
        "skill-e3/assignment.jsonl":
            "ce4e8732d901e00d7eb6599dbf94284b55592ed1c88ac621e2adebeaaec4f429",
        "skill-e3/ledger.bin":
            "41a7b76d71e1f851a17f1ec5a124adf08b10d70ab1afcbe1187f756a9bf73947",
        "skill-e3/ledger.txt":
            "6d22423abd6dcc4732569b6bc9c1458d7284ac31c403f5320330b9a5d0f1b39d",
        "skill-e3/manifest.json":
            "75fb5c828840d73f1ab95d07e6a2af97c6d08dafc49f36adfa2afe23c586e0e6",
        "skill-e3/quality.csv":
            "7e54e4cec0cb11d63f8cdf9b25299b91110bb4cf27be759d47a6772cfbf9e49c",
        "swati-e1/assignment.jsonl":
            "549f505be9530e658249cb76013639c0903e2f400308b3cc8bb338b7f2e4bfda",
        "swati-e1/ledger.bin":
            "6b5b029397b57f81146a2d17114f9af0a15f69b0a48b5849836d42356b8d6497",
        "swati-e1/ledger.txt":
            "294cda93ab7d398d576956367e034aded3142d1e35fcef3ee770d10dfa38a231",
        "swati-e1/manifest.json":
            "77267fff8251707e0fef253f04df4f728c7e8c1d2400113af898c9e63d7bc6e4",
        "swati-e1/quality.csv":
            "b0c5534a664726a4ad95cfeef79964faa388e14f1cf33c483b16ee4eb77e7870",
        "swati-e3/assignment.jsonl":
            "8e239a4867bf1f8210332234ec15a1466617ecadf16d0e553c98bdb1773b9bbf",
        "swati-e3/ledger.bin":
            "b0795d9bd4daf4e47de9d0e09f27dfe562b37793f884f0ad60656f3457ea6532",
        "swati-e3/ledger.txt":
            "05a58dbb3d115102e44a8592d7429ec11d602f0e878a0e1c8ce5db5ff121e85b",
        "swati-e3/manifest.json":
            "4da2c929a10f1b215821b7b7c034aa6a22a02bd933e5cdd5a80735007554a302",
        "swati-e3/quality.csv":
            "b0c5534a664726a4ad95cfeef79964faa388e14f1cf33c483b16ee4eb77e7870",
    },
    3: {
        "gen/corpus.jsonl":
            "48fe804a0128b582d0e83c1ea052694a38ffa8253dc0ec86e2af28bf65a06224",
        "gen/history.jsonl":
            "2aa37d4441fe7f0bf51bdbd385b02f08d9a85e8b893bfe3063c8930b1842a129",
        "gen/manifest.json":
            "ed90c3733683e519a90a4068e3ee1178a5460e996b19c568c8f879ff4451da18",
        "random-e1/assignment.jsonl":
            "01614b356bf91e6e197fe0b2118016cbd23a38c7973edab2cd7b0ddfebeda38d",
        "random-e1/ledger.bin":
            "4ce69c986ebeb8a3f0254b7af67472c7456277b284cb62187666190072bda795",
        "random-e1/ledger.txt":
            "7b9fa35d922410b0ab7596615ac218058b204101f6b26168d54622a59db1eb8b",
        "random-e1/manifest.json":
            "9e83b4f6c78c18cb98fd5f87c117343211a45f5964c5312dcdcca141655d6d51",
        "random-e1/quality.csv":
            "8a7dd371548eff32c5a5669efa670a8cb83c071d13ea9bffea9e74e27cde1eca",
        "random-e3/assignment.jsonl":
            "f552a5ce2484715dba175f799a0153a408930bfd74a7217d1fefc92597f89aeb",
        "random-e3/ledger.bin":
            "9b4bdc276f1048b2cab6a61491725d5e4d20e0a22f0cbf35904b681bfcbf9553",
        "random-e3/ledger.txt":
            "f8d386353da3b00e54919dfd94a8b6f3ea419d2da09a70c553d41ae789860df1",
        "random-e3/manifest.json":
            "fbb24ee3e4a8a1545de1721f857492764cb444fdfce5355eb0688f6a67617315",
        "random-e3/quality.csv":
            "8a7dd371548eff32c5a5669efa670a8cb83c071d13ea9bffea9e74e27cde1eca",
        "skill-e1/assignment.jsonl":
            "bda03870ea37dde4adaddadbb69742c170dc553f4f7044ed20adc512f5834004",
        "skill-e1/ledger.bin":
            "230d032012a07495851d1642a7c202c2e2bb097853691629279b4e6fafe41700",
        "skill-e1/ledger.txt":
            "daeab57c865f06294b64f4339852f37d103c93863a13b8cb325bc7b08f898216",
        "skill-e1/manifest.json":
            "ba8b3ab0a00b01322a175b680d99d8f3f39b6420cb2887e2b1918011da3be774",
        "skill-e1/quality.csv":
            "2adf8cbb56c0e7fe7de6390345af353e138dfc78fe3c4b33841d60ef798d8642",
        "skill-e3/assignment.jsonl":
            "00543a7c342920edea1df28a2f31d5121aba5a556f3ae7061d8850556a8ce66e",
        "skill-e3/ledger.bin":
            "b7fa64346b162e34bcad7fd9f5d1ee61c4947d4a18b926aa1aea0149070b851a",
        "skill-e3/ledger.txt":
            "a21e69edbcf4413fde05388de4e25415fbcec02996b0daaa928da8e4a2bc0008",
        "skill-e3/manifest.json":
            "c091f5489ba158624f516204db3e8b446997a0ae656b4f4f1a46209c2ed24a69",
        "skill-e3/quality.csv":
            "2adf8cbb56c0e7fe7de6390345af353e138dfc78fe3c4b33841d60ef798d8642",
        "swati-e1/assignment.jsonl":
            "492db721321645c8416781ec54fabce6a5fb205b47a7bef275e6f175e300efab",
        "swati-e1/ledger.bin":
            "7a6c6f7961a91ebfbe4a05b6d5ef10f8c20b67203f04e5305456e2796b6cc7e6",
        "swati-e1/ledger.txt":
            "23f0da6749e80133b133a76cc7294104ecd72775bd0c6d08dba88a4a171e4d22",
        "swati-e1/manifest.json":
            "bab3b3626a4c3928cb4972ada321b4f29ff5de225851cd645c770f97fe0b6091",
        "swati-e1/quality.csv":
            "3cc19dec1578c8796a7f5bf0360e92ba8b44a7e480cfd924270b9a36a41367e4",
        "swati-e3/assignment.jsonl":
            "641af0f70f0a988d7c314730b3d46d6d9e9f78957d92e2dd41ce45a4aac45683",
        "swati-e3/ledger.bin":
            "993ba1d3733b187793e1eb7ffa4c84df179f632182ee2598170390d1aa030b83",
        "swati-e3/ledger.txt":
            "2cbeeffc5e42d09042c6ac3f78b744bc39041cb1822345bdea934e9274d63877",
        "swati-e3/manifest.json":
            "66c7cb48aed0bef7b7940de9377c6796e80532ef929d22baa20406dd908a36f8",
        "swati-e3/quality.csv":
            "3cc19dec1578c8796a7f5bf0360e92ba8b44a7e480cfd924270b9a36a41367e4",
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    digests = {f"gen/{artifact}": _sha256(tmp_path / "gen" / artifact) for artifact in GEN_ARTIFACTS}
    for method, epochs, extra in RUNS:
        name = f"{method}-e{epochs}"
        subprocess.run(
            [sys.executable, "-m", "swati.cli", "match", "--config", "config.json",
             "--corpus", "gen/corpus.jsonl", "--method", method,
             "--epochs", str(epochs), *extra, "--out", name],
            cwd=tmp_path, env=env, check=True, capture_output=True,
        )
        for artifact in ARTIFACTS:
            digests[f"{name}/{artifact}"] = _sha256(tmp_path / name / artifact)
    assert digests == GOLDEN[seed]


EXTRACT_ARTIFACTS = ("extraction.jsonl", "extraction_stats.json", "manifest.json")


# ``extract`` writes evidence spans, proficiency and cue scores, which no
# ``match`` artifact carries; it runs on a 60-volunteer, 48-task corpus.
EXTRACT_GOLDEN = {
    1: {
        "extraction.jsonl":
            "3861656ee235dabfd7b13b51a5e9e4d1c029a974c6508afc1015811ac1356a37",
        "extraction_stats.json":
            "46a3bc32920ec0b08f8919dd6817285ba56b961d0e280dfd5a4fa382b98dfac2",
        "manifest.json":
            "0e84b041b3ab13c498a361d82c568122a0cde44bc4e51f424e07abac2f184c08",
    },
    2: {
        "extraction.jsonl":
            "6bc86a52c0e0ddecb28b48a051667a178c958def30b6904397952397e3ceee4b",
        "extraction_stats.json":
            "a1657ef426c9abd39a0265580c3565144edec4367f9939d81b9a5e89a301e77d",
        "manifest.json":
            "7a5ba15e7d00a6dff6e61d591cfa72ccb05ad3712a8f752917d0436a37ed2659",
    },
    3: {
        "extraction.jsonl":
            "90658e977309b31f4d913f6863fe50b8feed8ca1680e906049079631f1915b7f",
        "extraction_stats.json":
            "0d6d167a76e6b9302599cd75e324b8063dc5686146cc45016968542bcf6ba2a4",
        "manifest.json":
            "b559b49dc9d7aefd702bef6e77c49b748cee921b5bf591aab3e011fc0c039d3b",
    },
}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_extract_artifacts_match_golden_digests(tmp_path, seed, monkeypatch):
    # extraction makes no BLAS call, so everything runs in-process
    monkeypatch.chdir(tmp_path)
    gen = ["gen", "--out", "gen", "--seed", str(seed),
           "--n-volunteers", "60", "--n-tasks", "48"]
    assert cli_main(gen) == 0
    assert cli_main(["extract", "--corpus", "gen/corpus.jsonl", "--out", "ex"]) == 0
    digests = {artifact: _sha256(tmp_path / "ex" / artifact) for artifact in EXTRACT_ARTIFACTS}
    assert digests == EXTRACT_GOLDEN[seed]


# Hand-made documents appended to each seed's 12-volunteer, 10-task corpus.
# Accented text takes the IGNORECASE phrase scan; a no-break space inside a
# multi-word alias makes the alias keys come from the text rather than from
# joined tokens; the stopword-only task has an empty content vector.
HANDMADE = (
    {"id": "hv-accent", "kind": "volunteer",
     "text": "Résumé d'une ingénieure: EXPERT in Machine Learning, 6+ Years with "
             "PyTorch; Passionnée, déjà volunteered, AVAILABLE on Weekends."},
    {"id": "hv-nbsp", "kind": "volunteer",
     "text": "Skilled in web\u00a0programming and statistical\u00a0learning, "
             "proficient with cloud\u00a0infrastructure. Interested in evenings."},
    {"id": "ht-stop", "kind": "task", "text": "The and of to, in it is was."},
    {"id": "ht-accent", "kind": "task",
     "text": "Tâche café: data\u00a0analysis and machine-learning for the "
             "bénévoles' web\u00a0programming club."},
)

HANDMADE_GOLDEN = {
    1: {
        "ex/extraction.jsonl":
            "cbff3bdd6ab98e46ade05801ce84669db5e69a0476f1d5ae6867de54d8a0fa88",
        "ex/extraction_stats.json":
            "4942051ef96cc289215cbe3a6421f3a18a2190ee304a60075b0ac79362ffbebf",
        "ex/manifest.json":
            "7e792730e3a691a444fae414bb724b2555f389afaa07bc876bc7e7ac5e518581",
        "match/assignment.jsonl":
            "75e34c7bcb2331e121486c0286a536162837e6e18b94548e1a5d36930557a125",
        "match/ledger.bin":
            "e782ecf2327b751a34e597273754cbfb2deb563861d538e46ac017153810dc97",
        "match/ledger.txt":
            "5e53c0d9cb27f5602ff2ed75c07e68da283649528f10d72963140a04b63ef661",
        "match/manifest.json":
            "4ae296042b1a291814c3ef13faba6723e2c50a1c9d674d877b3aaa1317514b0d",
        "match/quality.csv":
            "181f2f19362760c21cc6acaee4c4249a40c5777674269644340eea30636baa1c",
    },
    2: {
        "ex/extraction.jsonl":
            "0450b19c8a5ae7a5edf888aa1f8bc1d0366d9167179dcebe7050b7ee305a8af6",
        "ex/extraction_stats.json":
            "4292b7217aa3ebf922e4d38e867206387f8dd1ce187a0bae76f13e479adb1966",
        "ex/manifest.json":
            "a83f1035a9cad127631cc06cb3d96f33e976d4caed360ca81bb797f2dcde619c",
        "match/assignment.jsonl":
            "f7d1fc2162b952ef2eae0508c31ad1055b503ffd9e0d3b633346f268bd7e07e6",
        "match/ledger.bin":
            "de7c24d11222cbc81a8778f67d464a07d036e67768a12fc096444fde8b39beb1",
        "match/ledger.txt":
            "700a60d5b9cda73e0407b1a841d828d3b78d1e328c3e9d6e3750897b21e19b36",
        "match/manifest.json":
            "2d1b87fb911236ea155f1f6db66487cce3cadaade9ac47f6127632387e1b34d9",
        "match/quality.csv":
            "7c27ad0c412f2a6f2160d0d6f3c95b7f2fd275c0e2e22564f94ce476a44dcee1",
    },
    3: {
        "ex/extraction.jsonl":
            "e7f415095e37aff8cfdb7b3db0284cd4524b1c5c4f2162d1619bf1051a834afc",
        "ex/extraction_stats.json":
            "bdd0639ca5938165ef52c315b16fd289c652583a96618b53d43799afb8ef953e",
        "ex/manifest.json":
            "71e70bba1e83722a99fa0119fb49d5d7c121a86ed04ee6b149eab454843f82df",
        "match/assignment.jsonl":
            "e7074a7f065a268fe07b42d396f6f1858d96902345177538cac7fb2a339bf657",
        "match/ledger.bin":
            "d63834de3f796f73bbcddc4c13e4adc91665fc2e1e934108c1721205604d0ff5",
        "match/ledger.txt":
            "6186788e50ca03f4a2a4f9b00a9a5b248602c9b1f67da4e4d77b4d86a1c876cc",
        "match/manifest.json":
            "bb4a5200c6c7f4e482562351139a8db50748712e5e278d0bf7061fa202ca7620",
        "match/quality.csv":
            "ff1145505811c70a6f883c957714ae6c15cbd8e198db68feabdd8965018cd308",
    },
}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_handmade_documents_match_golden_digests(tmp_path, seed, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gen = ["gen", "--out", "gen", "--seed", str(seed), "--n-volunteers", "12", "--n-tasks", "10"]
    assert cli_main(gen) == 0
    with open("gen/corpus.jsonl", "a", encoding="utf-8") as fh:
        for doc in HANDMADE:
            fh.write(json.dumps(doc) + "\n")
    (tmp_path / "config.json").write_text(
        json.dumps({"history_path": "gen/history.jsonl", "capacities": {"default": 2}})
    )
    subprocess.run(
        [sys.executable, "-m", "swati.cli", "match", "--config", "config.json",
         "--corpus", "gen/corpus.jsonl", "--out", "match"],
        cwd=tmp_path, env=_env(), check=True, capture_output=True,
    )
    # extraction makes no BLAS call, so it runs in-process
    assert cli_main(["extract", "--corpus", "gen/corpus.jsonl", "--out", "ex"]) == 0
    digests = {f"match/{artifact}": _sha256(tmp_path / "match" / artifact) for artifact in ARTIFACTS}
    for artifact in EXTRACT_ARTIFACTS:
        digests[f"ex/{artifact}"] = _sha256(tmp_path / "ex" / artifact)
    assert digests == HANDMADE_GOLDEN[seed]



BENCH_ARTIFACTS = ("quality.csv", "cdf_20.csv", "cdf_30.csv", "manifest.json")

# ``bench --sizes 20,30``: every artifact except the seconds column of
# ``timing.csv``, which is pinned without it.
BENCH_GOLDEN = {
    1: {
        "cdf_20.csv":
            "58deebab82b316150d40e0378fe3b17320eab9337c4f50b19b31161e1d98cd63",
        "cdf_30.csv":
            "27e882ea9bd58cc3bd9162f02d2d6d6f6eb8d07746dab638dd37671d4c2a8d83",
        "manifest.json":
            "b07474dd3e621b0d56216758a5ddc8711b9dc8151b52878524ee6d2ec0fa5376",
        "quality.csv":
            "021d8cab6a33e7d67952e880c2acde53745e9a2de7d3d9dd7bf2bbc48d6a950d",
        "timing.csv[size,method,stage,rep]":
            "251104105195ea99898f0ba2ea1742fa7922d32e63ae0b367a61822032116a6d",
    },
    2: {
        "cdf_20.csv":
            "e0f5ca84e00efc5fb6e742220c021b2d5d5f843d3e29930d60b6fdf2ac8017d0",
        "cdf_30.csv":
            "b4e71bb8740b9df8d3e9a97d862adea733ab73f5dfb32d351a1efeee7bca8109",
        "manifest.json":
            "6099e2c2ee5f1643a4af51aff9a7f65bd48d77f8a0b1a2f781d7c2f982cafbd9",
        "quality.csv":
            "209278741a792bdfea3ae0b0907d2cac63089419dbd9182d858dc7e70ed6bec4",
        "timing.csv[size,method,stage,rep]":
            "251104105195ea99898f0ba2ea1742fa7922d32e63ae0b367a61822032116a6d",
    },
    3: {
        "cdf_20.csv":
            "bd2059868ba0a729ad986afc3f80760bee0c8ba7e036765ddc64de6d9b434ccd",
        "cdf_30.csv":
            "0bb47d7b7e391d3c93e8fd1bc287600687d06061f39b9e1c1040f6f0a0c4a7fa",
        "manifest.json":
            "7848e64d39e8f39cbdef986cc8f0686388027e0415184bf79ca1ddc38150b323",
        "quality.csv":
            "4e4ee0085d39d985dc4b0a9a71239c1671f9b165f66cdaaf00b8427e7d98cec6",
        "timing.csv[size,method,stage,rep]":
            "251104105195ea99898f0ba2ea1742fa7922d32e63ae0b367a61822032116a6d",
    },
}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_bench_artifacts_match_golden_digests(tmp_path, seed):
    subprocess.run(
        [sys.executable, "-m", "swati.cli", "bench", "--sizes", "20,30",
         "--seed", str(seed), "--out", "bench"],
        cwd=tmp_path, env=_env(), check=True, capture_output=True,
    )
    digests = {artifact: _sha256(tmp_path / "bench" / artifact) for artifact in BENCH_ARTIFACTS}
    timing = (tmp_path / "bench" / "timing.csv").read_text(encoding="utf-8").splitlines()
    keys = "\n".join(line.rsplit(",", 1)[0] for line in timing)
    digests["timing.csv[size,method,stage,rep]"] = hashlib.sha256(keys.encode()).hexdigest()
    assert digests == BENCH_GOLDEN[seed]

"""Generator output pinned across commits by SHA-256.

The digests change only together with a ``generator_version`` bump
recorded in CHANGES.md: a refactor of ``gbsm`` must leave every one of
them as it is. They were computed with numpy 2.4.6 on x86-64 and depend on
the SIMD level numpy dispatches to: its float64 ``log1p``, ``exp`` and
``power`` round differently at X86_V3 (AVX2) and at X86_V4 (AVX-512), so
the digests are recorded per level. A host at a level with no digests, or
on another CPU family, fails naming numpy's version and the level; run
there with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` to
dispatch at X86_V3, or record its digests.
"""

import dataclasses
import hashlib
import platform

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from cirkit import __about__, gbsm, io
from cirkit.gbsm import PRESETS

# campus-los with spreads: at seed 1 its 3000 snapshots redraw rows up to attempt 3
SPREAD_CAMPUS_LOS = dataclasses.replace(PRESETS["campus-los"], ds_sigma_log10=0.1, kf_sigma_db=2.0)
DATASET_CONFIGS = {**PRESETS, "campus-los-spread": SPREAD_CAMPUS_LOS}

GENERATOR_VERSION = "0.4.0"

# sha256 of read_dataset(...).snapshots.tobytes(), 3000 snapshots at seed 1,
# by the SIMD level of numpy's dispatch
DATASET_DIGESTS = {
    "X86_V4": {
        "urban-los": "096aa234b68acba24246c063b993589e00b15ccb42149068a6ffbd18aa4b5bf5",
        "urban-nlos": "ec6a24462e9e6dd80720e27a8bd00b22f41c1fe54632ebfeb4e20f44b95ba544",
        "campus-los": "c2d9ea5084ca96a1918816e8f28d8dc5c253c6d8308ac995353261eb9a9b6354",
        "campus-nlos": "e9fd1a4443a56c3d077feb5cbdf5afc69b23c739afff23926b7e9dd2389a7edd",
        "campus-los-spread": "ce8ed2f91dba5975a8f56a1257348f6e5917d90aad92276617b1de8af5128fc3",
    },
    "X86_V3": {
        "urban-los": "096aa234b68acba24246c063b993589e00b15ccb42149068a6ffbd18aa4b5bf5",
        "urban-nlos": "ec6a24462e9e6dd80720e27a8bd00b22f41c1fe54632ebfeb4e20f44b95ba544",
        "campus-los": "c2d9ea5084ca96a1918816e8f28d8dc5c253c6d8308ac995353261eb9a9b6354",
        "campus-nlos": "e9fd1a4443a56c3d077feb5cbdf5afc69b23c739afff23926b7e9dd2389a7edd",
        "campus-los-spread": "0c043b21d8c9b5be3d17b720ea2c1b7de874263af34b925351d07a659aec8560",
    },
}

# sha256 of the write_pdp_csv bytes of simulate_pdp(preset, seed), seeds 0 to 4:
# the same at X86_V3 and X86_V4
SIMULATE = {
    "urban-los": [
        "fb3412b9ce1daab43dd7935f015ed8b3f18421e3e183e2dd0f6a660d4ea2b531",
        "d08aafb984946cce283ef8d3fa1a792b370c68e07c76d38e525e2e75126f7282",
        "349e716d611cf25cbbb20953c4aeb866582b9d12a60bdf90075f9e5a71e15d99",
        "a9ed3878c7d0e1cdc8788e35502ba1e5f1611169a514cd8c831020b2b0fdf39d",
        "4f20d4ae34ec9f7d3a37b7851395fbc0d937612c0ebc032e6350914371d04898",
    ],
    "urban-nlos": [
        "9e452322a4bfd11dcdff02de2890c74a274f994cbd66e0235056bd56c8756e24",
        "2967ff6bacd0324c00b0739af4464709d376bf8ec3089871661415c4901ddd92",
        "0612bfac4561c564bfa1ab1cec502d4d24987d17bdcc955db943d9344b115dd0",
        "475f48eb847196955e1c57f7f38074de09aabfe294596f7183b5bcaea35d2aab",
        "ea42409532cafad408579ceb7b1e493f169a87679adf811dfd6259c29c485a4e",
    ],
    "campus-los": [
        "21b9a5cc7d4521da46d6be56de2393741e60325de480de4b9956245ef921dc88",
        "6907bb1b2b70b8e1f5ae58fcf097f95a3990b80b4cf8da01fa799bc6b6c3681e",
        "febc0de0844f82bcde5a10b77a07c97c60944f5eddc80d151b310f183797fe76",
        "09a7eb69800a4bd71b326d99710ee6c76a9b87740a17ecbb2587fc378b273a02",
        "bb74f5907360b20d189b55480bc2f5c427c3b807b34a678077305f38c6db303e",
    ],
    "campus-nlos": [
        "a7c7ba259883d28b75567c4e88b15c957364bbe391236f5bd20e3e70ac87821a",
        "bdb3299412af6c0ca7f406d478956fa879a798879b802b1937d0fa4d5e9e931c",
        "31a2e7e9bb98b114278e8c87a8337b39cd522df8271db34fd058ddba4c0f2720",
        "2b64dc7d6343ca1c416e0a109b4ae0b6958c73ca0504772a9eddd71fbcda269d",
        "79b7b65493aa121655ae656dca5b781c3a1a8f99b885f71c9badfb78ff19a595",
    ],
}


SIMULATE_DIGESTS = {"X86_V4": SIMULATE, "X86_V3": SIMULATE}


def simd_level() -> str:
    """The highest x86-64 level numpy dispatches to on this host, or the
    machine's name when it reports none."""
    levels = ("X86_V4", "X86_V3", "X86_V2")
    return next((level for level in levels if __cpu_features__.get(level)), platform.machine())


def recorded(digests: dict):
    """The digests of this host's SIMD level; a level with none fails."""
    level = simd_level()
    if level not in digests:
        pytest.fail(f"no digests recorded for numpy {np.__version__} at {level}")
    return digests[level]


def test_digests_belong_to_this_generator_version():
    assert __about__.__version__ == GENERATOR_VERSION


@pytest.mark.parametrize("name", sorted(DATASET_CONFIGS))
def test_dataset_payload_digest(tmp_path, name):
    path = tmp_path / "x.chds"
    gbsm.generate_dataset(DATASET_CONFIGS[name], 3000, 1, path)
    payload = io.read_dataset(path).snapshots.tobytes()
    assert hashlib.sha256(payload).hexdigest() == recorded(DATASET_DIGESTS)[name]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_simulate_csv_digests(tmp_path, name):
    digests = []
    for seed in range(5):
        path = tmp_path / f"{seed}.csv"
        io.write_pdp_csv(path, gbsm.simulate_pdp(PRESETS[name], seed))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == recorded(SIMULATE_DIGESTS)[name]

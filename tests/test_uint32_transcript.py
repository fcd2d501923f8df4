"""Decoding the loaded transcript, whose arrays are read-only uint32 views
of the sidecar bytes, reproduces the pinned decoded files.

Under numpy 2, arithmetic between two uint32 arrays wraps silently
(0 - 1 is 4294967295), so a kernel that computed on the transcript's
arrays without widening them first would decode wrong files here; the
pins are those of ``tests/test_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from synergy.decoder import decode_user, verify_all
from synergy.field import SeededRng
from synergy.placement import fill_caches, random_library, subpacketize
from synergy.scheduler import default_config
from synergy.simulator import LIBRARY_STREAM, load_transcript, save_transcript, simulate
from test_golden import GOLDEN, GOLDEN_RESAMPLE_13

CASES = [(K, replication, seed, None) for K, replication, seed in sorted(GOLDEN) if K <= 4] + [
    (K, replication, seed, 13) for K, replication, seed in sorted(GOLDEN_RESAMPLE_13)
]


@pytest.mark.parametrize("K, replication, seed, modulus", CASES)
def test_loaded_uint32_transcript_decodes_to_the_pinned_files(tmp_path, K, replication, seed, modulus):
    if modulus is None:
        config, on_degenerate, pins = default_config(K, K, replication), "error", GOLDEN
    else:
        config = default_config(K, K, replication, modulus=modulus)
        on_degenerate, pins = "resample", GOLDEN_RESAMPLE_13
    transcript = simulate(config, tuple(range(1, K + 1)), seed, on_degenerate=on_degenerate)
    save_transcript(transcript, tmp_path / "run.json")
    loaded = load_transcript(tmp_path / "run.json")
    for symbols in (loaded.channels, loaded.observations):
        assert symbols.dtype == np.uint32 and not symbols.flags.writeable
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    caches = fill_caches(config, subpacketize(config, library))
    decoded = hashlib.sha256()
    for user in range(1, K + 1):
        decoded.update(decode_user(loaded, user, caches[user - 1]).file.astype("<u4").tobytes())
    assert decoded.hexdigest() == pins[(K, replication, seed)][1]
    assert verify_all(loaded, library).all_pass

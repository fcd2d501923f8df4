import math

import numpy as np
import pytest

from references import rank, subsets, without
from synergy.combinatorics import group_table
from synergy.field import MODULUS, SeededRng
from synergy.placement import (
    CacheContents,
    LengthMismatchError,
    SystemConfig,
    fill_caches,
    load_library,
    random_library,
    save_library,
    subpacketize,
)
from synergy.decoder import decode_user, verify_all
from synergy.scheduler import build_xors, plan_phases
from synergy.simulator import run_delivery, simulate


def make_setup(K, N, M, granularity=1, seed=0):
    config = SystemConfig(K, N, M, granularity=granularity)
    library = random_library(config, SeededRng(seed))
    return config, library


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(0, 1, 0)
    with pytest.raises(ValueError):
        SystemConfig(3, 2, 1)  # fewer files than users
    with pytest.raises(ValueError):
        SystemConfig(2, 2, 3)  # cache larger than library
    with pytest.raises(ValueError):
        SystemConfig(3, 4, 1)  # K*M/N not an integer
    with pytest.raises(ValueError):
        SystemConfig(2, 2, 1, granularity=0)
    with pytest.raises(ValueError):
        SystemConfig(2, 2, 1, modulus=9)  # not prime
    with pytest.raises(ValueError):
        SystemConfig(4, 4, 1, modulus=7)  # prime but <= 2K


@pytest.mark.parametrize(
    "fields, message",
    [
        # both used to construct, then fail with a TypeError inside simulate
        ({"K": 3, "N": 3, "M": 1, "granularity": 2.5}, "config field granularity must be an integer, got 2.5"),
        ({"K": 3.0, "N": 3, "M": 1}, "config field K must be an integer, got 3.0"),
    ],
)
def test_config_rejects_non_integer_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SystemConfig(**fields)


def test_config_stores_python_ints():
    config = SystemConfig(*(np.int64(value) for value in (3, 3, 1, 2, 101)))
    assert config == SystemConfig(3, 3, 1, granularity=2, modulus=101)
    assert all(type(value) is int for value in config.to_json().values())


def test_config_modulus_below_two_to_the_31():
    # int64 field kernels hold products of two reduced elements only
    # below 2**31.
    assert SystemConfig(2, 2, 1, modulus=(1 << 31) - 1).modulus == 2**31 - 1
    for prime in (2147483659, 4294967291):
        with pytest.raises(ValueError):
            SystemConfig(2, 2, 1, modulus=prime)


def test_config_derived_sizes():
    config = SystemConfig(4, 4, 2, granularity=3)
    assert config.replication == 2
    assert config.cache_fraction == 0.5
    assert config.subfiles_per_file == 6
    assert config.subfile_symbols == 2 * 3
    assert config.file_symbols == 36
    assert config.library_symbols == 144


def test_config_json_roundtrip():
    config = SystemConfig(3, 6, 2, granularity=2)
    assert SystemConfig.from_json(config.to_json()) == config


def test_subpacketize_two_users():
    config, library = make_setup(2, 2, 1)
    blocks = subpacketize(config, library)
    members, _, _ = group_table(2, 1)
    assert {tuple(members[rank]) for rank in range(blocks.shape[1])} == {(1,), (2,)}
    assert blocks.shape[:2] == (2, 2)


def test_subpacketize_four_users_block_sizes():
    config, library = make_setup(4, 4, 2, granularity=5)
    blocks = subpacketize(config, library)
    assert blocks.shape == (4, 6, 2 * 5)
    assert np.shares_memory(blocks, library) and not blocks.flags.writeable


def test_subpacketize_no_cache_keeps_whole_file():
    config, library = make_setup(3, 3, 0)
    blocks = subpacketize(config, library)
    assert blocks.shape[:2] == (3, 1)
    assert group_table(3, 0)[0].shape == (1, 0)  # rank 0 is the empty subset
    assert np.array_equal(blocks[1, 0], library[1])


def test_subpacketize_full_cache_single_block():
    config, library = make_setup(3, 3, 3)
    blocks = subpacketize(config, library)
    assert blocks.shape[:2] == (3, 1)
    assert group_table(3, 3)[0].tolist() == [[1, 2, 3]]
    assert blocks.shape[2] == config.granularity


def test_partition_roundtrip():
    # concatenating blocks in canonical order reproduces each file exactly
    for K, M in ((3, 1), (4, 2), (5, 4)):
        config, library = make_setup(K, K, M, granularity=2)
        blocks = subpacketize(config, library)
        for file in range(1, config.N + 1):
            ordered = [
                blocks[file - 1, rank(tau, config.K)] for tau in subsets(config.K, config.replication)
            ]
            assert np.array_equal(np.concatenate(ordered), library[file - 1])


def test_length_mismatch_rejected():
    config, library = make_setup(3, 3, 1)
    with pytest.raises(LengthMismatchError):
        subpacketize(config, library[:, :-1])
    with pytest.raises(LengthMismatchError):
        subpacketize(config, library[:-1])


def test_fill_caches_membership_counts():
    config, library = make_setup(3, 3, 1)
    caches = fill_caches(config, subpacketize(config, library))
    members, _, _ = group_table(3, 1)
    assert [cache.user for cache in caches] == [1, 2, 3]
    assert all(cache.blocks.shape[:2] == (3, 1) for cache in caches)  # one block per file
    for cache in caches:
        assert all(cache.user in members[rank] for rank in cache.holders)


def test_fill_caches_counts_k4():
    config, library = make_setup(4, 4, 2)
    caches = fill_caches(config, subpacketize(config, library))
    assert all(cache.blocks.shape[0] * len(cache.holders) == 4 * math.comb(3, 1) for cache in caches)


def test_fill_caches_empty_when_no_cache():
    config, library = make_setup(4, 4, 0)
    caches = fill_caches(config, subpacketize(config, library))
    assert all(len(cache.holders) == 0 and cache.blocks.size == 0 for cache in caches)


@pytest.mark.parametrize(
    "subfiles, error, message",
    [
        # a numpy float scalar used to raise IndexError
        (np.float64(2.0), ValueError, r"^subfiles must hold integers, got dtype float64$"),
        (np.zeros((4, 6, 1)), ValueError, r"^subfiles must hold integers, got dtype float64$"),
        (np.zeros((4, 6, 3), dtype=np.int64), LengthMismatchError,
         r"^subfiles must have shape \(4, 6, 2\), got \(4, 6, 3\)$"),
        (np.int64(2), LengthMismatchError, r"^subfiles must have shape \(4, 6, 2\), got \(\)$"),
    ],
    ids=["float-scalar", "float-array", "wrong-shape", "int-scalar"],
)
def test_fill_caches_rejects_subfiles_that_are_not_the_config_blocks(subfiles, error, message):
    config, _ = make_setup(4, 4, 2)
    with pytest.raises(error, match=message):
        fill_caches(config, subfiles)


def test_each_block_held_by_exactly_replication_users():
    config, library = make_setup(5, 5, 2)
    blocks = subpacketize(config, library)
    caches = fill_caches(config, blocks)
    members, _, _ = group_table(5, 2)
    for rank in range(blocks.shape[1]):
        holders = [cache.user for cache in caches if rank in cache.holders]
        assert holders == members[rank].tolist()
        assert len(holders) == config.replication


def test_cache_size_identity_sweep():
    # cached symbols per user == (M/N) * library symbols, exactly
    for K in range(1, 11):
        for M in range(0, K + 1):
            config, library = make_setup(K, K, M)
            caches = fill_caches(config, subpacketize(config, library))
            expected = config.cache_fraction * config.library_symbols
            assert expected.denominator == 1
            for cache in caches:
                assert cache.symbol_count == int(expected)


def test_library_io_roundtrip(tmp_path):
    config, library = make_setup(3, 4, 0, granularity=2)
    # non-trivial M variant as well
    for cfg, lib in ((config, library), make_setup(4, 4, 2, granularity=3, seed=9)):
        path = tmp_path / f"lib_{cfg.K}_{cfg.M}.bin"
        save_library(path, cfg, lib)
        loaded_config, loaded = load_library(path)
        assert loaded_config == cfg
        assert np.array_equal(loaded, lib)


def test_library_io_rejects_garbage(tmp_path):
    config, library = make_setup(2, 2, 1)
    path = tmp_path / "lib.bin"
    save_library(path, config, library)
    raw = path.read_bytes()
    (tmp_path / "short.bin").write_bytes(raw[:10])
    with pytest.raises(LengthMismatchError):
        load_library(tmp_path / "short.bin")
    (tmp_path / "padded.bin").write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(LengthMismatchError):
        load_library(tmp_path / "padded.bin")
    bad = bytearray(raw)
    bad[20:24] = (config.modulus).to_bytes(4, "little")  # symbol == modulus
    (tmp_path / "bad.bin").write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        load_library(tmp_path / "bad.bin")


def test_library_load_names_the_file(tmp_path):
    config, library = make_setup(2, 2, 1)
    save_library(tmp_path / "lib.bin", config, library)
    raw = (tmp_path / "lib.bin").read_bytes()
    symbol_too_large = raw[:20] + config.modulus.to_bytes(4, "little") + raw[24:]
    for name, content, error, message in (
        ("three.bin", b"abc", LengthMismatchError, "truncated library file"),
        ("zeroed.bin", bytes(20), ValueError, "need at least one user"),
        ("odd.bin", raw + b"\x00", LengthMismatchError, "payload holds"),
        ("large.bin", symbol_too_large, ValueError,
         rf"library hold a symbol outside \[0, modulus\) = \[0, {config.modulus}\)$"),
    ):
        (tmp_path / name).write_bytes(content)
        with pytest.raises(error, match=f"{name}: {message}"):
            load_library(tmp_path / name)


def test_save_rejects_out_of_range_symbols(tmp_path):
    config, library = make_setup(2, 2, 1)
    for value in (-1, config.modulus):
        bad = library.copy()
        bad[1, 0] = value
        path = tmp_path / f"bad_{value}.bin"
        expected = rf"^library hold a symbol outside \[0, modulus\) = \[0, {config.modulus}\)$"
        with pytest.raises(ValueError, match=expected):
            save_library(path, config, bad)
        assert not path.exists()


def test_save_rejects_mismatched_library(tmp_path):
    config, library = make_setup(2, 2, 1)
    with pytest.raises(LengthMismatchError):
        save_library(tmp_path / "x.bin", config, library[:, :-1])


def _bad_library(library, kind, modulus):
    """``library`` (or any array of symbols) made a float array, or given
    symbols outside the field at [1, 0]: negative, at the modulus, or a
    uint64 one that an int64 cast wraps to a negative number."""
    if kind == "float":
        return library + 0.5
    bad = library.astype(np.uint64) if kind == "uint64" else library.copy()
    bad[1, 0] = {"negative": -1, "modulus": modulus, "uint64": 2**63 + 1}[kind]
    return bad


@pytest.mark.parametrize("kind", ["float", "negative", "modulus", "uint64"])
@pytest.mark.parametrize("entry", ["subpacketize", "run_delivery", "verify_all", "save_library"])
def test_every_entry_point_rejects_a_library_outside_the_field(tmp_path, entry, kind):
    # Each used to truncate, reduce or wrap such a library into other
    # symbols, and verify_all then reported a match for every user.
    config, library = make_setup(3, 3, 1)
    bad = _bad_library(library, kind, config.modulus)
    path = tmp_path / "lib.bin"
    call = {
        "subpacketize": lambda: subpacketize(config, bad),
        "run_delivery": lambda: run_delivery(plan_phases(config, (1, 2, 3)), bad, 0),
        "verify_all": lambda: verify_all(simulate(config, (1, 2, 3), 0), bad),
        "save_library": lambda: save_library(path, config, bad),
    }[entry]
    expected = (
        "library must hold integers, got dtype float64"
        if kind == "float"
        else f"library hold a symbol outside [0, modulus) = [0, {config.modulus})"
    )
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == expected
    assert not isinstance(caught.value, LengthMismatchError)
    assert not path.exists()


def _outside_the_field(name, kind, modulus):
    if kind == "float":
        return f"{name} must hold integers, got dtype float64"
    return f"{name} hold a symbol outside [0, modulus) = [0, {modulus})"


@pytest.mark.parametrize("kind", ["float", "negative", "modulus", "uint64"])
@pytest.mark.parametrize("entry", ["fill_caches", "decode_user"])
def test_subfiles_and_caches_outside_the_field_are_rejected(entry, kind):
    # fill_caches used to gather such subfiles, and decode_user then
    # returned files equal to the library only mod p, or failed inside
    # numpy on a float or wrapping uint64 cache.
    config, library = make_setup(3, 3, 1)
    subfiles = subpacketize(config, library)
    cache = fill_caches(config, subfiles)[1]
    bad_cache = CacheContents(2, cache.holders, _bad_library(cache.blocks, kind, config.modulus))
    transcript = run_delivery(plan_phases(config, (1, 2, 3), subfiles=subfiles), library, 0)
    with pytest.raises(ValueError) as caught:
        if entry == "fill_caches":
            fill_caches(config, _bad_library(subfiles, kind, config.modulus))
        else:
            decode_user(transcript, 2, bad_cache)
    name = "subfiles" if entry == "fill_caches" else "cache of user 2"
    assert str(caught.value) == _outside_the_field(name, kind, config.modulus)
    assert not isinstance(caught.value, LengthMismatchError)


@pytest.mark.parametrize("kind", ["float", "negative", "modulus", "uint64"])
def test_verify_all_reports_a_cache_outside_the_field(monkeypatch, kind):
    config, library = make_setup(3, 3, 1)
    subfiles = subpacketize(config, library)
    transcript = run_delivery(plan_phases(config, (1, 2, 3), subfiles=subfiles), library, 0)
    caches = fill_caches(config, subfiles)
    caches[1] = CacheContents(2, caches[1].holders, _bad_library(caches[1].blocks, kind, config.modulus))
    monkeypatch.setattr("synergy.decoder.fill_caches", lambda config, subfiles: caches)
    report = verify_all(transcript, library)
    assert [entry.match for entry in report.users] == [True, False, True]
    expected = _outside_the_field("cache of user 2", kind, config.modulus)
    assert report.users[1].error == f"ValueError: {expected}"


def test_random_library_deterministic_and_in_range():
    config = SystemConfig(3, 3, 1)
    a = random_library(config, SeededRng(5))
    b = random_library(config, SeededRng(5))
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < MODULUS
    c = random_library(config, SeededRng(6))
    assert not np.array_equal(a, c)


def test_cache_contents_symbol_count():
    config, library = make_setup(3, 3, 1)
    caches = fill_caches(config, subpacketize(config, library))
    assert isinstance(caches[0], CacheContents)
    assert caches[0].symbol_count == 3 * config.subfile_symbols


def reference_placement(config, library, demand):
    """Blocks keyed by (file, subset), caches by membership and folded
    messages through the subset without each member, in pure Python."""
    size = config.subfile_symbols
    blocks = {
        (file, tau): [int(v) for v in library[file - 1, i * size : (i + 1) * size]]
        for file in range(1, config.N + 1)
        for i, tau in enumerate(subsets(config.K, config.replication))
    }
    caches = [
        {key: block for key, block in blocks.items() if user in key[1]}
        for user in range(1, config.K + 1)
    ]
    messages = []
    if config.replication < config.K:
        for group in subsets(config.K, config.replication + 1):
            payload = [0] * size
            for member in group:
                block = blocks[(demand[member - 1], without(group, member))]
                payload = [(a + b) % config.modulus for a, b in zip(payload, block)]
            messages.append((group, payload))
    return blocks, caches, messages


@pytest.mark.parametrize("K", range(1, 8))
def test_placement_tables_match_subset_reference(K):
    distinct = tuple(range(1, K + 1))
    repeated = tuple(1 + k // 2 for k in range(K))
    for M in range(K + 1):
        config, library = make_setup(K, K, M, granularity=2, seed=K * 10 + M)
        subfiles = subpacketize(config, library)
        holder_subsets = subsets(K, config.replication)
        for demand in (distinct, repeated):
            blocks, caches, messages = reference_placement(config, library, demand)
            assert len(blocks) == subfiles.shape[0] * subfiles.shape[1]
            for (file, tau), block in blocks.items():
                assert subfiles[file - 1, rank(tau, K)].tolist() == block
            for cache, expected in zip(fill_caches(config, subfiles), caches):
                held = {
                    (file + 1, holder_subsets[r]): cache.blocks[file, i].tolist()
                    for file in range(config.N)
                    for i, r in enumerate(cache.holders)
                }
                assert held == expected
                assert cache.symbol_count == sum(len(block) for block in expected.values())
            xors = build_xors(config, subfiles, demand)
            assert xors.shape == (len(messages), config.subfile_symbols)
            for group, payload in messages:
                assert xors[rank(group, K)].tolist() == payload

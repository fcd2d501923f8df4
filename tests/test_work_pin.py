"""The field-kernel work of one ``coarse`` benchmark operation, and the
draw work of one ``fine-resample`` operation, pinned.

A ``coarse`` op is ``synergy simulate -K 8 -N 8 -M 0`` (replication 0,
granularity 105, 2,283 channel uses): its fixed cost per kernel call
outweighs its arithmetic, so the number of calls is the work.  This test
runs one such op from cleared memo caches, as the benchmark does, and
counts the public kernels and the private ones they are built from under
every module name that binds them.  A change that adds kernel calls fails
here without a wall-clock measurement.  The same op may check its
library at most twice.

A ``fine-resample`` op draws its channels over GF(101), where almost
every block of draws holds a zero that a nonzero draw rejects; each
``SeededRng.field_matrix`` call should still compute its outputs in one
``SeededRng._outputs`` pass.  Its order-12 phase has one active antenna,
where every decoding system is one nonzero coefficient: no rank check
may run there.
"""

import functools

import numpy as np
import pytest

from synergy import bounds, cli, combinatorics, decoder, field, placement, scheduler, simulator
from synergy.field import SeededRng

MODULES = (bounds, cli, combinatorics, decoder, field, placement, scheduler, simulator)
COUNTED = ("solve", "is_invertible", "_eliminate", "_inverse_batch", "_reduce")
# The most calls one coarse op at seed 3 may make.  The batch sizes, not
# the call counts, grow with the phase: every decode phase is one window,
# and the combining minors of every phase are one solve.
# The order-8 phase has one active antenna, so its 1 x 1 systems are
# never checked.
PINNED = {"solve": 9, "is_invertible": 7, "_eliminate": 16, "_inverse_batch": 9, "_reduce": 487}


def clear_memo_caches():
    for module in MODULES:
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


@pytest.fixture
def kernel_calls(monkeypatch):
    """``{name: calls}``, counted through every module binding of each
    name in ``COUNTED``."""
    calls = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        original = getattr(field, name)

        @functools.wraps(original)
        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        bound = [module for module in MODULES if vars(module).get(name) is original]
        assert field in bound
        for module in bound:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_one_coarse_op_makes_the_pinned_kernel_calls(kernel_calls, tmp_path, capsys):
    clear_memo_caches()
    argv = ["simulate", "-K", "8", "-N", "8", "-M", "0", "--seed", "3", "--output", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert "over 2283 channel uses" in capsys.readouterr().out
    over = {name: calls for name, calls in kernel_calls.items() if calls > PINNED[name]}
    assert not over, f"more kernel calls than pinned: {kernel_calls}"


def test_one_coarse_op_checks_its_library_at_most_twice(monkeypatch, tmp_path, capsys):
    # One check where delivery subpacketizes the library, one where
    # verification does; the plan carries no payloads to fold first.
    names = []
    original = placement._symbols

    @functools.wraps(original)
    def recording(name, *args, **kwargs):
        names.append(name)
        return original(name, *args, **kwargs)

    for module in MODULES:
        if vars(module).get("_symbols") is original:
            monkeypatch.setattr(module, "_symbols", recording)
    clear_memo_caches()
    argv = ["simulate", "-K", "8", "-N", "8", "-M", "0", "--seed", "3", "--output", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert "over 2283 channel uses" in capsys.readouterr().out
    assert 1 <= names.count("library") <= 2, names


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_fine_resample_op_draws_each_block_in_one_pass(monkeypatch, tmp_path, seed):
    calls = {"field_matrix": 0, "_outputs": 0}
    for name in calls:
        original = getattr(SeededRng, name)

        @functools.wraps(original)
        def counting(rng, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(rng, *args, **kwargs)

        monkeypatch.setattr(SeededRng, name, counting)
    clear_memo_caches()
    argv = ["simulate", "-K", "12", "-N", "12", "-M", "8", "--modulus", "101", "--resample-degenerate"]
    assert cli.main([*argv, "--seed", str(seed), "--output", str(tmp_path / "run")]) == 0
    assert calls["field_matrix"] > 0 and calls["_outputs"] <= calls["field_matrix"], calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_fine_resample_op_checks_no_one_by_one_system(monkeypatch, tmp_path, seed):
    shapes = []
    original = field.is_invertible

    @functools.wraps(original)
    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    for module in MODULES:
        if vars(module).get("is_invertible") is original:
            monkeypatch.setattr(module, "is_invertible", recording)
    clear_memo_caches()
    argv = ["simulate", "-K", "12", "-N", "12", "-M", "8", "--modulus", "101", "--resample-degenerate"]
    assert cli.main([*argv, "--seed", str(seed), "--output", str(tmp_path / "run")]) == 0
    assert shapes, "no rank check ran"
    assert all(shape[-2:] != (1, 1) for shape in shapes), shapes

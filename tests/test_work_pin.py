"""The field-kernel work of one ``coarse`` benchmark operation, pinned.

A ``coarse`` op is ``synergy simulate -K 8 -N 8 -M 0`` (replication 0,
granularity 105, 2,283 channel uses): its fixed cost per kernel call
outweighs its arithmetic, so the number of calls is the work.  This test
runs one such op from cleared memo caches, as the benchmark does, and
counts the public kernels and the private ones they are built from under
every module name that binds them.  A change that adds kernel calls fails
here without a wall-clock measurement.
"""

import functools

import pytest

from synergy import bounds, cli, combinatorics, decoder, field, placement, scheduler, simulator

MODULES = (bounds, cli, combinatorics, decoder, field, placement, scheduler, simulator)
COUNTED = ("solve", "is_invertible", "_eliminate", "_inverse_batch", "_reduce")
# The most calls one coarse op at seed 3 may make.  The batch sizes, not
# the call counts, grow with the phase: every decode phase is one window,
# and the combining minors of every phase are one solve.
PINNED = {"solve": 9, "is_invertible": 8, "_eliminate": 17, "_inverse_batch": 9, "_reduce": 494}


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

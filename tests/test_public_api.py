"""The package's public names: each module's ``__all__`` declares its
own, and ``synergy.__all__`` is exactly those lists joined."""

import synergy
from synergy import bounds, combinatorics, decoder, field, placement, scheduler, simulator

MODULES = (bounds, combinatorics, decoder, field, placement, scheduler, simulator)


def test_package_all_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert synergy.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert len(joined) <= 56


def test_every_public_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(synergy, name) is getattr(module, name)


def test_removed_names_are_not_exported():
    removed = ("binomial", "inverse", "DelayedCsitLedger", "CausalityError", "ChannelUse", "Subset",
               "plan_to_json")
    for name in removed:
        assert name not in synergy.__all__
        assert not hasattr(synergy, name)
    for name in ("LIBRARY_STREAM", "CHANNEL_STREAM", "DEMAND_STREAM"):
        assert name not in synergy.__all__
        assert isinstance(getattr(simulator, name), int)

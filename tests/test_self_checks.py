"""The self-checks that ``synergy verify`` and the acceptance battery
share count the cases they ran, so neither caller can pass vacuously."""

from synergy.cli import _check_cache_identity, _check_decodes, _check_schedule_identities


def test_self_checks_count_their_cases():
    # K <= 4, replication in [0, K-1]: 1 + 2 + 3 + 4 plans
    assert _check_schedule_identities(4) == 10
    # K in 1..3, replication in [0, K]: 2 + 3 + 4 configs at each granularity
    assert _check_cache_identity(range(1, 4), 1) == 9
    assert _check_cache_identity(range(1, 4), None) == 9
    # K in 2..3, replication in [0, K]: 3 + 4 runs per seed
    assert _check_decodes(range(2, 4), 1) == 7
    assert _check_decodes(range(2, 4), 2) == 14

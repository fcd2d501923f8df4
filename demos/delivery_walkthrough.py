"""End-to-end walkthrough of one cache-aided delivery round.

Builds a 3-user system, shows the placement grid, the folded messages,
the two delivery phases, and then decodes every user from its own
observations plus the delayed channel log.  Run:

    python demos/delivery_walkthrough.py
"""

from synergy import (
    SeededRng,
    decode_user,
    fill_caches,
    plan_phases,
    random_library,
    run_delivery,
    subpacketize,
    verify_all,
)
from synergy.combinatorics import group_table
from synergy.scheduler import default_config
from synergy.simulator import LIBRARY_STREAM

SEED = 7

config = default_config(K=3, N=3, M=1)
print(f"system: K={config.K} users, N={config.N} files, M={config.M} cached files/user")
print(f"replication {config.replication}: every block lives in {config.replication} cache(s)")
print(f"each file = {config.subfiles_per_file} blocks x {config.subfile_symbols} symbols\n")

library = random_library(config, SeededRng(SEED).child(LIBRARY_STREAM))
subfiles = subpacketize(config, library)
caches = fill_caches(config, subfiles)
# Blocks are indexed by subset rank; group_table lists the subset of each rank.
holder_sets, _, _ = group_table(config.K, config.replication)
for cache in caches:
    held = ", ".join(str(tuple(holder_sets[rank].tolist())) for rank in cache.holders)
    print(f"cache of user {cache.user}: each file's blocks with holders {held}")

# every user wants a different file
demand = (1, 2, 3)
plan = plan_phases(config, demand, subfiles=subfiles)
print(f"\nfolded messages ({len(plan.xors)}):")
groups, _, without_rank = group_table(config.K, config.replication + 1)
for group, ranks in zip(groups.tolist(), without_rank.tolist()):
    parts = " + ".join(
        f"block(file {demand[k - 1]}, holders {tuple(holder_sets[rank].tolist())})"
        for k, rank in zip(group, ranks)
    )
    print(f"  group {tuple(group)}: {parts}")

print("\nphases:")
for phase in plan.phases:
    print(
        f"  order {phase.order}: {phase.group_count} groups x {phase.uses_per_group} uses "
        f"over {phase.active_antennas} antenna(s), duration {phase.duration}"
    )
print(f"total delivery time {plan.total_duration} = 1/2 + 1/3 (harmonic tail)")

transcript = run_delivery(plan, library, SEED)
print(f"\nran {transcript.total_uses} channel uses; "
      f"uses / (blocks * antennas * granularity) = "
      f"{transcript.total_uses}/{config.subfiles_per_file * 2 * config.granularity} "
      f"= {plan.total_duration}")

print("\nbackward decoding:")
for user in range(1, config.K + 1):
    decoded = decode_user(transcript, user, caches[user - 1]).file
    exact = (decoded == library[demand[user - 1] - 1]).all()
    print(f"  user {user} reconstructs file {demand[user - 1]}: "
          f"{'symbol-exact' if exact else 'MISMATCH'}")

report = verify_all(transcript, library)
print(f"\nverify_all: all_pass={report.all_pass}, "
      f"solves per user {[entry.solves for entry in report.users]}")

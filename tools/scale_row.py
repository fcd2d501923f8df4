"""One row of the ROADMAP scale table, measured in process.

Builds ``default_config(K, K, g)`` (K users, K files, replication g),
draws the library of seed 1, plans the distinct demand (user k asks for
file k), runs ``run_delivery`` and then ``verify_all``, which must
decode every user.  Prints one JSON line: the channel uses, the delivery
and decode wall seconds, their total, and the peak RSS in MB
(``ru_maxrss`` of this process, which on Linux is in KiB).  Exits 1 when
a user fails to decode.

    python3 tools/scale_row.py 12 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from synergy.decoder import verify_all  # noqa: E402
from synergy.field import SeededRng  # noqa: E402
from synergy.placement import random_library, subpacketize  # noqa: E402
from synergy.scheduler import default_config, plan_phases  # noqa: E402
from synergy.simulator import LIBRARY_STREAM, run_delivery  # noqa: E402

SEED = 1


def measure(K: int, g: int) -> dict:
    """The row's numbers; ``decoded`` is whether every user decoded."""
    config = default_config(K, K, g)
    library = random_library(config, SeededRng(SEED).child(LIBRARY_STREAM))
    plan = plan_phases(config, tuple(range(1, K + 1)), subfiles=subpacketize(config, library))
    start = time.perf_counter()
    transcript = run_delivery(plan, library, SEED)
    delivered = time.perf_counter()
    report = verify_all(transcript, library)
    decoded = time.perf_counter()
    return {
        "K": K,
        "g": g,
        "uses": transcript.total_uses,
        "delivery_s": round(delivered - start, 3),
        "decode_s": round(decoded - delivered, 3),
        "total_s": round(decoded - start, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "decoded": report.all_pass,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("K", type=int, help="users, and files")
    parser.add_argument("g", type=int, help="replication: files each user caches")
    args = parser.parse_args(argv)
    row = measure(args.K, args.g)
    print(json.dumps(row))
    return 0 if row["decoded"] else 1


if __name__ == "__main__":
    sys.exit(main())

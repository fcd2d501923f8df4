"""Alternated in-process op pairs of two source trees.

Loads ``src/synergy`` of a parent tree and of a change tree into one
process, as the packages ``synergy_parent`` and ``synergy_change``, and
runs one CLI command on both, op by op: op i runs the command with
``--seed`` (first seed + i) and an output prefix in a fresh directory,
the parent first when i is even and the change first when i is odd, each
from cleared memo caches, as the benchmark runs an op.  Every op's exit
code, stdout, stderr and output files must be byte-identical on both
sides, or the tool stops with exit 1.  Prints one JSON line: the median
of the per-op ratios change time / parent time, its quartiles (linear
interpolation between order statistics) and the number of ops the
change ran faster.

Op-by-op ratios cancel most of a shared machine's drift, which moves
whole benchmark runs by far more than a small change does.

    python3 tools/op_pairs.py --parent ../parent --change . --ops 96 \\
        -- simulate -K 8 -N 8 -M 0
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, quartiles  # noqa: E402


def load_package(tree: Path, name: str):
    """``tree``/src/synergy imported as the package ``name``; returns its
    ``cli`` module, which imports every other module."""
    init = Path(tree).resolve() / "src" / "synergy" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no synergy sources at {init}")
    for loaded in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def clear_memo_caches(package: str) -> None:
    """Empty the memo caches of every module of ``package``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == package or module_name.startswith(package + "."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_op(cli, package: str, argv: list[str], workdir: Path) -> tuple[float, tuple]:
    """Seconds one ``cli.main(argv + --output workdir/run)`` took, and its
    outcome: exit code, stdout and stderr with the directory name removed,
    and every file it wrote as ``{name: bytes}``."""
    clear_memo_caches(package)
    out, err = io.StringIO(), io.StringIO()
    command = [*argv, "--output", str(workdir / "run")]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(command)
        seconds = time.perf_counter() - start
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    streams = tuple(stream.getvalue().replace(str(workdir), "<out>") for stream in (out, err))
    return seconds, (code, *streams, files)


def op_pairs(clis: dict, argv: list[str], ops: int, first_seed: int) -> dict:
    """Run ``ops`` alternated op pairs; ValueError on the first op whose
    outcomes differ."""
    ratios, wins = [], 0
    for index in range(ops):
        op_argv = [*argv, "--seed", str(first_seed + index)]
        seconds, outcomes = {}, {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            with tempfile.TemporaryDirectory() as workdir:
                seconds[side], outcomes[side] = run_op(clis[side], f"synergy_{side}", op_argv, Path(workdir))
        if outcomes["parent"] != outcomes["change"]:
            raise ValueError(f"op {index} ({' '.join(op_argv)}): the two trees' outputs differ")
        ratios.append(seconds["change"] / seconds["parent"])
        wins += seconds["change"] < seconds["parent"]
    q1, median, q3 = quartiles(ratios)
    return {"ops": ops, "median_ratio": median, "q1": q1, "q3": q3, "change_wins": wins}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--ops", type=int, default=96, help="op pairs to run")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("command", nargs="+", help="CLI arguments of one op, after --")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    clis = {side: load_package(getattr(args, side), f"synergy_{side}") for side in SIDES}
    try:
        summary = op_pairs(clis, args.command, args.ops, args.first_seed)
    except ValueError as exc:
        print(f"op_pairs: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"command": args.command, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

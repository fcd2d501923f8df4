import importlib.util
import json
from pathlib import Path

import synergy

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"
_SPEC = importlib.util.spec_from_file_location("src_size", _PATH)
src_size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_size)


def test_src_size_splits_every_line_once_and_counts_the_public_names(capsys):
    assert src_size.main([]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["code"] + row["docstring"] + row["comment"] + row["blank"] == row["total"]
    assert min(row.values()) > 0
    assert row["public_names"] == len(synergy.__all__)
    modules = (src_size.SRC / "synergy").glob("*.py")
    assert row["total"] == sum(len(path.read_text().splitlines()) for path in modules)

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("op_pairs", ROOT / "tools" / "op_pairs.py")
op_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_pairs)

COMMAND = ["simulate", "-K", "3", "-N", "3", "-M", "1"]


@pytest.fixture
def loaded_packages():
    """Drop the two packages the tool loads once the test is done."""
    yield
    for name in [key for key in sys.modules if key.startswith(("synergy_parent", "synergy_change"))]:
        del sys.modules[name]


def test_op_pairs_alternates_one_tree_against_itself(loaded_packages, capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--ops", "4", "--", *COMMAND]
    assert op_pairs.main(argv) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["command"] == COMMAND and row["ops"] == 4
    assert 0 < row["q1"] <= row["median_ratio"] <= row["q3"]
    assert 0 <= row["change_wins"] <= 4
    assert sys.modules["synergy_change"].__file__ == str(ROOT / "src" / "synergy" / "__init__.py")


def test_op_pairs_stops_when_the_outputs_differ(loaded_packages):
    parent = op_pairs.load_package(ROOT, "synergy_parent")
    # The change side delivers another seed's transcript.
    other_seed = SimpleNamespace(main=lambda argv: parent.main([*argv[:-2], "--seed", "99", *argv[-2:]]))
    with pytest.raises(ValueError, match="op 0 .*outputs differ"):
        op_pairs.op_pairs({"parent": parent, "change": other_seed}, COMMAND, 2, 1)

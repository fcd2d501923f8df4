import importlib.util
import json
from pathlib import Path

from synergy.scheduler import default_config, plan_phases

_PATH = Path(__file__).resolve().parents[1] / "tools" / "scale_row.py"
_SPEC = importlib.util.spec_from_file_location("scale_row", _PATH)
scale_row = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale_row)


def test_scale_row_prints_one_decoded_row(capsys):
    assert scale_row.main(["5", "0"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["decoded"] is True
    assert (row["K"], row["g"]) == (5, 0)
    assert row["uses"] == plan_phases(default_config(5, 5, 0)).total_uses
    assert row["total_s"] >= row["delivery_s"] >= 0 and row["decode_s"] >= 0
    assert row["peak_rss_mb"] > 0

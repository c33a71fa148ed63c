"""tools/ab_stages.py: two checkouts side by side in one process."""

import importlib.util
import sys
from pathlib import Path

import susygordon

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_stages", ROOT / "tools" / "ab_stages.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ab_stages_binds_each_checkout_to_its_own_package():
    tool = load_tool()
    sides = {"A": tool.load_checkout(ROOT, "ab_test_a"), "B": tool.load_checkout(ROOT, "ab_test_b")}
    assert sides["A"].cli.__name__ == "ab_test_a.cli"
    assert sides["B"].darboux.__name__ == "ab_test_b.darboux"
    assert sides["A"].cli.main is not sides["B"].cli.main
    assert sys.modules["susygordon"] is susygordon  # the aliases are undone
    result = tool.interleave(sides, "soliton-surface", cycles=1, seed=3)
    assert result["failed"] == {"A": 0, "B": 0}
    assert result["names"][0] == "reproduce-example1"
    assert all(t < float("inf") for times in result["best"].values() for t in times)

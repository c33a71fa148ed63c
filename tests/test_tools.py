"""tools/: two checkouts side by side in one process, and report hashes."""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import susygordon
from susygordon import cli

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name="ab_stages"):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
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


def test_report_hashes_prints_exit_code_and_stdout_hash(capsys):
    tool = load_tool("report_hashes")
    names = ["reproduce-constraints", "verify-backlund"]
    assert tool.main([str(ROOT), "--only", *names]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == names
    # the same command run here, from the checkout root, gives the same hash
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(tool.COMMANDS["verify-backlund"])
    finally:
        os.chdir(cwd)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    assert lines[1].split()[1:] == ["exit", str(code), "sha256", digest]
    assert code == 0 and len(tool.COMMANDS) == 14

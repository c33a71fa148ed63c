"""tools/: two checkouts side by side in one process, report hashes and the depth probe."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
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
    # every timed run is kept, and each stage of each side has a quartile spread
    assert all(len(runs) == 1 for side in result["runs"].values() for runs in side)
    assert all(len(result["spread"][label]) == len(result["names"]) and
               all(gap >= 0 for gap in result["spread"][label]) for label in ("A", "B"))
    assert tool.spread([4, 1, 3, 2, 5]) == 2.0 and tool.spread([7]) == 0.0
    # the untimed counting pass: both sides run the same code, so they agree
    # in every column, products of multi-monomial elements that carry lambda
    # too; every stage makes products, and the workload scalings and negations
    # (reproduce-constraints makes neither)
    operations = result["operations"]
    assert operations["A"] == operations["B"] and len(operations["A"]) == len(result["names"])
    assert all(len(ops) == 4 and ops[0] > 0 for ops in operations["A"])
    assert all(total > 0 for total in list(map(sum, zip(*operations["A"])))[:3])
    assert all(getattr(wl.ssge.GrassmannElement, name).__qualname__ == f"GrassmannElement.{name}"
               for wl in sides.values() for name in ("__mul__", "__neg__"))  # the counters are removed


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
    assert code == 0 and len(tool.COMMANDS) == 21


def test_report_hashes_against_a_checkout_with_one_residual_perturbed(tmp_path, capsys):
    tool = load_tool("report_hashes")
    other = tmp_path / "other"
    for part in ("src", "samples"):
        shutil.copytree(ROOT / part, other / part, ignore=shutil.ignore_patterns("__pycache__"))
    ssge = other / "src" / "susygordon" / "ssge.py"
    line = "    r4 = d_minus(fv) + sin_sum * (2j * sqrt_lam)\n"
    assert ssge.read_text().count(line) == 1
    ssge.write_text(ssge.read_text().replace(line, line[:-1] + " + 1e-12\n"))
    names = ["reproduce-constraints", "verify-backlund"]
    assert tool.main([str(ROOT), "--only", *names, "--against", str(other)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == names[0] and lines[0].endswith(" same")
    assert lines[1].split()[0] == names[1] and lines[1].endswith(" differs")
    fields = {line.split()[0]: line.split()[-1] for line in lines[2:-1]}
    assert list(fields) == ["checks[].residual"]
    assert 0.5e-12 < float(fields["checks[].residual"]) < 2e-12
    assert lines[-1].strip() == "passed and singular agree"
    # a residual over the gate flips every ``passed`` of the command: exit 1
    ssge.write_text(ssge.read_text().replace(" + 1e-12\n", " + 1e-9\n"))
    assert tool.main([str(ROOT), "--only", names[1], "--against", str(other)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[1:4] == ["exit", "0", "1"] and lines[0].endswith(" differs")
    assert lines[-1].strip() == "passed and singular DIFFER"


def test_report_hashes_exits_1_on_a_verdict_or_exit_code_difference(monkeypatch, capsys):
    tool = load_tool("report_hashes")
    report = {"checks": [{"passed": True, "residual": 1e-12}], "passed": True}
    flipped = {"checks": [{"passed": False, "residual": 1e-12}], "passed": True}
    outputs = {"same": [(0, report)] * 2, "numbers": [(0, report), (0, dict(report, x=1))],
               "verdict": [(0, report), (0, flipped)], "exit": [(0, report), (1, report)]}
    for case, sides in outputs.items():
        calls = iter(sides)

        def run(cli, root, argv):
            code, value = next(calls)
            text = json.dumps(value)
            return code, hashlib.sha256(text.encode()).hexdigest()[:16], text
        monkeypatch.setattr(tool, "run", run)
        monkeypatch.setattr(tool, "load_cli", lambda root, name="": None)
        got = tool.main([str(ROOT), "--only", "verify-backlund", "--against", str(ROOT)])
        assert got == (case in ("verdict", "exit")), case
    capsys.readouterr()


def test_report_hashes_compare_names_each_field_and_verdict():
    tool = load_tool("report_hashes")
    a = {"checks": [{"passed": True, "residual": 1e-12, "point": {"x": [0.5, 0.0]}},
                    {"passed": True, "singular": "ginv", "residual": 2e-12}], "command": "verify"}
    b = {"checks": [{"passed": True, "residual": 4e-12, "point": {"x": [0.5, 0.25]}},
                    {"passed": False, "singular": "ginv", "residual": 2e-12}], "command": "solve"}
    lines = tool.compare(json.dumps(a), json.dumps(b))
    assert [line.split()[0] for line in lines[:-1]] == [
        "checks[].residual", "checks[].point.x[]", "checks[].passed", "command"]
    assert float(lines[0].split()[-1]) == 3e-12 and lines[1].endswith(" 0.25")
    assert lines[2].endswith(" differs") and lines[3].endswith(" differs")
    assert lines[-1] == "passed and singular DIFFER"
    assert tool.compare(json.dumps(a), json.dumps(a)) == ["passed and singular agree"]
    assert tool.compare(json.dumps(a), "not json") == ["not both JSON reports"]
    # a point singular on one side only: the fields differ, and so do the verdicts
    b["checks"][0]["singular"] = "ginv"
    assert tool.compare(json.dumps(a), json.dumps(b)) == [
        "the reports hold different fields", "passed and singular DIFFER"]


def test_depth_probe_prints_one_line_per_depth(capsys):
    tool = load_tool("depth_probe")
    assert tool.main(["--depths", "4", "5"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["n"] for line in lines] == [4, 5]
    # s[n] fills every even monomial of its n + 2 generators
    assert [line["monomials"] for line in lines] == [2 ** 5, 2 ** 6]
    for line in lines:
        assert line["evaluate_s"] > 0 and line["peak_mb"] > 0
        assert line["ratio"] == line["ssge_residual"] / line["max_abs"] < 1e-13
    assert lines[1]["max_abs"] > lines[0]["max_abs"]

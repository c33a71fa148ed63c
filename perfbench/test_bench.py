"""Consistency checks for the benchmark's own files.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

The deep-chain inputs must stay identical to ``tests/conftest.py::deep_seeds``,
and ``BENCHMARK.json`` must name exactly the metrics that ``run.py`` reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(HERE))

from conftest import deep_seeds  # noqa: E402
from susygordon.solutions import parse_seed  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["deep_seeds.json", "deep_chain.json", "deep_closed_form.json"])
def test_deep_inputs_equal_conftest_seeds(name):
    data = json.loads((workloads.INPUTS / name).read_text(encoding="utf-8"))
    assert [parse_seed(entry) for entry in data["seeds"]] == deep_seeds()


def test_solution_files_are_the_four_step_chain_and_closed_form():
    workloads.load_inputs()


def test_benchmark_file_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "checks_per_s", "setup_s", "peak_rss_mb", "pass_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS

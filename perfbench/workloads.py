"""The benchmark's workloads and the checks on their outputs.

A workload is a list of stages run in order; one pass over them is a cycle.
A stage takes the cycle's shared context, a point seed and a point count,
and returns how many of its checks failed.  It drives only public entry
points: ``susygordon.cli.main`` in-process, and the library names that the
acceptance tests import (plus ``load_solution`` and ``sample_points``, the
loaders the CLI itself uses).

A check fails when it did not pass, when its point was recorded singular,
when a residual or deviation exceeds ``TOL`` (or is missing or not finite),
or when its command exited non-zero or raised.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from susygordon import cli, darboux, reporting, solutions, ssge
from susygordon.errors import SingularBodyError

INPUTS = Path(__file__).resolve().parent / "inputs"
TOL = 1e-10
DEEP_X = (-0.03, 0.03)
DEEP_LAM = (0.5, 2.0)
DEEP_RANGES = ("--x-range=-0.03,0.03", "--lam-range=0.5,2")
DEEP_STEPS = 4


@dataclass(frozen=True)
class Stage:
    name: str
    run: Callable[[dict, int, int], int]
    #: checks per run: one per sample point unless fixed
    fixed_checks: int | None = None

    def checks(self, points: int) -> int:
        return points if self.fixed_checks is None else self.fixed_checks


# ---------------------------------------------------------------------------
# CLI stages: run in-process, parse the report, check every entry
# ---------------------------------------------------------------------------

def _numbers_ok(values) -> bool:
    # NaN compares false, so a non-finite residual fails as well
    return all(isinstance(v, (int, float)) and v <= TOL for v in values)


def check_ok(check: dict, gap_key: str) -> bool:
    """One report entry passed, was not singular, and its gaps are within TOL."""
    if check.get("passed") is not True or "singular" in check:
        return False
    if gap_key == "expected":
        items = check.get("expected")
        if not items:
            return False
        gaps = [item["max_deviation"] for item in items if "max_deviation" in item]
        return all(item.get("passed") is True for item in items) and _numbers_ok(gaps)
    return gap_key in check and _numbers_ok([check[gap_key]])


def run_cli(argv: list[str], expected: int, gap_key: str) -> int:
    """Run one command in-process; return the number of failed checks."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit:  # argparse rejected the arguments
            code = 2
    if code != 0:
        return expected
    report = json.loads(out.getvalue())
    if report.get("passed") is not True:
        return expected
    checks = report.get("checks", [])
    failed = sum(not check_ok(c, gap_key) for c in checks[:expected])
    return failed + max(0, expected - len(checks))


def _verify(kind: str, solution: str, *extra: str) -> Stage:
    def run(ctx: dict, seed: int, points: int) -> int:
        argv = ["verify", kind, "--solution", str(INPUTS / solution),
                "--points", str(points), "--seed", str(seed), *extra]
        return run_cli(argv, points, "residual")
    return Stage(f"verify-{kind}", run)


def _reproduce(target: str) -> Stage:
    if target == "constraints":
        return Stage("reproduce-constraints",
                     lambda ctx, seed, points: run_cli(
                         ["reproduce", "constraints"], 4, "max_deviation"),
                     fixed_checks=4)

    def run(ctx: dict, seed: int, points: int) -> int:
        argv = ["reproduce", target, "--points", str(points), "--seed", str(seed)]
        return run_cli(argv, points, "expected")
    return Stage(f"reproduce-{target}", run)


def _geometry(solution: str, beta: str) -> Stage:
    def run(ctx: dict, seed: int, points: int) -> int:
        argv = ["geometry", "--solution", str(INPUTS / solution), "--beta", beta,
                "--points", str(points), "--seed", str(seed)]
        return run_cli(argv, points, "skew_defect")
    return Stage("geometry", run)


# ---------------------------------------------------------------------------
# library stages: one chain loaded per cycle, swept by every residual
# ---------------------------------------------------------------------------

def _load_deep(ctx: dict, seed: int, points: int) -> int:
    ctx.clear()
    bundle = solutions.load_solution(INPUTS / "deep_chain.json")
    ctx["chain"] = bundle.chain
    ctx["closed"] = solutions.load_solution(INPUTS / "deep_closed_form.json").s
    ctx["points"] = reporting.sample_points(points, seed, bundle.gens,
                                            x_range=DEEP_X, lam_range=DEEP_LAM)
    return 0


def _sweep(ctx: dict, passes: Callable) -> int:
    failed = 0
    for pt in ctx["points"]:
        try:
            failed += not passes(pt)
        except SingularBodyError:
            failed += 1
    return failed


def _small(residual) -> bool:
    return ssge.residual_magnitude(residual) <= TOL


def _residual_stage(name: str, residual: Callable) -> Stage:
    def run(ctx: dict, seed: int, points: int) -> int:
        s = ctx["chain"].solution()
        return _sweep(ctx, lambda pt: _small(residual(s, pt)))
    return Stage(name, run)


def _lsp_all_levels(ctx: dict, seed: int, points: int) -> int:
    chain = ctx["chain"]

    def passes(pt) -> bool:
        for level, triples in enumerate(chain.waves):
            for wt in triples:
                fields = wt.fields() if level == 0 else darboux.lsp_normalized_triple(wt)
                if not _small(ssge.lsp_residual(fields, chain.solutions[level], wt.lam, pt)):
                    return False
        return True
    return _sweep(ctx, passes)


def _riccati(ctx: dict, seed: int, points: int) -> int:
    chain = ctx["chain"]
    wt = chain.waves[0][0]
    p, q = ssge.riccati_from_wavefunction(wt.fields())
    return _sweep(ctx, lambda pt: _small(
        ssge.riccati_residuals(p, q, chain.solutions[0], wt.lam, pt)))


def _closed_form_agrees(ctx: dict, seed: int, points: int) -> int:
    s, closed = ctx["chain"].solution(), ctx["closed"]
    return _sweep(ctx, lambda pt: darboux.values_match_mod_2pi(
        s.evaluate(pt), closed.evaluate(pt), TOL))


WORKLOADS: dict[str, list[Stage]] = {
    "deep-verify": [
        _verify(kind, "deep_chain.json", *DEEP_RANGES)
        for kind in ("ssge", "zcc-fermionic", "zcc-bosonic", "lsp")
    ],
    "deep-reuse": [
        Stage("load", _load_deep, fixed_checks=0),
        _residual_stage("ssge", lambda s, pt: ssge.ssge_residual(s, pt)),
        _residual_stage("zcc-fermionic", lambda s, pt: ssge.zcc_fermionic_residual(s, pt)),
        _residual_stage("zcc-bosonic", lambda s, pt: ssge.zcc_bosonic_residual(s, pt)),
        Stage("lsp", _lsp_all_levels),
        Stage("riccati", _riccati),
        Stage("closed-form", _closed_form_agrees),
    ],
    "soliton-surface": [
        _reproduce("example1"),
        _reproduce("example2"),
        _reproduce("constraints"),
        _geometry("one_soliton.json", "2,1"),
        _verify("riccati", "one_soliton.json"),
        _verify("lsp", "one_soliton.json"),
        _verify("backlund", "backlund_trivial.json"),
    ],
}


def load_inputs() -> None:
    """Read the input files and check that the deep ones share one seed list."""
    data = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in INPUTS.glob("*.json")}
    seeds = data["deep_seeds.json"]["seeds"]
    for name, mode in (("deep_chain.json", "chain"), ("deep_closed_form.json", "closed-form")):
        got = data[name]
        if (got["seeds"], got["mode"], got["iterations"]) != (seeds, mode, DEEP_STEPS):
            raise ValueError(f"{name} does not match deep_seeds.json")

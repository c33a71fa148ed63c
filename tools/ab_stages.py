"""Per-stage A/B timing of two checkouts in one process.

    python3 tools/ab_stages.py PARENT_ROOT CHANGE_ROOT --workload deep-reuse --cycles 12

Imports ``src/susygordon`` and ``perfbench/workloads.py`` of each checkout
under distinct module names, runs every stage once at one point on both
(as ``perfbench/run.py`` warms up), then runs the workload's stages
interleaved: within a cycle each stage runs on both checkouts with the same
point seed, and the checkout that goes first alternates from cycle to cycle.
It keeps every timed run and prints, per checkout, the fastest run of each
stage and the spread between the lower and upper quartiles of its runs
(``IQR``), then the ratio of the fastest runs; the ``sum`` row reads the
per-cycle sums of the stages.  A ratio that moves by less than the spreads
is noise, and below 10 cycles a warning says so.  After
the timed cycles, each stage runs once more per checkout, untimed, with that
checkout's ``GrassmannElement.__mul__`` and ``__neg__`` counted.  For one run
at ``POINTS`` points, three ``A / B`` columns give the operations that copy a
whole coefficient block: products of two elements, scalings of an element of
more than one monomial by a number or a jet, and negations of such an element.
A fourth counts the products of two elements of more than one monomial of
which one carries lambda (a block with two slots on the lambda jet axis):
each costs about three times the same product free of lambda.

On a shared host, stage times can swing by 15-20 % between processes;
interleaving in one process puts both sides under the same conditions.  The
numbers are per-stage evidence only: end-to-end claims come from
``perfbench/run.py``.  The tool reads ``perfbench/`` and writes nothing.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "susygordon"
POINTS = 20
#: fewer interleaved cycles than this leave stage ratios that swing by 20 %
STEADY_CYCLES = 10


def _exec(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_checkout(root: Path, name: str):
    """The workloads module of ``root``, bound to that checkout's package.

    The package is imported as ``name`` with every submodule.  While
    ``workloads.py`` loads, ``susygordon`` and its submodules are aliased to
    that copy, so its ``from susygordon import ...`` binds this checkout.
    """
    src = root / "src" / PACKAGE
    if not (src / "__init__.py").is_file() or not (root / "perfbench" / "workloads.py").is_file():
        sys.exit(f"error: {root} has no src/{PACKAGE} or perfbench/workloads.py")
    _exec(name, src / "__init__.py", src)
    for path in sorted(src.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{path.stem}")
    aliases = {PACKAGE + key[len(name):]: module for key, module in list(sys.modules.items())
               if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        return _exec(f"{name}_workloads", root / "perfbench" / "workloads.py")
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module


def run_stage(stage, ctx: dict, seed: int, points: int) -> tuple[float, int]:
    start = time.perf_counter()
    failed = stage.run(ctx, seed, points)
    return time.perf_counter() - start, failed


def count_operations(stage, ctx: dict, seed: int, package: str) -> tuple[int, int, int, int]:
    """Products of two elements, scalings of an element of more than one
    monomial by a number or a jet, negations of such an element, and products
    of two such elements of which one carries lambda, that one untimed run of
    ``stage`` makes, counted on the ``GrassmannElement`` of the checkout
    imported as ``package``."""
    cls = importlib.import_module(f"{package}.grassmann").GrassmannElement
    mul, neg, counts = cls.__mul__, cls.__neg__, [0, 0, 0, 0]

    def counted_mul(a, b):
        if isinstance(b, cls):
            counts[0] += 1
            counts[3] += (min(len(a.layout.keys), len(b.layout.keys)) > 1
                          and max(a.block.shape[-1], b.block.shape[-1]) > 1)
        elif len(a.layout.keys) > 1:
            counts[1] += 1
        return mul(a, b)

    def counted_neg(a):
        counts[2] += len(a.layout.keys) > 1
        return neg(a)

    cls.__mul__, cls.__neg__ = counted_mul, counted_neg
    try:
        run_stage(stage, ctx, seed, POINTS)
    finally:
        cls.__mul__, cls.__neg__ = mul, neg
    return tuple(counts)


def spread(runs) -> float:
    """The distance between the upper and lower quartiles of ``runs``."""
    lower, upper = np.percentile(runs, [25, 75])
    return float(upper - lower)


def interleave(sides: dict, workload: str, cycles: int, seed: int) -> dict:
    """Every timed run, the fastest and the quartile spread, failed checks and
    block operations per side and stage."""
    stages = {label: wl.WORKLOADS[workload] for label, wl in sides.items()}
    names = [stage.name for stage in next(iter(stages.values()))]
    for label, wl in sides.items():
        if [stage.name for stage in stages[label]] != names:
            sys.exit(f"error: the checkouts define different {workload} stages")
        wl.load_inputs()
    ctx = {label: {} for label in sides}
    for label in sides:
        for stage in stages[label]:
            run_stage(stage, ctx[label], seed, 1)
    runs = {label: [[] for _ in names] for label in sides}
    failed = {label: 0 for label in sides}
    rng = random.Random(seed)
    labels = list(sides)
    for cycle in range(cycles):
        order = labels if cycle % 2 == 0 else labels[::-1]
        for i in range(len(names)):
            point_seed = rng.randrange(2 ** 31)
            for label in order:
                elapsed, bad = run_stage(stages[label][i], ctx[label], point_seed, POINTS)
                runs[label][i].append(elapsed)
                failed[label] += bad
    operations = {label: [count_operations(stage, ctx[label], seed, wl.cli.__package__)
                          for stage in stages[label]] for label, wl in sides.items()}
    return {"names": names, "runs": runs, "failed": failed, "operations": operations,
            "best": {label: [min(r) for r in runs[label]] for label in sides},
            "spread": {label: [spread(r) for r in runs[label]] for label in sides}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout (A)")
    parser.add_argument("change", type=Path, help="root of the second checkout (B)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cycles", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")
    sides = {"A": load_checkout(args.parent.resolve(), "ab_parent"),
             "B": load_checkout(args.change.resolve(), "ab_change")}
    for label, wl in sides.items():
        if args.workload not in wl.WORKLOADS:
            sys.exit(f"error: checkout {label} has no workload {args.workload!r}")
    if args.cycles < STEADY_CYCLES:
        print(f"warning: {args.cycles} cycles; stage ratios below {STEADY_CYCLES} cycles "
              "can swing by 20 % or more", file=sys.stderr)
    result = interleave(sides, args.workload, args.cycles, args.seed)
    print(f"{args.workload}: fastest of {args.cycles} interleaved cycles and the "
          "quartile spread of the runs, ms per stage run")
    kinds = ("products", "scalings", "negations", "lambda-multi")
    print(f"{'stage':24s} {'A':>10s} {'A IQR':>8s} {'B':>10s} {'B IQR':>8s} {'B/A':>7s}"
          + "".join(f" {k:>13s}" for k in kinds))
    runs, operations = result["runs"], result["operations"]

    def row(name, timed, ops_a, ops_b):
        a, b = (min(timed[label]) for label in ("A", "B"))
        cells = "".join(f" {t * 1e3:10.2f} {spread(timed[label]) * 1e3:8.2f}"
                        for label, t in (("A", a), ("B", b)))
        print(f"{name:24s}{cells} {b / a:7.3f}"
              + "".join(f" {f'{x} / {y}':>13s}" for x, y in zip(ops_a, ops_b)))

    for i, name in enumerate(result["names"]):
        row(name, {label: runs[label][i] for label in runs}, operations["A"][i], operations["B"][i])
    row("sum", {label: [sum(cycle) for cycle in zip(*runs[label])] for label in runs},
        *(map(sum, zip(*operations[label])) for label in ("A", "B")))
    print(f"failed checks: A {result['failed']['A']}, B {result['failed']['B']}")
    return 0 if not any(result["failed"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-stage A/B timing of two checkouts in one process.

    python3 tools/ab_stages.py PARENT_ROOT CHANGE_ROOT --workload deep-reuse --cycles 12

Imports ``src/susygordon`` and ``perfbench/workloads.py`` of each checkout
under distinct module names, runs every stage once at one point on both
(as ``perfbench/run.py`` warms up), then runs the workload's stages
interleaved: within a cycle each stage runs on both checkouts with the same
point seed, and the checkout that goes first alternates from cycle to cycle.
It prints the fastest run of each stage per checkout and their ratio.

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

PACKAGE = "susygordon"
POINTS = 20


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


def interleave(sides: dict, workload: str, cycles: int, seed: int) -> dict:
    """Fastest time and failed checks per side and stage."""
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
    best = {label: [float("inf")] * len(names) for label in sides}
    failed = {label: 0 for label in sides}
    rng = random.Random(seed)
    labels = list(sides)
    for cycle in range(cycles):
        order = labels if cycle % 2 == 0 else labels[::-1]
        for i in range(len(names)):
            point_seed = rng.randrange(2 ** 31)
            for label in order:
                elapsed, bad = run_stage(stages[label][i], ctx[label], point_seed, POINTS)
                best[label][i] = min(best[label][i], elapsed)
                failed[label] += bad
    return {"names": names, "best": best, "failed": failed}


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
    result = interleave(sides, args.workload, args.cycles, args.seed)
    print(f"{args.workload}: fastest of {args.cycles} interleaved cycles, ms per stage run")
    print(f"{'stage':24s} {'A':>10s} {'B':>10s} {'B/A':>7s}")
    for i, name in enumerate(result["names"]):
        a, b = result["best"]["A"][i], result["best"]["B"][i]
        print(f"{name:24s} {a * 1e3:10.2f} {b * 1e3:10.2f} {b / a:7.3f}")
    total_a, total_b = sum(result["best"]["A"]), sum(result["best"]["B"])
    print(f"{'sum':24s} {total_a * 1e3:10.2f} {total_b * 1e3:10.2f} {total_b / total_a:7.3f}")
    print(f"failed checks: A {result['failed']['A']}, B {result['failed']['B']}")
    return 0 if not any(result["failed"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

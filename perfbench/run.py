"""Benchmark of the susygordon verifier, run from the root of a checkout.

    python3 perfbench/run.py --workload deep-verify --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the checkout, sets up (imports,
loads the inputs, warms up every stage once at one point), then runs the
workload's stages in order, cycle after cycle, until ``--seconds`` have
passed and every stage has run at least once.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``checks_per_s``: checks per second of a cycle whose stage times are the
  fastest timed run of each stage (on a shared host slow periods can last
  tens of seconds and move a per-stage median; the fastest run is steadier);
* ``setup_s``: the median, over five fresh interpreters, of the time from
  starting the interpreter to the end of set-up;
* ``peak_rss_mb``: peak resident memory of the process running the load;
* ``pass_ratio``: share of the checks attempted that passed.

``--trace 1`` runs untraced cycles for half the time and traced cycles for
the other half, reports the per-layer metrics of ``tracer.UNITS`` and
writes the traced spans to ``.bench_trace/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POINTS = 20
SETUP_PROBES = 5
READY = "ready"
TRACE_DIR = ROOT / ".bench_trace"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print a ready line and exit (used to time set-up)")
    return parser.parse_args(argv)


def import_package():
    """Import the workloads from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "susygordon" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {src}")
    sys.path.insert(0, str(src))
    import susygordon
    import workloads

    if Path(susygordon.__file__).resolve().parent != src / "susygordon":
        sys.exit(f"error: imported susygordon from {susygordon.__file__}, not {src}")
    return workloads


def run_stage(stage, ctx: dict, seed: int, points: int) -> tuple[int, int]:
    """Run one stage; an exception fails every check the stage owns."""
    expected = stage.checks(points)
    try:
        failed = stage.run(ctx, seed, points)
    except Exception:
        traceback.print_exc()
        failed = expected
    return expected, failed


def set_up(workload: str, seed: int):
    """Import, load inputs, and run every stage once at one point."""
    workloads = import_package()
    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workloads.load_inputs()
    stages = workloads.WORKLOADS[workload]
    ctx: dict = {}
    warm_failed = 0
    for stage in stages:
        warm_failed += run_stage(stage, ctx, seed, 1)[1]
    return stages, warm_failed


def time_setup(args) -> float:
    """Median time from a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait()
        if line != READY or code != 0:
            sys.exit(f"error: set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)


class Load:
    """Runs stages in cycle order and keeps per-stage timings and check counts."""

    def __init__(self, stages, seed: int) -> None:
        self.stages = stages
        self.rng = random.Random(seed)   # point seeds: same workload seed, same inputs
        self.ctx: dict = {}
        self.times: dict[str, list[float]] = {s.name: [] for s in stages}
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, whole_cycles: bool) -> int:
        """Run until ``seconds`` passed and each stage ran; return cycles begun."""
        for times in self.times.values():
            times.clear()
        start = time.perf_counter()
        cycles = 0
        while True:
            cycles += 1
            for stage in self.stages:
                point_seed = self.rng.randrange(2 ** 31)
                t0 = time.perf_counter()
                attempted, failed = run_stage(stage, self.ctx, point_seed, POINTS)
                self.times[stage.name].append(time.perf_counter() - t0)
                self.attempted += attempted
                self.failed += failed
                done = time.perf_counter() - start >= seconds
                if done and not whole_cycles and all(self.times.values()):
                    return cycles
            if done:
                return cycles

    def checks_per_s(self) -> float:
        checks = sum(stage.checks(POINTS) for stage in self.stages)
        return checks / sum(min(t) for t in self.times.values())


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, as inherited from the environment."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(handle, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(args, load: Load) -> dict:
    setup_s = time_setup(args)
    load.run(args.seconds, whole_cycles=False)
    passed = load.attempted - load.failed
    return {
        "checks_per_s": (load.checks_per_s(), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (passed / load.attempted, "ratio"),
    }


def per_layer(args, load: Load) -> dict:
    """Untraced whole cycles, then traced ones; spans go to ``TRACE_DIR``."""
    from tracer import UNITS, Tracer

    load.run(args.seconds / 2, whole_cycles=True)
    untraced = load.checks_per_s()
    tracer = Tracer()
    tracer.install()
    try:
        cycles = load.run(args.seconds / 2, whole_cycles=True)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"trace: entry points not found: {', '.join(tracer.missing)}", file=sys.stderr)
    TRACE_DIR.mkdir(exist_ok=True)
    spans = {"workload": args.workload, "seed": args.seed, "cycles": cycles,
             "fields": ["id", "parent", "name", "start_s", "end_s"], "spans": tracer.spans}
    (TRACE_DIR / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    values = tracer.metrics(cycles, load.checks_per_s() / untraced)
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    stages, warm_failed = set_up(args.workload, args.seed)
    if args.setup_only:
        print(READY, flush=True)
        return 0
    load = Load(stages, args.seed)
    metrics = per_layer(args, load) if args.trace else end_to_end(args, load)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}),
          file=sys.stderr)
    result = {
        "correct": load.failed == 0 and warm_failed == 0,
        "attempted": load.attempted,
        "failed": load.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cost and accuracy of the Darboux chain s[n] as the depth n grows.

    python3 tools/depth_probe.py [--depths 4 8]

Builds an n-seed chain with spectral constants ``lambda_j = 0.12 * 3**j``
and the ``c``, ``b`` and ``a`` of the deep test seeds, and evaluates ``s[n]``
on one batch of 20 points with ``|x+-| <= 0.03`` and lambda in ``[0.5, 2]``.
For each depth it prints one JSON line: the monomials of ``s[n]``, the time
of a cold evaluation, the tracemalloc peak of another cold evaluation, the
ssge residual, the largest coefficient of ``s[n]`` and their ratio.

Cold means an empty seed-wavefunction cache, a new chain and a new batch:
memo keys compare by value, so an equal batch that is still alive would read
the values of the last one.  The tool imports ``src/susygordon`` of the
checkout it sits in and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from susygordon.darboux import (  # noqa: E402
    SeedParams, darboux_chain, generator_set, seed_wavefunction)
from susygordon.ssge import residual_magnitude, ssge_residual  # noqa: E402
from susygordon.superfield import SuperspacePoint  # noqa: E402

X_HALF_WIDTH = 0.03
POINTS = 20


def seeds(n: int) -> list[SeedParams]:
    """The deep test seeds' ``c``, ``b`` and ``a``, with ``lambda_j = 0.12 * 3**j``."""
    return [SeedParams(lam=0.12 * 3 ** j, c=5.0 * (1 + 0.05j * (-1) ** j),
                       b=0.03 * (1 + 0.3j) * (-1) ** j, a=f"a{j}") for j in range(n)]


def grid(n: int) -> SuperspacePoint:
    """A new batch of ``POINTS`` points over the generators of ``n`` seeds."""
    rng = np.random.default_rng(42)
    gens = generator_set(seeds(n))
    return SuperspacePoint.batch([
        SuperspacePoint(complex(rng.uniform(-X_HALF_WIDTH, X_HALF_WIDTH)),
                        complex(rng.uniform(-X_HALF_WIDTH, X_HALF_WIDTH)),
                        complex(rng.uniform(0.5, 2.0)), gens=gens) for _ in range(POINTS)])


def cold(n: int):
    """A new ``s[n]``, a new batch, ``s[n]`` there, and the seconds that took."""
    seed_wavefunction.cache_clear()
    s = darboux_chain(0, seeds(n), n).solution()
    batch = grid(n)
    start = time.perf_counter()
    value = s.evaluate(batch)
    return s, batch, value, time.perf_counter() - start


def probe(n: int) -> dict:
    """One depth's line; the traced run starts after the timed one is freed."""
    s, batch, value, elapsed = cold(n)
    monomials = len(value.layout.keys)
    residual = float(np.max(residual_magnitude(ssge_residual(s, batch))))
    size = float(np.max(value.max_abs()))
    del s, batch, value
    tracemalloc.start()
    cold(n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"n": n, "monomials": monomials, "evaluate_s": round(elapsed, 4),
            "peak_mb": round(peak / 2 ** 20, 2), "ssge_residual": residual, "max_abs": size,
            "ratio": residual / size}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depths", nargs=2, type=int, default=(4, 8), metavar=("LO", "HI"))
    args = parser.parse_args(argv)
    lo, hi = args.depths
    if not 1 <= lo <= hi:
        parser.error("need 1 <= LO <= HI")
    for n in range(lo, hi + 1):
        print(json.dumps(probe(n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

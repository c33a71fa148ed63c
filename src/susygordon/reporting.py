"""Deterministic point sampling and JSON report assembly.

All randomness flows from one explicit seed; a report is a pure function of
its configuration, so identical configurations produce byte-identical files.
Reports embed the pinned sign-convention fingerprint so downstream
comparisons can detect convention drift between versions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .darboux import CONVENTION_FINGERPRINT
from .errors import ConfigError, SingularBodyError
from .grassmann import GeneratorSet
from .jets import DEFAULT_SPEC, JetSpec, PerPoint
from .superfield import PointBatch, SuperspacePoint

#: most points a sweep evaluates together as one :class:`PointBatch` (larger is unmeasured)
CHUNK = 20


def parse_jet_spec(text: str | None) -> JetSpec:
    if not text:
        return DEFAULT_SPEC
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad jet spec {text!r}; expected e.g. '2,2,1'") from None
    if len(orders) != 3:
        raise ConfigError(f"bad jet spec {text!r}; expected three comma-separated orders")
    return JetSpec(orders)


def sample_points(count: int, seed: int, gens: GeneratorSet,
                  spec: JetSpec = DEFAULT_SPEC,
                  x_range: tuple[float, float] = (-1.0, 1.0),
                  lam_range: tuple[float, float] = (0.5, 2.0),
                  complex_parts: bool = False) -> list[SuperspacePoint]:
    """Deterministic sample points: x+- in x_range, lambda in lam_range.

    The default lambda range stays off zero and the negative real axis so the
    principal square root is safe; complex offsets are opt-in and keep the
    real part of lambda in range.
    """
    if count < 1:
        raise ConfigError("point count must be at least 1")
    if lam_range[0] <= 0:
        raise ConfigError("lambda range must stay positive")
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        xp = complex(rng.uniform(*x_range))
        xm = complex(rng.uniform(*x_range))
        lam = complex(rng.uniform(*lam_range))
        if complex_parts:
            xp += 0.3j * rng.uniform(-1, 1)
            xm += 0.3j * rng.uniform(-1, 1)
            lam += 0.2j * rng.uniform(-1, 1)
        pts.append(SuperspacePoint(xp, xm, lam, spec=spec, gens=gens))
    return pts


def _point_json(pt: SuperspacePoint) -> dict:
    return {
        "x_plus": [complex(pt.x_plus).real, complex(pt.x_plus).imag],
        "x_minus": [complex(pt.x_minus).real, complex(pt.x_minus).imag],
        "lambda": [complex(pt.lam).real, complex(pt.lam).imag],
    }


def _at(value, i: int):
    """Point ``i``'s part of a check result, in plain JSON types.

    Arrays and :class:`PerPoint` values hold one entry per point of a batch;
    anything else is the same at every point.
    """
    if isinstance(value, dict):
        return {k: _at(v, i) for k, v in value.items()}
    if isinstance(value, PerPoint):
        return value[i]
    if isinstance(value, list):
        return [_at(v, i) for v in value]
    if isinstance(value, np.ndarray):
        return value[i].item()
    return value.item() if isinstance(value, np.generic) else value


def _chunk_results(chunk: Sequence[SuperspacePoint], check: Callable) -> list[dict]:
    """check() on the chunk as one batch; point by point if the batch is singular."""
    if len(chunk) > 1:
        try:
            result = check(PointBatch.of(chunk))
            return [_at(result, i) for i in range(len(chunk))]
        except SingularBodyError:
            pass
    results = []
    for pt in chunk:
        try:
            results.append(_at(check(pt), 0))
        except SingularBodyError as err:
            results.append({"singular": str(err), "passed": True})
    return results


def sweep(points: Sequence[SuperspacePoint], name: str,
          check: Callable[[SuperspacePoint | PointBatch], dict]) -> list[dict]:
    """One report entry per point: ``name.format(index)``, the point, check(pt).

    Points are checked ``CHUNK`` at a time as one :class:`PointBatch`; the
    check's per-point values (arrays, :class:`PerPoint`) are split into the
    entries.  A point where the solution is singular (a Darboux denominator
    body vanishes there) is outside its domain, not a defect: a batch that
    meets one is re-run point by point, the singular entry records the reason
    and passes, and only ``make_report`` fails a sweep whose points were all
    singular.  Floating-point overflow and invalid operations raise.
    """
    checks = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for start in range(0, len(points), CHUNK):
            chunk = points[start:start + CHUNK]
            for i, (pt, result) in enumerate(zip(chunk, _chunk_results(chunk, check)), start):
                checks.append({"name": name.format(i), "point": _point_json(pt), **result})
    return checks


def make_report(command: str, config: dict, checks: list[dict]) -> dict:
    """A report passes when every check passed and at least one was not singular."""
    passed = (all(c.get("passed", False) for c in checks)
              and any("singular" not in c for c in checks))
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "fingerprint": CONVENTION_FINGERPRINT,
        "checks": checks,
        "passed": passed,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, out: str | Path | None) -> str:
    text = render_report(report)
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    return text

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
from .jets import DEFAULT_SPEC, JetSpec
from .superfield import SuperspacePoint


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


def sweep(points: Sequence[SuperspacePoint], name: str,
          check: Callable[[SuperspacePoint], dict]) -> list[dict]:
    """One report entry per point: ``name.format(index)``, the point, check(pt).

    A point where the solution is singular (a Darboux denominator body
    vanishes there) is outside its domain, not a defect: its entry records
    the reason and passes, and only ``make_report`` fails a sweep whose
    points were all singular.
    """
    checks = []
    for i, pt in enumerate(points):
        entry = {"name": name.format(i), "point": _point_json(pt)}
        try:
            entry.update(check(pt))
        except SingularBodyError as err:
            entry["singular"] = str(err)
            entry["passed"] = True
        checks.append(entry)
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

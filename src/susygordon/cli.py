"""Command-line verification harness.

Commands:

    verify {ssge, zcc-fermionic, zcc-bosonic, lsp, riccati, backlund}
        --solution FILE [--points N --seed S --tol T --jet-spec 2,2,1
        --x-range lo,hi --lam-range lo,hi --complex --out FILE]
    solve darboux --seeds FILE [--iterations N --mode chain|closed-form
        --points N --seed S --out FILE]
    geometry --solution FILE [--beta c,k --points N --seed S --tol T
        --expect example1|example2 --out FILE]
    reproduce {example1, example2, constraints} [--points N --seed S --tol T
        --out FILE]

Every command writes a JSON report (stdout by default, ``--out`` for a file)
that is byte-identical across runs with the same flags, and exits 0 exactly
when every check passed, 1 when one failed and 2 on malformed input.
Singular sample points (a Darboux denominator body vanishing at that point)
are recorded per point and do not abort a sweep, but a sweep in which every
point was singular checked nothing and fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys

from .darboux import lsp_normalized_triple
from .errors import ConfigError
from .geometry import BetaFunction, surface_data
from .grassmann import element_to_json
from .reporting import _at, make_report, parse_jet_spec, sample_points, sweep, write_report
from .solutions import SolutionBundle, build_solution, json_object, load_solution, seed_json
from .ssge import (
    build_constraint_matrices,
    lsp_residual,
    residual_magnitude,
    riccati_from_wavefunction,
    riccati_residuals,
    ssge_residual,
    zcc_bosonic_residual,
    zcc_fermionic_residual,
    backlund_residuals,
)
from .worked_examples import (
    example1_bundle,
    example1_checks,
    example2_bundle,
    example2_checks,
    mean_body_special_case,
)


def _parse_range(text: str, what: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad {what} {text!r}; expected 'lo,hi'") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{what} bounds must be finite, got {text!r}")
    if hi <= lo:
        raise ConfigError(f"{what} must satisfy lo < hi")
    return lo, hi


def _tol(args) -> float:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol must be a finite non-negative number, got {args.tol!r}")
    return args.tol


def _sample(args, gens, complex_parts: bool = False) -> tuple[list, dict]:
    """Points from the common sampling flags, and their echo for the config."""
    spec = parse_jet_spec(args.jet_spec)
    x_range = _parse_range(args.x_range, "x range")
    lam_range = _parse_range(args.lam_range, "lambda range")
    points = sample_points(args.points, args.seed, gens, spec, x_range=x_range,
                           lam_range=lam_range, complex_parts=complex_parts)
    echo = {"points": args.points, "seed": args.seed, "jet_spec": list(spec.orders),
            "x_range": list(x_range), "lam_range": list(lam_range)}
    return points, echo


def _expected(diffs: list[dict]) -> dict:
    # per point on a batch: "passed" values may be arrays
    return {"expected": diffs,
            "passed": functools.reduce(operator.and_, (d["passed"] for d in diffs), True)}


def _residual_fn(kind: str, bundle: SolutionBundle):
    if kind == "ssge":
        return lambda pt: ssge_residual(bundle.s, pt)
    if kind == "zcc-fermionic":
        return lambda pt: zcc_fermionic_residual(bundle.s, pt)
    if kind == "zcc-bosonic":
        return lambda pt: zcc_bosonic_residual(bundle.s, pt)
    if kind == "lsp":
        if bundle.chain is None:
            raise ConfigError("lsp verification needs a darboux solution (it has wavefunctions)")
        chain = bundle.chain

        def all_levels(pt):
            out = []
            for level, triples in enumerate(chain.waves):
                s_level = chain.solutions[level]
                for wt in triples:
                    fields = wt.fields() if level == 0 else lsp_normalized_triple(wt)
                    out.append(lsp_residual(fields, s_level, wt.lam, pt))
            return out

        return all_levels
    if kind == "riccati":
        if bundle.chain is None:
            raise ConfigError("riccati verification needs a darboux solution")
        wt = bundle.chain.waves[0][0]
        p, q = riccati_from_wavefunction(wt.fields())
        s0 = bundle.chain.solutions[0]
        return lambda pt: riccati_residuals(p, q, s0, wt.lam, pt)
    if kind == "backlund":
        if bundle.partner is None or bundle.odd_function is None:
            raise ConfigError("backlund verification needs a backlund_trivial solution")
        return lambda pt: backlund_residuals(
            bundle.s, bundle.partner, bundle.odd_function, pt.lam, pt)
    raise ConfigError(f"unknown residual kind {kind!r}")


def cmd_verify(args) -> dict:
    tol = _tol(args)
    bundle = load_solution(args.solution)
    points, echo = _sample(args, bundle.gens, args.complex_parts)
    residual = _residual_fn(args.kind, bundle)

    def check(pt) -> dict:
        mag = residual_magnitude(residual(pt))
        return {"residual": mag, "passed": mag <= tol}

    config = {"kind": args.kind, "solution": bundle.spec_echo, "tol": tol,
              "complex": args.complex_parts, **echo}
    return make_report("verify", config, sweep(points, args.kind + "[{}]", check))


def cmd_solve(args) -> dict:
    _tol(args)  # no check reads it, but a bad value is still malformed input
    with open(args.seeds, "r", encoding="utf-8") as handle:
        data = json_object(json.load(handle), "seeds file")
    spec = {"kind": "darboux", "k": data.get("k", 0), "seeds": data.get("seeds"),
            "mode": args.mode}
    if args.iterations is not None:
        spec["iterations"] = args.iterations
    bundle = build_solution(spec)
    n = bundle.chain.order
    points, echo = _sample(args, bundle.gens)
    checks = sweep(points, f"s[{n}] at point {{}}",
                   lambda pt: {"value": element_to_json(bundle.s.evaluate(pt)), "passed": True})
    config = {"seeds_file": str(args.seeds), "k": bundle.k, "iterations": n, "mode": args.mode,
              **echo}
    report = make_report("solve", config, checks)
    report["ledger"] = bundle.chain.ledger
    report["seeds"] = [seed_json(p) for p in bundle.seeds]
    return report


def _parse_beta(text: str) -> BetaFunction:
    try:
        coeff, power = text.split(",")
        return BetaFunction(complex(float(coeff)), int(power))
    except (ValueError, TypeError):
        raise ConfigError(f"bad beta {text!r}; expected 'coefficient,power'") from None


def cmd_geometry(args) -> dict:
    tol = _tol(args)
    bundle = load_solution(args.solution)
    if args.expect is not None and not bundle.seeds:
        raise ConfigError(
            f"--expect {args.expect} needs a Darboux solution; it reads the first seed")
    beta = _parse_beta(args.beta)
    points, echo = _sample(args, bundle.gens)
    expected = {"example1": example1_checks, "example2": example2_checks}.get(args.expect)

    def check(pt) -> dict:
        if expected is None:
            sd = surface_data(bundle.s, pt, beta)
            skew = (sd.b21 + sd.b12).max_abs()
            entry = {"skew_defect": skew, "passed": skew <= tol}
        else:
            sd, diffs = expected(bundle, pt, tol, beta)
            entry = _expected(diffs)
        entry["surface"] = sd.to_json()
        return entry

    config = {"solution": bundle.spec_echo, "beta": args.beta, "tol": tol,
              "expect": args.expect, **echo}
    return make_report("geometry", config, sweep(points, "surface[{}]", check))


def cmd_reproduce(args) -> dict:
    tol = _tol(args)
    config = {"target": args.target, "points": args.points, "seed": args.seed, "tol": tol}
    if args.target == "constraints":
        j, k, m, n = build_constraint_matrices()
        half_m = m.scale(0.5)
        checks = [
            {"name": "i J = [M, J]",
             "max_deviation": (m.bracket(j) - j.scale(1j)).max_abs()},
            {"name": "i K = [K, M]",
             "max_deviation": (k.bracket(m) - k.scale(1j)).max_abs()},
            {"name": "{J, N} = -{K, N}",
             "max_deviation": (j.bracket(n, "anticommutator")
                               + k.bracket(n, "anticommutator")).max_abs()},
            {"name": "M/2 = {K, N}",
             "max_deviation": (k.bracket(n, "anticommutator") - half_m).max_abs()},
        ]
        for c in checks:
            c["passed"] = c["max_deviation"] <= tol
        return make_report("reproduce", config, [_at(c, 0) for c in checks])

    if args.target == "example1":
        bundle, expected, x_range = example1_bundle(), example1_checks, (-1.0, 1.0)
    elif args.target == "example2":
        bundle, expected, x_range = example2_bundle(), example2_checks, (-0.45, 0.45)
    else:
        raise ConfigError(f"unknown reproduce target {args.target!r}")
    points = sample_points(args.points, args.seed, bundle.gens, x_range=x_range)
    checks = sweep(points, args.target + "[{}]",
                   lambda pt: _expected(expected(bundle, pt, tol)[1]))
    report = make_report("reproduce", config, checks)
    report["solution"] = bundle.spec_echo
    if args.target == "example2":
        # informational: the special-case mean-curvature body, not gating
        report["mean_body_special_case"] = mean_body_special_case()
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="susygordon",
        description="residual verification for the supersymmetric sine-Gordon toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default=1e-10):
        p.add_argument("--points", type=int, default=20)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--jet-spec", default=None, help="orders 'k+,k-,klam' (default 2,2,1)")
        p.add_argument("--x-range", default="-1,1")
        p.add_argument("--lam-range", default="0.5,2")
        p.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="sweep one residual kind over sample points")
    pv.add_argument("kind", choices=["ssge", "zcc-fermionic", "zcc-bosonic",
                                     "lsp", "riccati", "backlund"])
    pv.add_argument("--solution", required=True)
    pv.add_argument("--complex", dest="complex_parts", action="store_true")
    common(pv)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("solve", help="build a multisoliton solution and sample it")
    ps.add_argument("what", choices=["darboux"])
    ps.add_argument("--seeds", required=True)
    ps.add_argument("--iterations", type=int, default=None)
    ps.add_argument("--mode", choices=["chain", "closed-form"], default="chain")
    common(ps)
    ps.set_defaults(fn=cmd_solve)

    pg = sub.add_parser("geometry", help="surface data induced by a solution")
    pg.add_argument("--solution", required=True)
    pg.add_argument("--beta", default="2,1")
    pg.add_argument("--expect", choices=["example1", "example2"], default=None)
    common(pg)
    pg.set_defaults(fn=cmd_geometry)

    pr = sub.add_parser("reproduce", help="re-derive the worked reference results")
    pr.add_argument("target", choices=["example1", "example2", "constraints"])
    pr.add_argument("--points", type=int, default=10)
    pr.add_argument("--seed", type=int, default=7)
    pr.add_argument("--tol", type=float, default=1e-10)
    pr.add_argument("--out", default=None)
    pr.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
        text = write_report(report, args.out)
    except (ValueError, OSError, KeyError, OverflowError, FloatingPointError) as err:
        # ConfigError, JSONDecodeError and JetBudgetError are ValueErrors;
        # float overflow (cmath per point, numpy on a batch) is an input out of range
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"{'PASS' if report['passed'] else 'FAIL'}: report written to {args.out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

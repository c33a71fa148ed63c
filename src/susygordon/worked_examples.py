"""The two reference one-soliton surface computations, with expected values.

Example 1 keeps only the fermionic seed constant (b0 = 0): the metric is
constant, the second fundamental form is theta-linear in the fermionic
constant, the Gaussian curvature is 1 and the metric discriminant vanishes,
so the mean curvature is undefined.

Example 2 keeps only the bosonic seed constant (a0 absent): the off-diagonal
coefficients close in terms of the solution itself, g12 = -i cos(s), b12 =
sin(s), both discriminants equal sin^2(s), K = 1 and H = -i cot(s).

For b0 = 2 sqrt(lambda0) c0 the body of H is reported here as computed,
-cosh(eta0); the published special-case value sinh(eta0) contradicts
H = -i cot(s) evaluated at that parameter choice (see SIGN_CONVENTIONS.md).
"""

from __future__ import annotations

import cmath

from .darboux import SeedParams, darboux_chain, eta_jet, generator_set
from .geometry import BetaFunction, SurfaceData, surface_data
from .grassmann import GrassmannElement, analytic_lift, ginv
from .jets import pointwise, scalar_value
from .solutions import SolutionBundle
from .superfield import SuperspacePoint

DEFAULT_BETA = BetaFunction(2.0, 1)


def example1_bundle(lam0: complex = 1.25, c0: complex = 1.0, k: int = 0) -> SolutionBundle:
    seeds = [SeedParams(lam=lam0, c=c0, b=0.0, a="a0")]
    chain = darboux_chain(k, seeds, 1)
    return SolutionBundle("darboux", chain.solution(), generator_set(seeds),
                          k=k, seeds=seeds, chain=chain,
                          spec_echo={"kind": "darboux1", "k": k, "lambda0": [complex(lam0).real, complex(lam0).imag],
                                     "a0": "a0", "b0": [0.0, 0.0], "c0": [complex(c0).real, complex(c0).imag]})


def example2_bundle(lam0: complex = 0.9, c0: complex = 1.2, b0: complex = 0.5,
                    k: int = 0) -> SolutionBundle:
    seeds = [SeedParams(lam=lam0, c=c0, b=b0, a=None)]
    chain = darboux_chain(k, seeds, 1)
    return SolutionBundle("darboux", chain.solution(), generator_set(seeds),
                          k=k, seeds=seeds, chain=chain,
                          spec_echo={"kind": "darboux1", "k": k, "lambda0": [complex(lam0).real, complex(lam0).imag],
                                     "a0": None, "b0": [complex(b0).real, complex(b0).imag],
                                     "c0": [complex(c0).real, complex(c0).imag]})


def _diff(name: str, got: GrassmannElement | None, want: GrassmannElement,
          tol: float) -> dict:
    if got is None:
        return {"name": name, "passed": False, "note": "undefined at this point"}
    gap = (got - want).max_abs()
    return {"name": name, "max_deviation": gap, "passed": gap <= tol}


def example1_checks(bundle: SolutionBundle, pt: SuperspacePoint, tol: float,
                    beta: BetaFunction = DEFAULT_BETA) -> tuple[SurfaceData, list[dict]]:
    """Compare the computed surface data against the closed-form table."""
    seed = bundle.seeds[0]
    sd = surface_data(bundle.s, pt, beta)
    lam_jet = pt.lam_jet()
    sq0 = cmath.sqrt(seed.lam)
    e_eta = pt.scalar(eta_jet(pt, seed.lam).analytic("exp"))
    a0 = pt.odd_generator(seed.a)
    expected_b12 = ((a0 * pt.theta("+")) * (-1.0 / sq0)
                    + (a0 * pt.theta("-")) * (2 * sq0)) * e_eta * (1.0 / seed.c)
    one = GrassmannElement.from_scalar(pt.gens, 1.0 + 0.0j)
    zero = GrassmannElement.zero(pt.gens)
    checks = [
        _diff("g11", sd.metric.g11, pt.scalar((2 * lam_jet).reciprocal() * -1j), tol),
        _diff("g12", sd.metric.g12, pt.scalar(pt.const_jet(-1j)), tol),
        _diff("g22", sd.metric.g22, pt.scalar(lam_jet * 2j), tol),
        _diff("b11", sd.b11, zero, tol),
        _diff("b22", sd.b22, zero, tol),
        _diff("b12", sd.b12, expected_b12, tol),
        _diff("metric_discriminant", sd.curvature.metric_discriminant, zero, tol),
        _diff("gaussian", sd.curvature.gaussian, one, tol),
        {"name": "mean_undefined", "passed": sd.curvature.mean is None,
         "note": sd.curvature.mean_note},
    ]
    return sd, checks


def example2_checks(bundle: SolutionBundle, pt: SuperspacePoint, tol: float,
                    beta: BetaFunction = DEFAULT_BETA) -> tuple[SurfaceData, list[dict]]:
    seed = bundle.seeds[0]
    sd = surface_data(bundle.s, pt, beta)
    sv = bundle.s.evaluate(pt)
    sin_s = analytic_lift("sin", sv)
    cos_s = analytic_lift("cos", sv)
    sin_sq = sin_s * sin_s
    lam_jet = pt.lam_jet()
    one = GrassmannElement.from_scalar(pt.gens, 1.0 + 0.0j)

    # closed form of the cosine body in the seed constants
    w = (seed.b ** 2 / (4 * seed.lam))
    e2 = (eta_jet(pt, seed.lam) * 2).analytic("exp").value
    cos_body = pointwise(lambda e: (seed.c ** 2 + w * e) / (seed.c ** 2 - w * e), e2)
    body_gap = abs(scalar_value(cos_s.body()) - cos_body)

    checks = [
        _diff("g11", sd.metric.g11, pt.scalar((2 * lam_jet).reciprocal() * -1j), tol),
        _diff("g22", sd.metric.g22, pt.scalar(lam_jet * 2j), tol),
        _diff("g12", sd.metric.g12, cos_s * -1j, tol),
        _diff("b11", sd.b11, GrassmannElement.zero(pt.gens), tol),
        _diff("b22", sd.b22, GrassmannElement.zero(pt.gens), tol),
        _diff("b12", sd.b12, sin_s, tol),
        _diff("metric_discriminant", sd.curvature.metric_discriminant, sin_sq, tol),
        _diff("second_discriminant", sd.curvature.second_discriminant, sin_sq, tol),
        _diff("gaussian", sd.curvature.gaussian, one, tol),
        _diff("mean", sd.curvature.mean, cos_s * ginv(sin_s) * -1j, tol),
        {"name": "cos_body_closed_form", "max_deviation": body_gap, "passed": body_gap <= tol},
    ]
    return sd, checks


def mean_body_special_case(lam0: complex = 0.8, c0: complex = 1.1, k: int = 0,
                           pt: SuperspacePoint | None = None,
                           beta: BetaFunction = DEFAULT_BETA) -> dict:
    """The b0 = 2 sqrt(lambda0) c0 case: report body(H) next to both candidates.

    The computed body equals -cosh(eta0) exactly (it follows from
    H = -i cot(s) with the closed cosine/sine bodies); the published
    special-case value sinh(eta0) is inconsistent with that and is reported
    here without being forced.
    """
    b0 = 2 * cmath.sqrt(lam0) * c0
    bundle = example2_bundle(lam0, c0, b0, k)
    if pt is None:
        pt = SuperspacePoint(0.4 + 0.0j, -0.35 + 0.0j, 1.2 + 0.0j, gens=bundle.gens)
    sd = surface_data(bundle.s, pt, beta)
    eta = eta_jet(pt, lam0).value
    body = scalar_value(sd.curvature.mean.body())
    return {
        "name": "mean_body_special_case",
        "eta0": [eta.real, eta.imag],
        "computed_body": [body.real, body.imag],
        "minus_cosh_eta0": [(-cmath.cosh(eta)).real, (-cmath.cosh(eta)).imag],
        "sinh_eta0": [cmath.sinh(eta).real, cmath.sinh(eta).imag],
        "matches_minus_cosh": abs(body + cmath.cosh(eta)) <= 1e-10,
        "matches_sinh": abs(body - cmath.sinh(eta)) <= 1e-10,
        "passed": abs(body + cmath.cosh(eta)) <= 1e-10,
    }

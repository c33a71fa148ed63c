"""Induced surface geometry: tangents, metric, normal, curvatures, examples."""

import pytest

from susygordon.darboux import SeedParams, generator_set, seed_trivial
from susygordon.errors import SingularBodyError
from susygordon.geometry import (
    BetaFunction,
    curvatures,
    metric_coeffs,
    normal_core,
    second_form_coeffs,
    surface_data,
    tangent_data,
)
from susygordon.grassmann import GrassmannElement, allclose, analytic_lift, ginv
from susygordon.ssge import build_lax_fermionic
from susygordon.superfield import SuperspacePoint, d_lambda
from susygordon.worked_examples import (
    example1_bundle,
    example1_checks,
    example2_bundle,
    example2_checks,
    mean_body_special_case,
)

BETA = BetaFunction(2.0, 1)


@pytest.fixture(scope="module")
def ex1():
    return example1_bundle(lam0=1.25, c0=1.4 + 0.3j)


@pytest.fixture(scope="module")
def ex2():
    return example2_bundle(lam0=0.9, c0=1.2, b0=0.5)


def pt_for(bundle, x=0.3, y=-0.25, lam=1.15):
    return SuperspacePoint(x, y, lam, gens=bundle.gens)


def test_beta_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        BetaFunction(0.0, 1)


def test_lambda_derivative_of_u_plus_is_proportional(ex1):
    pt = pt_for(ex1)
    pair = build_lax_fermionic(ex1.s, pt)
    du = pair.u_plus.map_entries(d_lambda)
    scaled = pair.u_plus.map_entries(lambda e: e * (pt.lam_jet() * 2).reciprocal() * -1)
    assert du.allclose(scaled, 1e-11, 1e-11)


def test_example1_metric(ex1):
    pt = pt_for(ex1)
    td = tangent_data(ex1.s, pt, BETA)
    metric = metric_coeffs(td)
    lam_jet = pt.lam_jet()
    assert allclose(metric.g11, pt.scalar((2 * lam_jet).reciprocal() * -1j))
    assert allclose(metric.g12, pt.scalar(pt.const_jet(-1j)))
    assert allclose(metric.g22, pt.scalar(lam_jet * 2j))


def test_normal_is_unit_and_orthogonal(ex1, ex2):
    for bundle in (ex1, ex2):
        pt = pt_for(bundle)
        td = tangent_data(bundle.s, pt, BETA)
        n = normal_core(td)
        one = GrassmannElement.from_scalar(pt.gens, 1.0 + 0.0j)
        assert allclose(n.killing(n), one, 1e-12, 1e-12)
        assert td.ebd_plus.killing(n).max_abs() < 1e-12
        assert td.ebd_minus.killing(n).max_abs() < 1e-12


def test_metric_is_solution_independent_on_the_diagonal():
    """g11 and g22 involve no derivatives of s, and g12 = -i cos(s) is -i at
    a constant solution; the invariant-form value beta^2 <E dU+, E dU-> = -i
    at the trivial solution pins the whole constant table."""
    seeds = [SeedParams(lam=1.0, c=1.0, a="a0")]
    gens = generator_set(seeds)
    pt = SuperspacePoint(0.2, 0.1, 1.35, gens=gens)
    td = tangent_data(seed_trivial(0), pt, BETA)
    metric = metric_coeffs(td)
    lam_jet = pt.lam_jet()
    assert allclose(metric.g11, pt.scalar((2 * lam_jet).reciprocal() * -1j))
    assert allclose(metric.g12, pt.scalar(pt.const_jet(-1j)))
    assert allclose(metric.g22, pt.scalar(lam_jet * 2j))


def test_trivial_solution_has_no_normal():
    s = seed_trivial(0)
    seeds = [SeedParams(lam=1.0, c=1.0, a="a0")]
    pt = SuperspacePoint(0.1, 0.1, 1.0, gens=generator_set(seeds))
    td = tangent_data(s, pt, BETA)
    with pytest.raises(SingularBodyError):
        normal_core(td)


def test_trivial_solution_second_form_vanishes_against_any_unit_normal(ex1):
    # use the example normal direction; the sin-weighted combination vanishes at s = 0
    pt = pt_for(ex1)
    td_ref = tangent_data(ex1.s, pt, BETA)
    n = normal_core(td_ref)
    td_triv = tangent_data(seed_trivial(0), pt, BETA)
    b11, b12, b22, b21 = second_form_coeffs(td_triv, n)
    assert max(b11.max_abs(), b12.max_abs(), b22.max_abs(), b21.max_abs()) < 1e-12


def test_example1_full_table(ex1):
    for pt in (pt_for(ex1), pt_for(ex1, -0.4, 0.35, 0.6)):
        _, checks = example1_checks(ex1, pt, 1e-10)
        assert all(c["passed"] for c in checks), checks


def test_example2_full_table(ex2):
    for pt in (pt_for(ex2), pt_for(ex2, -0.2, 0.3, 1.7)):
        _, checks = example2_checks(ex2, pt, 1e-10)
        assert all(c["passed"] for c in checks), checks


def test_example2_curvature_quotients(ex2):
    pt = pt_for(ex2)
    sd = surface_data(ex2.s, pt, BETA)
    sv = ex2.s.evaluate(pt)
    sin_s = analytic_lift("sin", sv)
    cos_s = analytic_lift("cos", sv)
    assert allclose(sd.curvature.gaussian, GrassmannElement.from_scalar(pt.gens, 1.0))
    assert allclose(sd.curvature.mean, cos_s * ginv(sin_s) * -1j)
    assert sd.curvature.gaussian_note == "quotient"


def test_curvature_scaling_under_beta():
    """g is quadratic and b linear in the deformation weight, so rescaling
    beta -> c beta multiplies K by 1/c^2 and H by 1/c (the scaled-immersion
    law; K is *not* scale invariant, exactly as for a sphere of radius c)."""
    ex = example2_bundle(lam0=0.9, c0=1.2, b0=0.5)
    pt = pt_for(ex)
    base = surface_data(ex.s, pt, BETA)
    for c in (2.5, 0.5 - 1.5j):
        scaled = surface_data(ex.s, pt, BetaFunction(BETA.coefficient * c, 1))
        assert allclose(scaled.metric.g12, base.metric.g12 * c * c, 1e-9, 1e-9)
        assert allclose(scaled.b12, base.b12 * c, 1e-9, 1e-9)
        assert allclose(scaled.curvature.gaussian * (c * c),
                        base.curvature.gaussian, 1e-9, 1e-9)
        assert allclose(scaled.curvature.mean * c, base.curvature.mean, 1e-9, 1e-9)


def test_degenerate_gaussian_requires_matching_discriminants(ex1):
    pt = pt_for(ex1)
    sd = surface_data(ex1.s, pt, BETA)
    zero = GrassmannElement.zero(pt.gens)
    one = GrassmannElement.from_scalar(pt.gens, 1.0 + 0.0j)
    # metric discriminant vanishing + equal second discriminant -> K = 1
    assert sd.curvature.gaussian is not None
    # but a mismatched (invertible) numerator leaves K undefined
    data = curvatures(sd.metric.g11, sd.metric.g12, sd.metric.g22,
                      one, zero, one)
    assert data.gaussian is None and data.mean is None


def test_two_soliton_surface_keeps_the_structure():
    """The closed relations g12 = -i cos s, b12 = sin s, b11 = b22 = 0 and
    K = 1 are not special to one soliton; they persist for s[2]."""
    seeds = [SeedParams(lam=0.6, c=1.2 + 0.1j, b=0.1 - 0.04j, a="a0"),
             SeedParams(lam=1.7, c=1.0 - 0.15j, b=0.08 + 0.05j, a="a1")]
    from susygordon.darboux import darboux_chain

    gens = generator_set(seeds)
    pt = SuperspacePoint(0.3, -0.25, 1.2, gens=gens)
    s2 = darboux_chain(0, seeds, 2).solution()
    sd = surface_data(s2, pt, BETA)
    sv = s2.evaluate(pt)
    sin_s = analytic_lift("sin", sv)
    cos_s = analytic_lift("cos", sv)
    one = GrassmannElement.from_scalar(gens, 1.0 + 0.0j)
    assert allclose(sd.metric.g12, cos_s * -1j)
    assert allclose(sd.b12, sin_s)
    assert max(sd.b11.max_abs(), sd.b22.max_abs()) < 1e-12
    assert allclose(sd.curvature.metric_discriminant, sin_s * sin_s, 1e-11, 1e-11)
    assert allclose(sd.curvature.gaussian, one, 1e-9, 1e-9)
    assert allclose(sd.curvature.mean, cos_s * ginv(sin_s) * -1j, 1e-9, 1e-9)


def test_mean_body_special_case_report():
    """body(H) at b0 = 2 sqrt(lam0) c0 is -cosh(eta0), exactly as H = -i cot(s)
    implies; the reported sinh(eta0) does not match the computation."""
    info = mean_body_special_case()
    assert info["matches_minus_cosh"]
    assert not info["matches_sinh"]

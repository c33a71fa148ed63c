"""Induced surface geometry: tangents, metric, normal, curvatures, examples."""

import dataclasses

import numpy as np
import pytest

import susygordon.geometry as geometry_module
from susygordon.darboux import SeedParams, darboux_chain, generator_set, seed_trivial
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
from susygordon.grassmann import EVEN, ODD, GrassmannElement, allclose, analytic_lift, ginv
from susygordon.reporting import sample_points
from susygordon.ssge import fermionic_u_pair
from susygordon.superfield import SuperspacePoint, cov_derivative, d_lambda
from susygordon.supermatrix import SuperMatrix
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
    pair = fermionic_u_pair(ex1.s, pt, pt.lam_jet().analytic("sqrt"))
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


def second_form_matrices(td):
    """Every entry of beta D_j dU_i - {beta E dU_i, E U_j}, for (i, j) = (1, 1),
    (1, 2), (2, 2), (2, 1)."""
    du = {1: td.bd_plus, 2: td.bd_minus}
    u = {1: td.pair.u_plus, 2: td.pair.u_minus}
    which = {1: "D_plus", 2: "D_minus"}
    return [du[i].map_entries(lambda e: cov_derivative(e, which[j]))
            - du[i].e_twist().bracket(u[j].e_twist(), "anticommutator")
            for i, j in ((1, 1), (1, 2), (2, 2), (2, 1))]


def second_form_from_whole_matrices(td, normal):
    """The reference: the whole matrices of the second form, paired with the normal."""
    return tuple(m.killing(normal) for m in second_form_matrices(td))


def killing_with_parities(a, b, pa, pb):
    """The invariant form with the parities given, not read off the entries."""
    acc = GrassmannElement.zero(a.gens)
    for i in range(3):
        d = a.product_entry(b, i, i)
        acc = acc - d if pa == pb and i >= 2 else acc + d
    return acc * 0.5


def test_geometry_matrices_read_the_parities_they_were_declared(ex1, deep, deep_points):
    """The tangent matrices and U+- read ODD off their entries, and the normal
    and the second-form matrices EVEN, at a point and on a batch, so the metric
    and the second form are bitwise the forms taken with those parities given.
    The form of a zero matrix is the same zero under either parity."""
    seeds, _ = deep
    s4 = darboux_chain(0, seeds, 4).solution()
    for s, pt in ((ex1.s, pt_for(ex1)), (s4, SuperspacePoint.batch(deep_points[:3]))):
        td = tangent_data(s, pt, BETA)
        odd = (td.bd_plus, td.bd_minus, td.ebd_plus, td.ebd_minus, td.pair.u_plus, td.pair.u_minus)
        assert [m.parity for m in odd] == [ODD] * 6
        normal = normal_core(td)
        assert normal.parity == EVEN
        got = [*vars(metric_coeffs(td)).values(), *second_form_coeffs(td, normal)]
        want = [killing_with_parities(a, b, ODD, ODD) for a, b in (
            (td.ebd_plus, td.bd_plus), (td.ebd_plus, td.ebd_minus), (td.ebd_minus, td.bd_minus))]
        whole = second_form_matrices(td)
        assert [m.parity for m in whole] == [EVEN] * 4
        want += [killing_with_parities(m, normal, EVEN, EVEN) for m in whole]
        for a, b in zip(got, want, strict=True):
            assert a.layout.keys == b.layout.keys and np.array_equal(a.block, b.block)
        zero = SuperMatrix.zeros(td.bd_plus.gens)
        for a, b in ((zero, td.bd_plus), (td.ebd_plus, zero)):
            assert a.killing(b).is_zero() and killing_with_parities(a, b, ODD, ODD).is_zero()


def test_second_form_forms_only_the_normal_diagonal(ex1, deep, deep_points, monkeypatch):
    """The second form forms the two diagonal entries the normal reads: 2
    covariant derivatives per coefficient, where the whole matrices took 9,
    and the floats of the whole-matrix construction, at a point and on a batch."""
    seeds, _ = deep
    s4 = darboux_chain(0, seeds, 4).solution()
    cov = geometry_module.cov_derivative
    for s, pt in ((ex1.s, pt_for(ex1)), (s4, SuperspacePoint.batch(deep_points[:3]))):
        td = tangent_data(s, pt, BETA)
        normal = normal_core(td)
        want = second_form_from_whole_matrices(td, normal)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(geometry_module, "cov_derivative",
                          lambda *args: calls.append(args) or cov(*args))
            got = second_form_coeffs(td, normal)
        assert len(calls) == 8
        for a, b in zip(got, want):
            assert a.layout.keys == b.layout.keys and np.array_equal(a.block, b.block)


def test_example1_full_table(ex1):
    for pt in (pt_for(ex1), pt_for(ex1, -0.4, 0.35, 0.6)):
        _, checks = example1_checks(ex1, pt, 1e-10)
        assert all(c["passed"] for c in checks), checks


def test_example2_full_table(ex2):
    for pt in (pt_for(ex2), pt_for(ex2, -0.2, 0.3, 1.7)):
        _, checks = example2_checks(ex2, pt, 1e-10)
        assert all(c["passed"] for c in checks), checks


def test_example2_expectations_reject_a_seed_off_by_a_millionth(ex2):
    """Expected values from a seed whose c0 is off by a millionth fail at
    every point of ``reproduce example2`` (worst deviation 4.2e-8 or more),
    where the seed itself passes (at most 2.2e-12)."""
    seed = ex2.seeds[0]
    near = dataclasses.replace(ex2, seeds=[dataclasses.replace(seed, c=seed.c * (1 + 1e-6))])
    for pt in sample_points(10, 7, ex2.gens, x_range=(-0.45, 0.45)):
        assert all(c["passed"] for c in example2_checks(ex2, pt, 1e-10)[1]), pt
        assert not all(c["passed"] for c in example2_checks(near, pt, 1e-10)[1]), pt


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

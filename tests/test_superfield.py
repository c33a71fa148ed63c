"""Covariant-derivative algebra on evaluated superfield values."""

import numpy as np
import pytest

from susygordon.errors import ParityError
from susygordon.grassmann import EVEN, ODD, GeneratorSet, GrassmannElement, allclose, analytic_lift
from susygordon.jets import JetScalar
from susygordon.superfield import (
    Superfield,
    SuperspacePoint,
    cov_derivative,
    d_lambda,
    d_minus,
    d_plus,
    dx_minus,
    dx_plus,
)

GENS = GeneratorSet(("theta_plus", "theta_minus", "a0"))
PT = SuperspacePoint(0.37, -0.21, 1.3, gens=GENS)


def rand_value(rng, homogeneous=None):
    terms = {}
    for m in range(8):
        if homogeneous == EVEN and m.bit_count() & 1:
            continue
        if homogeneous == ODD and not m.bit_count() & 1:
            continue
        shape = PT.spec.shape
        terms[m] = JetScalar(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return GrassmannElement(GENS, terms)


def test_d_plus_of_theta_plus():
    v = PT.theta("+")
    assert allclose(d_plus(v), PT.scalar(1.0 + 0.0j), 0, 0)


def test_covariant_derivative_identities():
    rng = np.random.default_rng(8)
    for _ in range(50):
        v = rand_value(rng)
        assert allclose(d_plus(d_plus(v)), -1j * dx_plus(v), 1e-10, 1e-10)
        assert allclose(d_minus(d_minus(v)), -1j * dx_minus(v), 1e-10, 1e-10)
        anti = d_plus(d_minus(v)) + d_minus(d_plus(v))
        assert anti.max_abs() <= 1e-10


def test_parity_flip():
    rng = np.random.default_rng(9)
    v = rand_value(rng, homogeneous=EVEN)
    assert d_plus(v).parity() == ODD
    w = rand_value(rng, homogeneous=ODD)
    assert d_minus(w).parity() == EVEN


def test_graded_leibniz_for_cov_derivative():
    rng = np.random.default_rng(10)
    for par in (EVEN, ODD):
        v = rand_value(rng, homogeneous=par)
        w = rand_value(rng)
        sign = -1 if par == ODD else 1
        lhs = d_plus(v * w)
        rhs = d_plus(v) * w + sign * (v * d_plus(w))
        assert allclose(lhs, rhs, 1e-10, 1e-10)


def test_bosonic_derivative_examples():
    lam = PT.lam_jet()
    sqrt_lam = lam.analytic("sqrt")
    v = PT.scalar(sqrt_lam * (2.0 - 1.0j))
    dv = d_lambda(v)
    expect = PT.scalar(sqrt_lam.reciprocal() * (0.5 * (2.0 - 1.0j)))
    assert allclose(dv, expect, 1e-12, 1e-12)
    const = PT.scalar(PT.const_jet(3.0))
    assert dx_minus(const).is_zero()


def test_exp_eta_derivative():
    lam0 = 0.8
    eta = PT.xp_jet() * (1 / (2 * lam0)) - PT.xm_jet() * (2 * lam0)
    e = PT.scalar(eta.analytic("exp"))
    # d/dx+ e^eta = e^eta/(2 lam0)
    assert allclose(dx_plus(e), e * (1 / (2 * lam0)), 1e-12, 1e-12)


def test_field_fn_parity_and_roundtrip():
    rng = np.random.default_rng(12)
    v = rand_value(rng, homogeneous=EVEN) * 0.1
    assert allclose(analytic_lift("ln", analytic_lift("exp", v)), v, 1e-10, 1e-10)
    with pytest.raises(ParityError):
        analytic_lift("sin", rand_value(rng, homogeneous=ODD))


def test_sin_vanishes_at_multiples_of_two_pi():
    v = PT.scalar(PT.const_jet(4 * np.pi))
    assert analytic_lift("sin", v).max_abs() < 1e-12


def test_superfield_wrapper_checks_parity_and_memoizes():
    calls = []

    def ev(pt):
        calls.append(pt)
        return pt.scalar(pt.const_jet(1.5))

    f = Superfield(ev, EVEN, "test")
    a = f.evaluate(PT)
    b = f.evaluate(PT)
    assert a is b and len(calls) == 1

    bad = Superfield(lambda pt: pt.theta("+"), EVEN, "bad")
    with pytest.raises(ParityError):
        bad.evaluate(PT)


def test_derive_makes_one_field_per_label_and_others():
    """A derived field is made once per (label, *others) and evaluated once per
    point; a different partner makes a different field."""
    calls = []
    f = Superfield(lambda pt: pt.scalar(pt.xp_jet()), EVEN, "x+")
    g = Superfield(lambda pt: pt.theta("-"), ODD, "theta-")

    def times(v, w):
        calls.append(v)
        return v * w

    fg = f.derive("f g", ODD, times, g)
    assert f.derive("f g", ODD, times, g) is fg
    assert f.derive("f g", ODD, times, f) is not fg
    assert fg.evaluate(PT) is fg.evaluate(PT) and len(calls) == 1
    assert allclose(fg.evaluate(PT), f.evaluate(PT) * g.evaluate(PT), 0, 0)
    with pytest.raises(ParityError):
        f.derive("f f", ODD, times, f).evaluate(PT)


def test_unknown_derivative_direction():
    with pytest.raises(ValueError):
        cov_derivative(PT.theta("+"), "sideways")

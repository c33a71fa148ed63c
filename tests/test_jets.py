"""Jet arithmetic against finite differences and the stated edge cases."""

import cmath
import math

import numpy as np
import pytest

from susygordon.errors import JetBudgetError, SingularBodyError
from susygordon.jets import (
    DEFAULT_SPEC,
    TINY,
    JetScalar,
    JetSpec,
    derivative_sequence,
    jet_allclose,
    jet_constant,
    jet_extract,
    jet_fn,
    jet_seed,
)


def test_seed_slots():
    j = jet_seed("x_plus", 0.3)
    assert j.value == 0.3
    assert j.c.shape == (1, 3, 3, 2) and j.c[0, 1, 0, 0] == 1.0
    k = jet_seed("lambda", 2.0)
    assert k.value == 2.0 and k.c[0, 0, 0, 1] == 1.0
    m = jet_seed("x_minus", 0.0)
    assert m.value == 0.0 and m.c[0, 0, 1, 0] == 1.0


def test_sqrt_of_lambda_seed():
    s = jet_fn("sqrt", jet_seed("lambda", 4.0))
    assert abs(s.value - 2.0) < 1e-14
    assert abs(s.c[0, 0, 0, 1] - 0.25) < 1e-14  # d sqrt / d lambda = 1/(2 sqrt)


def test_exp_taylor_slots():
    e = jet_fn("exp", jet_seed("x_plus", 0.0))
    assert abs(e.c[0, 0, 0, 0] - 1.0) < 1e-14
    assert abs(e.c[0, 1, 0, 0] - 1.0) < 1e-14
    assert abs(e.c[0, 2, 0, 0] - 0.5) < 1e-14


def test_extract_returns_raw_partials():
    e = jet_fn("exp", jet_seed("x_plus", 1.0))
    assert abs(jet_extract(e, (0, 0, 0)) - cmath.e) < 1e-12
    prod = jet_seed("x_plus", 0.4) * jet_seed("x_minus", -0.2)
    assert abs(jet_extract(prod, (1, 1, 0)) - 1.0) < 1e-14
    # second-order Taylor slot carries the 1/2! factor, extract undoes it
    sq = jet_seed("x_plus", 0.0) ** 2
    assert abs(jet_extract(sq, (2, 0, 0)) - 2.0) < 1e-14


def test_budget_errors():
    e = jet_fn("exp", jet_seed("x_plus", 0.0))
    with pytest.raises(JetBudgetError):
        jet_extract(e, (3, 0, 0))
    with pytest.raises(JetBudgetError):
        jet_seed("lambda", 1.0).derivative("lambda").derivative("lambda")


def test_domain_errors():
    with pytest.raises(SingularBodyError):
        jet_fn("ln", jet_seed("x_plus", 0.0))
    with pytest.raises(SingularBodyError):
        jet_seed("x_plus", 0.0).reciprocal()


def test_spec_validation():
    with pytest.raises(ValueError):
        JetSpec((2, -1, 0))
    with pytest.raises(ValueError):
        JetSpec((2, 2))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# derivative sequences against the per-point cmath sequences they replaced
# ---------------------------------------------------------------------------

def cmath_derivative_sequence(name, z, kmax):
    """``[f(z), ..., f^(kmax)(z)]`` at one point in Python's complex arithmetic,
    as the library took it before its sequences ran in numpy."""
    if name == "exp":
        return [cmath.exp(z)] * (kmax + 1)
    if name == "sin":
        cycle = [cmath.sin(z), cmath.cos(z), -cmath.sin(z), -cmath.cos(z)]
        return [cycle[k % 4] for k in range(kmax + 1)]
    if name == "cos":
        cycle = [cmath.cos(z), -cmath.sin(z), -cmath.cos(z), cmath.sin(z)]
        return [cycle[k % 4] for k in range(kmax + 1)]
    if abs(z) < TINY:
        raise SingularBodyError(f"{name} requires an invertible body")
    if name == "ln":
        return [cmath.log(z)] + [(-1) ** (k - 1) * math.factorial(k - 1) / z ** k
                                 for k in range(1, kmax + 1)]
    seq, coef = [], 1.0
    for k in range(kmax + 1):
        seq.append(coef * z ** (0.5 - k))
        coef *= 0.5 - k
    return seq


#: allowed relative gap to the cmath sequence, in units of eps: cmath's
#: ``z ** (0.5 - k)`` scales the phase of z by the order, so its own error
#: grows to about 10 eps at order 6 (against a 200-bit reference), where
#: ``sqrt(z) / z^k`` stays within about 3 eps
ORACLE_EPS = {"exp": 4, "sin": 4, "cos": 4, "ln": 4, "sqrt": 16}


def test_derivative_sequences_match_the_cmath_oracle():
    rng = np.random.default_rng(4242)
    size = rng.normal(size=300) + 1j * rng.normal(size=300)
    bodies = list(size * np.exp(rng.uniform(-2, 2, size=300)))
    # the negative real axis, from either side of the principal branch cut
    cut = [complex(-x, zero) for x in (0.3, 1.0, 2.5, 7.0) for zero in (0.0, -0.0)]
    points = np.array(bodies + cut)
    eps = np.finfo(float).eps
    for name, allowed in ORACLE_EPS.items():
        batch = derivative_sequence(name, points, 6)
        assert batch.shape == (len(points), 7)
        for i, z in enumerate(bodies + cut):
            want = np.array(cmath_derivative_sequence(name, z, 6))
            # a plain number and a batch take one path and round alike
            assert np.array_equal(derivative_sequence(name, z, 6), batch[i]), (name, z)
            assert np.all(np.abs(batch[i] - want) <= allowed * eps * np.abs(want)), (name, z)
            sided = np.abs(want.imag) > 1e-3 * np.abs(want)
            assert np.array_equal(np.sign(batch[i].imag[sided]), np.sign(want.imag[sided]))
    assert derivative_sequence("ln", complex(-2.0, 0.0), 0)[0].imag > 0
    assert derivative_sequence("ln", complex(-2.0, -0.0), 0)[0].imag < 0
    assert derivative_sequence("sqrt", complex(-2.0, -0.0), 0)[0].imag < 0


def test_ln_and_sqrt_refuse_a_batch_with_one_singular_body():
    bodies = np.array([1.0, 0.5 - 0.2j, 0.4 * TINY, 2.0j])
    for name in ("ln", "sqrt"):
        with pytest.raises(SingularBodyError):
            cmath_derivative_sequence(name, complex(bodies[2]), 3)
        with pytest.raises(SingularBodyError):
            derivative_sequence(name, bodies, 3)
        with pytest.raises(SingularBodyError):
            derivative_sequence(name, 0.4j * TINY, 3)
        with pytest.raises(SingularBodyError):
            JetScalar.seed("x_plus", list(bodies)).analytic(name)
        derivative_sequence(name, np.delete(bodies, 2), 3)
    for name in ("exp", "sin", "cos"):
        assert np.array_equal(derivative_sequence(name, bodies, 3)[2],
                              derivative_sequence(name, bodies[2], 3))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _random_expression(rng):
    """A random smooth composition as (jet_builder, plain_callable)."""
    a, b, c = rng.normal(size=3)
    d = rng.normal() * 0.3
    choice = rng.integers(0, 5)

    def linear(xp, xm, lam):
        return a * xp + b * xm + 0.2 * c * lam + d

    if choice == 0:
        plain = lambda xp, xm, lam: cmath.exp(linear(xp, xm, lam))
        name = "exp"
    elif choice == 1:
        plain = lambda xp, xm, lam: cmath.sin(linear(xp, xm, lam))
        name = "sin"
    elif choice == 2:
        plain = lambda xp, xm, lam: cmath.cos(linear(xp, xm, lam))
        name = "cos"
    elif choice == 3:
        plain = lambda xp, xm, lam: cmath.log(3.5 + linear(xp, xm, lam) * 0.2)
        name = "ln"
    else:
        plain = lambda xp, xm, lam: cmath.sqrt(3.5 + linear(xp, xm, lam) * 0.2)
        name = "sqrt"

    def build(xp, xm, lam, spec=DEFAULT_SPEC):
        base = (jet_seed("x_plus", xp, spec) * a + jet_seed("x_minus", xm, spec) * b
                + jet_seed("lambda", lam, spec) * (0.2 * c) + d)
        if name in ("ln", "sqrt"):
            base = base * 0.2 + 3.5
        return jet_fn(name, base)

    return build, plain


def test_first_partials_match_central_differences():
    rng = np.random.default_rng(314)
    h = 1e-5
    shifts = {"x_plus": (1, 0, 0), "x_minus": (0, 1, 0), "lambda": (0, 0, 1)}
    for _ in range(100):
        build, plain = _random_expression(rng)
        xp, xm = rng.uniform(-0.8, 0.8, size=2)
        lam = rng.uniform(0.6, 1.8)
        jet = build(xp, xm, lam)
        args = [xp, xm, lam]
        for axis, (var, idx) in enumerate(shifts.items()):
            hi = list(args)
            lo = list(args)
            hi[axis] += h
            lo[axis] -= h
            fd = (plain(*hi) - plain(*lo)) / (2 * h)
            assert abs(jet.extract(idx) - fd) < 1e-6


def test_mixed_partial_matches_central_differences():
    rng = np.random.default_rng(2718)
    h = 1e-4
    for _ in range(25):
        build, plain = _random_expression(rng)
        xp, xm, lam = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5)
        jet = build(xp, xm, lam)
        fd = (plain(xp + h, xm + h, lam) - plain(xp + h, xm - h, lam)
              - plain(xp - h, xm + h, lam) + plain(xp - h, xm - h, lam)) / (4 * h * h)
        assert abs(jet.extract((1, 1, 0)) - fd) < 1e-6


# ---------------------------------------------------------------------------
# ring laws and truncation
# ---------------------------------------------------------------------------

def _random_jet(rng, spec=DEFAULT_SPEC):
    shape = spec.shape
    return JetScalar(rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_ring_laws():
    rng = np.random.default_rng(99)
    for _ in range(30):
        a, b, c = (_random_jet(rng) for _ in range(3))
        assert jet_allclose((a * b) * c, a * (b * c), 1e-12, 1e-12)
        assert jet_allclose(a * (b + c), a * b + a * c, 1e-12, 1e-12)
        assert jet_allclose(a * b, b * a, 1e-14, 1e-14)


def test_product_rule_against_finite_differences():
    rng = np.random.default_rng(512)
    h = 1e-5
    for _ in range(20):
        a1, b1 = rng.normal(size=2)
        xp, xm = rng.uniform(-0.5, 0.5, size=2)
        f = lambda x, y: cmath.exp(a1 * x) * cmath.cos(b1 * y)
        jet = jet_fn("exp", jet_seed("x_plus", xp) * a1) * jet_fn(
            "cos", jet_seed("x_minus", xm) * b1)
        fd = (f(xp + h, xm) - f(xp - h, xm)) / (2 * h)
        assert abs(jet.extract((1, 0, 0)) - fd) < 1e-6


def test_truncation_consistency():
    rng = np.random.default_rng(7)
    small = JetSpec((1, 1, 1))
    for _ in range(10):
        big_a, big_b = _random_jet(rng), _random_jet(rng)
        restricted = (big_a * big_b).restrict(small)
        direct = big_a.restrict(small) * big_b.restrict(small)
        assert jet_allclose(restricted, direct, 1e-13, 1e-13)
        composed_big = jet_fn("exp", big_a * 0.3).restrict(small)
        composed_small = jet_fn("exp", big_a.restrict(small) * 0.3)
        assert jet_allclose(composed_big, composed_small, 1e-13, 1e-13)


def test_reciprocal_and_scalar_mixing():
    j = jet_seed("lambda", 2.0)
    assert jet_allclose(j * j.reciprocal(), jet_constant(1.0), 1e-13, 1e-13)
    assert jet_allclose((2 + j) - 2, j, 1e-14, 1e-14)
    assert jet_allclose(1 / j, j.reciprocal(), 1e-14, 1e-14)


# ---------------------------------------------------------------------------
# the product kernel against a naive convolution and an exact oracle
# ---------------------------------------------------------------------------

def _naive_product(a, b):
    """Truncated convolution by a loop over output and left multi-indices."""
    shape = tuple(min(x, y) for x, y in zip(a.shape, b.shape))
    out = np.zeros(shape, dtype=complex)
    for r in np.ndindex(*shape):
        for p in np.ndindex(*shape):
            q = tuple(ri - pi for ri, pi in zip(r, p))
            if min(q) >= 0:
                out[r] += a[p] * b[q]
    return out


SHAPES = [(i, j, k) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2)]


def test_product_matches_naive_convolution_on_every_shape_pair():
    # float64 bound fixed beforehand: 64 eps times the convolution of |a| and |b|
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1729)
    for shape_a in SHAPES:
        for shape_b in SHAPES:
            a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
            b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
            bound = 64 * eps * _naive_product(np.abs(a), np.abs(b)).real
            got = (JetScalar(a) * JetScalar(b)).c[0]
            assert got.shape == bound.shape
            assert np.all(np.abs(got - _naive_product(a, b)) <= bound), (shape_a, shape_b)
        z = complex(*rng.normal(size=2))
        for got in ((JetScalar(a) * z).c[0], (z * JetScalar(a)).c[0]):
            assert np.all(np.abs(got - a * z) <= 64 * eps * np.abs(a) * abs(z)), shape_a


def test_product_and_derivative_match_exact_polynomials():
    # dyadic rationals are exact in float64, so the products must agree exactly
    import sympy

    xs = sympy.symbols("x y z")
    rng = np.random.default_rng(42)

    def random_poly(shape):
        coeffs = {idx: sympy.Rational(int(rng.integers(-64, 65)), 8)
                  + sympy.I * sympy.Rational(int(rng.integers(-64, 65)), 16)
                  for idx in np.ndindex(*shape)}
        jet = JetScalar(np.array([complex(coeffs[idx]) for idx in np.ndindex(*shape)])
                        .reshape(shape))
        return jet, sum(c * sympy.prod(v ** e for v, e in zip(xs, idx))
                        for idx, c in coeffs.items())

    def coefficients(expr, shape):
        poly = sympy.Poly(sympy.expand(expr), *xs)
        return np.array([complex(poly.coeff_monomial(sympy.prod(v ** e for v, e in zip(xs, idx))))
                         for idx in np.ndindex(*shape)]).reshape(shape)

    for shape_a, shape_b in (((3, 3, 2), (3, 3, 2)), ((3, 2, 2), (2, 3, 1))):
        (ja, pa), (jb, pb) = random_poly(shape_a), random_poly(shape_b)
        prod = ja * jb
        assert np.array_equal(prod.c[0], coefficients(pa * pb, prod.c.shape[1:]))
        for axis, var in enumerate(("x_plus", "x_minus", "lambda")):
            if shape_a[axis] > 1:
                d = ja.derivative(var)
                assert np.array_equal(d.c[0], coefficients(sympy.diff(pa, xs[axis]), d.c.shape[1:]))


def _exact_reciprocal(a):
    """The truncated series of ``1/a`` in Gaussian rationals, from the float64 entries of ``a``."""
    from fractions import Fraction

    from sympy.polys.domains import QQ, QQ_I

    def exact(z):
        re, im = (Fraction(v) for v in (z.real, z.imag))
        return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))

    coeffs = {idx: exact(a[idx]) for idx in np.ndindex(*a.shape)}
    inv_body = 1 / coeffs[0, 0, 0]
    out = {}
    for r in np.ndindex(*a.shape):  # row-major order: every r - p with p != 0 comes first
        acc = QQ_I(1 if r == (0, 0, 0) else 0, 0)
        for p in np.ndindex(*a.shape):
            q = tuple(ri - pi for ri, pi in zip(r, p))
            if any(p) and min(q) >= 0:
                acc -= coeffs[p] * out[q]
        out[r] = acc * inv_body
    return np.array([complex(float(out[idx].x), float(out[idx].y))
                     for idx in np.ndindex(*a.shape)]).reshape(a.shape)


def test_reciprocal_matches_exact_series_on_every_shape():
    # A quotient's float64 bound is the product bound taken through the
    # inverse: 64 eps times the convolution |1/a| * |a| * |1/a|
    # (d(1/a) = -(1/a) da (1/a) for a relative perturbation da of a).
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2718)
    for shape in SHAPES:
        first_order = [idx for idx in np.ndindex(*shape) if sum(idx) == 1]
        points = []
        for kind in ("moderate", "steep", "inverse of steep"):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            if kind != "moderate":
                # first-order coefficients 10 to 100 times the body
                for idx in first_order:
                    a[idx] = a[0, 0, 0] * rng.uniform(10, 100) * np.exp(2j * np.pi * rng.random())
            if kind == "inverse of steep":
                a = _exact_reciprocal(a)
            points.append(a)
        batch = JetScalar(np.stack(points)).reciprocal()
        for i, a in enumerate(points):
            want = _exact_reciprocal(a)
            bound = 64 * eps * _naive_product(_naive_product(np.abs(want), np.abs(a)),
                                              np.abs(want)).real
            got = JetScalar(a).reciprocal().c[0]
            assert np.all(np.abs(got - want) <= bound), (shape, i)
            assert np.array_equal(batch.c[i], got), (shape, i)  # a batch rounds as its points
        assert np.array_equal((1 / JetScalar(points[0])).c, JetScalar(points[0]).reciprocal().c)
        assert np.array_equal((JetScalar(points[1]) ** -2).c,
                              (JetScalar(points[1]).reciprocal() ** 2).c)


def test_division_uses_only_the_product(monkeypatch):
    # reciprocal, 1/x, x ** -n and ginv never compose a series through ``analytic``
    from susygordon.grassmann import GeneratorSet, GrassmannElement, ginv

    def refuse(*args, **kwargs):
        raise AssertionError("division went through an analytic composition")

    monkeypatch.setattr(JetScalar, "analytic", refuse)
    monkeypatch.setattr(JetScalar, "analytic_derivatives", refuse)
    j = jet_seed("lambda", 2.0) + jet_seed("x_plus", 0.5) * jet_seed("x_minus", 0.3)
    one = jet_constant(1.0)
    assert jet_allclose(j * j.reciprocal(), one, 1e-14, 1e-14)
    assert jet_allclose(j * (1 / j), one, 1e-14, 1e-14)
    assert jet_allclose(j ** 2 * j ** -2, one, 1e-14, 1e-14)
    gens = GeneratorSet(("theta_plus", "theta_minus", "a0", "a1"))
    tp, tm, a0, a1 = (GrassmannElement.generator(gens, n) for n in gens.names)
    v = GrassmannElement.from_scalar(gens, j) + tp * tm * j + a0 * a1 * (j * j) + tp * a0 * 0.5
    unit = GrassmannElement.from_scalar(gens, one)
    assert (v * ginv(v) - unit).max_abs() < 1e-13

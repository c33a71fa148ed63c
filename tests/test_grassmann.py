"""Grassmann kernel: products, derivations, analytic lifts, and algebra laws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygordon.errors import GeneratorMismatchError, ParityError, SingularBodyError
from susygordon.grassmann import (
    EVEN,
    INHOMOGENEOUS,
    ODD,
    GeneratorSet,
    GrassmannElement,
    allclose,
    analytic_lift,
    element_to_json,
    fermi_derivative,
    ginv,
    gmul,
    parity,
)

G4 = GeneratorSet(("theta_plus", "theta_minus", "a0", "a1"))
G8 = GeneratorSet(("theta_plus", "theta_minus") + tuple(f"a{i}" for i in range(6)))


def gen(gs, name):
    return GrassmannElement.generator(gs, name)


def one(gs):
    return GrassmannElement.from_scalar(gs, 1.0 + 0.0j)


def test_anticommuting_generators():
    tp, tm = gen(G4, "theta_plus"), gen(G4, "theta_minus")
    assert (tp * tm).terms == {0b11: (1 + 0j)}
    assert allclose(tm * tp, -1 * (tp * tm), 0, 0)


def test_cross_terms_cancel():
    tp, a0 = gen(G4, "theta_plus"), gen(G4, "a0")
    u = one(G4) + a0 * tp
    v = one(G4) - a0 * tp
    assert allclose(u * v, one(G4), 0, 0)


def test_repeated_generators_vanish():
    tp, tm = gen(G4, "theta_plus"), gen(G4, "theta_minus")
    assert ((tp * tm) * (tp * tm)).is_zero()


def test_generator_set_mismatch():
    with pytest.raises(GeneratorMismatchError):
        gmul(gen(G4, "theta_plus"), gen(G8, "theta_plus"))


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(("a", "a"))
    with pytest.raises(ValueError):
        GeneratorSet(tuple(f"g{i}" for i in range(65)))


def test_parity_classification():
    tp, tm, a0 = (gen(G4, n) for n in ("theta_plus", "theta_minus", "a0"))
    assert parity(3 + 2 * (tp * tm)) == EVEN
    assert parity(a0 + tp) == ODD
    assert parity(one(G4) + tp) == INHOMOGENEOUS
    assert parity(GrassmannElement.zero(G4)) == EVEN


def test_left_derivative_signs():
    tp, tm = gen(G4, "theta_plus"), gen(G4, "theta_minus")
    prod = tp * tm
    assert allclose(fermi_derivative(prod, "theta_plus"), tm, 0, 0)
    assert allclose(fermi_derivative(prod, "theta_minus"), -1 * tp, 0, 0)
    assert fermi_derivative(one(G4), "theta_plus").is_zero()
    with pytest.raises(GeneratorMismatchError):
        fermi_derivative(prod, "nope")


def test_analytic_lift_truncates():
    tp, tm = gen(G4, "theta_plus"), gen(G4, "theta_minus")
    nil = tp * tm
    c = 0.7 - 0.2j
    assert allclose(analytic_lift("ln", one(G4) + nil * c), nil * c)
    assert allclose(analytic_lift("sin", nil * c + 4 * np.pi), nil * c)
    assert allclose(analytic_lift("exp", nil), one(G4) + nil)


def test_analytic_lift_rejects_odd():
    with pytest.raises(ParityError):
        analytic_lift("exp", gen(G4, "theta_plus"))
    with pytest.raises(ParityError):
        analytic_lift("exp", one(G4) + gen(G4, "a0"))


def test_ginv():
    tp, tm = gen(G4, "theta_plus"), gen(G4, "theta_minus")
    a = one(G4) + tp * tm
    assert allclose(ginv(a), one(G4) - tp * tm, 0, 0)
    assert allclose(a * ginv(a), one(G4), 1e-14, 1e-14)
    assert allclose(ginv(GrassmannElement.from_scalar(G4, 2.0)),
                    GrassmannElement.from_scalar(G4, 0.5))
    with pytest.raises((SingularBodyError, ParityError)):
        ginv(tp)
    with pytest.raises(SingularBodyError):
        ginv(tp * tm)  # even, but zero body


# ---------------------------------------------------------------------------
# algebra laws: exhaustive on 4 generators, randomized on 8
# ---------------------------------------------------------------------------

def all_monomials(gs):
    return [GrassmannElement(gs, {m: 1.0 + 0.0j}) for m in range(1 << len(gs))]


def test_supercommutativity_exhaustive_n4():
    monos = all_monomials(G4)
    for x, y in itertools.product(monos, monos):
        sign = -1 if (parity(x) == ODD and parity(y) == ODD) else 1
        assert allclose(x * y, sign * (y * x), 0, 0)


def test_associativity_exhaustive_n4_basis():
    monos = all_monomials(G4)
    for x, y, z in itertools.islice(itertools.product(monos, monos, monos), 0, None, 7):
        assert allclose((x * y) * z, x * (y * z), 0, 0)


def _random_element(gs, rng, homogeneous=None, sparsity=10):
    terms = {}
    size = 1 << len(gs)
    for m in rng.choice(size, size=sparsity, replace=False):
        m = int(m)
        deg = m.bit_count() & 1
        if homogeneous == EVEN and deg:
            continue
        if homogeneous == ODD and not deg:
            continue
        terms[m] = complex(rng.normal(), rng.normal())
    return GrassmannElement(gs, terms)


def test_randomized_laws_n8():
    rng = np.random.default_rng(123)
    for _ in range(25):
        a = _random_element(G8, rng)
        b = _random_element(G8, rng)
        c = _random_element(G8, rng)
        assert allclose((a * b) * c, a * (b * c), 1e-12, 1e-12)
        assert allclose(a * (b + c), a * b + a * c, 1e-12, 1e-12)
        for pa in (EVEN, ODD):
            for pb in (EVEN, ODD):
                x = _random_element(G8, rng, homogeneous=pa)
                y = _random_element(G8, rng, homogeneous=pb)
                sign = -1 if (pa == ODD and pb == ODD) else 1
                assert allclose(x * y, sign * (y * x), 1e-12, 1e-12)


def test_graded_leibniz():
    rng = np.random.default_rng(321)
    for name in ("theta_plus", "a1"):
        for pa in (EVEN, ODD):
            a = _random_element(G8, rng, homogeneous=pa)
            b = _random_element(G8, rng)
            lhs = fermi_derivative(a * b, name)
            sign = -1 if pa == ODD else 1
            rhs = fermi_derivative(a, name) * b + sign * (a * fermi_derivative(b, name))
            assert allclose(lhs, rhs, 1e-12, 1e-12)


def test_soul_nilpotency():
    rng = np.random.default_rng(55)
    a = _random_element(G4, rng, sparsity=16)
    power = a.soul()
    for _ in range(len(G4)):
        power = power * a.soul()
    assert power.is_zero()


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 15), st.integers(0, 15),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_supercommutativity_property(m1, m2, c1, c2):
    x = GrassmannElement(G4, {m1: c1})
    y = GrassmannElement(G4, {m2: c2})
    sign = -1 if (m1.bit_count() & 1 and m2.bit_count() & 1) else 1
    assert allclose(x * y, sign * (y * x), 1e-12, 1e-12)


def test_exp_ln_roundtrip():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = _random_element(G8, rng, homogeneous=EVEN)
        a = a - a.body() + (2.0 + 0.3j)  # keep the body in the principal domain
        assert allclose(analytic_lift("exp", analytic_lift("ln", a)), a, 1e-12, 1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_and_layout():
    tp, a0 = gen(G4, "theta_plus"), gen(G4, "a0")
    e = 2.5 * one(G4) + (tp * a0) * (1 - 2j)
    data = element_to_json(e)
    assert data == [
        {"monomial": [], "re": 2.5, "im": 0.0},
        {"monomial": ["theta_plus", "a0"], "re": 1.0, "im": -2.0},
    ]
    back = GrassmannElement(G4, {
        sum(1 << G4.index(n) for n in entry["monomial"]): complex(entry["re"], entry["im"])
        for entry in data})
    assert allclose(back, e, 0, 0)


def test_json_entries_sorted_lexicographically():
    tm, a0, a1 = (gen(G4, n) for n in ("theta_minus", "a0", "a1"))
    e = (a0 * a1) * 1.0 + tm * 2.0
    monos = [entry["monomial"] for entry in element_to_json(e)]
    assert monos == sorted(monos)

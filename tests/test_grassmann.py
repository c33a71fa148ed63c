"""Grassmann kernel: products, derivations, analytic lifts, and algebra laws."""

import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susygordon.darboux import SeedParams, darboux_chain, generator_set
from susygordon.errors import GeneratorMismatchError, JetBudgetError, ParityError, SingularBodyError
from susygordon import grassmann
from susygordon.grassmann import (
    EVEN,
    INHOMOGENEOUS,
    MAX_GENERATORS,
    ODD,
    GeneratorSet,
    GrassmannElement,
    allclose,
    analytic_lift,
    element_to_json,
    fermi_derivative,
    ginv,
    CONSTANT,
    gmul,
    parity,
)
from susygordon.jets import JetScalar, scalar_is_zero
from susygordon.superfield import SuperspacePoint, d_minus, d_plus, dx_plus

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


# ---------------------------------------------------------------------------
# the packed product against the dict-of-coefficients product it replaced
# ---------------------------------------------------------------------------

def oracle_sign(ma, mb):
    """(-1) to the number of generator pairs (i in ma, j in mb) with i > j."""
    swaps = sum(1 for i in range(64) if ma >> i & 1 for j in range(i) if mb >> j & 1)
    return -1 if swaps & 1 else 1


def oracle_drop_zeros(terms):
    return {m: c for m, c in terms.items() if not scalar_is_zero(c)}


def oracle_product(a, b, signed=True):
    """The monomial -> coefficient double loop, dropping each exact zero."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue  # repeated generator
            m = ma | mb
            c = ca * cb
            if signed and oracle_sign(ma, mb) < 0:
                c = -c
            out[m] = out[m] + c if m in out else c
    return oracle_drop_zeros(out)


def oracle_sum(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out[m] + c if m in out else c
    return oracle_drop_zeros(out)


def oracle_scale(a, factor):
    return oracle_drop_zeros({m: c * factor for m, c in a.items()})


def oracle_shift(a, var):
    """Coefficient-wise bosonic derivative; a constant contributes nothing."""
    return oracle_drop_zeros({m: c.derivative(var) for m, c in a.items()
                              if isinstance(c, JetScalar)})


def oracle_fermi(a, gens, name):
    bit = 1 << gens.index(name)
    return {m ^ bit: (-c if (m & (bit - 1)).bit_count() & 1 else c)
            for m, c in a.items() if m & bit}


def magnitudes(terms):
    return {m: JetScalar(np.abs(c.c)) if isinstance(c, JetScalar) else abs(c)
            for m, c in terms.items()}


def kind_of(c):
    """A coefficient's kind and known jet shape: ``None`` for a constant."""
    return c.c.shape[-3:] if isinstance(c, JetScalar) else None


def stored_beyond_known(elem):
    """Largest magnitude a block stores past a monomial's known jet shape (a
    constant is known everywhere but holds only its value): the packed layout
    keeps it at zero, so magnitudes and zero tests see only known orders."""
    worst = 0.0
    for row, shape in zip(elem.block, elem.layout.shapes):
        beyond = np.ones(row.shape[-3:], dtype=bool)
        if shape[0] == CONSTANT:
            beyond[0, 0, 0] = False
        else:
            beyond[: shape[0], : shape[1], : shape[2]] = False
        worst = max(worst, float(np.abs(row[..., beyond]).max(initial=0.0)))
    return worst


def oracle_grid(terms):
    """The largest known jet shape, a constant counting as ``(1, 1, 1)``."""
    shapes = [c.c.shape[-3:] for c in terms.values() if isinstance(c, JetScalar)]
    return tuple(map(max, zip((1, 1, 1), *shapes)))


def oracle_support(terms):
    """The jet shape up to the last slice, on each axis, that is nonzero in
    some coefficient at some point."""
    support = (1, 1, 1)
    for c in terms.values():
        if isinstance(c, JetScalar):
            used = np.argwhere(c.c.reshape((-1,) + c.c.shape[-3:]))[:, 1:]
            support = tuple(map(max, support, used.max(axis=0, initial=0) + 1))
    return support


def assert_matches_oracle(got, want, bound=None, support=None):
    """Same monomials, same known shapes, values within ``64 eps`` of ``bound``;
    the block's jet axes are ``support`` cut to the known grid, never past it."""
    assert stored_beyond_known(got) == 0.0
    terms = got.terms
    assert set(terms) == set(want)
    if want:
        grid = oracle_grid(want)
        assert all(s <= g for s, g in zip(got.block.shape[-3:], grid))
        if support is not None:
            assert got.block.shape[-3:] == tuple(map(min, grid, support))
    for m, c in want.items():
        assert kind_of(terms[m]) == kind_of(c), m
        if bound is None:
            continue
        g = terms[m].c if isinstance(terms[m], JetScalar) else terms[m]
        w = c.c if isinstance(c, JetScalar) else c
        b = bound[m].c if isinstance(bound[m], JetScalar) else bound[m]
        assert np.all(np.abs(g - w) <= 64 * np.finfo(float).eps * b), m


def random_coefficient(rng, kind, shape, points):
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "complex":
        return complex(values.flat[0])
    if kind == "batch":
        return JetScalar(values + rng.normal(size=(points,) + shape))
    return JetScalar(values)


def random_terms(rng, count, monomials, shapes, kinds, points):
    chosen = rng.choice(len(monomials), size=min(count, len(monomials)), replace=False)
    return {monomials[i]: random_coefficient(rng, kinds[rng.integers(len(kinds))],
                                             shapes[rng.integers(len(shapes))], points)
            for i in chosen}


def restricted(rng, terms, support):
    """The jet coefficients zeroed past a support, keeping their known shapes:
    ``"origin"`` keeps the value only, ``"lambda-free"`` the lambda-order-0
    slice, and ``"one-point"`` the lambda-order-0 slice except at one point of
    a batch (so only that point gives the element its lambda order)."""
    if support is None:
        return terms
    keep = rng.integers(3)  # the point that keeps its lambda orders

    def cut(c):
        if not isinstance(c, JetScalar):
            return c
        out = np.zeros_like(c.c)
        if support == "origin":
            out[..., 0, 0, 0] = c.c[..., 0, 0, 0]
            return JetScalar(out)
        out[..., :1] = c.c[..., :1]
        if support == "one-point" and len(c.c) > 1:
            out[keep] = c.c[keep]
        return JetScalar(out)
    return {m: cut(c) for m, c in terms.items()}


def product_support(sa, sb):
    return tuple(p + q - 1 for p, q in zip(sa, sb))


def sum_support(sa, sb):
    return tuple(map(max, sa, sb))


def nonzero_pairs(sx, sy, grid):
    """How many products ``x[p] y[q]`` with ``p``, ``q`` inside the supports
    ``sx``, ``sy`` land on ``grid``."""
    return math.prod(sum(min(m, g - p) for p in range(n)) for n, m, g in zip(sx, sy, grid))


@contextlib.contextmanager
def shifted_products():
    """Run every jet product through the shifted kernel and record, per call,
    the supports and grid it was given and how many entry products it made."""
    calls, steps = [], grassmann._shift_steps

    def counted(sx, sy, grid):
        got = steps(sx, sy, grid)
        made = sum(math.prod(s.stop - s.start for s in out) for _, out, _ in got)
        calls.append((sx, sy, grid, made))
        return got
    with mock.patch.object(grassmann, "_shift_steps", counted), \
            mock.patch.object(grassmann, "GATHER_ROWS", 0):
        yield calls


FULL = (3, 3, 2)
#: the default jet shape and the shapes one or two bosonic derivatives leave
SHAPES = [FULL, (2, 3, 2), (3, 2, 2), (2, 2, 2), (1, 3, 2), (3, 3, 1)]


SUPPORTS = [None, "lambda-free", "origin", "one-point"]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.integers(0, 8), st.integers(0, 8),
       st.sampled_from([("complex",), ("jet",), ("complex", "jet"), ("complex", "jet", "batch"),
                        ("batch",)]),
       st.sampled_from([SHAPES[:1], SHAPES]),
       st.sampled_from([None, "x_plus", "x_minus", "lambda"]),
       st.booleans(), st.sampled_from(SUPPORTS), st.sampled_from(SUPPORTS))
def test_packed_product_matches_dict_oracle(n, seed, count_a, count_b, kinds, shapes, shift,
                                            cancel, support_a, support_b):
    rng = np.random.default_rng(seed)
    gens = GeneratorSet(tuple(f"g{i}" for i in range(n)))
    monomials = list(range(1 << n))
    if cancel and n >= 3:
        # every other monomial holds the top generator, so only the pairs
        # (g0, g1) and (g1, g0) reach g0*g1, and they cancel exactly
        top = 1 << (n - 1)
        monomials = [m | top for m in monomials if m | top != top]
    a = random_terms(rng, count_a, monomials, shapes, kinds, 3)
    b = random_terms(rng, count_b, monomials, shapes, kinds, 3)
    if cancel and n >= 3:
        u = random_coefficient(rng, kinds[-1], shapes[-1], 3)
        v = random_coefficient(rng, kinds[0], shapes[0], 3)
        a.update({0b01: u, 0b10: u})
        b.update({0b01: v, 0b10: v})
    a, b = restricted(rng, a, support_a), restricted(rng, b, support_b)
    x, y = GrassmannElement(gens, a), GrassmannElement(gens, b)
    # a block built from data is cut to the support its values have
    assert_matches_oracle(x, oracle_drop_zeros(a), support=oracle_support(a))
    assert_matches_oracle(y, oracle_drop_zeros(b), support=oracle_support(b))
    if shift is not None:
        # shapes shrunk by a derivative, through the packed derivative itself;
        # one free of the variable is zero, once its known orders allow it
        try:
            want = oracle_shift(a, shift)
        except JetBudgetError:
            with pytest.raises(JetBudgetError):
                x.derivative(shift)
            return
        axis = ("x_plus", "x_minus", "lambda").index(shift)
        support = tuple(s - (k == axis) for k, s in enumerate(x.block.shape[-3:]))
        x, a = x.derivative(shift), want
        assert_matches_oracle(x, a, magnitudes(a), support)
    sx, sy = x.block.shape[-3:], y.block.shape[-3:]
    want = oracle_product(a, b)
    bound = oracle_product(magnitudes(a), magnitudes(b), signed=False)
    assert_matches_oracle(x * y, want, bound, product_support(sx, sy))
    if cancel and n >= 3:
        assert 0b11 not in want and 0b11 not in (x * y).terms
    # the shifted kernel makes only the products of entries inside both supports
    with shifted_products() as calls:
        assert_matches_oracle(x * y, want, bound, product_support(sx, sy))
    for got_x, got_y, grid, made in calls:
        cut_x, cut_y = tuple(map(min, sx, grid)), tuple(map(min, sy, grid))
        assert (got_x, got_y) == (cut_x, cut_y)
        assert made == nonzero_pairs(cut_x, cut_y, grid)
    bound = oracle_sum(magnitudes(a), magnitudes(b))
    xy = oracle_sum(a, b)
    assert_matches_oracle(x + y, xy, bound, sum_support(sx, sy))
    assert_matches_oracle(x - y, oracle_sum(a, oracle_scale(b, -1)), bound, sum_support(sx, sy))
    # the monomials only y holds cancel exactly and are dropped
    bound = oracle_sum(bound, magnitudes(b))
    support = sum_support(tuple(map(min, oracle_grid(xy), sum_support(sx, sy))), sy)
    assert_matches_oracle((x + y) - y, oracle_sum(xy, oracle_scale(b, -1)), bound, support)


def test_lambda_derivative_of_a_lambda_free_element():
    """A value free of lambda keeps one lambda slot but its known lambda order:
    d_lambda gives zero where the known shape allows it, and runs out of budget
    where the parent's known shape did."""
    gens = GeneratorSet(("g0", "g1"))
    rng = np.random.default_rng(7)
    jet = rng.normal(size=FULL) + 1j * rng.normal(size=FULL)
    jet[..., 1] = 0
    x = GrassmannElement(gens, {0: JetScalar(jet), 0b11: 2.0 + 0j})
    assert x.block.shape == (2, 1, 3, 3, 1)
    assert x.terms[0].c.shape == (1,) + FULL and np.array_equal(x.terms[0].c[0], jet)
    assert x.derivative("lambda").is_zero()
    assert x.derivative("x_plus").block.shape == (1, 1, 2, 3, 1)
    short = GrassmannElement(gens, {0: JetScalar(jet[..., :1])})
    assert short.block.shape == (1, 1, 3, 3, 1)
    with pytest.raises(JetBudgetError):
        short.derivative("lambda")


def test_packed_product_at_sixty_four_generators():
    gens = GeneratorSet(tuple(f"g{i}" for i in range(MAX_GENERATORS)))
    high, low = 1 << 63, 1 << 62
    rng = np.random.default_rng(64)
    a = {high: JetScalar(rng.normal(size=FULL) + 0j), 1: 2.0 - 1j,
         low | 2: JetScalar(rng.normal(size=(2, 3, 2)) + 0j)}
    b = {low: 0.5 + 0j, 2 | 1: JetScalar(rng.normal(size=FULL) + 1j), high | 4: -1.5 + 0j}
    x, y = GrassmannElement(gens, a), GrassmannElement(gens, b)
    want = oracle_product(a, b)
    assert high | low in want and high | 2 | 1 in want
    assert_matches_oracle(x * y, want, oracle_product(magnitudes(a), magnitudes(b), signed=False))
    assert_matches_oracle(y * x, oracle_product(b, a),
                          oracle_product(magnitudes(b), magnitudes(a), signed=False))
    # the top generator is the last in canonical order: moving it past g62 flips the sign
    tail = GrassmannElement.generator(gens, "g63") * GrassmannElement.generator(gens, "g62")
    assert tail.terms == {high | low: -1 + 0j}
    assert fermi_derivative(tail, "g63").terms == {low: 1 + 0j}


def test_covariant_derivative_keeps_each_monomials_known_order():
    seeds = [SeedParams(lam=0.6, c=1.4 + 0.3j, b=0.2, a="a0"),
             SeedParams(lam=1.7, c=0.9 - 0.2j, b=-0.1, a="a1")]
    chain = darboux_chain(0, seeds, 2)
    pt = SuperspacePoint(0.3, -0.2, 1.1, gens=generator_set(seeds))
    v = chain.solutions[1].evaluate(pt)
    plus = 1 << pt.gens.index("theta_plus")
    w = d_plus(v)
    # the theta_plus-free monomials come from d/dtheta+ and keep the full jet,
    # the theta_plus ones from theta+ d/dx+ and lose one x+ order
    assert {kind_of(c) for m, c in w.terms.items() if not m & plus} == {FULL}
    assert {kind_of(c) for m, c in w.terms.items() if m & plus} == {(2, 3, 2)}
    # the same steps through the dict oracle give the same monomials and shapes
    vt = v.terms
    theta = {plus: 1.0 + 0.0j}
    wt = oracle_sum(oracle_fermi(vt, pt.gens, "theta_plus"),
                    oracle_scale(oracle_product(theta, oracle_shift(vt, "x_plus")), -1j))
    assert_matches_oracle(w, wt)
    u = chain.solutions[2].evaluate(pt)
    x, xt = u * w, oracle_product(u.terms, wt)        # one more product
    assert_matches_oracle(x, xt)
    y, yt = x + d_minus(v), oracle_sum(xt, d_minus(v).terms)    # a sum of mixed orders
    assert_matches_oracle(y, yt)
    assert len({kind_of(c) for c in y.terms.values()}) > 1
    # dx_plus runs out where the oracle does, on the monomials known to fewer orders
    for step in range(4):
        try:
            yt = oracle_shift(yt, "x_plus")
        except JetBudgetError:
            with pytest.raises(JetBudgetError):
                dx_plus(y)
            break
        y = dx_plus(y)
        assert_matches_oracle(y, yt)
    else:
        pytest.fail("dx_plus never ran out of x+ orders")
    assert step == 1


@pytest.mark.parametrize("budget", ["one-row", "between-runs", "below-longest-run", "default"])
def test_chunked_product_matches_dict_oracle(monkeypatch, budget):
    # full 6-generator elements: long runs, through the jet-major kernel in
    # chunks of whole runs
    gens = GeneratorSet(tuple(f"g{i}" for i in range(6)))
    rng = np.random.default_rng(sum(map(ord, budget)))
    chunked = grassmann._Product.chunks
    for kinds, points in ((("complex", "jet"), 1), (("jet", "batch"), 4)):
        a = random_terms(rng, 40, list(range(64)), SHAPES, kinds, points)
        b = random_terms(rng, 40, list(range(64)), SHAPES, kinds, points)
        x, y = GrassmannElement(gens, a), GrassmannElement(gens, b)
        pairs = grassmann._plan(grassmann._Product, x.layout, y.layout)
        longest = int(np.diff(np.append(pairs.starts, len(pairs.ia))).max())
        assert longest > 2
        rows = {"one-row": 1, "between-runs": 3 * longest * points,
                "below-longest-run": (longest - 1) * points,
                "default": grassmann.SHIFT_ROWS}[budget]
        monkeypatch.setattr(grassmann, "SHIFT_ROWS", rows)
        if budget != "default":
            monkeypatch.setattr(grassmann, "GATHER_ROWS", 0)
        seen = []

        def recorded(table, limit):
            got = chunked(table, limit)
            seen.append((table, limit, got))
            return got
        monkeypatch.setattr(grassmann._Product, "chunks", recorded)
        assert_matches_oracle(x * y, oracle_product(a, b),
                              oracle_product(magnitudes(a), magnitudes(b), signed=False))
        monkeypatch.undo()
        assert len(seen) == 1 and seen[0][0] is pairs
        _, limit, got = seen[0]
        assert limit == max(1, rows // points)
        # the chunks cover the pairs in order and end at whole runs; only a
        # chunk of one run may pass the budget
        assert [c[0] for c in got] == [0] + [c[1] for c in got[:-1]]
        assert got[-1][1] == len(pairs.ia) and [c[2] for c in got] == [0] + [c[3] for c in got[:-1]]
        for k0, k1, o0, o1, starts in got:
            assert k0 == pairs.starts[o0] and k1 == (pairs.starts[o1] if o1 < len(pairs.starts)
                                                     else len(pairs.ia))
            assert np.array_equal(starts, pairs.starts[o0:o1] - k0)
            assert k1 - k0 <= limit or o1 == o0 + 1
        sizes = [o1 - o0 for _, _, o0, o1, _ in got]
        if budget == "one-row":
            assert set(sizes) == {1}
        elif budget == "between-runs":
            assert len(got) > 1 and max(sizes) > 1
        elif budget == "below-longest-run":
            assert any(k1 - k0 > limit for k0, k1, *_ in got)


# ---------------------------------------------------------------------------
# the jet-major product against the rows-innermost shifted product it replaced
# ---------------------------------------------------------------------------

PARENT_GATHER_ROWS, PARENT_SHIFT_ROWS = 150, 512


def parent_with_points(a, b):
    """Give a rank-3 row block a point axis of length 1 when the other has one
    (the parent's rank-3 blocks; a block now always has its point axis)."""
    if a.ndim == b.ndim:
        return a, b
    return (a[:, None], b) if a.ndim < b.ndim else (a, b[:, None])


def parent_pair_sums(a, b, pairs, grid):
    """The product kernel before the jet-major one, for a product that it ran
    as one shifted chunk (more than ``PARENT_GATHER_ROWS`` pair rows, at most
    ``PARENT_SHIFT_ROWS``): the signed pair rows gathered row-major, copied
    rows-innermost, summed by shifted slices, copied back and summed per run."""
    x = a.take(pairs.ia, axis=0)
    if pairs.neg is not None:
        np.negative(x, out=x, where=pairs.neg[(slice(None),) + (None,) * (x.ndim - 1)])
    x, y = parent_with_points(grassmann._crop(x, grid),
                              grassmann._crop(b.take(pairs.ib, axis=0), grid))
    if x.shape[-3:] == (1, 1, 1) or y.shape[-3:] == (1, 1, 1):
        out = x * y
    else:
        lead = np.broadcast_shapes(x.shape[:-3], y.shape[:-3])
        n = len(lead)
        axes = tuple(range(n, n + 3)) + tuple(range(n))
        sx, sy, rows = x.shape[-3:], y.shape[-3:], (math.prod(lead),)
        xt = np.ascontiguousarray(np.broadcast_to(x, lead + sx).transpose(axes)).reshape(sx + rows)
        yt = np.ascontiguousarray(np.broadcast_to(y, lead + sy).transpose(axes)).reshape(sy + rows)
        (xs, os, ys), *rest = grassmann._shift_steps(sx, sy, grid)
        out = np.zeros(grid + rows, dtype=complex)
        np.multiply(xt[xs], yt[ys], out=out[os])
        for xs, os, ys in rest:
            out[os] += xt[xs] * yt[ys]
        back = tuple(range(3, 3 + n)) + (0, 1, 2)
        out = np.ascontiguousarray(out.reshape(grid + lead).transpose(back))
    return out if pairs.single else np.add.reduceat(out, pairs.starts, axis=0)


def one_shifted_chunk(pairs, points):
    return PARENT_GATHER_ROWS < len(pairs.ia) * points <= PARENT_SHIFT_ROWS // points * points


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("shape", [(3, 3, 1), FULL])
@pytest.mark.parametrize("points", [(1, 1), (20, 20), (1, 20), (20, 1)])
def test_jet_major_product_matches_parent_kernel(points, shape, signed):
    """Bit for bit the parent kernel's sums wherever it ran a product as one
    shifted chunk: 1-point and 20-point blocks, (3, 3, 1) and (3, 3, 2) grids,
    mixed supports, with and without reordering signs; within the dict
    oracle's bound elsewhere."""
    rng = np.random.default_rng([*points, shape[2], signed])
    batched = max(points) > 1
    # from 8 to 512 // 20 pairs in a batch, from 151 to 512 without one
    if signed:  # odd pairs reorder, and several pairs land on one monomial
        size = 4 if batched else 6
        monomials = list(range(1 << size)), list(range(1 << size))
        counts = (4, 9) if batched else (40, 41)
    else:  # every generator of a comes before every one of b: no pair reorders
        size = 8
        monomials = list(range(16)), [m << 4 for m in range(16)]
        counts = (3, 6) if batched else (16, 17)
    gens = GeneratorSet(tuple(f"g{i}" for i in range(size)))
    matched = 0
    for _ in range(40):
        a, b = (restricted(rng, random_terms(rng, rng.integers(*counts), mono, [shape],
                                             ("jet", "batch", "batch") if n > 1 else
                                             ("complex", "jet"), n),
                           SUPPORTS[rng.integers(len(SUPPORTS))])
                for mono, n in zip(monomials, points))
        x, y = GrassmannElement(gens, a), GrassmannElement(gens, b)
        pairs = grassmann._plan(grassmann._Product, x.layout, y.layout)
        if not pairs.layout.keys:
            continue
        assert (pairs.neg is not None) == signed or batched
        sa, sb = x.block.shape[-3:], y.block.shape[-3:]
        grid = tuple(min(g, p + q - 1) for g, p, q in zip(pairs.layout.grid, sa, sb))
        if one_shifted_chunk(pairs, max(x.points(), y.points(), 1)):
            got = grassmann._pair_sums(x.block, y.block, pairs, grid)
            assert np.array_equal(got, parent_pair_sums(x.block, y.block, pairs, grid))
            matched += 1
        assert_matches_oracle(x * y, oracle_product(a, b),
                              oracle_product(magnitudes(a), magnitudes(b), signed=False))
        if matched == 4:
            break
    assert matched == 4

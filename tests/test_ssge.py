"""Residual evaluators: Lax pairs, zero curvature, LSP, Riccati, Backlund, scaling."""

import cmath
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import sample_grid
from susygordon.darboux import (
    SeedParams,
    darboux_chain,
    generator_set,
    lsp_normalized_triple,
    seed_trivial,
    seed_wavefunction,
    values_match_mod_2pi,
)
from susygordon import ssge
from susygordon.errors import LaxConsistencyError, ParityError
from susygordon.grassmann import EVEN, ODD, GrassmannElement, allclose, analytic_lift, ginv
from susygordon.jets import JetScalar, peak, scalar_value
from susygordon.ssge import (
    backlund_residuals,
    build_lax_bosonic,
    fermionic_u_pair,
    lsp_residual,
    residual_magnitude,
    riccati_from_wavefunction,
    riccati_residuals,
    scaling_map,
    ssge_residual,
    zcc_bosonic_residual,
    zcc_fermionic_residual,
)
from susygordon.superfield import (
    Superfield,
    SuperspacePoint,
    combine,
    constant_superfield,
    d_minus,
    d_plus,
    dx_minus,
    dx_plus,
)
from susygordon.supermatrix import SuperMatrix

SEEDS = [SeedParams(lam=0.6, c=1.2 + 0.1j, b=0.1 - 0.04j, a="a0"),
         SeedParams(lam=1.7, c=1.0 - 0.15j, b=0.08 + 0.05j, a="a1")]
GENS = generator_set(SEEDS)


def points(count=6, seed=3):
    rng = np.random.default_rng(seed)
    return [SuperspacePoint(complex(rng.uniform(-0.4, 0.4)), complex(rng.uniform(-0.4, 0.4)),
                            complex(rng.uniform(0.5, 2.0)), gens=GENS) for _ in range(count)]


@pytest.fixture(scope="module")
def chain():
    return darboux_chain(0, SEEDS, 2)


def nonsolutions(chain):
    s1 = chain.solutions[1]
    return [
        Superfield(lambda pt: pt.scalar(pt.xp_jet()), EVEN, "x+"),
        Superfield(lambda pt: pt.scalar(pt.xp_jet() * pt.xm_jet()), EVEN, "x+x-"),
        constant_superfield(0.3, "0.3"),
        combine(EVEN, "s1+0.1", lambda v: v + 0.1, s1),
        Superfield(lambda pt: (pt.theta("+") * pt.theta("-")) * 0.7, EVEN, "0.7 tt"),
    ]


# ---------------------------------------------------------------------------
# the equation residual
# ---------------------------------------------------------------------------

def test_trivial_solution_residual_vanishes():
    for k in (0, 3, -2):
        s = seed_trivial(k)
        for pt in points(3):
            assert residual_magnitude(ssge_residual(s, pt)) < 1e-12


def test_linear_field_is_not_a_solution():
    s = Superfield(lambda pt: pt.scalar(pt.xp_jet()), EVEN, "x+")
    pt = SuperspacePoint(0.4, -0.3, 1.0, gens=GENS)
    res = ssge_residual(s, pt)
    # D+D- x+ = 0, so the residual is -i sin(x+)
    assert abs(scalar_value(res.body()) + 1j * np.sin(0.4)) < 1e-12


def test_darboux_solutions_satisfy_equation(chain):
    for n in (1, 2):
        for pt in points(4):
            assert residual_magnitude(ssge_residual(chain.solutions[n], pt)) < 1e-10


# ---------------------------------------------------------------------------
# fermionic Lax pair and zero curvature
# ---------------------------------------------------------------------------

def test_u_matrices_structure():
    s = seed_trivial(1)
    pt = SuperspacePoint(0.1, 0.2, 1.0, gens=GENS)
    pair = fermionic_u_pair(s, pt, pt.lam_jet().analytic("sqrt"))
    # at s = 2k pi and lambda = 1: U+(1,3) = i e^{is}/(2 sqrt(lam)) = i/2
    assert abs(scalar_value(pair.u_plus.entry(0, 2).body()) - 0.5j) < 1e-12
    assert pair.u_plus.parity == ODD and pair.u_minus.parity == ODD
    assert pair.u_plus.supertrace().max_abs() < 1e-14
    assert pair.u_minus.supertrace().max_abs() < 1e-14


def test_zcc_fermionic(chain):
    for pt in points(4):
        assert residual_magnitude(zcc_fermionic_residual(seed_trivial(0), pt)) < 1e-12
        assert residual_magnitude(zcc_fermionic_residual(chain.solutions[1], pt)) < 1e-10
        assert residual_magnitude(zcc_fermionic_residual(chain.solutions[2], pt)) < 1e-10


def test_zcc_rejects_nonsolutions(chain):
    pts = points(4)
    for s in nonsolutions(chain):
        worst_f = max(residual_magnitude(zcc_fermionic_residual(s, pt)) for pt in pts)
        worst_b = max(residual_magnitude(zcc_bosonic_residual(s, pt)) for pt in pts)
        assert worst_f > 1e-3, s.label
        assert worst_b > 1e-3, s.label


# ---------------------------------------------------------------------------
# bosonic Lax pair and the classical zero curvature
# ---------------------------------------------------------------------------

def test_v_matrices_closed_form_entries(chain):
    pt = SuperspacePoint(0.2, -0.1, 1.4, gens=GENS)
    pair = build_lax_bosonic(chain.solutions[1], pt)
    # (1,1) entry of V+ is 1/(4 lambda); (3,3) of V- is -2 lambda
    assert abs(scalar_value(pair.v_plus.entry(0, 0).body()) - 1 / (4 * 1.4)) < 1e-12
    assert abs(scalar_value(pair.v_minus.entry(2, 2).body()) + 2 * 1.4) < 1e-12
    assert pair.v_plus.supertrace().max_abs() < 1e-12
    assert pair.v_minus.supertrace().max_abs() < 1e-12


def test_v_consistency_defining_vs_closed(chain):
    for pt in points(5):
        for s in (seed_trivial(0), chain.solutions[1], chain.solutions[2]):
            assert build_lax_bosonic(s, pt).defect < 1e-12


def test_lax_guard_catches_one_entry_off_by_a_millionth(chain, monkeypatch):
    """The consistency tolerance (1e-9 of the matrix scale) catches a
    closed-form V+ entry scaled by 1 + 1e-6; a tolerance of 1e-3 would not."""
    assert ssge.LAX_CONSISTENCY_TOL == 1e-9
    pt = SuperspacePoint(0.2, -0.1, 1.4, gens=GENS)
    s = chain.solutions[1]
    build_lax_bosonic(s, pt)
    closed = ssge.bosonic_v_pair_closed

    def skewed(s, pt, lam, sqrt_lam):
        v_plus, v_minus = closed(s, pt, lam, sqrt_lam)
        rows = [list(row) for row in v_plus.rows]
        rows[0][0] = rows[0][0] * (1 + 1e-6)
        return SuperMatrix(rows), v_minus

    monkeypatch.setattr(ssge, "bosonic_v_pair_closed", skewed)
    with pytest.raises(LaxConsistencyError):
        build_lax_bosonic(s, pt)


def test_zcc_bosonic_catches_a_closed_entry_off_by_a_millionth(deep, deep_points, monkeypatch):
    """zcc_bosonic_residual reads the grades of the closed V+- alone, so the
    residual itself must see a closed entry that is slightly off: with the
    grade behind V+[0, 0] (A[0, 0] = 1/4) scaled by 1 + 1e-6, the deep chain's
    residual passes its 1e-10 gate."""
    seeds, _ = deep
    s = darboux_chain(0, seeds, len(seeds)).solution()
    batch = SuperspacePoint.batch(deep_points[:3])
    assert np.all(residual_magnitude(zcc_bosonic_residual(s, batch)) < 1e-10)
    grades = ssge.lax_grades

    def skewed(s, pt, pair):
        plus, minus = grades(s, pt, pair)
        rows = [list(row) for row in plus[-1].rows]
        rows[0][0] = rows[0][0] * (1 + 1e-6)
        return {**plus, -1: SuperMatrix(rows)}, minus

    monkeypatch.setattr(ssge, "lax_grades", skewed)
    assert np.max(residual_magnitude(zcc_bosonic_residual(s, batch))) > 1e-10


def deep_chain_on_a_batch(deep):
    """The deep chain and a 3-point batch of its generators (grid seed 5)."""
    seeds, gens = deep
    return darboux_chain(0, seeds, len(seeds)), SuperspacePoint.batch(sample_grid(gens, count=3, seed=5))


def test_zero_curvatures_vanish_grade_by_grade(deep):
    """Both Lax pairs are polynomials in sqrt(lambda) with lambda-free grades,
    so on a solution each grade of each zero curvature vanishes on its own:
    on s[1] ... s[4] of the deep chain, every grade is at most 1e-10 per point
    (s[4] reads 9.4e-13 at worst)."""
    chain, batch = deep_chain_on_a_batch(deep)
    for s in chain.solutions[1:]:
        for pair, powers in (("fermionic", [-0.5, 0]), ("bosonic", [-1, -0.5, 0, 0.5])):
            grades = ssge.zcc_grades(s, batch, pair)
            assert sorted(grades) == powers
            for k, grade in grades.items():
                assert np.all(residual_magnitude(grade) <= 1e-10), (s.label, pair, k)


def test_zero_curvature_grades_on_a_non_solution(deep):
    """On the non-solution 0.7 s[2] + 0.2 of the deep chain, with
    R = D+ D- s - i sin s (|R| about 0.25), at 1e-12 max(1, |R|) per point:
    the bosonic G_-1 vanishes, G_1/2 = D+ R [[0, 0, 1], [0, 0, 1], [i, i, 0]],
    the fermionic G_-1/2 vanishes and G_0 = diag(i R, -i R, 0) (all read
    1.8e-15 or less).  The other bosonic grades do not vanish there: G_0,
    G_-1/2 and G_1/2 each exceed 0.1 (0.45, 0.15 and 0.25).  How G_0 and
    G_-1/2 follow from R is open."""
    chain, batch = deep_chain_on_a_batch(deep)
    s = combine(EVEN, "0.7 s2 + 0.2", lambda v: 0.7 * v + 0.2, chain.solutions[2])
    r = ssge_residual(s, batch)
    dr, zero = d_plus(r), GrassmannElement.zero(r.gens)
    bosonic, fermionic = (ssge.zcc_grades(s, batch, pair) for pair in ("bosonic", "fermionic"))
    for got, rows in ((bosonic[-1], [[zero] * 3] * 3),
                      (bosonic[0.5], [[zero, zero, dr], [zero, zero, dr], [1j * dr, 1j * dr, zero]]),
                      (fermionic[-0.5], [[zero] * 3] * 3),
                      (fermionic[0], [[1j * r, zero, zero], [zero, -1j * r, zero], [zero] * 3])):
        assert np.all(residual_magnitude(got - SuperMatrix(rows))
                      <= 1e-12 * peak((1.0, r.max_abs())))
    for k in (0, -0.5, 0.5):
        assert np.all(residual_magnitude(bosonic[k]) > 0.1), k


def test_graded_zero_curvatures_match_the_ungraded_ones(deep):
    """Differential test against the computation the grades replace: on the
    non-solution above, d/dx+ V- - d/dx- V+ + [V-, V+] from the assembled V+-
    and D+ U- + D- U+ - {E U+, E U-} from U+- (both at the point's lambda)
    match zcc_bosonic_residual and zcc_fermionic_residual at
    1e-12 max(1, |Z|) per point (1.4e-15 and 6.7e-16, at |Z| 0.45 and 0.25)."""
    chain, batch = deep_chain_on_a_batch(deep)
    s = combine(EVEN, "0.7 s2 + 0.2", lambda v: 0.7 * v + 0.2, chain.solutions[2])
    lam = batch.lam_jet()
    sqrt_lam = lam.analytic("sqrt")
    v_plus, v_minus = ssge.bosonic_v_pair_closed(s, batch, lam, sqrt_lam)
    pair = fermionic_u_pair(s, batch, sqrt_lam)
    ungraded = {
        zcc_bosonic_residual: (v_minus.map_entries(dx_plus) - v_plus.map_entries(dx_minus)
                               + v_minus.bracket(v_plus)),
        zcc_fermionic_residual: (pair.u_minus.map_entries(d_plus) + pair.u_plus.map_entries(d_minus)
                                 - pair.u_plus.e_twist().bracket(pair.u_minus.e_twist(),
                                                                 "anticommutator")),
    }
    for residual, want in ungraded.items():
        assert np.all(residual_magnitude(want) > 0.1)
        assert np.all(residual_magnitude(residual(s, batch) - want)
                      <= 1e-12 * peak((1.0, want.max_abs()))), residual.__name__


def test_lax_grades_times_their_powers_bit_for_bit(deep):
    """Given the powers of lambda, lax_grades writes each fixed factor times
    its power into one scaling per entry (the assembled U+- and V+- take
    them); the factors are units and powers of two, so each grade equals the
    lambda-free grade times its power bit for bit (layout, block shape and
    bytes), at the point's lambda and at a constant one, for both pairs."""
    chain, batch = deep_chain_on_a_batch(deep)
    s = chain.solutions[4]
    for lam in (batch.lam_jet(), batch.const_jet(0.7)):
        sqrt_lam = lam.analytic("sqrt")
        powers = {-1: lam.reciprocal(), -0.5: sqrt_lam.reciprocal(), 0.5: sqrt_lam, 1: lam}
        for pair in ("fermionic", "bosonic"):
            for free, weighted in zip(ssge.lax_grades(s, batch, pair),
                                      ssge.lax_grades(s, batch, pair, powers)):
                assert free.keys() == weighted.keys()
                for k, grade in free.items():
                    for want, got in zip(*(sum(m.rows, ()) for m in (grade, weighted[k]))):
                        want = want if k == 0 or want.is_zero() else want * powers[k]
                        assert got.layout is want.layout and got.block.shape == want.block.shape
                        assert got.block.tobytes() == want.block.tobytes(), (pair, k)


def test_bosonic_lax_pair_lifts_each_exponential_once(deep, deep_points, monkeypatch):
    """exp(+-i s) and D- s are fields derived from s, evaluated once per
    solution and point.  Over one deep point, the equation, zcc-fermionic,
    zcc-bosonic, the LSP at every level of the deep chain and the Riccati
    check lift exp(+-i s) once per level (10, where one lift per residual made
    24) and exp(+-2i s) once each for the bosonic closed forms, and take D- of
    each level's solution once (5, where one per residual made 14)."""
    import susygordon.ssge as ssge_module

    seeds, _ = deep
    chain = darboux_chain(0, seeds, len(seeds))
    pt = deep_points[0]
    values = [s.evaluate(pt) for s in chain.solutions]  # the solutions' own lifts are not counted
    lifted, differentiated = [], []
    lift, d_minus = ssge_module.analytic_lift, ssge_module.d_minus
    monkeypatch.setattr(ssge_module, "analytic_lift", lambda name, v: (
        lifted.append((name, v)) or lift(name, v)))
    monkeypatch.setattr(ssge_module, "d_minus", lambda v: (
        differentiated.append(v) or d_minus(v)))
    top = chain.solution()
    assert residual_magnitude(ssge_residual(top, pt)) < 1e-10
    assert residual_magnitude(zcc_bosonic_residual(top, pt)) < 1e-10
    assert residual_magnitude(zcc_fermionic_residual(top, pt)) < 1e-10
    for level, triples in enumerate(chain.waves):
        for wt in triples:
            fields = wt.fields() if level == 0 else lsp_normalized_triple(wt)
            residual = lsp_residual(fields, chain.solutions[level], wt.lam, pt)
            assert residual_magnitude(residual) < 1e-10
    wt = chain.waves[0][0]
    p, q = riccati_from_wavefunction(wt.fields())
    assert residual_magnitude(riccati_residuals(p, q, chain.solutions[0], wt.lam, pt)) < 1e-10
    assert [v for name, v in lifted if name != "exp"] == [values[-1]]  # sin s of the equation
    exps = [v for name, v in lifted if name == "exp"]
    expected = [f * v for v in values for f in (1j, -1j)] + [f * values[-1] for f in (2j, -2j)]
    assert len(expected) == len(exps) == 12
    for want in expected:
        match = next(i for i, got in enumerate(exps)
                     if got.layout.keys == want.layout.keys and (got - want).max_abs() == 0.0)
        del exps[match]
    solution_values = [v for v in differentiated if any(v is w for w in values)]
    assert len(solution_values) == 5
    assert all(any(v is w for v in solution_values) for w in values)


def test_bosonic_lax_build_takes_sqrt_lambda_once(deep, deep_points, monkeypatch):
    """zcc_bosonic_residual takes sqrt(lambda) once, for the closed forms of
    V+-, and builds no U+-: the defining formula V = i (D U - (E U)^2) is the
    tests' reference (build_lax_bosonic), not part of the check."""
    seeds, _ = deep
    s = darboux_chain(0, seeds, len(seeds)).solution()
    pt = deep_points[1]
    s.evaluate(pt)
    names, pairs = [], []
    analytic, u_pair = JetScalar.analytic, ssge.fermionic_u_pair
    monkeypatch.setattr(JetScalar, "analytic", lambda jet, name: (
        names.append(name) or analytic(jet, name)))
    monkeypatch.setattr(ssge, "fermionic_u_pair", lambda *args: (
        pairs.append(args) or u_pair(*args)))
    assert residual_magnitude(zcc_bosonic_residual(s, pt)) < 1e-10
    assert names.count("sqrt") == 1 and len(pairs) == 0


def count_block_operations(monkeypatch) -> dict:
    """Counters of ``GrassmannElement.__mul__`` calls (``products``), of those
    by a number or a jet on an element of more than one monomial
    (``scalings``), and of negations of such an element (``negations``)."""
    counts = {"products": 0, "scalings": 0, "negations": 0}
    mul, neg = GrassmannElement.__mul__, GrassmannElement.__neg__

    def counted_mul(a, b):
        counts["products"] += 1
        counts["scalings"] += not isinstance(b, GrassmannElement) and len(a.layout.keys) > 1
        return mul(a, b)

    def counted_neg(a):
        counts["negations"] += len(a.layout.keys) > 1
        return neg(a)

    monkeypatch.setattr(GrassmannElement, "__mul__", counted_mul)
    monkeypatch.setattr(GrassmannElement, "__neg__", counted_neg)
    return counts


def deep_batch_with_shared_values(deep):
    """s[4] of the deep chain on a 3-point batch, with s, exp(+-i s) and D- s
    evaluated there."""
    seeds, gens = deep
    s = darboux_chain(0, seeds, len(seeds)).solution()
    batch = SuperspacePoint.batch(sample_grid(gens, count=3, seed=5))
    s.evaluate(batch)
    ssge._phases(s, batch)
    ssge._d_minus_s(s, batch)
    return s, batch


def test_zcc_bosonic_forms_each_entry_product_once(deep, monkeypatch):
    """F, the sqrt(lambda) grade of V-, holds its two odd entries twice each, so
    the brackets [F, B] and [F, A] form each of their odd-by-odd terms once.
    With s, exp(+-i s) and D- s evaluated, one zcc_bosonic_residual on a
    3-point deep batch makes at most 22 products of two elements of more than
    one monomial (30 when every bracket term was formed), and
    zcc_fermionic_residual at most 4.  The brackets run on lambda-free grades,
    so no such product has an operand with a lambda order (16 and 4 when they
    ran on V+- and U+- at the point's lambda)."""
    s, batch = deep_batch_with_shared_values(deep)
    products, mul = [], GrassmannElement.__mul__

    def recorded(a, b):
        if isinstance(b, GrassmannElement) and min(len(a.layout.keys), len(b.layout.keys)) > 1:
            products.append(max(a.block.shape[-1], b.block.shape[-1]) > 1)
        return mul(a, b)

    monkeypatch.setattr(GrassmannElement, "__mul__", recorded)
    for residual, most in ((zcc_bosonic_residual, 22), (zcc_fermionic_residual, 4)):
        products.clear()
        assert residual_magnitude(residual(s, batch)).max() < 1e-10
        assert 0 < len(products) <= most and not any(products), (residual.__name__, products)


def test_fixed_factors_are_coefficients(deep, monkeypatch):
    """On the batch above: D+ multiplies by the one-monomial -i theta+, so
    D+ D- s scales and negates no element of more than one monomial (1 each
    when it scaled theta+ d/dx+ by i and negated it).  exp lifts start at the
    soul, and the brackets with the constant grades L and E S are sums of
    entries, so zcc_bosonic_residual makes at most 59 products (63 when its
    bracket ran on V+-) and zcc_fermionic_residual at most 56 (56).  Each
    lambda-free grade scales its entries by their fixed factors, and each
    grade of the residual is scaled once by its power of lambda: at most 25
    and 16 such scalings (16 and 6, when a fixed factor rode on the jet of
    lambda).  A bracket sums each half with its signs, so an odd-by-odd term
    read back is subtracted, not negated: at most 7 and 5 negations of an
    element of more than one monomial (9 and 5 when each such term was
    negated).  Those left negate a half's first term, subtract an entry's
    whole BA half from a zero AB half, or start a constant bracket's sum."""
    s, batch = deep_batch_with_shared_values(deep)
    counts = count_block_operations(monkeypatch)
    d_plus(ssge._d_minus_s(s, batch))
    assert counts["scalings"] == counts["negations"] == 0, counts
    for residual, products, scalings, negations in ((zcc_bosonic_residual, 59, 25, 7),
                                                    (zcc_fermionic_residual, 56, 16, 5)):
        counts.update(products=0, scalings=0, negations=0)
        assert residual_magnitude(residual(s, batch)).max() < 1e-10
        assert counts["products"] <= products and counts["scalings"] <= scalings, counts
        assert counts["negations"] <= negations, counts


def test_riccati_inverts_psi_once(deep, monkeypatch):
    """p = phi/psi and q = chi/psi read one derived 1/psi: one inverse of psi
    per point, where each inverting psi on its own made two.  The triple is
    evaluated first, so the inverses behind its components are not counted."""
    import susygordon.superfield as superfield_module

    seeds, gens = deep
    chain = darboux_chain(0, seeds, 2)
    fields = lsp_normalized_triple(chain.waves[1][0])
    pt = SuperspacePoint(0.011, -0.007, 1.3, gens=gens)
    psi, _, _ = (f.evaluate(pt) for f in fields)
    inverted = []
    ginv = superfield_module.ginv
    monkeypatch.setattr(superfield_module, "ginv", lambda v: inverted.append(v) or ginv(v))
    p, q = riccati_from_wavefunction(fields)
    assert residual_magnitude(riccati_residuals(p, q, chain.solutions[1], chain.waves[1][0].lam,
                                                pt)) < 1e-10
    assert len(inverted) == 1 and inverted[0] is psi


def test_riccati_reads_the_quotients_of_the_step_consuming_its_triple(deep, monkeypatch):
    """p and q of a seed triple are the step's phi_0/psi_0 and chi_0/psi_0.
    s[1] reads psi_0/phi_0 alone; s[2] transforms the live triples by those
    quotients, so once it is evaluated, the Riccati variables invert nothing."""
    import susygordon.superfield as superfield_module

    seeds, gens = deep
    chain = darboux_chain(0, seeds, 2)
    wt = chain.waves[0][0]
    pt = SuperspacePoint(0.0147, -0.0088, 1.2, gens=gens)
    chain.solutions[2].evaluate(pt)
    inverted = []
    ginv = superfield_module.ginv
    monkeypatch.setattr(superfield_module, "ginv", lambda v: inverted.append(v) or ginv(v))
    p, q = riccati_from_wavefunction(wt.fields())
    assert p is wt.ratio("phi", "psi") and q is wt.ratio("chi", "psi")
    assert residual_magnitude(riccati_residuals(p, q, chain.solutions[0], wt.lam, pt)) < 1e-10
    assert inverted == []


def test_zcc_bosonic(chain):
    for pt in points(4):
        assert residual_magnitude(zcc_bosonic_residual(seed_trivial(0), pt)) < 1e-12
        assert residual_magnitude(zcc_bosonic_residual(chain.solutions[1], pt)) < 1e-10
        assert residual_magnitude(zcc_bosonic_residual(chain.solutions[2], pt)) < 1e-10


# ---------------------------------------------------------------------------
# linear spectral problem
# ---------------------------------------------------------------------------

def test_seed_wavefunction_satisfies_lsp():
    s = seed_trivial(0)
    for params in SEEDS:
        triple = seed_wavefunction(params)
        for pt in points(4):
            rp, rm = lsp_residual(triple, s, params.lam, pt)
            assert residual_magnitude((rp, rm)) < 1e-10


def test_lsp_zero_and_constant_columns():
    s = seed_trivial(0)
    zero = Superfield(lambda pt: GrassmannElement.zero(pt.gens), EVEN, "0")
    zero_odd = Superfield(lambda pt: GrassmannElement.zero(pt.gens), ODD, "0")
    pt = points(1)[0]
    rp, rm = lsp_residual((zero, zero, zero_odd), s, 1.0, pt)
    assert residual_magnitude((rp, rm)) == 0.0
    # (c, c, 0) is the degenerate seed and solves the problem; (1, 0, 0) does not
    const = constant_superfield(1.0)
    rp, rm = lsp_residual((const, const, zero_odd), s, 1.0, pt)
    assert residual_magnitude((rp, rm)) < 1e-14
    rp, rm = lsp_residual((const, zero, zero_odd), s, 1.0, pt)
    assert residual_magnitude((rp, rm)) > 1e-3


def test_lsp_grading_enforced():
    s = seed_trivial(0)
    even = constant_superfield(1.0)
    pt = points(1)[0]
    with pytest.raises(ParityError):
        lsp_residual((even, even, even), s, 1.0, pt)


# ---------------------------------------------------------------------------
# super Riccati system
# ---------------------------------------------------------------------------

def test_riccati_from_lsp_solution():
    s = seed_trivial(0)
    for params in SEEDS:
        p, q = riccati_from_wavefunction(seed_wavefunction(params))
        for pt in points(3):
            res = riccati_residuals(p, q, s, params.lam, pt)
            assert residual_magnitude(res) < 1e-10


def test_riccati_fixed_point():
    s = seed_trivial(0)
    p = constant_superfield(1.0, "p=1")
    q = Superfield(lambda pt: GrassmannElement.zero(pt.gens), ODD, "q=0")
    for pt in points(3):
        assert residual_magnitude(riccati_residuals(p, q, s, 1.3, pt)) < 1e-14


def test_riccati_rejects_random_pair():
    s = seed_trivial(0)
    p = constant_superfield(0.8, "p")
    q = Superfield(lambda pt: pt.theta("+") * 0.5, ODD, "q")
    pt = points(1)[0]
    assert residual_magnitude(riccati_residuals(p, q, s, 1.0, pt)) > 1e-3


# ---------------------------------------------------------------------------
# auto-Backlund system
# ---------------------------------------------------------------------------

def zero_odd_field():
    return Superfield(lambda pt: GrassmannElement.zero(pt.gens), ODD, "f=0")


def test_backlund_trivial_pairs():
    f = zero_odd_field()
    for k, kt in ((0, 0), (0, 1), (2, -1)):
        s, st = seed_trivial(k), seed_trivial(kt)
        for pt in points(2):
            assert residual_magnitude(backlund_residuals(s, st, f, pt.lam, pt)) < 1e-10


def test_backlund_rejects_random_triple():
    s, st = seed_trivial(0), constant_superfield(0.4, "0.4")
    f = Superfield(lambda pt: pt.theta("-") * 0.3, ODD, "f")
    pt = points(1)[0]
    assert residual_magnitude(backlund_residuals(s, st, f, 1.0, pt)) > 1e-3


def chain_backlund_pairs(deep, deep_points):
    """``(s, s~, f, lambda_k)`` for each step k of the deep chain, and a batch of
    three grid points.  The pair is (-s[k], s[k+1]) at the consumed seed's
    constant: the sign flip is the mirror solution of ``lsp_normalized_triple``.
    f = sqrt(lambda_k) D+(s + s~) / cos((s - s~)/2) is r1 solved for f."""
    seeds, _ = deep
    chain = darboux_chain(0, seeds, len(seeds))
    pairs = []
    for k in range(len(seeds)):
        lam = chain.waves[k][0].lam
        s = combine(EVEN, f"-s[{k}]", lambda v: -1 * v, chain.solutions[k])
        st = chain.solutions[k + 1]

        def f_fn(pt, s=s, st=st, root=cmath.sqrt(lam)):
            sv, tv = s.evaluate(pt), st.evaluate(pt)
            return d_plus(sv + tv) * ginv(analytic_lift("cos", (sv - tv) * 0.5)) * root

        pairs.append((s, st, Superfield(f_fn, ODD, f"f[{k}]"), lam))
    return pairs, SuperspacePoint.batch(deep_points[:3])


def off_by_a_millionth(field):
    """``field`` times 1 + 1e-6: a near miss that a gate at 1e-10 must reject."""
    return combine(field.parity, f"{field.label} (1 + 1e-6)", lambda v: v * (1 + 1e-6), field)


def test_backlund_relates_consecutive_chain_solutions(deep, deep_points):
    """Each chain pair passes (at most 2.3e-13), and fails once its f is off
    by a millionth (by 5.0e-6 or more)."""
    pairs, batch = chain_backlund_pairs(deep, deep_points)
    for k, (s, st, f, lam) in enumerate(pairs):
        worst = residual_magnitude(backlund_residuals(s, st, f, lam, batch))
        assert np.all(worst <= 1e-10), f"step {k}: {worst}"
        near = residual_magnitude(backlund_residuals(s, st, off_by_a_millionth(f), lam, batch))
        assert np.all(near > 1e-10), f"step {k}: {near}"


def test_lsp_gate_rejects_a_component_off_by_a_millionth(deep, deep_points):
    """At levels 0-3 the first live triple solves the LSP of its solution (at
    most 1.9e-11), and fails it once its psi or chi is off by a millionth (by
    4.3e-6 or more)."""
    seeds, _ = deep
    chain = darboux_chain(0, seeds, len(seeds))
    batch = SuperspacePoint.batch(deep_points[:3])
    for level in range(len(seeds)):
        wt, s = chain.waves[level][0], chain.solutions[level]
        triple = wt.fields() if level == 0 else lsp_normalized_triple(wt)
        assert np.all(residual_magnitude(lsp_residual(triple, s, wt.lam, batch)) <= 1e-10), level
        for i in (0, 2):
            near = tuple(off_by_a_millionth(f) if j == i else f for j, f in enumerate(triple))
            worst = residual_magnitude(lsp_residual(near, s, wt.lam, batch))
            assert np.all(worst > 1e-10), (level, i, worst)


def test_riccati_gate_rejects_a_component_off_by_a_millionth(deep, deep_points):
    """p and q of the seed triple solve the Riccati system (8.9e-16), and fail
    it once phi or chi is off by a millionth (by 3.8e-6 or more)."""
    seeds, _ = deep
    triple = seed_wavefunction(seeds[0])
    batch = SuperspacePoint.batch(deep_points[:3])

    def worst(fields):
        p, q = riccati_from_wavefunction(fields)
        return residual_magnitude(riccati_residuals(p, q, seed_trivial(0), seeds[0].lam, batch))
    assert np.all(worst(triple) <= 1e-10)
    for i in (1, 2):
        near = tuple(off_by_a_millionth(f) if j == i else f for j, f in enumerate(triple))
        assert np.all(worst(near) > 1e-10), i


#: hand mutants of ``backlund_residuals`` that the trivial pairs, where every
#: term vanishes, let through: each replaces one coefficient of one relation
BACKLUND_MUTANTS = {
    "r1 f term x7": ("fv * cos_diff * inv_sqrt", "fv * cos_diff * inv_sqrt * 7"),
    "r2 3 sqrt(lambda)": ("fv * cos_sum * (2 * sqrt_lam)", "fv * cos_sum * (3 * sqrt_lam)"),
    "r4 -2j": ("sin_sum * (2j * sqrt_lam)", "sin_sum * (-2j * sqrt_lam)"),
}


@pytest.mark.parametrize("name", list(BACKLUND_MUTANTS))
def test_chain_backlund_pairs_kill_each_backlund_mutant(deep, deep_points, name):
    old, new = BACKLUND_MUTANTS[name]
    source = inspect.getsource(ssge.backlund_residuals)
    assert source.count(old) == 1, "the mutated term is no longer in the source"
    namespace = dict(vars(ssge))
    exec(compile(source.replace(old, new), ssge.__file__, "exec"), namespace)
    mutant = namespace["backlund_residuals"]
    pairs, batch = chain_backlund_pairs(deep, deep_points)
    worst = peak(residual_magnitude(mutant(s, st, f, lam, batch)) for s, st, f, lam in pairs)
    assert np.all(worst > 1e-10), f"mutant {name!r} survives: {worst}"


# ---------------------------------------------------------------------------
# the scaling symmetry
# ---------------------------------------------------------------------------

def test_scaling_identity_map(chain):
    s1 = chain.solutions[1]
    mapped = scaling_map(s1, 0.0, 1)
    for pt in points(3):
        assert allclose(mapped.evaluate(pt), s1.evaluate(pt), 1e-12, 1e-12)


def test_scaling_rejects_bad_sign(chain):
    with pytest.raises(ValueError):
        scaling_map(chain.solutions[1], 0.2, sign=2)


def test_scaling_fixes_trivial_seed():
    s = seed_trivial(2)
    mapped = scaling_map(s, 0.7, 1)
    pt = points(1)[0]
    assert allclose(mapped.evaluate(pt), s.evaluate(pt), 1e-13, 1e-13)


def test_scaling_preserves_solutions(chain):
    for mu in (-0.5, 0.3):
        for n in (1, 2):
            mapped = scaling_map(chain.solutions[n], mu, 1)
            for pt in points(3):
                assert residual_magnitude(ssge_residual(mapped, pt)) < 1e-10


def scaling_map_by_terms(s, mu, sign=1):
    """The dict round trip that scaling_map replaced, kept as its oracle:
    unpack the terms, scale each jet by L^i L^-j (and 1^k) on its (i, j, k)
    slot, then by sqrt(L)^(n+ - n-), and pack again."""
    scale = sign * math.exp(mu)
    root = cmath.sqrt(scale)

    def ev(pt):
        v = s.evaluate(pt.rescaled(scale))
        ip, im = v.gens.index("theta_plus"), v.gens.index("theta_minus")
        terms = {}
        for m, c in v.terms.items():
            factor = 1.0 + 0.0j
            if m >> ip & 1:
                factor *= root
            if m >> im & 1:
                factor /= root
            if isinstance(c, JetScalar):
                g = [np.asarray([f ** i for i in range(n)], dtype=complex)
                     for f, n in zip((scale, 1.0 / scale, 1.0), c.c.shape[1:])]
                c = JetScalar(c.c * g[0][:, None, None] * g[1][None, :, None] * g[2][None, None, :])
            terms[m] = c * factor
        return GrassmannElement(v.gens, terms)

    return Superfield(ev, s.parity, f"scaled-by-terms({s.label})")


def test_scaling_map_on_the_block_equals_the_dict_round_trip(deep, deep_points):
    """Same monomials, known shapes and coefficient bits as the oracle, on
    s[1], s[2] and s[4] of the deep chain, at each of 4 points and on their batch."""
    seeds, _ = deep
    chain = darboux_chain(0, seeds, len(seeds))
    pts = deep_points[4:8]
    for n in (1, 2, 4):
        for mu, sign in ((0.3, 1), (-0.3, 1), (0.3, -1)):
            got, want = scaling_map(chain.solutions[n], mu, sign), scaling_map_by_terms(
                chain.solutions[n], mu, sign)
            for pt in (*pts, SuperspacePoint.batch(pts)):
                a, b = got.evaluate(pt), want.evaluate(pt)
                assert a.layout is b.layout and a.block.shape == b.block.shape
                assert a.block.tobytes() == b.block.tobytes(), (n, mu, sign)


def mapped_seeds(seeds, mu, sign, keep_c=False):
    """The seeds whose chain is the scaling map of the chain of ``seeds``
    (SIGN_CONVENTIONS.md), with L = sign exp(mu): lambda/L, b/sqrt(L) (the
    principal root), a as is, and c times e = sqrt(lambda) / (sqrt(L)
    sqrt(lambda/L)), which is +-1; ``keep_c`` keeps c instead."""
    scale = sign * math.exp(mu)
    root = cmath.sqrt(scale)
    return [SeedParams(p.lam / scale, p.c if keep_c else
                       p.c * round((cmath.sqrt(p.lam) / (root * cmath.sqrt(p.lam / scale))).real),
                       p.b / root, p.a) for p in seeds]


def assert_scaled_chain_matches(seeds, mu, sign, mapped, match, batch):
    chain = darboux_chain(0, seeds, len(seeds))
    other = darboux_chain(0, mapped, len(seeds))
    for n in range(1, len(seeds) + 1):
        got = scaling_map(chain.solutions[n], mu, sign).evaluate(batch)
        agree = values_match_mod_2pi(got, other.solutions[n].evaluate(batch), 1e-10)
        assert np.all(agree) if match else not np.any(agree), (mu, sign, n)


def test_scaling_map_of_a_chain_is_the_chain_of_the_mapped_seeds(deep):
    """scaling_map(s[n]) equals s[n] of the mapped seeds modulo 2 pi at n = 1..4,
    for L = +-exp(+-0.3).  The deep lambdas are real and positive, so c maps
    to sign(L) c; at L < 0, keeping c fails at every n."""
    seeds, gens = deep
    batch = SuperspacePoint.batch(sample_grid(gens, count=3, seed=9))
    for mu, sign in ((0.3, 1), (-0.3, 1), (0.3, -1), (-0.3, -1)):
        mapped = mapped_seeds(seeds, mu, sign)
        assert [p.c for p in mapped] == [sign * p.c for p in seeds]
        assert_scaled_chain_matches(seeds, mu, sign, mapped, True, batch)
        if sign < 0:
            assert_scaled_chain_matches(seeds, mu, sign, mapped_seeds(seeds, mu, sign, keep_c=True),
                                        False, batch)


def test_scaling_map_flips_c_by_each_seeds_own_root_sign():
    """At L < 0, c of a seed with Im lambda > 0 keeps its sign: there
    sqrt(lambda/L) = sqrt(lambda)/sqrt(L).  Flipping every c fails at every n."""
    seeds = [SeedParams(lam=0.3 + 0.2j, c=1.2 + 0.1j, b=0.05 - 0.02j, a="a0"),
             SeedParams(lam=1.1 - 0.4j, c=0.9, b=0.04, a="a1"),
             SeedParams(lam=-0.8 + 0.1j, c=1.0, b=0.03, a="a2")]
    batch = SuperspacePoint.batch(sample_grid(generator_set(seeds), count=3, seed=9))
    mapped = mapped_seeds(seeds, 0.3, -1)
    assert [p.c for p in mapped] == [seeds[0].c, -seeds[1].c, seeds[2].c]
    assert_scaled_chain_matches(seeds, 0.3, -1, mapped, True, batch)
    flipped = [replace(p, c=-q.c) for p, q in zip(mapped, seeds)]
    assert_scaled_chain_matches(seeds, 0.3, -1, flipped, False, batch)


# ---------------------------------------------------------------------------
# residual sweep reports
# ---------------------------------------------------------------------------

def test_sweep_residual_report(chain):
    from susygordon.reporting import make_report, sweep

    def residual_check(s):
        def check(pt):
            mag = residual_magnitude(ssge_residual(s, pt))
            return {"residual": mag, "passed": mag <= 1e-10}
        return check

    pts = points(5)
    good = sweep(pts, "ssge[{}]", residual_check(chain.solutions[1]))
    assert make_report("verify", {}, good)["passed"]
    assert max(c["residual"] for c in good) < 1e-10
    assert len(good) == 5 and good[0]["name"] == "ssge[0]"
    (xp,) = pts[0].x_plus
    assert good[0]["point"]["x_plus"] == [xp.real, xp.imag]

    bad = sweep(pts, "ssge[{}]", residual_check(constant_superfield(0.3)))
    assert not make_report("verify", {}, bad)["passed"]
    assert max(c["residual"] for c in bad) > 1e-3

"""Seeds, transformation steps, the chain, and the determinant closed form."""

import cmath
import functools
import inspect
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import susygordon.darboux as darboux_module
import susygordon.superfield as superfield_module
from susygordon.darboux import (
    CONVENTION_FINGERPRINT,
    SeedParams,
    WaveTriple,
    closed_form_sn,
    darboux_chain,
    darboux_step_s,
    darboux_step_wavefunction,
    delta_determinant,
    eta_jet,
    generator_set,
    lsp_normalized_triple,
    p_polynomial,
    seed_trivial,
    seed_wavefunction,
    values_match_mod_2pi,
    x_product,
)
from susygordon.errors import SingularBodyError
from susygordon.grassmann import EVEN, ODD, GrassmannElement, allclose, ginv
from susygordon.jets import JetScalar
from susygordon.solutions import build_solution, load_solution
from susygordon.ssge import lsp_residual, residual_magnitude, ssge_residual
from susygordon.superfield import Superfield, SuperspacePoint, combine

from conftest import sample_grid

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# ---------------------------------------------------------------------------
# seed data
# ---------------------------------------------------------------------------

def test_eta_value():
    seeds = [SeedParams(lam=1.0, c=1.0, a="a0")]
    gens = generator_set(seeds)
    pt = SuperspacePoint(2.0, 0.0, 1.0, gens=gens)
    assert abs(eta_jet(pt, 1.0).value - 1.0) < 1e-14


def test_seed_degenerates_to_constants():
    params = SeedParams(lam=0.9, c=2.5 + 0.5j, b=0.0, a=None)
    gens = generator_set([params])
    psi, phi, chi = seed_wavefunction(params)
    pt = SuperspacePoint(0.3, 0.4, 1.0, gens=gens)
    assert allclose(psi.evaluate(pt), pt.scalar(pt.const_jet(params.c)))
    assert allclose(phi.evaluate(pt), pt.scalar(pt.const_jet(params.c)))
    assert chi.evaluate(pt).is_zero()


def test_seed_chi_sign_is_pinned_by_the_linear_problem():
    """The chi component needs +b theta-; the opposite sign fails the LSP.

    Both readings are exercised here on purpose: the flipped variant is the
    printed one and its residual is O(1), so the residual oracle leaves no
    ambiguity about which sign the algebra requires.
    """
    params = SeedParams(lam=1.1, c=1.3, b=0.4, a="a0")
    gens = generator_set([params])
    pt = SuperspacePoint(0.25, -0.2, 1.0, gens=gens)
    s0 = seed_trivial(0)
    triple = seed_wavefunction(params)
    assert residual_magnitude(lsp_residual(triple, s0, params.lam, pt)) < 1e-12

    def flipped_chi(p):
        e = p.scalar(eta_jet(p, params.lam).analytic("exp"))
        tp, tm = p.theta("+"), p.theta("-")
        a = p.odd_generator("a0")
        w = tp * (params.b / (2 * params.lam)) - tm * params.b
        w = w + a + (a * (tp * tm)) * 1j
        return w * e

    flipped = (triple[0], triple[1], Superfield(flipped_chi, ODD, "chi-flipped"))
    assert residual_magnitude(lsp_residual(flipped, s0, params.lam, pt)) > 1e-2


def seed_polynomials_by_products(params, pt):
    """The theta/a_j parts of u and chi built from generator products, as the
    seed wavefunction once built them: the reference of its coefficient tables."""
    sq, b = cmath.sqrt(params.lam), params.b
    tp, tm = pt.theta("+"), pt.theta("-")
    u = pt.scalar(pt.const_jet(-b / (2 * sq)))
    w = tp * (b / (2 * params.lam)) + tm * b
    if params.a is not None:
        a = pt.odd_generator(params.a)
        u = u + (a * tp) * (-1j / (2 * sq)) + (a * tm) * (1j * sq)
        w = w + a + (a * (tp * tm)) * 1j
    u = u + (tp * tm) * (1j * b / (2 * sq))
    return u, w


def seed_products(params, pt, monkeypatch):
    """The operands of the Grassmann products that evaluating psi, then chi,
    of the seed ``params`` at ``pt`` makes, one list per component."""
    psi, _, chi = seed_wavefunction(params)
    mul, made = GrassmannElement.__mul__, []
    with monkeypatch.context() as patch:
        patch.setattr(GrassmannElement, "__mul__", lambda a, b: made[-1].append((a, b)) or mul(a, b))
        for field in (psi, chi):
            made.append([])
            field.evaluate(pt)
    return made


def test_seed_components_are_one_product_each(deep, monkeypatch):
    """At a fresh point, psi and chi of a seed with a fermionic constant each
    make one product, their coefficient table times exp(eta) (7 and 6 when
    the tables were generator products)."""
    seeds, gens = deep
    pt = SuperspacePoint(0.0123, -0.0171, 1.37, gens=gens)
    psi_products, chi_products = seed_products(seeds[1], pt, monkeypatch)
    assert len(psi_products) == len(chi_products) == 1
    exp_eta = psi_products[0][1]
    assert exp_eta.layout.keys == (0,) and chi_products[0][1] is exp_eta


def test_seed_tables_equal_the_generator_products_bit_for_bit(deep, monkeypatch):
    """Same monomials, known shapes and coefficient bits as the generator
    products, on the deep and the one-soliton generators, with and without a
    fermionic constant, and with b = 0."""
    seeds, gens = deep
    soliton = load_solution(SAMPLES / "one_soliton.json")
    cases = [(gens, p) for p in seeds] + [(soliton.gens, p) for p in soliton.seeds]
    cases += [(g, replace(p, a=a, b=b)) for g, p in (cases[1], cases[-1])
              for a, b in ((None, p.b), (p.a, 0.0), (None, 0.0))]
    assert soliton.seeds[0].b == 0 and any(p.a is None and p.b == 0 for _, p in cases)
    for count, (g, params) in enumerate(cases):
        pt = SuperspacePoint(0.0131 + 0.001 * count, -0.0097, 1.21, gens=g)
        (psi_product,), (chi_product,) = seed_products(params, pt, monkeypatch)
        for (table, _), want in zip((psi_product, chi_product),
                                    seed_polynomials_by_products(params, pt)):
            assert table.layout.keys == want.layout.keys, params
            assert table.layout.shapes == want.layout.shapes, params
            assert table.block.shape == want.block.shape, params
            assert table.block.tobytes() == want.block.tobytes(), params


def test_seed_triples_are_interned_within_a_bound(deep):
    """Equal params give one triple, so a chain and a closed form share its
    memo; the interning cache evicts beyond its bound."""
    seeds, _ = deep
    chain = darboux_chain(0, seeds, 1)
    again = SeedParams(seeds[0].lam, seeds[0].c, seeds[0].b, seeds[0].a)
    assert chain.waves[0][0].fields() == seed_wavefunction(again)
    bound = seed_wavefunction.cache_info().maxsize
    for j in range(bound + 6):
        seed_wavefunction(SeedParams(lam=1.0 + j, c=1.0))
    assert seed_wavefunction.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# one-step transformation
# ---------------------------------------------------------------------------

SEEDS2 = [SeedParams(lam=1.3, c=1.2 + 0.2j, b=0.0, a="a0"),
          SeedParams(lam=0.7, c=0.9 - 0.1j, b=0.0, a="a1")]
GENS2 = generator_set(SEEDS2)


def pt2(x=0.35, y=-0.3, lam=1.0):
    return SuperspacePoint(x, y, lam, gens=GENS2)


@pytest.fixture(scope="module")
def chain2():
    return darboux_chain(0, SEEDS2, 2)


def test_step_s_solves_the_equation(chain2):
    for pt in (pt2(), pt2(-0.2, 0.15, 1.6)):
        assert residual_magnitude(ssge_residual(chain2.solutions[1], pt)) < 1e-11


def test_step_s_with_equal_components_is_identity():
    params = SeedParams(lam=0.8, c=1.7, b=0.0, a=None)  # psi = phi = c
    gens = generator_set([params])
    wt = WaveTriple(*seed_wavefunction(params), lam=params.lam, index=0)
    s1 = darboux_step_s(seed_trivial(0), wt)
    pt = SuperspacePoint(0.3, -0.4, 1.0, gens=gens)
    assert allclose(s1.evaluate(pt), pt.scalar(pt.const_jet(0.0)), 1e-13, 1e-13)


def test_one_soliton_matches_displayed_log_argument():
    """With b0 = 0 the log argument is 1 - i a0 e^eta theta+/(c0 sqrt(l0))
    + 2 i sqrt(l0) a0 e^eta theta-/c0."""
    lam0, c0 = 1.3, 1.2 + 0.2j
    wt = WaveTriple(*seed_wavefunction(SEEDS2[0]), lam=lam0, index=0)
    pt = pt2()
    psi0 = wt.psi.evaluate(pt)
    phi0 = wt.phi.evaluate(pt)
    ratio = psi0 * ginv(phi0)
    e = pt.scalar(eta_jet(pt, lam0).analytic("exp"))
    a0, tp, tm = pt.odd_generator("a0"), pt.theta("+"), pt.theta("-")
    sq0 = cmath.sqrt(lam0)
    expected = pt.scalar(pt.const_jet(1.0)) \
        + (a0 * tp) * e * (-1j / (c0 * sq0)) + (a0 * tm) * e * (2j * sq0 / c0)
    assert allclose(ratio, expected, 1e-12, 1e-12)


def test_transformed_wavefunction_matches_displayed_expansion(chain2):
    lam0, lam1 = SEEDS2[0].lam, SEEDS2[1].lam
    c0, c1 = SEEDS2[0].c, SEEDS2[1].c
    pt = pt2()
    psi, phi, chi = chain2.waves[1][0].evaluate(pt)
    sq0, sq1 = cmath.sqrt(lam0), cmath.sqrt(lam1)
    e0 = pt.scalar(eta_jet(pt, lam0).analytic("exp"))
    e1 = pt.scalar(eta_jet(pt, lam1).analytic("exp"))
    a0, a1 = pt.odd_generator("a0"), pt.odd_generator("a1")
    tp, tm = pt.theta("+"), pt.theta("-")

    body = pt.scalar(pt.const_jet((lam1 - lam0) * c1)) \
        - (a0 * a1) * (e0 * e1) * (1j * sq0 * sq1 / c0)
    th_p = (a1 * tp) * e1 * ((1j / (2 * sq1)) * (lam1 + lam0)) \
        - (a0 * tp) * e0 * (1j * sq0 * c1 / c0)
    th_m = (a1 * tm) * e1 * (-1j * sq1 * (lam1 + lam0)) \
        + (a0 * tm) * e0 * (2j * lam0 * sq0 * c1 / c0)
    th_pm = ((a0 * a1) * (tp * tm)) * (e0 * e1) * ((sq0 / sq1) * (lam1 + lam0) / c0)
    one_plus = pt.scalar(pt.const_jet(1.0)) + (tp * tm) * 1j
    chi_core = (a1 * e1) * (-(lam0 + lam1)) + (a0 * e0) * (2 * sq0 * sq1 * c1 / c0)

    assert allclose(psi, body + th_p + th_m + th_pm, 1e-11, 1e-11)
    assert allclose(phi, body - th_p - th_m + th_pm, 1e-11, 1e-11)
    assert allclose(chi, chi_core * one_plus, 1e-11, 1e-11)


def test_transformed_wavefunction_solves_lsp_after_normalization(chain2):
    """The printed components solve the mirror solution's linear problem;
    the (phi, psi, -chi) relabeling solves it for s[1] itself."""
    wt = chain2.waves[1][0]
    s1 = chain2.solutions[1]
    pt = pt2()
    normalized = lsp_normalized_triple(wt)
    assert residual_magnitude(lsp_residual(normalized, s1, wt.lam, pt)) < 1e-10
    # mirror statement: the raw components solve the problem of -s[1]
    mirror = combine(EVEN, "-s1", lambda v: -1 * v, s1)
    assert residual_magnitude(lsp_residual(wt.fields(), mirror, wt.lam, pt)) < 1e-10
    # and as printed against s[1] they do not
    assert residual_magnitude(lsp_residual(wt.fields(), s1, wt.lam, pt)) > 1e-2


def test_riccati_from_transformed_wavefunction(chain2):
    """p, q built from a level-1 wavefunction solve the system for s[1]."""
    from susygordon.ssge import riccati_from_wavefunction, riccati_residuals

    wt = chain2.waves[1][0]
    p, q = riccati_from_wavefunction(lsp_normalized_triple(wt))
    for pt in (pt2(), pt2(-0.15, 0.2, 1.4)):
        res = riccati_residuals(p, q, chain2.solutions[1], wt.lam, pt)
        assert residual_magnitude(res) < 1e-10


def test_degenerate_self_transform_annihilates_chi(chain2):
    wt0 = chain2.waves[0][0]
    clone = WaveTriple(*seed_wavefunction(SEEDS2[0]), lam=SEEDS2[0].lam, index=99)
    out = darboux_step_wavefunction(wt0, clone)
    assert out.chi.evaluate(pt2()).max_abs() < 1e-12


def test_consumed_wavefunction_cannot_transform_itself(chain2):
    wt0 = chain2.waves[0][0]
    with pytest.raises(ValueError):
        darboux_step_wavefunction(wt0, wt0)


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------

def test_chain_solves_equation_to_depth_four(deep, deep_points):
    seeds, _ = deep
    chain = darboux_chain(0, seeds, 4)
    for n in range(1, 5):
        worst = max(residual_magnitude(ssge_residual(chain.solutions[n], pt))
                    for pt in deep_points[:6])
        assert worst < 1e-10, f"n={n}: {worst}"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_does_not_depend_on_the_order_it_consumes_seeds(deep, deep_points, n):
    """Bianchi permutability: s[n] from the first n deep seeds, consumed in any
    order, is one solution.  The closed form was pinned against the chain, so
    this is the check of the chain that does not rest on it."""
    seeds, _ = deep
    batch = SuperspacePoint.batch(deep_points[:3])
    want = darboux_chain(0, seeds[:n], n).solution().evaluate(batch)
    for order in itertools.permutations(range(n)):
        got = darboux_chain(0, [seeds[j] for j in order], n).solution().evaluate(batch)
        assert np.all(values_match_mod_2pi(got, want, 1e-10)), order


def test_chain_inverts_each_consumed_triple_once_per_step(deep, monkeypatch):
    """s[4] needs 1/psi_0 and 1/phi_0 once for each of the three steps with live
    targets, and 1/phi_0 of the last step: 7.  The s step reuses the step's
    1/phi_0 (separately it made 10), and one pair per target would make 16.
    The inverses are derived from the components, and the seed components are
    interned, so a second chain from the same seeds shares the first step's
    pair and inverts 5.  The point is one that no other test evaluates."""
    seeds, gens = deep
    chain = darboux_chain(0, seeds, 4)
    calls = []
    monkeypatch.setattr(superfield_module, "ginv", lambda v: calls.append(v) or ginv(v))
    pt = SuperspacePoint(0.0123, -0.0217, 1.1, gens=gens)
    chain.solution().evaluate(pt)
    assert len(calls) == 7
    calls.clear()
    darboux_chain(0, seeds, 4).solution().evaluate(pt)
    assert len(calls) == 5
    # the shared inverses give exactly the values of the one-target transformation
    for shared, target in zip(chain.waves[1], chain.waves[0][1:]):
        alone = darboux_step_wavefunction(chain.waves[0][0], target)
        for f, g in zip(shared.fields(), alone.fields()):
            assert (f.evaluate(pt) - g.evaluate(pt)).max_abs() == 0.0


def test_chain_takes_each_seed_exponential_once_per_point(deep, monkeypatch):
    """u (behind psi and phi) and chi of a seed read one exp(eta) field: a
    cold s[4] of the 4-seed chain takes exp 4 times, where each component
    taking its own made 8."""
    seeds, gens = deep
    chain = darboux_chain(0, seeds, 4)
    names = []
    analytic = JetScalar.analytic
    monkeypatch.setattr(JetScalar, "analytic", lambda jet, name: (
        names.append(name) or analytic(jet, name)))
    pt = SuperspacePoint(0.0131, -0.0093, 1.05, gens=gens)
    chain.solution().evaluate(pt)
    assert names.count("exp") == 4


def test_chain_with_mixed_degenerate_seeds():
    """Pure-fermionic (b = 0), pure-bosonic (no generator) and full seeds mix
    freely: zero odd components must flow through the transformation ratios."""
    seeds = [SeedParams(lam=0.5, c=1.3, b=0.0, a="a0"),
             SeedParams(lam=1.4, c=1.1, b=0.12, a=None),
             SeedParams(lam=3.1, c=0.9, b=0.08, a="a1")]
    gens = generator_set(seeds)
    pts = [SuperspacePoint(0.1, -0.08, 1.2, gens=gens),
           SuperspacePoint(-0.12, 0.05, 0.7, gens=gens)]
    chain = darboux_chain(0, seeds, 3)
    for n in (1, 2, 3):
        cf = closed_form_sn(0, seeds, n)
        for pt in pts:
            assert residual_magnitude(ssge_residual(chain.solutions[n], pt)) < 1e-10
            assert values_match_mod_2pi(chain.solutions[n].evaluate(pt),
                                        cf.evaluate(pt), 1e-10)


def test_chain_requires_enough_distinct_seeds():
    seeds = [SeedParams(lam=1.0, c=1.0, a="a0"), SeedParams(lam=1.0, c=1.0, a="a1")]
    with pytest.raises(ValueError):
        darboux_chain(0, seeds, 2)
    with pytest.raises(ValueError):
        darboux_chain(0, SEEDS2, 3)


def test_ledger_replay(deep):
    seeds, _ = deep
    chain = darboux_chain(0, seeds, 3)
    assert [e["consumed_index"] for e in chain.ledger] == [0, 1, 2]
    replay = darboux_chain(0, seeds, 3)
    assert replay.ledger == chain.ledger
    gens = generator_set(seeds)
    pt = SuperspacePoint(0.03, -0.02, 1.0, gens=gens)
    a = chain.solutions[3].evaluate(pt)
    b = replay.solutions[3].evaluate(pt)
    assert (a - b).max_abs() == 0.0  # identical construction, identical floats


def test_singularity_is_loud():
    params = SeedParams(lam=0.5, c=1.0, b=2 * cmath.sqrt(0.5), a=None)
    gens = generator_set([params])
    chain = darboux_chain(0, [params], 1)
    # body of psi_0 vanishes exactly on the line eta = 0 (x+ = 2 lam^2 x-)
    singular = SuperspacePoint(0.0, 0.0, 1.0, gens=gens)
    with pytest.raises(SingularBodyError):
        chain.solutions[1].evaluate(singular)


def test_each_singular_body_keeps_its_message():
    """ginv and the ln lift raise where a body vanishes; the quotient, the
    Darboux step and the closed form only rename that error, and a report
    prints the new name."""
    flat = SeedParams(lam=1 + 0j, c=0j, b=0j, a="a0")  # psi_0 and phi_0 have no body
    wt = WaveTriple(*seed_wavefunction(flat), lam=flat.lam, index=0)
    pt = SuperspacePoint(0.31, -0.27, 1.1, gens=generator_set([flat]))
    for num, den in (("psi", "phi"), ("phi", "psi")):
        with pytest.raises(SingularBodyError) as err:
            wt.ratio(num, den).evaluate(pt)
        assert str(err.value) == f"singular point: body of {den}[lam=(1+0j)] vanishes"
    # b0 = 2 sqrt(lambda0) c0: the body of psi_0 vanishes at x+ = x- = 0 alone
    lam0, c0 = 0.8, 1.1
    bundle = build_solution({"kind": "darboux1", "lambda0": [lam0, 0], "a0": "a0",
                             "b0": [2 * np.sqrt(lam0) * c0, 0], "c0": [c0, 0]})
    origin = SuperspacePoint(0.0, 0.0, 1.2, gens=bundle.gens)
    for field, message in ((bundle.s, "body of psi[lam=(0.8+0j)] vanishes"),
                           (closed_form_sn(0, bundle.seeds, 1), "closed-form numerator body vanishes")):
        with pytest.raises(SingularBodyError) as err:
            field.evaluate(origin)
        assert str(err.value) == f"singular point: {message}"


def test_a_darboux_step_tests_each_body_once(deep, monkeypatch):
    """s[1] reads the body of phi_0 in its inverse and of psi_0/phi_0 in its
    log, and so does the closed form of order 1 with its two sides: 2 reads
    each, where testing a body before the inverse or the log tests it again
    made 4.  The points are fresh, and the seed components already evaluated."""
    seeds, gens = deep
    body, reads = GrassmannElement.body, []
    for field, pt in ((darboux_chain(0, seeds[:1], 1).solution(),
                       SuperspacePoint(0.0171, -0.0139, 0.93, gens=gens)),
                      (closed_form_sn(0, seeds, 1), SuperspacePoint(-0.0158, 0.0127, 1.07, gens=gens))):
        for component in seed_wavefunction(seeds[0]):
            component.evaluate(pt)
        with monkeypatch.context() as patch:
            patch.setattr(GrassmannElement, "body", lambda v: reads.append(v) or body(v))
            field.evaluate(pt)
        assert len(reads) == 2, field.label
        reads.clear()


# ---------------------------------------------------------------------------
# determinant machinery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def components(deep):
    seeds, gens = deep
    pt = SuperspacePoint(0.04, -0.03, 1.1, gens=gens)
    triples = [seed_wavefunction(p) for p in seeds]
    psis = [t[0].evaluate(pt) for t in triples]
    phis = [t[1].evaluate(pt) for t in triples]
    chis = [t[2].evaluate(pt) for t in triples]
    lams = [p.lam for p in seeds]
    return psis, phis, chis, lams


def test_delta_single_index(components):
    psis, phis, chis, lams = components
    assert allclose(delta_determinant(psis, phis, lams, (0,), 1), psis[0], 0, 0)
    assert allclose(delta_determinant(psis, phis, lams, (0,), 2), phis[0], 0, 0)


def test_delta_two_indices_matches_display(components):
    psis, phis, chis, lams = components
    d1 = delta_determinant(psis, phis, lams, (0, 1), 1)
    expect = phis[0] * psis[1] * lams[0] - phis[1] * psis[0] * lams[1]
    assert allclose(d1, expect, 1e-11, 1e-11)


def test_delta_antisymmetry(components):
    psis, phis, chis, lams = components
    for which in (1, 2):
        a = delta_determinant(psis, phis, lams, (0, 1, 2), which)
        b = delta_determinant(psis, phis, lams, (1, 0, 2), which)
        assert allclose(a, -1 * b, 1e-10, 1e-10)


def test_delta_rejects_repeated_indices(components):
    psis, phis, chis, lams = components
    with pytest.raises(ValueError):
        delta_determinant(psis, phis, lams, (0, 0), 1)


def test_delta_empty_is_zero(components):
    psis, phis, chis, lams = components
    assert delta_determinant(psis, phis, lams, (), 1).is_zero()


#: the row powers the minor table is checked under: the pinned lambda^t, and
#: the rejected lambda^ceil(t/2) as a test-side patch of ``_row_power``
ROW_POWERS = {"t": lambda t: t, "ceil": lambda t: (t + 1) // 2}


def permutation_delta(psis, phis, lams, indices, which, power):
    """Delta as the alternating sum over all r! column permutations: the
    oracle of the minor table.  Rows are listed top-down, so the top row is
    t = r-1 counted from the bottom."""
    r = len(indices)
    if r == 0:
        return GrassmannElement.zero(psis[0].gens)
    first, second = (psis, phis) if which == 1 else (phis, psis)
    grid = [[(first if t % 2 == 0 else second)[a] * (lams[a] ** power(t)) for a in indices]
            for t in reversed(range(r))]
    total = GrassmannElement.zero(psis[0].gens)
    for perm in itertools.permutations(range(r)):
        inv = sum(1 for i, j in itertools.combinations(range(r), 2) if perm[i] > perm[j])
        term = grid[0][perm[0]]
        for t in range(1, r):
            term = term * grid[t][perm[t]]
        total = total + (term if inv % 2 == 0 else -term)
    return total


@pytest.fixture(scope="module")
def minor_points(deep):
    seeds, gens = deep
    pts = sample_grid(gens, count=3, seed=11)
    return {"point": pts[0], "batch": SuperspacePoint.batch(pts)}


@pytest.mark.parametrize("where", ["point", "batch"])
@pytest.mark.parametrize("power_rule", ["t", "ceil"])
@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("r", range(5))
def test_minor_table_matches_permutation_expansion(deep, minor_points, r, which, power_rule,
                                                   where, monkeypatch):
    """The Laplace table is the determinant for the row powers ``_row_power``
    gives, the rejected ones included: the row-power mutant of the chain test
    below changes the determinant and nothing else."""
    seeds, _ = deep
    power = ROW_POWERS[power_rule]
    monkeypatch.setattr(darboux_module, "_row_power", power)
    pt = minor_points[where]
    triples = [seed_wavefunction(p) for p in seeds]
    psis = [t[0].evaluate(pt) for t in triples]
    phis = [t[1].evaluate(pt) for t in triples]
    lams = [p.lam for p in seeds]
    for indices in itertools.combinations(range(len(seeds)), r):
        got = delta_determinant(psis, phis, lams, indices, which)
        want = permutation_delta(psis, phis, lams, indices, which, power)
        assert np.all(allclose(got, want, 1e-12, 1e-12)), indices
        if r >= 2:
            # a transposition flips the sign exactly; the reversed order
            # carries the parity of r(r-1)/2 swaps
            swapped = (indices[1], indices[0]) + indices[2:]
            assert np.all((delta_determinant(psis, phis, lams, swapped, which)
                           + got).max_abs() == 0.0)
            backwards = indices[::-1]
            assert np.all(allclose(
                delta_determinant(psis, phis, lams, backwards, which),
                permutation_delta(psis, phis, lams, backwards, which, power),
                1e-12, 1e-12)), backwards


def test_x_product(components):
    psis, phis, chis, lams = components
    x01 = x_product(chis, lams, (0, 1))
    expect = (chis[0] * chis[1]) * cmath.sqrt(lams[0] * lams[1])
    assert allclose(x01, expect, 1e-12, 1e-12)
    assert allclose(x_product(chis, lams, (1, 0)), -1 * x01, 1e-12, 1e-12)
    with pytest.raises(ValueError):
        x_product(chis, lams, (0, 0))


def test_p_polynomial_conventions():
    lams = [0.5, 1.5, 2.5]
    assert p_polynomial(lams, (0, 1), ()) == 1
    assert p_polynomial(lams, (), (1, 2)) == 1
    assert p_polynomial(lams, (0,), (2,)) == lams[0] + lams[2]
    assert p_polynomial(lams, (2,), (0, 1)) == (lams[2] + lams[0]) * (lams[2] + lams[1])
    assert p_polynomial(lams, (1,), (0, 2)) == -(lams[1] + lams[0]) * (lams[1] + lams[2])
    with pytest.raises(ValueError):
        p_polynomial(lams, (0, 1), (1, 2))


# ---------------------------------------------------------------------------
# closed form vs the iterated chain (the master sign oracle)
# ---------------------------------------------------------------------------

def test_closed_form_low_orders_match_displays(components, deep):
    """s[1] and s[2] numerators are the displayed combinations exactly."""
    psis, phis, chis, lams = components
    num2, _ = darboux_module._closed_form_sides(psis, phis, chis, lams, 2)
    expect = delta_determinant(psis, phis, lams, (0, 1), 1) \
        + x_product(chis, lams, (0, 1)) * 1j
    assert allclose(num2, expect, 1e-11, 1e-11)


def test_closed_form_n3_term_list(components):
    """Freeze the three-index numerator structure under the pinned signs:

        Delta_012 + i P(0;12) Delta_0 X_12 - i P(1;02) Delta_1 X_02
                  + i P(2;01) Delta_2 X_01

    with P the unsigned cross-sum products; the alternating middle sign is
    the inversion parity of (1,0,2).  The chain-oracle test below is the
    ground truth this was pinned against; this one guards against drift.
    """
    psis, phis, chis, lams = components

    def pp(a, bs):
        out = 1.0 + 0.0j
        for b in bs:
            out *= lams[a] + lams[b]
        return out

    expect = delta_determinant(psis, phis, lams, (0, 1, 2), 1) \
        + delta_determinant(psis, phis, lams, (0,), 1) * x_product(chis, lams, (1, 2)) * (1j * pp(0, (1, 2))) \
        - delta_determinant(psis, phis, lams, (1,), 1) * x_product(chis, lams, (0, 2)) * (1j * pp(1, (0, 2))) \
        + delta_determinant(psis, phis, lams, (2,), 1) * x_product(chis, lams, (0, 1)) * (1j * pp(2, (0, 1)))
    got, _ = darboux_module._closed_form_sides(psis, phis, chis, lams, 3)
    assert allclose(got, expect, 1e-10, 1e-10)


def test_oracle_equivalence(deep, deep_points):
    seeds, _ = deep
    chain = darboux_chain(0, seeds, 4)
    for n in (1, 2, 3, 4):
        cf = closed_form_sn(0, seeds, n)
        for pt in deep_points[:6]:
            assert values_match_mod_2pi(chain.solutions[n].evaluate(pt),
                                        cf.evaluate(pt), 1e-10), f"n={n}"


def test_closed_form_solves_equation(deep, deep_points):
    seeds, _ = deep
    for n in (2, 3):
        cf = closed_form_sn(0, seeds, n)
        worst = max(residual_magnitude(ssge_residual(cf, pt)) for pt in deep_points[:5])
        assert worst < 1e-10


# The rejected readings of the closed form, as mutants of the pinned one: each
# patches one helper of the darboux module or swaps in ``tiered_sides`` with
# one tier weight changed.  SIGN_CONVENTIONS.md lists them.

def tiered_sides(empty_delta=1.0, xx_weight=0.5):
    """``_closed_form_sides`` with the weight of the n = 2 empty-Delta tier
    and of the even-order double-X sum as parameters; the pinned weights
    reproduce it bit for bit (test below)."""
    def sides(psis, phis, chis, lams, n):
        all_indices = tuple(range(n))
        minors = [darboux_module._minor_table(psis, phis, lams, all_indices, which)
                  for which in (1, 2)]
        x = functools.partial(x_product, chis, lams)
        out = [GrassmannElement.zero(psis[0].gens)] * 2
        shared = GrassmannElement.zero(psis[0].gens)
        for m in range(0, n // 2 + 1):
            for knu in itertools.combinations(all_indices, 2 * m):
                kj = tuple(a for a in all_indices if a not in knu)
                coeff = (1j ** m) * p_polynomial(lams, kj, knu)
                if not kj:
                    if n == 2 and empty_delta != 0.0:
                        shared = shared + x(knu) * (empty_delta * coeff)
                    continue
                weight = x(knu) * coeff if knu else coeff
                out = [side + minor[kj] * weight for side, minor in zip(out, minors)]
        if n % 2 == 0 and xx_weight != 0.0:
            for m in range(1, n // 2):
                for knu in itertools.combinations(all_indices, 2 * m):
                    kj = tuple(a for a in all_indices if a not in knu)
                    coeff = ((-1) ** m / math.factorial(m)) * xx_weight \
                        * p_polynomial(lams, kj, knu)
                    shared = shared + x(kj) * x(knu) * coeff
        return out[0] + shared, out[1] + shared
    return sides


def cyclic_sign(split):
    """The rejected 'cyclic permutations' reading of (-1)^alpha: the parity of
    the rotation taking the sorted list to the split, or 1 when none does."""
    ordered = sorted(split)
    for shift in range(len(split)):
        if list(split) == ordered[shift:] + ordered[:shift]:
            return -1 if shift & 1 else 1
    return 1


def with_n_sign(n):
    """P with the printed global (-1)^n reinstated on every two-sided split."""
    pinned = darboux_module.p_polynomial
    return lambda lams, left, right: (
        pinned(lams, left, right) * ((-1) ** n if left and right else 1))


MUTANTS = {
    "empty-delta 0": lambda n: ("_closed_form_sides", tiered_sides(empty_delta=0.0)),
    "alpha none": lambda n: ("_inversion_sign", lambda split: 1),
    "alpha cyclic": lambda n: ("_inversion_sign", cyclic_sign),
    "row power ceil": lambda n: ("_row_power", ROW_POWERS["ceil"]),
    "(-1)^n in P": lambda n: ("p_polynomial", with_n_sign(n)),
    "xx-weight 1": lambda n: ("_closed_form_sides", tiered_sides(xx_weight=1.0)),
    "xx-weight 0": lambda n: ("_closed_form_sides", tiered_sides(xx_weight=0.0)),
}

#: the order at which each mutant fails the chain (measured on the deep chain):
#: a reading that survives an order is equivalent to the pinned one there,
#: e.g. (-1)^n is 1 at every even order
KILLED_AT = {
    2: ["empty-delta 0"],
    3: ["alpha none", "alpha cyclic", "row power ceil", "(-1)^n in P"],
    4: ["alpha none", "alpha cyclic", "row power ceil", "xx-weight 1", "xx-weight 0"],
}


def test_tiered_sides_at_the_pinned_weights_is_the_closed_form(components):
    psis, phis, chis, lams = components
    for n in range(1, 5):
        want = darboux_module._closed_form_sides(psis, phis, chis, lams, n)
        got = tiered_sides()(psis, phis, chis, lams, n)
        for a, b in zip(got, want):
            assert a.layout.keys == b.layout.keys and np.array_equal(a.block, b.block), n


@pytest.fixture(scope="module")
def chain_oracle(deep):
    """The deep chain's s[1..4] on a batch of two grid points, and a test of
    whether the closed form of order n matches it there."""
    seeds, gens = deep
    batch = SuperspacePoint.batch(sample_grid(gens, count=2, seed=5))
    chain = darboux_chain(0, seeds, 4)
    values = [s.evaluate(batch) for s in chain.solutions]

    def matches(n):
        cf = closed_form_sn(0, seeds, n).evaluate(batch)
        return bool(np.all(values_match_mod_2pi(values[n], cf, 1e-8)))
    return matches


def test_sign_conventions_are_uniquely_pinned(chain_oracle, monkeypatch):
    """The pinned convention matches the chain at orders 1-4, and every
    rejected reading fails it at the orders listed in KILLED_AT."""
    for n in range(1, 5):
        assert chain_oracle(n), f"pinned convention fails at n={n}"
    for n, names in KILLED_AT.items():
        for name in names:
            with monkeypatch.context() as patch:
                patch.setattr(darboux_module, *MUTANTS[name](n))
                assert not chain_oracle(n), f"mutant {name!r} survives at n={n}"


def test_fingerprint_is_stable():
    assert CONVENTION_FINGERPRINT == (
        "delta-power=t;alpha=inversions;n-sign=False;"
        "empty-delta=1.0;xx-weight=0.5;"
        "chi-order=ascending;seed-chi-theta-minus=+b;delta-rows=top-down"
    )


def test_values_match_mod_2pi_tolerates_branch_shifts(deep):
    seeds, gens = deep
    pt = SuperspacePoint(0.02, 0.01, 0.9, gens=gens)
    chain = darboux_chain(0, seeds, 1)
    v = chain.solutions[1].evaluate(pt)
    shifted = v + 2 * np.pi
    assert values_match_mod_2pi(v, shifted, 1e-12)
    assert not values_match_mod_2pi(v, v + 1.0, 1e-12)


def values_match_by_terms(a, b, tol=1e-10):
    """The dict round trip that values_match_mod_2pi replaced, kept as its oracle."""
    diff = a - b
    body = diff.terms.get(0, None)
    shifted = dict(diff.terms)
    if body is not None:
        v = JetScalar(body.c).value if isinstance(body, JetScalar) else complex(body)
        v = v - 2 * math.pi * np.round(np.real(v) / (2 * math.pi))
        shifted[0] = body - (body.value if isinstance(body, JetScalar) else body) + v
    return GrassmannElement(a.gens, shifted).max_abs() <= tol


def test_values_match_mod_2pi_on_the_block_equals_the_dict_round_trip(deep):
    """The same verdict as the oracle at every tolerance from 1e-15 to 1e-6,
    at one point and per point of a batch, on branch shifts, body and soul
    offsets, a constant body, no body at all, and chain against closed form."""
    seeds, gens = deep
    pts = sample_grid(gens, count=3, seed=11)
    chain = darboux_chain(0, seeds, 3)
    closed = closed_form_sn(0, seeds, 3)
    a0 = GrassmannElement.generator(gens, "a0")
    for pt in (pts[0], SuperspacePoint.batch(pts)):
        v = chain.solution().evaluate(pt)
        soul = v.soul()
        for a, b in ((v, closed.evaluate(pt)), (v, v + 2 * np.pi), (v, v - 4 * np.pi + 1e-9),
                     (v, v + 1.0), (v, v + a0 * GrassmannElement.generator(gens, "a1") * 1e-8),
                     (soul, soul + 1e-12 * v), (soul, soul), (v + 0.5, v)):
            for tol in 10.0 ** np.arange(-15, -5):
                # the oracle gives one verdict where every monomial cancels
                got, want = values_match_mod_2pi(a, b, tol), values_match_by_terms(a, b, tol)
                assert np.array_equal(got, np.broadcast_to(want, np.shape(got))), tol


#: seed constants whose square roots do not multiply to the root of their
#: product: two negative, two complex whose arguments sum past pi, three negative
ROOT_SEED_SETS = {
    "two negative": [-0.5, -1.7],
    "complex past the cut": [0.8 * cmath.exp(2.0j), 1.6 * cmath.exp(1.5j)],
    "three negative": [-0.4, -1.3, -3.9],
}


@pytest.mark.parametrize("name", sorted(ROOT_SEED_SETS))
def test_chain_takes_the_root_of_each_seed(name):
    """Every level of the chain solves the equation, and every live triple
    its LSP, when the seed constants lie off the positive axis; the closed
    form agrees with the chain at every order.  Taking the root of a product
    of seed constants gives cross terms of the wrong sign here."""
    seeds = [SeedParams(lam=lam, c=2.0 * (1 + 0.05j * (-1) ** j), b=0.1 * (-1) ** j, a=f"a{j}")
             for j, lam in enumerate(ROOT_SEED_SETS[name])]
    batch = SuperspacePoint.batch(sample_grid(generator_set(seeds), count=4, seed=1,
                                              x_half_width=0.05))
    chain = darboux_chain(0, seeds, len(seeds))
    for level, s in enumerate(chain.solutions):
        assert np.all(residual_magnitude(ssge_residual(s, batch)) <= 1e-10), level
        for wt in chain.waves[level]:
            fields = wt.fields() if level == 0 else lsp_normalized_triple(wt)
            residual = lsp_residual(fields, s, wt.lam, batch)
            assert np.all(residual_magnitude(residual) <= 1e-10), (level, wt.index)
        if level:
            closed = closed_form_sn(0, seeds, level).evaluate(batch)
            assert np.all(values_match_mod_2pi(s.evaluate(batch), closed)), level


def seed_constant(modulus, turn):
    """``modulus e^(i pi turn)``; at ``turn = 1`` exactly the negative real."""
    return complex(-modulus) if turn == 1 else cmath.rect(modulus, math.pi * turn)


def root_of_product_step():
    """``darboux_step_wavefunction`` taking the root of the product of the two
    seed constants, built from its source as the Backlund mutants are."""
    source = inspect.getsource(darboux_module.darboux_step_wavefunction)
    old = "cross = cmath.sqrt(lam0) * cmath.sqrt(lamj)"
    assert source.count(old) == 1, "the cross root is no longer in the source"
    namespace = dict(vars(darboux_module))
    exec(compile(source.replace(old, "cross = cmath.sqrt(lam0 * lamj)"), darboux_module.__file__,
                 "exec"), namespace)
    return namespace["darboux_step_wavefunction"]


def second_solution(seeds, step):
    """s[2] of two seeds, transforming the second triple by ``step``."""
    first, second = (WaveTriple(*seed_wavefunction(p), lam=p.lam, index=j)
                     for j, p in enumerate(seeds))
    return darboux_step_s(darboux_step_s(seed_trivial(0), first), step(first, second))


def test_chain_solves_the_equation_for_seed_constants_over_the_plane():
    """Two seed constants drawn over the complex plane, negative reals
    included, with deep-style c, b and a: s[2] solves the equation on 3 grid
    points.  The root of the product of the constants fails on some draws."""
    mutant, mutant_fails = root_of_product_step(), []

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.builds(seed_constant, st.floats(0.3, 3.0), st.floats(-1.0, 1.0)),
                    min_size=2, max_size=2))
    def run(lams):
        scale = max(map(abs, lams))
        assume(min(abs(lams[0] - lams[1]), abs(lams[0] + lams[1])) >= 0.5 * scale)
        seeds = [SeedParams(lam=lam, c=5.0 * (1 + 0.05j * (-1) ** j),
                            b=0.03 * (1 + 0.3j) * (-1) ** j, a=f"a{j}")
                 for j, lam in enumerate(lams)]
        batch = SuperspacePoint.batch(sample_grid(generator_set(seeds), count=3, seed=2))
        residual = residual_magnitude(ssge_residual(darboux_chain(0, seeds, 2).solution(), batch))
        assert np.all(residual <= 1e-10), (lams, residual)
        wrong = residual_magnitude(ssge_residual(second_solution(seeds, mutant), batch))
        mutant_fails.append(bool(np.any(wrong > 1e-10)))

    run()
    assert any(mutant_fails), f"the root of the product survives {len(mutant_fails)} draws"

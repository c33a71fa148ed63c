"""Residual evaluators: Lax pairs, zero curvature, LSP, Riccati, Backlund, scaling."""

import numpy as np
import pytest

from susygordon.darboux import SeedParams, darboux_chain, generator_set, seed_trivial, seed_wavefunction
from susygordon.errors import ParityError
from susygordon.grassmann import EVEN, ODD, GrassmannElement, allclose
from susygordon.jets import scalar_value
from susygordon.ssge import (
    backlund_residuals,
    build_lax_bosonic,
    build_lax_fermionic,
    lsp_residual,
    residual_magnitude,
    riccati_from_wavefunction,
    riccati_residuals,
    scaling_map,
    ssge_residual,
    zcc_bosonic_residual,
    zcc_fermionic_residual,
)
from susygordon.superfield import Superfield, SuperspacePoint, combine, constant_superfield

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
    pair = build_lax_fermionic(s, pt)
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


def test_bosonic_lax_pair_lifts_each_exponential_once(chain, monkeypatch):
    """exp(+-i s) serve both constructions of V+-: with exp(+-2i s) that is 4
    lifts per evaluation (building them twice made 6)."""
    import susygordon.ssge as ssge_module

    s = chain.solutions[2]
    pt = points(1)[0]
    s.evaluate(pt)  # the solution's own lifts are not the Lax pair's
    lift = ssge_module.analytic_lift
    calls = []
    monkeypatch.setattr(ssge_module, "analytic_lift",
                        lambda name, v, *rest: calls.append(name) or lift(name, v, *rest))
    assert residual_magnitude(zcc_bosonic_residual(s, pt)) < 1e-10
    assert calls == ["exp"] * 4


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
    assert good[0]["point"]["x_plus"] == [pts[0].x_plus.real, pts[0].x_plus.imag]

    bad = sweep(pts, "ssge[{}]", residual_check(constant_superfield(0.3)))
    assert not make_report("verify", {}, bad)["passed"]
    assert max(c["residual"] for c in bad) > 1e-3

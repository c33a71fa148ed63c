"""Residual evaluators: Lax pairs, zero curvature, LSP, Riccati, Backlund, scaling."""

import cmath
import math

import numpy as np
import pytest

from susygordon.darboux import (
    SeedParams,
    darboux_chain,
    generator_set,
    lsp_normalized_triple,
    seed_trivial,
    seed_wavefunction,
)
from susygordon import ssge
from susygordon.errors import LaxConsistencyError, ParityError
from susygordon.grassmann import EVEN, ODD, GrassmannElement, allclose
from susygordon.jets import JetScalar, scalar_value
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
from susygordon.superfield import (
    PointBatch,
    Superfield,
    SuperspacePoint,
    combine,
    constant_superfield,
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
        return SuperMatrix(v_plus.m, v_plus.n, rows, v_plus.parity), v_minus

    monkeypatch.setattr(ssge, "bosonic_v_pair_closed", skewed)
    with pytest.raises(LaxConsistencyError):
        build_lax_bosonic(s, pt)


def test_zcc_bosonic_catches_a_closed_entry_off_by_a_millionth(deep, deep_points, monkeypatch):
    """zcc_bosonic_residual reads the closed V+- alone, so the residual
    itself must see a closed entry that is slightly off: with V+[0, 0] scaled
    by 1 + 1e-6, the deep chain's residual passes its 1e-10 gate."""
    seeds, _ = deep
    s = darboux_chain(0, seeds, len(seeds)).solution()
    batch = PointBatch.of(deep_points[:3])
    assert np.all(residual_magnitude(zcc_bosonic_residual(s, batch)) < 1e-10)
    closed = ssge.bosonic_v_pair_closed

    def skewed(s, pt, lam, sqrt_lam):
        v_plus, v_minus = closed(s, pt, lam, sqrt_lam)
        rows = [list(row) for row in v_plus.rows]
        rows[0][0] = rows[0][0] * (1 + 1e-6)
        return SuperMatrix(v_plus.m, v_plus.n, rows, v_plus.parity), v_minus

    monkeypatch.setattr(ssge, "bosonic_v_pair_closed", skewed)
    assert np.max(residual_magnitude(zcc_bosonic_residual(s, batch))) > 1e-10


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


def test_riccati_inverts_psi_once(deep, monkeypatch):
    """p = phi/psi and q = chi/psi read one derived 1/psi: one inverse of psi
    per point, where each inverting psi on its own made two."""
    import susygordon.ssge as ssge_module

    seeds, gens = deep
    chain = darboux_chain(0, seeds, 2)
    fields = lsp_normalized_triple(chain.waves[1][0])
    pt = SuperspacePoint(0.011, -0.007, 1.3, gens=gens)
    psi = fields[0].evaluate(pt)
    inverted = []
    ginv = ssge_module.ginv
    monkeypatch.setattr(ssge_module, "ginv", lambda v: inverted.append(v) or ginv(v))
    p, q = riccati_from_wavefunction(fields)
    assert residual_magnitude(riccati_residuals(p, q, chain.solutions[1], chain.waves[1][0].lam,
                                                pt)) < 1e-10
    assert len(inverted) == 1 and inverted[0] is psi


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
            for pt in (*pts, PointBatch.of(pts)):
                a, b = got.evaluate(pt), want.evaluate(pt)
                assert a.layout is b.layout and a.block.shape == b.block.shape
                assert a.block.tobytes() == b.block.tobytes(), (n, mu, sign)


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

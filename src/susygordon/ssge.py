"""The supersymmetric sine-Gordon equation and its linear structures.

Everything here is a residual evaluator: given a candidate solution (an even
superfield s) and a sample point, it returns the defect of one of the
defining identities,

    equation          D+ D- s = i sin s
    fermionic LSP     D+- Phi = U+-(lambda, s) Phi
    zero curvature    D+ U- + D- U+ - {E U+, E U-} = 0
    bosonic LSP       d/dx+- Psi = i (D+- U+- - (E U+-)^2) Psi = V+- Psi
    classical ZCC     d/dx+ V- - d/dx- V+ + [V-, V+] = 0

together with the coupled Riccati system for p = phi/psi, q = chi/psi, the
auto-Backlund system relating two solutions through an odd auxiliary
function f, and the scaling symmetry that introduces the spectral parameter.
All residuals vanish identically exactly when s solves the equation.  Both
Lax pairs are polynomials in sqrt(lambda) with lambda-free coefficient
matrices (grades), so each zero curvature holds grade by grade.
Every function takes a :class:`~susygordon.superfield.SuperspacePoint`, one
point or a batch of several; on a batch, magnitudes and guards are per point.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import LaxConsistencyError, ParityError
from .grassmann import EVEN, ODD, GeneratorSet, GrassmannElement, analytic_lift
from .jets import JetScalar, peak
from .superfield import (
    Superfield,
    SuperspacePoint,
    d_minus,
    d_plus,
    dx_minus,
    dx_plus,
    quotient,
)
from .supermatrix import SIZE, SuperMatrix

Triple = tuple[GrassmannElement, GrassmannElement, GrassmannElement]

#: how far, relative to the matrix scale, the two bosonic Lax constructions may disagree
LAX_CONSISTENCY_TOL = 1e-9


# ---------------------------------------------------------------------------
# the equation itself
# ---------------------------------------------------------------------------

def ssge_residual(s: Superfield, pt: SuperspacePoint) -> GrassmannElement:
    """D+ D- s - i sin(s) at the point; zero iff s solves the equation there."""
    return d_plus(_d_minus_s(s, pt)) - 1j * analytic_lift("sin", s.evaluate(pt))


def _d_minus_s(s: Superfield, pt: SuperspacePoint) -> GrassmannElement:
    """D- s, derived from s: the equation, both Lax pairs, the LSP of every
    triple of a level and the Riccati check share it."""
    return s.derive("D- s", ODD, d_minus).evaluate(pt)


def _phases(s: Superfield, pt: SuperspacePoint) -> tuple[GrassmannElement, GrassmannElement]:
    """exp(i s) and exp(-i s), derived from s like D- s."""
    return tuple(s.derive(f"exp({f} s)", EVEN, lambda v, f=f: analytic_lift("exp", f * v))
                 .evaluate(pt) for f in (1j, -1j))


# ---------------------------------------------------------------------------
# the constant matrices of the lambda-free linear problem
# ---------------------------------------------------------------------------

#: the constant grades: V- holds lambda L, and U- holds sqrt(lambda) S
L_ROWS = ((-1, 1, 0), (1, -1, 0), (0, 0, -2))
S_ROWS = ((0, 0, -1j), (0, 0, 1j), (-1, 1, 0))


def _const_matrix(gens: GeneratorSet, rows: Sequence[Sequence[complex]], weight=1) -> SuperMatrix:
    wrapped = [[GrassmannElement.from_scalar(gens, v * weight) if v else GrassmannElement.zero(gens)
                for v in row] for row in rows]
    return SuperMatrix(wrapped)


def build_constraint_matrices(gens: GeneratorSet | None = None):
    """The four constant 3x3 matrices solving the algebraic constraints

    i J = [M, J],  i K = [K, M],  {J, N} = -{K, N},  M/2 = {K, N}.
    """
    if gens is None:
        gens = GeneratorSet(("theta_plus", "theta_minus"))
    j = _const_matrix(gens, [[0, 0, 0.5j], [0, 0, 0], [0, 0.5, 0]])
    k = _const_matrix(gens, [[0, 0, 0], [0, 0, -0.5j], [-0.5, 0, 0]])
    m = _const_matrix(gens, [[1j, 0, 0], [0, -1j, 0], [0, 0, 0]])
    n = _const_matrix(gens, S_ROWS)  # the constant grade of U-
    return j, k, m, n


# ---------------------------------------------------------------------------
# Lax pairs
# ---------------------------------------------------------------------------

@dataclass
class LaxPairFermionic:
    u_plus: SuperMatrix
    u_minus: SuperMatrix


@dataclass
class LaxPairBosonic:
    v_plus: SuperMatrix
    v_minus: SuperMatrix
    #: largest deviation between the defining formula and the closed forms
    #: (one per point on a batch)
    defect: float


def lax_grades(s: Superfield, pt: SuperspacePoint, pair: str,
               powers: dict | None = None) -> tuple[dict, dict]:
    """The plus and minus potentials of the ``"fermionic"`` (U+-) or ``"bosonic"``
    (V+-) Lax pair of s at the point as their lambda-free grades ``{k: M_k}``, the
    potential being the sum of ``lambda^k M_k`` (k in halves; SIGN_CONVENTIONS.md):
    U+ = P/sqrt(lambda), U- = D + sqrt(lambda) S, V+ = A/lambda + B/sqrt(lambda),
    V- = C + lambda L + sqrt(lambda) F.  Given ``powers`` ``{k: lambda^k}``, grade k
    is ``lambda^k M_k``, one scaling per entry.  exp(+-2i s) and D+ s feed only A, B."""
    w = (lambda k, c=1: c) if powers is None else (lambda k, c=1: c * powers[k])
    eis, emis = _phases(s, pt)
    dms = _d_minus_s(s, pt)
    gens, zero = eis.gens, GrassmannElement.zero(eis.gens)
    if pair == "fermionic":
        p = SuperMatrix([[zero, zero, eis * w(-0.5, 0.5j)], [zero, zero, emis * w(-0.5, -0.5j)],
                         [emis * w(-0.5, -0.5), eis * w(-0.5, 0.5), zero]])
        d = SuperMatrix([[1j * dms, zero, zero], [zero, -1j * dms, zero], [zero] * 3])
        return {-0.5: p}, {0: d, 0.5: _const_matrix(gens, S_ROWS, w(0.5))}
    s_val = s.evaluate(pt)
    e2is, e2mis = (analytic_lift("exp", f * s_val) for f in (2j, -2j))
    dps = d_plus(s_val)
    eis_dps, emis_dps = eis * dps, emis * dps
    dxm_s = dx_minus(s_val)
    a = SuperMatrix([[pt.scalar(w(-1, 0.25)), e2is * w(-1, -0.25), zero],
                     [e2mis * w(-1, -0.25), pt.scalar(w(-1, 0.25)), zero],
                     [zero, zero, pt.scalar(w(-1, 0.5))]])
    b = SuperMatrix([[zero, zero, eis_dps * w(-0.5, -0.5j)], [zero, zero, emis_dps * w(-0.5, -0.5j)],
                     [emis_dps * w(-0.5, -0.5), eis_dps * w(-0.5, -0.5), zero]])
    c = SuperMatrix([[1j * dxm_s, zero, zero], [zero, -1j * dxm_s, zero], [zero] * 3])
    # F holds each odd entry twice: a bracket shares their products
    f_up, f_low = dms * w(0.5, -1j), dms if powers is None else dms * powers[0.5]
    f = SuperMatrix([[zero, zero, f_up], [zero, zero, f_up], [f_low, f_low, zero]])
    return {-1: a, -0.5: b}, {0: c, 1: _const_matrix(gens, L_ROWS, w(1)), 0.5: f}


def _graded_sum(grades: dict, powers: dict) -> SuperMatrix:
    """The sum of ``lambda^k M_k`` over the grades ``{k: M_k}``, entry by entry:
    each nonzero entry of a grade k != 0 is scaled once, by ``powers[k]``."""
    zero = GrassmannElement.zero(next(iter(grades.values())).gens)
    return SuperMatrix.from_entries(lambda i, j: sum(
        (m.entry(i, j) if k == 0 else m.entry(i, j) * powers[k]
         for k, m in grades.items() if not m.entry(i, j).is_zero()), zero))


def _constant_bracket(rows, x: SuperMatrix, kind: str = "commutator") -> SuperMatrix:
    """``[c, x]`` or ``{c, x}`` for the matrix of numbers c = ``rows``, with no
    Grassmann product: an entry sums x's entries times their net coefficients,
    so a coefficient of +-1 adds or subtracts one, and one that cancels drops it."""
    sign = -1 if kind == "commutator" else 1

    def entry(i: int, k: int) -> GrassmannElement:
        acc = GrassmannElement.zero(x.gens)
        for j, l in product(range(SIZE), repeat=2):
            c, e = (l == k) * rows[i][j] + (j == i) * sign * rows[l][k], x.entry(j, l)
            if c and not e.is_zero():
                acc = acc + e if c == 1 else acc - e if c == -1 else acc + e * c
        return acc
    return SuperMatrix.from_entries(entry)


def fermionic_u_pair(s: Superfield, pt: SuperspacePoint,
                     sqrt_lam: JetScalar) -> LaxPairFermionic:
    """The odd potential matrices of a solution at a point, given sqrt(lambda)."""
    plus, minus = lax_grades(s, pt, "fermionic", {-0.5: sqrt_lam.reciprocal(), 0.5: sqrt_lam})
    return LaxPairFermionic(plus[-0.5], minus[0] + minus[0.5])


def bosonic_v_pair_closed(s: Superfield, pt: SuperspacePoint, lam: JetScalar,
                          sqrt_lam: JetScalar) -> tuple[SuperMatrix, SuperMatrix]:
    """The displayed closed forms of the bosonic potential matrices at lambda."""
    plus, minus = lax_grades(s, pt, "bosonic", {
        -1: lam.reciprocal(), -0.5: sqrt_lam.reciprocal(), 0.5: sqrt_lam, 1: lam})
    return plus[-1] + plus[-0.5], minus[0] + minus[1] + minus[0.5]


def zcc_grades(s: Superfield, pt: SuperspacePoint, pair: str) -> dict:
    """The lambda-free grades ``{k: G_k}`` of the zero curvature of one Lax pair
    (:func:`lax_grades`), which is the sum of ``lambda^k G_k``.  Fermionic:
    G_0 = D+ D - {E P, E S}, G_-1/2 = D- P - {E P, E D}.  Bosonic:
    G_0 = d/dx+ C + [L, A] + [F, B], G_-1 = [C, A] - d/dx- A,
    G_-1/2 = [C, B] + [F, A] - d/dx- B, G_1/2 = d/dx+ F + [L, B]."""
    plus, minus = lax_grades(s, pt, pair)
    if pair == "fermionic":
        p, d = plus[-0.5], minus[0]
        ep, es = p.e_twist(), [row if i < 2 else [-v for v in row] for i, row in enumerate(S_ROWS)]
        return {0: d.map_entries(d_plus) - _constant_bracket(es, ep, "anticommutator"),
                -0.5: p.map_entries(d_minus) - ep.bracket(d.e_twist(), "anticommutator")}
    a, b, c, f = plus[-1], plus[-0.5], minus[0], minus[0.5]
    return {0: c.map_entries(dx_plus) + _constant_bracket(L_ROWS, a) + f.bracket(b),
            -1: c.bracket(a) - a.map_entries(dx_minus),
            -0.5: c.bracket(b) + f.bracket(a) - b.map_entries(dx_minus),
            0.5: f.map_entries(dx_plus) + _constant_bracket(L_ROWS, b)}


def zcc_fermionic_residual(s: Superfield, pt: SuperspacePoint) -> SuperMatrix:
    """D+ U- + D- U+ - {E U+, E U-}; the zero matrix iff s solves the equation.
    Summed from its grades (:func:`zcc_grades`), each of which vanishes."""
    inv_sqrt = pt.lam_jet().analytic("sqrt").reciprocal()
    return _graded_sum(zcc_grades(s, pt, "fermionic"), {-0.5: inv_sqrt})


def build_lax_bosonic(s: Superfield, pt: SuperspacePoint) -> LaxPairBosonic:
    """V+- from both constructions; they must agree or the transcription is wrong.

    The guard is relative to the matrix scale (solutions deep in a Darboux
    chain carry large soul coefficients) and decides per point; the reported
    defect stays absolute.
    """
    lam_jet = pt.lam_jet()
    sqrt_lam = lam_jet.analytic("sqrt")
    v_plus, v_minus = bosonic_v_pair_closed(s, pt, lam_jet, sqrt_lam)
    pair = fermionic_u_pair(s, pt, sqrt_lam)
    # the defining formula V = i (D U - (E U)^2) of each pair
    defect = peak(((u.map_entries(deriv) - eu @ eu) * 1j - v).max_abs() for u, eu, deriv, v in (
        (pair.u_plus, pair.u_plus.e_twist(), d_plus, v_plus),
        (pair.u_minus, pair.u_minus.e_twist(), d_minus, v_minus)))
    scale = peak((1.0, v_plus.max_abs(), v_minus.max_abs()))
    if np.any(defect > LAX_CONSISTENCY_TOL * scale):
        raise LaxConsistencyError(
            f"defining and closed bosonic Lax matrices disagree by {np.max(defect):.3e}")
    return LaxPairBosonic(v_plus, v_minus, defect)


def zcc_bosonic_residual(s: Superfield, pt: SuperspacePoint) -> SuperMatrix:
    """d/dx+ V- - d/dx- V+ + [V-, V+]; zero iff s solves the equation.  Summed
    from its grades (:func:`zcc_grades`), each of which vanishes.  It reads the
    closed V+- only: that they equal the defining formula is an identity of any
    even s, checked in the tests (:func:`build_lax_bosonic`)."""
    lam = pt.lam_jet()
    sqrt_lam = lam.analytic("sqrt")
    powers = {-1: lam.reciprocal(), -0.5: sqrt_lam.reciprocal(), 0.5: sqrt_lam}
    return _graded_sum(zcc_grades(s, pt, "bosonic"), powers)


# ---------------------------------------------------------------------------
# linear spectral problem for a wavefunction triple
# ---------------------------------------------------------------------------

def apply_potential(u: SuperMatrix, triple: Triple) -> Triple:
    out = []
    for i in range(3):
        acc = GrassmannElement.zero(u.gens)
        for j in range(3):
            entry = u.entry(i, j)
            if not entry.is_zero():
                acc = acc + entry * triple[j]
        out.append(acc)
    return tuple(out)  # type: ignore[return-value]


def lsp_residual(phi: Sequence[Superfield], s: Superfield, lam: complex,
                 pt: SuperspacePoint) -> tuple[Triple, Triple]:
    """D+- Phi - U+- Phi for a (psi, phi, chi) triple at fixed lambda."""
    psi_f, phi_f, chi_f = phi
    if psi_f.parity != EVEN or phi_f.parity != EVEN or chi_f.parity != ODD:
        raise ParityError("wavefunction grading must be (even, even, odd)")
    triple: Triple = (psi_f.evaluate(pt), phi_f.evaluate(pt), chi_f.evaluate(pt))
    pair = fermionic_u_pair(s, pt, pt.const_jet(lam).analytic("sqrt"))
    res = []
    for u, deriv in ((pair.u_plus, d_plus), (pair.u_minus, d_minus)):
        rhs = apply_potential(u, triple)
        res.append(tuple(deriv(c) - r for c, r in zip(triple, rhs)))
    return res[0], res[1]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# super Riccati system
# ---------------------------------------------------------------------------

def riccati_residuals(p: Superfield, q: Superfield, s: Superfield, lam: complex,
                      pt: SuperspacePoint) -> tuple[GrassmannElement, ...]:
    """Defects of the four coupled equations for p (even) and q (odd)."""
    pv = p.evaluate(pt)
    qv = q.evaluate(pt)
    eis, emis = _phases(s, pt)
    dms = _d_minus_s(s, pt)
    sqrt_lam = pt.const_jet(lam).analytic("sqrt")
    half = (2 * sqrt_lam).reciprocal()

    r1 = d_plus(pv) - (emis * qv * (-1j * half) + eis * (pv * qv) * (-1j * half))
    r2 = d_minus(pv) - ((-2j) * (dms * pv) + (pv + 1) * qv * (1j * sqrt_lam))
    r3 = d_plus(qv) - (emis * (-1 * half) + eis * pv * half)
    r4 = d_minus(qv) - ((pv - 1) * sqrt_lam - 1j * (dms * qv))
    return r1, r2, r3, r4


def riccati_from_wavefunction(phi: Sequence[Superfield]) -> tuple[Superfield, Superfield]:
    """p = phi/psi and q = chi/psi built from a wavefunction triple: the
    :func:`~susygordon.superfield.quotient` fields a Darboux step consuming the
    triple reads, so both share one 1/psi with it."""
    psi_f, phi_f, chi_f = phi
    return quotient(phi_f, psi_f), quotient(chi_f, psi_f)


# ---------------------------------------------------------------------------
# auto-Backlund system
# ---------------------------------------------------------------------------

def backlund_residuals(s: Superfield, s_tilde: Superfield, f: Superfield,
                       lam: complex, pt: SuperspacePoint) -> tuple[GrassmannElement, ...]:
    """Defects of the four first-order relations between s, s-tilde and odd f."""
    sv = s.evaluate(pt)
    tv = s_tilde.evaluate(pt)
    fv = f.evaluate(pt)
    sqrt_lam = pt.const_jet(lam).analytic("sqrt")
    inv_sqrt = sqrt_lam.reciprocal()
    cos_diff = analytic_lift("cos", (sv - tv) * 0.5)
    cos_sum = analytic_lift("cos", (sv + tv) * 0.5)
    sin_diff = analytic_lift("sin", (sv - tv) * 0.5)
    sin_sum = analytic_lift("sin", (sv + tv) * 0.5)

    r1 = d_plus(sv + tv) - fv * cos_diff * inv_sqrt
    r2 = d_minus(sv - tv) - fv * cos_sum * (2 * sqrt_lam)
    r3 = d_plus(fv) - sin_diff * (1j * inv_sqrt)
    r4 = d_minus(fv) + sin_sum * (2j * sqrt_lam)
    return r1, r2, r3, r4


# ---------------------------------------------------------------------------
# the scaling symmetry that introduces lambda
# ---------------------------------------------------------------------------

def scaling_map(s: Superfield, mu: float, sign: int = 1) -> Superfield:
    """Pull s back through x+ -> L x+, x- -> x-/L, theta+- -> L^(+-1/2) theta+-.

    L = sign * exp(mu); maps solutions to solutions.  The theta rescaling
    multiplies each monomial coefficient by sqrt(L)^(n+ - n-) where n+- counts
    whether theta+- occurs; the jets pick up L^i L^-j on the (i, j) slots.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    bound = math.log(sys.float_info.max)  # exp(mu) and 1/exp(mu) are finite inside it
    if not abs(mu) <= bound:  # NaN fails too
        raise ValueError(f"scaling_map needs |mu| <= {bound:.2f}, got mu={mu}")
    scale = sign * math.exp(mu)
    root = cmath.sqrt(scale)

    def ev(pt: SuperspacePoint) -> GrassmannElement:
        v = s.evaluate(pt.rescaled(scale))
        plus, minus = (1 << v.gens.index(name) for name in ("theta_plus", "theta_minus"))
        return v.pulled_back(scale, 1.0 / scale, lambda m: (
            (root if m & plus else 1.0 + 0.0j) / (root if m & minus else 1.0)))

    return Superfield(ev, s.parity, f"scaled({s.label}, mu={mu}, sign={sign})")


# ---------------------------------------------------------------------------
# residual size
# ---------------------------------------------------------------------------

def residual_magnitude(obj) -> float:
    """Largest coefficient magnitude of an element/matrix/tuple-of-them
    (one per point for a batch)."""
    if isinstance(obj, (GrassmannElement, SuperMatrix)):
        return obj.max_abs()
    return peak(residual_magnitude(x) for x in obj)

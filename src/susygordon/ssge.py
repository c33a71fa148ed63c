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
All residuals vanish identically exactly when s solves the equation.
Every function takes a point or a :class:`~susygordon.superfield.PointBatch`;
on a batch, magnitudes and guards are per point.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LaxConsistencyError, ParityError
from .grassmann import EVEN, ODD, GeneratorSet, GrassmannElement, analytic_lift, ginv
from .jets import JetScalar, peak
from .superfield import (
    Superfield,
    SuperspacePoint,
    combine,
    d_minus,
    d_plus,
    dx_minus,
    dx_plus,
)
from .supermatrix import SuperMatrix

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

def _const_matrix(gens: GeneratorSet, rows: Sequence[Sequence[complex]]) -> SuperMatrix:
    wrapped = [[GrassmannElement.from_scalar(gens, v) if v else GrassmannElement.zero(gens)
                for v in row] for row in rows]
    return SuperMatrix(2, 1, wrapped)


def build_constraint_matrices(gens: GeneratorSet | None = None):
    """The four constant 3x3 matrices solving the algebraic constraints

    i J = [M, J],  i K = [K, M],  {J, N} = -{K, N},  M/2 = {K, N}.
    """
    if gens is None:
        gens = GeneratorSet(("theta_plus", "theta_minus"))
    j = _const_matrix(gens, [[0, 0, 0.5j], [0, 0, 0], [0, 0.5, 0]])
    k = _const_matrix(gens, [[0, 0, 0], [0, 0, -0.5j], [-0.5, 0, 0]])
    m = _const_matrix(gens, [[1j, 0, 0], [0, -1j, 0], [0, 0, 0]])
    n = _const_matrix(gens, [[0, 0, -1j], [0, 0, 1j], [-1, 1, 0]])
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


def fermionic_u_pair(s: Superfield, pt: SuperspacePoint,
                     sqrt_lam: JetScalar) -> LaxPairFermionic:
    """The odd potential matrices of a solution at a point, given sqrt(lambda)."""
    eis, emis = _phases(s, pt)
    dms = _d_minus_s(s, pt)
    gens = eis.gens
    zero = GrassmannElement.zero(gens)
    half = (2 * sqrt_lam).reciprocal()

    u_plus = SuperMatrix(2, 1, [
        [zero, zero, eis * (1j * half)],
        [zero, zero, emis * (-1j * half)],
        [emis * (-1 * half), eis * half, zero],
    ], parity=ODD)

    sq = GrassmannElement.from_scalar(gens, sqrt_lam)
    u_minus = SuperMatrix(2, 1, [
        [1j * dms, zero, -1j * sq],
        [zero, -1j * dms, 1j * sq],
        [-sq, sq, zero],
    ], parity=ODD)
    return LaxPairFermionic(u_plus, u_minus)


def build_lax_fermionic(s: Superfield, pt: SuperspacePoint) -> LaxPairFermionic:
    """U+- at the point, at the point's (jet-seeded) lambda."""
    return fermionic_u_pair(s, pt, pt.lam_jet().analytic("sqrt"))


def zcc_fermionic_residual(s: Superfield, pt: SuperspacePoint) -> SuperMatrix:
    """D+ U- + D- U+ - {E U+, E U-}; the zero matrix iff s solves the equation."""
    pair = build_lax_fermionic(s, pt)
    u_plus, u_minus = pair.u_plus, pair.u_minus
    eu_plus, eu_minus = u_plus.e_twist(), u_minus.e_twist()
    return SuperMatrix.from_entries(2, 1, lambda i, k: (
        d_plus(u_minus.entry(i, k)) + d_minus(u_plus.entry(i, k))
        - (eu_plus.product_entry(eu_minus, i, k) + eu_minus.product_entry(eu_plus, i, k))),
        parity=EVEN)


def bosonic_v_defining_entries(u: SuperMatrix, deriv):
    """V = i (D U - (E U)^2) for U+- with D+-, yielded as ``(i, k, entry)``.

    One entry at a time: a batch of points never holds a whole product.
    """
    eu = u.e_twist()
    for i in range(u.size):
        for k in range(u.size):
            yield i, k, 1j * (deriv(u.entry(i, k)) - eu.product_entry(eu, i, k))


def bosonic_v_pair_closed(s: Superfield, pt: SuperspacePoint, lam: JetScalar,
                          sqrt_lam: JetScalar) -> tuple[SuperMatrix, SuperMatrix]:
    """The displayed closed forms of the bosonic potential matrices at lambda.

    exp(+-2i s) and D+ s feed only these, so they are not derived from s.
    """
    s_val = s.evaluate(pt)
    gens = s_val.gens

    def emb(c) -> GrassmannElement:
        return GrassmannElement.from_scalar(gens, c)

    eis, emis = _phases(s, pt)
    dms = _d_minus_s(s, pt)
    inv_sqrt = sqrt_lam.reciprocal()
    inv_lam = lam.reciprocal()
    e2is = analytic_lift("exp", 2j * s_val)
    e2mis = analytic_lift("exp", -2j * s_val)
    dps = d_plus(s_val)
    eis_dps, emis_dps = eis * dps, emis * dps
    dxm_s = dx_minus(s_val)

    half_inv = 0.5 * inv_lam
    v_plus = SuperMatrix(2, 1, [
        [emb(half_inv), e2is * (-half_inv), eis_dps * (-1j * inv_sqrt)],
        [e2mis * (-half_inv), emb(half_inv), emis_dps * (-1j * inv_sqrt)],
        [emis_dps * (-inv_sqrt), eis_dps * (-inv_sqrt), emb(inv_lam)],
    ], parity=EVEN).scale(0.5)

    lam_e = emb(lam)
    v_minus = SuperMatrix(2, 1, [
        [1j * dxm_s - lam_e, lam_e, dms * (-1j * sqrt_lam)],
        [lam_e, -1j * dxm_s - lam_e, dms * (-1j * sqrt_lam)],
        [dms * sqrt_lam, dms * sqrt_lam, emb(-2 * lam)],
    ], parity=EVEN)
    return v_plus, v_minus


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
    defect = peak((entry - v.entry(i, k)).max_abs()
                  for u, deriv, v in ((pair.u_plus, d_plus, v_plus), (pair.u_minus, d_minus, v_minus))
                  for i, k, entry in bosonic_v_defining_entries(u, deriv))
    scale = peak((1.0, v_plus.max_abs(), v_minus.max_abs()))
    if np.any(defect > LAX_CONSISTENCY_TOL * scale):
        raise LaxConsistencyError(
            f"defining and closed bosonic Lax matrices disagree by {np.max(defect):.3e}")
    return LaxPairBosonic(v_plus, v_minus, defect)


def zcc_bosonic_residual(s: Superfield, pt: SuperspacePoint) -> SuperMatrix:
    """d/dx+ V- - d/dx- V+ + [V-, V+]; zero iff s solves the equation.  Reads
    the closed V+- only: that they equal the defining formula is an identity
    of any even s, checked in the tests (:func:`build_lax_bosonic`)."""
    lam_jet = pt.lam_jet()
    v_plus, v_minus = bosonic_v_pair_closed(s, pt, lam_jet, lam_jet.analytic("sqrt"))
    return SuperMatrix.from_entries(2, 1, lambda i, k: (
        (dx_plus(v_minus.entry(i, k)) - dx_minus(v_plus.entry(i, k)))
        + (v_minus.product_entry(v_plus, i, k) - v_plus.product_entry(v_minus, i, k))),
        parity=EVEN)


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
    """p = phi/psi and q = chi/psi built from a wavefunction triple; both read
    one 1/psi derived from psi."""
    psi_f, phi_f, chi_f = phi
    inv_psi = psi_f.derive("1/psi", EVEN, ginv)
    return (combine(EVEN, "p=phi/psi", operator.mul, phi_f, inv_psi),
            combine(ODD, "q=chi/psi", operator.mul, chi_f, inv_psi))


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

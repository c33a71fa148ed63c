"""Seed solutions and the Darboux transformation tower.

From the constant solution s = 2 k pi and explicit wavefunctions of its
linear spectral problem (one per spectral constant lambda_j, each optionally
carrying its own independent fermionic constant a_j), the one-step
transformation

    s[1]      = s - i ln(psi_0 / phi_0)
    Phi_j[1]  = T(Phi_0, lambda_0, lambda_j) Phi_j       (j != 0)

is iterated, always consuming the lowest surviving index, to produce the
multisoliton solutions s[n].  A consumed wavefunction is never reused; the
iteration ledger records the consumption order and replays deterministically.

The same solutions have a closed determinant form built from

    Delta^1/Delta^2   alternating psi/phi columns weighted by powers of lambda
    X                 ordered products of the chi components
    P                 products of cross-sums of spectral constants

whose relative signs are under-determined in places; this module fixes one
convention (see SIGN_CONVENTIONS.md) and the test suite pins it against the
iterated transformation, which is the ground truth.  The closed form and the
chain agree up to the 2 pi i ambiguity of the complex logarithm, i.e. the
body of s[n] matches modulo 2 pi and every other coefficient matches exactly.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SingularBodyError
from .grassmann import EVEN, ODD, GeneratorSet, GrassmannElement, analytic_lift, ginv
from .jets import JetScalar, near_zero, scalar_value
from .superfield import (
    BASE_GENERATORS,
    Superfield,
    SuperspacePoint,
    combine,
)

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# seed data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedParams:
    """Constants of one seed wavefunction: lambda_j, c_j, b_j and optional a_j.

    ``a`` names a dedicated odd generator (or None to drop the fermionic
    seed); distinct seeds must use distinct generator names.
    """

    lam: complex
    c: complex
    b: complex = 0.0
    a: str | None = None

    def __post_init__(self) -> None:
        if self.lam == 0:
            raise ValueError("seed lambda must be nonzero")


def generator_set(seeds: Sequence[SeedParams]) -> GeneratorSet:
    """Thetas first, then one generator per declared fermionic constant."""
    extra = [p.a for p in seeds if p.a is not None]
    if len(set(extra)) != len(extra):
        raise ValueError("fermionic constants must use distinct generator names")
    return GeneratorSet(BASE_GENERATORS + tuple(extra))


def seed_trivial(k: int, label: str | None = None) -> Superfield:
    """The constant solution s = 2 k pi."""
    value = TWO_PI * k

    def ev(pt: SuperspacePoint) -> GrassmannElement:
        return pt.scalar(pt.const_jet(value))

    return Superfield(ev, EVEN, label or f"trivial(k={k})")


def eta_jet(pt: SuperspacePoint, lam: complex) -> JetScalar:
    """The linear phase eta_j = x+/(2 lambda_j) - 2 lambda_j x-."""
    return pt.xp_jet() * (1.0 / (2 * lam)) - pt.xm_jet() * (2 * lam)


def seed_wavefunction(params: SeedParams) -> tuple[Superfield, Superfield, Superfield]:
    """The explicit wavefunction triple for the trivial solutions s = 2 k pi.

    Valid for any invertible lambda_j and every k at once (the exponentials
    of 2 k pi i are 1).  Note the chi component carries
    ``+ b theta-``: the printed form with the opposite sign fails the linear
    problem (see SIGN_CONVENTIONS.md); the residual tests pin this choice.
    """
    lam = params.lam
    sq = cmath.sqrt(lam)
    b, c = params.b, params.c

    def psi_fn(pt: SuperspacePoint) -> GrassmannElement:
        return pt.scalar(pt.const_jet(c)) + _seed_u(pt)

    def phi_fn(pt: SuperspacePoint) -> GrassmannElement:
        return pt.scalar(pt.const_jet(c)) - _seed_u(pt)

    def _seed_u(pt: SuperspacePoint) -> GrassmannElement:
        e = pt.scalar(eta_jet(pt, lam).analytic("exp"))
        tp = pt.theta("+")
        tm = pt.theta("-")
        u = pt.scalar(pt.const_jet(-b / (2 * sq)))
        if params.a is not None:
            a = pt.odd_generator(params.a)
            u = u + (a * tp) * (-1j / (2 * sq)) + (a * tm) * (1j * sq)
        u = u + (tp * tm) * (1j * b / (2 * sq))
        return u * e

    def chi_fn(pt: SuperspacePoint) -> GrassmannElement:
        e = pt.scalar(eta_jet(pt, lam).analytic("exp"))
        tp = pt.theta("+")
        tm = pt.theta("-")
        w = tp * (b / (2 * lam)) + tm * b
        if params.a is not None:
            a = pt.odd_generator(params.a)
            w = w + a + (a * (tp * tm)) * 1j
        return w * e

    tag = f"lam={lam}"
    return (Superfield(psi_fn, EVEN, f"psi[{tag}]"),
            Superfield(phi_fn, EVEN, f"phi[{tag}]"),
            Superfield(chi_fn, ODD, f"chi[{tag}]"))


# ---------------------------------------------------------------------------
# one Darboux step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveTriple:
    """A live wavefunction; ``inv_psi``/``inv_phi`` are its shared inverses,
    used by every transformation that consumes it."""

    psi: Superfield
    phi: Superfield
    chi: Superfield
    lam: complex
    index: int
    inv_psi: Superfield = field(init=False, repr=False, compare=False)
    inv_phi: Superfield = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inv_psi", combine(
            EVEN, "1/psi_0", lambda v: _checked_inverse(v, "psi_0"), self.psi))
        object.__setattr__(self, "inv_phi", combine(
            EVEN, "1/phi_0", lambda v: _checked_inverse(v, "phi_0"), self.phi))

    def fields(self) -> tuple[Superfield, Superfield, Superfield]:
        return (self.psi, self.phi, self.chi)

    def evaluate(self, pt: SuperspacePoint):
        return (self.psi.evaluate(pt), self.phi.evaluate(pt), self.chi.evaluate(pt))


def _checked_inverse(value: GrassmannElement, what: str) -> GrassmannElement:
    if near_zero(scalar_value(value.body())):
        raise SingularBodyError(f"singular point: body of {what} vanishes")
    return ginv(value)


def darboux_step_s(s: Superfield, phi0: WaveTriple) -> Superfield:
    """s[1] = s - i ln(psi_0/phi_0); singular where either body vanishes."""

    def ev(pt: SuperspacePoint) -> GrassmannElement:
        ratio = phi0.psi.evaluate(pt) * phi0.inv_phi.evaluate(pt)
        if near_zero(scalar_value(ratio.body())):
            raise SingularBodyError("singular point: body of psi_0 vanishes")
        return s.evaluate(pt) - 1j * analytic_lift("ln", ratio)

    return Superfield(ev, EVEN, f"darboux_s({s.label}; {phi0.index})")


def lsp_normalized_triple(wt: WaveTriple) -> tuple[Superfield, Superfield, Superfield]:
    """The representative of a transformed wavefunction that solves the LSP.

    The one-step transformation below keeps the printed component order,
    which is what the determinant closed forms are built from; those
    components solve the linear problem of the mirror solution (the one with
    the inverted logarithm argument).  Swapping the two even components and
    negating the odd one conjugates the potentials back, giving the solution
    of the linear problem for s[k+1] itself.  Both statements are verified by
    the residual tests.
    """
    neg_chi = combine(ODD, f"-{wt.chi.label}", lambda v: -1 * v, wt.chi)
    return (wt.phi, wt.psi, neg_chi)


def darboux_step_wavefunction(phi0: WaveTriple, target: WaveTriple) -> WaveTriple:
    """Transform a wavefunction by the consumed one (Phi_j[1] from Phi_0, Phi_j)."""
    return _step_transform(phi0)(target)


def _step_transform(phi0: WaveTriple):
    """``Phi_j -> Phi_j[1]`` for one consumed triple; its inverses and odd
    ratios are built once and shared by every target."""
    inv_psi0, inv_phi0 = phi0.inv_psi, phi0.inv_phi
    q_psi = combine(ODD, "chi_0/psi_0", operator.mul, phi0.chi, inv_psi0)
    q_phi = combine(ODD, "chi_0/phi_0", operator.mul, phi0.chi, inv_phi0)

    def transform(target: WaveTriple) -> WaveTriple:
        if target.index == phi0.index:
            raise ValueError("the consumed wavefunction cannot be transformed by itself")
        lam0, lamj = phi0.lam, target.lam
        cross = cmath.sqrt(lam0 * lamj)

        def new_psi(phi0_v, inv_psi0, q_psi, psij, phij, chij):
            return phi0_v * inv_psi0 * psij * (-lam0) + phij * lamj + (q_psi * chij) * (-1j * cross)

        def new_phi(psi0_v, inv_phi0, q_phi, psij, phij, chij):
            return psij * lamj + psi0_v * inv_phi0 * phij * (-lam0) + (q_phi * chij) * (-1j * cross)

        def new_chi(q_psi, q_phi, psij, phij, chij):
            return (q_psi * psij) * cross + (q_phi * phij) * cross + chij * (-(lam0 + lamj))

        idx = target.index
        psi_f = combine(EVEN, f"psi{idx}[+]", new_psi, phi0.phi, inv_psi0, q_psi, *target.fields())
        phi_f = combine(EVEN, f"phi{idx}[+]", new_phi, phi0.psi, inv_phi0, q_phi, *target.fields())
        chi_f = combine(ODD, f"chi{idx}[+]", new_chi, q_psi, q_phi, *target.fields())
        return WaveTriple(psi_f, phi_f, chi_f, lamj, idx)

    return transform


# ---------------------------------------------------------------------------
# the iterated chain
# ---------------------------------------------------------------------------

@dataclass
class DarbouxChain:
    """All levels of an n-step chain: solutions, live wavefunctions, ledger."""

    solutions: list[Superfield]          # s[0], s[1], ..., s[n]
    waves: list[list[WaveTriple]]        # live triples per level
    ledger: list[dict]

    @property
    def order(self) -> int:
        return len(self.solutions) - 1

    def solution(self, level: int | None = None) -> Superfield:
        return self.solutions[self.order if level is None else level]


def darboux_chain(k: int, seeds: Sequence[SeedParams], n: int) -> DarbouxChain:
    """Iterate the transformation n times, consuming the lowest index first."""
    if not 0 <= n <= len(seeds):
        raise ValueError(f"iterations must lie in 0..{len(seeds)} (one seed per step), got {n}")
    lams = [p.lam for p in seeds]
    if len(set(lams)) != len(lams):
        raise ValueError("spectral constants lambda_j must be distinct")
    generator_set(seeds)  # validates distinct fermionic labels

    live = [WaveTriple(*seed_wavefunction(p), lam=p.lam, index=j)
            for j, p in enumerate(seeds)]
    solutions = [seed_trivial(k)]
    waves = [list(live)]
    ledger: list[dict] = []
    for step in range(n):
        consumed = live[0]
        solutions.append(darboux_step_s(solutions[-1], consumed))
        transform = _step_transform(consumed)
        live = [transform(t) for t in live[1:]]
        waves.append(list(live))
        ledger.append({
            "step": step + 1,
            "consumed_index": consumed.index,
            "lambda": [consumed.lam.real, consumed.lam.imag]
            if isinstance(consumed.lam, complex) else [float(consumed.lam), 0.0],
        })
    return DarbouxChain(solutions, waves, ledger)


def replay_chain(k: int, seeds: Sequence[SeedParams], ledger: Sequence[dict]) -> DarbouxChain:
    """Re-run a recorded ledger; the consumption order must reproduce exactly."""
    chain = darboux_chain(k, seeds, len(ledger))
    for want, got in zip(ledger, chain.ledger):
        if want["consumed_index"] != got["consumed_index"]:
            raise ValueError(f"ledger mismatch at step {want['step']}")
    return chain


# ---------------------------------------------------------------------------
# closed determinant form
# ---------------------------------------------------------------------------

#: pinned conventions (fixed against the iterated chain; see SIGN_CONVENTIONS.md)
DELTA_POWER_RULE = "t"          # row t from the bottom carries lambda^t
ALPHA_RULE = "inversions"       # (-1)^alpha = parity of the concatenated split
INCLUDE_N_SIGN = False          # drop the printed global (-1)^n inside P
EMPTY_DELTA_FIRST_SUM = 1.0     # empty determinant in the X-only term of even n
SECOND_SUM_WEIGHT = 0.5         # weight of the X.X sum over ordered splits

CONVENTION_FINGERPRINT = (
    f"delta-power={DELTA_POWER_RULE};alpha={ALPHA_RULE};n-sign={INCLUDE_N_SIGN};"
    f"empty-delta={EMPTY_DELTA_FIRST_SUM};xx-weight={SECOND_SUM_WEIGHT};"
    "chi-order=ascending;seed-chi-theta-minus=+b;delta-rows=top-down"
)


def _row_power(t: int, rule: str) -> int:
    if rule == "t":
        return t
    if rule == "ceil":
        return (t + 1) // 2
    raise ValueError(f"unknown delta power rule {rule!r}")


def _alpha_sign(split: Sequence[int], rule: str) -> int:
    """(-1)^alpha for the concatenated index list of a split."""
    if rule == "none":
        return 1
    if rule == "inversions":
        inv = sum(1 for i, j in itertools.combinations(range(len(split)), 2)
                  if split[i] > split[j])
        return -1 if inv & 1 else 1
    if rule == "cyclic":
        # count the rotation taking the sorted list to the split, when one exists
        ordered = sorted(split)
        size = len(split)
        for shift in range(size):
            if list(split) == ordered[shift:] + ordered[:shift]:
                return -1 if shift & 1 else 1
        return 1
    raise ValueError(f"unknown alpha rule {rule!r}")


def delta_determinant(psis: Sequence[GrassmannElement], phis: Sequence[GrassmannElement],
                      lams: Sequence[complex], indices: Sequence[int], which: int,
                      power_rule: str = DELTA_POWER_RULE) -> GrassmannElement:
    """Determinant over the chosen indices; ``which`` selects Delta^1 or Delta^2.

    Row t (counted from the bottom) holds lambda_a^power(t) times psi_a for
    even t and phi_a for odd t; Delta^2 swaps psi and phi.  Entries are even,
    so the ordinary alternating sum applies.  No indices gives zero (the
    printed blanket convention); the one place the closed form needs the
    empty determinant to count as 1 instead (the n = 2 top tier) is handled
    there, see SIGN_CONVENTIONS.md.
    """
    if len(set(indices)) != len(indices):
        raise ValueError("delta determinant requires distinct indices")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not psis:
        raise ValueError("component lists must be nonempty")
    r = len(indices)
    gens = psis[0].gens
    if r == 0:
        return GrassmannElement.zero(gens)
    first, second = (psis, phis) if which == 1 else (phis, psis)
    # row t counted from the bottom; the determinant runs over the matrix in
    # its displayed top-down order (row order fixes the overall sign)
    grid = []
    for t in range(r):
        comps = first if t % 2 == 0 else second
        row = [comps[a] * (lams[a] ** _row_power(t, power_rule)) for a in indices]
        grid.append(row)
    grid.reverse()
    total = GrassmannElement.zero(gens)
    for perm in itertools.permutations(range(r)):
        inv = sum(1 for i, j in itertools.combinations(range(r), 2) if perm[i] > perm[j])
        term = grid[0][perm[0]]
        for t in range(1, r):
            term = term * grid[t][perm[t]]
        total = total + (term if inv % 2 == 0 else -term)
    return total


def x_product(chis: Sequence[GrassmannElement], lams: Sequence[complex],
              indices: Sequence[int]) -> GrassmannElement:
    """sqrt(prod lambda) times the ordered product of chi components."""
    if len(set(indices)) != len(indices):
        raise ValueError("x_product requires distinct indices (it vanishes anyway)")
    if not indices:
        raise ValueError("empty index list")
    pref = cmath.sqrt(math.prod([lams[a] for a in indices], start=1.0 + 0.0j))
    out = chis[indices[0]]
    for a in indices[1:]:
        out = out * chis[a]
    return out * pref


def p_polynomial(lams: Sequence[complex], left: Sequence[int], right: Sequence[int],
                 n: int, alpha_rule: str = ALPHA_RULE,
                 include_n_sign: bool = INCLUDE_N_SIGN) -> complex:
    """Signed product of all cross sums (lambda_l + lambda_r) over the split.

    Empty sides give 1 (no sign): the convention the displayed expansions use.
    The sign is (-1)^alpha with alpha the permutation parity of the
    concatenated split; the printed global (-1)^n factor is configurable and
    pinned OFF by the chain oracle (see SIGN_CONVENTIONS.md).
    """
    if set(left) & set(right):
        raise ValueError("left and right index sets must be disjoint")
    if not left or not right:
        return 1.0 + 0.0j
    prod = 1.0 + 0.0j
    for a in left:
        for b in right:
            prod *= lams[a] + lams[b]
    sign = _alpha_sign(tuple(left) + tuple(right), alpha_rule)
    if include_n_sign:
        sign *= (-1) ** n
    return sign * prod


@dataclass(frozen=True)
class ClosedFormConventions:
    power_rule: str = DELTA_POWER_RULE
    alpha_rule: str = ALPHA_RULE
    include_n_sign: bool = INCLUDE_N_SIGN
    empty_delta: float = EMPTY_DELTA_FIRST_SUM
    xx_weight: float = SECOND_SUM_WEIGHT


def _closed_form_side(psis, phis, chis, lams, n: int, which: int,
                      conv: ClosedFormConventions) -> GrassmannElement:
    """One side (numerator or denominator) of the closed-form ratio."""
    gens = psis[0].gens
    all_indices = tuple(range(n))
    total = GrassmannElement.zero(gens)
    # main sum over splits into n-2m determinant indices and 2m X indices;
    # the empty determinant counts only at n = 2, where the double-X sum
    # below is empty and the top tier degenerates to i X_01 (as displayed)
    for m in range(0, n // 2 + 1):
        for knu in itertools.combinations(all_indices, 2 * m):
            kj = tuple(a for a in all_indices if a not in knu)
            coeff = (1j ** m) * p_polynomial(lams, kj, knu, n, conv.alpha_rule,
                                             conv.include_n_sign)
            if kj:
                term = delta_determinant(psis, phis, lams, kj, which, conv.power_rule)
            else:
                if n != 2 or conv.empty_delta == 0.0:
                    continue
                term = GrassmannElement.from_scalar(gens, conv.empty_delta)
            if knu:
                term = term * x_product(chis, lams, knu)
            total = total + term * coeff
    # even order: the extra sum of double chi products
    if n % 2 == 0 and conv.xx_weight != 0.0:
        for m in range(1, n // 2):
            for knu in itertools.combinations(all_indices, 2 * m):
                kj = tuple(a for a in all_indices if a not in knu)
                coeff = ((-1) ** m / math.factorial(m)) * conv.xx_weight \
                    * p_polynomial(lams, kj, knu, n, conv.alpha_rule, conv.include_n_sign)
                term = x_product(chis, lams, kj) * x_product(chis, lams, knu)
                total = total + term * coeff
    return total


def closed_form_sn(k: int, seeds: Sequence[SeedParams], n: int,
                   conventions: ClosedFormConventions | None = None) -> Superfield:
    """s[n] from the determinant expansion over the n seed wavefunctions."""
    if n < 1 or n > len(seeds):
        raise ValueError(f"need 1 <= n <= {len(seeds)}, got {n}")
    lams = [p.lam for p in seeds]
    if len(set(lams)) != len(lams):
        raise ValueError("spectral constants lambda_j must be distinct")
    conv = conventions or ClosedFormConventions()
    triples = [seed_wavefunction(p) for p in seeds[:n]]
    base = TWO_PI * k

    def ev(pt: SuperspacePoint) -> GrassmannElement:
        psis = [t[0].evaluate(pt) for t in triples]
        phis = [t[1].evaluate(pt) for t in triples]
        chis = [t[2].evaluate(pt) for t in triples]
        num = _closed_form_side(psis, phis, chis, lams, n, 1, conv)
        den = _closed_form_side(psis, phis, chis, lams, n, 2, conv)
        ratio = num * _checked_inverse(den, "closed-form denominator")
        if near_zero(scalar_value(ratio.body())):
            raise SingularBodyError("singular point: closed-form numerator body vanishes")
        return pt.scalar(pt.const_jet(base)) - 1j * analytic_lift("ln", ratio)

    return Superfield(ev, EVEN, f"closed_form_s[{n}]")


# ---------------------------------------------------------------------------
# comparisons that respect the logarithm branch
# ---------------------------------------------------------------------------

def values_match_mod_2pi(a: GrassmannElement, b: GrassmannElement,
                         tol: float = 1e-10) -> bool:
    """Equality of solution values allowing the body to differ by 2 pi k.

    Log branches shift s[n] by whole multiples of 2 pi; every derivative and
    every soul coefficient must still agree exactly.  Batches compare per point.
    """
    diff = a - b
    body = diff.terms.get(0, None)
    shifted = dict(diff.terms)
    if body is not None:
        v = scalar_value(body)
        v = v - TWO_PI * np.round(v.real / TWO_PI)
        shifted[0] = body - scalar_value(body) + v
    return GrassmannElement(a.gens, shifted).max_abs() <= tol

"""Seed solutions and the Darboux transformation tower.

From the constant solution s = 2 k pi and explicit wavefunctions of its
linear spectral problem (one per spectral constant lambda_j, each optionally
carrying its own independent fermionic constant a_j), the one-step
transformation

    s[1]      = s - i ln(psi_0 / phi_0)
    Phi_j[1]  = T(Phi_0, lambda_0, lambda_j) Phi_j       (j != 0)

is iterated, always consuming the lowest surviving index, to produce the
multisoliton solutions s[n].  A consumed wavefunction is never reused; the
iteration ledger records the (deterministic) consumption order.

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
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grassmann import EVEN, ODD, GeneratorSet, GrassmannElement, analytic_lift, ginv
from .jets import JetScalar, peak, scalar_value
from .superfield import (
    BASE_GENERATORS,
    Superfield,
    SuperspacePoint,
    checked,
    combine,
    constant_superfield,
    quotient,
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


def seed_trivial(k: int) -> Superfield:
    """The constant solution s = 2 k pi."""
    return constant_superfield(TWO_PI * k, f"trivial(k={k})")


def eta_jet(pt: SuperspacePoint, lam: complex) -> JetScalar:
    """The linear phase eta_j = x+/(2 lambda_j) - 2 lambda_j x-."""
    return pt.xp_jet() * (1.0 / (2 * lam)) - pt.xm_jet() * (2 * lam)


@functools.lru_cache(maxsize=64)
def seed_wavefunction(params: SeedParams) -> tuple[Superfield, Superfield, Superfield]:
    """The explicit wavefunction triple for the trivial solutions s = 2 k pi.

    Valid for any invertible lambda_j and every k at once (the exponentials
    of 2 k pi i are 1).  Note the chi component carries
    ``+ b theta-``: the printed form with the opposite sign fails the linear
    problem (see SIGN_CONVENTIONS.md); the residual tests pin this choice.
    Its values depend only on ``params`` and the point, so one triple is
    interned per ``params``: a chain and a closed form built from the same
    seeds share their memoized values.  psi and phi share one superfield
    ``u`` (psi = c + u, phi = c - u), and ``u`` and chi read one ``exp(eta)``.
    The theta/a_j parts of ``u`` and chi are coefficient tables on the canonical
    monomials (theta+, theta-, then a_j; see SIGN_CONVENTIONS.md) with the
    reordering signs written in, so each is one product with ``exp(eta)``.
    """
    lam = params.lam
    sq = cmath.sqrt(lam)
    b, c = params.b, params.c
    tag = f"lam={lam}"
    exp_f = Superfield(lambda pt: pt.scalar(eta_jet(pt, lam).analytic("exp")), EVEN,
                       f"exp(eta)[{tag}]")
    tp, tm = 1, 2  # the monomials theta+ and theta-: every point's first generators

    def u_fn(pt: SuperspacePoint) -> GrassmannElement:
        # -b/(2 sqrt) + a th+ (-i/(2 sqrt)) + a th- (i sqrt) + th+ th- (i b/(2 sqrt))
        terms = {0: pt.const_jet(-b / (2 * sq)), tp | tm: 1j * b / (2 * sq)}
        if params.a is not None:
            a = 1 << pt.gens.index(params.a)
            terms |= {tp | a: 1j / (2 * sq), tm | a: -1j * sq}  # a th+- = -th+- a
        return GrassmannElement(pt.gens, terms) * exp_f.evaluate(pt)

    def chi_fn(pt: SuperspacePoint) -> GrassmannElement:
        # th+ b/(2 lam) + th- b + a + a th+ th- i, where a th+ th- = th+ th- a
        terms = {tp: b / (2 * lam), tm: b}
        if params.a is not None:
            a = 1 << pt.gens.index(params.a)
            terms |= {a: 1.0, tp | tm | a: 1j}
        return GrassmannElement(pt.gens, terms) * exp_f.evaluate(pt)

    u_f = Superfield(u_fn, EVEN, f"u[{tag}]")
    return (Superfield(lambda pt: pt.scalar(pt.const_jet(c)) + u_f.evaluate(pt), EVEN, f"psi[{tag}]"),
            Superfield(lambda pt: pt.scalar(pt.const_jet(c)) - u_f.evaluate(pt), EVEN, f"phi[{tag}]"),
            Superfield(chi_fn, ODD, f"chi[{tag}]"))


# ---------------------------------------------------------------------------
# one Darboux step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveTriple:
    """A live wavefunction (psi, phi, chi) at its spectral constant."""

    psi: Superfield
    phi: Superfield
    chi: Superfield
    lam: complex
    index: int

    def fields(self) -> tuple[Superfield, Superfield, Superfield]:
        return (self.psi, self.phi, self.chi)

    def ratio(self, num: str, den: str) -> Superfield:
        """``num`` over the even ``den`` of the triple a step consumes: the one
        :func:`~susygordon.superfield.quotient` that every transformation by the
        triple and the Riccati variables read off it share, with its inverse."""
        return quotient(getattr(self, num), getattr(self, den))

    def evaluate(self, pt: SuperspacePoint):
        return (self.psi.evaluate(pt), self.phi.evaluate(pt), self.chi.evaluate(pt))


def darboux_step_s(s: Superfield, phi0: WaveTriple) -> Superfield:
    """s[1] = s - i ln(psi_0/phi_0); singular where either body vanishes."""
    psi_over_phi = phi0.ratio("psi", "phi")

    def ev(pt: SuperspacePoint) -> GrassmannElement:
        ratio = psi_over_phi.evaluate(pt)
        log = checked(analytic_lift, "ln", ratio, what=f"body of {phi0.psi.label} vanishes")
        return s.evaluate(pt) - 1j * log  # s last: a point names this step's body first

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
    return (wt.phi, wt.psi, wt.chi.derive(f"-{wt.chi.label}", ODD, lambda v: -v))


def darboux_step_wavefunction(phi0: WaveTriple, target: WaveTriple) -> WaveTriple:
    """Transform a wavefunction by the consumed one (Phi_j[1] from Phi_0, Phi_j)."""
    if target.index == phi0.index:
        raise ValueError("the consumed wavefunction cannot be transformed by itself")
    lam0, lamj = phi0.lam, target.lam
    cross = cmath.sqrt(lam0) * cmath.sqrt(lamj)  # the seeds' own roots, not the product's
    phi_psi0, psi_phi0 = phi0.ratio("phi", "psi"), phi0.ratio("psi", "phi")
    q_psi, q_phi = phi0.ratio("chi", "psi"), phi0.ratio("chi", "phi")

    def new_psi(phi_psi0, q_psi, psij, phij, chij):
        return phi_psi0 * psij * (-lam0) + phij * lamj + (q_psi * chij) * (-1j * cross)

    def new_phi(psi_phi0, q_phi, psij, phij, chij):
        return psij * lamj + psi_phi0 * phij * (-lam0) + (q_phi * chij) * (-1j * cross)

    def new_chi(q_psi, q_phi, psij, phij, chij):
        return (q_psi * psij) * cross + (q_phi * phij) * cross + chij * (-(lam0 + lamj))

    idx = target.index
    psi_f = combine(EVEN, f"psi{idx}[+]", new_psi, phi_psi0, q_psi, *target.fields())
    phi_f = combine(EVEN, f"phi{idx}[+]", new_phi, psi_phi0, q_phi, *target.fields())
    chi_f = combine(ODD, f"chi{idx}[+]", new_chi, q_psi, q_phi, *target.fields())
    return WaveTriple(psi_f, phi_f, chi_f, lamj, idx)


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
        live = [darboux_step_wavefunction(consumed, t) for t in live[1:]]
        waves.append(list(live))
        ledger.append({
            "step": step + 1,
            "consumed_index": consumed.index,
            "lambda": [consumed.lam.real, consumed.lam.imag]
            if isinstance(consumed.lam, complex) else [float(consumed.lam), 0.0],
        })
    return DarbouxChain(solutions, waves, ledger)


# ---------------------------------------------------------------------------
# closed determinant form
# ---------------------------------------------------------------------------

#: the pinned closed-form convention, fixed against the iterated chain (see
#: SIGN_CONVENTIONS.md); every report embeds it
CONVENTION_FINGERPRINT = (
    "delta-power=t;alpha=inversions;n-sign=False;empty-delta=1.0;xx-weight=0.5;"
    "chi-order=ascending;seed-chi-theta-minus=+b;delta-rows=top-down"
)


def _row_power(t: int) -> int:
    """Row t of a Delta, counted from the bottom, carries lambda^t."""
    return t


def _inversion_sign(split: Sequence[int]) -> int:
    """(-1)^alpha: the inversion parity of a split's concatenated index list."""
    return -1 if sum(a > b for a, b in itertools.combinations(split, 2)) & 1 else 1


def _minor_table(psis: Sequence[GrassmannElement], phis: Sequence[GrassmannElement],
                 lams: Sequence[complex], columns: Sequence[int],
                 which: int) -> dict[tuple, GrassmannElement]:
    """Delta over every ascending subset of ``columns``, keyed by the subset.

    Row t of a k-subset (counted from the bottom) does not depend on k, so
    each Delta is the Laplace expansion along its top displayed row (t = k-1)
    over the minors one size down: C(n, k) k products per size k >= 2.
    """
    first, second = (psis, phis) if which == 1 else (phis, psis)
    rows = []
    for t in range(len(columns)):
        comps, power = (first if t % 2 == 0 else second), _row_power(t)
        rows.append({a: comps[a] * (lams[a] ** power) if power else comps[a] for a in columns})
    table = {(a,): rows[0][a] for a in columns}
    for k in range(2, len(columns) + 1):
        for sub in itertools.combinations(sorted(columns), k):
            total = rows[k - 1][sub[0]] * table[sub[1:]]
            for j in range(1, k):
                term = rows[k - 1][sub[j]] * table[sub[:j] + sub[j + 1:]]
                total = total - term if j % 2 else total + term
            table[sub] = total
    return table


def delta_determinant(psis: Sequence[GrassmannElement], phis: Sequence[GrassmannElement],
                      lams: Sequence[complex], indices: Sequence[int],
                      which: int) -> GrassmannElement:
    """Determinant over the chosen indices; ``which`` selects Delta^1 or Delta^2.

    Row t (counted from the bottom) holds lambda_a^t times psi_a for even t
    and phi_a for odd t; Delta^2 swaps psi and phi.  Entries are even, so
    the ordinary alternating sum applies; it is taken from the minor table
    over the sorted indices, signed by the parity of their given order.
    No indices gives zero (the printed blanket convention); the one place the
    closed form needs the empty determinant to count as 1 instead (the n = 2
    top tier) is handled there, see SIGN_CONVENTIONS.md.
    """
    if len(set(indices)) != len(indices):
        raise ValueError("delta determinant requires distinct indices")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not psis:
        raise ValueError("component lists must be nonempty")
    if not indices:
        return GrassmannElement.zero(psis[0].gens)
    value = _minor_table(psis, phis, lams, indices, which)[tuple(sorted(indices))]
    return value if _inversion_sign(indices) > 0 else -value


def x_product(chis: Sequence[GrassmannElement], lams: Sequence[complex],
              indices: Sequence[int]) -> GrassmannElement:
    """prod sqrt(lambda) times the ordered product of chi components (the
    root of each seed, as the seeds take it, not the root of the product)."""
    if len(set(indices)) != len(indices):
        raise ValueError("x_product requires distinct indices (it vanishes anyway)")
    if not indices:
        raise ValueError("empty index list")
    pref = math.prod([cmath.sqrt(lams[a]) for a in indices], start=1.0 + 0.0j)
    out = chis[indices[0]]
    for a in indices[1:]:
        out = out * chis[a]
    return out * pref


def p_polynomial(lams: Sequence[complex], left: Sequence[int],
                 right: Sequence[int]) -> complex:
    """Signed product of all cross sums (lambda_l + lambda_r) over the split.

    Empty sides give 1 (no sign): the convention the displayed expansions use.
    The sign is (-1)^alpha with alpha the permutation parity of the
    concatenated split; the printed global (-1)^n factor is dropped, as the
    chain oracle requires (see SIGN_CONVENTIONS.md).
    """
    if set(left) & set(right):
        raise ValueError("left and right index sets must be disjoint")
    if not left or not right:
        return 1.0 + 0.0j
    prod = 1.0 + 0.0j
    for a in left:
        for b in right:
            prod *= lams[a] + lams[b]
    return _inversion_sign(tuple(left) + tuple(right)) * prod


def _closed_form_sides(psis, phis, chis, lams,
                       n: int) -> tuple[GrassmannElement, GrassmannElement]:
    """Numerator and denominator of the closed-form ratio.

    They differ only in their minors (Delta^1 above, Delta^2 below): each X
    product, its P weight and the double-X sum are computed once for both.
    """
    gens = psis[0].gens
    all_indices = tuple(range(n))
    minors = [_minor_table(psis, phis, lams, all_indices, which) for which in (1, 2)]
    x = functools.cache(lambda idx: x_product(chis, lams, idx))
    sides = [GrassmannElement.zero(gens)] * 2
    shared = GrassmannElement.zero(gens)
    # main sum over splits into n-2m determinant indices and 2m X indices;
    # the empty determinant counts (as 1) only at n = 2, where the double-X
    # sum below is empty and the top tier degenerates to i X_01 (as displayed)
    for m in range(0, n // 2 + 1):
        for knu in itertools.combinations(all_indices, 2 * m):
            kj = tuple(a for a in all_indices if a not in knu)
            coeff = (1j ** m) * p_polynomial(lams, kj, knu)
            if not kj:
                if n == 2:
                    shared = shared + x(knu) * coeff
                continue
            weight = x(knu) * coeff if knu else coeff
            sides = [side + minor[kj] * weight for side, minor in zip(sides, minors)]
    # even order: the extra sum of double chi products over ordered splits,
    # weight 1/2 since each unordered pairing appears twice
    if n % 2 == 0:
        for m in range(1, n // 2):
            for knu in itertools.combinations(all_indices, 2 * m):
                kj = tuple(a for a in all_indices if a not in knu)
                coeff = ((-1) ** m / math.factorial(m)) * 0.5 * p_polynomial(lams, kj, knu)
                shared = shared + x(kj) * x(knu) * coeff
    return sides[0] + shared, sides[1] + shared


def closed_form_sn(k: int, seeds: Sequence[SeedParams], n: int) -> Superfield:
    """s[n] from the determinant expansion over the n seed wavefunctions."""
    if n < 1 or n > len(seeds):
        raise ValueError(f"need 1 <= n <= {len(seeds)}, got {n}")
    lams = [p.lam for p in seeds]
    if len(set(lams)) != len(lams):
        raise ValueError("spectral constants lambda_j must be distinct")
    triples = [seed_wavefunction(p) for p in seeds[:n]]
    base = TWO_PI * k

    def ev(pt: SuperspacePoint) -> GrassmannElement:
        psis = [t[0].evaluate(pt) for t in triples]
        phis = [t[1].evaluate(pt) for t in triples]
        chis = [t[2].evaluate(pt) for t in triples]
        num, den = _closed_form_sides(psis, phis, chis, lams, n)
        ratio = num * checked(ginv, den, what="body of closed-form denominator vanishes")
        log = checked(analytic_lift, "ln", ratio, what="closed-form numerator body vanishes")
        return pt.scalar(pt.const_jet(base)) - 1j * log

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
    body = diff.body()
    body = body - TWO_PI * np.round(np.real(scalar_value(body)) / TWO_PI)
    body_size = body.max_abs() if isinstance(body, JetScalar) else abs(body)
    return peak((diff.soul().max_abs(), body_size)) <= tol

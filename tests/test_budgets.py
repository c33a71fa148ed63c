"""The derivative budgets of the README table, pinned check by check.

Each check runs at its ``(x+, x-, lambda)`` budget and stays within 1e-10 there,
and raises ``JetBudgetError`` when one order is taken off any axis the budget
uses.  The one-soliton sample (worked example 1) serves every check except
``backlund_residuals``, which needs the Backlund sample's pair of solutions.
"""

from pathlib import Path

import pytest

from susygordon.darboux import lsp_normalized_triple
from susygordon.errors import JetBudgetError
from susygordon.geometry import (
    BetaFunction,
    metric_coeffs,
    normal_core,
    second_form_coeffs,
    tangent_data,
)
from susygordon.jets import JetSpec
from susygordon.solutions import load_solution
from susygordon.ssge import (
    backlund_residuals,
    build_lax_bosonic,
    lsp_residual,
    residual_magnitude,
    riccati_from_wavefunction,
    riccati_residuals,
    ssge_residual,
    zcc_bosonic_residual,
    zcc_fermionic_residual,
)
from susygordon.superfield import SuperspacePoint

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ONE = load_solution(SAMPLES / "one_soliton.json")
BACKLUND = load_solution(SAMPLES / "backlund_trivial.json")
BETA = BetaFunction(2.0, 1)

#: the README's derivative-budget table
BUDGETS = {
    "ssge_residual": (1, 1, 0),
    "zcc_fermionic_residual": (1, 1, 0),
    "build_lax_bosonic": (1, 2, 0),
    "zcc_bosonic_residual": (1, 1, 0),
    "lsp_residual": (1, 1, 0),
    "riccati_residuals": (1, 1, 0),
    "backlund_residuals": (1, 1, 0),
    "tangent_data": (0, 1, 1),
    "second_form_coeffs": (1, 1, 1),
}


def _lsp(pt):
    chain = ONE.chain
    return residual_magnitude([
        lsp_residual(wt.fields() if level == 0 else lsp_normalized_triple(wt),
                     chain.solutions[level], wt.lam, pt)
        for level, triples in enumerate(chain.waves) for wt in triples])


def _riccati(pt):
    wt = ONE.chain.waves[0][0]
    p, q = riccati_from_wavefunction(wt.fields())
    return residual_magnitude(riccati_residuals(p, q, ONE.chain.solutions[0], wt.lam, pt))


def _metric_g12(pt):
    # worked example 1: g12 = -i
    g12 = metric_coeffs(tangent_data(ONE.s, pt, BETA)).g12
    return (g12 - pt.scalar(pt.const_jet(-1j))).max_abs()


def _second_form_skew(pt):
    td = tangent_data(ONE.s, pt, BETA)
    _, b12, _, b21 = second_form_coeffs(td, normal_core(td))
    return (b12 + b21).max_abs()


#: each check at a point, as one number that must not exceed 1e-10
CHECKS = {
    "ssge_residual": (ONE, lambda pt: residual_magnitude(ssge_residual(ONE.s, pt))),
    "zcc_fermionic_residual": (ONE, lambda pt: residual_magnitude(
        zcc_fermionic_residual(ONE.s, pt))),
    "build_lax_bosonic": (ONE, lambda pt: build_lax_bosonic(ONE.s, pt).defect),
    "zcc_bosonic_residual": (ONE, lambda pt: residual_magnitude(zcc_bosonic_residual(ONE.s, pt))),
    "lsp_residual": (ONE, _lsp),
    "riccati_residuals": (ONE, _riccati),
    "backlund_residuals": (BACKLUND, lambda pt: residual_magnitude(backlund_residuals(
        BACKLUND.s, BACKLUND.partner, BACKLUND.odd_function, pt.lam, pt))),
    "tangent_data": (ONE, _metric_g12),
    "second_form_coeffs": (ONE, _second_form_skew),
}


def _point(bundle, orders):
    return SuperspacePoint(0.3, -0.2, 1.1, spec=JetSpec(orders), gens=bundle.gens)


@pytest.mark.parametrize("name", list(BUDGETS))
def test_check_runs_at_its_budget_and_not_one_order_below(name):
    bundle, check = CHECKS[name]
    budget = BUDGETS[name]
    assert check(_point(bundle, budget)) <= 1e-10
    for axis, order in enumerate(budget):
        if order:
            lower = tuple(o - (i == axis) for i, o in enumerate(budget))
            with pytest.raises(JetBudgetError):
                check(_point(bundle, lower))

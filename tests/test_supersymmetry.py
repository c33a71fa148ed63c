"""Supersymmetry as an exact oracle, independent of the Darboux formulas.

The supercharges ``Q+- = d/dtheta+- + i theta+- d/dx+-`` anticommute with
``D+- = d/dtheta+- - i theta+- d/dx+-``, so they map solutions to solutions.
With one more odd generator ``eps``, ``eps^2 = 0`` makes ``exp(eps Q)`` equal
``1 + eps Q`` exactly: ``s' = s + eps Q+- s`` solves the equation wherever
``s`` does, and the same map sends a wavefunction triple of ``s`` to one of
``s'``.  The checks run at the unchanged 1e-10 gate on the deep chain, whose
elements now carry 7 generators.  The shift by ``D+-`` (the sign of the
``theta d/dx`` term flipped) is the negative control.
"""

import numpy as np
import pytest

from conftest import deep_seeds, sample_grid
from susygordon.darboux import darboux_chain, generator_set, lsp_normalized_triple
from susygordon.errors import JetBudgetError
from susygordon.grassmann import GeneratorSet, GrassmannElement
from susygordon.jets import JetSpec
from susygordon.ssge import (
    lsp_residual,
    residual_magnitude,
    ssge_residual,
    zcc_bosonic_residual,
    zcc_fermionic_residual,
)
from susygordon.superfield import SuperspacePoint, combine

SEEDS = deep_seeds()
CHAIN = darboux_chain(0, SEEDS, len(SEEDS))
GENS = GeneratorSet(generator_set(SEEDS).names + ("eps",))
BATCH = SuperspacePoint.batch(sample_grid(GENS, count=3, seed=42))
#: the coefficient of ``theta d/dx``: +i makes the supercharge Q, -i the covariant D
SHIFTS = {"Q": 1j, "D": -1j}
SIDES = {"+": ("theta_plus", "x_plus"), "-": ("theta_minus", "x_minus")}


def shifted(field, shift, side):
    """``field + eps (d/dtheta + c theta d/dx) field`` on one side, c = SHIFTS[shift]."""
    theta, var = SIDES[side]
    c = SHIFTS[shift]

    def ev(v):
        eps, th = (GrassmannElement.generator(v.gens, name) for name in ("eps", theta))
        return v + eps * (v.fermi_derivative(theta) + c * (th * v.derivative(var)))
    return combine(field.parity, f"{field.label} + eps {shift}{side} {field.label}", ev, field)


def worst(residual):
    return float(np.max(residual_magnitude(residual)))


@pytest.mark.parametrize("side", list(SIDES))
def test_supersymmetry_shift_solves_the_equation_at_every_level(side):
    """ssge of s'[n] reads at most 1.1e-13 at n = 1..4; the D shift 2.6 to 58."""
    for n in range(1, len(SEEDS) + 1):
        s = CHAIN.solutions[n]
        assert worst(ssge_residual(shifted(s, "Q", side), BATCH)) <= 1e-10, n
        assert np.all(residual_magnitude(ssge_residual(shifted(s, "D", side), BATCH)) > 1e-10), n


@pytest.mark.parametrize("side", list(SIDES))
def test_supersymmetry_shift_passes_both_zero_curvature_checks(side):
    """On s'[4]: zcc-fermionic at most 6.8e-13 and zcc-bosonic at most 1.4e-12
    (the bracket on a 7-generator algebra); the D shift reads 58 and at least 100."""
    s = CHAIN.solutions[len(SEEDS)]
    for residual in (zcc_fermionic_residual, zcc_bosonic_residual):
        assert worst(residual(shifted(s, "Q", side), BATCH)) <= 1e-10, residual.__name__
        control = residual_magnitude(residual(shifted(s, "D", side), BATCH))
        assert np.all(control > 1e-10), residual.__name__


@pytest.mark.parametrize("side", list(SIDES))
def test_supersymmetry_shift_maps_a_live_triple_to_one_of_the_shifted_solution(side):
    """At levels 0-3 the shifted first live triple solves the LSP of the
    shifted solution (at most 3.8e-11); the D shift reads 5.5 to 1.3e5."""
    for level in range(len(SEEDS)):
        wt, s = CHAIN.waves[level][0], CHAIN.solutions[level]
        triple = wt.fields() if level == 0 else lsp_normalized_triple(wt)
        for shift, passes in (("Q", True), ("D", False)):
            moved = [shifted(f, shift, side) for f in triple]
            got = residual_magnitude(lsp_residual(moved, shifted(s, shift, side), wt.lam, BATCH))
            assert np.all(got <= 1e-10) if passes else np.all(got > 1e-10), (level, shift, got)


@pytest.mark.parametrize("side, budget", [("+", (2, 1, 0)), ("-", (1, 2, 0))])
def test_supersymmetry_shift_reads_one_more_order_than_the_ssge_budget(side, budget):
    """ssge reads (1, 1, 0) (tests/test_budgets.py); the shift adds one order
    of x+- on its own side, and raises ``JetBudgetError`` without it."""
    for n in (1, len(SEEDS)):
        s = shifted(CHAIN.solutions[n], "Q", side)
        pt = SuperspacePoint(0.01, -0.02, 1.1, spec=JetSpec(budget), gens=GENS)
        assert worst(ssge_residual(s, pt)) <= 1e-10, n
        with pytest.raises(JetBudgetError):
            ssge_residual(s, SuperspacePoint(0.01, -0.02, 1.1, spec=JetSpec((1, 1, 0)), gens=GENS))

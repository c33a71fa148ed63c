"""Two identities of the program's own formulas, as property tests.

Both hold for every even superfield s, whether it solves the equation or not:

- the bosonic Lax pair by its defining formula, V+- = i (D+- U+- - (E U+-)^2),
  equals the closed forms that ``zcc_bosonic_residual`` reads
  (``build_lax_bosonic`` builds both and is the reference here);
- the tangent anticommutator {E beta dU+/dlam, E beta dU-/dlam} is
  diag(q, -q, 0), of which ``geometry.normal_core`` forms only q.

So the per-point checks do not check them again.  Hypothesis draws even
superfields (affine maps, sines and exponentials of the deep chain's and the
one soliton's solutions, seed wavefunction components, constants) and checks
both identities at the tolerances of the guards they replace; the draws
include solutions and non-solutions alike.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deep_seeds, sample_grid
from susygordon.darboux import darboux_chain, generator_set
from susygordon.geometry import BetaFunction, tangent_data
from susygordon.grassmann import EVEN, analytic_lift
from susygordon.jets import peak
from susygordon.solutions import load_solution
from susygordon.ssge import (
    LAX_CONSISTENCY_TOL,
    build_lax_bosonic,
    residual_magnitude,
    ssge_residual,
)
from susygordon.superfield import PointBatch, SuperspacePoint, combine, constant_superfield
from susygordon.supermatrix import SuperMatrix
from susygordon.worked_examples import example1_bundle

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ONE = load_solution(SAMPLES / "one_soliton.json")
DEEP_SEEDS = deep_seeds()

#: each subject's chain and a batch of its sample points; the batches live as
#: long as the module, so each chain is evaluated on them once
SUBJECTS = {
    "deep": (darboux_chain(0, DEEP_SEEDS, 4),
             PointBatch.of(sample_grid(generator_set(DEEP_SEEDS), count=3, seed=5))),
    "one soliton": (ONE.chain, PointBatch.of(sample_grid(ONE.gens, count=3, seed=5,
                                                         x_half_width=0.4))),
}

#: moderate coefficients: the identities are exact, so magnitude only scales the values
FACTORS = st.sampled_from([1.0, -1.0, 1.01, 0.5, 2.0, 0.3j, 1 - 0.5j])
OFFSETS = st.sampled_from([0.0, 0.1, 2 * np.pi, -0.3, 0.2j])


@st.composite
def even_fields(draw):
    """An even superfield and the batch of its subject's points."""
    chain, batch = SUBJECTS[draw(st.sampled_from(sorted(SUBJECTS)))]
    s = chain.solutions[draw(st.sampled_from(range(chain.order, -1, -1)))]  # deepest first
    kind = draw(st.sampled_from(("a s + b", "sin(c s)", "exp(c s)", "psi", "phi", "constant")))
    if kind in ("psi", "phi"):
        seed = draw(st.sampled_from(chain.waves[0]))
        return seed.psi if kind == "psi" else seed.phi, batch
    if kind == "constant":
        b = draw(OFFSETS)
        return constant_superfield(b, f"{b}"), batch
    a = draw(FACTORS)
    if kind == "a s + b":
        b = draw(OFFSETS)
        return combine(EVEN, f"{a} {s.label} + {b}", lambda v: a * v + b, s), batch
    name = kind[:3]
    return combine(EVEN, f"{name}({a} {s.label})", lambda v: analytic_lift(name, a * v), s), batch


def ssge_of_draws(check, count):
    """Run ``check(field, batch)`` on ``count`` drawn even fields; the worst
    ssge residual of each draw, so a test can show that it met solutions and
    non-solutions alike."""
    seen = []

    @settings(max_examples=count, derandomize=True, deadline=None)
    @given(even_fields())
    def run(drawn):
        field, batch = drawn
        check(field, batch)
        seen.append(float(np.max(residual_magnitude(ssge_residual(field, batch)))))

    run()
    return seen


def anticommutator_shape_defect(td):
    """How far {E beta dU+, E beta dU-} departs from diag(q, -q, 0), relative
    to max(1, its largest coefficient), per point."""
    anti = td.ebd_plus.bracket(td.ebd_minus, "anticommutator")
    defect = peak((*(anti.entry(i, j).max_abs() for i in range(3) for j in range(3) if i != j),
                   anti.entry(2, 2).max_abs(), (anti.entry(0, 0) + anti.entry(1, 1)).max_abs()))
    return defect / peak((anti.max_abs(), 1.0))


def test_defining_and_closed_bosonic_lax_pairs_agree_on_even_fields():
    """build_lax_bosonic raises if any point's defect passes
    LAX_CONSISTENCY_TOL (1e-9) times max(1, |V+-|); the assertion repeats it."""
    def check(field, batch):
        pair = build_lax_bosonic(field, batch)
        scale = peak((1.0, pair.v_plus.max_abs(), pair.v_minus.max_abs()))
        assert np.all(pair.defect <= LAX_CONSISTENCY_TOL * scale), field.label

    seen = ssge_of_draws(check, 16)
    assert min(seen) < 1e-10 and sum(r > 1e-3 for r in seen) >= len(seen) // 2, seen


def test_tangent_anticommutator_is_diag_q_minus_q_0_on_even_fields():
    betas = [BetaFunction(2.0, 1), BetaFunction(0.5 - 1j, 2), BetaFunction(1.0, 0)]

    def check(field, batch):
        for beta in betas:
            assert np.all(anticommutator_shape_defect(tangent_data(field, batch, beta))
                          <= 1e-12), field.label

    seen = ssge_of_draws(check, 16)
    assert min(seen) < 1e-10 and sum(r > 1e-3 for r in seen) >= len(seen) // 2, seen


def test_shape_check_flags_bent_tangents():
    """Negative control, on the tangents that ``normal_core`` once rejected:
    one entry scaled by 1.5 bends the anticommutator off diag(q, -q, 0)."""
    ex1 = example1_bundle(lam0=1.25, c0=1.4 + 0.3j)
    td = tangent_data(ex1.s, SuperspacePoint(0.3, -0.25, 1.15, gens=ex1.gens), BetaFunction(2.0, 1))
    assert anticommutator_shape_defect(td) <= 1e-12
    rows = [list(row) for row in td.ebd_plus.rows]
    rows[0][2] = rows[0][2] * 1.5
    bent = replace(td, ebd_plus=SuperMatrix(2, 1, rows, parity=td.ebd_plus.parity))
    assert bent.ebd_plus.bracket(bent.ebd_minus, "anticommutator").entry(0, 1).max_abs() > 1e-3
    assert anticommutator_shape_defect(bent) > 1e-3

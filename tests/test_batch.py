"""Batches of sample points: one jet/Grassmann evaluation per sweep chunk.

A :class:`PointBatch` evaluates the same formulas as its points one at a
time.  These tests pin that down at every layer: batched jets and elements
against their per-point slices, every sweep command of the CLI with the
chunk size forced to 1 against the batched default, the per-point fallback
for singular points and mixed branches, and a near-miss input that the
batch must still reject.
"""

import gc
import json

import numpy as np
import pytest

from susygordon import reporting
from susygordon.cli import main
from susygordon.darboux import (
    SeedParams,
    closed_form_sn,
    darboux_chain,
    generator_set,
    values_match_mod_2pi,
)
from susygordon.errors import JetBudgetError, LaxConsistencyError, SingularBodyError
from susygordon.geometry import curvatures
from susygordon.grassmann import EVEN, GrassmannElement, element_to_json
from susygordon.jets import JetScalar, JetSpec, PerPoint, jet_allclose
from susygordon.reporting import sweep
from susygordon.solutions import build_solution
from susygordon.ssge import (
    build_lax_bosonic,
    residual_magnitude,
    ssge_residual,
    zcc_bosonic_residual,
    zcc_fermionic_residual,
)
from susygordon.superfield import PointBatch, Superfield, SuperspacePoint
from test_cli import DARBOUX1, DARBOUX2, SAMPLES, write

from conftest import sample_grid

GENS = generator_set([SeedParams(lam=1.0, c=1.0, a="a0")])


def grid(count=5, seed=11, gens=GENS):
    return sample_grid(gens, count=count, seed=seed, x_half_width=0.4)


# ---------------------------------------------------------------------------
# kernels: a batch is its points side by side
# ---------------------------------------------------------------------------

def test_point_is_a_batch_of_one(deep, deep_points):
    """A point evaluates on the batch path: every jet it builds has a point
    axis of length 1, and a residual at the point is, bit for bit, the
    residual at the batch of that one point."""
    pt = deep_points[2]
    for jet in (pt.xp_jet(), pt.xm_jet(), pt.lam_jet(), pt.const_jet(0.3)):
        assert jet.c.shape == (1,) + pt.spec.shape
    for elem in (pt.scalar(pt.lam_jet()), pt.scalar(0.5), pt.theta("+"), pt.odd_generator("a0")):
        assert elem.points() == 1 and elem.block.shape[1] == 1
    assert JetScalar(np.ones((3, 3, 2))).c.shape == (1, 3, 3, 2)
    seeds, _ = deep
    s = darboux_chain(0, seeds, len(seeds)).solution()
    batch = PointBatch.of([pt])

    def entries(value):
        return [value] if isinstance(value, GrassmannElement) else [
            e for row in value.rows for e in row]

    for residual in (ssge_residual, zcc_bosonic_residual):
        at_point, at_batch = entries(residual(s, pt)), entries(residual(s, batch))
        assert len(at_point) == len(at_batch)
        for a, b in zip(at_point, at_batch):
            assert a.layout.keys == b.layout.keys and a.block.shape == b.block.shape
            assert a.block.tobytes() == b.block.tobytes(), residual.__name__


def test_batched_jets_match_their_points():
    pts = grid()
    batch = PointBatch.of(pts)
    u = (batch.xp_jet() * batch.lam_jet() + 0.3j).analytic("exp") * batch.xm_jet()
    v = batch.const_jet([pt.lam for pt in pts]).analytic("sqrt").reciprocal() - u.derivative("x_plus")
    assert u.c.shape == (5, 3, 3, 2) and v.c.shape == (5, 2, 3, 2)
    for i, pt in enumerate(pts):
        ui = (pt.xp_jet() * pt.lam_jet() + 0.3j).analytic("exp") * pt.xm_jet()
        vi = pt.const_jet(pt.lam).analytic("sqrt").reciprocal() - ui.derivative("x_plus")
        assert np.array_equal(u.at(i).c, ui.c) and np.array_equal(v.at(i).c, vi.c)
        assert u.value[i] == ui.value and u.max_abs()[i] == ui.max_abs()
    # a jet of one point is the same at every point of a batch; two batches do not mix
    assert np.array_equal((u * JetScalar.constant(2.0)).c, (u * 2.0).c)
    with pytest.raises(ValueError):
        u * PointBatch.of(pts[:3]).xp_jet()


def test_batch_extract_and_allclose_decide_per_point():
    pts = grid()
    batch = PointBatch.of(pts)
    u = (batch.xp_jet() * batch.lam_jet()).analytic("exp") * batch.xm_jet()
    d = u.extract((1, 1, 1))
    assert d.shape == (5,)
    for i, pt in enumerate(pts):
        assert d[i] == ((pt.xp_jet() * pt.lam_jet()).analytic("exp") * pt.xm_jet()).extract((1, 1, 1))
    with pytest.raises(JetBudgetError):
        u.extract((3, 0, 0))
    assert jet_allclose(u, u) and not jet_allclose(u, u.at(2))
    assert jet_allclose(JetScalar(np.stack([u.at(2).c] * 5)), u.at(2))
    # a shift at one point of the batch is seen
    bumped = u + np.array([0.0, 0.0, 1e-3, 0.0, 0.0])
    assert not jet_allclose(u, bumped) and not jet_allclose(bumped, u.at(0))


def test_arrays_on_the_left_defer_to_jets_and_elements():
    batch = PointBatch.of(grid())
    u, shift = batch.xp_jet(), np.arange(5.0)
    assert np.array_equal((shift + u).c, (u + shift).c)
    elem = batch.theta("+")
    for bad in (lambda: shift * u, lambda: shift * elem, lambda: shift + elem):
        with pytest.raises(TypeError):
            bad()


def test_batch_drops_a_monomial_only_where_it_vanishes_everywhere():
    pts = [SuperspacePoint(0.0, 0.1, 1.0, gens=GENS), SuperspacePoint(0.5, 0.1, 1.0, gens=GENS)]
    batch = PointBatch.of(pts)
    body = batch.scalar(batch.const_jet(1.0))
    tt = batch.theta("+") * batch.theta("-")
    # the theta+ theta- coefficient x+ vanishes at the first point only
    elem = body + tt * batch.scalar(batch.const_jet([pt.x_plus for pt in pts]))
    assert set(elem.terms) == {0, 0b11} and elem.points() == 2
    assert set(elem.at(0).terms) == {0} and set(elem.at(1).terms) == {0, 0b11}
    both = element_to_json(elem)
    assert isinstance(both, PerPoint)
    assert both[0] == element_to_json(elem.at(0)) and len(both[1]) == 2
    assert (elem - elem).is_zero()


def test_point_batch_is_a_memo_key():
    pts = grid(3)
    batch = PointBatch.of(pts)
    assert batch == PointBatch.of(list(pts)) and hash(batch) == hash(PointBatch.of(pts))
    calls = []
    field = Superfield(lambda pt: calls.append(pt) or pt.scalar(pt.xp_jet()), EVEN, "x+")
    assert field.evaluate(batch) is field.evaluate(PointBatch.of(pts)) and len(calls) == 1
    with pytest.raises(ValueError):
        PointBatch.of([pts[0], SuperspacePoint(0.1, 0.2, 1.0, spec=JetSpec((1, 1, 1)),
                                               gens=GENS)])


def test_memo_entry_lives_as_long_as_its_batch():
    pts = grid(3)
    calls = []
    field = Superfield(lambda pt: calls.append(1) or pt.scalar(pt.xp_jet()), EVEN, "x+")
    batch = PointBatch.of(pts)
    field.evaluate(batch)
    assert len(calls) == 1
    del batch
    gc.collect()
    # an equal batch misses: nothing was kept for the one that is gone
    field.evaluate(PointBatch.of(pts))
    assert len(calls) == 2


def test_lax_guard_decides_per_point(monkeypatch):
    import susygordon.ssge as ssge_module

    seeds = [SeedParams(lam=0.6, c=1.2, b=0.1, a="a0")]
    s = darboux_chain(0, seeds, 1).solution()
    pts = grid(4, gens=generator_set(seeds))
    pairs = [build_lax_bosonic(s, pt) for pt in pts]
    assert list(build_lax_bosonic(s, PointBatch.of(pts)).defect) == [p.defect for p in pairs]
    worst = max(p.defect / max(1.0, p.v_plus.max_abs(), p.v_minus.max_abs()) for p in pairs)
    assert worst > 0.0
    # the batch stops exactly when one of its points would
    monkeypatch.setattr(ssge_module, "LAX_CONSISTENCY_TOL", worst * 1.01)
    build_lax_bosonic(s, PointBatch.of(pts))
    monkeypatch.setattr(ssge_module, "LAX_CONSISTENCY_TOL", worst * 0.99)
    with pytest.raises(LaxConsistencyError):
        build_lax_bosonic(s, PointBatch.of(pts))


def test_chain_and_closed_form_agree_on_a_batch():
    seeds = [SeedParams(lam=0.6, c=1.2 + 0.1j, b=0.1 - 0.04j, a="a0"),
             SeedParams(lam=1.7, c=1.0 - 0.15j, b=0.08 + 0.05j, a="a1")]
    gens = generator_set(seeds)
    pts = grid(3, gens=gens)
    chain, closed = darboux_chain(0, seeds, 2).solution(), closed_form_sn(0, seeds, 2)
    batch = PointBatch.of(pts)
    agree = values_match_mod_2pi(chain.evaluate(batch), closed.evaluate(batch))
    assert list(agree) == [True] * 3
    # a per-point shift of the body by 2 pi is still a match, a soul shift is not
    moved = chain.evaluate(batch) + batch.scalar(batch.const_jet([0.0, 2 * np.pi, -4 * np.pi]))
    assert list(values_match_mod_2pi(moved, closed.evaluate(batch))) == [True] * 3
    off = moved + batch.theta("+") * batch.theta("-") * batch.scalar(batch.const_jet([0, 1e-6, 0]))
    assert list(values_match_mod_2pi(off, closed.evaluate(batch))) == [True, False, True]


# ---------------------------------------------------------------------------
# every sweep command: chunk size 1 against the batched default
# ---------------------------------------------------------------------------

def _numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [abs(value)] if isinstance(value, float) else []


def _agree(a, b, tol, where):
    """Equal structure, numbers within tol; a monomial on one side only is 0 on the other."""
    if isinstance(a, list) and a and isinstance(a[0], dict) and "monomial" in a[0]:
        ma = {tuple(e["monomial"]): complex(e["re"], e["im"]) for e in a}
        mb = {tuple(e["monomial"]): complex(e["re"], e["im"]) for e in b}
        for m in set(ma) | set(mb):
            assert abs(ma.get(m, 0) - mb.get(m, 0)) <= tol, (where, m)
    elif isinstance(a, dict):
        assert set(a) == set(b), where
        for key in a:
            _agree(a[key], b[key], tol, f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _agree(x, y, tol, f"{where}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= tol, (where, a, b)
    else:
        assert a == b, (where, a, b)


def _sweep_commands(tmp_path):
    d1 = write(tmp_path, "d1.json", DARBOUX1)
    d2 = write(tmp_path, "d2.json", DARBOUX2)
    seeds = write(tmp_path, "seeds.json", {"k": 0, "seeds": DARBOUX2["seeds"]})
    near = ["--points", "5", "--seed", "4", "--x-range=-0.4,0.4"]
    commands = [["verify", kind, "--solution", d1] + near
                for kind in ("ssge", "zcc-fermionic", "zcc-bosonic")]
    commands += [["verify", kind, "--solution", d2] + near for kind in ("lsp", "riccati")]
    commands.append(["verify", "backlund", "--solution", str(SAMPLES / "backlund_trivial.json"),
                     "--points", "5"])
    commands += [["solve", "darboux", "--seeds", seeds, "--mode", mode] + near
                 for mode in ("chain", "closed-form")]
    commands += [["geometry", "--solution", d1] + near,
                 ["geometry", "--solution", d1, "--expect", "example1"] + near]
    commands += [["reproduce", target, "--points", "5"] for target in ("example1", "example2")]
    return commands


def test_every_sweep_command_matches_point_by_point(tmp_path, monkeypatch):
    default = reporting.CHUNK
    for argv in _sweep_commands(tmp_path):
        reports = {}
        for chunk in (1, default):
            monkeypatch.setattr(reporting, "CHUNK", chunk)
            out = tmp_path / f"report{chunk}.json"
            assert main(argv + ["--out", str(out)]) == 0, argv
            reports[chunk] = json.loads(out.read_text())
        single, batched = reports[1], reports[default]
        assert single["passed"] == batched["passed"]
        assert len(single["checks"]) == len(batched["checks"]) == 5
        for a, b in zip(single["checks"], batched["checks"]):
            assert a.get("passed") == b.get("passed") and a.get("singular") == b.get("singular")
            scale = max([1.0] + _numbers(a))
            _agree(a, b, 1e-12 * scale, f"{argv[:2]} {a['name']}")


# ---------------------------------------------------------------------------
# the per-point fallback
# ---------------------------------------------------------------------------

def _entries(points, check, monkeypatch, chunk):
    monkeypatch.setattr(reporting, "CHUNK", chunk)
    return sweep(points, "p[{}]", check)


def _singular_at_origin():
    """A one-soliton bundle and its ssge check.  b0 = 2 sqrt(lambda0) c0:
    psi_0 has no body where eta0 = 0, i.e. at x+ = x- = 0."""
    lam0, c0 = 0.8, 1.1
    bundle = build_solution({"kind": "darboux1", "lambda0": [lam0, 0], "a0": "a0",
                             "b0": [2 * np.sqrt(lam0) * c0, 0], "c0": [c0, 0]})

    def check(pt):
        mag = residual_magnitude(ssge_residual(bundle.s, pt))
        return {"residual": mag, "passed": mag <= 1e-10}
    return bundle, check


def test_singular_point_in_a_chunk_reports_per_point_entries(monkeypatch):
    bundle, check = _singular_at_origin()
    pts = [SuperspacePoint(x, y, 1.2, gens=bundle.gens)
           for x, y in ((0.6, -0.5), (0.0, 0.0), (-0.7, 0.4), (0.5, 0.5))]
    with pytest.raises(SingularBodyError):
        check(PointBatch.of(pts))
    batched = _entries(pts, check, monkeypatch, reporting.CHUNK)
    assert batched == _entries(pts, check, monkeypatch, 1)
    assert ["singular" in e for e in batched] == [False, True, False, False]
    assert all(e["passed"] for e in batched)


def test_a_singular_chunk_of_one_point_is_checked_once():
    """A batch of one fails where its point fails, so the sweep records the
    batch's error, which is the point's own, without checking the point again."""
    bundle, check = _singular_at_origin()
    pt = SuperspacePoint(0.0, 0.0, 1.2, gens=bundle.gens)
    with pytest.raises(SingularBodyError) as err:
        check(pt)
    kinds = []
    entries = sweep([pt], "p[{}]", lambda p: kinds.append(type(p).__name__) or check(p))
    assert kinds == ["PointBatch"]
    assert entries == [{"name": "p[0]", "point": reporting._point_json(pt),
                        "singular": str(err.value), "passed": True}]


def test_mixed_branch_in_a_chunk_reports_per_point_entries(monkeypatch):
    # the metric discriminant's body is x+: the curvature quotient is defined
    # at x+ != 0 only, so the batch cannot take one branch for all points
    pts = [SuperspacePoint(x, 0.1, 1.0, gens=GENS) for x in (0.3, 0.0, -0.2)]

    def check(pt):
        zero = GrassmannElement.zero(pt.gens)
        one = pt.scalar(pt.const_jet(1.0))
        curv = curvatures(pt.scalar(pt.xp_jet()), zero, one, zero, zero, zero)
        return {"note": curv.gaussian_note, "passed": True}

    with pytest.raises(SingularBodyError):
        check(PointBatch.of(pts))
    batched = _entries(pts, check, monkeypatch, reporting.CHUNK)
    assert batched == _entries(pts, check, monkeypatch, 1)
    assert [e["note"] for e in batched] == ["quotient", "undefined: vanishing discriminant",
                                            "quotient"]


# ---------------------------------------------------------------------------
# negative control: zero-dropping over a batch hides nothing
# ---------------------------------------------------------------------------

def test_batch_rejects_the_deep_chain_plus_a_top_monomial(deep, deep_points):
    seeds, gens = deep
    s4 = darboux_chain(0, seeds, 4).solution()

    def near_miss(pt):
        top = pt.theta("+") * pt.theta("-") * pt.odd_generator("a0") * pt.odd_generator("a1")
        return s4.evaluate(pt) + top * 1e-6

    bad = Superfield(near_miss, EVEN, "s[4] + 1e-6 theta+ theta- a0 a1")
    assert len(deep_points) <= reporting.CHUNK  # one batch
    for residual in (ssge_residual, zcc_fermionic_residual, zcc_bosonic_residual):
        def check(pt):
            mag = residual_magnitude(residual(bad, pt))
            return {"residual": mag, "passed": mag <= 1e-10}

        entries = sweep(deep_points, "p[{}]", check)
        assert len(entries) == 20 and not any(e["passed"] for e in entries), residual.__name__
        assert min(e["residual"] for e in entries) > 1e-7

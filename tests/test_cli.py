"""CLI: schemas, determinism, exit codes, and command behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import susygordon
from susygordon.cli import main
from susygordon.errors import ConfigError
from susygordon.grassmann import GeneratorSet
from susygordon.reporting import parse_jet_spec, sample_points
from susygordon.solutions import build_solution

GENS = GeneratorSet(("theta_plus", "theta_minus"))
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
DEEP_CHAIN = SAMPLES.parent / "perfbench" / "inputs" / "deep_chain.json"

DARBOUX1 = {"kind": "darboux1", "k": 0, "lambda0": [1.25, 0.0], "a0": "a0",
            "b0": [0.0, 0.0], "c0": [1.4, 0.3]}
DARBOUX2 = {"kind": "darboux", "k": 0, "iterations": 2, "mode": "chain",
            "seeds": [
                {"lambda": [0.6, 0.0], "a": "a0", "b": [0.1, -0.04], "c": [1.2, 0.1]},
                {"lambda": [1.7, 0.0], "a": "a1", "b": [0.08, 0.05], "c": [1.0, -0.15]},
            ]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_points_deterministic():
    a = sample_points(6, 13, GENS)
    b = sample_points(6, 13, GENS)
    assert a == b


def test_sample_points_lambda_stays_positive():
    pts = sample_points(50, 3, GENS)
    assert all(pt.lam.real > 0 and pt.lam.imag == 0 for pt in pts)


def test_sample_points_config_errors():
    with pytest.raises(ConfigError):
        sample_points(0, 1, GENS)
    with pytest.raises(ConfigError):
        sample_points(3, 1, GENS, lam_range=(-1.0, 2.0))


def test_parse_jet_spec():
    assert parse_jet_spec("3,2,1").orders == (3, 2, 1)
    assert parse_jet_spec(None).orders == (2, 2, 1)
    with pytest.raises(ConfigError):
        parse_jet_spec("3,2")


# ---------------------------------------------------------------------------
# solution schema
# ---------------------------------------------------------------------------

def test_solution_kinds_build():
    assert build_solution({"kind": "trivial", "k": 2}).s.parity == "even"
    b = build_solution(DARBOUX1)
    assert b.chain is not None and len(b.seeds) == 1
    bt = build_solution({"kind": "backlund_trivial", "k": 0, "k_tilde": 1})
    assert bt.partner is not None and bt.odd_function is not None
    sc = build_solution({"kind": "scaled", "mu": 0.3, "sign": 1, "base": DARBOUX1})
    assert sc.s.parity == "even"
    with pytest.raises(ConfigError):
        build_solution({"kind": "nope"})
    with pytest.raises(ConfigError):
        build_solution({"kind": "darboux", "seeds": []})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_verify_all_kinds_pass(tmp_path):
    sol1 = write(tmp_path, "d1.json", DARBOUX1)
    sol2 = write(tmp_path, "d2.json", DARBOUX2)
    bt = write(tmp_path, "bt.json", {"kind": "backlund_trivial", "k": 0, "k_tilde": 1})
    base = ["--points", "4", "--seed", "11", "--x-range=-0.4,0.4"]
    for kind, sol in (("ssge", sol1), ("zcc-fermionic", sol1), ("zcc-bosonic", sol1),
                      ("lsp", sol2), ("riccati", sol2), ("backlund", bt)):
        out = tmp_path / f"{kind}.json"
        code = main(["verify", kind, "--solution", sol, "--out", str(out)] + base)
        assert code == 0, kind
        report = json.loads(out.read_text())
        assert report["passed"] and len(report["checks"]) == 4


def test_verify_trivial_solution_has_zero_residual(tmp_path):
    sol = write(tmp_path, "t.json", {"kind": "trivial", "k": 0})
    out = tmp_path / "r.json"
    assert main(["verify", "ssge", "--solution", sol, "--points", "5",
                 "--seed", "42", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(c["residual"] == 0.0 for c in report["checks"])
    # k != 0 picks up the rounding of 2 k pi but stays at noise level
    sol1 = write(tmp_path, "t1.json", {"kind": "trivial", "k": 1})
    assert main(["verify", "ssge", "--solution", sol1, "--points", "3",
                 "--out", str(tmp_path / "r1.json")]) == 0


def test_verify_scaled_solution(tmp_path):
    sol = write(tmp_path, "s.json", {"kind": "scaled", "mu": -0.5, "sign": 1,
                                     "base": DARBOUX1})
    code = main(["verify", "ssge", "--solution", sol, "--points", "3",
                 "--x-range=-0.3,0.3", "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_verify_with_complex_sampling(tmp_path):
    # the identities are analytic: they hold off the real axis too
    sol = write(tmp_path, "d1.json", DARBOUX1)
    out = tmp_path / "c.json"
    code = main(["verify", "ssge", "--solution", sol, "--points", "4",
                 "--seed", "3", "--complex", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert any(p["point"]["x_plus"][1] != 0.0 for p in report["checks"])


def test_exit_codes(tmp_path, capsys):
    sol = write(tmp_path, "d1.json", DARBOUX1)
    # an impossible tolerance fails the check and exits 1
    code = main(["verify", "ssge", "--solution", sol, "--points", "2",
                 "--tol", "1e-30", "--out", str(tmp_path / "f.json")])
    assert code == 1
    # zcc-bosonic reads only the closed V+-, so it runs at its (1, 1, 0) budget
    assert main(["verify", "zcc-bosonic", "--solution", str(SAMPLES / "one_soliton.json"),
                 "--points", "2", "--jet-spec", "1,1,0", "--out", str(tmp_path / "z.json")]) == 0
    # a config problem exits 2
    trivial = write(tmp_path, "t.json", {"kind": "trivial"})
    assert main(["verify", "lsp", "--solution", trivial, "--out", str(tmp_path / "x.json")]) == 2
    assert main(["verify", "ssge", "--solution", str(tmp_path / "missing.json")]) == 2
    # malformed input exits 2 with an error line, never a traceback
    scaled = write(tmp_path, "scaled.json", {"kind": "scaled", "mu": 3, "sign": -1,
                                             "base": json.loads((SAMPLES / "one_soliton.json")
                                                                .read_text())})
    truncated = tmp_path / "cut.json"
    truncated.write_text(json.dumps(DARBOUX1)[:30], encoding="utf-8")
    for argv in (
        ["verify", "ssge", "--solution", write(tmp_path, "z.json", {**DARBOUX1, "lambda0": [0, 0]})],
        ["verify", "ssge", "--solution", str(truncated)],
        ["verify", "ssge", "--solution", write(tmp_path, "list.json", [1, 2])],
        ["verify", "ssge", "--solution", write(tmp_path, "seed3.json", {**DARBOUX2, "seeds": [3]})],
        ["solve", "darboux", "--seeds", write(tmp_path, "seeds_list.json", [1, 2])],
        ["verify", "zcc-bosonic", "--solution", str(SAMPLES / "one_soliton.json"),
         "--jet-spec", "1,0,0"],
        # JSON of the right shape holding values of the wrong type
        ["verify", "ssge", "--solution", write(tmp_path, "n.json", {"kind": "darboux", "seeds": 3})],
        ["verify", "ssge", "--solution", write(tmp_path, "k.json", {"kind": "trivial", "k": [1]})],
        ["verify", "ssge", "--solution", write(tmp_path, "k15.json", {"kind": "trivial", "k": 1.5})],
        ["solve", "darboux", "--seeds", write(tmp_path, "s5.json", {"k": 0, "seeds": 5})],
        # as in a solution file, an empty seed list has nothing to transform
        ["solve", "darboux", "--seeds", write(tmp_path, "s0.json", {"k": 0, "seeds": []})],
        # a negative iteration count would verify the trivial seed
        ["verify", "ssge", "--solution", write(tmp_path, "neg.json", {**DARBOUX2, "iterations": -1})],
        ["solve", "darboux", "--seeds", write(tmp_path, "s2.json", {"k": 0, "seeds": DARBOUX2["seeds"]}),
         "--iterations", "-1"],
        # float64 overflow: cmath per point, numpy on a batch
        ["verify", "ssge", "--solution", str(DEEP_CHAIN), "--x-range=-1e4,1e4"],
        ["verify", "ssge", "--solution", str(SAMPLES / "one_soliton.json"), "--x-range=-1e3,1e3"],
        # sampling and geometry flags that do not parse, are not finite or are out of order
        ["verify", "ssge", "--solution", sol, "--x-range=1,0"],
        ["verify", "ssge", "--solution", sol, "--x-range", "abc"],
        ["verify", "ssge", "--solution", sol, "--x-range=nan,1"],
        ["verify", "ssge", "--solution", sol, "--lam-range=0.5,inf"],
        ["geometry", "--solution", sol, "--beta", "x"],
        # a tolerance that is not finite or is negative would pass or fail every check
        *([*cmd, "--tol", tol] for cmd in (["verify", "ssge", "--solution", sol],
                                          ["geometry", "--solution", sol],
                                          ["reproduce", "example1"],
                                          ["solve", "darboux", "--seeds",
                                           str(SAMPLES / "two_soliton_seeds.json")])
          for tol in ("nan", "inf", "-1")),
        # orders past the accepted maximum would build an oversized product table
        ["verify", "ssge", "--solution", str(SAMPLES / "one_soliton.json"), "--points", "1",
         "--jet-spec", "20,20,20"],
        # a check the solution kind cannot supply
        ["verify", "riccati", "--solution", trivial],
        ["verify", "backlund", "--solution", sol],
        ["verify", "ssge", "--solution",
         write(tmp_path, "bogus.json", {**DARBOUX2, "mode": "bogus"})],
        # the worked-example tables read the first seed; these solutions have none
        ["geometry", "--solution", trivial, "--expect", "example1"],
        ["geometry", "--solution", str(SAMPLES / "backlund_trivial.json"), "--expect", "example2"],
        ["geometry", "--solution", write(tmp_path, "sc.json", {"kind": "scaled", "mu": 0.2,
                                                               "base": {"kind": "trivial"}}),
         "--expect", "example1"],
        # a scaled solution has no chain of its own: the base's would check the wrong object
        ["verify", "lsp", "--solution", scaled],
        ["verify", "riccati", "--solution", scaled],
        ["geometry", "--solution", scaled, "--expect", "example1"],
    ):
        capsys.readouterr()
        assert main(argv + ["--points", "2"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_solution_echo_is_the_file_as_written(tmp_path):
    # a key the schema does not use, even one named like an internal field, is echoed verbatim
    payload = {**DARBOUX2, "_echo": {"kind": "trivial"}}
    out = tmp_path / "echo.json"
    assert main(["verify", "ssge", "--solution", write(tmp_path, "e.json", payload),
                 "--points", "1", "--x-range=-0.4,0.4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["solution"] == payload


def test_verify_closed_form_solution(tmp_path):
    sol = write(tmp_path, "cf.json", {**DARBOUX2, "mode": "closed-form"})
    assert main(["verify", "ssge", "--solution", sol, "--points", "3", "--seed", "4",
                 "--x-range=-0.4,0.4", "--out", str(tmp_path / "cf_report.json")]) == 0


def test_module_entry_point_runs():
    src = Path(susygordon.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "susygordon", "reproduce", "constraints"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["passed"] and report["command"] == "reproduce"


def test_all_singular_sweep_fails(tmp_path):
    # c0 = b0 = 0 leaves psi_0 = -phi_0 without a body: every point is singular
    sol = write(tmp_path, "sing.json", {"kind": "darboux1", "lambda0": [1, 0], "a0": "a0",
                                        "b0": [0, 0], "c0": [0, 0]})
    for argv in (["verify", "ssge"], ["geometry"]):
        out = tmp_path / "sing_report.json"
        assert main(argv + ["--solution", sol, "--points", "3", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert all("singular" in c for c in report["checks"])
        assert report["passed"] is False


def test_reports_are_byte_identical(tmp_path):
    sol = write(tmp_path, "d1.json", DARBOUX1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "zcc-fermionic", "--solution", sol, "--points", "5",
            "--seed", "23", "--x-range=-0.5,0.5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_modes_agree(tmp_path):
    seeds = write(tmp_path, "seeds.json", {"k": 0, "seeds": DARBOUX2["seeds"]})
    outs = {}
    for mode in ("chain", "closed-form"):
        out = tmp_path / f"{mode}.json"
        code = main(["solve", "darboux", "--seeds", seeds, "--iterations", "2",
                     "--mode", mode, "--points", "4", "--seed", "9",
                     "--x-range=-0.4,0.4", "--out", str(out)])
        assert code == 0
        outs[mode] = json.loads(out.read_text())
    assert outs["chain"]["ledger"] == [
        {"step": 1, "consumed_index": 0, "lambda": [0.6, 0.0]},
        {"step": 2, "consumed_index": 1, "lambda": [1.7, 0.0]},
    ]
    for ca, cb in zip(outs["chain"]["checks"], outs["closed-form"]["checks"]):
        va = {tuple(e["monomial"]): complex(e["re"], e["im"]) for e in ca["value"]}
        vb = {tuple(e["monomial"]): complex(e["re"], e["im"]) for e in cb["value"]}
        assert set(va) == set(vb)
        for key, value in va.items():
            assert abs(value - vb[key]) < 1e-9, key


def test_geometry_command(tmp_path):
    sol = write(tmp_path, "d1.json", DARBOUX1)
    out = tmp_path / "g.json"
    code = main(["geometry", "--solution", sol, "--beta", "2,1", "--points", "3",
                 "--seed", "5", "--expect", "example1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["checks"][0]["surface"]["mean_note"] == "undefined: vanishing discriminant"


def test_geometry_without_expectations(tmp_path):
    sol = write(tmp_path, "d2.json", {**DARBOUX2, "iterations": 1})
    out = tmp_path / "g2.json"
    code = main(["geometry", "--solution", sol, "--points", "2", "--seed", "5",
                 "--x-range=-0.3,0.3", "--out", str(out)])
    assert code == 0


def test_reproduce_commands(tmp_path):
    for target in ("constraints", "example1", "example2"):
        out = tmp_path / f"{target}.json"
        assert main(["reproduce", target, "--points", "4", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"], target
    rep2 = json.loads((tmp_path / "example2.json").read_text())
    assert rep2["mean_body_special_case"]["matches_minus_cosh"]


@pytest.mark.parametrize("seed", [363570837, 654525488, 855288821, 2051568415,
                                  455195476, 2037249694, 1270144091])
def test_reproduce_example2_corner_points(tmp_path, seed):
    # each seed draws a point where derivative coefficients dwarf the body of
    # the metric discriminant, so the inverse must not lose digits there
    out = tmp_path / "example2.json"
    assert main(["reproduce", "example2", "--points", "20", "--seed", str(seed),
                 "--out", str(out)]) == 0


def test_reproduce_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reproduce", "example1", "--points", "3", "--out", str(a)]) == 0
    assert main(["reproduce", "example1", "--points", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main() reuses one parser; each command's stdout and exit code equal those
    of a call with a freshly built parser, an argparse rejection included."""
    from susygordon.cli import build_parser

    sol = write(tmp_path, "sol.json", DARBOUX2)
    commands = [
        ["verify", "ssge", "--solution", sol, "--points", "2", "--seed", "3"],
        ["verify", "lsp", "--solution", sol, "--points", "2", "--complex"],
        ["reproduce", "constraints"],
        ["verify", "nonsense", "--solution", sol],
        ["geometry", "--solution", sol, "--points", "2", "--beta", "2,1"],
        ["verify", "ssge", "--solution", sol, "--tol", "-1"],
        ["reproduce", "example1", "--points", "2"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        return code, capsys.readouterr().out

    reused = [run(argv) for argv in commands]
    assert build_parser.cache_info().currsize == 1
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 0, 2, 0, 2, 0]


def test_repeated_deep_sweeps_add_no_cached_tables(capsys):
    """grassmann's interned layouts and the tables each holds grow with the
    shapes a sweep meets, not with its points: after one zcc-bosonic and lsp
    sweep of the deep chain, sweeps at fresh seeds add no layout and no table.
    The interned seed triples stay within their bound."""
    from susygordon import grassmann
    from susygordon.darboux import seed_wavefunction

    sizes = []
    for seed in (1, 2, 3):
        for kind in ("zcc-bosonic", "lsp"):
            assert main(["verify", kind, "--solution", str(DEEP_CHAIN), "--points", "4",
                         "--seed", str(seed), "--x-range=-0.03,0.03"]) == 0
        layouts = list(grassmann._LAYOUTS.values())
        sizes.append((len(layouts), sum(len(layout.derived) for layout in layouts)))
    capsys.readouterr()
    assert sizes[1] == sizes[0] and sizes[2] == sizes[0]
    assert sizes[0][0] <= grassmann.MAX_LAYOUTS
    info = seed_wavefunction.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_lambda_free_checks_run_on_lambda_free_jet_grids(capsys, monkeypatch):
    """The equation and the LSP at each seed's own lambda never read the
    point's lambda, so every jet product of their deep sweeps runs on a grid
    with one lambda slot; zcc-bosonic, which takes the point's lambda, does
    reach the full (3, 3, 2) grid.  The grid is recorded where a product
    picks its kernel, so products of either kernel are seen."""
    from susygordon import grassmann

    grids, pair_sums = [], grassmann._pair_sums

    def recorded(a, b, pairs, grid):
        grids.append(grid)
        return pair_sums(a, b, pairs, grid)

    monkeypatch.setattr(grassmann, "_pair_sums", recorded)
    seen = {}
    for kind in ("ssge", "lsp", "zcc-bosonic"):
        grids.clear()
        assert main(["verify", kind, "--solution", str(DEEP_CHAIN), "--points", "3",
                     "--seed", "11", "--x-range=-0.03,0.03"]) == 0
        seen[kind] = set(grids)
    capsys.readouterr()
    assert seen["ssge"] and seen["lsp"]
    assert {grid[2] for grid in seen["ssge"] | seen["lsp"]} == {1}
    assert (3, 3, 2) in seen["zcc-bosonic"]


def test_bounded_layouts_keep_reports(capsys, monkeypatch):
    """With a small MAX_LAYOUTS the intern table starts afresh many times in
    one deep sweep: the report is byte-identical to the unbounded one, and the
    table never holds more layouts than the bound."""
    from susygordon import grassmann

    argv = ["verify", "lsp", "--solution", str(DEEP_CHAIN), "--points", "3",
            "--seed", "5", "--x-range=-0.03,0.03"]
    assert main(argv) == 0
    unbounded = capsys.readouterr().out
    bound, sizes = 40, []
    intern = grassmann._layout

    def counted(keys, shapes):
        got = intern(keys, shapes)
        sizes.append(len(grassmann._LAYOUTS))
        return got

    monkeypatch.setattr(grassmann, "MAX_LAYOUTS", bound)
    monkeypatch.setattr(grassmann, "_layout", counted)
    grassmann._clear_layouts()
    assert main(argv) == 0
    assert capsys.readouterr().out == unbounded
    assert max(sizes) <= bound
    assert sum(after < before for before, after in zip(sizes, sizes[1:])) > 1


def test_stdout_report(capsys):
    code = main(["reproduce", "constraints"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["passed"] and report["command"] == "reproduce"
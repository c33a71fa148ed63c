"""CLI: schemas, determinism, exit codes, and command behavior."""

import json
from pathlib import Path

import pytest

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
    # a config problem exits 2
    assert main(["verify", "lsp", "--solution",
                 write(tmp_path, "t.json", {"kind": "trivial"}),
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["verify", "ssge", "--solution", str(tmp_path / "missing.json")]) == 2
    # malformed input exits 2 with an error line, never a traceback
    truncated = tmp_path / "cut.json"
    truncated.write_text(json.dumps(DARBOUX1)[:30], encoding="utf-8")
    for argv in (
        ["verify", "ssge", "--solution", write(tmp_path, "z.json", {**DARBOUX1, "lambda0": [0, 0]})],
        ["verify", "ssge", "--solution", str(truncated)],
        ["verify", "ssge", "--solution", write(tmp_path, "list.json", [1, 2])],
        ["verify", "ssge", "--solution", write(tmp_path, "seed3.json", {**DARBOUX2, "seeds": [3]})],
        ["solve", "darboux", "--seeds", write(tmp_path, "seeds_list.json", [1, 2])],
        ["verify", "zcc-bosonic", "--solution", str(SAMPLES / "one_soliton.json"),
         "--jet-spec", "1,1,0"],
        # JSON of the right shape holding values of the wrong type
        ["verify", "ssge", "--solution", write(tmp_path, "n.json", {"kind": "darboux", "seeds": 3})],
        ["verify", "ssge", "--solution", write(tmp_path, "k.json", {"kind": "trivial", "k": [1]})],
        ["verify", "ssge", "--solution", write(tmp_path, "k15.json", {"kind": "trivial", "k": 1.5})],
        ["solve", "darboux", "--seeds", write(tmp_path, "s5.json", {"k": 0, "seeds": 5})],
        # a negative iteration count would verify the trivial seed
        ["verify", "ssge", "--solution", write(tmp_path, "neg.json", {**DARBOUX2, "iterations": -1})],
        ["solve", "darboux", "--seeds", write(tmp_path, "s2.json", {"k": 0, "seeds": DARBOUX2["seeds"]}),
         "--iterations", "-1"],
        # float64 overflow: cmath per point, numpy on a batch
        ["verify", "ssge", "--solution", str(DEEP_CHAIN), "--x-range=-1e4,1e4"],
        ["verify", "ssge", "--solution", str(SAMPLES / "one_soliton.json"), "--x-range=-1e3,1e3"],
    ):
        capsys.readouterr()
        assert main(argv + ["--points", "2"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


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


def test_reproduce_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reproduce", "example1", "--points", "3", "--out", str(a)]) == 0
    assert main(["reproduce", "example1", "--points", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_report(capsys):
    code = main(["reproduce", "constraints"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["passed"] and report["command"] == "reproduce"
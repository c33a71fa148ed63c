"""Fuzzed CLI input: solution files, seed files and flags drawn at random.

Each run starts from a valid command, then puts junk into up to two places:
a value anywhere in its JSON input (a wrong type, a junk kind, NaN, +-inf, a
number too large or too small for a float, a missing key) or a flag's value.
Whatever the input, a run exits 0, 1 or 2 (argparse's own usage errors raise
``SystemExit(2)``), and a report it writes is strict JSON: no ``NaN`` or
``Infinity``, which RFC 8259 does not allow.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from susygordon.cli import main
from test_cli import DARBOUX2, SAMPLES

#: stands for the path of the drawn JSON payload in an argv
FILE = "{file}"
ONE_SOLITON = json.loads((SAMPLES / "one_soliton.json").read_text())
SOLUTIONS = [ONE_SOLITON, DARBOUX2, {"kind": "trivial", "k": 1},
             {"kind": "backlund_trivial", "k": 0, "k_tilde": 1},
             {"kind": "scaled", "mu": 0.3, "sign": -1, "base": ONE_SOLITON}]
SEED_FILE = {"k": 0, "seeds": DARBOUX2["seeds"]}
#: marks a key to drop
MISSING = object()

numbers = st.one_of(st.integers(-2, 3), st.floats(-3, 3), st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e-320, 10 ** 30, -1000.0, -720.0]))
junk = st.one_of(numbers, st.lists(numbers, max_size=3), st.none(), st.booleans(), st.just({}),
                 st.sampled_from(["", "bogus", "scaled", "darboux", "a0"]), st.just(MISSING))
words = st.sampled_from(["0", "1", "-1", "2", "0.5", "5", "nan", "inf", "-inf", "1e308", "1e-320",
                         "x", ""])
#: a valid value of each optional flag
FLAGS = {
    "verify": {"complex": [None], "seed": ["3"], "tol": ["1e-10", "1e-6"],
               "jet-spec": ["2,2,1", "1,1,0", "2,2,2"], "x-range": ["-0.5,0.5", "0,0.1"],
               "lam-range": ["0.5,2", "1,3"]},
    "solve": {"iterations": ["1", "2"], "mode": ["chain", "closed-form"], "seed": ["3"],
              "jet-spec": ["2,2,1", "1,1,1"], "x-range": ["-0.5,0.5"], "lam-range": ["0.5,2"]},
    "geometry": {"beta": ["2,1", "-0.5,2", "1,-1"], "expect": ["example1", "example2"],
                 "seed": ["3"], "tol": ["1e-10"], "x-range": ["-0.5,0.5"]},
    "reproduce": {"seed": ["3"], "tol": ["1e-10", "1e-6"]},
}


def _paths(data, prefix=()):
    """The path of every value in a JSON document, the document itself first."""
    yield prefix
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(data, path, value):
    """``data`` with the value at ``path`` replaced (dropped, for MISSING)."""
    if not path:
        return value
    copy = dict(data) if isinstance(data, dict) else list(data)
    inner = _replaced(data[path[0]], path[1:], value)
    if inner is MISSING:
        del copy[path[0]]
    else:
        copy[path[0]] = inner
    return copy


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    payload = None
    if command == "verify":
        kind = draw(st.sampled_from(["ssge", "zcc-fermionic", "zcc-bosonic", "lsp", "riccati",
                                     "backlund"]))
        argv, payload = ["verify", kind, "--solution", FILE], draw(st.sampled_from(SOLUTIONS))
    elif command == "solve":
        argv, payload = ["solve", "darboux", "--seeds", FILE], SEED_FILE
    elif command == "geometry":
        argv, payload = ["geometry", "--solution", FILE], draw(st.sampled_from(SOLUTIONS))
    else:
        argv = ["reproduce", draw(st.sampled_from(["example1", "example2", "constraints"]))]
    flags = {name: draw(st.sampled_from(good)) for name, good in FLAGS[command].items()
             if draw(st.booleans())}
    for _ in range(draw(st.integers(0, 2))):
        if payload is not None and draw(st.booleans()):
            path = draw(st.sampled_from(list(_paths(payload))))
            payload = _replaced(payload, path, draw(junk))
        else:
            flags[draw(st.sampled_from(list(FLAGS[command])))] = draw(
                st.lists(words, min_size=1, max_size=3).map(",".join))
    argv += [f"--points={draw(st.sampled_from([2, 3, 1, 0, -1]))}"]
    argv += [f"--{name}" if value is None else f"--{name}={value}" for name, value in flags.items()]
    return argv, None if payload is MISSING else payload


def _strict(constant):
    raise ValueError(f"not JSON: {constant}")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(invocations())
@example((["verify", "ssge", "--solution", FILE],
          {"kind": "scaled", "mu": -1000, "base": ONE_SOLITON}))
@example((["verify", "ssge", "--solution", FILE],
          {"kind": "scaled", "mu": float("nan"), "base": {"kind": "trivial"}}))
@example((["geometry", "--solution", FILE, "--beta=nan,1", "--points=2"], ONE_SOLITON))
def test_any_input_exits_0_1_or_2_with_strict_json(invocation):
    argv, payload = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        argv = [str(path) if arg == FILE else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                assert stop.code == 2, argv
                return
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith("error: ") and not out.getvalue(), argv
    else:
        report = json.loads(out.getvalue(), parse_constant=_strict)
        assert report["passed"] == (code == 0), argv

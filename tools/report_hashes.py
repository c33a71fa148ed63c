"""Exit codes and stdout hashes of the reference commands of one checkout.

    python3 tools/report_hashes.py CHECKOUT_ROOT [--only NAME ...] [--against OTHER_ROOT]

Imports ``src/susygordon`` of the checkout under a module name of its own,
runs each reference command in-process through ``cli.main`` and prints one
line per command: its name, its exit code and the first 16 hex digits of the
SHA-256 of its stdout.  Two checkouts whose lines are equal wrote
byte-identical reports.

With ``--against OTHER_ROOT`` each command also runs on the other checkout.
For a command whose hash differs, the tool prints the largest absolute
difference of each numeric report field (list positions dropped from the
field's path, complex values as their parts) and whether every ``passed`` and
``singular`` value agrees.  It then exits 1 when any command's exit code, or
any ``passed`` or ``singular`` value, differs between the two checkouts.  The
tool reads the checkouts' inputs and writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

PACKAGE = "susygordon"
DEEP = ("--x-range=-0.03,0.03", "--points", "20", "--seed", "3")

#: name -> argv, run from the checkout root: a report echoes its input path as
#: written, so the paths stay relative and two checkouts' reports compare
COMMANDS = {
    **{f"verify-{kind}-deep": ["verify", kind, "--solution", "perfbench/inputs/deep_chain.json",
                               *DEEP]
       for kind in ("ssge", "zcc-fermionic", "zcc-bosonic", "lsp", "riccati")},
    **{f"solve-{mode}-deep": ["solve", "darboux", "--seeds", "perfbench/inputs/deep_seeds.json",
                              "--mode", mode, *DEEP]
       for mode in ("chain", "closed-form")},
    **{f"solve-closed-form-deep-n{n}": ["solve", "darboux", "--seeds",
                                        "perfbench/inputs/deep_seeds.json", "--mode",
                                        "closed-form", "--iterations", str(n), *DEEP]
       for n in (2, 3)},
    **{f"reproduce-{target}": ["reproduce", target]
       for target in ("example1", "example2", "constraints")},
    "geometry-soliton": ["geometry", "--solution", "samples/one_soliton.json"],
    "geometry-deep": ["geometry", "--solution", "perfbench/inputs/deep_chain.json", *DEEP],
    "verify-zcc-bosonic-scaled": ["verify", "zcc-bosonic", "--solution",
                                  "samples/scaled_one_soliton.json"],
    "verify-lsp-soliton": ["verify", "lsp", "--solution", "samples/one_soliton.json"],
    "verify-riccati-soliton": ["verify", "riccati", "--solution", "samples/one_soliton.json"],
    "verify-backlund": ["verify", "backlund", "--solution", "samples/backlund_trivial.json"],
    # psi_0 and phi_0 have no body anywhere: every point is singular, and the
    # report names the body the check found vanishing first
    **{f"verify-{kind}-singular": ["verify", kind, "--solution",
                                   "samples/singular_one_soliton.json", "--points", "3"]
       for kind in ("ssge", "riccati")},
    "solve-closed-form-singular": ["solve", "darboux", "--seeds", "samples/singular_seeds.json",
                                   "--mode", "closed-form", "--points", "3"],
}


def load_cli(root: Path, name: str = "report_hashes_pkg"):
    """The ``cli`` module of the package under ``root/src``, imported as ``name``."""
    src = root / "src" / PACKAGE
    if not (src / "__init__.py").is_file():
        sys.exit(f"error: {root} has no src/{PACKAGE}")
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]  # a module loaded earlier under this name, maybe of another checkout
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run(cli, root: Path, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout SHA-256 prefix and stdout of one command run in-process from ``root``."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    finally:
        os.chdir(cwd)
    text = out.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()[:16], text


def leaves(value, path: str = ""):
    """``(path, value)`` for every scalar of a parsed report, in order; list
    positions are left out of the path, so a field's path names all its entries."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item, path + "[]")
    else:
        yield path, value


def compare(text: str, other: str) -> list[str]:
    """Lines saying how two reports differ: the largest absolute difference
    of each numeric field, each other field that differs, and whether every
    ``passed`` and ``singular`` value agrees."""
    try:
        a, b = list(leaves(json.loads(text))), list(leaves(json.loads(other)))
    except ValueError:
        return ["not both JSON reports"]
    verdicts = [[leaf for leaf in side if leaf[0].rsplit(".", 1)[-1] in ("passed", "singular")]
                for side in (a, b)]
    lines = []
    if [path for path, _ in a] != [path for path, _ in b]:
        lines.append("the reports hold different fields")
    else:
        largest = {}
        for (path, x), (_, y) in zip(a, b):
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
                largest[path] = max(largest.get(path, 0.0), abs(x - y))
            elif x != y:
                largest[path] = "differs"
        lines += [f"{path:40s} " + (diff if isinstance(diff, str) else f"max |diff| {diff:.3g}")
                  for path, diff in largest.items() if diff]
    lines.append("passed and singular " + ("agree" if verdicts[0] == verdicts[1] else "DIFFER"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="root of the checkout")
    parser.add_argument("--only", nargs="+", choices=sorted(COMMANDS), metavar="NAME",
                        help="run only these commands")
    parser.add_argument("--against", type=Path, metavar="OTHER_ROOT",
                        help="also run each command on this checkout and compare the reports")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    cli = load_cli(root)
    other = args.against and args.against.resolve()
    other_cli = other and load_cli(other, "report_hashes_other")
    differs = False
    for name in args.only or COMMANDS:
        code, digest, text = run(cli, root, COMMANDS[name])
        if not other:
            print(f"{name:26s} exit {code} sha256 {digest}")
            continue
        code_b, digest_b, text_b = run(other_cli, other, COMMANDS[name])
        same = "same" if (code, digest) == (code_b, digest_b) else "differs"
        print(f"{name:26s} exit {code} {code_b} sha256 {digest} {digest_b} {same}")
        differs |= code != code_b
        if digest != digest_b:
            lines = compare(text, text_b)
            for line in lines:
                print("    " + line)
            differs |= lines[-1] != "passed and singular agree"
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())

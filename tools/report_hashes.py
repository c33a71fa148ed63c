"""Exit codes and stdout hashes of the reference commands of one checkout.

    python3 tools/report_hashes.py CHECKOUT_ROOT [--only NAME ...]

Imports ``src/susygordon`` of the checkout under a module name of its own,
runs each reference command in-process through ``cli.main`` and prints one
line per command: its name, its exit code and the first 16 hex digits of the
SHA-256 of its stdout.  Two checkouts whose lines are equal wrote
byte-identical reports.  The tool reads the checkout's inputs and writes
nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
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
    **{f"reproduce-{target}": ["reproduce", target]
       for target in ("example1", "example2", "constraints")},
    "geometry-soliton": ["geometry", "--solution", "samples/one_soliton.json"],
    "verify-lsp-soliton": ["verify", "lsp", "--solution", "samples/one_soliton.json"],
    "verify-riccati-soliton": ["verify", "riccati", "--solution", "samples/one_soliton.json"],
    "verify-backlund": ["verify", "backlund", "--solution", "samples/backlund_trivial.json"],
}


def load_cli(root: Path, name: str = "report_hashes_pkg"):
    """The ``cli`` module of the package under ``root/src``, imported as ``name``."""
    src = root / "src" / PACKAGE
    if not (src / "__init__.py").is_file():
        sys.exit(f"error: {root} has no src/{PACKAGE}")
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run(cli, root: Path, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout SHA-256 prefix of one command run in-process from ``root``."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="root of the checkout")
    parser.add_argument("--only", nargs="+", choices=sorted(COMMANDS), metavar="NAME",
                        help="run only these commands")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    cli = load_cli(root)
    for name in args.only or COMMANDS:
        code, digest = run(cli, root, COMMANDS[name])
        print(f"{name:24s} exit {code} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

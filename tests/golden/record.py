"""Record the reports of `verify` suites: every suite at its defaults, and
the oracle-driven suites at sizes past their defaults; and the reports of
the lattice commands `inversions`, `invariants`, `act` and `flag-quotient`.

    PYTHONPATH=src python3 tests/golden/record.py

Runs ``torusquot verify --suite S`` for each registered suite, each
command of ``SIZED_COMMANDS`` and each command of ``CLI_COMMANDS``, in
process through ``cli.run``, and writes its exit code and its standard
output, one list entry per line, to ``verify_defaults.json``,
``verify_sized.json`` and ``cli_commands.json`` beside this script.
``tests/test_golden.py`` compares the same runs with those files.
Re-record only when a report changes on purpose, and list each changed
output and why; never re-record to hide a defect.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import Dict

from torusquot import cli, verify

PATH = Path(__file__).resolve().parent / "verify_defaults.json"
SIZED_PATH = Path(__file__).resolve().parent / "verify_sized.json"
CLI_PATH = Path(__file__).resolve().parent / "cli_commands.json"

# suite and flags; each runs in under a second and asks the
# Hilbert-Mumford oracle (lemma-2.7), bumps subsets (lemma-3.1) or reads
# permuted pivot sets off generic supports (lemma-4.1); at n = 11, r = 5
# is among the slowest ranks, and r = 7 holds the cell whose 292-subset
# support tests/test_oracle.py pins
SIZED_COMMANDS = (
    ("lemma-2.7", "--n", "9", "--r", "4"),
    ("lemma-2.7", "--n", "11", "--r", "7"),
    ("lemma-2.7", "--n", "11", "--r", "5"),
    ("lemma-3.1", "--n", "8"),
    ("lemma-3.1", "--n", "10"),
    ("lemma-4.1", "--n", "7"),
)


_TOP_8_16 = ("--n", "16", "--r", "8", "--a", *map(str, range(8, 16)))  # top cell of G(8, 16)

# the README examples, and one larger input each: the top cell of G(8, 16)
# under two generators of different cases, and the full flag cell at n = 6;
# each runs in under a second
CLI_COMMANDS = (
    ("inversions", "--n", "5", "--r", "2", "--a", "2", "4"),
    ("inversions", *_TOP_8_16),
    ("invariants", "--n", "5", "--r", "2", "--a", "2", "4"),
    ("invariants", *_TOP_8_16),
    ("act", "--n", "5", "--r", "2", "--a", "2", "4", "--gen", "2"),
    ("act", *_TOP_8_16, "--gen", "3"),
    ("act", *_TOP_8_16, "--gen", "8"),
    ("flag-quotient", "--n", "3", "--tau", "1", "2"),
    ("flag-quotient", "--n", "6", "--tau", *"1 2 1 3 2 1 4 3 2 1 5 4 3 2 1".split()),
)


def run_cli(*argv: str) -> Dict[str, object]:
    """Exit code and standard output lines of ``torusquot *argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return {"exit": code, "stdout": out.getvalue().split("\n")}


def run_verify(suite: str, *flags: str) -> Dict[str, object]:
    """Exit code and standard output lines of ``verify --suite suite *flags``."""
    return run_cli("verify", "--suite", suite, *flags)


def _write(path: Path, snapshot: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")


def main() -> None:
    _write(PATH, {suite: run_verify(suite) for suite in verify.available_suites()})
    _write(SIZED_PATH, {" ".join(command): run_verify(*command) for command in SIZED_COMMANDS})
    _write(CLI_PATH, {" ".join(command): run_cli(*command) for command in CLI_COMMANDS})


if __name__ == "__main__":
    main()

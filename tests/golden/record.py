"""Record the reports of `verify` suites: every suite at its defaults, and
the oracle-driven suites at sizes past their defaults.

    PYTHONPATH=src python3 tests/golden/record.py

Runs ``torusquot verify --suite S`` for each registered suite, and each
command of ``SIZED_COMMANDS``, in process through ``cli.run``, and writes
its exit code and its standard output, one list entry per line, to
``verify_defaults.json`` and ``verify_sized.json`` beside this script.
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

# suite and flags; each runs in under a second and samples the
# Hilbert-Mumford oracle (lemma-2.7) or bumps subsets (lemma-3.1)
SIZED_COMMANDS = (
    ("lemma-2.7", "--n", "9", "--r", "4"),
    ("lemma-3.1", "--n", "8"),
)


def run_verify(suite: str, *flags: str) -> Dict[str, object]:
    """Exit code and standard output lines of ``verify --suite suite *flags``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "--suite", suite, *flags])
    return {"exit": code, "stdout": out.getvalue().split("\n")}


def _write(path: Path, snapshot: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")


def main() -> None:
    _write(PATH, {suite: run_verify(suite) for suite in verify.available_suites()})
    _write(SIZED_PATH, {" ".join(command): run_verify(*command) for command in SIZED_COMMANDS})


if __name__ == "__main__":
    main()

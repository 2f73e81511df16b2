"""Record the report of every `verify` suite at its defaults.

    PYTHONPATH=src python3 tests/golden/record.py

Runs ``torusquot verify --suite S`` for each registered suite in process
through ``cli.run`` and writes its exit code and its standard output, one
list entry per line, to ``verify_defaults.json`` beside this script.
``tests/test_golden.py`` compares the same runs with that file.  Re-record
only when a report changes on purpose, and list each changed output and
why; never re-record to hide a defect.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import Dict

from torusquot import cli, verify

PATH = Path(__file__).resolve().parent / "verify_defaults.json"


def run_verify(suite: str) -> Dict[str, object]:
    """Exit code and standard output lines of ``verify --suite suite``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "--suite", suite])
    return {"exit": code, "stdout": out.getvalue().split("\n")}


def main() -> None:
    snapshot = {suite: run_verify(suite) for suite in verify.available_suites()}
    with open(PATH, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

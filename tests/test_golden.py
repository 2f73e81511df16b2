"""`verify` reports byte for byte: exit code and standard output of every
suite at its defaults against ``tests/golden/verify_defaults.json``, and of
the oracle-driven commands of ``record.SIZED_COMMANDS`` against
``tests/golden/verify_sized.json``; ``tests/golden/record.py`` writes both."""

import json

import pytest
from golden import record

from torusquot.verify import available_suites

SNAPSHOT = json.loads(record.PATH.read_text())
SIZED = json.loads(record.SIZED_PATH.read_text())


def test_snapshot_covers_every_suite():
    assert sorted(SNAPSHOT) == list(available_suites())


@pytest.mark.parametrize("suite", sorted(SNAPSHOT))
def test_verify_report_at_defaults_matches_the_snapshot(suite):
    assert record.run_verify(suite) == SNAPSHOT[suite]


def test_sized_snapshot_covers_every_sized_command():
    assert sorted(SIZED) == sorted(" ".join(c) for c in record.SIZED_COMMANDS)


@pytest.mark.parametrize("command", record.SIZED_COMMANDS, ids=" ".join)
def test_sized_verify_report_matches_the_snapshot(command):
    assert record.run_verify(*command) == SIZED[" ".join(command)]

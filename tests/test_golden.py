"""Reports byte for byte: exit code and standard output of every `verify`
suite at its defaults against ``tests/golden/verify_defaults.json``, of
the oracle-driven commands of ``record.SIZED_COMMANDS`` against
``tests/golden/verify_sized.json``, and of the lattice commands of
``record.CLI_COMMANDS`` against ``tests/golden/cli_commands.json``;
``tests/golden/record.py`` writes all three."""

import json

import pytest
from golden import record

from torusquot.verify import available_suites

SNAPSHOT = json.loads(record.PATH.read_text())
SIZED = json.loads(record.SIZED_PATH.read_text())
CLI = json.loads(record.CLI_PATH.read_text())


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


def test_cli_snapshot_covers_every_lattice_command():
    assert sorted(CLI) == sorted(" ".join(c) for c in record.CLI_COMMANDS)


@pytest.mark.parametrize("command", record.CLI_COMMANDS, ids=" ".join)
def test_lattice_command_report_matches_the_snapshot(command):
    assert record.run_cli(*command) == CLI[" ".join(command)]

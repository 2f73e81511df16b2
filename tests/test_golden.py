"""Every `verify` suite's report at its defaults, byte for byte: exit code
and standard output against ``tests/golden/verify_defaults.json``, which
``tests/golden/record.py`` writes."""

import json

import pytest
from golden import record

from torusquot.verify import available_suites

SNAPSHOT = json.loads(record.PATH.read_text())


def test_snapshot_covers_every_suite():
    assert sorted(SNAPSHOT) == list(available_suites())


@pytest.mark.parametrize("suite", sorted(SNAPSHOT))
def test_verify_report_at_defaults_matches_the_snapshot(suite):
    assert record.run_verify(suite) == SNAPSHOT[suite]

"""Stratum family for the rank-two quotient: counts, dimensions, records."""

from math import factorial

import pytest

from torusquot.strat import (
    StratumDescriptor,
    closed_parameter,
    strata,
    strata_report,
)


def test_needs_enough_columns():
    with pytest.raises(ValueError):
        strata(3)


@pytest.mark.parametrize("n", range(4, 10))
def test_count_and_dimensions(n):
    descs = strata(n)
    assert len(descs) == (n - 1) // 2 + 1
    m = closed_parameter(n)
    assert descs[0].kind == "closed"
    assert descs[0].dimension == m - 1
    open_dims = [d.dimension for d in descs if d.kind == "open"]
    assert open_dims == list(range(m - 1, n - 2))


def test_frozen_n5():
    descs = strata(5)
    assert [(d.kind, d.cell_parameter, d.dimension, d.group_order) for d in descs] == [
        ("closed", 2, 1, 6),
        ("open", 2, 1, 6),
        ("open", 3, 2, 24),
    ]


def test_frozen_n6():
    descs = strata(6)
    assert [(d.kind, d.cell_parameter, d.dimension) for d in descs] == [
        ("closed", 3, 2),
        ("open", 3, 2),
        ("open", 4, 3),
    ]


def test_group_orders_are_symmetric_groups():
    for d in strata(8):
        assert d.group_order == factorial(d.cell_parameter + 1)


@pytest.mark.parametrize("n", range(4, 10))
def test_report_always_records_the_pairing_divergence(n):
    rep = strata_report(n)
    assert rep.alternate_pairing[-1] == (rep.t, rep.t + rep.closed_m)
    assert rep.divergences
    assert "exceeding the quotient dimension" in rep.divergences[0]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_even_n_records_extra_semistable_parameter(n):
    rep = strata_report(n)
    assert len(rep.divergences) == 2
    assert "one below the smallest emitted open parameter" in rep.divergences[1]


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_n_has_single_divergence(n):
    assert len(strata_report(n).divergences) == 1


def test_descriptors_hashable_records():
    d = strata(4)[0]
    assert isinstance(d, StratumDescriptor)
    assert hash(d) == hash(strata(4)[0])

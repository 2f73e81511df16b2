"""The named cross-check suites and their registry."""

import dataclasses
import functools
import json
import math

import pytest

from torusquot import action, flag, oracle, schubert, verify
from torusquot.cli import _jsonable, run
from torusquot.verify import CheckReport, available_suites, exhaustive_check
from torusquot.weyl import Permutation, all_permutations, parabolic_elements


def test_registry_is_complete():
    assert available_suites() == (
        "cor-4.3",
        "cor-4.4",
        "cor-5.3",
        "cor-5.4",
        "lemma-1.6",
        "lemma-1.7",
        "lemma-1.8",
        "lemma-2.7",
        "lemma-3.1",
        "lemma-4.1",
        "lemma-5.1",
        "prop-2.9",
        "prop-3.2",
        "prop-4.2",
        "strata",
        "thm-5.2",
    )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        exhaustive_check("lemma-9.9")


def test_gateway_oracle_example():
    rep = exhaustive_check("lemma-2.7", n=5, rs=(2,))
    assert rep.ok
    assert rep.checked == 10
    assert "2 semistable cells" in rep.details[0]


def test_order_reversal_example():
    rep = exhaustive_check("lemma-1.8", n=5, rs=(2,))
    assert rep.ok
    assert rep.checked == 100  # all ordered pairs of the ten cells


def test_negative_set_example():
    rep = exhaustive_check("lemma-5.1", n=3)
    assert rep.ok  # three characters, six elements each


def test_report_payload_shape():
    rep = exhaustive_check("strata", n=5)
    assert isinstance(rep, CheckReport)
    payload = rep.to_payload()
    assert payload["name"] == "strata"
    assert payload["status"] == "pass"
    assert "counterexample" not in payload
    assert payload["params"] == {"n": 5}


def test_none_params_are_dropped():
    rep = exhaustive_check("lemma-5.1", n=2, seed=None)
    assert rep.ok
    assert rep.params["seed"] == 0


@pytest.mark.parametrize(
    "name,params",
    [
        ("lemma-1.8", {"rz": (9,)}),
        ("lemma-2.7", {"seeds": (0, 1, 2)}),
        ("lemma-2.7", {"r": 2}),
        ("strata", {"n_min": 4, "n_max": 9}),
        ("lemma-4.1", {"points": 3}),
        ("prop-4.2", {"ms": (2, 3, 4)}),
        ("lemma-5.1", {"trials": 3}),
        ("lemma-2.7", {"seed": 0}),  # its oracle verdict draws nothing to seed
        ("lemma-4.1", {"seed": 0}),  # it reads exact pivots, with no point drawn
    ],
)
def test_unknown_parameter_rejected(name, params):
    with pytest.raises(ValueError, match=f"^suite {name} takes no parameter "):
        exhaustive_check(name, **params)


def test_every_suite_takes_its_parameters_from_one_vocabulary():
    taken = set().union(*(verify.suite_parameters(name) for name in available_suites()))
    assert taken == {"n", "rs", "seed", "samples"}


@pytest.mark.parametrize(
    "name,params",
    [
        ("cor-5.3", {"n": 1}),
        ("prop-2.9", {"n": 4, "rs": ()}),
    ],
)
def test_suite_checking_no_case_is_inconclusive(name, params):
    rep = exhaustive_check(name, **params)
    assert rep.status == "inconclusive"
    assert rep.checked == 0


def test_runner_stops_at_first_counterexample(monkeypatch):
    ran = []

    def synthetic(cases: int = 5):
        for i in range(cases):
            ran.append(i)
            yield i != 2, {"case": i}
        return ("all cases hold",)

    monkeypatch.setitem(verify._REGISTRY, "synthetic", verify._Suite(synthetic))
    rep = exhaustive_check("synthetic")
    assert rep.status == "fail"
    assert rep.checked == 3
    assert rep.counterexample == {"case": 2}
    assert rep.details == ()
    assert rep.params == {"cases": 5}
    assert ran == [0, 1, 2]


@pytest.mark.parametrize(
    "name,params",
    [
        ("lemma-1.6", {"n": 5, "rs": (1, 2)}),
        ("lemma-1.7", {"n": 5, "rs": (1, 2)}),
        ("prop-2.9", {"n": 5, "rs": (2, 3)}),
        ("lemma-3.1", {"n": 4}),
        ("prop-3.2", {"n": 5}),
        ("lemma-4.1", {"n": 5}),
        ("prop-4.2", {}),
        ("cor-4.3", {}),
        ("cor-4.4", {}),
        ("strata", {"n": 6}),
        ("thm-5.2", {"n": 2, "samples": 6}),
        ("cor-5.3", {"n": 2}),
        ("cor-5.4", {"n": 2}),
    ],
)
def test_suites_pass_at_reduced_scale(name, params):
    rep = exhaustive_check(name, **params)
    assert rep.status == "pass", rep.counterexample
    assert rep.checked > 0


def test_lemma_4_1_passes_at_every_n_below_its_limit():
    """n = 9, the limit, walks 1,451,520 permutations (about 6 s) and is
    left to the command line."""
    for n in range(4, verify._REGISTRY["lemma-4.1"].max_n):
        rep = exhaustive_check("lemma-4.1", n=n)
        assert rep.status == "pass", (n, rep.counterexample)
        assert rep.checked == len(schubert.semistable_cells(n, 2)) * math.factorial(n)


def test_lemma_4_1_finds_an_escape_when_a_stabilizing_generator_is_dropped(monkeypatch):
    """Negative control: with the largest, or the smallest, stabilizing
    generator left out of each cell's group, that reflection keeps the
    generic point in its cell but lies outside the smaller group, and the
    suite must say so."""
    real = action.stabilizer_generators
    for pick in (max, min):

        def fewer(g):
            return real(g) - {pick(real(g))}

        monkeypatch.setattr(action, "stabilizer_generators", fewer)
        rep = exhaustive_check("lemma-4.1", n=6)
        assert rep.status == "fail", pick
        a_seq = rep.counterexample["a_seq"]
        g = next(g for g in schubert.semistable_cells(6, 2) if list(g.a_seq) == a_seq)
        sigma = Permutation(tuple(rep.counterexample["sigma"]))
        assert sigma in set(parabolic_elements(real(g), 6))
        assert sigma not in set(parabolic_elements(fewer(g), 6))
        pivots = next(oracle.generic_pivot_sets(schubert.to_permutation(g), 2, [sigma]))
        assert pivots == frozenset(g.a_seq)


def test_lemma_4_1_cut_test_is_membership_in_the_stabilizing_group():
    """The suite's test for sigma in the group generated by a cell's
    closure-stabilizing reflections: sigma keeps {1..k} for every k that
    is not a generator.  Every sigma and every semistable rank-2 cell with
    n <= 6, against the group itself."""
    cells = 0
    for n in range(4, 7):
        sigmas = list(all_permutations(n))
        for g in schubert.semistable_cells(n, 2):
            stab = action.stabilizer_generators(g)
            cuts = sorted(set(range(1, n)) - stab)
            group = set(parabolic_elements(stab, n))
            for sigma in sigmas:
                keeps = all(max(sigma.images[:k]) == k for k in cuts)
                assert keeps == (sigma in group), (g, sigma)
            cells += 1
    assert cells == sum(len(schubert.semistable_cells(n, 2)) for n in range(4, 7)) > 0


def test_thm_suite_carries_reading_records():
    rep = exhaustive_check("thm-5.2", n=2, samples=6)
    blob = "\n".join(rep.details)
    assert "leading minus" in blob or "sign" in blob.lower()


def _fail_third_support_check(monkeypatch, n, samples):
    """Make the third sampled point's support check fail; returns the
    `checked` count and the counterexample the runner must report."""
    required = [
        (check, witness)
        for check, ok, witness in flag.desk_check(n, 0, samples)
        if check not in flag.PRINTED_DIVERGENCES
    ]
    at = [k for k, (check, _) in enumerate(required) if check == "image support preserved"][2]
    real, calls = flag.semistable_flag_support, []

    def support(w, rank):
        calls.append(w)
        return (lambda coords: False) if len(calls) == 3 else real(w, rank)

    monkeypatch.setattr(flag, "semistable_flag_support", support)
    check, witness = required[at]
    return len(flag.subgroup_fixing_last(n)) + at + 1, {"check": check, **witness}


def test_thm_suite_fail_names_the_failing_instance(monkeypatch):
    checked, counterexample = _fail_third_support_check(monkeypatch, 2, 6)
    rep = exhaustive_check("thm-5.2", n=2, samples=6)
    assert rep.status == "fail"
    assert rep.checked == checked
    assert rep.counterexample == counterexample
    assert rep.counterexample["check"] == "image support preserved"
    cells = {(flag.cyclic_element(2) * tau).images for tau in flag.subgroup_fixing_last(2)}
    assert rep.counterexample["cell"] in cells
    assert rep.details == ()


def test_thm_counterexample_is_printed_and_exits_one(capsys, monkeypatch):
    # the command line runs the default 12 samples
    checked, counterexample = _fail_third_support_check(monkeypatch, 2, 12)
    code = run(["verify", "--suite", "thm-5.2", "--n", "2", "--seed", "0"])
    assert code == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["status"] == "fail"
    assert results["checked"] == checked
    assert results["counterexample"] == _jsonable(counterexample)


def _stub_body(monkeypatch, name):
    """Replace the suite's body by a one-case stub; returns the suite's
    record and the list of the ``n`` each stub call received."""
    suite = verify._REGISTRY[name]
    calls = []

    @functools.wraps(suite.body)  # keeps the parameters suite_parameters reads
    def stub(**bound):
        calls.append(bound["n"])
        yield True, None
        return ()

    monkeypatch.setitem(verify._REGISTRY, name, dataclasses.replace(suite, body=stub))
    return suite, calls


def _check_limit_before_the_body(monkeypatch, name):
    """With the suite's body stubbed: at the table's limit the stub runs
    once; one over it, the runner refuses and never calls the stub."""
    suite, calls = _stub_body(monkeypatch, name)
    limit = suite.max_n
    with pytest.raises(ValueError) as refused:
        exhaustive_check(name, n=limit + 1)
    assert str(refused.value) == f"{name} {suite.why}; n={limit + 1} is over the limit n <= {limit}"
    assert calls == []
    assert exhaustive_check(name, n=limit).ok
    assert calls == [limit]


LEAST_N = {
    "lemma-1.6": 2, "lemma-1.7": 2, "lemma-1.8": 2, "prop-2.9": 2, "lemma-3.1": 2, "prop-3.2": 2, "lemma-4.1": 4, "lemma-2.7": 2, "strata": 4,
    "lemma-5.1": 1, "thm-5.2": 1, "cor-5.3": 1, "cor-5.4": 1,
}


@pytest.mark.parametrize("name", sorted(LEAST_N))
def test_least_n_is_checked_before_the_body(monkeypatch, name):
    """With the suite's body stubbed: at the record's least n the stub
    runs once; one below it, the runner refuses and never calls the stub.
    A suite over ranks rs runs at its least n with rs = (1,), since its
    default ranks need n >= 4 (the ranks 2..n-2 of prop-2.9 and lemma-2.7
    need it for any rank, so those run with rs = ())."""
    suite, calls = _stub_body(monkeypatch, name)
    least = LEAST_N[name]
    ranks = {"rs": (1,) if suite.ranks[0] == 1 else ()} if suite.ranks else {}
    assert suite.min_n == least
    with pytest.raises(ValueError) as refused:
        exhaustive_check(name, n=least - 1)
    assert str(refused.value) == f"{name} needs n >= {least} for {suite.needs}, got n={least - 1}"
    assert calls == []
    assert exhaustive_check(name, n=least, **ranks).ok
    assert calls == [least]


SEMISTABLE_RANKS = pytest.mark.parametrize(
    "n,rs,bad", [(7, (1,), 1), (7, (0,), 0), (7, (2, 6), 6), (3, (2, 3), 2)]
)


def _check_semistable_ranks_before_the_body(monkeypatch, name, n, rs, bad):
    """Semistable cells exist for 2 <= r <= n - 2 only: the runner refuses
    any other rank by the suite's record and never calls the stub; the
    ranks in range alone reach it."""
    _, calls = _stub_body(monkeypatch, name)
    with pytest.raises(ValueError) as refused:
        exhaustive_check(name, n=n, rs=rs)
    assert str(refused.value) == (
        f"{name} needs each rank r in 2..n-2 for the semistable cells of G_(r,n), got r={bad} at n={n}"
    )
    assert calls == []
    assert exhaustive_check(name, n=n, rs=tuple(r for r in rs if 2 <= r <= n - 2)).ok
    assert calls == [n]


@SEMISTABLE_RANKS
def test_prop_2_9_refuses_a_rank_outside_two_to_n_minus_two_before_the_body(monkeypatch, n, rs, bad):
    _check_semistable_ranks_before_the_body(monkeypatch, "prop-2.9", n, rs, bad)


@SEMISTABLE_RANKS
def test_lemma_2_7_refuses_a_rank_outside_two_to_n_minus_two_before_any_sampling(monkeypatch, n, rs, bad):
    _check_semistable_ranks_before_the_body(monkeypatch, "lemma-2.7", n, rs, bad)


def test_lemma_2_7_size_limit_is_checked_before_any_sampling(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "lemma-2.7")


def test_lemma_3_1_size_limit_is_checked_before_any_closure(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "lemma-3.1")


def test_lemma_4_1_size_limit_is_checked_before_the_sweep(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "lemma-4.1")


def test_thm_5_2_size_limit_is_checked_before_the_desk_check(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "thm-5.2")


def test_lemma_5_1_size_limit_is_checked_before_either_family(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "lemma-5.1")


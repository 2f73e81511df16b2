"""Acceptance gate: one check per published claim the package rests on.

Every comparison below is exact integer or rational arithmetic; the
pinned tolerance is literal equality (no epsilon anywhere).  Each test
emits one `ACCEPTANCE k: PASS/FAIL` line, shown in the terminal
summary.  A FAIL with a counterexample is an honest negative result
about the claimed closed form, not a packaging defect; the remaining
checks pin down what is actually true instead.
"""

import math

from conftest import ACCEPTANCE_LINES, reference_kernel_report

from torusquot import action, flag, invariants, oracle, schubert
from torusquot.ratfunc import identity_substitution
from torusquot.verify import exhaustive_check


def _record(k: int, ok: bool, detail: str) -> bool:
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_gateway_equals_sampling_oracle():
    """Cells at or above the gateway element are exactly the cells whose
    generic point passes the barycenter test, for every (n, r) at desk
    scale, by one exact oracle verdict per cell."""
    reps = {
        (n, r): exhaustive_check("lemma-2.7", n=n, rs=(r,))
        for n in range(4, 8)
        for r in range(2, n - 1)
    }
    mismatches = [(nr, rep.counterexample) for nr, rep in reps.items() if rep.status == "fail"]
    inconclusive = [(nr, rep.details) for nr, rep in reps.items() if rep.status == "inconclusive"]
    cells = sum(rep.checked for rep in reps.values())
    ok = all(rep.ok for rep in reps.values())
    assert _record(
        1,
        ok,
        f"{cells} cells, n=4..7, all r, one exact verdict each; "
        f"mismatches={mismatches} inconclusive={inconclusive}",
    ), (mismatches, inconclusive)


def test_criterion_2_printed_parameter_bound():
    """The n = 5 count is right, but the printed lower bound on the cell
    parameter excludes oracle-certified semistable cells at every even n;
    the failure is recorded with a live counterexample."""
    n5 = sorted(g.a_seq[0] for g in schubert.semistable_cells(5, 2))
    part1 = n5 == [2, 3]

    divergent = []
    for n in range(4, 10):
        gate = sorted(g.a_seq for g in schubert.semistable_cells(n, 2))
        claimed = sorted(
            (a1, n - 1) for a1 in range(math.ceil((n - 1) / 2), n - 1)
        )
        if gate != claimed:
            extra = [a for a in gate if a not in claimed]
            missing = [a for a in claimed if a not in gate]
            witness = None
            if extra and n <= 7:  # oracle-confirm the printed bound is too strict
                w = schubert.to_permutation(schubert.GrassmannElement(n, 2, extra[0]))
                witness = oracle.cell_semistable(w, 2)[0]
            divergent.append((n, extra, missing, witness))

    ok = part1 and not divergent
    detail = (
        "n=5 parameters {2,3} as stated"
        if part1
        else f"n=5 parameters {n5} off"
    )
    if divergent:
        n, extra, _missing, witness = divergent[0]
        detail += (
            f"; ceil((n-1)/2) bound fails for even n: cell {extra[0]} at n={n} "
            f"is semistable (oracle: {witness}) but excluded; "
            f"all divergences at n in {[d[0] for d in divergent]}"
        )
    assert _record(2, ok, detail), detail


def test_criterion_3_order_reversal_and_rounding_representatives():
    results = []
    for n in range(2, 7):
        rs = tuple(r for r in (1, 2, 3) if r <= n - 1)
        results.append(exhaustive_check("lemma-1.8", n=n, rs=rs))
        results.append(exhaustive_check("lemma-1.6", n=n, rs=rs))
        results.append(exhaustive_check("lemma-1.7", n=n, rs=rs))
    bad = [r for r in results if not r.ok]
    pairs = sum(r.checked for r in results if r.name == "lemma-1.8")
    assert _record(
        3,
        not bad,
        f"order reversal on {pairs} ordered pairs (n<=6, r<=3); rounding "
        f"representatives exist uniquely in both windows",
    ), bad


def test_criterion_4_invariant_exponents_are_lattice_basis():
    """The suite's certificate, and on the same cells the Hermite-form
    reference: a kernel basis and canonical-form equality with the Y's."""
    checked = 0
    for n in range(4, 8):
        # the suite refuses a rank outside 2..n-2, so n = 4 takes r = 2 only
        rs = tuple(r for r in (2, 3) if r <= n - 2)
        rep = exhaustive_check("prop-2.9", n=n, rs=rs)
        assert rep.ok, rep.counterexample
        checked += rep.checked
        for r in rs:
            for g in schubert.semistable_cells(n, r):
                arr = schubert.inversion_array(g)
                assert invariants.verify_kernel_basis(arr) == reference_kernel_report(arr), g
    # count formula spot check on one cell: rank sums a_i - i over i < r
    krep = invariants.verify_kernel_basis(
        schubert.inversion_array(schubert.GrassmannElement(7, 3, (2, 4, 6)))
    )
    counts = krep.kernel_rank == krep.expected_rank == (2 - 1) + (4 - 2)
    assert _record(
        4,
        checked > 0 and counts,
        f"{checked} semistable cells n<=7, r<=3: Hermite-certified basis, "
        f"rank = sum(a_i - i)",
    )


def test_criterion_5_two_row_equivariance():
    reps = [
        exhaustive_check("prop-4.2"),
        exhaustive_check("cor-4.3"),
        exhaustive_check("cor-4.4"),
    ]
    bad = [r.name for r in reps if not r.ok]
    assert _record(
        5,
        not bad,
        "closed rules = cell machinery = reflection-representation model "
        "for m in {2,3,4}, every generator, all involutions",
    ), bad


def test_criterion_6_invariant_action_consistency():
    reps = [exhaustive_check("prop-3.2", n=n) for n in (4, 5, 6)]
    bad = [r for r in reps if not r.ok]

    # the legible closed forms, frozen: pivot-division rule and affine flip
    ys = identity_substitution(action.r2_names(3))
    boxed = (
        action.r2_action(2, 3, ys["Y_1"]) == ys["Y_1"] / ys["Y_2"]
        and action.r2_action(2, 3, ys["Y_2"]) == 1 / ys["Y_2"]
    )
    flip = action.r2_action(3, 3, ys["Y_1"]) == 1 - ys["Y_1"]
    note = any("derived action" in d for r in reps for d in r.details)
    ok = not bad and boxed and flip and note
    assert _record(
        6,
        ok,
        "involutions + exact re-expression + closed forms on all semistable "
        "cells n<=6; row-swap branch certified via derived action "
        "(direct statement unreadable)",
    ), (bad, boxed, flip, note)


def test_criterion_7_negative_weight_coset_family():
    reps = [exhaustive_check("lemma-5.1", n=n, seed=0) for n in (2, 3, 4, 5)]
    bad = [r for r in reps if not r.ok]
    assert _record(
        7,
        not bad,
        "3 random strictly increasing characters per n<=5: negative-image "
        "set equals the coset family, cardinality n!",
    ), bad


CASES = (
    "1-corrected-middle-equals-outer-ends",
    "2-middle-equals-inner-ends",
    "3-middle-equals-inner-ends",
    "generic-reflected-middle-equals-inner-ends",
)


def _desk_tallies(rep):
    """label -> (holds, total) from the tally lines of a thm-5.2 report."""
    out = {}
    for line in rep.details:
        label, _, tally = line.strip().rpartition(": ")
        holds, _, total = tally.partition("/")
        if holds.isdigit() and total.isdigit():
            out[label] = (int(holds), int(total))
    return out


def test_criterion_8_quotient_map_desk_checks():
    # every quotient coordinate is weight zero (asserted inside pi_tau)
    weight_zero_cells = 0
    for n in (2, 3, 4):
        for tau in flag.subgroup_fixing_last(n):
            flag.pi_tau(tau, n)
            weight_zero_cells += 1

    reports = {n: exhaustive_check("thm-5.2", n=n, seed=0, samples=30) for n in (2, 3)}
    tallies = {n: _desk_tallies(rep) for n, rep in reports.items()}
    ok = all(rep.ok for rep in reports.values())

    # at least 20 exact point pairs per cell parameter for injectivity
    recovery = {n: t.get("torus-translate recovery", (0, 0)) for n, t in tallies.items()}
    ok = ok and all(
        hits == total and total >= 20 * math.factorial(n)
        for n, (hits, total) in recovery.items()
    )

    # each commutation case that occurs at n = 3 is hit at least 20 times
    cases = {k: tallies[3].get(f"case {k}", (0, 0)) for k in CASES}
    ok = ok and all(hits == total and total >= 20 for hits, total in cases.values())

    # the validating index reading is recorded, not silently chosen
    readings = [line.strip() for line in reports[3].details]
    ok = ok and all(
        any(line.startswith(f"reading {key}:") for line in readings)
        for key in ("quotient-map-sign", "generic-case-labels")
    )

    # every induced generator rule holds at n = 2 and 3, and the induced
    # first-generator rule is an involution, symbolically
    induced = [exhaustive_check(s, n=n) for s in ("cor-5.3", "cor-5.4") for n in (2, 3)]
    ok = ok and all(rep.ok for rep in induced)

    assert _record(
        8,
        ok,
        f"weight-zero on {weight_zero_cells} cells (n<=4); injectivity "
        f"{recovery[3][1]} pairs at n=3; case tallies "
        f"{ {k: v[1] for k, v in cases.items()} }; readings recorded; "
        f"induced rule involutive",
    ), (
        [rep.counterexample for rep in reports.values()],
        cases,
        [rep.counterexample for rep in induced],
    )


def test_criterion_9_stratum_family():
    reps = [exhaustive_check("strata", n=n) for n in range(4, 10)]
    assert _record(
        9,
        all(rep.ok for rep in reps),
        "n=4..9: floor((n-1)/2)+1 descriptors, open dimensions m-1..n-3, "
        "indexing divergence recorded for every n (plus the extra even-n "
        "semistable parameter)",
    ), [rep.counterexample for rep in reps if not rep.ok]

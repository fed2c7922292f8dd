"""Ledgers of tampered contexts, byte for byte.

Each case builds a context, bumps one table entry by +1 after construction
(the verifiers re-read ctx.table, so the ledger reports the edit), and runs
verifiers on it.  The JSON of their merged ledger, dumps(res.to_obj()), must
equal tests/golden/ledgers/<case>.json.  Between them the cases make every
counterexample shape fail (first failing cell, computed against expected)
and every clause that does not apply record its skip note.

Re-record the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_ledger_counterexamples.py
"""

import sys
from pathlib import Path

import pytest

from cyclomat import (
    CycloCtx,
    VerifySuiteResult,
    build_field,
    check_schoenberg_condition,
    run_identity_suite,
    schur,
    verify_column_products,
    verify_congruences,
    verify_elementary_laws,
    verify_gram_identities,
    verify_spectral,
    verify_sum_of_squares,
    verify_traces,
)
from cyclomat.report import dumps

GOLDEN = Path(__file__).parent / "golden" / "ledgers"


def identities(ctx):
    return run_identity_suite(ctx, suite="identities")


def all_without_convolution(ctx):
    """suite="all" on a context past the convolution guard: the group-ring
    check is recorded as skipped."""
    guard = schur.MAX_CONVOLUTION_Q
    schur.MAX_CONVOLUTION_Q = ctx.q - 1
    try:
        return run_identity_suite(ctx, suite="all")
    finally:
        schur.MAX_CONVOLUTION_Q = guard


# name: (q, ell, bumped cell, verifiers)
CASES = {
    # k = 4: all five elementary laws fail, the even-k transpose law too
    "elementary_17_4": (17, 4, (1, 2), [verify_elementary_laws]),
    # k = 9: four laws fail and the even-k law is skipped
    "elementary_73_8": (73, 8, (1, 2), [verify_elementary_laws]),
    "column_products_131_10": (131, 10, (3, 5),
                               [verify_column_products, verify_sum_of_squares]),
    "traces_131_10": (131, 10, (2, 2), [verify_traces]),
    "identities_131_10": (131, 10, (3, 5), [identities]),
    # k = 4: the half-shift column laws and the convolution are skipped
    "all_17_4": (17, 4, (1, 2), [all_without_convolution]),
    # hits: Lehmer's criterion reads column 0 only, so the hit stands
    "gram_37_4": (37, 4, (0, 1), [verify_gram_identities]),
    "spectral_37_4": (37, 4, (3, 1), [verify_spectral]),
    "unit_lambda_7_2": (7, 2, (0, 1),
                        [verify_congruences, check_schoenberg_condition]),
    # lambda = 2, q - k = 28: every clause of both ledgers is skipped
    "skips_37_4": (37, 4, (0, 1),
                   [verify_congruences, check_schoenberg_condition]),
}


def ledger_json(name):
    q, ell, (i, j), verifiers = CASES[name]
    ctx = CycloCtx(build_field(q), ell)
    ctx.table[i][j] += 1
    res = VerifySuiteResult()
    for verify in verifiers:
        res.merge(verify(ctx))
    return dumps(res.to_obj()) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_bytes_match_recorded(name):
    assert ledger_json(name) == (GOLDEN / (name + ".json")).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / (case + ".json")).write_text(ledger_json(case))
    sys.stdout.write("recorded %d ledgers in %s\n" % (len(CASES), GOLDEN))

"""Gram certificates on a tampered hit, down to their counterexample bytes.

Lehmer's criterion and the class counts read only column 0 of the table, so
bumping an entry off column 0 after construction keeps the hit while the
Gram closed forms fail.  Each recorded residual must equal X^T X - want,
computed here entry by entry from the tampered table.
"""

import json

from cyclomat import (
    CycloCtx,
    build_field,
    is_diffset_lehmer,
    modified_diffset,
    verify_gram_identities,
)
from cyclomat.report import dumps


def residual(x, off, n, corner):
    """X^T X - (off J + n I - corner E_{0,0}) as the ledger's strings."""
    d = len(x)
    return [[str(sum(x[r][i] * x[r][j] for r in range(d)) - off
                 - n * (i == j) + corner * (i == j == 0))
             for j in range(d)] for i in range(d)]


def minor(x, row, col):
    return [[v for j, v in enumerate(r) if j != col]
            for i, r in enumerate(x) if i != row]


def ledger(checks):
    return {c["check"]: c for c in json.loads(dumps(checks))}


def test_k_gram_laws_fail_off_column_zero():
    ctx = CycloCtx(build_field(37), 4)
    ctx.table[1][2] += 1
    assert is_diffset_lehmer(ctx)
    k, lam, qp = ctx.k, 2, ctx.qprime
    a = [row[:] for row in ctx.table]
    checks = ledger(verify_gram_identities(ctx).to_obj())
    assert list(checks) == ["gram_closed_form", "minor_gram_closed_form",
                            "first_row_deviation_sum"]
    gram, minor_gram = checks["gram_closed_form"], checks["minor_gram_closed_form"]
    assert not gram["pass"] and not minor_gram["pass"]
    assert gram["counterexample"]["residual"] == residual(a, lam * k, k - lam, k)
    assert minor_gram["counterexample"]["residual"] == residual(
        minor(a, qp, 0), lam * (k - lam), k - lam, 0)
    assert checks["first_row_deviation_sum"]["pass"]


def test_modified_gram_law_fails_off_column_zero():
    ctx = CycloCtx(build_field(7), 2)
    ctx.table[1][1] += 1
    report = modified_diffset(ctx)
    assert report.is_difference_set and report.lam0 == 2
    obj = json.loads(dumps(report.to_obj()))
    assert obj["certificates_pass"] is False
    checks = ledger(report.certificates.to_obj())
    assert list(checks) == ["modified_gram_closed_form", "modified_minor_gram"]
    k, lam0, qp = ctx.k, report.lam0, ctx.qprime
    a_plus_i = [[v + (i == j) for j, v in enumerate(row)]
                for i, row in enumerate(ctx.table)]
    gram = checks["modified_gram_closed_form"]
    assert not gram["pass"]
    assert gram["counterexample"]["residual"] == [["0", "1"], ["1", "5"]]
    assert gram["counterexample"]["residual"] == residual(
        a_plus_i, lam0 * k, k + 1 - lam0, k)
    assert checks["modified_minor_gram"]["pass"]
    assert residual(minor(a_plus_i, qp, 0), lam0 * (k - lam0),
                    k + 1 - lam0, 0) == [["0"]]

import io
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclomat import (
    ContextTooLarge,
    CycloCtx,
    EllTooSmall,
    IntMatrix,
    InvalidEll,
    build_field,
    build_matrices,
    shifted_matrix,
    verify_elementary_laws,
)

from cyclomat import field as field_module
from cyclomat.cli import main as cli_main
from cyclomat.cyclotomy import TABLE_ENTRY_BYTES
from cyclomat.diffset import lehmer_screen

import reference_data as ref
from conftest import field_of
from oracles import (
    cyclotomic_number_by_pair_count,
    perm_shift,
    table_by_set_enumeration,
)


def test_reference_matrices(cyclo):
    assert cyclo(7, 3, 6).table == ref.A_343_L6
    assert cyclo(131, 1, 10).table == ref.A_131_L10
    assert cyclo(73, 1, 8).table == ref.A_73_L8
    assert cyclo(37, 1, 4).table == ref.A_37_L4
    assert cyclo(101, 1, 4).table == ref.A_101_L4
    assert cyclo(197, 1, 4).table == ref.A_197_L4


def test_single_entries(cyclo):
    assert cyclo(7, 3, 6).num(0, 3) == 14
    assert cyclo(131, 1, 10).num(0, 8) == 4
    for p in (5, 11):
        ctx = cyclo(p, 1, 1)
        assert ctx.num(0, 0) == p - 2


def test_invalid_ell():
    f = build_field(7)
    with pytest.raises(InvalidEll):
        CycloCtx(f, 4)  # 4 does not divide 6
    with pytest.raises(InvalidEll):
        CycloCtx(f, 0)


def test_k_and_halfshift(cyclo):
    ctx = cyclo(131, 1, 10)
    assert ctx.k == 13 and ctx.qprime == 5
    assert cyclo(7, 3, 6).qprime == 3
    # even k forces zero half-shift
    assert cyclo(13, 1, 2).qprime == 0
    assert cyclo(5, 1, 1).qprime == 0


def test_table_matches_set_enumeration(cyclo, fields):
    for (p, n, ell) in ref.SMALL_CONTEXTS:
        ctx = cyclo(p, n, ell)
        assert ctx.table == table_by_set_enumeration(fields(p, n), ell)


def test_pair_count_oracle(cyclo, fields):
    for (p, n, ell) in ((31, 1, 6), (3, 2, 4), (7, 3, 6)):
        ctx = cyclo(p, n, ell)
        f = fields(p, n)
        for i in range(ell):
            for j in range(ell):
                assert ctx.num(i, j) == cyclotomic_number_by_pair_count(
                    f, ell, i, j)


def test_elementary_laws_on_fixtures(cyclo):
    for (p, n, ell) in ref.SMALL_CONTEXTS:
        assert verify_elementary_laws(cyclo(p, n, ell)).passed


def test_specific_row_sums(cyclo):
    t131 = cyclo(131, 1, 10).table
    assert sum(t131[5]) == 12  # k - 1 at the half-shift row
    assert sum(t131[0]) == 13
    t343 = cyclo(7, 3, 6).table
    assert sum(t343[3]) == 56


def test_equality_chain(cyclo):
    rng = random.Random(11)
    for (p, n, ell) in ((131, 1, 10), (7, 3, 6), (13, 1, 4)):
        ctx = cyclo(p, n, ell)
        qp = ctx.qprime
        for _ in range(50):
            i = rng.randrange(-30, 30)
            j = rng.randrange(-30, 30)
            v = ctx.num(i, j)
            assert v == ctx.num(j + qp, i + qp)
            assert v == ctx.num(-j + qp, i - j)
            assert v == ctx.num(i - j + qp, -j)
            assert v == ctx.num(j - i + qp, -i + qp)
            assert v == ctx.num(-i, j - i)


def test_periodicity(cyclo):
    rng = random.Random(13)
    ctx = cyclo(131, 1, 10)
    for _ in range(50):
        i = rng.randrange(-100, 100)
        j = rng.randrange(-100, 100)
        assert ctx.num(i, j) == ctx.num(i + 10, j - 30)


def test_total_sum(cyclo):
    for (p, n, ell) in ref.SMALL_CONTEXTS:
        ctx = cyclo(p, n, ell)
        assert sum(sum(row) for row in ctx.table) == ctx.q - 2


def test_derived_matrices(cyclo):
    ctx = cyclo(73, 1, 8)
    dm = build_matrices(ctx)
    assert dm.A == IntMatrix(ref.A_73_L8)
    assert dm.M == IntMatrix(ref.M_73_L8)
    assert dm.B == IntMatrix(ref.B_73_L8)
    assert dm.S == IntMatrix(ref.S_73_L8)
    assert dm.M == perm_shift(8, ctx.qprime) * dm.A
    assert dm.M.is_symmetric() and dm.S.is_symmetric()
    for p, b in ((37, ref.B_37_L4), (101, ref.B_101_L4), (197, ref.B_197_L4)):
        assert build_matrices(cyclo(p, 1, 4)).B == IntMatrix(b)


def test_minor_row_permutation(cyclo):
    # S = P' B for a permutation matrix P' (orthogonal)
    for (p, n, ell) in ((73, 1, 8), (131, 1, 10), (7, 3, 6), (13, 1, 4)):
        dm = build_matrices(cyclo(p, n, ell))
        b_rows = dm.B.rows
        perm_rows = []
        used = set()
        for row in dm.S.rows:
            hit = next(i for i in range(len(b_rows))
                       if i not in used and b_rows[i] == row)
            used.add(hit)
            perm_rows.append([1 if j == hit else 0
                              for j in range(len(b_rows))])
        pprime = IntMatrix(perm_rows)
        assert pprime * dm.B == dm.S
        assert pprime * pprime.transpose() == IntMatrix.identity(ell - 1)


def test_even_k_minors_coincide(cyclo):
    # q' = 0: B and S are both the (0,0)-minor and A itself is symmetric
    ctx = cyclo(13, 1, 2)
    dm = build_matrices(ctx)
    assert ctx.qprime == 0
    assert dm.A.is_symmetric()
    assert dm.B == dm.S
    assert dm.M == dm.A


def test_build_matrices_needs_ell_two(cyclo):
    with pytest.raises(EllTooSmall):
        build_matrices(cyclo(5, 1, 1))


def test_shifted_matrix_properties(cyclo):
    ctx = cyclo(131, 1, 10)
    a = IntMatrix(ctx.table)
    assert shifted_matrix(ctx, 0) == a
    assert shifted_matrix(ctx, ctx.qprime) == a.transpose()
    ctx343 = cyclo(7, 3, 6)
    a343 = IntMatrix(ctx343.table)
    p2 = perm_shift(6, 2)
    assert shifted_matrix(ctx343, 2) == p2 * a343 * p2.transpose()
    for v in range(6):
        assert shifted_matrix(ctx343, v + ctx343.qprime) == \
            shifted_matrix(ctx343, v).transpose()


def test_shift_periodicity(cyclo):
    ctx = cyclo(37, 1, 4)
    assert shifted_matrix(ctx, 7) == shifted_matrix(ctx, 3)
    assert shifted_matrix(ctx, -1) == shifted_matrix(ctx, 3)


def test_cayley_hamilton_on_derived_matrices(cyclo):
    for (p, n, ell) in ((73, 1, 8), (7, 3, 6)):
        dm = build_matrices(cyclo(p, n, ell))
        for m in (dm.A, dm.M, dm.B, dm.S):
            assert m.charpoly().at_matrix(m).is_zero()


# (p, n) with n <= 3 and q <= 2000
TABLE_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (37, 1),
                (73, 1), (101, 1), (131, 1), (241, 1), (401, 1), (1009, 1),
                (1999, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3),
                (11, 2), (11, 3), (13, 2), (29, 2), (43, 2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TABLE_FIELDS), st.data())
@example((3, 1), None)   # p = 3 with ell = q - 1
@example((3, 3), None)   # p = 3 in an extension, ell = q - 1
@example((7, 2), None)
def test_table_matches_set_enumeration_property(pn, data):
    # the slice pass of _build_table (adjacent columns of each row of p
    # indices, the wrap column, less the two pairs at index 0) against
    # literal set intersection; data=None takes ell = q - 1, so every class
    # is one element and each of those pairs moves its own entry
    field = field_of(*pn)
    q = field.q
    if data is None:
        ell = q - 1
    else:
        ell = data.draw(st.sampled_from(
            [d for d in range(1, q) if (q - 1) % d == 0]))
    assert CycloCtx(field, ell).table == table_by_set_enumeration(field, ell)


def test_table_guard_boundary(monkeypatch):
    # the ell x ell table needs TABLE_ENTRY_BYTES per entry: refused one
    # byte past the budget, admitted at it (the classes need far less)
    field = build_field(73)
    need = TABLE_ENTRY_BYTES * 8 * 8
    monkeypatch.setattr(field_module, "TABLE_BUDGET_BYTES", need - 1)
    with pytest.raises(ContextTooLarge):
        CycloCtx(field, 8)
    monkeypatch.setattr(field_module, "TABLE_BUDGET_BYTES", need)
    assert CycloCtx(field, 8).table == ref.A_73_L8
    monkeypatch.undo()
    budget = field_module.TABLE_BUDGET_BYTES
    assert TABLE_ENTRY_BYTES * 4729 ** 2 <= budget < TABLE_ENTRY_BYTES * 4730 ** 2


def test_context_guards_refuse_without_allocating():
    # each refused value would need gigabytes (the 999982^2 table alone
    # 7.28 TiB of counts): refused before anything is allocated
    fields = [build_field(999983), build_field(100003),
              build_field(1000000007)]
    tracemalloc.start()
    try:
        for field, ell in zip(fields, (999982, 50001, 2)):
            with pytest.raises(ContextTooLarge):
                CycloCtx(field, ell)
        with pytest.raises(ContextTooLarge):
            lehmer_screen(fields[2], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for p, ell in (("999983", "999982"), ("100003", "50001")):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(["compute", "--p", p, "--ell", ell], out=out, err=err)
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("cyclo: error: ContextTooLarge: ")

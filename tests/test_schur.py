import pytest

from cyclomat import (
    ContextTooLarge,
    EllTooSmall,
    IntMatrix,
    KEven,
    build_field,
    column_permutation_survey,
    regular_rep,
    run_identity_suite,
    shifted_matrix,
    verify_column_products,
    verify_commutator,
    verify_inner_product_identity,
    verify_matrix_product_law,
    verify_regular_representation,
    verify_structure_constants,
    verify_sum_of_squares,
    verify_traces,
    verify_transposed_product_law,
)
from cyclomat import schur

import reference_data as ref
from group_ring import GroupRingElem, class_convolution_counts, class_sum
from oracles import coset_indices


def test_class_sum_squares_mod_7(cyclo):
    ctx = cyclo(7, 1, 2)
    alpha0 = class_sum(ctx, 0)
    assert set(alpha0.coeffs) == {1, 2, 4}
    assert all(c == 1 for c in alpha0.coeffs.values())
    for i in range(2):
        assert class_sum(ctx, i).support_size == ctx.k


def test_class_sum_full_group(cyclo):
    ctx = cyclo(11, 1, 1)
    assert set(class_sum(ctx, 0).coeffs) == set(range(1, 11))


def test_group_ring_convolution_matches_decomposition(cyclo):
    # alpha_i * alpha_v recomputed with the generic dict convolution
    ctx = cyclo(7, 1, 2)
    k, qp, ell = ctx.k, ctx.qprime, ctx.ell
    for i in range(ell):
        for v in range(ell):
            prod = class_sum(ctx, i) * class_sum(ctx, v)
            want = {}
            if (i - v - qp) % ell == 0:
                want[0] = k
            for j in range(ell):
                c = ctx.num(i - v, j - v)
                for idx in coset_indices(ctx.field, j, ell):
                    want[int(idx)] = want.get(int(idx), 0) + c
            assert prod == GroupRingElem(ctx.field, want)


def test_convolution_fast_path_matches_dict_path(cyclo):
    ctx = cyclo(31, 1, 6)
    for (i, v) in ((0, 0), (1, 4), (5, 2)):
        counts = class_convolution_counts(ctx, i, v)
        prod = class_sum(ctx, i) * class_sum(ctx, v)
        for z in range(ctx.q):
            assert int(counts[z]) == prod.coefficient(z)


def test_structure_constants_small_fields(cyclo):
    for (p, n, ell) in ((131, 1, 10), (7, 3, 6), (5, 1, 1), (3, 2, 4)):
        assert verify_structure_constants(cyclo(p, n, ell)).passed


def test_structure_constants_degenerate_ell_one(cyclo):
    # alpha_0^2 = k * 1 + (q - 2) alpha_0 at q = 5 (even k)
    ctx = cyclo(5, 1, 1)
    alpha0 = class_sum(ctx, 0)
    prod = alpha0 * alpha0
    assert prod.coefficient(0) == ctx.k == 4
    for z in range(1, 5):
        assert prod.coefficient(z) == 3


def test_structure_constants_guard():
    from cyclomat import CycloCtx

    ctx = CycloCtx(build_field(100003), 2)
    with pytest.raises(ContextTooLarge):
        verify_structure_constants(ctx)


def test_regular_rep_blocks(cyclo):
    ctx = cyclo(131, 1, 10)
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    for v in (0, 3, qp):
        m = regular_rep(ctx, v)
        assert m.dim == ell + 1
        assert m[0, 0] == 0
        assert m.rows[0][1:] == [1 if j == v else 0 for j in range(ell)]
        assert [m.rows[1 + i][0] for i in range(ell)] == \
            [k if i == (v + qp) % ell else 0 for i in range(ell)]
        block = IntMatrix([row[1:] for row in m.rows[1:]])
        assert block == shifted_matrix(ctx, v)


def test_regular_rep_is_multiplicative(cyclo):
    for (p, n, ell) in ((7, 1, 2), (7, 3, 6), (13, 1, 4)):
        assert verify_regular_representation(cyclo(p, n, ell)).passed


def test_product_law_is_lower_right_block_of_rep_product(cyclo):
    # [alpha_u][alpha_v] restricted to the class-sum block equals
    # k E_{u+q', v} + A_u A_v, which is the shifted product law rearranged
    ctx = cyclo(7, 3, 6)
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    for u in range(ell):
        for v in range(ell):
            full = regular_rep(ctx, u) * regular_rep(ctx, v)
            block = IntMatrix([row[1:] for row in full.rows[1:]])
            direct = shifted_matrix(ctx, u) * shifted_matrix(ctx, v)
            assert block == direct + k * IntMatrix.elementary(
                ell, (u + qp) % ell, v)


def test_matrix_product_law(cyclo):
    for (p, n, ell) in ((131, 1, 10), (7, 3, 6), (7, 1, 2), (13, 1, 6)):
        assert verify_matrix_product_law(cyclo(p, n, ell)).passed


def test_transposed_product_law(cyclo):
    for (p, n, ell) in ((131, 1, 10), (7, 3, 6), (3, 2, 4)):
        assert verify_transposed_product_law(cyclo(p, n, ell)).passed


def test_transposed_law_specialization(cyclo):
    # u = v = 0 reduces to the column-Gram identity
    ctx = cyclo(131, 1, 10)
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    a = IntMatrix(ctx.table)
    rhs = k * (IntMatrix.identity(ell) - IntMatrix.elementary(ell, 0, 0))
    for w in range(ell):
        rhs = rhs + ctx.num(qp, w) * shifted_matrix(ctx, w)
    assert a.transpose() * a == rhs


def test_commutator_explicit_343(cyclo):
    ctx = cyclo(7, 3, 6)
    a = IntMatrix(ctx.table)
    comm = a.transpose() * a - a * a.transpose()
    expected = IntMatrix.zeros(6)
    expected.rows[0][0] = -57
    expected.rows[3][3] = 57
    assert comm == expected
    assert verify_commutator(ctx).passed


def test_commutator_explicit_131(cyclo):
    ctx = cyclo(131, 1, 10)
    a = IntMatrix(ctx.table)
    comm = a.transpose() * a - a * a.transpose()
    expected = IntMatrix.zeros(10)
    expected.rows[0][0] = -13
    expected.rows[5][5] = 13
    assert comm == expected


def test_even_k_is_normal(cyclo):
    ctx = cyclo(13, 1, 2)  # k = 6 even, zero half-shift
    a = IntMatrix(ctx.table)
    assert a.transpose() * a == a * a.transpose()
    assert verify_commutator(ctx).passed


def test_traces(cyclo):
    ctx = cyclo(131, 1, 10)
    a = IntMatrix(ctx.table)
    assert a.trace() == 12
    assert a.diagonal() == [2, 0, 2, 1, 1, 2, 0, 2, 1, 1]
    assert (a * a).trace() == 156
    assert verify_traces(ctx).passed
    ctx343 = cyclo(7, 3, 6)
    a343 = IntMatrix(ctx343.table)
    assert (a343 * a343 * a343).trace() == 184352
    assert verify_traces(ctx343).passed


def test_trace_even_k(cyclo):
    ctx = cyclo(13, 1, 2)  # k = 6 even: tr(A^2) = k(k-1) + q - 2k
    a = IntMatrix(ctx.table)
    assert (a * a).trace() == 6 * 5 + 13 - 12
    assert verify_traces(ctx).passed


def test_sum_of_squares(cyclo):
    ctx = cyclo(131, 1, 10)
    assert sum(v * v for row in ctx.table for v in row) == 261
    assert verify_sum_of_squares(ctx).passed
    ctx7 = cyclo(7, 1, 2)
    assert sum(v * v for row in ctx7.table for v in row) == 7
    for q in (5, 7, 11):
        ctx1 = cyclo(q, 1, 1)
        assert verify_sum_of_squares(ctx1).passed
        assert (q - 2) ** 2 == q + (q - 1) * (q - 4)


def test_inner_product_identity_exhaustive(cyclo):
    res = verify_inner_product_identity(cyclo(7, 3, 6))
    assert res.passed
    assert res.checks[0].params["mode"] == "exhaustive"
    assert res.checks[0].params["quadruples"] == 6 ** 4


def test_inner_product_identity_sampled(cyclo, monkeypatch):
    ctx = cyclo(131, 1, 10)
    monkeypatch.setattr(schur, "EXHAUSTIVE_QUADRUPLE_LIMIT", 9)
    monkeypatch.setattr(schur, "DEFAULT_SAMPLE_COUNT", 500)
    res = verify_inner_product_identity(ctx, seed=42)
    assert res.passed
    assert res.checks[0].params == {"mode": "sampled", "quadruples": 500,
                                    "seed": 42}


def test_snapper_shift_identity(cyclo):
    # sum_w (w, a)(w+m, b) = sum_w (w, a')(w+m, b') at a=0,b=3,a'=1,b'=2
    ctx = cyclo(7, 3, 6)
    a, b, a2, b2 = 0, 3, 1, 2
    m = (ctx.qprime + b - a2) % ctx.ell
    lhs = sum(ctx.num(w, a) * ctx.num(w + m, b) for w in range(6))
    rhs = sum(ctx.num(w, a2) * ctx.num(w + m, b2) for w in range(6))
    assert lhs == rhs


def test_column_products(cyclo):
    ctx = cyclo(131, 1, 10)
    res = verify_column_products(ctx)
    assert res.passed
    # half-shift square sum: 33 = k + 20
    gram = IntMatrix(ctx.table).transpose() * IntMatrix(ctx.table)
    assert gram[5, 5] == 33 == ctx.k + gram[0, 0]
    assert verify_column_products(cyclo(7, 3, 6)).passed


def test_column_products_even_k_skips(cyclo):
    res = verify_column_products(cyclo(13, 1, 2))
    assert res.passed
    skipped = [c.name for c in res.checks if c.skipped]
    assert "half_shift_square_sum" in skipped
    assert "half_shift_pair_products" in skipped


def test_survey(cyclo):
    for p in (37, 101, 197):
        assert all(e["equal"] for e in column_permutation_survey(
            cyclo(p, 1, 4)))
    assert all(e["equal"] for e in column_permutation_survey(cyclo(7, 3, 6)))
    assert all(e["equal"] for e in column_permutation_survey(cyclo(73, 1, 8)))


def test_survey_matches_independent_multisets(cyclo):
    ctx = cyclo(131, 1, 10)
    entries = column_permutation_survey(ctx)
    t, ell, qp = ctx.table, ctx.ell, ctx.qprime
    for e in entries:
        j = e["j"]
        expected = (sorted(t[w][j] for w in range(ell))
                    == sorted(t[w][j + qp] for w in range(ell)))
        assert e["equal"] == expected
    assert [e["j"] for e in entries] == [1, 2, 3, 4]


def test_survey_guards(cyclo):
    with pytest.raises(KEven):
        column_permutation_survey(cyclo(13, 1, 6))  # k = 2 even
    with pytest.raises(EllTooSmall):
        column_permutation_survey(cyclo(7, 1, 2))


def test_identity_suite_all_pass_sample(cyclo):
    for (p, n, ell) in ((7, 1, 6), (3, 2, 8), (11, 1, 5)):
        assert run_identity_suite(cyclo(p, n, ell)).passed


def test_identity_suite_random_contexts(cyclo):
    # seeded sweep over arbitrary divisors, prime and extension fields
    import random

    from cyclomat import build_field, CycloCtx

    rng = random.Random(2024)
    specs = [(3, 4), (5, 3), (13, 2), (241, 1), (601, 1), (19, 1), (23, 1),
             (29, 2)]
    for p, n in specs:
        q = p ** n
        # the matrix laws cost O(ell^5); keep the draw at desk scale
        divisors = [d for d in range(2, 14) if (q - 1) % d == 0]
        ell = rng.choice(divisors)
        ctx = CycloCtx(build_field(p, n), ell)
        res = run_identity_suite(ctx, seed=rng.randrange(1000))
        assert res.passed, (p, n, ell, [c.name for c in res.failures()])


_ELEMENTARY = ["transpose_shift_symmetry", "inversion_symmetry", "row_sums",
               "column_sums", "even_k_transpose_symmetry"]
_SCHUR = ["structure_constants", "regular_representation_product"]
_IDENTITIES = ["shifted_product_law", "transposed_product_law",
               "commutator_law", "near_normality", "trace_of_shifts",
               "trace_of_products", "trace_of_square", "trace_of_cube",
               "sum_of_squares", "inner_product_identity",
               "column_square_sums", "distinct_column_products",
               "half_shift_square_sum", "half_shift_pair_products"]


def test_suite_check_order(cyclo):
    # the ledger order each suite emitted when the cli kept its own suite list
    want = {"schur": _ELEMENTARY + _SCHUR,
            "identities": _ELEMENTARY + _IDENTITIES,
            "all": _ELEMENTARY + _SCHUR + _IDENTITIES}
    for spec in ((131, 1, 10), (13, 1, 2)):
        ctx = cyclo(*spec)
        for suite, names in want.items():
            res = run_identity_suite(ctx, seed=1, suite=suite)
            assert [c.name for c in res.checks] == names, (spec, suite)
    with pytest.raises(ValueError):
        run_identity_suite(cyclo(7, 1, 2), suite="nonsense")


def test_suite_convolution_guard():
    from cyclomat import CycloCtx

    ctx = CycloCtx(build_field(100801), 4)
    res = run_identity_suite(ctx, suite="all")
    conv = res.checks[len(_ELEMENTARY)]
    assert conv.name == "structure_constants" and conv.skipped and conv.ok
    assert conv.detail == {"note": "group-ring convolution skipped at q=100801"}
    assert [c.name for c in run_identity_suite(ctx, suite="identities")
            .checks] == _ELEMENTARY + _IDENTITIES
    with pytest.raises(ContextTooLarge):
        run_identity_suite(ctx, suite="schur")

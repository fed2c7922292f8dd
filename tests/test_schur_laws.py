"""Failure paths, dtype choices and the FFT kernel of the identity layer.

The reference loops below restate each law pair by pair in Python ints.  A
table corrupted after construction must make every verifier report exactly
the verdict and the first counterexample these loops find, in row-major
(u, v) order, whichever array dtype the verifiers run on.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclomat import (
    ContextTooLarge,
    CycloCtx,
    InternalError,
    IntMatrix,
    build_field,
    regular_rep,
    verify_column_products,
    verify_commutator,
    verify_inner_product_identity,
    verify_matrix_product_law,
    verify_regular_representation,
    verify_structure_constants,
    verify_traces,
    verify_transposed_product_law,
)
from cyclomat import schur
from cyclomat.report import dumps, jsonable

from group_ring import class_convolution_counts, class_sum
from oracles import power_table


def _d(ell, a, b):
    return 1 if (a - b) % ell == 0 else 0


def _mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)]
            for row in x]


def _sub(x, y):
    return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _shift(ctx, v):
    ell, t = ctx.ell, ctx.table
    return [[t[(i - v) % ell][(j - v) % ell] for j in range(ell)]
            for i in range(ell)]


def _first(ell, check):
    for u in range(ell):
        for v in range(ell):
            found = check(u, v)
            if found is not None:
                return found
    return None


def _combo(ctx, mats, u, v, shift):
    ell, t, d = ctx.ell, ctx.table, len(mats[0])
    return [[sum(t[(u - v + shift) % ell][(w - v) % ell] * mats[w][a][b]
                 for w in range(ell)) for b in range(d)] for a in range(d)]


def ref_product_law(ctx):
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    a = [_shift(ctx, v) for v in range(ell)]

    def check(u, v):
        rhs = _combo(ctx, a, u, v, 0)
        for i in range(ell):
            rhs[i][i] += k * _d(ell, u, v + qp)
        rhs[(u + qp) % ell][v] -= k
        lhs = _mul(a[u], a[v])
        if lhs != rhs:
            return {"u": u, "v": v, "residual": IntMatrix(_sub(lhs, rhs))}
    return _first(ell, check)


def ref_transposed_law(ctx):
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    a = [_shift(ctx, v) for v in range(ell)]

    def check(u, v):
        rhs = _combo(ctx, a, u, v, qp)
        for i in range(ell):
            rhs[i][i] += k * _d(ell, u, v)
        rhs[u][v] -= k
        if _mul([list(c) for c in zip(*a[u])], a[v]) != rhs:
            return {"u": u, "v": v}
    return _first(ell, check)


def ref_commutator(ctx):
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    a = [_shift(ctx, v) for v in range(ell)]

    def check(u, v):
        rhs = [[0] * ell for _ in range(ell)]
        rhs[(v + qp) % ell][u] += k
        rhs[(u + qp) % ell][v] -= k
        if _sub(_mul(a[u], a[v]), _mul(a[v], a[u])) != rhs:
            return {"u": u, "v": v}
    return _first(ell, check)


def ref_near_normality(ctx):
    ell, k, qp, a = ctx.ell, ctx.k, ctx.qprime, ctx.table
    at = [list(c) for c in zip(*a)]
    resid = _sub(_mul(at, a), _mul(a, at))
    resid[qp][qp] -= k
    resid[0][0] += k
    if any(any(row) for row in resid):
        return {"residual": IntMatrix(resid)}
    return None


def ref_regular_rep_matrix(ctx, v):
    ell = ctx.ell
    rows = [[0] + row for row in _shift(ctx, v)]
    rows.insert(0, [0] * (ell + 1))
    rows[0][1 + v] = 1
    rows[1 + (v + ctx.qprime) % ell][0] = ctx.k
    return rows


def ref_regular_rep(ctx):
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    reps = [ref_regular_rep_matrix(ctx, v) for v in range(ell)]

    def check(u, v):
        rhs = _combo(ctx, reps, u, v, 0)
        for i in range(ell + 1):
            rhs[i][i] += k * _d(ell, u, v + qp)
        if _mul(reps[u], reps[v]) != rhs:
            return {"u": u, "v": v}
    return _first(ell, check)


def ref_trace_checks(ctx):
    ell, k, qp, q = ctx.ell, ctx.k, ctx.qprime, ctx.q
    a = [_shift(ctx, v) for v in range(ell)]
    bad = next((w for w in range(ell)
                if sum(a[w][i][i] for i in range(ell)) != k - 1), None)

    def check(u, v):
        want = (q - 2 * k) * _d(ell, u - v, qp) + k * (k - 1)
        got = sum(a[u][i][j] * a[v][j][i]
                  for i in range(ell) for j in range(ell))
        if got != want:
            return {"u": u, "v": v, "expected": want}
    return None if bad is None else {"w": bad}, _first(ell, check)


def ref_structure_constants(ctx):
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    cls = power_table(ctx.field)[1] % ell

    def check(i, v):
        prod = class_sum(ctx, i) * class_sum(ctx, v)
        want0 = k * _d(ell, i, v + qp)
        ok = prod.coefficient(0) == want0 and all(
            prod.coefficient(z) == ctx.num(i - v, int(cls[z]) - v)
            for z in range(1, ctx.q))
        if not ok:
            return {"i": i, "v": v,
                    "identity_coefficient": prod.coefficient(0),
                    "expected_identity_coefficient": want0}
    return _first(ell, check)


def ref_inner_product(ctx, quadruples):
    ell, k, t = ctx.ell, ctx.k, ctx.table
    count = 0
    for (i, j, u, v) in quadruples:
        count += 1
        lhs = sum(t[(w - u) % ell][(i - u) % ell]
                  * t[(w - v) % ell][(j - v) % ell] for w in range(ell))
        rhs = k * (_d(ell, i, j) * _d(ell, u, v)
                   - _d(ell, i, u) * _d(ell, j, v)) \
            + sum(t[(w - v) % ell][(u - v) % ell]
                  * t[(w - j) % ell][(i - j) % ell] for w in range(ell))
        if lhs != rhs:
            return count, {"i": i, "j": j, "u": u, "v": v,
                           "lhs": lhs, "rhs": rhs}
    return count, None


def ref_column_products(ctx):
    ell, k, qp, t = ctx.ell, ctx.k, ctx.qprime, ctx.table

    def colprod(i, j):
        return sum(t[w][i % ell] * t[w][j % ell] for w in range(ell))

    def pairs(skip, holds):
        return next(({"i": i, "j": j} for i in range(ell) for j in range(ell)
                     if (i, j) not in skip and not holds(i, j)), None)

    out = {"column_square_sums": next(
        ({"i": i} for i in range(1, ell) if colprod(i, i) != k + sum(
            t[w][0] * t[(w - i) % ell][0] for w in range(ell))), None)}
    out["distinct_column_products"] = pairs(
        [(i, i) for i in range(ell)],
        lambda i, j: colprod(i, j) == sum(
            t[w][0] * t[(w - j) % ell][(i - j) % ell] for w in range(ell)))
    if k % 2 == 1:
        out["half_shift_square_sum"] = {"computed": colprod(qp, qp),
                                        "expected": k + colprod(0, 0)}
        out["half_shift_pair_products"] = pairs(
            [(0, 0), (qp, qp)],
            lambda i, j: colprod(i, j) == colprod(i + qp, j + qp))
    return out


CONTEXTS = [(131, 1, 10), (7, 3, 6), (41, 1, 4), (13, 1, 2), (73, 1, 8)]
BUMPS = [None, (0, 0, 1), (1, 2, -1), (-1, -1, 3), (0, -1, 2), (2, 1, 1)]
DTYPES = [None, object]


def _corrupted(fields, spec, bump):
    p, n, ell = spec
    ctx = CycloCtx(fields(p, n), ell)   # fresh: the shared fixtures stay valid
    if bump is not None:
        a, b, delta = bump
        ctx.table[a % ell][b % ell] += delta
    return ctx


def _assert_check(check, name, want_detail, ok=None):
    assert check.name == name
    assert check.ok == (want_detail is None if ok is None else ok)
    assert jsonable(check.detail) == jsonable(want_detail)


@pytest.mark.parametrize("spec", CONTEXTS)
@pytest.mark.parametrize("bump", BUMPS)
def test_verifiers_match_reference_loops(fields, monkeypatch, spec, bump):
    ctx = _corrupted(fields, spec, bump)
    laws = [
        (verify_matrix_product_law, "shifted_product_law",
         ref_product_law(ctx)),
        (verify_transposed_product_law, "transposed_product_law",
         ref_transposed_law(ctx)),
        (verify_commutator, "commutator_law", ref_commutator(ctx)),
        (verify_regular_representation, "regular_representation_product",
         ref_regular_rep(ctx)),
        (verify_structure_constants, "structure_constants",
         ref_structure_constants(ctx)),
    ]
    shifts_bad, products_bad = ref_trace_checks(ctx)
    near_normal_bad = ref_near_normality(ctx)
    columns = ref_column_products(ctx)
    natural = schur._law_dtype(ctx)
    if bump is not None:
        assert any(want is not None for _, _, want in laws)
    for dtype in DTYPES:
        if dtype is not None:
            monkeypatch.setattr(schur, "_law_dtype", lambda c, d=dtype: d)
        else:
            assert natural is np.float64      # entries are far below 2^53
        for verifier, name, want in laws:
            check = verifier(ctx).checks[0]
            _assert_check(check, name, want)
            assert check.params == {"pairs": ctx.ell ** 2}
        _assert_check(verify_commutator(ctx).checks[1], "near_normality",
                      near_normal_bad)
        traces = verify_traces(ctx).checks
        _assert_check(traces[0], "trace_of_shifts", shifts_bad)
        _assert_check(traces[1], "trace_of_products", products_bad)
        res = verify_inner_product_identity(ctx)
        count, want = ref_inner_product(ctx, [(i, j, u, v)
                                              for i in range(ctx.ell)
                                              for j in range(ctx.ell)
                                              for u in range(ctx.ell)
                                              for v in range(ctx.ell)])
        _assert_check(res.checks[0], "inner_product_identity", want)
        assert res.checks[0].params["quadruples"] == count
        cols = {c.name: c for c in verify_column_products(ctx).checks}
        for name, want in columns.items():
            if name == "half_shift_square_sum":
                _assert_check(cols[name], name, want,
                              ok=want["computed"] == want["expected"])
            else:
                _assert_check(cols[name], name, want)


@pytest.mark.parametrize("q,table", [(13, [[-1, 0], [0, 2]]),
                                     (11, [[-1, 0], [5, -1]]),
                                     (5, [[1, 0], [0, 2]])])
def test_product_law_first_failure_past_v_zero(fields, monkeypatch, q, table):
    # tables on which the product law holds at (0, 0) but not at (1, 0):
    # its first failing pair is (0, 1), whose residual is that of (1, 0)
    # conjugated by P_1
    ctx = CycloCtx(fields(q, 1), 2)
    ctx.table[:] = [list(row) for row in table]
    want = ref_product_law(ctx)
    assert (want["u"], want["v"]) == (0, 1)
    laws = [(verify_matrix_product_law, "shifted_product_law", want),
            (verify_transposed_product_law, "transposed_product_law",
             ref_transposed_law(ctx)),
            (verify_regular_representation, "regular_representation_product",
             ref_regular_rep(ctx))]
    for dtype in DTYPES:
        if dtype is not None:
            monkeypatch.setattr(schur, "_law_dtype", lambda c, d=dtype: d)
        for verifier, name, expected in laws:
            _assert_check(verifier(ctx).checks[0], name, expected)
        _assert_check(verify_traces(ctx).checks[1], "trace_of_products",
                      ref_trace_checks(ctx)[1])


def test_sampled_inner_product_matches_reference(fields, monkeypatch):
    import random

    ctx = _corrupted(fields, (131, 1, 10), (3, 4, 1))
    rng = random.Random(5)
    quads = [tuple(rng.randrange(10) for _ in range(4)) for _ in range(300)]
    count, want = ref_inner_product(ctx, quads)
    assert want is not None
    monkeypatch.setattr(schur, "EXHAUSTIVE_QUADRUPLE_LIMIT", 9)
    monkeypatch.setattr(schur, "DEFAULT_SAMPLE_COUNT", 300)
    for dtype in DTYPES:
        if dtype is not None:
            monkeypatch.setattr(schur, "_law_dtype", lambda c, d=dtype: d)
        res = verify_inner_product_identity(ctx, seed=5)
        _assert_check(res.checks[0], "inner_product_identity", want)
        assert res.checks[0].params == {"mode": "sampled",
                                        "quadruples": count, "seed": 5}


def test_law_dtype_bound(fields):
    ctx = CycloCtx(fields(131, 1), 10)
    assert schur._law_dtype(ctx) is np.float64
    ctx.table[0][0] = 2 ** 23          # (ell+2) ell (m+1)^2 stays below 2^53
    assert schur._law_dtype(ctx) is np.float64
    ctx.table[0][0] = 2 ** 24          # and passes it
    assert schur._law_dtype(ctx) is object
    res = verify_matrix_product_law(ctx)
    assert not res.passed and res.checks[0].detail["u"] == 0


def _ref_power_traces(ctx):
    """The trace_of_square and trace_of_cube details by Python-int loops."""
    ell, k, qp, q, t = ctx.ell, ctx.k, ctx.qprime, ctx.q, ctx.table
    r = range(ell)
    tr2 = sum(t[i][j] * t[j][i] for i in r for j in r)
    tr3 = sum(t[i][j] * t[j][m] * t[m][i] for i in r for j in r for m in r)
    return ({"computed": tr2,
             "expected": k * (k - 1) + (q - 2 * k if k % 2 == 0 else 0)},
            {"computed": tr3,
             "expected": ctx.num(0, qp) * (q - 3 * k) + k * k * (k - 1)})


@pytest.mark.parametrize("entry,natural", [(None, np.float64),
                                           (3 * 10 ** 5, np.float64),
                                           (10 ** 12, object)])
def test_power_traces_are_exact(fields, monkeypatch, entry, natural):
    # (0, 0) = 3e5 keeps the law bound below 2^53, but its cube alone is
    # 2.7e16; at 1e12 the cube passes 2^63: tr(A^3) stays exact in both
    ctx = CycloCtx(fields(131, 1), 10)
    if entry is not None:
        ctx.table[0][0] = entry
    assert schur._law_dtype(ctx) is natural
    want = _ref_power_traces(ctx)
    for dtype in DTYPES:
        if dtype is not None:
            monkeypatch.setattr(schur, "_law_dtype", lambda c, d=dtype: d)
        checks = verify_traces(ctx).checks[2:]
        for check, name, detail in zip(
                checks, ("trace_of_square", "trace_of_cube"), want):
            _assert_check(check, name, detail,
                          ok=detail["computed"] == detail["expected"])


_SMALL_FIELDS = [(p, n) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                  41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)
                 for n in (1, 2, 3) if p ** n <= 400]


@settings(max_examples=40, deadline=None)
@given(pn=st.sampled_from(_SMALL_FIELDS), data=st.data())
def test_fft_kernel_matches_group_ring_product(fields, pn, data):
    field = fields(*pn)
    q = field.q
    ell = data.draw(st.sampled_from(
        [d for d in range(1, q) if (q - 1) % d == 0 and (q - 1) // d <= 120]))
    ctx = CycloCtx(field, ell)
    i = data.draw(st.integers(0, ell - 1))
    v = data.draw(st.integers(0, ell - 1))
    counts = class_convolution_counts(ctx, i, v)
    prod = class_sum(ctx, i) * class_sum(ctx, v)
    assert counts.dtype == np.int64 and counts.shape == (q,)
    assert [int(c) for c in counts] == [prod.coefficient(z) for z in range(q)]


@settings(max_examples=40, deadline=None)
@given(pn=st.sampled_from(_SMALL_FIELDS), data=st.data())
def test_inner_product_windows_match_reference(fields, pn, data):
    # both modes against the pair-by-pair loop, on a table with one entry
    # bumped (or none), in both array dtypes
    import random

    field = fields(*pn)
    q = field.q
    ell = data.draw(st.sampled_from(
        [d for d in range(1, min(q, 9)) if (q - 1) % d == 0]))
    ctx = CycloCtx(field, ell)
    a, b = data.draw(st.integers(0, ell - 1)), data.draw(st.integers(0, ell - 1))
    ctx.table[a][b] += data.draw(st.sampled_from([0, 1, -1, 2]))
    seed = data.draw(st.integers(0, 10 ** 6))
    samples = data.draw(st.integers(1, 300))
    rng = random.Random(seed)
    sampled = [tuple(rng.randrange(ell) for _ in range(4))
               for _ in range(samples)]
    full = [(i, j, u, v) for i in range(ell) for j in range(ell)
            for u in range(ell) for v in range(ell)]
    runs = [(ell, "exhaustive", full), (ell - 1, "sampled", sampled)]
    for dtype in DTYPES:
        with pytest.MonkeyPatch.context() as mp:
            if dtype is not None:
                mp.setattr(schur, "_law_dtype", lambda c, d=dtype: d)
            mp.setattr(schur, "DEFAULT_SAMPLE_COUNT", samples)
            for limit, mode, quads in runs:
                mp.setattr(schur, "EXHAUSTIVE_QUADRUPLE_LIMIT", limit)
                count, want = ref_inner_product(ctx, quads)
                check = verify_inner_product_identity(ctx, seed=seed).checks[0]
                _assert_check(check, "inner_product_identity", want)
                assert check.params["mode"] == mode
                assert check.params["quadruples"] == count


def test_inner_product_runs_past_the_tensor_budget():
    # the tensor laws refuse ell = 240; the column windows of [A; A] take
    # O(ell^2 + chunk ell) memory and check 10^4 sampled quadruples
    ctx = CycloCtx(build_field(100801), 240)
    with pytest.raises(ContextTooLarge):
        verify_matrix_product_law(ctx)
    tracemalloc.start()
    try:
        res = verify_inner_product_identity(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert res.checks[0].params == {"mode": "sampled", "quadruples": 10 ** 4,
                                    "seed": 0}
    assert peak < schur.ARRAY_BUDGET_BYTES


def test_stack_laws_memory_at_ell_120():
    # each law stacks its sides at (u, 0) for all u: a few ell^3 arrays,
    # with no ell^3 table tensor beside them (83-98 MB when there was one)
    ctx = CycloCtx(build_field(100801), 120)
    ctx.table
    for verifier in (verify_regular_representation, verify_matrix_product_law,
                     verify_transposed_product_law, verify_commutator):
        tracemalloc.start()
        try:
            res = verifier(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passed
        assert peak < 5 * 8 * (ctx.ell + 1) ** 3, verifier.__name__


def test_column_products_memory_is_quadratic_in_ell():
    # first-column products come from one circulant matmul: a few ell x ell
    # arrays, not the two ell^3 temporaries (over 200 MB at ell = 240)
    ctx = CycloCtx(build_field(100801), 240)
    ctx.table
    tracemalloc.start()
    try:
        res = verify_column_products(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 32 * 8 * ctx.ell ** 2


def _live_spectra_bytes(ctx, width):
    # K's spectrum beside a slice's and their product: 2 width + 1
    # spectra of 8 (q + q/p) bytes
    return 8 * (2 * width + 1) * (ctx.q + ctx.q // ctx.field.p)


def test_convolution_budget_refuses_before_allocating(monkeypatch):
    # all 990 class spectra of F_99991 take 792 MB, but only K's and a
    # slice of 10 classes are live at once: checked, not refused
    ctx = CycloCtx(build_field(99991), 990)
    assert schur._convolution_refusal(ctx) is None
    monkeypatch.setattr(schur, "SPECTRA_BUDGET_BYTES",
                        _live_spectra_bytes(ctx, 10) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ContextTooLarge):
            verify_structure_constants(ctx)
        with pytest.raises(ContextTooLarge):
            class_convolution_counts(ctx, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20                # a slice's indicators are ~1 MB


def test_convolution_spectra_budget_boundary(monkeypatch):
    # the refusal falls exactly at the live spectra of a slice: all 8
    # classes of F_73, and 6 of F_343, whose spectra are 8 (q + q/p) bytes
    for (p, n, ell), live in (((73, 1, 8), 8 * 17 * 74),
                              ((7, 3, 6), 8 * 13 * 392)):
        ctx = CycloCtx(build_field(p, n), ell)
        assert _live_spectra_bytes(ctx, ell) == live
        monkeypatch.setattr(schur, "SPECTRA_BUDGET_BYTES", live)
        assert schur._convolution_refusal(ctx) is None
        assert verify_structure_constants(ctx).passed
        monkeypatch.setattr(schur, "SPECTRA_BUDGET_BYTES", live - 1)
        assert "past %d bytes" % (live - 1) in schur._convolution_refusal(ctx)
        with pytest.raises(ContextTooLarge):
            verify_structure_constants(ctx)
    monkeypatch.undo()
    # all 128 class spectra of F_65537 take 67 MB, and all 512 would take
    # 268 MB, past the budget; a slice of 15 is live at once in either
    field = build_field(65537)
    assert schur._convolution_refusal(CycloCtx(field, 512)) is None
    ctx = CycloCtx(field, 128)
    assert schur._convolution_refusal(ctx) is None
    tracemalloc.start()
    try:
        counts = class_convolution_counts(ctx, 3, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _live_spectra_bytes(ctx, 15) + schur.ARRAY_BUDGET_BYTES
    prod = class_sum(ctx, 3) * class_sum(ctx, 100)
    assert [int(c) for c in counts] == [prod.coefficient(z)
                                        for z in range(ctx.q)]


@pytest.mark.parametrize("spec", [(131, 1, 10), (7, 3, 6)])
@pytest.mark.parametrize("bump", BUMPS)
def test_small_array_budget_keeps_ledgers(fields, monkeypatch, spec, bump):
    # class products one v at a time, quadruples three to five at a time:
    # the first failing quadruple of a corrupted table lies past the first
    ctx = _corrupted(fields, spec, bump)
    runs = []
    monkeypatch.setattr(schur, "DEFAULT_SAMPLE_COUNT", 700)
    for budget in (schur.ARRAY_BUDGET_BYTES, 2000):
        monkeypatch.setattr(schur, "ARRAY_BUDGET_BYTES", budget)
        run = [verify_structure_constants(ctx)]
        for limit in (ctx.ell, ctx.ell - 1):    # exhaustive, then sampled
            monkeypatch.setattr(schur, "EXHAUSTIVE_QUADRUPLE_LIMIT", limit)
            run.append(verify_inner_product_identity(ctx, seed=2))
        runs.append([dumps(res.to_obj()) for res in run])
    assert runs[0] == runs[1]


def test_regular_rep_past_the_tensor_budget(fields):
    ctx = CycloCtx(fields(257, 1), 256)
    with pytest.raises(ContextTooLarge):
        verify_regular_representation(ctx)
    want = ref_regular_rep_matrix(ctx, 5)
    assert regular_rep(ctx, 5 + 256).rows == want


@pytest.mark.parametrize("spec", [(131, 1, 10), (7, 3, 6)])
def test_structure_constants_transform_ell_rows(fields, monkeypatch, spec):
    p, n, ell = spec
    ctx = CycloCtx(fields(p, n), ell)
    irfftn, rows = np.fft.irfftn, []

    def counted(a, *args, **kw):
        rows.append(a.shape[0])
        return irfftn(a, *args, **kw)

    monkeypatch.setattr(np.fft, "irfftn", counted)
    assert verify_structure_constants(ctx).passed
    assert sum(rows) == ell


@pytest.mark.parametrize("spec,u", [((131, 1, 10), 3), ((131, 1, 10), 9),
                                    ((7, 3, 6), 1), ((7, 3, 6), 4),
                                    ((41, 1, 4), 2)])
def test_structure_constants_single_row(fields, spec, u):
    # a bump in row u breaks P_u = alpha_u alpha_0 alone, so the first
    # failing pair is (0, -u mod ell)
    ctx = _corrupted(fields, spec, (u, 2, 1))
    want = ref_structure_constants(ctx)
    check = verify_structure_constants(ctx).checks[0]
    assert want["i"] == 0 and want["v"] == -u % ctx.ell
    _assert_check(check, "structure_constants", want)


_RANDRANGE_ELLS = [1, 2, 3, 13, 16, 17, 64, 1000, 65537]


@pytest.mark.parametrize("seed", [0, 1, 5, 2024])
def test_bulk_draw_is_the_randrange_sequence(seed):
    import random

    for ell in _RANDRANGE_ELLS:
        rng = random.Random(seed)
        want = [rng.randrange(ell) for _ in range(4000)]
        got = schur._randrange_stream(random.Random(seed), ell, 4000)
        assert got.dtype == np.int64 and got.tolist() == want, ell
    assert schur._randrange_stream(random.Random(seed), 20, 0).size == 0


def test_convolution_residual_guard(fields, monkeypatch):
    ctx = CycloCtx(fields(131, 1), 10)
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn",
                        lambda *a, **kw: irfftn(*a, **kw) + 0.3)
    with pytest.raises(InternalError, match="residual"):
        verify_structure_constants(ctx)


def test_package_import_leaves_numpy_fft_unloaded():
    code = ("import sys, cyclomat, cyclomat.cli; "
            "sys.exit('numpy.fft' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclomat import (
    CycloCtx,
    EllOne,
    FieldCtx,
    InvalidEll,
    InvalidJobs,
    IntMatrix,
    IntPoly,
    NotADifferenceSet,
    RangeTooLarge,
    build_field,
    build_matrices,
    build_report,
    check_schoenberg_condition,
    is_diffset_bruteforce,
    is_diffset_gram,
    is_diffset_lehmer,
    is_diffset_sumsq,
    modified_diffset,
    passes_prefilter,
    search,
    verify_congruences,
    verify_determinants,
    verify_gram_identities,
    verify_spectral,
)
from cyclomat import diffset
from cyclomat.cli import main
from cyclomat.diffset import (
    SEARCH_MAX_Q,
    is_self_conjugate,
    iter_odd_prime_powers,
    iter_search,
    lehmer_screen,
    passes_mann,
    worker_count,
)

import reference_data as ref
from conftest import odd_prime_power
from group_ring import difference_counts_literal

DETECTORS = (lambda c: is_diffset_bruteforce(c)[0], is_diffset_lehmer,
             is_diffset_sumsq, is_diffset_gram)


def test_bruteforce_detector(cyclo):
    assert is_diffset_bruteforce(cyclo(7, 1, 2)) == (True, 1)
    assert is_diffset_bruteforce(cyclo(13, 1, 2)) == (False, None)
    assert is_diffset_bruteforce(cyclo(37, 1, 4)) == (True, 2)
    assert is_diffset_bruteforce(cyclo(31, 1, 2)) == (True, 7)


def test_trivial_subgroup_is_not_a_difference_set(cyclo):
    # k = 1 means K = {1}: every count is zero, no positive lambda exists
    for (p, n, ell) in ((3, 1, 2), (5, 1, 4), (7, 1, 6), (11, 1, 10)):
        ctx = cyclo(p, n, ell)
        assert ctx.k == 1
        assert is_diffset_bruteforce(ctx) == (False, None)
        assert not is_diffset_lehmer(ctx)
        assert not is_diffset_sumsq(ctx)
        assert not is_diffset_gram(ctx)


def test_bruteforce_literal_agrees(cyclo):
    # the verdict read off every pair of K x K, the oracle route
    for (p, n, ell) in ref.SMALL_CONTEXTS:
        ctx = cyclo(p, n, ell)
        literal = difference_counts_literal(ctx.field, ell)
        assert literal[0] == ctx.k
        values = set(literal[1:])
        want = (True, values.pop()) if len(values) == 1 and ctx.k > 1 \
            else (False, None)
        assert is_diffset_bruteforce(ctx) == want, (p, n, ell)


def test_bruteforce_guards(cyclo):
    with pytest.raises(EllOne):
        is_diffset_bruteforce(cyclo(7, 1, 1))


def test_diffset_matches_search_past_a_million():
    # diffset counts a q that search certifies, and reports it alike
    found, out = io.StringIO(), io.StringIO()
    assert main(["search", "--ell", "2", "--min-q", "1000000",
                 "--max-q", "1000003"], out=found, err=io.StringIO()) == 0
    assert main(["diffset", "--p", "1000003", "--ell", "2"], out=out,
                err=io.StringIO()) == 0
    (line,) = found.getvalue().splitlines()
    report = json.loads(out.getvalue())
    assert report["q"] == 1000003 and report["verdicts"]["bruteforce"]
    assert report == json.loads(line)


def test_lehmer_detector(cyclo):
    assert is_diffset_lehmer(cyclo(73, 1, 8))
    assert not is_diffset_lehmer(cyclo(131, 1, 10))
    assert [ctx.table[i][0] for ctx in [cyclo(131, 1, 10)]
            for i in range(10)] == [2, 1, 1, 2, 0, 2, 1, 1, 2, 0]


def test_sumsq_detector(cyclo):
    assert is_diffset_sumsq(cyclo(73, 1, 8))
    assert is_diffset_sumsq(cyclo(7, 1, 2))
    ctx131 = cyclo(131, 1, 10)
    assert not is_diffset_sumsq(ctx131)
    # strict lower bound when not a difference set: 10 * 20 > 12^2
    colsq0 = sum(ctx131.table[i][0] ** 2 for i in range(10))
    assert colsq0 == 20 and 10 * colsq0 > 144


def test_gram_detector(cyclo):
    assert is_diffset_gram(cyclo(73, 1, 8))
    assert not is_diffset_gram(cyclo(131, 1, 10))
    gram = IntMatrix(ref.GRAM_131_L10)
    assert gram.diagonal() == [20, 23, 29, 29, 23, 33, 23, 29, 29, 23]
    # k even: shape (a, b, ..., b) alone is not enough
    ctx9 = cyclo(3, 2, 4)
    a9 = IntMatrix(ctx9.table)
    assert (a9.transpose() * a9).diagonal() == [1, 2, 2, 2]
    assert not is_diffset_gram(ctx9)


def test_detector_agreement_on_fixtures(cyclo):
    for (p, n, ell) in ref.BATTERY_CONTEXTS:
        if ell < 2:
            continue
        ctx = cyclo(p, n, ell)
        verdicts = {d(ctx) for d in DETECTORS}
        assert len(verdicts) == 1, (p, n, ell)


def test_generator_independence():
    for (p, ell) in ((73, 8), (31, 2), (37, 4)):
        base = build_field(p)
        gens = [g for g in range(2, p)
                if base._has_full_order(g)][:3]
        outcomes = set()
        for g in gens:
            ctx = CycloCtx(build_field(p, generator=g), ell)
            outcomes.add(is_diffset_bruteforce(ctx))
        assert len(outcomes) == 1


def test_hit_consequences(cyclo):
    for (p, ell) in ((7, 2), (31, 2), (37, 4), (73, 8), (101, 4), (197, 4)):
        ctx = cyclo(p, 1, ell)
        hit, lam = is_diffset_bruteforce(ctx)
        assert hit
        assert ctx.ell % 2 == 0 and ctx.k % 2 == 1
        assert lam * ctx.ell == ctx.k - 1
        assert ctx.qprime == ctx.ell // 2
        col0 = [ctx.table[i][0] for i in range(ctx.ell)]
        rowq = ctx.table[ctx.qprime]
        assert set(col0) == {lam} and set(rowq) == {lam}


def test_gram_identities(cyclo):
    ctx = cyclo(73, 1, 8)
    res = verify_gram_identities(ctx)
    assert res.passed
    dm = build_matrices(ctx)
    assert dm.B.transpose() * dm.B == 8 * (IntMatrix.ones(7)
                                           + IntMatrix.identity(7))
    # q = 7, ell = 2: B = [[2]] and B^T B = [[4]] = (k - lam)(lam + 1)
    dm7 = build_matrices(cyclo(7, 1, 2))
    assert dm7.B == IntMatrix([[2]])
    assert dm7.B.transpose() * dm7.B == IntMatrix([[4]])
    assert verify_gram_identities(cyclo(7, 1, 2)).passed


def test_gram_identities_quartic_case(cyclo):
    # ell = 4: the two off-values a, b satisfy ab = lam^2 and
    # lam^2 + a^2 + b^2 = (k - lam)(lam + 1)
    ctx = cyclo(37, 1, 4)
    assert verify_gram_identities(ctx).passed
    lam = 2
    row0 = ctx.table[0]
    a, b = row0[1], row0[3]
    assert a * b == lam ** 2 == 4
    assert lam ** 2 + a ** 2 + b ** 2 == (9 - lam) * (lam + 1)


def test_certificates_require_hit(cyclo):
    ctx = cyclo(131, 1, 10)
    for op in (verify_gram_identities, verify_spectral, verify_determinants,
               verify_congruences, check_schoenberg_condition):
        with pytest.raises(NotADifferenceSet):
            op(ctx)


def test_spectral_73(cyclo):
    ctx = cyclo(73, 1, 8)
    res = verify_spectral(ctx)
    assert res.passed
    dm = build_matrices(ctx)
    assert dm.S.trace() == 8
    assert dm.M.trace() == 9
    assert (dm.S * dm.S - 8 * IntMatrix.identity(7)).rank() == 1
    by_name = {c.name: c for c in res.checks}
    roots_s = by_name["minor_spectrum_numeric"].detail["roots"]
    expected_s = [(-2 * math.sqrt(2), 3), (2 * math.sqrt(2), 3), (8.0, 1)]
    for (r, m), (er, em) in zip(roots_s, expected_s):
        assert m == em and abs(r - er) < 1e-9
    roots_m = [r for r, _ in by_name["symmetrized_spectrum_numeric"]
               .detail["roots"]]
    lo, hi = (9 - math.sqrt(77)) / 2, (9 + math.sqrt(77)) / 2
    assert any(abs(r - lo) < 1e-9 for r in roots_m)
    assert any(abs(r - hi) < 1e-9 for r in roots_m)


def test_spectral_small_case(cyclo):
    # q = 7, ell = 2: M = [[1,1],[1,2]], annihilated by (x^2-3x+1)(x^2-2)
    ctx = cyclo(7, 1, 2)
    dm = build_matrices(ctx)
    assert dm.M == IntMatrix([[1, 1], [1, 2]])
    ann = IntPoly([1, -3, 1]) * IntPoly([-2, 0, 1])
    assert ann.at_matrix(dm.M).is_zero()
    assert verify_spectral(ctx).passed


def test_determinants(cyclo):
    res = verify_determinants(cyclo(73, 1, 8))
    assert res.passed
    vals = {c.name: c.detail for c in res.checks}
    assert vals["cyclotomic_determinant"] == {"predicted": -512,
                                              "computed": -512}
    assert vals["minor_determinant"] == {"predicted": -4096,
                                         "computed": -4096}
    res37 = verify_determinants(cyclo(37, 1, 4))
    assert res37.passed
    assert build_matrices(cyclo(37, 1, 4)).A.det() == -14
    assert build_matrices(cyclo(7, 1, 2)).A.det() == -1
    assert build_matrices(cyclo(31, 1, 2)).A.det() == -7
    assert verify_determinants(cyclo(31, 1, 2)).passed


def test_congruences(cyclo):
    res73 = verify_congruences(cyclo(73, 1, 8))
    assert res73.passed
    names73 = {c.name: c for c in res73.checks}
    assert not names73["odd_lambda_mod_four"].skipped
    assert not names73["unit_lambda_row_values"].skipped
    res7 = verify_congruences(cyclo(7, 1, 2))
    assert res7.passed
    res31 = verify_congruences(cyclo(31, 1, 2))
    assert res31.passed
    names31 = {c.name: c for c in res31.checks}
    assert not names31["odd_lambda_residues"].skipped  # lambda = 7 odd
    assert not names31["parity_vs_q_mod_8"].skipped


def test_schoenberg(cyclo):
    res73 = check_schoenberg_condition(cyclo(73, 1, 8))
    assert res73.passed
    by = {c.name: c for c in res73.checks}
    assert not by["schoenberg_square_case"].skipped  # 73 - 9 = 64
    res7 = check_schoenberg_condition(cyclo(7, 1, 2))
    assert res7.passed  # 7 - 3 = 4 and 2 = 1 + 1
    res37 = check_schoenberg_condition(cyclo(37, 1, 4))
    assert res37.passed
    by37 = {c.name: c for c in res37.checks}
    assert by37["schoenberg_square_case"].skipped  # 28 is not a square
    res31 = check_schoenberg_condition(cyclo(31, 1, 2))
    by31 = {c.name: c for c in res31.checks}
    assert not by31["geometric_lambda_clause"].skipped  # 7 = 1 + 2 + 4
    assert res31.passed


def test_search_refuses_non_integral_arguments():
    for args, kwargs in (((2.5, 50), {}), ((4.0, 100), {}), ((2, 50.0), {}),
                         ((2, 50), {"min_q": 3.0})):
        with pytest.raises(TypeError):
            iter_search(*args, **kwargs)    # at the call, not when iterated
        with pytest.raises(TypeError):
            search(*args, **kwargs)
    assert [r.q for r in search(np.int64(2), np.int64(20))] == [7, 11, 19]


def test_modified_diffset(cyclo):
    rep7 = modified_diffset(cyclo(7, 1, 2))
    assert rep7.is_difference_set and rep7.lam0 == 2
    assert rep7.certificates.passed
    rep13 = modified_diffset(cyclo(13, 1, 2))
    assert not rep13.is_difference_set and rep13.lam0 is None
    rep11 = modified_diffset(cyclo(11, 1, 2))
    assert rep11.is_difference_set and rep11.lam0 == 3
    assert rep11.certificates.passed
    with pytest.raises(EllOne):
        modified_diffset(cyclo(7, 1, 1))


def test_modified_matches_residue_rule(cyclo):
    # ell = 2: K ∪ {0} is a difference set exactly when q = 3 (mod 4)
    for q in (3, 7, 11, 13, 17, 19, 23, 27, 29, 31):
        pn = odd_prime_power(q)
        ctx = CycloCtx(build_field(pn[0], pn[1]), 2)
        assert modified_diffset(ctx).is_difference_set == (q % 4 == 3)


def test_modified_agreement_on_fixtures(cyclo):
    for (p, n, ell) in ref.SMALL_CONTEXTS:
        if ell < 2:
            continue
        rep = modified_diffset(cyclo(p, n, ell))
        assert rep.verdicts["bruteforce"] == rep.verdicts["lehmer_modified"]


def test_report_structure(cyclo):
    rep = build_report(cyclo(73, 1, 8))
    assert rep.is_difference_set and rep.lam == 1
    assert rep.certificates_pass
    assert rep.q_is_prime and rep.k_is_square
    obj = rep.to_obj()
    assert obj["verdicts"] == {"bruteforce": True, "lehmer": True,
                               "sumsq": True, "gram": True}
    assert obj["determinants"]["cyclotomic_determinant"]["computed"] == -512
    assert obj["congruences_pass"] is True
    assert obj["schoenberg_pass"] is True
    rep131 = build_report(cyclo(131, 1, 10))
    assert not rep131.is_difference_set
    assert rep131.lam is None
    assert rep131.to_obj()["certificates"] == []
    assert rep131.to_obj()["congruences_pass"] is None


def test_search_quadratic_residues():
    # primes = 3 (mod 4); q = 3 itself is the trivial K = {1} and is excluded
    hits = search(2, 50)
    assert [r.q for r in hits] == [7, 11, 19, 23, 27, 31, 43, 47]
    prime_hits = search(2, 50, prime_only=True)
    assert [r.q for r in prime_hits] == [7, 11, 19, 23, 31, 43, 47]
    assert all(r.q % 4 == 3 for r in hits)
    assert all(r.certificates_pass for r in hits)


def test_search_quartic_and_octic():
    assert [r.q for r in search(4, 200)] == [37, 101, 197]
    assert [r.q for r in search(8, 100)] == [73]


def test_search_records_problem_data():
    hits = search(4, 200)
    assert all(r.q_is_prime for r in hits)
    assert all(r.k_is_square for r in hits)  # k = 9, 25, 49


def test_search_guards():
    with pytest.raises(EllOne):
        search(1, 50)
    with pytest.raises(RangeTooLarge):
        search(2, 10 ** 8)


def test_search_parallel_merge():
    try:
        hits = search(2, 50, jobs=2)
    except (OSError, PermissionError):
        pytest.skip("process pool unavailable in sandbox")
    assert [r.q for r in hits] == [7, 11, 19, 23, 27, 31, 43, 47]


def test_search_screens_only_prefiltered_candidates(monkeypatch):
    seen = []
    screen = diffset._search_one

    def record(candidate):
        seen.append(candidate[0])
        return screen(candidate)

    monkeypatch.setattr(diffset, "_search_one", record)
    assert [r.q for r in search(4, 2000)] == [37, 101, 197, 677]
    assert seen and all(q % 16 == 5 for q in seen)
    seen.clear()
    assert search(3, 1000) == [] and seen == []  # odd ell: nothing to build


def _mann_by_sympy(q, p, ell):
    # Mann's test from sympy's factorint and n_order: every prime r that
    # divides n = k - lambda to an odd power has odd order mod v* = p
    from sympy import factorint, n_order

    k = (q - 1) // ell
    n = k - (k - 1) // ell
    return all(e % 2 == 0 or n_order(r, p) % 2 == 1
               for r, e in factorint(n).items())


def _candidates_by_rule(ell, max_q, min_q, prime_only):
    # q by q: every q = 1 (mod ell) in range that passes the prefilter and
    # Mann's test and is an odd prime power
    first = max(3, min_q)
    out = []
    for q in range(first + (1 - first) % ell, max_q + 1, ell):
        pn = odd_prime_power(q)
        if passes_prefilter(q, ell) and pn is not None \
                and not (prime_only and pn[1] != 1) \
                and _mann_by_sympy(q, pn[0], ell):
            out.append((q, pn[0], pn[1], ell))
    return out


def test_candidate_stream_matches_prefilter_rule(monkeypatch):
    seen = []

    def record(candidate):
        seen.append(candidate)

    monkeypatch.setattr(diffset, "_search_one", record)
    for ell in (2, 3, 4, 6, 8, 10):
        for min_q, max_q in ((3, 20000), (-5, 500), (101, 101), (102, 9000),
                             (677, 20000), (3, 2), (12000, 11000),
                             (3, -40)):
            for prime_only in (False, True):
                seen.clear()
                assert list(iter_search(ell, max_q, min_q=min_q,
                                        prime_only=prime_only)) == []
                assert seen == _candidates_by_rule(ell, max_q, min_q,
                                                  prime_only), \
                    (ell, min_q, max_q, prime_only)


@settings(max_examples=120, deadline=None)
@given(st.integers(-10, 3 * 10 ** 4), st.integers(-10, 3 * 10 ** 4),
       st.integers(1, 64))
@example(3, 3 * 10 ** 4, 30)     # 2, 3 and 5 divide step: all or none marked
@example(7, 5000, 14)            # every term a multiple of 7, and 7 prime
@example(13, 13 + 64 * 16, 16)   # 65 terms: a second segment of one term
@example(5, 5 + 191 * 64, 64)    # 192 terms: two full segments
@example(1, 3 * 10 ** 4, 1)      # segments of 64 .. 2^14 terms, then a cut one
@example(-10, 200, 1)            # terms below 3, and q = r for each r
@example(173, 173 ** 2, 173 - 1)  # the one square of a sieving prime
@example(0, 3000, 1)
@example(5, 20000, 16)
@example(7, 6561, 2)
@example(6, 500, 6)
@example(3, 3, 1)
@example(5, -9, 8)
def test_odd_prime_powers_match_single_q_route(first, max_q, step):
    # the segmented sieve against sympy's factorization, q by q
    want = [(q,) + odd_prime_power(q) for q in range(first, max_q + 1, step)
            if odd_prime_power(q) is not None]
    assert list(iter_odd_prime_powers(first, max_q, step)) == want


def test_first_hit_streams_before_the_range_is_enumerated(monkeypatch):
    screened = []
    screen = diffset._search_one

    def record(candidate):
        screened.append(candidate[0])
        return screen(candidate)

    monkeypatch.setattr(diffset, "_search_one", record)
    hits = iter_search(4, SEARCH_MAX_Q)
    assert screened == []
    assert next(hits).q == 37
    assert screened == [5, 37]  # 21 is no prime power
    hits.close()


def test_iter_search_checks_arguments_when_called():
    with pytest.raises(EllOne):
        iter_search(1, 50)
    with pytest.raises(RangeTooLarge):
        iter_search(2, SEARCH_MAX_Q + 1)
    with pytest.raises(InvalidJobs):
        iter_search(2, 50, jobs=0)
    for ell in (0, -2):        # ell = 1 is the degenerate case, EllOne
        with pytest.raises(InvalidEll):
            iter_search(ell, 50)


def test_prefilter_rejects_only_non_hits():
    # every q the prefilter rejects fails Lehmer's criterion on the table
    fields = {}
    for ell in range(2, 13, 2):
        for q in range(ell + 1, 3001, ell):
            pn = odd_prime_power(q)
            if pn is None or passes_prefilter(q, ell):
                continue
            if q not in fields:
                fields[q] = build_field(*pn)
            assert not is_diffset_lehmer(CycloCtx(fields[q], ell)), (q, ell)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 999982), st.integers(1, 10 ** 7))
def test_self_conjugacy_is_even_order(w, r):
    from sympy import n_order, nextprime

    w = nextprime(w)                     # an odd prime below 10^6
    if r % w == 0:
        assert not is_self_conjugate(r, w)
    else:
        assert is_self_conjugate(r, w) == (n_order(r, w) % 2 == 0)
    assert is_self_conjugate(w - 1, w) and not is_self_conjugate(1, w)


def test_mann_keeps_every_classical_hit():
    from sympy import isprime, primerange

    paley = [q for q in primerange(3, 10 ** 6) if q % 4 == 3]
    assert len(paley) == 39322
    assert all(passes_mann(q, q, 2) for q in paley)
    chowla = [4 * t * t + 1 for t in range(1, 1582, 2)
              if isprime(4 * t * t + 1)]
    assert chowla[:3] == [5, 37, 101] and chowla[-1] < 10 ** 7
    assert all(passes_mann(q, q, 4) for q in chowla)
    # Lehmer's octic sets: q = 8a^2 + 1 = 64b^2 + 9 with a, b odd
    octic = [q for q in (8 * a * a + 1 for a in range(1, 1119, 2))
             if isprime(q) and math.isqrt((q - 9) // 64) % 2 == 1
             and 64 * math.isqrt((q - 9) // 64) ** 2 + 9 == q]
    assert octic == [73]
    assert all(passes_mann(q, q, 8) for q in octic)


def test_mann_never_rejects_a_prime_when_ell_minus_one_is_a_square():
    # the derivation in passes_mann's docstring: ell = s^2 + 1, s odd
    from sympy import isprime

    for ell in (2, 10, 26, 50, 82):
        primes = [q for q in range(ell + 1, 2 * 10 ** 5 + 1, ell * ell)
                  if isprime(q)]
        assert primes and all(passes_prefilter(q, ell) for q in primes)
        assert all(passes_mann(q, q, ell) for q in primes), ell


def test_mann_rejects_primes_at_ell_six():
    # ell - 1 = 5 is no square, and Mann rules out prime candidates
    from sympy import isprime

    primes = [q for q in range(7, 2 * 10 ** 4, 36) if isprime(q)]
    rejected = [q for q in primes if not passes_mann(q, q, 6)]
    assert 0 < len(rejected) < len(primes)
    for q in rejected[:5]:
        assert lehmer_screen(build_field(q), 6) is None, q


def test_prefilter_and_mann_refuse_bad_arguments():
    # ell = 0 raised ZeroDivisionError, and passes_prefilter(5.0, 2)
    # answered; numpy ints still index like ints
    for ell in (0, -4):
        with pytest.raises(InvalidEll):
            passes_prefilter(5, ell)
        with pytest.raises(InvalidEll):
            passes_mann(37, 37, ell)
    for args in ((5.0, 2), (5, 2.0)):
        with pytest.raises(TypeError):
            passes_prefilter(*args)
    for args in ((37.0, 37, 4), (37, 37.0, 4), (37, 37, 4.0)):
        with pytest.raises(TypeError):
            passes_mann(*args)
    assert passes_prefilter(np.int64(37), np.int64(4))
    assert passes_mann(np.int64(37), np.int64(37), np.int64(4))


def test_lehmer_screen_refuses_an_ell_off_q_minus_one():
    field = build_field(23)
    for ell in (0, 4, 5, -2):
        with pytest.raises(InvalidEll):
            lehmer_screen(field, ell)
        with pytest.raises(InvalidEll):
            diffset._difference_counts_by_class(field, ell)


def test_mann_rejects_only_failed_screens():
    # below 3 10^4, every candidate Mann rejects fails the count screen
    rejected = {2: [], 4: [], 8: []}
    for ell, out in rejected.items():
        for q, p, n in iter_odd_prime_powers(ell + 1, 3 * 10 ** 4, ell * ell):
            if not passes_mann(q, p, ell):
                out.append(q)
                assert lehmer_screen(build_field(p, n), ell) is None, (q, ell)
    # of 1643, 410 and 114 candidates; extension fields among them
    assert [len(out) for out in rejected.values()] == [0, 291, 94]
    assert {2197, 3125, 24389} <= set(rejected[4])
    assert {3721, 15625, 24649, 26569} <= set(rejected[8])


def test_worker_count_clamps_without_spawning(monkeypatch):
    monkeypatch.setattr(diffset.os, "cpu_count", lambda: 2)
    assert [worker_count(j) for j in (1, 2, 64)] == [1, 2, 2]
    monkeypatch.setattr(diffset.os, "cpu_count", lambda: None)
    assert worker_count(8) == 1
    for jobs in (0, -3):
        with pytest.raises(InvalidJobs):
            worker_count(jobs)
    with pytest.raises(InvalidJobs):
        search(2, 50, jobs=0)
    # a non-integral count raises at the call, before any pool exists
    with pytest.raises(TypeError):
        worker_count(1.5)
    with pytest.raises(TypeError):
        iter_search(2, 50, jobs=1.5)
    assert worker_count(np.int64(2)) == 1
    assert [r.q for r in iter_search(2, 50, jobs=np.int64(1))] == [
        r.q for r in iter_search(2, 50)]


def test_large_quadratic_residue_parameters():
    # (q, k, lambda) = (127, 63, 31) and (8191, 4095, 2047) at ell = 2
    for q, lam in ((127, 31), (8191, 2047)):
        ctx = CycloCtx(build_field(q), 2)
        rep = build_report(ctx)
        assert rep.is_difference_set and rep.lam == lam
        assert rep.certificates_pass
        assert build_matrices(ctx).A.det() == -lam
    # lambda = 31 = 1 + 2 + 4 + 8 + 16 is a geometric sum of even length
    res = check_schoenberg_condition(CycloCtx(build_field(127), 2))
    by = {c.name: c for c in res.checks}
    assert not by["geometric_lambda_clause"].skipped
    assert res.passed


def test_build_report_builds_hit_inputs_once(cyclo, monkeypatch):
    ctx = cyclo(73, 1, 8)
    standalone = [op(ctx).to_obj() for op in (
        verify_gram_identities, verify_spectral, verify_determinants,
        verify_congruences, check_schoenberg_condition)]
    calls = {"matrices": 0, "lehmer": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diffset, "build_matrices",
                        counted("matrices", diffset.build_matrices))
    monkeypatch.setattr(diffset, "is_diffset_lehmer",
                        counted("lehmer", diffset.is_diffset_lehmer))
    rep = build_report(ctx)
    assert calls == {"matrices": 1, "lehmer": 1}
    assert rep.certificates.to_obj() == [c for led in standalone for c in led]
    build_report(cyclo(131, 1, 10))
    assert calls == {"matrices": 1, "lehmer": 2}


def test_bruteforce_counts_through_the_early_exit_screen(monkeypatch):
    # diffset counts no class when ell does not divide k - 1, stops at the
    # first class off lambda, and counts every class of a hit
    calls = []
    shifted = FieldCtx.shifted

    def counted(self, arr, z):
        calls.append(z)
        return shifted(self, arr, z)

    monkeypatch.setattr(FieldCtx, "shifted", counted)
    for p, want in ((13, 0), (53, 1), (37, 4)):
        calls.clear()
        out = io.StringIO()
        assert main(["diffset", "--p", str(p), "--ell", "4"], out=out,
                    err=io.StringIO()) == 0
        assert len(calls) == want, p
        assert json.loads(out.getvalue())["verdicts"]["bruteforce"] \
            == (p == 37)

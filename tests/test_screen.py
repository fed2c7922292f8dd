"""The search screen on K alone, the one class-count route it shares with
the bruteforce and modified detectors, and the classes built from K's
cosets."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclomat import CycloCtx, build_field
from cyclomat import diffset, iter_search, search
from cyclomat import field as field_module
from cyclomat.diffset import (
    SEARCH_MAX_Q,
    _difference_counts_by_class,
    is_diffset_lehmer,
    lehmer_screen,
)
from cyclomat.field import is_prime, power_digits
from cyclomat.schur import verify_structure_constants

from conftest import field_of, odd_prime_power
from group_ring import difference_counts_literal
from oracles import field_product, power_table

# (p, n) with q <= 2000, prime and extension fields
SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (37, 1), (73, 1), (101, 1),
                (241, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                (7, 2), (7, 3), (11, 2), (13, 2), (29, 2), (41, 2), (11, 3)]


def test_screen_matches_lehmer_on_full_context():
    # every prime power q <= 3000 and every even ell | q - 1 up to 12,
    # including extension fields and the trivial subgroup k = 1
    seen = {"ext": 0, "k1": 0, "hit": 0}
    for q in range(3, 3001):
        pn = odd_prime_power(q)
        if pn is None:
            continue
        field = build_field(*pn)
        for ell in range(2, 13, 2):
            if (q - 1) % ell:
                continue
            counts = lehmer_screen(field, ell)
            ctx = CycloCtx(field, ell)
            assert (counts is not None) == is_diffset_lehmer(ctx), (q, ell)
            if counts is not None:
                assert counts == [ctx.table[0][0]] * ell
                seen["hit"] += 1
            seen["ext"] += pn[1] > 1
            seen["k1"] += ctx.k == 1
    assert all(seen.values()), seen


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_counts_match_literal_and_table(data):
    p, n = data.draw(st.sampled_from(SMALL_FIELDS))
    field = field_of(p, n)
    q = field.q
    ell = data.draw(st.sampled_from([d for d in range(1, q) if (q - 1) % d == 0]))
    ctx = CycloCtx(field, ell)
    # K: the count of z = g^i equals the literal pair count at every g^e, e = i
    literal = difference_counts_literal(field, ell)
    by_class = _difference_counts_by_class(field, ell)
    assert len(by_class) == ell
    pows = power_table(field)[0]
    for e in range(q - 1):
        assert literal[int(pows[e])] == by_class[e % ell]
    # K ∪ {0}: the table's modified criterion counts
    crit = [ctx.table[i][0] + (i == 0) + (i == ctx.qprime) for i in range(ell)]
    assert _difference_counts_by_class(field, ell, with_zero=True) == crit


@st.composite
def _field_and_ell(draw):
    """(p, n, ell): a random small prime field or a listed extension field,
    and any ell >= 2 dividing q - 1."""
    p, n = draw(st.one_of(
        st.integers(3, 1500).filter(is_prime).map(lambda p: (p, 1)),
        st.sampled_from([f for f in SMALL_FIELDS if f[1] > 1])))
    q = p ** n
    ell = draw(st.sampled_from([d for d in range(2, q) if (q - 1) % d == 0]))
    return p, n, ell


@settings(max_examples=80, deadline=None)
@given(_field_and_ell())
@example((79, 1, 6))  # class 0 counts lambda = 2, the counts are not constant
@example((73, 1, 8))  # a hit
def test_screen_agrees_with_full_count_route(case):
    p, n, ell = case
    field = field_of(p, n)
    k = (field.q - 1) // ell
    full = _difference_counts_by_class(field, ell)
    assert sum(full) == k - 1
    hit = k > 1 and len(set(full)) == 1
    assert lehmer_screen(field, ell) == (full if hit else None)
    if (k - 1) % ell == 0:
        # the early stop keeps the counts up to the first one off lambda
        lam = (k - 1) // ell
        stop = next((i for i, c in enumerate(full) if c != lam), ell - 1)
        assert _difference_counts_by_class(field, ell, lam=lam) == \
            full[:stop + 1]


def _power_digits_rebuilt(field, h, m, block=None):
    # the doubling kernel with its step matrix rebuilt from h^s at each step
    p, n = field.p, field.n
    digits = np.empty((n, m), dtype=np.int64)
    s = 1 if block is None else block.shape[1]
    digits[:, :s] = np.eye(n, 1, dtype=np.int64) if block is None else block
    while s < m:
        e = min(s, m - s)
        mat = np.array([field.decode(field_product(field, h, p ** i))
                        for i in range(n)], dtype=np.int64).T
        digits[:, s:s + e] = mat @ digits[:, :e] % p
        s, h = s + e, field_product(field, h, h)
    return digits


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_power_digits_of_any_element(data):
    p, n = data.draw(st.sampled_from(SMALL_FIELDS))
    field = field_of(p, n)
    h = data.draw(st.integers(1, field.q - 1))
    m = data.draw(st.integers(1, 2 * field.q))
    ref = [1]
    for _ in range(m - 1):
        ref.append(field_product(field, ref[-1], h))
    digits = power_digits(field, h, m)
    assert digits.shape == (n, m)
    assert field.encode_array(digits).tolist() == ref
    assert [field.decode(v) for v in ref] == [tuple(c) for c in digits.T]
    # the squared step matrix is bit-identical to one rebuilt at each step
    rebuilt = _power_digits_rebuilt(field, h, m)
    assert rebuilt.dtype == digits.dtype and np.array_equal(rebuilt, digits)
    # a block of the first w powers, stepped by h^w, gives the same columns
    w = data.draw(st.integers(1, m))
    hw = field.pow_idx(h, w)
    block = power_digits(field, hw, m, block=digits[:, :w])
    assert np.array_equal(block, digits)
    assert np.array_equal(_power_digits_rebuilt(field, hw, m,
                                                block=digits[:, :w]), digits)


def test_search_reuses_screen_counts(monkeypatch):
    calls = []
    original = diffset._difference_counts_by_class

    def counted(field, ell, with_zero=False, lam=None):
        calls.append(field.q)
        return original(field, ell, with_zero, lam)

    monkeypatch.setattr(diffset, "_difference_counts_by_class", counted)
    reports = search(4, 400)
    assert [r.q for r in reports] == [37, 101, 197]
    assert all(r.verdicts == {"bruteforce": True, "lehmer": True,
                              "sumsq": True, "gram": True} for r in reports)
    # one count per candidate q = 5 (mod 16), the screen's, reused by the
    # bruteforce detector; q = 5 (k = 1) is rejected before any count, and
    # Mann's test drops 53, 149, 181, 277, 293 and 373 before their fields
    assert calls == [37, 101, 197, 229, 389]


@st.composite
def _field_and_any_ell(draw):
    """(p, n, ell): a random small prime or extension field and any ell >= 1
    dividing q - 1."""
    p, n = draw(st.one_of(
        st.integers(3, 1500).filter(is_prime).map(lambda p: (p, 1)),
        st.sampled_from([f for f in SMALL_FIELDS if f[1] > 1])))
    q = p ** n
    return p, n, draw(st.sampled_from([d for d in range(1, q)
                                       if (q - 1) % d == 0]))


@settings(max_examples=80, deadline=None)
@given(_field_and_any_ell())
@example((3, 1, 1))     # p = 3, ell = 1: one class
@example((3, 1, 2))     # p = 3, ell = q - 1
@example((3, 4, 80))    # p = 3 extension, ell = q - 1: one element per class
@example((13, 2, 1))    # extension, ell = 1
@example((1009, 1, 1008))
def test_classes_from_cosets_match_dlog(case):
    # the production classes (K's digits carried to each coset by doubling,
    # then one scatter) against the discrete-log table of repeated
    # multiplication, the oracle route
    p, n, ell = case
    field = build_field(p, n)
    ctx = CycloCtx(field, ell)
    assert ctx.classes.shape == (field.q,) and ctx.classes.dtype == np.int64
    assert ctx.classes[0] == 0
    assert (ctx.classes[1:] == power_table(field)[1][1:] % ell).all()


def test_classes_and_subgroup_digits_are_read_only():
    field = build_field(7, 3)
    ctx = CycloCtx(field, 6)
    k_digits = field.subgroup_digits(6)
    assert field.subgroup_digits(6) is k_digits      # memoised per ell
    assert k_digits.shape == (3, 57)
    for arr in (ctx.classes, k_digits):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[..., 1] = 0
    classes, digits = ctx.classes.copy(), k_digits.copy()
    assert verify_structure_constants(ctx).passed
    assert lehmer_screen(field, 6) is None
    _difference_counts_by_class(field, 6, with_zero=True)
    assert (ctx.classes == classes).all() and (k_digits == digits).all()


def test_parallel_search_streams_first_hit(monkeypatch):
    # a bounded window of chunks: the first hit arrives after a few chunks
    # of candidates are drawn, not after the whole range up to 10^7; the
    # chunks hold the prime powers that pass Mann's test
    drawn = []
    powers = diffset.iter_odd_prime_powers

    def counted(*args):
        for candidate in powers(*args):
            drawn.append(candidate)
            yield candidate

    monkeypatch.setattr(diffset, "iter_odd_prime_powers", counted)
    start = time.perf_counter()
    hits = iter_search(4, SEARCH_MAX_Q, jobs=2)
    try:
        first = next(hits)
    except (OSError, PermissionError):
        pytest.skip("process pool unavailable in sandbox")
    finally:
        hits.close()              # cancels the chunks not yet started
    assert first.q == 37
    kept = [q for q, p, _ in drawn if diffset.passes_mann(q, p, 4)]
    assert kept[:2] == [5, 37] and len(kept) <= 8 * (2 * 2 + 1)
    assert time.perf_counter() - start < 60


# the largest prime p with (p - 1)^2 < 2^63, the int64 bound of FieldCtx
INT64_EDGE_P = 3037000493


def test_scalar_step_at_the_int64_edge(monkeypatch):
    # every product of the scalar step is near (p - 1)^2; an overflow would
    # wrap and break the agreement with Python's pow
    p = INT64_EDGE_P
    assert (p - 1) ** 2 < 2 ** 63 and not any(
        is_prime(m) for m in range(p + 1, math.isqrt(2 ** 63 - 1) + 2))
    field = build_field(p)
    for h in (p - 1, p - 2, 2 ** 31 + 11, field.generator_index):
        digits = power_digits(field, h, 300)
        assert digits[0].tolist() == [pow(h, j, p) for j in range(300)]
        block = np.array([[1, p - 1, p // 2 + 3]], dtype=np.int64)
        got = power_digits(field, h, 300, block=block)
        assert got[0].tolist() == [pow(h, j // 3, p) * int(block[0, j % 3])
                                   % p for j in range(300)]
    # p - 1 = 4 * 1543 * 492061, so K of order 1543 needs 12 KB, though the
    # guard, sized for a build over all of F_q, would refuse it
    ell = 4 * 492061
    monkeypatch.setattr(field_module, "TABLE_BUDGET_BYTES", 1 << 62)
    h = pow(field.generator_index, ell, p)
    assert field.subgroup_digits(ell)[0].tolist() == [
        pow(h, t, p) for t in range(1543)]


def test_prime_field_multiplies_by_a_scalar(monkeypatch):
    # a prime field builds no companion stack: its multiplication matrix is
    # the 1 x 1 scalar h mod p
    def refused(*args, **kwargs):
        raise AssertionError("companion matrix built for a prime field")

    monkeypatch.setattr(field_module, "_companion", refused)
    for p in (3, 101, 10007, INT64_EDGE_P):
        field = build_field(p)
        for h in (0, 1, 2, p - 1, p, 3 * p + 2, field.generator_index):
            mat = field.mul_matrix(h)
            assert mat.dtype == np.int64 and mat.tolist() == [[h % p]]
    with pytest.raises(AssertionError):
        build_field(3, 2)

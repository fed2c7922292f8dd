import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclomat import (
    CompositeP,
    ContextTooLarge,
    CycloCtx,
    EvenP,
    InvalidDegree,
    InvalidEll,
    NotAGenerator,
    OutOfDomain,
    ReducibleModulus,
    ZeroElement,
    build_field,
    factorize,
    find_irreducible,
    is_irreducible,
    is_prime,
)
from cyclomat import field as field_module
from cyclomat.cli import main as cli_main
from cyclomat.diffset import SEARCH_MAX_Q
from cyclomat.field import CONWAY_POLYNOMIALS, FieldCtx, power_digits

from conftest import field_of
from oracles import field_product, power_table


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for m in range(50):
        assert is_prime(m) == (m in primes)


def test_is_prime_larger():
    assert is_prime(104729)
    assert not is_prime(104729 * 104723)
    assert is_prime(2 ** 61 - 1)


# the least strong pseudoprimes to the first 4 and the first 12 prime bases
PSI_4 = 3215031751
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_strong_pseudoprimes():
    assert PSI_4 == 151 * 751 * 28351 and not is_prime(PSI_4)
    assert PSI_12 == 399165290221 * 798330580441 and not is_prime(PSI_12)


def test_is_prime_at_the_witness_tier_edge():
    import sympy

    for m in range(PSI_4 - 2000, PSI_4 + 2000):
        assert is_prime(m) == sympy.isprime(m), m


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, PSI_4 + 10 ** 6),
                 st.integers(2, PSI_13 - 1),
                 st.tuples(st.integers(2, 10 ** 12), st.integers(2, 10 ** 12))
                 .map(lambda ab: ab[0] * ab[1] + 1)))
def test_is_prime_matches_sympy(m):
    import sympy

    assert is_prime(m) == sympy.isprime(m)


def test_factorize():
    assert factorize(342) == [(2, 1), (3, 2), (19, 1)]
    assert factorize(130) == [(2, 1), (5, 1), (13, 1)]
    assert factorize(1) == []
    big = (2 ** 31 - 1) * (2 ** 19 - 1)
    assert factorize(big) == [(2 ** 19 - 1, 1), (2 ** 31 - 1, 1)]
    # below the domain: 0 used to divide by 2 forever, -5 to give [(5, 1)]
    for m in (0, -5):
        with pytest.raises(OutOfDomain):
            factorize(m)


def test_build_field_rejects_bad_p():
    with pytest.raises((EvenP, CompositeP)):
        build_field(4)
    with pytest.raises(EvenP):
        build_field(2)
    with pytest.raises(CompositeP):
        build_field(9)  # 9 = 3^2 must come in as (p=3, n=2)
    with pytest.raises(InvalidDegree):
        build_field(5, 0)


def test_prime_field_basics(fields):
    f = fields(131)
    assert f.q == 131
    assert f.generator_index == 2
    assert f.dlog_of(2) == 1
    assert f.dlog_of(1) == 0
    assert f.dlog_of(4) == 2
    with pytest.raises(ZeroElement):
        f.dlog_of(0)


def test_trivial_generator_cases():
    assert build_field(3).generator_index == 2
    # user override is order-verified
    f = build_field(73, generator=5)
    assert f.generator_index == 5
    with pytest.raises(NotAGenerator):
        build_field(73, generator=2)  # 2 has order 9 mod 73
    assert build_field(73, generator=11).generator_index == 11  # another one
    assert build_field(73).generator_index == 5


def test_default_generators_match_known_primitive_roots(fields):
    for p, g in ((37, 2), (101, 2), (197, 2), (73, 5), (131, 2), (7, 3)):
        assert fields(p).generator_index == g


def test_dlog_homomorphism(fields):
    rng = random.Random(7)
    for p, n in ((131, 1), (7, 3), (3, 4)):
        f = fields(p, n)
        m = f.q - 1
        for _ in range(60):
            a = rng.randrange(1, f.q)
            b = rng.randrange(1, f.q)
            ab = f.mul_idx(a, b)
            assert (f.dlog_of(a) + f.dlog_of(b)) % m == f.dlog_of(ab)


def test_dlog_round_trip(fields):
    for p, n in ((31, 1), (3, 3)):
        f = fields(p, n)
        for idx in range(1, f.q):
            assert f.pow_idx(f.generator_index, f.dlog_of(idx)) == idx


def test_conway_table_entries_are_irreducible_and_primitive():
    for (p, n), coeffs in CONWAY_POLYNOMIALS.items():
        assert is_irreducible(list(coeffs), p)
        f = build_field(p, n)
        assert f.modulus == coeffs
        # the class of x generates the multiplicative group
        assert f._has_full_order(p)


def test_extension_field_structure(fields):
    f = fields(7, 3)
    assert f.q == 343
    assert f.modulus == (4, 0, 6, 1)
    assert f.generator_index == 7  # the class of x
    x = 7
    assert f.pow_idx(x, 342) == 1
    assert f.mul_idx(x, f.pow_idx(x, -1)) == 1
    assert f.add_idx(x, f.neg_idx(x)) == 0
    assert f.sub_idx(x, x) == 0
    assert f.pow_idx(0, 0) == 1 and f.pow_idx(0, 5) == 0
    with pytest.raises(ZeroElement):
        f.pow_idx(0, -1)


def test_no_root_irreducibility_for_small_degrees():
    # degree 2 and 3: irreducible iff no root in F_p
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11])
        n = rng.choice([2, 3])
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        has_root = any(
            sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p == 0
            for a in range(p))
        assert is_irreducible(coeffs, p) == (not has_root)


@st.composite
def monic_polynomials(draw):
    # degree 1-12 over small p; degree 2-3 over p = 2^31 - 1, int64 at
    # n = 2 with n (p-1)^2 just below 2^63, and p = 4294967311, past int64
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 2 ** 31 - 1, 4294967311]))
    n = draw(st.integers(1, 12) if p < 100 else st.integers(2, 3))
    return p, draw(st.lists(st.integers(0, p - 1), min_size=n,
                            max_size=n)) + [1]


@settings(max_examples=300, deadline=None)
@example(case=(3, [2, 1, 0, 1, 1]))  # (x^2 + 1)(x^2 + x + 2): x^81 = x mod f
@example(case=(3, [1, 0, 2, 0, 1]))  # (x^2 + 1)^2, not squarefree
@example(case=(3, [2, 0, 0, 2, 1]))  # the Conway polynomial of F_81
@given(case=monic_polynomials())
def test_is_irreducible_matches_sympy(case):
    import sympy

    p, coeffs = case
    want = sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=p)
    assert is_irreducible(coeffs, p) == want.is_irreducible


def test_supplied_modulus_validation():
    with pytest.raises(ReducibleModulus):
        build_field(7, 3, modulus=[0, 0, 0, 1])  # x^3 is reducible
    with pytest.raises(ReducibleModulus):
        build_field(7, 3, modulus=[1, 1, 1])  # wrong degree
    f = build_field(7, 3, modulus=[4, 0, 6, 1])
    assert f.q == 343


def test_prime_field_checks_a_supplied_modulus():
    # n = 1 takes x when no modulus is given; a supplied one must be monic
    # of degree 1, and every such polynomial is irreducible
    for bad in ([1, 1, 1], [5], [3, 2]):
        with pytest.raises(ReducibleModulus):
            build_field(7, modulus=bad)
    assert build_field(7).modulus == (0, 1)
    f = build_field(7, modulus=[3, 1])
    assert f.modulus == (3, 1)
    assert [f.mul_idx(a, 5) for a in range(7)] == [5 * a % 7 for a in range(7)]
    assert f.generator_index == build_field(7).generator_index


def test_non_integral_arguments_raise():
    for call in (lambda: build_field(7.5), lambda: build_field(7, n=1.5),
                 lambda: build_field(7, generator=3.9),
                 lambda: CycloCtx(build_field(7), 2.5)):
        with pytest.raises(TypeError):
            call()
    # numpy integers are integers
    f = build_field(np.int64(7), n=np.int32(1), generator=np.int64(3))
    assert (f.q, f.generator_index) == (7, 3)
    assert CycloCtx(f, np.int64(2)).ell == 2


def test_modulus_search_and_disable():
    f = build_field(3, 5)  # not in the built-in table
    assert is_irreducible(list(f.modulus), 3)
    assert f.modulus == find_irreducible(3, 5)


def test_field_elem_arithmetic(fields):
    f = fields(131)
    a, b = 17, 100
    assert f.add_idx(a, b) == (17 + 100) % 131
    assert f.sub_idx(a, b) == (17 - 100) % 131
    assert f.neg_idx(a) == -17 % 131
    assert f.mul_idx(a, b) == 17 * 100 % 131
    assert f.pow_idx(a, 3) == pow(17, 3, 131)
    assert f.mul_idx(a, f.pow_idx(a, -1)) == 1
    assert f.pow_idx(0, 0) == 1 and f.pow_idx(0, 5) == 0
    with pytest.raises(ZeroElement):
        f.pow_idx(0, -1)


# (p, n) small enough for the repeated-multiplication reference
SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (131, 1), (2029, 1), (3, 2), (3, 3),
                (3, 4), (3, 5), (3, 6), (3, 7), (5, 2), (5, 3), (5, 4), (7, 2),
                (7, 3), (11, 2), (11, 3), (13, 2), (43, 2)]


def _next_irreducible(p, n, start):
    """The first monic irreducible of degree n at or after canonical index
    start of its low coefficients, wrapping around."""
    for i in range(p ** n):
        v = (start + i) % p ** n
        coeffs = [(v // p ** j) % p for j in range(n)] + [1]
        if is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible of degree %d over F_%d" % (n, p))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_table_matches_repeated_multiplication(data):
    # the doubling kernel, dlog_of, mul_idx and pow_idx against schoolbook
    # products and the generator's powers by repeated multiplication, for
    # random moduli and generator overrides
    p, n = data.draw(st.sampled_from(SMALL_FIELDS))
    modulus = None
    if n > 1 and data.draw(st.booleans()):
        modulus = _next_irreducible(p, n, data.draw(st.integers(0, p ** n - 1)))
    generator = None
    if data.draw(st.booleans()):
        probe = build_field(p, n, modulus=modulus)
        start = data.draw(st.integers(1, probe.q - 1))
        order = list(range(start, probe.q)) + list(range(1, start))
        generator = next(i for i in order if probe._has_full_order(i))
    f = build_field(p, n, modulus=modulus, generator=generator)
    g = f.generator_index
    if generator is not None:
        assert g == generator
    pows, dlog = power_table(f)
    assert f.encode_array(power_digits(f, g, f.q - 1)).tolist() == \
        pows.tolist()
    xs = data.draw(st.lists(st.integers(1, f.q - 1), max_size=40))
    assert [f.dlog_of(x) for x in xs] == [int(dlog[x]) for x in xs]
    elems = st.integers(0, f.q - 1)
    for a, b, e in data.draw(st.lists(st.tuples(
            elems, elems, st.integers(-2 * f.q, 2 * f.q)), max_size=20)):
        assert f.mul_idx(a, b) == field_product(f, a, b)
        if a:
            assert f.pow_idx(a, e) == pows[dlog[a] * e % (f.q - 1)]
        elif e >= 0:
            assert f.pow_idx(a, e) == (0 if e else 1)


def test_dlog_of_matches_power_table():
    # every nonzero x of every listed field, default modulus and generator
    for p, n in SMALL_FIELDS:
        f = field_of(p, n)
        dlog = power_table(f)[1]
        assert [f.dlog_of(x) for x in range(1, f.q)] == \
            dlog[1:].tolist(), (p, n)


@pytest.mark.parametrize("p", [1000000007, 2 ** 31 - 1])
def test_dlog_of_without_a_table(p):
    # q - 1 = 2 * 500000003 and 2 * 3^2 * 7 * 11 * 31 * 151 * 331: about
    # sqrt(r) steps for each prime r, where a table of q - 1 powers (24 GB
    # for p = 10^9 + 7) was refused
    f = build_field(p)
    rng = random.Random(p)
    xs = [1, p - 1, f.generator_index] + [rng.randrange(1, p)
                                          for _ in range(5)]
    tracemalloc.start()
    try:
        es = [f.dlog_of(x) for x in xs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert es[:3] == [0, (p - 1) // 2, 1]
    for x, e in zip(xs, es):
        assert 0 <= e < p - 1 and f.pow_idx(f.generator_index, e) == x


@st.composite
def _field_and_shift(draw):
    """(p, n, z): a random prime field or an extension field with n <= 5,
    and any canonical index z, zero included."""
    p, n = draw(st.one_of(
        st.integers(3, 2000).filter(is_prime).map(lambda p: (p, 1)),
        st.sampled_from([(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                         (5, 4), (5, 5), (7, 2), (7, 3), (11, 2), (11, 3),
                         (13, 2), (13, 3), (37, 2)])))
    return p, n, draw(st.integers(0, p ** n - 1))


@settings(max_examples=80, deadline=None)
@given(_field_and_shift(), st.integers(0, 2 ** 32 - 1))
@example((3, 5, 0), 0)
@example((5, 5, 3124), 1)
@example((7, 1, 0), 2)
def test_shifted_matches_add_idx(case, seed):
    # add_idx, digit by digit in Python, is the oracle for the array shift
    p, n, z = case
    field = field_of(p, n)
    arr = np.random.default_rng(seed).integers(0, 2 ** 40, field.q)
    before = arr.copy()
    got = field.shifted(arr, z)
    assert got.shape == arr.shape and got.dtype == arr.dtype
    assert not np.shares_memory(got, arr)     # callers write into it
    assert got.tolist() == [int(arr[field.add_idx(x, z)])
                            for x in range(field.q)]
    assert np.array_equal(arr, before)


def test_int64_table_bound_guard():
    # 3037000507 is the first prime above sqrt(2^63), so (p-1)^2 >= 2^63;
    # the guard fires before q - 1 is factorized or any table allocated
    with pytest.raises(ContextTooLarge):
        build_field(3037000507)
    with pytest.raises(ContextTooLarge):
        build_field(3, 40)  # 3^40 > 2^63
    with pytest.raises(ContextTooLarge):
        build_field(3, 10 ** 12)  # refused without evaluating 3^(10^12)


def test_table_budget_guard(monkeypatch):
    # K's digits and the classes are each guarded at 8 (n + 2) q bytes, a
    # build over all of F_q: refused one byte past the budget, admitted at it
    for p, n, ell in ((10007, 1, 2), (7, 3, 6)):
        need = 8 * (n + 2) * p ** n
        monkeypatch.setattr(field_module, "TABLE_BUDGET_BYTES", need - 1)
        f = build_field(p, n)
        with pytest.raises(ContextTooLarge):
            f.subgroup_digits(ell)
        monkeypatch.setattr(field_module, "TABLE_BUDGET_BYTES", need)
        assert f.subgroup_digits(ell).shape == (n, (f.q - 1) // ell)
        monkeypatch.setattr(field_module, "TABLE_BUDGET_BYTES", need - 1)
        with pytest.raises(ContextTooLarge):
            CycloCtx(f, ell)
        monkeypatch.setattr(field_module, "TABLE_BUDGET_BYTES", need)
        assert CycloCtx(f, ell).classes.shape == (f.q,)
    monkeypatch.undo()
    # the budget admits every odd prime power q <= SEARCH_MAX_Q
    worst = 8 * 3 * SEARCH_MAX_Q
    for p in range(3, 3163, 2):
        if is_prime(p):
            n = 2
            while p ** n <= SEARCH_MAX_Q:
                worst = max(worst, 8 * (n + 2) * p ** n)
                n += 1
    assert worst <= field_module.TABLE_BUDGET_BYTES


def test_table_budget_refuses_without_allocating():
    # p near 10^9 would need 24 GB for K's digits: refused before any
    # allocation, and the command line reports it as a usage error (exit 1)
    tracemalloc.start()
    try:
        f = build_field(1000000007)
        with pytest.raises(ContextTooLarge):
            f.subgroup_digits(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(["diffset", "--p", "1000000007", "--ell", "2"],
                    out=out, err=err)
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("cyclo: error: ContextTooLarge: ")


# Default generators of 20 fields as chosen by the scan over every index
# from 2; starting an extension field's scan at p must not move any of them.
DEFAULT_GENERATORS = {
    (3, 1): 2, (5, 1): 2, (7, 1): 3, (73, 1): 5, (131, 1): 2, (10007, 1): 5,
    (100801, 1): 11, (9999991, 1): 22, (3, 2): 3, (3, 4): 3, (3, 5): 3,
    (3, 10): 34, (5, 3): 5, (5, 6): 5, (7, 3): 7, (7, 7): 14, (11, 2): 11,
    (13, 3): 15, (29, 3): 30, (1009, 2): 1018,
}


def test_default_generators_unchanged():
    for (p, n), g in DEFAULT_GENERATORS.items():
        assert build_field(p, n).generator_index == g, (p, n)


def test_generator_scan_skips_prime_subfield(monkeypatch):
    tested = []
    order_test = FieldCtx._has_full_order

    def record(self, idx):
        tested.append(idx)
        return order_test(self, idx)

    monkeypatch.setattr(FieldCtx, "_has_full_order", record)
    assert build_field(1009, 2).generator_index == 1018
    assert tested == list(range(1009, 1019))
    tested.clear()
    assert build_field(131).generator_index == 2
    assert tested == [2]


def test_dlog_and_powers_refuse_non_integral_arguments(fields):
    # a float was truncated (dlog_of(2.5) read as dlog_of(2)); numpy ints
    # still index like ints
    for f in (fields(7), fields(3, 2)):
        g = f.generator_index
        assert f.dlog_of(np.int64(g)) == 1
        assert f.pow_idx(g, np.int64(2)) == f.mul_idx(g, g)
        for x in (2.5, 4.9, np.float64(2.0)):
            with pytest.raises(TypeError):
                f.dlog_of(x)
        with pytest.raises(TypeError):
            f.pow_idx(4, 1.5)


def test_subgroup_digits_refuses_an_ell_off_q_minus_one():
    # 4 does not divide 22: the digits were five powers of an element of
    # order 11, [1, 4, 16, 18, 3], which form no subgroup
    f = build_field(23)
    for ell in (4, 5, 23, 44):
        with pytest.raises(InvalidEll):
            f.subgroup_digits(ell)
    for ell in (0, -2):        # ell = 0 raised ZeroDivisionError
        with pytest.raises(InvalidEll):
            f.subgroup_digits(ell)
    with pytest.raises(TypeError):
        f.subgroup_digits(2.0)
    assert f.encode_array(f.subgroup_digits(np.int64(2))).tolist() == [
        pow(f.generator_index, 2 * t, 23) for t in range(11)]
    assert f.subgroup_order(11) == 2 and f.subgroup_order(22) == 1


def test_number_theory_helpers_refuse_non_integral_arguments():
    # is_prime(7.0) said True and factorize(12.0) factored; numpy ints
    # still index like ints
    for m in (7.0, 2.5, np.float64(7.0)):
        with pytest.raises(TypeError):
            is_prime(m)
        with pytest.raises(TypeError):
            factorize(m)
    assert is_prime(np.int64(7)) and not is_prime(np.int64(9))
    assert factorize(np.int64(12)) == [(2, 2), (3, 1)]

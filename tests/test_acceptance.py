"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured runtime."""

import io
import math
import time

from cyclomat import (
    CycloCtx,
    IntMatrix,
    IntPoly,
    build_field,
    build_matrices,
    build_report,
    is_diffset_bruteforce,
    is_diffset_gram,
    is_diffset_lehmer,
    is_diffset_sumsq,
    modified_diffset,
    run_identity_suite,
)
from cyclomat.cli import main as cli_main
from cyclomat.diffset import _difference_counts_by_class

import reference_data as ref
from conftest import context_of, field_of, odd_prime_power
from group_ring import difference_counts_literal
from oracles import power_table, table_by_set_enumeration


def _report(name, ok, elapsed=None):
    stamp = "" if elapsed is None else " (%.2fs)" % elapsed
    print("ACCEPTANCE %s: %s%s" % (name, "PASS" if ok else "FAIL", stamp))
    assert ok, name


def _sieve(n):
    flags = bytearray([1]) * n
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if flags[i]]


def test_criterion_1_matrix_reproduction():
    cases = [
        ((7, 3, 6), ref.A_343_L6),
        ((131, 1, 10), ref.A_131_L10),
        ((37, 1, 4), ref.A_37_L4),
        ((101, 1, 4), ref.A_101_L4),
        ((197, 1, 4), ref.A_197_L4),
        ((73, 1, 8), ref.A_73_L8),
    ]
    worst = 0.0
    ok = True
    for (p, n, ell), expected in cases:
        t0 = time.monotonic()
        ctx = CycloCtx(build_field(p, n), ell)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = ok and ctx.table == expected and dt < 1.0
    _report("1 matrix reproduction", ok, worst)


def test_criterion_2_gram_reproduction():
    t0 = time.monotonic()
    ctx = context_of(131, 1, 10)
    a = IntMatrix(ctx.table)
    gram = a.transpose() * a
    ok = gram == IntMatrix(ref.GRAM_131_L10)
    ok = ok and gram.trace() == 261 == ctx.q + ctx.k * (ctx.k - 3)
    _report("2 gram reproduction", ok, time.monotonic() - t0)


def test_criterion_3_commutator():
    t0 = time.monotonic()
    a = IntMatrix(context_of(7, 3, 6).table)
    comm = a.transpose() * a - a * a.transpose()
    expected = IntMatrix.zeros(6)
    expected.rows[0][0] = -57
    expected.rows[3][3] = 57
    _report("3 commutator", comm == expected, time.monotonic() - t0)


def test_criterion_4_identity_battery():
    t0 = time.monotonic()
    ok = len(ref.BATTERY_CONTEXTS) >= 20
    ks = [(p ** n - 1) // ell for (p, n, ell) in ref.BATTERY_CONTEXTS]
    ok = ok and any(k % 2 == 0 for k in ks) and any(k % 2 == 1 for k in ks)
    ok = ok and any(n > 1 for (_, n, _) in ref.BATTERY_CONTEXTS)
    for (p, n, ell) in ref.BATTERY_CONTEXTS:
        ctx = context_of(p, n, ell)
        res = run_identity_suite(ctx)
        ok = ok and res.passed
    elapsed = time.monotonic() - t0
    _report("4 identity battery", ok and elapsed < 60.0, elapsed)


def test_criterion_5_detector_agreement_sweep():
    t0 = time.monotonic()
    primes = _sieve(10 ** 4)
    hits = {2: [], 4: [], 6: [], 8: [], 10: []}
    agree = True
    for q in primes:
        if q == 2:
            continue
        field = build_field(q)
        for ell in (2, 4, 6, 8, 10):
            if (q - 1) % ell:
                continue
            ctx = CycloCtx(field, ell)
            verdicts = {is_diffset_bruteforce(ctx)[0],
                        is_diffset_lehmer(ctx),
                        is_diffset_sumsq(ctx),
                        is_diffset_gram(ctx)}
            if len(verdicts) != 1:
                agree = False
            elif verdicts.pop():
                hits[ell].append(q)
    elapsed = time.monotonic() - t0
    # q = 3 is the trivial subgroup K = {1} (lambda would be 0) and is
    # excluded by every detector; all other primes = 3 (mod 4) must hit
    ok = agree
    ok = ok and hits[2] == [q for q in primes if q % 4 == 3 and q > 3]
    ok = ok and [q for q in hits[4] if q <= 200] == [37, 101, 197]
    ok = ok and [q for q in hits[8] if q <= 100] == [73]
    ok = ok and hits[6] == [] and hits[10] == []
    _report("5 detector agreement sweep", ok and elapsed < 300.0, elapsed)


def test_criterion_6_certificate_battery():
    t0 = time.monotonic()
    ok = True
    for p, ell in ((7, 2), (31, 2), (37, 4), (73, 8), (101, 4), (197, 4)):
        report = build_report(context_of(p, 1, ell))
        ok = ok and report.is_difference_set and report.certificates_pass
    dets73 = {c.name: c.detail
              for c in build_report(context_of(73, 1, 8)).certificates.checks
              if c.name.endswith("determinant")}
    ok = ok and dets73["cyclotomic_determinant"]["computed"] == -512
    ok = ok and dets73["minor_determinant"]["computed"] == -4096
    a37 = IntMatrix(context_of(37, 1, 4).table)
    ok = ok and a37.det() == -14
    ok = ok and a37.charpoly() == IntPoly(ref.CHARPOLY_A_37_L4)
    _report("6 certificate battery", ok, time.monotonic() - t0)


def test_criterion_7_spectral_display():
    t0 = time.monotonic()
    dm = build_matrices(context_of(73, 1, 8))
    roots_s = dm.S.charpoly().real_roots()
    expected_s = [(-2 * math.sqrt(2), 3), (2 * math.sqrt(2), 3), (8.0, 1)]
    ok = len(roots_s) == 3
    for (r, m), (er, em) in zip(roots_s, expected_s):
        ok = ok and m == em and abs(r - er) <= 1e-9
    roots_m = [r for r, _ in dm.M.charpoly().real_roots()]
    for target in ((9 - math.sqrt(77)) / 2, (9 + math.sqrt(77)) / 2):
        ok = ok and any(abs(r - target) <= 1e-9 for r in roots_m)
    _report("7 spectral display", ok, time.monotonic() - t0)


def test_criterion_8_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for (p, n, ell) in ref.SMALL_CONTEXTS:
        field = field_of(p, n)
        ctx = context_of(p, n, ell)
        # production tables vs literal set intersection
        ok = ok and ctx.table == table_by_set_enumeration(field, ell)
        if ell < 2:
            continue
        # class-based difference counting vs full pair enumeration
        literal = difference_counts_literal(field, ell)
        by_class = _difference_counts_by_class(field, ell)
        pows = power_table(field)[0]
        for i in range(ell):
            for e in range(i, p ** n - 1, ell):
                ok = ok and literal[int(pows[e])] == by_class[i]
        # modified counting vs the shifted-column criterion
        crit = [ctx.table[i][0] + (1 if i == 0 else 0)
                + (1 if i == ctx.qprime else 0) for i in range(ell)]
        ok = ok and _difference_counts_by_class(field, ell,
                                                with_zero=True) == crit
    # modified hits at ell = 2 are exactly q = 3 (mod 4)
    for q in range(3, 200, 2):
        pn = odd_prime_power(q)
        if pn is None:
            continue
        rep = modified_diffset(context_of(pn[0], pn[1], 2))
        ok = ok and rep.is_difference_set == (q % 4 == 3)
        ok = ok and rep.verdicts["bruteforce"] == rep.verdicts["lehmer_modified"]
    _report("8 oracle equivalence", ok, time.monotonic() - t0)


def test_criterion_9_determinism():
    t0 = time.monotonic()
    ok = True
    for argv in (["diffset", "--p", "73", "--ell", "8"],
                 ["verify", "--p", "7", "--n", "3", "--modulus", "4,0,6,1",
                  "--ell", "6", "--suite", "all", "--seed", "1"],
                 ["search", "--ell", "2", "--max-q", "100"]):
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            code = cli_main(list(argv), out=out, err=io.StringIO())
            outputs.append((code, out.getvalue().encode("utf-8")))
        ok = ok and outputs[0] == outputs[1] and outputs[0][0] == 0
    _report("9 determinism", ok, time.monotonic() - t0)

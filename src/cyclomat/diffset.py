"""Power-difference-set detection and certification.

K, the subgroup of ell-th powers, is a difference set when every nonzero
field element has the same number of representations as a difference of two
members.  Four detectors decide this:

  bruteforce -- count representations in the field by lehmer_screen: K's
                membership array ANDed with its additive shift by one coset
                representative per class, none unless ell | k - 1 and none
                past the first class off lambda;
  lehmer     -- the first column of the cyclotomic matrix is constant;
  sumsq      -- k odd and some column square-sum with index coprime to ell
                matches the half-shift column's;
  gram       -- k odd and diag(A^T A) has the shape (a, b, ..., b).

A difference set needs a positive lambda, so the trivial subgroup K = {1}
(k = 1, every count zero) is excluded by all detectors, mirroring the
exclusion of ell = 1.

The detectors are independent routes to the same verdict; a disagreement is
a build bug.  On a hit, the certificate operations verify every exact
consequence: the Gram closed forms, annihilating polynomials and spectra of
the symmetrized matrices, determinant formulas, residue classifications of
lambda, and the square/simplex embedding constraint.  K_0 = K ∪ {0}, of size
k0 = k + 1, has its own criterion and is certified by K's Gram closed forms
with A + I in place of A and n = k0 - lambda0 in place of k - lambda.

Range search takes its candidates q = ell + 1 (mod ell^2) from a segmented
sieve of that progression; Mann's test drops some before any field is built.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, fields

import numpy as np

from .cyclotomy import CycloCtx, build_matrices
from .errors import (
    EllOne,
    InternalError,
    InvalidEll,
    InvalidJobs,
    NotADifferenceSet,
    RangeTooLarge,
)
from .field import build_field, factorize
from .intmat import IntMatrix, IntPoly
from .report import VerifySuiteResult

SEARCH_MAX_Q = 10 ** 7
SPECTRUM_TOL = 1e-9
SIEVE_SEGMENT_CAP = 1 << 14     # terms of the search progression at a time


def _require_ell(ctx):
    if ctx.ell < 2:
        raise EllOne("difference-set layer excludes ell = 1")


def _positive_ell(ell):
    """ell as an int (TypeError when it is not integral); InvalidEll below 1."""
    ell = operator.index(ell)
    if ell < 1:
        raise InvalidEll("ell must be >= 1, got %d" % ell)
    return ell


# ----------------------------------------------------------------------
# detectors
# ----------------------------------------------------------------------

def _difference_counts_by_class(field, ell, with_zero=False, lam=None):
    """Representation counts of z = x - y over K x K (over K_0 x K_0 with
    with_zero), one representative z = g^i per class i < ell, in increasing
    i.  With ``lam``, counting stops after the first count that is not lam.

    Uses only membership in K = <g^ell> (from the digits shared with
    CycloCtx), never the dlog or the cyclotomic table: the count of z is
    K's membership array ANDed with its additive shift by z."""
    digits = field.subgroup_digits(ell)     # its budget guard runs first
    member = np.zeros(field.q, dtype=bool)
    member[field.encode_array(digits)] = True
    member[0] = with_zero
    counts, z = [], 1
    for _ in range(ell):
        both = field.shifted(member, z)
        both &= member      # in place: a second fresh array faults in pages
        counts.append(int(np.count_nonzero(both)))
        if lam is not None and counts[-1] != lam:
            break
        z = field.mul_idx(z, field.generator_index)
    return counts


def lehmer_screen(field, ell):
    """The in-field count route of search and is_diffset_bruteforce, for
    ell >= 2 dividing q - 1 (InvalidEll when ell does not): the class
    counts of K when they are constant and k > 1 (a hit), else None.

    Lehmer's necessary conditions, k > 1 and ell | k - 1, are its prefilter:
    the ell counts sum to k - 1, so constant counts all equal
    lambda = (k - 1) / ell.  Counting stops at the first class off lambda;
    no power, dlog or cyclotomic table is built."""
    k = field.subgroup_order(ell)
    if k == 1 or (k - 1) % ell:
        return None
    counts = _difference_counts_by_class(field, ell, lam=(k - 1) // ell)
    return counts if len(counts) == ell else None


def _hit_lambda(ctx, counts):
    """lambda when the class counts of K are one value and k > 1, else
    None.  A hit has lambda ell = k - 1, k odd and ell even; a hit without
    them is a build bug."""
    values = set(counts)
    if ctx.k == 1 or len(values) != 1:
        return None
    lam = values.pop()
    if lam * ctx.ell != ctx.k - 1 or ctx.k % 2 == 0 or ctx.ell % 2 == 1:
        raise InternalError("difference-set consequences failed; build bug")
    return lam


def is_diffset_bruteforce(ctx, counts=None):
    """(verdict, lambda) from the class counts of K taken in the field by
    lehmer_screen, which counts none unless ell | k - 1 and stops at the
    first class off lambda.  ``counts`` passes the class counts already
    taken for this field and ell; counts that are not constant give
    (False, None)."""
    _require_ell(ctx)
    if counts is None:
        counts = lehmer_screen(ctx.field, ctx.ell) or ()
    lam = _hit_lambda(ctx, counts)
    return lam is not None, lam


def is_diffset_lehmer(ctx):
    """Lehmer's criterion: the first column of A is constant (and k > 1)."""
    _require_ell(ctx)
    col0 = [ctx.table[i][0] for i in range(ctx.ell)]
    return _hit_lambda(ctx, col0) is not None


def _column_square_sums(ctx):
    ell = ctx.ell
    t = ctx.table
    return [sum(t[i][j] ** 2 for i in range(ell)) for j in range(ell)]


def is_diffset_sumsq(ctx):
    """k odd and some column square-sum with index coprime to ell equals the
    half-shift column's.  The Cauchy-Schwarz bounds that make this a
    criterion are asserted along the way."""
    _require_ell(ctx)
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    colsq = _column_square_sums(ctx)
    col0 = [ctx.table[i][0] for i in range(ell)]
    # lower bound ell * sum (i,0)^2 >= (k-1)^2, tight iff column 0 constant
    if ell * colsq[0] < (k - 1) ** 2:
        raise InternalError("square-sum lower bound failed; build bug")
    if (ell * colsq[0] == (k - 1) ** 2) != (len(set(col0)) == 1):
        raise InternalError("square-sum tightness mismatch; build bug")
    if k % 2 == 0 or k == 1:
        return False
    if any(colsq[j] > colsq[qp] for j in range(1, ell)):
        raise InternalError("half-shift column must dominate; build bug")
    return any(math.gcd(j, ell) == 1 and colsq[j] == colsq[qp]
               for j in range(1, ell))


def is_diffset_gram(ctx):
    """k odd (and > 1) and the Gram diagonal of A has the shape (a, b, ..., b)."""
    _require_ell(ctx)
    if ctx.k % 2 == 0 or ctx.k == 1:
        return False
    colsq = _column_square_sums(ctx)
    return len(set(colsq[1:])) == 1


def _require_hit(ctx):
    if not is_diffset_lehmer(ctx):
        raise NotADifferenceSet("K is not a difference set for q=%d, ell=%d"
                                % (ctx.q, ctx.ell))
    return (ctx.k - 1) // ctx.ell


def _hit_inputs(ctx, hit):
    """(lambda, DerivedMatrices) of a hit: ``hit`` itself when build_report
    passes the pair it built once, else after Lehmer's criterion."""
    return hit if hit is not None else (_require_hit(ctx), build_matrices(ctx))


# ----------------------------------------------------------------------
# certificates (difference set confirmed)
#
# Each takes the context and, optionally, the (lambda, DerivedMatrices)
# pair of a confirmed hit; called with the context alone it checks the hit
# itself and raises NotADifferenceSet off one.
# ----------------------------------------------------------------------

def _add_gram_laws(res, names, x, y, k, lam, n):
    """Record under ``names`` the two Gram laws of a hit:
    X^T X = lam k J + n I - k E_{0,0} and Y^T Y = lam (k - lam) J + n I.
    K takes (A, B, lambda, k - lambda); K_0 takes A + I, its (q', 0)-minor,
    lambda0 and k0 - lambda0."""
    for name, m, off, corner in ((names[0], x, lam * k, k),
                                 (names[1], y, lam * (k - lam), 0)):
        d = m.dim
        want = off * IntMatrix.ones(d) + n * IntMatrix.identity(d) \
            - corner * IntMatrix.elementary(d, 0, 0)
        got = m.transpose() * m
        res.add(name, got == want,
                detail=None if got == want else {"residual": got - want})


def verify_gram_identities(ctx, hit=None):
    """Exact Gram closed forms on a hit:
    A^T A = lambda k J + (k - lambda) I - k E_{0,0},
    B^T B = (k - lambda)(lambda J + I), and the first-row deviation sum
    sum_{j>=1} ((0,j) - lambda)^2 = k - 2 lambda."""
    lam, dm = _hit_inputs(ctx, hit)
    ell, k = ctx.ell, ctx.k
    res = VerifySuiteResult()
    _add_gram_laws(res, ("gram_closed_form", "minor_gram_closed_form"),
                   dm.A, dm.B, k, lam, k - lam)
    res.compare("first_row_deviation_sum",
                sum((ctx.table[0][j] - lam) ** 2 for j in range(1, ell)),
                k - 2 * lam)
    return res


def _spectrum_matches(roots, predicted, tol):
    got = sorted(r for r, m in roots for _ in range(m))
    want = sorted(r for r, m in predicted for _ in range(m))
    return (len(got) == len(want)
            and all(abs(a - b) <= tol for a, b in zip(got, want)))


def verify_spectral(ctx, hit=None):
    """Annihilating polynomials, traces, and numeric spectra of the
    symmetrized matrices M and S on a hit.

    Exact checks: (M^2 - kM + lambda I)(M^2 - (k-lambda) I) = 0,
    (S - (k-lambda) I)(S^2 - (k-lambda) I) = 0, tr(M) = k,
    tr(S) = k - lambda, and S^2 - (k-lambda) I has rank one.  Numeric
    spectra come from Sturm root isolation on the exact characteristic
    polynomials, compared at tolerance 1e-9 for display.
    """
    lam, dm = _hit_inputs(ctx, hit)
    ell, k = ctx.ell, ctx.k
    n = k - lam
    res = VerifySuiteResult()

    ann_m = IntPoly([lam, -k, 1]) * IntPoly([-n, 0, 1])
    ann_s = IntPoly([-n, 1]) * IntPoly([-n, 0, 1])
    res.add("symmetrized_annihilator", ann_m.at_matrix(dm.M).is_zero(),
            detail={"polynomial": ann_m})
    res.add("minor_annihilator", ann_s.at_matrix(dm.S).is_zero(),
            detail={"polynomial": ann_s})
    res.compare("symmetrized_trace", dm.M.trace(), k)
    res.compare("minor_trace", dm.S.trace(), n)
    rank = (dm.S * dm.S - n * IntMatrix.identity(ell - 1)).rank()
    res.add("rank_one_residual", rank == 1, detail={"rank": rank})

    half = ell // 2 - 1
    sq = math.sqrt(n)
    disc = math.sqrt(k * k - 4 * lam)
    pred_s = [(float(n), 1)]
    pred_m = [((k - disc) / 2, 1), ((k + disc) / 2, 1)]
    if half > 0:
        pred_s += [(sq, half), (-sq, half)]
        pred_m += [(sq, half), (-sq, half)]
    roots_s = dm.S.charpoly().real_roots()
    roots_m = dm.M.charpoly().real_roots()
    res.add("minor_spectrum_numeric",
            _spectrum_matches(roots_s, pred_s, SPECTRUM_TOL),
            params={"tolerance": SPECTRUM_TOL},
            detail={"roots": [[r, m] for r, m in roots_s]})
    res.add("symmetrized_spectrum_numeric",
            _spectrum_matches(roots_m, pred_m, SPECTRUM_TOL),
            params={"tolerance": SPECTRUM_TOL},
            detail={"roots": [[r, m] for r, m in roots_m]})
    return res


def verify_determinants(ctx, hit=None):
    """det(A) = -lambda (k-lambda)^(ell/2 - 1) and
    det(B) = (-1)^(ell/2 - 1) (k-lambda)^(ell/2), checked exactly."""
    lam, dm = _hit_inputs(ctx, hit)
    ell, k = ctx.ell, ctx.k
    n = k - lam
    res = VerifySuiteResult()
    pred_a = -lam * n ** (ell // 2 - 1)
    pred_b = (-1) ** (ell // 2 - 1) * n ** (ell // 2)
    det_a = dm.A.det()
    det_b = dm.B.det()
    res.add("cyclotomic_determinant", det_a == pred_a,
            detail={"predicted": pred_a, "computed": det_a})
    res.add("minor_determinant", det_b == pred_b,
            detail={"predicted": pred_b, "computed": det_b})
    return res


def verify_congruences(ctx, hit=None):
    """Residue classifications of lambda, k, q, and ell on a hit; clauses
    that do not apply to the context are reported as skipped."""
    lam = _require_hit(ctx) if hit is None else hit[0]
    ell, k, q = ctx.ell, ctx.k, ctx.q
    t = ctx.table
    res = VerifySuiteResult()

    if lam % 2 == 1:
        case_a = ell % 8 == 0 and q % 8 == 1 and k % 8 == 1
        case_b = ell % 8 == 2 and q % 8 == 7 and k % 8 == (2 * lam + 1) % 8
        res.add("odd_lambda_residues", case_a or case_b,
                params={"ell_mod_8": ell % 8, "q_mod_8": q % 8,
                        "k_mod_8": k % 8})
    else:
        res.skip("odd_lambda_residues", "lambda even")

    if ell % 4 == 2:
        res.add("lambda_parity", lam % 2 == ((k - 1) // 2) % 2,
                params={"lambda": lam, "k": k})
        if ell % 8 == 2:
            res.add("parity_vs_q_mod_8",
                    (lam % 2 == 1) == (q % 8 == 7),
                    params={"q_mod_8": q % 8, "lambda": lam})
        else:  # ell = 6 mod 8
            odd_even_col = any(t[0][j] % 2 == 1
                               for j in range(2, ell, 2))
            res.add("six_mod_eight_clause",
                    lam % 2 == 0 and k % 4 == 1 and q % 8 == 7
                    and odd_even_col,
                    params={"q_mod_8": q % 8, "k_mod_4": k % 4})
    else:
        res.skip("lambda_parity", "ell not 2 mod 4")

    if lam % 2 == 1 and ell % 8 == 0:
        res.add("odd_lambda_mod_four", lam % 4 == 1, params={"lambda": lam})
    else:
        res.skip("odd_lambda_mod_four", "needs odd lambda and 8 | ell")

    if lam == 1:
        res.first("unit_lambda_row_values", ("j", "value"), (
            (j, v) for j, v in enumerate(t[0]) if j and v not in (0, 2)))
    else:
        res.skip("unit_lambda_row_values", "lambda != 1")
    return res


def _sum_of_two_odd_squares(m):
    a = 1
    while a * a * 2 <= m:
        b2 = m - a * a
        b = math.isqrt(b2)
        if b % 2 == 1 and b * b == b2:
            return (a, b)
        a += 2
    return None


def _geometric_exponent(lam, ell):
    """e with lam = 1 + ell + ... + ell^e, or None."""
    s, e, term = 1, 0, 1
    while s < lam:
        term *= ell
        s += term
        e += 1
    return e if s == lam else None


def check_schoenberg_condition(ctx, hit=None):
    """Simplex-embedding constraints on ell when q - k is a perfect square,
    plus the geometric-lambda and lambda = 1 specializations."""
    lam = _require_hit(ctx) if hit is None else hit[0]
    ell, k, q = ctx.ell, ctx.k, ctx.q
    m = q - k
    root = math.isqrt(m)
    res = VerifySuiteResult()
    two_squares = _sum_of_two_odd_squares(ell)
    if root * root == m:
        ok = ell % 4 == 0 or two_squares is not None
        res.add("schoenberg_square_case", ok,
                params={"q_minus_k": m, "sqrt": root},
                detail={"ell_mod_4": ell % 4,
                        "two_odd_squares": list(two_squares) if two_squares
                        else None})
    else:
        res.skip("schoenberg_square_case",
                 "q - k = %d is not a perfect square" % m)

    e = _geometric_exponent(lam, ell)
    if e is not None and e % 2 == 0:
        ok = ell % 8 == 0 or two_squares is not None
        res.add("geometric_lambda_clause", ok,
                params={"exponent": e},
                detail={"two_odd_squares": list(two_squares) if two_squares
                        else None})
    else:
        res.skip("geometric_lambda_clause",
                 "lambda is not an even-length geometric sum")

    if lam == 1:
        ok = ell % 8 == 0 or two_squares is not None
        res.add("unit_lambda_embedding", ok)
    else:
        res.skip("unit_lambda_embedding", "lambda != 1")
    return res


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

_KEYS = {"lam": "lambda", "lam0": "lambda0"}     # lambda is a keyword
_OMITTED_WHILE_NONE = {"determinants", "spectra"}


@dataclass
class _Report:
    """The detectors' verdicts and the certificate ledger, for K or K_0.

    A subclass declares its other keys as fields: each field is the key of
    its own name, except lam and lam0, written "lambda" and "lambda0".
    determinants and spectra are left out while None; any other None field
    is null."""

    verdicts: dict
    certificates: VerifySuiteResult

    @property
    def is_difference_set(self):
        return all(self.verdicts.values())

    @property
    def certificates_pass(self):
        return self.certificates.passed

    def to_obj(self):
        """The report with exact values; dumps/jsonable make the JSON."""
        own = ((f.name, getattr(self, f.name))
               for f in fields(self)[2:])       # past verdicts, certificates
        return dict({_KEYS.get(name, name): v for name, v in own
                     if v is not None or name not in _OMITTED_WHILE_NONE},
                    verdicts=dict(self.verdicts),
                    is_difference_set=self.is_difference_set,
                    certificates=self.certificates.to_obj(),
                    certificates_pass=self.certificates_pass)


@dataclass
class DiffSetReport(_Report):
    """Verdicts of all four detectors plus the certificate ledger."""

    q: int
    p: int
    n: int
    ell: int
    k: int
    qprime: int
    generator: int
    lam: int | None
    determinants: dict | None
    spectra: dict | None
    congruences_pass: bool | None
    schoenberg_pass: bool | None
    q_is_prime: bool
    k_is_square: bool


@dataclass
class ModifiedDiffSetReport(_Report):
    """Verdicts and certificates for K_0 = K ∪ {0}."""

    q: int
    ell: int
    k0: int
    lam0: int | None


def modified_diffset(ctx):
    """Decide whether K_0 = K ∪ {0} is a difference set, cross-checking the
    cyclotomic criterion against direct counting, and verify the modified
    Gram identities on a hit."""
    _require_ell(ctx)
    field, ell, k, qp = ctx.field, ctx.ell, ctx.k, ctx.qprime
    k0 = k + 1
    t = ctx.table

    crit_counts = [t[i][0] + (i == 0) + (i == qp) for i in range(ell)]
    crit = len(set(crit_counts)) == 1
    bf_counts = _difference_counts_by_class(field, ell, with_zero=True)
    bf = len(set(bf_counts)) == 1
    if bf_counts != crit_counts:
        raise InternalError("modified counts disagree with the table; build bug")

    lam0 = None
    certs = VerifySuiteResult()
    if crit:
        lam0 = crit_counts[0]
        if lam0 * ell != k0 or k0 % 2 != 0 or ell % 2 != 0:
            raise InternalError("modified difference-set consequences failed")
        api = IntMatrix(t) + IntMatrix.identity(ell)
        _add_gram_laws(certs, ("modified_gram_closed_form",
                               "modified_minor_gram"),
                       api, api.minor(qp, 0), k, lam0, k0 - lam0)
    return ModifiedDiffSetReport(
        q=ctx.q, ell=ell, k0=k0, lam0=lam0,
        verdicts={"bruteforce": bf, "lehmer_modified": crit},
        certificates=certs)


def build_report(ctx, counts=None):
    """Run all four detectors and, on a hit, the full certificate battery.
    ``counts`` are lehmer_screen's class counts, reused by bruteforce."""
    _require_ell(ctx)
    bf, lam_bf = is_diffset_bruteforce(ctx, counts=counts)
    verdicts = {
        "bruteforce": bf,
        "lehmer": is_diffset_lehmer(ctx),
        "sumsq": is_diffset_sumsq(ctx),
        "gram": is_diffset_gram(ctx),
    }
    if len(set(verdicts.values())) != 1:
        raise InternalError("detectors disagree on q=%d ell=%d: %r"
                            % (ctx.q, ctx.ell, verdicts))
    lam = (ctx.k - 1) // ctx.ell if (ctx.k - 1) % ctx.ell == 0 else None
    certs = VerifySuiteResult()
    determinants = spectra = congruences_pass = schoenberg_pass = None
    if bf:
        if lam != lam_bf:
            raise InternalError("lambda mismatch between routes")
        # the detectors confirmed the hit: build its inputs once for all five
        hit = (lam, build_matrices(ctx))
        ledgers = [cert(ctx, hit) for cert in (
            verify_gram_identities, verify_spectral, verify_determinants,
            verify_congruences, check_schoenberg_condition)]
        for ledger in ledgers:
            certs.merge(ledger)
        _, spec, dets, congruences, schoenberg = ledgers
        congruences_pass = congruences.passed
        schoenberg_pass = schoenberg.passed
        determinants = {c.name: c.detail for c in dets.checks}
        spectra = {c.name: c.detail["roots"] for c in spec.checks
                   if c.detail and "roots" in c.detail}
    kroot = math.isqrt(ctx.k)
    return DiffSetReport(
        **ctx.meta(), lam=lam, verdicts=verdicts, certificates=certs,
        determinants=determinants, spectra=spectra,
        congruences_pass=congruences_pass, schoenberg_pass=schoenberg_pass,
        q_is_prime=ctx.field.n == 1, k_is_square=kroot * kroot == ctx.k)


# ----------------------------------------------------------------------
# range search
# ----------------------------------------------------------------------

def iter_odd_prime_powers(first, max_q, step):
    """(q, p, n) for each odd prime power q = p^n in
    range(first, max_q + 1, step), by a segmented sieve set up on the first
    step: the odd primes r <= sqrt(max_q), from one bytearray sieve, build
    the table of powers p^n <= max_q with n >= 2 and mark, in a segment
    starting at lo, the terms at i = -lo / step (mod r) (all or none when
    r | step) but never r itself, so an odd q >= 3 left unmarked is prime.
    Segments double from 64 terms to SIEVE_SEGMENT_CAP, so the first q
    comes out before the rest of the range is enumerated."""
    terms = range(first, max_q + 1, step)
    if (first | step) % 2 == 0:
        return                  # every term is even
    root = math.isqrt(max(max_q, 0))
    sieve = bytearray([1]) * (root + 1)
    for r in range(3, math.isqrt(root) + 1, 2):
        sieve[r * r::2 * r] = bytes(len(range(r * r, root + 1, 2 * r)))
    primes = [r for r in range(3, root + 1, 2) if sieve[r]]
    higher = {}
    for p in primes:
        pn, n = p * p, 2
        while pn <= max_q:
            higher[pn] = (p, n)
            pn, n = pn * p, n + 1
    at, size = 0, 64
    while at < len(terms):
        seg = terms[at:at + size]
        top, lo = max(seg[0], seg[-1]), seg[0]
        composite = bytearray(len(seg))
        for r in primes:
            if r * r > top:
                break
            if step % r:
                start, stride = -lo * pow(step, -1, r) % r, r
            elif lo % r == 0:
                start, stride = 0, 1
            else:
                continue
            composite[start::stride] = b"\1" * len(range(start, len(seg),
                                                         stride))
            if r in seg:
                composite[seg.index(r)] = 0
        for q, marked in zip(seg, composite):
            if q % 2 == 0 or q < 3:
                continue
            if not marked:
                yield q, q, 1
            elif q in higher:
                yield (q,) + higher[q]
        at += size
        size = min(2 * size, SIEVE_SEGMENT_CAP)


def _search_one(args):
    q, p, n, ell = args
    field = build_field(p, n)
    counts = lehmer_screen(field, ell)
    if counts is None:
        return None
    return build_report(CycloCtx(field, ell), counts=counts)


def passes_prefilter(q, ell):
    """Lehmer's necessary conditions for K to be a difference set: k odd and
    ell | k - 1, with k = (q - 1) / ell.  For even ell this is
    q = ell + 1 (mod ell^2); for odd ell no odd q passes.

    Search steps through exactly this class and then applies passes_mann,
    which needs the characteristic p of F_q as well as q, before it builds
    a field."""
    k, r = divmod(operator.index(q) - 1, _positive_ell(ell))
    return r == 0 and k % 2 == 1 and (k - 1) % ell == 0


def is_self_conjugate(r, w):
    """Whether r^j = -1 (mod w) for some j, for an odd prime w: exactly when
    r is a unit of even order mod w, as F_w^* is cyclic and -1 is its one
    element of order two.  With w - 1 = 2^s m and m odd, the order is even
    exactly when r^m != 1 (mod w): one pow."""
    m = (w - 1) // ((w - 1) & (1 - w))      # w - 1 over its power of two
    return r % w != 0 and pow(r, m, w) != 1


def passes_mann(q, p, ell):
    """Mann's self-conjugacy test for K in F_q, q = p^n, on a q that passes
    Lehmer's conditions: False when it proves K is no difference set.

    Theorem (Mann, Illinois J. Math. 8 (1964); Baumert, *Cyclic Difference
    Sets*, LNM 182 (1971); Lander, *Symmetric Designs: An Algebraic
    Approach* (1983), ch. 4).  Let D be an abelian (v, k, lambda)
    difference set with n = k - lambda, in a group of exponent v*.  Let r
    be a prime with r^j = -1 (mod v*) for some j.  Then the exact power of
    r that divides n is even.

    K lives in (F_q, +), elementary abelian of exponent v* = p: v* = q for
    a prime field and v* = p for an extension field.  So K is ruled out
    when some prime r divides n = k - (k - 1)/ell to an odd power and
    is_self_conjugate(r, p).  No field is needed: one factorization of n
    and one pow per odd-power prime factor.

    Mann never rejects a prime q at ell = 2, 10, 26, 50, ..., where ell - 1
    is an odd square s^2.  Here ell^2 n = (ell - 1) q + 1, and q = 1 + k ell
    = 3 (mod 4), as k is odd and ell = 2 (mod 4).  A prime r | n is not q,
    as ell^2 n = 1 (mod q).  For odd r, s^2 q = -1 (mod r) makes -q a
    square mod r, and quadratic reciprocity with q = 3 (mod 4) gives
    (r/q) = (-1/r)(q/r) = (-q/r) = 1.  For r = 2, 8 | ell^2 n and s^2 = 1
    (mod 8) give q = 7 (mod 8), so (2/q) = 1 by the supplementary law.  So
    r is a square mod q, of odd order dividing (q - 1)/2: never
    self-conjugate."""
    q, p, ell = operator.index(q), operator.index(p), _positive_ell(ell)
    k = (q - 1) // ell
    n = k - (k - 1) // ell
    return not any(e % 2 and is_self_conjugate(r, p) for r, e in factorize(n))


def worker_count(jobs):
    """Worker processes for a search with ``jobs`` requested: at least one
    is required, and more than the CPU count is clamped to it."""
    jobs = operator.index(jobs)
    if jobs < 1:
        raise InvalidJobs("jobs must be >= 1, got %d" % jobs)
    return min(jobs, os.cpu_count() or 1)


def iter_search(ell, max_q, min_q=3, prime_only=False, jobs=1):
    """Scan prime powers q in [min_q, max_q] for power difference sets and
    yield each hit's report in increasing q, as soon as it is certified.

    Bad arguments raise here, when iter_search is called.  Candidates then
    stream through the class passes_prefilter admits, q = ell + 1
    (mod ell^2) (none for odd ell), from the segmented sieve of
    iter_odd_prime_powers, so with one worker the first hit comes before
    the rest of the range is enumerated.  Mann's self-conjugacy test
    (passes_mann, with v* = p, the characteristic, for prime and extension
    fields alike) drops the q it proves are no difference set before any
    field is built or any worker sees them.  The fields of the rest build no
    table: lehmer_screen decides on K alone.  Only a hit gets a cyclotomic
    table and the full report (all four detectors and the certificate
    battery, recording whether q is prime and whether k is a perfect
    square)."""
    ell = _positive_ell(ell)
    max_q, min_q = map(operator.index, (max_q, min_q))
    if ell == 1:
        raise EllOne("search needs ell >= 2")
    if max_q > SEARCH_MAX_Q:
        raise RangeTooLarge("search bounded at q <= %d" % SEARCH_MAX_Q)
    workers = worker_count(jobs)
    step = ell * ell
    first = max(3, min_q)
    first += (ell + 1 - first) % step
    powers = iter_odd_prime_powers(first, max_q, step) if ell % 2 == 0 else ()
    candidates = ((q, p, n, ell) for q, p, n in powers
                  if (n == 1 or not prime_only) and passes_mann(q, p, ell))
    return _iter_hits(candidates, workers)


def _search_chunk(chunk):
    return [_search_one(c) for c in chunk]


def _iter_hits(candidates, workers):
    if workers == 1:
        yield from (r for r in map(_search_one, candidates) if r is not None)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from itertools import islice

    chunks = iter(lambda: list(islice(candidates, 8)), [])
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        # about two chunks per worker in flight; results leave in q order
        window = [pool.submit(_search_chunk, c)
                  for c in islice(chunks, 2 * workers)]
        while window:
            done = window.pop(0).result()
            window.extend(pool.submit(_search_chunk, c)
                          for c in islice(chunks, 1))
            yield from (r for r in done if r is not None)
    finally:  # a stream closed early drops the chunks not yet started
        pool.shutdown(cancel_futures=True)


def search(ell, max_q, min_q=3, prime_only=False, jobs=1):
    """The hits of iter_search as a list, sorted by q."""
    return list(iter_search(ell, max_q, min_q=min_q, prime_only=prime_only,
                            jobs=jobs))

"""The coset-sum algebra inside the integral group ring, and the matrix
identity layer it induces on shifted cyclotomic matrices.

For each class i, the coset sum alpha_i is the indicator sum of g^i K inside
Z[(F_q, +)].  Products of coset sums decompose over the class basis with the
cyclotomic numbers as structure constants; representing right multiplication
on the basis {1, alpha_0, ..., alpha_{ell-1}} turns each alpha_v into an
(ell+1) x (ell+1) integer matrix whose lower-right block is the shifted
matrix A_v.  Every verifier in this module checks one of the resulting exact
identities; on a valid context they are theorems, so a failure indicates a
broken build, and the verifiers report it in a ledger instead of raising.

Convention: the indicator delta(a, b) below is 1 when a = b (mod ell) and 0
otherwise, and scale factors of k are always written explicitly.  The
convolution oracle in verify_structure_constants confirms this normalization
against direct group-ring arithmetic.

Every identity indexed by a pair (u, v) is decided on its ell pairs
(u-v, 0).  For any table T, corrupted ones included, A_w[i, j] = T[i-w, j-w],
so A_u = P_v A_(u-v) P_v^T with P_v e_i = e_(i+v); and x -> g^(-v) x is an
automorphism of (F_q, +) sending alpha_j to alpha_(j-v).  So both sides of
each law at (u, v) are conjugates of its sides at (u-v, 0): by P_v for the
product, transposed-product and commutator laws, by diag(1, P_v) for the
regular representation, by the automorphism for the structure constants,
and a trace is invariant under conjugation.  (u, v) fails exactly when
(u-v, 0) does, and the first failing pair in row-major order is (0, v) for
the least v = -u mod ell over the failing u (_first_v).

Group-ring products use the characters of (F_q, +) = (Z/p)^n, on which a
class indicator lives once reshaped to (p,)*n.  The ell products
alpha_u alpha_0 are formed over slices of u (one rfftn and one inverse per
class), rounded; a residual of 1/4 or more raises InternalError.  Past
q = MAX_CONVOLUTION_Q or SPECTRA_BUDGET_BYTES of spectra live at once it
raises ContextTooLarge before allocating.

Matrix laws stack their sides at (u, 0) for all u at once, from S[u] = A_u.
With m the largest of k and |table entries|, no product, partial sum or
result exceeds (ell+2) ell (m+1)^2 (a trace adds ell^2 products of size
m^2).  Below 2^53 the arrays are float64, whose BLAS products are then exact
integers; past it they are Python ints (dtype=object).  tr(A^3) adds ell^2
terms of A^2 times A, each up to ell m^3, so its last sum runs on Python
ints.  The four-index
identity reads no ell^3 stack: (w-a, b-a) over w is column b-a of A cycled
down by a, window ell-a of that column of [A; A], so it takes O(ell^2 +
chunk ell) memory and runs past the tensor laws' refusal.
"""

from __future__ import annotations

import operator
import random

import numpy as np

from .cyclotomy import shifted_matrix, verify_elementary_laws
from .errors import ContextTooLarge, EllTooSmall, InternalError, KEven
from .intmat import IntMatrix
from .report import VerifySuiteResult

MAX_CONVOLUTION_Q = 10 ** 5
# Bytes of the class spectra live at once (K's, a slice's and its product
# with K's), and of the arrays a verifier works on at once (a slice of u, a
# chunk of quadruples, a u-block).
SPECTRA_BUDGET_BYTES = 1 << 28
ARRAY_BUDGET_BYTES = 1 << 26
EXHAUSTIVE_QUADRUPLE_LIMIT = 12
DEFAULT_SAMPLE_COUNT = 10 ** 4


def regular_rep(ctx, v):
    """The matrix of right multiplication by alpha_v on the basis
    {1, alpha_0, ..., alpha_{ell-1}}: A_v below a first row e_v and beside
    a first column k e_{v+q'}."""
    ell = ctx.ell
    v %= ell
    rows = [[0] * (ell + 1)] + [[0] + list(row)
                                for row in shifted_matrix(ctx, v).rows]
    rows[0][1 + v] = 1
    rows[1 + (v + ctx.qprime) % ell][0] = ctx.k
    return IntMatrix(rows)


# ----------------------------------------------------------------------
# group-ring level
# ----------------------------------------------------------------------

def _slice_width(ctx):
    """Classes per slice of _class_products: about eight (width, q) arrays
    of 8-byte words are live at once, within ARRAY_BUDGET_BYTES."""
    return min(ctx.ell, max(1, ARRAY_BUDGET_BYTES // (64 * ctx.q)))


def _convolution_refusal(ctx):
    """Why the group-ring convolution refuses ctx, or None: past q =
    MAX_CONVOLUTION_Q, or when the spectra live at once would take more than
    SPECTRA_BUDGET_BYTES.  Each spectrum is 8 (q + q/p) bytes; K's stays
    live, beside a slice's and their product, so 2 w + 1 of them for a
    slice of w classes."""
    if ctx.q > MAX_CONVOLUTION_Q:
        return "group-ring convolution guarded at q <= %d" % MAX_CONVOLUTION_Q
    live = 8 * (2 * _slice_width(ctx) + 1) * (ctx.q + ctx.q // ctx.field.p)
    if live > SPECTRA_BUDGET_BYTES:
        return "class spectra at ell=%d, q=%d are past %d bytes" % (
            ctx.ell, ctx.q, SPECTRA_BUDGET_BYTES)
    return None


def _class_products(ctx):
    """An iterator of (start, counts) over slices of u, with counts[u - start,
    z] = #{(x, y) in g^u K x K : x + y = z}, the coefficients of P_u =
    alpha_u alpha_0, from the rfftn of each class indicator on (p,)*n
    (index 0 in no class).  Refusals raise here, before any allocation."""
    from numpy import fft

    field, ell, q, cls = ctx.field, ctx.ell, ctx.q, ctx.classes
    why = _convolution_refusal(ctx)
    if why is not None:
        raise ContextTooLarge(why)
    shape, axes = (field.p,) * field.n, tuple(range(1, field.n + 1))
    step = _slice_width(ctx)
    ind0 = cls == 0
    ind0[0] = False                              # index 0 is in no class
    spec0 = fft.rfftn(ind0.reshape(shape))

    def slices():
        for start in range(0, ell, step):
            ind = cls == np.arange(start, min(start + step, ell))[:, None]
            ind[:, 0] = False
            raw = fft.irfftn(fft.rfftn(ind.reshape((-1,) + shape), axes=axes)
                             * spec0, s=shape, axes=axes).reshape(-1, q)
            out = np.rint(raw)
            worst = float(np.abs(raw - out).max())
            if worst >= 0.25:
                raise InternalError("convolution residual %.3g >= 1/4 for "
                                    "classes from %d" % (worst, start))
            yield start, out.astype(np.int64)

    return slices()


def verify_structure_constants(ctx):
    """Multiply pairs of class sums by direct convolution in the group ring
    and confirm the decomposition over {1, alpha_0, ..., alpha_{ell-1}}:
    the identity coefficient of alpha_i alpha_v is k exactly when
    i = v + q' (mod ell), else 0, and its alpha_j coefficient is the table
    entry (i-v, j-v).  Only the ell products P_u = alpha_u alpha_0 are
    formed; the module docstring gives the reduction to (i-v, 0)."""
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    products = _class_products(ctx)
    tab = np.array(ctx.table, dtype=np.int64)
    want0 = np.where((np.arange(ell) - qp) % ell == 0, k, 0)
    bad = np.zeros(ell, dtype=bool)
    ident = np.zeros(ell, dtype=np.int64)
    for start, lhs in products:
        us = np.arange(start, start + len(lhs))
        rhs = tab[us[:, None], ctx.classes]
        rhs[:, 0] = want0[us]
        bad[us] = (lhs != rhs).any(axis=1)
        ident[us] = lhs[:, 0]
    fail, v = None, _first_v(bad, ell)
    if v is not None:
        fail = {"i": 0, "v": v, "identity_coefficient": int(ident[-v % ell]),
                "expected_identity_coefficient": int(want0[-v % ell])}
    res = VerifySuiteResult()
    res.add("structure_constants", fail is None, params={"pairs": ell * ell},
            detail=fail)
    return res


# ----------------------------------------------------------------------
# tensor laws: one skeleton for every "all (u, v)" identity
# ----------------------------------------------------------------------

def _first_v(bad, ell):
    """The least v = -u mod ell over the u where bad is set, or None: (0, v)
    is then the first failing pair in row-major order."""
    return min((-u % ell for u in np.flatnonzero(bad).tolist()), default=None)


def _law_dtype(ctx):
    """float64 if it is exact under the bound in the module docstring."""
    m = max([ctx.k] + [abs(x) for row in ctx.table for x in row]) + 1
    return np.float64 if (ctx.ell + 2) * ctx.ell * m * m < 1 << 53 else object


def _law_tensors(ctx):
    """S with S[v] = A_v, so S[0] = A, in the law dtype."""
    ell = ctx.ell
    if 8 * (ell + 1) ** 3 > ARRAY_BUDGET_BYTES:
        raise ContextTooLarge("tensor laws at ell=%d are past the %d-byte "
                              "budget" % (ell, ARRAY_BUDGET_BYTES))
    t = np.array(ctx.table, dtype=_law_dtype(ctx))
    r = np.arange(ell)
    d = (r[None, :] - r[:, None]) % ell           # d[v, a] = a - v
    return t[d[:, :, None], d[:, None, :]]


def _add_law(res, name, ell, lhs, rhs, detail=lambda *_: {}):
    """Record a law whose sides at (u, 0) are lhs[u] and rhs[u]; its first
    failing pair is (0, v), and detail(lhs[u], rhs[u], v) with u = -v mod ell
    adds to the counterexample."""
    fail, v = None, _first_v((lhs != rhs).reshape(ell, -1).any(axis=1), ell)
    if v is not None:
        fail = {"u": 0, "v": v, **detail(lhs[-v % ell], rhs[-v % ell], v)}
    res.add(name, fail is None, params={"pairs": ell * ell}, detail=fail)
    return res


def verify_regular_representation(ctx):
    """The (ell+1)-dimensional representation is multiplicative:
    [alpha_u][alpha_v] = k*delta(u, v+q')*I + sum_w (u-v, w-v) [alpha_w],
    on the stack of regular_rep(ctx, v) filled from S[v] = A_v."""
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    s = _law_tensors(ctx)
    r, e = np.arange(ell), np.arange(ell + 1)
    reps = np.zeros((ell, ell + 1, ell + 1), dtype=s.dtype)
    reps[:, 1:, 1:] = s
    s = reps[:, 1:, 1:]                       # frees S; A_v lives on in reps
    reps[r, 0, 1 + r] = 1
    reps[r, 1 + (r + qp) % ell, 0] = k
    rhs = np.tensordot(s[0], reps, 1)
    rhs[qp, e, e] += k
    return _add_law(VerifySuiteResult(), "regular_representation_product",
                    ell, reps @ reps[0], rhs)


def verify_matrix_product_law(ctx):
    """A_u A_v = k(delta(u, v+q') I - E_{u+q', v}) + sum_w (u-v, w-v) A_w."""
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    s = _law_tensors(ctx)
    r = np.arange(ell)
    rhs = np.tensordot(s[0], s, 1)
    rhs[r, (r + qp) % ell, 0] -= k
    rhs[qp, r, r] += k
    return _add_law(VerifySuiteResult(), "shifted_product_law", ell,
                    s @ s[0], rhs, lambda lhs, rhs, v: {"residual": IntMatrix(
                        np.roll(lhs - rhs, v, (0, 1)).tolist())})


def verify_transposed_product_law(ctx):
    """A_u^T A_v = k(delta(u, v) I - E_{u, v}) + sum_w (u-v+q', w-v) A_w,
    the law that encodes column inner products."""
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    s = _law_tensors(ctx)
    r = np.arange(ell)
    rhs = np.tensordot(s[0][(r + qp) % ell], s, 1)
    rhs[r, r, 0] -= k
    rhs[0, r, r] += k
    return _add_law(VerifySuiteResult(), "transposed_product_law", ell,
                    s.transpose(0, 2, 1) @ s[0], rhs)


def verify_commutator(ctx):
    """A_u A_v - A_v A_u = k(E_{v+q', u} - E_{u+q', v}); in particular the
    cyclotomic matrix is normal up to a two-entry correction."""
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    s = _law_tensors(ctx)
    a, r = s[0], np.arange(ell)
    lhs = s @ a
    lhs -= a @ s
    rhs = np.zeros_like(s)
    rhs[r, qp, r] += k
    rhs[r, (r + qp) % ell, 0] -= k
    res = _add_law(VerifySuiteResult(), "commutator_law", ell, lhs, rhs)
    resid = a.T @ a - a @ a.T
    resid[qp, qp] -= k
    resid[0, 0] += k
    ok = not resid.any()
    res.add("near_normality", ok, detail=None if ok else
            {"residual": IntMatrix(resid.tolist())})
    return res


def _trace_of_product(x, y):
    """tr(x y) = sum of x * y^T over two arrays, on Python ints, for sums
    past the law bound."""
    return sum(map(operator.mul, map(int, x.ravel().tolist()),
                   map(int, y.T.ravel().tolist())))


def verify_traces(ctx):
    """Trace identities: tr(A_w) = k-1; tr(A_u A_v) = (q-2k) delta(u-v, q')
    + k(k-1); the parity split of tr(A^2); and tr(A^3) = (0, q')(q-3k)
    + k^2 (k-1)."""
    ell, k, qp, q = ctx.ell, ctx.k, ctx.qprime, ctx.q
    s = _law_tensors(ctx)
    res = VerifySuiteResult()

    res.first("trace_of_shifts", "w",
              np.argwhere(np.trace(s, axis1=1, axis2=2) != k - 1))

    want = np.full(ell, k * (k - 1), dtype=s.dtype)
    want[qp] += q - 2 * k
    _add_law(res, "trace_of_products", ell,
             s.reshape(ell, -1) @ s[0].T.reshape(-1), want,
             lambda lhs, rhs, v: {"expected": int(rhs)})

    a = s[0]
    res.compare("trace_of_square", int((a * a.T).sum()),
                k * (k - 1) + (q - 2 * k if k % 2 == 0 else 0))
    res.compare("trace_of_cube", _trace_of_product(a @ a, a),
                ctx.num(0, qp) * (q - 3 * k) + k * k * (k - 1))
    return res


def verify_sum_of_squares(ctx):
    """sum over the whole table of (i,j)^2 equals q + k(k-3), equivalently
    tr(A^T A)."""
    res = VerifySuiteResult()
    res.compare("sum_of_squares", sum(v * v for row in ctx.table for v in row),
                ctx.q + ctx.k * (ctx.k - 3))
    return res


def _randrange_stream(rng, ell, count):
    """The next count values of rng.randrange(ell), as an int64 array.

    CPython's randrange(ell) keeps the top ell.bit_length() bits of one
    32-bit word and draws again while the value is >= ell; getrandbits(32 m)
    packs the next m words little-endian, so the same words, drawn in bulk
    and screened the same way, give the same values in the same order."""
    shift = 32 - ell.bit_length()
    got, have = [np.empty(0, dtype="<u4")], 0
    while have < count:
        m = 2 * (count - have) + 8          # at least half of the words pass
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"),
                              dtype="<u4") >> shift
        got.append(words[words < ell])
        have += len(got[-1])
    return np.concatenate(got)[:count].astype(np.int64)


def verify_inner_product_identity(ctx, seed=0):
    """The four-index identity tying together products of pairs of
    cyclotomic numbers:

        sum_w (w-u, i-u)(w-v, j-v)
          = k(delta(i,j) delta(u,v) - delta(i,u) delta(j,v))
            + sum_w (w-v, u-v)(w-j, i-j).

    Exhaustive over all ell^4 quadruples for ell <= 12
    (EXHAUSTIVE_QUADRUPLE_LIMIT); beyond that, DEFAULT_SAMPLE_COUNT
    quadruples drawn by a generator seeded with seed.  Each sum over w is
    the dot product of two column windows of [A; A], as in the module
    docstring.
    """
    ell, k = ctx.ell, ctx.k
    if ell <= EXHAUSTIVE_QUADRUPLE_LIMIT:
        mode, quads = "exhaustive", None        # row-major, made per chunk
    else:
        samples = DEFAULT_SAMPLE_COUNT
        mode, quads = "sampled", _randrange_stream(
            random.Random(seed), ell, 4 * samples).reshape(samples, 4)
    t = np.array(ctx.table, dtype=_law_dtype(ctx))
    # win[c, s] = [A; A][s:s+ell, c]: (w-a, b-a) over w for c = b-a, s = ell-a
    win = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([t, t]).T, ell, axis=1)

    def dot(a, b, c, d):
        return (win[(b - a) % ell, ell - a] * win[(d - c) % ell, ell - c]
                ).sum(axis=1)

    res = VerifySuiteResult()
    fail, count = None, ell ** 4 if quads is None else len(quads)
    # about eight (step, ell) arrays of 8-byte words are live at once
    step = max(1, ARRAY_BUDGET_BYTES // (64 * ell))
    for start in range(0, count, step):
        stop = min(start + step, count)
        if quads is None:
            cols = np.unravel_index(np.arange(start, stop), (ell,) * 4)
        else:
            cols = quads[start:stop].T
        i, j, u, v = (c % ell for c in cols)
        lhs = dot(u, i, v, j)
        rhs = k * (((i == j) & (u == v)).astype(np.int64)
                   - ((i == u) & (j == v))) + dot(v, u, j, i)
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            x = int(bad[0])
            count = start + x + 1
            fail = dict(zip("ijuv", (int(c[x]) for c in cols)),
                        lhs=int(lhs[x]), rhs=int(rhs[x]))
            break
    res.add("inner_product_identity", fail is None,
            params={"mode": mode, "quadruples": count, "seed": seed},
            detail=fail)
    return res


def verify_column_products(ctx):
    """Column inner products of A reduce to first-column data:

      sum_w (w,i)^2 = k + sum_w (w,0)(w-i,0)          for 1 <= i < ell;
      sum_w (w,i)(w,j) = sum_w (w,0)(w-j,i-j)         for i != j;

    and for odd k the half-shift relations

      sum_w (w,q')^2 = k + sum_w (w,0)^2;
      sum_w (w,i)(w,j) = sum_w (w,i+q')(w,j+q')       outside (0,0),(q',q').
    """
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    t = np.array(ctx.table, dtype=_law_dtype(ctx))
    r = np.arange(ell)
    gram = np.matmul(t.T, t)                  # gram[i, j] = sum_w (w,i)(w,j)
    # first[i,j] = sum_w (w,0)(w-j,i-j) = (circ t)[j,i-j], circ[s,w] = (w+s,0)
    circ = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((t[:, 0], t[:, 0])), ell)[:ell]
    first = np.matmul(circ, t)[r[None], (r[:, None] - r[None]) % ell]

    res = VerifySuiteResult()
    res.first("column_square_sums", "i",
              np.argwhere(np.diagonal(gram - first)[1:] != k) + 1)
    res.first("distinct_column_products", "ij",
              np.argwhere((gram != first) & (r[:, None] != r[None])))

    if k % 2 == 1:
        res.compare("half_shift_square_sum", int(gram[qp, qp]),
                    k + int(gram[0, 0]))
        mask = gram != gram[np.ix_((r + qp) % ell, (r + qp) % ell)]
        mask[0, 0] = mask[qp, qp] = False
        res.first("half_shift_pair_products", "ij", np.argwhere(mask))
    else:
        res.skip("half_shift_square_sum", "k even")
        res.skip("half_shift_pair_products", "k even")
    return res


def column_permutation_survey(ctx):
    """For each j in [1, q'), report whether column j of A is a multiset
    permutation of column j + q'.  Experimental output only: no identity is
    asserted beyond what verify_column_products already covers."""
    if ctx.k % 2 == 0:
        raise KEven("survey is defined for odd k only")
    if ctx.ell < 4:
        raise EllTooSmall("survey needs ell >= 4")
    ell, qp = ctx.ell, ctx.qprime
    t = ctx.table
    out = []
    for j in range(1, qp):
        col = sorted(t[w][j] for w in range(ell))
        shifted = sorted(t[w][(j + qp) % ell] for w in range(ell))
        out.append({"j": j, "equal": col == shifted})
    return out


SUITES = ("schur", "identities", "all")


def run_identity_suite(ctx, seed=0, suite="all"):
    """One suite's verifiers on one context, merged into a single ledger
    after the elementary laws.  "all" records the group-ring convolution as
    skipped past its guards; "schur" runs it, raising ContextTooLarge past
    them."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % (suite,))
    res = verify_elementary_laws(ctx)
    if suite != "identities":
        if suite == "schur" or _convolution_refusal(ctx) is None:
            res.merge(verify_structure_constants(ctx))
        else:
            res.skip("structure_constants",
                     "group-ring convolution skipped at q=%d" % ctx.q)
        res.merge(verify_regular_representation(ctx))
    if suite != "schur":
        res.merge(verify_matrix_product_law(ctx))
        res.merge(verify_transposed_product_law(ctx))
        res.merge(verify_commutator(ctx))
        res.merge(verify_traces(ctx))
        res.merge(verify_sum_of_squares(ctx))
        res.merge(verify_inner_product_identity(ctx, seed=seed))
        res.merge(verify_column_products(ctx))
    return res

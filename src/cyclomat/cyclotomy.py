"""Cyclotomic numbers for (F_q, ell, g) and the matrices built from them.

With K the subgroup of ell-th powers in F_q^* and g the field's generator,
the entry (i, j) counts |(1 + g^i K) ∩ g^j K|.  Indices extend to all of Z
with period ell.  The classes come from the cosets of K, whose digits the
doubling kernel carries to g^j K, j < ell, before one scatter.  The full
ell x ell table is built in one O(q) pass over the classes, reshaped to
rows of p canonical indices that share their higher digits: x + 1 only
touches the constant digit, so the pairs (x, x + 1) are the adjacent
columns of each row plus the wrap from column p - 1 to column 0, less the
two pairs that touch index 0.  The pass is plain slicing, the same for
prime and extension fields.

Derived matrices:

  A  -- the table itself, order ell;
  M  -- rows of A cycled by the half-shift q' (symmetric);
  B  -- A with row q' and column 0 deleted;
  S  -- M with row 0 and column 0 deleted (symmetric, a row permutation of B).

q' is the representative of (q-1)/2 in [0, ell): 0 for even k, ell/2 for
odd k.  It encodes -K = g^(q') K.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import EllTooSmall, InternalError
from .field import FieldCtx, power_digits
from .intmat import IntMatrix
from .report import VerifySuiteResult

TABLE_ENTRY_BYTES = 48  # peak bytes per table entry: int64, list slot, int


def _build_classes(field, ell):
    """classes[x] = i for x in g^i K, read-only; classes[0] = 0 is no class."""
    field.require_table_budget("cyclotomic classes")
    digits = power_digits(field, field.generator_index, field.q - 1,
                          block=field.subgroup_digits(ell))
    classes = np.full(field.q, -1, dtype=np.int64)
    cosets = field.encode_array(digits).reshape(ell, -1)    # row j: g^j K
    classes[cosets] = np.arange(ell)[:, None]
    if int(classes[0]) != -1 or int(np.count_nonzero(classes < 0)) != 1:
        raise InternalError("cosets of K do not partition F_q^*")
    classes[0] = 0
    classes.flags.writeable = False
    return classes


def _build_table(classes, p, ell):
    r = classes.reshape(-1, p)      # row: one value of the higher digits
    codes = r[:, :-1] * ell         # x -> x + 1 inside a row
    codes += r[:, 1:]
    counts = np.bincount(codes.ravel(), minlength=ell * ell)
    counts += np.bincount(r[:, -1] * ell + r[:, 0], minlength=ell * ell)
    # drop the pairs (0, 1) and (-1, 0) that touch index 0
    counts[classes[0] * ell + classes[1]] -= 1
    counts[classes[p - 1] * ell + classes[0]] -= 1
    return counts.reshape(ell, ell).tolist()


class CycloCtx:
    """A field together with ell, k = (q-1)/ell, q', classes and the table.

    The build checks the elementary row/column/symmetry laws and raises
    InternalError if one fails.  ``classes`` is read-only, but ``table`` is
    a plain list of lists that every verifier re-reads: a table edited
    after construction is not checked again here, and the ledgers report it.
    """

    __slots__ = ("field", "ell", "k", "qprime", "classes", "table")

    def __init__(self, field, ell):
        if not isinstance(field, FieldCtx):
            raise TypeError("field must be a FieldCtx")
        ell = operator.index(ell)
        k = field.subgroup_order(ell)
        field.require_table_budget("the %d x %d cyclotomic table" % (ell, ell),
                                   TABLE_ENTRY_BYTES * ell * ell)
        self.field = field
        self.ell = ell
        self.k = k
        self.qprime = ((field.q - 1) // 2) % ell
        expected_qprime = 0 if self.k % 2 == 0 else ell // 2
        if self.qprime != expected_qprime:
            raise InternalError("half-shift classification is broken")
        self.classes = _build_classes(field, ell)
        self.table = _build_table(self.classes, field.p, ell)
        laws = verify_elementary_laws(self)
        if not laws.passed:
            raise InternalError("table violates its defining laws: %s"
                                % [c.name for c in laws.failures()])

    def num(self, i, j):
        """The cyclotomic number (i, j); any integers, reduced mod ell."""
        return self.table[i % self.ell][j % self.ell]

    @property
    def q(self):
        return self.field.q

    def meta(self):
        """q, p, n, ell, k, qprime and generator: the context's keys, written
        only here, for the commands' meta blocks and DiffSetReport."""
        return {"q": self.q, "p": self.field.p, "n": self.field.n,
                "ell": self.ell, "k": self.k, "qprime": self.qprime,
                "generator": self.field.generator_index}

    def __repr__(self):
        return "CycloCtx(q=%d, ell=%d, k=%d, qprime=%d)" % (
            self.q, self.ell, self.k, self.qprime)


@dataclass
class DerivedMatrices:
    """The cyclotomic matrix and its shifted/minor companions."""

    A: IntMatrix
    M: IntMatrix
    B: IntMatrix
    S: IntMatrix


def build_matrices(ctx):
    """A, M = P_{q'} A, B = (q',0)-minor of A, S = (0,0)-minor of M."""
    ell, qp = ctx.ell, ctx.qprime
    if ell < 2:
        raise EllTooSmall("minor extraction needs ell >= 2")
    a = IntMatrix(ctx.table)
    m = IntMatrix([ctx.table[(i + qp) % ell] for i in range(ell)])
    b = a.minor(qp, 0)
    s = m.minor(0, 0)
    return DerivedMatrices(A=a, M=m, B=b, S=s)


def shifted_matrix(ctx, v):
    """A_v with entries (i - v, j - v); the P_v-conjugate of A."""
    ell = ctx.ell
    t = ctx.table
    return IntMatrix([[t[(i - v) % ell][(j - v) % ell] for j in range(ell)]
                      for i in range(ell)])


def verify_elementary_laws(ctx):
    """Check the defining symmetries and marginal sums of the table.

    These are theorems for every valid context; a failure means the build
    is broken, so the result is a ledger rather than an exception.
    """
    ell, k, qp = ctx.ell, ctx.k, ctx.qprime
    t = ctx.table
    r = range(ell)
    res = VerifySuiteResult()
    res.first("transpose_shift_symmetry", "ij", (
        (i, j) for i in r for j in r
        if t[i][j] != t[(j + qp) % ell][(i + qp) % ell]))
    res.first("inversion_symmetry", "ij", (
        (i, j) for i in r for j in r
        if t[i][j] != t[(-i) % ell][(j - i) % ell]))
    res.first("row_sums", ("i", "sum"), (
        (i, s) for i, s in enumerate(map(sum, t))
        if s != (k - 1 if i == qp else k)))
    res.first("column_sums", "j", (
        (j,) for j, s in enumerate(map(sum, zip(*t)))
        if s != (k - 1 if j == 0 else k)))
    if k % 2 == 0:
        res.first("even_k_transpose_symmetry", "ij", (
            (i, j) for i in r for j in r if t[i][j] != t[j][i]))
    else:
        res.skip("even_k_transpose_symmetry", "k odd")
    return res

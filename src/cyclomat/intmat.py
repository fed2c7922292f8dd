"""Exact dense linear algebra over the integers.

All arithmetic runs on plain Python ints, so results are exact at any
magnitude.  Matrices in this package are small dense squares (orders up to
a few dozen), so the simple cubic/quartic algorithms are the right tool:
Faddeev-LeVerrier for the characteristic polynomial, and for det and rank
one fraction-free echelon, ``_echelon``.  It is Bareiss elimination (E. H.
Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968) that skips a column with no pivot and
keeps the previous pivot (G. C. Nakos, P. R. Turner and R. M. Williams,
"Fraction-free algorithms for linear and polynomial equations", SIGSAM
Bull. 31(3), 1997); every entry stays a minor of the input, so each
division is exact.

Floating point appears in exactly one place: IntPoly.real_roots isolates
the roots of an exact polynomial with Sturm chains and bisects them on ints
(every endpoint an integer numerator over lead * 2^j) to a requested
tolerance, and only the final int / int division, correctly rounded, makes
a float for display next to exact certificates.  (A float Newton guess
only picks where the exact search starts; the result does not depend on it.)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from operator import index, mul

from .errors import DimensionMismatch, InternalError, OutOfDomain


def _exponent(e):
    """A power's exponent: integral (TypeError otherwise) and >= 0."""
    e = index(e)
    if e < 0:
        raise OutOfDomain("powers need an exponent >= 0, got %d" % e)
    return e


class IntMatrix:
    """Square matrix of arbitrary-precision integers, row-major, zero-indexed."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = [[int(v) for v in row] for row in rows]
        d = len(rows)
        for row in rows:
            if len(row) != d:
                raise DimensionMismatch("rows must all have length %d" % d)
        self.dim = d
        self.rows = rows

    @classmethod
    def _of(cls, rows):
        """Unchecked: rows are fresh lists of len(rows) Python ints."""
        m = cls.__new__(cls)
        m.dim, m.rows = len(rows), rows
        return m

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, d):
        return cls._of([[0] * d for _ in range(d)])

    @classmethod
    def identity(cls, d):
        return cls._of([[int(i == j) for j in range(d)] for i in range(d)])

    @classmethod
    def ones(cls, d):
        """The all-one matrix J_d."""
        return cls._of([[1] * d for _ in range(d)])

    @classmethod
    def elementary(cls, d, s, t):
        """E_{s,t}: all zeros except a single 1 in the (s, t) entry, d >= 1."""
        if d < 1:
            raise DimensionMismatch("E_{s,t} needs d >= 1, got %d" % d)
        m = cls.zeros(d)
        m.rows[s % d][t % d] = 1
        return m

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and self.dim == other.dim and self.rows == other.rows)

    __hash__ = None

    def __repr__(self):
        if self.dim <= 6:
            return "IntMatrix(%r)" % (self.rows,)
        return "IntMatrix(dim=%d)" % self.dim

    def __add__(self, other):
        self._conformable(other)
        return IntMatrix._of([[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._conformable(other)
        return IntMatrix._of([[a - b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return IntMatrix._of([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            self._conformable(other)
            cols = list(zip(*other.rows))
            return IntMatrix._of([[sum(map(mul, row, col)) for col in cols]
                                  for row in self.rows])
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e):
        out = IntMatrix.identity(self.dim)
        for _ in range(_exponent(e)):
            out = out * self
        return out

    def scale(self, c):
        c = int(c)
        return IntMatrix._of([[c * a for a in row] for row in self.rows])

    def transpose(self):
        return IntMatrix._of([list(col) for col in zip(*self.rows)])

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.dim))

    def diagonal(self):
        return [self.rows[i][i] for i in range(self.dim)]

    def is_zero(self):
        return all(v == 0 for row in self.rows for v in row)

    def is_symmetric(self):
        return self == self.transpose()

    def minor(self, r, c):
        """The submatrix with row r and column c deleted."""
        d = self.dim
        if d < 2:
            raise DimensionMismatch("minor needs dim >= 2")
        r %= d
        c %= d
        return IntMatrix._of([row[:c] + row[c + 1:]
                              for i, row in enumerate(self.rows) if i != r])

    def _add_to_diagonal(self, c):
        # self + c I in place: only for a fresh result no one else holds
        for i, row in enumerate(self.rows):
            row[i] += c
        return self

    def _conformable(self, other):
        if not isinstance(other, IntMatrix) or other.dim != self.dim:
            raise DimensionMismatch("operands must be square of equal order")

    # ------------------------------------------------------------------
    # fraction-free algorithms
    # ------------------------------------------------------------------

    def det(self):
        """Exact determinant: 0 below full rank, else the last pivot of the
        shared echelon (Bareiss; Nakos et al.) times its row-swap sign."""
        rank, sign, pivot = _echelon(self.rows)
        return sign * pivot if rank == self.dim else 0

    def rank(self):
        """Rank over the rationals: the pivot count of the shared echelon
        (Bareiss; Nakos et al.)."""
        return _echelon(self.rows)[0]

    def charpoly(self):
        """Characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

        Every division in the recurrence is exact over the integers, so the
        result is a monic IntPoly of degree dim with exact coefficients.
        """
        d = self.dim
        coeffs = [0] * (d + 1)
        coeffs[d] = 1
        m = IntMatrix.identity(d)
        for k in range(1, d + 1):
            am = self * m
            t = am.trace()
            if t % k:
                raise InternalError("Faddeev-LeVerrier division must be exact")
            coeffs[d - k] = -(t // k)
            m = am._add_to_diagonal(coeffs[d - k])
        return IntPoly(coeffs)


def _echelon(rows):
    """(rank, sign of the row swaps, last pivot or 1 at rank 0) of a square
    matrix.  Each step scales the rows below the pivot row by the pivot,
    clears the pivot column and divides exactly by the previous pivot; a
    column with no pivot left is skipped and the previous pivot kept."""
    a = [row[:] for row in rows]
    d = len(a)
    rank, sign, prev = 0, 1, 1
    for c in range(d):
        for i in range(rank, d):
            if a[i][c]:
                break
        else:
            continue
        if i != rank:
            a[rank], a[i] = a[i], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[c]
        for row in a[rank + 1:]:
            f = row[c]
            for j in range(c + 1, d):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
        rank += 1
    return rank, sign, prev


class IntPoly:
    """Integer polynomial, coefficients stored low-to-high and trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_trim([int(c) for c in coeffs]))

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                terms.append("%+d" % c)
            elif e == 1:
                terms.append("%+dx" % c)
            else:
                terms.append("%+dx^%d" % (c, e))
        return "IntPoly(%s)" % " ".join(terms)

    def __add__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self - (-other)

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else \
            IntPoly(_sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not self.coeffs or not other.coeffs:
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = IntPoly([1])
        for _ in range(_exponent(e)):
            out = out * self
        return out

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly([other])
        return NotImplemented

    def __call__(self, x):
        return _value_at(self.coeffs, x, 1)

    def derivative(self):
        return IntPoly(_derivative(self.coeffs))

    def at_matrix(self, m):
        """Evaluate at a square IntMatrix by Horner; x^0 maps to the identity."""
        if not isinstance(m, IntMatrix):
            raise DimensionMismatch("at_matrix needs an IntMatrix")
        acc = IntMatrix.zeros(m.dim)
        for c in reversed(self.coeffs):
            acc = (acc * m)._add_to_diagonal(c)
        return acc

    # ------------------------------------------------------------------
    # real roots
    # ------------------------------------------------------------------

    def squarefree_decomposition(self):
        """Yun decomposition: list of (factor, multiplicity) with each factor
        a primitive squarefree IntPoly of positive degree and positive lead.

        Gcds come from primitive pseudo-remainder sequences and each quotient
        is an exact division by a primitive divisor (integral by Gauss's
        lemma); b and d share every divisor, so Yun's recurrence holds up to
        one common scalar and the normalized factors are those over Q.
        """
        if self.degree < 1:
            return []
        f = list(self.coeffs)
        df = _derivative(f)
        g = _gcd(f, df)
        if len(g) == 1:
            return [(_normalized(f), 1)]
        b = _div_exact(f, g)
        d = _sub(_div_exact(df, g), _derivative(b))
        out = []
        i = 1
        while len(b) > 1:
            a = _gcd(b, d)
            if len(a) > 1:
                out.append((_normalized(a), i))
            b = _div_exact(b, a)
            d = _sub(_div_exact(d, a), _derivative(b))
            i += 1
        return out

    def real_roots(self, tol=1e-12):
        """All real roots with multiplicities, as (float, int) pairs sorted
        by root value.

        Roots are isolated with Sturm sequences on the squarefree factors
        and then bisected until the bracketing interval is narrower than tol;
        rational roots hit exactly by a bisection midpoint are returned
        exactly.  Endpoints are exact (int numerator over lead * 2^j).
        """
        tol_num, tol_den = _tolerance_ratio(tol)
        out = []
        for factor, mult in self.squarefree_decomposition():
            for r in _squarefree_real_roots(factor, tol_num, tol_den):
                out.append((r, mult))
        out.sort(key=lambda t: t[0])
        return out


# ----------------------------------------------------------------------
# integer polynomial helpers (internal; coefficient lists low-to-high)
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def _tolerance_ratio(tol):
    if not 0 < tol < math.inf:
        raise OutOfDomain("tol must be finite and positive, not %r" % (tol,))
    ratio = Fraction(tol).limit_denominator(10 ** 18)
    if not ratio:
        raise OutOfDomain("tol %r rounds to 0 over 10**18" % (tol,))
    return ratio.numerator, ratio.denominator


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _derivative(c):
    return [i * c[i] for i in range(1, len(c))]


def _content_free(c):
    """c divided by the gcd of its coefficients (a positive constant)."""
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _normalized(c):
    """The primitive IntPoly with positive lead that is a multiple of c."""
    c = _content_free(c)
    return IntPoly([-v for v in c] if c[-1] < 0 else c)


def _prem(a, b):
    """A positive multiple of the remainder of a modulo b: each step scales
    a by |lead(b)| / g, g = gcd(lead(a), lead(b)), and cancels its lead."""
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b):
        la = a[-1]
        g = math.gcd(la, lb)
        m, f = abs(lb) // g, (la // g if lb > 0 else -la // g)
        k = len(a) - len(b)
        a = [m * v for v in a]
        for i, v in enumerate(b):
            a[k + i] -= f * v
        _trim(a)
    return a


def _div_exact(a, b):
    """a / b, which must be an integer polynomial with no remainder."""
    a = list(a)
    lb = b[-1]
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f, r = divmod(a[-1], lb)
        if r:
            break
        k = len(a) - len(b)
        q[k] = f
        for i, v in enumerate(b):
            a[k + i] -= f * v
        _trim(a)
    if a:
        raise InternalError("expected exact polynomial division")
    return q


def _gcd(a, b):
    """A gcd of a and b (a primitive pseudo-remainder sequence)."""
    a, b = _content_free(a), _content_free(b)
    while b:
        a, b = b, _content_free(_prem(a, b))
    return a


def _value_at(c, n, d):
    """d^deg(c) * c(n / d), an int with the sign of c(n / d) when d > 0
    (homogeneous Horner)."""
    acc = 0
    dk = 1
    for v in reversed(c):
        acc = acc * n + v * dk
        dk *= d
    return acc


def _sturm_chain(c):
    # each member is a positive multiple of the rational Sturm sequence's,
    # so every sign, and every variation count, is the same
    chain = [c, _derivative(c)]
    while True:
        r = _content_free(_prem(chain[-2], chain[-1]))
        if not r:
            return chain
        chain.append([-v for v in r])


def _sign_variations(chain, n, d):
    signs = [v > 0 for v in (_value_at(s, n, d) for s in chain) if v]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _squarefree_real_roots(poly, tol_num, tol_den):
    # poly is a squarefree_decomposition factor (positive degree and lead);
    # an interval (a, b, d) stands for (a/d, b/d] with d = lead * 2^j > 0
    c = list(poly.coeffs)
    if len(c) == 2:
        return [-c[0] / c[1]]
    chain = _sturm_chain(c)

    # var(a, d) - var(b, d) roots lie in (a/d, b/d]; the stack carries both
    # endpoints' counts, so a split evaluates the chain at new points only
    var = partial(_sign_variations, chain)
    bound = 2 * c[-1] + sum(abs(v) for v in c[:-1])
    roots = []
    stack = [(-bound, bound, c[-1], var(-bound, c[-1]), var(bound, c[-1]))]
    while stack:
        a, b, d, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            roots.append(_bisect_root(c, a, b, d, tol_num, tol_den))
            continue
        if _value_at(c, a + b, 2 * d) == 0:
            roots.append((a + b) / (2 * d))
            # shrink around the midpoint so the halves have clean endpoints:
            # in units of 1/d, mid = m and delta = (old b - old a) / 4 / 2^j
            m, a, b, d, delta = 2 * (a + b), 4 * a, 4 * b, 4 * d, b - a
            while (_value_at(c, m - delta, d) == 0
                   or _value_at(c, m + delta, d) == 0
                   or (vl := var(m - delta, d)) - (vr := var(m + delta, d))
                   != 1):
                m, a, b, d = 2 * m, 2 * a, 2 * b, 2 * d
            stack.append((a, m - delta, d, va, vl))
            stack.append((m + delta, b, d, vr, vb))
        else:
            vm = var(a + b, 2 * d)
            stack.append((2 * a, a + b, 2 * d, va, vm))
            stack.append((a + b, 2 * b, 2 * d, vm, vb))
    return roots


def _bisect_root(c, a, b, d, tol_num, tol_den):
    # (a/d, b/d] holds exactly one simple root; endpoints are not roots.
    # Halving it to the tolerance takes j steps and ends in the cell (t-1, t]
    # of the grid a/d + t (b - a)/(d 2^j) that holds the root, or at the root
    # if a midpoint hits it; t is found by exact signs at grid points,
    # galloping out from a float guess.
    fa = _value_at(c, a, d)
    fb = _value_at(c, b, d)
    if fb == 0:
        return b / d
    if (fa > 0) == (fb > 0):
        raise InternalError("bracketing interval must change sign")
    w = b - a
    j = (-(-w * tol_den // (tol_num * d)) - 1).bit_length()
    t, step, lo, hi = _grid_guess(c, a, b, d, j, fa > 0), 1, 0, 1 << j
    a, d = a << j, d << j

    def left(t):  # grid point t lies left of the root
        v = _value_at(c, a + t * w, d)
        return v != 0 and (v > 0) == (fa > 0)

    while lo < t < hi:
        lo, hi, t = (t, hi, t + step) if left(t) else (lo, t, t - step)
        step *= 2
    while hi - lo > 1:
        m = (lo + hi) // 2
        lo, hi = (m, hi) if left(m) else (lo, m)
    end = a + hi * w
    return end / d if _value_at(c, end, d) == 0 else (2 * end - w) / (2 * d)


def _grid_guess(c, a, b, d, j, positive_left):
    # index on the grid of 2^j cells of (a/d, b/d] nearest the root there,
    # or 0 if the float steps fail.  Newton runs from the middle inside a
    # float bracket that the sign at each iterate narrows (c has the sign of
    # positive_left left of the root); a step that would leave the bracket,
    # toward a neighbouring root, bisects it instead.  The steps go on until
    # one is within a cell (at most 100 of them), since a wide interval can
    # leave its midpoint far outside quadratic convergence.  The last
    # iterate maps to the grid exactly: in floats, x - a/d loses cells when
    # a/d is far from the root
    try:
        lo, hi = a / d, b / d
        x, cell = (lo + hi) / 2, (hi - lo) / 2 ** j
        for _ in range(100):
            f = df = 0.0
            for v in reversed(c):
                f, df = f * x + v, df * x + f
            if (f > 0) == positive_left:
                lo = x
            else:
                hi = x
            step = f / df if df else math.inf
            if not lo <= x - step <= hi:
                step = x - (lo + hi) / 2
            x -= step
            if abs(step) <= cell:
                break
        if not a / d < x <= b / d:
            return 0
        num, den = x.as_integer_ratio()     # exact, as x's offset on a
        return (((num * d - a * den) << (j + 1)) + (b - a) * den) \
            // (2 * (b - a) * den)
    except OverflowError:
        return 0

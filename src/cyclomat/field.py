"""Finite fields F_{p^n} with a fixed generator.

An element is its canonical index, a plain int in [0, q): the polynomial
sum_i c_i * x^i with c_i in [0, p) has index sum_i c_i * p**i.  There is no
element class; the ``*_idx`` methods and ``dlog_of`` take and give indices.
Multiplication has one representation: ``mul_matrix(h)``, the matrix of
multiplication by h on digit vectors, is the sum of h_i C^i for C, the
companion matrix of the modulus (multiplication by x; Lidl and
Niederreiter, *Finite Fields*, ch. 2).  ``mul_idx``, ``pow_idx`` and the
one power kernel, ``power_digits``, which builds the powers of any element
(or block) by doubling, run on it.  A prime field builds no companion
stack: its matrix is the 1 x 1 scalar h mod p, so it keeps native ints in
``mul_idx`` and ``pow_idx`` and the doubling step multiplies by a scalar.
``is_irreducible`` runs Rabin's test on C.
The int64 steps are exact while n (p-1)^2 < 2^63, else ContextTooLarge is
raised.  K, the ell-th powers, is built lazily within
TABLE_BUDGET_BYTES and serves the screen and the classes.  No table of all
powers of g is kept: ``dlog_of`` works in the subgroups of prime order.
``shifted`` is the one kernel that adds an element to an array over F_q.

The generator is the element of smallest canonical index with full
multiplicative order, so every table derived from a field is reproducible;
a caller may override it, in which case the override is order-verified.
A supplied modulus is checked on every degree (on a prime field every monic
linear one is irreducible).  Without one a prime field takes x, and an
extension field a Conway polynomial from a small table, falling back to the
lexicographically least monic irreducible.
"""

from __future__ import annotations

import operator
from math import isqrt

import numpy as np

from .errors import (
    CompositeP,
    ContextTooLarge,
    EvenP,
    InternalError,
    InvalidDegree,
    InvalidEll,
    NoModulusAvailable,
    NotAGenerator,
    OutOfDomain,
    ReducibleModulus,
    ZeroElement,
)
from .intmat import IntMatrix

# Conway polynomials for small (p, n), coefficients low-to-high, monic.
CONWAY_POLYNOMIALS = {
    (3, 2): (2, 2, 1),          # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (3, 4): (2, 0, 0, 2, 1),    # x^4 + 2x^3 + 2
    (5, 2): (2, 4, 1),          # x^2 + 4x + 2
    (5, 3): (3, 3, 0, 1),       # x^3 + 3x + 3
    (7, 2): (3, 6, 1),          # x^2 + 6x + 3
    (7, 3): (4, 0, 6, 1),       # x^3 + 6x^2 + 4
    (11, 2): (2, 7, 1),         # x^2 + 7x + 2
    (13, 2): (2, 12, 1),        # x^2 + 12x + 2
}

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Bytes a build over all of F_q may hold at its peak, 8 (n + 2) q: the
# kernel's digit array, its indices and the class array; admits every
# q <= 10^7.
TABLE_BUDGET_BYTES = 1 << 30


def is_prime(m):
    """Deterministic Miller-Rabin, exact for m < psi_13 =
    3317044064679887385961981: the witnesses 2, 3, 5, 7 decide every
    m < psi_4 = 3215031751 (Jaeschke 1993), and the first 13 primes, through
    41, every m < psi_13 (Sorenson and Webster 2017).  The first 12 would
    not: psi_12 = 318665857834031151167461 is composite and passes them."""
    m = operator.index(m)
    if m < 2:
        return False
    for sp in _MR_WITNESSES:
        if m % sp == 0:
            return m == sp
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4 if m < 3215031751 else 13]:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pollard_brent(m):
    """One nontrivial factor of composite odd m (Brent's cycle variant)."""
    from math import gcd

    if m % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g
        c += 1


def factorize(m):
    """Sorted prime factorization of m >= 1 as a list of (prime, exponent).

    Trial division up to 10**6, then Brent-Pollard rho on what remains.
    """
    m = operator.index(m)
    if m < 1:
        raise OutOfDomain("factorize needs m >= 1, not %d" % m)
    factors = {}
    for sp in (2, 3, 5):
        while m % sp == 0:
            factors[sp] = factors.get(sp, 0) + 1
            m //= sp
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= m and f < 10 ** 6:
        while m % f == 0:
            factors[f] = factors.get(f, 0) + 1
            m //= f
        f += wheel[i]
        i = (i + 1) % 8
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        d = _pollard_brent(v)
        stack.append(d)
        stack.append(v // d)
    return sorted(factors.items())


def _companion(coeffs, p, dtype=np.int64):
    """C, the matrix of multiplication by x modulo the monic ``coeffs``
    (low-to-high) on digit vectors: column i holds the digits of x^(i+1),
    the last one those of x^n = -(c_0 + c_1 x + ... + c_(n-1) x^(n-1))."""
    mat = np.eye(len(coeffs) - 1, k=-1, dtype=dtype)
    mat[:, -1] = [-c % p for c in coeffs[:-1]]
    return mat


def _matpow(mat, e, p):
    """mat^e mod p for e >= 0, by square-and-multiply."""
    out = np.eye(len(mat), dtype=mat.dtype)
    while e:
        if e & 1:
            out = out @ mat % p
        e >>= 1
        if e:
            mat = mat @ mat % p
    return out


def is_irreducible(coeffs, p):
    """Whether the monic ``coeffs`` (low-to-high), of degree n >= 1, is
    irreducible over F_p, by Rabin's test (Rabin, "Probabilistic algorithms
    in finite fields", SIAM J. Comput. 9, 1980): f is irreducible iff
    x^(p^n) = x mod f and gcd(x^(p^(n/r)) - x, f) = 1 for every prime r | n.

    Both conditions run on C, the companion matrix of f (multiplication by
    x in F_p[x]/(f)), where h(C) multiplies by h mod f.  The first reads
    C^(p^n) e_0 = C e_0.  A gcd is 1 iff x^(p^(n/r)) - x is a unit mod f,
    that is iff multiplication by it is invertible: det(C^(p^(n/r)) - C)
    is nonzero mod p, taken exactly by ``IntMatrix.det``.  Products are
    int64 while n (p-1)^2 < 2^63 and Python ints past that.
    """
    f = [int(c) % p for c in coeffs]
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    c = _companion(f, p, np.int64 if n * (p - 1) ** 2 < 2 ** 63 else object)
    # the gcds first, largest r first: its exponent p^(n/r) is the
    # smallest, and most reducible f (every one with a root) fail there
    return all(IntMatrix((_matpow(c, p ** (n // r), p) - c).tolist()).det()
               % p for r, _ in reversed(factorize(n))) \
        and np.array_equal(_matpow(c, p ** n, p)[:, 0], c[:, 0])


def find_irreducible(p, n):
    """Lexicographically least monic irreducible of degree n over F_p,
    ordering by the canonical index of the low n coefficients."""
    for m in range(p ** n):
        coeffs = []
        v = m
        for _ in range(n):
            v, r = divmod(v, p)
            coeffs.append(r)
        coeffs.append(1)
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise NoModulusAvailable("no irreducible found for (%d, %d)" % (p, n))


class FieldCtx:
    """A concrete F_{p^n}: modulus, generator and the factors of q - 1.

    Construction resolves the modulus, stacks the powers C^0 .. C^(n-1) of
    its companion matrix C (for n = 1 only C^0 = [1]), factors q - 1 and
    finds the generator.  The digits of K, the ell-th powers, are built
    once per ell on first use; nothing else changes after construction.
    """

    __slots__ = ("p", "n", "q", "modulus", "generator_index", "_subgroups",
                 "factors_qm1", "_x_powers")

    def __init__(self, p, n=1, modulus=None, generator=None):
        p = operator.index(p)
        n = operator.index(n)
        if p % 2 == 0:
            raise EvenP("p must be an odd prime, got %d" % p)
        if not is_prime(p):
            raise CompositeP("p must be prime, got %d" % p)
        if n < 1:
            raise InvalidDegree("extension degree must be >= 1, got %d" % n)
        # n > 63 short-cuts q > 2^63 (p >= 3) without evaluating p ** n
        if n * (p - 1) ** 2 >= 2 ** 63 or n > 63 or p ** n > 2 ** 63:
            raise ContextTooLarge("F_%d^%d is past the int64 table bounds "
                                  "n (p-1)^2 < 2^63, q <= 2^63" % (p, n))
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = self._resolve_modulus(modulus)
        # row i is C^i, flattened; for n == 1 the one row is C^0 = [1]
        if n == 1:
            self._x_powers = np.ones((1, 1), dtype=np.int64)
        else:
            c = _companion(self.modulus, p)
            powers = [np.eye(n, dtype=np.int64)]
            for _ in range(n - 1):
                powers.append(powers[-1] @ c % p)
            self._x_powers = np.array(powers).reshape(n, n * n)
        self.factors_qm1 = factorize(self.q - 1)
        self.generator_index = self._resolve_generator(generator)
        self._subgroups = {}

    # -- construction helpers ------------------------------------------

    def _resolve_modulus(self, modulus):
        p, n = self.p, self.n
        if modulus is not None:
            coeffs = tuple(int(c) % p for c in modulus)
            if len(coeffs) != n + 1 or coeffs[-1] != 1:
                raise ReducibleModulus(
                    "modulus must be monic of degree %d over F_%d" % (n, p))
            if not is_irreducible(list(coeffs), p):
                raise ReducibleModulus(
                    "modulus %s is reducible over F_%d" % (list(coeffs), p))
            return coeffs
        if n == 1:
            return (0, 1)  # x, and F_p[x]/(x) is F_p
        if (p, n) in CONWAY_POLYNOMIALS:
            return CONWAY_POLYNOMIALS[(p, n)]
        return find_irreducible(p, n)

    def _resolve_generator(self, generator):
        if generator is not None:
            given = operator.index(generator)
            idx = given % self.q
            if idx == 0 or not self._has_full_order(idx):
                raise NotAGenerator("generator %d (index %d) does not "
                                    "generate F_%d^*" % (given, idx, self.q))
            return idx
        # for n > 1, indices below p form the prime subfield, whose elements
        # have order dividing p - 1 < q - 1
        for idx in range(2 if self.n == 1 else self.p, self.q):
            if self._has_full_order(idx):
                return idx
        raise InternalError("no generator found; field construction is broken")

    def _has_full_order(self, idx):
        m = self.q - 1
        return all(self.pow_idx(idx, m // f) != 1 for f, _ in self.factors_qm1)

    def require_table_budget(self, what, need=None):
        """Raise ContextTooLarge, before allocating, when ``what`` needs more
        than TABLE_BUDGET_BYTES: ``need``, or 8 (n + 2) q over all of F_q."""
        need = 8 * (self.n + 2) * self.q if need is None else need
        if need > TABLE_BUDGET_BYTES:
            raise ContextTooLarge("%s of F_%d would take %d bytes, past the "
                                  "%d-byte budget"
                                  % (what, self.q, need, TABLE_BUDGET_BYTES))

    def subgroup_order(self, ell):
        """k = (q-1)/ell, the order of K, for an integral ell >= 1 that
        divides q - 1 (TypeError on a non-integral ell, else InvalidEll)."""
        ell = operator.index(ell)
        if ell < 1 or (self.q - 1) % ell != 0:
            raise InvalidEll("ell=%d does not divide q-1=%d"
                             % (ell, self.q - 1))
        return (self.q - 1) // ell

    def subgroup_digits(self, ell):
        """Digits of K = {g^(ell t)}, t < (q-1)/ell: read-only, built once."""
        if ell not in self._subgroups:
            k = self.subgroup_order(ell)
            self.require_table_budget("the subgroup of %d-th powers" % ell)
            h = self.pow_idx(self.generator_index, ell)
            self._subgroups[ell] = power_digits(self, h, k)
            self._subgroups[ell].flags.writeable = False
        return self._subgroups[ell]

    # -- index arithmetic ----------------------------------------------

    def decode(self, idx):
        """Canonical index -> coefficient tuple (length n, low-to-high)."""
        p = self.p
        out = []
        for _ in range(self.n):
            idx, r = divmod(idx, p)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs):
        """Coefficient sequence -> canonical index."""
        p = self.p
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * p + (int(c) % p)
        return idx

    def encode_array(self, digits):
        """int64 (n, m) digit columns -> their m canonical indices."""
        idx = digits[-1].copy()
        for row in digits[-2::-1]:
            idx *= self.p
            idx += row
        return idx

    def shifted(self, arr, z):
        """A new array y[x] = arr[x + z] for an array over F_q: arr viewed as
        (p,)*n, each axis rolled back by its digit of z (axis 0 the top)."""
        y = arr.reshape((self.p,) * self.n)
        for axis, d in enumerate(reversed(self.decode(z))):
            head = (slice(None),) * axis
            y = np.concatenate((y[head + (slice(d, None),)],
                                y[head + (slice(None, d),)]), axis=axis)
        return y.reshape(self.q)

    def add_idx(self, a, b):
        p = self.p
        if self.n == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.n):
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + rb) % p) * mult
            mult *= p
        return out

    def sub_idx(self, a, b):
        return self.add_idx(a, self.neg_idx(b))

    def neg_idx(self, a):
        p = self.p
        if self.n == 1:
            return (-a) % p
        out = 0
        mult = 1
        for _ in range(self.n):
            a, ra = divmod(a, p)
            out += ((-ra) % p) * mult
            mult *= p
        return out

    def mul_matrix(self, h):
        """M_h, the int64 (n, n) matrix of multiplication by h on digit
        vectors (column j holds the digits of h x^j): the sum of h_i C^i
        mod p over the digits h_i of h.  Each entry of the sum is below
        n (p-1)^2 < 2^63."""
        digits = np.array(self.decode(h), dtype=np.int64)
        return (digits @ self._x_powers).reshape(self.n, self.n) % self.p

    def mul_idx(self, a, b):
        p = self.p
        if self.n == 1:
            return a * b % p
        b = np.array(self.decode(b), dtype=np.int64)
        return self.encode((self.mul_matrix(a) @ b % p).tolist())

    def pow_idx(self, a, e):
        """a^e for an integral e (TypeError otherwise); a negative e raises
        ZeroElement on a == 0, which has no inverse."""
        e = operator.index(e)
        if e < 0 and a % self.q == 0:
            raise ZeroElement("zero has no inverse")
        if self.n == 1:
            return pow(a, e, self.p)
        e = e % (self.q - 1) if e < 0 else e
        return self.encode(_matpow(self.mul_matrix(a), e, self.p)[:, 0].tolist())

    # -- public surface --------------------------------------------------

    def dlog_of(self, x):
        """Exponent e in [0, q - 1) with generator**e == x, for an integral
        x (TypeError otherwise); raises ZeroElement on x == 0.

        Pohlig-Hellman (IEEE Trans. Inf. Theory 24, 1978) on the factors of
        q - 1: for each r^a, the a base-r digits of e mod r^a each come from
        a baby-step giant-step in the subgroup of order r, and the CRT joins
        the residues.  The ceil(sqrt r) baby steps are one sorted index
        array from ``power_digits``, within TABLE_BUDGET_BYTES at
        8 (n + 2) ceil(sqrt r) bytes; the giant steps stop at the first hit.
        """
        idx = operator.index(x) % self.q
        if idx == 0:
            raise ZeroElement("dlog of zero is undefined")
        m, e, mod = self.q - 1, 0, 1
        for r, a in self.factors_qm1:
            w = isqrt(r - 1) + 1
            self.require_table_budget("the baby steps of order %d" % r,
                                      8 * (self.n + 2) * w)
            ra = r ** a
            g_r = self.pow_idx(self.generator_index, m // ra)  # order r^a
            x_r = self.pow_idx(idx, m // ra)
            gamma = self.pow_idx(g_r, ra // r)                  # order r
            baby = self.encode_array(power_digits(self, gamma, w))
            order = np.argsort(baby)            # sorted baby[s] = gamma^order[s]
            baby = baby[order]
            giant = self.pow_idx(gamma, r - w)                  # gamma^(-w)
            er = 0
            for i in range(a):
                # h = (x_r g_r^(-er))^(r^(a-1-i)) = gamma^d, d the next digit
                h = self.mul_idx(x_r, self.pow_idx(g_r, -er % ra))
                h = self.pow_idx(h, ra // r ** (i + 1))
                for t in range(-(-r // w)):         # h = gamma^(d - t w)
                    s = int(baby.searchsorted(h))
                    if s < w and baby[s] == h:
                        break
                    h = self.mul_idx(h, giant)
                else:
                    raise InternalError("no discrete log in the subgroup of "
                                        "order %d" % r)
                er += (t * w + int(order[s])) * r ** i
            e += (er - e) * pow(mod, -1, ra) % ra * mod
            mod *= ra
        return e

    def __repr__(self):
        if self.n == 1:
            return "FieldCtx(p=%d)" % self.p
        return "FieldCtx(p=%d, n=%d, modulus=%s)" % (self.p, self.n,
                                                     list(self.modulus))


def power_digits(field, h, m, block=None):
    """Digit vectors of h^0 .. h^(m-1) in ``field``, an int64 (n, m) array;
    given an (n, w) digit ``block``, column j w + c is h^j times its column c.

    The field's one multiplication matrix, ``FieldCtx.mul_matrix(h)``,
    multiplies by h on digit vectors; on a prime field it is the 1 x 1
    scalar h mod p, and the step multiplies the (1, e) block by that scalar
    rather than taking a matrix product.  Each step appends the matrix times
    the columns so far, mod p, then squares the matrix mod p, so it
    multiplies by h^2 at the next step, where the columns double.  Products
    and their sums stay below n (p-1)^2 and indices below q; FieldCtx
    bounds both by 2^63.
    """
    p, n = field.p, field.n
    digits = np.empty((n, m), dtype=np.int64)
    s = 1 if block is None else block.shape[1]
    digits[:, :s] = np.eye(n, 1, dtype=np.int64) if block is None else block
    mul, mat = ((np.multiply, h % p) if n == 1
                else (np.matmul, field.mul_matrix(h)))
    while s < m:
        e = min(s, m - s)
        out = digits[:, s:s + e]
        mul(mat, digits[:, :e], out=out)
        np.mod(out, p, out=out)
        s += e
        if s < m:
            mat = mul(mat, mat) % p
    return digits


def build_field(p, n=1, modulus=None, generator=None):
    """Construct F_{p^n} with verified modulus and generator."""
    return FieldCtx(p, n=n, modulus=modulus, generator=generator)

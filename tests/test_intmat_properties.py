"""Property tests of the exact polynomial and matrix routines against oracles.

Two independent oracles:

* a reference Sturm isolation and bisection in exact Fractions, the same
  algorithm as IntPoly.real_roots with the arithmetic done the obvious way;
  every endpoint is the same rational number, so the floats must agree bit
  for bit;
* sympy (a test-only dependency): squarefree factors, exact real roots,
  determinants, ranks and characteristic polynomials.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclomat import IntMatrix, IntPoly
from cyclomat import intmat

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")
TOLS = (1e-12, 1e-9, 1e-6)


# ----------------------------------------------------------------------
# Fraction reference: Sturm isolation and bisection on one squarefree factor
# ----------------------------------------------------------------------

def _fr_value(c, x):
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _fr_rem(a, b):
    a = a[:]
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, v in enumerate(b):
            a[k + i] -= f * v
        while a and a[-1] == 0:
            a.pop()
    return a


def _fr_variations(chain, x):
    signs = [v > 0 for v in (_fr_value(s, x) for s in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _fr_bisect(c, a, b, tol):
    fa, fb = _fr_value(c, a), _fr_value(c, b)
    if fb == 0:
        return float(b)
    assert (fa > 0) != (fb > 0)
    while b - a > tol:
        mid = (a + b) / 2
        fm = _fr_value(c, mid)
        if fm == 0:
            return float(mid)
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return float((a + b) / 2)


def reference_roots(coeffs, tol):
    """Real roots of a squarefree integer polynomial (low-to-high), floats."""
    c = [Fraction(v) for v in coeffs]
    if len(c) == 2:
        return [float(-c[0] / c[1])]
    chain = [c, [i * c[i] for i in range(1, len(c))]]
    while True:
        r = _fr_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-v for v in r])

    def count(a, b):
        return _fr_variations(chain, a) - _fr_variations(chain, b)

    tol = Fraction(tol).limit_denominator(10 ** 18)
    bound = 2 + sum(abs(v) for v in c[:-1]) / abs(c[-1])
    roots, stack = [], [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        n = count(a, b)
        if n == 1:
            roots.append(_fr_bisect(c, a, b, tol))
        elif n > 1:
            mid = (a + b) / 2
            if _fr_value(c, mid) == 0:
                roots.append(float(mid))
                delta = (b - a) / 4
                while (_fr_value(c, mid - delta) == 0
                       or _fr_value(c, mid + delta) == 0
                       or count(mid - delta, mid + delta) != 1):
                    delta /= 2
                stack += [(a, mid - delta), (mid + delta, b)]
            else:
                stack += [(a, mid), (mid, b)]
    return roots


# ----------------------------------------------------------------------
# sympy helpers and strategies
# ----------------------------------------------------------------------

def normalized(coeffs):
    """Primitive, positive lead, low-to-high tuple."""
    g = 0
    for v in coeffs:
        g = sympy.igcd(g, v)
    c = [int(v) // g for v in coeffs]
    return tuple(-v for v in c) if c[-1] < 0 else tuple(c)


def sympy_sqf(poly):
    _, factors = sympy.Poly(list(reversed(poly.coeffs)), X).sqf_list()
    return sorted((normalized(f.all_coeffs()[::-1]), m) for f, m in factors
                  if f.degree() > 0)


def hexed(roots):
    return sorted((r.hex(), m) for r, m in roots)


nonzero = st.integers(-5, 5).filter(bool)
linear = st.builds(lambda a, b: IntPoly([-b, a]),
                   st.integers(1, 6), st.integers(-9, 9))
quadratic = st.builds(lambda a, b, c: IntPoly([c, b, a]), st.integers(1, 4),
                      st.integers(-9, 9), st.integers(-9, 9))
cubic = st.builds(lambda a, b, c, d: IntPoly([d, c, b, a]), nonzero,
                  st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
factor_powers = st.lists(
    st.tuples(st.one_of(linear, quadratic, cubic), st.integers(1, 3)),
    min_size=1, max_size=3)


def product(lead, parts):
    out = IntPoly([lead])
    for f, m in parts:
        out = out * f ** m
    return out


polys = st.builds(product, nonzero, factor_powers)
EXAMPLES = [IntPoly([0, 0, 1]), IntPoly([-1, 0, 4]) * IntPoly([0, 1]) ** 2,
            IntPoly([-2, 0, 1]) ** 3 * IntPoly([-8, 1]),
            IntPoly([1, -3, 0, 2]) * IntPoly([3, -2]) ** 2,
            -7 * IntPoly([1, 0, 1]) * IntPoly([5, 3]),
            # a root at the first midpoint, 0, with others close by: the
            # interval around it must shrink more than once
            IntPoly([0, -1, 0, 1]), IntPoly([0, -1, 1000]),
            IntPoly([0, -1, 6]) ** 2 * IntPoly([-3, 0, 1])]


def _with_examples(test):
    for p in EXAMPLES:
        test = example(poly=p)(test)
    return test


@settings(max_examples=80, deadline=None)
@_with_examples
@given(poly=polys)
def test_real_roots_match_fraction_reference(poly):
    for tol in TOLS:
        want = []
        for f, m in poly.squarefree_decomposition():
            want += [(r, m) for r in reference_roots(f.coeffs, tol)]
        got = poly.real_roots(tol)
        assert hexed(got) == hexed(want)
        assert [r for r, _ in got] == sorted(r for r, _ in got)


@settings(max_examples=60, deadline=None)
@_with_examples
@given(poly=polys)
def test_squarefree_and_roots_match_sympy(poly):
    ours = sorted((f.coeffs, m) for f, m in poly.squarefree_decomposition())
    assert ours == sympy_sqf(poly)
    want = sorted(float(r.evalf(30)) for r in sympy.real_roots(
        sympy.Poly(list(reversed(poly.coeffs)), X)))
    for tol in (1e-12, 1e-6):
        got = sorted(r for r, m in poly.real_roots(tol) for _ in range(m))
        assert len(got) == len(want)
        assert all(abs(a - b) <= tol for a, b in zip(got, want))


@pytest.mark.parametrize("coeffs", [[-2, 0, 1], [-6, 0, 1], [-1, -1, 0, 1]])
def test_stop_rule_at_an_exact_tolerance(coeffs):
    # interval widths 2 * bound / 2^j reach these tolerances exactly, where
    # "wider than tol" and "at least tol" part ways
    poly = IntPoly(coeffs)
    for tol in (0.5, 2.0 ** -20, 2.0 ** -40):
        got = poly.real_roots(tol)
        want = [(r, 1) for r in reference_roots(coeffs, tol)]
        assert hexed(got) == hexed(want)


@pytest.mark.parametrize("coeffs", [
    [2500001, -5000003, 1],            # a hit's M at q near 10^7: big roots
    [-(10 ** 400), 0, 1],              # coefficients past float range
    [3, -4, 1, 0, 0, 0, 0, 0, 1],      # degree 8, roots near 0.8 and 1
    [-(2 ** 61) - 1, 0, 2 ** 61],      # a root just above 1, far below tol
])
def test_real_roots_far_from_the_float_guess(coeffs):
    # the grid search starts from a float guess that is off by many cells,
    # or absent; the roots must still be the bisection's, bit for bit
    poly = IntPoly(coeffs)
    for tol in (1e-12, 1e-9):
        want = []
        for f, m in poly.squarefree_decomposition():
            want += [(r, m) for r in reference_roots(f.coeffs, tol)]
        assert hexed(poly.real_roots(tol)) == hexed(want)


@settings(max_examples=60, deadline=None)
@example(poly=EXAMPLES[2], shift=1)
@example(poly=EXAMPLES[6], shift=-3)
@given(poly=polys, shift=st.integers(-(2 ** 40), 2 ** 40))
def test_real_roots_do_not_depend_on_the_float_guess(poly, shift):
    want = poly.real_roots()
    guess = intmat._grid_guess
    try:
        intmat._grid_guess = lambda *args: guess(*args) + shift
        got = poly.real_roots()
    finally:
        intmat._grid_guess = guess
    assert hexed(got) == hexed(want)


matrices = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                       min_size=d, max_size=d))


@settings(max_examples=80, deadline=None)
@example(rows=[[0, 0], [0, 0]])
@example(rows=[[1, 2, 3], [2, 4, 6], [1, 1, 1]])
@given(rows=matrices)
def test_det_rank_charpoly_match_sympy(rows):
    m, ref = IntMatrix(rows), sympy.Matrix(rows)
    assert m.det() == ref.det()
    assert m.rank() == ref.rank()
    want = [int(v) for v in reversed(ref.charpoly(X).all_coeffs())]
    assert list(m.charpoly().coeffs) == want


def _sympy_det_rank(rows):
    # sympy's domain matrices over ZZ: sympy.Matrix's det and rank do not
    # finish in 100 s at 40 x 40
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    d = len(rows)
    ref = DomainMatrix([[ZZ(v) for v in row] for row in rows], (d, d), ZZ)
    return ref.det(), ref.rank()


@st.composite
def rank_deficient_matrices(draw):
    # d rows, each an integer combination of r < d basis rows in echelon
    # form whose pivot columns are drawn with gaps: a column between two
    # pivots is zero below the pivot rows once the earlier columns are
    # cleared, so the elimination must skip it and keep the previous pivot
    d = draw(st.integers(2, 10))
    r = draw(st.integers(0, d - 1))
    pivots = sorted(draw(st.lists(st.integers(0, d - 1), min_size=r,
                                  max_size=r, unique=True)))
    basis = [[0] * c + [draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))]
             + draw(st.lists(st.integers(-4, 4), min_size=d - c - 1,
                             max_size=d - c - 1))
             for c in pivots]
    weights = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r,
                                     max_size=r), min_size=d, max_size=d))
    return [[sum(w * b[j] for w, b in zip(ws, basis)) for j in range(d)]
            for ws in weights]


@settings(max_examples=150, deadline=None)
@example(rows=[[0, 1, 2], [0, 2, 4], [0, 3, 7]])
@example(rows=[[1, 2, 0, 1], [2, 4, 0, 3], [3, 6, 0, 4], [1, 2, 0, 2]])
@given(rows=rank_deficient_matrices())
def test_det_rank_of_rank_deficient_matrices_match_sympy(rows):
    m = IntMatrix(rows)
    det, rank = _sympy_det_rank(rows)
    assert m.det() == det == 0
    assert m.rank() == rank < m.dim


def _random_rows(rng, d, e):
    return [[rng.randint(-9, 9) for _ in range(e)] for _ in range(d)]


def test_det_rank_at_order_40_match_sympy():
    import random

    rng = random.Random(40)
    full = _random_rows(rng, 40, 40)
    left, right = _random_rows(rng, 40, 25), _random_rows(rng, 25, 40)
    low = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
           for row in left]
    for rows, want in ((full, 40), (low, 25)):
        m = IntMatrix(rows)
        det, rank = _sympy_det_rank(rows)
        assert rank == want
        assert (m.det(), m.rank()) == (det, rank)

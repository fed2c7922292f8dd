import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cyclomat import DimensionMismatch, IntMatrix, IntPoly, OutOfDomain
from cyclomat.intmat import _squarefree_real_roots, _tolerance_ratio

from oracles import perm_shift
from reference_data import A_131_L10, A_37_L4, CHARPOLY_A_37_L4, S_73_L8


def cofactor_det(rows):
    """Independent determinant oracle: Leibniz sum over permutations."""
    d = len(rows)
    total = 0
    for perm in permutations(range(d)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(d) for j in range(i + 1, d)
                  if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(d):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def test_basic_ops():
    j2 = IntMatrix.ones(2)
    assert j2 * j2 == 2 * j2
    e01 = IntMatrix.elementary(2, 0, 1)
    e10 = IntMatrix.elementary(2, 1, 0)
    assert e01 * e10 == IntMatrix.elementary(2, 0, 0)
    assert IntMatrix.identity(5).trace() == 5
    a = IntMatrix([[1, 2], [3, 4]])
    assert a + a == 2 * a
    assert a - a == IntMatrix.zeros(2)
    assert (-a).rows == [[-1, -2], [-3, -4]]
    assert a.transpose().rows == [[1, 3], [2, 4]]
    assert a ** 2 == a * a
    assert a ** 0 == IntMatrix.identity(2)
    with pytest.raises(DimensionMismatch):
        a * IntMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 2], [3]])


def test_perm_shift_properties():
    assert perm_shift(3, 0) == IntMatrix.identity(3)
    p2 = perm_shift(4, 2)
    assert p2 * p2 == IntMatrix.identity(4)
    for d in (2, 3, 5, 10):
        for v in range(d):
            pv = perm_shift(d, v)
            assert pv * pv.transpose() == IntMatrix.identity(d)
            assert pv.det() in (1, -1)


def test_perm_shift_cycles_rows():
    a = IntMatrix(A_131_L10)
    p5 = perm_shift(10, 5)
    cycled = p5 * a
    for i in range(10):
        assert cycled.rows[i] == a.rows[(i - 5) % 10]


def test_det_matches_cofactor_expansion():
    rng = random.Random(42)
    for _ in range(200):
        d = rng.randrange(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        assert IntMatrix(rows).det() == cofactor_det(rows)


def test_det_special_cases():
    assert IntMatrix.identity(7).det() == 1
    assert IntMatrix([[]] * 0).det() == 1
    # zero pivot forces a row swap
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    # singular
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix(A_37_L4).det() == -14


def test_charpoly_known_values():
    assert IntMatrix.identity(2).charpoly() == IntPoly([1, -2, 1])
    assert IntMatrix(A_37_L4).charpoly() == IntPoly(CHARPOLY_A_37_L4)
    # product expansion as the independent route
    expected = IntPoly([-8, 1]) * IntPoly([-8, 0, 1]) ** 3
    assert IntMatrix(S_73_L8).charpoly() == expected


def test_charpoly_cayley_hamilton_and_det():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randrange(1, 6)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(d)]
                       for _ in range(d)])
        cp = m.charpoly()
        assert cp.coeffs[-1] == 1 and cp.degree == d
        assert cp.at_matrix(m).is_zero()
        assert m.det() == (-1) ** d * cp(0)


def test_exactness_beyond_word_size():
    c = 10 ** 30
    m = c * IntMatrix.identity(5)
    assert m.det() == c ** 5
    # Bareiss intermediates overflow any fixed width long before this
    rows = [[c + i * j for j in range(6)] for i in range(6)]
    rows[0][0] += 1
    m = IntMatrix(rows)
    assert m.det() == cofactor_det(rows)
    cp = m.charpoly()
    assert cp.at_matrix(m).is_zero()


def test_rank():
    assert IntMatrix.ones(4).rank() == 1
    assert IntMatrix.identity(4).rank() == 4
    assert IntMatrix.zeros(3).rank() == 0
    assert IntMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).rank() == 2


def test_minor():
    a = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.minor(1, 0) == IntMatrix([[2, 3], [8, 9]])


def test_poly_arithmetic():
    x = IntPoly.x()
    p = (x - 1) * (x + 1)
    assert p == IntPoly([-1, 0, 1])
    assert p(3) == 8
    assert p.derivative() == IntPoly([0, 2])
    assert (x ** 3).coeffs == (0, 0, 0, 1)
    assert IntPoly([1, 2]) + IntPoly([1, -2]) == IntPoly([2])
    assert IntPoly([0]).degree == -1
    m = IntMatrix([[2, 0], [0, 3]])
    assert x.at_matrix(m) == m
    assert IntPoly([5]).at_matrix(m) == 5 * IntMatrix.identity(2)


def test_poly_operators_refuse_other_types():
    p = IntPoly([1, 2])
    for other in (1.5, "x"):
        for op in (lambda: p + other, lambda: other + p, lambda: p - other,
                   lambda: other - p, lambda: p * other, lambda: other * p):
            with pytest.raises(TypeError):
                op()
    assert p * 3 == 3 * p == IntPoly([3, 6])
    assert p + 1 == IntPoly([2, 2]) and p - 1 == IntPoly([0, 2])


def test_squarefree_decomposition():
    x = IntPoly.x()
    p = (x - 1) ** 2 * (x + 2)
    factors = p.squarefree_decomposition()
    assert (IntPoly([2, 1]), 1) in factors
    assert (IntPoly([-1, 1]), 2) in factors
    p = (x - 8) * (x * x - 8) ** 3
    factors = dict((mult, f) for f, mult in p.squarefree_decomposition())
    assert factors[1] == IntPoly([-8, 1])
    assert factors[3] == IntPoly([-8, 0, 1])


def test_real_roots_simple():
    x = IntPoly.x()
    roots = ((x * x - 2) * (x - 3)).real_roots()
    values = [r for r, _ in roots]
    assert len(values) == 3
    assert abs(values[0] + math.sqrt(2)) < 1e-11
    assert abs(values[1] - math.sqrt(2)) < 1e-11
    assert abs(values[2] - 3.0) < 1e-11


def test_real_roots_multiplicities():
    x = IntPoly.x()
    p = (x - 1) ** 2 * (x + 2) ** 3
    roots = p.real_roots()
    assert [m for _, m in roots] == [3, 2]
    assert abs(roots[0][0] + 2.0) < 1e-11
    assert abs(roots[1][0] - 1.0) < 1e-11
    # no real roots
    assert (x * x + 1).real_roots() == []


def test_real_roots_of_reference_charpoly():
    roots = IntMatrix(S_73_L8).charpoly().real_roots()
    expected = [(-2 * math.sqrt(2), 3), (2 * math.sqrt(2), 3), (8.0, 1)]
    assert len(roots) == 3
    for (r, m), (er, em) in zip(roots, expected):
        assert m == em
        assert abs(r - er) < 1e-11


def test_public_constructor_checks_and_results_are_fresh_ints():
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1], [2]])
    m = IntMatrix(np.array([[1, 2], [3, 4]], dtype=np.int64))
    assert m.rows == [[1, 2], [3, 4]]
    assert all(type(v) is int for row in m.rows for v in row)
    # results are built without the check: each must still hold fresh rows
    # of Python ints of the right length, and leave the operands alone
    a = IntMatrix([[1, 2], [3, 4]])
    results = [a + a, a - a, -a, a.scale(np.int64(3)), 3 * a, a.transpose(),
               a * a, a.minor(0, 0), a ** 3, IntPoly([1, 2, 1]).at_matrix(a),
               IntMatrix.identity(2), IntMatrix.ones(2)]
    for r in results:
        assert len(r.rows) == r.dim
        assert all(len(row) == r.dim for row in r.rows)
        assert all(type(v) is int for row in r.rows for v in row)
        assert not any(row is arow for row in r.rows for arow in a.rows)
    assert a * a == IntMatrix([[7, 10], [15, 22]])
    assert IntPoly([5]).at_matrix(a) == 5 * IntMatrix.identity(2)
    assert IntPoly([1, 2, 1]).at_matrix(a) == a * a + 2 * a \
        + IntMatrix.identity(2)
    assert a.charpoly() == IntPoly([-2, -5, 1])
    assert a.rows == [[1, 2], [3, 4]]


def test_real_roots_converts_each_tolerance_once():
    x = IntPoly.x()
    p = (x * x - 2) * (x * x - 3 * x + 1) * (x - 5)
    tol = 3.7e-10                        # a tolerance no other test uses
    before = _tolerance_ratio.cache_info()
    first = p.real_roots(tol)
    assert p.real_roots(tol) == first
    after = _tolerance_ratio.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    # bit-identical to converting the tolerance on every call
    f = Fraction(tol).limit_denominator(10 ** 18)
    direct = [(r, m) for fac, m in p.squarefree_decomposition()
              for r in _squarefree_real_roots(fac, f.numerator, f.denominator)]
    assert first == sorted(direct)


def test_real_roots_rejects_tolerance_outside_its_domain():
    p = IntPoly([-2, 0, 1])
    # 1e-19 and 0 rounded to 0 (ZeroDivisionError), -1e-3 gave roots, nan
    # and inf raised ValueError and OverflowError
    for tol in (0, 0.0, 1e-19, 4e-19, -1e-3, -math.inf, math.nan, math.inf):
        with pytest.raises(OutOfDomain):
            p.real_roots(tol)
    (lo, _), (hi, _) = p.real_roots(1e-18)
    assert abs(hi - math.sqrt(2)) < 1e-15 and lo == -hi


def _sign_evaluations_per_root(monkeypatch, coeffs):
    # {root: the _value_at calls _bisect_root made to find it}
    from cyclomat import intmat

    calls, inside, counts = [0], [False], {}
    value_at, bisect_root = intmat._value_at, intmat._bisect_root

    def counted(*args):
        calls[0] += inside[0]
        return value_at(*args)

    def bisect(*args):
        inside[0], calls[0] = True, 0
        try:
            root = bisect_root(*args)
            counts[root] = calls[0]
            return root
        finally:
            inside[0] = False

    monkeypatch.setattr(intmat, "_value_at", counted)
    monkeypatch.setattr(intmat, "_bisect_root", bisect)
    IntPoly(coeffs).real_roots()
    return counts


def test_grid_guess_stays_in_its_bracket(monkeypatch):
    # Newton from the middle of the root 0.249992's interval (0, 135.813]
    # converges to the neighbouring root 135.967 just past it; bisecting
    # the float bracket instead of leaving it keeps the guess on 0.249992,
    # which a grid search from no guess took 50 sign evaluations to find.
    # The root -135.967 on (-569639933, 0] took 33: its float offset from
    # the far end lost about 2^16 cells of 1e-12, which an exact map keeps
    counts = _sign_evaluations_per_root(
        monkeypatch, (-113916894, 455686063, -12325, -24649, 1))
    root = min(counts, key=lambda r: abs(r - 0.25))
    assert abs(root - 0.249992) < 1e-6 and counts[root] < 15
    assert len(counts) == 4 and max(counts.values()) < 15


@pytest.mark.parametrize("coeffs", [
    (-8036102364, 32144564725, -103513, -207025, 1),
    (-102743564, 410991813, -11705, -23409, 1),
    (-113916894, 455686063, -12325, -24649, 1),
])
def test_grid_guess_converges_on_wide_intervals(monkeypatch, coeffs):
    # characteristic polynomials of ell = 4 search hits; the negative root's
    # isolation interval reaches down to about -bound (-4e10 for the first),
    # where twelve Newton steps from its midpoint stop far from the root and
    # the grid search gallops over most of the 2^76 cells (161-186 sign
    # evaluations in all); Newton run to within a cell leaves under 100
    counts = _sign_evaluations_per_root(monkeypatch, coeffs)
    assert len(counts) == 4 and sum(counts.values()) < 100


def test_powers_take_integral_exponents_only():
    a = IntMatrix([[1, 1], [0, 1]])
    p = IntPoly([1, 1])
    assert a ** np.int64(2) == a * a == IntMatrix([[1, 2], [0, 1]])
    assert p ** np.int64(2) == p * p == IntPoly([1, 2, 1])
    for base in (a, p):
        with pytest.raises(OutOfDomain):
            base ** -1
        with pytest.raises(TypeError):
            base ** 1.5


def test_elementary_needs_a_positive_dimension():
    assert IntMatrix.elementary(1, 0, 0) == IntMatrix.identity(1)
    for d in (0, -1):
        with pytest.raises(DimensionMismatch):
            IntMatrix.elementary(d, 0, 0)

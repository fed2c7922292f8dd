"""Oracle routes for the cyclotomic numbers, kept apart from the package.

power_table lists the generator's powers by repeated schoolbook products
(``field_product``), one at a time, so it shares nothing with the
multiplication matrix behind mul_idx, pow_idx and the doubling kernel that
builds K's digits and the classes in cyclomat.  The coset, set-enumeration
and pair-count oracles read only that table and the field's own addition.
perm_shift is the cyclic permutation matrix P_v the derived matrices are
checked against.
"""

from functools import lru_cache

import numpy as np

from cyclomat import IntMatrix, InvalidEll


def field_product(field, a, b):
    """a * b in ``field`` by schoolbook: a * b % p on a prime field, else
    the product of the coefficient lists, reduced by the monic modulus
    from the top coefficient down."""
    p, n = field.p, field.n
    if n == 1:
        return a * b % p
    x, y = field.decode(a), field.decode(b)
    prod = [0] * (2 * n - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            prod[i + j] += u * v
    for top in range(2 * n - 2, n - 1, -1):
        c = prod.pop()
        for i, m in enumerate(field.modulus[:n]):
            prod[top - n + i] -= c * m
    return field.encode(prod)


@lru_cache(maxsize=64)
def power_table(field):
    """(pows, dlog), read-only int64 arrays: pows[e] = g^e for e < q - 1, by
    repeated multiplication, and dlog[x] = e with g^e = x, dlog[0] = -1."""
    g, q = field.generator_index, field.q
    powers = [1]
    for _ in range(q - 2):
        powers.append(field_product(field, powers[-1], g))
    if field_product(field, powers[-1], g) != 1 or len(set(powers)) != q - 1:
        raise AssertionError("generator of F_%d lacks full order" % q)
    pows = np.array(powers, dtype=np.int64)
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[pows] = np.arange(q - 1)
    pows.flags.writeable = dlog.flags.writeable = False
    return pows, dlog


def coset_indices(field, i, ell):
    """Canonical indices of the coset g^i K, where K is the ell-th powers."""
    return power_table(field)[0][i % ell::ell]


def table_by_set_enumeration(field, ell):
    """The full table recomputed by literal set intersection.

    Builds every coset as a Python set of canonical indices and intersects
    1 + g^i K with g^j K elementwise.  O(ell * q), from the power table and
    field addition alone, so independent of the class array and the table
    pass; used as the oracle for them.
    """
    if (field.q - 1) % ell != 0:
        raise InvalidEll("ell must divide q-1")
    cosets = [frozenset(int(v) for v in coset_indices(field, i, ell))
              for i in range(ell)]
    add = field.add_idx
    table = []
    for i in range(ell):
        plus_one = {add(1, x) for x in cosets[i]}
        table.append([len(plus_one & cosets[j]) for j in range(ell)])
    return table


def cyclotomic_number_by_pair_count(field, ell, i, j):
    """(i, j) recomputed by brute-force pair enumeration: the number of
    ordered pairs (a, b) in g^i K x g^j K with 1 + a = b."""
    add = field.add_idx
    ai = [int(v) for v in coset_indices(field, i, ell)]
    bj = set(int(v) for v in coset_indices(field, j, ell))
    return sum(1 for a in ai if add(1, a) in bj)


def perm_shift(d, v):
    """Cyclic-shift permutation P_v: (i, j)-entry is 1 iff i - j = v (mod d).

    Satisfies P_v^T = P_v^{-1} = P_{-v}, and left-multiplying by P_v moves
    row i-v of the operand into row i (rows cycled down by v).
    """
    return IntMatrix([[1 if (i - j - v) % d == 0 else 0 for j in range(d)]
                      for i in range(d)])

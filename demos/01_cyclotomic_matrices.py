"""Building cyclotomic matrices.

Walks through the basic objects: a finite field with its deterministic
generator, the table of cyclotomic numbers for a divisor ell of q-1, and
the derived matrices A, M, B, S.
"""

from cyclomat import CycloCtx, build_field, build_matrices
from cyclomat.report import matrix_pretty

# A prime field first: F_131 with ell = 10.  The generator is chosen
# deterministically (smallest element of full multiplicative order), which
# for 131 is the primitive root 2.
field = build_field(131)
print("q = %d, generator = %d" % (field.q, field.generator_index))

ctx = CycloCtx(field, 10)
print("k = (q-1)/ell = %d, half-shift q' = %d" % (ctx.k, ctx.qprime))
print()

dm = build_matrices(ctx)
print(matrix_pretty(dm.A, label="A = [(i,j)]"))

# Row sums are k except at the half-shift row (k-1); column sums are k
# except at column 0.  Both checked at construction, shown here for one row.
print("row q' sum:", sum(dm.A.rows[ctx.qprime]), "= k - 1 =", ctx.k - 1)
print()

# M cycles the rows of A by q' and is symmetric; S is its (0,0)-minor.
print(matrix_pretty(dm.M, label="M (symmetric row-cycled A)"))
print("M symmetric:", dm.M.is_symmetric(), "| S symmetric:",
      dm.S.is_symmetric())
print()

# An extension field: F_343 = F_7[x]/(x^3 + 6x^2 + 4), ell = 6.  The class
# of x generates the multiplicative group, so it is the chosen generator.
f343 = build_field(7, 3)
print("modulus coefficients (low to high):", list(f343.modulus))
ctx343 = CycloCtx(f343, 6)
print(matrix_pretty(build_matrices(ctx343).A, label="A for q = 343, ell = 6"))

# Indices extend periodically to all integers.
print("(0, 3)  =", ctx343.num(0, 3))
print("(6, -3) =", ctx343.num(6, -3), " (same entry mod ell)")

"""Spectra and determinants on a difference-set hit.

When K is a difference set, the symmetrized matrices M and S have closed
annihilating polynomials, so their spectra are certified exactly; numeric
root values come from Sturm isolation on the exact characteristic
polynomials.  Determinants of A and B follow in closed form.
"""

import math

from cyclomat import CycloCtx, IntPoly, build_field, build_matrices

ctx = CycloCtx(build_field(73), 8)
k, lam = ctx.k, 1
n = k - lam
dm = build_matrices(ctx)

# Annihilating polynomials evaluate to the zero matrix, exactly.
ann_m = IntPoly([lam, -k, 1]) * IntPoly([-n, 0, 1])
ann_s = IntPoly([-n, 1]) * IntPoly([-n, 0, 1])
print("(M^2 - %dM + %dI)(M^2 - %dI) = 0:" % (k, lam, n),
      ann_m.at_matrix(dm.M).is_zero())
print("(S - %dI)(S^2 - %dI) = 0:      " % (n, n),
      ann_s.at_matrix(dm.S).is_zero())
print()

# Exact characteristic polynomials and their isolated real roots.
cp_s = dm.S.charpoly()
print("char(S) coefficients (low to high):", list(cp_s.coeffs))
print("char(S) = (x - 8)(x^2 - 8)^3:",
      cp_s == IntPoly([-8, 1]) * IntPoly([-8, 0, 1]) ** 3)
for root, mult in cp_s.real_roots():
    print("   root %+.12f  multiplicity %d" % (root, mult))
print("   (compare 2*sqrt(2) = %.12f)" % (2 * math.sqrt(2)))
print()

roots_m = dm.M.charpoly().real_roots()
print("Spec(M) roots:", ["%.10f" % r for r, _ in roots_m])
print("(9 ± sqrt(77))/2 =", "%.10f" % ((9 - math.sqrt(77)) / 2),
      "and", "%.10f" % ((9 + math.sqrt(77)) / 2))
print()

# Determinants in closed form: det(A) = -lam * n^(ell/2 - 1),
# det(B) = (-1)^(ell/2 - 1) n^(ell/2).
print("det(A) =", dm.A.det(), "predicted", -lam * n ** (ctx.ell // 2 - 1))
print("det(B) =", dm.B.det(),
      "predicted", (-1) ** (ctx.ell // 2 - 1) * n ** (ctx.ell // 2))
print()

# The quartic case q = 37 has an irreducible characteristic polynomial for
# A itself; its constant term recovers det(A) = -14.
a37 = build_matrices(CycloCtx(build_field(37), 4)).A
print("char(A) for q = 37:", a37.charpoly())
print("det(A) =", a37.det())

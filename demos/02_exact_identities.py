"""The exact identity layer.

Every law the shifted matrices A_v satisfy is checked exactly, with the
group-ring convolution as the independent oracle for the structure
constants.  This script runs the full ledger on two fields and prints the
commutator correction that makes A "almost" normal.
"""

from cyclomat import (
    CycloCtx,
    build_field,
    run_identity_suite,
    shifted_matrix,
)
from cyclomat.report import matrix_pretty

ctx = CycloCtx(build_field(7, 3), 6)

# A^T A - A A^T vanishes except for -k at (0,0) and +k at (q', q').
a = shifted_matrix(ctx, 0)
comm = a.transpose() * a - a * a.transpose()
print(matrix_pretty(comm, label="A^T A - A A^T for q = 343"))
print("entries are -k and +k with k =", ctx.k)
print()

# The full ledger: structure constants by convolution, the product law,
# the transposed law, commutators, traces, the total square sum, the
# four-index inner-product identity, and the column-product reductions.
for (p, n, ell) in ((7, 3, 6), (131, 1, 10)):
    ctx = CycloCtx(build_field(p, n), ell)
    res = run_identity_suite(ctx)
    print("q = %4d, ell = %2d: %d checks, all pass = %s"
          % (ctx.q, ell, len(res.checks), res.passed))
    for check in res.checks:
        mark = "skip" if check.skipped else ("ok" if check.ok else "FAIL")
        print("   %-34s %s" % (check.name, mark))
    print()

# One concrete trace identity: tr(A^3) depends on a single table entry.
ctx = CycloCtx(build_field(7, 3), 6)
a = shifted_matrix(ctx, 0)
lhs = (a * a * a).trace()
rhs = ctx.num(0, ctx.qprime) * (ctx.q - 3 * ctx.k) \
    + ctx.k ** 2 * (ctx.k - 1)
print("tr(A^3) = %d = (0,q')(q-3k) + k^2(k-1) = %d" % (lhs, rhs))

"""Detecting power difference sets.

Four independent detectors decide whether the subgroup K of ell-th powers
is a difference set; on a hit the full certificate battery runs.  This
script compares a hit (q = 73, ell = 8) with a miss (q = 131, ell = 10),
scans small ranges, and looks at the modified sets K ∪ {0}.
"""

import json

from cyclomat import (
    CycloCtx,
    build_field,
    build_report,
    is_diffset_bruteforce,
    is_diffset_gram,
    is_diffset_lehmer,
    is_diffset_sumsq,
    modified_diffset,
    search,
)

for p, ell in ((73, 8), (131, 10)):
    ctx = CycloCtx(build_field(p), ell)
    print("q = %d, ell = %d:" % (p, ell))
    print("   bruteforce :", is_diffset_bruteforce(ctx))
    print("   lehmer     :", is_diffset_lehmer(ctx))
    print("   sumsq      :", is_diffset_sumsq(ctx))
    print("   gram       :", is_diffset_gram(ctx))
print()

# The full report for the octic-residue hit at q = 73: lambda = 1,
# certificates all exact.
report = build_report(CycloCtx(build_field(73), 8))
print("q = 73 report:")
print(json.dumps(report.to_obj()["verdicts"], indent=2))
print("lambda =", report.lam, "| certificates pass =",
      report.certificates_pass)
print()

# Quadratic residues: hits are the prime powers q = 3 (mod 4) (the trivial
# q = 3, where K = {1}, is excluded).  Quartic residues: 37, 101, 197, ...
print("ell = 2 hits up to 60: ", [r.q for r in search(2, 60)])
print("ell = 4 hits up to 200:", [r.q for r in search(4, 200)])
print("ell = 8 hits up to 100:", [r.q for r in search(8, 100)])
print()

# Search reports carry the data behind two open problems: whether q must
# be prime and whether k must be a perfect square.
for r in search(4, 200):
    print("q = %3d: q prime = %s, k = %2d square = %s"
          % (r.q, r.q_is_prime, r.k, r.k_is_square))
print()

# Modified sets K ∪ {0} at ell = 2: difference set exactly when q = 3 mod 4.
for q in (7, 11, 13):
    rep = modified_diffset(CycloCtx(build_field(q), 2))
    print("q = %2d: K ∪ {0} difference set = %-5s lambda0 = %s"
          % (q, rep.is_difference_set, rep.lam0))

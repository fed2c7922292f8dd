"""The literal group-ring oracles for the FFT kernel of the identity layer
and for the difference counts of the screen.

GroupRingElem multiplies finitely supported combinations of additive-group
elements by pair enumeration with the field's own addition, so its products
share nothing with the character transforms in cyclomat.schur.  Cosets come
from the repeated-multiplication power table of oracles.py.
class_convolution_counts reads one pair's counts off those transforms, for
comparison with the oracle.  difference_counts_literal enumerates every pair
of K x K with the field's subtraction, sharing nothing with the shifted
membership arrays of cyclomat.diffset.
"""

from cyclomat.schur import _class_products

from oracles import coset_indices, power_table


class GroupRingElem:
    """Finitely supported integer combination of additive-group elements,
    keyed by canonical index."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=None):
        self.field = field
        self.coeffs = {int(k): int(v) for k, v in (coeffs or {}).items()
                       if int(v) != 0}

    def coefficient(self, idx):
        return self.coeffs.get(int(idx), 0)

    @property
    def support_size(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, GroupRingElem)
                and self.field is other.field and self.coeffs == other.coeffs)

    def __mul__(self, other):
        """Convolution over the additive group of the field."""
        add = self.field.add_idx
        out = {}
        for x, cx in self.coeffs.items():
            for y, cy in other.coeffs.items():
                z = add(x, y)
                out[z] = out.get(z, 0) + cx * cy
        return GroupRingElem(self.field, out)

    def __repr__(self):
        return "GroupRingElem(support=%d)" % len(self.coeffs)


def class_sum(ctx, i):
    """alpha_i: the indicator sum of the coset g^i K, with k terms."""
    idxs = coset_indices(ctx.field, i, ctx.ell)
    return GroupRingElem(ctx.field, {int(v): 1 for v in idxs})


def class_convolution_counts(ctx, i, v):
    """counts[z] = #{(x, y) in g^i K x g^v K : x + y = z}, as an int64 array:
    P_(i-v) of cyclomat.schur._class_products read at g^(-v) z, the image of
    z under the automorphism that carries alpha_i alpha_v onto
    alpha_(i-v) alpha_0."""
    ell, field = ctx.ell, ctx.field
    u = (i - v) % ell
    prod = next(c[u - start] for start, c in _class_products(ctx)
                if u < start + len(c))
    pows, dlog = power_table(field)
    at = pows[(dlog - v) % (ctx.q - 1)]
    at[0] = 0
    return prod[at]


def difference_counts_literal(field, ell):
    """Representation counts for every z in F_q by full pair enumeration."""
    q = field.q
    sub = field.sub_idx
    kset = [int(v) for v in coset_indices(field, 0, ell)]
    counts = [0] * q
    for x in kset:
        for y in kset:
            counts[sub(x, y)] += 1
    return counts

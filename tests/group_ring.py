"""The literal group-ring oracle for the FFT kernel of the identity layer.

GroupRingElem multiplies finitely supported combinations of additive-group
elements by pair enumeration with the field's own addition, so its products
share nothing with the character transforms in cyclomat.schur.
"""


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
    idxs = ctx.field.coset_indices(i, ctx.ell)
    return GroupRingElem(ctx.field, {int(v): 1 for v in idxs})

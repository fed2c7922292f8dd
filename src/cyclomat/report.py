"""Verification ledgers and deterministic serialization.

A VerifySuiteResult is the ordered ledger of a verifier's checks, and this
module owns the shape of its entries: add records a verdict and detail as
given, and skip, compare and first build the three shapes that recur (a
clause that does not apply, a value against its closed form, and the first
failing cell of a law checked cell by cell).

All emitted output is byte-stable for a fixed configuration: JSON keys are
sorted, there are no timestamps unless a caller injects one, and integers
wider than 2**53 are rendered as decimal strings so consumers that read JSON
numbers as doubles never lose precision.  Matrix and polynomial payloads use
decimal strings throughout.  CSV follows RFC 4180 (CRLF line endings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .intmat import IntMatrix, IntPoly

SAFE_INT = 1 << 53


@dataclass
class Check:
    """One verified identity: name, parameters, verdict, optional payload."""

    name: str
    ok: bool
    params: dict | None = None
    detail: dict | None = None
    skipped: bool = False

    def to_obj(self):
        """The ledger entry with exact values; dumps/jsonable make the JSON."""
        obj = {"check": self.name, "params": self.params or {},
               "pass": bool(self.ok)}
        if self.skipped:
            obj["skipped"] = True
        if self.detail is not None:
            key = "detail" if self.ok else "counterexample"
            obj[key] = self.detail
        return obj


@dataclass
class VerifySuiteResult:
    """Ordered pass/fail ledger for a batch of identity checks."""

    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.ok for c in self.checks if not c.skipped)

    def add(self, name, ok, params=None, detail=None, skipped=False):
        self.checks.append(Check(name, ok, params, detail, skipped))

    def skip(self, name, note):
        """A clause that does not apply: passes, skipped, {"note": note}."""
        self.add(name, True, detail={"note": note}, skipped=True)

    def compare(self, name, computed, expected):
        """A value against its closed form: passes when they are equal, and
        the detail shows both either way."""
        self.add(name, computed == expected,
                 detail={"computed": computed, "expected": expected})

    def first(self, name, keys, cells):
        """A law checked cell by cell: ``cells`` yields the failing cells
        in order (a generator over a table scan, or np.argwhere(mask)), and
        the first one's values, as ints keyed by ``keys``, are the
        counterexample; the check passes when there is none."""
        cell = next(iter(cells), None)
        self.add(name, cell is None, detail=None if cell is None
                 else dict(zip(keys, map(int, cell))))

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    def failures(self):
        return [c for c in self.checks if not c.ok and not c.skipped]

    def to_obj(self):
        """The entries in order, exact; dumps/jsonable make the JSON."""
        return [c.to_obj() for c in self.checks]


def jsonable(x):
    """Recursively convert a payload into JSON-serializable primitives."""
    t = type(x)      # exact types before isinstance; bool is not int here
    if t is str or t is bool or x is None or t is float:
        return x
    if t is int or isinstance(x, int):
        return x if -SAFE_INT < x < SAFE_INT else str(x)
    if t is dict or isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if t is list or isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (str, float)):
        return x
    if isinstance(x, IntMatrix):
        return matrix_to_obj(x)
    if isinstance(x, IntPoly):
        return poly_to_obj(x)
    if hasattr(x, "to_obj"):
        return jsonable(x.to_obj())
    raise TypeError("cannot serialize %r" % type(x))


def dumps(obj, compact=False):
    """Canonical JSON: UTF-8-safe, sorted keys, stable spacing."""
    if compact:
        return json.dumps(jsonable(obj), sort_keys=True,
                          separators=(",", ":"))
    return json.dumps(jsonable(obj), sort_keys=True, indent=2)


# ----------------------------------------------------------------------
# matrices and polynomials
# ----------------------------------------------------------------------

def matrix_to_obj(m):
    """JSON form: array of arrays of decimal strings."""
    return [[str(v) for v in row] for row in m.rows]


def poly_to_obj(poly):
    """JSON form: decimal-string coefficients, low degree first."""
    return [str(c) for c in poly.coeffs]


def matrix_to_csv(m):
    """RFC 4180 rows of decimal integers (CRLF line endings)."""
    return "".join(",".join(str(v) for v in row) + "\r\n" for row in m.rows)


def matrix_pretty(m, label=None):
    """Aligned bracketed rows for eyeball comparison."""
    width = max((len(str(v)) for row in m.rows for v in row), default=1)
    lines = []
    if label:
        lines.append("%s (%dx%d):" % (label, m.dim, m.dim))
    for row in m.rows:
        lines.append("[ " + "  ".join(str(v).rjust(width) for v in row) + " ]")
    return "\n".join(lines) + "\n"

"""Spans around calls into cyclomat's modules, recorded from outside the package.

The tracer replaces, for the duration of a traced pass only, the names the
package looks up at call time (module globals such as
``cyclomat.diffset.build_report`` and class attributes such as
``IntMatrix.__mul__``) with wrappers that open and close a span.  Nothing
under ``src/`` knows about it, and ``uninstall`` puts every original object
back, so untraced passes call the unwrapped functions.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``request`` is the candidate q
during a search, else the invocation number.  Spans stay in memory until the
caller dumps them.
"""

from __future__ import annotations

import functools
import json
import time

import cyclomat.cli
import cyclomat.cyclotomy
import cyclomat.diffset
import cyclomat.schur
from cyclomat.cyclotomy import CycloCtx
from cyclomat.intmat import IntMatrix, IntPoly


# Counters reported as per-layer metrics under these names.
COUNTERS = ("field.build_ext.elems", "schur.structure_constants.pairs",
            "report.bytes")


def _field_layer(p, n=1, *args, **kwargs):
    return "field.build_ext" if int(n) > 1 else "field.build_prime"


def _field_elems(tracer, field):
    if field.n > 1:
        tracer.count("field.build_ext.elems", field.q)


def _pairs(tracer, ctx):
    tracer.count("schur.structure_constants.pairs", ctx.ell * ctx.ell)


def _candidate_q(candidate):
    return candidate[0]


# (owner, attribute, span name or a function of the call's arguments,
#  options).  Options: "result" hook(tracer, result); "args" hook(tracer,
#  *args); "request" maps the call's first argument to a request id;
#  "matrix_only" skips scalar products.
TARGETS = [
    (cyclomat.cli, "build_field", _field_layer, {"result": _field_elems}),
    (cyclomat.diffset, "build_field", _field_layer, {"result": _field_elems}),
    (CycloCtx, "__init__", "cyclotomy.ctx", {}),
    (cyclomat.cyclotomy, "verify_elementary_laws",
     "cyclotomy.elementary_laws", {}),
    (cyclomat.schur, "verify_elementary_laws",
     "cyclotomy.elementary_laws", {}),
    (cyclomat.diffset, "_search_one", "diffset.candidate",
     {"request": _candidate_q}),
    (cyclomat.diffset, "is_diffset_lehmer", "diffset.lehmer", {}),
    (cyclomat.diffset, "build_matrices", "cyclotomy.matrices", {}),
    (cyclomat.diffset, "build_report", "diffset.report", {}),
    (cyclomat.diffset, "verify_gram_identities", "diffset.gram_cert", {}),
    (cyclomat.diffset, "verify_spectral", "diffset.spectral", {}),
    (cyclomat.diffset, "verify_determinants", "diffset.determinants", {}),
    (cyclomat.diffset, "verify_congruences", "diffset.congruences", {}),
    (cyclomat.diffset, "check_schoenberg_condition", "diffset.schoenberg", {}),
    (IntMatrix, "__mul__", "intmat.matmul", {"matrix_only": True}),
    (IntMatrix, "det", "intmat.det", {}),
    (IntMatrix, "charpoly", "intmat.charpoly", {}),
    (IntPoly, "real_roots", "intmat.real_roots", {}),
    (cyclomat.schur, "verify_structure_constants", "schur.structure_constants",
     {"args": _pairs}),
    (cyclomat.schur, "verify_regular_representation", "schur.regular_rep", {}),
    (cyclomat.schur, "verify_matrix_product_law", "schur.product_law", {}),
    (cyclomat.schur, "verify_transposed_product_law", "schur.transposed_law",
     {}),
    (cyclomat.schur, "verify_commutator", "schur.commutator", {}),
    (cyclomat.schur, "verify_traces", "schur.traces", {}),
    (cyclomat.schur, "verify_inner_product_identity", "schur.inner_product",
     {}),
    (cyclomat.schur, "verify_column_products", "schur.column_products", {}),
    (cyclomat.cli, "dumps", "report.dumps", {}),
]


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.request = None
        self._stack = []
        self._saved = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, options):
        tracer = self
        namer = name if callable(name) else None
        on_args = options.get("args")
        on_result = options.get("result")
        request_of = options.get("request")
        matrix_only = options.get("matrix_only", False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if matrix_only and not isinstance(args[1], IntMatrix):
                return fn(*args, **kwargs)
            if on_args is not None:
                on_args(tracer, *args)
            outer = tracer.request
            if request_of is not None:
                tracer.request = request_of(args[0])
            idx = tracer.open(namer(*args, **kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.request = outer
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; returns the names left unwrapped."""
        missing = []
        for owner, attr, name, options in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append("%s.%s" % (owner.__name__, attr))
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, options))
        return missing

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path, origin):
        """Write spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "request": request}) + "\n")


def span_times(spans):
    """{name: [self seconds, total seconds, calls]}.  A span's self time is
    its duration minus the durations of its direct children (spans nest
    strictly); its total time is the whole duration."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, [0.0, 0.0, 0])
        row[0] += end - start - child[i]
        row[1] += end - start
        row[2] += 1
    return out


def durations_ms(spans, name):
    return sorted((end - start) * 1e3 for n, start, end, _, _ in spans
                  if n == name)

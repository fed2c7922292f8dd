"""Rules on the package source itself."""

import ast
import inspect
import textwrap
from pathlib import Path

import cyclomat

import group_ring
import oracles

SOURCES = sorted(Path(cyclomat.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so no invariant may rest on one
    found = [(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 5
    assert found == []


# Names of the production kernels that multiply and build powers, classes
# and shifts; an oracle that reached one of them would check a route against
# itself.
PRODUCTION_KERNELS = {"power_digits", "subgroup_digits", "encode_array",
                      "shifted", "classes", "mul_idx", "pow_idx",
                      "mul_matrix"}


def test_oracles_share_no_production_kernel():
    routes = [oracles.field_product, oracles.power_table.__wrapped__,
              oracles.coset_indices,
              oracles.table_by_set_enumeration,
              oracles.cyclotomic_number_by_pair_count,
              group_ring.difference_counts_literal,
              group_ring.GroupRingElem.__mul__]
    for func in routes:
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        named = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        assert not named & PRODUCTION_KERNELS, func.__qualname__


def _hand_built_entries(node):
    """Why node builds a ledger entry shape that report.py owns, or None:
    a skip (a call passing skipped=True) or a computed-against-expected
    detail (a dict display with both keys)."""
    if isinstance(node, ast.Call) and any(
            kw.arg == "skipped" and isinstance(kw.value, ast.Constant)
            and kw.value.value is True for kw in node.keywords):
        return "skipped=True"
    if isinstance(node, ast.Dict):
        keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
        if {"computed", "expected"} <= keys:
            return "computed/expected"
    return None


def test_ledger_entry_shapes_live_in_report():
    # skips and computed/expected details go through VerifySuiteResult.skip
    # and .compare, so the entry format is written in one module
    found = [(path.name, node.lineno, why) for path in SOURCES
             if path.name != "report.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for why in [_hand_built_entries(node)] if why]
    assert found == []


def _hand_written_keys(node):
    """Why node writes report or context keys by hand, or None: a dict
    display with a "qprime" key, or a class that defines _own_obj."""
    if isinstance(node, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "qprime"
            for k in node.keys):
        return "qprime key"
    if isinstance(node, ast.ClassDef) and any(
            isinstance(f, ast.FunctionDef) and f.name == "_own_obj"
            for f in node.body):
        return node.name + "._own_obj"
    return None


def test_report_and_context_keys_are_declared_once():
    # a context's keys come from CycloCtx.meta and a report's from its
    # dataclass fields, so no other module spells them out again
    found = [(path.name, node.lineno, why) for path in SOURCES
             if path.name != "cyclotomy.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for why in [_hand_written_keys(node)] if why]
    assert found == []

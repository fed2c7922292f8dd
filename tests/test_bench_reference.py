"""The outputs recorded in bench/reference.json, reproduced byte for byte
through the CLI.

The verify_suite ledgers are checked at the reference seed and at two others.
Only the seed fields depend on the seed, so each expected ledger is the
recorded template with the seed token substituted.  The search workloads'
streamed stdout is checked against its recorded sha256, with one worker and
with two.  Every function the benchmark's tracer wraps must still exist."""

import hashlib
import importlib.util
import io
import json
import os

import pytest

from cyclomat.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
REFERENCE = os.path.join(BENCH, "reference.json")


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_verify_suite_ledgers_match_reference(seed):
    with open(REFERENCE, encoding="utf-8") as f:
        ref = json.load(f)
    token = ref["seed_token"]
    entries = ref["full"]["verify_suite"]
    assert len(entries) == 5
    for entry in entries:
        argv = [str(seed) if a == token else a for a in entry["argv"]]
        out = io.StringIO()
        assert main(argv, out=out, err=io.StringIO()) == 0, argv
        assert out.getvalue() == entry["stdout"].replace(token, str(seed)), argv


def _search_entry(workload):
    with open(REFERENCE, encoding="utf-8") as f:
        (entry,) = json.load(f)["full"][workload]
    return entry


def _search_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    if code == 1 and "IoFailure" in err.getvalue():
        pytest.skip("process pool unavailable in sandbox")
    assert code == 0, (argv, err.getvalue())
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", ["search_ell4", "hits_ell2"])
def test_search_stdout_matches_reference(workload):
    entry = _search_entry(workload)
    assert _search_digest(entry["argv"]) == entry["stdout_sha256"]


def test_parallel_search_stdout_matches_reference():
    entry = _search_entry("search_ell4")
    argv = list(entry["argv"])
    argv[argv.index("--jobs") + 1] = "2"
    assert _search_digest(argv) == entry["stdout_sha256"]


def test_parallel_hits_stdout_matches_reference():
    entry = _search_entry("hits_ell2")
    argv = list(entry["argv"])
    argv[argv.index("--jobs") + 1] = "2"
    assert _search_digest(argv) == entry["stdout_sha256"]


def test_tracer_targets_exist():
    # a renamed function would silently drop its per-layer metric
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(BENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        assert tr.install() == []
    finally:
        tr.uninstall()

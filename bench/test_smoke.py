"""Smoke test of the benchmark at reduced sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

WORKLOADS = ("search_ell4", "hits_ell2", "verify_suite")


def quiet(*_):
    pass


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit_and_no_failures(workload, trace):
    spec = run.load_spec()
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    result = run.run_workload(workload, seed=5, seconds=0.2, trace=trace,
                              smoke=True, log=quiet)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]


def _corrupt_search(reference):
    records = reference["smoke"]["hits_ell2"][0]["records"]
    records[3][1] = "0" * 64
    return "hits_ell2"


def _corrupt_verify(reference):
    inv = reference["smoke"]["verify_suite"][0]
    inv["stdout"] = inv["stdout"].replace('"pairs": 64', '"pairs": 65', 1)
    return "verify_suite"


@pytest.mark.parametrize("corrupt", [_corrupt_search, _corrupt_verify])
def test_corrupted_reference_is_reported_as_failed(corrupt):
    reference = copy.deepcopy(run.load_reference())
    workload = corrupt(reference)
    result = run.run_workload(workload, seed=run.REFERENCE_SEED, seconds=0.2,
                              trace=0, smoke=True, reference=reference,
                              log=quiet)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_untraced_passes_call_the_unwrapped_functions():
    _, tracer_mod = run.load_program()
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracer_mod.TARGETS]
    tr = tracer_mod.Tracer()
    assert tr.install() == []
    assert all(owner.__dict__[attr] is not orig for (owner, attr, _, _), orig
               in zip(tracer_mod.TARGETS, before))
    tr.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr, _, _), orig
               in zip(tracer_mod.TARGETS, before))


def test_layer_table_names_every_per_layer_metric_once():
    spec = run.load_spec()
    with open(os.path.join(run.BENCH_DIR, "layers.json")) as fh:
        rows = json.load(fh)["rows"]
    named = [m for row in rows for m in row["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in spec["per_layer"])
    workloads = {w["name"] for w in spec["workloads"]}
    assert all(set(row["mostly_on"] + row["no_change_on"]) <= workloads
               for row in rows)


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(run.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "hits_ell2", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

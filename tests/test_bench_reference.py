"""The verify_suite ledgers recorded in bench/reference.json, reproduced byte
for byte through the CLI at the reference seed and at two others.  Only the
seed fields depend on the seed, so each expected ledger is the recorded
template with the seed token substituted."""

import io
import json
import os

import pytest

from cyclomat.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "reference.json")


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

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from cyclomat import IntMatrix, IntPoly
from cyclomat.cli import main
from cyclomat.report import (
    VerifySuiteResult,
    dumps,
    jsonable,
    matrix_pretty,
    matrix_to_csv,
    matrix_to_obj,
    poly_to_obj,
)

import reference_data as ref


def matrix_from_obj(obj):
    return IntMatrix([[int(s) for s in row] for row in obj])


def poly_from_obj(obj):
    return IntPoly([int(s) for s in obj])


def matrix_from_csv(text):
    rows = [line.split(",") for line in text.replace("\r\n", "\n").split("\n")
            if line]
    return IntMatrix([[int(v) for v in row] for row in rows])


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_matrix_json_round_trip():
    m = IntMatrix(ref.A_131_L10)
    assert matrix_from_obj(matrix_to_obj(m)) == m
    big = IntMatrix([[2 ** 200, -1], [0, 7]])
    obj = matrix_to_obj(big)
    assert obj[0][0] == str(2 ** 200)
    assert matrix_from_obj(obj) == big


def test_matrix_csv_round_trip():
    m = IntMatrix(ref.A_73_L8)
    text = matrix_to_csv(m)
    assert text.endswith("\r\n") and "\r\n" in text
    assert matrix_from_csv(text) == m


def test_poly_round_trip():
    p = IntPoly([-14, -20, -4, -8, 1])
    assert poly_from_obj(poly_to_obj(p)) == p


def test_pretty_alignment():
    text = matrix_pretty(IntMatrix([[7, 12], [9, 132]]), label="A")
    lines = text.splitlines()
    assert lines[0] == "A (2x2):"
    assert lines[1] == "[   7   12 ]"
    assert lines[2] == "[   9  132 ]"


def test_jsonable_int_threshold():
    assert jsonable(2 ** 53 - 1) == 2 ** 53 - 1
    assert jsonable(2 ** 53) == str(2 ** 53)
    assert jsonable(-(2 ** 53)) == str(-(2 ** 53))
    assert jsonable({"x": (1, 2)}) == {"x": [1, 2]}


def test_jsonable_exact_types_then_subclasses():
    class Wide(int):
        pass

    payload = {"b": True, "f": False, "n": None, "s": "x", "x": 0.5,
               "big": 2 ** 60, "t": (1, Wide(2 ** 60), Wide(7)),
               3: [np.float64(0.25), IntPoly([1, 2])]}
    out = jsonable(payload)
    assert out == {"b": True, "f": False, "n": None, "s": "x", "x": 0.5,
                   "big": str(2 ** 60), "t": [1, str(2 ** 60), 7],
                   "3": [0.25, ["1", "2"]]}
    assert type(out["b"]) is bool and type(out["f"]) is bool
    assert dumps(payload, compact=True) == (
        '{"3":[0.25,["1","2"]],"b":true,"big":"1152921504606846976",'
        '"f":false,"n":null,"s":"x","t":[1,"1152921504606846976",7],'
        '"x":0.5}')


def test_to_obj_is_exact_and_dumps_encodes():
    # to_obj keeps the ledger's values; dumps alone turns them into JSON
    m = IntMatrix([[2 ** 53, -1], [0, 7]])
    res = VerifySuiteResult()
    res.add("law", False, params={"bound": 2 ** 53},
            detail={"residual": m, "big": 2 ** 53})
    obj = res.to_obj()[0]
    assert obj["params"]["bound"] == 2 ** 53
    assert obj["counterexample"]["residual"] is m
    assert obj["counterexample"]["big"] == 2 ** 53
    assert dumps(res) == dumps(res.to_obj())
    back = json.loads(dumps(res.to_obj()))[0]
    assert back["params"]["bound"] == str(2 ** 53)
    assert back["counterexample"] == {
        "residual": [[str(2 ** 53), "-1"], ["0", "7"]], "big": str(2 ** 53)}


def test_ledger_entry_shapes():
    res = VerifySuiteResult()
    res.skip("clause", "k odd")
    res.compare("equal", 3, 3)
    res.compare("unequal", 2 ** 53, 5)
    res.first("clean", "ij", iter(()))
    res.first("scan", ("j", "value"), ((j, 3 * j) for j in range(2, 5)))
    res.first("array", "ij", np.argwhere(np.array([[0, 0], [0, 1]]) != 0))
    res.first("array_clean", "w", np.argwhere(np.zeros(3) != 0))
    assert not res.passed
    assert [c.name for c in res.failures()] == ["unequal", "scan", "array"]
    assert json.loads(dumps(res.to_obj())) == [
        {"check": "clause", "params": {}, "pass": True, "skipped": True,
         "detail": {"note": "k odd"}},
        {"check": "equal", "params": {}, "pass": True,
         "detail": {"computed": 3, "expected": 3}},
        {"check": "unequal", "params": {}, "pass": False,
         "counterexample": {"computed": str(2 ** 53), "expected": 5}},
        {"check": "clean", "params": {}, "pass": True},
        {"check": "scan", "params": {}, "pass": False,
         "counterexample": {"j": 2, "value": 6}},
        {"check": "array", "params": {}, "pass": False,
         "counterexample": {"i": 1, "j": 1}},
        {"check": "array_clean", "params": {}, "pass": True}]
    # the counterexample values are Python ints, not numpy scalars
    assert type(res.checks[5].detail["i"]) is int


def test_dumps_sorted_keys():
    assert dumps({"b": 1, "a": 2}, compact=True) == '{"a":2,"b":1}'


def test_cli_compute_pretty():
    code, out, err = run_cli("compute", "--p", "131", "--ell", "10",
                             "--generator", "2", "--emit", "a",
                             "--format", "pretty")
    assert code == 0 and not err
    assert "A (10x10):" in out
    assert "[ 2 1 0 0 2 0 2 0 4 2 ]".replace(" ", "") in out.replace(" ", "")


def test_cli_compute_json_matches_tables():
    code, out, _ = run_cli("compute", "--p", "73", "--ell", "8",
                           "--emit", "a,m,b,s", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert matrix_from_obj(payload["matrices"]["a"]) == IntMatrix(ref.A_73_L8)
    assert matrix_from_obj(payload["matrices"]["m"]) == IntMatrix(ref.M_73_L8)
    assert matrix_from_obj(payload["matrices"]["b"]) == IntMatrix(ref.B_73_L8)
    assert matrix_from_obj(payload["matrices"]["s"]) == IntMatrix(ref.S_73_L8)
    assert payload["meta"]["generator"] == 5


def test_cli_compute_csv_single_matrix():
    code, out, _ = run_cli("compute", "--p", "37", "--ell", "4",
                           "--emit", "a", "--format", "csv")
    assert code == 0
    assert matrix_from_csv(out) == IntMatrix(ref.A_37_L4)
    code, _, err = run_cli("compute", "--p", "37", "--ell", "4",
                           "--emit", "a,b", "--format", "csv")
    assert code == 1 and "csv" in err


def test_cli_verify_all_suites():
    for suite in ("schur", "identities", "all"):
        code, out, err = run_cli("verify", "--p", "7", "--n", "3",
                                 "--modulus", "4,0,6,1", "--ell", "6",
                                 "--suite", suite)
        assert code == 0, err
        payload = json.loads(out)
        assert all(c["pass"] for c in payload["checks"])
        assert payload["meta"]["q"] == 343


def test_cli_diffset_hit():
    code, out, _ = run_cli("diffset", "--p", "73", "--ell", "8",
                           "--generator", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_difference_set"] is True
    assert payload["lambda"] == 1
    assert payload["verdicts"] == {"bruteforce": True, "lehmer": True,
                                   "sumsq": True, "gram": True}
    assert payload["determinants"]["cyclotomic_determinant"]["computed"] == -512


def test_cli_diffset_miss_is_clean():
    code, out, _ = run_cli("diffset", "--p", "131", "--ell", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_difference_set"] is False
    assert payload["certificates"] == []


def test_cli_diffset_modified():
    code, out, _ = run_cli("diffset", "--p", "11", "--ell", "2", "--modified")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_difference_set"] is True
    assert payload["lambda0"] == 3


def test_cli_search_stream():
    code, out, _ = run_cli("search", "--ell", "4", "--max-q", "200")
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(line)["q"] for line in lines] == [37, 101, 197]
    assert all(json.loads(line)["is_difference_set"] for line in lines)


def test_cli_search_streams_each_hit_when_certified(monkeypatch):
    from cyclomat import diffset

    screened = []
    screen = diffset._search_one

    def record(candidate):
        screened.append(candidate[0])
        return screen(candidate)

    class Out:
        def __init__(self):
            self.lines = []

        def write(self, text):
            self.lines.append((json.loads(text)["q"], len(screened)))

    monkeypatch.setattr(diffset, "_search_one", record)
    out = Out()
    assert main(["search", "--ell", "4", "--max-q", "200"], out=out) == 0
    # each hit is written right after its own candidate, before the next one
    assert out.lines == [(q, screened.index(q) + 1) for q in (37, 101, 197)]
    assert len(screened) > 3


def test_cli_survey_single_and_sweep():
    code, out, _ = run_cli("survey", "--ell", "8", "--p", "73")
    assert code == 0
    payload = json.loads(out)
    assert all(e["equal"] for e in payload["entries"])
    code, out, _ = run_cli("survey", "--ell", "6", "--max-q", "120")
    assert code == 0
    for line in out.strip().splitlines():
        entry = json.loads(line)
        assert all(e["equal"] for e in entry["entries"])


def test_cli_survey_builds_only_odd_k(monkeypatch):
    import cyclomat.cli

    built = []
    build = cyclomat.cli.build_field

    def recorded(p, n=1, **kwargs):
        built.append(p ** n)
        return build(p, n=n, **kwargs)

    monkeypatch.setattr(cyclomat.cli, "build_field", recorded)
    code, out, _ = run_cli("survey", "--ell", "4", "--max-q", "2000")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [e["meta"]["q"] for e in lines] == built
    assert built and all((q - 1) // 4 % 2 == 1 for q in built)


def test_cli_survey_sweep_rejects_small_ell():
    # refused before the sweep, with the single-field survey's message
    for ell in ("0", "-2", "2"):
        code, out, err = run_cli("survey", "--ell", ell, "--max-q", "10")
        assert (code, out) == (1, "")
        assert err == "cyclo: error: EllTooSmall: survey needs ell >= 4\n"


def test_cli_survey_sweep_refuses_field_flags(monkeypatch):
    import cyclomat.cli

    def no_field(*args, **kwargs):
        raise AssertionError("survey built a field despite a usage error")

    monkeypatch.setattr(cyclomat.cli, "build_field", no_field)
    for flags, named in ((["--n", "2"], "--n"),
                         (["--modulus", "2,1"], "--modulus"),
                         (["--generator", "3"], "--generator"),
                         (["--generator", "3", "--n", "1"],
                          "--n, --generator")):
        code, out, err = run_cli("survey", "--ell", "4", "--max-q", "40",
                                 *flags)
        assert (code, out) == (1, "")
        assert err == "cyclo: error: survey --max-q takes no %s\n" % named


def test_cli_usage_errors():
    code, _, err = run_cli("compute", "--p", "7", "--ell", "4")
    assert code == 1 and "InvalidEll" in err
    code, _, err = run_cli("compute", "--p", "4", "--ell", "2")
    assert code == 1
    code, _, err = run_cli("compute", "--ell", "2")
    assert code == 1
    code, _, err = run_cli("nonsense")
    assert code == 1
    code, _, err = run_cli("survey", "--ell", "8")
    assert code == 1
    code, _, err = run_cli("compute", "--p", "7", "--ell", "2",
                           "--emit", "zz")
    assert code == 1
    code, _, err = run_cli("compute", "--p", "5", "--n", "0", "--ell", "2")
    assert code == 1 and "InvalidDegree" in err
    code, out, err = run_cli("search", "--ell", "2", "--max-q", "60",
                             "--jobs", "0")
    assert code == 1 and "InvalidJobs" in err and out == ""


def test_cli_search_names_a_nonpositive_ell_invalid():
    for ell, kind in (("0", "InvalidEll"), ("-2", "InvalidEll"),
                      ("1", "EllOne")):
        code, out, err = run_cli("search", "--ell", ell, "--max-q", "50")
        assert (code, out) == (1, "")
        assert err.startswith("cyclo: error: %s: " % kind)


def test_cli_generator_error_names_the_supplied_value():
    code, out, err = run_cli("compute", "--p", "7", "--generator", "14",
                             "--ell", "2")
    assert (code, out) == (1, "")
    assert "NotAGenerator" in err and "14" in err
    code, out, _ = run_cli("compute", "--p", "7", "--generator", "-4",
                           "--ell", "2", "--format", "json")
    assert code == 0 and json.loads(out)["meta"]["generator"] == 3


def test_cli_prime_field_checks_a_supplied_modulus():
    field = ("compute", "--p", "7", "--n", "1", "--ell", "2")
    for bad in ("1,1,1", "5", "3,2"):
        code, out, err = run_cli(*field, "--modulus", bad)
        assert code == 1 and out == "" and "ReducibleModulus" in err
    assert run_cli(*field, "--modulus", "3,1") == run_cli(*field)


def test_cli_survey_range_bound(monkeypatch):
    import cyclomat.cli
    from cyclomat.diffset import SEARCH_MAX_Q

    def no_field(*args, **kwargs):
        raise AssertionError("survey built a field past its range bound")

    monkeypatch.setattr(cyclomat.cli, "build_field", no_field)
    for max_q in (SEARCH_MAX_Q + 1, 100000000000):
        code, out, err = run_cli("survey", "--ell", "4", "--max-q", str(max_q))
        assert code == 1 and out == ""
        assert err == ("cyclo: error: RangeTooLarge: survey bounded at "
                       "q <= %d\n" % SEARCH_MAX_Q)


def test_cli_internal_error_exits_2(monkeypatch):
    import cyclomat.cli
    from cyclomat import InternalError

    def broken(*args, **kwargs):
        raise InternalError("dlog table is not a bijection")

    monkeypatch.setattr(cyclomat.cli, "build_field", broken)
    code, out, err = run_cli("verify", "--p", "7", "--ell", "2")
    assert code == 2 and out == ""
    assert err == "cyclo: error: InternalError: dlog table is not a bijection\n"


def test_cli_determinism_byte_identical():
    for argv in (("diffset", "--p", "73", "--ell", "8"),
                 ("verify", "--p", "131", "--ell", "10", "--suite", "all"),
                 ("search", "--ell", "2", "--max-q", "60"),
                 ("compute", "--p", "37", "--ell", "4", "--emit", "a,b",
                  "--format", "json")):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


def test_cli_parser_is_built_once_and_keeps_no_state():
    from cyclomat import cli

    assert cli._build_parser() is cli._build_parser()
    qs = lambda out: [json.loads(line)["q"] for line in out.splitlines()]
    argv = ("search", "--ell", "2", "--max-q", "30")
    code, out, _ = run_cli(*argv, "--prime-only")
    assert code == 0 and qs(out) == [7, 11, 19, 23]
    assert run_cli("search", "--ell", "2")[0] == 1     # --max-q missing
    code, out, _ = run_cli(*argv)
    assert code == 0 and qs(out) == [7, 11, 19, 23, 27]


def test_cli_search_jobs_flag():
    serial = run_cli("search", "--ell", "2", "--max-q", "60")
    try:
        parallel = run_cli("search", "--ell", "2", "--max-q", "60",
                           "--jobs", "2")
    except (OSError, PermissionError):
        pytest.skip("process pool unavailable in sandbox")
    assert parallel == serial


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclomat", "diffset", "--p", "7",
         "--ell", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda"] == 1

"""Benchmark of the ``cyclo`` command line, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload search_ell4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload verify_suite --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload hits_ell2 --seed 1 --seconds 2 --smoke

Each workload is a fixed list of ``cyclo`` invocations, driven in process
through ``cyclomat.cli.main(argv, out=...)`` from ``src/`` of this checkout,
one after another on one thread with ``--jobs 1`` (a closed loop with one
client).  A run repeats the list ("a pass") for about ``--seconds`` seconds
and reports medians over passes.  Workloads, the reason for each, and the
metric names and units are in ``BENCHMARK.json``; ``bench/layers.json``
says which end-to-end metric each per-layer metric should move, and where.

``--trace 0`` times untraced passes and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics of the traced ones, and writes the spans of the last traced pass
to ``.bench_out/``.  Every pass is checked against ``bench/reference.json``
(recorded by ``bench/record_reference.py``) and against the classical
classification of the hits; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
exit code is 0 only when every record matched.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

REFERENCE_SEED = 0
SEED_TOKEN = "@SEED@"
SETUP_REPEATS = 21
MIN_PASSES = 3

# (p, n, ell) of the verify_suite invocations.  The extension contexts run
# the pure-Python convolution route, the prime ones the numpy route; every
# context with ell > 12 samples 10^4 seeded quadruples; q = 10007, ell = 2
# sets the workload's peak memory.
VERIFY_CONTEXTS = [(3, 6, 14), (7, 3, 18), (12289, 1, 16), (100801, 1, 20),
                   (10007, 1, 2)]
SMOKE_VERIFY_CONTEXTS = [(73, 1, 8)]
SEARCH_MAX_Q = {"search_ell4": 40000, "hits_ell2": 20000}
SMOKE_SEARCH_MAX_Q = {"search_ell4": 400, "hits_ell2": 300}


def invocations(workload, smoke=False):
    """The workload's argv lists; verify lists carry SEED_TOKEN."""
    if workload == "verify_suite":
        contexts = SMOKE_VERIFY_CONTEXTS if smoke else VERIFY_CONTEXTS
        return [["verify", "--p", str(p), "--n", str(n), "--ell", str(ell),
                 "--suite", "all", "--seed", SEED_TOKEN]
                for p, n, ell in contexts]
    max_q = (SMOKE_SEARCH_MAX_Q if smoke else SEARCH_MAX_Q)[workload]
    ell = "4" if workload == "search_ell4" else "2"
    argv = ["search", "--ell", ell, "--max-q", str(max_q), "--jobs", "1"]
    if workload == "hits_ell2":
        argv.append("--prime-only")
    return [argv]


def with_seed(argv, seed):
    return [str(seed) if a == SEED_TOKEN else a for a in argv]


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n + 1, i)))
    return {i for i in range(n + 1) if sieve[i]}


def classical_hits(workload, max_q):
    """Prime q <= max_q whose ell-th powers form a difference set, by the
    classical results: ell = 2 gives q = 3 (mod 4) (Paley), ell = 4 gives
    q = 4t^2 + 1 with t odd (Chowla); k = 1 (q = ell + 1) is excluded."""
    primes = _primes_upto(max_q)
    if workload == "hits_ell2":
        return {q for q in primes if q % 4 == 3 and q > 3}
    return {4 * t * t + 1 for t in range(3, math.isqrt(max_q) + 1, 2)
            if 4 * t * t + 1 in primes}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------

def check_lines(ref, stdout, classical):
    """(attempted, failed) for a search invocation: one record per hit line.

    A record fails when its q is missing, its line differs from the
    reference digest, it is not in the reference, or it disagrees with the
    classical hit set.  If the records agree but the bytes do not (order,
    stray output), the first record is counted as failed.
    """
    want = {q: digest for q, digest in ref["records"]}
    got = {}
    bad = set()
    for n, line in enumerate(stdout.splitlines()):
        try:
            q = json.loads(line)["q"]
        except (ValueError, KeyError, TypeError):
            q = ("unparsed", n)
        if q in got:
            bad.add(q)
        got[q] = sha256(line)
    for q, digest in want.items():
        if got.get(q) != digest:
            bad.add(q)
    bad |= set(got) - set(want)
    bad |= set(got) ^ classical
    keys = set(want) | set(got) | classical
    if not bad and sha256(stdout) != ref["stdout_sha256"]:
        bad.add(min(keys))
    return len(keys), len(bad)


def check_ledger(ref, stdout, seed):
    """(attempted, failed) for a verify invocation: one record per check.

    The reference ledger was recorded at REFERENCE_SEED; only the seed
    fields depend on the seed, so the expected bytes at any seed are the
    reference with the seed substituted.  A record fails when the check at
    its position differs from the expected one; if all checks agree but the
    bytes do not, the first record is counted as failed.
    """
    expected = ref["stdout"].replace(SEED_TOKEN, str(seed))
    want = json.loads(expected)["checks"]
    try:
        got = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return len(want), len(want)
    failed = sum(1 for i, c in enumerate(want) if i >= len(got) or got[i] != c)
    extra = max(0, len(got) - len(want))
    failed += extra
    if failed == 0 and stdout != expected:
        failed = 1
    return len(want) + extra, failed


def check_pass(workload, refs, outputs, seed, smoke):
    """(attempted, failed, notes) over one pass of a workload."""
    attempted = failed = 0
    notes = []
    for i, (ref, (code, stdout, error)) in enumerate(zip(refs, outputs)):
        if workload == "verify_suite":
            a, f = check_ledger(ref, stdout, seed)
        else:
            max_q = (SMOKE_SEARCH_MAX_Q if smoke else SEARCH_MAX_Q)[workload]
            a, f = check_lines(ref, stdout, classical_hits(workload, max_q))
        if code != 0:
            f = a
            notes.append("invocation %d exited %r: %s" % (i, code, error))
        elif f:
            notes.append("invocation %d: %d of %d records differ"
                         % (i, f, a))
        attempted += a
        failed += f
    return attempted, failed, notes


# ----------------------------------------------------------------------
# running passes
# ----------------------------------------------------------------------

class Capture:
    """A stdout stand-in that keeps the text and the first and last write
    times."""

    __slots__ = ("chunks", "first", "last")

    def __init__(self):
        self.chunks = []
        self.first = None
        self.last = None

    def write(self, s):
        if s:
            now = time.perf_counter()
            if self.first is None:
                self.first = now
            self.last = now
            self.chunks.append(s)
        return len(s)

    def flush(self):
        pass

    def text(self):
        return "".join(self.chunks)


def run_pass(main, argvs, tracer=None):
    """Run the invocations once.  Returns (timings, outputs), timings being
    wall_s, cpu_s, first_output_s and the pass start on the perf clock."""
    outputs = []
    first = None
    t0 = time.perf_counter()
    c0 = time.process_time()
    for i, argv in enumerate(argvs):
        cap = Capture()
        err = io.StringIO()
        if tracer is not None:
            tracer.request = i
            root = tracer.open("cli")
        try:
            code = main(argv, out=cap, err=err)
        except Exception:  # a raising invocation fails all its records
            code = None
            err.write(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.close(root)
                tracer.request = None
        end = cap.last if cap.last is not None else time.perf_counter()
        if first is None and cap.first is not None:
            first = cap.first
        outputs.append((code, cap.text(), err.getvalue().strip()[-400:]))
    c1 = time.process_time()
    timings = {"wall_s": end - t0, "cpu_s": c1 - c0,
               "first_output_s": (first if first is not None else end) - t0,
               "start": t0}
    return timings, outputs


def measure_setup(argvs):
    """Median over fresh interpreters of the time to import cyclomat and
    cyclomat.cli and build the workload's argv lists."""
    code = ("import sys, time, json\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "t0 = time.perf_counter()\n"
            "import cyclomat, cyclomat.cli\n"
            "argvs = json.loads(sys.argv[2])\n"
            "print(repr(time.perf_counter() - t0))\n")
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, SRC,
                               json.dumps(argvs)],
                              capture_output=True, text=True, timeout=60,
                              check=True, cwd=ROOT)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def percentile(sorted_values, pct):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(names, tracer_mod, tracer, wall_s):
    """Per-layer metrics of one traced pass.  A name ``<span>.s`` is the
    span's summed self time and ``<span>.calls`` its call count; the others
    are computed here.  ``trace.overhead_s`` needs untraced passes and is
    left to the caller."""
    spans = tracer.spans
    own = tracer_mod.span_times(spans)
    candidates = tracer_mod.durations_ms(spans, "diffset.candidate")
    reports = tracer_mod.durations_ms(spans, "diffset.report")
    covered = sum(row[0] for name, row in own.items() if name != "cli")
    out = {
        "diffset.candidates": len(candidates),
        "diffset.hits": len(reports),
        "diffset.hit_ratio": len(reports) / len(candidates) if candidates
        else 0.0,
        "diffset.candidate.p50_ms": percentile(candidates, 50),
        "diffset.candidate.p99_ms": percentile(candidates, 99),
        "diffset.report.p50_ms": percentile(reports, 50),
        "diffset.report.p99_ms": percentile(reports, 99),
        "cli.self.s": own.get("cli", (0.0,))[0],
        "trace.coverage": covered / wall_s,
    }
    out.update((name, tracer.counters.get(name, 0))
               for name in tracer_mod.COUNTERS)
    for name in names:
        if name in out or name == "trace.overhead_s":
            continue
        span, _, kind = name.rpartition(".")
        if kind not in ("s", "calls"):
            raise ValueError("no rule for per-layer metric %r" % name)
        self_s, _, calls = own.get(span, (0.0, 0.0, 0))
        out[name] = self_s if kind == "s" else calls
    return out


def run_record(workload, seed, seconds, trace, smoke, load_start):
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cyclomat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0]}


def git_commit():
    """HEAD of this checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def load_program():
    """Import cyclomat from src/ of this checkout, never from elsewhere."""
    init = os.path.join(SRC, "cyclomat", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("bench: %s not found; run from a full checkout"
                         % os.path.relpath(init, ROOT))
    sys.path.insert(0, SRC)
    import cyclomat.cli

    if os.path.dirname(os.path.abspath(cyclomat.__file__)) != \
            os.path.dirname(init):
        raise SystemExit("bench: imported cyclomat from %s, not src/"
                         % cyclomat.__file__)
    import tracer

    return cyclomat.cli.main, tracer


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_spec():
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, smoke=False, reference=None,
                 log=print):
    """Measure one workload; returns the result object printed last."""
    load_start = os.getloadavg()[0]
    main, tracer_mod = load_program()
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit("bench: unknown workload %r" % workload)
    reference = reference or load_reference()
    refs = reference["smoke" if smoke else "full"][workload]
    argvs = [with_seed(a, seed) for a in invocations(workload, smoke)]
    per_layer = [m["name"] for m in spec["per_layer"]]

    setup_s = None if trace else measure_setup(argvs)

    attempted = failed = 0
    notes = []
    plain, traced = [], []
    layer_rows = []
    last_tracer = None
    t_start = time.perf_counter()
    while True:
        use_trace = bool(trace) and len(plain) > len(traced)
        tr = tracer_mod.Tracer() if use_trace else None
        if tr is not None:
            missing = tr.install()
            if missing and not layer_rows:
                notes.append("not traced (absent): " + ", ".join(missing))
        try:
            timings, outputs = run_pass(main, argvs, tr)
        finally:
            if tr is not None:
                tr.uninstall()
        a, f, pass_notes = check_pass(workload, refs, outputs, seed, smoke)
        attempted += a
        failed += f
        notes.extend(n for n in pass_notes if n not in notes)
        if tr is not None:
            tr.count("report.bytes",
                     sum(len(text.encode("utf-8")) for _, text, _ in outputs))
            traced.append(timings)
            layer_rows.append(layer_metrics(per_layer, tracer_mod, tr,
                                            timings["wall_s"]))
            last_tracer = (tr, timings["start"])
        else:
            plain.append(timings)
        passes = plain + traced
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(t["wall_s"] for t in passes)
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and elapsed + typical > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        # median_low keeps counts whole: every value is one pass's reading
        values = {name: statistics.median_low(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        values["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced)
            - statistics.median(t["wall_s"] for t in plain))
        names = per_layer
    else:
        values = {name: statistics.median(t[name] for t in plain)
                  for name in ("wall_s", "cpu_s", "first_output_s")}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}

    record = run_record(workload, seed, seconds, trace, smoke, load_start)
    record["passes"] = {"untraced": len(plain), "traced": len(traced)}
    record["wall_s_per_pass"] = {"untraced": [t["wall_s"] for t in plain],
                                 "traced": [t["wall_s"] for t in traced]}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                    "-smoke" if smoke else "")
    if last_tracer is not None:
        spans_path = os.path.join(OUT_DIR, "spans-%s.jsonl" % stem)
        last_tracer[0].dump(spans_path, last_tracer[1])
        record["spans_file"] = os.path.relpath(spans_path, ROOT)

    log("workload %s seed %d trace %d: %d untraced + %d traced passes"
        % (workload, seed, trace, len(plain), len(traced)))
    if trace:
        log("  spans of the last traced pass, largest self time first:")
        log("  %-28s %10s %10s %9s" % ("span", "self_s", "total_s", "calls"))
        rows = tracer_mod.span_times(last_tracer[0].spans)
        for name, (own_s, total_s, calls) in sorted(
                rows.items(), key=lambda kv: -kv[1][0]):
            log("  %-28s %10.4f %10.4f %9d" % (name, own_s, total_s, calls))
        log("  per-layer metrics (median over traced passes):")
        for n in names:
            log("  %-34s %14.6g %s" % (n, values[n], units[n]))
    else:
        walls = sorted(t["wall_s"] for t in plain)
        log("  wall_s per pass: " + " ".join("%.3f" % w for w in walls))
        for n in names:
            log("  %-16s %12.6g %s" % (n, values[n], units[n]))
    log("  fail_frac        %12.6g   (%d of %d records)"
        % (failed / attempted, failed, attempted))
    for note in notes:
        log("  note: " + note)
    log("run " + json.dumps(record, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s.json" % stem), "w",
              encoding="utf-8") as fh:
        json.dump({"run": record, "result": result,
                   "fail_frac": failed / attempted, "notes": notes}, fh,
                  indent=2, sort_keys=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes that run in seconds")
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          smoke=args.smoke)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record bench/reference.json: the expected output of every benchmark
invocation, full size and smoke size, at the reference seed.

Run it from the repository root at the commit whose output is the
reference, and only there:

    python3 bench/record_reference.py

Search invocations are stored as one digest per hit line plus a digest of
the whole stdout; their hit sets must equal the classical classification
before anything is written.  Verify invocations are stored as the full
stdout with the seed fields replaced by a token, so the gate can compare
bytes at any seed.
"""

from __future__ import annotations

import io
import json
import re

import run


def record_invocation(main, workload, argv, smoke):
    out = io.StringIO()
    code = main(run.with_seed(argv, run.REFERENCE_SEED), out=out)
    if code != 0:
        raise SystemExit("reference run of %r exited %d" % (argv, code))
    stdout = out.getvalue()
    if workload == "verify_suite":
        template, subs = re.subn(r'"seed": %d\b' % run.REFERENCE_SEED,
                                 '"seed": ' + run.SEED_TOKEN, stdout)
        if subs != 2:
            raise SystemExit("expected two seed fields in %r, found %d"
                             % (argv, subs))
        return {"argv": argv, "stdout": template}
    records = [[json.loads(line)["q"], run.sha256(line)]
               for line in stdout.splitlines()]
    max_q = (run.SMOKE_SEARCH_MAX_Q if smoke else run.SEARCH_MAX_Q)[workload]
    classical = run.classical_hits(workload, max_q)
    if {q for q, _ in records} != classical:
        raise SystemExit("%s hits differ from the classical set" % workload)
    return {"argv": argv, "stdout_sha256": run.sha256(stdout),
            "records": records}


def main():
    cli_main, _ = run.load_program()
    reference = {"seed": run.REFERENCE_SEED, "seed_token": run.SEED_TOKEN}
    for size, smoke in (("full", False), ("smoke", True)):
        reference[size] = {
            w: [record_invocation(cli_main, w, argv, smoke)
                for argv in run.invocations(w, smoke)]
            for w in ("search_ell4", "hits_ell2", "verify_suite")}
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

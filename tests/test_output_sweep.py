"""Byte stability of the CLI over every small context.

For every odd prime power q < 400 and every ell <= 24 dividing q - 1, four
commands run in process through cli.main, and then the supplied-modulus
commands: compute and diffset with the modulus x + 1 on each prime field, and
verify with a non-default irreducible modulus on each extension field.  The
sha256 of each invocation's (stdout, stderr, exit code) must equal the line
that tests/golden/sweep.sha256 records for its argv.  A refactor that changes any byte of any output, on
any of these contexts, fails here and names the command line.

Re-record the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_output_sweep.py
"""

import hashlib
import io
import sys
from pathlib import Path

import sympy
from sympy import factorint

from cyclomat.cli import main
from cyclomat.field import build_field

GOLDEN = Path(__file__).parent / "golden" / "sweep.sha256"
MAX_Q = 400
MAX_ELL = 24
COMMANDS = (
    ["compute", "--emit", "a,m,b,s", "--format", "json"],
    ["verify", "--suite", "all", "--seed", "3"],
    ["diffset"],
    ["diffset", "--modified"],
)


PRIME_MODULUS_COMMANDS = (
    ["compute", "--emit", "a,m,b,s", "--format", "json", "--modulus", "1,1"],
    ["diffset", "--modulus", "1,1"],
)


def other_modulus(p, n):
    """The first monic polynomial of degree n over F_p, in canonical order
    of its low coefficients, that sympy finds irreducible and that is not
    the field's default modulus, as "c0,c1,...,cn"."""
    default = tuple(build_field(p, n).modulus)
    x = sympy.Symbol("x")
    for v in range(p ** n):
        coeffs = [(v // p ** j) % p for j in range(n)] + [1]
        if (tuple(coeffs) != default
                and sympy.Poly(coeffs[::-1], x, modulus=p).is_irreducible):
            return ",".join(map(str, coeffs))
    raise AssertionError("F_%d^%d has one irreducible modulus" % (p, n))


def contexts():
    """(p, n, field flags) for each odd prime power q < MAX_Q and each
    ell <= MAX_ELL dividing q - 1."""
    for q in range(3, MAX_Q, 2):
        (p, n), *rest = factorint(q).items()
        if rest:
            continue
        for ell in range(1, MAX_ELL + 1):
            if (q - 1) % ell == 0:
                yield p, n, ["--p", str(p), "--n", str(n), "--ell", str(ell)]


def sweep_argvs():
    for _, _, field in contexts():
        for command in COMMANDS:
            yield command[:1] + field + command[1:]
    for p, n, field in contexts():
        if n == 1:
            for command in PRIME_MODULUS_COMMANDS:
                yield command[:1] + field + command[1:]
        else:
            yield (["verify"] + field + ["--suite", "all", "--seed", "3",
                                         "--modulus", other_modulus(p, n)])


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    h = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue(), str(code)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def sweep_lines():
    return ["%s  %s" % (digest(argv), " ".join(argv)) for argv in sweep_argvs()]


def test_outputs_match_recorded_digests():
    recorded = {}
    for line in GOLDEN.read_text().splitlines():
        sha, argv = line.split("  ", 1)
        recorded[argv] = sha
    lines = sweep_lines()
    assert len(lines) == len(recorded)
    changed = [argv for sha, argv in (line.split("  ", 1) for line in lines)
               if recorded.get(argv) != sha]
    assert not changed, "outputs changed for:\n" + "\n".join(changed[:20])


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(sweep_lines()) + "\n")
    sys.stdout.write("recorded %s\n" % GOLDEN)

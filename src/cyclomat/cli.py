"""Command-line interface.

Subcommands:

  compute  -- emit the cyclotomic matrix and its derived matrices
  verify   -- run identity suites and emit a pass/fail ledger
  diffset  -- full difference-set report for one context
  search   -- scan a q-range for power difference sets (JSON lines)
  survey   -- column permutation survey (experimental data gathering)

Exit codes: 0 clean, 1 usage or configuration error, 2 verification
failure or internal error (InternalError: a broken invariant).
Output is byte-identical across runs for a fixed command line.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import __version__
from .cyclotomy import CycloCtx, build_matrices
from .diffset import (
    SEARCH_MAX_Q,
    build_report,
    iter_odd_prime_powers,
    iter_search,
    modified_diffset,
)
from .errors import CyclomatError, EllTooSmall, InternalError, RangeTooLarge
from .field import build_field
from .report import dumps, matrix_pretty, matrix_to_csv, matrix_to_obj
from .schur import SUITES, column_permutation_survey, run_identity_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--n", type=int, default=1, help="extension degree")
    sub.add_argument("--modulus", type=str, default=None,
                     help="comma-separated c0,c1,...,cn (monic, low degree first)")
    sub.add_argument("--generator", type=int, default=None,
                     help="canonical index of a generator override")


@cache
def _build_parser():
    """The one parser of every main call, built on the first.  parse_args
    makes a fresh namespace each time and no argument keeps state, so one
    parser serves any number of calls; building it takes longer than
    parsing (the help formatters look up the terminal size and gettext
    the locale files)."""
    parser = _Parser(prog="cyclo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("compute", help="emit cyclotomic matrices")
    _add_field_args(c)
    c.add_argument("--ell", type=int, required=True)
    c.add_argument("--emit", type=str, default="a",
                   help="comma-separated subset of a,m,b,s")
    c.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="pretty")

    v = subs.add_parser("verify", help="run identity suites")
    _add_field_args(v)
    v.add_argument("--ell", type=int, required=True)
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--seed", type=int, default=0)

    d = subs.add_parser("diffset", help="difference-set report")
    _add_field_args(d)
    d.add_argument("--ell", type=int, required=True)
    d.add_argument("--modified", action="store_true",
                   help="report on K ∪ {0} instead of K")

    s = subs.add_parser("search", help="scan a range for difference sets")
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--max-q", type=int, required=True)
    s.add_argument("--min-q", type=int, default=3)
    s.add_argument("--prime-only", action="store_true")
    s.add_argument("--jobs", type=int, default=1)

    y = subs.add_parser("survey", help="column permutation survey")
    y.add_argument("--ell", type=int, required=True)
    y.add_argument("--p", type=int, default=None)
    y.add_argument("--n", type=int, default=None)
    y.add_argument("--modulus", type=str, default=None)
    y.add_argument("--generator", type=int, default=None)
    y.add_argument("--max-q", type=int, default=None)
    return parser


def _parse_modulus(text):
    if text is None:
        return None
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise _UsageError("--modulus must be a comma-separated integer list")


def _make_ctx(args):
    field = build_field(args.p, n=args.n, modulus=_parse_modulus(args.modulus),
                        generator=args.generator)
    return CycloCtx(field, args.ell)


def _meta(ctx, **extra):
    return dict(ctx.meta(), version=__version__, **extra)


def _cmd_compute(args, out):
    ctx = _make_ctx(args)
    dm = build_matrices(ctx)
    names = [s.strip().lower() for s in args.emit.split(",") if s.strip()]
    available = {"a": dm.A, "m": dm.M, "b": dm.B, "s": dm.S}
    unknown = [n for n in names if n not in available]
    if unknown or not names:
        raise _UsageError("--emit accepts a subset of a,m,b,s")
    if args.format == "json":
        payload = {"meta": _meta(ctx),
                   "matrices": {n: matrix_to_obj(available[n]) for n in names}}
        out.write(dumps(payload) + "\n")
    elif args.format == "csv":
        if len(names) != 1:
            raise _UsageError("csv format emits exactly one matrix")
        out.write(matrix_to_csv(available[names[0]]))
    else:
        blocks = [matrix_pretty(available[n], label=n.upper()) for n in names]
        out.write("\n".join(blocks))
    return EXIT_OK


def _cmd_verify(args, out):
    ctx = _make_ctx(args)
    res = run_identity_suite(ctx, seed=args.seed, suite=args.suite)
    payload = {"meta": _meta(ctx, suite=args.suite, seed=args.seed),
               "checks": res.to_obj()}
    out.write(dumps(payload) + "\n")
    return EXIT_OK if res.passed else EXIT_VERIFICATION


def _cmd_diffset(args, out):
    ctx = _make_ctx(args)
    report = (modified_diffset if args.modified else build_report)(ctx)
    out.write(dumps(report.to_obj()) + "\n")
    return EXIT_OK if report.certificates_pass else EXIT_VERIFICATION


def _cmd_search(args, out):
    hits = iter_search(args.ell, args.max_q, min_q=args.min_q,
                       prime_only=args.prime_only, jobs=args.jobs)
    code = EXIT_OK
    for report in hits:
        out.write(dumps(report.to_obj(), compact=True) + "\n")
        if not report.certificates_pass:
            code = EXIT_VERIFICATION
    return code


def _cmd_survey(args, out):
    if (args.p is None) == (args.max_q is None):
        raise _UsageError("survey needs exactly one of --p or --max-q")
    if args.max_q is not None and args.max_q > SEARCH_MAX_Q:
        raise RangeTooLarge("survey bounded at q <= %d" % SEARCH_MAX_Q)
    if args.p is not None:
        if args.n is None:
            args.n = 1
        ctx = _make_ctx(args)
        entries = column_permutation_survey(ctx)
        out.write(dumps({"meta": _meta(ctx), "entries": entries}) + "\n")
        return EXIT_OK
    field_flags = [flag for flag in ("n", "modulus", "generator")
                   if getattr(args, flag) is not None]
    if field_flags:
        raise _UsageError("survey --max-q takes no %s" % ", ".join(
            "--" + flag for flag in field_flags))
    if args.ell < 4:
        raise EllTooSmall("survey needs ell >= 4")
    # q = 1 + k ell with k odd, which the survey needs, known before any build
    for q, p, n in iter_odd_prime_powers(args.ell + 1, args.max_q,
                                         2 * args.ell):
        ctx = CycloCtx(build_field(p, n=n), args.ell)
        entries = column_permutation_survey(ctx)
        out.write(dumps({"meta": _meta(ctx), "entries": entries},
                        compact=True) + "\n")
    return EXIT_OK


_HANDLERS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "diffset": _cmd_diffset,
    "search": _cmd_search,
    "survey": _cmd_survey,
}


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write("cyclo: error: %s\n" % exc)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, out)
    except _UsageError as exc:
        err.write("cyclo: error: %s\n" % exc)
        return EXIT_USAGE
    except InternalError as exc:
        err.write("cyclo: error: InternalError: %s\n" % exc)
        return EXIT_VERIFICATION
    except CyclomatError as exc:
        err.write("cyclo: error: %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_USAGE
    except OSError as exc:
        err.write("cyclo: error: IoFailure: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

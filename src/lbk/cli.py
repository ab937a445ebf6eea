"""Command-line front end: eval, quad, verify, bench, table.

Angles are accepted in radians only.  Results go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 quadrature non-convergence, 4 an internal error (any other exception,
reported as one line on stderr), 141 stdout closed by its reader before
the output was written (128 + SIGPIPE, what a shell reports for a process
that SIGPIPE ends), without a message.  Floats are rendered with 17
significant digits in both JSON and CSV; JSON uses a canonical compact
form whose parse/re-render is the identity.  The only environment input is
LBK_WORKERS, which caps sweep parallelism.
"""

import argparse
import functools
import io
import json
import os
import sys
import time
from dataclasses import fields
from json.encoder import encode_basestring_ascii

from .kernel import IntegralParams, closed_form_I, closed_form_row
from .oracle import QuadratureSpec, integrate_I
from .verify import SweepConfig, sweep_random

_BENCH_R_VALUES = (0.5, 5.0, 25.0, 50.0)


def _fmt(x):
    return format(float(x), ".17g")


@functools.lru_cache(maxsize=256)
def _str_key(k):
    return encode_basestring_ascii(k) + ":"


def _key(k):
    # Only str keys are cached: keys that compare equal (1, 1.0, True;
    # 0.0 and -0.0) print apart.
    if type(k) is str:
        return _str_key(k)
    return encode_basestring_ascii(str(k)) + ":"


def render_json(obj):
    """Canonical JSON: insertion-ordered keys, 17-significant-digit floats."""
    # The exact types of a record first; "%.17g" is _fmt's string for a
    # float.  Each container joins its own parts once.
    t = type(obj)
    if t is float:
        return "%.17g" % obj
    if t is int:
        return str(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        return "{" + ",".join([_key(k) + render_json(v)
                               for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([render_json(v) for v in obj]) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def render_csv(header, rows):
    """CSV text with a bare-newline terminator and 17-digit floats."""
    # Imported here, as statistics is in _median_seconds: a JSON eval, quad,
    # table or verify process loads neither.
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else
                         _fmt(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _emit(args, payload, header, records):
    # CSV rows hold each record's value per header key, blank where absent.
    if args.format == "json":
        print(render_json(payload))
    else:
        rows = [[rec.get(col) for col in header] for rec in records]
        print(render_csv(header, rows), end="")


def _record(n, m, alpha, R, value, method, abs_err=None):
    rec = {"n": n, "m": m, "alpha": alpha, "R": R,
           "re": value.real, "im": value.imag, "method": method}
    if abs_err is not None:
        rec["abs_err"] = abs_err
    return rec


_RECORD_HEADER = ["n", "m", "alpha", "R", "re", "im", "method", "abs_err"]


def _checked(fn, *args, **kwargs):
    # Calls fn, reporting an argument it rejects (ValueError) or a value that
    # leaves the double range (OverflowError) as invalid input (None).
    try:
        return fn(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return None


def _from_args(cls, args):
    # Builds the dataclass cls from the parsed flags; a flag that is absent
    # from this subcommand or left unset (None) takes the field's default.
    given = {f.name: getattr(args, f.name) for f in fields(cls)
             if getattr(args, f.name, None) is not None}
    return _checked(cls, **given)


def cmd_eval(args):
    p = _from_args(IntegralParams, args)
    if p is None:
        return 2
    value = _checked(closed_form_I, p)
    if value is None:
        return 2
    rec = _record(p.n, p.m, p.alpha, p.R, value, "closed")
    _emit(args, rec, _RECORD_HEADER, [rec])
    return 0


def cmd_quad(args):
    p = _from_args(IntegralParams, args)
    if p is None:
        return 2
    spec = _from_args(QuadratureSpec, args)
    if spec is None:
        return 2
    result = _checked(integrate_I, p, spec)
    if result is None:
        return 2
    rec = _record(p.n, p.m, p.alpha, p.R, result.value, "quad")
    rec["est_error"] = result.est_error
    rec["panels"] = result.panels_used
    rec["converged"] = result.converged
    _emit(args, rec, _RECORD_HEADER + ["est_error", "panels", "converged"],
          [rec])
    if not result.converged:
        print("quadrature did not converge within max refinements",
              file=sys.stderr)
        return 3
    return 0


def _part(z, name):
    # A side that raised has no value; its parts render as null.
    return None if z is None else getattr(z, name)


def cmd_verify(args):
    cfg = _from_args(SweepConfig, args)
    if cfg is None:
        return 2
    report = _checked(sweep_random, cfg)
    if report is None:
        return 2
    payload = {
        "seed": cfg.seed, "cases": cfg.cases, "n_max": cfg.n_max,
        "R_max": cfg.R_max, "alpha_margin": cfg.alpha_margin,
        "abs_tol": cfg.abs_tol, "rel_tol": cfg.rel_tol,
        "total": report.total,
        "failures": [
            {"n": f.params.n, "m": f.params.m, "alpha": f.params.alpha,
             "R": f.params.R, "closed_re": _part(f.closed, "real"),
             "closed_im": _part(f.closed, "imag"),
             "oracle_re": _part(f.oracle, "real"),
             "oracle_im": _part(f.oracle, "imag"), "abs_err": f.abs_err,
             "rel_err": f.rel_err, "converged": f.oracle_converged,
             "reason": f.reason}
            for f in report.failures],
        "max_abs_err": report.max_abs_err,
        "max_rel_err": report.max_rel_err,
        "wall_time": report.wall_time,
    }
    _emit(args, payload, list(payload),
          [{**payload, "failures": len(report.failures)}])
    return 0 if not report.failures else 1


def _median_seconds(fns, arg, reps):
    # Median wall time of each fn(arg) over reps rounds; each round times
    # every fn once, so a slow spell of the host falls on all of them.
    import statistics

    times = [[] for _ in fns]
    for _ in range(reps):
        for fn, spent in zip(fns, times):
            t0 = time.perf_counter()
            fn(arg)
            spent.append(time.perf_counter() - t0)
    return [statistics.median(spent) for spent in times]


def bench_rows(n_max, R_max, reps):
    """Deterministic closed-vs-quadrature timing grid.

    One row per (n, R) with n in 0..n_max and R over the fixed value list
    clipped to R_max; m = n//2 and alpha = 1.0 throughout.  Times are the
    median microseconds of ``reps`` timed calls per side, taken in
    alternation, so one host stall does not sink a row; rows with
    reps < 5 are flagged noisy.
    """
    Rs = [r for r in _BENCH_R_VALUES if r <= R_max] or [R_max]
    # Built first, so an invalid grid raises before any timing.
    grid = [IntegralParams(n, n // 2, 1.0, R)
            for n in range(n_max + 1) for R in Rs]
    rows = []
    for p in grid:
        t_closed, t_quad = _median_seconds((closed_form_I, integrate_I),
                                           p, reps)
        rows.append({"n": p.n, "R": p.R, "closed_us": 1e6 * t_closed,
                     "quad_us": 1e6 * t_quad,
                     "speedup": t_quad / t_closed, "reps": reps,
                     "noisy": reps < 5})
    return rows


def cmd_bench(args):
    if args.n_max < 0 or not args.R_max > 0.0 or args.reps < 1:
        print("invalid input: require n-max >= 0, R-max > 0, reps >= 1",
              file=sys.stderr)
        return 2
    rows = _checked(bench_rows, args.n_max, args.R_max, args.reps)
    if rows is None:
        return 2
    _emit(args, {"rows": rows},
          ["n", "R", "closed_us", "quad_us", "speedup", "reps", "noisy"], rows)
    return 0


def cmd_table(args):
    Rs = args.R if args.R else [1.0]
    # The top degree stands in for every row: it checks n-max, alpha and R.
    if any(_checked(IntegralParams, args.n_max, 0, args.alpha, R) is None
           for R in Rs):
        return 2
    spec = _from_args(QuadratureSpec, args)
    if spec is None:
        return 2

    records = []
    unconverged = False
    for n in range(args.n_max + 1):
        ms = [m for m in (range(-n, n + 1) if args.m is None else [args.m])
              if abs(m) <= n]
        if not ms:
            continue
        # One closed-form row per radius shares j_n(R) across the orders.
        # Each is stepped once per entry in record order, so the first
        # entry to fail reports; a row never stepped evaluates nothing.
        rows = [closed_form_row(n, ms, args.alpha, R) for R in Rs]
        for m in ms:
            for R, row in zip(Rs, rows):
                closed = quad = None
                if args.method == "closed" or args.compare:
                    closed = _checked(next, row)
                    if closed is None:
                        return 2
                if args.method == "quad" or args.compare:
                    p = IntegralParams(n, m, args.alpha, R)
                    result = _checked(integrate_I, p, spec)
                    if result is None:
                        return 2
                    quad = result.value
                    unconverged = unconverged or not result.converged
                shown = closed if args.method == "closed" else quad
                abs_err = abs(closed - quad) if args.compare else None
                records.append(_record(n, m, args.alpha, R, shown,
                                       args.method, abs_err))
    if args.m is not None and not records:
        print(f"invalid input: order must satisfy |m| <= n for some row "
              f"(got m={args.m}, n-max={args.n_max})", file=sys.stderr)
        return 2
    _emit(args, records, _RECORD_HEADER, records)
    if unconverged:
        print("quadrature did not converge within max refinements",
              file=sys.stderr)
        return 3
    return 0


def _add_shared(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_tolerances(sub):
    # Only the subcommands that run the oracle read tolerances.
    sub.add_argument("--abs-tol", dest="abs_tol", type=float)
    sub.add_argument("--rel-tol", dest="rel_tol", type=float)


def _add_point(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--alpha", type=float, required=True,
                     help="tilt angle in radians")
    sub.add_argument("--R", type=float, required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lbk",
        description="Closed-form and quadrature evaluation of the "
                    "Bessel-times-Legendre angular integral family "
                    "(all angles in radians)")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="closed-form evaluation")
    _add_point(p_eval)
    _add_shared(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_quad = subs.add_parser("quad", help="quadrature evaluation")
    _add_point(p_quad)
    _add_shared(p_quad)
    _add_tolerances(p_quad)
    p_quad.add_argument("--base-panels", dest="base_panels", type=int)
    p_quad.add_argument("--nodes-per-panel", dest="nodes_per_panel", type=int)
    p_quad.add_argument("--max-refinements", dest="max_refinements", type=int)
    p_quad.set_defaults(func=cmd_quad)

    p_verify = subs.add_parser("verify", help="seeded random identity sweep")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--n-max", dest="n_max", type=int)
    p_verify.add_argument("--R-max", dest="R_max", type=float)
    p_verify.add_argument("--alpha-margin", dest="alpha_margin", type=float)
    _add_shared(p_verify)
    _add_tolerances(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = subs.add_parser("bench",
                              help="closed form vs quadrature timings")
    p_bench.add_argument("--n-max", dest="n_max", type=int, default=10)
    p_bench.add_argument("--R-max", dest="R_max", type=float, default=50.0)
    p_bench.add_argument("--reps", type=int, default=10)
    _add_shared(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_table = subs.add_parser("table", help="batch evaluation table")
    p_table.add_argument("--n-max", dest="n_max", type=int, required=True)
    group = p_table.add_mutually_exclusive_group()
    group.add_argument("--all-m", dest="m", action="store_const", const=None,
                       help="all orders -n..n per degree (default)")
    group.add_argument("--m", type=int, default=None)
    p_table.add_argument("--alpha", type=float, default=1.0,
                         help="tilt angle in radians")
    p_table.add_argument("--R", type=float, action="append", default=None)
    p_table.add_argument("--method", choices=("closed", "quad"),
                         default="closed")
    p_table.add_argument("--compare", action="store_true",
                         help="run both methods and fill abs_err")
    _add_shared(p_table)
    _add_tolerances(p_table)
    p_table.set_defaults(func=cmd_table)
    return parser


@functools.cache
def _parser():
    # Built on the first main() call, not at import, and reused: building it
    # costs about a millisecond, and parse_args keeps no state between calls.
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


# Exit code when the reader of stdout goes away first, as in
# ``lbk table ... | head``.
_EXIT_CLOSED_PIPE = 141

# Exit code of an unexpected exception, in-process or from a pool worker;
# 1 stays the code of failing cases.
_EXIT_INTERNAL = 4


def app():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit, so it is pointed at devnull,
        # which cannot raise (the pattern of the Python signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_CLOSED_PIPE
    except Exception as exc:
        # repr escapes any newline of the message, so the report is one line.
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = _EXIT_INTERNAL
    raise SystemExit(code)


if __name__ == "__main__":
    app()

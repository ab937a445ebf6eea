"""The three benchmark workloads: input generation, execution and checks.

Every workload drives lbk in-process through ``lbk.cli.main``, the entry
point a user runs, and is a closed loop: the next call starts when the
previous one returns.  Inputs come from a ``random.Random`` seeded by the
benchmark seed; lbk receives only the generated command lines.

A workload hands out *batches* of calls.  The benchmark times each batch,
digests each call's output into a small record (untimed), and checks all
records against an independent reference after the timed loop.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

# Pass tolerance of every output check, on |value - ref| / (1 + |ref|):
# the default per-case tolerance of ``lbk verify``.
CHECK_TOL = 1e-8

ALPHA_MARGIN = 0.05

# Tilt margin of the sweep: alpha in [0.5, pi - 0.5] instead of verify's
# default 0.05.  Near alpha = 0 or pi, at n = m >= 12 and R close to a zero
# of j_n, the oracle's extended-precision rounding floor eps * integral(|f|)
# exceeds the sweep tolerance and verify reports the case unconverged.
# Over verify's default domain that is about 3 cases in 10^6; with this
# margin a floor model that matches the observed rates predicts ~1e-9
# (README.md).
SWEEP_ALPHA_MARGIN = 0.5

# Oracle tolerances of the large-R calls: lbk's own sweep stopping rule
# (lbk.verify.SWEEP_ORACLE_SPEC).  Under the stricter quad defaults the
# rounding floor of high-cancellation draws (|m| near n, alpha near 0 or
# pi) sits above the target, and such calls exit 3 at any panel count.
QUAD_TOLS = ["--abs-tol", "1e-09", "--rel-tol", "1e-08"]


def run_cli(main, argv):
    """Run ``lbk`` in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, buf.getvalue()


@dataclass
class Check:
    """Outcome of checking a run's records: ops attempted and failed."""

    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0

    def add(self, attempted, failed, rel_err=0.0):
        self.attempted += attempted
        self.failed += failed
        self.max_rel_err = max(self.max_rel_err, rel_err)

    @classmethod
    def total(cls, checks):
        out = cls()
        for c in checks:
            out.add(c.attempted, c.failed, c.max_rel_err)
        return out


def _rel_err(value, ref):
    # A non-finite value or reference counts as entirely wrong.
    err = abs(value - ref) / (1.0 + abs(ref))
    return err if math.isfinite(err) else 1.0


def _parse(rc, out, ok_codes):
    if rc not in ok_codes:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


def _alpha(rng):
    return ALPHA_MARGIN + rng.random() * (math.pi - 2.0 * ALPHA_MARGIN)


class Sweep:
    """``lbk verify --seed S --cases C`` over n <= 20, R <= 50.

    One op is one case.  Many small oracle calls put most of the time in
    the oracle and array ``specfun.bessel_j``, behind verify's process
    pool.  The reference is verify's own quadrature oracle: failures and
    unconverged cases come back in its report.
    """

    name = "sweep"
    op_span = "verify.check_identity"

    def __init__(self, cases=1000):
        self.cases = cases

    def _argv(self, seed, cases):
        return ["verify", "--seed", str(seed), "--cases", str(cases),
                "--alpha-margin", repr(SWEEP_ALPHA_MARGIN)]

    def warm_argv(self):
        return self._argv(1, 9)

    def batch(self, rng):
        argv = self._argv(rng.randrange(2 ** 31), self.cases)
        return [(argv, None)], self.cases

    def traced_batch(self, seed):
        return [(self._argv(seed, self.cases), None)], self.cases

    def digest(self, meta, rc, out):
        report = _parse(rc, out, (0, 1))
        if report is None:
            return None
        return rc, report["total"], len(report["failures"]), report["max_rel_err"]

    def check(self, records):
        check = Check()
        for rec in records:
            rc, total, failures, max_rel = rec or (None, 0, 0, 0.0)
            if rc == (1 if failures else 0) and total == self.cases:
                check.add(self.cases, failures, max_rel)
            else:
                check.add(self.cases, self.cases)
        return check


class Triangle:
    """``lbk table --n-max N --all-m`` at seeded field points, closed form.

    One op is one (n, m) entry, (N+1)^2 per call.  The oracle does no work;
    time goes to scalar specfun, the closed form and JSON rendering, and
    grows as N^3.  R is stratified over ``points_per_batch`` equal bins of
    (0, R_max] because the spherical-Bessel branch (upward for n <= R,
    downward above) sets the per-call cost.  A seeded sample of entries is
    checked against scipy's lpmv and spherical_jn.
    """

    name = "triangle"
    op_span = "kernel.closed_form_I"

    def __init__(self, n_max=40, R_max=50.0, points_per_batch=4, sample=128):
        self.n_max = n_max
        self.R_max = R_max
        self.points = points_per_batch
        self.sample = sample

    @property
    def entries(self):
        return (self.n_max + 1) ** 2

    def warm_argv(self):
        return ["table", "--n-max", "2", "--all-m", "--alpha", "1.0",
                "--R", "2.0"]

    def batch(self, rng):
        bins = list(range(self.points))
        rng.shuffle(bins)
        calls = []
        for k in bins:
            alpha = _alpha(rng)
            R = self.R_max * (k + 1.0 - rng.random()) / self.points
            argv = ["table", "--n-max", str(self.n_max), "--all-m",
                    "--alpha", repr(alpha), "--R", repr(R)]
            picks = sorted(rng.sample(range(self.entries),
                                      min(self.sample, self.entries)))
            calls.append((argv, (alpha, R, picks)))
        return calls, self.points * self.entries

    def traced_batch(self, seed):
        return self.batch(random.Random(seed))

    def digest(self, meta, rc, out):
        alpha, R, picks = meta
        rows = _parse(rc, out, (0,)) or []
        complete = (len(rows) == self.entries
                    and sorted((r["n"], r["m"]) for r in rows)
                    == [(n, m) for n in range(self.n_max + 1)
                        for m in range(-n, n + 1)])
        sample = [(r["n"], r["m"], alpha, R, complex(r["re"], r["im"]))
                  for r in (rows[i] for i in picks)] if complete else []
        return complete, sample

    def check(self, records, reference=None):
        reference = reference or scipy_closed_form
        check = Check()
        for complete, sample in records:
            if not complete:
                check.add(self.entries, self.entries)
                continue
            errs = [_rel_err(v, reference(n, m, a, R))
                    for n, m, a, R, v in sample]
            check.add(self.entries, sum(e > CHECK_TOL for e in errs),
                      max(errs, default=0.0))
        return check


class LargeR:
    """``lbk quad`` at large R: a few huge node arrays per call.

    One op is one converged call.  A batch is a stratified grid: every R of
    a log-spaced list meets every one of ``alpha_bins`` equal bins of the
    tilt, in seeded order, with seeded (n, m) and an alpha drawn inside its
    bin.  Cost per call varies ~25x with alpha at fixed R (the Bessel
    argument R sin(alpha) sets the Miller start order and the number of
    panel doublings), so stratifying keeps the per-batch cost steady
    without leaving out the expensive tilts.  The reference is the closed
    form, evaluated after the timed loop.
    """

    name = "large_R"
    op_span = "cli.main"

    # n stays at or below 10: above it, draws with |m| near n and alpha near
    # 0 or pi can exit 3 at R >= 500 even under QUAD_TOLS (README.md).
    def __init__(self, radii=(125.0, 250.0, 500.0, 1000.0), alpha_bins=8,
                 n_max=10):
        self.radii = radii
        self.alpha_bins = alpha_bins
        self.n_max = n_max

    def warm_argv(self):
        return ["quad", "--n", "2", "--m", "1", "--alpha", "1.0", "--R", "50.0"]

    def batch(self, rng):
        cells = [(R, k) for R in self.radii for k in range(self.alpha_bins)]
        rng.shuffle(cells)
        width = (math.pi - 2.0 * ALPHA_MARGIN) / self.alpha_bins
        calls = []
        for R, k in cells:
            n = rng.randrange(self.n_max + 1)
            m = rng.randrange(-n, n + 1)
            alpha = ALPHA_MARGIN + (k + rng.random()) * width
            calls.append((["quad", "--n", str(n), "--m", str(m),
                           "--alpha", repr(alpha), "--R", repr(R)] + QUAD_TOLS,
                          (n, m, alpha, R)))
        return calls, len(calls)

    def traced_batch(self, seed):
        return self.batch(random.Random(seed))

    def digest(self, params, rc, out):
        rec = _parse(rc, out, (0,))
        return params, complex(rec["re"], rec["im"]) if rec else None

    def check(self, records, reference=None):
        if reference is None:
            from lbk import IntegralParams, closed_form_I

            def reference(n, m, alpha, R):
                return closed_form_I(IntegralParams(n, m, alpha, R))
        check = Check()
        for params, value in records:
            if value is None:
                check.add(1, 1)
                continue
            err = _rel_err(value, reference(*params))
            check.add(1, int(err > CHECK_TOL), err)
        return check


def scipy_closed_form(n, m, alpha, R):
    """2 i^(n-m) P_n^m(cos alpha) j_n(R) from scipy, an independent reference.

    scipy's lpmv carries the Condon-Shortley phase, as lbk does.
    """
    from scipy.special import lpmv, spherical_jn
    return (2.0 * (1, 1j, -1, -1j)[(n - m) % 4] * float(lpmv(m, n, math.cos(alpha)))
            * float(spherical_jn(n, R)))


WORKLOADS = {w.name: w for w in (Sweep, Triangle, LargeR)}

"""lbk benchmark: three workloads, end-to-end metrics, traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|triangle|large_R \\
        --seed N --seconds T --trace 0|1

``--trace 0`` runs the workload as a closed loop for T seconds with
tracing off and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
amount of work derived from the seed twice, untraced and traced, plus the
layer probes, and prints the per-layer metrics.  The last line of stdout
is the result object; the line before it holds the machine facts.  The
full record (spans included when traced) goes to perfbench/out/.

lbk is imported from the checkout's own ``src/``; without it the
benchmark exits 2 before measuring anything.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# OpenBLAS would start a thread per CPU for the oracle's long dot products;
# they spin between calls, so large_R would keep two CPUs busy for the
# throughput of one.  With one BLAS thread per process the load is what the
# workloads state: one process, plus verify's pool for sweep.  Set before
# numpy loads; the set-up probes and pool workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import probes  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Check, run_cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Seeds used while the benchmark was developed; a claim checked on any
# other seed is checked on inputs nobody tuned against.
DEV_SEEDS = tuple(range(1, 11)) + (42,)

# verify's pool is capped at two workers, the size of the machine the
# benchmark was written on, so that every machine runs the same pool.
POOL_WORKERS = 2

SETUP_REPEATS = 9


def import_lbk():
    if not (SRC / "lbk" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import lbk
    import lbk.cli  # not imported by the package itself
    if Path(lbk.__file__).resolve().parent != SRC / "lbk":
        return None
    return lbk


def peak_rss_mb(workers, worker_kb):
    """This process's peak RSS plus ``workers`` times a worker's, in kB.

    Computed upper bound on the concurrent footprint of the process and
    its pool: pages a forked worker shares with its parent count twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workers * worker_kb) / 1024.0


class SetupTimer:
    """Wall times of fresh processes doing a workload's set-up.

    The timed loop takes its samples between batches, spread over the
    run, so that their median sees the same machine as the throughput
    rather than one burst of a second or two.
    """

    def __init__(self, workload):
        probe = Path(__file__).resolve().parent / "setup_probe.py"
        self.argv = [sys.executable, str(probe), str(SRC), workload]
        self.env = dict(os.environ, LBK_WORKERS=str(POOL_WORKERS))
        self.walls = []
        self._wall()  # writes bytecode caches and warms the page cache

    def _wall(self):
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(self.argv, env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def sample(self):
        self.walls.append(self._wall())

    def median(self):
        return statistics.median(self.walls)


def run_calls(main, calls):
    """Run one batch of calls; return its wall time and the raw outputs."""
    outputs = []
    t0 = time.perf_counter()
    for argv, meta in calls:
        rc, out = run_cli(main, argv)
        outputs.append((meta, rc, out))
    return time.perf_counter() - t0, outputs


def timed_run(lbk, workload, seed, seconds):
    """Closed loop for ``seconds`` of timed work; the end-to-end metrics."""
    cli = lbk.cli
    os.environ["LBK_WORKERS"] = str(POOL_WORKERS)
    rng = random.Random(seed)
    run_cli(cli.main, workload.warm_argv())
    rates, batches, setup = [], [], None
    timed = 0.0
    while timed < seconds:
        calls, ops = workload.batch(rng)
        wall, outputs = run_calls(cli.main, calls)
        timed += wall
        rates.append(ops / wall)
        batches.append([workload.digest(*o) for o in outputs])
        if setup is None:
            # The set-up probes are children too: read the pool workers'
            # peak before the first one starts.
            worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setup = SetupTimer(workload.name)
        if (len(setup.walls) < SETUP_REPEATS
                and timed >= seconds * len(setup.walls) / SETUP_REPEATS):
            setup.sample()
    while len(setup.walls) < SETUP_REPEATS:
        setup.sample()
    workers = lbk.verify.resolve_workers() if workload.name == "sweep" else 0
    rss = peak_rss_mb(workers, worker_kb)
    checks = [workload.check(records) for records in batches]
    check = Check.total(checks)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "ok_frac": (1.0 - check.failed / check.attempted, "frac"),
        "accurate_digits": (statistics.median(
            accurate_digits(c.max_rel_err) for c in checks), "digits"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup.median(), "s"),
    }
    detail = {"batches": len(rates), "timed_s": timed,
              "batch_ops_per_s": rates, "max_rel_err": check.max_rel_err,
              "batch_max_rel_err": [c.max_rel_err for c in checks]}
    return check, metrics, detail


def accurate_digits(max_rel_err):
    """-log10 of a worst normalized error, capped at 17 digits."""
    return -math.log10(max(max_rel_err, 1e-17))


def traced_run(lbk, workload, seed):
    """Fixed work from the seed, untraced then traced; per-layer metrics."""
    cli = lbk.cli
    modules = {"cli": lbk.cli, "verify": lbk.verify, "kernel": lbk.kernel,
               "oracle": lbk.oracle}
    metrics = {name: (value, unit) for name, value, unit in probes.layer_probes(lbk)}
    calls, ops = workload.traced_batch(seed)
    os.environ["LBK_WORKERS"] = str(POOL_WORKERS)
    workers = lbk.verify.resolve_workers()
    run_calls(cli.main, calls)  # warm-up pass

    pool_overhead = 0.0
    if workload.name == "sweep":
        wall_pool, _ = run_calls(cli.main, calls)
        os.environ["LBK_WORKERS"] = "1"
        wall_serial, _ = run_calls(cli.main, calls)
        pool_overhead = wall_pool - wall_serial / workers
    else:
        wall_serial, _ = run_calls(cli.main, calls)
    # Traced serially, so that every span stays in this process.
    os.environ["LBK_WORKERS"] = "1"

    tracer = tracing.Tracer(workload.op_span)

    def traced_main(argv):
        return tracer.call("cli.main", cli.main, argv)

    with tracing.installed(tracer, modules):
        root = tracer.open("bench.run")
        wall_traced, outputs = run_calls(traced_main, calls)
        tracer.close(root)
    check = workload.check([workload.digest(*o) for o in outputs])

    metrics.update(tracing.layer_metrics(tracer, wall_traced))
    traced_rate = ops / wall_traced
    untraced_rate = ops / wall_serial
    metrics.update({
        "verify.pool_overhead_s": (pool_overhead, "s"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.overhead_ops_per_s": (traced_rate - untraced_rate, "1/s"),
        "trace.wall_s": (wall_traced, "s"),
        "failed_frac": (check.failed / check.attempted, "frac"),
        "max_rel_err": (check.max_rel_err, "ratio"),
    })
    return check, metrics, {"spans": tracer.spans}


def machine_facts():
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except OSError:
        conf = ""
    for line in conf.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            caches[key] = int(value)
    facts["caches"] = caches
    return facts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    lbk = import_lbk()
    if lbk is None:
        print(f"lbk sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.trace:
        check, metrics, detail = traced_run(lbk, workload, args.seed)
    else:
        check, metrics, detail = timed_run(lbk, workload, args.seed, args.seconds)

    facts = machine_facts()
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "held_out_seed": args.seed not in DEV_SEEDS,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "result": result, **detail}
    OUT.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "run"
    (OUT / f"{mode}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record))
    print(json.dumps({"machine": facts, "seed": args.seed,
                      "held_out_seed": record["held_out_seed"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

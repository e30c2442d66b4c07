"""End-to-end benchmark of paramvariety, with per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload derive --seed 1 --seconds 35 --trace 0

Workloads: derive, variety-cli, explore (see README.md). One caller in one
process issues the next operation when the previous one returns (closed
loop). Runs whole rounds of operations until --seconds have passed (and,
untraced, until at least MIN_OPS operations completed), then checks every
operation's output apart from the program. The last line of
standard output is one JSON object: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict

# set-ups and import timings made before the timed loop, and again after it;
# setup_s takes the median of each, so it samples the machine at two moments
SETUP_REPEATS = 3
BLAS_ONE_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import paramvariety; "
                "print(time.perf_counter() - t)")
# an untraced run goes on past --seconds until it has this many operations,
# so that at least ten lie beyond the 90th percentile even on a slow machine
MIN_OPS = 100


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["derive", "variety-cli", "explore"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class Side:
    """The operations run under one probe, and the time they took."""

    def __init__(self, probe):
        self.probe = probe
        self.latencies = []
        self.kinds = []
        self.wall = 0.0

    def rate(self):
        return len(self.latencies) / self.wall


def timed_loop(workload, sides, seconds, records, min_ops=0):
    """Whole rounds until `seconds` have passed and the last side has
    `min_ops` operations. Each round runs once under each side's probe, so
    the sides see the same operations at nearly the same time. Counts each
    distinct output record in `records`; returns the number of failed
    operations."""
    failed = 0
    clock = time.perf_counter
    start = clock()
    while clock() - start < seconds or len(sides[-1].kinds) < min_ops:
        ops = workload.next_round()
        for side in sides:
            probe = side.probe
            probe.install()
            t_round = clock()
            for op in ops:
                probe.op = len(side.kinds)
                side.kinds.append(op.get("kind"))
                t0 = clock()
                try:
                    result = workload.call(op)
                except Exception:      # a failed operation; the run goes on
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    probe.returned.clear()
                    continue
                side.latencies.append(clock() - t0)
                records[workload.collect(op, result, probe)] += 1
            side.wall += clock() - t_round
            probe.uninstall()
    return failed


def import_times(src):
    """Times to import the package in SETUP_REPEATS fresh interpreters (one
    import timed in this process is too noisy)."""
    env = dict(os.environ, PYTHONPATH=src, **BLAS_ONE_THREAD)
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=60).stdout)
            for _ in range(SETUP_REPEATS)]


def set_up(cls, root, workdir, seed, times):
    """One set-up: inputs, bases and one untimed warm-up operation."""
    t0 = time.perf_counter()
    workload = cls(root, workdir, seed)
    workload.setup()
    workload.call(workload.warm_up_op())
    times.append(time.perf_counter() - t0)
    return workload


def per_kind_table(probe, kinds):
    """Counts per operation, by input kind, from the traced run."""
    by_kind = defaultdict(lambda: defaultdict(int))
    ops = defaultdict(int)
    for op, kind in enumerate(kinds):
        ops[kind] += 1
        for name, n in probe.counts.get(op, {}).items():
            by_kind[kind][name] += n
    lines = []
    for kind in sorted(ops):
        counts = ", ".join(f"{name} {n / ops[kind]:.6g}"
                           for name, n in sorted(by_kind[kind].items()))
        lines.append(f"# {kind}: {ops[kind]} ops; per op: {counts or 'no counts'}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "paramvariety")) \
            or not os.path.isdir(os.path.join(root, "models")):
        print("error: run from the repository root: src/paramvariety and "
              "models/ are missing", file=sys.stderr)
        return 2
    # tiny matrices: one BLAS thread; set before numpy is first imported
    os.environ.update(BLAS_ONE_THREAD)
    sys.path.insert(0, src)
    import paramvariety
    import tracing
    import workloads
    imports = import_times(src)

    cls = workloads.WORKLOADS[args.workload]
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    stdout = sys.stdout
    try:
        sys.stdout = _Discard()
        setups = []
        for i in range(SETUP_REPEATS):
            workload = set_up(cls, root, os.path.join(workdir, f"setup{i}"),
                              args.seed, setups)

        records = Counter()
        sides = [Side(tracing.Probe(cls.capture, capture=cls.capture))]
        if args.trace:
            # every round runs untraced, then traced: the difference in
            # their rates is the tracing overhead
            sides.append(Side(tracing.Probe(tracing.LAYER_FUNCTIONS,
                                            capture=cls.capture, spans=True)))
        failed = timed_loop(workload, sides, args.seconds, records,
                            0 if args.trace else MIN_OPS)
        attempted = sum(len(side.kinds) for side in sides)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for i in range(SETUP_REPEATS):
            set_up(cls, root, os.path.join(workdir, f"after{i}"), args.seed, setups)
        imports += import_times(src)
        setup_s = statistics.median(imports) + statistics.median(setups)
    finally:
        sys.stdout = stdout
        shutil.rmtree(workdir, ignore_errors=True)

    import checks          # sympy and scipy: imported after the timed runs
    errors = workload.check(records, checks)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    timed = sides[-1]
    lat = timed.latencies
    lat_ms = [x * 1e3 for x in lat]
    print(f"# workload {args.workload}, seed {args.seed}, kernel backend "
          f"{paramvariety.KERNEL_BACKEND}: {attempted} operations attempted, "
          f"{failed} failed, {len(errors)} check errors; imports "
          f"{', '.join(f'{x:.3f}' for x in imports)} s; set-ups "
          f"{', '.join(f'{x:.3f}' for x in setups)} s")
    print(f"# {'traced' if args.trace else 'timed'}: {len(lat)} operations in "
          f"{timed.wall:.3f} s; harness share {1 - sum(lat) / timed.wall:.4f}")
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (timed.rate(), "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(lat_ms, n=10,
                                                    method="inclusive")[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        beyond = sum(1 for x in lat_ms if x > metrics["latency_p90_ms"][0])
        print(f"# latency_p90_ms has {beyond} samples beyond it")
    else:
        untraced_rate, traced_rate = sides[0].rate(), timed.rate()
        metrics = timed.probe.layer_metrics(len(lat))
        metrics["trace.overhead_pct"] = (
            100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
        for line in per_kind_table(timed.probe, timed.kinds):
            print(line)
        print(f"# ops_per_s untraced {untraced_rate:.4f}, traced {traced_rate:.4f}")
        path = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": timed.probe.span_records()}, fh)
        print(f"# spans written to {os.path.relpath(path, root)}")
    print(json.dumps({
        "correct": not errors and bool(records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

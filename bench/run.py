#!/usr/bin/env python3
"""Screening benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze_audit --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`. The run runs the workload's operations in a closed loop for
--seconds (then to the end of the round of inputs it is in), measures
set-up time in fresh interpreters started between operations, checks
every output against the benchmark's own reference, and prints a readable summary
followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 each operation runs twice, plain
and traced, and the metrics are the per-layer ones plus the tracing
overhead. The spans go to .bench_out/ in the checkout.
"""

import os

# One BLAS thread, fixed before numpy loads (children inherit it).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TAIL_PERCENTILE = 70
SETUP_REPEATS = 15
# Median calibration_kernel() time on the baseline machine (bench/README.md):
# operation times are reported at this reference speed.
CALIBRATION_REF_S = 0.0165


def import_package():
    """Import expert_screening from this checkout's src/, or exit 1."""
    pkg = SRC / "expert_screening"
    if not (pkg / "__init__.py").is_file() or not (ROOT / "demos" / "scenarios").is_dir():
        sys.exit(f"error: no expert_screening sources under {ROOT}")
    sys.path.insert(0, str(SRC))
    import expert_screening

    if Path(expert_screening.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported expert_screening from {expert_screening.__file__}")


def git_head():
    """HEAD commit read from .git, or 'unknown' outside a git checkout."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def machine_facts():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_head": git_head(),
    }


class SetupProbe:
    """Set-up time: the time from process start until the workload is ready
    for its first timed operation, in a fresh interpreter. The probes are
    spread over the timed window, one every --seconds / SETUP_REPEATS,
    because the machine's speed shifts within tens of seconds
    (bench/README.md): probes made together share one speed, and probes
    spread over the window share the operations' median speed factor."""

    def __init__(self, args, tmpdir):
        probe_dir = tmpdir / "probe"
        probe_dir.mkdir(exist_ok=True)
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        self.times = []

    def __call__(self):
        """Run one probe; return the wall time it took, waiting included."""
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            sys.exit(f"error: set-up probe failed with exit code {code}")
        self.times.append(elapsed)
        return time.perf_counter() - t0


def calibration_kernel():
    """Time a fixed piece of numpy work shaped like the package's hot loops
    (a seeded Generator per step, small-array draws and reductions). It
    never calls the package, so a change to the package cannot move it,
    while a slower or busier machine slows it like the workloads."""
    t0 = time.perf_counter()
    acc = 0.0
    for t in range(300):
        rng = np.random.default_rng([12345, t])
        e = rng.standard_exponential(4)
        p = np.clip(e / e.sum(), 0.0, None)
        p = p / p.sum()
        s = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
        acc += 2.0 * p[min(s, 3)] - float(p @ p) - 1.0
    return time.perf_counter() - t0


class Run:
    """Outcome of the operations of one run."""

    def __init__(self):
        self.raw_times = []      # seconds per timed operation, as measured
        self.times = []          # the same at the reference speed (trace mode: as measured)
        self.items = 0
        self.traced_s = 0.0      # paired traced time (trace mode)
        self.plain_s = 0.0
        self.attempted = 0
        self.failures = {}       # reason -> count
        self.abs_err = []

    def record(self, ok, reason, detail):
        self.attempted += 1
        if not ok:
            self.failures[reason] = self.failures.get(reason, 0) + 1
        if "abs_err" in detail:
            self.abs_err.append(detail["abs_err"])

    @property
    def failed(self):
        return sum(self.failures.values())


def run_loop(wl, seconds, tracer=None, probe=None):
    from tracing import instrument

    run = Run()
    end = time.perf_counter() + seconds
    next_probe = time.perf_counter()
    i = 0
    while True:
        if probe is not None and time.perf_counter() >= next_probe:
            # the probe's time does not count toward the timed window
            end += probe()
            next_probe = time.perf_counter() + seconds / SETUP_REPEATS
        case = wl.prepare(i)
        if tracer is None:
            dt, result = wl.execute(case)
        else:
            # plain and traced on the same input, in alternating order so
            # that any state one leaves for the other cancels out
            tracer.op = i
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with instrument(tracer):
                        dt, result = tracer.call("bench.op", True, wl.execute, case)
                    run.traced_s += dt
                else:
                    plain_dt, _ = wl.execute(case)
                    run.plain_s += plain_dt
        run.items += wl.items(case)
        run.record(*wl.check(case, result))
        run.raw_times.append(dt)
        if tracer is None:
            # the machine's speed right after this operation: it shifts by
            # up to 65 % within tens of seconds (bench/README.md)
            dt *= CALIBRATION_REF_S / calibration_kernel()
        run.times.append(dt)
        i += 1
        # whole rounds only, so that a faster program is measured on the
        # same mix of inputs as a slower one
        if i % wl.round_size == 0 and time.perf_counter() >= end:
            break
    while probe is not None and len(probe.times) < SETUP_REPEATS:
        probe()
    for ok, reason, detail, label in wl.final_checks():
        print(f"check {label}: {'pass' if ok else 'FAIL'} (z = {detail['z']:.2f})")
        run.record(ok, reason, detail)
    return run


def percentile(values, q):
    return float(np.percentile(values, q))


def end_to_end_metrics(run, setup_s, times):
    """End-to-end metrics; the operation metrics come from `times`."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_p50": (percentile(times, 50) * 1e3, "ms"),
        f"op_ms_p{TAIL_PERCENTILE}": (percentile(times, TAIL_PERCENTILE) * 1e3, "ms"),
        "items_per_s": (run.items / sum(times), "1/s"),
    }


def print_summary(args, wl, run, metrics, facts):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    beyond = sum(t > percentile(run.times, TAIL_PERCENTILE) for t in run.times)
    print(f"operations {len(run.times)} timed ({wl.item}s: {run.items}), "
          f"{beyond} beyond p{TAIL_PERCENTILE}; attempted {run.attempted}, "
          f"failed {run.failed} {dict(sorted(run.failures.items()))}")
    print(f"fail_share {run.failed / run.attempted:.4f} share")
    aliases = {"op_ms_p50": f"{wl.op_name}_ms_p50",
               f"op_ms_p{TAIL_PERCENTILE}": f"{wl.op_name}_ms_tail (p{TAIL_PERCENTILE})",
               "items_per_s": f"{wl.item}s_per_s"}
    for name, (value, unit) in metrics.items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"{name} {value:.6g} {unit}{alias}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        import_package()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.setup_probe, str(ROOT))
        print("ready", flush=True)
        return 0

    import_package()
    import workloads
    from tracing import Tracer, instrument, per_layer_metrics

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("error: --seed must be >= 0 and --seconds > 0")

    tmpdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmpdir.mkdir(parents=True)
    try:
        facts = machine_facts()
        tracer = Tracer() if args.trace else None
        probe = None
        if tracer is None:
            probe = SetupProbe(args, tmpdir)
            wl = workloads.WORKLOADS[args.workload](args.seed, str(tmpdir), str(ROOT))
        else:
            with instrument(tracer):
                wl = workloads.WORKLOADS[args.workload](args.seed, str(tmpdir), str(ROOT))
        run = run_loop(wl, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass

    if tracer is None:
        setup_s = statistics.median(probe.times)
        factor = statistics.median(t / r for t, r in zip(run.times, run.raw_times))
        print(f"median speed factor {factor:.4f} (reference kernel time "
              f"{CALIBRATION_REF_S * 1e3:.3f} ms / kernel time); as measured:")
        raw = end_to_end_metrics(run, setup_s, run.raw_times)
        for name in ("setup_s", "op_ms_p50", f"op_ms_p{TAIL_PERCENTILE}", "items_per_s"):
            print(f"  raw {name} {raw[name][0]:.6g} {raw[name][1]}")
        # the probes ran between the operations, so the run's median factor
        # is the machine's speed over the same window
        metrics = end_to_end_metrics(run, setup_s * factor, run.times)
    else:
        metrics = per_layer_metrics(tracer, len(run.times), run.abs_err)
        metrics["trace.overhead_share"] = (run.traced_s / run.plain_s - 1.0, "share")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "machine": facts, **tracer.dump()}))
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print_summary(args, wl, run, metrics, facts)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

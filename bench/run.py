#!/usr/bin/env python3
"""qlocc benchmark: time-to-verdict on fixed and seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a qlocc checkout; qlocc is imported from its `src/`.
One workload runs in this (fresh, single-threaded) interpreter as a closed
loop: one client, each job submitted only after the previous verdict came
back and was checked. Whole passes over the workload's job list repeat
while the next pass is expected to end within --seconds; at least one pass
always runs. `--workload all` runs every workload in its own fresh
interpreter and prints a table.

Times are reference seconds: measured seconds scaled by the machine's speed
while they were measured, which a probe samples on a timer (speed.py).

--trace 0 reports the end-to-end metrics. --trace 1 runs untraced passes
for half the budget, then one traced pass and one more untraced pass, and
reports the per-layer metrics of the traced pass plus its overhead against
the mean of the untraced passes right before and after it.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. A `record:` line before it (also written under
bench/results/) carries the environment, seed, failures and fail_ratio.
"""

import os

# pinned before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

# set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S seconds
# are spent, so that cheap set-ups repeat more; never more than SETUP_MAX_REPS
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 50
END_TO_END = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# spans the traced run keeps from its set-up; all others cover the traced pass
SETUP_SPANS = ("fixtures.build_fixture", "qset.serialize_qset")
# a layer the map expects to carry most of a workload's traced wall time
MAJORITY = {
    "family-s1general": ("oplm.oplm_space",),
    "profile-s4": ("protocol.apply_outcome", "upb.check_unextendible"),
    "upb-oracle": ("upb.numeric_extension_search",),
}


def rank(pct: int, n: int) -> int:
    """1-based nearest rank of integer percentile pct among n values."""
    return -(-pct * n // 100)


def nearest_rank(values, pct: int):
    ordered = sorted(values)
    return ordered[rank(pct, len(ordered)) - 1]


def tail_percentile(n_jobs: int) -> int:
    """The highest percentile whose nearest rank leaves at least 10 of a
    pass's n_jobs beyond it; 100 (the slowest job) when none does."""
    return next((p for p in range(99, 0, -1) if n_jobs - rank(p, n_jobs) >= 10), 100)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy without the dict config
        blas = f"unknown ({type(exc).__name__})"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_qlocc():
    """Fresh import of qlocc from this checkout (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "qlocc" or m.startswith("qlocc.")]:
        del sys.modules[name]
    import qlocc
    import qlocc.cli  # noqa: F401  (the replay workload drives the CLI)

    return qlocc


def run_pass(jobs, probe):
    """One pass over the jobs under an active SpeedProbe: (wall, cpu,
    latencies, failures, scale). Times are reference seconds (see speed.py):
    wall and cpu are scaled by the pass's samples (scale, reference seconds
    per measured second), each job's latency also by the samples around it."""
    clock = probe.clock
    first = len(probe.samples)
    latencies, spans, failures = [], [], []
    gc.collect()
    c0, t0 = probe.cpu(cpu_seconds), clock()
    for label, job in jobs:
        pj, tj = perf_counter(), clock()
        try:
            reason = job()
        except Exception as exc:  # a raising job is a failed check, never an abort
            reason = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - tj)
        spans.append((pj, perf_counter()))
        if reason:
            failures.append(f"{label}: {reason}")
    wall, used = clock() - t0, probe.cpu(cpu_seconds) - c0
    k, per_job = probe.pass_scales(first, spans)
    return wall * k, used * k, [x * kj for x, kj in zip(latencies, per_job)], failures, k


def run_passes(jobs, budget: float, probe):
    """Whole passes while the next one, at the mean pass time so far, is
    expected to end within the budget; always at least one."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(jobs, probe))
        elapsed = perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def run_one(args) -> int:
    if not (SRC / "qlocc" / "__init__.py").is_file():
        print(f"bench: no qlocc sources at {SRC}; run from the root of a qlocc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded outside the timed set-up)

    from spans import Tracer, metric_units
    from speed import SpeedProbe
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    probe = SpeedProbe()
    tracer = Tracer(probe.clock) if args.trace else None
    setup_times = []
    try:
        with probe:
            while not setup_times or not tracer and (
                len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
            ):
                workload = WORKLOADS[args.workload]()
                gc.collect()
                t0 = probe.clock()
                Q = import_qlocc()
                if tracer:
                    tracer.install()
                workload.setup(Q, args.seed, workdir)
                setup_times.append(probe.clock() - t0)
            # one scale over every set-up: a single cheap set-up holds too few samples
            setup_scale = probe.scale(0)
            if not Path(Q.__file__).resolve().is_relative_to(SRC.resolve()):
                print(f"bench: qlocc imported from {Q.__file__}, not from {SRC}", file=sys.stderr)
                return 2
            if tracer:
                tracer.remove()
                tracer.reset(keep=SETUP_SPANS)
            passes = run_passes(workload.jobs, args.seconds / 2 if tracer else args.seconds, probe)
            if tracer:
                tracer.install()
                traced = run_pass(workload.jobs, probe)
                tracer.remove()
                after = run_pass(workload.jobs, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    walls = [p[0] for p in passes]
    tail_pct = tail_percentile(len(workload.jobs))
    latencies = [x for p in passes for x in p[2]]
    failures = [f for p in passes for f in p[3]]
    attempted = len(latencies)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "jobs_per_pass": len(workload.jobs),
        "passes": len(passes),
        "tail_percentile": tail_pct,
        "probe_samples": len(probe.samples),
        "probe_mean_s": statistics.fmean(probe.samples) if probe.samples else None,
        "environment": environment(args.seed),
    }
    if tracer:
        attempted += len(traced[2]) + len(after[2])
        failures += traced[3] + after[3]
        layer = tracer.metrics()
        layer["trace.wall_s"] = traced[0]
        # adjacent passes only: machine speed drifts over minutes
        layer["trace.overhead_s"] = traced[0] - (walls[-1] + after[0]) / 2
        units = metric_units()
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
        incl = tracer.inclusive_seconds()
        measured = traced[0] / traced[4]  # span seconds are measured seconds, not scaled
        shares = {k: v / measured for k, v in sorted(incl.items(), key=lambda kv: -kv[1]) if v > 0 and k not in SETUP_SPANS}
        record["shares"] = shares
        record["absent_hooks"] = sorted(tracer.absent)
        if args.workload in MAJORITY:
            layers = MAJORITY[args.workload]
            share = sum(shares.get(k, 0.0) for k in layers)
            record["majority_check"] = {"layers": layers, "share": share, "agrees": share > 0.5}
            if share <= 0.5:
                print(f"bench: {'+'.join(layers)} carry {share:.0%} of {args.workload}, not most of it", file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "job_s.p50": statistics.median(statistics.median(p[2]) for p in passes),
            "job_s.tail": statistics.median(nearest_rank(p[2], tail_pct) for p in passes),
            "cpu_s": statistics.median(p[1] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times) * setup_scale,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record["setup_measured_s"] = setup_times
        record["setup_scale"] = setup_scale
        record["pass_walls"] = walls
        record["pass_scales"] = [p[4] for p in passes]
    record["fail_ratio"] = len(failures) / attempted
    record["failures"] = failures[:20]

    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']} {m['unit']}")
    print(f"{args.workload}  fail_ratio = {record['fail_ratio']} 1")
    print("record: " + json.dumps(record, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<42} {m['value']} {m['unit']}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

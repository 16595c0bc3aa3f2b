#!/usr/bin/env python3
"""Benchmark for qw3: certified spectra per second and long-time walk dynamics.

Run from the repository root:

    python3 bench/run.py --workload presets --seed 1 --seconds 15 --trace 0

Workloads (bench/README.md says why each exists):
  presets       `qw3 roots` in-process on the paper's eight headline fields
  wide-windows  `qw3 roots --config` on 24 seeded 16-32-site windows
  dynamics      `evolve` to t=800 and `time_averaged_origin` to T=1600

Jobs run in rounds, one job of each input per round, until --seconds have
passed. With --trace 0 the last line holds the end-to-end metrics. With
--trace 1 untraced and traced rounds alternate; the last line holds the
per-layer metrics of the traced rounds and the tracing overhead.
"""

from __future__ import annotations

import os
import sys

# One process, BLAS threads capped at the CPUs this process may use, and the
# scan's thread-pool switch unset, all before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
os.environ.pop("QW3_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("presets", "wide-windows", "dynamics")
SETUP_REPEATS = 9
SETUP_CAL_REF_S = 0.008
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

def run_round(w, tracer=None) -> tuple[list, float]:
    """Run every job of the workload once; check each outside its timing."""
    from calibration import CALIBRATION
    from workloads import JobRun

    calibrate = CALIBRATION[w.kind]
    runs, busy = [], 0.0
    for job in w.jobs:
        cal = calibrate()
        t0 = time.perf_counter()
        if tracer is None:
            output = w.run(job)
        else:
            tracer.job_id += 1
            output = tracer.span("bench.job", w.run, job)
        dt = time.perf_counter() - t0
        cal = 0.5 * (cal + calibrate())
        busy += dt
        runs.append(JobRun(job, w.job_name(job), dt, cal, w.check(job, output)))
        del output
    return runs, busy


def measure_setup(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(set-up seconds, small-kernel seconds) of fresh interpreters, each
    building the inputs once."""
    probes = []
    for i in range(repeats):
        scratch = OUT / f"setup-{os.getpid()}-{i}"
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
                 str(scratch)],
                capture_output=True, text=True, timeout=120, check=True,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        seconds, cal = proc.stdout.split()[-2:]
        probes.append((float(seconds), float(cal)))
    return probes


def tail(samples: list[float]):
    """(percentile, value, samples beyond) for the highest listed percentile
    that has at least ten samples beyond it, or None."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, int(np.ceil(p * n / 100.0)))  # nearest rank
        if n - rank >= 10:
            best = (p, xs[rank - 1], n - rank)
    return best


def metadata(args) -> dict:
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for p in sorted((SRC / "qw3").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": NPROC,
    }


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<8} {note}".rstrip())


def untraced_run(w, args):
    # set-up probes are spread over the run, one after each round, so that
    # their median does not hang on one stretch of machine load
    setup_times = measure_setup(args.workload, args.seed, 2)
    runs, busy = [], 0.0
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < args.seconds:
        batch, wall = run_round(w)
        runs += batch
        busy += wall
        setup_times += measure_setup(args.workload, args.seed, 1)
    # the high-water mark of the timed loop, before the reference checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += measure_setup(args.workload, args.seed,
                                 SETUP_REPEATS - len(setup_times))
    w.finish(runs)

    times = [r.seconds for r in runs]
    costs = [r.seconds / r.cal for r in runs]
    # set-up seconds at the machine speed where the small-matrix kernel takes
    # SETUP_CAL_REF_S: raw set-up time drifted by 25% over six minutes, the
    # scaled one by 7-9% (calibration.py)
    setup_s = statistics.median(t * SETUP_CAL_REF_S / cal for t, cal in setup_times)
    cost_p50 = statistics.median(costs)
    cost_mean = statistics.fmean(costs)
    t = tail(times)
    label = "spectrum" if w.kind == "spectrum" else "sim"
    print(f"end-to-end, {len(runs)} jobs ({len(w.jobs)} inputs x "
          f"{len(runs) // len(w.jobs)} rounds):")
    report("setup_s", setup_s, "s", "(median of fresh interpreters, scaled; raw: "
           + ", ".join(f"{t:.4f}" for t, _ in setup_times) + ")")
    report("job_cost.p50", cost_p50, "cal", "(job time over calibration time)")
    report("job_cost.mean", cost_mean, "cal")
    report("calibration_s.p50", statistics.median(r.cal for r in runs), "s")
    if w.kind == "spectrum":
        report("spectra_per_s", len(runs) / busy, "1/s")
    else:
        report("sim_steps_per_s", len(runs) * w.steps_per_job / busy, "steps/s",
               f"({w.steps_per_job} steps per job)")
    report(f"{label}_s.p50", statistics.median(times), "s")
    if t:
        report(f"{label}_s.tail", t[1], "s",
               f"(p{t[0]:g}, {t[2]} of {len(times)} samples beyond)")
    else:
        print(f"  {label}_s.tail: none, {len(times)} samples are fewer than 20")
    report("peak_rss_mb", peak_rss_mb, "MB")
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_cost.mean": (cost_mean, "cal"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return runs, metrics


def traced_run(w, seconds: float, trace_path: Path):
    """Alternate untraced and traced rounds of the same jobs."""
    import qw3.cli
    import qw3.evolution
    import qw3.spectral
    from spans import LAYER_UNITS, Tracer

    tracer = Tracer()
    modules = {m.__name__: m for m in (qw3.cli, qw3.spectral, qw3.evolution)}
    runs, untraced, traced = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        batch, wall = run_round(w)
        runs += batch
        untraced.append(wall)
        tracer.install(modules)
        try:
            batch, wall = run_round(w, tracer)
        finally:
            tracer.restore()
        runs += batch
        traced.append(wall)
    w.finish(runs)
    tracer.save(trace_path)

    layers = tracer.layer_metrics(len(traced))
    base = statistics.median(untraced)
    layers["trace.untraced_s"] = base
    layers["trace.traced_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = layers["trace.traced_s"] - base
    print(f"per-layer, per round of {len(w.jobs)} jobs "
          f"({len(traced)} traced round(s), spans in {trace_path.name}):")
    for name, value in layers.items():
        report(name, value, LAYER_UNITS[name])
    print(f"  tracing overhead {layers['trace.overhead_s']:.4f} s per round, "
          f"{100.0 * layers['trace.overhead_s'] / base:.1f}% of {base:.4f} s untraced")
    return runs, {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qw3" / "__init__.py").is_file():
        print(f"error: no qw3 sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    OUT.mkdir(exist_ok=True)
    meta = metadata(args)
    print(f"qw3 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    try:
        w = workloads.prepare(args.workload, args.seed, scratch)
        if args.trace:
            runs, metrics = traced_run(w, args.seconds, OUT / f"trace-{args.workload}.npz")
        else:
            runs, metrics = untraced_run(w, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(r.verdict.failed for r in runs)
    print(f"  failed_frac {failed / len(runs):.4f} ratio ({failed} of {len(runs)} jobs)")
    if w.summary:
        print("  " + ", ".join(f"{k} {v:.6g}" for k, v in w.summary.items()))
    for r in runs:
        for msg in r.verdict.wrong:
            print(f"  WRONG   {r.name}: {msg}")
        for msg in r.verdict.missed:
            print(f"  MISSED  {r.name}: {msg}")
    result = {
        "correct": not any(r.verdict.wrong for r in runs),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    jobs = [[r.name, r.seconds, r.cal, r.verdict.failed] for r in runs]
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **result, "jobs": jobs}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""boundslab benchmark: one workload per process, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload bandit --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seconds 18    # one row each

A run times set-up in fresh interpreters, then repeats passes of the
workload until another would overrun ``--seconds`` (at least two passes),
checks every pass's output hashes, and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details (per-pass times, calibrations, failures, spans, run
conditions) go to ``.bench_out/<workload>/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("bandit", "full_info", "bounds", "replay")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment() -> None:
    """Single-threaded runs: no ``LAB_THREADS`` pool, one BLAS thread.  Set
    before numpy is imported here or in any probe."""
    os.environ.pop("LAB_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def run_conditions() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "boundslab").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def time_setup(workload: str, seed: int) -> dict:
    """Seconds from spawning a fresh interpreter until it has imported the
    library and parsed the workload's configs, raw and scaled by the
    calibrations around each probe.  One untimed probe first compiles the
    bytecode caches."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed)]
    times, calibrations = [], []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        if i:
            times.append(elapsed)
        calibrations.append(speed.calibrate())
    return {"raw_s": times, "calibrations_s": calibrations,
            "scaled_s": speed.bracketed(times, calibrations)}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat passes until another round would overrun ``seconds``, with at
    least two passes, checking each pass's outputs.  Plain runs time each
    pass under a speed sampler; traced runs alternate an unsampled plain pass
    with a traced one.

    At the default seed every pass is checked against ``pins.json``.  At any
    other seed the first pass is the reference, so the second pass is always
    there to be compared with it byte for byte."""
    import tracer as tracing
    import workloads

    ops = workloads.build(workload, seed)
    reference = (workloads.load_pins(workload)
                 if seed == workloads.DEFAULT_SEED else None)
    out_dir = OUT / workload
    tracer = tracing.Tracer() if traced else None
    passes, layers, failures = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for with_trace in ((False, True) if traced else (False,)):
            record = {"traced": with_trace}
            if with_trace:
                tracer.reset()
                with tracer:
                    result = workloads.run_pass(ops, out_dir, tracer)
                record["wall_s"] = result.wall_s
            elif traced:
                result = workloads.run_pass(ops, out_dir)
                record["wall_s"] = result.wall_s
            else:
                with speed.SpeedSampler() as sampler:
                    result = workloads.run_pass(ops, out_dir)
                record["wall_s"] = sum(sampler.work_seconds(a, b)
                                       for a, b in result.intervals)
                record["scaled_s"] = sum(sampler.scaled_seconds(a, b)
                                         for a, b in result.intervals)
                record["calibrations"] = len(sampler.samples)
            if reference is None:
                reference = {name: h for name, h in result.hashes.items()
                             if name not in result.failures}
            failures += [{"pass": len(passes), "operation": name, "reason": why}
                         for name, why in workloads.check(result, reference).items()]
            passes.append(record)
            if with_trace:
                metrics = tracing.layer_metrics(tracer, workloads.ALL_PRESETS,
                                                workloads.SWEEP_KS)
                metrics["lab.csvio.bytes"] = result.csv_bytes
                metrics["lab.svgplot.bytes"] = result.svg_bytes
                metrics["bench.self_s"] = tracer.bench_self_s(result.wall_s)
                layers.append(metrics)
        now = time.perf_counter()
        if len(passes) >= 2 and now - start + (now - round_start) > seconds:
            break
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "operations": [op.name for op in ops],
        "attempted": len(passes) * len(ops), "failed": len(failures),
        "failures": failures, "passes": passes, "hashes": reference,
    }
    if traced:
        details["layers_per_pass"] = layers
        details["spans_last_pass"] = tracer.spans
        details["untraced_targets"] = tracer.missing
    return details


def run_one(args) -> int:
    pin_environment()
    if not (SRC / "boundslab" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import boundslab

    if Path(boundslab.__file__).resolve().parent != SRC / "boundslab":
        print(f"error: boundslab imported from {boundslab.__file__}",
              file=sys.stderr)
        return 2
    setup = time_setup(args.workload, args.seed)
    details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details["setup"] = setup
    details["conditions"] = run_conditions()
    for failure in details["failures"]:
        print(f"FAILED pass {failure['pass']} {failure['operation']}: "
              f"{failure['reason']}", file=sys.stderr)

    def median_of(key, traced=False):
        return statistics.median(p[key] for p in details["passes"]
                                 if p["traced"] == traced)

    if args.trace:
        import tracer as tracing
        import workloads

        layers = details["layers_per_pass"]
        values = {name: statistics.median(p[name] for p in layers)
                  for name in layers[0]}
        values["trace.overhead"] = median_of("wall_s", True) / median_of("wall_s")
        table = tracing.metric_table(workloads.ALL_PRESETS, workloads.SWEEP_KS)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in table}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": median_of("scaled_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup["scaled_s"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    attempted, failed = details["attempted"], details["failed"]
    details["error_rate"] = failed / attempted
    details["metrics"] = metrics
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"result-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)

    print("conditions " + json.dumps(details["conditions"], sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} "
          f"passes={len(details['passes'])} "
          f"raw_wall_s={median_of('wall_s'):.6g} "
          f"raw_setup_s={statistics.median(setup['raw_s']):.6g} "
          f"error_rate={details['error_rate']:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one row each."""
    status = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            status = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        error_rate = result["failed"] / result["attempted"]
        cells = [f"{name}={m['value']:.6g}{m['unit']}"
                 for name, m in result["metrics"].items()]
        print(f"{workload:10s} error_rate={error_rate:.6g} " + " ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 keeps the presets' own seeds")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:  # report and exit non-zero without printing a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())

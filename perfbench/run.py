"""Benchmark of the cgsws denoising pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Details, round times and spans go to ``perfbench/out/``.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import contextlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("denoise-large", "amse-cell", "baselines")

# Seconds the reference machine takes for one pass of calibration_pass().
# The end-to-end times are scaled by the run's mean pass time against it.
CAL_REF_S = 0.005


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every workload for quick tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print READY and exit (used to time set-up)")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse any other cgsws.

    BLAS and OpenMP get one thread, which takes effect when this is the
    first import of numpy in the process, and in every child process.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "cgsws" / "__init__.py").is_file():
        print(f"error: no cgsws package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cgsws
    if SRC not in pathlib.Path(cgsws.__file__).resolve().parents:
        print(f"error: imported cgsws from {cgsws.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def calibration_pass():
    """A fixed mix of numpy work on 4096- and 64-element arrays and a Python loop.

    The machine's speed drifts by up to half over minutes, and this work
    slows down with it, so timing it between operations measures the speed.
    Pass times within one run are bimodal, fast and slow states switching
    within seconds, so the mean tracks the speed better than the median.
    """
    import numpy as np

    big = np.linspace(-3.0, 3.0, 4096)
    small = np.linspace(-1.0, 1.0, 64)
    acc = 0.0
    for _ in range(40):
        acc += float(np.sum(np.exp(-big * big) * np.log1p(np.abs(big)) * big))
    for _ in range(600):
        acc += float(np.sqrt(small * small + 1.0).sum())
    for i in range(20_000):
        acc += i * i
    return acc


def calibrate(samples, passes=5):
    """Append the time of each of ``passes`` calibration passes to ``samples``."""
    for _ in range(passes):
        t0 = time.perf_counter()
        calibration_pass()
        samples.append(time.perf_counter() - t0)


def timed_setups(argv, count, cal):
    """Median wall time from spawning a fresh process to the end of its set-up."""
    times = []
    for _ in range(count):
        calibrate(cal)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"), *argv, "--setup-only"],
                              stdout=subprocess.PIPE, text=True) as child:
            ready = any(line.strip() == "READY" for line in child.stdout)
            elapsed = time.perf_counter() - t0
            code = child.wait()
        if not ready or code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        times.append(elapsed)
    return statistics.median(times), times


def run_round(workload, cal, tracer=None):
    """One round of the workload's operations; returns (op seconds, failed, outcome)."""
    seconds, failed, results = [], 0, []
    for op in workload.operations:
        calibrate(cal)
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            print(f"operation {op.label} raised:", file=sys.stderr)
            traceback.print_exc()
            result = None
        seconds.append(time.perf_counter() - t0)
        if result is None:
            failed += op.signals
        results.append(result)
    return seconds, failed, workload.collect(results)


def timed_rounds(workload, seconds, cal, tracer=None):
    """Whole rounds while the next is expected to end within ``seconds`` (at least one)."""
    rounds, start = [], time.perf_counter()
    while True:
        rounds.append(run_round(workload, cal, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def signals_per_round(workload):
    return sum(op.signals for op in workload.operations)


def round_seconds(rounds):
    """Time of one round as the sum over operations of each one's median time.

    Taking the median per operation across rounds keeps a stall that hits
    one operation of one round out of the figure.
    """
    return sum(statistics.median(times) for times in zip(*(r[0] for r in rounds)))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    import_program()
    import checks
    import workloads

    tiny = args.scale == "tiny"
    workload = workloads.build(args.workload, tiny=tiny)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if args.setup_only:
                workload.setup(args.seed, workdir)
                print("READY", file=sys.__stdout__, flush=True)
                return 0
            cal = []
            setup_s, setup_samples = timed_setups(argv, 1 if tiny else 3, cal)
            workload.setup(args.seed, workdir)
            report = measure(workload, args, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = report.pop("rounds")
    first = rounds[0][2]
    fails = [f for _, _, outcome in rounds[1:]
             for f in checks.check_same(first.outputs, outcome.outputs, args.workload)]
    fails += workload.check(first)
    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    attempted = signals_per_round(workload) * len(rounds)
    failed = sum(r[1] for r in rounds)
    speed = statistics.fmean(cal) / CAL_REF_S
    report.update(raw_setup_s=setup_s, calibration_s=cal, slowdown=speed)
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {"setup_s": (setup_s / speed, "s"),
                   "signals_per_s": (report["raw_signals_per_s"] * speed, "signals/s"),
                   "amse": (statistics.fmean(first.mses), "mse/sigma2"),
                   "peak_rss_mib": (report["peak_rss_mib"], "MiB")}
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"result": result, "argv": argv, "setup_samples_s": setup_samples,
               "op_seconds": [r[0] for r in rounds], "check_failures": fails,
               "signals_per_round": signals_per_round(workload),
               "mses": first.mses, **report}
    (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(workload, args, cal):
    """Untraced rounds for end-to-end metrics, or traced ones for per-layer."""
    import tracing

    per_round = signals_per_round(workload)
    if not args.trace:
        rounds = timed_rounds(workload, args.seconds, cal)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"rounds": rounds, "raw_signals_per_s": per_round / round_seconds(rounds),
                "peak_rss_mib": peak}
    cal_plain, cal_traced = [], []
    plain = timed_rounds(workload, args.seconds / 2, cal_plain)
    with tracing.Tracer() as tracer:
        traced = timed_rounds(workload, args.seconds / 2, cal_traced, tracer)
    cal += cal_plain + cal_traced
    overhead = 100.0 * ((round_seconds(traced) / statistics.fmean(cal_traced))
                        / (round_seconds(plain) / statistics.fmean(cal_plain)) - 1.0)
    sweeps = 10 if args.scale == "tiny" else 300
    probe = tracing.probe_sweeps(workload.probe_signal, args.seed, sweeps, sweeps)
    metrics = tracing.layer_metrics(tracer, per_round * len(traced), probe, overhead)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()) + "\n")
    return {"rounds": plain + traced, "per_layer": metrics, "probe": probe,
            "counts": dict(tracer.counts)}


if __name__ == "__main__":
    sys.exit(main())

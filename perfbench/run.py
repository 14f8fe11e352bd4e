"""TensorDG benchmark: one workload, one closed loop, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit_q3 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics. With ``--trace 1`` the loop runs twice on
the same inputs, once plain and once traced; the JSON then holds the
per-layer metrics, and the spans are written to ``.bench_out/``. The exit
code is non-zero when a correctness check fails or the package cannot be
imported from ``src/``. README.md in this directory describes the
workloads and metrics.
"""

import os

# Pin the BLAS thread pools before numpy is imported anywhere.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import per_layer  # noqa: E402
from spans import Instrumentation, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
HARD_CAP_S = 120.0     # a loop stops here even if it is short of ops

END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
# per-op quality key -> printed metric name and unit
QUALITY = (("adge", "adge_mean", "l2"), ("rank_hit", "rank_hit_frac", "ratio"),
           ("tle", "tle_mean", "l2"),
           ("support_hit", "support_hit_frac", "ratio"))


def import_package():
    """Import tensordg from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "tensordg" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src}/tensordg")
    sys.path.insert(0, str(src))
    import tensordg
    if Path(tensordg.__file__).resolve().parent != src / "tensordg":
        sys.exit(f"error: imported tensordg from {tensordg.__file__}")


def machine_info():
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV}}


def run_loop(wl, seconds, min_ops, tracer=None):
    """Closed loop from op 0 until ``seconds`` have passed and ``min_ops``
    ops are done. Checks and quality run after each op's timer stops.

    The calibration kernel runs before the first op and after every op.
    """
    times, cals, quality, problems = [], [], [], []
    attempted = failed = 0
    with Instrumentation(wl.probes, tracer):
        start = time.perf_counter()
        i = 0
        while (i < min_ops or time.perf_counter() - start < seconds) \
                and time.perf_counter() - start < HARD_CAP_S:
            wl.captured.clear()
            wl.seed_of(i)
            cals.append(calibrate.kernel_seconds())
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:    # a failed op is counted, not fatal
                times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.op = -1
                attempted += wl.rows_per_op
                failed += wl.rows_per_op
                print(f"op {i} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                i += 1
                continue
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = -1
            rows, bad = wl.rows(out)
            attempted += rows
            failed += bad
            problems += [f"op {i}: {p}" for p in wl.check(i, out)]
            if i < wl.quality_ops:
                quality.append(wl.quality(i, out))
            i += 1
        cals.append(calibrate.kernel_seconds())
    wl.captured.clear()
    return {"times": times, "scaled": calibrate.scale(times, cals),
            "cals": cals,
            "quality": quality, "problems": problems,
            "attempted": attempted, "failed": failed,
            "skipped": wl.skipped}


def speed(result):
    """Machine speed over a loop: nominal over median kernel time."""
    return calibrate.NOMINAL_S / statistics.median(result["cals"])


def end_to_end(result, setup_s):
    scaled = result["scaled"]
    return {"setup_s": setup_s,
            "op_s_p50": statistics.median(scaled),
            "ops_per_s": len(scaled) / sum(scaled),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def extras(result, raw_setup_s):
    """Workload-specific metrics: printed, not part of the JSON line."""
    times, scaled = result["times"], sorted(result["scaled"])
    out = {"ops": (len(times), "count"),
           "fail_frac": (result["failed"] / result["attempted"], "ratio")}
    # a p90 needs at least ten ops beyond it
    if len(scaled) >= 100:
        out["op_s_p90"] = (statistics.quantiles(scaled, n=10)[-1], "s")
    quality = result["quality"]
    for key, name, unit in QUALITY:
        vals = [q[key] for q in quality if key in q]
        if vals:
            out[name] = (statistics.fmean(vals), unit)
    out["quality_ops"] = (len(quality), "count")
    out["skipped_seeds"] = (result["skipped"], "count")
    out["machine_speed"] = (speed(result), "ratio")
    out["raw_setup_s"] = (raw_setup_s, "s")
    out["raw_op_s_p50"] = (statistics.median(times), "s")
    out["raw_ops_per_s"] = (len(times) / sum(times), "1/s")
    return out


def run(workload, seed, seconds, trace, out_dir, setup_reps=SETUP_REPS):
    """One benchmark run; returns (metrics, loop result, extras)."""
    import workloads    # needs the package on sys.path

    cls = workloads.WORKLOADS[workload]
    workdir = out_dir / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = cls(seed, str(workdir))
    try:
        import_s = time.perf_counter() - T_START
        calibrate.kernel_seconds()          # first call pays lazy set-up
        setups, cals = [], [calibrate.kernel_seconds()]
        for _ in range(setup_reps):
            t0 = time.perf_counter()
            wl.make_inputs()
            wl.warm_up()
            setups.append(time.perf_counter() - t0)
            cals.append(calibrate.kernel_seconds())
        raw_setup_s = import_s + statistics.median(setups)
        setup_s = (import_s * calibrate.NOMINAL_S / cals[0]
                   + statistics.median(calibrate.scale(setups, cals)))

        if not trace:
            result = run_loop(wl, seconds, wl.quality_ops)
            return (end_to_end(result, setup_s), result,
                    extras(result, raw_setup_s))
        plain = run_loop(wl, seconds / 2.0, wl.quality_ops)
        tracer = Tracer()
        traced = run_loop(wl, seconds / 2.0, wl.quality_ops, tracer)
        for key in ("problems", "attempted", "failed"):
            traced[key] += plain[key]
        metrics = per_layer.summarize(tracer, len(traced["times"]),
                                      wl.quality_ops)
        pairs = min(len(plain["scaled"]), len(traced["scaled"]))
        metrics["trace.overhead_frac"] = (
            sum(traced["scaled"][:pairs]) / sum(plain["scaled"][:pairs])
            - 1.0)
        trace_path = out_dir / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(trace_path, {"workload": workload, "seed": seed,
                                  "machine": machine_info(),
                                  "per_layer": metrics})
        print(f"wrote {trace_path}")
        return metrics, traced, extras(plain, raw_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")

    out_dir = ROOT / ".bench_out"
    metrics, result, extra = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), out_dir)
    units = per_layer.UNITS if args.trace else dict(END_TO_END)

    print("machine: " + json.dumps(machine_info()))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

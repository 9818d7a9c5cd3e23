"""Benchmark runner for adstv.

    python3 perfbench/run.py --workload denoise-512 --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) from the repository's own sources in a
closed loop with one client: each job starts after the previous one returns,
in this one process, with no extra threads.  Jobs start while the next one
is expected to end inside --seconds; at least one runs.  cpu_s is the
least CPU time of the jobs after the first (see warm).  setup_s is the
median CPU time of a fresh-interpreter import plus the median of three
input syntheses.  Both count CPU time, not wall time: the program runs on
one thread, so on an idle core the two agree, but only CPU time leaves out
the time the process waits for a core on a shared host.  Every job's
outputs are checked.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced jobs (at least plain, traced, plain, so that a warm plain job exists),
reports the per-layer metrics of the traced ones and the tracing overhead
(traced minus warm untraced wall time; spans are timed on the wall clock),
and writes the spans to .perfbench_run/ at the end of the run.
"""

import os

# One thread for the BLAS pool, set before numpy loads: otherwise OpenBLAS
# starts a thread per core whose spin-waiting after each call (the solver's
# norms) doubles the process's CPU time and ties the timings to load on the
# other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "psnr_db": "dB",
    "theta_err_deg": "deg",
}


def import_program():
    """Import adstv from ROOT/src (never from an installed copy) and return
    its layer modules by name.  Exits with code 2 when it is missing."""
    if not (SRC / "adstv" / "__init__.py").is_file():
        print("perfbench: no adstv sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import adstv
    from adstv import bench, diffops, dpe, image, solver, tensor

    if Path(adstv.__file__).resolve().parent != SRC / "adstv":
        print("perfbench: adstv imported from %s, not %s" % (adstv.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)
    return dict(bench=bench, diffops=diffops, dpe=dpe, image=image,
                solver=solver, tensor=tensor)


def children_cpu_seconds():
    """User plus system CPU time of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds():
    """Median CPU time, over SETUP_REPEATS fresh interpreters, to start and
    import the whole program (adstv.cli pulls in every module): what each
    CLI call pays before it reads its input."""
    code = "import sys; sys.path.insert(0, %r); import adstv.cli" % str(SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t = children_cpu_seconds()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(children_cpu_seconds() - t)
    return statistics.median(times)


def clear_caches(modules):
    """Empty every functools cache in the program, so that each job pays the
    lazy set-up a fresh CLI process pays."""
    for mod in modules.values():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def environment(workload, seed):
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        # computed from the array shapes, not measured traffic
        "dual_field_mb_computed": {
            "x".join(map(str, shape)): round(8 * shape[0] * shape[1] * shape[2] * shape[3] / 1e6, 3)
            for shape in workload.fields
        },
    }


def median_or_zero(values):
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def warm(times):
    """The times of the jobs after the first, or of the first when it ran
    alone.  The first job of a process also pays for the allocator's first
    growth, up to a tenth of a 512 job; a later job does not."""
    return times[1:] or times


def run(workload, seconds, trace, modules, import_s):
    """Set up, run and check `workload` for about `seconds`; print the
    human-readable report and return the result object."""
    from workloads import Checked

    env = environment(workload, workload.seed)
    print("env " + json.dumps(env, sort_keys=True))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.process_time()
        workload.setup()
        setup_times.append(time.process_time() - t)
    setup_s = import_s + statistics.median(setup_times)

    recorder = spans.Recorder()
    # wall times of the plain and traced jobs, CPU times of the plain ones
    plain, traced, plain_cpu, checks = [], [], [], []
    min_jobs = 3 if trace else 1
    start = time.perf_counter()
    while True:
        n = len(plain) + len(traced)
        is_traced = bool(trace) and n % 2 == 1
        clear_caches(modules)
        try:
            cpu = time.process_time()
            if is_traced:
                with spans.instrumented(recorder, modules), recorder.job(n) as root:
                    out = workload.job()
                wall = root.duration
            else:
                t = time.perf_counter()
                out = workload.job()
                wall = time.perf_counter() - t
            cpu = time.process_time() - cpu
        except Exception:
            # count the failed job and stop: later jobs would repeat it
            traceback.print_exc()
            checks.append(Checked(1, ["job %d raised" % n]))
            break
        (traced if is_traced else plain).append(wall)
        if not is_traced:
            plain_cpu.append(cpu)
        checked = workload.check(out)
        checks.append(checked)
        print("job %d %s wall_s=%.4f cpu_s=%.4f psnr_db=%.4f theta_err_deg=%.4f failed=%d/%d"
              % (n, "traced" if is_traced else "plain", wall, cpu, checked.psnr_db,
                 checked.theta_err_deg, checked.failed, checked.attempted))
        for reason in checked.failures:
            print("  FAIL " + reason)
        elapsed = time.perf_counter() - start
        if n + 1 >= min_jobs and elapsed + statistics.median(plain + traced) > seconds:
            break

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    if trace:
        metrics = dict.fromkeys(spans.PER_LAYER, 0.0)
        if traced:
            metrics.update(spans.layer_metrics(recorder.spans, len(traced)))
        metrics["trace.wall_s"] = median_or_zero(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median_or_zero(warm(plain))
        units = spans.PER_LAYER
        OUT.mkdir(exist_ok=True)
        recorder.dump(OUT / ("trace-%s-seed%d.json" % (workload.name, workload.seed)),
                      {"env": env, "metrics": metrics})
    else:
        metrics = {
            # Contention on a shared host (other tenants' cache and memory
            # traffic) only ever adds CPU time, and comes in bursts about as
            # long as a job, so the least warm job is the steadiest figure.
            "cpu_s": min(warm(plain_cpu), default=0.0),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "psnr_db": median_or_zero([c.psnr_db for c in checks]),
            "theta_err_deg": median_or_zero([c.theta_err_deg for c in checks]),
        }
        units = END_TO_END
    print("jobs %d (plain %d, traced %d), setup_s %.4f (import %.4f)"
          % (len(checks), len(plain), len(traced), setup_s, import_s))
    print("fail_ratio %.4f (%d/%d)" % (failed / max(attempted, 1), failed, attempted))
    for name, value in metrics.items():
        print("%-28s %14.6f %s" % (name, value, units[name]))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("denoise-512", "estimate-512", "sweep-96"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_program()
    from workloads import WORKLOADS

    import_s = import_seconds()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = run(workload, args.seconds, args.trace, modules, import_s)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

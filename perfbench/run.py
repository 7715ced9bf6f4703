"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload mesh1d-fine --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
load is a closed loop: one client, one task in flight, one single-threaded
process.  ``--trace 0`` measures the end-to-end metrics for ``--seconds``
seconds, then checks every task's output with its oracle.  Task times are
reported at the reference speed of ``reference.py``, whose fixed kernels run
between tasks, so that drift in the speed of a shared host's core cancels.
``--trace 1`` replays a fixed task list untraced and then traced, and reports
per-layer spans and work counters.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A record with
provenance goes to ``perfbench/results/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four fresh set-up processes
TAIL_BEYOND = 10  # tasks that must lie beyond the reported tail percentile
KERNEL_EVERY_S = 0.5  # most loop time between two runs of the reference kernel
KERNEL_WARMUP = 3  # kernel runs before the loop, not used


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def _loop(wl, state, seed, seconds=None, count=None, rec=None, kernel=None):
    """Closed loop of tasks 0, 1, ...: until `count` are done, or until
    `seconds` have passed at the end of a whole round of tasks.

    With `kernel`, a ``reference.KernelLog``, the workload's kernel runs
    before the first task, after the last, and between tasks whenever
    KERNEL_EVERY_S have passed since its last run.

    Returns [(task index, latency s, output or failure text)], the wall time
    of the loop less the kernel's, and the seconds of task time no outermost
    span covered.
    """
    done = []
    uncovered = 0.0
    kernel_s = 0.0
    last_kernel = -math.inf

    def run_kernel(i):
        nonlocal kernel_s, last_kernel
        kernel_s += kernel.run(i) / 1000.0
        last_kernel = time.perf_counter()

    begin = time.perf_counter()
    if count is None:
        def more(i):
            return i % wl.round_size or time.perf_counter() - begin < seconds
    else:
        def more(i):
            return i < count
    i = 0
    while more(i):
        if kernel is not None and time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
            run_kernel(i)
        inp = wl.inputs(state, seed, i)
        if rec is not None:
            rec.begin_task()
        start = time.perf_counter()
        try:
            out = wl.run(state, inp)
        except Exception:  # a failing task is recorded and the load goes on
            out = _Failure(traceback.format_exc(limit=3))
        took = time.perf_counter() - start
        if rec is not None:
            uncovered += took - rec.covered
        done.append((i, took, out))
        i += 1
    if kernel is not None:
        run_kernel(i)
    return done, time.perf_counter() - begin - kernel_s, uncovered


class _Failure(str):
    """Text of an exception a task raised."""


def _check(wl, state, seed, done):
    """Per-task oracle verdicts: {task index: [problems]}, failures only."""
    failures = {}
    for i, _, out in done:
        if isinstance(out, _Failure):
            failures[i] = ["raised: " + out.strip().splitlines()[-1]]
            continue
        try:
            problems = wl.check(state, wl.inputs(state, seed, i), out)
        except Exception:  # an output the oracle cannot read is wrong
            problems = ["unreadable output: " + traceback.format_exc(limit=2).strip()]
        if problems:
            failures[i] = problems
    return failures


def _setup_probe(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _provenance(args):
    import numpy
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "load": "closed loop, 1 client, 1 task in flight, 1 process"}


def _finite(x):
    return x if math.isfinite(x) else None


def _tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND tasks
    beyond it; the maximum when there are too few tasks."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _emit(args, record, correct, attempted, failed, metrics):
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    mode = "traced" if args.trace else "timed"
    path = out_dir / f"{args.workload}-seed{args.seed}-{mode}.json"
    record = {"provenance": _provenance(args), "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, **record}
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _report_failures(failures):
    for i, problems in sorted(failures.items())[:5]:
        print(f"  task {i} FAILED: {'; '.join(problems)}")


def _run_canaries(workloads, args):
    if args.workload != "exact-sparse":
        return None
    results = workloads.exact_canaries(args.seed)
    failing = [(request, why) for request, why in results if why is not None]
    print(f"canaries (known defects, beside the load): {len(failing)} of "
          f"{len(results)} still fail")
    for request, why in failing:
        print(f"  {request}: {why}")
    return {"attempted": len(results), "failing": [list(x) for x in failing]}


def timed(args, workloads, wl, state, setup_s):
    import reference

    for _ in range(KERNEL_WARMUP):
        reference.kernel_ms(wl.kernel)
    kernel = reference.KernelLog(wl.kernel)
    done, phase_s, _ = _loop(wl, state, args.seed, seconds=args.seconds, kernel=kernel)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = _check(wl, state, args.seed, done)
    canaries = _run_canaries(workloads, args)
    setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    n = len(done)
    passed = n - len(failures)
    # a task's time at the reference speed: its wall time scaled by
    # REF_MS / (kernel time measured around it)
    scale = [reference.REF_MS / ms for ms in kernel.speeds(n)]
    wall_ms = [math.inf if i in failures else took * 1000.0 for i, took, _ in done]
    ref_ms = [ms * k for ms, k in zip(wall_ms, scale)]
    tail_ms, tail_pct = _tail(ref_ms)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "task_p50_ms": (statistics.median(ref_ms), "ref_ms"),
        "task_tail_ms": (tail_ms, "ref_ms"),
        "tasks_per_s": (passed / (sum(took * k for (_, took, _), k in zip(done, scale))),
                        "1/ref_s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wall = {"task_p50_ms": (statistics.median(wall_ms), "ms"),
            "task_tail_ms": (_tail(wall_ms)[0], "ms"),
            "tasks_per_s": (passed / phase_s, "1/s")}
    metrics = {k: {"value": _finite(v), "unit": u} for k, (v, u) in values.items()}
    failed_frac = len(failures) / n
    print(f"workload {wl.name} seed {args.seed}: {n} tasks in {phase_s:.2f} s, "
          f"closed loop, 1 task in flight")
    for name, (value, unit) in values.items():
        print(f"  {name:<13} {value:12.4f} {unit}")
    print(f"  {'failed_frac':<13} {failed_frac:12.4f} ({len(failures)} of {n})")
    print(f"  task_tail_ms is p{tail_pct:.1f} of {n} tasks "
          f"({TAIL_BEYOND if n > TAIL_BEYOND else 0} beyond it); setup_s is the median of "
          f"{len(setups)} set-ups: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"  reference kernel {kernel.kind!r}: {len(kernel.ms)} runs, median "
          f"{statistics.median(kernel.ms):.2f} ms (REF_MS {reference.REF_MS:g}); wall clock: "
          + ", ".join(f"{k} {v:.4f} {u}" for k, (v, u) in wall.items()))
    _report_failures(failures)
    record = {"failed_frac": failed_frac, "tasks": n, "phase_s": phase_s,
              "tail_percentile": tail_pct, "setup_samples_s": setups,
              "latencies_ref_ms": [_finite(x) for x in ref_ms],
              "latencies_ms": [_finite(x) for x in wall_ms],
              "wall_clock": {k: {"value": _finite(v), "unit": u} for k, (v, u) in wall.items()},
              "kernel": kernel.kind, "kernel_at": kernel.at, "kernel_ms": kernel.ms,
              "failures": {str(i): p for i, p in failures.items()}, "canaries": canaries}
    return _emit(args, record, not failures, n, len(failures), metrics)


def traced(args, workloads, wl, state, import_s):
    import spans

    count = wl.trace_tasks
    plain, _, _ = _loop(wl, state, args.seed, count=count)
    rec = spans.Recorder()
    spans.install(rec)
    state = wl.setup(args.seed)  # set-up again, under the trace
    traced_done, _, uncovered = _loop(wl, state, args.seed, count=count, rec=rec)
    canaries = _run_canaries(workloads, args)

    plain_s = sum(took for _, took, _ in plain)
    traced_s = sum(took for _, took, _ in traced_done)
    metrics = rec.metrics(import_s, (traced_s - plain_s) / plain_s, uncovered / traced_s)
    failures = _check(wl, state, args.seed, plain) | {
        count + i: p for i, p in _check(wl, state, args.seed, traced_done).items()}
    print(f"workload {wl.name} seed {args.seed}: traced run of {count} tasks "
          f"({plain_s:.2f} s untraced, {traced_s:.2f} s traced)")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:14.6g} {m['unit']}")
    _report_failures(failures)
    record = {"tasks": count, "untraced_s": plain_s, "traced_s": traced_s,
              "failures": {str(i): p for i, p in failures.items()}, "canaries": canaries}
    return _emit(args, record, not failures, 2 * count, len(failures), metrics)


def main(argv=None):
    args = _parse(argv)
    start = time.perf_counter()
    if not (SRC / "epislope" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'epislope'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import epislope
    import epislope.cli  # noqa: F401  the full user-facing import
    import_s = time.perf_counter() - start
    if Path(epislope.__file__).resolve().parent != SRC / "epislope":
        print(f"error: imported epislope from {epislope.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        return traced(args, workloads, wl, state, import_s)
    return timed(args, workloads, wl, state, setup_s)


if __name__ == "__main__":
    sys.exit(main())

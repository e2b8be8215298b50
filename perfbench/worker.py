"""One benchmark child process; run.py starts it and reads its last line.

    worker.py setup  --workload W --seed S --in-dir D [--trace]
    worker.py passes --workload W --seed S --in-dir D --work-dir D2
                     --seconds T [--trace]

`setup` builds the workload's inputs into D and prints their sha256.
`passes` runs the first (cold) pass, then warm passes until the next one
would end after T seconds (at least MIN_WARM of them), and prints every
pass time, the checks and the peak resident memory. With --trace the
passes alternate untraced and traced (the cold pass is traced), and spans
plus a tracemalloc probe of the workload's in-process parse are printed
too.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_WARM = 1  # warm passes of each kind, however long a pass takes


def _check_source():
    """Refuse to measure an installed streamaudit instead of ../src."""
    import streamaudit
    expected = os.path.join(ROOT, "src", "streamaudit")
    if os.path.dirname(os.path.abspath(streamaudit.__file__)) != expected:
        sys.exit(f"streamaudit imported from {streamaudit.__file__}, "
                 f"not from {expected}")


def _versions():
    import numpy
    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")}}


def cmd_setup(args):
    setup, _ = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    tracer.pass_id = "setup"
    scope = tracer.installed(workloads.trace_targets()) if args.trace \
        else contextlib.nullcontext()
    start = time.perf_counter()
    with scope:
        digests = setup(args.seed, args.in_dir)
    return {"digests": digests, "versions": _versions(),
            "build_s": time.perf_counter() - start, "spans": tracer.spans}


def _memory_probe(workload, in_dir):
    """tracemalloc peak and retained size of the workload's in-process parse,
    outside every timed pass."""
    import tracemalloc
    stream_io = workloads.stream_io
    if workload == "elec-audit":
        parse, name = stream_io.parse_arff, "elec.arff"
    elif workload == "rho-sweep":
        parse, name = stream_io.parse_csv, "labels.csv"
    else:
        return {"stream_io.parse_arff.peak_mb": 0.0,
                "stream_io.dataset.retained_mb": 0.0}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ds = parse(os.path.join(in_dir, name))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del ds
    mb = 2.0 ** 20
    return {"stream_io.parse_arff.peak_mb":
            (peak - base) / mb if workload == "elec-audit" else 0.0,
            "stream_io.dataset.retained_mb": (current - base) / mb}


def cmd_passes(args):
    _, run_pass = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    tracer = tracing.Tracer()
    targets = workloads.trace_targets()
    counts = {}

    def one_pass(pass_id, traced):
        tracer.pass_id = pass_id
        scope = contextlib.ExitStack()
        if traced:
            scope.enter_context(tracer.installed(targets))
            scope.enter_context(tracer.span("pass"))
        start = time.perf_counter()
        try:
            with scope:
                counts.update(run_pass(args.seed, args.in_dir, args.work_dir,
                                       checks, tracer if traced else None))
        except Exception:
            checks.fail(f"pass {pass_id} raised: "
                        f"{traceback.format_exc(limit=3)[-400:]}")
        return time.perf_counter() - start

    cold_s = one_pass(0, args.trace)
    untraced, traced = [], []
    start = time.perf_counter()
    pass_id = 1
    while True:
        use_trace = args.trace and pass_id % 2 == 0
        elapsed = one_pass(pass_id, use_trace)
        (traced if use_trace else untraced).append([pass_id, elapsed])
        pass_id += 1
        done = time.perf_counter() - start
        enough = len(untraced) >= MIN_WARM and (
            not args.trace or len(traced) >= MIN_WARM)
        if enough and done + elapsed > args.seconds:
            break

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-multiclass" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    out = {"cold_s": cold_s, "warm": untraced, "traced": traced,
           "peak_rss_mb": peak_rss_mb, "counts": counts,
           "attempted": checks.attempted, "failed": checks.failed,
           "failures": checks.failures, "digests": checks.digests,
           "recorded": checks.recorded,
           "nonzero_exits": checks.nonzero_exits}
    if args.trace:
        out["spans"] = tracer.spans
        out["memory"] = _memory_probe(args.workload, args.in_dir)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "passes"])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--in-dir", required=True)
    parser.add_argument("--work-dir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    _check_source()
    result = cmd_setup(args) if args.mode == "setup" else cmd_passes(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""streamaudit benchmark: elec-audit, rho-sweep and cli-multiclass.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds T] [--trace 0|1]

Run from anywhere; the package is imported from ../src of this file, never
from an installed copy. Every child process runs alone and is waited for.

Untraced (--trace 0), per workload:
  setup_s      median wall time of SETUPS fresh processes that start the
               interpreter, import streamaudit and build the inputs;
  cold_run_s   mean first-pass time over PROCESSES fresh processes;
  run_s        mean over those processes of their median warm pass time;
  peak_rss_mb  median of their peak RSS (cli-multiclass: largest child);
  ok_frac      operations that did not fail / operations attempted.
Traced (--trace 1): per-call and per-layer self times from spans, the
tracemalloc probe, CLI start time and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; full results go to
.perfbench_out/ under the checkout root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("elec-audit", "rho-sweep", "cli-multiclass")

SETUPS = 5
# Fresh processes per untraced run; each runs a cold pass, then warm passes
# for its share of --seconds (at least one). In about one process in three
# every ACF call of elec-audit costs ~0.75 s instead of ~0.01 s (OpenBLAS
# thread wake-ups), so run_s and cold_run_s average over processes, and
# elec-audit uses more of them; a rho-sweep pass takes ~10 s.
PROCESSES = {"elec-audit": 5, "rho-sweep": 2, "cli-multiclass": 3}
CLI_START_PROBES = 3
CHILD_TIMEOUT_S = 170

# Spans whose time the traced run reports: name.s is the seconds per warm
# traced pass spent in calls of name (median over passes), name.cold_s the
# same in the first pass of the fresh process. The per-layer metrics give
# them as shares of the traced run_s (name.share,
# name.cold_share), because a call a workload never makes reads 0.
PASS_CALLS = (
    "stream_io.parse_arff", "stream_io.parse_csv", "stream_io.to_arff",
    "synth.gen_markov_labels", "synth.labels_to_arff",
    "diagnostics.diagnose", "diagnostics.autocorrelation",
    "evaluation.prequential_eval.naive-bayes",
    "evaluation.prequential_eval.restart", "evaluation.audit_accuracy",
    "evaluation.audit_prediction_log", "baselines.rho_sweep",
    "baselines.majority_baseline", "cli.synth", "cli.acf", "cli.summary",
    "cli.audit", "cli.eval", "cli.sweep", "cli.eval.persistence",
)
COLD_CALLS = (
    "stream_io.parse_arff", "stream_io.parse_csv", "diagnostics.diagnose",
    "diagnostics.autocorrelation", "evaluation.prequential_eval.naive-bayes",
    "baselines.rho_sweep",
)
SETUP_CALLS = ("synth.gen_markov_labels", "synth.labels_to_arff",
               "stream_io.to_arff")
LAYERS = ("stream_io", "synth", "diagnostics", "evaluation", "baselines",
          "cli", "bench")
# layers every workload's traced pass reaches, so their seconds are never 0
TIMED_LAYERS = ("stream_io", "diagnostics", "baselines", "bench")
COUNTS = ("stream_io.rows", "evaluation.instances", "baselines.cells")

# Every metric named when the benchmark was defined; the self-check below
# requires each of them in the results (the per-layer seconds are in the
# "calls" table of the traced results, the rest in the metrics).
NAMED_END_TO_END = ("run_s", "cold_run_s", "setup_s", "peak_rss_mb",
                    "ok_frac")
NAMED_PER_LAYER = (
    "stream_io.parse_arff.s", "stream_io.parse_arff.peak_mb",
    "stream_io.dataset.retained_mb", "stream_io.rows",
    "stream_io.parse_csv.s", "stream_io.to_arff.s",
    "synth.gen_markov_labels.s", "synth.labels_to_arff.s",
    "diagnostics.diagnose.s", "diagnostics.autocorrelation.s",
    "diagnostics.autocorrelation.cold_s",
    "evaluation.prequential_eval.naive-bayes.s", "evaluation.instances",
    "evaluation.audit_accuracy.s", "evaluation.audit_prediction_log.s",
    "baselines.rho_sweep.s", "baselines.cell.s", "baselines.cells",
    "baselines.majority_baseline.s", "cli.start.s", "cli.synth.s",
    "cli.acf.s", "cli.summary.s", "cli.audit.s", "cli.eval.s",
    "cli.sweep.s", "cli.nonzero_exits", "trace.overhead_s",
) + tuple(f"layer.{layer}.share" for layer in LAYERS)


class BenchError(Exception):
    pass


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run one child to completion; return (wall seconds, its JSON line)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-1500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(argv[1:3])} printed nothing")
    return wall, json.loads(lines[-1])


def worker(mode, workload, seed, in_dir, env, *extra):
    return run_child([sys.executable, WORKER, mode, "--workload", workload,
                      "--seed", str(seed), "--in-dir", in_dir, *extra], env)


def git(*args):
    # outside a git checkout git would search the parent directories
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(seed, setup_out):
    blas_vars = {k: v for k, v in os.environ.items()
                 if k.endswith(("_NUM_THREADS", "_MAX_THREADS"))
                 or k in ("OPENBLAS_CORETYPE", "VECLIB_MAXIMUM_THREADS")}
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src")
    return {"git_rev": rev, "git_dirty_src": None if rev is None
            else bool(status), "versions": setup_out["versions"],
            "blas_thread_vars": blas_vars, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "seed": seed,
            "input_sha256": setup_out["digests"], "src_lines": src_lines}


def run_untraced(workload, seed, seconds, work, env):
    attempted, failed, failures = 0, 0, []
    setup_walls, digests = [], []
    for i in range(SETUPS):
        d = os.path.join(work, f"setup{i}")
        os.makedirs(d)
        wall, out = worker("setup", workload, seed, d, env)
        setup_walls.append(wall)
        digests.append(out["digests"])
        if i == 0:
            setup_out = out
    in_dir = os.path.join(work, "setup0")
    attempted += 1
    if any(d != digests[0] for d in digests):
        failed += 1
        failures.append("inputs differ between set-ups of the same seed")

    pass_dir = os.path.join(work, "passes")
    os.makedirs(pass_dir)
    k = PROCESSES[workload]
    runs = [worker("passes", workload, seed, in_dir, env, "--work-dir",
                   pass_dir, "--seconds", str(seconds / k))[1]
            for _ in range(k)]
    for out in runs:
        attempted += out["attempted"]
        failed += out["failed"]
        failures += out["failures"]
    per_process = [statistics.median(t for _, t in out["warm"])
                   for out in runs]
    cold = [out["cold_s"] for out in runs]
    samples = {"setup_s": summary(setup_walls),
               "cold_run_s": summary(cold),
               "run_s": summary(per_process),
               "warm_passes": summary([t for out in runs
                                       for _, t in out["warm"]]),
               "peak_rss_mb": summary([out["peak_rss_mb"] for out in runs])}
    metrics = {"run_s": statistics.fmean(per_process),
               "cold_run_s": statistics.fmean(cold),
               "setup_s": statistics.median(setup_walls),
               "peak_rss_mb": samples["peak_rss_mb"]["median"],
               "ok_frac": (attempted - failed) / attempted}
    return {"metrics": metrics, "samples": samples, "attempted": attempted,
            "failed": failed, "failures": failures,
            "output_sha256": runs[-1]["digests"],
            "recorded": runs[-1]["recorded"],
            "meta": metadata(seed, setup_out)}


def per_layer(setup_out, warm, starts):
    """(metrics, calls): the per-layer metrics of BENCHMARK.json and the
    seconds per call behind them."""
    spans = warm["spans"]
    totals = tracing.totals_by_pass(spans)
    setup_totals = tracing.totals_by_pass(setup_out["spans"]).get("setup", {})
    layer_self = tracing.layer_self_by_pass(spans)
    traced_ids = [pid for pid, _ in warm["traced"]]

    def warm_median(values):
        return statistics.median(values[pid] for pid in traced_ids)

    traced_run = statistics.median(t for _, t in warm["traced"])
    cold_run = warm["cold_s"]
    build = setup_out["build_s"]
    calls = {}
    m = {}
    for name in PASS_CALLS:
        calls[f"{name}.s"] = warm_median(
            {pid: totals[pid].get(name, 0.0) for pid in traced_ids})
        calls[f"{name}.cold_s"] = totals[0].get(name, 0.0)
        m[f"{name}.share"] = calls[f"{name}.s"] / traced_run
    for name in COLD_CALLS:
        m[f"{name}.cold_share"] = calls[f"{name}.cold_s"] / cold_run
    for name in SETUP_CALLS:
        calls[f"{name}.setup_s"] = setup_totals.get(name, 0.0)
    cells = warm["counts"].get("baselines.cells", 0)
    calls["baselines.cell.s"] = (calls["baselines.rho_sweep.s"] / cells
                                 if cells else 0.0)
    calls["cli.start.s"] = statistics.median(starts)

    m["setup.build_s"] = build
    m["synth.gen_markov_labels.setup_s"] = \
        calls["synth.gen_markov_labels.setup_s"]
    m["synth.labels_to_arff.setup_share"] = \
        calls["synth.labels_to_arff.setup_s"] / build
    m["stream_io.to_arff.setup_share"] = \
        calls["stream_io.to_arff.setup_s"] / build
    m["cli.start.s"] = calls["cli.start.s"]
    m.update(warm["memory"])
    for name in COUNTS:
        m[name] = warm["counts"].get(name, 0)
    m["cli.nonzero_exits"] = warm["nonzero_exits"]
    for layer in LAYERS:
        self_s = warm_median({pid: layer_self[pid].get(layer, 0.0)
                              for pid in traced_ids})
        calls[f"layer.{layer}.self_s"] = self_s
        m[f"layer.{layer}.share"] = self_s / traced_run
        if layer in TIMED_LAYERS:
            m[f"layer.{layer}.self_s"] = self_s
    m["trace.run_s"] = traced_run
    m["trace.untraced_run_s"] = statistics.median(t for _, t in warm["warm"])
    m["trace.cold_run_s"] = cold_run
    m["trace.overhead_s"] = traced_run - m["trace.untraced_run_s"]
    return m, calls


def run_traced(workload, seed, seconds, work, env):
    in_dir = os.path.join(work, "setup0")
    pass_dir = os.path.join(work, "passes")
    os.makedirs(in_dir)
    os.makedirs(pass_dir)
    setup_out = worker("setup", workload, seed, in_dir, env, "--trace")[1]
    warm = worker("passes", workload, seed, in_dir, env, "--work-dir",
                  pass_dir, "--seconds", str(seconds), "--trace")[1]
    starts = [_start_time(env) for _ in range(CLI_START_PROBES)]
    metrics, calls = per_layer(setup_out, warm, starts)
    return {"metrics": metrics, "calls": calls,
            "attempted": warm["attempted"], "failed": warm["failed"],
            "failures": warm["failures"], "output_sha256": warm["digests"],
            "recorded": warm["recorded"],
            "spans": {"setup": setup_out["spans"], "passes": warm["spans"]},
            "meta": metadata(seed, setup_out)}


def _start_time(env):
    """Interpreter start plus `import streamaudit.cli`, in a child."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import streamaudit.cli"],
                   check=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return ({m["name"]: m["unit"] for m in manifest["end_to_end"]},
            {m["name"]: m["unit"] for m in manifest["per_layer"]},
            manifest["run_seconds"])


def self_check(declared, result, named):
    """Every named metric is reported, and exactly the declared ones are
    emitted."""
    emitted = result["metrics"]
    reported = set(emitted) | set(result.get("calls", ()))
    problems = [f"{n} named but not reported" for n in named
                if n not in reported]
    problems += [f"{n} declared but not emitted" for n in declared
                 if n not in emitted]
    problems += [f"{n} emitted but not declared" for n in emitted
                 if n not in declared]
    if problems:
        raise BenchError("metric self-check failed: " + "; ".join(problems))


def print_report(workload, result, units, trace):
    print(f"== {workload}")
    m = result["metrics"]
    for name, unit in units.items():
        extra = ""
        if name in result.get("samples", {}):
            s = result["samples"][name]
            extra = f"  (n={s['n']}, q1={s['q1']:.4f}, q3={s['q3']:.4f})"
        print(f"  {name:44s} {m[name]:12.4f} {unit}{extra}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':44s} {failed_frac:12.4f} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for what in result["failures"]:
        print(f"  FAILED: {what}")
    if trace:
        calls = result["calls"]
        print("  seconds per call (warm: .s, first pass: .cold_s, "
              "set-up: .setup_s):")
        for name, value in calls.items():
            if value and not name.startswith("layer."):
                print(f"    {name:46s} {value:10.4f} s")
        print(f"  self time as a share of traced run_s "
              f"({m['trace.run_s']:.4f} s):")
        for layer in LAYERS:
            print(f"    {layer:12s} {calls[f'layer.{layer}.self_s']:9.4f} s "
                  f"{100 * m[f'layer.{layer}.share']:6.1f} %")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="warm measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "streamaudit",
                                       "__init__.py")):
        sys.exit(f"no streamaudit sources under {ROOT}/src")
    end_to_end, layered, run_seconds = load_manifest()
    units = layered if args.trace else end_to_end
    seconds = run_seconds if args.seconds is None else args.seconds
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)

    env = child_env()
    results = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    for workload in chosen:
        work = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}")
        try:
            run = run_traced if args.trace else run_untraced
            result = run(workload, args.seed, seconds, work, env)
        except (BenchError, subprocess.SubprocessError, OSError) as exc:
            sys.exit(f"{workload}: {exc}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self_check(units, result,
                   NAMED_PER_LAYER if args.trace else NAMED_END_TO_END)
        result.update(workload=workload, seconds=seconds, trace=args.trace)
        results[workload] = result
        print_report(workload, result, units, args.trace)
        path = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)

    def name(workload, metric):
        return metric if len(chosen) == 1 else f"{workload}/{metric}"

    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name(w, k): {"value": r["metrics"][k], "unit": units[k]}
                    for w, r in results.items() for k in units},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        sys.exit(str(exc))

"""Median, quartiles and spread of every metric over the saved runs.

    python3 perfbench/summarize.py [RESULTS_DIR]

Reads the results files run.py wrote (default .perfbench_out/ under the
checkout root) and prints, per workload and trace mode, each metric's
median over the runs, its quartiles and their distance as a share of the
median — the run-to-run spread that a metric's bound must exceed.
"""

import glob
import json
import os
import sys

from run import OUT_DIR, summary


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else OUT_DIR
    groups = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*-trace*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        key = (result["workload"], result["trace"])
        groups.setdefault(key, []).append(result)
    for (workload, trace), results in sorted(groups.items()):
        print(f"== {workload} trace={trace} runs={len(results)} "
              f"failed={sum(r['failed'] for r in results)}")
        for name in results[0]["metrics"]:
            s = summary([r["metrics"][name] for r in results])
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(f"  {name:44s} median={s['median']:11.4f} "
                  f"q1={s['q1']:11.4f} q3={s['q3']:11.4f} "
                  f"spread={spread:6.3f}")


if __name__ == "__main__":
    main()

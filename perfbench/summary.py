"""Run every workload and print the end-to-end metrics, with units.

    python3 perfbench/summary.py --seeds 0 --seconds 20 [--trace] [--out FILE]

Each (workload, seed) is one fresh run.py process.  For several seeds the
table gives the median and quartiles over the runs and their spread (the
distance between the quartiles over the median).  raw_pass_s is pass_s of
the same runs from raw CPU seconds, without the reference rescaling, so each
table also compares the two.  fail_ratio is failed ops
over attempted ops.  --trace adds one traced run per workload and prints
its tracing overhead.  --out writes everything, with the environment of
each run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json").read_text())
    return result, record


def raw_pass_seconds(record):
    """pass_s of one run from the raw CPU seconds, without the rescaling."""
    passes = [p["cpu_s"] for p in record["passes"]]
    return sum(statistics.median(p[op] for p in passes) for op in passes[0])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    print(f"{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} unit  (n={len(args.seeds)} runs)")
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, False) for seed in args.seeds]
        entry = {"runs": [{"seed": s, "env": record["env"], **res}
                          for s, (res, record) in zip(args.seeds, runs)], "metrics": {}}
        columns = {name: ([res["metrics"][name]["value"] for res, _ in runs], m["unit"])
                   for name, m in runs[0][0]["metrics"].items()}
        # the same runs' pass_s without the reference rescaling, for comparison
        columns["raw_pass_s"] = ([raw_pass_seconds(record) for _, record in runs], "s")
        for name, (values, unit) in columns.items():
            q1, med, q3 = quartiles(values)
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": (q3 - q1) / med, "unit": unit}
            print(f"{workload:16s} {name:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{(q3 - q1) / med:7.3f} {unit}")
        attempted = sum(res["attempted"] for res, _ in runs)
        failed = sum(res["failed"] for res, _ in runs)
        entry["fail_ratio"] = failed / attempted
        print(f"{workload:16s} {'fail_ratio':12s} {failed / attempted:10.4f} "
              f"{'':>10s} {'':>10s} {'':>7s} ratio ({failed} of {attempted} ops)")
        if args.trace:
            res, record = run_once(workload, args.seeds[0], args.seconds, True)
            m = res["metrics"]
            entry["trace"] = {"seed": args.seeds[0], "env": record["env"], **res}
            print(f"{workload:16s} {'traced pass':12s} {m['trace.pass_s']['value']:10.4f} s, "
                  f"overhead {m['trace.overhead_s']['value']:+.4f} s")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

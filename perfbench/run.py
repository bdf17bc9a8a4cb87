"""Pipeline benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload analyze_prime --seed 0 --seconds 20 --trace 0

Untraced (--trace 0), the run times set-up in fresh interpreters, then runs
passes over the workload's ops for about --seconds seconds, checking every
output against oracle.json.  It prints the end-to-end metrics.  Traced
(--trace 1), it runs one untraced pass and one traced pass and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is the
JSON result; a fuller record (environment, every pass, every failure, the
spans of a traced pass) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import runner
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
SETUP_REFERENCE_SAMPLES = 2  # reference timings before, and again after, each probe
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # the whole run must end well inside 180 s
BLAS_THREADS = 1
NOMINAL_REFERENCE_S = 0.010  # runner.reference_seconds() during an op on an idle host, roughly

END_TO_END = {"pass_s": "s", "max_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def reference_scale(samples) -> float:
    """Factor that rescales CPU seconds to the nominal host speed.

    The run process is single-threaded and does no I/O, so its CPU time is
    its wall time minus the time the host gives the CPU to other tenants.
    On a shared host the speed of that CPU time still drifts, by 20% over
    tens of seconds.  So a fixed reference loop is timed while every op
    runs (runner.call_with_timeout) and around every set-up probe, and CPU
    seconds are scaled by NOMINAL_REFERENCE_S over the mean of those
    samples.  README.md gives the spreads with and without this scaling.
    """
    return NOMINAL_REFERENCE_S / statistics.fmean(samples)


def op_seconds(res: runner.PassResult) -> dict:
    """Per-op CPU seconds of one pass, rescaled to the nominal host speed."""
    return {name: cpu * reference_scale(res.reference[name]) for name, cpu in res.cpu.items()}


def pin_interpreter(seed: int) -> None:
    """Run single-threaded, with the string-hash seed taken from the seed.

    BLAS pools are pinned before numpy loads.  A command-line call gets a
    random hash seed; here each workload seed picks its own, so that the
    same seed repeats the same run and the median over seeds covers
    several hash orders.  The interpreter restarts under it when the caller
    did not set it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    hash_seed = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])


def per_op_seconds(results) -> dict:
    """Each op's median over the run's passes."""
    return {name: statistics.median(op_seconds(r)[name] for r in results)
            for name in results[0].cpu}


def environment(seed: int) -> dict:
    import numpy
    from idfilt._kernels import backend_name
    nproc = len(os.sched_getaffinity(0))
    return {"backend": backend_name(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc,
            "blas_threads": min(BLAS_THREADS, nproc), "seed": seed}


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, seed: int) -> list:
    """CPU seconds, launch to exit, of fresh interpreters that import idfilt
    and parse the workload's inputs, as each command-line call does.  Each
    probe is rescaled to the nominal host speed by reference timings taken
    just before and just after it."""
    texts = "\0".join(op.text for op in workloads.build_ops(workload, seed))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(runner.SRC), workload]
    times = []
    for _ in range(SETUP_PROBES):
        reference = [runner.reference_seconds() for _ in range(SETUP_REFERENCE_SAMPLES)]
        before = child_cpu()
        # subprocess's own timeout polls in 50 ms steps; the alarm does not
        outcome = runner.call_with_timeout(
            lambda: subprocess.run(cmd, input=texts, text=True, check=True), 60)
        if outcome.error is not None:
            raise SystemExit(f"perfbench: set-up probe failed: {outcome.error}")
        probe_cpu = child_cpu() - before
        reference += [runner.reference_seconds() for _ in range(SETUP_REFERENCE_SAMPLES)]
        times.append(probe_cpu * reference_scale(reference))
    return times


def prepare(workload: str, seed: int):
    """Parsed inputs of the passes: the seed's variable orders, then their reverse."""
    from idfilt.specfile import parse_spec
    out = []
    for reverse in (False, True):
        ops = workloads.build_ops(workload, seed, reverse)
        out.append((ops, [parse_spec(op.text) for op in ops]))
    return out


def one_pass(run: runner.Runner, workload: str, inputs, index: int):
    if workload == workloads.VERIFY:
        return run.verify_pass(workloads.VERIFY_CORPUS_SEED)
    ops, specs = inputs[index % 2]
    return run.report_pass(ops, specs)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(args) -> int:
    t_start = time.perf_counter()
    runner.use_checkout_source()
    import oracle
    from tracing import Tracer, install, layer_metrics

    env = environment(args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(
        f"{k}={v}" for k, v in env.items() if k != "seed"), flush=True)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    expected = oracle.load()
    inputs = prepare(args.workload, args.seed)
    deadline = t_start + RUN_DEADLINE_S
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "setup_s_samples": setup, "passes": []}

    def log_pass(label, res):
        record["passes"].append({"label": label, "wall_s": res.wall, "cpu_s": res.cpu,
                                 "reference_s": res.reference, "failures": res.failures})
        reference = [t for samples in res.reference.values() for t in samples]
        print(f"# {label}: wall={sum(res.wall.values()):.4f}s cpu={sum(res.cpu.values()):.4f}s "
              f"reference={statistics.fmean(reference):.5f}s slowest op "
              f"cpu={max(res.cpu.values()):.4f}s ops={res.attempted} failed={len(res.failures)}", flush=True)
        for name, why in res.failures:
            print(f"#   FAILED {name}: {why}", flush=True)

    plain = runner.Runner(expected, OP_TIMEOUT_S, deadline)
    results = [one_pass(plain, args.workload, inputs, 0)]
    log_pass("pass 1", results[0])

    if args.trace:
        tracer = Tracer(clock=runner.work_clock)
        install(tracer)
        try:
            traced = runner.Runner(expected, OP_TIMEOUT_S, deadline, wrap=tracer.bind)
            tracer.bind("perfbench.prepare", prepare)(args.workload, args.seed)
            res = one_pass(traced, args.workload, inputs, 0)
        finally:
            tracer.uninstall()
        log_pass("traced pass", res)
        results.append(res)
        from idfilt import verify
        suites = [s.__name__.removeprefix("suite_") for s in verify.ALL_SUITES]
        metrics = layer_metrics(tracer.spans, tracer.counters, suites)
        traced_s = sum(per_op_seconds([res]).values())
        metrics["trace.pass_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - sum(per_op_seconds(results[:1]).values())
        units = {k: ("s" if k.endswith("_s") or k.endswith(".s") else
                     "ratio" if k.endswith("_ratio") else "count") for k in metrics}
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    else:
        # Passes for about --seconds in total, counted at the nominal host
        # speed so that the count does not follow the host's drift.  Report
        # workloads make whole pairs: a variable order and its reverse.
        target = max(1, round(args.seconds / sum(op_seconds(results[0]).values())))
        if target > 1 and args.workload != workloads.VERIFY:
            target += target % 2
        first_wall = sum(results[0].wall.values())
        while len(results) < target and time.perf_counter() + 1.5 * first_wall < deadline:
            results.append(one_pass(plain, args.workload, inputs, len(results)))
            log_pass(f"pass {len(results)}", results[-1])
        typical = per_op_seconds(results)
        metrics = {
            "pass_s": sum(typical.values()),
            "max_op_s": max(typical.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    print(f"# fail_ratio={failed / attempted:.4f} ({failed} of {attempted} ops)")
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    arguments = parse_args()
    pin_interpreter(arguments.seed)
    sys.exit(main(arguments))

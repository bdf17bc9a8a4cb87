"""Running ops: the per-op timeout, failure accounting and output checks.

A pass runs every op of a workload once.  An op fails when it raises, runs
past its timeout, or returns output that disagrees with the oracle; a
failure is counted and the pass goes on.
"""

from __future__ import annotations

import random
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import check_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import idfilt from this checkout's src/; stop when it is missing."""
    if not (SRC / "idfilt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no idfilt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class OpTimeout(BaseException):
    """Raised by the per-op alarm.  A BaseException, so that no `except
    Exception` inside the library can swallow it."""


REFERENCE_PERIOD_S = 0.2  # wall seconds between reference timings during an op
_reference_cpu = 0.0      # CPU seconds this process has spent in reference timings


def reference_seconds() -> float:
    """CPU seconds of a fixed pure-Python loop that uses no idfilt code.

    It tracks how fast the host runs this process at the moment: on a
    shared host that speed drifts by 20% over tens of seconds, and the ops
    drift with it.
    """
    global _reference_cpu
    t0 = time.process_time()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    took = time.process_time() - t0
    _reference_cpu += took
    return took


def work_clock() -> float:
    """Process CPU seconds, less those spent timing the reference loop."""
    return time.process_time() - _reference_cpu


@dataclass
class Outcome:
    result: object
    wall: float           # wall seconds
    cpu: float            # process CPU seconds, reference timings excluded
    error: str | None     # None when the op ran to completion
    reference: list = field(default_factory=list)  # reference_seconds() samples


def call_with_timeout(fn, timeout: float, sample_reference: bool = False) -> Outcome:
    """Run fn() under a wall-clock alarm.

    With sample_reference, the reference loop is timed once before fn and
    then every REFERENCE_PERIOD_S wall seconds while it runs, from the same
    SIGALRM handler that enforces the timeout.  The samples then describe
    the host's speed over the whole op.  (A CPU-time timer would do, but
    while one is armed the kernel reports process CPU time only to the
    scheduler tick.)
    """
    samples = [reference_seconds()] if sample_reference else []
    if timeout <= 0:
        return Outcome(None, 0.0, 0.0, "not started: run deadline reached", samples)
    deadline = time.perf_counter() + timeout

    def tick(signum, frame):
        if time.perf_counter() >= deadline:
            raise OpTimeout()
        if sample_reference:
            samples.append(reference_seconds())

    period = min(REFERENCE_PERIOD_S, timeout) if sample_reference else timeout
    previous = signal.signal(signal.SIGALRM, tick)
    t0, c0 = time.perf_counter(), work_clock()
    out, error = None, None
    try:
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = f"timeout after {timeout:.3g} s"
    except Exception as exc:  # a raising op is a counted failure, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(out, time.perf_counter() - t0, work_clock() - c0, error, samples)


@dataclass
class PassResult:
    wall: dict = field(default_factory=dict)       # op name -> wall seconds
    cpu: dict = field(default_factory=dict)        # op name -> CPU seconds
    failures: list = field(default_factory=list)   # (op name, reason)
    reference: dict = field(default_factory=dict)  # op name -> reference samples

    def add(self, name: str, outcome: Outcome, error: str | None) -> None:
        self.wall[name] = outcome.wall
        self.cpu[name] = outcome.cpu
        self.reference[name] = outcome.reference
        if error is not None:
            self.failures.append((name, error))

    @property
    def attempted(self) -> int:
        return len(self.wall)


def report_fn(kind: str):
    """The pipeline entry point behind `idfilt <kind>`, looked up at call time."""
    from idfilt import pipeline
    return {"analyze": pipeline.analyze, "saturate": pipeline.saturate_report,
            "sigma": pipeline.sigma_report, "mu": pipeline.mu_report}[kind]


class Runner:
    """Runs passes of one workload with a per-op timeout and a run deadline.

    wrap(name, fn) is applied to each op's work; the tracer uses it to put
    a root span around every op.
    """

    def __init__(self, oracle: dict, op_timeout: float, deadline: float, wrap=None):
        self.oracle = oracle
        self.op_timeout = op_timeout
        self.deadline = deadline
        self.wrap = wrap or (lambda name, fn: fn)

    @staticmethod
    def fresh_caches() -> None:
        """Empty idfilt's process-wide caches, so each pass starts as a new
        command-line call does."""
        for modname, mod in list(sys.modules.items()):
            if modname == "idfilt" or modname.startswith("idfilt."):
                for value in vars(mod).values():
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()

    def _timeout(self) -> float:
        return min(self.op_timeout, self.deadline - time.perf_counter())

    def report_pass(self, ops, specs, check=check_report) -> PassResult:
        self.fresh_caches()
        result = PassResult()
        for op, spec in zip(ops, specs):
            work = self.wrap(op.name, lambda fn=report_fn(op.kind), spec=spec: fn(spec))
            outcome = call_with_timeout(work, self._timeout(), sample_reference=True)
            error = outcome.error
            if error is None:
                error = "; ".join(check(op, outcome.result, self.oracle)) or None
            result.add(op.name, outcome, error)
        return result

    def verify_pass(self, seed: int) -> PassResult:
        """One run_all(seed) with each suite run as an op of its own."""
        from idfilt import verify
        self.fresh_caches()
        result = PassResult()
        suites = list(verify.ALL_SUITES)

        def as_op(suite):
            name = "verify:" + suite.__name__.removeprefix("suite_")

            def run_suite(rng: random.Random):
                work = self.wrap(name, lambda: suite(rng))
                outcome = call_with_timeout(work, self._timeout(), sample_reference=True)
                res, error = outcome.result, outcome.error
                if error is None and not (res.passed and res.instances > 0):
                    error = f"{res.instances} instances, failures: {res.failures[:3]}"
                result.add(name, outcome, error)
                return res if error is None else verify.SuiteResult(name, "", failures=[error])
            return run_suite

        verify.ALL_SUITES[:] = [as_op(s) for s in suites]
        try:
            verify.run_all(seed=seed)
        finally:
            verify.ALL_SUITES[:] = suites
        return result

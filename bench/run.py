"""Benchmark of the gmquantum verification engine (standard library only).

Run from the repository root:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30
    python3 bench/run.py --workload report-mix --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process drives one workload on one thread through the package's
public entry points, imported from ./src.  Set-up (a fresh import of the
package plus the workload's warm-up) is repeated SETUP_REPEATS times and
reported as a median.  Then ops run in a closed loop for --seconds; every
op's output is checked (checker.py) and a wrong output counts as a failed
op.  Each metric is printed on its own line with its unit, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics: set-up time, op cost in units of
calibration_loop() (which cancels the host's changing speed), peak RSS,
and ungated raw wall times.  --trace 1 runs every op twice,
once under the span recorder (spans.py) and once bare, and reports
per-layer self times, call counts, per-command latencies and the tracing
overhead; the spans are written to bench/out/.  --workload all runs every
workload in a child process of its own and prints all their metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import spans
from workloads import REPORTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7

# gated end-to-end metrics (the JSON line of --trace 0); "calib" is the
# wall time of calibration_loop() measured around the op
END_TO_END_UNITS = {"setup_s": "s", "op_calib.p50": "calib",
                    "op_calib.p90": "calib", "peak_rss_mb": "MB"}
# printed by --trace 0 but not gated: on a shared host wall times drift with
# the machine's speed far more than with the program (see README.md)
RAW_UNITS = {"op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s"}
TRACE_UNITS = {"trace.op_s.p50": "s", "trace.untraced_op_s.p50": "s",
               "trace.untraced_op_s.p90": "s", "trace.overhead_share": "ratio",
               "trace.accounted_share": "ratio"}
PER_LAYER_UNITS = dict(
    [("%s.s" % label, "s") for label in spans.SPAN_LABELS]
    + [("%s.calls" % label, "count") for label in spans.COUNT_LABELS]
    + [("cli.%s.s" % command, "s") for command in REPORTS],
    **TRACE_UNITS)


# operands of calibration_loop(): sparse polynomials in two variables with
# the certificate sample's coefficient height, as the engine multiplies them
_CAL_RNG = random.Random(0)
CAL_A, CAL_B = ([((i, j), Fraction(_CAL_RNG.randint(-9, 9),
                                   _CAL_RNG.randint(1, 4)))
                 for i in range(5) for j in range(4)] for _ in range(2))


def calibration_loop() -> float:
    """Wall time of a fixed exact-arithmetic loop, a yardstick of machine speed.

    Op wall times are divided by its mean over runs just before, during
    (SpeedProbe) and just after each op, so that the host getting slower or
    faster for a while cancels out.  It uses only the standard library, so
    no change to gmquantum moves it.
    """
    start = time.perf_counter()
    for _ in range(2):
        out: Dict[Tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in CAL_A:
            for (i2, j2), c2 in CAL_B:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return time.perf_counter() - start


class SpeedProbe:
    """Samples calibration_loop() every INTERVAL s of wall time during an op.

    A SIGALRM handler runs the loop between bytecodes of the op, so a long
    op is measured against the machine's speed while it ran, not only at
    its ends.  The time spent in the handler is taken off the op's time.
    """

    INTERVAL = 0.1

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - start

    def run(self, fn, *args):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def load_package() -> SimpleNamespace:
    """Import gmquantum afresh from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "gmquantum" or m.startswith("gmquantum.")]:
        del sys.modules[name]
    cli = importlib.import_module("gmquantum.cli")
    certificates = importlib.import_module("gmquantum.certificates")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError("gmquantum was imported from %s, not %s"
                           % (cli.__file__, SRC))
    return SimpleNamespace(cli=cli, certificates=certificates)


def set_up(workload) -> Tuple[SimpleNamespace, float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = load_package()
        workload.prepare(pkg)
        times.append(time.perf_counter() - start)
    return pkg, statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def timed(self, call: Callable[[], object], check) -> float:
        """Run one op, check its result, and return its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            elapsed = time.perf_counter() - start
            self.failures.append("raised %s: %s" % (type(exc).__name__, exc))
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            reason = check(result)
        except Exception as exc:  # output the checker cannot read is wrong
            reason = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if reason:
            self.failures.append(reason)
        return elapsed


def percentile(values: List[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload, pkg, ops, seconds: float, tally: Tally) -> Dict[str, float]:
    """Closed loop for `seconds`.  An op's cost in calib is its wall time over
    the mean of the calibration loops run just before, during (SpeedProbe)
    and just after it."""
    durations: List[float] = []
    costs: List[float] = []
    before = calibration_loop()
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        op = next(ops)
        probe = SpeedProbe()
        elapsed = tally.timed(lambda: probe.run(workload.run, pkg, op),
                              lambda r: workload.check(op, r))
        after = calibration_loop()
        durations.append(elapsed - probe.spent)
        costs.append(durations[-1] / statistics.mean(
            [before, *probe.samples, after]))
        before = after
    return {"op_calib.p50": statistics.median(costs),
            "op_calib.p90": percentile(costs, 90),
            "op_s.p50": statistics.median(durations),
            "op_s.p90": percentile(durations, 90),
            "ops_per_s": len(durations) / sum(durations)}


def measure_traced(workload, pkg, ops, seconds: float, tally: Tally,
                   recorder: spans.Recorder) -> Dict[str, float]:
    """Each op runs traced, then bare on the same input.

    Self times are means per traced op.  Call counts are per op over the
    first round (workload.round_size ops), which the seed fixes, so they
    repeat exactly for a seed.
    """
    traced: List[float] = []
    bare: List[float] = []
    by_command: Dict[str, List[float]] = defaultdict(list)
    start = time.perf_counter()
    while len(traced) < workload.round_size or \
            time.perf_counter() - start < seconds:
        op, n = next(ops), len(traced)
        traced.append(tally.timed(
            lambda: recorder.run_op(n, op.name, workload.run, pkg, op),
            lambda r: workload.check(op, r)))
        bare.append(tally.timed(lambda: workload.run(pkg, op),
                                lambda r: workload.check(op, r)))
        by_command[op.name].append(bare[-1])
    self_times = recorder.self_times()
    metrics: Dict[str, float] = {}
    for label in spans.SPAN_LABELS:
        metrics["%s.s" % label] = sum(
            self_times[op][label] for op in range(len(traced))) / len(traced)
    first_round: Counter = Counter()
    for op in range(workload.round_size):
        first_round.update(recorder.counts[op])
    for label in spans.COUNT_LABELS:
        metrics["%s.calls" % label] = first_round[label] / workload.round_size
    for command in REPORTS:
        times = by_command.get(command)
        metrics["cli.%s.s" % command] = statistics.median(times) if times else 0.0
    root_total = sum(recorder.op_durations().values())
    root_self = sum(v for per_op in self_times.values()
                    for label, v in per_op.items()
                    if label.startswith(spans.ROOT_PREFIX))
    traced_p50, bare_p50 = statistics.median(traced), statistics.median(bare)
    metrics.update({
        "trace.op_s.p50": traced_p50,
        "trace.untraced_op_s.p50": bare_p50,
        "trace.untraced_op_s.p90": percentile(bare, 90),
        "trace.overhead_share": (traced_p50 - bare_p50) / bare_p50,
        "trace.accounted_share": 1 - root_self / root_total,
    })
    return metrics


def emit(metrics: Dict[str, float], units: Dict[str, str], attempted: int,
         failures: List[str], shown: Dict[str, str]) -> None:
    """Print every metric with its unit, then the JSON line with `units`."""
    for reason in failures[:5]:
        print("failed op: %s" % reason, file=sys.stderr)
    for name, unit in dict(units, **shown).items():
        print("%-44s %14.6g %s" % (name, metrics[name], unit))
    print("%-44s %14d count" % ("attempted", attempted))
    print("%-44s %14d count" % ("failed", len(failures)))
    print("%-44s %14.6g ratio" % ("error_rate", len(failures) / attempted))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]()
    pkg, setup_s = set_up(workload)
    ops = workload.ops(random.Random(seed))
    tally = Tally()
    if trace:
        recorder = spans.Recorder()
        metrics = measure_traced(workload, pkg, ops, seconds, tally, recorder)
        if recorder.missing:
            print("hooks not found: %s" % ", ".join(recorder.missing),
                  file=sys.stderr)
        path = OUT / ("spans-%s-seed%d.json" % (name, seed))
        recorder.dump(path, {"workload": name, "seed": seed})
        print("spans written to %s" % path.relative_to(ROOT))
        units, shown = PER_LAYER_UNITS, {}
    else:
        metrics = measure(workload, pkg, ops, seconds, tally)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        units, shown = END_TO_END_UNITS, RAW_UNITS
    emit(metrics, units, tally.attempted, tally.failures, shown)
    return 0 if not tally.failures else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a child process of its own, one after another."""
    combined: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    status = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("%s exited with %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status |= proc.returncode
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined["%s.%s" % (name, metric)] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gmquantum" / "__init__.py").is_file():
        print("error: no gmquantum package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

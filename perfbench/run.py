"""Packet-engine benchmark: one workload, one single-threaded process.

    python3 perfbench/run.py --workload multifiber --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  ``setup_s`` is the time from the start of this script
(before the library is imported) to the first timed operation: imports, and
the inputs built from the seed.  It is the median over this process and
SETUP_SAMPLES - 1 fresh child processes that each do the same set-up and
exit, spread between rounds.  The run repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output outside the
timed region, and prints one JSON object as its last line of output.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``candidates_per_s`` (grid points covered per second of timed operations),
``op_s_p50`` (median operation time) and ``peak_rss_mb``.  With
``--trace 1`` the same inputs are run untraced for half the time, then the
same rounds again with per-layer wrappers installed, and the metrics are the
per-layer ones (see README.md).  Result and trace files go to
``perfbench/results/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "arthur_packets"
MODULES = ("halfint", "core", "characters", "transforms", "reductions", "engine", "packets", "oracle")
SETUP_SAMPLES = 5
JOBS_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "candidates_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def load_library() -> SimpleNamespace:
    lib = SimpleNamespace(pkg=importlib.import_module(PACKAGE))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"{PACKAGE}.{name}"))
    return lib


def set_up(workload_cls, seed: int):
    """The measured set-up: the library import and the workload's inputs.
    Returns the workload and the seconds since this script started."""
    workload = workload_cls(load_library(), seed)
    return workload, time.perf_counter() - START


class SetupSamples:
    """This process's own set-up time plus that of fresh child processes,
    each started between rounds once its share of the run has passed, so
    that the median samples the host over the run."""

    def __init__(self, workload: str, seed: int, seconds: float, first: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--seconds", "0", "--setup-only"]
        self.times = [first]
        self.start = time.perf_counter()
        self.step = seconds / SETUP_SAMPLES

    def child(self) -> None:
        out = subprocess.run(self.argv, capture_output=True, text=True, check=True)
        self.times.append(float(out.stdout.split()[-1]))

    def between_rounds(self) -> None:
        due = time.perf_counter() - self.start >= self.step * len(self.times)
        if due and len(self.times) < SETUP_SAMPLES:
            self.child()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.child()
        return statistics.median(self.times)


class Tally:
    """Timed operations and their checks."""

    def __init__(self):
        self.times = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def record_failure(self, message: str, wrong: bool) -> None:
        """Count a failed operation; ``wrong`` when its output failed a check."""
        self.failed += 1
        self.wrong += wrong
        if len(self.messages) < 20:
            self.messages.append(message)


def run_rounds(
    workload, tally: Tally, seconds=None, rounds=None, tracer=None, run_start=0.0, between=None
) -> int:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done;
    return the number of rounds run.  ``between`` is called after each round."""
    gc.collect()
    start = time.perf_counter()
    done = 0
    while True:
        for index, op in enumerate(workload.ops):
            tally.attempted += 1
            if tracer is not None:
                tracer.begin_op()
            try:
                t0 = time.perf_counter()
                out = workload.run(op)
                elapsed = time.perf_counter() - t0
            except Exception as exc:  # an operation that raises counts as failed
                if tracer is not None:
                    tracer.end_op(index, done, run_start)
                tally.record_failure(f"op {index}: {type(exc).__name__}: {exc}", wrong=False)
                continue
            if tracer is not None:
                tracer.end_op(index, done, run_start)
            tally.times.append(elapsed)
            tally.points += workload.grid(op)
            bad = workload.violations(op, out)
            if bad:
                tally.record_failure(f"op {index}: " + "; ".join(bad[:3]), wrong=True)
        done += 1
        if between is not None:
            between()
        if rounds is not None and done >= rounds:
            return done
        if seconds is not None and time.perf_counter() - start >= seconds:
            return done


def jobs_speedup(workload) -> float:
    """``jobs=1`` time over ``jobs=2`` time of the golden enumeration."""
    enumerate_packet = workload.lib.packets.enumerate_packet
    times = {1: [], 2: []}
    for _ in range(JOBS_REPEATS):
        for jobs in (1, 2):
            t0 = time.perf_counter()
            enumerate_packet(workload.psi, workload.order, jobs=jobs)
            times[jobs].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def measure_gated(workload_cls, seed: int, seconds: float):
    workload, first = set_up(workload_cls, seed)
    setups = SetupSamples(workload.name, seed, seconds, first)
    tally = Tally()
    run_rounds(workload, tally, seconds=seconds, between=setups.between_rounds)
    metrics = {
        "setup_s": setups.median(),
        "candidates_per_s": tally.points / sum(tally.times) if tally.times else 0.0,
        "op_s_p50": statistics.median(tally.times) if tally.times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, None


def measure_traced(workload_cls, seed: int, seconds: float, units: dict):
    import tracing

    workload, _ = set_up(workload_cls, seed)
    speedup = jobs_speedup(workload) if workload.name == "golden" else None
    tally = Tally()
    rounds = run_rounds(workload, tally, seconds=seconds / 2)
    untraced_s = sum(tally.times)
    traced_from = len(tally.times)
    tracer = tracing.Tracer(workload.lib)
    tracer.install()
    try:
        run_rounds(workload, tally, rounds=rounds, tracer=tracer, run_start=time.perf_counter())
    finally:
        tracer.remove()
    traced_s = sum(tally.times[traced_from:])
    values = tracer.metrics()
    values["trace.overhead_s"] = traced_s - untraced_s
    missing = sorted(name for name in units if values.get(name) is None)
    for name in missing:
        print(f"missing: {name} (its wrapped name is gone; printed as 0)", file=sys.stderr)
    metrics = {name: (values.get(name) or 0, unit) for name, unit in units.items()}
    trace = {
        "layers": values,
        "missing": missing,
        "jobs2_speedup": speedup,
        "rounds": rounds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "wrapped": tracer.found,
        "absent": tracer.absent,
        "operations": tracer.records,
    }
    return tally, metrics, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:  # one sample of setup_s, for the parent run
        print(set_up(workload_cls, args.seed)[1])
        return 0
    if args.trace:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tally, metrics, trace = measure_traced(workload_cls, args.seed, args.seconds, units)
    else:
        tally, metrics, trace = measure_gated(workload_cls, args.seed, args.seconds)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {},
    }
    for name, (value, unit) in metrics.items():
        result["metrics"][name] = {"value": value, "unit": unit}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  op_times_s=tally.times, failures=tally.messages)
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if trace is not None:
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace))
    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

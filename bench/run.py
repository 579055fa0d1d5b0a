"""Benchmark of the padicradial package: one workload, one seed, one run.

    python3 bench/run.py --workload solve-deep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  The run sets up ``SETUP_REPEATS`` times (imports the package,
builds the seeded round of operations, runs it once to warm up), then
repeats whole rounds, in a seeded shuffled order, until ``--seconds`` have
passed.  Afterwards every distinct output is checked against the
independent reference (``checks.py``).  Progress and failures go to
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``layers.py``) with ``--trace 1``.

End-to-end times are in reference-speed seconds (see ``ReferenceClock``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

import workloads as wl  # noqa: E402  (the benchmark's own modules live beside this file)

SETUP_REPEATS = 3
# Percentile reported as op_tail_ms: the highest one that keeps at least ten
# samples beyond it at the fewest operations a run on the reference machine
# completes (see the README).
TAIL_PERCENTILE = {"solve-deep": 88, "sweep-grid": 98, "operators": 97}
MAX_REPORTED = 5

# Wall time of one calibration kernel on the reference machine; it only sets
# the scale of the reported times.
CALIBRATION_REFERENCE_S = 0.5e-3
_CALIBRATION_VALUES = tuple(math.sin(0.1 * k) for k in range(200))


def _guarded_power(base: float, exponent: float) -> float:
    t = exponent * math.log(base)
    return math.exp(t) if t > -745.0 else 0.0


def _calibration_kernel() -> float:
    """Fixed pure-Python work of the package's kind (calls of a guarded
    power inside centered sums), about half a millisecond.  It uses none of
    the package, so a change to the package cannot move it."""
    values = _CALIBRATION_VALUES
    total = 0.0
    for n in range(0, 200, 20):
        for k in range(n):
            total += _guarded_power(2.0, 0.5 * (k - n)) * (values[k] - values[n])
    return total


class ReferenceClock:
    """Wall time scaled to the speed of the host at the moment it was measured.

    The host this benchmark runs on slows down and speeds up by up to 2x over
    seconds to minutes, because of other tenants.  Every timed call is
    bracketed by runs of a fixed calibration kernel; the call's wall time is
    multiplied by CALIBRATION_REFERENCE_S / (mean of the two kernel times).
    A slow spell stretches the call and the kernel alike and cancels out.
    """

    def __init__(self):
        self.last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        start = time.perf_counter()
        _calibration_kernel()
        return time.perf_counter() - start

    def time(self, fn):
        """Run fn(); return (its result or the exception it raised, wall s, scaled s)."""
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as err:  # the caller decides; a failing op is counted
            out = err
        wall = time.perf_counter() - start
        now = self._calibrate()
        scaled = wall * CALIBRATION_REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return out, wall, scaled


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "padicradial" or m.startswith("padicradial.")]:
        del sys.modules[name]
    return importlib.import_module("padicradial")


def set_up(workload: str, seed: int, clock: ReferenceClock, wrap=None):
    """Import, build the round and warm up on one pass over it: all that
    precedes timing.  Returns the package, the ops and the scaled seconds."""
    def load():
        lib = fresh_import()
        return lib, wl.build_round(lib, workload, seed, wrap)

    loaded, _, seconds = clock.time(load)
    if isinstance(loaded, Exception):
        raise loaded
    lib, ops = loaded
    for op in ops:
        seconds += clock.time(op.run)[2]  # the known failing cell fails here too
    return lib, ops, seconds


class Outputs:
    """Distinct outputs per op (repeats are compared, not re-checked) and failures."""

    def __init__(self):
        self.distinct = {}   # op index -> list of different outputs
        self.failures = {}   # op index -> error message

    def keep(self, index, op, out):
        if isinstance(out, Exception):
            if index not in self.failures:
                self.failures[index] = f"{type(out).__name__}: {out}"
                tag = "expected failure" if op.expect_failure else "FAILED"
                print(f"{tag}: {op.kind} {op.label}: {self.failures[index]}", file=sys.stderr)
            return
        seen = self.distinct.setdefault(index, [])
        if all(out != other for other in seen):
            seen.append(out)

    def check(self, lib, ops) -> list:
        """Errors: unexpected failures and outputs the reference rejects."""
        import checks  # mpmath is imported only now, after the timed part
        errors = [f"{ops[index].kind} {ops[index].label}: failed: {message}"
                  for index, message in sorted(self.failures.items())
                  if not ops[index].expect_failure]
        for index, op in enumerate(ops):
            if op.expect_failure and index not in self.failures:
                print(f"note: {op.kind} {op.label} was expected to fail and did not",
                      file=sys.stderr)
        for index, outs in sorted(self.distinct.items()):
            if len(outs) > 1:
                errors.append(f"{ops[index].label}: {len(outs)} different outputs for one input")
            for out in outs:
                errors += [f"{ops[index].kind} {ops[index].label}: {e}"
                           for e in checks.check(lib, ops[index], out)]
        return errors


def timed_rounds(ops, seconds: float, rng: random.Random, clock: ReferenceClock,
                 outputs: Outputs):
    """Whole rounds until ``seconds`` of wall time have passed.

    Returns the wall and the scaled seconds of every op that completed, and
    the numbers of ops attempted and failed.
    """
    walls, scaled = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            attempted += 1
            out, wall, seconds_scaled = clock.time(ops[i].run)
            outputs.keep(i, ops[i], out)
            if isinstance(out, Exception):
                failed += 1
            else:
                walls.append(wall)
                scaled.append(seconds_scaled)
    return walls, scaled, attempted, failed


def percentile(samples, q: float) -> tuple:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "padicradial" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rng = random.Random(f"order/{args.workload}/{args.seed}")
    outputs = Outputs()
    clock = ReferenceClock()
    if args.trace:
        import layers
        rec = layers.Recorder()
        lib, ops, _ = set_up(args.workload, args.seed, clock, rec.wrap)
        traced = layers.traced_run(lib, ops, rec, args.seconds, rng, outputs.keep)
        if traced is None:
            print("error: no operation completed", file=sys.stderr)
            return 1
        metrics, attempted, failed, op_seconds = traced
        metrics.update(layers.time_cli(args.seed))
        summary = {"workload": args.workload, "seed": args.seed,
                   "traced_op_p50_wall_ms": statistics.median(op_seconds) * 1e3,
                   "traced_ops": len(op_seconds)}
        print(f"traced op p50 (wall) {summary['traced_op_p50_wall_ms']:.3f} ms over "
              f"{len(op_seconds)} ops", file=sys.stderr)
        layers.write_trace(RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl",
                           rec.spans, summary)
        units = layers.UNITS
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            lib, ops, seconds = set_up(args.workload, args.seed, clock)
            setups.append(seconds)
        walls, scaled, attempted, failed = timed_rounds(ops, args.seconds, rng, clock, outputs)
        rss = peak_rss_mb()
        if not scaled:
            print("error: no operation completed", file=sys.stderr)
            return 1
        q = TAIL_PERCENTILE[args.workload]
        tail, beyond = percentile(scaled, q)
        print(f"{len(scaled)} ops; op_tail_ms is p{q} with {beyond} samples beyond it; "
              f"wall time: {len(walls) / sum(walls):.4f} op/s, "
              f"op p50 {statistics.median(walls) * 1e3:.4f} ms, "
              f"p{q} {percentile(walls, q)[0] * 1e3:.4f} ms", file=sys.stderr)
        if beyond < 10:
            print(f"warning: fewer than 10 samples beyond p{q}", file=sys.stderr)
        metrics = {
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        units = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}

    errors = outputs.check(lib, ops)
    for line in errors[:MAX_REPORTED]:
        print(f"INCORRECT: {line}", file=sys.stderr)
    if len(errors) > MAX_REPORTED:
        print(f"INCORRECT: ... {len(errors) - MAX_REPORTED} more", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

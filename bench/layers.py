"""The traced run: per-layer metrics from calls into each layer's public API.

Nothing here reaches inside ``src/``.  Times come from spans around calls
into a layer's public functions on the workload's own inputs; counts come
from a right-hand side whose ``eval`` the benchmark wraps, from the
solve reports, and from a profile hook installed here that counts the
calls of ``haar.p_pow`` and keeps a sample of their arguments, which are
then replayed to time ``p_pow``.  Round 0 is the counting pass and is kept
out of the timings; the timings are medians over rounds 1..R.

Layers the workload itself does not exercise are still measured, on inputs
derived from it: the operator layers on each solve's solution, and the
solver layers on one default-extension probe problem per operator input.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl

PROBE_LEVELS = 8       # levels at which single-level calls are timed
ASSEMBLY_LEVELS = 100  # window of the assembly probe on a solution
CLI_REPEATS = 3
P_POW_MIN_SECONDS = 0.2
P_POW_SAMPLE = 50_000  # p_pow arguments kept from the counting pass

# span name -> metric name, for spans reported as ms per round
MS_METRICS = {
    "cauchy.picard": "cauchy.picard_ms",
    "cauchy.residual": "cauchy.residual_ms",
    "cauchy.spec": "cauchy.spec_ms",
    "fracint.assemble": "fracint.assemble_ms",
    "vladimirov.dalpha_oracle": "vladimirov.dalpha_oracle_ms",
    "fracint.kernel_oracle": "fracint.kernel_oracle_ms",
    "haar.oracle": "haar.oracle_ms",
}
# span name -> metric name, for spans reported as us per call
US_METRICS = {
    "fracint.bound_constants": "fracint.bound_constants_us",
    "radial.construct": "radial.construct_us",
    "radial.weighted_sum": "radial.weighted_sum_us",
    "fracint.apply_ialpha": "fracint.apply_ialpha_us",
    "vladimirov.apply_dalpha": "vladimirov.apply_dalpha_us",
}
COUNT_METRICS = (
    "cauchy.rhs_evals.spec", "cauchy.rhs_evals.picard", "cauchy.rhs_evals.continuation",
    "cauchy.rhs_evals.residual", "cauchy.window_levels", "cauchy.picard_iterations",
    "cauchy.extension_iterations", "cauchy.residual_levels", "haar.p_pow_calls",
)
UNITS = {
    **{metric: "ms" for metric in MS_METRICS.values()},
    "cauchy.continuation_ms": "ms",
    **{metric: "us" for metric in US_METRICS.values()},
    **{metric: "count" for metric in COUNT_METRICS},
    "haar.p_pow_ns": "ns",
    "cli.solve_ms": "ms", "cli.sweep_ms": "ms", "cli.verify_ms": "ms",
}
# the right-hand-side stage each span's evaluations belong to
_STAGES = {"cauchy.spec": "spec", "cauchy.solve": "solve", "cauchy.picard": "picard",
           "cauchy.residual": "residual"}


class Recorder:
    """Spans kept in memory, plus right-hand-side evaluation counts by stage."""

    def __init__(self):
        self.spans = []
        self.round = 0
        self.op = ""
        self.rhs_evals = defaultdict(int)
        self._stage = "other"
        self._open = {}

    def begin(self, name, width):
        self._stage = _STAGES.get(name, self._stage)
        self._open[name] = time.perf_counter_ns()

    def end(self, name, width, calls):
        self.spans.append((self.round, self.op, name, width, calls,
                           self._open.pop(name), time.perf_counter_ns()))
        if name in _STAGES:
            self._stage = "other"

    def wrap(self, fn):
        def counted(k, x):
            self.rhs_evals[self._stage] += 1
            return fn(k, x)
        return counted


def _probe_levels(u) -> list:
    step = max(1, len(u.values) // PROBE_LEVELS)
    return list(range(u.k_min, u.k_max + 1, step))[:PROBE_LEVELS]


def solver_layers(lib, cell, out, rec, counts):
    """Local radius, Picard and growth constants of one solve, on its inputs."""
    problem, report = out.problem, out.report
    u = report.solution
    width = len(u.values)
    target = cell.extend_to if cell.extend_to is not None else report.local_radius_N + 35
    n_cap = 8 if cell.extend_to is None else min(8, cell.extend_to)
    with wl.Span(rec, "cauchy.local_radius", width):
        n_local = lib.choose_local_radius(problem, n_cap=n_cap)
    with wl.Span(rec, "cauchy.picard", width):
        lib.picard_solve(problem, n_local, tol=wl.SOLVE_TOL, max_iter=200,
                         reserve_top=target + 1)
    with wl.Span(rec, "fracint.bound_constants", width):
        lib.bound_constants(problem.p, problem.alpha, problem.gamma)
    with wl.Span(rec, "radial.construct", width):
        lib.RadialFunction(u.p, u.k_min, u.k_max, u.values, left_tail=u.left_tail,
                           right_tail=u.right_tail, value_at_zero=u.value_at_zero)
    counts["cauchy.window_levels"] += width
    counts["cauchy.picard_iterations"] += report.picard_iterations
    counts["cauchy.extension_iterations"] += sum(
        d.iterations for d in report.extension_diagnostics.values())
    counts["cauchy.residual_levels"] += len(out.residuals)


def operator_layers(lib, u, alpha, gamma, rec):
    """Single-level operator calls, an assembly and the oracles, on a solution."""
    p, width = u.p, len(u.values)
    levels = _probe_levels(u)
    with wl.Span(rec, "radial.weighted_sum", width, len(levels)):
        for n in levels:
            lib.weighted_sum_left(u, n, 1.0)
    with wl.Span(rec, "fracint.apply_ialpha", width, len(levels)):
        for n in levels:
            lib.apply_ialpha(u, alpha, n)
    with wl.Span(rec, "vladimirov.apply_dalpha", width, len(levels)):
        for n in levels:
            lib.apply_dalpha(u, alpha, n)
    hi = min(u.k_max, u.k_min + ASSEMBLY_LEVELS - 1)
    with wl.Span(rec, "fracint.assemble", hi - u.k_min + 1):
        lib.assemble_fractional_integral(u, alpha, k_lo=u.k_min, k_hi=hi)
    with wl.Span(rec, "vladimirov.dalpha_oracle", width):
        for n in levels[:2]:
            lib.apply_dalpha_oracle(u, alpha, n)
    with wl.Span(rec, "fracint.kernel_oracle", width):
        lib.kernel_constant_oracle(p, alpha, -gamma / alpha)
    with wl.Span(rec, "haar.oracle", width):
        a = alpha - gamma
        lib.ball_power_integral_oracle(p, a, 0)
        lib.sphere_shifted_power_integral_oracle(p, a, 0)
        lib.ball_log_integral_oracle(p, 0)
        lib.sphere_shifted_log_integral_oracle(p, 0)


def probe_cell(spec) -> wl.Cell:
    """The default-extension problem that measures the solver on an operator input."""
    return wl.Cell(spec.p, spec.alpha, 0.4 * min(1.0, spec.alpha), 1.0, "cos-decay",
                   0.1, 2.5, None)


def layer_extras(lib, op, out, rec, counts):
    """Everything a traced op measures besides the op itself."""
    if op.kind == "solve":
        solver_layers(lib, op.spec, out, rec, counts)
        operator_layers(lib, out.report.solution, op.spec.alpha, op.spec.gamma, rec)
    elif op.kind == "oracles":  # once per operator input
        spec = op.spec
        cell = probe_cell(spec)
        probe = wl.solve_op(lib, cell, wl.make_rhs(lib, cell, rec.wrap), "interior", rec)
        solver_layers(lib, cell, probe, rec, counts)
        v = wl.build_function(lib, spec)
        width = len(spec.values)
        with wl.Span(rec, "radial.construct", width):
            wl.build_function(lib, spec)
        levels = _probe_levels(v)
        with wl.Span(rec, "radial.weighted_sum", width, len(levels)):
            for n in levels:
                lib.weighted_sum_left(v, n, 1.0)


class PPowRecorder:
    """A profile hook that counts ``haar.p_pow`` calls and keeps a uniform
    sample (reservoir, fixed seed) of their (base, exponent) arguments."""

    def __init__(self, p_pow):
        self.code = p_pow.__code__
        self.calls = 0
        self.sample = []
        self._rng = random.Random(0)

    def _hook(self, frame, event, arg):
        if event != "call" or frame.f_code is not self.code:
            return
        self.calls += 1
        args = (frame.f_locals["base"], frame.f_locals["exponent"])
        if len(self.sample) < P_POW_SAMPLE:
            self.sample.append(args)
        else:
            slot = int(self._rng.random() * self.calls)
            if slot < P_POW_SAMPLE:
                self.sample[slot] = args

    def enable(self):
        sys.setprofile(self._hook)

    def disable(self):
        sys.setprofile(None)


def time_p_pow(lib, args) -> float:
    """Mean wall time of one p_pow call, in ns, replaying the recorded arguments."""
    p_pow = lib.p_pow
    calls = 0
    start = time.perf_counter_ns()
    while True:
        for base, exponent in args:
            p_pow(base, exponent)
        calls += len(args)
        elapsed = time.perf_counter_ns() - start
        if elapsed >= P_POW_MIN_SECONDS * 1e9:
            return elapsed / calls


def time_cli(seed: int) -> dict:
    """Median wall time of in-process `padic-radial` solve, sweep and verify."""
    from padicradial import cli
    cell = wl.deep_cells(seed)[0]
    commands = {
        "cli.solve_ms": ["solve", "--p", str(cell.p), "--alpha", repr(cell.alpha),
                         "--gamma", repr(cell.gamma), "--u0", repr(cell.u0),
                         "--rhs", cell.rhs, "--rhs-amplitude", repr(cell.amplitude),
                         "--rhs-beta", repr(cell.beta), "--extend-to", str(cell.extend_to)],
        "cli.sweep_ms": ["sweep"],
        "cli.verify_ms": ["verify"],
    }
    out = {}
    for name, argv in commands.items():
        times = []
        for _ in range(CLI_REPEATS):
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            times.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"padic-radial {' '.join(argv)} exited {code}")
        out[name] = statistics.median(times) * 1e3
    return out


def aggregate(spans, rounds: range) -> dict:
    """Per-layer times as medians over the timed rounds."""
    total = defaultdict(lambda: defaultdict(int))
    calls = defaultdict(lambda: defaultdict(int))
    for rnd, _, name, _, ncalls, t0, t1 in spans:
        if rnd in rounds:
            total[name][rnd] += t1 - t0
            calls[name][rnd] += ncalls
    metrics = {}
    for span, metric in MS_METRICS.items():
        metrics[metric] = statistics.median(total[span][r] for r in rounds) / 1e6
    for span, metric in US_METRICS.items():
        metrics[metric] = statistics.median(
            total[span][r] / calls[span][r] for r in rounds) / 1e3
    metrics["cauchy.continuation_ms"] = statistics.median(
        total["cauchy.solve"][r] - total["cauchy.local_radius"][r] - total["cauchy.picard"][r]
        for r in rounds) / 1e6
    return metrics


def write_trace(path: Path, spans, summary: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"summary": summary}) + "\n")
        for rnd, op, name, width, ncalls, t0, t1 in spans:
            fh.write(json.dumps({"round": rnd, "op": op, "name": name, "W": width,
                                 "calls": ncalls, "start_ns": t0, "end_ns": t1}) + "\n")


def traced_run(lib, ops, rec, seconds, rng, keep_output):
    """Round 0 counts, rounds 1.. are timed until ``seconds`` have passed.

    Returns (metrics, attempted, failed, op_seconds) where op_seconds are the
    traced durations of the ops themselves, for the tracing overhead; None if
    no op completed.
    """
    counts = defaultdict(int)
    rec.rhs_evals.clear()  # drop the warm-up's evaluations
    attempted = failed = 0
    op_seconds = []
    pows = PPowRecorder(lib.p_pow)
    start = time.perf_counter()
    rnd = 0
    while True:
        rec.round = rnd
        order = list(range(len(ops)))
        if rnd > 0:
            rng.shuffle(order)
        for i in order:
            op = ops[i]
            rec.op = f"{i}: {op.label}"
            attempted += 1
            t0 = time.perf_counter()
            try:
                if rnd == 0:
                    pows.enable()
                try:
                    out = op.run(rec)
                finally:
                    pows.disable()
            except Exception as err:  # counted as failed; the run goes on
                failed += 1
                keep_output(i, op, err)
                continue
            if rnd > 0:
                op_seconds.append(time.perf_counter() - t0)
            keep_output(i, op, out)
            layer_extras(lib, op, out, rec, counts if rnd == 0 else defaultdict(int))
        if rnd >= 1 and time.perf_counter() - start >= seconds:
            break
        if rnd == 0:
            start = time.perf_counter()
            evals = dict(rec.rhs_evals)
        rnd += 1
    if not op_seconds:
        return None
    counts["haar.p_pow_calls"] = pows.calls
    counts["cauchy.rhs_evals.spec"] = evals.get("spec", 0)
    counts["cauchy.rhs_evals.picard"] = evals.get("picard", 0)
    counts["cauchy.rhs_evals.continuation"] = evals.get("solve", 0) - evals.get("picard", 0)
    counts["cauchy.rhs_evals.residual"] = evals.get("residual", 0)
    metrics = aggregate(rec.spans, range(1, rnd + 1))
    metrics.update({name: counts[name] for name in COUNT_METRICS})
    metrics["haar.p_pow_ns"] = time_p_pow(lib, pows.sample)
    return metrics, attempted, failed, op_seconds

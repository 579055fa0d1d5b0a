"""Alternating parent/change pairs of one benchmark workload, and their record.

    python3 tools/bench_pairs.py --parent PATH --change PATH --workload operators \
        --seed 11 --out BENCH.json

Runs ``bench/run.py --trace 0`` in the two source checkouts PATH, one after
the other, ten times, each run as long as the change checkout's
``BENCHMARK.json`` says (``run_seconds``); the parent runs first in even
pairs and the change in odd ones, so a drift of the host's speed favours
neither.  For each end-to-end metric that ``BENCHMARK.json`` names, prints
each side's median and quartiles and the number of pairs the change won
(ties count for neither), and whether the change meets the gain rule: at
least ten pairs, nine tenths of them won, and medians further apart than
the parent's quartile spread.  A change median worse than the parent's by
more than the metric's bound is flagged, and so is a change that fails a
larger share of its attempted operations than the parent, summed over all
runs of each side: the acceptance rule rejects either.

The record (every run's metrics, ``correct``, ``attempted`` and ``failed``,
the summary and the failure shares) goes into the JSON file ``--out`` under
the workload's name, keeping the other workloads already in that file.
Standard library only; it reads ``BENCHMARK.json`` and runs ``bench/run.py``
as a program, importing nothing from either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # pairs run, and the fewest that can show a gain
GAIN_SHARE = 0.9  # share of pairs the change must win to claim a gain


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(xs: list) -> tuple:
    """(q1, median, q3) of xs, by the inclusive method (exact at the sample's ends)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(spec: dict, parent: list, change: list) -> dict:
    """One end-to-end metric over the pairs: quartiles, pairs won, gain rule, bound."""
    name, higher = spec["name"], spec["better"] == "higher"
    xs = [r["metrics"][name] for r in parent]
    ys = [r["metrics"][name] for r in change]
    won = sum((y > x) if higher else (y < x) for x, y in zip(xs, ys))
    lost = sum((y < x) if higher else (y > x) for x, y in zip(xs, ys))
    (p1, pm, p3), (c1, cm, c3) = quartiles(xs), quartiles(ys)
    gain = cm - pm if higher else pm - cm  # > 0 where the change is better
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "pairs": len(xs), "won": won, "lost": lost,
            "relative_change": (cm - pm) / abs(pm) if pm else 0.0,
            "gain_rule_met": (len(xs) >= PAIRS and won >= GAIN_SHARE * len(xs)
                              and gain > p3 - p1),
            "within_bound": -gain <= spec["bound"] * abs(pm)}


def failure_shares(parent: list, change: list) -> dict:
    """Each side's failed and attempted operations summed over its runs, their share,
    and whether the change's share is the larger."""
    out = {}
    for side, rs in (("parent", parent), ("change", change)):
        failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
        out[side] = {"failed": failed, "attempted": attempted,
                     "share": failed / attempted if attempted else 0.0}
    out["larger"] = out["change"]["share"] > out["parent"]["share"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    parser.add_argument("--change", type=Path, required=True, help="change source checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds, specs = bench["run_seconds"], bench["end_to_end"]

    runs = {"parent": [], "change": []}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed, seconds)
            runs[side].append(dict(result, pair=k, first=side == order[0]))
            shown = " ".join(f"{n}={v:.4g}" for n, v in result["metrics"].items())
            print(f"pair {k + 1}/{PAIRS} {side}: {shown}", file=sys.stderr, flush=True)

    summary = {s["name"]: summarize(s, runs["parent"], runs["change"]) for s in specs}
    failures = failure_shares(runs["parent"], runs["change"])
    print(f"{args.workload}, seed {args.seed}, {PAIRS} pairs of {seconds:g}-s runs")
    for name, s in summary.items():
        par, chg = s["parent"], s["change"]
        flags = (" gain" if s["gain_rule_met"] else "") + ("" if s["within_bound"]
                                                           else " WORSE THAN BOUND")
        print(f"  {name:12s} parent {par['median']:.4g} [{par['q1']:.4g}, {par['q3']:.4g}]"
              f"  change {chg['median']:.4g} [{chg['q1']:.4g}, {chg['q3']:.4g}] {s['unit']}"
              f"  won {s['won']}/{s['pairs']}{flags}")
    par, chg = failures["parent"], failures["change"]
    print(f"  {'failed':12s} parent {par['failed']}/{par['attempted']} ({par['share']:.2%})"
          f"  change {chg['failed']}/{chg['attempted']} ({chg['share']:.2%})"
          + ("  LARGER FAILED SHARE" if failures["larger"] else ""))
    incorrect = [f"{side} pair {r['pair'] + 1}" for side in runs for r in runs[side]
                 if not r["correct"]]
    if incorrect:
        print(f"  INCORRECT output in: {', '.join(incorrect)}")

    record = json.loads(args.out.read_text()) if args.out.is_file() else {"workloads": {}}
    record["workloads"][args.workload] = {
        "seed": args.seed, "pairs": PAIRS, "seconds": seconds,
        "all_correct": not incorrect, "metrics": summary, "failures": failures, "runs": runs}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())

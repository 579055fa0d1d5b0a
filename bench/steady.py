"""Steadiness of the benchmark: N fresh-process runs per workload, one seed each.

    python3 bench/steady.py --runs 10 --seconds 25
    python3 bench/steady.py --runs 5 --workloads solve-deep --first-seed 100

Runs ``bench/run.py --trace 0`` once per seed, one process at a time, from
the root of the checkout that holds this file.  For each workload and
end-to-end metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``; a spread above a third of its bound is flagged.  It also
prints the share of failed operations, which must be identical in every
run.  All per-run results are written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list, bounds: dict) -> list:
    lines = [f"{workload}: {len(results)} runs, "
             f"correct {sum(r['correct'] for r in results)}/{len(results)}"]
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    fractions = {f * 1.0 / a for f, a in shares}
    lines.append(f"  failed share: {' '.join(f'{f}/{a}' for f, a in shares)}"
                 f"{'' if len(fractions) == 1 else '  <-- NOT CONSTANT'}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]
        flag = "  <-- above bound/3" if spread > bound / 3 else ""
        lines.append(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                     f"spread {spread:6.3f}  bound {bound:.2f}{flag}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "results" / "steady.json"))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {json.dumps(results[-1])}", file=sys.stderr)
        report[workload] = results
        print("\n".join(summarize(workload, results, bounds)), flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload several times and report each metric's spread.

    python3 perfbench/spread.py --workload xml-tree --runs 10
    python3 perfbench/spread.py --workload xml-tree --runs 10 --sets 2

Runs perfbench/run.py once per seed 1..runs, one run at a time, from
the root of the checkout, and does so ``--sets`` times.  For each
end-to-end metric and set it prints the median, the first and third
quartiles of the runs (statistics.quantiles, n=4) and their distance as
a share of the median, next to the metric's bound in BENCHMARK.json; a
spread of a third of the bound or more is flagged.  From the second
set on it also prints how much worse the set's median is than the
first set's, as a share of the first, and flags a change beyond the
bound.  It prints the share of failed operations of each run, which
must be the same in every run.  The runs are saved to
perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(spec, workload, runs, seconds):
    """One run per seed 1..runs; returns their results, or None if one
    did not end well."""
    results = []
    for seed in range(1, runs + 1):
        cmd = list(spec["command"]) + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                            proc.stderr), file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["wall_s"] = wall
        results.append(result)
        print("seed %d (%.0f s): %s" % (seed, wall, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)
    return results


def worse_by(metric, first, now) -> float:
    """How much worse ``now`` is than ``first``, as a share of first."""
    change = (now - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    sets = []
    for n in range(args.sets):
        print("set %d" % (n + 1), flush=True)
        results = run_set(spec, args.workload, args.runs, args.seconds)
        if results is None:
            return 1
        sets.append(results)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / ("spread-%s.json" % args.workload)).write_text(
        json.dumps(sets, indent=1) + "\n")

    results = [r for s in sets for r in s]
    shares = sorted({"%d/%d" % (r["failed"], r["attempted"])
                     for r in results})
    same = len({r["failed"] / r["attempted"] for r in results}) == 1
    print("failed/attempted: %s%s" % (", ".join(shares),
                                      "" if same else "  SHARES DIFFER"))
    status = 0 if same and all(r["correct"] for r in results) else 1
    print("%-16s %3s %11s %11s %11s %7s %7s %5s" % (
        "metric", "set", "median", "q1", "q3", "spread", "worse", "bound"))
    for m in spec["end_to_end"]:
        first = None
        for n, results in enumerate(sets):
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med
            flag = "  WIDE" if spread >= m["bound"] / 3 else ""
            worse = "-"
            if first is None:
                first = med
            else:
                change = worse_by(m, first, med)
                worse = "%.4f" % change
                if change > m["bound"]:
                    flag += "  MOVED"
            print("%-16s %3d %11.6g %11.6g %11.6g %7.4f %7s %5s%s" % (
                m["name"], n + 1, med, q1, q3, spread, worse, m["bound"],
                flag))
    return status


if __name__ == "__main__":
    sys.exit(main())

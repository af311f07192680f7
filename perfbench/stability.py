#!/usr/bin/env python3
"""Show whether a workload's end-to-end metrics are steady enough for their bounds.

    python3 perfbench/stability.py --workload W [--runs 10] [--first-seed 1]
                                   [--out results.json] [--against old.json]

Runs `run.py --workload W --trace 0` for BENCHMARK.json's run_seconds once
per seed (first-seed, first-seed+1, ...), then prints for every end-to-end
metric of BENCHMARK.json its median, first and third quartile (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and that spread against the metric's bound.  A spread
must stay below the bound; "steady" means below a third of it.  setup_s is
exempt from the spread rule (it is compared between medians only) but is
shown.  With --against, an earlier --out file of the same workload, it also
prints how much worse each median is than that set's, against the bound.
Exits 1 if any run failed, any metric is flagged or a median is worse by
more than its bound.

It also flags the ways a metric can be unfit to hold a bound:
  single-sample   a timing resting on one sample in a run
  thin-tail       a percentile above the median with fewer than ten samples
                  beyond it
  mixed-kind      a percentile computed over ops of more than one kind
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = ("ms", "s")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stderr)
        return None, None
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def flags_for(name, unit, samples):
    """Flags for one metric of one run, from the run's detail record."""
    out = []
    info = samples.get(name)
    if info is None:
        return out
    if unit in TIME_UNITS and info["n"] < 2:
        out.append("single-sample")
    if len(info["kinds"]) > 1:
        out.append("mixed-kind")
    m = re.search(r"_p(\d+)_", name)
    if m and int(m.group(1)) > 50 and info["n"] * (1 - int(m.group(1)) / 100) < 10:
        out.append("thin-tail")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="also write every run's result to this JSON file")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    a = ap.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    flags = {m["name"]: set() for m in metrics}
    runs, bad = [], 0
    for seed in range(a.first_seed, a.first_seed + a.runs):
        detail, res = one_run(a.workload, seed, seconds)
        if res is None or not res["correct"] or res["failed"]:
            bad += 1
            print("seed %d: run failed %s" % (seed, (detail or {}).get("failures")))
            continue
        runs.append({"seed": seed, "detail": detail, "result": res})
        row = []
        for m in metrics:
            v = res["metrics"][m["name"]]["value"]
            values[m["name"]].append(v)
            flags[m["name"]].update(flags_for(m["name"], m["unit"], detail["metric_samples"]))
            row.append("%s=%.5g" % (m["name"], v))
        print("seed %d: attempted=%d %s" % (seed, res["attempted"], " ".join(row)))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(runs, f, indent=1)

    before = {}
    if a.against:
        with open(a.against) as f:
            for r in json.load(f):
                for name, v in r["result"]["metrics"].items():
                    before.setdefault(name, []).append(v["value"])

    flagged = False
    print("\n%-14s %12s %12s %12s %8s %7s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in metrics:
        xs = values[m["name"]]
        if len(xs) < 4:
            print("%-14s too few runs" % m["name"])
            flagged = True
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        if m["name"] == "setup_s":
            verdict = "exempt (median compared only)"
        elif spread < m["bound"] / 3:
            verdict = "steady"
        elif spread < m["bound"]:
            verdict = "within bound, not steady"
        else:
            verdict = "TOO NOISY"
            flagged = True
        if flags[m["name"]]:
            verdict += " FLAGS: " + ",".join(sorted(flags[m["name"]]))
            flagged = True
        if m["name"] in before:
            worse = (med - statistics.median(before[m["name"]])) / statistics.median(
                before[m["name"]])
            if m["better"] == "higher":
                worse = -worse
            verdict += "; vs earlier median %+.4f (%s)" % (
                worse, "ok" if worse <= m["bound"] else "WORSE THAN BOUND")
            flagged = flagged or worse > m["bound"]
        print("%-14s %12.5g %12.5g %12.5g %8.4f %7.3f %s" % (
            m["name"], med, q1, q3, spread, m["bound"], verdict))
    sys.exit(1 if bad or flagged else 0)


if __name__ == "__main__":
    main()

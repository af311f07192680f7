#!/usr/bin/env python3
"""Thin-slicing benchmark: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the thinslice CLI and the
benchmark executable (perfbench/perfbench.ml) with dune, prepares the seed's
inputs untimed, measures for S seconds and prints, as its last line, one
JSON object with keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
with --trace 1.  The line before it is a "detail" object (environment,
input digests, sample counts, failures) that stability.py reads.  See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
BUILD = os.path.join(ROOT, "_build", "default")
CLI = os.path.join(BUILD, "bin", "thinslice.exe")
BENCH_EXE = os.path.join(BUILD, "perfbench", "perfbench.exe")

STMTS = 30_000
SETUPS = 5  # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 170

# The op kind each workload's op_p50_ms is taken over.  Every percentile
# is over ops of one kind.
PRIMARY = {
    "cold-30k": "cold",
    "serve-hot": "query",
    "edit-30k": "patched",
}

LAYER_SPANS = ("front", "pta", "ir.arena", "sdg.build", "sdg.freeze",
               "sdg.lookup", "slicer.walk", "slicer.lines", "engine.encode",
               "engine.update")
QUERY_SPANS = ("sdg.lookup", "slicer.walk", "slicer.lines", "engine.encode")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank q-quantile and the number of samples above it."""
    s = sorted(xs)
    v = s[min(len(s) - 1, int(q * len(s)))]
    return v, sum(1 for x in s if x > v)


def run_child(argv):
    """Run a child to completion and return its stdout; exit on failure."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out, err = p.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        die("timed out: " + " ".join(argv))
    if p.returncode != 0:
        die("%s exited %d: %s" % (os.path.basename(argv[0]), p.returncode,
                                  err.decode(errors="replace")[-2000:]))
    return out.decode()


def run_op(argv):
    """One one-shot process: (stdout, wall ms, exit code, peak RSS MB).  The
    child is reaped with wait4 so its own resident peak is known."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    p.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), wall_ms, p.returncode, usage.ru_maxrss * 1024 / 1e6


def build():
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a thinslice source checkout (missing %s)" % need)
    if shutil.which("dune") is None:
        die("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ROOT, "./bin/thinslice.exe",
                        "./perfbench/perfbench.exe"],
                       cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        die("build failed")


def prepare(seed):
    """The seed's program, query lines, edit sites and reference answers,
    generated once per checkout before any timed process starts."""
    d = os.path.join(OUT, "inputs", "seed-%d" % seed)
    meta = os.path.join(d, "meta.json")
    if not os.path.exists(meta):
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        run_child([BENCH_EXE, "prepare", "--dir", tmp, "--seed", str(seed),
                   "--stmts", str(STMTS)])
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    with open(meta) as f:
        return d, json.load(f)


# ---------------------------------------------------------------- cold-30k

def cold(d, meta, seconds, trace):
    """Each op is a fresh `thinslice slice --json` process at a seeded line.
    The traced run instead alternates `perfbench cold-op` processes that
    replay the same load and query with and without benchmark spans."""
    raw = {"ops": [], "spans": [], "failures": [], "setup_s": [], "live_mb": 0.0,
           "peak_rss_mb": 0.0, "top_heap_mb": 0.0}
    prog = os.path.join(d, "prog.tj")
    lines, answers = meta["lines"], meta["answers"]
    t_start = time.perf_counter()
    t_end = t_start + seconds
    i = 0
    while time.perf_counter() < t_end:
        t_op = time.perf_counter()
        line, want = lines[i % len(lines)], answers[i % len(lines)]
        traced = trace and i % 2 == 1
        if trace:
            out, ms, code, rss = run_op([BENCH_EXE, "cold-op", "--dir", d, "--line", str(line),
                                         "--spans", "1" if traced else "0"])
            r = json.loads(out) if code == 0 else {}
            ok = r.get("answer") == want
            for sp in r.get("spans", []):
                sp["op"] = i
                sp["start_s"] += t_op - t_start
                raw["spans"].append(sp)
            raw.update(ocaml=r.get("ocaml"), profile=r.get("profile"))
            majors = r.get("majors", 0)
            raw["top_heap_mb"] = max(raw["top_heap_mb"], r.get("top_heap_mb", 0.0))
        else:
            out, ms, code, rss = run_op([CLI, "slice", prog, "--line", str(line), "--json"])
            ok = code == 0 and out == want + "\n"
            majors = 0
        raw["peak_rss_mb"] = max(raw["peak_rss_mb"], rss)
        if not ok and len(raw["failures"]) < 5:
            raw["failures"].append("cold line %d: exit %d or wrong answer" % (line, code))
        raw["ops"].append(["cold", ms, traced, majors, ok, True])
        i += 1
    return raw


def in_process(workload, d, seconds, trace):
    out = run_child([BENCH_EXE, "run", "--dir", d, "--workload", workload,
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--setups", str(SETUPS)])
    return json.loads(out)


def setups(workload, d, raw):
    """setup_s samples from a process of their own, so that the measured
    process loads the program once, as a user's does.  The live heap after
    set-up is cold-30k's and serve-hot's live_mb."""
    r = json.loads(run_child([BENCH_EXE, "setup", "--dir", d, "--workload", workload,
                              "--setups", str(SETUPS)]))
    raw.update(setup_s=r["setup_s"], ocaml=r["ocaml"], profile=r["profile"])
    if workload in ("cold-30k", "serve-hot"):
        raw["live_mb"] = r["live_mb"]


# ---------------------------------------------------------------- metrics

def end_to_end(workload, raw):
    prim = [o[1] for o in raw["ops"] if o[0] == PRIMARY[workload]]
    if not prim:
        die("no %s ops completed" % PRIMARY[workload])
    return {
        "op_p50_ms": (median(prim), "ms"),
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "live_mb": (raw["live_mb"], "MB"),
    }


def per_layer(workload, raw):
    spans = raw["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def ms(name):
        return median([s["ms"] for s in named(name)])

    def alloc(name):
        return median([s["alloc_mw"] for s in named(name)])

    def count(name, key, scale=1.0):
        return median([s["counts"][key] * scale for s in named(name)])

    def ratio(name, num, dens):
        vals = []
        for s in named(name):
            den = sum(s["counts"][k] for k in dens)
            if den:
                vals.append(s["counts"][num] / den)
        return median(vals)

    def per_op_sum(names, field):
        acc = {}
        for s in spans:
            if s["name"] in names:
                acc[s["op"]] = acc.get(s["op"], 0.0) + s[field]
        return acc

    updates = named("engine.update")

    def update_ms(kind):
        return median([s["ms"] for s in updates if s["counts"]["kind"] == kind])

    edit_ops = [o for o in raw["ops"] if o[0] in ("patched", "resolved")]
    sdg_alloc = per_op_sum(("sdg.build", "sdg.freeze"), "alloc_mw")
    query_alloc = per_op_sum(QUERY_SPANS, "alloc_mw")
    shadow = per_op_sum(QUERY_SPANS, "ms")
    handled = named("serve.handle_line")

    # Op ids are positions in raw["ops"].  Coverage is the share of a traced
    # op's wall time its layer spans cover (serve-hot: the shadow replay's
    # layers against the handle_line span).
    prim = PRIMARY[workload]
    covered = per_op_sum(LAYER_SPANS, "ms")
    coverage = [covered.get(i, 0.0) / o[1] for i, o in enumerate(raw["ops"])
                if o[0] == prim and o[2] and o[1] > 0]
    traced_prim = [o[1] for o in raw["ops"] if o[0] == prim and o[2]]
    plain_prim = [o[1] for o in raw["ops"] if o[0] == prim and not o[2]]
    majors = [o[3] for o in raw["ops"] if o[2] and o[0] != "setup"]

    m = {
        "front.ms": (ms("front"), "ms"),
        "front.alloc_mw": (alloc("front"), "Mw"),
        "front.stmts": (count("front", "stmts"), "count"),
        "front.tokens": (count("front", "front.tokens"), "count"),
        "ir.arena_ms": (ms("ir.arena"), "ms"),
        "ir.arena_mb": (count("ir.arena", "bytes", 1e-6), "MB"),
        "pta.ms": (ms("pta"), "ms"),
        "pta.alloc_mw": (alloc("pta"), "Mw"),
        "pta.worklist_iterations": (count("pta", "pta.worklist_iterations"), "count"),
        "pta.objects": (count("pta", "objects"), "count"),
        "pta.contexts": (count("pta", "contexts"), "count"),
        "sdg.build_ms": (ms("sdg.build"), "ms"),
        "sdg.freeze_ms": (ms("sdg.freeze"), "ms"),
        "sdg.alloc_mw": (median(list(sdg_alloc.values())), "Mw"),
        "sdg.edges": (count("sdg.build", "edges"), "count"),
        "sdg.heap_pair_yield": (ratio("sdg.build", "sdg.heap_pairs_emitted",
                                      ("sdg.heap_pairs_considered",)), "ratio"),
        "sdg.csr_mb": (count("sdg.freeze", "csr_bytes", 1e-6), "MB"),
        "sdg.lookup_ms": (ms("sdg.lookup"), "ms"),
        "sdg.lookup_alloc_mw": (alloc("sdg.lookup"), "Mw"),
        "slicer.walk_ms": (ms("slicer.walk"), "ms"),
        "slicer.lines_ms": (ms("slicer.lines"), "ms"),
        "slicer.nodes_visited": (count("slicer.walk", "slicer.nodes_visited"), "count"),
        "slicer.follow_ratio": (ratio("slicer.walk", "slicer.edges_followed",
                                      ("slicer.edges_followed", "slicer.edges_skipped",
                                       "slicer.edges_costly")), "ratio"),
        "slicer.slice_lines": (count("slicer.lines", "slice_lines"), "count"),
        "engine.encode_ms": (ms("engine.encode"), "ms"),
        "engine.query_alloc_mw": (median(list(query_alloc.values())), "Mw"),
        "engine.update_patched_ms": (update_ms("patched"), "ms"),
        "engine.update_resolved_ms": (update_ms("resolved"), "ms"),
        "engine.update_relowered": (count("engine.update", "relowered"), "count"),
        "engine.update_refrozen_share": (ratio("engine.update", "segments_refrozen",
                                               ("segments_total",)), "ratio"),
        "engine.update_tier_match": (
            sum(1 for o in edit_ops if o[5]) / len(edit_ops) if edit_ops else 0.0, "ratio"),
        "serve.overhead_ms": (median([s["ms"] - shadow.get(s["op"], 0.0) for s in handled]), "ms"),
        "serve.cache_hit_ratio": (
            sum(1 for s in handled if s["counts"]["hit"]) / len(handled) if handled else 0.0,
            "ratio"),
        "serve.response_kb": (count("serve.handle_line", "bytes", 1e-3), "KB"),
        "gc.major_per_op": (statistics.fmean(majors) if majors else 0.0, "count"),
        "gc.top_heap_mb": (raw["top_heap_mb"], "MB"),
        "trace.coverage": (median(coverage), "ratio"),
        "trace.overhead_ms": (
            median(traced_prim) - median(plain_prim) if traced_prim and plain_prim else 0.0,
            "ms"),
    }
    return m


def layer_share(workload, raw):
    """Each layer's share of the span time of the workload's traced ops,
    largest first: the dominant layers of its op."""
    prim = PRIMARY[workload]
    ids = {i for i, o in enumerate(raw["ops"]) if o[0] == prim and o[2]}
    tot = {}
    for s in raw["spans"]:
        if s["op"] in ids and s["name"] in LAYER_SPANS:
            tot[s["name"]] = tot.get(s["name"], 0.0) + s["ms"]
    all_ms = sum(tot.values()) or 1.0
    return dict(sorted(((k, v / all_ms) for k, v in tot.items()), key=lambda kv: -kv[1]))


def detail(workload, seed, meta, raw, trace):
    kinds = {}
    for o in raw["ops"]:
        kinds.setdefault(o[0], []).append(o[1])
    samples = {}
    for k, xs in sorted(kinds.items()):
        row = {"n": len(xs), "p50_ms": median(xs)}
        # a tail is reported only where ten samples lie beyond it
        for q in (0.99, 0.9):
            v, beyond = percentile(xs, q)
            if beyond >= 10:
                row["p%d_ms" % round(q * 100)] = v
                row["beyond"] = beyond
                break
        samples[k] = row
    edit_ops = [o for o in raw["ops"] if o[0] in ("patched", "resolved")]
    return {
        "workload": workload,
        "env": {"nproc": len(os.sched_getaffinity(0)), "ocaml": raw.get("ocaml"),
                "dune_profile": raw.get("profile"), "seed": seed},
        "input": {k: meta[k] for k in ("stmt_count", "digest", "bytes")},
        "kinds": samples,
        # which ops and how many samples each end-to-end metric rests on
        "metric_samples": {
            "op_p50_ms": {"kinds": [PRIMARY[workload]],
                          "n": len(kinds.get(PRIMARY[workload], []))},
            "setup_s": {"kinds": ["setup"], "n": len(raw["setup_s"])},
        } if not trace else {},
        "tier_match": (sum(1 for o in edit_ops if o[5]) / len(edit_ops)) if edit_ops else None,
        "layer_share": layer_share(workload, raw) if trace else {},
        "failures": raw["failures"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    d, meta = prepare(a.seed)
    if a.workload == "cold-30k":
        raw = cold(d, meta, a.seconds, a.trace == 1)
    else:
        raw = in_process(a.workload, d, a.seconds, a.trace)
    if not a.trace:
        setups(a.workload, d, raw)
    if a.trace:
        write_spans(a.workload, a.seed, raw)
        m = per_layer(a.workload, raw)
        for k, (v, u) in m.items():
            print("%-30s %14.6g %s" % (k, v, u), file=sys.stderr)
    else:
        m = end_to_end(a.workload, raw)

    ops = [o for o in raw["ops"] if o[0] != "setup"]
    failed = sum(1 for o in ops if not o[4])
    info = detail(a.workload, a.seed, meta, raw, a.trace == 1)
    print(json.dumps({"detail": info}))
    print(json.dumps({
        "correct": failed == 0 and not raw["failures"],
        "attempted": max(1, len(ops)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }))


def write_spans(workload, seed, raw):
    """The traced run's spans as a Chrome trace-event file, for inspection
    in chrome://tracing or Perfetto."""
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
               "ts": s["start_s"] * 1e6, "dur": s["ms"] * 1e3,
               "args": dict(s["counts"], op=s["op"], alloc_mw=s["alloc_mw"])}
              for s in raw["spans"]]
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    path = os.path.join(OUT, "spans", "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


if __name__ == "__main__":
    main()

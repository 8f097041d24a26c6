#!/usr/bin/env python3
"""The repository benchmark: seeded Loadgen workloads, measured end to end
and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload first_wave --seed 4269 --seconds 36 --trace 0
    python3 perfbench/run.py --selfcheck      # toy-size run of every workload
    python3 perfbench/run.py --record         # rewrite perfbench/expected.json

It builds perfbench/bench.exe with dune, then starts one bench process per
repetition (so no process-wide state leaks between repetitions) until
--seconds have passed, each followed by a set-up-only process that
builds the world repeatedly and reports the median build. Repetitions are
pinned to the available CPUs in turn. peak_heap_mb is the median over the
repetitions; requests_per_s and setup_s are the best repetition's,
because on a shared host interference from other tenants only ever slows
a repetition down (on a 2-vCPU container the spread across runs of the
median was about twice that of the best).

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs untraced repetitions for half the time, then one traced repetition
(packet tap, Runtime_events, an engine tick sampling the queue depth, and
the unit-cost probes) and reports the per-layer metrics, including the
tracing overhead against the untraced median. Spans of the traced run go
to .perfbench/spans-<workload>-<seed>.jsonl.

Every repetition's Loadgen report is checked: its digest must match the
value recorded in perfbench/expected.json for that workload and seed (when
one is recorded), be identical across repetitions and in the traced run,
and every attempted request must complete. The last line of standard
output is one JSON object; on a failed check it says "correct": false and
the exit code is 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BENCH_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
EXPECTED = os.path.join(HERE, "expected.json")
LEDGER = os.path.join(HERE, "ledger.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
COMMITTED_SEED = 4269
WORKLOADS = ("first_wave", "login_storm", "hardened_tcp")
MIN_REPS = 3
REP_TIMEOUT_S = 120


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "lib", "workloads", "loadgen.ml"))):
        die("run from the root of a source checkout (no dune-project or lib/ here)")
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 3)
    if r.returncode != 0:
        die("build failed", 3)


def bench(args, env=None, cpu=None):
    """One bench process, pinned to [cpu] if given; its last stdout line is
    a JSON object."""
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
    r = subprocess.run([BENCH_EXE] + args, cwd=ROOT, capture_output=True, text=True,
                       timeout=REP_TIMEOUT_S, env=env, preexec_fn=pin)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die(f"bench {' '.join(args)} exited {r.returncode}", 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def rep_args(workload, seed, toy):
    return ["run", "--workload", workload, "--seed", str(seed)] + (["--toy"] if toy else [])


def repetitions(workload, seed, toy, seconds):
    """At least MIN_REPS repetitions; more while the next one is expected
    to end within [seconds]."""
    cpus = sorted(os.sched_getaffinity(0))
    reps, t0 = [], time.monotonic()
    while True:
        cpu = cpus[len(reps) % len(cpus)]
        rep = bench(rep_args(workload, seed, toy), cpu=cpu)
        rep["setup_s"] = bench(["setup"] + rep_args(workload, seed, toy)[1:], cpu=cpu)["setup_s"]
        reps.append(rep)
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def traced(workload, seed, toy, horizon):
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}{'-toy' if toy else ''}.jsonl")
    return bench(rep_args(workload, seed, toy)
                 + ["--trace", "--horizon", repr(horizon), "--spans", spans], env=env)


def check(workload, seed, toy, results):
    """Problems with the runs' outputs; [] when every check passes."""
    problems = []
    size = "toy" if toy else "full"
    want = load_json(EXPECTED).get(size, {}).get(workload, {}).get(str(seed))
    for r in results:
        if r["completed"] != r["attempted"] or r["errors"] != 0:
            problems.append(f"{r['completed']} of {r['attempted']} completed, "
                            f"{r['errors']} errors")
        if r["digest"] != results[0]["digest"]:
            problems.append("report differs between repetitions of one seed")
        if want is not None:
            for key in ("digest", "completed", "errors"):
                if r[key] != want[key]:
                    problems.append(f"{key} {r[key]} differs from recorded {want[key]}")
    return sorted(set(problems))


def metric_specs(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload, seed, seconds, trace, toy=False):
    """(result object, problems) for one benchmark run."""
    if not trace:
        reps = repetitions(workload, seed, toy, seconds)
        runs = reps
        values = {"requests_per_s": max(r["requests_per_s"] for r in reps),
                  "setup_s": min(r["setup_s"] for r in reps),
                  "peak_heap_mb": statistics.median(r["peak_heap_mb"] for r in reps)}
    else:
        reps = repetitions(workload, seed, toy, seconds / 2)
        t = traced(workload, seed, toy, reps[0]["sim_seconds"])
        runs = reps + [t]
        values = dict(t)
        untraced = statistics.median(r["requests_per_s"] for r in reps)
        values["ledger.tracing_overhead"] = 1.0 - t["requests_per_s"] / untraced
    problems = check(workload, seed, toy, runs)
    metrics = {}
    for m in metric_specs(trace):
        if m["name"] not in values:
            problems.append(f"metric {m['name']} missing")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    completed = sum(r["completed"] for r in runs)
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)}"
          f"{'  + 1 traced' if trace else ''}  digest {runs[0]['digest']}")
    print(f"failed_frac {(attempted - completed) / attempted:.6g} (fraction)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return ({"correct": not problems, "attempted": attempted,
             "failed": attempted - completed, "metrics": metrics}, problems)


def selfcheck():
    """Toy-size run of every workload, untraced and traced, on the committed
    seed and one more; fails on a missing metric or a failed output check.
    Also checks the ledger against BENCHMARK.json and the bench's configs."""
    failures = []
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ledger = load_json(LEDGER)
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if set(ledger["metrics"]) != names:
        failures.append(f"ledger metrics differ from BENCHMARK.json: "
                        f"{sorted(set(ledger['metrics']) ^ names)}")
    described = bench(["describe"])["workloads"]
    for w in spec["workloads"]:
        entry = ledger["workloads"].get(w["name"])
        if entry is None or entry["config"] != described.get(w["name"], {}).get("full"):
            failures.append(f"ledger config of {w['name']} differs from bench.exe describe")
    for workload in WORKLOADS:
        for seed in (COMMITTED_SEED, 1):
            for trace in (False, True):
                _, problems = measure(workload, seed, 0, trace, toy=True)
                failures += [f"{workload} seed {seed} trace {int(trace)}: {p}" for p in problems]
    for f in failures:
        print(f"SELFCHECK FAILED: {f}")
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


def record(seeds):
    """Rewrite expected.json from fresh untraced runs (one repetition each)."""
    out = {}
    for size, toy in (("full", False), ("toy", True)):
        out[size] = {}
        for workload in WORKLOADS:
            out[size][workload] = {}
            for seed in seeds:
                r = bench(rep_args(workload, seed, toy))
                if r["completed"] != r["attempted"] or r["errors"]:
                    die(f"{workload} seed {seed} ({size}) has failures; not recording", 1)
                out[size][workload][str(seed)] = {k: r[k] for k in ("digest", "completed", "errors")}
                print(size, workload, seed, r["digest"], file=sys.stderr)
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=COMMITTED_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    build()
    if a.selfcheck:
        sys.exit(selfcheck())
    if a.record:
        record([COMMITTED_SEED] + list(range(33)))
        return
    if a.workload is None:
        die("--workload is required")
    result, problems = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(result))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

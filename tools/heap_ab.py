#!/usr/bin/env python3
"""Peak-heap A/B between two built source trees.

    python3 tools/heap_ab.py PARENT CHANGE [--workloads W ...] [--seeds 4269 7]

PARENT and CHANGE are checkouts in which `dune build ./perfbench/bench.exe`
has been run. For every workload and seed, each tree's
_build/default/perfbench/bench.exe runs once, untraced: peak heap repeats
to within one 0.03 MiB growth step, so one run a side settles it (a
wall-clock metric does not; use alternating perfbench/run.py pairs for
those). The table gives whether the report digests match and
peak_heap_mb parent -> change with their ratio.

Exit status 1 if a digest differs or any run leaves a request that did
not complete; 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("first_wave", "login_storm", "hardened_tcp")
REL_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def run(tree, workload, seed):
    exe = os.path.join(tree, REL_EXE)
    if not os.access(exe, os.X_OK):
        sys.exit(f"heap_ab: {exe} is missing; run `dune build ./perfbench/bench.exe` there")
    out = subprocess.run([exe, "run", "--workload", workload, "--seed", str(seed)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[4269, 7])
    a = ap.parse_args()
    bad = False
    print(f"{'workload':<13} {'seed':>5}  {'digest':<8} {'peak_heap_mb parent -> change':>30}  ratio")
    for w in a.workloads:
        for s in a.seeds:
            p, c = run(a.parent, w, s), run(a.change, w, s)
            same = p["digest"] == c["digest"]
            failed = [r for r in (p, c) if r["completed"] != r["attempted"] or r["errors"]]
            bad |= (not same) or bool(failed)
            verdict = "same" if same else "DIFFERS"
            if failed:
                verdict += ", FAILED REQUESTS"
            print(f"{w:<13} {s:>5}  {verdict:<8} {p['peak_heap_mb']:>14.2f} -> {c['peak_heap_mb']:<13.2f}"
                  f"  {c['peak_heap_mb'] / p['peak_heap_mb']:.3f}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

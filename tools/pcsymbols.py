#!/usr/bin/env python3
"""Resolve pcsample's leaf PCs to symbols and print totals.

    python3 tools/pcsymbols.py samples.txt [--top 30] [--modules 15]
    python3 tools/pcsymbols.py before.txt after.txt --match Md4 Bignum fix_parity is_weak

Reads the "# exe <path> base <hex>" header pcsample writes, lists the
executable's text symbols with `nm -n`, and assigns every sample to the
symbol at or below its PC. OCaml symbols such as
camlCrypto__Md4.compress_436 are reported as Crypto__Md4.compress and
grouped under the module Crypto__Md4; the executable's C code (the OCaml
runtime: allocation, the collector, compare and hash) under [runtime];
and PCs outside the executable (libc, the vDSO) under [outside].

With --match, prints for each file only the share of samples whose symbol
contains one of the given strings, one column per file: the before/after
view of a change to those functions.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

OCAML = re.compile(r"^caml([A-Z][A-Za-z0-9_]*)\.(.*?)(_\d+)?$")


def load(path):
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != ["#", "exe"] or header[3] != "base":
            sys.exit(f"{path}: no pcsample header")
        exe, base = header[2], int(header[4], 16)
        pcs = [int(line, 16) for line in f if line.strip()]
    return exe, base, pcs


def symbols(exe):
    out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True,
                         text=True, check=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def is_pie(exe):
    with open(exe, "rb") as f:
        return f.read(18)[16] == 3  # e_type ET_DYN


def label(name):
    m = OCAML.match(name)
    if m:
        return m.group(1), f"{m.group(1)}.{m.group(2)}"
    return "[runtime]", name


def resolve(path):
    """(symbol counter, module counter, sample count) for one sample file."""
    exe, base, pcs = load(path)
    addrs, names = symbols(exe)
    offset = base if is_pie(exe) else 0
    end = addrs[-1] + 4096 if addrs else 0
    syms, mods = collections.Counter(), collections.Counter()
    for pc in pcs:
        a = pc - offset
        i = bisect.bisect_right(addrs, a) - 1
        if i < 0 or a > end:
            mod, sym = "[outside]", "[outside]"
        else:
            mod, sym = label(names[i])
        syms[sym] += 1
        mods[mod] += 1
    return syms, mods, len(pcs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--modules", type=int, default=15)
    ap.add_argument("--match", nargs="+")
    args = ap.parse_args()
    resolved = [resolve(p) for p in args.files]
    if args.match:
        print("symbols containing " + ", ".join(args.match))
        print("  ".join(f"{p}: {n} samples" for p, (_, _, n) in zip(args.files, resolved)))
        names = sorted({s for syms, _, _ in resolved for s in syms
                        if any(m in s for m in args.match)})
        for s in names + ["total"]:
            cells = []
            for syms, _, n in resolved:
                k = (sum(v for t, v in syms.items() if any(m in t for m in args.match))
                     if s == "total" else syms.get(s, 0))
                cells.append(f"{100 * k / max(n, 1):6.2f}%")
            print("  ".join(cells) + f"  {s}")
        return
    for path, (syms, mods, n) in zip(args.files, resolved):
        print(f"{path}: {n} samples")
        print("  by symbol")
        for s, k in syms.most_common(args.top):
            print(f"  {100 * k / n:6.2f}%  {k:6d}  {s}")
        print("  by module")
        for m, k in mods.most_common(args.modules):
            print(f"  {100 * k / n:6.2f}%  {k:6d}  {m}")


if __name__ == "__main__":
    main()

"""Digest and work counts of deep `delta_estimate` brackets.

    python3 tools/depth_log.py [--cutoff N] [--src DIR]

Runs one `delta_estimate` per slope class nu = eps E + phi F with eps, phi
in [0, 1) of denominator <= 5 (100 classes) on F_0 and on F_1 (200
brackets), at the anticanonical polarization m = 1 - e/2 and rank cutoff
40 by default.  The exceptional tables are built once per surface and the
filtration memo is cleared before each bracket, so every bracket does its
own search work.  It prints

  * the sha256 of every (e, nu, lower, upper, witness, wall), in order;
  * the closure counts (lower == upper, lower < upper, lower > upper and
    no upper up to the cutoff) and each class with lower > upper;
  * the `existence._search`, `existence._prior`, `existence._a1_window` and
    prioritary-index calls of the 200 brackets.

A change to the search that is meant to prune or restructure only must
print the same digest and closure lines as its parent; run the script with
`--src` pointing at the parent's `src/` (for example an unpacked
`git archive`) to get the parent's lines.  The work counts are there to be
compared, not pinned: a pruning change is expected to move them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from fractions import Fraction as Q

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNIT = sorted({Q(p, q) for q in range(1, 6) for p in range(q)})     # [0, 1), denominators <= 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cutoff", type=int, default=40, help="the rank cutoff of every bracket")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory to import")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hirzebruch import DivisorClass, build_table, delta_estimate, existence

    counts = dict.fromkeys(("_search", "_prior", "_a1_window", "prioritary_index_of_key"), 0)
    originals = {name: getattr(existence, name) for name in counts}

    def counted(name):
        f = originals[name]

        def g(*args):
            counts[name] += 1
            return f(*args)
        return g

    digest = hashlib.sha256()
    closure = {"lower == upper": 0, "lower < upper": 0, "lower > upper": 0, "no upper": 0}
    split = []
    tables = {e: build_table(e, args.cutoff - 1) for e in (0, 1)}
    for name in counts:
        setattr(existence, name, counted(name))
    try:
        for e in (0, 1):
            m = 1 - Q(e, 2)
            for eps in UNIT:
                for phi in UNIT:
                    existence.clear_cache()
                    br = delta_estimate(DivisorClass(eps, phi), m, e, args.cutoff, tables[e])
                    w = br.witness
                    digest.update(repr((e, str(eps), str(phi), str(br.lower), str(br.upper),
                                        None if w is None else (w.r, str(w.c1.a), str(w.c1.b), str(w.ch2)),
                                        br.wall)).encode())
                    if br.upper is None:
                        closure["no upper"] += 1
                    elif br.lower > br.upper:
                        closure["lower > upper"] += 1
                        split.append("e=%d nu=(%s, %s) [%s, %s]" % (e, eps, phi, br.lower, br.upper))
                    else:
                        closure["lower == upper" if br.lower == br.upper else "lower < upper"] += 1
    finally:
        for name, f in originals.items():
            setattr(existence, name, f)
    print("src %s" % os.path.dirname(os.path.dirname(existence.__file__)))
    print("cutoff %d: %s" % (args.cutoff, ", ".join("%d %s" % (n, k) for k, n in closure.items())))
    for line in split:
        print("lower > upper: %s" % line)
    print("calls: %s" % ", ".join("%d %s" % (n, k) for k, n in counts.items()))
    print("brackets %s" % digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Equivalence digest of the DLP twist scan.

    python3 tools/dlp_log.py --seed N [--src DIR]

Runs a seeded set of `dlp_below_rank` queries and prints the sha256 of
every answer, (value, witness, equal_slope), in order, each with its
query.  A change to the scan that is meant to prune or restructure only
must print the same digest as its parent at every seed; run the script
with `--src` pointing at the parent's `src/` (for example an unpacked
`git archive`) to get the parent's digest.

The query set, per seed: on F_0 and F_1, with the exceptional tables of
rank <= 39 built once, every m = p/q with 1 <= p <= 24 and 1 <= q <= 8
(the grid of the bench's tables_dlp workload, 192 pairs) at every rank
cutoff from 2 to 40, each at a seeded slope (a/da, b/db) with
|a|, |b| <= 12 and 1 <= da, db <= 12: 14,976 queries.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
from fractions import Fraction as Q

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MS = tuple(Q(p, q) for p in range(1, 25) for q in range(1, 9))
CUTOFFS = range(2, 41)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory to import")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hirzebruch import DivisorClass, build_table, dlp

    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    counts = {"queries": 0, "equal_slope": 0}
    for e in (0, 1):
        table = build_table(e, max(CUTOFFS) - 1)
        for m in MS:
            for cutoff in CUTOFFS:
                nu = DivisorClass(Q(rng.randint(-12, 12), rng.randint(1, 12)),
                                  Q(rng.randint(-12, 12), rng.randint(1, 12)))
                val = dlp.dlp_below_rank(nu, m, e, cutoff, table)
                counts["queries"] += 1
                counts["equal_slope"] += val.equal_slope
                digest.update(repr((e, m, cutoff, nu.a, nu.b, val.value, val.witness,
                                    val.equal_slope)).encode())
    print("src %s" % os.path.dirname(os.path.dirname(dlp.__file__)))
    print("seed %d: %d queries, %d on the equal-slope branch"
          % (args.seed, counts["queries"], counts["equal_slope"]))
    print("dlp %s" % digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

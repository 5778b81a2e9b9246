"""Equivalence digest of the first-factor search.

    python3 tools/search_log.py --seed N [--src DIR]

Runs a seeded input set through the decision engine and prints the sha256
of every `existence._prior` and `existence._hn_key` call, in order, each
with the size of the `_HN` memo at the call, and the sha256 of the
results.  A change to the search that is meant to prune or restructure
only must print the same digests as its parent at every seed; run the
script with `--src` pointing at the parent's `src/` (for example an
unpacked `git archive`) to get the parent's digests.  A change that only
adds calls, such as a probe that tries likely first factors before the
search's loop, keeps the `results` digest and moves the `calls` digest.

Every filtration of length >= 2 it hashes is re-checked from scratch by
`validate_hn(dec, v, check_moduli=False)`: the sum, integrality,
Bogomolov, conditions (2) and (3), and chi(w_i, w_j) = 0, which is
condition (4) and which the search itself does not test.  The check calls
neither `_prior` nor `_hn_key`, so the digests do not see it; a failure
ends the run with an `AssertionError`.

The input set, per seed:
  * `hn_generic` on seeded integral characters (rank <= 8, |a|, |b| <= 7,
    0 <= Delta <= 3) at e in {0, 1, 2} and m in {1/3, 1/2, 1, 3/2, 12/7, 3},
    memo cleared per (e, m) slice;
  * `delta_estimate` brackets on seeded slope classes (denominators <= 5)
    on F_0 and F_1 at seeded m, at rank cutoffs 20 and 30, memo cleared
    per bracket, with the exceptional tables built once.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
from fractions import Fraction as Q

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MS = (Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(12, 7), Q(3))
PER_SLICE = 200
BRACKETS = ((20, 8), (30, 6))          # (rank cutoff, brackets per surface)


def characters(rng, e, n):
    # integral characters with 0 <= Delta <= 3 and rank 2..8: 2 c2 = c1^2 - s
    out = []
    while len(out) < n:
        r, a, b = rng.randint(2, 8), rng.randint(-7, 7), rng.randint(-7, 7)
        c1sq = 2 * a * b - e * a * a
        c2 = -((-c1sq * (r - 1)) // (2 * r)) + rng.randint(0, 3 * r)
        if 2 * r * c2 - c1sq * (r - 1) <= 6 * r * r:    # Delta <= 3
            out.append((r, a, b, c1sq - 2 * c2))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory to import")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hirzebruch import DivisorClass, build_table, delta_estimate, existence, hn_generic, validate_hn
    from hirzebruch.lattice import from_key

    rng = random.Random(args.seed)
    calls, results = hashlib.sha256(), hashlib.sha256()
    counts = {"prior": 0, "hn": 0, "validated": 0}
    prior, hn_key = existence._prior, existence._hn_key

    def logged_prior(key, n, e):
        counts["prior"] += 1
        calls.update(repr(("prior", key, n, e, len(existence._HN))).encode())
        return prior(key, n, e)

    def logged_hn_key(key, mp, mq, e, *hint):
        counts["hn"] += 1
        calls.update(repr(("hn", key, mp, mq, e, len(existence._HN))).encode())
        return hn_key(key, mp, mq, e, *hint)

    tables = {e: build_table(e, max(c for c, _ in BRACKETS) - 1) for e in (0, 1)}
    existence._prior, existence._hn_key = logged_prior, logged_hn_key
    try:
        for e in (0, 1, 2):
            for m in MS:
                existence.clear_cache()
                for key in characters(rng, e, PER_SLICE):
                    v = from_key(key)
                    dec = hn_generic(v, m, e)
                    if dec is not None and len(dec) > 1:
                        validate_hn(dec, v, check_moduli=False)
                        counts["validated"] += 1
                    results.update(repr(dec).encode())
        for cutoff, n in BRACKETS:
            for e in (0, 1):
                for _ in range(n):
                    nu = DivisorClass(Q(rng.randint(-5, 5), rng.randint(1, 5)),
                                      Q(rng.randint(-5, 5), rng.randint(1, 5)))
                    m = rng.choice(MS + (1 - Q(e, 2),))
                    existence.clear_cache()
                    results.update(repr(delta_estimate(nu, m, e, cutoff, tables[e])).encode())
    finally:
        existence._prior, existence._hn_key = prior, hn_key
    print("src %s" % os.path.dirname(os.path.dirname(existence.__file__)))
    print("seed %d: %d _prior and %d _hn_key calls, %d filtrations validated"
          % (args.seed, counts["prior"], counts["hn"], counts["validated"]))
    print("calls   %s" % calls.hexdigest())
    print("results %s" % results.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search shortcuts: the decomposition
oracle enumerates *all* candidate tuples over the closed slope quadrilateral
without the Delta-pinning identity, and the DLP oracle enumerates a
generously enlarged twist box.  Shared integer conventions: a character is
(r, a, b, s) with s = 2 ch2, so everything below is plain integer
arithmetic except for a few explicit Fractions.
"""

from fractions import Fraction
from math import ceil, floor

from hirzebruch import ChernCharacter, DivisorClass, verdict
from hirzebruch.lattice import hilbert_P


def key_of(v: ChernCharacter):
    return (v.r, v.c1.a.numerator, v.c1.b.numerator, (2 * v.ch2).numerator)


def char_of(key):
    r, a, b, s = key
    return ChernCharacter(r, DivisorClass(a, b), Fraction(s, 2))


def chi2(v, w, e):
    rv, av, bv, sv = v
    rw, aw, bw, sw = w
    ga = rv * aw - rw * av
    gb = rv * bw - rw * bv
    kdot = (e - 2) * ga - 2 * gb
    pair = av * bw + aw * bv - e * av * aw
    return 2 * rv * rw - kdot + (rv * sw + rw * sv) - 2 * pair


def delta2(key, e):
    r, a, b, s = key
    return Fraction(2 * a * b - e * a * a - r * s, r * r)


def delta2_num(key, e):
    # same sign as Delta
    r, a, b, s = key
    return 2 * a * b - e * a * a - r * s


def chival(key, e):
    # 2 r^2 (P(nu) - Delta)
    r, a, b, s = key
    return (a + r) * (2 * b + 2 * r - e * a) - (2 * a * b - e * a * a - r * s)


def key_gt(w, x, mp, mq, e):
    """reduced Hilbert key of w strictly above that of x (integer compare)."""
    lhs = (w[1] * mp + w[2] * mq) * x[0]
    rhs = (x[1] * mp + x[2] * mq) * w[0]
    if lhs != rhs:
        return lhs > rhs
    return chival(w, e) * x[0] * x[0] > chival(x, e) * w[0] * w[0]


def mu_gap_le_one(w, x, mp, mq):
    """mu_{H_m}(w) - mu_{H_m}(x) <= 1, integer compare."""
    return (w[1] * mp + w[2] * mq) * x[0] - (x[1] * mp + x[2] * mq) * w[0] <= w[0] * x[0] * mq


def hilb_key(key, m, e):
    """(mu, chi/r) as exact fractions (used by a few spot tests)."""
    r, a, b, s = key
    mu = Fraction(a * m.numerator + b * m.denominator, r * m.denominator)
    chir = Fraction(chival(key, e), 2 * r * r)
    return (mu, chir)


def quad_b_bound(m, e):
    cf = max(Fraction(1), Fraction(2, 1) / (2 * m + e))
    s = m + Fraction(e, 2)
    xs = [Fraction(-1), cf]
    vertex = (1 / s - 1) / 2
    if -1 < vertex < cf:
        xs.append(vertex)
    return max((x + 1) * (1 - x * s) for x in xs)


class DecompositionOracle:
    """Exhaustive enumeration of tuples satisfying the five filtration
    conditions, lengths up to 4, per (e, m)."""

    def __init__(self, e, m):
        self.e = e
        self.m = Fraction(m)
        self.mp = self.m.numerator
        self.mq = self.m.denominator
        self.memo = {}
        self.vmemo = {}
        self.bcap = quad_b_bound(self.m, e)

    def verdict_nonempty(self, key):
        got = self.vmemo.get(key)
        if got is None:
            got = verdict(char_of(key), self.m, self.e) == "NONEMPTY"
            self.vmemo[key] = got
        return got

    def _first_factors(self, vkey):
        """All (r1, a1, b1, s1) with slope in the closed quadrilateral around
        nu(v) and Delta_1 in [0, B] on the integral lattice."""
        e, m = self.e, self.m
        mp, mq = self.mp, self.mq
        r, a, b, s = vkey
        cf = max(Fraction(1), Fraction(2, 1) / (2 * m + e))
        out = []
        for r1 in range(1, r):
            alo = Fraction(r1 * a, r) - r1 * cf
            ahi = Fraction(r1 * a, r) + r1 * cf
            # |mu(w1) - mu(v)| <= 1: b1 in [num/den - r1, num/den + r1], den = r mq
            num = r1 * (a * mp + b * mq)
            den = r * mq
            for a1 in range(ceil(alo), floor(ahi) + 1):
                num1 = num - a1 * mp * r
                blo = -((-(num1 - r1 * den)) // den)  # ceil((num1 - r1*den)/den)
                bhi = (num1 + r1 * den) // den
                for b1 in range(blo, bhi + 1):
                    c1sq = 2 * a1 * b1 - e * a1 * a1
                    # s1 = c1sq - 2 t (so c2 = t in Z) and
                    # Delta_1 = (c1sq (1 - r1)/r1 + 2 t) / (2 r1) in [0, B]
                    base = Fraction(c1sq * (1 - r1), r1)
                    tlo = ceil(-base / 2)
                    thi = floor((2 * r1 * self.bcap - base) / 2)
                    for t in range(tlo, thi + 1):
                        out.append((r1, a1, b1, c1sq - 2 * t))
        return out

    def decompositions(self, vkey, maxlen=4):
        """All valid tuples of length in [1, maxlen] summing to vkey."""
        k = (vkey, maxlen)
        got = self.memo.get(k)
        if got is not None:
            return got
        e = self.e
        mp, mq = self.mp, self.mq
        out = []
        if delta2_num(vkey, e) >= 0 and self.verdict_nonempty(vkey):
            out.append((vkey,))
        if maxlen >= 2:
            for w1 in self._first_factors(vkey):
                if delta2_num(w1, e) < 0:
                    continue
                u = (vkey[0] - w1[0], vkey[1] - w1[1], vkey[2] - w1[2], vkey[3] - w1[3])
                if u[0] < 1 or delta2_num(u, e) < 0:
                    continue
                if not self.verdict_nonempty(w1):
                    continue
                for tail in self.decompositions(u, maxlen - 1):
                    if not key_gt(w1, tail[0], mp, mq, e):
                        continue
                    if not mu_gap_le_one(w1, tail[-1], mp, mq):
                        continue
                    if any(chi2(w1, f, e) != 0 for f in tail):
                        continue
                    out.append((w1,) + tail)
        self.memo[k] = out
        return out

    def nontrivial(self, vkey):
        """All valid tuples of length >= 2 (the uniqueness theorem says <= 1)."""
        return [d for d in self.decompositions(vkey, 4) if len(d) >= 2]


def fraction_slope_classes(table, e, below_rank):
    """O and every twist/dual (and, on F_0, fiber-swap) variant of the table
    rows of rank 2 .. below_rank - 1 as (rank, slope.a, slope.b, Delta,
    (lo, hi)) in Fractions, without deduplication; written out here rather
    than taken from the library's orbit enumeration."""
    classes = [(1, Fraction(0), Fraction(0), Fraction(0), (Fraction(0), None))]
    for rec in table.records:
        if rec.r == 1 or rec.r >= below_rank:
            continue
        d = rec.delta()
        variants = [((rec.a, rec.b), (rec.lo, rec.hi)), ((-rec.a, -rec.b), (rec.lo, rec.hi))]
        if e == 0:
            lo = Fraction(0) if rec.hi is None else 1 / rec.hi
            hi = None if rec.lo == 0 else 1 / rec.lo
            variants += [((rec.b, rec.a), (lo, hi)), ((-rec.b, -rec.a), (lo, hi))]
        for (a, b), iv in variants:
            classes.append((rec.r, Fraction(a, rec.r), Fraction(b, rec.r), d, iv))
    return classes


def dlp_brute_force(nu, m, e, below_rank, table, box=6):
    """Max of the branch values over an enlarged twist box, stability-filtered.

    Enumerates every twist with both offset coordinates in [-box, box] plus
    the polarization strip; independent of the library's window derivation.
    """
    m = Fraction(m)
    s = m + Fraction(e, 2) + 1
    classes = fraction_slope_classes(table, e, below_rank)
    best = None
    if below_rank <= 1:
        return None
    for rank, na, nb, dlt, (lo, hi) in classes:
        if not (m > lo and (hi is None or m < hi)):
            continue
        x0 = nu.a - na
        y0 = nu.b - nb
        for i in range(ceil(-box - x0), floor(box - x0) + 1):
            x = x0 + i
            for j in range(ceil(-box - s - y0), floor(box + s - y0) + 1):
                y = y0 + j
                t = x * m + y
                if abs(t) > s:
                    continue
                if t < 0:
                    val = hilbert_P(DivisorClass(x, y), e) - dlt
                elif t > 0:
                    val = hilbert_P(DivisorClass(-x, -y), e) - dlt
                else:
                    val = max(
                        hilbert_P(DivisorClass(x, y), e),
                        hilbert_P(DivisorClass(-x, -y), e),
                    ) - dlt
                if best is None or val > best:
                    best = val
    return best


def quotient_side_interval(rec, table):
    """Stability interval recomputed with the quotient condition chi(V, W) > 0.

    The quotient-side wall set is confined to y in (-1, 1) and x in (-X, 1)
    (x >= 1 kills P(-x,-y); for e = 1 also x <= -2 does), with X determined
    by the smallest wall parameter we must resolve.
    """
    e = table.e
    anch = 1 - Fraction(e, 2)
    r, va, vb = rec.r, rec.a, rec.b
    eps, phi = Fraction(va, r), Fraction(vb, r)
    dv = rec.delta()
    if e == 0:
        assert rec.lo > 0
        xbound = 1 / rec.lo + 1
    else:
        xbound = 2
    walls = set()
    for rw, na, nb, dw, (lo_w, hi_w) in fraction_slope_classes(table, e, r):
        x0 = eps - na
        y0 = phi - nb
        for i in range(ceil(-xbound - x0), floor(1 - x0) + 1):
            x = x0 + i
            if x == 0 or x >= 1 or x <= -xbound:
                continue
            for j in range(ceil(-1 - y0), floor(1 - y0) + 1):
                y = y0 + j
                if y == 0 or (x > 0) == (y > 0):
                    continue
                m = -y / x
                if m <= 0:
                    continue
                # chi(V, W) > 0 <=> P(nu_W - nu_V) > Delta_V + Delta_W
                if hilbert_P(DivisorClass(-x, -y), e) <= dv + dw:
                    continue
                if not (m > lo_w and (hi_w is None or m < hi_w)):
                    continue
                walls.add(m)
    above = [m for m in walls if m > anch]
    below = [m for m in walls if m < anch]
    hi = min(above)
    lo = max(below) if below else Fraction(0)
    return lo, hi

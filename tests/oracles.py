"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search shortcuts: the decomposition
oracle enumerates *all* candidate tuples over the closed slope quadrilateral
without the Delta-pinning identity, and the DLP oracle enumerates a
generously enlarged twist box.  The decomposition oracle memoizes the
full list of tuples of length 1 to 4 once per character; no filter reads
the length, so a shorter bound would only cut that list.  Shared integer
conventions: a character is (r, a, b, s) with s = 2 ch2, so everything
below is plain integer arithmetic except for a few explicit Fractions.
"""

from fractions import Fraction
from math import ceil, floor

from hirzebruch import ChernCharacter, DivisorClass, E, euler_char, serre_dual, twist, verdict
from hirzebruch.lattice import canonical_divisor, hilbert_P


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
    conditions, lengths up to 4, per (e, m).

    `memo` maps a character to all its valid tuples, in enumeration order.
    A tuple is a first factor w1 followed by a tail from the memo entry of
    the rest; a tail of length 4 is skipped, as w1 and it would make 5
    factors, and that is the only length rule."""

    def __init__(self, e, m):
        self.e = e
        self.m = Fraction(m)
        self.mp = self.m.numerator
        self.mq = self.m.denominator
        self.memo = {}
        self.vmemo = {}
        cf = max(Fraction(1), Fraction(2, 1) / (2 * self.m + e))
        self.cp, self.cq = cf.numerator, cf.denominator
        bcap = quad_b_bound(self.m, e)
        self.bp, self.bq = bcap.numerator, bcap.denominator

    def verdict_nonempty(self, key):
        got = self.vmemo.get(key)
        if got is None:
            got = verdict(char_of(key), self.m, self.e) == "NONEMPTY"
            self.vmemo[key] = got
        return got

    def _first_factors(self, vkey):
        """All (r1, a1, b1, s1) with slope in the closed quadrilateral around
        nu(v), Delta_1 in [0, B] and Delta(v - w1) >= 0 on the integral
        lattice."""
        e, mp, mq = self.e, self.mp, self.mq
        cp, cq, bp, bq = self.cp, self.cq, self.bp, self.bq
        r, a, b, s = vkey
        rq = r * cq
        out = []
        for r1 in range(1, r):
            ru = r - r1
            # |a1/r1 - a/r| <= cp/cq: a1 in [r1 (a cq - cp r), r1 (a cq + cp r)] / (r cq)
            alo = -((-r1 * (a * cq - cp * r)) // rq)
            ahi = r1 * (a * cq + cp * r) // rq
            # |mu(w1) - mu(v)| <= 1: b1 in [num/den - r1, num/den + r1], den = r mq
            num = r1 * (a * mp + b * mq)
            den = r * mq
            for a1 in range(alo, ahi + 1):
                num1 = num - a1 * mp * r
                blo = -((-(num1 - r1 * den)) // den)  # ceil((num1 - r1*den)/den)
                bhi = (num1 + r1 * den) // den
                for b1 in range(blo, bhi + 1):
                    c1sq = 2 * a1 * b1 - e * a1 * a1
                    # s1 = c1sq - 2 t (so c2 = t in Z) and, with k = c1sq (1 - r1),
                    # Delta_1 = (k/r1 + 2 t) / (2 r1) in [0, Bp/Bq]
                    k = c1sq * (1 - r1)
                    tlo = -(k // (2 * r1))
                    thi = (2 * r1 * r1 * bp - k * bq) // (2 * r1 * bq)
                    # and u = v - w1 has 2 ru^2 Delta(u) = n - 2 ru t >= 0,
                    # a filter `decompositions` applies anyway
                    au, bu = a - a1, b - b1
                    tu = (2 * au * bu - e * au * au - ru * (s - c1sq)) // (2 * ru)
                    for t in range(tlo, min(thi, tu) + 1):
                        out.append((r1, a1, b1, c1sq - 2 * t))
        return out

    def decompositions(self, vkey):
        """All valid tuples of length 1 to 4 summing to vkey, memoized on vkey."""
        got = self.memo.get(vkey)
        if got is not None:
            return got
        e = self.e
        mp, mq = self.mp, self.mq
        memo, vmemo = self.memo, self.vmemo
        out = []
        if delta2_num(vkey, e) >= 0 and self.verdict_nonempty(vkey):
            out.append((vkey,))
        r, a, b, s = vkey
        # the filters below inline delta2_num and the verdict memo lookup
        for w1 in self._first_factors(vkey):
            r1, a1, b1, s1 = w1
            if 2 * a1 * b1 - e * a1 * a1 - r1 * s1 < 0:
                continue
            ru, au, bu, su = r - r1, a - a1, b - b1, s - s1
            if ru < 1 or 2 * au * bu - e * au * au - ru * su < 0:
                continue
            ok = vmemo.get(w1)
            if ok is None:
                ok = self.verdict_nonempty(w1)
            if not ok:
                continue
            u = (ru, au, bu, su)
            tails = memo.get(u)
            if tails is None:
                tails = self.decompositions(u)
            for tail in tails:
                if len(tail) == 4:      # w1 and this tail would make 5 factors
                    continue
                if not key_gt(w1, tail[0], mp, mq, e):
                    continue
                if not mu_gap_le_one(w1, tail[-1], mp, mq):
                    continue
                if any(chi2(w1, f, e) != 0 for f in tail):
                    continue
                out.append((w1,) + tail)
        memo[vkey] = out
        return out

    def nontrivial(self, vkey):
        """All valid tuples of length >= 2 (the uniqueness theorem says <= 1)."""
        return [d for d in self.decompositions(vkey) if len(d) >= 2]


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
    return max((val for _, val in dlp_branch_values(nu, m, e, below_rank, table, box)), default=None)


def dlp_branch_values(nu, m, e, below_rank, table, box=6):
    """(rank, value) of every branch value `dlp_brute_force` maximizes."""
    if below_rank <= 1:
        return
    m = Fraction(m)
    s = m + Fraction(e, 2) + 1
    for rank, na, nb, dlt, (lo, hi) in fraction_slope_classes(table, e, below_rank):
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
                yield rank, val


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


def delta_p_by_triangle(nu, n, e):
    """delta_n^p(nu) from the triangle construction: move (eps, phi) by
    twists and a dual into the closed triangle with vertices (-1, n-1),
    (0, 0), (0, -1), then read the Delta of O(-E+(n-1)F)^A + O^B + O(-F)^C
    off the barycentric weights l1 = -eps, l3 = -((n-1) eps + phi),
    l2 = 1 - l1 - l3 as max(l1 (l2 (e+2n-2) + l3 (e+2n))/2, 0)."""
    eps, phi = Fraction(nu.a), Fraction(nu.b)
    if eps.denominator == 1:
        return Fraction(0)
    # the two phi-windows have lengths frac(eps) and 1 - frac(eps) and are
    # complementary closed arcs mod 1, so one sign lands in the triangle
    for sigma in (1, -1):
        et = sigma * eps - ceil(sigma * eps)        # in (-1, 0)
        pt = sigma * phi
        pt += ceil(-1 - n * et - pt)
        if pt <= -(n - 1) * et:
            break
    else:
        raise AssertionError("no sign puts %s in the triangle" % (nu,))
    l1 = -et
    l3 = -((n - 1) * et + pt)
    l2 = 1 - l1 - l3
    assert l1 > 0 and l2 >= 0 and l3 >= 0, (nu, n, e)
    return max(l1 * (l2 * (e + 2 * n - 2) + l3 * (e + 2 * n)) / 2, Fraction(0))


def _h0_line(a, b, e):
    # h^0(O(aE+bF)) via pushforward to P^1
    return sum(max(b - i * e + 1, 0) for i in range(a + 1)) if a >= 0 else 0


def general_cohomology_by_twist_walk(v, e):
    """(h0, h1, h2) of a general prioritary sheaf of the integral character v
    (r >= 1, Delta >= 0): rank one as O(c1) tensor the ideal of c2 general
    points; nu.F = -1 with only h1; nu.F < -1 by Serre duality; above -1
    by twisting by -E, one step at a time, until nu.F <= -1 (no sections)
    or nu.E >= -1 (h0 = max(chi, 0))."""
    chi = int(euler_char(v, e))
    if v.r == 1:
        a, b = int(v.c1.a), int(v.c1.b)
        k = canonical_divisor(e)
        h0 = max(_h0_line(a, b, e) - int(v.delta(e)), 0)
        h2 = _h0_line(int(k.a) - a, int(k.b) - b, e)
        return (h0, h0 + h2 - chi, h2)
    nu_dot_f = v.nu().a
    if nu_dot_f < -1:
        h0, h1, h2 = general_cohomology_by_twist_walk(serre_dual(v, e), e)
        return (h2, h1, h0)
    if nu_dot_f == -1:
        return (0, -chi, 0)
    w = v
    while True:
        nw = w.nu()
        if nw.a <= -1:
            h0 = 0
            break
        if -e * nw.a + nw.b >= -1:
            h0 = max(int(euler_char(w, e)), 0)
            break
        w = twist(w, -E, e)
    return (h0, h0 - chi, 0)

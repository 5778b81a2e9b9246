"""The decision engine: generic Harder-Narasimhan filtrations on F_e.

For an integral character v with Delta >= 0 and a polarization H_m (m > 0
rational), the factors w_1, ..., w_k of the Harder-Narasimhan filtration of
the general H_{ceil m}-prioritary sheaf are the unique decomposition
v = w_1 + ... + w_k with

  (1) every w_i of positive rank, each tail sum carrying H_{ceil m}-prioritary
      sheaves,
  (2) strictly decreasing reduced H_m-Hilbert polynomials,
  (3) mu_{H_m}(w_1) - mu_{H_m}(w_k) <= 1,
  (4) chi(w_i, w_j) = 0 for i < j,
  (5) each moduli space M_{H_m}(w_i) nonempty,

and moduli nonemptiness for v itself is equivalent to k = 1.  The search
enumerates first factors w_1 = (r1, a1 E + b1 F, ch2_1) with

  * r1 in [1, r-1] and slope inside the quadrilateral
      |(nu_1 - nu).F| < max(1, 2/(e+2m)),   mu(v) <= mu(w_1) <= mu(v) + (r - r1)/r
    (the Delta cuts below imply the fiber bound; the first factor
    carries the maximal slope; past the right end
    mu(w_1) - mu(u) > 1 for u = v - w_1, and the last factor of any tail
    has mu <= mu(u), so (3) fails for every tail),
  * Delta_1 pinned by chi(w_1, v) = chi(w_1, w_1), i.e. the orthogonality
    relations summed over the tail, which solves to
      Delta_1 = (r1 - r P(nu - nu_1) + r Delta) / (2 r1 - r)
    (when 2 r1 = r, see below),

then recurses on u = v - w_1.  Filtration length never exceeds 4.

The search tests (1), (2), (3) and (5); (4) follows from them.  The tail
u = f_2 + ... + f_k is the filtration of u, so it satisfies (4) among its own
factors, and the pinning is chi(w_1, u) = 0, the sum of the chi(w_1, f_j).
By (5) each f_j carries semistable sheaves F_j, and so does w_1 (W_1).
By (2), p(w_1) > p(f_j), so Hom(W_1, F_j) = 0.  By (3) the slope gap is at
most 1 < -K.H_m = 2m + e + 2, so Ext^2(W_1, F_j) = Hom(F_j, W_1(K))^* = 0.
Then every chi(w_1, f_j) <= 0, and a zero sum forces each one to 0.
`validate_hn` still checks (4) on its own.

The inner loops run on plain integers.  Characters are keys (r, a, b, 2 ch2)
from `lattice.int_key`, Delta is read from 2 r^2 Delta = 2ab - e a^2 - r s
and chi from 2 chi (`lattice.delta2`, `lattice.chi2`), m enters as its
reduced pair (p, q) and the fiber window of `_is_wall_key` as the integer
pair `lattice.fiber_window(p, q, e)`.  `_cuts` derives the Delta_1 and
Delta(u) cuts once per r1, signed by sign(2 r1 - r) so that each reads
c1 b1 + c0 >= 0, with c1 linear and c0 quadratic in a1.  For fixed (r1, a1) the pinned ch2_1
is linear in b1 too: the b1 loop walks the mu window cut to the half-lines
of both cuts, in the order of the plain triple loop, and one modulo test
per b1 keeps the b1 where ch2_1 makes w_1 integral.

When 2 r1 = r the pinning degenerates to P(nu - nu_1) = Delta + 1/2, which
is where the two cuts meet: they stay unsigned, the Delta(u) cut is then
-r1 times the Delta_1 cut, so the two half-lines leave exactly the b1 with
c1 b1 + c0 = 0, and the a1 window and the b1 loop run unchanged.  Only
ch2_1 is not pinned there: Delta_1 runs over its 1/r1-lattice where
Delta_1 >= 0 and Delta(u) >= 0 (`_degenerate_c2_range`); chi(w_1, u) = 0
reads Delta_1 + Delta(u) = P(nu_u - nu_1), so the cut Delta(u) >= 0 also
bounds Delta_1 from above.

Before any per-a1 work, `_first_ranks` drops each r1 whose Delta cut fails
on the whole strip delta.H_m in [-(r - r1)/r, 0] of the mu window,
delta = nu - nu_1.  Write P(delta) = delta^2/2 + L(delta) + 1 with L = -K/2,
and delta = c H_m/H_m^2 + t z0, where z0 = E - m F spans H_m^perp and
z0^2 = -H_m^2.  When 2 r1 < r, Delta_1 >= 0 reads P(delta) >= Delta + r1/r;
at 2 r1 = r the pinning asks P(delta) = Delta + 1/2; when 2 r1 > r,
Delta(u) >= 0 reads Q(delta) = lam delta^2/2 + L(delta) + 1 >=
(r - r1) Delta/r1 + r1/r with lam = r1/(r - r1) (lam = 1 gives P).  By the
Hodge index theorem the maximum of Q over t is
1 + [lam c^2/2 + c L(H_m) + L(z0)^2/(2 lam)]/H_m^2, convex in c, so its
maximum on the strip is at an end.  At c = -(r - r1)/r the bracket falls
short of its value at c = 0 by (r - r1)/r (L(H_m) - x/(2r)), x = r1 when
2 r1 > r and r - r1 otherwise, and L(H_m) = m + e/2 + 1 > 1/2 > x/(2r): the
maximum is at c = 0 on both sides, and an r1 whose maximum falls short has
no first factor.  With hn = mq H_m^2, k = 4 mq hn and zn = 2 mq L(z0) the
test reads k (n2v - 2 r max(r1, r - r1)) <= r^2 zn^2 in integers, that
is max(r1, r - r1) >= need for one threshold need per search, so the ranks
kept are two runs, [1, r - need] and [need, r - 1]: all of [1, r) when
2 need <= r + 1, none when need >= r.  With no rank left the search goes
straight to its closing check, before the degree of v is computed: length
one, and the H_{ceil m + 1} invariant read from the prioritary index that
the ceil m gate has already computed.  Then
`_a1_window` bounds a1 for each r1 left by one of the same cuts: with b1
relaxed to the real mu window, a cut at either end of the window is a
quadratic in a1 whose a1^2 coefficient, den v2 - r mp u1 in `_a1_window`,
is sg r^3 hn for the Delta_1 cut and -sg r^3 r1 hn for the Delta(u) cut,
sg = sign(2 r1 - r) (1 when 2 r1 = r).  So exactly one cut opens
downwards, Delta_1 when 2 r1 < r and Delta(u) when 2 r1 >= r, and the
window is the hull of its two nonnegativity intervals (`math.isqrt` roots,
widened by one); the other cut bounds no a1.  Per a1 the search reads both
cuts as b1 half-lines, on integer locals.

The downward cut alone implies the fiber bound of the quadrilateral.  Write
delta = x E + y F, so x = delta.F, with t = delta.H_m in [-(r - r1)/r, 0],
h = 2m + e and X = max(1, 2/h); then P(delta) = (x + 1)(1 + t - x h/2) and
1 + t >= r1/r > 0.  When 2 r1 < r the cut reads P(delta) >= Delta + r1/r
> 0: x <= -1 would make the first factor <= 0 and the second > 0, so
x > -1, and then 1 + t - x h/2 > 0 gives x < 2/h.  When 2 r1 >= r it reads
Q(delta) >= (r - r1) Delta/r1 + r1/r > 0, where
Q = lam (x t - h x^2/2) + t + x (1 - h/2) + 1 is concave in x with
Q(0) = 1 + t > 0.  For h >= 2, Q(1) = (lam + 1)(t - h/2) + 2 and
Q(-1) = (lam - 1)(-t - h/2) are <= 0 (-t <= 1/2); for h < 2,
Q(2/h) <= 2t/h + t and Q(-2/h) <= (2 + t)(1 - 2/h) are < 0 (lam >= 1).
So Q > 0 only for |x| < X.  At an a1 outside the open fiber window
|a1/r1 - a/r| < X no real b1 of the mu window passes the downward cut, and
its per-a1 half-line leaves no b1: the search needs no fiber clip.

A top-level search of `delta_estimate`'s scan gets a hint: the key
V = (rV, aV, bV, sV) of the twisted exceptional bundle behind the DLP
bound, sV from 2 rV^2 Delta(V) = rV^2 - 1.  Below that bound the general
sheaf is destabilised by V, so the first factor is often k V or
v - k V.  After the ceil m gate, the r = 1 exit and the empty-rank exit,
and before its loop, the search tries these for k = 1, 2, ... with
k rV < r (`_probe`) and accepts a candidate w1, u = v - w1 only through
every test the loop applies to its own candidates: mu(v) <= mu(w1) <=
mu(v) + r(u)/r, integrality, Delta_1 >= 0 and Delta(u) >= 0, the pinning
chi(w1, u) = 0, then the loop's gates `_prior(w1, ceil m + 1)`,
`_prior(u, ceil m)`, (5), (2) and (3).  Why the
answer is the same.  A candidate that passes is a decomposition meeting
(1)-(5): (1) by the `_prior` gates and the tail's own filtration, (2), (3)
and (5) by their gates, (4) as above.  By the uniqueness of the HN
filtration at most one first factor passes (criterion 3 of the
acceptance tests asserts `len(found) <= 1` on its corpus).  And the loop
meets this candidate: its rank, a1 window and b1 half-lines are proven
supersets of the integral candidates with both Delta >= 0 and the
pinning inside the mu window (at 2 r1 = r the s1 range is exactly those
with both Delta >= 0), so the loop would have found and returned the same
filtration.  Nothing in this argument reads the hint, so the probe is
sound for any integer key; the hint only decides how often it hits.
Recursive searches get no hint.

The public decisions (`hn_generic`, `verdict`, `moduli_nonempty`,
`is_wall`, `exists_above` and `reduction.reduce_decision`) cross one
boundary, `_read`: it reads e, m and v's fields once each (v's through
`lattice.int_key`, which alone holds a key's shape rule), runs the checks
on those locals and returns m, its pair (mp, mq), the key and
n2v = 2 r^2 Delta(v), so that Bogomolov is one integer sign test and no
caller converts v or m again (`exists_above` decides each of its
characters through `moduli_nonempty`).  The refusals keep one order: e,
m, the key's shape, the parity of c2, then Delta < 0, which each caller
answers in its own way (raised, a verdict, or not asked).  A search on a
memo miss reads its own 2 r^2 Delta, as recursive searches do.

The generic prioritary index comes from
`prioritary.prioritary_index_of_key`.  A search reads the index of v once:
the one value serves the ceil m gate (the None exit) and the
H_{ceil m + 1} invariant at both closing exits, the empty-rank exit and
the end of the loop.  The candidates w1 and u go through `_prior`.
Filtrations are memoized on (e, p, q, key) (Gieseker tie-breaks on walls
are not twist-equivariant, so no twist sharing).  A broken invariant of the search raises
`InternalError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, Optional, Sequence, Tuple

from .lattice import (
    ChernCharacter,
    DivisorClass,
    IKey,
    InternalError,
    Rat,
    check_count,
    check_del_pezzo,
    check_polarization,
    check_rank,
    check_surface,
    chi2,
    delta2,
    euler_pair,
    fiber_window,
    from_key,
    int_key,
    mu,
    reduced_hilbert_key,
)
from .prioritary import BogomolovViolation, prioritary_index_of_key
from .exceptional import build_table, exceptional_key
from . import dlp as _dlp

NONEMPTY = "NONEMPTY"
EMPTY = "EMPTY"
NO_PRIORITARY = "NO_PRIORITARY"
BOGOMOLOV_VIOLATION = "BOGOMOLOV_VIOLATION"


@dataclass(frozen=True)
class HNDecomposition:
    factors: Tuple[ChernCharacter, ...]
    m: Fraction
    e: int

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class DecisionCertificate:
    verdict: str
    hn: Optional[HNDecomposition]
    wall: bool


@dataclass(frozen=True)
class DeltaBracket:
    """Bracket of the sharp Bogomolov threshold (see `delta_estimate`).

    `lower` is a DLP bound, which holds for mu_{H_m}-stable sheaves;
    `witness` is a NONEMPTY character of discriminant `upper`, whose moduli
    space of H_m-Gieseker-semistable sheaves may hold strictly semistable
    sheaves only, so lower > upper can happen.
    """

    nu: DivisorClass
    m: Fraction
    e: int
    rank_cutoff: int
    lower: Fraction
    upper: Optional[Fraction]       # None = no NONEMPTY found up to the cutoff
    witness: Optional[ChernCharacter]
    wall: bool


_HN: Dict[tuple, Optional[Tuple[IKey, ...]]] = {}


def clear_cache() -> None:
    _HN.clear()


# ---------------------------------------------------------------------------
# integer-key plumbing

def _prior(key: IKey, n: int, e: int) -> bool:
    # Delta >= 0 assumed checked by the caller
    rho = prioritary_index_of_key(key, e)
    return rho is None or n <= rho


def _read(v: ChernCharacter, m: Rat, e: int) -> Tuple[Fraction, int, int, IKey, int]:
    """The boundary of the public decisions: (m, mp, mq, key, n2v), with m
    checked and a `Fraction`, m = mp/mq in lowest terms, key = (r, a, b,
    2 ch2) of v and n2v = 2 r^2 Delta(v), whose sign is Bogomolov's.
    Refuses, in this order, e, m, the key's shape (`int_key`) and a c2
    that is not an integer; Delta < 0 is left to the caller."""
    if type(e) is not int or e < 0:
        check_surface(e)            # raises, naming e
    if type(m) is not Fraction:
        m = check_polarization(m)
    mp, mq = m.as_integer_ratio()
    if mp <= 0:
        check_polarization(m)       # raises, naming m
    key = int_key(v)
    r, a, b, s = key
    c1sq = 2 * a * b - e * a * a
    if (c1sq - s) % 2:              # 2 c2 = c1^2 - 2 ch2
        raise ValueError("decision engine needs an integral character, got %r" % (v,))
    return m, mp, mq, key, c1sq - r * s


def _degenerate_c2_range(c1sq1: int, r1: int, n2u0: int) -> range:
    # when 2 r1 = r, integral w1 means s1 = c1sq1 - 2t with t = c2(w1) in Z,
    # and then 2 r1^2 Delta_1 = 2 r1 t - c1sq1 (r1 - 1) and, u having rank r1,
    # 2 r1^2 Delta(u) = n2u0 - 2 r1 t: the t with Delta_1, Delta(u) >= 0
    return range(-((-c1sq1 * (r1 - 1)) // (2 * r1)), n2u0 // (2 * r1) + 1)


def _fiber_range(r: int, a: int, r1: int, cp: int, cq: int) -> range:
    # the a1 with |a1/r1 - a/r| < cp/cq, (cp, cq) = fiber_window(p, q, e)
    rq = r * cq
    return range((r1 * (a * cq - r * cp)) // rq + 1, -((-r1 * (a * cq + r * cp)) // rq))


def _mu_window(num: int, den: int, r1: int, ru: int, mq: int) -> Tuple[int, int]:
    # the b1 with mu(v) <= mu(w1) <= mu(v) + ru/r, i.e. num/den <= b1 <=
    # (num + r1 ru mq)/den: past the right end mu(w1) - mu(u) > 1, and the
    # last factor of any tail has mu <= mu(u), so (3) fails
    return -((-num) // den), (num + r1 * ru * mq) // den + 1


def _cuts(vkey: IKey, e: int, r1: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The Delta_1 and Delta(u) cuts on first factors w1 = (r1, a1, b1, s1)
    with ch2_1 pinned, u = v - w1, as coefficients (u0, u1, v0, v1, v2) of
    c1 = u0 + u1 a1 and c0 = v0 + v1 a1 + v2 a1^2, where c1 b1 + c0 is
      sg 2 r r1^2 (r1 - r P(nu - nu_1) + r Delta) = 2 r r1^2 |2 r1 - r| Delta_1,
      2 r r1 (r - r1)^2 |2 r1 - r| Delta(u),
    sg = sign(2 r1 - r): each cut reads c1 b1 + c0 >= 0.  When 2 r1 = r the
    cuts are not signed: the first is zero exactly on the pinning and the
    second is -r1 times the first, so both hold only on the pinning."""
    r, a, b, s = vkey
    ru = r - r1
    sg = -1 if 2 * r1 < r else 1    # each cut times sign(2 r1 - r), or 1
    rs, rr = sg * r, sg * r * r
    c1sq = 2 * a * b - e * a * a
    sd = r * r1 * abs(2 * r1 - r)
    x0 = r1 * (a + r)
    l0 = r1 * (2 * b + 2 * r - e * a)
    p0 = sg * (r1 * r1 * (2 * r * r1 + c1sq - r * s) - x0 * l0)
    p1 = rs * (l0 - e * x0)
    # the Delta(u) cut expands (2 au bu - e au^2 - ru su) sd = 2 ru^2 sd Delta(u),
    # (au, bu, su) = (a - a1, b - b1, s - s1), with the pinned
    # s1 sd = (2 a1 b1 - e a1^2) r |2 r1 - r| - c1 b1 - c0 of the Delta_1 cut
    return ((2 * rs * x0, -2 * rr, p0, p1, e * rr),
            (-2 * (rs * ru * x0 + sd * a), 2 * rr * r1, sd * (c1sq - ru * s) - ru * p0,
             2 * sd * (e * a - b) - ru * p1, -e * rr * r1))


def _a1_window(cut: Tuple[int, ...], ends: Tuple[int, int], rmp: int, den: int) -> range:
    """The a1 whose mu window may hold a b1 passing the cut c1 b1 + c0 >= 0
    of `_cuts` that opens downwards in a1 (module docstring).  A superset
    in integers: b1 is relaxed to the real y of the mu window,
    den y = nj - rmp a1 with nj in ends; the cut is linear in y, so it holds
    on the window only if it holds at an end, where den times it is a
    quadratic in a1.  The window is the hull of its two nonnegativity
    intervals, widened by one step around `isqrt`."""
    u0, u1, v0, v1, v2 = cut
    qa = den * v2 - rmp * u1          # < 0
    w = -2 * qa
    lo = hi = None                    # the hull of nothing yet
    for nj in ends:
        # den (c1 y + c0) = qa x^2 + qb x + qc
        qb = den * v1 + u1 * nj - rmp * u0
        qc = den * v0 + u0 * nj
        disc = qb * qb - 4 * qa * qc
        if disc >= 0:                 # else negative for every a1
            # nonnegative for (qb - sqrt(disc)) / w <= a1 <= (qb + sqrt(disc)) / w
            sq = isqrt(disc) + 1
            x, y = (qb - sq) // w + 1, -(-(qb + sq) // w)
            lo, hi = (x, y) if lo is None else (min(lo, x), max(hi, y))
    return range(0) if lo is None else range(lo, hi)


def _first_ranks(r: int, n2v: int, mp: int, mq: int, e: int) -> Sequence[int]:
    """The r1 in [1, r) whose Delta cut may hold somewhere on the strip
    delta.H_m in [-(r - r1)/r, 0], delta = nu - nu_1 (see the module
    docstring): Delta_1 >= 0 (or the pinning) when 2 r1 <= r, Delta(u) >= 0
    when 2 r1 > r; n2v = 2 r^2 Delta(v) and m = mp/mq.  The test is
    max(r1, r - r1) >= need, so the ranks kept are two runs, ascending:
    all of [1, r) when 2 need <= r + 1 (the smallest max(r1, r - r1) is
    ceil(r/2)), otherwise [1, r - need] and [need, r - 1], both empty when
    need >= r, and then `_search` skips to its closing check."""
    hn = 2 * mp + e * mq            # mq H^2
    zn = 2 * mq - hn                # 2 mq L(z0), z0 = E - m F
    k = 4 * mq * hn
    # the maximum at c = 0 on both sides: k (n2v - 2 r max(r1, r - r1)) <= r^2 zn^2
    need = -((r * r * zn * zn - k * n2v) // (2 * r * k))
    if 2 * need <= r + 1:
        return range(1, r)
    if need >= r:
        return ()
    return [*range(1, r - need + 1), *range(need, r)]


def _hn_key(key: IKey, mp: int, mq: int, e: int, hint: Optional[IKey] = None) -> Optional[Tuple[IKey, ...]]:
    # NB: cached on the raw key.  Gieseker tie-breaking at non-generic m is
    # not twist-equivariant, so the filtration genuinely belongs to the
    # character itself, not to a twist-normalized representative.  The
    # hint only orders the search, so it is not part of the memo key.
    ck = (e, mp, mq, key)
    factors = _HN.get(ck, False)    # a filtration is a tuple or None
    if factors is False:
        factors = _HN[ck] = _search(key, mp, mq, e, hint)
    return factors


def _search(vkey: IKey, mp: int, mq: int, e: int, hint: Optional[IKey] = None) -> Optional[Tuple[IKey, ...]]:
    """Factors of the generic HN filtration at m = mp/mq (lowest terms) of
    an integral key with Delta >= 0, or None when no H_{ceil m}-prioritary
    sheaves exist.  A `hint` key V makes `_probe` try the first factors
    k V and v - k V before the loop."""
    r, a, b, s = vkey
    n0 = -(-mp // mq)               # ceil(m)
    # one index for the ceil m gate and for the closing H_{ceil m + 1} check
    rho = prioritary_index_of_key(vkey, e)
    if rho is not None and n0 > rho:
        return None
    if r == 1:
        return (vkey,)
    ranks = _first_ranks(r, delta2(vkey, e), mp, mq, e)
    if not ranks:
        return _unsplit(vkey, rho, n0, mp, mq)
    if hint is not None:
        found = _probe(vkey, hint, n0, mp, mq, e)
        if found is not None:
            return found

    # H_m-degree of v times (r mq): mu(v) = degv / den
    degv = a * mp + b * mq
    den = r * mq
    rmp = r * mp

    for r1 in ranks:
        t = 2 * r1 - r
        ru = r - r1
        n1 = r1 * degv
        cuts = _cuts(vkey, e, r1)
        (u0, u1, v0, v1, v2), (g0, g1, h0, h1, h2) = cuts
        # the cuts come signed by sign(t), so s1 has the positive
        # denominator s1_den = r1 r |t| (at t = 0 it is unused)
        rtt = r * abs(t)
        s1_den = r1 * rtt
        # the cut that opens downwards in a1: Delta_1 when t < 0, else Delta(u)
        for a1 in _a1_window(cuts[t >= 0], (n1, n1 + r1 * ru * mq), rmp, den):
            # mu(v) <= mu(w1) <= mu(v) + ru/r
            lo, hi = _mu_window(n1 - a1 * rmp, den, r1, ru, mq)
            # each cut k1 b1 + k0 >= 0 (Delta_1), j1 b1 + j0 >= 0 (Delta(u))
            # is a half-line of b1
            k1, k0 = u0 + u1 * a1, v0 + (v1 + v2 * a1) * a1
            if k1 > 0:
                x = -(k0 // k1)
                if x > lo:
                    lo = x
            elif k1 < 0:
                x = k0 // -k1 + 1
                if x < hi:
                    hi = x
            elif k0 < 0:
                continue
            if lo >= hi:
                continue
            j1, j0 = g0 + g1 * a1, h0 + (h1 + h2 * a1) * a1
            if j1 > 0:
                x = -(j0 // j1)
                if x > lo:
                    lo = x
            elif j1 < 0:
                x = j0 // -j1 + 1
                if x < hi:
                    hi = x
            elif j0 < 0:
                continue
            if lo >= hi:
                continue
            ea1 = e * a1 * a1
            # s1 = (c1sq1 r |t| - k1 b1 - k0) / s1_den = (beta b1 + alpha) / s1_den
            beta = 2 * rtt * a1 - k1
            alpha = -ea1 * rtt - k0
            for b1 in range(lo, hi):
                c1sq1 = 2 * a1 * b1 - ea1
                if t:
                    # keep s1 an integer of the parity of c1sq1, so that
                    # c2(w1) = (c1sq1 - s1)/2 is an integer
                    if (beta * b1 + alpha - c1sq1 * s1_den) % (2 * s1_den):
                        continue
                    s1_list = ((beta * b1 + alpha) // s1_den,)
                else:
                    au = a - a1
                    n2u0 = 2 * au * (b - b1) - e * au * au - ru * (s - c1sq1)
                    s1_list = [c1sq1 - 2 * c2 for c2 in _degenerate_c2_range(c1sq1, r1, n2u0)]
                for s1 in s1_list:
                    w1 = (r1, a1, b1, s1)
                    u = (ru, a - a1, b - b1, s - s1)
                    # Delta_1 >= 0 and Delta(u) >= 0 hold by construction
                    # (the b1 cuts, or the t window at 2 r1 = r); then the
                    # cheap prioritary gates
                    if not _prior(w1, n0 + 1, e):
                        continue      # necessary for (5)
                    if not _prior(u, n0, e):
                        continue      # condition (1)
                    # w1 has Delta_1 >= 0 and is H_{ceil m}-prioritary, so
                    # it has a filtration; (5) asks for length one
                    if len(_hn_key(w1, mp, mq, e)) != 1:
                        continue      # condition (5)
                    # not None: u passed _prior(u, n0, e), _search's only None exit
                    tail = _hn_key(u, mp, mq, e)
                    if not _key_gt(w1, tail[0], mp, mq, e):
                        continue      # condition (2)
                    last = tail[-1]
                    # condition (3): mu(w1) - mu(last) <= 1, which the mu
                    # window settles only for a tail of length one
                    if (a1 * mp + b1 * mq) * last[0] - (last[1] * mp + last[2] * mq) * r1 > r1 * last[0] * mq:
                        continue
                    return (w1,) + tail   # (4) follows (module docstring)
    return _unsplit(vkey, rho, n0, mp, mq)


def _probe(vkey: IKey, hint: IKey, n0: int, mp: int, mq: int, e: int) -> Optional[Tuple[IKey, ...]]:
    """The filtration of v when its first factor is w1 = k V or w1 = v - k V
    for the hint V and some k >= 1 with k r(V) < r(v), else None: each
    candidate meets the loop's window, integrality, Delta and pinning
    tests and then its gates.  Sound for any integer hint (module
    docstring)."""
    r, a, b, s = vkey
    rV, aV, bV, sV = hint
    degv = a * mp + b * mq
    for k in range(1, (r - 1) // rV + 1):
        kv = (k * rV, k * aV, k * bV, k * sV)
        rest = (r - k * rV, a - k * aV, b - k * bV, s - k * sV)
        for w1, u in ((kv, rest), (rest, kv)):
            r1, a1, b1, s1 = w1
            # mu(v) <= mu(w1) <= mu(v) + r(u)/r
            lo, hi = _mu_window(r1 * degv - a1 * r * mp, r * mq, r1, r - r1, mq)
            if not lo <= b1 < hi:
                continue
            if (2 * a1 * b1 - e * a1 * a1 - s1) % 2:
                continue            # c2(w1) is not an integer
            if delta2(w1, e) < 0 or delta2(u, e) < 0 or chi2(w1, u, e):
                continue            # a Delta cut or the pinning fails
            # the loop's gates, which it keeps inline: a helper call per
            # candidate cost decide_sweep 1-2%
            if not _prior(w1, n0 + 1, e) or not _prior(u, n0, e):
                continue            # necessary for (5); condition (1)
            if len(_hn_key(w1, mp, mq, e)) != 1:
                continue            # condition (5)
            tail = _hn_key(u, mp, mq, e)
            if not _key_gt(w1, tail[0], mp, mq, e):
                continue            # condition (2)
            rl, al, bl, _ = tail[-1]
            if (a1 * mp + b1 * mq) * rl - (al * mp + bl * mq) * r1 > r1 * rl * mq:
                continue            # condition (3)
            return (w1,) + tail
    return None


def _unsplit(vkey: IKey, rho: Optional[int], n0: int, mp: int, mq: int) -> Tuple[IKey]:
    # no first factor: v is its own filtration, and then it must be
    # H_{ceil m + 1}-prioritary, i.e. n0 + 1 <= rho, v's prioritary index
    if rho is not None and n0 >= rho:
        raise InternalError(
            "inconsistent state: no decomposition found for %r at m=%d/%d but the "
            "character is not H_{ceil(m)+1}-prioritary" % (vkey, mp, mq)
        )
    return (vkey,)


def _key_gt(w: IKey, x: IKey, mp: int, mq: int, e: int) -> bool:
    """reduced_hilbert_key(w) > reduced_hilbert_key(x) at m = mp/mq,
    lexicographic on (mu_{H_m}, chi/r), in integer arithmetic."""
    rw, aw, bw, _ = w
    rx, ax, bx, _ = x
    lhs = (aw * mp + bw * mq) * rx
    rhs = (ax * mp + bx * mq) * rw
    if lhs != rhs:
        return lhs > rhs
    # ties in mu are broken by chi/r, and 2 chi(v) = chi2(O, v)
    return chi2((1, 0, 0, 0), w, e) * rx > chi2((1, 0, 0, 0), x, e) * rw


def _characters(v: ChernCharacter, factors: Tuple[IKey, ...]) -> Tuple[ChernCharacter, ...]:
    # a length-one filtration is (key of v,), and v is frozen and equal to
    # from_key of its key with Fraction fields: hand back v itself
    return (v,) if len(factors) == 1 else tuple(from_key(k) for k in factors)


def _is_wall_key(key: IKey, mp: int, mq: int, e: int) -> bool:
    """`is_wall` on an integer key, at m = mp/mq in lowest terms."""
    r, a, b, _ = key
    cp, cq = fiber_window(mp, mq, e)
    degv = a * mp + b * mq
    den = r * mq
    for r1 in range(1, r):
        for a1 in _fiber_range(r, a, r1, cp, cq):
            # the b1 with mu(w1) = mu(v) is (r1 degv - a1 mp r) / (r mq); on
            # that line the slope equals nu exactly when a1/r1 = a/r
            if (r1 * degv - a1 * mp * r) % den == 0 and a1 * r != a * r1:
                return True
    return False


# ---------------------------------------------------------------------------
# public API

def hn_generic(v: ChernCharacter, m: Rat, e: int) -> Optional[HNDecomposition]:
    """Generic H_m-Harder-Narasimhan decomposition of v, or None if no
    H_{ceil m}-prioritary sheaves exist.  Raises BogomolovViolation for
    Delta < 0."""
    m, mp, mq, key, n2v = _read(v, m, e)
    if n2v < 0:
        raise BogomolovViolation("Delta(v) = %s < 0" % (v.delta(e),))
    factors = _hn_key(key, mp, mq, e)
    if factors is None:
        return None
    return HNDecomposition(_characters(v, factors), m, e)


def is_wall(v: ChernCharacter, m: Rat, e: int) -> bool:
    """Does some lower-rank slope in the search quadrilateral tie with v at H_m?"""
    _, mp, mq, key, _ = _read(v, m, e)
    return _is_wall_key(key, mp, mq, e)


def verdict(v: ChernCharacter, m: Rat, e: int) -> str:
    """The decision verdict alone (no filtration, no wall detection)."""
    _, mp, mq, key, n2v = _read(v, m, e)
    if n2v < 0:
        return BOGOMOLOV_VIOLATION
    n0 = -(-mp // mq)               # ceil(m)
    rho = prioritary_index_of_key(key, e)
    if rho is not None and n0 > rho:
        return NO_PRIORITARY
    if rho is not None and n0 >= rho:
        return EMPTY  # semistable sheaves are H_{ceil(m)+1}-prioritary
    return NONEMPTY if len(_hn_key(key, mp, mq, e)) == 1 else EMPTY


def moduli_nonempty(v: ChernCharacter, m: Rat, e: int) -> DecisionCertificate:
    """Decide nonemptiness of the moduli of H_m-Gieseker-semistable sheaves.

    NONEMPTY comes with the length-one filtration, EMPTY with the length >= 2
    generic filtration as counterexample; NO_PRIORITARY and
    BOGOMOLOV_VIOLATION carry no filtration.
    """
    m, mp, mq, key, n2v = _read(v, m, e)
    if n2v < 0:
        return DecisionCertificate(BOGOMOLOV_VIOLATION, None, False)
    wall = _is_wall_key(key, mp, mq, e)
    factors = _hn_key(key, mp, mq, e)
    if factors is None:
        return DecisionCertificate(NO_PRIORITARY, None, wall)
    hn = HNDecomposition(_characters(v, factors), m, e)
    verdict = NONEMPTY if len(factors) == 1 else EMPTY
    return DecisionCertificate(verdict, hn, wall)


def validate_hn(dec: HNDecomposition, v: ChernCharacter, check_moduli: bool = True) -> None:
    """Re-check the five filtration conditions from scratch; raises on failure."""
    e, m = dec.e, dec.m
    factors = dec.factors
    if not 1 <= len(factors) <= 4:
        raise AssertionError("filtration length %d out of range" % len(factors))
    total = factors[0]
    for f in factors[1:]:
        total = total + f
    if total != v:
        raise AssertionError("factors do not sum to the character")
    for f in factors:
        if f.r < 1 or not f.is_integral(e):
            raise AssertionError("factor %r is not integral of positive rank" % (f,))
        if f.delta(e) < 0:
            raise AssertionError("factor %r violates Bogomolov" % (f,))
    keys = [reduced_hilbert_key(f, m, e) for f in factors]
    if any(keys[i] <= keys[i + 1] for i in range(len(keys) - 1)):
        raise AssertionError("reduced Hilbert keys are not strictly decreasing")
    if mu(factors[0], m) - mu(factors[-1], m) > 1:
        raise AssertionError("H_m-slope spread exceeds 1")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if euler_pair(factors[i], factors[j], e) != 0:
                raise AssertionError("chi(w_%d, w_%d) != 0" % (i + 1, j + 1))
    if check_moduli and len(factors) > 1:
        for f in factors:
            if verdict(f, m, e) != NONEMPTY:
                raise AssertionError("factor %r has empty moduli" % (f,))


def exists_above(v: ChernCharacter, m: Rat, e: int, steps: int = 3) -> bool:
    """Monotone-closure harness: v and its next `steps` elementary
    modifications (Delta += 1/r) must all be NONEMPTY."""
    m = _read(v, m, e)[0]
    check_count(steps, "steps")
    w = v
    for _ in range(steps + 1):
        if moduli_nonempty(w, m, e).verdict != NONEMPTY:
            return False
        w = ChernCharacter(w.r, w.c1, w.ch2 - 1)
    return True


def delta_estimate(
    nu: DivisorClass,
    m: Rat,
    e: int,
    rank_cutoff: int,
    table=None,
) -> DeltaBracket:
    """Bracket the sharp Bogomolov threshold at slope nu and polarization H_m.

    Upper bound: for every rank that is a multiple of the minimal one making
    r nu integral, up to the cutoff, scan Delta >= 1/2 upward along that
    rank's integral lattice until the first NONEMPTY verdict, stopping at
    the best Delta found so far; take the best.  The scan runs on integer
    keys (r, a, b, 2 ch2): NONEMPTY is a length-one filtration from the
    memoized search, Delta = (c1^2 - 2 r ch2)/(2 r^2) is compared by
    cross-multiplying, and the witness and its `Fraction` Delta are built
    once, on return.  Lower bound: max(1/2, DLP^{<cutoff}_{H_m}(nu)).
    Each scanned key's search first tries the first factors k V and
    v - k V for the twisted exceptional V that gives the DLP bound (the
    witness-first probe of the module docstring), which answers most keys
    below the bound without the search's loop and never changes a
    filtration.
    e must be 0 or 1 (reduce first otherwise) and nu a `DivisorClass`.  The
    wall flag records a slope tie (`is_wall`) of some scanned character;
    the test ignores Delta, so it runs once per rank, on the rank's first
    scanned character, until a tie is seen.

    The lower bound holds for mu_{H_m}-stable sheaves, the witness is only
    known to carry H_m-Gieseker-semistable ones, so lower > upper is
    possible when every semistable sheaf of the witness's character is
    strictly semistable: at nu = (1/2, 1/4), m = 1/2 on F_1 the bracket is
    (3/4, 1/2) with witness (4, 2E + F, -2) = O(E) + (3, E + F, -3/2).
    """
    check_del_pezzo(e)
    m = check_polarization(m)
    check_rank(rank_cutoff, "rank cutoff")
    _dlp._check_slope(nu)
    ap, aq = nu.a.numerator, nu.a.denominator
    bp, bq = nu.b.numerator, nu.b.denominator
    r0 = aq * bq // gcd(aq, bq)
    if table is None and rank_cutoff > 2:       # DLP^{<2} reads line bundles only
        table = build_table(e, rank_cutoff - 1)
    # past the gates above; empty at r = 1
    bound = _dlp._scan(nu, _dlp.slope_classes(table, e, rank_cutoff), m, e)
    lower = Fraction(1, 2) if bound.value is None else max(Fraction(1, 2), bound.value)
    mp, mq = m.numerator, m.denominator
    hint = None                     # the key of the exceptional V behind the bound
    if bound.witness is not None:
        hint = exceptional_key(*bound.witness, e)
    cap = lower + 8
    best = None                     # (dn, r^2, key) of the best witness
    wall = False
    for r in range(r0, rank_cutoff + 1, r0):
        a, b = (r // aq) * ap, (r // bq) * bp     # r nu, integral as r0 | r
        c1sq = 2 * a * b - e * a * a
        rr = r * r
        # Delta = dn / (2 r^2), dn = c1sq - r s for s = 2 ch2 = c1sq - 2 c2:
        # start at the largest s with c2 integral and Delta >= 1/2; s -= 2
        # adds 1/r.  The wall test ignores s: once per rank, at its first step
        s = (c1sq - rr) // r
        s -= (s - c1sq) % 2
        s0 = s
        while True:
            dn = c1sq - r * s
            if best is not None and dn * best[1] >= best[0] * rr:
                break
            if dn * cap.denominator > cap.numerator * 2 * rr:
                raise InternalError("delta scan exceeded cap %s at rank %d" % (cap, r))
            key = (r, a, b, s)
            if s == s0:
                wall = wall or _is_wall_key(key, mp, mq, e)
            factors = _hn_key(key, mp, mq, e, hint)
            if factors is not None and len(factors) == 1:
                best = (dn, rr, key)
                break
            s -= 2
    if best is None:
        return DeltaBracket(nu, m, e, rank_cutoff, lower, None, None, wall)
    dn, rr, key = best
    return DeltaBracket(nu, m, e, rank_cutoff, lower, Fraction(dn, 2 * rr), from_key(key), wall)

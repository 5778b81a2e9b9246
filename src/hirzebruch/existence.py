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

  * r1 in [1, r-1] and slope inside the open quadrilateral
      |(nu_1 - nu).F| < max(1, 2/(e+2m)),   mu(v) <= mu(w_1) < mu(v) + 1
    (the first factor carries the maximal slope),
  * Delta_1 pinned by chi(w_1, v) = chi(w_1, w_1), i.e. the orthogonality
    relations summed over the tail, which solves to
      Delta_1 = (r1 - r P(nu - nu_1) + r Delta) / (2 r1 - r)   when 2 r1 != r;
    when 2 r1 = r the identity degenerates to P(nu - nu_1) = Delta + 1/2 and
    Delta_1 runs over its 1/r1-lattice in [0, B], B the maximum of P on the
    closed slope-difference quadrilateral,

then recurses on u = v - w_1.  Filtration length never exceeds 4.

The inner loops run on plain integers.  Characters are keys (r, a, b, 2 ch2),
Delta is read from its numerator 2 r^2 Delta = 2ab - e a^2 - r s and chi
from 2 chi (`lattice.delta2`, `lattice.chi2`), and m and
the fiber window enter as numerator and denominator.  For fixed (r1, a1) the
pinned ch2_1 and Delta(u) are linear in b1, so the b1 loop visits only the
arithmetic progression where ch2_1 is integral, cut to the half-line
Delta(u) >= 0 (in the degenerate case the pinning identity fixes b1); the
candidates are still visited in the order of the plain triple loop.  The
generic prioritary index comes from `prioritary.prioritary_index_of_key`.
Verdicts and filtrations are memoized per character and polarization
(Gieseker tie-breaks on walls are not twist-equivariant, so no twist
sharing).  A broken invariant of the search raises `InternalError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Optional, Tuple

from .lattice import (
    ChernCharacter,
    DivisorClass,
    Rat,
    ceil_frac,
    check_polarization,
    check_surface,
    chi2,
    delta2,
    euler_pair,
    fiber_window,
    intersect,
    mu,
    reduced_hilbert_key,
)
from .prioritary import BogomolovViolation, prioritary_index_of_key
from . import dlp as _dlp

NONEMPTY = "NONEMPTY"
EMPTY = "EMPTY"
NO_PRIORITARY = "NO_PRIORITARY"
BOGOMOLOV_VIOLATION = "BOGOMOLOV_VIOLATION"

IKey = Tuple[int, int, int, int]  # (r, a, b, 2*ch2), all integers


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

    `lower` is a DLP bound, which holds for stable sheaves; `witness` is a
    NONEMPTY character of discriminant `upper`, whose moduli space may hold
    strictly semistable sheaves only, so lower > upper can happen.
    """

    nu: DivisorClass
    m: Fraction
    e: int
    rank_cutoff: int
    lower: Fraction
    upper: Optional[Fraction]       # None = no NONEMPTY found up to the cutoff
    witness: Optional[ChernCharacter]
    wall: bool


class InternalError(RuntimeError):
    """A broken invariant of the engine: a bug, never a property of the input."""


_HN: Dict[tuple, Optional[Tuple[IKey, ...]]] = {}


def clear_cache() -> None:
    _HN.clear()


# ---------------------------------------------------------------------------
# integer-key plumbing: characters are (r, a, b, s) with s = 2 ch2

def _char_of(key: IKey) -> ChernCharacter:
    r, a, b, s = key
    return ChernCharacter(r, DivisorClass(a, b), Fraction(s, 2))


def _prior(key: IKey, n: int, e: int) -> bool:
    # Delta >= 0 assumed checked by the caller
    rho = prioritary_index_of_key(key, e)
    return rho is None or n <= rho


def _validate(v: ChernCharacter, m: Rat, e: int) -> Tuple[Fraction, IKey]:
    """The checked polarization and the integer key (r, a, b, 2 ch2) of v."""
    check_surface(e)
    m = check_polarization(m)
    if v.r < 1:
        raise ValueError("decision engine needs positive rank")
    a, b, s2 = v.c1.a, v.c1.b, 2 * v.ch2
    if a.denominator != 1 or b.denominator != 1 or s2.denominator != 1:
        raise ValueError("decision engine needs an integral character, got %r" % (v,))
    a, b, s = a.numerator, b.numerator, s2.numerator
    if (2 * a * b - e * a * a - s) % 2:  # 2 c2 = c1^2 - 2 ch2
        raise ValueError("decision engine needs an integral character, got %r" % (v,))
    return m, (v.r, a, b, s)


def _quad_b_bound(m: Fraction, e: int) -> Fraction:
    # max of P over the closed quadrilateral {x in [-1, cF], x m + y in [-1, 0]}:
    # P is largest on the top edge y = -x m, where it equals
    # g(x) = (x+1)(1 - x(m + e/2)); evaluate the clipped vertex and corners.
    cf = fiber_window(m, e)
    s = m + Fraction(e, 2)
    xs = [Fraction(-1), cf]
    vertex = (1 / s - 1) / 2
    if -1 < vertex < cf:
        xs.append(vertex)
    return max((x + 1) * (1 - x * s) for x in xs)


def _degenerate_c2_range(c1sq1: int, r1: int, b_cap: Fraction) -> range:
    # integral w1 means s1 = c1sq1 - 2t with t = c2(w1) in Z, and then
    # Delta_1 = (c1sq1 (1 - r1)/r1 + 2 t) / (2 r1): the t with Delta_1 in [0, B]
    bp, bq = b_cap.numerator, b_cap.denominator
    k = c1sq1 * (r1 - 1)
    return range(-((-k) // (2 * r1)), (2 * r1 * r1 * bp + k * bq) // (2 * r1 * bq) + 1)


def _fiber_range(r: int, a: int, r1: int, cp: int, cq: int) -> range:
    # the a1 with |a1/r1 - a/r| < cp/cq, cp/cq = fiber_window(m, e)
    rq = r * cq
    return range((r1 * (a * cq - r * cp)) // rq + 1, -((-r1 * (a * cq + r * cp)) // rq))


def _hn_key(key: IKey, m: Fraction, e: int) -> Optional[Tuple[IKey, ...]]:
    # NB: cached on the raw key.  Gieseker tie-breaking at non-generic m is
    # not twist-equivariant, so the filtration genuinely belongs to the
    # character itself, not to a twist-normalized representative.
    ck = (e, m, key)
    if ck not in _HN:
        _HN[ck] = _search(key, m, e)
    return _HN[ck]


def _search(vkey: IKey, m: Fraction, e: int) -> Optional[Tuple[IKey, ...]]:
    """Factors of the generic HN filtration of an integral key with
    Delta >= 0, or None when no H_{ceil m}-prioritary sheaves exist."""
    r, a, b, s = vkey
    mp, mq = m.numerator, m.denominator
    n0 = -(-mp // mq)               # ceil(m)
    if not _prior(vkey, n0, e):
        return None
    if r == 1:
        return (vkey,)

    n2v = delta2(vkey, e)           # 2 r^2 Delta(v)
    cf = fiber_window(m, e)
    cp, cq = cf.numerator, cf.denominator
    # H_m-degree of v times (r mq): mu(v) = degv / den
    degv = a * mp + b * mq
    den = r * mq
    b_cap = None

    for r1 in range(1, r):
        rr1 = r * r1
        two_r1_minus_r = 2 * r1 - r
        s1_den = r * r1 * two_r1_minus_r
        ru = r - r1
        k1 = 2 * r * r1 ** 3 + r1 * r1 * n2v
        for a1 in _fiber_range(r, a, r1, cp, cq):
            # mu(v) <= mu(w1) < mu(v) + 1:
            #   b1 in [ (r1 degv - a1 mp r) / (r mq), same + r1 )
            num = r1 * degv - a1 * mp * r
            b1_lo = -((-num) // den)          # ceil(num/den)
            b1_hi_excl = b1_lo + r1
            dx = a * r1 - a1 * r
            ax = dx + rr1
            # 2 r r1^2 * (r1 - r P(nu - nu1) + r Delta) = pnum0 + 2 r ax b1
            pnum0 = k1 - ax * (2 * b * r1 + 2 * rr1 - e * dx)
            if two_r1_minus_r != 0:
                # s1 = s1_num / s1_den with s1_num = c1sq1 r (2 r1 - r) - pnum
                # = beta b1 + alpha, and then 2 (r - r1)^2 Delta(u) s1_den =
                # gam b1 + dlt: keep the b1 where Delta(u) >= 0 and s1 is an
                # integer
                beta = 2 * r * (a1 * two_r1_minus_r - ax)
                alpha = -e * a1 * a1 * r * two_r1_minus_r - pnum0
                au = a - a1
                gam = ru * beta - 2 * au * s1_den
                dlt = (2 * au * b - e * au * au - ru * s) * s1_den + ru * alpha
                if s1_den < 0:
                    gam, dlt = -gam, -dlt
                if gam > 0:
                    b1_lo = max(b1_lo, -(dlt // gam))
                elif gam < 0:
                    b1_hi_excl = min(b1_hi_excl, dlt // -gam + 1)
                elif dlt < 0:
                    continue
                if b1_lo >= b1_hi_excl:
                    continue
                g = gcd(beta, s1_den)
                if alpha % g:
                    continue
                step = abs(s1_den) // g
                b0 = (-alpha // g) * pow(beta // g, -1, step) % step
                b1_range = range(b1_lo + (b0 - b1_lo) % step, b1_hi_excl, step)
            else:
                # degenerate: P(nu - nu1) = Delta + 1/2 reads
                # pnum0 + 2 r ax b1 = 0, which fixes b1 unless ax = 0
                if ax != 0:
                    b1, rem = divmod(-pnum0, 2 * r * ax)
                    if rem:
                        continue
                    b1_lo, b1_hi_excl = max(b1_lo, b1), min(b1_hi_excl, b1 + 1)
                elif pnum0 != 0:
                    continue
                b1_range = range(b1_lo, b1_hi_excl)
            for b1 in b1_range:
                c1sq1 = 2 * a1 * b1 - e * a1 * a1
                if two_r1_minus_r != 0:
                    # s1 = 2 ch2_1 = c1sq1/r1 - 2 r1 Delta_1
                    pnum = pnum0 + 2 * r * ax * b1
                    s1 = (c1sq1 * r * two_r1_minus_r - pnum) // s1_den
                    if (c1sq1 - s1) % 2 != 0:
                        continue      # c2(w1) not an integer
                    # Delta_1 >= 0: sign of pnum / (2 r r1^2 (2 r1 - r))
                    if (pnum < 0) if two_r1_minus_r > 0 else (pnum > 0):
                        continue
                    s1_list = [s1]
                else:
                    if b_cap is None:
                        b_cap = _quad_b_bound(m, e)
                    s1_list = [c1sq1 - 2 * t for t in _degenerate_c2_range(c1sq1, r1, b_cap)]
                for s1 in s1_list:
                    w1 = (r1, a1, b1, s1)
                    u = (r - r1, a - a1, b - b1, s - s1)
                    # Delta_1 >= 0 holds by construction and Delta(u) >= 0 by
                    # the b1 cut off the degenerate branch; then the cheap
                    # prioritary gates
                    if not two_r1_minus_r and delta2(u, e) < 0:
                        continue
                    if not _prior(w1, n0 + 1, e):
                        continue      # necessary for (5)
                    if not _prior(u, n0, e):
                        continue      # condition (1)
                    if _verdict_key(w1, m, e) != NONEMPTY:
                        continue      # condition (5)
                    tail = _hn_key(u, m, e)
                    if tail is None:
                        continue
                    if not _key_gt(w1, tail[0], m, e):
                        continue      # condition (2)
                    last = tail[-1]
                    # condition (3): mu(w1) - mu(last) <= 1
                    if (a1 * mp + b1 * mq) * last[0] - (last[1] * mp + last[2] * mq) * r1 > r1 * last[0] * mq:
                        continue
                    if any(chi2(w1, f, e) != 0 for f in tail):
                        continue      # condition (4)
                    return (w1,) + tail
    if not _prior(vkey, n0 + 1, e):
        raise InternalError(
            "inconsistent state: no decomposition found for %r at m=%s but the "
            "character is not H_{ceil(m)+1}-prioritary" % (vkey, m)
        )
    return (vkey,)


def _key_gt(w: IKey, x: IKey, m: Fraction, e: int) -> bool:
    """reduced_hilbert_key(w) > reduced_hilbert_key(x), lexicographic on
    (mu_{H_m}, chi/r), in integer arithmetic."""
    rw, aw, bw, _ = w
    rx, ax, bx, _ = x
    mp, mq = m.numerator, m.denominator
    lhs = (aw * mp + bw * mq) * rx
    rhs = (ax * mp + bx * mq) * rw
    if lhs != rhs:
        return lhs > rhs
    # ties in mu are broken by chi/r, and 2 chi(v) = chi2(O, v)
    return chi2((1, 0, 0, 0), w, e) * rx > chi2((1, 0, 0, 0), x, e) * rw


def _verdict_key(key: IKey, m: Fraction, e: int) -> str:
    if delta2(key, e) < 0:
        return BOGOMOLOV_VIOLATION
    n0 = -(-m.numerator // m.denominator)   # ceil(m)
    if not _prior(key, n0, e):
        return NO_PRIORITARY
    if not _prior(key, n0 + 1, e):
        return EMPTY  # semistable sheaves are H_{ceil(m)+1}-prioritary
    factors = _hn_key(key, m, e)
    return NONEMPTY if len(factors) == 1 else EMPTY


# ---------------------------------------------------------------------------
# public API

def hn_generic(v: ChernCharacter, m: Rat, e: int) -> Optional[HNDecomposition]:
    """Generic H_m-Harder-Narasimhan decomposition of v, or None if no
    H_{ceil m}-prioritary sheaves exist.  Raises BogomolovViolation for
    Delta < 0."""
    m, key = _validate(v, m, e)
    if delta2(key, e) < 0:
        raise BogomolovViolation("Delta(v) = %s < 0" % (v.delta(e),))
    factors = _hn_key(key, m, e)
    if factors is None:
        return None
    return HNDecomposition(tuple(_char_of(k) for k in factors), m, e)


def is_wall(v: ChernCharacter, m: Rat, e: int) -> bool:
    """Does some lower-rank slope in the search quadrilateral tie with v at H_m?"""
    m, (r, a, b, _) = _validate(v, m, e)
    mp, mq = m.numerator, m.denominator
    cf = fiber_window(m, e)
    degv = a * mp + b * mq
    den = r * mq
    for r1 in range(1, r):
        for a1 in _fiber_range(r, a, r1, cf.numerator, cf.denominator):
            # the b1 with mu(w1) = mu(v) is (r1 degv - a1 mp r) / (r mq); on
            # that line the slope equals nu exactly when a1/r1 = a/r
            if (r1 * degv - a1 * mp * r) % den == 0 and a1 * r != a * r1:
                return True
    return False


def verdict(v: ChernCharacter, m: Rat, e: int) -> str:
    """The decision verdict alone (no filtration, no wall detection)."""
    m, key = _validate(v, m, e)
    return _verdict_key(key, m, e)


def moduli_nonempty(v: ChernCharacter, m: Rat, e: int) -> DecisionCertificate:
    """Decide nonemptiness of the moduli of H_m-Gieseker-semistable sheaves.

    NONEMPTY comes with the length-one filtration, EMPTY with the length >= 2
    generic filtration as counterexample; NO_PRIORITARY and
    BOGOMOLOV_VIOLATION carry no filtration.
    """
    m, key = _validate(v, m, e)
    if delta2(key, e) < 0:
        return DecisionCertificate(BOGOMOLOV_VIOLATION, None, False)
    wall = is_wall(v, m, e)
    factors = _hn_key(key, m, e)
    if factors is None:
        return DecisionCertificate(NO_PRIORITARY, None, wall)
    hn = HNDecomposition(tuple(_char_of(k) for k in factors), m, e)
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
    m, _ = _validate(v, m, e)
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
    rank's integral lattice until the first NONEMPTY verdict; take the best.
    Lower bound: max(1/2, DLP^{<cutoff}_{H_m}(nu)).  e must be 0 or 1
    (reduce first otherwise); the wall flag records slope ties seen while
    scanning.

    The lower bound is about stable sheaves, the witness only carries
    semistable ones, so lower > upper is possible when every semistable
    sheaf of the witness's character is strictly semistable: at
    nu = (1/2, 1/4), m = 1/2 on F_1 the bracket is (3/4, 1/2) with witness
    (4, 2E + F, -2) = O(E) + (3, E + F, -3/2).
    """
    check_surface(e)
    if e not in (0, 1):
        raise ValueError("delta_estimate runs on F_0/F_1; reduce e >= 2 first")
    m = check_polarization(m)
    if rank_cutoff < 1:
        raise ValueError("rank cutoff must be >= 1")
    da, db = nu.a.denominator, nu.b.denominator
    r0 = da * db // gcd(da, db)
    lower = Fraction(1, 2)
    if rank_cutoff > 1:
        if table is None:
            from .exceptional import build_table

            table = build_table(e, max(rank_cutoff - 1, 1))
        bound = _dlp.dlp_below_rank(nu, m, e, rank_cutoff, table)
        if bound.value is not None:
            lower = max(lower, bound.value)
    upper: Optional[Fraction] = None
    witness: Optional[ChernCharacter] = None
    wall = False
    cap = lower + 8
    for r in range(r0, rank_cutoff + 1, r0):
        c1 = nu.scale(r)
        c1sq_half = Fraction(1, 2) * intersect(c1, c1, e)
        # Delta(t) = c1^2/(2 r^2) - (c1^2/2 - t)/r over integers t
        base = c1sq_half / (r * r) - c1sq_half / r
        t = ceil_frac((Fraction(1, 2) - base) * r)
        while True:
            d = base + Fraction(t, r)
            if upper is not None and d >= upper:
                break
            if d > cap:
                raise InternalError("delta scan exceeded cap %s at rank %d" % (cap, r))
            w = ChernCharacter(r, c1, c1sq_half - t)
            assert w.delta(e) == d
            cert = moduli_nonempty(w, m, e)
            wall = wall or cert.wall
            if cert.verdict == NONEMPTY:
                if upper is None or d < upper:
                    upper, witness = d, w
                break
            t += 1
    return DeltaBracket(nu, m, e, rank_cutoff, lower, upper, witness, wall)

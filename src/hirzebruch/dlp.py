"""Drezet-Le Potier bounding functions on F_0 and F_1.

A mu_H-stable sheaf W whose H_m-slope differs from that of a stable
exceptional bundle V by at most -K.H_m/2 = m + e/2 + 1 satisfies
Delta(W) >= DLP_{H_m,V}(nu(W)) where, with d = nu - nu(V),

    DLP_{H_m,V}(nu) = P(d)  - Delta(V)   if  d.H_m < 0,
                      P(-d) - Delta(V)   if  d.H_m > 0,
                      max of the two     if  d.H_m = 0  (soft convention).

DLP^{<r} takes the maximum over all mu_{H_m}-stable exceptional bundles of
rank < r inside the strip; DLP^1 restricts to line bundles.  The supremum is
an honest maximum: any contribution >= c > 0 forces the fiber component of d
into (-X, X) with X = `lattice.fiber_window(m, e)` = max(1, 2/(2m+e)), which
makes the twist search finite.

The contributing bundles come as slope classes mod Z^2 (`SlopeClass`): the
twist/dual and, on F_0, fiber-swap orbits of the exceptional table rows
(`orbit`; once per table as `ExceptionalTable.classes`, cut below a rank
by `slope_classes`).  A class is integers (rank, a, b) with slope
(a/rank, b/rank) mod Z^2 plus its stability interval; every contributor is
O or exceptional, so Delta(V) = 1/2 - 1/(2 rank^2) comes from the rank.  The
twist scan runs per class on integers: scaled by L = lcm(den nu.a,
den nu.b, rank), every offset d, its H_m-degree, P(+-d) and Delta(V) have
one denominator, so the class contributes its best offset as a single
`Fraction`.  The exceptional module walks the stability walls of I_V on
the same classes with the same scaling (`LINE_BUNDLES` gives the sentinels),
so the orbit enumeration and the open-interval stability test live here.

Polarizations with e >= 2 are rejected here; reduce to F_0/F_1 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .lattice import (
    ChernCharacter,
    DivisorClass,
    Rat,
    check_polarization,
    fiber_window,
    hilbert_P,
    hilbert_P2,
)


@dataclass(frozen=True)
class DlpValue:
    """A DLP bound: `value` is None for an empty supremum (think -infinity).

    The witness (rank, a, b) is the twisted exceptional attaining the value;
    `equal_slope` marks a maximum reached on the d.H_m = 0 branch away from
    nu = nu(V), where the defining convention is soft.
    """

    value: Optional[Fraction]
    witness: Optional[Tuple[int, int, int]] = None
    equal_slope: bool = False


class InsufficientTable(ValueError):
    """The exceptional table does not cover the requested ranks."""


def _check_del_pezzo(e: int) -> None:
    if e not in (0, 1):
        raise ValueError(
            "DLP functions are only computed on F_0 and F_1 (got e=%r); "
            "translate e >= 2 queries through the reduction map first" % (e,)
        )


def strip_halfwidth(m: Rat, e: int) -> Fraction:
    """-(1/2) K . H_m = m + e/2 + 1."""
    return Fraction(m) + Fraction(e, 2) + 1


def dlp_single(v: ChernCharacter, nu: DivisorClass, m: Rat, e: int) -> Optional[Fraction]:
    """DLP_{H_m, v}(nu); None when nu is outside the strip of v."""
    _check_del_pezzo(e)
    m = check_polarization(m)
    d = nu - v.nu()
    t = d.hm_degree(m)
    s = strip_halfwidth(m, e)
    if abs(t) > s:
        return None
    dv = v.delta(e)
    if t < 0:
        return hilbert_P(d, e) - dv
    if t > 0:
        return hilbert_P(-d, e) - dv
    return max(hilbert_P(d, e), hilbert_P(-d, e)) - dv


class SlopeClass(NamedTuple):
    """Stable exceptional bundles of one rank whose slopes agree mod Z^2.

    c1 = aE + bF gives one representative slope (a/rank, b/rank); every
    twist by Z E + Z F shares Delta = `exceptional_delta(rank)` and the
    stability interval (lo, hi).
    """

    rank: int
    a: int
    b: int
    lo: Fraction                # 0 allowed
    hi: Optional[Fraction]      # None = +infinity

    def stable_at(self, m: Fraction) -> bool:
        """mu_{H_m}-stability: m strictly inside the open interval."""
        return m > self.lo and (self.hi is None or m < self.hi)


LINE_BUNDLES = SlopeClass(1, 0, 0, Fraction(0), None)


def orbit(rec, e: int) -> List[SlopeClass]:
    """Slope classes of the twist/dual (and, on F_0, fiber-swap) orbit of a
    table row, deduplicated modulo Z^2 together with their intervals."""
    r, lo, hi = rec.r, rec.lo, rec.hi
    variants = [(rec.a, rec.b, lo, hi), (-rec.a, -rec.b, lo, hi)]
    if e == 0:
        # the fiber swap sends H_m to a multiple of H_{1/m}
        slo = Fraction(0) if hi is None else 1 / hi
        shi = None if lo == 0 else 1 / lo
        variants += [(rec.b, rec.a, slo, shi), (-rec.b, -rec.a, slo, shi)]
    out, seen = [], set()
    for a, b, vlo, vhi in variants:
        key = (a % r, b % r, vlo, vhi)
        if key not in seen:
            seen.add(key)
            out.append(SlopeClass(r, a, b, vlo, vhi))
    return out


def slope_classes(table, e: int, below_rank: int) -> List[SlopeClass]:
    """O plus the slope classes of the table rows of rank 2 .. below_rank - 1.

    The table is only consulted when below_rank > 2 and must then cover
    every rank below the cutoff; its classes are `ExceptionalTable.classes`.
    """
    if below_rank <= 2:
        return [LINE_BUNDLES]
    if table is None:
        raise InsufficientTable("an exceptional table is required for rank bounds > 2")
    if table.e != e:
        raise ValueError("table is for e=%r, query is for e=%r" % (table.e, e))
    if table.max_rank < below_rank - 1:
        raise InsufficientTable(
            "table covers ranks <= %d but DLP^{<%d} needs %d"
            % (table.max_rank, below_rank, below_rank - 1)
        )
    return [c for c in table.classes if c.rank < below_rank]


def _scan(nu: DivisorClass, contributors: Iterable[SlopeClass], m: Fraction, e: int) -> DlpValue:
    # Per slope class, scaled by L = lcm(den nu.a, den nu.b, rank): the
    # offsets d = nu - (twist of the class) are (X, Y)/L with X = x0 and
    # Y = y0 mod L, (x0, y0)/L = nu - (class slope), kept to |d.H_m| <= s
    # and fiber part in [-X_w, X_w] (anything scoring above the
    # always-positive base value lies in this box), and
    # 2 L^2 P(d) = hilbert_P2(X, Y, L, e).  Within a class Delta(V) is fixed,
    # 2 L^2 Delta(V) = L^2 - (L / rank)^2, so the best offset is the largest
    # P, ties going to the largest (X, Y), i.e. the smallest witness.
    mp, mq = m.numerator, m.denominator
    xw = fiber_window(m, e)
    s = strip_halfwidth(m, e)
    sp, sq = s.numerator, s.denominator
    mps, ysc = mp * sq, mq * sq     # |d.H_m| <= s is |X mp + Y mq| sq <= L mq sp
    best: Optional[Fraction] = None
    best_wit: Optional[Tuple[int, int, int]] = None
    best_eq = False
    for con in contributors:
        if not con.stable_at(m):
            continue
        rank = con.rank
        L = lcm(nu.a.denominator, nu.b.denominator, rank)
        nx = nu.a.numerator * (L // nu.a.denominator)
        ny = nu.b.numerator * (L // nu.b.denominator)
        k = L // rank
        x0 = nx - con.a * k
        y0 = ny - con.b * k
        xlim = xw.numerator * L // xw.denominator
        hw = L * mq * sp
        top = None
        for X in range(-xlim + (x0 + xlim) % L, xlim + 1, L):
            y_lo = -((hw + X * mps) // ysc)
            y_hi = (hw - X * mps) // ysc
            for Y in range(y_lo + (y0 - y_lo) % L, y_hi + 1, L):
                t = X * mp + Y * mq
                if t < 0:
                    p = hilbert_P2(X, Y, L, e)
                elif t > 0:
                    p = hilbert_P2(-X, -Y, L, e)
                else:
                    p = max(hilbert_P2(X, Y, L, e), hilbert_P2(-X, -Y, L, e))
                if top is None or p >= top:
                    top, bx, by = p, X, Y
        if top is None:
            continue
        val = Fraction(top - L * L + k * k, 2 * L * L)
        wa, ra = divmod(rank * (nx - bx), L)
        wb, rb = divmod(rank * (ny - by), L)
        assert ra == 0 and rb == 0
        wit = (rank, wa, wb)
        if best is None or val > best or (val == best and wit < best_wit):
            best, best_wit = val, wit
            best_eq = bx * mp + by * mq == 0 and (bx, by) != (0, 0)
    return DlpValue(best, best_wit, best_eq)


def dlp_line_bundles(nu: DivisorClass, m: Rat, e: int) -> DlpValue:
    """DLP^1_{H_m}(nu): the line-bundle-only bound (always finite)."""
    _check_del_pezzo(e)
    m = check_polarization(m)
    return _scan(nu, [LINE_BUNDLES], m, e)


def dlp_below_rank(nu: DivisorClass, m: Rat, e: int, r: int, table=None) -> DlpValue:
    """DLP^{<r}_{H_m}(nu) over mu_{H_m}-stable exceptionals of rank < r.

    `table` must cover ranks < r (only consulted when r > 2).  Returns an
    empty DlpValue when r <= 1.
    """
    _check_del_pezzo(e)
    m = check_polarization(m)
    if not isinstance(r, int) or r < 1:
        raise ValueError("rank cutoff must be a positive integer")
    if r == 1:
        return DlpValue(None)
    return _scan(nu, slope_classes(table, e, r), m, e)


def dlp_grid(
    e: int,
    m: Rat,
    square: Tuple[Rat, Rat, Rat, Rat],
    steps: int,
    rank_cutoff: int,
    table=None,
    with_witnesses: bool = False,
):
    """Row-major grid of DLP^{<rank_cutoff} values over a slope square.

    `square` is (eps0, eps1, phi0, phi1); `steps` subdivisions give steps+1
    samples per axis (steps = 0 samples the single corner).  Rows follow eps.
    """
    _check_del_pezzo(e)
    m = check_polarization(m)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    e0, e1, p0, p1 = (Fraction(t) for t in square)
    if steps == 0:
        eps_vals, phi_vals = [e0], [p0]
    else:
        eps_vals = [e0 + (e1 - e0) * Fraction(i, steps) for i in range(steps + 1)]
        phi_vals = [p0 + (p1 - p0) * Fraction(j, steps) for j in range(steps + 1)]

    rows = [
        [dlp_below_rank(DivisorClass(ev, pv), m, e, rank_cutoff, table) for pv in phi_vals]
        for ev in eps_vals
    ]
    if with_witnesses:
        return eps_vals, phi_vals, rows
    return eps_vals, phi_vals, [[cell.value for cell in r] for r in rows]

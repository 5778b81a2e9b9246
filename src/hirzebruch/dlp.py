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
into (-X, X) with X = max(1, 2/(2m+e)) (the pair `lattice.fiber_window`),
which makes the twist search finite.

The contributing bundles come as slope classes mod Z^2 (`SlopeClass`): the
twist/dual and, on F_0, fiber-swap orbits of the exceptional table rows
(`orbit`; once per table as `ExceptionalTable.classes`, in ascending
rank, cut below a rank by `slope_classes`).  A class is integers
(rank, a, b) with slope (a/rank, b/rank) mod Z^2 plus its stability
interval, whose ends are integer pairs (p, q), q >= 0, (1, 0) = +infinity
(`orbit` converts a table row's ends); every contributor is O or
exceptional, so Delta(V) = 1/2 - 1/(2 rank^2) comes from the rank.  The
twist scan runs per class on integers (`_best`, with nu = (x, y)/nu_den
and m = mp/mq): scaled by L = lcm(nu_den, rank), every offset d, its
H_m-degree, P(+-d) and Delta(V) have one denominator.  On a column of
offsets with fixed fiber part, each branch of DLP is affine in the other
coordinate, so each branch is read at its nearest lattice point on its
own closed side of the line d.H_m = 0, two points per column (`_best`
says why the far ends never win and why the strip never clips these
points, so they are visited directly): O(#columns) integer steps per
class.  Ties go to the smallest witness, as a walk over the whole box in
ascending order keeping the last maximum would give, and classes are
compared by cross-multiplying.
The classes come in ascending rank, and no class of rank rho is worth more
than 1/2 + (2 - h)^2/(8h) + 1/(2 rho^2), h = 2m + e (`_rank_bound`), so
the walk ends at the first rank whose bound is below the best so far.
The walk has two callers.  `_scan` takes the whole maximum; the one
`Fraction` is the value it returns.  `exceeds_exceptional_delta`, the
exceptionality test of the table build, stops the walk at the first class
whose value beats the Delta of a rank-r exceptional, which for most
candidates is O itself.
The exceptional module finds the nearest stability walls of I_V on the
same classes with the same scaling, each kept inside the class's end
pairs, so the orbit enumeration and the end pairs live here;
`exceptional.canonical_pair` reads the same images of a slope (`_images`).

e >= 2 is refused by the gate `lattice.check_del_pezzo`; reduce first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .lattice import (
    ChernCharacter,
    DivisorClass,
    Rat,
    check_count,
    check_del_pezzo,
    check_polarization,
    check_rank,
    fiber_window,
    hilbert_P,
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


def strip_halfwidth(m: Rat, e: int) -> Fraction:
    """-(1/2) K . H_m = m + e/2 + 1."""
    return check_polarization(m) + Fraction(e, 2) + 1


def dlp_single(v: ChernCharacter, nu: DivisorClass, m: Rat, e: int) -> Optional[Fraction]:
    """DLP_{H_m, v}(nu); None when nu is outside the strip of v."""
    check_del_pezzo(e)
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
    lo: Tuple[int, int]         # (p, q) for p/q, q > 0
    hi: Tuple[int, int]         # (p, q) for p/q, q >= 0; (1, 0) = +infinity


LINE_BUNDLES = SlopeClass(1, 0, 0, (0, 1), (1, 0))


def _images(a: int, b: int, e: int) -> List[Tuple[int, int, bool]]:
    """The images of c1 = aE + bF under the dual and, on F_0, the fiber
    swap, in the order of `orbit`, each with whether it swaps the fibers."""
    images = [(a, b, False), (-a, -b, False)]
    if e == 0:
        images += [(b, a, True), (-b, -a, True)]
    return images


def orbit(rec, e: int) -> List[SlopeClass]:
    """Slope classes of the twist/dual (and, on F_0, fiber-swap) orbit of a
    table row, deduplicated modulo Z^2 together with their intervals."""
    r = rec.r
    lo = (rec.lo.numerator, rec.lo.denominator)
    hi = (1, 0) if rec.hi is None else (rec.hi.numerator, rec.hi.denominator)
    out, seen = [], set()
    for a, b, swapped in _images(rec.a, rec.b, e):
        # the fiber swap sends H_m to a multiple of H_{1/m}: (1/hi, 1/lo)
        vlo, vhi = (hi[::-1], lo[::-1]) if swapped else (lo, hi)
        key = (a % r, b % r, vlo, vhi)
        if key not in seen:
            seen.add(key)
            out.append(SlopeClass(r, a, b, vlo, vhi))
    return out


def slope_classes(table, e: int, below_rank: int) -> List[SlopeClass]:
    """O plus the slope classes of the table rows of rank 2 .. below_rank - 1,
    in ascending rank; none for below_rank <= 1.

    The table is only consulted when below_rank > 2 and must then cover
    every rank below the cutoff; its classes are `ExceptionalTable.classes`.
    """
    if below_rank <= 2:
        return [LINE_BUNDLES] if below_rank == 2 else []
    if table is None:
        raise InsufficientTable("an exceptional table is required for rank bounds > 2")
    if table.e != e:
        raise ValueError("table is for e=%r, query is for e=%r" % (table.e, e))
    if table.max_rank < below_rank - 1:
        raise InsufficientTable(
            "table covers ranks <= %d but DLP^{<%d} needs %d"
            % (table.max_rank, below_rank, below_rank - 1)
        )
    # the classes ascend in rank, so those below the cutoff are a prefix
    return list(table.classes[:bisect_left(table.classes, below_rank, key=attrgetter("rank"))])


def _best(classes: Iterable[SlopeClass], x: int, y: int, nu_den: int, mp: int, mq: int, e: int,
          stop: Optional[Tuple[int, int]] = None):
    """DLP over the `classes` stable at m = mp/mq, at nu = (x, y)/nu_den, as
    (num, dnm, witness, equal_slope) for the value num/dnm, num = None when
    no class is stable there.  With `stop` = (p, q) the walk stops at the
    first class whose value exceeds p/q.  `classes` must ascend in rank, as
    `slope_classes` and `ExceptionalTable.classes` give them."""
    # Per slope class, scaled by L = lcm(nu_den, rank): the offsets
    # d = nu - (twist of the class) are (X, Y)/L with X = x0 and Y = y0 mod L,
    # (x0, y0)/L = nu - (class slope), kept to |d.H_m| <= s and fiber part
    # in [-X_w, X_w] (anything scoring above the always-positive base value
    # lies in this box).  Within a class 2 L^2 Delta(V) = L^2 - (L / rank)^2
    # is fixed, so the best offset is the largest P, ties going to the
    # largest (X, Y), i.e. the smallest witness.
    # On a column X the branches are affine in Y, split by t = X mp + Y mq:
    #   t <= 0:  2 L^2 P(d)  = (X + L)(2Y + 2L - eX), slope 2(X + L),
    #   t >= 0:  2 L^2 P(-d) = (L - X)(2L - 2Y + eX), slope -2(L - X),
    # each branch read on its own closed side of the line.  For -L < X < L,
    # P(d) strictly rises in Y and P(-d) strictly falls, so each closed
    # half-column peaks at its lattice point nearest the line and every
    # other point of it is strictly lower: no tie can move the witness.
    # When the line holds a lattice point both reads land on it, and the
    # two `>=` updates keep max(P(d), P(-d)) with that point as the
    # witness, which is the soft convention.  Where a slope turns (below
    # the line at X <= -L, above it at X >= L) the strip bound keeps
    # P <= 0, while the column with |X| < L has a point of P > 0 within
    # one lattice step of the line: those half-columns never hold the
    # maximum.  Lemma: the strip never clips the two points.  The last
    # lattice Y with t <= 0 has its next lattice Y, Y + L, above the line,
    # so -L mq < t <= 0 there; likewise 0 <= t < L mq at the first lattice
    # Y with t >= 0.  The strip is |t| <= L mq (m + e/2 + 1), which is
    # wider because m > 0.  So every column has its point on either side,
    # and every class a column (the box is >= 2L wide, fiber window >= 1).
    # The two points are visited in ascending Y with `>=`, as a walk over
    # the whole box would, which keeps the tie rule.  Classes are
    # compared by cross-multiplying, ties going to the smallest witness.
    # The walk keeps the maximum itself: handing each class's best offset to
    # a caller cost the DLP queries about 4%.
    # The walk ends at the first rank that cannot beat the best, which needs
    # `classes` in ascending rank (`ExceptionalTable.classes` is).  With
    # k = L / rank and h = 2m + e, both branches meet the line t = 0 of
    # column X at 2 L^2 +- (2 - h) L X - h X^2.  For |X| <= L each branch
    # rises toward the line, so no candidate of the column exceeds
    # 2 L^2 + |2 - h| L |X| - h X^2; for |X| > L the half-column whose
    # slope turns is negative (above) and the other one still rises toward
    # the line.  Over real X that peaks at 2 L^2 (1 + c),
    # c = (2 - h)^2 / (8 h), and 2 L^2 Delta(V) = L^2 - k^2, so no class of
    # the rank is worth more than 1/2 + c + 1/(2 rank^2) (`_rank_bound`),
    # which falls with the rank.  Only a bound strictly below the best ends
    # the walk.
    xwp, xwq = fiber_window(mp, mq, e)
    hn = 2 * mp + e * mq                # h = hn / mq, c = cn / cd
    cn, cd = (2 * mq - hn) ** 2, 8 * hn * mq
    best_num = best_den = None          # the best value is best_num / best_den
    best_wit: Optional[Tuple[int, int, int]] = None
    best_eq = False
    last = 0                            # the rank of the last class read
    for rank, ca, cb, (lp, lq), (hp, hq) in classes:
        if rank != last:
            last = rank
            if best_num is not None:
                bn, bd = _rank_bound(rank, cn, cd)
                if bn * best_den < best_num * bd:
                    break
        if not (lp * mq < mp * lq and mp * hq < hp * mq):     # stable at m
            continue
        L = lcm(nu_den, rank)
        k = L // rank
        nx = x * (L // nu_den)
        ny = y * (L // nu_den)
        x0 = nx - ca * k
        y0 = ny - cb * k
        xlim = xwp * L // xwq
        top = None
        for X in range(-xlim + (x0 + xlim) % L, xlim + 1, L):
            Y = -X * mp // mq
            Y -= (Y - y0) % L                   # the last lattice Y with t <= 0
            p = (X + L) * (2 * Y + 2 * L - e * X)
            if top is None or p >= top:
                top, bx, by = p, X, Y
            if X * mp + Y * mq < 0:
                Y += L                          # the first lattice Y with t >= 0
            p = (L - X) * (2 * L - 2 * Y + e * X)
            if p >= top:
                top, bx, by = p, X, Y
        num, den = top - L * L + k * k, 2 * L * L
        cmp = 1 if best_num is None else num * best_den - best_num * den
        if cmp < 0:
            continue
        wit = (rank, (nx - bx) // k, (ny - by) // k)
        if cmp > 0 or wit < best_wit:
            best_num, best_den, best_wit = num, den, wit
            best_eq = bx * mp + by * mq == 0 and (bx, by) != (0, 0)
            # the first class above p/q raises the maximum, so it stops here
            if stop is not None and num * stop[1] > stop[0] * den:
                break
    return best_num, best_den, best_wit, best_eq


def _rank_bound(rank: int, cn: int, cd: int) -> Tuple[int, int]:
    """(num, den) with num/den = 1/2 + cn/cd + 1/(2 rank^2), the most a
    class of this rank is worth when c = cn/cd (see `_best`)."""
    rr = rank * rank
    return rr * (cd + 2 * cn) + cd, 2 * cd * rr


def _scan(nu: DivisorClass, contributors: Iterable[SlopeClass], m: Fraction, e: int) -> DlpValue:
    ap, aq = nu.a.numerator, nu.a.denominator
    bp, bq = nu.b.numerator, nu.b.denominator
    nu_den = lcm(aq, bq)
    num, den, wit, eq = _best(contributors, ap * (nu_den // aq), bp * (nu_den // bq), nu_den,
                              m.numerator, m.denominator, e)
    return DlpValue(None if num is None else Fraction(num, den), wit, eq)


def exceeds_exceptional_delta(classes: Iterable[SlopeClass], x: int, y: int, r: int,
                              mp: int, mq: int, e: int) -> bool:
    """Whether DLP over `classes` at nu = (x, y)/r and m = mp/mq exceeds the
    Delta = (r^2 - 1)/(2 r^2) of a rank-r exceptional, i.e. whether a
    potentially exceptional character with that slope fails to be one.
    Answers at the first stable class whose value is larger, so a scan that
    a line bundle decides reads one class."""
    delta = (r * r - 1, 2 * r * r)
    num, den, _, _ = _best(classes, x, y, r, mp, mq, e, delta)
    return num is not None and num * delta[1] > delta[0] * den


def dlp_line_bundles(nu: DivisorClass, m: Rat, e: int) -> DlpValue:
    """DLP^1_{H_m}(nu): the line-bundle-only bound (always finite)."""
    return dlp_below_rank(nu, m, e, 2)


def _check_slope(nu: DivisorClass) -> None:
    if not isinstance(nu, DivisorClass):
        raise ValueError("slope nu must be a DivisorClass, got %r" % (nu,))


def dlp_below_rank(nu: DivisorClass, m: Rat, e: int, r: int, table=None) -> DlpValue:
    """DLP^{<r}_{H_m}(nu) over mu_{H_m}-stable exceptionals of rank < r.

    `table` must cover ranks < r (only consulted when r > 2).  Returns an
    empty DlpValue when r = 1.
    """
    check_del_pezzo(e)
    m = check_polarization(m)
    check_rank(r, "rank cutoff")
    _check_slope(nu)
    return _scan(nu, slope_classes(table, e, r), m, e)


def dlp_grid(
    e: int,
    m: Rat,
    square: Tuple[Rat, Rat, Rat, Rat],
    steps: int,
    rank_cutoff: int,
    table=None,
):
    """Row-major grid of DLP^{<rank_cutoff} `DlpValue`s over a slope square.

    `square` is (eps0, eps1, phi0, phi1); `steps` subdivisions give steps+1
    samples per axis (steps = 0 samples the single corner).  Rows follow eps.
    The inputs are checked and the classes cut below the rank once per grid.
    """
    check_del_pezzo(e)
    m = check_polarization(m)
    check_count(steps, "steps")
    e0, e1, p0, p1 = (Fraction(t) for t in square)
    if steps == 0:
        eps_vals, phi_vals = [e0], [p0]
    else:
        eps_vals = [e0 + (e1 - e0) * Fraction(i, steps) for i in range(steps + 1)]
        phi_vals = [p0 + (p1 - p0) * Fraction(j, steps) for j in range(steps + 1)]
    check_rank(rank_cutoff, "rank cutoff")
    classes = slope_classes(table, e, rank_cutoff)

    return eps_vals, phi_vals, [
        [_scan(DivisorClass(ev, pv), classes, m, e) for pv in phi_vals]
        for ev in eps_vals
    ]

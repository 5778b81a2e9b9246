"""Exceptional bundles on F_0 and F_1: enumeration and stability intervals.

A potentially exceptional character (chi(v,v) = 1) of rank r with
c1 = aE + bF has Delta = 1/2 - 1/(2 r^2), gcd(r, a) = 1 (r odd when e is
even) and b determined mod r by

    2 a b = a^2 e + a e r - r^2 - 1  (mod 2r).

A potentially exceptional character is exceptional iff
Delta >= DLP^{<r}_{-K}(nu), decided by induction on the rank.  For an
exceptional bundle V of rank >= 2 the stability interval

    I_V = { m > 0 : V is mu_{H_m}-stable }

is the connected component of R_{>0} minus

    S_V = { m_{V,W} : W exceptional, r(W) < r(V), chi(W,V) > 0, m_{V,W} in I_W }

containing the anticanonical parameter 1 - e/2, where m_{V,W} = -y/x for
nu(V) - nu(W) = xE + yF.  `_strip_walls` walks the twists of one slope
class of W on a vertical (x in (-1, 0)) or horizontal (y in (-1, 0)) strip
in integers over L = lcm(r(V), r(W)), where chi(W, V) > 0 reads
hilbert_P2 > 2 L^2 (Delta(V) + Delta(W)) = 2 L^2 - (L/r(V))^2 - (L/r(W))^2.
Its first walls on O's strips are the sentinels that bracket 1 - e/2 and
bound every other walk: M1 above it, and M0 below 1 on F_0 (0 on F_1,
where P > 0 bounds the horizontal strips).

Characters are normalized to the ranges 0 <= a < r/2, a <= b < r (e = 0,
using the fiber swap) and 0 <= a <= r/2, 0 <= b < r (e = 1), so tables are
reproducible byte for byte.

The twist/dual/swap orbit of a table row, the open-interval stability test
and the coverage check on a table live in `dlp` (`SlopeClass`, `orbit`,
`slope_classes`), which scans the same classes for DLP^{<r}; a table lists
its classes once, in row order (`ExceptionalTable.classes`).  A slope class
is integers (rank, a, b) with its interval, and its Delta is
`exceptional_delta(rank)`.  `_candidates` is the one enumeration of
canonical pairs per rank, shared by `potential_characters` and
`build_table`, and `is_exceptional` is the one exceptionality test, with
chi(v, v) = 1 read from `lattice.chi2` on the integer key.  `load_table`
refuses rows that fail `_check_row`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import List, Optional, Tuple

from . import dlp
from .existence import InternalError
from .lattice import (
    ChernCharacter,
    DivisorClass,
    check_surface,
    chi2,
    format_rational,
    hilbert_P2,
    parse_rational,
)

Witness = Tuple[int, int, int]  # (rank, a, b)


class CacheError(RuntimeError):
    """Exceptional-table cache could not be read or written."""


def exceptional_delta(r: int) -> Fraction:
    return Fraction(1, 2) - Fraction(1, 2 * r * r)


def exceptional_character(r: int, a: int, b: int, e: int) -> ChernCharacter:
    """The unique character with chi(v,v) = 1, rank r and c1 = aE + bF."""
    c1 = DivisorClass(a, b)
    nu2 = Fraction(2 * a * b - e * a * a, r * r)
    ch2 = r * (nu2 / 2 - exceptional_delta(r))
    return ChernCharacter(r, c1, ch2)


@dataclass(frozen=True)
class ExceptionalRecord:
    r: int
    a: int
    b: int
    lo: Fraction                    # 0 allowed (F_1 left-blank rows)
    hi: Optional[Fraction]          # None = +infinity
    w0: Optional[Witness] = None
    w1: Optional[Witness] = None

    def delta(self) -> Fraction:
        return exceptional_delta(self.r)

    def character(self, e: int) -> ChernCharacter:
        return exceptional_character(self.r, self.a, self.b, e)


@dataclass(frozen=True)
class ExceptionalTable:
    e: int
    max_rank: int
    records: Tuple[ExceptionalRecord, ...]

    def row(self, r: int, a: int, b: int) -> Optional[ExceptionalRecord]:
        for rec in self.records:
            if (rec.r, rec.a, rec.b) == (r, a, b):
                return rec
        return None

    @cached_property
    def classes(self) -> Tuple[dlp.SlopeClass, ...]:
        """O, then the slope classes of each row of rank >= 2, in row order."""
        return (dlp.LINE_BUNDLES,) + tuple(
            cls for rec in self.records if rec.r > 1 for cls in dlp.orbit(rec, self.e))


# ---------------------------------------------------------------------------
# candidate enumeration

def solve_congruence_b(r: int, a: int, e: int) -> Optional[int]:
    """b in [0, r) with 2ab = a^2 e + a e r - r^2 - 1 (mod 2r), if solvable."""
    if r == 1:
        return 0
    if gcd(a, r) != 1:
        return None
    num = a * a * e + a * e * r - r * r - 1
    if num % 2 != 0:
        return None
    inv = pow(a, -1, r)
    b = (inv * (num // 2)) % r
    # the mod-r reduction is equivalent to the mod-2r congruence
    assert (2 * a * b - num) % (2 * r) == 0
    return b


def canonical_pair(r: int, a: int, b: int, e: int) -> Tuple[int, int]:
    """Normalize (a, b) mod twists, duals and (e=0) the fiber swap."""
    a %= r
    b %= r
    if r == 1:
        return (0, 0)
    cands = [(a, b), ((-a) % r, (-b) % r)]
    if e == 0:
        cands += [(b, a), ((-b) % r, (-a) % r)]
        ok = [c for c in cands if 2 * c[0] < r and c[0] <= c[1]]
    else:
        ok = [c for c in cands if 2 * c[0] <= r]
    if not ok:
        raise AssertionError("no canonical representative for (%d, %d, %d)" % (r, a, b))
    return min(ok)


def _candidates(r: int, e: int) -> List[Tuple[int, int]]:
    """Sorted canonical pairs (a, b) of the potentially exceptional
    characters of rank r >= 2 (none for even r on F_0)."""
    if e == 0 and r % 2 == 0:
        return []
    pairs = set()
    for a in range(1, r // 2 + 1):
        b = solve_congruence_b(r, a, e)
        if b is not None:
            pairs.add(canonical_pair(r, a, b, e))
    return sorted(pairs)


def potential_characters(e: int, rmax: int) -> List[ChernCharacter]:
    """Canonical potentially exceptional characters of rank <= rmax."""
    check_surface(e)
    if e not in (0, 1):
        raise ValueError("enumerate on F_0 or F_1 (reduce e >= 2 first), got e=%d" % e)
    out = [exceptional_character(1, 0, 0, e)]
    for r in range(2, rmax + 1):
        out += [exceptional_character(r, a, b, e) for a, b in _candidates(r, e)]
    return out


# ---------------------------------------------------------------------------
# exceptionality and stability intervals

def is_exceptional(v: ChernCharacter, e: int, table: Optional[ExceptionalTable] = None) -> bool:
    """Decide whether the potentially exceptional character v is exceptional.

    Criterion: Delta(v) >= DLP^{<r}_{-K}(nu(v)), all lower-rank exceptionals
    being anticanonically stable.  Raises ValueError unless v has positive
    rank, an integral c1 and 2 ch2, and chi(v,v) = 1.
    """
    check_surface(e)
    if e not in (0, 1):
        raise ValueError("exceptionality is decided on F_0/F_1; reduce e >= 2 first")
    key = (v.r, v.c1.a, v.c1.b, 2 * v.ch2)
    if v.r < 1 or any(t.denominator != 1 for t in key[1:]):
        raise ValueError("not a character of positive rank with integral c1 and 2 ch2: %r" % (v,))
    key = tuple(map(int, key))
    if chi2(key, key, e) != 2:
        raise ValueError("character is not potentially exceptional (chi(v,v) != 1)")
    if v.r == 1:
        return True
    if table is None or table.max_rank < v.r - 1:
        table = build_table(e, v.r - 1, base=table)
    anch = 1 - Fraction(e, 2)
    bound = dlp.dlp_below_rank(v.nu(), anch, e, v.r, table)
    return bound.value is None or v.delta(e) >= bound.value


def _strip_walls(cls: dlp.SlopeClass, r: int, A: int, B: int, e: int,
                 vertical: bool, lo: Fraction, hi: Optional[Fraction]):
    """Walls lo < m < hi (None = +inf) of the twists W of `cls` against the
    rank-r V with c1 = AE + BF, with their witnesses, in walk order (m rises
    on the vertical strip, falls on the horizontal one)."""
    rank = cls.rank
    L = lcm(r, rank)
    nx, ny = A * (L // r), B * (L // r)         # (X, Y)/L = nu(V) - nu(W)
    x0, y0 = nx - cls.a * (L // rank), ny - cls.b * (L // rank)
    bound = 2 * L * L - (L // r) ** 2 - (L // rank) ** 2
    lp, lq = lo.numerator, lo.denominator
    hp, hq = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    if vertical:
        X = x0 % L - L
        Y = lp * -X // lq + 1
    else:
        Y = y0 % L - L
        X = -Y * hq // hp + 1
    if -L in (X, Y):
        return                                  # the fixed coordinate is integral
    X += (x0 - X) % L
    Y += (y0 - Y) % L
    # on the horizontal strip of F_1, P > 0 needs 2 (Y + L) - X > 0
    while (Y * hq < hp * -X if vertical
           else X * lp < -Y * lq and e * X < 2 * (Y + L)):
        if hilbert_P2(X, Y, L, e) > bound:
            m = Fraction(-Y, X)
            if cls.stable_at(m):
                yield m, (rank, (nx - X) * rank // L, (ny - Y) * rank // L)
        X, Y = (X, Y + L) if vertical else (X + L, Y)


def stability_interval(
    v: ChernCharacter, e: int, table: ExceptionalTable
) -> Tuple[Fraction, Fraction, Optional[Witness], Optional[Witness]]:
    """Stability interval (lo, hi) of an exceptional v of rank >= 2, with the
    destabilizing bundles (rank, c1) realizing each finite endpoint.

    Only the component of 1 - e/2 between the line-bundle sentinels is
    walked.  A wall at 1 - e/2 (v is not exceptional, or the table is wrong)
    raises `existence.InternalError`.
    """
    r = v.r
    if r < 2:
        raise ValueError("stability_interval wants rank >= 2 (line bundles are always stable)")
    classes = dlp.slope_classes(table, e, r)
    A, B = v.c1.a.numerator, v.c1.b.numerator
    if not v.c1.is_integral() or A % r == 0 or B % r == 0 or v.delta(e) != exceptional_delta(r):
        raise ValueError("an exceptional character of rank >= 2 has an integral c1, a slope with "
                         "non-integral coordinates and Delta = 1/2 - 1/(2 r^2)")
    anch = 1 - Fraction(e, 2)
    walls = {}

    def record_wall(m: Fraction, wit: Witness) -> Fraction:
        if m == anch:
            raise InternalError("anticanonical stability violated at %s by %r" % (m, wit))
        walls[m] = min(walls.get(m, wit), wit)
        return m

    line = dlp.LINE_BUNDLES
    m1 = record_wall(*next(_strip_walls(line, r, A, B, e, True, anch, None)))
    m0 = Fraction(0)
    if e == 0:
        m0 = record_wall(*next(_strip_walls(line, r, A, B, e, False, m0, anch)))
    for cls in classes:
        for vertical in (True, False):
            for m, wit in _strip_walls(cls, r, A, B, e, vertical, m0, m1):
                record_wall(m, wit)

    hi = min(m for m in walls if m > anch)      # m1 is one of them
    lo = max((m for m in walls if m < anch), default=Fraction(0))
    return lo, hi, walls.get(lo), walls[hi]


def build_table(e: int, rmax: int, base: Optional[ExceptionalTable] = None) -> ExceptionalTable:
    """Complete table of exceptional bundles of rank <= rmax with intervals.

    Deterministic; staged by rank since DLP^{<r} needs all lower ranks.  An
    existing table is extended rather than recomputed.
    """
    check_surface(e)
    if e not in (0, 1):
        raise ValueError("tables exist for F_0 and F_1; reduce e >= 2 first")
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    records: List[ExceptionalRecord] = []
    done = 0
    if base is not None:
        if base.e != e:
            raise ValueError("base table is for a different surface")
        records = list(base.records)
        done = base.max_rank
    if done < 1:
        records.append(ExceptionalRecord(1, 0, 0, Fraction(0), None))
        done = 1
    for r in range(done + 1, rmax + 1):
        partial = ExceptionalTable(e, r - 1, tuple(records))
        for a, b in _candidates(r, e):
            v = exceptional_character(r, a, b, e)
            if not is_exceptional(v, e, partial):
                continue
            lo, hi, w0, w1 = stability_interval(v, e, partial)
            records.append(ExceptionalRecord(r, a, b, lo, hi, w0, w1))
    records.sort(key=lambda rec: (rec.r, rec.a, rec.b))
    return ExceptionalTable(e, max(rmax, done), tuple(records))


# ---------------------------------------------------------------------------
# cache format: one JSON object per line

def record_to_json(rec: ExceptionalRecord, e: int) -> str:
    obj = {
        "e": e,
        "r": rec.r,
        "a": rec.a,
        "b": rec.b,
        "lo": format_rational(rec.lo),
        "hi": format_rational(rec.hi),
        "w0": list(rec.w0) if rec.w0 else None,
        "w1": list(rec.w1) if rec.w1 else None,
    }
    return json.dumps(obj, separators=(", ", ": "))


def record_from_json(line: str) -> Tuple[int, ExceptionalRecord]:
    obj = json.loads(line)
    hi = None if obj["hi"] == "inf" else parse_rational(obj["hi"])
    rec = ExceptionalRecord(
        int(obj["r"]),
        int(obj["a"]),
        int(obj["b"]),
        parse_rational(obj["lo"]),
        hi,
        tuple(map(int, obj["w0"])) if obj.get("w0") else None,
        tuple(map(int, obj["w1"])) if obj.get("w1") else None,
    )
    return int(obj["e"]), rec


def _check_row(rec: ExceptionalRecord, e: int) -> None:
    """Raise ValueError unless the row could come from `build_table`."""
    r, a, b = rec.r, rec.a, rec.b
    # (a, b) in _candidates(r, e), or (0, 0) for r = 1, without the enumeration
    if not (r >= 1 and solve_congruence_b(r, a, e) == b and canonical_pair(r, a, b, e) == (a, b)):
        raise ValueError("(%d, %d) is not a canonical exceptional pair of rank %d" % (a, b, r))
    if (rec.hi is None) != (r == 1):
        raise ValueError("rank-%d row has hi = %s" % (r, format_rational(rec.hi)))
    anch = 1 - Fraction(e, 2)
    if not (0 <= rec.lo < anch and (rec.hi is None or anch < rec.hi)):
        raise ValueError("rank-%d interval (%s, %s) misses %s" % (r, rec.lo, rec.hi, anch))
    for m, wit in ((rec.lo, rec.w0), (rec.hi, rec.w1)):
        if (wit is None) != (m is None or m == 0):
            raise ValueError("endpoint %s of rank %d has witness %r" % (format_rational(m), r, wit))
        if wit is not None:
            rw, wa, wb = wit
            x, y = a * rw - wa * r, b * rw - wb * r      # r rw (nu(V) - nu(W))
            if not (0 < rw < r and x != 0 and Fraction(-y, x) == m):
                raise ValueError("witness %r does not give endpoint %s of rank %d" % (wit, m, r))


def save_table(table: ExceptionalTable, path: str) -> None:
    """Write the cache to a temporary file beside `path` and move it into
    place, so processes sharing the cache never read a partial table; on
    failure the temporary file is removed and `path` is left as it was."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        try:
            with open(tmp, "w") as fh:
                for rec in table.records:
                    fh.write(record_to_json(rec, table.e) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise CacheError("cannot write cache %s: %s" % (path, exc))


def load_table(path: str, e: int) -> ExceptionalTable:
    """Load a cache; raises CacheError on unreadable or inconsistent content."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise CacheError("cannot read cache %s: %s" % (path, exc))
    records = []
    try:
        for ln in lines:
            ee, rec = record_from_json(ln)
            if ee != e:
                raise ValueError("row for e=%d in a cache opened for e=%d" % (ee, e))
            _check_row(rec, e)
            records.append(rec)
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheError("corrupt cache %s: %s" % (path, exc))
    if not records:
        raise CacheError("cache %s is empty" % path)
    records.sort(key=lambda rec: (rec.r, rec.a, rec.b))
    if len({(rec.r, rec.a, rec.b) for rec in records}) < len(records):
        raise CacheError("cache %s repeats a row" % path)
    covered = max(rec.r for rec in records)
    return ExceptionalTable(e, covered, tuple(records))

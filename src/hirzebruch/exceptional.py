"""Exceptional bundles on F_0 and F_1: enumeration and stability intervals.

A potentially exceptional character (chi(v,v) = 1) of rank r with
c1 = aE + bF has Delta = 1/2 - 1/(2 r^2), gcd(r, a) = 1 (r odd when e is
even) and b determined mod r by

    2 a b = a^2 e + a e r - r^2 - 1  (mod 2r).

A potentially exceptional character is exceptional iff
Delta >= DLP^{<r}_{-K}(nu), decided by induction on the rank.  Only the
verdict is needed, so `_beaten` stops at the first class stable at 1 - e/2
whose DLP value beats Delta = (r^2 - 1)/(2 r^2), by cross-multiplication
(`dlp.exceeds_exceptional_delta`); for most candidates that is O itself.
`build_table` grows one table a rank at a time: it tests each canonical
(r, a, b) from its integers, nu = (a/r, b/r) with denominator r since
gcd(a, r) = 1, against the classes of the table so far, and one growth step
(`ExceptionalTable._extended`) appends the rank's rows and adds only their
orbits to the classes; only the candidates that become rows are built as
`ChernCharacter`s.  For an exceptional bundle V of rank >= 2 the stability
interval

    I_V = { m > 0 : V is mu_{H_m}-stable }

is the connected component of R_{>0} minus

    S_V = { m_{V,W} : W exceptional, r(W) < r(V), chi(W,V) > 0, m_{V,W} in I_W }

containing the anticanonical parameter 1 - e/2, where m_{V,W} = -y/x for
nu(V) - nu(W) = xE + yF.  So only the nearest wall on each side of 1 - e/2
decides I_V.  `_nearest_walls` finds them for one slope class of W in
integers over L = lcm(r(V), r(W)), (X, Y)/L = nu(V) - nu(W), on two
strips: the vertical one fixes X in (-L, 0), and m = Y/-X rises with Y; the
horizontal one fixes Y in (-L, 0), and m = -Y/X falls as X rises.
chi(W, V) > 0 reads hilbert_P2 > bound = 2 L^2 (Delta(V) + Delta(W))
= 2 L^2 - (L/r(V))^2 - (L/r(W))^2.

- The chi range.  On the vertical strip X + L >= 1, so hilbert_P2 =
  (X + L)(2Y + 2L - eX) rises strictly with Y and exceeds the bound from
  Y = first = ceil((bound // (X + L) + 1 - 2L + eX) / 2) on.  On F_0's
  horizontal strip hilbert_P2 = 2 (X + L)(Y + L), Y + L >= 1, rises with X
  and exceeds it from X = first = bound // (2 (Y + L)) + 1 - L on.  On
  F_1's horizontal strip hilbert_P2 = u (K - u), u = X + L, K = 2Y + 3L, is
  concave, and exceeds the bound exactly for |2u - K| <= isqrt(K^2 -
  4 bound - 1), from X = first to X = last.
- The nearest points.  m is monotone along a strip, so its nearest
  chi > 0 points on either side of 1 - e/2 are two: the last lattice point
  (X = x0, Y = y0 mod L) at or before the crossing, in the order of the
  moving coordinate, kept if it is in the chi range, and the first one
  after the crossing, moved up to the range's start.  On the horizontal
  strip the crossing is the integer X = -2Y/(2 - e); on F_1 the last point
  is taken at or before `last` too, one snap onto the lattice serving
  both, and the first one is kept only up to `last`.  A kept point at
  1 - e/2 itself raises `lattice.InternalError`: V is not exceptional, or
  the table is wrong.
- Walls.  Every class is stable at 1 - e/2, and I_W is open, so a nearest
  point is a wall iff its m lies strictly inside the class's own (lo, hi);
  if it does not, no point further out on its side does.
- The ends.  They start at (0, +infinity) and move to a class's wall when
  it is nearer, by cross-multiplication, keeping the smaller witness on a
  tie.  O comes first among the classes and is stable at every m > 0: its
  vertical strip always gives a finite upper end, and on F_0 its
  horizontal strip a positive lower one.  Only the two ends become
  `Fraction`s.

Characters are normalized to the ranges 0 <= a < r/2, a <= b < r (e = 0,
using the fiber swap) and 0 <= a <= r/2, 0 <= b < r (e = 1), so tables are
reproducible byte for byte.

The twist/dual/swap orbit of a table row, the slope classes with their
interval end pairs and the coverage check on a table live in `dlp`
(`SlopeClass`, `orbit`, `slope_classes`), which scans the same classes
for DLP^{<r}; a table lists its classes once, in ascending rank
(`ExceptionalTable.classes`), which the DLP walk needs to end at the first
rank that cannot beat its best.
A slope class is integers (rank, a, b) with its interval, and its Delta is
`exceptional_delta(rank)`.  `_candidates` is the one enumeration of
canonical pairs per rank, shared by `potential_characters` and
`build_table`, and `_beaten` is the one exceptionality test, behind
`is_exceptional` (which reads chi(v, v) = 1 from `lattice.chi2` on
`lattice.int_key`) and `build_table`.  A cache starts with a header line
holding e, max_rank, the rows per rank and the sha256 of the row lines;
`load_table` refuses a cache whose header is missing or does not match its
rows, and rows that fail `_check_row` (CacheError), and a sound cache of
the other surface (ValueError).  A table of rank >= 1 holds exactly
one rank-1 row, (1, 0, 0), and one of rank 0 no row: `_check_rank_one`
refuses a missing or repeated rank-1 row in a `build_table` base (ValueError)
and in a loaded cache (CacheError).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import attrgetter
from typing import List, Optional, Tuple

from . import dlp
from .lattice import (
    ChernCharacter,
    DivisorClass,
    InternalError,
    Rat,
    check_count,
    check_del_pezzo,
    check_rank,
    chi2,
    delta2,
    format_rational,
    int_key,
    parse_rational,
)

Witness = Tuple[int, int, int]  # (rank, a, b)


class CacheError(RuntimeError):
    """Exceptional-table cache could not be read or written."""


def exceptional_delta(r: int) -> Fraction:
    return Fraction(1, 2) - Fraction(1, 2 * r * r)


def exceptional_key(r: int, a: int, b: int, e: int) -> Tuple[int, int, int, Rat]:
    """(r, a, b, 2 ch2) of the unique character with chi(v,v) = 1, rank r
    and c1 = aE + bF; 2 ch2 is an int when it is integral (as for every
    twist of an exceptional bundle), else a Fraction."""
    # 2 ch2 = r (nu^2 - 2 Delta) with Delta = 1/2 - 1/(2 r^2)
    n = 2 * a * b - e * a * a - r * r + 1
    return r, a, b, n // r if n % r == 0 else Fraction(n, r)


def exceptional_character(r: int, a: int, b: int, e: int) -> ChernCharacter:
    """The unique character with chi(v,v) = 1, rank r and c1 = aE + bF."""
    s = exceptional_key(r, a, b, e)[3]
    return ChernCharacter(r, DivisorClass(a, b), Fraction(s, 2))


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
        """O, then the slope classes of each row of rank >= 2, in ascending
        rank and, within a rank, in row order, whatever order the rows come
        in: the DLP walk (`dlp._best`) ends at the first rank that cannot
        beat its best, which needs the ranks ascending."""
        return _by_rank((dlp.LINE_BUNDLES,), self.records, self.e)

    def _extended(self, max_rank: int, rows) -> "ExceptionalTable":
        """This table with `rows` appended and max_rank raised; its classes
        are this table's plus the orbit of each new row of rank >= 2."""
        rows = tuple(rows)
        table = ExceptionalTable(self.e, max_rank, self.records + rows)
        table.__dict__["classes"] = _by_rank(self.classes, rows, self.e)    # the cached_property's slot
        return table


def _by_rank(classes: Tuple[dlp.SlopeClass, ...], rows, e: int) -> Tuple[dlp.SlopeClass, ...]:
    """`classes` and the orbits of the `rows` of rank >= 2, stably sorted
    by rank."""
    new = tuple(cls for rec in rows if rec.r > 1 for cls in dlp.orbit(rec, e))
    return tuple(sorted(classes + new, key=attrgetter("rank")))


# ---------------------------------------------------------------------------
# candidate enumeration

def solve_congruence_b(r: int, a: int, e: int) -> Optional[int]:
    """b in [0, r) with 2ab = a^2 e + a e r - r^2 - 1 (mod 2r), if solvable."""
    if gcd(a, r) != 1:
        return None
    num = a * a * e + a * e * r - r * r - 1
    if num % 2 != 0:
        return None
    inv = pow(a, -1, r)
    b = (inv * (num // 2)) % r
    # the mod-r reduction is equivalent to the mod-2r congruence
    if (2 * a * b - num) % (2 * r) != 0:
        raise InternalError("b = %d solves the congruence mod %d only" % (b, r))
    return b


def canonical_pair(r: int, a: int, b: int, e: int) -> Tuple[int, int]:
    """Normalize (a, b) mod twists, duals and (e=0) the fiber swap."""
    a %= r
    b %= r
    images = [(x % r, y % r) for x, y, _ in dlp._images(a, b, e)]
    ok = [c for c in images if (2 * c[0] < r and c[0] <= c[1] if e == 0 else 2 * c[0] <= r)]
    if not ok:
        raise InternalError("no canonical representative for (%d, %d, %d)" % (r, a, b))
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
    check_del_pezzo(e)
    check_count(rmax, "rmax")
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
    check_del_pezzo(e)
    key = int_key(v)
    if chi2(key, key, e) != 2:
        raise ValueError("character is not potentially exceptional (chi(v,v) != 1)")
    r, a, b, _ = key
    if r == 1:
        return True
    if table is None or table.max_rank < r - 1:
        table = build_table(e, r - 1, base=table)
    return not _beaten(dlp.slope_classes(table, e, r), r, a, b, e)


def _beaten(classes, r: int, a: int, b: int, e: int) -> bool:
    """Whether a class of `classes` beats Delta = 1/2 - 1/(2 r^2) at
    nu = (a/r, b/r) and m = 1 - e/2 (chi(v, v) = 1 fixes that Delta)."""
    return dlp.exceeds_exceptional_delta(classes, a, b, r, 2 - e, 2, e)     # m as a pair


def _nearest_walls(cls: dlp.SlopeClass, r: int, A: int, B: int, e: int, ends):
    """`ends` = (lo, w0, hi, w1), end pairs lo < 1 - e/2 < hi with their
    witnesses, moved to the walls of the twists W of `cls` against the
    rank-r V with c1 = AE + BF nearest to 1 - e/2 on either side, where
    those are nearer (on a tie, to the smaller witness); the two points
    per strip of the module docstring."""
    lo, w0, hi, w1 = ends
    rank, ca, cb, (lp, lq), (hp, hq) = cls
    L = lcm(r, rank)
    k = L // rank
    nx, ny = A * (L // r), B * (L // r)         # (X, Y)/L = nu(V) - nu(W)
    x0, y0 = nx - ca * k, ny - cb * k
    bound = 2 * L * L - (L // r) ** 2 - k * k
    X = x0 % L - L
    if X != -L:                                 # else the fixed coordinate is integral
        # vertical strip, m = Y/-X: chi(W, V) > 0 from Y = first on
        first = -((2 * L - e * X - 1 - bound // (X + L)) // 2)
        Y = (2 - e) * -X // 2
        Y -= (Y - y0) % L                       # the last lattice Y at or below the crossing
        if Y >= first:
            wit = (rank, (nx - X) // k, (ny - Y) // k)
            if 2 * Y == (2 - e) * -X:
                raise InternalError("anticanonical stability violated at 1 - e/2 by %r" % (wit,))
            if lp * -X < Y * lq and (lo[0] * -X - Y * lo[1], wit) < (0, w0):
                lo, w0 = (Y, -X), wit
        Y = max(Y + L, first + (y0 - first) % L)   # the first one above it with chi > 0
        if Y * hq < hp * -X:
            wit = (rank, (nx - X) // k, (ny - Y) // k)
            if (Y * hi[1] - hi[0] * -X, wit) < (0, w1):
                hi, w1 = (Y, -X), wit
    Y = y0 % L - L
    if Y == -L:
        return lo, w0, hi, w1
    # horizontal strip, m = -Y/X: chi(W, V) > 0 from X = first on, and on
    # F_1 up to X = last
    c = -2 * Y // (2 - e)                       # X at m = 1 - e/2
    if e == 0:
        first, X = bound // (2 * (Y + L)) + 1 - L, c
    else:
        K = 2 * Y + 3 * L                       # hilbert_P2 = u (K - u), u = X + L
        D = K * K - 4 * bound                   # u (K - u) > bound iff (2u - K)^2 < D
        if D <= 0:
            return lo, w0, hi, w1
        u = (K + isqrt(D - 1)) // 2             # the largest u; the least is K - u
        first, last = K - u - L, u - L
        X = min(c, last)
    X -= (X - x0) % L                           # the last lattice X at or before both
    if X >= first:
        wit = (rank, (nx - X) // k, (ny - Y) // k)
        if X == c:
            raise InternalError("anticanonical stability violated at 1 - e/2 by %r" % (wit,))
        if -Y * hq < hp * X and (-Y * hi[1] - hi[0] * X, wit) < (0, w1):
            hi, w1 = (-Y, X), wit
    X = max(X + L, first + (x0 - first) % L)    # the first one past the crossing with chi > 0
    if (e == 0 or X <= last) and lp * X < -Y * lq:
        wit = (rank, (nx - X) // k, (ny - Y) // k)
        if (lo[0] * X + Y * lo[1], wit) < (0, w0):
            lo, w0 = (-Y, X), wit
    return lo, w0, hi, w1


def stability_interval(
    v: ChernCharacter, e: int, table: ExceptionalTable
) -> Tuple[Fraction, Fraction, Optional[Witness], Optional[Witness]]:
    """Stability interval (lo, hi) of an exceptional v of rank >= 2, with the
    destabilizing bundles (rank, c1) realizing each finite endpoint.

    Each slope class of rank < r moves the ends, from (0, +infinity), to
    its nearest walls on either side of 1 - e/2 (`_nearest_walls`).  A
    wall at 1 - e/2 (v is not exceptional, or the table is wrong) raises
    `lattice.InternalError`.
    """
    check_del_pezzo(e)
    r = v.r
    if r < 2:
        raise ValueError("stability_interval wants rank >= 2 (line bundles are always stable)")
    classes = dlp.slope_classes(table, e, r)
    key = int_key(v)
    _, A, B, _ = key
    if A % r == 0 or B % r == 0 or delta2(key, e) != r * r - 1:
        raise ValueError("an exceptional character of rank >= 2 has a slope with non-integral "
                         "coordinates and Delta = 1/2 - 1/(2 r^2)")
    ends = (0, 1), None, (1, 0), None
    for cls in classes:
        ends = _nearest_walls(cls, r, A, B, e, ends)
    lo, w0, hi, w1 = ends
    return Fraction(*lo), Fraction(*hi), w0, w1


def build_table(e: int, rmax: int, base: Optional[ExceptionalTable] = None) -> ExceptionalTable:
    """Complete table of exceptional bundles of rank <= rmax with intervals.

    Deterministic; staged by rank since DLP^{<r} needs all lower ranks.  An
    existing table is extended rather than recomputed.
    """
    check_del_pezzo(e)
    check_rank(rmax, "rmax")
    if base is None:
        base = ExceptionalTable(e, 0, ())
    elif base.e != e:
        raise ValueError("base table is for a different surface")
    rows = tuple(sorted(base.records, key=_row_order))
    _check_rank_one(rows, base.max_rank)
    table = base if rows == base.records else ExceptionalTable(e, base.max_rank, rows)
    if table.max_rank == 0:
        table = table._extended(1, [ExceptionalRecord(1, 0, 0, Fraction(0), None)])
    for r in range(table.max_rank + 1, rmax + 1):
        new = []
        for a, b in _candidates(r, e):
            if not _beaten(table.classes, r, a, b, e):
                lo, hi, w0, w1 = stability_interval(exceptional_character(r, a, b, e), e, table)
                new.append(ExceptionalRecord(r, a, b, lo, hi, w0, w1))
        table = table._extended(r, new)
    return table


def _row_order(rec: ExceptionalRecord) -> Tuple[int, int, int]:
    return rec.r, rec.a, rec.b


def _check_rank_one(rows, max_rank: int) -> None:
    """Raise ValueError unless the sorted `rows` of a table of rank
    <= max_rank are none for max_rank 0 and otherwise start with the one
    rank-1 row, (1, 0, 0)."""
    if max_rank == 0:
        if rows:
            raise ValueError("a table of rank <= 0 has rows")
    elif not rows or _row_order(rows[0]) != (1, 0, 0) or rows[1:2] and rows[1].r == 1:
        raise ValueError("a table of rank <= %d needs exactly one rank-1 row, (1, 0, 0)" % max_rank)


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


def _json_ints(name: str, values: list) -> list:
    """`values` when each is a JSON integer (a bool is not one), else ValueError."""
    for x in values:
        if type(x) is not int:
            raise ValueError("%s = %s holds %s, not a JSON integer" % (name, json.dumps(values), json.dumps(x)))
    return values


def record_from_json(line: str) -> Tuple[int, ExceptionalRecord]:
    obj = json.loads(line)
    e, r, a, b = _json_ints("(e, r, a, b)", [obj["e"], obj["r"], obj["a"], obj["b"]])
    w0, w1 = obj.get("w0"), obj.get("w1")
    hi = None if obj["hi"] == "inf" else parse_rational(obj["hi"])
    return e, ExceptionalRecord(r, a, b, parse_rational(obj["lo"]), hi,
                                tuple(_json_ints("w0", w0)) if w0 else None,
                                tuple(_json_ints("w1", w1)) if w1 else None)


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


def _header(e: int, max_rank: int, ranks: List[int], rows: List[str]) -> str:
    """The cache's first line: e, max_rank, the number of rows of each rank
    from 1 to the larger of max_rank and the highest row, and the sha256 of
    the row lines, each ended by a newline."""
    import hashlib      # loads OpenSSL (3.6 MB of RSS, CPython 3.11 on Linux x86-64)

    counts = Counter(ranks)
    top = max([max_rank, *ranks])
    digest = hashlib.sha256("".join(ln + "\n" for ln in rows).encode()).hexdigest()
    obj = {"e": e, "max_rank": max_rank,
           "rows_per_rank": [counts[r] for r in range(1, top + 1)], "sha256": digest}
    return json.dumps(obj, separators=(", ", ": "))


def save_table(table: ExceptionalTable, path: str) -> None:
    """Write the cache, a header line and one line per row, to a temporary
    file beside `path` and move it into place, so processes sharing the
    cache never read a partial table; on failure the temporary file is
    removed and `path` is left as it was."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        try:
            rows = [record_to_json(rec, table.e) for rec in table.records]
            head = _header(table.e, table.max_rank, [rec.r for rec in table.records], rows)
            with open(tmp, "w") as fh:
                fh.write("".join(ln + "\n" for ln in [head] + rows))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise CacheError("cannot write cache %s: %s" % (path, exc))


def load_table(path: str, e: int) -> ExceptionalTable:
    """Load a cache; raises CacheError on unreadable or inconsistent content,
    a missing header or rows that do not match it.  The table covers the
    header's max_rank.  A sound cache of the other surface raises ValueError,
    as a `build_table` base of the other surface does: it is not corrupt, so
    it is no reason to rebuild the file in place."""
    check_del_pezzo(e)
    table = _read_table(path)
    if table.e != e:
        raise ValueError("cache %s holds the table of F_%d, not of F_%d" % (path, table.e, e))
    return table


def _read_table(path: str) -> ExceptionalTable:
    """The table of the surface its header names, parsed once."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise CacheError("cannot read cache %s: %s" % (path, exc))
    try:
        head = json.loads(lines[0])
    except (IndexError, ValueError):
        head = None
    if not (isinstance(head, dict) and list(head) == ["e", "max_rank", "rows_per_rank", "sha256"]
            and type(head["e"]) is int and 0 <= head["e"] <= 1
            and type(head["max_rank"]) is int and head["max_rank"] >= 1):
        raise CacheError("cache %s has no header line" % path)
    e = head["e"]
    rows = lines[1:]
    records = []
    try:
        for ln in rows:
            ee, rec = record_from_json(ln)
            if ee != e:
                raise CacheError("cache %s does not match its header (e)" % path)
            _check_row(rec, e)
            records.append(rec)
        records.sort(key=_row_order)
        _check_rank_one(records, head["max_rank"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheError("corrupt cache %s: %s" % (path, exc))
    if len({_row_order(rec) for rec in records}) < len(records):
        raise CacheError("cache %s repeats a row" % path)
    want = json.loads(_header(e, head["max_rank"], [rec.r for rec in records], rows))
    wrong = [k for k in want if head[k] != want[k]]
    if wrong:
        raise CacheError("cache %s does not match its header (%s)" % (path, ", ".join(wrong)))
    return ExceptionalTable(e, head["max_rank"], tuple(records))

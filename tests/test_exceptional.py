import hashlib
import json
import os
import random
import re
from fractions import Fraction as Q

import pytest

from conftest import fraction_end
from hirzebruch import (
    build_table,
    euler_pair,
    exceptional_character,
    is_exceptional,
    load_table,
    mu,
    potential_characters,
    save_table,
    stability_interval,
)
from hirzebruch import dlp, exceptional
from hirzebruch.dlp import InsufficientTable
from hirzebruch.exceptional import (
    CacheError,
    ExceptionalRecord,
    ExceptionalTable,
    canonical_pair,
    record_from_json,
    record_to_json,
    solve_congruence_b,
)
from hirzebruch.existence import InternalError
from hirzebruch.lattice import ChernCharacter, DivisorClass, hilbert_P

TABLE1 = [
    (1, (0, 0), (0, None), None, None),
    (3, (1, 1), (Q(1, 2), 2), (1, -1, 1), (1, 1, -1)),
    (5, (1, 2), (Q(1, 2), 3), (1, -1, 1), (1, 1, -2)),
    (7, (1, 3), (Q(1, 2), 4), (1, -1, 1), (1, 1, -3)),
    (9, (1, 4), (Q(1, 2), 5), (1, -1, 1), (1, 1, -4)),
    (11, (1, 5), (Q(1, 2), 6), (1, -1, 1), (1, 1, -5)),
    (11, (4, 4), (Q(4, 7), Q(7, 4)), (5, -2, 4), (5, 4, -2)),
    (13, (1, 6), (Q(1, 2), 7), (1, -1, 1), (1, 1, -6)),
    (15, (1, 7), (Q(1, 2), 8), (1, -1, 1), (1, 1, -7)),
    (17, (1, 8), (Q(1, 2), 9), (1, -1, 1), (1, 1, -8)),
    (17, (5, 5), (Q(8, 9), Q(9, 8)), (7, 1, 3), (7, 3, 1)),
    (19, (1, 9), (Q(1, 2), 10), (1, -1, 1), (1, 1, -9)),
    (19, (4, 7), (Q(8, 9), 3), (7, 1, 3), (1, 1, -2)),
]

TABLE2 = [
    (1, (0, 0), (0, None), None, None),
    (2, (1, 1), (0, 1), None, (1, 1, 0)),
    (4, (1, 2), (0, 2), None, (1, 1, -1)),
    (5, (2, 2), (0, Q(2, 3)), None, (1, 1, 0)),
    (6, (1, 3), (0, 3), None, (1, 1, -2)),
    (8, (1, 4), (0, 4), None, (1, 1, -3)),
    (10, (1, 5), (0, 5), None, (1, 1, -4)),
    (11, (3, 5), (Q(3, 7), 2), (6, 1, 3), (1, 1, -1)),
    (12, (1, 6), (0, 6), None, (1, 1, -5)),
    (13, (5, 5), (0, Q(5, 8)), None, (1, 1, 0)),
    (14, (1, 7), (0, 7), None, (1, 1, -6)),
    (16, (1, 8), (0, 8), None, (1, 1, -7)),
    (18, (1, 9), (0, 9), None, (1, 1, -8)),
    (19, (5, 10), (Q(1, 9), Q(9, 5)), (5, -2, 3), (6, 5, -3)),
    (20, (1, 10), (0, 10), None, (1, 1, -9)),
]


def as_rows(table):
    return [
        (r.r, (r.a, r.b), (r.lo, r.hi), r.w0, r.w1)
        for r in table.records
    ]


def test_congruence_and_candidates():
    # e = 0, rank 3 includes (1,1); no even ranks on F_0; e = 1 rank 2 gives (1,1)
    chars0 = potential_characters(0, 3)
    assert any(v.r == 3 and v.c1.a == 1 and v.c1.b == 1 for v in chars0)
    assert all(v.r % 2 == 1 for v in chars0)
    assert solve_congruence_b(2, 1, 0) is None or potential_characters(0, 2)[-1].r == 1
    assert [v.r for v in potential_characters(0, 2)] == [1]
    chars1 = potential_characters(1, 2)
    assert any(v.r == 2 and (v.c1.a, v.c1.b) == (1, 1) for v in chars1)
    # every candidate is potentially exceptional with the right discriminant
    for e in (0, 1):
        for v in potential_characters(e, 9):
            assert euler_pair(v, v, e) == 1
            assert v.delta(e) == Q(1, 2) - Q(1, 2 * v.r * v.r)
            assert v.is_integral(e)


def test_potential_characters_rmax_is_a_count():
    # rmax = 0 keeps [O]; a bool, float or string is refused by name, where
    # True used to answer as 1 and 2.5 to raise a bare TypeError
    for e in (0, 1):
        assert potential_characters(e, 0) == potential_characters(e, 1) == [exceptional_character(1, 0, 0, e)]
        for rmax in (True, False, 2.5, 1.0, "3", Q(3), None, -1):
            with pytest.raises(ValueError, match="rmax must be a non-negative integer") as info:
                potential_characters(e, rmax)
            assert repr(rmax) in str(info.value)


def test_canonical_pair_ranges():
    for (r, a, b) in [(5, 3, 4), (5, 4, 3), (7, 6, 5), (11, 8, 1)]:
        for e in (0, 1):
            ca, cb = canonical_pair(r, a, b, e)
            if e == 0:
                assert 0 <= ca < r / 2 and ca <= cb < r
            else:
                assert 0 <= 2 * ca <= r and 0 <= cb < r


def test_is_exceptional(table0, table1):
    assert is_exceptional(exceptional_character(1, 0, 0, 0), 0, table0)
    assert is_exceptional(exceptional_character(3, 1, 1, 0), 0, table0)
    # rank 3 is absent from the F_1 table: every rank-3 candidate fails
    for v in potential_characters(1, 3):
        if v.r == 3:
            assert not is_exceptional(v, 1, table1)
    with pytest.raises(ValueError):
        is_exceptional(exceptional_character(3, 1, 1, 0) + exceptional_character(1, 0, 0, 0), 0, table0)
    # chi(v, v) = 1 but 2 ch2 = -8/3: no integer key
    with pytest.raises(ValueError, match="integral c1 and 2 ch2"):
        is_exceptional(exceptional_character(3, 1, 0, 0), 0, table0)


def test_tables_match_golden(table0, table1):
    rows0 = as_rows(table0)
    assert rows0 == [(r, ab, (Q(lo), None if hi is None else Q(hi)), w0, w1) for (r, ab, (lo, hi), w0, w1) in TABLE1]
    rows1 = as_rows(table1)
    assert rows1 == [(r, ab, (Q(lo), None if hi is None else Q(hi)), w0, w1) for (r, ab, (lo, hi), w0, w1) in TABLE2]


def test_build_table_rank_one():
    t = build_table(0, 1)
    assert len(t.records) == 1 and t.records[0].r == 1
    t = build_table(1, 1)
    assert as_rows(t) == [(1, (0, 0), (Q(0), None), None, None)]


def test_incremental_build(table1):
    t_small = build_table(1, 6)
    t_ext = build_table(1, 20, base=t_small)
    assert as_rows(t_ext) == as_rows(table1)


def test_first_beating_class_decides_as_the_full_scan(wide_tables):
    # every candidate of rank <= 30: stopping at the first stable class that
    # beats Delta answers as Delta(v) >= DLP^{<r}_{-K}(nu) over all classes.
    # Every exceptional one ties (DLP = Delta), so a stop on `>=` fails here.
    for table in wide_tables:
        e = table.e
        anch = 1 - Q(e, 2)
        ties = 0
        for r in range(2, 31):
            classes = dlp.slope_classes(table, e, r)
            for a, b in exceptional._candidates(r, e):
                v = exceptional_character(r, a, b, e)
                full = dlp.dlp_below_rank(v.nu(), anch, e, r, table).value
                want = full is None or v.delta(e) >= full
                assert (not exceptional._beaten(classes, r, a, b, e)) == want, (e, r, a, b)
                assert is_exceptional(v, e, table) == want
                assert want == (table.row(r, a, b) is not None)
                ties += full == v.delta(e)
        assert ties == sum(1 for rec in table.records if 1 < rec.r <= 30)


# sha256 of the row lines of build_table(e, 60), as computed before the
# early stop (44 rows on F_0, 49 on F_1)
ROWS60 = {
    0: (44, "1137c0d83b467f47abde2457ac8e834d0e68f19d71bc4dfa4d4fd9445f30f222"),
    1: (49, "135c7c5aa382c1b55fe557e5b64498ba4746bb6756b6320286cb266b59a7e8c8"),
}


def test_rank_sixty_rows_are_unchanged():
    for e, (count, digest) in ROWS60.items():
        table = build_table(e, 60)
        rows = "".join(record_to_json(rec, e) + "\n" for rec in table.records)
        assert (len(table.records), hashlib.sha256(rows.encode()).hexdigest()) == (count, digest)


def test_extension_equals_the_build_from_scratch():
    # every base rank up to 12, the even F_0 ranks (no rows) included, the
    # empty base (no rank-1 row) and a base whose rows are reversed
    for e in (0, 1):
        whole = build_table(e, 40)
        assert whole.classes == ExceptionalTable(e, 40, whole.records).classes
        bases = [build_table(e, k) for k in range(1, 13)]
        reversed_base = ExceptionalTable(e, 12, bases[-1].records[::-1])
        for base in bases + [ExceptionalTable(e, 0, ()), reversed_base]:
            ext = build_table(e, 40, base=base)
            assert (ext.max_rank, ext.records, ext.classes) == (40, whole.records, whole.classes), (e, base)
        # a base that already covers rmax comes back normalized
        assert build_table(e, 1, base=ExceptionalTable(e, 0, ())).records == bases[0].records
        small = build_table(e, 5, base=reversed_base)
        assert (small.max_rank, small.records, small.classes) == (12, bases[-1].records, bases[-1].classes)
        # a base whose rank-1 row is repeated (a rank-0 table with that row)
        # or missing used to come out with two (1, 0, 0) rows or none
        for base in (ExceptionalTable(e, 0, bases[0].records), ExceptionalTable(e, 2, ()),
                     ExceptionalTable(e, 12, bases[-1].records[1:])):
            with pytest.raises(ValueError, match="rank <= %d" % base.max_rank):
                build_table(e, 40, base=base)


def test_build_makes_characters_and_orbits_of_new_rows_only(monkeypatch):
    # a rejected candidate never becomes a ChernCharacter, and the class list
    # grows by one orbit per new row
    counts = {"character": 0, "orbit": 0}

    def counted(fn, name):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(exceptional, "exceptional_character",
                        counted(exceptional.exceptional_character, "character"))
    monkeypatch.setattr(dlp, "orbit", counted(dlp.orbit, "orbit"))
    for e, top in ((0, 39), (1, 40)):
        counts.update(character=0, orbit=0)
        table = build_table(e, top)
        rows = len(table.records) - 1
        assert counts == {"character": rows, "orbit": rows}
        # an extension reads its base's classes and adds the new rows' orbits
        counts.update(character=0, orbit=0)
        added = len(build_table(e, top + 5, base=table).records) - len(table.records)
        assert added > 0 and counts == {"character": added, "orbit": added}


def test_row_lookup(table0, table1):
    for table in (table0, table1):
        for rec in table.records:
            assert table.row(rec.r, rec.a, rec.b) is rec
    assert table0.row(3, 1, 2) is None
    assert table1.row(21, 1, 1) is None


def test_stability_interval_examples(table0, table1):
    lo, hi, w0, w1 = stability_interval(exceptional_character(3, 1, 1, 0), 0, table0)
    assert (lo, hi, w0, w1) == (Q(1, 2), 2, (1, -1, 1), (1, 1, -1))
    lo, hi, w0, w1 = stability_interval(exceptional_character(11, 3, 5, 1), 1, table1)
    assert (lo, hi, w0, w1) == (Q(3, 7), 2, (6, 1, 3), (1, 1, -1))
    lo, hi, w0, w1 = stability_interval(exceptional_character(17, 5, 5, 0), 0, table0)
    assert (lo, hi, w0, w1) == (Q(8, 9), Q(9, 8), (7, 1, 3), (7, 3, 1))


def test_stability_interval_refusals(table0, table1):
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(1, 0, 0, 0), 0, table0)
    # c1 = 3E + F on rank 3: the slope has an integral E-coordinate
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(3, 3, 1, 0), 0, table0)
    # Delta other than 1/2 - 1/(2 r^2), and a half-integral c1
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(5, 1, 2, 0) + exceptional_character(1, 0, 0, 0), 0, table0)
    with pytest.raises(ValueError):
        stability_interval(ChernCharacter(3, DivisorClass(Q(1, 2), 1), 0), 0, table0)
    # a table for the other surface, and one that stops below rank r - 1
    with pytest.raises(ValueError):
        stability_interval(exceptional_character(3, 1, 1, 0), 0, table1)
    with pytest.raises(InsufficientTable):
        stability_interval(exceptional_character(5, 1, 2, 0), 0, build_table(0, 3))


def fraction_strip_walls(cls, v, e, vertical, lo, hi, box):
    """The walls lo < m < hi of the twists by iE + jF, |i|, |j| <= box, of
    `cls` against v on one strip, by brute force in Fraction arithmetic."""
    nu = v.nu()
    dv, dw = v.delta(e), exceptional.exceptional_delta(cls.rank)
    xs = [(i, nu.a - Q(cls.a, cls.rank) - i) for i in range(-box, box + 1)]
    ys = [(j, nu.b - Q(cls.b, cls.rank) - j) for j in range(-box, box + 1)]
    out = []
    for i, x in xs:
        for j, y in ys:
            if not (-1 < (x if vertical else y) < 0) or (y if vertical else x) <= 0:
                continue
            m = -y / x
            if lo < m < hi and hilbert_P(DivisorClass(x, y), e) > dv + dw and in_interval(cls, m):
                out.append((m, (cls.rank, cls.a + i * cls.rank, cls.b + j * cls.rank)))
    return out


BOX = (Q(1, 8), Q(8))


def fraction_walls(cls, v, e):
    """The walls in BOX of `cls` against v on both strips, m -> smallest
    witness, by brute force."""
    walls = {}
    for vertical in (True, False):
        for m, wit in fraction_strip_walls(cls, v, e, vertical, *BOX, 10):
            walls[m] = min(walls.get(m, wit), wit)
    return walls


def check_nearest_walls(cls, v, e, walls):
    """`_nearest_walls` started from the ends of BOX moves them to the
    nearest of `walls` on either side of 1 - e/2, the smaller witness on a
    tie, and a side without one keeps its end.  BOX is open: its ends start
    with the witness (), which is below every (rank, a, b) and so keeps the
    end on a tie with a wall on it.  Started from the nearest walls
    themselves, a witness () stays and (99,) gives way to the wall's."""
    anch = 1 - Q(e, 2)
    lo = max((m for m in walls if m < anch), default=BOX[0])
    hi = min((m for m in walls if m > anch), default=BOX[1])
    A, B = int(v.c1.a), int(v.c1.b)
    lp, w0, hp, w1 = exceptional._nearest_walls(cls, v.r, A, B, e, ((1, 8), (), (8, 1), ()))
    assert (Q(*lp), w0, Q(*hp), w1) == (lo, walls.get(lo, ()), hi, walls.get(hi, ())), (e, v, cls)
    for w in ((), (99,)):
        wl, wh = (w if t in walls else () for t in (lo, hi))     # a BOX end keeps ()
        start = ((lo.numerator, lo.denominator), wl, (hi.numerator, hi.denominator), wh)
        lp, w0, hp, w1 = exceptional._nearest_walls(cls, v.r, A, B, e, start)
        want = (lo, walls.get(lo, ()), hi, walls.get(hi, ())) if w else (lo, (), hi, ())
        assert (Q(*lp), w0, Q(*hp), w1) == want, (e, v, cls, w)


def test_strip_walls_match_fraction_enumeration(table0, table1):
    # both strips of every class against the rows of rank <= 15 (8 random
    # classes above)
    rng = random.Random(5)
    for table in (table0, table1):
        e = table.e
        classes = dlp.slope_classes(table, e, 20)
        for rec in table.records:
            if rec.r < 3:
                continue
            v = rec.character(e)
            for cls in (classes if rec.r <= 15 else rng.sample(classes, 8)):
                check_nearest_walls(cls, v, e, fraction_walls(cls, v, e))


def test_nearest_walls_of_made_up_classes():
    # classes of no table, against potentially exceptional characters of
    # rank <= 15, exceptional or not: random ranks and slopes, a quarter of
    # them sharing V's E- (F-) coordinate mod 1 so that only the horizontal
    # (vertical) strip is read, and ends drawn from their own walls, the
    # nearest ones among them, so the open ends are hit exactly.  A class
    # with a wall at 1 - e/2 raises.
    rng = random.Random(7)
    seen = {"raise": 0, "lo": 0, "hi": 0}
    for e in (0, 1):
        anch = 1 - Q(e, 2)
        vs = [(r, a, b) for r in range(3, 16) for a, b in exceptional._candidates(r, e)]
        for _ in range(600):
            r, A, B = rng.choice(vs)
            v = exceptional_character(r, A, B, e)
            rank = rng.randint(1, 12)
            ca, cb = rng.randrange(-rank, rank), rng.randrange(-rank, rank)
            strips = rng.randrange(4)
            if strips < 2:
                rank = r
                ca, cb = (ca, B) if strips else (A, cb)
            cls = dlp.SlopeClass(rank, ca, cb, (0, 1), (1, 0))
            walls = fraction_walls(cls, v, e)
            if anch in walls:
                seen["raise"] += 1
                with pytest.raises(InternalError):
                    exceptional._nearest_walls(cls, r, A, B, e, ((0, 1), None, (1, 0), None))
                continue
            below = sorted(m for m in walls if m < anch)
            above = sorted(m for m in walls if m > anch)
            lo = rng.choice([Q(0)] + below[-1:] + below)
            hi = rng.choice([None] + above[:1] + above)
            cls = cls._replace(lo=(lo.numerator, lo.denominator),
                               hi=(1, 0) if hi is None else (hi.numerator, hi.denominator))
            walls = {m: wit for m, wit in walls.items() if in_interval(cls, m)}
            check_nearest_walls(cls, v, e, walls)
            seen["lo"] += any(m < anch for m in walls)
            seen["hi"] += any(m > anch for m in walls)
    assert min(seen.values()) > 0, seen


def test_wall_at_anticanonical_parameter_is_internal_error():
    # potentially exceptional characters that are not exceptional: O(F)
    # cuts (7, 2E + 6F) on F_1 at m = 1/2 on its horizontal strip, and O(E)
    # cuts (23, 9E + 14F) on F_0 and (23, 9E + 7F) on F_1 at 1 - e/2 on
    # their vertical strips
    for e, r, a, b, wit in ((1, 7, 2, 6, (1, 0, 1)), (0, 23, 9, 14, (1, 1, 0)), (1, 23, 9, 7, (1, 1, 0))):
        v = exceptional_character(r, a, b, e)
        table = build_table(e, r - 1)
        assert not is_exceptional(v, e, table)
        with pytest.raises(InternalError, match=re.escape(repr(wit))):
            stability_interval(v, e, table)
    # (5, E + 2F) on F_1 has 2 ch2 = -21/5, so it is refused as input
    # before any wall is walked, even against a fabricated rank-2 row
    small = build_table(1, 4)
    table = ExceptionalTable(1, 4, small.records + (ExceptionalRecord(2, 0, 1, Q(0), None),))
    with pytest.raises(ValueError, match="integral c1 and 2 ch2"):
        stability_interval(exceptional_character(5, 1, 2, 1), 1, table)


def in_interval(cls, m):
    """The open-interval test of a slope class, in Fractions."""
    lo, hi = fraction_end(cls.lo), fraction_end(cls.hi)
    return lo < m and (hi is None or m < hi)


def test_is_stable_at(table0, table1):
    # a row's own slope class comes first in its orbit
    cls = dlp.orbit(table0.row(3, 1, 1), 0)[0]
    assert in_interval(cls, Q(1))
    assert not in_interval(cls, Q(2))  # strictly semistable at the endpoint
    assert not in_interval(cls, Q(1, 2))
    # (1/2, 2) is open at both ends, whatever the denominators
    assert (fraction_end(cls.lo), fraction_end(cls.hi)) == (Q(1, 2), Q(2))
    assert in_interval(cls, Q(501, 1000)) and in_interval(cls, Q(1999, 1000))
    assert not in_interval(cls, Q(499, 1000)) and not in_interval(cls, Q(2001, 1000))
    for m in (Q(1, 100), Q(1), Q(17)):
        assert in_interval(dlp.LINE_BUNDLES, m)
    # lo = 0: stable down to any m > 0, and hi is still excluded
    low = dlp.orbit(table1.row(2, 1, 1), 1)[0]
    assert fraction_end(low.lo) == 0 and fraction_end(low.hi) == 1
    assert in_interval(low, Q(1, 10**6)) and in_interval(low, Q(999, 1000))
    assert not in_interval(low, Q(1)) and not in_interval(low, Q(0))
    assert not in_interval(dlp.LINE_BUNDLES, Q(0))


def test_best_reads_unreduced_pairs(table0):
    # m may come as an unreduced pair, as `_beaten` passes (2, 2) on F_0, so
    # `dlp._best` at (k p, k q) must answer as at (p, q); checked on and
    # around the class ends, 0 and +inf included, on swapped classes too
    swapped = []
    for lo, hi in ((Q(0), Q(2)), (Q(1, 2), None)):
        # hand-made F_0 rows: the fiber swap (1/hi, 1/lo) trades 0 and +inf
        cls = dlp.orbit(ExceptionalRecord(5, 1, 2, lo, hi), 0)[2]
        assert (cls.a, cls.b) == (2, 1)
        assert fraction_end(cls.lo) == (0 if hi is None else 1 / hi)
        assert fraction_end(cls.hi) == (None if lo == 0 else 1 / lo)
        swapped.append(cls)
    classes = [dlp.LINE_BUNDLES] + swapped + list(dlp.orbit(table0.row(5, 1, 2), 0))
    ends = {t for cls in classes for t in map(fraction_end, (cls.lo, cls.hi)) if t is not None}
    ms = {Q(1, 3), Q(1), Q(7, 2)} | {t + d for t in ends for d in (Q(-1, 1000), Q(0), Q(1, 1000))}
    stable = set()
    for m in sorted(t for t in ms if t > 0):
        stable |= {cls for cls in classes if in_interval(cls, m)}
        for x, y, den in ((1, 2, 3), (-4, 3, 5), (2, 2, 7)):
            want = dlp._best(classes, x, y, den, m.numerator, m.denominator, 0)
            for k in (2, 3, 12):
                assert dlp._best(classes, x, y, den, k * m.numerator, k * m.denominator, 0) == want, (m, k)
    assert stable == set(classes)


def test_record_invariants(table0, table1, wide_tables):
    for table in (table0, table1) + wide_tables:
        e = table.e
        anch = 1 - Q(e, 2)
        for rec in table.records:
            v = rec.character(e)
            assert euler_pair(v, v, e) == 1
            assert v.is_integral(e)
            # the anticanonical parameter lies strictly inside every interval
            assert rec.lo < anch and (rec.hi is None or anch < rec.hi)
            exceptional._check_row(rec, e)  # the check a cache load makes
            # endpoint certificates: equal slope, chi(W, V) > 0, endpoint in I_W
            for endpoint, wit in ((rec.lo, rec.w0), (rec.hi, rec.w1)):
                if wit is None:
                    continue
                w = exceptional_character(wit[0], wit[1], wit[2], e)
                assert mu(v, endpoint) == mu(w, endpoint)
                assert euler_pair(w, v, e) > 0
                lo_w, hi_w = witness_interval(table, wit, e)
                assert lo_w < endpoint and (hi_w is None or endpoint < hi_w)


def witness_interval(table, wit, e):
    rw, wa, wb = wit
    if rw == 1:
        return (Q(0), None)
    base = table.row(rw, *canonical_pair(rw, wa, wb, e))
    assert base is not None
    for cls in dlp.orbit(base, e):
        if (wa - cls.a) % rw == 0 and (wb - cls.b) % rw == 0:
            return (fraction_end(cls.lo), fraction_end(cls.hi))
    raise AssertionError("witness %r not in the orbit of its canonical row" % (wit,))


def test_quotient_side_interval_oracle(table0, table1, wide_tables):
    # re-deriving every interval with the quotient condition chi(V, W) > 0
    # instead of chi(W, V) > 0 must give the same component around 1 - e/2
    from oracles import quotient_side_interval

    for table in (table0, table1) + wide_tables:
        for rec in table.records:
            if rec.r == 1:
                continue
            lo, hi = quotient_side_interval(rec, table)
            assert (lo, hi) == (rec.lo, rec.hi), (table.e, rec)


def test_cache_roundtrip(tmp_path, table1):
    path = str(tmp_path / "cache.jsonl")
    save_table(table1, path)
    loaded = load_table(path, 1)
    assert as_rows(loaded) == as_rows(table1)
    assert loaded.max_rank == 20
    # bit-exact lines
    line = record_to_json(table1.records[1], 1)
    e, rec = record_from_json(line)
    assert e == 1 and rec == table1.records[1]
    assert record_to_json(rec, 1) == line
    obj = json.loads(line)
    assert list(obj.keys()) == ["e", "r", "a", "b", "lo", "hi", "w0", "w1"]


EDITS = {
    # the tampered F_0 rank-3 row of the issue: (1/2, 2) read as (1/2, 100)
    "hi_raised": (0, 3, {"hi": "100"}),
    "not_potentially_exceptional": (0, 3, {"b": 2}),
    # (5, 3E + 3F) is the dual of (5, 2E + 2F) twisted by E + F, with the
    # same interval and a twisted witness: only the canonical form tells
    "dual_pair_not_canonical": (1, 5, {"a": 3, "b": 3, "w1": [1, 0, 1]}),
    "rank_one_not_00": (0, 1, {"b": 1}),
    "rank_one_finite": (1, 1, {"hi": "2", "w1": [1, 1, 0]}),
    "anticanonical_below_lo": (0, 3, {"lo": "2", "w0": [1, 1, -1]}),
    "anticanonical_above_hi": (1, 11, {"hi": "3/7", "w1": [6, 1, 3]}),
    "witnesses_swapped": (0, 3, {"w0": [1, 1, -1], "w1": [1, -1, 1]}),
    "witness_off_wall": (1, 11, {"w0": [5, 1, 3]}),
    "witness_same_rank": (0, 3, {"w1": [3, 0, 3]}),
    "lo_without_witness": (0, 3, {"w0": None}),
    "zero_lo_with_witness": (1, 2, {"w0": [1, 1, 0]}),
    "infinite_above_rank_one": (1, 4, {"hi": "inf", "w1": None}),
    "witness_not_integers": (0, 3, {"w1": [1, "x", 1]}),
    # each of these reads back through int() as the row it was: e, r, a, b
    # and the witness entries must be JSON integers, and a bool is not one
    "rank_float": (0, 3, {"r": 3.7}),
    "rank_integral_float": (0, 3, {"r": 3.0}),
    "a_bool": (0, 3, {"a": True}),
    "b_float": (0, 3, {"b": 1.0}),
    "e_bool": (0, 3, {"e": False}),
    "witness_strings": (0, 3, {"w1": ["1", "1", "-1"]}),
    "witness_bools": (0, 3, {"w0": [True, -1, True]}),
    "witness_float": (1, 11, {"w0": [6.0, 1, 3]}),
    "witness_string": (1, 11, {"w0": "613"}),
    "rank_a_and_witness": (0, 3, {"r": 3.7, "a": True, "w1": ["1", "1", "-1"]}),
}


@pytest.mark.parametrize("name", sorted(EDITS))
def test_load_refuses_edited_rows(tmp_path, table0, table1, name):
    e, rank, changes = EDITS[name]
    path = tmp_path / "cache.jsonl"
    table = (table0, table1)[e]
    save_table(table, str(path))
    assert as_rows(load_table(str(path), e)) == as_rows(table)
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if json.loads(ln).get("r") == rank)
    obj = json.loads(lines[i])
    obj.update(changes)
    lines[i] = json.dumps(obj)
    # with a header that matches the edited rows, the row check refuses them
    reseal(path, lines, e, table.max_rank)
    with pytest.raises(CacheError, match="corrupt cache"):
        load_table(str(path), e)


def test_load_refuses_appended_row(tmp_path):
    # (2, 0, 1) is no exceptional pair; trusted, it cuts (5, 2E + 2F) at 1/4.
    # A repeated row would be printed twice by `hirz exceptional`.
    small = build_table(1, 4)
    refusals = ("corrupt cache", "repeats a row")
    for extra, refusal in zip((ExceptionalRecord(2, 0, 1, Q(0), None), small.records[-1]), refusals):
        path = tmp_path / "cache.jsonl"
        save_table(small, str(path))
        reseal(path, path.read_text().splitlines() + [record_to_json(extra, 1)], 1, 4)
        with pytest.raises(CacheError, match=refusal):
            load_table(str(path), 1)


def reseal(path, lines, e, max_rank):
    """Write `lines` (header first) back under a header that matches their
    rows, with each rank counted as int() reads it (3.0 and 3.7 as 3)."""
    rows = lines[1:]
    head = exceptional._header(e, max_rank, [int(json.loads(ln)["r"]) for ln in rows], rows)
    path.write_text("\n".join([head] + rows) + "\n")


def test_cache_header_holds_the_rank_counts_and_the_row_hash(tmp_path, table0):
    path = tmp_path / "cache.jsonl"
    save_table(table0, str(path))
    head, *rows = path.read_text().splitlines()
    assert json.loads(head) == {
        "e": 0, "max_rank": 19,
        "rows_per_rank": [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 2, 0, 2],
        "sha256": hashlib.sha256("".join(ln + "\n" for ln in rows).encode()).hexdigest(),
    }
    assert rows == [record_to_json(rec, 0) for rec in table0.records]
    # the loaded table covers the header's max_rank, not its highest row
    save_table(build_table(0, 18), str(path))
    assert load_table(str(path), 0).max_rank == 18


def test_load_refuses_rows_that_miss_the_header(tmp_path, table0):
    path = tmp_path / "cache.jsonl"
    save_table(table0, str(path))
    head, *rows = path.read_text().splitlines()
    obj = json.loads(head)
    rank11 = [ln for ln in rows if json.loads(ln)["r"] == 11]
    assert len(rank11) == 2
    cases = [
        # the two rank-11 rows of F_0 r <= 19 deleted: it used to load with
        # 11 of 13 rows and max_rank 19
        ([head] + [ln for ln in rows if ln not in rank11], "rows_per_rank, sha256"),
        ([head] + rows[:2] + rows[3:4] + rows[2:3] + rows[4:], "sha256"),
        ([json.dumps({**obj, "max_rank": 21})] + rows, "rows_per_rank"),
        ([json.dumps({**obj, "e": 1})] + rows, "e"),
    ]
    for lines, wrong in cases:
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match=r"does not match its header \(%s\)" % wrong):
            load_table(str(path), 0)
    # the rank-1 row deleted under a header that matches the rest: it used
    # to load with 12 of 13 rows
    reseal(path, [head] + rows[1:], 0, 19)
    with pytest.raises(CacheError, match="corrupt cache .* exactly one rank-1 row"):
        load_table(str(path), 0)
    broken = [rows, [json.dumps({**obj, "max_rank": True})] + rows,
              [json.dumps({**obj, "max_rank": 0})] + rows, [head[:-1]] + rows,
              [json.dumps({k: obj[k] for k in ("e", "max_rank", "sha256")})] + rows, [],
              # the header's e names the surface, so it is an int in {0, 1}
              [json.dumps({**obj, "e": 2})] + rows, [json.dumps({**obj, "e": False})] + rows]
    for lines in broken:
        path.write_text("".join(ln + "\n" for ln in lines))
        with pytest.raises(CacheError, match="no header line"):
            load_table(str(path), 0)


def test_load_parses_a_cache_once(tmp_path, table0, monkeypatch):
    # one open and at most one parse of each row per load, whether the
    # cache is sound, of the other surface, corrupt, or both
    path = tmp_path / "cache.jsonl"
    save_table(table0, str(path))
    sound = path.read_text()
    head, *rows = sound.splitlines()
    i = next(i for i, ln in enumerate(rows) if json.loads(ln)["r"] == 3)
    rows[i] = json.dumps({**json.loads(rows[i]), "hi": "100"})
    reseal(path, [head] + rows, 0, table0.max_rank)
    corrupt = path.read_text()
    opens, parsed = [], []

    def counted_open(*args, **kwargs):
        opens.append(args[0])
        return open(*args, **kwargs)

    def counted_row(line):
        parsed.append(line)
        return record_from_json(line)

    monkeypatch.setattr(exceptional, "open", counted_open, raising=False)
    monkeypatch.setattr(exceptional, "record_from_json", counted_row)
    cases = [
        (sound, 0, None, ""),
        (sound, 1, ValueError, "holds the table of F_0, not of F_1"),
        # the fault of a corrupt cache is its own, whichever surface is asked for
        (corrupt, 0, CacheError, "corrupt cache .* witness .* does not give endpoint 100 of rank 3"),
        (corrupt, 1, CacheError, "corrupt cache .* witness .* does not give endpoint 100 of rank 3"),
    ]
    for text, e, error, match in cases:
        path.write_text(text)
        opens.clear()
        parsed.clear()
        if error is None:
            assert as_rows(load_table(str(path), e)) == as_rows(table0)
        else:
            with pytest.raises(error, match=match):
                load_table(str(path), e)
        assert opens == [str(path)], (e, match)
        assert len(parsed) == len(set(parsed)) <= len(table0.records), (e, match)
        assert (len(parsed) == len(table0.records)) == (text == sound), (e, match)


def test_failed_cache_replace_keeps_old_file(tmp_path, table1, monkeypatch):
    # the write succeeds and the move into place fails: the temporary file
    # is removed and the old cache kept
    path = tmp_path / "cache.jsonl"
    save_table(build_table(1, 6), str(path))
    before = path.read_bytes()
    moved = []

    def fail_replace(src, dst):
        moved.append((os.path.exists(src), dst))
        raise OSError("device busy")

    monkeypatch.setattr(exceptional.os, "replace", fail_replace)
    with pytest.raises(CacheError, match="cannot write cache .* device busy"):
        save_table(table1, str(path))
    assert moved == [(True, str(path))]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_failed_cache_write_keeps_old_file(tmp_path, table1, monkeypatch):
    path = tmp_path / "cache.jsonl"
    save_table(build_table(1, 6), str(path))
    before = path.read_bytes()
    rows = []

    def fail_after_first_row(rec, e):
        if rows:
            raise OSError("disk full")
        rows.append(rec)
        return record_to_json(rec, e)

    monkeypatch.setattr(exceptional, "record_to_json", fail_after_first_row)
    with pytest.raises(CacheError):
        save_table(table1, str(path))
    assert len(rows) == 1
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_is_exceptional_builds_table_on_demand():
    assert is_exceptional(exceptional_character(5, 1, 2, 0), 0)
    assert not is_exceptional(exceptional_character(7, 2, 5, 0), 0)


# each broken invariant raises InternalError (exit 5 in `hirz`), also under -O
def test_congruence_check_is_an_internal_error(monkeypatch):
    # a wrong modular inverse gives b = 0, which misses 2ab = -10 (mod 6)
    monkeypatch.setattr(exceptional, "pow", lambda *args: 0, raising=False)
    with pytest.raises(InternalError, match="congruence"):
        solve_congruence_b(3, 1, 0)


def test_missing_canonical_pair_is_an_internal_error():
    # no caller passes (2, E + F) on F_0: its four candidates all have 2a = r
    with pytest.raises(InternalError, match="canonical"):
        canonical_pair(2, 1, 1, 0)

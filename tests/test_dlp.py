import random
from fractions import Fraction as Q
from math import ceil, floor, lcm

import pytest

from conftest import fraction_end, random_slope
from hirzebruch import (
    CH_O,
    DivisorClass,
    build_table,
    dlp_below_rank,
    dlp_grid,
    dlp_line_bundles,
    dlp_single,
    exceptional_character,
    hilbert_P,
)
from hirzebruch import dlp
from hirzebruch.dlp import (
    LINE_BUNDLES,
    DlpValue,
    InsufficientTable,
    orbit,
    slope_classes,
    strip_halfwidth,
)
from hirzebruch.exceptional import ExceptionalTable, exceptional_delta, load_table, save_table
from hirzebruch.lattice import fiber_window, hilbert_P2
from oracles import dlp_branch_values, dlp_brute_force


def test_dlp_single_branches():
    assert dlp_single(CH_O, DivisorClass(0, 0), 1, 0) == 1
    # out of domain when the slope difference leaves the strip
    assert dlp_single(CH_O, DivisorClass(0, 10), 1, 0) is None
    v = exceptional_character(2, 1, 1, 1)
    assert dlp_single(v, v.nu(), Q(1, 2), 1) == Q(5, 8)


def test_dlp_single_anticanonical_branch_agreement():
    # when (nu - nu(V)).K = 0 the two branch formulas coincide at m = 1 - e/2
    rng = random.Random(21)
    for _ in range(200):
        e = rng.randint(0, 1)
        m = 1 - Q(e, 2)
        v = exceptional_character(1, rng.randint(-3, 3), rng.randint(-3, 3), e)
        # pick nu with (nu - nu(V)).K = 0: K = -2E - (e+2)F, so the difference
        # d = (x, y) needs 2(-e x + y)... K.d = (e-2)x - 2y = 0
        x = Q(rng.randint(-6, 6), 2)
        d = DivisorClass(x, Q(e - 2, 2) * x)
        nu = v.nu() + d
        if abs(d.hm_degree(m)) > strip_halfwidth(m, e):
            continue
        assert hilbert_P(d, e) == hilbert_P(-d, e)
        assert dlp_single(v, nu, m, e) == hilbert_P(d, e) - v.delta(e)


def test_dlp_line_bundles_values():
    out = dlp_line_bundles(DivisorClass(0, 0), 1, 0)
    assert out.value == 1 and out.witness == (1, 0, 0)
    # sharp 3/8 value on F_1 at the anticanonical polarization
    assert dlp_line_bundles(DivisorClass(Q(1, 2), Q(1, 2)), Q(1, 2), 1).value == Q(3, 8)


def test_dlp_line_bundles_38_bound():
    rng = random.Random(22)
    for _ in range(200):
        e = rng.randint(0, 1)
        nu = random_slope(rng)
        assert dlp_line_bundles(nu, 1 - Q(e, 2), e).value >= Q(3, 8)


def test_dlp_line_bundles_monotone_in_m():
    rng = random.Random(23)
    for _ in range(60):
        e = rng.randint(0, 1)
        anch = 1 - Q(e, 2)
        nu = random_slope(rng, den_max=3, num_span=4)
        ms = sorted([anch + Q(rng.randint(0, 10), 4), anch + Q(rng.randint(0, 10), 4)])
        assert dlp_line_bundles(nu, ms[0], e).value <= dlp_line_bundles(nu, ms[1], e).value


def test_dlp_below_rank_worked_values(table0, table1):
    assert dlp_below_rank(DivisorClass(Q(1, 5), Q(1, 3)), Q(25, 9), 0, 15, table0).value == Q(19, 35)
    assert dlp_below_rank(DivisorClass(Q(3, 13), Q(6, 13)), Q(12, 7), 1, 13, table1).value == Q(523, 1014)


def test_dlp_below_rank_edges(table0):
    nu = DivisorClass(Q(1, 3), Q(1, 4))
    assert dlp_below_rank(nu, 2, 0, 1).value is None
    assert dlp_below_rank(nu, 2, 0, 2).value == dlp_line_bundles(nu, 2, 0).value
    with pytest.raises(InsufficientTable):
        dlp_below_rank(nu, 2, 0, 25, table0)
    with pytest.raises(InsufficientTable):
        dlp_below_rank(nu, 2, 0, 3)         # no table at r > 2
    with pytest.raises(ValueError):
        dlp_below_rank(nu, 2, 2, 5, table0)


def test_dlp_below_rank_monotone_in_rank(table0, table1):
    rng = random.Random(24)
    for _ in range(200):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        nu = random_slope(rng, den_max=3, num_span=3)
        m = Q(rng.randint(1, 8), rng.randint(1, 3))
        rs = sorted(rng.sample(range(2, 12), 2))
        lo = dlp_below_rank(nu, m, e, rs[0], table).value
        hi = dlp_below_rank(nu, m, e, rs[1], table).value
        assert lo is None or lo <= hi


def test_dlp_below_rank_monotone_in_polarization(table0, table1):
    rng = random.Random(25)
    for _ in range(100):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        anch = 1 - Q(e, 2)
        nu = random_slope(rng, den_max=3, num_span=3)
        r = rng.randint(2, 9)
        # away from the anticanonical parameter on either side
        up = sorted([anch + Q(rng.randint(0, 9), 3), anch + Q(rng.randint(0, 9), 3)])
        assert (
            dlp_below_rank(nu, up[0], e, r, table).value
            <= dlp_below_rank(nu, up[1], e, r, table).value
        )
        down = sorted([anch * Q(rng.randint(1, 8), 8), anch * Q(rng.randint(1, 8), 8)])
        if down[0] > 0:
            assert (
                dlp_below_rank(nu, down[0], e, r, table).value
                >= dlp_below_rank(nu, down[1], e, r, table).value
            )


def test_pruned_vs_brute_force(table0, table1):
    rng = random.Random(26)
    for _ in range(40):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        nu = random_slope(rng, den_max=4, num_span=6)
        m = Q(rng.randint(1, 12), rng.randint(1, 4))
        r = rng.randint(2, 9)
        got = dlp_below_rank(nu, m, e, r, table).value
        want = dlp_brute_force(nu, m, e, r, table)
        assert got == want


def test_witness_validity(table0, table1):
    rng = random.Random(27)
    for _ in range(100):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        nu = random_slope(rng, den_max=3, num_span=4)
        m = Q(rng.randint(1, 9), rng.randint(1, 3))
        out = dlp_below_rank(nu, m, e, rng.randint(2, 10), table)
        rw, wa, wb = out.witness
        w = exceptional_character(rw, wa, wb, e)
        assert dlp_single(w, nu, m, e) == out.value
        assert abs((nu - w.nu()).hm_degree(m)) <= strip_halfwidth(m, e)


def test_grid_shapes_and_single_point(table0, monkeypatch):
    eps, phi, rows = dlp_grid(0, 1, (0, 1, 0, 1), 3, 8, table0)
    assert len(eps) == len(phi) == 4 and len(rows) == 4 and len(rows[0]) == 4
    # the classes are cut once per grid, and each sample is its DLP value
    calls = []
    monkeypatch.setattr(dlp, "slope_classes", lambda *args: calls.append(args) or slope_classes(*args))
    for cutoff in (1, 2, 8):
        calls.clear()
        eps, phi, rows = dlp_grid(0, Q(3, 2), (-1, 1, Q(1, 2), 2), 4, cutoff, table0)
        assert len(calls) == 1
        assert rows == [[dlp_below_rank(DivisorClass(ev, pv), Q(3, 2), 0, cutoff, table0) for pv in phi]
                        for ev in eps]
    assert rows[0][0] != DlpValue(None)
    assert dlp_grid(0, 1, (0, 1, 0, 1), 2, 1)[2] == [[DlpValue(None)] * 3] * 3
    with pytest.raises(ValueError, match="rank cutoff"):
        dlp_grid(0, 1, (0, 1, 0, 1), 2, 0, table0)
    with pytest.raises(InsufficientTable):
        dlp_grid(0, 1, (0, 1, 0, 1), 2, 25, table0)
    nu = DivisorClass(Q(1, 3), Q(2, 3))
    _, _, single = dlp_grid(0, 1, (Q(1, 3), Q(1, 3), Q(2, 3), Q(2, 3)), 0, 8, table0)
    assert single == [[dlp_below_rank(nu, 1, 0, 8, table0)]]


def test_grid_contributor_ranks(table0, table1):
    seen0 = set()
    for steps in (15, 14):
        _, _, rows = dlp_grid(0, 1, (0, 1, 0, 1), steps, 8, table0)
        for row in rows:
            for cell in row:
                seen0.add(cell.witness[0])
    assert seen0 == {1, 3, 5, 7}
    seen1 = set()
    for steps in (20, 12):
        _, _, rows = dlp_grid(1, Q(1, 2), (0, 1, 0, 1), steps, 7, table1)
        for row in rows:
            for cell in row:
                seen1.add(cell.witness[0])
    assert seen1 == {1, 2, 4, 5, 6}


def test_equal_slope_branch_flagged():
    # nu with the same H_1-degree as O but a different slope: the value comes
    # from the soft equal-slope branch and is flagged
    out = dlp_line_bundles(DivisorClass(Q(1, 2), Q(-1, 2)), 1, 0)
    assert out.value == Q(3, 4) and out.equal_slope
    assert not dlp_line_bundles(DivisorClass(0, 0), 1, 0).equal_slope


def _orbit_by_fractions(rec, e):
    """The orbit of a table row as (rank, slope, Delta, interval) in
    Fractions, deduplicated on the slope mod Z^2 and the interval, in
    first-seen order; on F_0 the fiber swap maps the interval to (1/hi, 1/lo)."""
    r, lo, hi = rec.r, rec.lo, rec.hi
    variants = [(rec.a, rec.b, lo, hi), (-rec.a, -rec.b, lo, hi)]
    if e == 0:
        slo = Q(0) if hi is None else 1 / hi
        shi = None if lo == 0 else 1 / lo
        variants += [(rec.b, rec.a, slo, shi), (-rec.b, -rec.a, slo, shi)]
    out, seen = [], set()
    for a, b, vlo, vhi in variants:
        na, nb = Q(a, r), Q(b, r)
        if (na % 1, nb % 1, vlo, vhi) not in seen:
            seen.add((na % 1, nb % 1, vlo, vhi))
            out.append((r, na, nb, rec.delta(), vlo, vhi))
    return out


def test_orbit_matches_fraction_enumeration(table0, table1, tmp_path):
    # the F_1 row (2, 1, 1) has a single class: (1, 1) and (-1, -1) agree mod 2
    assert len(orbit(table1.row(2, 1, 1), 1)) == 1
    for table in (table0, table1):
        for rec in table.records:
            got = [
                (c.rank, Q(c.a, c.rank), Q(c.b, c.rank), exceptional_delta(c.rank),
                 fraction_end(c.lo), fraction_end(c.hi))
                for c in orbit(rec, table.e)
            ]
            assert got == _orbit_by_fractions(rec, table.e), (table.e, rec)
    # the classes a table keeps are O plus the orbits of its rows, cut at the
    # rank, for built and loaded tables alike
    loaded = []
    for table in (table0, table1):
        path = str(tmp_path / ("t%d.jsonl" % table.e))
        save_table(table, path)
        loaded.append(load_table(path, table.e))
    for table in [table0, table1] + loaded:
        for cut in range(2, table.max_rank + 2):
            want = [LINE_BUNDLES]
            for rec in table.records:
                if 1 < rec.r < cut:
                    want += orbit(rec, table.e)
            assert slope_classes(table, table.e, cut) == want, (table.e, cut)
    # below rank 2 no table is read: `dlp_line_bundles` is DLP^{<2}, and
    # DLP^{<1} has no class
    for e in (0, 1):
        assert slope_classes(None, e, 2) == [LINE_BUNDLES]
        assert slope_classes(None, e, 1) == []


def _full_box_scan(nu, m, e, classes):
    """The DLP bound over `classes` by visiting every offset of each class's
    twist box.

    Per stable class (open interval, compared as Fractions), the offsets
    (X, Y)/L of nu from the twists, |X| <= X_w L and |X m + Y| <= s L, are
    visited column by column in ascending X and Y, the last maximum of
    2 L^2 P winning (`>=`); classes compare by value, then by the smaller
    witness.
    """
    m = Q(m)
    xw, s = max(Q(1), Q(2) / (2 * m + e)), strip_halfwidth(m, e)
    best = None
    for con in classes:
        lo, hi = fraction_end(con.lo), fraction_end(con.hi)
        if not (m > lo and (hi is None or m < hi)):
            continue
        rank = con.rank
        L = lcm(nu.a.denominator, nu.b.denominator, rank)
        k = L // rank
        nx, ny = int(nu.a * L), int(nu.b * L)
        x0, y0 = nx - con.a * k, ny - con.b * k
        top = None
        xlim = floor(xw * L)
        for X in range(-xlim + (x0 + xlim) % L, xlim + 1, L):
            y_lo = ceil(-s * L - X * m)
            for Y in range(y_lo + (y0 - y_lo) % L, floor(s * L - X * m) + 1, L):
                t = X * m + Y
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
        val = Q(top - L * L + k * k, 2 * L * L)
        wit = (rank, (nx - bx) // k, (ny - by) // k)
        if best is None or val > best.value or (val == best.value and wit < best.witness):
            best = DlpValue(val, wit, bx * m + by == 0 and (bx, by) != (0, 0))
    return DlpValue(None) if best is None else best


def test_scan_matches_full_box(table0, table1):
    # every cutoff; m down to 1/12 (fiber window 12, so columns with
    # |X| >= L occur); m at an interval endpoint of a class near nu, where
    # the open interval decides whether that class takes part
    rng = random.Random(28)
    n = 0
    for table in (table0, table1):
        e = table.e
        for r in range(1, table.max_rank + 2):
            ends = [(c, t) for c in slope_classes(table, e, max(r, 2)) if c.rank > 1
                    for t in map(fraction_end, (c.lo, c.hi)) if t]
            for _ in range(60):
                pick = rng.random()
                nu = random_slope(rng, den_max=6, num_span=12)
                if pick < 0.4 and ends:
                    c, m = rng.choice(ends)
                    off = random_slope(rng, den_max=2 * c.rank, num_span=2)
                    nu = DivisorClass(Q(c.a, c.rank) + off.a, Q(c.b, c.rank) + off.b)
                elif pick < 0.7:
                    m = Q(1, rng.randint(1, 12))
                else:
                    m = Q(rng.randint(1, 24), rng.randint(1, 8))
                classes = slope_classes(table, e, r) if r > 1 else []
                got = dlp_below_rank(nu, m, e, r, table)
                assert got == _full_box_scan(nu, m, e, classes), (e, r, m, nu)
                if pick < 0.4:
                    # class by class, so that a class at its endpoint shows
                    for c in classes:
                        assert dlp._scan(nu, [c], m, e) == _full_box_scan(nu, m, e, [c])
                n += 1
    assert n >= 2000


def test_scan_matches_full_box_at_extreme_m():
    # m far below and far above the range of the test above: at m = 1/60 the
    # fiber window is 60 wide and the strip barely 2 high, at m = 200 the
    # window is 1 and the strip 201 high; tables of rank <= 8
    rng = random.Random(33)
    for e in (0, 1):
        table = build_table(e, 8)
        for m in (Q(1, 60), Q(1, 25), Q(40), Q(200)):
            for r in range(2, table.max_rank + 2):
                classes = slope_classes(table, e, r)
                for _ in range(10):
                    nu = random_slope(rng, den_max=6, num_span=12)
                    got = dlp_below_rank(nu, m, e, r, table)
                    assert got == _full_box_scan(nu, m, e, classes), (e, r, m, nu)
            for c in slope_classes(table, e, table.max_rank + 1):
                nu = random_slope(rng, den_max=6, num_span=12)
                assert dlp._scan(nu, [c], m, e) == _full_box_scan(nu, m, e, [c]), (e, m, nu, c)


def test_nearest_points_never_leave_the_strip():
    # the lemma that lets `_best` skip the strip clip, in integers: on every
    # column X of the fiber window and for every residue y0 = Y mod L, the
    # last lattice Y with t = X mp + Y mq <= 0 and the first with t >= 0
    # lie less than L mq from the line, so strictly inside the strip
    # |X 2 mp mq + Y 2 mq^2| <= L mq (2 mp + (e + 2) mq); every column
    # and residue where they are few, the two ends and a seeded sample of
    # each where they are many, the residues always with those next to the
    # line's, which put a nearest point farthest from it
    rng = random.Random(34)
    ms = [Q(1, 1000), Q(1, 999), Q(3, 1000), Q(1, 60), Q(2, 3), Q(1), Q(999, 1000),
          Q(1000, 999), Q(12, 7), Q(999), Q(1000)]
    ms += [Q(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(8)]
    n = 0
    for e in (0, 1):
        for m in ms:
            mp, mq = m.numerator, m.denominator
            xwp, xwq = fiber_window(mp, mq, e)
            mps, ysc = 2 * mp * mq, 2 * mq * mq
            for L in (1, 2, 3, 7, 12, 60, 997, 1999, 2000):
                hw = L * mq * (2 * mp + (e + 2) * mq)
                xlim = xwp * L // xwq
                if xlim <= 40:
                    columns = range(-xlim, xlim + 1)
                else:
                    columns = [-xlim, -xlim + 1, -L, 0, L, xlim - 1, xlim]
                    columns += [rng.randint(-xlim, xlim) for _ in range(12)]
                for X in columns:
                    fl = -X * mp // mq              # the last Y with t <= 0
                    if L <= 60:
                        residues = range(L)
                    else:
                        residues = [0, L - 1] + [(fl + i) % L for i in (-1, 0, 1)]
                        residues += [rng.randrange(L) for _ in range(24)]
                    for y0 in residues:
                        below = fl - (fl - y0) % L
                        above = below + L if X * mp + below * mq < 0 else below
                        for Y, side in ((below, -1), (above, 1)):
                            t = X * mp + Y * mq
                            assert 0 <= side * t < L * mq, (e, m, L, X, y0, Y)
                            assert abs(X * mps + Y * ysc) < hw, (e, m, L, X, y0, Y)
                            n += 1
    assert n > 200000, n


def _bound(rank, m, e):
    """1/2 + (2 - h)^2/(8 h) + 1/(2 rank^2), h = 2m + e: the most a class of
    this rank is worth at m."""
    h = 2 * Q(m) + e
    return Q(1, 2) + (2 - h) ** 2 / (8 * h) + Q(1, 2 * rank * rank)


def test_no_class_exceeds_its_rank_bound(wide_tables):
    # m below 1, at 1 and above it on both surfaces, every class of the
    # rank-39 and rank-40 tables: the scan's value of each class and every
    # branch value of the brute force stay at or under the rank bound
    rng = random.Random(30)
    for table in wide_tables:
        e = table.e
        classes = slope_classes(table, e, table.max_rank + 1)
        for m in (Q(1, 7), Q(1, 3), Q(2, 3), Q(1), Q(3, 2), Q(12, 7), Q(5)):
            mp, mq = m.numerator, m.denominator
            hq = 2 * mp + e * mq
            for c in classes:
                assert Q(*dlp._rank_bound(c.rank, (2 * mq - hq) ** 2, 8 * hq * mq)) == _bound(c.rank, m, e)
            for _ in range(6):
                nu = random_slope(rng, den_max=12, num_span=12)
                den = lcm(nu.a.denominator, nu.b.denominator)
                x, y = int(nu.a * den), int(nu.b * den)
                for c in classes:
                    num, dnm, _, _ = dlp._best([c], x, y, den, mp, mq, e)
                    assert num is None or Q(num, dnm) <= _bound(c.rank, m, e), (e, m, nu, c)
            nu = random_slope(rng, den_max=6, num_span=6)
            for rank, val in dlp_branch_values(nu, m, e, 12, table, box=3):
                assert val <= _bound(rank, m, e), (e, m, nu, rank)


def test_rank_bound_changes_no_answer(wide_tables, monkeypatch):
    # tables_dlp-style queries (m = p/q, p <= 24, q <= 8, every cutoff up to
    # 40, slopes with denominators <= 12) and exceptionality tests, with the
    # walk ended at the rank bound and with it never ended
    rng = random.Random(31)
    queries, tests = [], []
    for table in wide_tables:
        e = table.e
        for cutoff in range(2, table.max_rank + 2):
            for _ in range(12):
                m = Q(rng.randint(1, 24), rng.randint(1, 8))
                queries.append((random_slope(rng, den_max=12, num_span=12), m, e, cutoff, table))
                r = rng.randint(2, cutoff)
                tests.append((slope_classes(table, e, cutoff), rng.randint(-2 * r, 2 * r),
                              rng.randint(-2 * r, 2 * r), r, m.numerator, m.denominator, e))

    def answers():
        return ([dlp_below_rank(*q) for q in queries], [dlp.exceeds_exceptional_delta(*t) for t in tests],
                [build_table(e, 20).records for e in (0, 1)])

    pruned = answers()
    # the bound ends the walk before the last rank on most queries
    ended = sum(val.value > _bound(slope_classes(table, e, cutoff)[-1].rank, m, e)
                for val, (_, m, e, cutoff, table) in zip(pruned[0], queries))
    assert ended > len(queries) // 2
    monkeypatch.setattr(dlp, "_rank_bound", lambda *args: (1, 0))     # +infinity
    assert answers() == pruned


def test_classes_ascend_in_rank(table0, table1, tmp_path):
    # built, loaded and shuffled tables list their classes in ascending rank;
    # a shuffled table lists a rank's classes in its own row order but gives
    # the same DLP values
    rng = random.Random(32)
    for table in (table0, table1):
        path = str(tmp_path / ("t%d.jsonl" % table.e))
        save_table(table, path)
        rows = list(table.records)
        rng.shuffle(rows)
        shuffled = ExceptionalTable(table.e, table.max_rank, tuple(rows))
        for t in (table, load_table(path, table.e), shuffled):
            ranks = [c.rank for c in t.classes]
            assert ranks == sorted(ranks) and ranks[0] == 1
        assert sorted(shuffled.classes) == sorted(table.classes)
        assert shuffled.records != table.records
        for _ in range(300):
            nu = random_slope(rng, den_max=12, num_span=12)
            m = Q(rng.randint(1, 24), rng.randint(1, 8))
            r = rng.randint(2, table.max_rank + 1)
            assert dlp_below_rank(nu, m, table.e, r, shuffled) == dlp_below_rank(nu, m, table.e, r, table)

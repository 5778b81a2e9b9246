import random
from fractions import Fraction as Q

import pytest

from conftest import random_slope
from hirzebruch import (
    CH_O,
    DivisorClass,
    dlp_below_rank,
    dlp_grid,
    dlp_line_bundles,
    dlp_single,
    exceptional_character,
    hilbert_P,
)
from hirzebruch.dlp import LINE_BUNDLES, InsufficientTable, orbit, slope_classes, strip_halfwidth
from hirzebruch.exceptional import exceptional_delta, load_table, save_table
from oracles import dlp_brute_force


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


def test_grid_shapes_and_single_point(table0):
    eps, phi, rows = dlp_grid(0, 1, (0, 1, 0, 1), 3, 8, table0)
    assert len(eps) == len(phi) == 4 and len(rows) == 4 and len(rows[0]) == 4
    nu = DivisorClass(Q(1, 3), Q(2, 3))
    _, _, single = dlp_grid(0, 1, (Q(1, 3), Q(1, 3), Q(2, 3), Q(2, 3)), 0, 8, table0)
    assert single == [[dlp_below_rank(nu, 1, 0, 8, table0).value]]


def test_grid_contributor_ranks(table0, table1):
    seen0 = set()
    for steps in (15, 14):
        _, _, rows = dlp_grid(0, 1, (0, 1, 0, 1), steps, 8, table0, with_witnesses=True)
        for row in rows:
            for cell in row:
                seen0.add(cell.witness[0])
    assert seen0 == {1, 3, 5, 7}
    seen1 = set()
    for steps in (20, 12):
        _, _, rows = dlp_grid(1, Q(1, 2), (0, 1, 0, 1), steps, 7, table1, with_witnesses=True)
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
                (c.rank, Q(c.a, c.rank), Q(c.b, c.rank), exceptional_delta(c.rank), c.lo, c.hi)
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

"""Acceptance suite: one test per criterion, exact assertions throughout,
with a pass line printed per criterion (run with `pytest -s` to see them).
"""

import math
import random
import time
from fractions import Fraction as Q

from conftest import random_integral_character, random_m, random_slope
from hirzebruch import (
    ChernCharacter,
    DivisorClass,
    KroneckerParams,
    build_table,
    delta_closed_form,
    delta_estimate,
    delta_p,
    dlp_below_rank,
    dlp_line_bundles,
    dual,
    euler_pair,
    from_rank_slope_disc,
    generic_prioritary_index,
    hn_generic,
    intersect,
    interval_transport,
    is_wall,
    kronecker_characters,
    l0_and_psi,
    moduli_nonempty,
    pi_map,
    prioritary_nonempty,
    reduce_decision,
    twist,
    validate_hn,
    verdict,
    wall_m_v,
)
from oracles import DecompositionOracle, char_of, delta2_num, dlp_brute_force, key_of
from test_exceptional import TABLE1, TABLE2, as_rows


def _ok(n, desc):
    print("ACCEPTANCE %d: PASS — %s" % (n, desc))


def test_criterion_1_golden_tables():
    t_start = time.monotonic()
    tab0 = build_table(0, 19)
    tab1 = build_table(1, 20)
    elapsed = time.monotonic() - t_start
    want0 = [(r, ab, (Q(lo), None if hi is None else Q(hi)), w0, w1)
             for (r, ab, (lo, hi), w0, w1) in TABLE1]
    want1 = [(r, ab, (Q(lo), None if hi is None else Q(hi)), w0, w1)
             for (r, ab, (lo, hi), w0, w1) in TABLE2]
    assert as_rows(tab0) == want0, "F_0 table mismatch"
    assert as_rows(tab1) == want1, "F_1 table mismatch"
    assert elapsed < 60, "table construction took %.1fs" % elapsed
    _ok(1, "golden tables reproduced bit-exactly (13 + 15 rows) in %.2fs" % elapsed)


def test_criterion_2_worked_examples(table0, table1):
    # prioritary worked example
    v = from_rank_slope_disc(120, DivisorClass(Q(1, 2), Q(1, 3)), Q(11, 10), 1)
    l0, psi, _ = l0_and_psi(v, 1)
    assert psi == Q(-97, 60) and (l0.a, l0.b) == (1, -1)
    assert generic_prioritary_index(v, 1) == 4

    # F_0 Kronecker example
    p0 = KroneckerParams(0, 3, 1, 1, 2, 15)
    k0, l0c, v0 = kronecker_characters(p0)
    assert (k0.r, int(k0.c1.a), int(k0.c1.b), k0.delta(0)) == (2, 1, -1, Q(3, 4))
    assert (l0c.r, int(l0c.c1.a), int(l0c.c1.b), l0c.delta(0)) == (13, 2, 6, Q(90, 169))
    assert (v0.r, int(v0.c1.a), int(v0.c1.b), v0.delta(0)) == (15, 3, 5, Q(3, 5))
    assert wall_m_v(p0) == Q(25, 9)
    assert dlp_below_rank(v0.nu(), Q(25, 9), 0, 15, table0).value == Q(19, 35)
    assert delta_estimate(v0.nu(), Q(25, 9), 0, 15, table0).upper == Q(3, 5)
    assert delta_closed_form(v0.nu(), Q(25, 9), 0, 3) == Q(3, 5)
    dec = hn_generic(v0, Q(25, 9) + Q(1, 100), 0)
    assert dec.factors == (k0, l0c)

    # F_1 Kronecker example
    p1 = KroneckerParams(1, 3, 1, 1, 2, 13)
    k1, l1, v1 = kronecker_characters(p1)
    assert wall_m_v(p1) == Q(12, 7)
    assert dlp_below_rank(v1.nu(), Q(12, 7), 1, 13, table1).value == Q(523, 1014)
    assert delta_estimate(v1.nu(), Q(12, 7), 1, 13, table1).upper == Q(98, 169)
    assert delta_closed_form(v1.nu(), Q(12, 7), 1, 3) == Q(98, 169)
    dec = hn_generic(v1, Q(12, 7) + Q(1, 100), 1)
    assert dec.factors == (k1, l1)

    # F_4 example: pi^2 image, prioritary index, no slope-stable sheaves
    v4 = from_rank_slope_disc(3, DivisorClass(Q(1, 3), 1), Q(4, 9), 4)
    w = pi_map(pi_map(v4, "down"), "down")
    assert (w.r, int(w.c1.a), int(w.c1.b), w.delta(0)) == (3, 1, 1, Q(4, 9))
    assert generic_prioritary_index(v4, 4) == 1
    rec = table0.row(3, 1, 1)
    assert interval_transport((rec.lo, rec.hi), 2) is None  # empty: never stable
    for m in (Q(1, 2), 1, 2, 3):
        cert, _ = reduce_decision(v4, 4, m)
        assert cert.verdict != "NONEMPTY"
    _ok(2, "all worked examples exact (psi, walls, DLP, delta, filtrations, reduction)")


def _corpus_instances(e):
    for r in range(1, 7):
        for a in range(-6, 7):
            for b in range(-6, 7):
                c1sq = 2 * a * b - e * a * a
                c2_lo = -((-(c1sq * (r - 1))) // (2 * r))          # Delta >= 0
                for c2 in range(c2_lo, c2_lo + 3 * r + 1):
                    key = (r, a, b, c1sq - 2 * c2)
                    d2 = delta2_num(key, e)
                    if d2 < 0 or d2 > 6 * r * r:                   # Delta <= 3
                        continue
                    yield key


def test_criterion_3_oracle_equivalence(table0, table1):
    total = 0
    for e in (0, 1):
        for m in (Q(1, 3), Q(1), Q(3, 2), Q(12, 7), Q(3)):
            oracle = DecompositionOracle(e, m)
            for key in _corpus_instances(e):
                v = char_of(key)
                dec = hn_generic(v, m, e)
                found = oracle.nontrivial(key)
                assert len(found) <= 1, "uniqueness fails at %r" % (key,)
                if dec is None:
                    assert not oracle.decompositions(key), key
                elif len(dec.factors) == 1:
                    assert found == [], key
                else:
                    assert found == [tuple(key_of(f) for f in dec.factors)], key
                total += 1
    # pruned DLP search vs generously enlarged brute-force box
    rng = random.Random(103)
    for _ in range(200):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        nu = random_slope(rng, den_max=4, num_span=6)
        m = Q(rng.randint(1, 12), rng.randint(1, 4))
        r = rng.randint(2, 10)
        assert dlp_below_rank(nu, m, e, r, table).value == dlp_brute_force(nu, m, e, r, table)
    _ok(3, "brute-force decomposition oracle matches on %d corpus instances; "
           "200 pruned DLP queries match the enlarged box" % total)


def test_criterion_4_cross_path_consistency():
    rng = random.Random(104)
    done = 0
    while done < 100:
        v = random_integral_character(rng, 2, rmax=5, coeff=5)
        m = random_m(rng)
        direct = moduli_nonempty(v, m, 2)
        reduced, _ = reduce_decision(v, 2, m)
        assert direct.verdict == reduced.verdict, (v, m)
        done += 1
    _ok(4, "reduction-path verdicts equal direct engine verdicts on 100 random F_2 characters")


def test_criterion_5_property_suites(table0, table1):
    rng = random.Random(105)
    # pi preserves chi, Delta, intersection pairing
    for _ in range(200):
        e = rng.randint(2, 6)
        v = random_integral_character(rng, e)
        w = random_integral_character(rng, e)
        pv, pw = pi_map(v, "down"), pi_map(w, "down")
        assert euler_pair(pv, pw, e - 2) == euler_pair(v, w, e)
        assert pv.delta(e - 2) == v.delta(e)
        assert intersect(pv.c1, pw.c1, e - 2) == intersect(v.c1, w.c1, e)

    # twist/dual invariance of delta^p
    for _ in range(200):
        e = rng.randint(0, 2)
        nu = random_slope(rng)
        n = rng.randint(-2, 5)
        L = DivisorClass(rng.randint(-3, 3), rng.randint(-3, 3))
        assert delta_p(nu + L, n, e) == delta_p(nu, n, e) == delta_p(-nu, n, e)

    # twist/dual invariance of decision verdicts (off mu-walls)
    done = 0
    while done < 200:
        e = rng.randint(0, 1)
        m = random_m(rng)
        v = random_integral_character(rng, e, rmax=4, coeff=4)
        if is_wall(v, m, e):
            continue
        L = DivisorClass(rng.randint(-3, 3), rng.randint(-3, 3))
        base = verdict(v, m, e)
        assert verdict(twist(v, L, e), m, e) == base
        assert verdict(dual(v), m, e) == base
        done += 1

    # prioritary_nonempty <=> Delta >= delta^p
    for _ in range(200):
        e = rng.randint(0, 2)
        v = random_integral_character(rng, e)
        n = rng.randint(-2, 6)
        assert prioritary_nonempty(v, n, e) == (v.delta(e) >= delta_p(v.nu(), n, e))

    # DLP^{<r} monotone in rank and in polarization distance from 1 - e/2
    for _ in range(200):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        nu = random_slope(rng, den_max=3, num_span=3)
        m = Q(rng.randint(1, 8), rng.randint(1, 3))
        r1, r2 = sorted(rng.sample(range(2, 12), 2))
        v1 = dlp_below_rank(nu, m, e, r1, table).value
        v2 = dlp_below_rank(nu, m, e, r2, table).value
        assert v1 is None or v1 <= v2
        anch = 1 - Q(e, 2)
        ms = sorted([anch + Q(rng.randint(0, 9), 3), anch + Q(rng.randint(0, 9), 3)])
        r = rng.randint(2, 9)
        assert dlp_below_rank(nu, ms[0], e, r, table).value <= dlp_below_rank(nu, ms[1], e, r, table).value

    # filtration certificates pass the independent validator
    done = 0
    while done < 200:
        e = rng.randint(0, 2)
        m = random_m(rng)
        v = random_integral_character(rng, e, rmax=5, coeff=4)
        dec = hn_generic(v, m, e)
        if dec is None:
            continue
        validate_hn(dec, v)
        done += 1

    # elementary-modification monotonicity of NONEMPTY in Delta, in the
    # strict-slope regime (see the decisions ledger and the regression test
    # for the genuine equal-slope counterexample)
    done = 0
    while done < 200:
        e = rng.randint(0, 1)
        m = random_m(rng)
        v = random_integral_character(rng, e, rmax=4, coeff=4)
        nu = v.nu()
        if math.lcm(nu.a.denominator, nu.b.denominator) < v.r or is_wall(v, m, e):
            continue
        if verdict(v, m, e) != "NONEMPTY":
            continue
        w = ChernCharacter(v.r, v.c1, v.ch2 - 1)
        assert verdict(w, m, e) == "NONEMPTY"
        done += 1

    # DLP^1_{-K} >= 3/8 on a 50 x 50 rational grid of the unit square
    for e in (0, 1):
        m = 1 - Q(e, 2)
        for i in range(50):
            for j in range(50):
                nu = DivisorClass(Q(i, 50), Q(j, 50))
                assert dlp_line_bundles(nu, m, e).value >= Q(3, 8)
    _ok(5, "all property suites hold (>= 200 exact randomized cases each; "
           "2 x 2500 grid points for the 3/8 bound)")


def test_criterion_6_delta_bracket_sanity(table0, table1):
    rng = random.Random(106)
    checked = 0
    for e in (0, 1):
        table = table0 if e == 0 else table1
        m = 1 - Q(e, 2)
        for _ in range(10):
            da = rng.choice((1, 2, 3, 4))
            db = rng.choice((1, 2, 4)) if da in (3,) else rng.choice((1, 2, 3, 4))
            while math.lcm(da, db) > 4:
                db = rng.choice((1, 2, 4))
            nu = DivisorClass(Q(rng.randint(-6, 6), da), Q(rng.randint(-6, 6), db))
            r0 = math.lcm(da, db)
            uppers = []
            for mult in (1, 2, 3):
                br = delta_estimate(nu, m, e, r0 * mult, table)
                assert br.upper is None or br.lower <= br.upper
                uppers.append(br.upper)
            finite = [u for u in uppers if u is not None]
            assert all(x >= y for x, y in zip(finite, finite[1:])), (e, nu, uppers)
            checked += 1
    assert checked == 20
    _ok(6, "delta brackets ordered and upper bounds weakly decreasing through "
           "{r0, 2 r0, 3 r0} cutoffs at the anticanonical polarization, 20 slopes")

import random
from fractions import Fraction as Q

from conftest import random_integral_character, random_m
from hirzebruch import (
    CH_O,
    DivisorClass,
    euler_char,
    euler_pair,
    from_rank_slope_disc,
    generic_prioritary_index,
    intersect,
    interval_transport,
    moduli_nonempty,
    pi_map,
    reduce_decision,
    validate_hn,
)

F4_CHAR = from_rank_slope_disc(3, DivisorClass(Q(1, 3), 1), Q(4, 9), 4)


def test_pi_examples():
    assert pi_map(CH_O, "down") == CH_O
    w = pi_map(pi_map(F4_CHAR, "down"), "down")
    assert (w.r, int(w.c1.a), int(w.c1.b)) == (3, 1, 1)
    assert w.delta(0) == Q(4, 9)


def test_pi_bijection_and_invariance():
    rng = random.Random(51)
    for _ in range(200):
        e = rng.randint(2, 5)
        v = random_integral_character(rng, e)
        w = random_integral_character(rng, e)
        pv, pw = pi_map(v, "down"), pi_map(w, "down")
        assert pi_map(pv, "up") == v and pi_map(pi_map(v, "up"), "down") == v
        assert pv.delta(e - 2) == v.delta(e)
        assert euler_char(pv, e - 2) == euler_char(v, e)
        assert euler_pair(pv, pw, e - 2) == euler_pair(v, w, e)
        assert intersect(pv.c1, pw.c1, e - 2) == intersect(v.c1, w.c1, e)
        assert pv.is_integral(e - 2) == v.is_integral(e)


def test_interval_transport():
    assert interval_transport((Q(1, 2), Q(2)), 1) == (0, 1)
    assert interval_transport((Q(0), None), 1) == (0, None)
    assert interval_transport((Q(1, 3), None), 3) == (0, None)
    assert interval_transport((Q(1, 2), Q(2)), 2) is None  # collapses to empty
    assert interval_transport(None, 1) is None
    assert interval_transport((Q(1, 2), Q(5, 2)), 2) == (0, Q(1, 2))
    assert interval_transport((Q(1, 2), Q(2)), 0) == (Q(1, 2), Q(2))
    # k steps at once are k single steps
    rng = random.Random(53)
    for _ in range(200):
        lo = Q(rng.randint(0, 12), rng.randint(1, 6))
        hi = rng.choice([None, lo + Q(rng.randint(1, 40), rng.randint(1, 6))])
        cur = (lo, hi)
        for k in range(6):
            assert interval_transport((lo, hi), k) == cur, (lo, hi, k)
            cur = interval_transport(cur, 1)


def test_f4_example(table0):
    assert generic_prioritary_index(F4_CHAR, 4) == 1
    rec = table0.row(3, 1, 1)
    assert interval_transport((rec.lo, rec.hi), 2) is None
    cert, trace = reduce_decision(F4_CHAR, 4, 1)
    assert cert.verdict == "EMPTY"
    assert [s[:2] for s in trace.steps] == [(4, 2), (2, 0)]
    assert trace.steps[0][2:] == (1, 2) and trace.steps[1][2:] == (2, 3)
    validate_hn(cert.hn, F4_CHAR)
    assert cert.hn.e == 4 and cert.hn.m == 1


def test_rank_one_preserved():
    rng = random.Random(52)
    for _ in range(50):
        e = rng.randint(2, 6)
        m = random_m(rng)
        v = random_integral_character(rng, e, rmax=1)
        cert, _ = reduce_decision(v, e, m)
        assert cert.verdict == "NONEMPTY"
        assert moduli_nonempty(v, m, e).verdict == "NONEMPTY"


def test_cross_path_certificates():
    # the whole certificate: verdict, filtration with its m and e, wall flag
    rng = random.Random(53)
    for e in (2, 3, 4, 5):
        for _ in range(60):
            v = random_integral_character(rng, e, rmax=5, coeff=4)
            m = random_m(rng)
            assert moduli_nonempty(v, m, e) == reduce_decision(v, e, m)[0], (v, m, e)


def test_reduced_filtration_pulls_back():
    rng = random.Random(54)
    done = 0
    while done < 20:
        e = rng.choice((2, 3, 4))
        v = random_integral_character(rng, e, rmax=4, coeff=3)
        m = random_m(rng)
        cert, trace = reduce_decision(v, e, m)
        if cert.hn is None:
            done += 1
            continue
        total = cert.hn.factors[0]
        for f in cert.hn.factors[1:]:
            total = total + f
        assert total == v
        validate_hn(cert.hn, v, check_moduli=False)
        done += 1

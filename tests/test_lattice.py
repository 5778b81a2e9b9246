import random
from fractions import Fraction as Q

import pytest

from conftest import random_integral_character
from hirzebruch import (
    CH_O,
    DivisorClass,
    E,
    F,
    IntegralityError,
    canonical_divisor,
    character,
    dual,
    euler_char,
    euler_pair,
    format_rational,
    from_rank_slope_disc,
    hilbert_P,
    intersect,
    line_bundle,
    mu,
    parse_rational,
    polarization_divisor,
    reduced_hilbert_key,
    twist,
)
from hirzebruch.lattice import chi2, delta2


def test_intersection_form():
    assert intersect(E, F, 0) == 1
    assert intersect(E, F, 5) == 1
    assert intersect(E, E, 3) == -3
    assert intersect(F, F, 2) == 0
    d1 = DivisorClass(2, 3)
    d2 = DivisorClass(1, 1)
    assert intersect(d1, d2, 1) == 2 * 1 + 1 * 3 - 1 * 2 * 1


def test_intersect_symmetric_bilinear():
    rng = random.Random(1)
    for _ in range(200):
        e = rng.randint(0, 4)
        ds = [DivisorClass(Q(rng.randint(-9, 9), rng.randint(1, 4)),
                           Q(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3)]
        s, t = Q(rng.randint(-5, 5)), Q(rng.randint(-5, 5))
        assert intersect(ds[0], ds[1], e) == intersect(ds[1], ds[0], e)
        lhs = intersect(ds[0].scale(s) + ds[1].scale(t), ds[2], e)
        assert lhs == s * intersect(ds[0], ds[2], e) + t * intersect(ds[1], ds[2], e)


def test_hilbert_P_values():
    for e in range(4):
        assert hilbert_P(DivisorClass(0, 0), e) == 1
        k = canonical_divisor(e)
        assert hilbert_P(k, e) == 1  # P(K) = P(-0) by Serre symmetry
    assert hilbert_P(DivisorClass(Q(1, 2), Q(1, 3)), 1) == Q(3, 2) * (Q(4, 3) - Q(1, 4))
    assert hilbert_P(DivisorClass(Q(1, 2), Q(1, 3)), 1) == Q(13, 8)


def test_euler_pair_examples():
    for e in range(3):
        assert euler_pair(CH_O, CH_O, e) == 1
    k = character(2, 1, 0, Q(-3, 2))
    l = character(11, 2, 6, -5)
    assert euler_pair(k, l, 1) == 0
    # integrality witness
    v = from_rank_slope_disc(13, DivisorClass(Q(3, 13), Q(6, 13)), Q(98, 169), 1)
    assert euler_char(v, 1).denominator == 1


def test_integer_riemann_roch_matches_fractions():
    rng = random.Random(12)
    for _ in range(400):
        e = rng.randint(0, 5)
        k, l = [(rng.randint(1, 6), rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-40, 40))
                for _ in range(2)]
        v, w = [character(r, a, b, Q(s, 2)) for r, a, b, s in (k, l)]
        assert chi2(k, l, e) == 2 * euler_pair(v, w, e)
        assert delta2(k, e) == 2 * k[0] ** 2 * v.delta(e)


def test_euler_char_integer_on_integral():
    rng = random.Random(2)
    for _ in range(200):
        e = rng.randint(0, 3)
        v = random_integral_character(rng, e)
        assert v.is_integral(e)
        assert euler_char(v, e).denominator == 1


def test_serre_pairing_identity():
    rng = random.Random(3)
    k_e = {e: canonical_divisor(e) for e in range(4)}
    for _ in range(200):
        e = rng.randint(0, 3)
        v = random_integral_character(rng, e)
        w = random_integral_character(rng, e)
        dn = w.nu() - v.nu()
        lhs = euler_pair(v, w, e) + euler_pair(w, v, e)
        rhs = v.r * w.r * (hilbert_P(dn, e) + hilbert_P(-dn, e) - 2 * v.delta(e) - 2 * w.delta(e))
        assert lhs == rhs
        assert hilbert_P(dn, e) - hilbert_P(-dn, e) == -intersect(k_e[e], dn, e)


def test_mu_examples():
    assert mu(line_bundle(E, 0), 2) == 2
    assert mu(line_bundle(F, 0), Q(7, 3)) == 1
    assert mu(line_bundle(F, 1), 5) == 1
    k = character(2, 1, 0, Q(-3, 2))
    l = character(11, 2, 6, -5)
    assert mu(k, Q(12, 7)) == mu(l, Q(12, 7))


def test_twist_dual():
    assert twist(CH_O, E + F, 1) == line_bundle(E + F, 1)
    rng = random.Random(4)
    for _ in range(200):
        e = rng.randint(0, 3)
        v = random_integral_character(rng, e)
        L = DivisorClass(rng.randint(-4, 4), rng.randint(-4, 4))
        assert dual(dual(v)) == v
        assert twist(twist(v, L, e), -L, e) == v
        assert twist(v, L, e).delta(e) == v.delta(e)
        assert dual(v).delta(e) == v.delta(e)
        m = Q(rng.randint(1, 9), rng.randint(1, 3))
        assert mu(twist(v, L, e), m) == mu(v, m) + L.hm_degree(m)


def test_reduced_hilbert_key_ordering():
    # key order must match evaluation of P(nu + t H_m) - Delta at huge t
    rng = random.Random(5)
    t = 10 ** 6
    for _ in range(200):
        e = rng.randint(0, 2)
        m = Q(rng.randint(1, 9), rng.randint(1, 3))
        h = polarization_divisor(m, e)
        v = random_integral_character(rng, e)
        w = random_integral_character(rng, e)

        def p_red(u):
            return hilbert_P(u.nu() + h.scale(t), e) - u.delta(e)

        kv, kw = reduced_hilbert_key(v, m, e), reduced_hilbert_key(w, m, e)
        if kv == kw:
            assert p_red(v) == p_red(w)
        elif kv > kw:
            assert p_red(v) > p_red(w)
        else:
            assert p_red(v) < p_red(w)


def test_key_orders_by_slope_then_euler():
    # distinct mu orders by mu alone; equal mu orders by chi/r = P - Delta
    a = character(1, 1, 0, 0)
    b = character(1, 0, 0, 0)
    assert reduced_hilbert_key(a, 2, 0) > reduced_hilbert_key(b, 2, 0)
    v1 = from_rank_slope_disc(2, DivisorClass(0, 0), 1, 0)
    v2 = from_rank_slope_disc(2, DivisorClass(0, 0), 2, 0)
    assert reduced_hilbert_key(v1, 2, 0) > reduced_hilbert_key(v2, 2, 0)


def test_from_rank_slope_disc():
    assert from_rank_slope_disc(1, DivisorClass(0, 0), 0, 0) == CH_O
    v = from_rank_slope_disc(15, DivisorClass(Q(1, 5), Q(1, 3)), Q(3, 5), 0)
    assert v.is_integral(0) and v.c1 == DivisorClass(3, 5)
    for e in range(4):
        with pytest.raises(IntegralityError):
            from_rank_slope_disc(2, DivisorClass(Q(1, 2), 0), Q(1, 3), e)
    with pytest.raises(IntegralityError):
        from_rank_slope_disc(2, DivisorClass(Q(1, 3), 0), 0, 0)


def test_rational_serialization():
    assert format_rational(Q(8, 9)) == "8/9"
    assert format_rational(Q(2)) == "2"
    assert format_rational(Q(0)) == "0"
    assert format_rational(None) == "inf"
    assert parse_rational("-97/60") == Q(-97, 60)
    assert parse_rational(" 3 ") == 3
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1e-3")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_kronecker_pair_key_order_past_wall():
    k = character(2, 1, 0, Q(-3, 2))
    l = character(11, 2, 6, -5)
    m = Q(12, 7) + Q(1, 100)
    assert reduced_hilbert_key(k, m, 1) > reduced_hilbert_key(l, m, 1)
    m_wall = Q(12, 7)  # at the wall the slopes tie and chi/r orders l first
    assert reduced_hilbert_key(k, m_wall, 1) < reduced_hilbert_key(l, m_wall, 1)

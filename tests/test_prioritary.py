import random
from collections import Counter
from fractions import Fraction as Q
from math import ceil, floor

import pytest

from conftest import random_integral_character
from hirzebruch import (
    CH_O,
    ChernCharacter,
    DivisorClass,
    InternalError,
    character,
    delta_p,
    euler_char,
    from_rank_slope_disc,
    gaeta_character,
    gaeta_exponents,
    general_cohomology,
    generic_prioritary_index,
    intersect,
    l0_and_psi,
    polarization_divisor,
    prioritary_nonempty,
    prioritary_report,
    serre_dual,
    twist,
)
from hirzebruch import prioritary
from hirzebruch.prioritary import BogomolovViolation, prioritary_index_of_key

EX4 = from_rank_slope_disc(120, DivisorClass(Q(1, 2), Q(1, 3)), Q(11, 10), 1)


def test_worked_example_psi_l0():
    l0, psi, degenerate = l0_and_psi(EX4, 1)
    assert psi == Q(-97, 60)
    assert (l0.a, l0.b) == (1, -1)
    assert not degenerate
    # the bracket points L_0 = (1, -1) and -L_0(serre dual) = (2, 5) give the
    # prioritary bound n <= 5 - (-1) - e - 1 = 4
    l0d, _, _ = l0_and_psi(serre_dual(EX4, 1), 1)
    assert (-l0d.a, -l0d.b) == (2, 5)
    assert -l0d.b - l0.b - 1 - 1 == 4 == generic_prioritary_index(EX4, 1)


def test_worked_example_prioritary_range():
    assert prioritary_nonempty(EX4, 4, 1)
    assert not prioritary_nonempty(EX4, 5, 1)
    assert generic_prioritary_index(EX4, 1) == 4


def test_degenerate_epsilon():
    v = character(3, 3, 1, Q(-3, 2))  # nu = E + F/3, Delta = 1/3 on F_1
    assert v.delta(1) == Q(1, 3)
    _, psi, degenerate = l0_and_psi(v, 1)
    assert degenerate and psi is None
    assert generic_prioritary_index(v, 1) is None
    for n in (-3, 0, 5, 40):
        assert prioritary_nonempty(v, n, 1)


def test_low_index_always_prioritary():
    rng = random.Random(11)
    for _ in range(100):
        e = rng.randint(0, 3)
        v = random_integral_character(rng, e)
        assert prioritary_nonempty(v, -e, e)
        assert prioritary_nonempty(v, -e - rng.randint(0, 3), e)


def _index_by_fractions(v, e):
    # the closed formula of generic_prioritary_index in Fractions
    d = v.delta(e)
    eps, phi = v.nu().a, v.nu().b
    if eps.denominator == 1:
        return None
    psi = phi + Q(e, 2) * (ceil(eps) - eps) - d / (eps - floor(eps))
    gap = (ceil(eps) - eps) * (eps - floor(eps))
    return floor(d / gap - Q(e, 2) + 1 - (ceil(psi) - psi))


def test_integer_index_matches_fraction_formula():
    rng = random.Random(19)
    seen_none = seen_zero = 0
    for _ in range(20000):
        e = rng.randint(0, 5)
        r = rng.randint(1, 12)
        a = rng.randint(-15, 15) if rng.random() < 0.9 else r * rng.randint(-2, 2)
        b = rng.randint(-15, 15)
        c1sq = 2 * a * b - e * a * a
        c2_min = -((-(c1sq * (r - 1))) // (2 * r))  # smallest c2 with Delta >= 0
        c2 = c2_min + (0 if rng.random() < 0.2 else rng.randint(0, 4 * r))
        v = ChernCharacter(r, DivisorClass(a, b), Q(c1sq, 2) - c2)
        expected = _index_by_fractions(v, e)
        assert prioritary_index_of_key((r, a, b, c1sq - 2 * c2), e) == expected
        assert generic_prioritary_index(v, e) == expected
        seen_none += expected is None
        seen_zero += v.delta(e) == 0
    assert seen_none > 1000 and seen_zero > 1000
    # non-integral characters go through an integral multiple
    v = ChernCharacter(3, DivisorClass(Q(1, 2), Q(2, 3)), Q(-5, 7))
    assert generic_prioritary_index(v, 1) == _index_by_fractions(v, 1)


def _chi_criterion(v, n, e):
    # the former body of prioritary_nonempty: chi(v(-L_0 - H_n)) <= 0
    if v.delta(e) < 0:
        return False
    l0, _, degenerate = l0_and_psi(v, e)
    if degenerate:
        return True
    return euler_char(twist(v, -(l0 + polarization_divisor(n, e)), e), e) <= 0


def test_prioritary_nonempty_matches_chi_criterion():
    rng = random.Random(29)
    seen = Counter()
    for _ in range(20000):
        e = rng.randint(0, 4)
        r = rng.randint(1, 10)
        da, db = (1, 1) if rng.random() < 0.5 else (rng.randint(1, 3), rng.randint(1, 3))
        # an integral eps = a/(da r) one draw in six
        a = r * da * rng.randint(-2, 2) if rng.random() < 1 / 6 else rng.randint(-15, 15)
        nu = DivisorClass(Q(a, da * r), Q(rng.randint(-15, 15), db * r))
        delta = Q(rng.randint(-3, 30), rng.choice((1, 2, r, 2 * r, 2 * r * r, rng.randint(1, 7))))
        v = ChernCharacter(r, nu.scale(r), r * (intersect(nu, nu, e) / 2 - delta))
        n = rng.randint(-3, 8)
        got = prioritary_nonempty(v, n, e)
        assert got == _chi_criterion(v, n, e), (v, n, e)
        seen[got] += 1
        seen["integral"] += v.is_integral(e)
        seen["integral eps"] += nu.a.denominator == 1
        seen["Delta < 0"] += delta < 0
    assert seen[True] > 5000 and seen[False] > 3000
    assert seen["integral"] > 2000 and 20000 - seen["integral"] > 10000
    assert seen["integral eps"] > 2000 and seen["Delta < 0"] > 1000


def test_bogomolov_failures():
    v = character(2, 0, 0, 1)  # Delta = -1/2
    assert not prioritary_nonempty(v, 1, 0)
    with pytest.raises(BogomolovViolation):
        generic_prioritary_index(v, 0)
    # non-integral c1 and ch2: the test runs on an integral multiple
    v = character(3, Q(1, 2), 0, Q(1, 3))  # Delta = -1/9
    assert not prioritary_nonempty(v, 1, 0)
    with pytest.raises(BogomolovViolation, match="Delta = -1/9 < 0"):
        generic_prioritary_index(v, 0)
    # rank 0 has no Delta
    with pytest.raises(ZeroDivisionError):
        prioritary_nonempty(character(0, 1, 0, 0), 1, 0)
    with pytest.raises(ZeroDivisionError):
        generic_prioritary_index(character(0, 1, 0, 0), 0)


def test_gaeta_exponents():
    for e in (0, 1, 2):
        assert gaeta_exponents(CH_O, e).as_tuple() == (0, 0, 0, 1)
    exps = gaeta_exponents(EX4, 1)
    assert exps.alpha >= 0 and exps.delta > 0 and exps.beta >= 0 and exps.gamma >= 0


def test_gaeta_resolution_identity():
    # the four Euler characteristics are the coordinates of v in the
    # line-bundle basis, so the K-class identity holds exactly
    rng = random.Random(12)
    for _ in range(200):
        e = rng.randint(0, 2)
        v = random_integral_character(rng, e)
        l0, _, _ = l0_and_psi(v, e)
        assert gaeta_character(gaeta_exponents(v, e), l0, e) == v


def test_prioritary_monotone_in_n():
    rng = random.Random(13)
    for _ in range(200):
        e = rng.randint(0, 2)
        v = random_integral_character(rng, e)
        n = rng.randint(-3, 6)
        if prioritary_nonempty(v, n, e):
            assert prioritary_nonempty(v, n - 1, e)


def test_delta_p_triangle_case():
    # worked case: nu = -E/2 - F/4 on F_0 at n = 2 normalizes (via a dual and
    # a twist) to weights (1/2, 1/4, 1/4), i.e. O(-E+F)^2 + O + O(-F) at r=4
    val = delta_p(DivisorClass(Q(-1, 2), Q(-1, 4)), 2, 0)
    A, B, C, r = 2, 1, 1, 4
    expected = Q(A * (B * (0 + 2 * 2 - 2) + C * (0 + 2 * 2)), 2 * r * r)
    assert val == expected == Q(3, 8)


def test_delta_p_degenerate_and_low_index():
    for e in (0, 1, 2):
        assert delta_p(DivisorClass(2, -5), 3, e) == 0  # integral slope
        for n in range(-e - 3, -e + 1):
            assert delta_p(DivisorClass(Q(1, 2), Q(1, 3)), n, e) == 0


def test_delta_p_twist_dual_invariance():
    rng = random.Random(14)
    for _ in range(200):
        e = rng.randint(0, 2)
        nu = DivisorClass(Q(rng.randint(-8, 8), rng.randint(1, 4)),
                          Q(rng.randint(-8, 8), rng.randint(1, 4)))
        n = rng.randint(-2, 5)
        base = delta_p(nu, n, e)
        L = DivisorClass(rng.randint(-3, 3), rng.randint(-3, 3))
        assert delta_p(nu + L, n, e) == base
        assert delta_p(-nu, n, e) == base


def test_prioritary_iff_delta_p():
    # the chi(v(-L0-H_n)) test and the triangle bound must agree exactly
    rng = random.Random(15)
    for _ in range(200):
        e = rng.randint(0, 2)
        v = random_integral_character(rng, e)
        n = rng.randint(-2, 6)
        assert prioritary_nonempty(v, n, e) == (v.delta(e) >= delta_p(v.nu(), n, e))


def test_delta_p_matches_the_triangle_construction():
    # the closed form against the triangle normalization and barycentric
    # weights it replaced, on slopes with denominators up to 12, negative n
    # and e up to 6 included
    from oracles import delta_p_by_triangle

    rng = random.Random(31)
    seen = Counter()
    for _ in range(20000):
        e = rng.randint(0, 6)
        nu = DivisorClass(Q(rng.randint(-40, 40), rng.randint(1, 12)), Q(rng.randint(-40, 40), rng.randint(1, 12)))
        n = rng.randint(-8, 10)
        got = delta_p(nu, n, e)
        assert got == delta_p_by_triangle(nu, n, e), (nu, n, e)
        seen["n < 0"] += n < 0
        seen["e = 6"] += e == 6
        seen["positive"] += got > 0
        seen["integral eps"] += nu.a.denominator == 1
    assert min(seen["n < 0"], seen["e = 6"], seen["integral eps"]) > 1000 and seen["positive"] > 5000, seen


def test_report_flags():
    rep = prioritary_report(EX4, 1)
    assert rep.rho_gen == 4 and not rep.degenerate_epsilon and not rep.zero_discriminant
    assert rep.delta_p_at(5) > EX4.delta(1) >= rep.delta_p_at(4)
    v0 = character(2, 1, 0, 0)  # nu = E/2, Delta = 0 on F_0
    assert v0.delta(0) == 0
    rep0 = prioritary_report(v0, 0)
    assert rep0.zero_discriminant and not rep0.degenerate_epsilon


# ---------------------------------------------------------------------------
# Betti numbers of the general sheaf

def test_general_cohomology_basics():
    for e in (0, 1, 2):
        assert general_cohomology(CH_O, e) == (1, 0, 0)
    # nu.F = -1: only h1 = -chi survives
    v = from_rank_slope_disc(3, DivisorClass(-1, Q(2, 3)), Q(1, 3), 1)
    chi = euler_char(v, 1)
    assert general_cohomology(v, 1) == (0, -chi, 0)
    # case (5) worked example on F_0
    v = from_rank_slope_disc(2, DivisorClass(Q(-1, 2), 0), 0, 0)
    assert euler_char(v, 0) == 1
    assert general_cohomology(v, 0) == (1, 0, 0)


def test_general_cohomology_rank_one():
    # ideal sheaves of n points twisted by O(aE + bF)
    v = character(1, 2, 3, Q(6 - 0, 1) - 2)  # e = 0: ch2 = c1^2/2 - c2 = 6 - 2
    h0, h1, h2 = general_cohomology(v, 0)
    assert (h0, h1, h2) == (3 * 4 - 2, 0, 0)
    v = character(1, -3, -4, Q(2 * 12 - 1 * 9, 2))  # e = 1, c2 = 0
    h = general_cohomology(v, 1)
    assert h[0] == 0 and h[2] > 0


def test_general_cohomology_consistency():
    rng = random.Random(16)
    for _ in range(300):
        e = rng.randint(0, 2)
        v = random_integral_character(rng, e)
        h0, h1, h2 = general_cohomology(v, e)
        assert min(h0, h1, h2) >= 0
        assert h0 - h1 + h2 == euler_char(v, e)


def test_general_cohomology_elementary_modification():
    # raising Delta by 1/r decrements h0 (if positive) else increments h1,
    # holding h2, on the region nu.F >= -1 (plus all of rank one)
    rng = random.Random(17)
    done = 0
    while done < 200:
        e = rng.randint(0, 2)
        v = random_integral_character(rng, e)
        if v.r > 1 and v.c1.a < -v.r:
            continue
        w = ChernCharacter(v.r, v.c1, v.ch2 - 1)
        h = general_cohomology(v, e)
        hw = general_cohomology(w, e)
        if h[0] > 0:
            assert hw == (h[0] - 1, h[1], h[2])
        else:
            assert hw == (h[0], h[1] + 1, h[2])
        done += 1


def test_general_cohomology_serre_side():
    rng = random.Random(18)
    done = 0
    while done < 100:
        e = rng.randint(0, 2)
        v = random_integral_character(rng, e)
        if v.r < 2 or v.c1.a >= -v.r:  # want nu.F < -1
            continue
        h0, h1, h2 = general_cohomology(v, e)
        assert h0 == 0
        assert h0 - h1 + h2 == euler_char(v, e)
        done += 1


def test_general_cohomology_matches_the_twist_walk():
    # h0 from one twist by -kE against the walk that twists by -E one step
    # at a time, on integral characters of rank 1-9 over e = 0..5
    from oracles import general_cohomology_by_twist_walk

    rng = random.Random(32)
    seen = Counter()
    for _ in range(10000):
        e = rng.randint(0, 5)
        v = random_integral_character(rng, e, rmax=9, coeff=12, extra=rng.choice((0, 2, 8)))
        h = general_cohomology(v, e)
        assert h == general_cohomology_by_twist_walk(v, e), (v, e)
        nu = v.nu()
        walk = v.r > 1 and nu.a > -1 and nu.b - e * nu.a < -1     # nu.F > -1 > nu.E
        seen["h0 > 0"] += h[0] > 0
        seen["rank one"] += v.r == 1
        seen["nu.F < -1"] += nu.a < -1
        seen["walk"] += walk
        seen["walk, h0 > 0"] += walk and h[0] > 0
    assert min(seen["h0 > 0"], seen["rank one"], seen["nu.F < -1"], seen["walk"]) > 500, seen
    assert seen["walk, h0 > 0"] > 100, seen


# each broken invariant raises InternalError (exit 5 in `hirz`), also under -O
def test_negative_rank_one_h1_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(prioritary, "euler_char", lambda v, e: Q(10 ** 6))
    with pytest.raises(InternalError, match="h1"):
        general_cohomology(character(1, 0, 0, 0), 0)


def test_non_integral_chi_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(prioritary, "euler_char", lambda v, e: Q(1, 2))
    with pytest.raises(InternalError, match="chi"):
        general_cohomology(character(2, 0, 0, 0), 0)

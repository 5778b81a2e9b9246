import itertools
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from hirzebruch import (
    DivisorClass,
    KroneckerDomainError,
    KroneckerParams,
    InternalError,
    character,
    delta_closed_form,
    delta_estimate,
    euler_pair,
    hn_generic,
    kronecker_characters,
    verdict,
    wall_crossing_epsilon,
    wall_m_l,
    wall_m_v,
)
from hirzebruch import kronecker
from hirzebruch.kronecker import in_psi_interval, params_for_slope
from oracles import TriangleR, sign_biquadratic, sign_with_sqrt

P_F0 = KroneckerParams(0, 3, 1, 1, 2, 15)
P_F1 = KroneckerParams(1, 3, 1, 1, 2, 13)


def test_characters_worked_examples():
    k, l, v = kronecker_characters(P_F0)
    assert (k.r, (int(k.c1.a), int(k.c1.b)), k.delta(0)) == (2, (1, -1), Q(3, 4))
    assert (l.r, (int(l.c1.a), int(l.c1.b)), l.delta(0)) == (13, (2, 6), Q(90, 169))
    assert (v.r, (int(v.c1.a), int(v.c1.b)), v.delta(0)) == (15, (3, 5), Q(3, 5))
    k, l, v = kronecker_characters(P_F1)
    assert (k.r, (int(k.c1.a), int(k.c1.b)), k.delta(1)) == (2, (1, 0), Q(5, 8))
    assert (l.r, (int(l.c1.a), int(l.c1.b)), l.delta(1)) == (11, (2, 6), Q(65, 121))
    assert (v.r, (int(v.c1.a), int(v.c1.b)), v.delta(1)) == (13, (3, 6), Q(98, 169))


def _random_admissible(rng):
    # sample ell then pick b/a and d/c inside the exact admissible windows
    e = rng.randint(0, 1)
    ell = rng.randint(3, 5)
    k = ell - e
    n = 2 * (k - 1) + e
    mm = 2 * (ell + 1) - e
    for _ in range(200):
        a = rng.randint(1, 4)
        b = rng.randint(1, 4 * n)
        c = rng.randint(1, 3)
        d = rng.randint((2 * ell - e + 1) * c + 1, mm * c)
        if in_psi_interval(Q(b, a), n) and Q(d, c) > 2 * ell - e + 1 and in_psi_interval(Q(d, c), mm):
            return KroneckerParams(e, ell, a, b, c, d)
    raise AssertionError("sampler failed")


def test_orthogonality_random():
    rng = random.Random(41)
    for _ in range(100):
        p = _random_admissible(rng)
        k, l, v = kronecker_characters(p)
        assert euler_pair(k, l, p.e) == 0
        assert v == k + l
        assert k.is_integral(p.e) and l.is_integral(p.e)


def test_walls():
    assert wall_m_v(P_F0) == Q(25, 9)
    assert wall_m_v(P_F1) == Q(12, 7)
    assert wall_m_l(P_F1) == Q(13, 2) - 3 - 1 == Q(5, 2)
    rng = random.Random(42)
    for _ in range(50):
        p = _random_admissible(rng)
        m = wall_m_v(p)
        assert 1 - Q(p.e, 2) < m < p.k
        assert m < wall_m_l(p)


def test_inadmissible_rejected():
    with pytest.raises(KroneckerDomainError):
        KroneckerParams(0, 2, 1, 1, 2, 15)
    p = KroneckerParams(0, 3, 1, 5, 2, 15)  # b/a = 5 > psi_4
    assert not p.is_admissible()
    with pytest.raises(KroneckerDomainError):
        kronecker_characters(p)


def test_non_integer_exponents_are_refused():
    # a float used to raise a bare TypeError from Fraction in is_admissible,
    # and a bool to answer as 1
    for exps in ((1.5, 1, 2, 13), (1, True, 2, 13), (True, True, 2, 13), (1, 1, 2.0, 13),
                 (1, 1, 2, "13"), (1, 1, 2, Q(13)), (1, 1, None, 13), (0, 1, 2, 13), (1, 1, 2, -13)):
        with pytest.raises(KroneckerDomainError, match="must be positive ints") as info:
            KroneckerParams(1, 3, *exps)
        assert repr(exps) in str(info.value)
    assert KroneckerParams(1, 3, 1, 1, 2, 13) == P_F1 and P_F1.is_admissible()


def test_is_admissible_is_the_three_condition_window():
    # the one quotient-pair test behind is_admissible, against the formula
    # that _random_admissible writes inline; d/c is drawn around the cokernel
    # window so that each of the three conditions is the one that fails
    rng = random.Random(45)
    seen = Counter()
    for _ in range(3000):
        e, ell = rng.randint(0, 1), rng.randint(3, 6)
        k = ell - e
        n, mm = 2 * (k - 1) + e, 2 * (ell + 1) - e
        a, b, c = rng.randint(1, 6), rng.randint(1, 6 * n), rng.randint(1, 4)
        d = rng.randint((2 * ell - e) * c, (mm + 1) * c)
        ext = in_psi_interval(Q(b, a), n)
        low, high = Q(d, c) > 2 * ell - e + 1, in_psi_interval(Q(d, c), mm)
        assert KroneckerParams(e, ell, a, b, c, d).is_admissible() == (ext and low and high)
        seen[ext, low, high] += 1
    assert all(seen[key] >= 100 for key in ((True, True, True), (False, True, True),
                                            (True, False, True), (True, True, False))), seen


def test_params_for_slope_refuses_only_where_the_closed_form_does():
    # delta_closed_form and params_for_slope read one crossing test: where
    # the parameters are refused the closed form is too, and where the closed
    # form has a value the parameters are admissible
    rng = random.Random(46)
    seen = Counter()
    for _ in range(2000):
        if rng.random() < 0.3:
            # slopes of the construction, near its wall
            p = _random_admissible(rng)
            e, ell = p.e, p.ell
            nu, m = kronecker_characters(p)[2].nu(), wall_m_v(p) * Q(rng.randint(80, 120), 100)
        else:
            e, ell = rng.randint(0, 1), rng.randint(3, 5)
            x0, y0 = Q(rng.randint(-3, 12), rng.randint(1, 24)), Q(rng.randint(-6, 20), rng.randint(1, 24))
            nu = DivisorClass(x0, y0)
            m = Q(rng.randint(1, 60), rng.randint(1, 12))
        try:
            value = delta_closed_form(nu, m, e, ell)
        except KroneckerDomainError:
            value = None
        try:
            p = params_for_slope(nu, m, e, ell)
        except KroneckerDomainError:
            assert value is None, (nu, m, e, ell)
            seen["both refuse"] += 1
            continue
        assert p.is_admissible() and (p.e, p.ell) == (e, ell)
        seen["only params" if value is None else "both"] += 1
    assert min(seen["both refuse"], seen["only params"], seen["both"]) >= 5, seen


def test_psi_interval_against_sqrt_oracle():
    # q in (psi_N^{-1}, psi_N) iff q^2 - N q + 1 < 0, checked against exact
    # integer-square-root comparisons with psi_N = (N + sqrt(N^2-4))/2
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(3, 9)
        q = Q(rng.randint(1, 60), rng.randint(1, 12))
        disc = n * n - 4

        def lt_psi(x):  # x < (n + sqrt(disc))/2  <=>  2x - n < sqrt(disc)
            t = 2 * x - n
            if t < 0:
                return True
            return t * t < disc

        def gt_psi_inv(x):  # x > (n - sqrt(disc))/2 <=> sqrt(disc) > n - 2x
            t = n - 2 * x
            if t < 0:
                return True
            return t * t < disc

        assert in_psi_interval(q, n) == (lt_psi(q) and gt_psi_inv(q))


def test_sign_with_sqrt():
    assert sign_with_sqrt(Q(-3), Q(1), 5) < 0      # sqrt(5) < 3
    assert sign_with_sqrt(Q(-2), Q(1), 5) > 0      # sqrt(5) > 2
    assert sign_with_sqrt(Q(9, 4), Q(-1), 5) > 0   # 9/4 > sqrt 5
    assert sign_with_sqrt(Q(0), Q(0), 7) == 0
    assert sign_with_sqrt(Q(4), Q(-2), 4) == 0     # 4 - 2 sqrt(4) = 0
    with pytest.raises(ValueError, match="negative radicand"):
        sign_with_sqrt(Q(1), Q(1), -1)


def test_biquadratic_sign_against_square_radicands():
    # with A = a^2 and B = b^2 the sign of (g0 + g1 sqrt A) + (h0 + h1 sqrt A)
    # sqrt B is that of g0 + g1 a + (h0 + h1 a) b in Fractions; each mode
    # builds one cancellation on purpose: H = 0 term by term, H = 0 as a
    # value, G = 0, and G = -H sqrt B with G and H of opposite signs; a and
    # b include 0, so sqrt A and sqrt B vanish too
    rng = random.Random(57)
    seen = Counter()
    for mode in ("random", "h_terms", "h_value", "g_value", "cancel") * 120:
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        g0, g1, h0, h1 = (Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        if mode == "h_terms":
            h0 = h1 = Q(0)
        elif mode == "h_value":
            h0 = -h1 * a
        elif mode == "g_value":
            g0 = -g1 * a
        elif mode == "cancel":
            g0 = -g1 * a - (h0 + h1 * a) * b
        G, H = g0 + g1 * a, h0 + h1 * a
        want = (G + H * b > 0) - (G + H * b < 0)
        assert sign_biquadratic(g0, g1, h0, h1, a * a, b * b) == want, (a, b, g0, g1, h0, h1)
        seen["h_terms"] += h0 == h1 == 0
        seen["h_value"] += H == 0 and (h0, h1) != (0, 0)
        seen["g_value"] += G == 0 and H != 0
        seen["cancel"] += G * H < 0 and want == 0
    assert min(seen[mode] for mode in ("h_terms", "h_value", "g_value", "cancel")) >= 20, seen


def test_delta_closed_form_values():
    assert delta_closed_form(DivisorClass(Q(1, 5), Q(1, 3)), Q(25, 9), 0, 3) == Q(3, 5)
    assert delta_closed_form(DivisorClass(Q(3, 13), Q(6, 13)), Q(12, 7), 1, 3) == Q(98, 169)


def test_delta_closed_form_continuity():
    base = delta_closed_form(DivisorClass(Q(1, 5), Q(1, 3)), Q(25, 9), 0, 3)
    eps = Q(1, 10 ** 6)
    for m in (Q(25, 9) + eps, Q(25, 9) - eps):
        val = delta_closed_form(DivisorClass(Q(1, 5), Q(1, 3)), m, 0, 3)
        assert abs(val - base) < Q(1, 10 ** 3)


def test_delta_closed_form_domain_errors():
    with pytest.raises(KroneckerDomainError):
        delta_closed_form(DivisorClass(Q(1, 5), Q(1, 3)), 3, 0, 3)  # m = k
    with pytest.raises(KroneckerDomainError):
        delta_closed_form(DivisorClass(Q(9, 10), Q(1, 3)), Q(25, 9), 0, 3)
    with pytest.raises(KroneckerDomainError):
        delta_closed_form(DivisorClass(Q(1, 5), Q(1, 3)), Q(1, 10), 0, 3)
    # both functions name the missed segment: the extension one by b/a, the
    # cokernel one by d/c or, before either quotient, by x2 <= 0
    for x0, y0, m, segment in ((Q(9, 10), Q(1, 3), Q(25, 9), "extension"), (Q(1, 5), Q(1, 3), 5, "extension"),
                               (Q(1, 5), Q(1, 3), Q(1, 10), "cokernel"), (Q(1, 5), Q(-1, 3), 1, "cokernel"),
                               (Q(1, 5), -1, 1, "cokernel")):     # b/a = 9 misses too
        for fn in (delta_closed_form, params_for_slope):
            with pytest.raises(KroneckerDomainError, match="^line misses the open %s segment$" % segment):
                fn(DivisorClass(x0, y0), m, 0, 3)


def test_params_for_slope_roundtrip():
    p = params_for_slope(DivisorClass(Q(1, 5), Q(1, 3)), Q(25, 9), 0, 3)
    assert (p.a, p.b, p.c, p.d) == (1, 1, 2, 15)
    p = params_for_slope(DivisorClass(Q(3, 13), Q(6, 13)), Q(12, 7), 1, 3)
    assert (p.a, p.b, p.c, p.d) == (1, 1, 2, 13)


def test_params_for_slope_refuses_undefined_crossing_quotients():
    # the slope -m line meets the K-side at x1 = 1 or the L-side at x2 = 0
    # (both for the first slope, x2 = 0 for the second, x1 = 1 for the
    # third): b/a = x1/(1 - x1) or d/c = (1 + x2)/x2 has a zero denominator
    for nu, m in ((DivisorClass(Q(-1, 5), Q(1, 5)), 1), (DivisorClass(Q(1, 5), Q(-1, 10)), Q(1, 2)),
                  (DivisorClass(Q(1, 5), Q(1, 5)), Q(3, 2))):
        with pytest.raises(KroneckerDomainError):
            params_for_slope(nu, m, 1, 3)
        with pytest.raises(KroneckerDomainError):
            delta_closed_form(nu, m, 1, 3)


def test_triangle_membership():
    tri = TriangleR(0, 3)
    assert tri.contains(DivisorClass(Q(1, 5), Q(1, 3)))
    # the cokernel-family slope sits on the boundary segment P3 P4
    assert not tri.contains(DivisorClass(Q(2, 13), Q(6, 13)))
    assert tri.contains(DivisorClass(Q(2, 13), Q(6, 13)), closed=True)
    p4 = DivisorClass(Q(1, 6), Q(1, 2))
    assert not tri.contains(p4)          # vertex: not in the open triangle
    assert tri.contains(p4, closed=True)
    assert not tri.contains(DivisorClass(2, 2))
    assert not tri.contains(DivisorClass(Q(1, 5), Q(3, 5)))  # above y = ell x
    tri1 = TriangleR(1, 3)
    assert tri1.contains(DivisorClass(Q(3, 13), Q(6, 13)))
    assert not tri1.contains(DivisorClass(Q(1, 2), Q(1, 2)))


def test_closed_form_answers_only_inside_the_open_triangle():
    # nu drawn on slope -m lines through R: the line joins x1 on the K-side
    # y = -k x + 1 to x2 on the L-side y = ell x, both drawn around their
    # open construction segments, and nu = x2 + lam (x1 - x2) with lam
    # around (0, 1); wherever delta_closed_form answers, the oracle's open
    # R holds nu
    rng = random.Random(59)
    answers = refused = 0
    for _ in range(2000):
        e, ell = rng.randint(0, 1), rng.randint(3, 6)
        k = ell - e
        x1 = Q(rng.randint(1, 99), 100)
        x2 = Q(rng.randint(80, 110), 100 * (2 * ell - e))
        y1, y2 = 1 - k * x1, ell * x2
        if x1 == x2 or (y2 - y1) / (x1 - x2) <= 0:
            continue
        m = (y2 - y1) / (x1 - x2)
        lam = Q(rng.randint(-10, 110), 100)
        nu = DivisorClass(x2 + lam * (x1 - x2), y2 + lam * (y1 - y2))
        try:
            delta_closed_form(nu, m, e, ell)
        except KroneckerDomainError:
            refused += 1
            continue
        assert TriangleR(e, ell).contains(nu), (nu, m, e, ell)
        answers += 1
    assert answers >= 300 and refused >= 300, (answers, refused)


def test_wall_crossing_epsilon_and_hn():
    for p in (P_F0, P_F1):
        eps = wall_crossing_epsilon(p)
        assert eps == Q(1, 10)
        k, l, v = kronecker_characters(p)
        dec = hn_generic(v, wall_m_v(p) + eps, p.e)
        assert dec.factors == (k, l)


def test_small_params_hn_cross_check():
    # admissibility forces d/c > 2 ell - e + 1, so the smallest cases have
    # total rank 13; sample a few near that floor
    rng = random.Random(44)
    done = 0
    while done < 3:
        p = _random_admissible(rng)
        k, l, v = kronecker_characters(p)
        if v.r > 16 or p.ell > 3:
            continue
        eps = wall_crossing_epsilon(p)
        dec = hn_generic(v, wall_m_v(p) + eps, p.e)
        assert dec.factors == (k, l)
        done += 1


def test_closed_form_matches_estimator(wide_tables):
    # every admissible family with e in {0, 1}, ell in 3..5, 1 <= a, b, c <= 3
    # and d < 40 whose sum character has rank <= 24 (74 families, the
    # largest d is 25): at the wall m_V, away from the anticanonical
    # polarization, the estimator's upper bound is the closed form, the
    # DLP bound stays strictly below it and the witness is NONEMPTY
    families = [p for p in itertools.starmap(KroneckerParams, itertools.product(
                    (0, 1), range(3, 6), range(1, 4), range(1, 4), range(1, 4), range(1, 40)))
                if p.is_admissible() and kronecker_characters(p)[2].r <= 24]
    assert len(families) == 74 and {P_F0, P_F1} <= set(families)
    for p in families:
        v = kronecker_characters(p)[2]
        m = wall_m_v(p)
        bracket = delta_estimate(v.nu(), m, p.e, v.r, wide_tables[p.e])
        assert bracket.upper == delta_closed_form(v.nu(), m, p.e, p.ell), p
        assert bracket.lower < bracket.upper, p
        assert bracket.witness is not None and verdict(bracket.witness, m, p.e) == "NONEMPTY", p


# each broken invariant raises InternalError (exit 5 in `hirz`), also under -O
def test_characters_orthogonality_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(kronecker, "euler_pair", lambda *args: 1)
    p = KroneckerParams(0, 3, 1, 1, 2, 15)      # not P_F0, whose characters may be cached
    for _ in range(2):      # a refused build is not cached
        with pytest.raises(InternalError, match="chi"):
            kronecker_characters(p)


@pytest.mark.parametrize("name, fake, match", [
    # K = O and L = O(E - 100 F) tie at m = 100, above k
    ("characters", lambda p: (character(1, 0, 0, 0), character(1, 1, -100, 0), None), "escaped"),
    ("wall_m_l", lambda p: Q(0), "m_L"),
    ("mu", lambda v, m: Q(v.r), "slopes"),
])
def test_wall_invariants_are_internal_errors(monkeypatch, name, fake, match):
    if name == "characters":
        # a property of KroneckerParams, read before any cached value
        monkeypatch.setattr(KroneckerParams, name, property(fake))
    else:
        monkeypatch.setattr(kronecker, name, fake)
    # fresh parameters, not P_F1, whose wall may be cached past the check
    p = KroneckerParams(1, 3, 1, 1, 2, 13)
    for _ in range(2):      # a refused wall is not cached
        with pytest.raises(InternalError, match=match):
            wall_m_v(p)


def test_wall_crossing_epsilon_gives_up_without_a_confirming_eps(monkeypatch):
    # an engine that never returns the filtration (k, l) at any m_V + 10^-j
    from hirzebruch import existence

    calls = []
    monkeypatch.setattr(existence, "hn_generic", lambda v, m, e: calls.append(m))
    p = KroneckerParams(0, 3, 1, 1, 2, 15)
    with pytest.raises(KroneckerDomainError, match="^no eps of the form 10\\^-j \\(j <= 9\\) confirms"):
        wall_crossing_epsilon(p)
    assert calls == [wall_m_v(p) + Q(1, 10 ** j) for j in range(1, 10)]


def test_degenerate_crossing_is_an_internal_error(monkeypatch):
    # the slope -m line through P4 = (1/6, 1/2) of (e, ell) = (0, 3) crosses
    # both sides at x = 1/6, where b/a = 1/5 < 1/psi_4 is refused first
    p4 = DivisorClass(Q(1, 6), Q(1, 2))
    for m in (Q(1), Q(5, 2), Q(7)):
        with pytest.raises(KroneckerDomainError, match="extension segment"):
            delta_closed_form(p4, m, 0, 3)
    monkeypatch.setattr(kronecker, "_missed_segment", lambda *args: None)
    with pytest.raises(InternalError, match="degenerate crossing at 1/6"):
        delta_closed_form(p4, 1, 0, 3)


def test_triangle_reference_side_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(TriangleR, "_side_p2p3_sign", lambda self, x, y: 0)
    with pytest.raises(InternalError, match="P4"):
        TriangleR(0, 3).contains(DivisorClass(Q(1, 5), Q(1, 3)))

import itertools
import math
import random
import sys
from fractions import Fraction as Q

import pytest

from conftest import random_integral_character, random_m
from hirzebruch import (
    CH_O,
    ChernCharacter,
    DecisionCertificate,
    DivisorClass,
    HNDecomposition,
    character,
    delta_estimate,
    dual,
    euler_pair,
    exceptional_character,
    exists_above,
    generic_prioritary_index,
    hilbert_P,
    hn_generic,
    is_wall,
    kronecker_characters,
    KroneckerParams,
    moduli_nonempty,
    reduced_hilbert_key,
    twist,
    validate_hn,
    verdict,
)
from hirzebruch import dlp_below_rank, existence, intersect
from hirzebruch.lattice import chi2, fiber_window, from_key, hilbert_P2, int_key
from hirzebruch.prioritary import BogomolovViolation
from oracles import DecompositionOracle, key_of

P_F1 = KroneckerParams(1, 3, 1, 1, 2, 13)
P_F0 = KroneckerParams(0, 3, 1, 1, 2, 15)


def test_rank_one():
    for e in (0, 1, 2):
        for m in (Q(1, 3), 1, Q(7, 2)):
            dec = hn_generic(CH_O, m, e)
            assert dec is not None and dec.factors == (CH_O,)
            assert moduli_nonempty(CH_O, m, e).verdict == "NONEMPTY"
    with pytest.raises(BogomolovViolation):
        hn_generic(character(1, 0, 0, 1), 1, 0)  # Delta = -1


def test_hn_factors_are_the_characters_of_their_keys():
    # a length-one filtration hands back v itself, which equals
    # from_key(int_key(v)); longer ones are built from their keys.  Either
    # way every field has the exact type Fraction
    rng = random.Random(67)
    lengths = set()
    for e, m in ((0, Q(1, 3)), (1, Q(3, 2)), (0, Q(12, 7)), (1, 3)):
        for _ in range(80):
            v = random_integral_character(rng, e, rmax=6, coeff=4)
            dec = hn_generic(v, m, e)
            if dec is None:
                continue
            lengths.add(len(dec))
            if len(dec) == 1:
                assert dec.factors == (from_key(int_key(v)),)
                assert moduli_nonempty(v, m, e).hn.factors == dec.factors
            for f in dec.factors:
                assert type(f.r) is int and all(type(x) is Q for x in (f.c1.a, f.c1.b, f.ch2))
    assert {1, 2, 3} <= lengths
    # longer filtrations are unchanged
    cases = [
        (0, Q(1, 3), character(4, 0, -1, -2), [(1, 0, 0, 0), (3, 0, -1, -2)]),
        (0, Q(1, 3), character(6, -1, 2, -2), [(2, -2, 2, -2), (1, 1, 0, 0), (3, 0, 0, 0)]),
        (0, Q(1, 3), character(5, -1, 3, -2),
         [(1, 0, 1, 0), (2, -2, 2, -2), (1, 1, 0, 0), (1, 0, 0, 0)]),
    ]
    for e, m, v, factors in cases:
        want = tuple(character(*f) for f in factors)
        assert hn_generic(v, m, e).factors == want
        assert moduli_nonempty(v, m, e).hn.factors == want


def test_worked_hn_examples():
    k1, l1, v1 = kronecker_characters(P_F1)
    dec = hn_generic(v1, Q(12, 7) + Q(1, 100), 1)
    assert dec.factors == (k1, l1)
    validate_hn(dec, v1)
    k0, l0, v0 = kronecker_characters(P_F0)
    dec = hn_generic(v0, Q(25, 9) + Q(1, 100), 0)
    assert dec.factors == (k0, l0)
    validate_hn(dec, v0)


def test_moduli_examples(table0):
    assert moduli_nonempty(CH_O, Q(5, 7), 0).verdict == "NONEMPTY"
    v3 = exceptional_character(3, 1, 1, 0)
    assert moduli_nonempty(v3, 1, 0).verdict == "NONEMPTY"
    _, _, v0 = kronecker_characters(P_F0)
    cert = moduli_nonempty(v0, Q(25, 9) + Q(1, 100), 0)
    assert cert.verdict == "EMPTY" and len(cert.hn) == 2
    validate_hn(cert.hn, v0)


def test_no_prioritary_verdict():
    # high polarization index kills prioritary existence for small Delta
    v = character(2, 1, 0, 0)  # Delta = 0, eps = 1/2 on F_0
    assert moduli_nonempty(v, 10, 0).verdict == "NO_PRIORITARY"
    assert hn_generic(v, 10, 0) is None


def test_uniqueness_against_oracle_sample():
    rng = random.Random(31)
    for e, m in [(0, Q(3, 2)), (1, 1)]:
        oracle = DecompositionOracle(e, m)
        done = 0
        while done < 40:
            v = random_integral_character(rng, e, rmax=4, coeff=3)
            if v.delta(e) > 3:
                continue
            key = key_of(v)
            dec = hn_generic(v, m, e)
            found = oracle.nontrivial(key)
            assert len(found) <= 1
            if dec is None:
                assert not oracle.decompositions(key)
            elif len(dec.factors) == 1:
                assert found == []
            else:
                assert found == [tuple(key_of(f) for f in dec.factors)]
            done += 1


def test_validator_rejects_tampering():
    k1, l1, v1 = kronecker_characters(P_F1)
    m = Q(12, 7) + Q(1, 100)
    dec = hn_generic(v1, m, 1)
    validate_hn(dec, v1)
    import dataclasses

    bad = dataclasses.replace(dec, factors=(dec.factors[1], dec.factors[0]))
    with pytest.raises(AssertionError, match="not strictly decreasing"):
        validate_hn(bad, v1)
    with pytest.raises(AssertionError, match="do not sum"):
        validate_hn(dec, twist(v1, DivisorClass(0, 1), 1))

    # each further refusal on a decomposition that passes every earlier
    # check; the search never tests (4), so this validator is its one check
    def refused(factors, m, e, match, check_moduli=False):
        total = factors[0]
        for f in factors[1:]:
            total = total + f
        dec = HNDecomposition(tuple(factors), Q(m), e)
        with pytest.raises(AssertionError, match=match):
            validate_hn(dec, total, check_moduli)

    refused([CH_O] * 5, 1, 0, "length 5 out of range")
    # c2 = c1^2/2 - ch2 = -1/2
    refused([character(1, 0, 0, Q(1, 2)), character(1, 0, 0, Q(-1, 2))], 1, 0, "not integral")
    # Delta = -ch2/r = -1/2, with c2 = -1 integral
    refused([character(2, 0, 0, 1), character(1, 0, 0, -1)], 1, 0, "violates Bogomolov")
    # O(2F) and O: mu 2 and 0 at m = 1
    refused([character(1, 0, 2, 0), CH_O], 1, 0, "spread exceeds 1")
    # O(-2E) and O(-E - 2F) on F_0 at m = 1: mu -2 and -3, and
    # chi(O(-2E), O(-E - 2F)) = chi(O(E - 2F)) = 2 (-1) = -2
    refused([character(1, -2, 0, 0), character(1, -1, -2, 2)], 1, 0, r"chi\(w_1, w_2\) != 0")
    # the generic filtration O, I_p(-E + F), O(-E) of (3, -2E + F, -1) on
    # F_0 at m = 1 with its tail merged: (2, -2E + F, -1) is EMPTY, every
    # other condition holds
    v = character(3, -2, 1, -1)
    dec = hn_generic(v, 1, 0)
    assert dec.factors == (CH_O, character(1, -1, 1, -1), character(1, -1, 0, 0))
    merged = (CH_O, dec.factors[1] + dec.factors[2])
    assert verdict(merged[1], 1, 0) == "EMPTY"
    validate_hn(HNDecomposition(merged, Q(1), 0), v, check_moduli=False)
    refused(list(merged), 1, 0, "has empty moduli", check_moduli=True)


def test_multiplicativity():
    rng = random.Random(32)
    done = 0
    while done < 25:
        e = rng.randint(0, 1)
        m = random_m(rng)
        v = random_integral_character(rng, e, rmax=3, coeff=3)
        n = rng.choice((2, 3))
        dec = hn_generic(v, m, e)
        dec_n = hn_generic(v.scale(n), m, e)
        if dec is None:
            assert dec_n is None
        else:
            assert dec_n is not None
            assert dec_n.factors == tuple(f.scale(n) for f in dec.factors)
        done += 1


def test_twist_dual_invariance_of_verdicts():
    rng = random.Random(33)
    done = 0
    while done < 200:
        e = rng.randint(0, 2)
        m = random_m(rng)
        v = random_integral_character(rng, e, rmax=4, coeff=4)
        if is_wall(v, m, e):
            continue  # tie-breaking at walls is not twist/dual equivariant
        base = verdict(v, m, e)
        L = DivisorClass(rng.randint(-3, 3), rng.randint(-3, 3))
        assert verdict(twist(v, L, e), m, e) == base
        assert verdict(dual(v), m, e) == base
        done += 1


def _den(fr):
    return fr.denominator


def _has_equal_slope_split(v, e):
    # some sub-rank already realizes nu(v) integrally, so equal-slope
    # Gieseker tie-breaks are in play at every polarization
    from math import lcm

    nu = v.nu()
    return lcm(_den(nu.a), _den(nu.b)) < v.r


def test_elementary_modification_monotonicity():
    # Monotonicity of NONEMPTY in Delta holds in the strict-slope regime:
    # away from mu-walls and from characters whose slope splits integrally
    # at a smaller rank (see test_gieseker_gap_at_equal_slopes for the
    # genuine counterexample otherwise).
    rng = random.Random(34)
    done = 0
    while done < 200:
        e = rng.randint(0, 1)
        m = random_m(rng)
        v = random_integral_character(rng, e, rmax=4, coeff=4)
        if _has_equal_slope_split(v, e) or is_wall(v, m, e):
            continue
        if verdict(v, m, e) != "NONEMPTY":
            continue
        w = ChernCharacter(v.r, v.c1, v.ch2 - 1)
        assert verdict(w, m, e) == "NONEMPTY"
        done += 1
    assert exists_above(CH_O, Q(5, 3), 1, steps=4)
    v3 = exceptional_character(3, 1, 1, 0)
    assert exists_above(v3, 1, 0)


def test_exists_above_fails_at_an_empty_character():
    # (15, 3E + 5F, -8) at m = 2509/900 on F_0 is EMPTY (the README's CLI
    # example), so the harness fails at its first character
    v = character(15, 3, 5, -8)
    assert verdict(v, Q(2509, 900), 0) == "EMPTY"
    assert not exists_above(v, Q(2509, 900), 0)


def test_gieseker_gap_at_equal_slopes():
    # (2, -2F) on F_0: Delta = 0 is semistable (O(-F)^2), Delta = 1/2 is not
    # (the orthogonal pair of rank-one pieces of discriminants 0 and 1 is a
    # valid filtration), Delta = 1 is semistable again.  Gieseker
    # nonemptiness is genuinely non-monotone across equal-slope ties.
    for m in (Q(9, 4), Q(12, 7)):
        assert verdict(character(2, 0, -2, 0), m, 0) == "NONEMPTY"
        cert = moduli_nonempty(character(2, 0, -2, -1), m, 0)
        assert cert.verdict == "EMPTY"
        assert [(f.r, f.delta(0)) for f in cert.hn.factors] == [(1, 0), (1, 1)]
        assert verdict(character(2, 0, -2, -2), m, 0) == "NONEMPTY"


def test_wall_flags():
    _, _, v1 = kronecker_characters(P_F1)
    assert is_wall(v1, Q(12, 7), 1)
    assert not is_wall(v1, Q(12, 7) + Q(1, 100), 1)
    assert not is_wall(CH_O, Q(7, 5), 0)


def test_delta_estimate_worked_values(table0, table1):
    br0 = delta_estimate(DivisorClass(Q(1, 5), Q(1, 3)), Q(25, 9), 0, 15, table0)
    assert br0.upper == Q(3, 5) and br0.lower == Q(19, 35)
    assert br0.witness is not None and br0.witness.r == 15
    assert moduli_nonempty(br0.witness, Q(25, 9), 0).verdict == "NONEMPTY"
    br1 = delta_estimate(DivisorClass(Q(3, 13), Q(6, 13)), Q(12, 7), 1, 13, table1)
    assert br1.upper == Q(98, 169) and br1.lower == Q(523, 1014)
    assert br0.lower <= br0.upper and br1.lower <= br1.upper


def test_delta_estimate_builds_its_own_table(table0, table1):
    # with no table the bracket builds the one of the ranks below its
    # cutoff and equals the bracket read from the session tables; at cutoff 8
    # the lower bound comes from a rank-5 (F_0) or rank-6 (F_1) exceptional
    cases = ((0, table0, DivisorClass(Q(1, 5), Q(2, 5)), Q(13, 25)),
             (1, table1, DivisorClass(Q(2, 7), Q(2, 5)), Q(787, 1470)))
    for e, table, nu, lower in cases:
        for cutoff in (3, 5, 8):
            br = delta_estimate(nu, 1, e, cutoff)
            assert br == delta_estimate(nu, 1, e, cutoff, table), (e, cutoff)
        assert br.lower == lower


def test_delta_estimate_gates_the_dlp_scan_once(table0, table1, monkeypatch):
    # the lower bound is max(1/2, DLP^{<cutoff}), 1/2 at cutoff 1, read past
    # the gates of dlp_below_rank, whose checks delta_estimate makes itself
    from hirzebruch import dlp

    cases = ((0, table0, DivisorClass(Q(1, 5), Q(2, 5))), (1, table1, DivisorClass(Q(2, 7), Q(2, 5))))
    want = {}
    for e, table, nu in cases:
        for c in (1, 2, 5, 8):
            value = dlp_below_rank(nu, 1, e, c, table).value
            want[e, c] = Q(1, 2) if value is None else max(Q(1, 2), value)
    monkeypatch.setattr(dlp, "dlp_below_rank", lambda *args: pytest.fail("gated again"))
    for e, table, nu in cases:
        for c in (1, 2, 5, 8):
            assert delta_estimate(nu, 1, e, c, table).lower == want[e, c], (e, c)
        with pytest.raises(ValueError, match="rank cutoff"):
            delta_estimate(nu, 1, e, 0, table)
    assert want[0, 1] == Q(1, 2) < want[0, 8]


def test_delta_estimate_lower_above_upper_on_a_split_witness(table1):
    # DLP bounds stable sheaves, while the upper witness may be strictly
    # semistable: here it is O(E) + (3, E + F, -3/2), two NONEMPTY summands
    # with the same reduced Hilbert polynomial, so lower > upper.
    m = Q(1, 2)
    br = delta_estimate(DivisorClass(Q(1, 2), Q(1, 4)), m, 1, 15, table1)
    assert (br.lower, br.upper) == (Q(3, 4), Q(1, 2))
    assert br.witness == character(4, 2, 1, -2)
    w1, w2 = character(1, 1, 0, Q(-1, 2)), character(3, 1, 1, Q(-3, 2))
    assert w1 + w2 == br.witness
    for w in (w1, w2, br.witness):
        assert moduli_nonempty(w, m, 1).verdict == "NONEMPTY"
    assert reduced_hilbert_key(w1, m, 1) == reduced_hilbert_key(w2, m, 1)


def test_delta_estimate_lower_above_upper_only_on_a_wall(table0, table1):
    # lower bounds stable sheaves, so a witness of discriminant upper < lower
    # can only carry strictly semistable sheaves: its character lies on a
    # wall.  All 100 slope classes with denominators <= 5 on F_0 and F_1,
    # cutoff 16, at the anticanonical and three other polarizations
    fracs = sorted({Q(p, q) for q in range(1, 6) for p in range(q)})
    assert len(fracs) ** 2 == 100
    above = 0
    for e, table in ((0, table0), (1, table1)):
        for m in (1 - Q(e, 2), Q(1, 3), Q(3), Q(12, 7)):
            for x, y in itertools.product(fracs, repeat=2):
                br = delta_estimate(DivisorClass(x, y), m, e, 16, table)
                if br.upper is not None and br.lower > br.upper:
                    above += 1
                    assert moduli_nonempty(br.witness, m, e).wall, (e, m, x, y)
    assert above >= 20, above


def test_degenerate_branch_against_oracle(monkeypatch):
    # even ranks r with 2 r1 = r, where Delta_1 is not pinned and runs over
    # the window of _degenerate_c2_range, which only that branch calls
    calls = []
    real = existence._degenerate_c2_range

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(existence, "_degenerate_c2_range", counting)
    cases = [
        (0, Q(9, 4), character(2, 0, -2, -1)),        # EMPTY, ranks 1 + 1
        (1, 3, character(2, 1, 3, Q(-1, 2))),         # NONEMPTY
        (1, Q(12, 7), character(4, 3, 1, Q(-5, 2))),  # EMPTY, ranks 2 + 2
        (1, 1, character(4, 2, -3, -3)),              # EMPTY, ranks 2 + 1 + 1
        (0, Q(1, 3), character(4, 0, -1, -2)),        # EMPTY, ranks 1 + 3
    ]
    for e, m, v in cases:
        existence.clear_cache()
        calls.clear()
        dec = hn_generic(v, m, e)
        assert calls, "degenerate branch not reached for %r" % (v,)
        found = DecompositionOracle(e, m).nontrivial(key_of(v))
        if len(dec.factors) == 1:
            assert found == []
        else:
            assert found == [tuple(key_of(f) for f in dec.factors)]


def test_degenerate_first_factors_lie_on_the_pinning(monkeypatch):
    # at 2 r1 = r the b1 half-lines of the two cuts meet in the pinning
    # P(nu - nu1) = Delta + 1/2, i.e. chi(w1, v - w1) = 0: every w1 of that
    # rank that reaches the first prioritary gate (_prior(w1, ceil(m) + 1))
    # lies on it, on a seeded sample of the criterion-3 corpus
    prior, search = existence._prior, existence._search
    stack, formed = [], []

    def logged_search(key, mp, mq, e, *hint):
        stack.append((key, -(-mp // mq) + 1))
        try:
            return search(key, mp, mq, e, *hint)
        finally:
            stack.pop()

    def logged_prior(key, n, e):
        if stack and 2 * key[0] == stack[-1][0][0] and n == stack[-1][1]:
            v = stack[-1][0]
            formed.append(chi2(key, tuple(x - y for x, y in zip(v, key)), e))
        return prior(key, n, e)

    monkeypatch.setattr(existence, "_search", logged_search)
    monkeypatch.setattr(existence, "_prior", logged_prior)
    for e, m, chars in _corpus_slices(48):
        existence.clear_cache()
        for v in chars[:150]:
            hn_generic(v, m, e)
    assert len(formed) > 100 and not any(formed), (len(formed), sum(map(bool, formed)))


def test_first_factors_above_rank_six_match_a_fraction_brute_force(monkeypatch):
    # criterion 3 stops at r <= 6, where a b1 window holds at most two
    # values.  On seeded characters of rank 7-20 with a length-one
    # filtration (so the top-level search tries every candidate), the w1
    # with 2 r1 != r that it passes to its first prioritary gate
    # (_prior(w1, ceil(m) + 1)) are exactly the integral w1 of a brute force
    # in Fractions: r1 in [1, r), |a1/r1 - a/r| < max(1, 2/(2m+e)), b1 in the
    # closed mu window, ch2_1 pinned by chi(w1, v - w1) = 0, Delta_1 >= 0
    # and Delta(v - w1) >= 0.  The sample reaches b1 windows of 3 or more
    # values on which 2 ch2_1 changes by a non-integer per b1, so that only
    # some b1 of the window give an integral w1
    prior, search = existence._prior, existence._search
    stack, logged = [], []

    def logged_search(key, mp, mq, e, *hint):
        stack.append((key, -(-mp // mq) + 1))
        try:
            return search(key, mp, mq, e, *hint)
        finally:
            stack.pop()

    def logged_prior(key, n, e):
        if len(stack) == 1 and n == stack[0][1] and key[0] < stack[0][0][0] != 2 * key[0]:
            logged.append(key)
        return prior(key, n, e)

    monkeypatch.setattr(existence, "_search", logged_search)
    monkeypatch.setattr(existence, "_prior", logged_prior)
    rng = random.Random(71)
    chars = candidates = stepped = 0
    for e in (0, 1):
        for m in (Q(1), Q(3), Q(5)):
            cf = max(Q(1), Q(2) / (2 * m + e))
            found = 0
            while found < 4:
                r = rng.randint(7, 20)
                a, b = rng.randrange(r), rng.randrange(r)
                c1sq = 2 * a * b - e * a * a
                c2 = -((-c1sq * (r - 1)) // (2 * r)) + rng.randint(0, r)     # Delta in [0, ~1]
                v = character(r, a, b, Q(c1sq, 2) - c2)
                existence.clear_cache()
                logged.clear()
                dec = hn_generic(v, m, e)
                if dec is None or len(dec) != 1:
                    continue
                found += 1
                want = set()
                for r1 in range(1, r):
                    if 2 * r1 == r:
                        continue
                    for a1 in range(math.floor(r1 * (Q(a, r) - cf)), math.ceil(r1 * (Q(a, r) + cf)) + 1):
                        if abs(Q(a1, r1) - Q(a, r)) >= cf:
                            continue
                        window = []     # (b1, ch2_1) with both Deltas >= 0
                        for b1 in _spread_b1(r, a, b, m, r1, a1):
                            w0 = character(r1, a1, b1, 0)
                            # chi(w1, v - w1) is affine in ch2_1 with slope r - 2 r1
                            w1 = character(r1, a1, b1, euler_pair(w0, v - w0, e) / (2 * r1 - r))
                            assert euler_pair(w1, v - w1, e) == 0
                            if w1.delta(e) >= 0 and (v - w1).delta(e) >= 0:
                                window.append((b1, w1.ch2))
                                if w1.is_integral(e):
                                    want.add(int_key(w1))
                        if len(window) >= 3:
                            # the change of 2 ch2_1 per b1 is not an integer
                            stepped += (2 * (window[1][1] - window[0][1])).denominator > 1
                assert len(logged) == len(set(logged)) and set(logged) == want, (v, m, e)
                chars += 1
                candidates += len(want)
    assert chars == 24 and candidates > 100 and stepped > 50, (chars, candidates, stepped)


def _quad_b_bound(m, e):
    """B, the max of P over the closed slope-difference quadrilateral
    {x in [-1, cF], x m + y in [-1, 0]}: reached on its top edge y = -x m,
    where P = (x + 1)(1 - x (m + e/2)), at a corner or the clipped vertex."""
    m = Q(m)
    cf = Q(*fiber_window(m.numerator, m.denominator, e))
    s = m + Q(e, 2)
    xs = [Q(-1), cf]
    vertex = (1 / s - 1) / 2
    if -1 < vertex < cf:
        xs.append(vertex)
    return max((x + 1) * (1 - x * s) for x in xs)


def test_degenerate_c2_range_matches_fraction_bounds():
    # for 2 r1 = r the window holds the t = c2(w1) with Delta_1 >= 0 and
    # Delta(u) >= 0, read from the Fraction characters w1 and u = v - w1;
    # Delta_1 grows and Delta(u) falls with t, so the two ends of each window
    # and their outer neighbours decide it
    at_zero = 0
    for e in range(6):
        for r1 in range(1, 5):
            for a1, b1, au, bu in itertools.product((0, 1), (0, 1), range(-1, 2), range(-2, 3)):
                c1sq1 = 2 * a1 * b1 - e * a1 * a1
                top = (2 * au * bu - e * au * au) // r1 + c1sq1    # n2u0 >= 0 up to here
                for s in range(top - 4, top + 1):
                    n2u0 = 2 * au * bu - e * au * au - r1 * (s - c1sq1)
                    ts = existence._degenerate_c2_range(c1sq1, r1, n2u0)
                    for t in {ts.start - 1, ts.start, ts.stop - 1, ts.stop}:
                        d1 = from_key((r1, a1, b1, c1sq1 - 2 * t)).delta(e)
                        du = from_key((r1, au, bu, s - c1sq1 + 2 * t)).delta(e)
                        assert (t in ts) == (d1 >= 0 and du >= 0), (e, r1, a1, b1, au, bu, s, t)
                        at_zero += t in ts and t == ts[-1] and du == 0
    assert at_zero > 0  # windows that end exactly at Delta(u) = 0
    # on the first factors the search meets, the window stays inside
    # [0, B]: w1 = (r1, a1, b1) twisted into [0, r1)^2 and u = (r1, a1 + X,
    # b1 + Y) with |X| < 2 r1 cF and mu(u) - mu(w1) = (X m + Y)/r1 in (-2, 0],
    # i.e. nu - nu_1 = (X, Y)/(2 r1) in the slope quadrilateral, and v = w1 + u
    # with Delta(v) = P(nu - nu_1) - 1/2, the pinning identity of 2 r1 = r
    windows = same_end = 0
    for e in range(6):
        for m in (Q(1, 3), Q(1, 2), Q(1), Q(12, 7), Q(9, 4), Q(3)):
            b_cap = _quad_b_bound(m, e)
            bp, bq = b_cap.numerator, b_cap.denominator
            mp, mq = m.numerator, m.denominator
            cp, cq = fiber_window(mp, mq, e)
            for r1 in range(1, 7):
                r = 2 * r1
                xmax = (r * cp - 1) // cq
                for x in range(-xmax, xmax + 1):
                    for y in range((-r * mq - x * mp) // mq + 1, (-x * mp) // mq + 1):
                        n2v = hilbert_P2(x, y, r, e) - r * r     # 2 r^2 Delta(v)
                        if n2v < 0:
                            continue
                        for a1, b1 in itertools.product(range(r1), repeat=2):
                            a, b = 2 * a1 + x, 2 * b1 + y
                            c1sq = 2 * a * b - e * a * a
                            s, rem = divmod(c1sq - n2v, r)
                            if rem or (c1sq - s) % 2:
                                continue                        # v not integral
                            c1sq1 = 2 * a1 * b1 - e * a1 * a1
                            au, bu = a1 + x, b1 + y
                            assert chi2((r1, a1, b1, c1sq1), (r1, au, bu, s - c1sq1), e) == 0
                            n2u0 = 2 * au * bu - e * au * au - r1 * (s - c1sq1)
                            ts = existence._degenerate_c2_range(c1sq1, r1, n2u0)
                            if not ts:
                                continue
                            windows += 1
                            # 2 r1^2 Delta_1 at the last t against 2 r1^2 B
                            k = c1sq1 * (r1 - 1)
                            assert (2 * r1 * ts[-1] - k) * bq <= 2 * r1 * r1 * bp, (e, m, r1, x, y, a1, b1)
                            same_end += ts[-1] == (2 * r1 * r1 * bp + k * bq) // (2 * r1 * bq)
    assert same_end > 0 and windows > same_end  # some windows end where [0, B] ends


def test_delta_estimate_bracket_sanity(table0, table1):
    rng = random.Random(35)
    for _ in range(6):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        nu = DivisorClass(Q(rng.randint(-3, 3), 2), Q(rng.randint(-3, 3), 3))
        m = 1 - Q(e, 2)
        uppers = []
        for cutoff_mult in (1, 2, 3):
            r0 = 6  # lcm(2, 3)
            br = delta_estimate(nu, m, e, r0 * cutoff_mult, table)
            assert br.upper is None or br.lower <= br.upper
            uppers.append(br.upper)
        finite = [u for u in uppers if u is not None]
        assert all(x >= y for x, y in zip(finite, finite[1:]))


def test_delta_monotone_in_m(table0, table1):
    # delta upper bound grows weakly as m moves away from 1 - e/2
    rng = random.Random(36)
    for _ in range(6):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        anch = 1 - Q(e, 2)
        nu = DivisorClass(Q(rng.randint(-2, 2), 2), Q(rng.randint(-2, 2), 2))
        ms = sorted([anch + Q(rng.randint(1, 8), 3), anch + Q(rng.randint(1, 8), 3)])
        if ms[0] == ms[1]:
            continue
        b_lo = delta_estimate(nu, ms[0], e, 4, table)
        b_hi = delta_estimate(nu, ms[1], e, 4, table)
        if b_lo.upper is not None and b_hi.upper is not None:
            assert b_lo.upper <= b_hi.upper


def _fraction_delta_scan(nu, m, e, rank_cutoff, table):
    """(lower, upper, witness, wall) of `delta_estimate` by the Fraction scan
    it replaced: at each rank Delta(t) = base + t/r over the integers t, from
    the smallest t with Delta >= 1/2.  Also returns the first candidates of
    the ranks whose scan stopped before testing anything."""
    lower = Q(1, 2)
    if rank_cutoff > 1:
        bound = dlp_below_rank(nu, m, e, rank_cutoff, table)
        if bound.value is not None:
            lower = max(lower, bound.value)
    upper = witness = None
    wall = False
    untested = []
    r0 = math.lcm(nu.a.denominator, nu.b.denominator)
    for r in range(r0, rank_cutoff + 1, r0):
        c1 = nu.scale(r)
        c1sq_half = Q(1, 2) * intersect(c1, c1, e)
        base = c1sq_half / (r * r) - c1sq_half / r
        t = t0 = math.ceil((Q(1, 2) - base) * r)
        while True:
            d = base + Q(t, r)
            w = ChernCharacter(r, c1, c1sq_half - t)
            if upper is not None and d >= upper:
                if t == t0:
                    untested.append(w)
                break
            assert d <= lower + 8
            assert w.delta(e) == d
            cert = moduli_nonempty(w, m, e)
            wall = wall or cert.wall
            if cert.verdict == "NONEMPTY":
                if upper is None or d < upper:
                    upper, witness = d, w
                break
            t += 1
    return (lower, upper, witness, wall), untested


def test_delta_estimate_matches_fraction_scan(table0, table1):
    rng = random.Random(38)
    untested_walls = 0
    for _ in range(300):
        e = rng.randint(0, 1)
        table = table0 if e == 0 else table1
        nu = DivisorClass(Q(rng.randint(-4, 4), rng.randint(1, 3)), Q(rng.randint(-4, 4), rng.randint(1, 3)))
        m = random_m(rng)
        cutoff = rng.randint(1, 9)
        br = delta_estimate(nu, m, e, cutoff, table)
        want, untested = _fraction_delta_scan(nu, m, e, cutoff, table)
        assert (br.lower, br.upper, br.witness, br.wall) == want
        # a slope tie of a candidate that is never tested leaves the flag unset
        if not br.wall:
            untested_walls += any(is_wall(w, m, e) for w in untested)
    assert untested_walls > 0


def _public_delta_scan(nu, m, e, rank_cutoff, table):
    """`delta_estimate` by its former loop: each Delta step a `from_key`
    character through the public `moduli_nonempty`, Delta a `Fraction`."""
    lower = Q(1, 2)
    if rank_cutoff > 1:
        bound = dlp_below_rank(nu, m, e, rank_cutoff, table)
        if bound.value is not None:
            lower = max(lower, bound.value)
    upper = witness = None
    wall = False
    r0 = math.lcm(nu.a.denominator, nu.b.denominator)
    for r in range(r0, rank_cutoff + 1, r0):
        a, b = int(r * nu.a), int(r * nu.b)
        c1sq = 2 * a * b - e * a * a
        s = (c1sq - r * r) // r
        s -= (s - c1sq) % 2
        while True:
            d = Q(c1sq - r * s, 2 * r * r)
            if upper is not None and d >= upper:
                break
            assert d <= lower + 8
            w = from_key((r, a, b, s))
            cert = moduli_nonempty(w, m, e)
            wall = wall or cert.wall
            if cert.verdict == "NONEMPTY":
                if upper is None or d < upper:
                    upper, witness = d, w
                break
            s -= 2
    return lower, upper, witness, wall


SLOPES_DEN5 = sorted({Q(p, q) for q in range(1, 6) for p in range(q)})


def test_delta_estimate_matches_the_public_scan(table0, table1):
    # the key scan (one wall test per rank, the verdict read from the
    # filtration, Delta cross-multiplied) against the per-step public path,
    # on all 100 slope classes with denominators <= 5 on F_0 and F_1
    walls = found = split = 0
    for e, table in ((0, table0), (1, table1)):
        for m in (1 - Q(e, 2), Q(12, 7)):
            for x, y in itertools.product(SLOPES_DEN5, repeat=2):
                nu = DivisorClass(x, y)
                br = delta_estimate(nu, m, e, 16, table)
                assert (br.lower, br.upper, br.witness, br.wall) == _public_delta_scan(nu, m, e, 16, table)
                assert (br.nu, br.m, br.e, br.rank_cutoff) == (nu, m, e, 16)
                walls += br.wall
                found += br.upper is not None
                split += br.upper is not None and br.lower > br.upper
    assert 0 < walls < found < 400 and split > 0, (walls, found, split)


def test_probe_leaves_every_bracket_unchanged(monkeypatch, wide_tables):
    # the witness-first probe only reorders the search: every bracket of
    # the 100 slope classes with denominators <= 5 on F_0 and F_1 at
    # m = 1 - e/2, at cutoff 16 on both surfaces and 30 on F_1, is the one
    # of the search with the probe off, memo cleared per bracket; the probe
    # hits, so a probe that never answers does not pass
    probe, hits = existence._probe, []

    def counting_probe(*args):
        found = probe(*args)
        hits.append(found is not None)
        return found

    for e, cutoff in ((0, 16), (1, 16), (1, 30)):
        m = 1 - Q(e, 2)
        for x, y in itertools.product(SLOPES_DEN5, repeat=2):
            nu = DivisorClass(x, y)
            brackets = []
            for patched in (counting_probe, lambda *args: None):
                monkeypatch.setattr(existence, "_probe", patched)
                existence.clear_cache()
                brackets.append(delta_estimate(nu, m, e, cutoff, wide_tables[e]))
            assert brackets[0] == brackets[1], (e, cutoff, nu)
    assert sum(hits) > 1000 and not all(hits), (sum(hits), len(hits))


def test_delta_estimate_tests_walls_once_per_rank_and_builds_one_witness(monkeypatch, table1):
    walls, keys = [], []
    real_wall, real_from_key = existence._is_wall_key, existence.from_key

    def counting_wall(key, mp, mq, e):
        walls.append((key[0], real_wall(key, mp, mq, e)))
        return walls[-1][1]

    def counting_from_key(key):
        keys.append(key)
        return real_from_key(key)

    monkeypatch.setattr(existence, "_is_wall_key", counting_wall)
    monkeypatch.setattr(existence, "from_key", counting_from_key)
    seen_wall = 0
    for m in (Q(1, 2), Q(12, 7)):
        for x, y in itertools.product(SLOPES_DEN5, repeat=2):
            walls.clear()
            keys.clear()
            nu = DivisorClass(x, y)
            br = delta_estimate(nu, m, 1, 16, table1)
            ranks = [r for r, _ in walls]
            r0 = math.lcm(x.denominator, y.denominator)
            assert len(set(ranks)) == len(ranks) and all(r % r0 == 0 for r in ranks)
            # the test stops at the first rank with a tie, which sets the flag
            assert [w for _, w in walls[:-1]] == [False] * (len(walls) - 1)
            assert br.wall == (bool(walls) and walls[-1][1])
            assert keys == ([] if br.witness is None else [int_key(br.witness)])
            seen_wall += br.wall
    assert seen_wall > 0


def test_memo_never_mixes_polarizations(monkeypatch):
    # one memo shared by interleaved decisions on F_0 and F_1 at polarizations
    # with a common numerator or denominator (1 twice: as int and as 2/2)
    # gives what a cold memo gives, call by call
    rng = random.Random(41)
    ms = (Q(1, 3), Q(2, 3), Q(1, 2), Q(3, 2), 1, Q(2, 2))
    sample = [(e, random_integral_character(rng, e, rmax=5, coeff=3)) for e in (0, 1) for _ in range(60)]
    calls = [(fn, v, m, e) for e, v in sample for m in ms for fn in (hn_generic, moduli_nonempty)]
    rng.shuffle(calls)
    cold = []
    for fn, v, m, e in calls:
        monkeypatch.setattr(existence, "_HN", {})
        cold.append(fn(v, m, e))
    monkeypatch.setattr(existence, "_HN", {})
    assert [fn(v, m, e) for fn, v, m, e in calls] == cold
    # and the sample tells those polarizations apart
    by_m = {}
    for (fn, v, m, e), c in zip(calls, cold):
        hn = c.hn if isinstance(c, DecisionCertificate) else c
        by_m.setdefault((e, v), {})[m] = None if hn is None else hn.factors
    for m1, m2 in ((Q(1, 3), Q(2, 3)), (Q(1, 3), Q(1, 2))):
        assert any(d[m1] != d[m2] for d in by_m.values())


def test_verdict_matches_the_certificate():
    # verdict decides gates in place and reads (5) from the memo; the
    # certificate runs the search: they agree on all four verdicts, and
    # a character that is H_{ceil m}- but not H_{ceil m + 1}-prioritary is
    # EMPTY without a search
    rng = random.Random(42)
    seen, gap = set(), 0
    for _ in range(1000):
        e = rng.randint(0, 2)
        m = Q(rng.randint(1, 12), rng.randint(1, 4))
        v = random_integral_character(rng, e, rmax=5, coeff=4)
        v = ChernCharacter(v.r, v.c1, v.ch2 + rng.randint(0, 1))  # Delta -= 1/r
        cert = moduli_nonempty(v, m, e)
        assert verdict(v, m, e) == cert.verdict
        seen.add(cert.verdict)
        if cert.verdict == "BOGOMOLOV_VIOLATION":
            with pytest.raises(BogomolovViolation):
                hn_generic(v, m, e)
            continue
        assert (hn_generic(v, m, e) is None) == (cert.verdict == "NO_PRIORITARY")
        if generic_prioritary_index(v, e) == math.ceil(m):
            gap += 1
            existence.clear_cache()
            assert verdict(v, m, e) == "EMPTY" and not existence._HN
    assert seen == {"NONEMPTY", "EMPTY", "NO_PRIORITARY", "BOGOMOLOV_VIOLATION"}
    assert gap > 0


def _window_cases(rng, e, n, rmax=7, coeff=5, dmax=2):
    # n seeded characters (r, a, b, s) with 2 <= r <= rmax, |a|, |b| <= coeff
    # and 0 <= Delta <= dmax, each at its own s
    out = []
    while len(out) < n:
        r, a, b = rng.randint(2, rmax), rng.randint(-coeff, coeff), rng.randint(-coeff, coeff)
        c1sq = 2 * a * b - e * a * a
        s_hi = c1sq // r                                  # Delta >= 0
        s = s_hi - rng.randint(0, 2 * dmax * r)
        if c1sq - r * s <= 2 * dmax * r * r:              # Delta <= dmax
            out.append((r, a, b, s))
    return out


def _spread_b1(r, a, b, m, r1, a1):
    # the b1 with mu(v) <= mu(w1) <= mu(v) + (r - r1)/r, in Fractions: past
    # the right end mu(w1) - mu(v - w1) > 1
    lo = (r1 * (a * m + b) - a1 * m * r) / r
    return range(math.ceil(lo), math.floor(lo + Q(r1 * (r - r1), r)) + 1)


def test_a1_window_keeps_every_pair_with_a_b1_passing_both_deltas():
    # brute force in Fractions: an (r1, a1) with a b1 of the spread window
    # whose pinned Delta_1 and Delta(u) are both >= 0, or on the pinning
    # P(nu - nu1) = Delta + 1/2 when 2 r1 = r, lies in the window of the
    # downward cut (integrality of w1 is not asked); a1 runs over the fiber
    # range widened by r1 on each side, and the window lies inside the fiber
    # range: the downward cut implies the fiber bound (module docstring)
    rng = random.Random(43)
    kept = total = tight = pinned = 0
    for e in range(6):
        for m in (Q(1, 9), Q(1, 7), Q(1, 3), Q(1, 2), Q(1), Q(12, 7), Q(3)):
            mp, mq = m.numerator, m.denominator
            cp, cq = existence.fiber_window(mp, mq, e)
            for r, a, b, s in _window_cases(rng, e, 16):
                v = ChernCharacter(r, DivisorClass(a, b), Q(s, 2))
                nu, dv = v.nu(), v.delta(e)
                for r1 in range(1, r):
                    fr = existence._fiber_range(r, a, r1, cp, cq)
                    n1 = r1 * (a * mp + b * mq)
                    cut = existence._cuts((r, a, b, s), e, r1)[2 * r1 >= r]
                    win = existence._a1_window(cut, (n1, n1 + r1 * (r - r1) * mq), r * mp, r * mq)
                    assert fr.start <= win.start and win.stop <= fr.stop or not win
                    total += len(fr)
                    kept += len(win)
                    for a1 in range(fr.start - r1, fr.stop + r1):
                        for b1 in _spread_b1(r, a, b, m, r1, a1):
                            nu1 = DivisorClass(Q(a1, r1), Q(b1, r1))
                            if 2 * r1 == r:
                                # the pinning P(nu - nu1) = Delta + 1/2
                                if hilbert_P(nu - nu1, e) == dv + Q(1, 2):
                                    assert a1 in win, ((r, a, b, s), e, m, r1, a1, b1)
                                    pinned += 1
                                continue
                            d1 = (r1 - r * hilbert_P(nu - nu1, e) + r * dv) / (2 * r1 - r)
                            w1 = ChernCharacter(r1, nu1.scale(r1), r1 * (intersect(nu1, nu1, e) / 2 - d1))
                            assert w1.delta(e) == d1
                            if d1 >= 0 and (v - w1).delta(e) >= 0:
                                assert a1 in win, ((r, a, b, s), e, m, r1, a1, b1)
                                tight += 1
    assert tight > 0 and pinned > 0 and kept < total / 4, (tight, pinned, kept, total)


def test_cuts_are_the_pinned_deltas():
    # reference in Fractions: at x = a1 each cut c1 b1 + c0 of _cuts is
    # sg 2 r r1^2 (r1 - r P(nu - nu1) + r Delta), i.e. 2 r r1^2 |2 r1 - r| Delta_1
    # for the pinned Delta_1, and 2 r r1 (r - r1)^2 |2 r1 - r| Delta(v - w1),
    # sg = sign(2 r1 - r) and sg = 1 when 2 r1 = r; so c1 b1 + c0 has the sign
    # of Delta_1 and of Delta(u), and when 2 r1 = r the first cut's zeros are
    # the pinning P(nu - nu1) = Delta + 1/2 and the second cut is -r1 times
    # the first
    rng = random.Random(47)
    sides = {1: 0, -1: 0}
    zeros = pinned = 0
    for _ in range(4000):
        e = rng.randint(0, 3)
        (r, a, b, s), = _window_cases(rng, e, 1, rmax=9, coeff=8, dmax=3)
        r1 = rng.randrange(1, r)
        v = from_key((r, a, b, s))
        nu, dv = v.nu(), v.delta(e)
        cuts = existence._cuts((r, a, b, s), e, r1)
        sg = -1 if 2 * r1 < r else 1
        # the a1^2 coefficients of _a1_window, den v2 - r mp u1 with
        # den = r mq, are sg r^3 hn and -sg r^3 r1 hn, hn = 2 mp + e mq:
        # exactly one cut opens downwards, Delta_1 when 2 r1 < r, else Delta(u)
        m = rng.choice((Q(1, 9), Q(1, 2), Q(1), Q(12, 7), Q(7)))
        mp, mq = m.numerator, m.denominator
        hn = 2 * mp + e * mq
        assert [r * mq * c[4] - r * mp * c[1] for c in cuts] == [sg * r ** 3 * hn, -sg * r ** 3 * r1 * hn]
        a1 = rng.randint(-2 * r1, 2 * r1)
        b1s = [rng.randint(-3 * r1, 3 * r1)]
        if 2 * r1 == r:
            # P(nu - nu1) - Delta - 1/2 is affine in b1: add its root
            f = [hilbert_P(nu - DivisorClass(Q(a1, r1), Q(y, r1)), e) - dv - Q(1, 2) for y in (0, 1)]
            if f[1] != f[0] and (f[0] / (f[0] - f[1])).denominator == 1:
                b1s.append(int(f[0] / (f[0] - f[1])))
        (c1, c0), (d1, d0) = [(u0 + u1 * a1, v0 + v1 * a1 + v2 * a1 * a1) for u0, u1, v0, v1, v2 in cuts]
        for b1 in b1s:
            nu1 = DivisorClass(Q(a1, r1), Q(b1, r1))
            p = hilbert_P(nu - nu1, e)
            assert c1 * b1 + c0 == sg * 2 * r * r1 * r1 * (r1 - r * p + r * dv), (r, a, b, s, e, r1, a1, b1)
            if 2 * r1 == r:
                assert (c1 * b1 + c0 == 0) == (p == dv + Q(1, 2))
                pinned += p == dv + Q(1, 2)
                # the Delta(u) cut is -r1 times the Delta_1 cut: the two
                # half-lines meet exactly in the pinning
                assert cuts[1] == tuple(-r1 * x for x in cuts[0]), (r, a, b, s, e, r1)
                continue
            delta1 = (r1 - r * p + r * dv) / (2 * r1 - r)
            w1 = ChernCharacter(r1, nu1.scale(r1), r1 * (intersect(nu1, nu1, e) / 2 - delta1))
            delta_u = (v - w1).delta(e)
            assert d1 * b1 + d0 == 2 * r * r1 * (r - r1) ** 2 * abs(2 * r1 - r) * delta_u, (r, a, b, s, e, r1, a1, b1)
            for cut, delta in ((c1 * b1 + c0, delta1), (d1 * b1 + d0, delta_u)):
                assert (cut > 0) == (delta > 0) and (cut < 0) == (delta < 0)
                zeros += delta == 0
            sides[sg] += 1
    assert min(sides.values()) > 1000 and pinned > 50 and zeros > 0, (sides, pinned, zeros)


def _corpus_slices(seed):
    # ten (e, m, chars) slices of 400 seeded characters of the criterion-3
    # corpus (r <= 6, |a|, |b| <= 6, 0 <= Delta <= 3)
    rng = random.Random(seed)
    slices = []
    for e in (0, 1):
        for m in (Q(1, 3), Q(1), Q(3, 2), Q(12, 7), Q(3)):
            chars = []
            while len(chars) < 400:
                v = random_integral_character(rng, e, rmax=6, coeff=6, extra=18)
                if v.delta(e) <= 3:
                    chars.append(v)
            slices.append((e, m, chars))
    return slices


def _fiber_box(slices):
    # one a1 box holding the fiber range of every (v, r1) of the slices: an
    # a1 window patched to it searches a superset of the fiber-clipped a1
    box = range(-30, 31)
    for e, m, chars in slices:
        cp, cq = fiber_window(m.numerator, m.denominator, e)
        for v in chars:
            r, a, _, _ = int_key(v)
            for r1 in range(1, r):
                fr = existence._fiber_range(r, a, r1, cp, cq)
                assert box.start <= fr.start and fr.stop <= box.stop, (v, e, m, r1)
    return box


def test_a1_window_leaves_the_search_unchanged(monkeypatch):
    # the same _prior and _hn_key calls, in the same order and with the same
    # memo size, as with every rank and an a1 box holding every fiber range,
    # on a seeded sample of the criterion-3 corpus (r <= 6, |a|, |b| <= 6,
    # 0 <= Delta <= 3)
    slices = _corpus_slices(44)
    box = _fiber_box(slices)
    prior, hn_key = existence._prior, existence._hn_key

    def run():
        log = []

        def logged_prior(key, n, e):
            log.append(("prior", key, n, e, len(existence._HN)))
            return prior(key, n, e)

        def logged_hn_key(key, mp, mq, e):
            log.append(("hn", key, mp, mq, e, len(existence._HN)))
            return hn_key(key, mp, mq, e)

        monkeypatch.setattr(existence, "_prior", logged_prior)
        monkeypatch.setattr(existence, "_hn_key", logged_hn_key)
        results = []
        for e, m, chars in slices:
            existence.clear_cache()
            results += [hn_generic(v, m, e) for v in chars]
        return log, results

    windowed = run()
    monkeypatch.setattr(existence, "_first_ranks", lambda r, n2v, mp, mq, e: range(1, r))
    monkeypatch.setattr(existence, "_a1_window", lambda cut, ends, rmp, den: box)
    assert run() == windowed
    assert sum(x[0] == "hn" for x in windowed[0]) > 5000
    assert sum(dec is not None and len(dec) > 1 for dec in windowed[1]) > 100


def test_spread_window_leaves_hn_generic_unchanged(monkeypatch):
    # the mu window stops exactly at the spread bound mu(w1) <= mu(v) +
    # (r - r1)/r, so every candidate (w1, u) the search forms has
    # mu(w1) - mu(u) <= 1; widening it back to mu(w1) < mu(v) + 1, with
    # every rank and an a1 box holding every fiber range, only adds
    # candidates past that bound, and _hn_key calls, and changes no
    # filtration on a seeded sample of the criterion-3 corpus (r <= 6,
    # |a|, |b| <= 6, 0 <= Delta <= 3)
    slices = _corpus_slices(46)
    box = _fiber_box(slices)
    for e, m, chars in slices:
        mp, mq = m.numerator, m.denominator
        cp, cq = fiber_window(mp, mq, e)
        for v in chars[:20]:
            r, a, b, _ = int_key(v)
            for r1 in range(1, r):
                for a1 in existence._fiber_range(r, a, r1, cp, cq):
                    num = r1 * (a * mp + b * mq) - a1 * mp * r
                    lo, hi = existence._mu_window(num, r * mq, r1, r - r1, mq)
                    assert range(lo, hi) == _spread_b1(r, a, b, m, r1, a1), (v, e, m, r1, a1)
    hn_key, search = existence._hn_key, existence._search
    searching, calls, over = [], [], []

    def logged_search(key, mp, mq, e, *hint):
        searching.append(key)
        try:
            return search(key, mp, mq, e, *hint)
        finally:
            searching.pop()

    def logged_hn_key(key, mp, mq, e):
        calls.append(key)
        if searching:
            # key is the w1 or the u of a candidate of the search of v
            w = tuple(x - y for x, y in zip(searching[-1], key))
            gap = (w[1] * mp + w[2] * mq) * key[0] - (key[1] * mp + key[2] * mq) * w[0]
            if abs(gap) > w[0] * key[0] * mq:
                over.append(key)
        return hn_key(key, mp, mq, e)

    def run():
        calls.clear()
        over.clear()
        results = []
        for e, m, chars in slices:
            existence.clear_cache()
            results += [hn_generic(v, m, e) for v in chars]
        return results, len(calls), len(over)

    monkeypatch.setattr(existence, "_search", logged_search)
    monkeypatch.setattr(existence, "_hn_key", logged_hn_key)
    spread, spread_calls, spread_over = run()
    assert spread_over == 0
    monkeypatch.setattr(existence, "_mu_window", lambda num, den, r1, ru, mq: (-(-num // den), -(-num // den) + r1))
    monkeypatch.setattr(existence, "_first_ranks", lambda r, n2v, mp, mq, e: range(1, r))
    monkeypatch.setattr(existence, "_a1_window", lambda cut, ends, rmp, den: box)
    wide, wide_calls, wide_over = run()
    assert wide == spread
    assert wide_calls > spread_calls and wide_over > 0, (wide_calls, spread_calls, wide_over)
    assert sum(dec is not None and len(dec) > 1 for dec in spread) > 100


def test_probe_rejects_at_integrality_and_condition_3(monkeypatch):
    # two rejections of _probe that no search of the corpus reaches
    # v = (4, 2E + F, ch2 = -1) on F_1 at m = 1, hint V = (2, E, 0): of the
    # candidates V and v - V = (2, E + F, -1), whose 2 c2 = 2ab - e a^2 - 2 ch2
    # are -1 and 3, v - V meets the mu window, so it stops at integrality,
    # before any Delta cut
    v, hint = (4, 2, 1, -2), (2, 1, 0, 0)
    lo, hi = existence._mu_window(2 * (2 + 1) - 1 * 4, 4, 2, 2, 1)     # r1 deg(v) - a1 r mp, r mq
    assert lo <= 1 < hi
    monkeypatch.setattr(existence, "delta2", lambda *args: pytest.fail("reached a Delta cut"))
    assert existence._probe(v, hint, 1, 1, 1, 1) is None
    monkeypatch.undo()
    # v = (5, -2E + 2F, ch2 = -11) on F_0 at m = 1/3, hint (4, E + 4F, -17),
    # with the mu window widened as in the spread-window test: a candidate
    # passes condition (2) and no candidate is taken, so condition (3) stops it
    passed, key_gt, probe = [], existence._key_gt, existence._probe.__code__

    def logged_key_gt(*args):
        gt = key_gt(*args)
        if sys._getframe(1).f_code is probe:      # condition (2) of _probe itself
            passed.append(gt)
        return gt

    monkeypatch.setattr(existence, "_mu_window", lambda num, den, r1, ru, mq: (-(-num // den), -(-num // den) + r1))
    monkeypatch.setattr(existence, "_key_gt", logged_key_gt)
    assert existence._probe((5, -2, 2, -22), (4, 1, 4, -34), 1, 1, 3, 0) is None
    assert True in passed


def test_first_ranks_drop_no_rank_with_a_first_factor():
    # brute force in Fractions: for an r1 that _first_ranks drops, no
    # (a1, b1) of the fiber range and spread window has pinned Delta_1 >= 0 and
    # Delta(u) >= 0 when 2 r1 != r, or meets the pinning
    # P(nu - nu1) = Delta + 1/2 when 2 r1 = r (integrality of w1 is not asked)
    rng = random.Random(45)
    dropped = total = 0
    for e in range(6):
        for m in (Q(1, 7), Q(1, 3), Q(1, 2), Q(1), Q(12, 7), Q(9, 4), Q(3), Q(7)):
            mp, mq = m.numerator, m.denominator
            cp, cq = fiber_window(mp, mq, e)
            # on F_0 at m = 1, L(z0) = 0 and nu_1 = nu meets the bounds with
            # equality: on (3, 0, 0, -4) Delta_1 = 0 at r1 = 1 and
            # Delta(u) = 0 at r1 = 2, on (2, 0, 0, -2) the pinning holds
            boundary = [(3, 0, 0, -4), (2, 0, 0, -2)] if (e, m) == (0, 1) else []
            for key in _window_cases(rng, e, 6, rmax=12, coeff=8, dmax=3) + boundary:
                r, a, b, _ = key
                v = from_key(key)
                nu, dv = v.nu(), v.delta(e)
                ranks = existence._first_ranks(r, existence.delta2(key, e), mp, mq, e)
                assert list(ranks) == sorted(set(ranks)) and set(ranks) <= set(range(1, r))
                total += r - 1
                dropped += r - 1 - len(ranks)
                for r1 in set(range(1, r)) - set(ranks):
                    for a1 in existence._fiber_range(r, a, r1, cp, cq):
                        for b1 in _spread_b1(r, a, b, m, r1, a1):
                            nu1 = DivisorClass(Q(a1, r1), Q(b1, r1))
                            p = hilbert_P(nu - nu1, e)
                            where = (key, e, m, r1, a1, b1)
                            if 2 * r1 == r:
                                assert p != dv + Q(1, 2), where
                                continue
                            d1 = (r1 - r * p + r * dv) / (2 * r1 - r)
                            if d1 >= 0:
                                w1 = ChernCharacter(r1, nu1.scale(r1), r1 * (intersect(nu1, nu1, e) / 2 - d1))
                                assert w1.delta(e) == d1
                                assert (v - w1).delta(e) < 0, where
    assert 2 * dropped >= total, (dropped, total)


def test_first_ranks_is_the_filter_that_defines_it():
    # the closed form against the integer test it solves, k (n2v - 2 r
    # max(r1, r - r1)) <= r^2 zn^2, i.e. max(r1, r - r1) >= need; n2v runs
    # over both sides of every need from -1 to r + 1, so need <= 0, need >= r,
    # 2 need = r + 1 and 2 need = r + 2 are all met
    shapes = set()
    for e in range(4):
        for m in (Q(1, 7), Q(1, 3), Q(1, 2), Q(1), Q(12, 7), Q(3), Q(7)):
            mp, mq = m.numerator, m.denominator
            hn = 2 * mp + e * mq
            zn, k = 2 * mq - hn, 4 * mq * hn
            for r in range(1, 41):
                for need in range(-1, r + 2):
                    # the least n2v whose need is `need`, and the n2v below it
                    n2v = (r * r * zn * zn + 2 * r * k * (need - 1)) // k + 1
                    for n in (n2v - 1, n2v):
                        ranks = existence._first_ranks(r, n, mp, mq, e)
                        want = [r1 for r1 in range(1, r) if k * (n - 2 * r * max(r1, r - r1)) <= r * r * zn * zn]
                        assert list(ranks) == want, (r, n, e, m)
                        assert bool(ranks) == bool(want)
                        gaps = sum(1 for x, y in zip(want, want[1:]) if y != x + 1)
                        shapes.add("none" if not want else "all" if len(want) == r - 1 else gaps)
    assert shapes == {"none", "all", 1}, shapes


def test_high_rank_filtrations(monkeypatch):
    # pinned filtrations and memo sizes of searches no low-rank test reaches:
    # at rank 300 the a1 window keeps hundreds of a1 values on some ranks, and
    # on the other three _first_ranks keeps two separate runs of ranks at the top
    cases = [
        ((300, 1, 3, 0), Q(1), 0, [(4, 1, 3, 0), (296, 0, 0, 0)], 10),
        ((300, 1, 0, -480), Q(1, 2), 0, [(241, 1, 0, -480), (59, 0, 0, 0)], 157),
        ((300, -1, 2, -600), Q(3), 0, [(1, 0, 0, 0), (299, -1, 2, -600)], 3),
        ((300, 2, 1, -480), Q(1, 7), 1, [(242, 2, 1, -480), (58, 0, 0, 0)], 11),
    ]
    assert from_key(cases[0][0]) == character(300, 1, 3, 0)
    widths, window = [], existence._a1_window

    def logged_window(*args):
        win = window(*args)
        widths.append(len(win))
        return win

    monkeypatch.setattr(existence, "_a1_window", logged_window)
    for key, m, e, factors, memo in cases:
        r = key[0]
        ranks = list(existence._first_ranks(r, existence.delta2(key, e), m.numerator, m.denominator, e))
        gaps = sum(1 for x, y in zip(ranks, ranks[1:]) if y != x + 1)
        assert gaps == (0 if key == cases[0][0] else 1), (key, ranks)
        existence.clear_cache()
        widths.clear()
        dec = hn_generic(from_key(key), m, e)
        assert [int_key(f) for f in dec.factors] == factors, key
        assert len(existence._HN) == memo, key
        validate_hn(dec, from_key(key), check_moduli=False)
        if key == cases[0][0]:
            assert max(widths) >= 200, max(widths)


def test_no_first_factor_without_the_next_prioritary_index_raises(monkeypatch):
    # _unsplit's invariant: a character with no first factor is
    # H_{ceil m + 1}-prioritary; a _prior that refuses n >= 2 breaks it
    prior = existence._prior
    monkeypatch.setattr(existence, "_prior", lambda key, n, e: n < 2 and prior(key, n, e))
    existence.clear_cache()
    with pytest.raises(existence.InternalError, match="inconsistent state: no decomposition found for"):
        hn_generic(character(2, 1, 0, -1), 1, 0)
    existence.clear_cache()


def test_delta_scan_past_its_cap_raises(monkeypatch):
    # delta_estimate's invariant: each rank meets a NONEMPTY character within
    # Delta <= lower + 8; an _hn_key that finds no filtration breaks it
    monkeypatch.setattr(existence, "_hn_key", lambda *args: None)
    with pytest.raises(existence.InternalError, match="delta scan exceeded cap 17/2 at rank 2"):
        delta_estimate(DivisorClass(Q(1, 2), 0), 1, 0, 4)

import contextlib
import io
import json
import random
import re
from decimal import Decimal
from fractions import Fraction as Q

import pytest

from conftest import random_integral_character
from hirzebruch import (
    BogomolovViolation,
    CacheError,
    CH_O,
    ChernCharacter,
    DivisorClass,
    E,
    F,
    IntegralityError,
    KroneckerDomainError,
    KroneckerParams,
    TriangleR,
    build_table,
    canonical_divisor,
    character,
    delta_closed_form,
    delta_estimate,
    delta_p,
    dlp_below_rank,
    dlp_grid,
    dlp_line_bundles,
    dlp_single,
    dual,
    euler_char,
    euler_pair,
    exceptional_character,
    exists_above,
    format_rational,
    from_rank_slope_disc,
    gaeta_exponents,
    general_cohomology,
    generic_prioritary_index,
    hilbert_P,
    hn_generic,
    interval_transport,
    intersect,
    is_exceptional,
    is_wall,
    l0_and_psi,
    line_bundle,
    load_table,
    moduli_nonempty,
    mu,
    params_for_slope,
    parse_integer,
    parse_rational,
    pi_map,
    polarization_divisor,
    potential_characters,
    prioritary_nonempty,
    prioritary_report,
    reduce_character,
    reduce_decision,
    reduced_hilbert_key,
    save_table,
    stability_interval,
    twist,
    verdict,
)
from hirzebruch.cli import main
from hirzebruch.dlp import strip_halfwidth
from hirzebruch.lattice import (
    ZERO_DIV,
    check_del_pezzo,
    check_polarization,
    check_surface,
    chi2,
    delta2,
    fiber_window,
    from_key,
    int_key,
)


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


def test_number_grammar():
    # an optional sign and ASCII digits, for a rational at most one "/"
    # before a nonzero denominator; surrounding whitespace is ignored
    assert [parse_integer(t) for t in ("7", "-7", "+7", "007", "-0", " 3 ")] == [7, -7, 7, 7, 0, 3]
    assert [parse_rational(t) for t in ("+1/2", "-13/2", "4/6", "0/5", "5", "-0")] == \
        [Q(1, 2), Q(-13, 2), Q(2, 3), 0, 5, 0]
    # what Python's int() and Fraction() would read is refused, naming the text
    for text in ("1_0", "\u0663", "\uff11", "0x10", "nan", "inf", "", " ", "+", "-", "--1",
                 "+-1", "- 1", "1 0", "1,1", "1/2"):
        with pytest.raises(ValueError, match="not an integer: %s" % re.escape(repr(text))):
            parse_integer(text)
    for text in ("1_0/3", "1/1_0", "\u0663", "3/\u0663", "nan", "inf", "", "/2", "2/", "1//2",
                 "1/2/3", "1/-2", "1/+2", "-1/-2", "1 /2", "0x1/2", "1,1"):
        with pytest.raises(ValueError, match="not a rational number: %s" % re.escape(repr(text))):
            parse_rational(text)
    # a float keeps its hint, a zero denominator its message
    for text in ("0.5", "1e3", "-1E-3", ".5"):
        with pytest.raises(ValueError, match="instead of 0.5"):
            parse_rational(text)
    for text in ("1/0", "-3/00", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)
    # a JSON number where a cache row holds a literal
    for value in (1, Q(1, 2), None):
        for parse in (parse_integer, parse_rational):
            with pytest.raises(TypeError, match="must be a string"):
                parse(value)


def test_kronecker_pair_key_order_past_wall():
    k = character(2, 1, 0, Q(-3, 2))
    l = character(11, 2, 6, -5)
    m = Q(12, 7) + Q(1, 100)
    assert reduced_hilbert_key(k, m, 1) > reduced_hilbert_key(l, m, 1)
    m_wall = Q(12, 7)  # at the wall the slopes tie and chi/r orders l first
    assert reduced_hilbert_key(k, m_wall, 1) < reduced_hilbert_key(l, m_wall, 1)


def test_integer_key_round_trip():
    rng = random.Random(41)
    odd_negative = 0
    for _ in range(500):
        key = (rng.randint(1, 12), rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-60, 60))
        odd_negative += key[3] < 0 and key[3] % 2 == 1
        v = from_key(key)
        assert (v.r, v.c1, 2 * v.ch2) == (key[0], DivisorClass(key[1], key[2]), key[3])
        assert int_key(v) == key and all(type(t) is int for t in int_key(v))
        # every field is built as an exact Fraction, also through character()
        for w in (v, from_key(int_key(v)), character(key[0], key[1], key[2], Q(key[3], 2))):
            assert w == v and all(type(x) is Q for x in (w.c1.a, w.c1.b, w.ch2))
    assert odd_negative >= 50
    # an int coefficient becomes a Fraction, a Fraction is kept as it is
    half = Q(1, 2)
    assert character(2, 1, -3, half).ch2 is half
    for _ in range(300):
        e = rng.randint(0, 3)
        v = random_integral_character(rng, e)
        assert from_key(int_key(v)) == v
    # the key does not ask for an integral c2: 2 ch2 = 1 with c1^2 = 2 on F_0
    assert int_key(character(2, 1, 1, Q(1, 2))) == (2, 1, 1, 1)


def test_non_rational_coefficients_are_refused_by_the_constructors():
    # DivisorClass and ChernCharacter take only int and Fraction, as
    # check_polarization does for m, and so do the factor of
    # DivisorClass.scale and the Delta of from_rank_slope_disc: a float, a
    # string, a bool or a Decimal is refused by name, never rounded, parsed
    # or read as 0 or 1
    builds = (
        lambda x: DivisorClass(1, 0).scale(x),
        lambda x: from_rank_slope_disc(2, DivisorClass(Q(1, 2), 0), x, 0),
        lambda x: DivisorClass(x, 0),
        lambda x: DivisorClass(0, x),
        lambda x: ChernCharacter(x, ZERO_DIV, 0),
        lambda x: ChernCharacter(1, ZERO_DIV, x),
        lambda x: character(2, x, 0, 0),
        lambda x: character(2, 0, x, 0),
        lambda x: character(2, 0, 0, x),
    )
    for x in (0.5, 0.1, "1/3", True, False, Decimal("0.5"), None):
        for build in builds:
            with pytest.raises(ValueError) as info:
                build(x)
            assert repr(x) in str(info.value)
    with pytest.raises(ValueError, match="0.5"):
        DivisorClass(0.5, "1/3")
    assert DivisorClass(1, 0).scale(Q(1, 2)) == DivisorClass(Q(1, 2), 0)
    assert from_rank_slope_disc(2, DivisorClass(Q(1, 2), 0), Q(1, 2), 0).delta(0) == Q(1, 2)


# rank 0, a half-integral E- or F-coefficient, a third in b, and 2 ch2 =
# 1/3, 2/3 or -5/2 (ch2 of denominator 6, 3 and 4)
NO_KEY = (
    character(0, 1, 1, 0),
    character(2, Q(1, 2), 1, 0),
    character(2, 1, Q(1, 2), 0),
    character(2, 1, Q(-1, 3), 0),
    character(3, 1, 1, Q(1, 6)),
    character(2, 1, 1, Q(1, 3)),
    character(3, 0, 0, Q(-5, 4)),
)


def test_integer_key_refusals():
    for v in NO_KEY:
        with pytest.raises(ValueError, match="integral c1 and 2 ch2"):
            int_key(v)


def test_guards_refuse_what_they_name(tmp_path):
    # one call per refusal: rank 0 where the rank divides, a non-integral
    # class or character where an integral one is needed, Delta < 0, the
    # other surface's base table, cache or cache rows, an unreadable cache
    # and a reduction step in neither direction
    zero, v = character(0, 1, 0, 0), character(2, 1, 0, 0)
    for call in (zero.nu, lambda: zero.delta(0), lambda: euler_char(zero, 0),
                 lambda: euler_pair(zero, v, 0), lambda: euler_pair(v, zero, 0),
                 lambda: mu(zero, 1), lambda: reduced_hilbert_key(zero, 1, 0)):
        with pytest.raises(ZeroDivisionError, match="positive rank"):
            call()
    half = DivisorClass(Q(1, 2), 0)
    with pytest.raises(IntegralityError, match="line bundle class must be integral"):
        line_bundle(half, 0)
    with pytest.raises(IntegralityError, match="twisting class must be integral"):
        twist(v, half, 0)
    with pytest.raises(BogomolovViolation, match="< 0"):
        l0_and_psi(character(2, 1, 0, Q(1, 4)), 0)         # Delta = -1/8
    for e in (0, 1):
        with pytest.raises(ValueError, match="character is not integral"):
            gaeta_exponents(character(3, 1, 0, Q(-1, 3)), e)
        with pytest.raises(ValueError, match="needs positive rank"):
            general_cohomology(zero, e)
        with pytest.raises(IntegralityError, match="is not integral"):
            general_cohomology(character(2, 0, 0, Q(-1, 4)), e)
    table1 = build_table(1, 2)
    with pytest.raises(ValueError, match="different surface"):
        build_table(0, 3, base=table1)
    path = str(tmp_path / "exc.jsonl")
    with pytest.raises(CacheError, match="cannot read cache"):
        load_table(path, 1)
    save_table(table1, path)
    with pytest.raises(ValueError, match="cache .* holds the table of F_1, not of F_0"):
        load_table(path, 0)
    # the header names F_0 (its sha256 covers the rows alone, so it still
    # matches them) over the rows of F_1
    head, *rows = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("".join(ln + "\n" for ln in [json.dumps({**json.loads(head), "e": 0})] + rows))
    with pytest.raises(CacheError, match=r"does not match its header \(e\)"):
        load_table(path, 0)
    with pytest.raises(ValueError, match="direction must be"):
        pi_map(v, "sideways")


def test_no_key_inputs_are_refused_everywhere():
    # every entry point that reads a key refuses these with a plain input
    # error (ValueError, not BogomolovViolation) and `hirz exists` exits 2
    tables = {e: build_table(e, 3) for e in (0, 1)}
    calls = (
        lambda v, e: hn_generic(v, 1, e),
        lambda v, e: verdict(v, 1, e),
        lambda v, e: moduli_nonempty(v, Q(3, 2), e),
        lambda v, e: is_wall(v, 1, e),
        lambda v, e: is_exceptional(v, e, tables[e]),
        lambda v, e: stability_interval(v, e, tables[e]),
    )
    for v in NO_KEY:
        for e in (0, 1):
            for call in calls:
                with pytest.raises(ValueError) as info:
                    call(v, e)
                assert not isinstance(info.value, BogomolovViolation)
    for text in ("0,1,1,0", "2,1/2,1,0", "2,1,1/2,0", "3,1,1,1/6"):
        for e in ("0", "1", "2"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["exists", "--e", e, "--char", text, "--m", "1"])
            assert code == 2 and err.getvalue().startswith("invalid input")


def test_fiber_window_is_the_integer_pair():
    for e in range(6):
        for p in range(1, 13):
            for q in range(1, 13):
                num, den = fiber_window(p, q, e)
                assert Q(num, den) == max(Q(1), Q(2) / (2 * Q(p, q) + e))


def test_non_integer_ranks_are_refused_everywhere():
    # a rank or rank cutoff is a positive int: build_table(0, True) used to
    # give a table whose max_rank is True, build_table(0, 2.5) a bare
    # TypeError and dlp_below_rank(nu, 1, 0, True) an empty DlpValue
    nu = DivisorClass(Q(1, 5), Q(1, 3))
    calls = (
        lambda r: build_table(0, r),
        lambda r: dlp_below_rank(nu, 1, 0, r),
        lambda r: delta_estimate(nu, 1, 0, r),
        lambda r: from_rank_slope_disc(r, DivisorClass(0, 0), 0, 0),
    )
    for r in (True, False, 2.5, 1.0, "3", Q(3), Decimal(3), None, 0, -1):
        for call in calls:
            with pytest.raises(ValueError, match="must be a positive integer") as info:
                call(r)
            assert repr(r) in str(info.value)
    assert build_table(1, 2).max_rank == 2
    assert dlp_below_rank(nu, 1, 0, 1).value is None
    assert delta_estimate(nu, 1, 0, 1).lower == Q(1, 2)


def test_non_divisor_class_slopes_are_refused():
    # a slope nu is a DivisorClass: a pair used to fail with an
    # AttributeError on nu.a, whatever the rank cutoff
    table = build_table(0, 4)
    calls = (
        lambda nu, r: delta_estimate(nu, 1, 0, r),
        lambda nu, r: delta_estimate(nu, Q(1, 2), 0, r, table),
        lambda nu, r: dlp_below_rank(nu, 1, 0, r, table),
    )
    for nu in ((Q(1, 2), 0), [0, 0], Q(1, 2), "E+F", None, E.a):
        for r in (1, 2, 5):
            for call in calls:
                with pytest.raises(ValueError, match="slope nu must be a DivisorClass") as info:
                    call(nu, r)
                assert repr(nu) in str(info.value)
    nu = DivisorClass(Q(1, 2), 0)
    assert dlp_below_rank(nu, 1, 0, 1).value is None and dlp_below_rank(nu, 1, 0, 5, table).value == Q(1, 2)
    assert delta_estimate(nu, 1, 0, 5, table).upper == Q(1, 2)


DEL_PEZZO = ("only F_0 and F_1 are served here, got e=%d; reduce e >= 2 to them "
             "through the reduction map (hirzebruch.reduction) first")


def test_non_integer_surfaces_are_refused_everywhere(tmp_path):
    # e is a non-negative int: build_table(True, 5) used to give a table
    # whose e is True, moduli_nonempty(v, 1, True) to answer as on F_1 and
    # dlp_single(v, nu, 1, 1.0) to raise a bare TypeError.  The same holds
    # for step counts and the prioritary index n.
    v, nu = character(2, 1, 0, 0), DivisorClass(Q(1, 5), Q(1, 3))
    table = build_table(0, 3)
    cache = str(tmp_path / "f0.jsonl")
    save_table(table, cache)
    x = exceptional_character(3, 1, 1, 0)         # a row of the F_0 table
    del_pezzo = (
        lambda e: potential_characters(e, 3),
        lambda e: is_exceptional(x, e, table),
        lambda e: build_table(e, 3),
        lambda e: stability_interval(x, e, table),
        lambda e: load_table(cache, e),
        lambda e: delta_estimate(nu, Q(1, 2), e, 4, table),
        lambda e: dlp_single(CH_O, nu, 1, e),
        lambda e: dlp_line_bundles(nu, 1, e),
        lambda e: dlp_below_rank(nu, 1, e, 3, table),
        lambda e: dlp_grid(e, 1, (0, 1, 0, 1), 1, 2),
    )
    any_surface = (
        lambda e: hn_generic(v, 1, e),
        lambda e: verdict(v, 1, e),
        lambda e: moduli_nonempty(v, 1, e),
        lambda e: is_wall(v, 1, e),
        lambda e: exists_above(v, 1, e),
        lambda e: reduce_character(v, e, 1),
        lambda e: reduce_decision(v, e, 1),
        lambda e: prioritary_nonempty(v, 1, e),
        lambda e: generic_prioritary_index(v, e),
        lambda e: l0_and_psi(v, e),
        lambda e: gaeta_exponents(v, e),
        lambda e: prioritary_report(v, e),
        lambda e: general_cohomology(v, e),
        lambda e: delta_p(nu, 1, e),
    )
    # the Kronecker construction keeps its own domain error (exit 3)
    kronecker = (
        lambda e: KroneckerParams(e, 3, 1, 1, 2, 13),
        lambda e: TriangleR(e, 3),
        lambda e: delta_closed_form(nu, Q(12, 7), e, 3),
        lambda e: params_for_slope(nu, Q(12, 7), e, 3),
    )
    for e in (True, False, 1.0, 0.0, "1", Q(1), Decimal(1), None, -1):
        for call in del_pezzo + any_surface + kronecker:
            with pytest.raises(ValueError) as info:
                call(e)
            assert repr(e) in str(info.value)
    # one wording for every F_0/F_1-only function; F_e itself is served
    for e in (2, 3):
        for call in del_pezzo:
            with pytest.raises(ValueError) as info:
                call(e)
            assert str(info.value) == DEL_PEZZO % e
        with pytest.raises(KroneckerDomainError, match="got e=%d" % e):
            KroneckerParams(e, 3, 1, 1, 2, 13)
        w = character(3, 2, 1, -1)
        assert moduli_nonempty(w, 1, e).verdict == reduce_decision(w, e, 1)[0].verdict
    assert check_del_pezzo(1) == 1 and check_surface(7) == 7
    # step counts and character multiples: a non-negative int, 0 included
    counts = (
        lambda n: dlp_grid(0, 1, (0, 1, 0, 1), n, 2),
        lambda n: exists_above(CH_O, Q(5, 3), 1, steps=n),
        lambda n: interval_transport((Q(0), Q(3)), n),
        lambda n: v.scale(n),
    )
    for n in (1.5, True, False, "1", Q(1), None, -1):
        for call in counts:
            with pytest.raises(ValueError, match="must be a non-negative integer") as info:
                call(n)
            assert repr(n) in str(info.value)
    assert len(dlp_grid(0, 1, (0, 1, 0, 1), 0, 2)[2]) == 1
    assert interval_transport((Q(0), Q(3)), 0) == (Q(0), Q(3)) and exists_above(CH_O, Q(5, 3), 1, 0)
    assert v.scale(0) == character(0, 0, 0, 0) and v.scale(2) == v + v
    # the prioritary index n is an int, not a bool; a negative n stays legal
    for n in (True, False, 1.0, "1", Q(1), None):
        for call in (lambda n: prioritary_nonempty(v, n, 0), lambda n: delta_p(nu, n, 0)):
            with pytest.raises(ValueError, match="prioritary index must be an integer") as info:
                call(n)
            assert repr(n) in str(info.value)
    assert prioritary_nonempty(v, -2, 0) and delta_p(nu, -1, 0) >= 0
    # ell is an int >= 3, not a float
    for ell in (3.5, 3.0, True, "3", Q(3), None, 2):
        for call in (lambda ell: KroneckerParams(1, ell, 1, 1, 2, 13), lambda ell: TriangleR(1, ell)):
            with pytest.raises(KroneckerDomainError, match="ell >= 3; got e=1, ell=") as info:
                call(ell)
            assert repr(ell) in str(info.value)
    assert KroneckerParams(1, 3, 1, 1, 2, 13).k == 2 and TriangleR(0, 3).k == 3


def test_non_rational_polarizations_are_refused_everywhere():
    # every entry point that takes m accepts only int and Fraction: a float,
    # a string, a bool or a Decimal is refused by name, never decided
    v, nu = character(2, 1, 0, 0), DivisorClass(Q(1, 5), Q(1, 3))
    calls = (
        lambda m: hn_generic(v, m, 0),
        lambda m: verdict(v, m, 0),
        lambda m: moduli_nonempty(v, m, 1),
        lambda m: is_wall(v, m, 0),
        lambda m: exists_above(v, m, 1),
        lambda m: delta_estimate(nu, m, 0, 1),
        lambda m: dlp_single(CH_O, nu, m, 0),
        lambda m: dlp_line_bundles(nu, m, 1),
        lambda m: dlp_below_rank(nu, m, 0, 2),
        lambda m: dlp_grid(0, m, (0, 1, 0, 1), 1, 2),
        lambda m: reduce_character(v, 2, m),
        lambda m: reduce_decision(v, 3, m),
        lambda m: delta_closed_form(nu, m, 0, 3),
        lambda m: params_for_slope(nu, m, 0, 3),
        # the formula helpers read m through the same check
        lambda m: mu(v, m),
        lambda m: nu.hm_degree(m),
        lambda m: reduced_hilbert_key(v, m, 1),
        lambda m: strip_halfwidth(m, 1),
        # H_n with n <= 0 is used by the prioritary criterion, so only the
        # type is checked here
        lambda m: polarization_divisor(m, 0),
    )
    for m in (0.5, 0.1, "1/2", True, Decimal("0.5")):
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(m)
            assert repr(m) in str(info.value)
    for m in (0, Q(0), Q(-1, 2)):
        for call in calls[-7:-1] + (check_polarization,):
            with pytest.raises(ValueError, match="must be positive"):
                call(m)
    # a positive Fraction is returned as it is, an int becomes one
    m = Q(12, 7)
    assert check_polarization(m) is m and type(check_polarization(3)) is Q
    assert polarization_divisor(-2, 1) == DivisorClass(1, -1)

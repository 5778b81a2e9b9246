"""Exact arithmetic on the Picard lattice of a Hirzebruch surface.

The Hirzebruch surface F_e (e >= 0) has Pic(F_e) = Z E + Z F with
intersection numbers

    E^2 = -e,   F^2 = 0,   E.F = 1,

canonical class K = -2E - (e+2)F, and ample classes proportional to
H_m = E + (e+m)F for rational m > 0.

A Chern character is a triple (r, c1, ch2).  For r > 0 the derived
invariants are the total slope nu = c1/r and the discriminant
Delta = nu^2/2 - ch2/r, and Riemann-Roch reads

    chi(v)    = r (P(nu) - Delta),          P(aE + bF) = (a+1)(b+1 - a e/2),
    chi(v, w) = r(v) r(w) (P(nu(w) - nu(v)) - Delta(v) - Delta(w)).

All arithmetic is exact rational (`fractions.Fraction`); floats are never
used, and serialization keeps rationals as lowest-terms "p/q" strings.  The
integer kernels are, on keys (r, a, b, 2 ch2) from `int_key` (`from_key`
inverts it), `delta2` and `chi2`.  `hilbert_P2` (2 L^2 P on slopes over
L) is the reference for the tests' brute forces: the DLP scan and the
stability walls write its product inline.
`int_key` reads numerators and denominators and builds no `Fraction`;
`from_key` builds each field's `Fraction` once.  The constructors accept
only `int` (not `bool`) and `Fraction` coefficients, as `check_polarization`
does for m, and keep a `Fraction` as it is; so do `DivisorClass.scale` for
its factor and `from_rank_slope_disc` for Delta.  The input tests take no
`bool` and raise ValueError naming the value: `check_surface` (e >= 0),
`check_del_pezzo` (e in {0, 1} for tables and DLP; reduce e >= 2 with
`reduction`), `check_rank` (r >= 1), `check_count` (a count n >= 0) and
m > 0 in `check_polarization`.  Text is read by one grammar, `parse_integer`
and `parse_rational`: ASCII digits with an optional sign and, for a
rational, at most one "/"; Python's wider `int` syntax (`1_0`, other
scripts' digits) is refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

Rat = Union[int, Fraction]
IKey = Tuple[int, int, int, int]  # (r, a, b, 2 ch2), all integers


class IntegralityError(ValueError):
    """A character or divisor fails an integrality requirement."""


class InternalError(RuntimeError):
    """A broken invariant of the engine: a bug, never a property of the input."""


def check_surface(e: int) -> int:
    if type(e) is not int or e < 0:
        raise ValueError("surface parameter e must be a non-negative integer, got %r" % (e,))
    return e


def check_del_pezzo(e: int) -> int:
    if check_surface(e) > 1:
        raise ValueError("only F_0 and F_1 are served here, got e=%d; reduce e >= 2 to them "
                         "through the reduction map (hirzebruch.reduction) first" % e)
    return e


def check_count(n: int, what: str) -> int:
    if type(n) is not int or n < 0:
        raise ValueError("%s must be a non-negative integer, got %r" % (what, n))
    return n


def _exact(x: Rat, what: str) -> Fraction:
    # type(x) is Fraction skips Fraction(x), whose numbers.Rational check is slow
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError("%s must be an int or a Fraction, got %r" % (what, x))
    return Fraction(x)


def check_rank(r: int, what: str = "rank") -> int:
    """r itself if it is a positive `int`; a bool, float or other type raises
    ValueError naming the value."""
    if type(r) is not int or r < 1:
        raise ValueError("%s must be a positive integer, got %r" % (what, r))
    return r


def check_polarization(m: Rat) -> Fraction:
    m = _exact(m, "polarization parameter m")
    # the sign of a Fraction is its numerator's; Fraction.__le__ is slow
    if m.numerator <= 0:
        raise ValueError("polarization parameter m must be positive, got %s" % (m,))
    return m


@dataclass(frozen=True)
class DivisorClass:
    """Class a*E + b*F with exact rational coefficients."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", _exact(self.a, "divisor coefficient a"))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", _exact(self.b, "divisor coefficient b"))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b)

    def scale(self, t: Rat) -> "DivisorClass":
        t = _exact(t, "scale factor")
        return DivisorClass(t * self.a, t * self.b)

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def hm_degree(self, m: Rat) -> Fraction:
        # (aE + bF).H_m = a m + b, independently of e.
        return self.a * check_polarization(m) + self.b


ZERO_DIV = DivisorClass(0, 0)
E = DivisorClass(1, 0)
F = DivisorClass(0, 1)


def canonical_divisor(e: int) -> DivisorClass:
    return DivisorClass(-2, -(e + 2))


def polarization_divisor(m: Rat, e: int) -> DivisorClass:
    # H_m = E + (e + m)F for any exact m: the prioritary criterion also
    # twists by H_n with n <= 0, which is not ample
    return DivisorClass(1, _exact(m, "polarization parameter m") + e)


def fiber_window(p: int, q: int, e: int) -> Tuple[int, int]:
    """X = max(1, 2/(2m+e)) at m = p/q as an integer pair (num, den), not
    always reduced: the bound on the fiber component |d.F| of the slope
    difference d in the DLP twist scan (`dlp._best`) and the wall test
    (`existence._is_wall_key`)."""
    d = 2 * p + e * q
    return (2 * q, d) if 2 * q > d else (1, 1)


def intersect(d1: DivisorClass, d2: DivisorClass, e: int) -> Fraction:
    """Intersection pairing on F_e: E^2 = -e, F^2 = 0, E.F = 1."""
    return d1.a * d2.b + d2.a * d1.b - e * d1.a * d2.a


def hilbert_P(nu: DivisorClass, e: int) -> Fraction:
    """P(nu) = chi(O(nu)) computed formally: (a+1)(b+1 - a e/2)."""
    return (nu.a + 1) * (nu.b + 1 - Fraction(e, 2) * nu.a)


def hilbert_P2(x: int, y: int, L: int, e: int) -> int:
    """2 L^2 P(nu) for nu = (x/L) E + (y/L) F, in integers."""
    return (x + L) * (2 * y + 2 * L - e * x)


def delta2(key: IKey, e: int) -> int:
    """2 r^2 Delta = 2ab - e a^2 - r s of the key (r, a, b, s = 2 ch2), which
    has the sign of Delta."""
    r, a, b, s = key
    return 2 * a * b - e * a * a - r * s


def chi2(v: IKey, w: IKey, e: int) -> int:
    """2 chi(v, w) of two keys: integer formula via ch(v)^dual ch(w) td."""
    rv, av, bv, sv = v
    rw, aw, bw, sw = w
    ga = rv * aw - rw * av
    gb = rv * bw - rw * bv
    kdot = (e - 2) * ga - 2 * gb          # K . (ga E + gb F)
    pair = av * bw + aw * bv - e * av * aw
    return 2 * rv * rw - kdot + (rv * sw + rw * sv) - 2 * pair


@dataclass(frozen=True)
class ChernCharacter:
    """Chern character (r, c1, ch2) on a Hirzebruch surface.

    ch2 is stored; nu and Delta are derived views (r > 0 only).  Characters
    compare by structural equality of (r, c1, ch2).
    """

    r: int
    c1: DivisorClass
    ch2: Fraction

    def __post_init__(self):
        if isinstance(self.r, bool) or not isinstance(self.r, int) or self.r < 0:
            raise ValueError("rank must be a non-negative integer, got %r" % (self.r,))
        if type(self.ch2) is not Fraction:
            object.__setattr__(self, "ch2", _exact(self.ch2, "ch2"))

    def nu(self) -> DivisorClass:
        if self.r <= 0:
            raise ZeroDivisionError("total slope needs positive rank")
        return DivisorClass(Fraction(self.c1.a, self.r), Fraction(self.c1.b, self.r))

    def delta(self, e: int) -> Fraction:
        if self.r <= 0:
            raise ZeroDivisionError("discriminant needs positive rank")
        nu = self.nu()
        return Fraction(1, 2) * intersect(nu, nu, e) - Fraction(self.ch2, self.r)

    def second_chern(self, e: int) -> Fraction:
        return Fraction(1, 2) * intersect(self.c1, self.c1, e) - self.ch2

    def is_integral(self, e: int) -> bool:
        return self.c1.is_integral() and self.second_chern(e).denominator == 1

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r + other.r, self.c1 + other.c1, self.ch2 + other.ch2)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r - other.r, self.c1 - other.c1, self.ch2 - other.ch2)

    def scale(self, n: int) -> "ChernCharacter":
        check_count(n, "character scaling factor")
        return ChernCharacter(n * self.r, self.c1.scale(n), n * self.ch2)


def int_key(v: ChernCharacter) -> IKey:
    """The key (r, a, b, 2 ch2) of v; ValueError unless r >= 1 and a, b, 2 ch2 are integers."""
    a, b, ch2 = v.c1.a, v.c1.b, v.ch2
    # 2 ch2 is an integer exactly when ch2's denominator is 1 or 2
    if v.r < 1 or a.denominator != 1 or b.denominator != 1 or ch2.denominator > 2:
        raise ValueError("not a character of positive rank with integral c1 and 2 ch2: %r" % (v,))
    return (v.r, a.numerator, b.numerator, 2 * ch2.numerator // ch2.denominator)


def from_key(key: IKey) -> ChernCharacter:
    r, a, b, s = key
    return ChernCharacter(r, DivisorClass(Fraction(a), Fraction(b)), Fraction(s, 2))


def character(r: int, a: Rat, b: Rat, ch2: Rat) -> ChernCharacter:
    return ChernCharacter(r, DivisorClass(a, b), ch2)


def line_bundle(d: DivisorClass, e: int) -> ChernCharacter:
    """ch O(d) = (1, d, d^2/2)."""
    if not d.is_integral():
        raise IntegralityError("line bundle class must be integral, got %r" % (d,))
    return ChernCharacter(1, d, Fraction(1, 2) * intersect(d, d, e))


CH_O = ChernCharacter(1, ZERO_DIV, Fraction(0))


def euler_char(v: ChernCharacter, e: int) -> Fraction:
    """chi(v) = r (P(nu) - Delta); an integer whenever v is integral."""
    if v.r <= 0:
        raise ZeroDivisionError("euler_char needs positive rank")
    return v.r * (hilbert_P(v.nu(), e) - v.delta(e))


def euler_pair(v: ChernCharacter, w: ChernCharacter, e: int) -> Fraction:
    """chi(v, w) = r(v) r(w) (P(nu(w) - nu(v)) - Delta(v) - Delta(w))."""
    if v.r <= 0 or w.r <= 0:
        raise ZeroDivisionError("euler_pair needs positive ranks")
    dn = w.nu() - v.nu()
    return v.r * w.r * (hilbert_P(dn, e) - v.delta(e) - w.delta(e))


def mu(v: ChernCharacter, m: Rat) -> Fraction:
    """H_m-slope c1.H_m / r = (a m + b)/r."""
    if v.r <= 0:
        raise ZeroDivisionError("slope needs positive rank")
    return v.c1.hm_degree(m) / v.r


def twist(v: ChernCharacter, L: DivisorClass, e: int) -> ChernCharacter:
    """Character of V tensor O(L); nu shifts by L, Delta is unchanged."""
    if not L.is_integral():
        raise IntegralityError("twisting class must be integral, got %r" % (L,))
    ch2 = v.ch2 + intersect(v.c1, L, e) + v.r * Fraction(1, 2) * intersect(L, L, e)
    return ChernCharacter(v.r, v.c1 + L.scale(v.r), ch2)


def dual(v: ChernCharacter) -> ChernCharacter:
    """Character of the dual: nu to -nu, Delta unchanged."""
    return ChernCharacter(v.r, -v.c1, v.ch2)


def serre_dual(v: ChernCharacter, e: int) -> ChernCharacter:
    """Character with nu -> -nu + K and the same discriminant."""
    return twist(dual(v), canonical_divisor(e), e)


def reduced_hilbert_key(v: ChernCharacter, m: Rat, e: int) -> Tuple[Fraction, Fraction]:
    """Sort key for the reduced H_m-Hilbert polynomial at t >> 0.

    Expanding chi(v(tH_m))/r = (H_m^2/2) t^2 + (nu.H_m - K.H_m/2) t + P(nu) - Delta
    by Riemann-Roch, the t^2 coefficient is rank-free and the constant K-term is
    shared, so the asymptotic order is lexicographic on (mu_{H_m}, chi/r).
    """
    if v.r <= 0:
        raise ZeroDivisionError("reduced Hilbert key needs positive rank")
    return (mu(v, m), hilbert_P(v.nu(), e) - v.delta(e))


def from_rank_slope_disc(r: int, nu: DivisorClass, delta: Rat, e: int) -> ChernCharacter:
    """Integral character with invariants (r, nu, Delta), or IntegralityError."""
    check_rank(r)
    delta = _exact(delta, "discriminant Delta")
    c1 = nu.scale(r)
    if not c1.is_integral():
        raise IntegralityError("r*nu = %r is not an integral divisor class" % (c1,))
    ch2 = r * (Fraction(1, 2) * intersect(nu, nu, e) - delta)
    v = ChernCharacter(r, c1, ch2)
    if v.second_chern(e).denominator != 1:
        raise IntegralityError(
            "no integral character with r=%d, nu=(%s,%s), Delta=%s" % (r, nu.a, nu.b, delta)
        )
    return v


# ---------------------------------------------------------------------------
# rational serialization ("p/q" lowest terms; integers drop the "/1")

def format_rational(x: Optional[Fraction], infinity: str = "inf") -> str:
    if x is None:
        return infinity
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _stripped(text: str) -> str:
    # a cache row may hold a JSON number where a literal belongs
    if not isinstance(text, str):
        raise TypeError("a number literal must be a string, got %r" % (text,))
    return text.strip()


def parse_integer(text: str) -> int:
    """Parse an integer literal: an optional sign and ASCII digits, with
    surrounding whitespace ignored; anything else raises ValueError (a
    non-string TypeError)."""
    t = _stripped(text)
    if _INTEGER.fullmatch(t) is None:
        raise ValueError("not an integer: %r (write ASCII digits with an optional sign)" % (text,))
    return int(t)


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or integer literal: an optional sign, ASCII digits and
    at most one "/" before the digits of a nonzero denominator, with
    surrounding whitespace ignored.  Floats are rejected with a hint, other
    text with ValueError, a non-string with TypeError."""
    t = _stripped(text)
    if "." in t or "e" in t.lower():
        raise ValueError(
            "floating-point literal %r not accepted; write an exact fraction "
            "(e.g. 1/2 instead of 0.5)" % (t,)
        )
    match = _RATIONAL.fullmatch(t)
    if match is None:
        raise ValueError("not a rational number: %r (write p/q or an integer in ASCII digits)"
                         % (text,))
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError("zero denominator in %r" % (t,))
    return Fraction(num, den)


def floor_frac(x: Rat) -> int:
    return math.floor(Fraction(x))


def ceil_frac(x: Rat) -> int:
    return math.ceil(Fraction(x))

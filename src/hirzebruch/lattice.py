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
integer kernels are `hilbert_P2` (2 L^2 P on slopes over L) and, on integer
keys (r, a, b, 2 ch2), `delta2` (2 r^2 Delta) and `chi2` (2 chi(v, w)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

Rat = Union[int, Fraction]


class IntegralityError(ValueError):
    """A character or divisor fails an integrality requirement."""


def check_surface(e: int) -> int:
    if not isinstance(e, int) or e < 0:
        raise ValueError("surface parameter e must be a non-negative integer, got %r" % (e,))
    return e


def check_polarization(m: Rat) -> Fraction:
    m = Fraction(m)
    if m <= 0:
        raise ValueError("polarization parameter m must be positive, got %s" % (m,))
    return m


@dataclass(frozen=True)
class DivisorClass:
    """Class a*E + b*F with exact rational coefficients."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b)

    def scale(self, t: Rat) -> "DivisorClass":
        t = Fraction(t)
        return DivisorClass(t * self.a, t * self.b)

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def hm_degree(self, m: Rat) -> Fraction:
        # (aE + bF).H_m = a m + b, independently of e.
        return self.a * Fraction(m) + self.b


ZERO_DIV = DivisorClass(0, 0)
E = DivisorClass(1, 0)
F = DivisorClass(0, 1)


def canonical_divisor(e: int) -> DivisorClass:
    return DivisorClass(-2, -(e + 2))


def polarization_divisor(m: Rat, e: int) -> DivisorClass:
    return DivisorClass(1, Fraction(m) + e)


def fiber_window(m: Fraction, e: int) -> Fraction:
    """X = max(1, 2/(2m+e)): the bound on the fiber component |d.F| of the
    slope difference d in the DLP twist scan and the HN first-factor search."""
    # 2/(2m+e) = 2q/(2p+eq) for m = p/q
    p, q = m.numerator, m.denominator
    d = 2 * p + e * q
    return Fraction(2 * q, d) if 2 * q > d else Fraction(1)


def intersect(d1: DivisorClass, d2: DivisorClass, e: int) -> Fraction:
    """Intersection pairing on F_e: E^2 = -e, F^2 = 0, E.F = 1."""
    return d1.a * d2.b + d2.a * d1.b - e * d1.a * d2.a


def hilbert_P(nu: DivisorClass, e: int) -> Fraction:
    """P(nu) = chi(O(nu)) computed formally: (a+1)(b+1 - a e/2)."""
    return (nu.a + 1) * (nu.b + 1 - Fraction(e, 2) * nu.a)


def hilbert_P2(x: int, y: int, L: int, e: int) -> int:
    """2 L^2 P(nu) for nu = (x/L) E + (y/L) F, in integers."""
    return (x + L) * (2 * y + 2 * L - e * x)


def delta2(key: Tuple[int, int, int, int], e: int) -> int:
    """2 r^2 Delta = 2ab - e a^2 - r s of the key (r, a, b, s = 2 ch2), which
    has the sign of Delta."""
    r, a, b, s = key
    return 2 * a * b - e * a * a - r * s


def chi2(v: Tuple[int, int, int, int], w: Tuple[int, int, int, int], e: int) -> int:
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
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError("rank must be a non-negative integer, got %r" % (self.r,))
        object.__setattr__(self, "ch2", Fraction(self.ch2))

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
        if not isinstance(n, int) or n < 0:
            raise ValueError("character scaling wants a non-negative integer")
        return ChernCharacter(n * self.r, self.c1.scale(n), n * self.ch2)

    def key(self) -> Tuple[int, Fraction, Fraction, Fraction]:
        return (self.r, self.c1.a, self.c1.b, self.ch2)


def character(r: int, a: Rat, b: Rat, ch2: Rat) -> ChernCharacter:
    return ChernCharacter(r, DivisorClass(a, b), Fraction(ch2))


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
    if not isinstance(r, int) or r <= 0:
        raise ValueError("rank must be a positive integer, got %r" % (r,))
    c1 = nu.scale(r)
    if not c1.is_integral():
        raise IntegralityError("r*nu = %r is not an integral divisor class" % (c1,))
    ch2 = r * (Fraction(1, 2) * intersect(nu, nu, e) - Fraction(delta))
    v = ChernCharacter(r, c1, ch2)
    if v.second_chern(e).denominator != 1:
        raise IntegralityError(
            "no integral character with r=%d, nu=(%s,%s), Delta=%s" % (r, nu.a, nu.b, Fraction(delta))
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


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or integer literal; floats are rejected with a hint."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(
            "floating-point literal %r not accepted; write an exact fraction "
            "(e.g. 1/2 instead of 0.5)" % (text,)
        )
    if "/" in text:
        num, den = (int(t) for t in text.split("/", 1))
        if den == 0:
            raise ValueError("zero denominator in %r" % (text,))
        return Fraction(num, den)
    return Fraction(int(text))


def floor_frac(x: Rat) -> int:
    return math.floor(Fraction(x))


def ceil_frac(x: Rat) -> int:
    return math.ceil(Fraction(x))

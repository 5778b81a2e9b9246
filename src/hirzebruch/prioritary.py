"""Existence of F- and H_n-prioritary sheaves on F_e.

For an integral character v = (r, nu, Delta) with Delta >= 0 and
nu = eps E + phi F, the stack of F- and H_n-prioritary sheaves is nonempty
exactly when chi(v(-L_0 - H_n)) <= 0, where

    psi = phi + e (ceil(eps) - eps)/2 - Delta / (eps - floor(eps)),
    L_0 = ceil(eps) E + ceil(psi) F.

This test reads n <= the generic prioritary index.  The index never falls
as Delta grows, so it passes exactly when Delta >= delta_n^p(nu), its
Delta-threshold, which `delta_p` gives in closed form.  The bound is sharp:
where it is positive, a twist or dual of the direct sum
O(-E+(n-1)F)^A + O^B + O(-F)^C of slope nu has Delta = delta_n^p(nu).
Integral eps is degenerate: every n works.

Also here: Gaeta exponents relative to L_0 and the Betti numbers of a
general prioritary sheaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Tuple

from .lattice import (
    ChernCharacter,
    DivisorClass,
    E,
    F,
    IKey,
    IntegralityError,
    InternalError,
    canonical_divisor,
    ceil_frac,
    check_surface,
    delta2,
    euler_char,
    floor_frac,
    line_bundle,
    serre_dual,
    twist,
)


class BogomolovViolation(ValueError):
    """Operation requires Delta >= 0."""


@dataclass(frozen=True)
class GaetaExponents:
    alpha: int
    beta: int
    gamma: int
    delta: int

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.alpha, self.beta, self.gamma, self.delta)


@dataclass(frozen=True)
class PrioritaryReport:
    l0: DivisorClass
    psi: Optional[Fraction]          # None when eps is an integer
    rho_gen: Optional[int]           # None encodes +infinity
    degenerate_epsilon: bool
    zero_discriminant: bool
    e: int
    nu: DivisorClass

    def delta_p_at(self, n: int) -> Fraction:
        return delta_p(self.nu, n, self.e)


def _require_delta(v: ChernCharacter, e: int) -> Fraction:
    d = v.delta(e)
    if d < 0:
        raise BogomolovViolation("Delta = %s < 0" % (d,))
    return d


def l0_and_psi(v: ChernCharacter, e: int):
    """Return (L_0, psi, degenerate) for v; psi is None when eps is integral.

    In the degenerate case L_0 = eps E + ceil(phi - Delta) F, the largest
    F-coefficient keeping chi(v(-L_0)) > 0, matching the generic rule.
    """
    check_surface(e)
    d = _require_delta(v, e)
    nu = v.nu()
    eps, phi = nu.a, nu.b
    if eps.denominator == 1:
        b0 = ceil_frac(phi - d)
        return DivisorClass(eps, b0), None, True
    psi = phi + Fraction(e, 2) * (ceil_frac(eps) - eps) - d / (eps - floor_frac(eps))
    return DivisorClass(ceil_frac(eps), ceil_frac(psi)), psi, False


def gaeta_exponents(v: ChernCharacter, e: int) -> GaetaExponents:
    """Euler-characteristic exponents of the L_0-resolution of a general sheaf.

    alpha = -chi(v(-L0-E-F)), beta = -chi(v(-L0-E)), gamma = -chi(v(-L0-F)),
    delta = chi(v(-L0)); when alpha >= 0 these are the ranks in
    0 -> L0(-E-(e+1)F)^alpha -> L0(-E-eF)^beta + L0(-F)^gamma + L0^delta -> V -> 0.
    """
    l0, _, _ = l0_and_psi(v, e)

    def chi_tw(shift: DivisorClass) -> int:
        c = euler_char(twist(v, -(l0 + shift), e), e)
        if c.denominator != 1:
            raise ValueError("character is not integral")
        return int(c)

    return GaetaExponents(
        alpha=-chi_tw(E + F),
        beta=-chi_tw(E),
        gamma=-chi_tw(F),
        delta=chi_tw(DivisorClass(0, 0)),
    )


def gaeta_character(exps: GaetaExponents, l0: DivisorClass, e: int) -> ChernCharacter:
    """K-class beta ch(L0(-E-eF)) + gamma ch(L0(-F)) + delta ch(L0) - alpha ch(L0(-E-(e+1)F))."""
    t = lambda d: line_bundle(l0 + d, e)
    out = t(-E - DivisorClass(0, e)).scale(exps.beta)
    out = out + t(-F).scale(exps.gamma) + t(DivisorClass(0, 0)).scale(exps.delta)
    return out - t(-E - DivisorClass(0, e + 1)).scale(exps.alpha)


def prioritary_nonempty(v: ChernCharacter, n: int, e: int) -> bool:
    """Is the stack of F- and H_n-prioritary sheaves of character v nonempty?

    True iff Delta >= 0 and n <= the generic prioritary index (the test
    chi(v(-L_0 - H_n)) <= 0); integral eps always passes, Delta < 0 fails.
    """
    check_surface(e)
    if type(n) is not int:
        raise ValueError("prioritary index must be an integer, got %r" % (n,))
    key = _multiple_key(v)
    if delta2(key, e) < 0:
        return False
    rho = prioritary_index_of_key(key, e)
    return rho is None or n <= rho


def generic_prioritary_index(v: ChernCharacter, e: int) -> Optional[int]:
    """Largest n with an F- and H_n-prioritary sheaf of character v; None = +inf.

    For non-integral eps this is
    floor(Delta/((ceil eps - eps)(eps - floor eps)) - e/2 + 1 - (ceil psi - psi)),
    evaluated by `prioritary_index_of_key` on an integral multiple of v (the
    index depends on nu and Delta only).
    """
    check_surface(e)
    key = _multiple_key(v)
    if delta2(key, e) < 0:
        raise BogomolovViolation("Delta = %s < 0" % (v.delta(e),))
    return prioritary_index_of_key(key, e)


def _multiple_key(v: ChernCharacter) -> IKey:
    """Key of the least multiple of v with integral c1 and 2 ch2 (same nu, Delta)."""
    if v.r == 0:
        raise ZeroDivisionError("discriminant needs positive rank")
    ts = (v.c1.a, v.c1.b, 2 * v.ch2)
    n = lcm(*(t.denominator for t in ts))
    return (n * v.r,) + tuple(t.numerator * (n // t.denominator) for t in ts)


def prioritary_index_of_key(key: IKey, e: int) -> Optional[int]:
    """The generic prioritary index of (r, aE + bF, ch2 = s/2) in integers.

    Needs r >= 1 and Delta >= 0 (not checked).  With a' = a mod r (None when
    0), N = 2 r^2 Delta = 2ab - e a^2 - r s and D = 2 r a', psi = P/D for
    P = 2 a' b + e a' (r - a') - N, so ceil psi - psi = ((-P) mod D)/D and the
    floor above runs over the one denominator D (r - a').
    """
    r, a, b, s = key
    a1 = a % r
    if a1 == 0:
        return None
    c = r - a1
    n = 2 * a * b - e * a * a - r * s
    d = 2 * r * a1
    up = (n - 2 * a1 * b - e * a1 * c) % d
    return (n * r + (2 - e) * a1 * r * c - up * c) // (d * c)


def prioritary_report(v: ChernCharacter, e: int) -> PrioritaryReport:
    l0, psi, degenerate = l0_and_psi(v, e)      # checks e and Delta >= 0
    return PrioritaryReport(
        l0=l0,
        psi=psi,
        rho_gen=generic_prioritary_index(v, e),
        degenerate_epsilon=degenerate,
        zero_discriminant=(v.delta(e) == 0),
        e=e,
        nu=v.nu(),
    )


# ---------------------------------------------------------------------------
# the sharp prioritary discriminant bound delta_n^p

def delta_p(nu: DivisorClass, n: int, e: int) -> Fraction:
    """Sharp lower bound on Delta for F- and H_n-prioritary sheaves of slope nu.

    The least Delta >= 0 with n <= the generic prioritary index.  With
    f = eps - floor(eps), c = 1 - f, u = phi + e c/2 (psi at Delta = 0) and
    k = n + e/2 - 1, that test reads u + Delta/c - ceil(u - Delta/f) >= k,
    whose left side never falls as Delta grows; the least Delta passing it
    is max(0, c f k + min(f t, c (1 - t))) for t = (u - c k) mod 1.  A twist
    moves u by an integer and a dual swaps f with c and t with 1 - t, so the
    value is invariant under both; it is zero for integral eps.
    """
    check_surface(e)
    if type(n) is not int:
        raise ValueError("prioritary index must be an integer, got %r" % (n,))
    eps, phi = Fraction(nu.a), Fraction(nu.b)
    f = eps - floor_frac(eps)
    if f == 0:
        return Fraction(0)
    c = 1 - f
    k = n + Fraction(e, 2) - 1
    t = (phi + e * c / 2 - c * k) % 1
    return max(Fraction(0), c * f * k + min(f * t, c * (1 - t)))


# ---------------------------------------------------------------------------
# Betti numbers of the general prioritary sheaf

def _h0_line(a: int, b: int, e: int) -> int:
    # h^0(O(aE+bF)) via pushforward to P^1: sum of h^0(O_{P^1}(b - ie)).
    if a < 0:
        return 0
    return sum(max(b - i * e + 1, 0) for i in range(a + 1))


def _rank_one_cohomology(v: ChernCharacter, e: int) -> Tuple[int, int, int]:
    # General rank-1 sheaf = O(c1) tensor the ideal of Delta = c2 general points.
    n = int(v.delta(e))
    a, b = int(v.c1.a), int(v.c1.b)
    k = canonical_divisor(e)
    h0 = max(_h0_line(a, b, e) - n, 0)
    h2 = _h0_line(int(k.a) - a, int(k.b) - b, e)
    chi = int(euler_char(v, e))
    h1 = h0 + h2 - chi
    if h1 < 0:
        raise InternalError("h1 = %d < 0 for %r" % (h1, v))
    return (h0, h1, h2)


def general_cohomology(v: ChernCharacter, e: int) -> Tuple[int, int, int]:
    """Betti numbers (h0, h1, h2) of a general prioritary sheaf of character v.

    Requires v integral with r >= 1 and Delta >= 0.  Cases on nu.F: at -1 only
    h1 survives; below -1 (rank >= 2) Serre duality swaps h0 and h2; above
    -1, h2 = 0 and h0 is unchanged by twists by -E until nu.F <= -1 (no
    sections) or nu.E >= -1 (at most one nonzero group).  Each twist lowers
    nu.F by 1 and raises nu.E by e, so nu.E >= -1 takes
    k = max(ceil((-1 - nu.E)/e), 0) twists.  On F_0 twists leave nu.E alone
    and k = 0: where nu.E < -1 < nu.F, chi = r((nu.F + 1)(nu.E + 1) - Delta)
    < 0 gives h0 = 0, as the walk to nu.F <= -1 would.
    """
    check_surface(e)
    if v.r < 1:
        raise ValueError("general_cohomology needs positive rank")
    if not v.is_integral(e):
        raise IntegralityError("character %r is not integral" % (v,))
    _require_delta(v, e)
    if v.r == 1:
        return _rank_one_cohomology(v, e)
    nu = v.nu()
    nu_dot_f = nu.a
    chi = euler_char(v, e)
    if chi.denominator != 1:
        raise InternalError("chi = %s of the integral %r is not an integer" % (chi, v))
    chi = int(chi)
    if nu_dot_f < -1:
        h0, h1, h2 = general_cohomology(serre_dual(v, e), e)
        return (h2, h1, h0)
    if nu_dot_f == -1:
        return (0, -chi, 0)
    nu_dot_e = nu.b - e * nu_dot_f
    k = max(ceil_frac((-1 - nu_dot_e) / e), 0) if e else 0
    h0 = 0 if nu_dot_f - k <= -1 else max(int(euler_char(twist(v, E.scale(-k), e), e)), 0)
    return (h0, h0 - chi, 0)

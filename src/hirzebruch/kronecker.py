"""Orthogonal Kronecker pairs and the closed-form sharp Bogomolov value.

Fix e in {0, 1} and an integer ell >= 3, and put k = ell - e,
N = 2(k-1) + e, M = 2(ell+1) - e (defined once, by `_family`, which also
refuses any other e or ell).  From the exceptional collection
O(-E-ell F), O, O(F), O(E-(ell-1-e)F) build

    0 -> O(E-(k-1)F)^b -> K -> O(F)^a -> 0        (extension)
    0 -> O(-E-ell F)^c -> O^d -> L -> 0           (cokernel)

with positive integers a, b, c, d subject to

    psi_N^{-1} < b/a < psi_N,   2 ell - e + 1 < d/c < psi_M,

where psi_N = (N + sqrt(N^2-4))/2 (tested once, by `_missed_segment`, for
both `KroneckerParams.is_admissible` and the crossing quotients that
`delta_closed_form` and `params_for_slope` read off a slope).  Then
chi(K, L) = 0, and at the unique wall m_V in (1 - e/2, k) where the
H_m-slopes of K and L agree, the sum character v = k + l has generic
H_{m_V + eps}-filtration exactly (k, l).

On the triangle R spanned by the slope segments of the two families, the
sharp threshold for mu_{H_m}-stable sheaves of slope nu = (x0, y0) is the
closed rational expression implemented by `delta_closed_form`.  It decides
its own domain: the slope -m line through nu must cross both open
segments, and nu must lie strictly between the two crossings, which puts
nu in the open R.  (R's third side has quadratic-irrational ends, so a
membership test of R is a biquadratic sign test; the tests keep one as an
oracle for this claim.)

psi_N and psi_M are never evaluated as radicals: q lies in
(psi_N^{-1}, psi_N) exactly when q^2 - N q + 1 < 0 (`in_psi_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from .lattice import (
    ChernCharacter,
    DivisorClass,
    E,
    F,
    InternalError,
    Rat,
    check_polarization,
    euler_pair,
    line_bundle,
    mu,
)

MAX_EPS_EXPONENT = 9  # wall_crossing_epsilon tries eps = 10^-j, j <= this


class KroneckerDomainError(ValueError):
    """Parameters or slopes outside the admissible Kronecker region."""


def _family(e: int, ell: int) -> Tuple[int, int, int]:
    """(k, N, M) of the family (e, ell); refuses all but ints e in {0, 1}, ell >= 3."""
    if not (type(e) is int and 0 <= e <= 1 and type(ell) is int and ell >= 3):
        raise KroneckerDomainError("need ints e in {0, 1}, ell >= 3; got e=%r, ell=%r" % (e, ell))
    k = ell - e
    return k, 2 * (k - 1) + e, 2 * (ell + 1) - e


def in_psi_interval(q: Fraction, n: int) -> bool:
    """q in (psi_N^{-1}, psi_N), tested as q^2 - N q + 1 < 0."""
    return q * q - n * q + 1 < 0


def _missed_segment(e: int, ell: int, ba: Fraction, dc: Fraction) -> Optional[str]:
    """None when psi_N^{-1} < b/a < psi_N and 2 ell - e + 1 < d/c < psi_M,
    else the segment whose quotient leaves its window, extension first."""
    _, n, mm = _family(e, ell)
    if not in_psi_interval(ba, n):
        return "extension"
    if not (dc > 2 * ell - e + 1 and in_psi_interval(dc, mm)):
        return "cokernel"
    return None


@dataclass(frozen=True)
class KroneckerParams:
    e: int
    ell: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        _family(self.e, self.ell)
        exps = (self.a, self.b, self.c, self.d)
        if not all(type(x) is int and x >= 1 for x in exps):
            raise KroneckerDomainError("exponents a, b, c, d must be positive ints, got %r" % (exps,))

    @property
    def k(self) -> int:
        return _family(self.e, self.ell)[0]

    def is_admissible(self) -> bool:
        return _missed_segment(self.e, self.ell, Fraction(self.b, self.a), Fraction(self.d, self.c)) is None

    @cached_property
    def characters(self) -> Tuple[ChernCharacter, ChernCharacter, ChernCharacter]:
        """(k, l, v = k + l) of the extension, the cokernel and their sum."""
        if not self.is_admissible():
            raise KroneckerDomainError("parameters %r are not admissible" % (self,))
        e, ell, k = self.e, self.ell, self.k
        k_char = line_bundle(E - F.scale(k - 1), e).scale(self.b) + line_bundle(F, e).scale(self.a)
        l_char = line_bundle(DivisorClass(0, 0), e).scale(self.d) - line_bundle(-E - F.scale(ell), e).scale(self.c)
        if euler_pair(k_char, l_char, e) != 0:
            raise InternalError("chi(K, L) != 0 for %r" % (self,))
        return k_char, l_char, k_char + l_char

    @cached_property
    def m_v(self) -> Fraction:
        """The wall of `wall_m_v`, checked against (1 - e/2, k), m_L and the
        two slopes."""
        k_char, l_char, _ = self.characters
        # both slopes are linear in m: solve a1 m + b1 = a2 m + b2 over the rationals
        a1 = Fraction(k_char.c1.a, k_char.r)
        b1 = Fraction(k_char.c1.b, k_char.r)
        a2 = Fraction(l_char.c1.a, l_char.r)
        b2 = Fraction(l_char.c1.b, l_char.r)
        m = (b2 - b1) / (a1 - a2)
        if not 1 - Fraction(self.e, 2) < m < self.k:
            raise InternalError("wall %s escaped (1 - e/2, k)" % (m,))
        if not m < wall_m_l(self):
            raise InternalError("wall %s is not below m_L for %r" % (m, self))
        if mu(k_char, m) != mu(l_char, m):
            raise InternalError("K and L have different slopes at the wall %s" % (m,))
        return m


def kronecker_characters(p: KroneckerParams) -> Tuple[ChernCharacter, ChernCharacter, ChernCharacter]:
    """`p.characters`, built and checked once per parameters."""
    return p.characters


def wall_m_v(p: KroneckerParams) -> Fraction:
    """The unique m with mu_{H_m}(K) = mu_{H_m}(L); lies in (1 - e/2, k).
    `p.m_v`, solved and checked once per parameters."""
    return p.m_v


def wall_m_l(p: KroneckerParams) -> Fraction:
    """m_L = d/c - ell - 1, where O(F) starts destabilizing the cokernel."""
    return Fraction(p.d, p.c) - p.ell - 1


# ---------------------------------------------------------------------------
# the closed form

def _crossings(nu: DivisorClass, m: Rat, e: int, ell: int):
    """(k, m, x0, y0, x1, x2, b/a, d/c): k, the checked m, nu = (x0, y0),
    where the slope -m line through nu meets the K-side y = -k x + 1 (at
    x = x1) and the L-side y = ell x (at x = x2), and the crossing quotients
    b/a = x1/(1 - x1) and d/c = (1 + x2)/x2; refuses x1 = 1, x2 <= 0 and a
    line that misses an open construction segment."""
    k, _, _ = _family(e, ell)
    m = check_polarization(m)
    x0, y0 = Fraction(nu.a), Fraction(nu.b)
    if m == k:
        raise KroneckerDomainError("the slope -m line is parallel to the K-side")
    x1 = (y0 + m * x0 - 1) / (m - k)
    x2 = (y0 + m * x0) / (m + ell)
    if x1 == 1:
        raise KroneckerDomainError("degenerate intersection with the K-segment")
    if x2 <= 0:
        raise KroneckerDomainError("line misses the open cokernel segment")
    ba, dc = x1 / (1 - x1), (1 + x2) / x2
    missed = _missed_segment(e, ell, ba, dc)
    if missed:
        raise KroneckerDomainError("line misses the open %s segment" % missed)
    return k, m, x0, y0, x1, x2, ba, dc


def delta_closed_form(nu: DivisorClass, m: Rat, e: int, ell: int) -> Fraction:
    """Sharp Bogomolov value delta_m(nu) for nu in R when the slope -m line
    through nu crosses both open construction segments.

    Raises KroneckerDomainError when the geometric preconditions fail.
    """
    k, m, x0, y0, x1, x2, _, _ = _crossings(nu, m, e, ell)
    if x1 == x2:
        # only on lines through P4, x1 = x2 = 1/(k + ell), where b/a =
        # 1/(N + 1) < 1/psi_N: `_crossings` has refused the extension segment
        raise InternalError("degenerate crossing at %s reached the closed form" % (x1,))
    lam = (x0 - x2) / (x1 - x2)
    if not 0 < lam < 1:
        raise KroneckerDomainError("slope lies outside the triangle on this line")
    s = k + ell
    value = (
        -Fraction(e, 2) * x0 * x0
        + x0 * y0
        + Fraction(y0, s)
        + (ell - Fraction(1, 2) - Fraction(e, 2) - Fraction(e, 2 * s)) * x0
        + (m - k) * (y0 - ell * x0) / (s * s * (y0 + m * x0 - Fraction(m + ell, s)))
    )
    return value


def params_for_slope(nu: DivisorClass, m: Rat, e: int, ell: int) -> KroneckerParams:
    """Smallest positive-integer parameters realizing the wall m at slope nu:
    b/a and d/c are the crossing quotients of `delta_closed_form`, and a
    line that misses a segment is refused as there."""
    *_, ba, dc = _crossings(nu, m, e, ell)
    return KroneckerParams(e, ell, ba.denominator, ba.numerator, dc.denominator, dc.numerator)


def wall_crossing_epsilon(p: KroneckerParams) -> Fraction:
    """Largest eps = 10^-j (j <= MAX_EPS_EXPONENT) for which the engine
    confirms the generic H_{m_V + eps}-filtration (k, l); the chosen eps is
    part of the reported result."""
    from .existence import hn_generic

    k_char, l_char, v_char = p.characters
    m_v = p.m_v
    for j in range(1, MAX_EPS_EXPONENT + 1):
        eps = Fraction(1, 10 ** j)
        dec = hn_generic(v_char, m_v + eps, p.e)
        if dec is not None and dec.factors == (k_char, l_char):
            return eps
    raise KroneckerDomainError(
        "no eps of the form 10^-j (j <= %d) confirms the wall crossing" % MAX_EPS_EXPONENT
    )

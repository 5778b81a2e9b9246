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
closed rational expression implemented by `delta_closed_form`.

psi_N and psi_M are never evaluated as radicals: every comparison is a sign
test of p + q sqrt(D) (or its biquadratic analogue) in exact arithmetic.
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


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sign_with_sqrt(p: Fraction, q: Fraction, D: int) -> int:
    """Exact sign of p + q*sqrt(D) for an integer D >= 0."""
    if D < 0:
        raise ValueError("negative radicand")
    if q == 0 or D == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    sp, sq = _sign(p), _sign(q)
    if sp == sq:
        return sp
    t = p * p - q * q * D
    if t == 0:
        return 0
    return sp if t > 0 else sq


def _sign_biquadratic(g0, g1, h0, h1, A: int, B: int) -> int:
    """Exact sign of (g0 + g1 sqrt(A)) + (h0 + h1 sqrt(A)) sqrt(B)."""
    sG = sign_with_sqrt(g0, g1, A)
    if B == 0 or h0 == h1 == 0:
        return sG
    sH = sign_with_sqrt(h0, h1, A)
    if sH == 0:
        return sG
    if sG == 0:
        return sH
    if sG == sH:
        return sG
    # opposite signs: compare G^2 with H^2 B inside Q(sqrt A)
    k0 = g0 * g0 + g1 * g1 * A - (h0 * h0 + h1 * h1 * A) * B
    k1 = 2 * g0 * g1 - 2 * h0 * h1 * B
    sK = sign_with_sqrt(k0, k1, A)
    if sK == 0:
        return 0
    return sG if sK > 0 else sH


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
# the triangle R and the closed form

@dataclass(frozen=True)
class TriangleR:
    """Region of slopes covered by the construction, vertices P2, P3, P4.

    Two sides are rational (y = ell x through P3, P4 and y = -k x + 1 through
    P2, P4); the third joins P2 and P3 with quadratic-irrational coordinates,
    so membership of a rational point is a biquadratic sign test.
    """

    e: int
    ell: int

    def __post_init__(self):
        _family(self.e, self.ell)

    @property
    def k(self) -> int:
        return _family(self.e, self.ell)[0]

    def _side_p2p3_sign(self, x0: Fraction, y0: Fraction) -> int:
        # Orientation sign of nu against the line P2 P3, cleared of the
        # denominators (1+u)(w-1) > 0 where u = psi_N, w = psi_M:
        #   D = A + B u + C w + D uw  with the coefficients below.
        k, n, mm = _family(self.e, self.ell)
        ell = self.ell
        ca = y0 - (ell + 1) * x0 - 1
        cb = 2 * y0 + (k - 1) * (1 + x0) + ell * (1 - x0)
        cc = x0
        cd = -(y0 + (k - 1) * x0)
        # substitute u = (n + sqrt(n^2-4))/2, w = (mm + sqrt(mm^2-4))/2
        alpha = ca + Fraction(cb * n, 2) + Fraction(cc * mm, 2) + Fraction(cd * n * mm, 4)
        beta = Fraction(cb, 2) + Fraction(cd * mm, 4)
        gamma = Fraction(cc, 2) + Fraction(cd * n, 4)
        delta = Fraction(cd, 4)
        return _sign_biquadratic(alpha, beta, gamma, delta, n * n - 4, mm * mm - 4)

    def contains(self, nu: DivisorClass, closed: bool = False) -> bool:
        x0, y0 = Fraction(nu.a), Fraction(nu.b)
        t1 = y0 - self.ell * x0
        t2 = y0 + self.k * x0 - 1
        side = self._side_p2p3_sign(x0, y0)
        p4 = DivisorClass(Fraction(1, self.k + self.ell), Fraction(self.ell, self.k + self.ell))
        ref = self._side_p2p3_sign(p4.a, p4.b)
        if ref == 0:
            raise InternalError("P4 lies on the line P2P3 of %r" % (self,))
        if closed:
            return t1 <= 0 and t2 <= 0 and (side == 0 or side == ref)
        return t1 < 0 and t2 < 0 and side == ref


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

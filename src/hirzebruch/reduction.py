"""Transport of decision problems from F_e (e >= 2) down to F_0 / F_1.

The lattice map

    pi: (r, aE + bF, ch2)  |->  (r, aE' + (b-a)F', ch2)

from K(F_e) to K(F_{e-2}) preserves rank, ch2, the intersection pairing of
first Chern classes, discriminants and Euler characteristics, and matches
the polarizations so that the H_m-problem on F_e becomes the H_{m+1}-problem
on F_{e-2}.  Iterating lands on F_0 or F_1 where the exceptional-bundle
machinery lives.  Generic stability intervals pull back by
(m0, m1) -> (0, m1 - 1) per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .lattice import ChernCharacter, DivisorClass, Rat, check_count, check_polarization, check_surface
from .existence import DecisionCertificate, HNDecomposition, _read, moduli_nonempty


@dataclass(frozen=True)
class ReductionTrace:
    steps: Tuple[Tuple[int, int, Fraction, Fraction], ...]  # (e_from, e_to, m_from, m_to)
    final_character: ChernCharacter


def pi_map(v: ChernCharacter, direction: str = "down") -> ChernCharacter:
    """One step of the reduction map (down: e -> e-2) or its inverse (up)."""
    a, b = v.c1.a, v.c1.b
    if direction == "down":
        return ChernCharacter(v.r, DivisorClass(a, b - a), v.ch2)
    if direction == "up":
        return ChernCharacter(v.r, DivisorClass(a, b + a), v.ch2)
    raise ValueError("direction must be 'down' or 'up'")


def reduce_character(v: ChernCharacter, e: int, m: Rat) -> Tuple[ChernCharacter, int, Fraction, ReductionTrace]:
    """Apply pi until e in {0, 1}; polarization parameter gains 1 per step."""
    check_surface(e)
    m = check_polarization(m)
    steps: List[Tuple[int, int, Fraction, Fraction]] = []
    w = v
    while e >= 2:
        w = pi_map(w, "down")
        steps.append((e, e - 2, m, m + 1))
        e, m = e - 2, m + 1
    return w, e, m, ReductionTrace(tuple(steps), w)


def reduce_decision(v: ChernCharacter, e: int, m: Rat) -> Tuple[DecisionCertificate, ReductionTrace]:
    """Decide moduli nonemptiness on F_e through the del Pezzo reduction.

    The certificate's filtration factors are pulled back through pi^{-1} so
    they decompose v itself; verdicts transport exactly.
    """
    m = _read(v, m, e)[0]   # on v itself, so a refusal names v; pi keeps integrality
    w, e_red, m_red, trace = reduce_character(v, e, m)
    cert = moduli_nonempty(w, m_red, e_red)
    if cert.hn is None:
        return cert, trace
    factors = cert.hn.factors
    for _ in trace.steps:
        factors = tuple(pi_map(f, "up") for f in factors)
    hn = HNDecomposition(factors, m, e)
    return DecisionCertificate(cert.verdict, hn, cert.wall), trace


def interval_transport(
    interval: Optional[Tuple[Fraction, Optional[Fraction]]],
    steps: int = 1,
) -> Optional[Tuple[Fraction, Optional[Fraction]]]:
    """Generic stability interval (m0, m1) on F_{e-2k} pulled up to F_e.

    Each step sends (m0, m1) to (0, m1 - 1), so k >= 1 steps give
    (0, m1 - k), empty when m1 - k <= 0; None encodes the empty interval
    (and None as right endpoint encodes +infinity).
    """
    check_count(steps, "steps")
    if steps == 0 or interval is None:
        return interval
    hi = interval[1]
    if hi is None:
        return Fraction(0), None
    return (Fraction(0), hi - steps) if hi - steps > 0 else None

import random
from fractions import Fraction

import pytest

from hirzebruch import ChernCharacter, DivisorClass, build_table


@pytest.fixture(scope="session")
def table0():
    return build_table(0, 19)


@pytest.fixture(scope="session")
def table1():
    return build_table(1, 20)


@pytest.fixture(scope="session")
def wide_tables():
    """F_0 up to rank 39 and F_1 up to rank 40."""
    return build_table(0, 39), build_table(1, 40)


def random_integral_character(rng: random.Random, e: int, rmax=5, coeff=5, extra=None):
    """Integral character with Delta >= 0 (roughly Delta <= 3)."""
    r = rng.randint(1, rmax)
    a = rng.randint(-coeff, coeff)
    b = rng.randint(-coeff, coeff)
    c1sq = 2 * a * b - e * a * a
    # Delta = c2/r - c1^2 (r-1)/(2 r^2) >= 0
    lo = -((-(c1sq * (r - 1))) // (2 * r))  # ceil(c1sq (r-1) / (2r))
    c2 = lo + rng.randint(0, 3 * r - 1 if extra is None else extra)
    return ChernCharacter(r, DivisorClass(a, b), Fraction(c1sq, 2) - c2)


def random_slope(rng: random.Random, den_max=4, num_span=8):
    da = rng.randint(1, den_max)
    db = rng.randint(1, den_max)
    return DivisorClass(
        Fraction(rng.randint(-num_span, num_span), da),
        Fraction(rng.randint(-num_span, num_span), db),
    )


def fraction_end(pair):
    """A slope class end (p, q) as the Fraction p/q, None for +inf = (1, 0)."""
    p, q = pair
    return None if q == 0 else Fraction(p, q)


def random_m(rng: random.Random):
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))

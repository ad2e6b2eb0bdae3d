"""Shared fixtures and deterministic sample generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from umla.cyclo import CycloScalar
from umla.fields import LaurentPoly, LocalField, make_field

FIELDS = {
    "Q2": make_field("p-adic", 2),
    "Q3": make_field("p-adic", 3),
    "Q5": make_field("p-adic", 5),
    "F3t": make_field("equal-characteristic", 3),
}

# the fields of the cell-enumeration property tests: Q_2, Q_3, Q_5, F_2((t)), F_3((t))
CELL_FIELDS = [
    make_field(kind, p)
    for kind, p in [("p-adic", 2), ("p-adic", 3), ("p-adic", 5)]
    + [("equal-characteristic", 2), ("equal-characteristic", 3)]
]


@pytest.fixture(params=sorted(FIELDS))
def field(request) -> LocalField:
    return FIELDS[request.param]


def rng_for(name: str) -> random.Random:
    return random.Random(f"umla:{name}")


def sample_element(field: LocalField, rng: random.Random, lo: int = -3, hi: int = 4):
    """Random element with digits in exponent range [lo, hi); may be zero."""
    if field.kind == "p-adic":
        x = Fraction(0)
        for e in range(lo, hi):
            x += rng.randrange(field.p) * Fraction(field.p) ** e
        return x
    return LaurentPoly(field.p, [(e, rng.randrange(field.p)) for e in range(lo, hi)])


def sample_nonzero(field: LocalField, rng: random.Random, lo: int = -3, hi: int = 4):
    while True:
        x = sample_element(field, rng, lo, hi)
        if not field.is_zero(x):
            return x


def sample_scalar(p: int, rng: random.Random) -> CycloScalar:
    terms = []
    for _ in range(rng.randrange(4)):
        e2 = rng.randrange(-4, 5)
        k = rng.randrange(3)
        ang = Fraction(rng.randrange(p**k), p**k)
        coef = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        terms.append((e2, ang, coef))
    return CycloScalar(p, terms)

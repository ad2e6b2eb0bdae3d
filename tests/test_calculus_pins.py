"""Pinned outputs of the distribution calculus.

Each operation runs on seeded ``random_dist`` inputs over every field
fixture; the sha256 of the JSON of all its results is frozen.  The pins
guard the exact term order and canonical form of the outputs, not only
their value as distributions.  An input on which the operation raises one
of its documented errors contributes the error's class name instead.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import FIELDS, rng_for, sample_element
from test_distribution import random_dist
from test_schwartz import random_sb
from umla.distribution import ConvolutionDivergence
from umla.microlocal import (
    AffineMap,
    NfIntersectsWF,
    NotProperOnSupport,
    UnsupportedMap,
    WFCollision,
    product_dist,
    pullback,
    pushforward,
)

ROUNDS = 8
DOCUMENTED = (
    ConvolutionDivergence,
    NfIntersectsWF,
    NotProperOnSupport,
    UnsupportedMap,
    WFCollision,
)


def _scale(f, rng):
    """A digit times a power of the uniformizer: invertible over every field."""
    digit = f.from_int(rng.randrange(1, f.p))
    return f.mul(digit, f.pow_uniformizer(rng.randrange(-1, 2)))


def _monomial(f, rng):
    """A coordinate swap with random scales and shift on K^2."""
    s1, s2 = _scale(f, rng), _scale(f, rng)
    zero = f.zero()
    shift = (sample_element(f, rng, -1, 2), sample_element(f, rng, -1, 2))
    return AffineMap(f, ((zero, s1), (s2, zero)), shift)


def _projection(f, rng):
    """K^2 -> K^1 keeping one coordinate, plus a shift."""
    one, zero = f.one(), f.zero()
    row = (one, zero) if rng.random() < 0.5 else (zero, one)
    return AffineMap(f, (row,), (sample_element(f, rng, -1, 2),))


def _inclusion(f, rng):
    """K^1 -> K^2 placing the input in one coordinate, plus a shift."""
    one, zero = f.one(), f.zero()
    rows = ((one,), (zero,)) if rng.random() < 0.5 else ((zero,), (one,))
    shift = (sample_element(f, rng, -1, 2), sample_element(f, rng, -1, 2))
    return AffineMap(f, rows, shift)


def _constant(f, rng):
    """K^1 -> K^1 with zero matrix."""
    return AffineMap(f, ((f.zero(),),), (sample_element(f, rng, -1, 2),))


def _vector(f, rng, n):
    return tuple(sample_element(f, rng, -1, 2) for _ in range(n))


# op name -> fn(field, rng) returning a distribution or a scalar
OPS = {
    "fourier_dist": lambda f, rng: random_dist(f, rng, n=2).fourier_dist(),
    "mul_by_sb": lambda f, rng: random_dist(f, rng, n=2).mul_by_sb(
        random_sb(f, rng, n=2)
    ),
    "convolve_dist": lambda f, rng: random_dist(f, rng, n=2).convolve_dist(
        random_dist(f, rng, n=2)
    ),
    "translate": lambda f, rng: random_dist(f, rng, n=2).translate(_vector(f, rng, 2)),
    "reflect": lambda f, rng: random_dist(f, rng, n=2).reflect(),
    "evaluate": lambda f, rng: random_dist(f, rng, n=2).evaluate(
        random_sb(f, rng, n=2)
    ),
    "product_dist": lambda f, rng: product_dist(
        random_dist(f, rng, n=2), random_dist(f, rng, n=2)
    ),
    "pullback_monomial": lambda f, rng: pullback(
        _monomial(f, rng), random_dist(f, rng, n=2)
    ),
    "pullback_projection": lambda f, rng: pullback(
        _projection(f, rng), random_dist(f, rng, n=1)
    ),
    "pullback_inclusion": lambda f, rng: pullback(
        _inclusion(f, rng), random_dist(f, rng, n=2)
    ),
    "pullback_constant": lambda f, rng: pullback(
        _constant(f, rng), random_dist(f, rng, n=1)
    ),
    "pushforward_monomial": lambda f, rng: pushforward(
        _monomial(f, rng), random_dist(f, rng, n=2)
    ),
    "pushforward_projection": lambda f, rng: pushforward(
        _projection(f, rng), random_dist(f, rng, n=2)
    ),
    "pushforward_inclusion": lambda f, rng: pushforward(
        _inclusion(f, rng), random_dist(f, rng, n=1)
    ),
    "pushforward_constant": lambda f, rng: pushforward(
        _constant(f, rng), random_dist(f, rng, n=1)
    ),
}

PINS = {
    'convolve_dist': '18bb0d87a54c6c0641aae33b60952822dca7a40a274a0e3a6291ec44d6bc3567',
    'evaluate': 'dc87e70c9e64c606563566f7bc3341a8b5e5a19c00adb1add8510e52f12154fe',
    'fourier_dist': '53e2bea42013044c675d8b265f7c52b44ff12e301ce50c38c83ea1fab692c43a',
    'mul_by_sb': '1800815437632062ed308c7970dd6e0a0ddc3390f51c57a4ab87752112350254',
    'product_dist': '263e1cf04450806a69b1cbc29c9da9856388f30728b9bab1248121cb5e7604e7',
    'pullback_constant': 'fe2bc4bd42a7bffa4be65e0120ea80978f79cdee5ec94d6e43b00994ff0bd358',
    'pullback_inclusion': '883630941de571c50d95ee58f173be078286d564b2b5776bdbed85aa2f5c89d6',
    'pullback_monomial': '066fe05f90afa601a6e567cb45bdfc96e364e8263e182ef43cc04dd2a1a7ec83',
    'pullback_projection': 'f0c8ccfb34c87a2700fcdb3641d2a9915618b9e21ccdfce58a3a9e57ee5a3489',
    'pushforward_constant': '8555bc04e403b7a46736e0ae0688c44391479f7612d59fe8bb648ee7a9dc835b',
    'pushforward_inclusion': 'c5d9e46583cd3fa6b9b371e4546c8d0dc0b936c6063a5e8dfe171f1633f9b8c6',
    'pushforward_monomial': '4bed845dba350ab462b67f7faed15c7e463c60970993596ee04ae3fcf79bc11a',
    'pushforward_projection': 'efde879afe585e9acca7e9aa4e8750162078f93e8b0e55f335fced5e55ecbf33',
    'reflect': '028022ff14441588d7454810912ff329115eec7143851cd858bdd76fb2fe59d8',
    'translate': 'ffd6571c2e5ba4dba03e9da53685e0debbc87abf4f7cd2b8cc01f8a0e1703a56',
}


def _digest(op: str) -> str:
    results = []
    for name in sorted(FIELDS):
        f = FIELDS[name]
        rng = rng_for(f"calculus-pin:{op}:{name}")
        for _ in range(ROUNDS):
            try:
                out = OPS[op](f, rng)
            except DOCUMENTED as exc:
                results.append({"raises": type(exc).__name__})
                continue
            results.append(out.to_json())
    blob = json.dumps(results, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("op", sorted(OPS))
def test_calculus_output_is_pinned(op):
    assert _digest(op) == PINS[op]

"""Exact-scalar arithmetic: canonical reduction, ring laws, zero test."""

import copy
import json
import pickle
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rng_for, sample_scalar
from oracles import canonical_terms

from umla.cyclo import CycloScalar


def test_full_orbit_of_cube_roots_vanishes():
    z = CycloScalar.root(3, Fraction(0))
    z += CycloScalar.root(3, Fraction(1, 3))
    z += CycloScalar.root(3, Fraction(2, 3))
    assert z.is_zero()


def test_half_q_powers_multiply_to_q():
    half = CycloScalar.q_pow(5, 1)
    assert (half * half) == CycloScalar.fraction(5, 5)
    assert (half * half).as_fraction() == 5


def test_fourth_root_squares_to_minus_one_at_p2():
    i = CycloScalar.root(2, Fraction(1, 4))
    assert i * i == CycloScalar.fraction(2, -1)


@pytest.mark.parametrize(
    "a",
    [
        CycloScalar.zero(3),
        CycloScalar(3, [(1, Fraction(1, 9), Fraction(2, 3)), (1, 0, -1), (0, 0, 5)]),
    ],
    ids=["zero", "sqrt-q-slice"],
)
def test_multiplying_by_one_returns_the_other_factor(a):
    one = CycloScalar.one(3)
    for product in (a * one, one * a):
        assert product == a
        assert hash(product) == hash(a)
        assert product.ints == CycloScalar(3, a.raw()).ints
    assert one * one == one
    # the residue cardinalities are checked before the shortcut
    with pytest.raises(ValueError):
        a * CycloScalar.one(5)
    with pytest.raises(ValueError):
        CycloScalar.one(5) * a


def test_ninth_roots_reduce_against_cube_roots():
    # zeta_9^3 = zeta_3; the canonical form must identify them.
    z9cubed = CycloScalar.root(3, Fraction(3, 9))
    z3 = CycloScalar.root(3, Fraction(1, 3))
    assert z9cubed == z3
    # sum over j of zeta_9^(j*3) = 0
    total = CycloScalar.zero(3)
    for j in range(3):
        total += CycloScalar.root(3, Fraction(3 * j, 9))
    assert total.is_zero()


def test_canonical_form_preserves_value():
    rng = rng_for("cyclo-approx")
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        raw = []
        for _ in range(rng.randrange(1, 6)):
            k = rng.randrange(3)
            raw.append(
                (
                    rng.randrange(-4, 5),
                    Fraction(rng.randrange(p**k), p**k),
                    Fraction(rng.randrange(-4, 5)),
                )
            )
        direct = 0j
        for e2, a, c in raw:
            import cmath

            direct += float(c) * p ** (e2 / 2) * cmath.exp(2j * cmath.pi * float(a))
        z = CycloScalar(p, raw)
        assert abs(z.approx() - direct) < 1e-9


def test_ring_laws_random():
    rng = rng_for("cyclo-ring")
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        a, b, c = (sample_scalar(p, rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a - a == CycloScalar.zero(p)
        assert (a.conj() * b.conj()) == (a * b).conj()


def test_zero_test_on_rotated_orbits():
    # Rotations of a full p^k-power orbit (k = 1, 2) by any root of unity
    # still vanish, also when the whole orbit sits in the sqrt(q) slice (odd
    # q-shift).
    rng = rng_for("cyclo-orbits")
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        k = rng.randrange(1, 3)
        shift = Fraction(rng.randrange(p**2), p**2)
        coef = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
        e2 = rng.randrange(-2, 3)
        total = CycloScalar.zero(p)
        for j in range(p**k):
            total += CycloScalar.root(p, shift + Fraction(j, p**k), coef).q_shift(e2)
        assert total.is_zero()


def test_rationality_checks():
    z = CycloScalar.q_pow(3, -4)  # q^-2
    assert z.is_rational() and z.as_fraction() == Fraction(1, 9)
    w = CycloScalar.q_pow(3, 1)
    assert not w.is_rational()
    r = CycloScalar.root(3, Fraction(1, 3))
    assert not r.is_rational()


def test_monomial_inverse():
    z = CycloScalar(2, [(3, Fraction(1, 4), Fraction(5, 7))])
    assert z * z.inverse() == CycloScalar.one(2)


# -- canonicalisation against the Fraction-only reference ------------------------

@st.composite
def _raw_triples(draw, p=None):
    """(p, raw): q-exponents on both slices, unreduced angles, mixed coefficients.

    Angles have denominators p^0 .. p^3 and numerators outside [0, p^k),
    negative ones included; an angle of denominator 1 is sometimes a bare
    int.  Coefficients are ints, Fractions and zeros.
    """
    p = p or draw(st.sampled_from([2, 3, 5]))
    raw = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, 3))
        num = draw(st.integers(-2 * p**k, 2 * p**k))
        ang = num if k == 0 and draw(st.booleans()) else Fraction(num, p**k)
        coef = draw(
            st.one_of(
                st.just(0),
                st.just(Fraction(0)),
                st.integers(-6, 6),
                st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)),
            )
        )
        raw.append((draw(st.integers(-5, 5)), ang, coef))
    # repeat some triples so that like angles merge and orbits can cancel
    repeats = st.lists(st.sampled_from(raw), max_size=4) if raw else st.just([])
    return p, raw + draw(repeats)


# a full 27th-root orbit that cancels beside a level-9 term: K must shrink to 2
_SHRINK = (
    3,
    [(0, Fraction(1, 27) + Fraction(j, 3), 2) for j in range(3)] + [(0, Fraction(1, 9), 1)],
)
# coefficients over 6 whose sum is over 2 (rational slice) and over 1 (sqrt(q) slice)
_CANCEL = (2, [(0, Fraction(1, 4), Fraction(1, 6)), (0, Fraction(1, 4), Fraction(1, 3)),
               (1, 0, Fraction(5, 6)), (1, 0, Fraction(1, 6))])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    _raw_triples(),
    st.integers(-3, 3),
    st.integers(0, 3),
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)),
    st.booleans(),
)
@example(_SHRINK, 1, 2, 1, Fraction(3, 2), False)
@example(_SHRINK, 0, 0, 0, Fraction(1), False)
@example(_CANCEL, -1, 3, 5, Fraction(6), True)
def test_canonical_matches_fraction_reference(case, e2, k, num, c, negate):
    """One value built four ways: one raw constructor, ``sum`` of the
    singletons, a left fold of ``+``, and ``rotate``/``q_shift``/``times``
    undone by their inverses; all agree with the Fraction-only reference."""
    p, raw = case
    direct = CycloScalar(p, raw)
    singles = [CycloScalar(p, [t]) for t in raw]
    angle, c = Fraction(num, p**k), -c if negate else c
    moved = direct.rotate(angle).q_shift(e2).times(c)
    built = [
        direct,
        CycloScalar.sum(p, singles),
        reduce(lambda a, b: a + b, singles, CycloScalar.zero(p)),
        moved.times(1 / c).q_shift(-e2).rotate(-angle),
    ]
    want = canonical_terms(p, raw)
    for s in built:
        assert s == direct and hash(s) == hash(direct)
        assert s.terms == want
        for e2, ang, coef in s.terms:
            assert type(e2) is int and e2 in (0, 1)
            assert type(ang) is Fraction and 0 <= ang < 1
            assert type(coef) is Fraction and coef != 0


# -- the text the benchmark digest hashes -------------------------------------

# (p, raw, json.dumps(to_json(), sort_keys=True), repr): both slices, angle
# denominators up to p^4, a cancelling top level (the 81st roots), negative
# and non-integral coefficients, a negative odd q-exponent, and zero
_PINNED = [
    (2, [], '[]', '0'),
    (2, [(0, 0, Fraction(-7, 3))], '[{"angle": "0", "coef": "-7/3", "qpow": 0}]', '-7/3'),
    (
        2,
        [(1, Fraction(3, 16), Fraction(5, 2))],
        '[{"angle": "3/16", "coef": "5/2", "qpow": 1}]',
        '5/2*q^(1/2)*e(3/16)',
    ),
    (
        2,
        [(-3, Fraction(1, 8), 1), (0, Fraction(5, 16), Fraction(-1, 4))],
        '[{"angle": "5/16", "coef": "-1/4", "qpow": 0}, {"angle": "1/8", "coef": "1/4", "qpow": 1}]',
        '-1/4*e(5/16) + 1/4*q^(1/2)*e(1/8)',
    ),
    (
        2,
        [(1, Fraction(1, 2), 3), (0, Fraction(1, 4), Fraction(2, 3))],
        '[{"angle": "1/4", "coef": "2/3", "qpow": 0}, {"angle": "0", "coef": "-3", "qpow": 1}]',
        '2/3*e(1/4) + -3*q^(1/2)',
    ),
    (
        3,
        [(0, Fraction(1, 3), 1), (0, Fraction(2, 3), 1)],
        '[{"angle": "0", "coef": "-1", "qpow": 0}]',
        '-1',
    ),
    (
        3,
        [(0, Fraction(1, 81), 2), (0, Fraction(28, 81), 2), (0, Fraction(55, 81), 2),
         (0, Fraction(4, 27), Fraction(1, 2))],
        '[{"angle": "4/27", "coef": "1/2", "qpow": 0}]',
        '1/2*e(4/27)',
    ),
    (
        3,
        [(1, Fraction(7, 9), Fraction(-3, 4)), (2, Fraction(2, 27), 1),
         (-1, Fraction(26, 27), Fraction(1, 5))],
        '[{"angle": "2/27", "coef": "3", "qpow": 0}, {"angle": "1/9", "coef": "3/4", "qpow": 1}, '
        '{"angle": "8/27", "coef": "-1/15", "qpow": 1}, {"angle": "4/9", "coef": "3/4", "qpow": 1}, '
        '{"angle": "17/27", "coef": "-1/15", "qpow": 1}]',
        '3*e(2/27) + 3/4*q^(1/2)*e(1/9) + -1/15*q^(1/2)*e(8/27) + 3/4*q^(1/2)*e(4/9) '
        '+ -1/15*q^(1/2)*e(17/27)',
    ),
    (
        3,
        [(4, Fraction(1, 9), Fraction(-1, 6)), (0, Fraction(8, 9), 2)],
        '[{"angle": "1/9", "coef": "-3/2", "qpow": 0}, {"angle": "2/9", "coef": "-2", "qpow": 0}, '
        '{"angle": "5/9", "coef": "-2", "qpow": 0}]',
        '-3/2*e(1/9) + -2*e(2/9) + -2*e(5/9)',
    ),
    (
        5,
        [(0, Fraction(4, 5), 1)],
        '[{"angle": "0", "coef": "-1", "qpow": 0}, {"angle": "1/5", "coef": "-1", "qpow": 0}, '
        '{"angle": "2/5", "coef": "-1", "qpow": 0}, {"angle": "3/5", "coef": "-1", "qpow": 0}]',
        '-1 + -1*e(1/5) + -1*e(2/5) + -1*e(3/5)',
    ),
    (
        5,
        [(1, Fraction(13, 625), Fraction(-2, 7)), (0, Fraction(3, 25), 6)],
        '[{"angle": "3/25", "coef": "6", "qpow": 0}, {"angle": "13/625", "coef": "-2/7", "qpow": 1}]',
        '6*e(3/25) + -2/7*q^(1/2)*e(13/625)',
    ),
    (
        5,
        [(-5, Fraction(1, 125), Fraction(9, 4)), (-5, 0, Fraction(1, 3))],
        '[{"angle": "0", "coef": "1/375", "qpow": 1}, {"angle": "1/125", "coef": "9/500", "qpow": 1}]',
        '1/375*q^(1/2) + 9/500*q^(1/2)*e(1/125)',
    ),
]


@pytest.mark.parametrize("p, raw, text, shown", _PINNED)
def test_json_and_repr_text_is_pinned(p, raw, text, shown):
    s = CycloScalar(p, raw)
    assert json.dumps(s.to_json(), sort_keys=True) == text
    assert repr(s) == shown


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_raw_triples())
def test_json_round_trip_keeps_value_and_hash(case):
    p, raw = case
    s = CycloScalar(p, raw)
    back = CycloScalar.from_json(p, json.loads(json.dumps(s.to_json())))
    assert back == s and hash(back) == hash(s)


@pytest.mark.parametrize("text", ["1/-2", "-1/-2", "1/0", "0.5", "1/2/3"])
def test_from_json_rejects_malformed_rationals(text):
    with pytest.raises(ValueError):
        CycloScalar.from_json(2, [{"qpow": 0, "angle": "0", "coef": text}])
    with pytest.raises(ValueError):
        CycloScalar.from_json(2, [{"qpow": 0, "angle": text, "coef": "1"}])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_raw_triples())
def test_copy_and_pickle_keep_value_and_hash(case):
    s = CycloScalar(*case)
    for back in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert back == s and hash(back) == hash(s) and back.terms == s.terms


def test_non_p_power_angles_raise():
    with pytest.raises(ValueError):
        CycloScalar.root(3, Fraction(1, 2))
    with pytest.raises(ValueError):
        CycloScalar.root(3, Fraction(1, 6))
    # the largest denominator is a power of 3, another is not
    with pytest.raises(ValueError):
        CycloScalar(3, [(0, Fraction(1, 9), 1), (0, Fraction(1, 6), 1)])
    # also in the sqrt(q) slice, and when the offending terms cancel
    with pytest.raises(ValueError):
        CycloScalar(5, [(1, Fraction(1, 10), 1)])
    with pytest.raises(ValueError):
        CycloScalar(2, [(0, Fraction(1, 3), 1), (0, Fraction(1, 3), -1)])
    # a zero coefficient drops its triple before its angle is looked at
    assert CycloScalar(3, [(0, Fraction(1, 2), 0)]).is_zero()


@st.composite
def _scalar_pairs(draw):
    """(a, b): equal values built from different raw triples, or unequal ones."""
    p, raw = draw(_raw_triples())
    a = CycloScalar(p, raw)
    kind = draw(st.sampled_from(["rebuilt", "shifted", "random"]))
    if kind == "rebuilt":
        # the same value: permuted triples, split coefficients, a full orbit
        k = draw(st.integers(1, 3))
        f2 = draw(st.integers(-3, 3))
        orbit = [(f2, Fraction(j, p**k), 2) for j in range(p**k)]
        split = [(e2, ang, Fraction(c, 2)) for e2, ang, c in raw for _ in range(2)]
        b = CycloScalar(p, draw(st.permutations(split + orbit)))
    elif kind == "shifted":
        # differ by a nonzero scalar in one slice only (odd e2: sqrt(q) slice)
        e2 = draw(st.integers(-3, 3))
        ang = Fraction(draw(st.integers(0, p**2 - 1)), p**2)
        b = a + CycloScalar.root(p, ang, draw(st.integers(1, 4))).q_shift(e2)
    else:
        b = CycloScalar(*draw(_raw_triples(p)))
    return draw(st.permutations([a, b]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_scalar_pairs())
def test_equality_is_the_zero_test_of_the_difference(pair):
    a, b = pair
    assert (a - b).is_zero() == (a == b)
    if a == b:
        assert hash(a) == hash(b)


# -- the accumulator: CycloScalar.sum against the left fold of + --------------

@st.composite
def _term_lists(draw):
    """(p, scalars): mixed p-power orders, sqrt(q) slices and full orbits."""
    p = draw(st.sampled_from([2, 3, 5]))

    def monomial():
        k = draw(st.integers(0, 3))
        return CycloScalar(
            p,
            [
                (
                    draw(st.integers(-3, 3)),
                    Fraction(draw(st.integers(0, p**k - 1)), p**k),
                    Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
                )
            ],
        )

    def orbit():
        # sum_{j<p} zeta_p^j * zeta_{p^k}^shift * c * q^(e2/2) = 0, term by term
        k = draw(st.integers(1, 3))
        shift = Fraction(draw(st.integers(0, p**k - 1)), p**k)
        e2 = draw(st.integers(-3, 3))
        c = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
        return [
            CycloScalar(p, [(e2, shift + Fraction(j, p), c)]) for j in range(p)
        ]

    scalars = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            scalars.extend(orbit())
        else:
            scalars.append(monomial())
    return p, draw(st.permutations(scalars))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_term_lists())
def test_sum_equals_left_fold_of_plus(case):
    p, scalars = case
    folded = reduce(lambda a, b: a + b, scalars, CycloScalar.zero(p))
    got = CycloScalar.sum(p, scalars)
    assert got == folded
    assert got.terms == folded.terms
    # the same scalars twice, minus themselves, cancel exactly
    assert CycloScalar.sum(p, scalars + [-s for s in scalars]).is_zero()


def test_sum_of_full_orbits_is_exact_zero():
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            shift = Fraction(1, p**k)
            orbit = [CycloScalar.root(p, shift + Fraction(j, p)) for j in range(p)]
            assert CycloScalar.sum(p, orbit).is_zero()
            half = [s.q_shift(1) for s in orbit]  # the sqrt(q) slice
            assert CycloScalar.sum(p, half) == CycloScalar.zero(p)


def test_sum_accepts_any_iterable():
    gen = (CycloScalar.root(3, Fraction(j, 9)) for j in range(9))
    assert CycloScalar.sum(3, gen).is_zero()


def test_empty_sum_is_zero():
    for p in (2, 3, 5):
        assert CycloScalar.sum(p, []) == CycloScalar.zero(p)
        assert CycloScalar.sum(p, iter(())) == CycloScalar.zero(p)


def test_sum_rejects_mixed_residue_cardinalities():
    with pytest.raises(ValueError):
        CycloScalar.sum(3, [CycloScalar.one(3), CycloScalar.one(5)])
    with pytest.raises(ValueError):
        CycloScalar.sum(2, [CycloScalar.one(3)])

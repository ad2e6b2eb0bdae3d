"""Field arithmetic, valuation, angular component, character, balls."""

from fractions import Fraction

import pytest
from conftest import CELL_FIELDS, FIELDS, rng_for, sample_element, sample_nonzero
from hypothesis import given, settings, strategies as st
from oracles import (
    ac_by_digits,
    cell_reps_by_field_ops,
    children_by_field_ops,
    digits,
    psi_by_digits,
)

from umla.cyclo import CycloScalar
from umla.fields import (
    INF,
    FieldError,
    LaurentPoly,
    Polyball,
    make_field,
    parse_field_spec,
)

Q2, Q3, Q5, F3 = FIELDS["Q2"], FIELDS["Q3"], FIELDS["Q5"], FIELDS["F3t"]


def test_ord_examples():
    assert Q2.ord(Fraction(12)) == 2
    assert Q3.ord(Fraction(9, 2)) == 2
    assert Q3.ord(Fraction(2, 9)) == -2
    assert Q2.ord(Fraction(0)) == INF
    x = LaurentPoly(3, [(-2, 1), (1, 2)])
    assert F3.ord(x) == -2
    assert F3.ord(F3.zero()) == INF


def test_ac_examples():
    assert Q2.ac(Fraction(12), 2) == 3  # 12 = 4*3, 3 mod 4
    assert Q3.ac(Fraction(9), 1) == 1
    assert Q3.ac(Fraction(-1), 1) == 2
    with pytest.raises(FieldError):
        Q2.ac(Fraction(0), 1)
    x = LaurentPoly(3, [(-2, 1), (1, 2)])  # unit part 1 + 2 t^3
    assert F3.ac(x, 1) == 1
    assert F3.ac(x, 4) == 1 + 2 * 27


def test_ac_matches_digit_oracle():
    rng = rng_for("ac-oracle")
    for name, field in FIELDS.items():
        for _ in range(200):
            x = sample_nonzero(field, rng)
            m = rng.randrange(1, 4)
            assert field.ac(x, m) == ac_by_digits(field, x, m), (name, x, m)


def test_ac_multiplicative():
    rng = rng_for("ac-mult")
    for field in FIELDS.values():
        for _ in range(200):
            x, y = sample_nonzero(field, rng), sample_nonzero(field, rng)
            m = rng.randrange(1, 4)
            assert field.ac(field.mul(x, y), m) == field.residue_mul(
                field.ac(x, m), field.ac(y, m), m
            )


def test_psi_examples():
    # Q_2: psi(1) = -1 (primitive square root), psi(1/2) = i.
    assert Q2.psi(Fraction(1)) == CycloScalar.fraction(2, -1)
    assert Q2.psi(Fraction(1, 2)) == CycloScalar.root(2, Fraction(1, 4))
    assert Q2.psi_angle(Fraction(1, 2)) == Fraction(1, 4)
    # trivial on the maximal ideal
    assert Q2.psi_angle(Fraction(2)) == 0
    assert Q3.psi_angle(Fraction(3)) == 0
    # Q_3: psi(1) is a primitive cube root
    assert Q3.psi_angle(Fraction(1)) == Fraction(1, 3)
    # F_3((t)): constant-coefficient rule
    assert F3.psi_angle(F3.from_int(2)) == Fraction(2, 3)
    assert F3.psi_angle(LaurentPoly(3, [(-1, 1)])) == 0
    assert F3.psi_angle(LaurentPoly(3, [(1, 2)])) == 0


def test_psi_matches_digit_oracle():
    rng = rng_for("psi-oracle")
    for field in FIELDS.values():
        for _ in range(300):
            x = sample_element(field, rng)
            assert field.psi_angle(x) == psi_by_digits(field, x)


def test_ultrametric_inequality_bulk():
    rng = rng_for("ultrametric")
    for field in FIELDS.values():
        for _ in range(2500):
            x, y = sample_element(field, rng), sample_element(field, rng)
            ox, oy = field.ord(x), field.ord(y)
            os = field.ord(field.add(x, y))
            assert os >= min(ox, oy)
            if ox != oy:
                assert os == min(ox, oy)


def test_psi_additive_bulk():
    rng = rng_for("psi-add")
    for field in FIELDS.values():
        for _ in range(2500):
            x, y = sample_element(field, rng), sample_element(field, rng)
            assert field.psi_angle(field.add(x, y)) == (
                field.psi_angle(x) + field.psi_angle(y)
            ) % 1


def test_psi_root_of_unity_order():
    rng = rng_for("psi-order")
    for field in FIELDS.values():
        for _ in range(300):
            x = sample_nonzero(field, rng)
            v = field.ord(x)
            ang = field.psi_angle(x)
            if v >= 1:
                assert ang == 0
            else:
                assert (ang * field.p ** (1 - v)) % 1 == 0


def test_canon_trunc_properties():
    rng = rng_for("trunc")
    cases = [
        (field, sample_element(field, rng), rng.randrange(-3, 5))
        for field in FIELDS.values()
        for _ in range(300)
    ]
    # integral inputs, whose truncation at r >= 0 is a residue mod p^r:
    # negative integers, r = 0, and r above and below the valuation
    integral = [
        (field, Fraction(n), r)
        for field in (Q2, Q3, Q5)
        for n in (0, 1, -1, 6, -6, 7 * field.p**2, -7 * field.p**2 - 1, -1000)
        for r in (0, 1, 2, 5)
    ]
    for field, x, r in cases + integral:
        c = field.canon_trunc(x, r)
        diff = field.sub(x, c)
        assert field.is_zero(diff) or field.ord(diff) >= r
        assert field.canon_trunc(c, r) == c
    for field, x, r in integral:
        want = sum(d * field.p**i for i, d in enumerate(digits(field, x, 0, r)))
        got = field.canon_trunc(x, r)
        assert type(got) is Fraction and got == want, (field, x, r)


def test_unit_inverse_mod():
    rng = rng_for("unitinv")
    for field in FIELDS.values():
        for _ in range(100):
            x = sample_nonzero(field, rng, 0, 4)
            if field.ord(x) != 0:
                continue
            m = rng.randrange(1, 5)
            inv = field.unit_inverse_mod(x, m)
            prod = field.mul(x, inv)
            assert field.ord(field.sub(prod, field.one())) >= m


def test_padic_reads_off_the_sampled_range():
    # sample_element makes p-power denominators only; these elements are
    # negative or have denominators prime to p, where the reads invert den
    assert Q2.canon_trunc(Fraction(1, 3), 3) == 3  # 3 * 3 = 1 mod 8
    assert Q2.psi_angle(Fraction(1, 3)) == Fraction(1, 2)
    assert Q5.canon_trunc(Fraction(-5, 7), 2) == 10  # -1/7 = 2 mod 5
    assert Q5.psi_angle(Fraction(-5, 7)) == 0
    rng = rng_for("padic-reads-off-range")
    for field in (Q2, Q3, Q5, make_field("p-adic", 7)):
        p = field.p
        dens = [d for d in range(1, 30) if d % p]
        for _ in range(120):
            x = Fraction(
                rng.choice((-1, 1)) * rng.randrange(1, 200), rng.choice(dens)
            ) * Fraction(p) ** rng.randrange(-3, 4)
            v = field.ord(x)
            for r in range(-4, 6):
                got = field.canon_trunc(x, r)
                ds = digits(field, x, v, r) if v < r else []
                want = sum(d * Fraction(p) ** (v + i) for i, d in enumerate(ds))
                assert type(got) is Fraction and got == want, (field, x, r)
            assert field.psi_angle(x) == psi_by_digits(field, x), (field, x)
            for m in (1, 2, 3):
                assert field.ac(x, m) == ac_by_digits(field, x, m), (field, x, m)


def test_coset_children_example():
    ball = Polyball.ball(Q5, (Fraction(3),), 2)
    kids = children_by_field_ops(ball)
    centers = sorted(k.centers[0] for k in kids)
    assert centers == [Fraction(c) for c in (3, 28, 53, 78, 103)]
    assert all(k.radii == (3,) for k in kids)


def test_children_partition_bulk():
    rng = rng_for("children")
    for field in FIELDS.values():
        for _ in range(250):
            n = rng.choice([1, 2])
            center = tuple(sample_element(field, rng) for _ in range(n))
            radii = tuple(rng.randrange(-2, 3) for _ in range(n))
            ball = Polyball(field, center, radii)
            kids = children_by_field_ops(ball)
            assert len(kids) == field.q**n
            # a random point of the ball lies in exactly one child
            x = tuple(
                field.add(c, field.mul(sample_element(field, rng, 0, 3), field.pow_uniformizer(r)))
                for c, r in zip(ball.centers, ball.radii)
            )
            assert ball.contains(x)
            assert sum(1 for k in kids if k.contains(x)) == 1
            # the lazy child centres are the reference's, in the same order
            assert list(ball.child_centers()) == [k.centers for k in kids]


@st.composite
def _cell_reps_cases(draw):
    """(field, center, r, level): radii -3 to 3, depths 0 to 3, and centres
    canonical at r (digits below r only), with digits at [r, level) and
    beyond (a rotated list), or, over Q_p, with a denominator prime to p
    (infinitely many digits)."""
    field = draw(st.sampled_from(CELL_FIELDS))
    p = field.p
    r = draw(st.integers(-3, 3))
    level = r + draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["canonical", "digits", "prime-to-p"]))
    top = r if kind == "canonical" else level + 2
    center = field.zero()
    for e in range(-5, top):
        d = draw(st.integers(0, p - 1))
        center = field.add(center, field.mul(field.from_int(d), field.pow_uniformizer(e)))
    if kind == "prime-to-p" and field.kind == "p-adic":
        unit = draw(st.sampled_from([u for u in (3, 7, 11) if u % p]))
        center += Fraction(draw(st.integers(-60, 60)), unit * p ** draw(st.integers(0, 4)))
    return field, center, r, level


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_cell_reps_cases())
def test_cell_reps_match_the_field_operation_reference(case):
    # the integer child rule builds the reference's canonical elements, of
    # the same type, in the same (rotated) order
    field, center, r, level = case
    got = field.cell_reps(center, r, level)
    want = cell_reps_by_field_ops(field, center, r, level)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert all(field.canon_trunc(x, level) == x for x in got)


def test_polyball_intersection_nested_or_disjoint():
    rng = rng_for("ball-meet")
    for field in FIELDS.values():
        for _ in range(200):
            b1 = Polyball.ball(field, (sample_element(field, rng),), rng.randrange(-2, 3))
            b2 = Polyball.ball(field, (sample_element(field, rng),), rng.randrange(-2, 3))
            got = b1.intersect(b2)
            if got is None:
                continue
            assert got in (b1, b2)
            assert got.is_subset(b1) and got.is_subset(b2)


def test_field_spec_parsing_and_json():
    assert parse_field_spec("Qp:2") is Q2
    assert parse_field_spec("Fpt:3") is F3
    with pytest.raises(FieldError):
        parse_field_spec("Qp:4")
    with pytest.raises(FieldError):
        parse_field_spec("nope")
    x = LaurentPoly(3, [(-2, 1), (0, 2)])
    assert F3.element_from_json(F3.element_to_json(x)) == x
    y = Fraction(-7, 8)
    assert Q2.element_from_json(Q2.element_to_json(y)) == y


def test_laurent_division_limits():
    t = F3.uniformizer()
    assert F3.invert(t) == LaurentPoly(3, [(-1, 1)])
    with pytest.raises(FieldError):
        F3.invert(F3.add(F3.one(), t))


def test_element_hashability():
    x = LaurentPoly(3, [(0, 1), (2, 2)])
    y = LaurentPoly(3, [(2, 2), (0, 1)])
    assert hash(x) == hash(y) and x == y
    assert len({x, y}) == 1


@st.composite
def _laurent_pairs(draw):
    """(p, a, b): two Laurent polynomials over Z/p, p in {2, 3, 5}, with
    exponents -4 to 4, shared exponents and zero operands included."""
    p = draw(st.sampled_from([2, 3, 5]))
    terms = st.lists(st.tuples(st.integers(-4, 4), st.integers(0, p - 1)), max_size=6)
    return p, LaurentPoly(p, draw(terms)), LaurentPoly(p, draw(terms))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_laurent_pairs())
def test_laurent_sum_and_product_match_the_normalising_constructor(case):
    # the merged sum and the product built without normalising equal the
    # constructor's result on the concatenated or multiplied-out digits,
    # and are normal themselves: sorted exponents, digits in [1, p)
    p, a, b = case
    want_sum = LaurentPoly(p, list(a.coeffs) + list(b.coeffs))
    want_prod = LaurentPoly(
        p, [(e1 + e2, c1 * c2) for e1, c1 in a.coeffs for e2, c2 in b.coeffs]
    )
    for got, want in ((a + b, want_sum), (a * b, want_prod), (a - b, a + (-b))):
        assert got == want and hash(got) == hash(want)
        assert list(got.coeffs) == sorted(got.coeffs)
        assert len({e for e, _ in got.coeffs}) == len(got.coeffs)
        assert isinstance(got.coeffs, tuple)
        assert all(isinstance(t, tuple) and 0 < t[1] < p for t in got.coeffs)

"""Polynomial utilities: parsing, Taylor data, valuation bounds, resultants."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from umla.fibers import _fold_at, _fold_split
from umla.fields import INF, FieldError, LaurentPoly, Polyball, make_field
from umla.microlocal.phase import _OrdsAt
from umla.polys import (
    MultiPoly,
    critical_value_locus,
    int_form,
    packed_ord,
    parse_poly,
    squarefree_ints,
    sylvester_resultant,
    unpack,
    walk_codes,
)

from conftest import CELL_FIELDS, FIELDS, rng_for, sample_element
from oracles import (
    cell_reps_by_field_ops,
    eval_by_fractions,
    eval_by_laurent,
    eval_coeffs_at,
)


def test_parse_and_eval():
    p = parse_poly("x^2 - y*x + 3", ("x", "y"))
    field = make_field("p-adic", 5)
    got = p.eval_field(field, (Fraction(2), Fraction(7)))
    assert got == Fraction(4 - 14 + 3)
    with pytest.raises(FieldError):
        parse_poly("x +", ("x",))
    with pytest.raises(FieldError):
        parse_poly("z", ("x",))


def test_parse_matches_manual_construction():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    want = x * x * y - y.scale(3) + MultiPoly.const(2, 1)
    assert parse_poly("x^2*y - 3*y + 1", ("x", "y")) == want


_X = MultiPoly.var(1, 0)
_ONE = MultiPoly.const(1, 1)


@pytest.mark.parametrize(
    "src, want",
    [
        ("-x^2", -(_X * _X)),
        ("-(x+1)^2", -((_X + _ONE) * (_X + _ONE))),
        ("2*-x", _X.scale(-2)),
        ("3 - -x^2", _ONE.scale(3) + _X * _X),
        ("x^0", _ONE),
    ],
)
def test_unary_minus_binds_looser_than_power(src, want):
    # the term grammar of umla.cexp.syntax: -x^2 is -(x^2)
    assert parse_poly(src, ("x",)) == want


@pytest.mark.parametrize(
    "src, names",
    [
        ("1/2*x", ("x",)),
        ("ord(x)", ("x",)),
        ("psi(x)", ("x",)),
        ("[x == 0]", ("x",)),
        ("2x", ("x",)),
        ("", ("x",)),
        ("q^2", ("q",)),
    ],
)
def test_non_polynomial_text_raises_field_error(src, names):
    with pytest.raises(FieldError):
        parse_poly(src, names)


@st.composite
def _rationals(draw, p: int):
    """Zero, integers, p-power denominators, denominators prime to p, and
    both at once, with numerators of either sign."""
    num = draw(st.integers(-60, 60))
    kind = draw(st.sampled_from(["zero", "int", "p-power", "prime-to-p", "mixed"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "int":
        return Fraction(num)
    unit = draw(st.sampled_from([u for u in (2, 3, 7, 11, 25, 49) if u % p]))
    k = draw(st.integers(1, 4))
    den = {"p-power": p**k, "prime-to-p": unit, "mixed": p**k * unit}[kind]
    return Fraction(num, den)


@st.composite
def _qp_eval_cases(draw):
    """(p, MultiPoly, point): zero, constant and random shapes."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["zero", "constant", "random"]))
    coeffs = {}
    if shape == "constant":
        coeffs[(0,) * n] = draw(st.integers(-9, 9))
    elif shape == "random":
        for _ in range(draw(st.integers(1, 5))):
            expo = tuple(draw(st.integers(0, 3)) for _ in range(n))
            coeffs[expo] = draw(st.integers(-9, 9))
    point = tuple(draw(_rationals(p)) for _ in range(n))
    return p, MultiPoly(n, coeffs), point


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_qp_eval_cases())
def test_qp_evaluation_matches_fraction_reference(case):
    # the integer kernel against monomial-by-monomial Fraction evaluation
    p, poly, point = case
    field = make_field("p-adic", p)
    got = poly.eval_field(field, point)
    assert type(got) is Fraction
    assert got == eval_by_fractions(poly.coeffs, point)
    assert poly.ord_field(field, point) == field.ord(got)


@st.composite
def _laurent_elements(draw, p: int):
    """Zero, constants, polynomials, and elements with poles down to t^-4."""
    kind = draw(st.sampled_from(["zero", "constant", "polynomial", "poles"]))
    if kind == "zero":
        return LaurentPoly(p)
    lo = draw(st.integers(-4, -1)) if kind == "poles" else 0
    size = 1 if kind == "constant" else draw(st.integers(1, 5))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return LaurentPoly(p, [(lo + i, d) for i, d in enumerate(digits)])


@st.composite
def _laurent_eval_cases(draw):
    """(p, MultiPoly, point) over F_p((t)), with negative integer
    coefficients.  Half the time the polynomial gets a
    factor x_0 - x_1 and the point has x_0 = x_1, so its value vanishes."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["zero", "constant", "random"]))
    coeffs = {}
    if shape == "constant":
        coeffs[(0,) * n] = draw(st.integers(-9, 9))
    elif shape == "random":
        for _ in range(draw(st.integers(1, 5))):
            expo = tuple(draw(st.integers(0, 3)) for _ in range(n))
            coeffs[expo] = draw(st.integers(-9, 9))
    poly = MultiPoly(n, coeffs)
    point = [draw(_laurent_elements(p)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        poly = poly * (MultiPoly.var(n, 0) - MultiPoly.var(n, 1))
        point[1] = point[0]
    return p, poly, tuple(point)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_laurent_eval_cases())
def test_laurent_evaluation_matches_element_reference(case):
    # the packed integer kernel against LaurentPoly arithmetic, element by
    # element: values, valuations read off the packed ints, Taylor ords
    p, poly, point = case
    field = make_field("equal-characteristic", p)
    want = eval_by_laurent(p, poly.coeffs, point)
    assert poly.eval_field(field, point) == want
    assert poly.ord_field(field, point) == want.ord()
    tay = poly.taylor()
    forms = {a: int_form(field, q.coeffs) for a, q in tay.items()}
    codes = walk_codes(field, point, 0, 0, forms.values())
    deg = max((m for _, m in forms.values()), default=0)
    ords = _OrdsAt(codes, forms, tuple(map(codes.code, point)), deg)
    for a, q in tay.items():
        assert ords[a] == eval_by_laurent(p, q.coeffs, point).ord()


def test_packed_zero_by_cancellation_has_infinite_ord():
    # x^2 - 1 at x = 1 over F_3((t)) packs to N = 3: nonzero, but its one
    # digit is divisible by 3, so it is the zero element; the root search
    # reads the same at the cell code of 1, on its codes and on the form
    # folded to the dense Horner form, whose Hensel digit is 0
    f3t = make_field("equal-characteristic", 3)
    poly = parse_poly("x^2 - 1", ("x",))
    one = f3t.one()
    assert poly.ord_field(f3t, (one,)) == INF
    assert f3t.is_zero(poly.eval_field(f3t, (one,)))
    form = int_form(f3t, poly.coeffs)
    codes = walk_codes(f3t, (), 0, 1, (form,))
    dense = (_fold_at(*_fold_split(codes, form), ()), 2)
    assert dense == ([2, 0, 1], 2)
    assert codes.code(one) == 1 and codes.element(1) == one
    for g in (form, dense):
        assert codes.value(g, (1,)) == 3
        assert codes.ord(g, (1,)) == INF and codes.digit(g, (1,), 0) == 0
    assert packed_ord(3, 2, 3) == INF
    # digits 3, 0, 6 at W = 3: every digit vanishes mod 3
    assert packed_ord(3 + (6 << 6), 3, 3) == INF
    assert packed_ord(3 + (5 << 6), 3, 3) == 2
    assert packed_ord(0, 4, 5) == INF


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 6),
    st.lists(st.integers(0, 63), max_size=6),
)
def test_packed_ord_reads_the_first_digit_prime_to_p(p, w, digits):
    digits = [d % (1 << w) for d in digits]
    v = sum(d << w * j for j, d in enumerate(digits))
    want = next((j for j, d in enumerate(digits) if d % p), INF)
    assert packed_ord(v, w, p) == want == unpack(p, v, w).ord()


def test_taylor_expansion_of_square():
    # [DERIVED] (c+e)^2 = c^2 + 2c e + e^2
    p = parse_poly("x^2", ("x",))
    t = p.taylor()
    assert t[(0,)] == parse_poly("x^2", ("x",))
    assert t[(1,)] == parse_poly("2*x", ("x",))
    assert t[(2,)] == MultiPoly.const(1, 1)


def test_taylor_identity_random():
    for field in FIELDS.values():
        rng = rng_for(f"poly-taylor:{field!r}")
        for _ in range(20):
            coeffs = {
                (rng.randrange(0, 3), rng.randrange(0, 3)): rng.randrange(-9, 10)
                for _ in range(3)
            }
            p = MultiPoly(2, coeffs)
            c = tuple(sample_element(field, rng, -1, 2) for _ in range(2))
            e = tuple(sample_element(field, rng, -1, 2) for _ in range(2))
            want = p.eval_field(field, tuple(field.add(a, b) for a, b in zip(c, e)))
            total = field.zero()
            for alpha, q in p.taylor().items():
                term = q.eval_field(field, c)
                for x, k in zip(e, alpha):
                    term = field.mul(term, field.power(x, k))
                total = field.add(total, term)
            assert field.is_zero(field.sub(total, want))


@st.composite
def _taylor_cases(draw):
    """(MultiPoly in 1 to 3 variables, zero included, the orders k in
    0..n in a drawn sequence)."""
    n = draw(st.integers(1, 3))
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        expo = tuple(draw(st.integers(0, 3)) for _ in range(n))
        coeffs[expo] = draw(st.integers(-9, 9))
    return MultiPoly(n, coeffs), draw(st.permutations(range(n + 1)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_taylor_cases())
def test_kept_taylor_expansion_equals_a_fresh_one(case):
    # taylor(k) of a polynomial equals taylor(k) of a fresh equal one, for
    # every k, on its first call and on repeat calls in another order
    poly, ks = case
    for k in ks:
        first = poly.taylor(k)
        assert first == MultiPoly(poly.n, poly.coeffs).taylor(k)
        assert poly.taylor(k) is first
    for k in reversed(ks):
        assert poly.taylor(k) == MultiPoly(poly.n, poly.coeffs).taylor(k)
    assert poly.taylor() is poly.taylor(poly.n)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_taylor_cases())
def test_full_taylor_expansion_restricts_to_the_first_variables(case):
    # setting the increments of the last n - k variables to 0 in
    # p(c + e, d + f) gives p(c + e, d): the terms of taylor() constant in
    # those increments are taylor(k)
    poly, ks = case
    full = poly.taylor()
    for k in ks:
        restricted = {a[:k]: q for a, q in full.items() if not any(a[k:])}
        assert restricted == MultiPoly(poly.n, poly.coeffs).taylor(k)


def test_equality_and_hash_do_not_read_the_kept_expansion():
    p = parse_poly("3*x^2*e + x*e^2 - 5", ("x", "e"))
    q = parse_poly("x*e^2 + 3*x^2*e - 5", ("x", "e"))
    before = hash(p)
    assert p._taylor is None
    p.taylor()
    p.taylor(1)
    assert p._taylor is not None and q._taylor is None
    assert p == q and q == p
    assert hash(p) == hash(q) == before
    assert {q: "kept"}[p] == "kept"
    assert p != parse_poly("3*x^2*e + x*e^2 - 4", ("x", "e"))


def test_ord_lower_bound_is_valid():
    for field in FIELDS.values():
        rng = rng_for(f"poly-ord:{field!r}")
        for _ in range(25):
            p = MultiPoly(
                2,
                {
                    (rng.randrange(0, 3), rng.randrange(0, 3)): rng.randrange(-9, 10)
                    for _ in range(3)
                },
            )
            ball = Polyball(
                field,
                tuple(sample_element(field, rng, -1, 2) for _ in range(2)),
                tuple(rng.randrange(-1, 3) for _ in range(2)),
            )
            coord_lo = [
                min(field.ord(c), r) if not field.is_zero(c) else r
                for c, r in zip(ball.centers, ball.radii)
            ]
            bound = p.ord_lower_bound(field, coord_lo)
            for _ in range(5):
                xs = tuple(
                    field.add(c, field.mul(field.pow_uniformizer(r), d))
                    for c, r, d in zip(
                        ball.centers,
                        ball.radii,
                        (
                            sample_element(field, rng, 0, 2),
                            sample_element(field, rng, 0, 2),
                        ),
                    )
                )
                assert field.ord(p.eval_field(field, xs)) >= bound


def test_ord_lower_bound_vanishing_coefficients():
    field = make_field("equal-characteristic", 3)
    p = MultiPoly(1, {(1,): 3})  # 3x is identically 0 in characteristic 3
    assert p.ord_lower_bound(field, [0]) == INF
    # an INF coordinate bound (the coordinate is 0) kills every monomial
    # that uses it; the others still count
    q = MultiPoly(2, {(1, 0): 1, (1, 1): 1})  # x + x*y
    assert q.ord_lower_bound(field, [1, INF]) == 1
    assert q.ord_lower_bound(field, [INF, 0]) == INF


def test_sylvester_resultant_square():
    # [DERIVED] res_x(x^2 - y, 2x) = -4y
    a = [
        MultiPoly.const(1, 0) - MultiPoly.var(1, 0),
        MultiPoly.const(1, 0),
        MultiPoly.const(1, 1),
    ]
    b = [MultiPoly.const(1, 0), MultiPoly.const(1, 2)]
    res = sylvester_resultant(a, b)
    assert res == MultiPoly(1, {(1,): -4})


def test_critical_value_locus_examples():
    field = make_field("p-adic", 3)
    # x^2 has its only critical value at y = 0
    locus = critical_value_locus(parse_poly("x^2", ("x",)))
    assert field.is_zero(locus.eval_field(field, (Fraction(0),)))
    assert not field.is_zero(locus.eval_field(field, (Fraction(9),)))
    # x^3 - x has critical values with 27 y^2 = 4, so y = 4 is regular
    locus2 = critical_value_locus(parse_poly("x^3 - x", ("x",)))
    assert not field.is_zero(locus2.eval_field(field, (Fraction(4),)))
    # and the locus polynomial is a multiple of 27 y^2 - 4
    vals = [locus2.eval_field(field, (Fraction(t),)) for t in (0, 1, 2)]
    want = [Fraction(27 * t * t - 4) for t in (0, 1, 2)]
    ratios = {v / w for v, w in zip(vals, want)}
    assert len(ratios) == 1


def int_poly_mul(a, b):
    """The product of two integer polynomials in degree order."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_squarefree_part():
    # [DERIVED] over Q, y*(y + 1)^2 -> y*(y + 1), up to a constant
    got = squarefree_ints([0, 1, 2, 1], 0)
    assert [Fraction(c, got[-1]) for c in got] == [0, 1, 1]
    # [DERIVED] over F_3, y^3 + 1 = (y + 1)^3 has derivative 3y^2 = 0, yet
    # it is no square-free polynomial: its part is y + 1
    f3t = FIELDS["F3t"]
    got = squarefree_ints([1, 0, 0, 1], 3)
    assert len(got) - 1 == 1
    coeffs = [f3t.from_int(c) for c in got]
    assert f3t.is_zero(eval_coeffs_at(f3t, coeffs, f3t.from_int(-1)))
    # [DERIVED] (y^3 + 1)^2 * y over F_3 = (y + 1)^6 * y: the factor of
    # multiplicity divisible by 3 survives only through the gcd
    cube = [1, 0, 0, 1]
    got = squarefree_ints(int_poly_mul(int_poly_mul(cube, cube), [0, 1]), 3)
    assert len(got) - 1 == 2
    coeffs = [f3t.from_int(c) for c in got]
    assert f3t.is_zero(eval_coeffs_at(f3t, coeffs, f3t.zero()))
    assert f3t.is_zero(eval_coeffs_at(f3t, coeffs, f3t.from_int(-1)))
    # constants are their own squarefree part
    assert len(squarefree_ints([7], 0)) - 1 == 0


def monic(coeffs, p):
    """coeffs divided by their leading one, over Q (p = 0) or mod p."""
    if p:
        inv = pow(coeffs[-1], -1, p)
        return [c * inv % p for c in coeffs]
    return [Fraction(c, coeffs[-1]) for c in coeffs]


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_squarefree_ints_of_random_products(p):
    # [DERIVED] prod (y - a_i)^(m_i) * e, with distinct a_i (mod p) and e an
    # optional extra factor: a nonzero constant, or an irreducible quadratic
    # of its own multiplicity, so that the part is prod (y - a_i), times the
    # quadratic when there is one, up to a unit.  Multiplicities divisible by
    # p leave the factor out of f / gcd(f, f') and need the gcd's own part,
    # and a product of p-th powers alone has f' = 0 and needs the p-th root
    rng = rng_for(f"poly-squarefree:{p}")
    # y^2 + 1 is irreducible over Q and F_3; y^2 + y + 1 over F_2 and F_5
    quadratic = [1, 1, 1] if p in (2, 5) else [1, 0, 1]
    mults = range(1, 2 * p + 2) if p else range(1, 5)
    seen = set()
    for _ in range(40):
        pool = range(p) if p else range(-6, 7)
        roots = rng.sample(pool, rng.randint(1, min(len(pool), 4)))
        ms = [rng.choice(mults) for _ in roots]
        if p and rng.random() < 0.3:
            ms = [p * rng.randint(1, 2) for _ in roots]
        f, want = [1], [1]
        for a, m in zip(roots, ms):
            want = int_poly_mul(want, [-a, 1])
            for _ in range(m):
                f = int_poly_mul(f, [-a, 1])
        extra = rng.choice(["none", "unit", "quadratic"])
        if extra == "unit":
            unit = rng.choice([u for u in (2, -3, 7) if not p or u % p])
            f = [c * unit for c in f]
        elif extra == "quadratic":
            for _ in range(rng.randint(1, 3)):
                f = int_poly_mul(f, quadratic)
            want = int_poly_mul(want, quadratic)
        got = squarefree_ints(f, p)
        assert all(isinstance(c, int) for c in got)
        if p:
            assert all(0 <= c < p for c in got)
        assert monic(got, p) == monic([c % p if p else c for c in want], p), (f, p)
        seen.add((p > 0 and all(m % p == 0 for m in ms), extra))
    # the seeded draws reach every kind of input above
    kinds = {extra for _, extra in seen}
    assert kinds == {"none", "unit", "quadratic"}
    if p:
        assert (True, "none") in seen or (True, "unit") in seen


def test_resultant_vanishes_iff_common_root():
    rng = rng_for("poly-res")
    for _ in range(20):
        r1, r2, r3 = (rng.randrange(-4, 5) for _ in range(3))
        # a = (x - r1)(x - r2), b = (x - r3) as constant-in-y polynomials
        a = [
            MultiPoly.const(1, r1 * r2),
            MultiPoly.const(1, -(r1 + r2)),
            MultiPoly.const(1, 1),
        ]
        b = [MultiPoly.const(1, -r3), MultiPoly.const(1, 1)]
        res = sylvester_resultant(a, b)
        assert res.is_zero() == (r3 in (r1, r2))


# the code enumerator of the cell walks against the reference of LocalField.cell_reps


@st.composite
def _code_walk_cases(draw):
    """(field, polyball, per-coordinate levels, fixed coordinates): radii
    -3 to 4, one to three coordinates, at most q^4 subcells, and fixed
    coordinates such as 1/2 in Q_3, whose denominators are not powers of p
    (over F_p((t)): elements with poles)."""
    field = draw(st.sampled_from(CELL_FIELDS))
    p = field.p
    n = draw(st.integers(1, 3))
    radii = [draw(st.integers(-3, 4)) for _ in range(n)]
    depth = draw(st.integers(0, 4))
    levels = [r + draw(st.integers(0, depth)) for r in radii]
    while sum(lv - r for lv, r in zip(levels, radii)) > 4:
        levels[max(range(n), key=lambda i: levels[i] - radii[i])] -= 1
    if field.kind == "p-adic":
        centers = [draw(_rationals(p)) for _ in range(n)]
        fixed = [draw(_rationals(p)) for _ in range(draw(st.integers(0, 2)))]
    else:
        centers = [draw(_laurent_elements(p)) for _ in range(n)]
        fixed = [draw(_laurent_elements(p)) for _ in range(draw(st.integers(0, 2)))]
    return field, Polyball(field, tuple(centers), tuple(radii)), levels, fixed


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_code_walk_cases())
def test_walk_codes_enumerate_the_children_of_cell_reps(case):
    # decoded children equal the field-operation reference of cell_reps
    # element for element, in its order, per coordinate and over the whole
    # ball; fixed coordinates decode back
    field, ball, levels, fixed = case
    codes = walk_codes(
        field, ball.centers + tuple(fixed), min(ball.radii), max(levels), ()
    )
    axes, want = [], []
    for c, r, level in zip(ball.centers, ball.radii, levels):
        kids = codes.child_codes(codes.code(c), r, level)
        want.append(cell_reps_by_field_ops(field, c, r, level))
        assert [codes.element(k) for k in kids] == want[-1]
        axes.append(kids)
    got = [tuple(map(codes.element, nums)) for nums in product(*axes)]
    assert got == list(product(*want))
    assert [codes.element(codes.code(x)) for x in fixed] == fixed


# the bridge from walk codes to cell codes against the reference of
# LocalField.residue_code on the decoded, truncated element


@st.composite
def _bridge_cases(draw):
    """(field, codes, walk codes, origin e, level r): a canonical element
    with digits from pi^-4 on, its code and the codes of the children of
    its truncation at a radius, in a format with fixed coordinates whose
    denominators are not powers of p (over F_p((t)): poles) and a window
    down to -5; origins from -6 to 4, and e <= r."""
    field = draw(st.sampled_from(CELL_FIELDS))
    p = field.p
    lo = draw(st.integers(-4, 3))
    digits = draw(st.lists(st.integers(0, p - 1), max_size=6))
    if field.kind == "p-adic":
        x = sum((d * Fraction(p) ** (lo + i) for i, d in enumerate(digits)), Fraction(0))
        fixed = [draw(_rationals(p)) for _ in range(draw(st.integers(0, 2)))]
    else:
        x = LaurentPoly(p, [(lo + i, d) for i, d in enumerate(digits)])
        fixed = [draw(_laurent_elements(p)) for _ in range(draw(st.integers(0, 2)))]
    window = draw(st.integers(-5, 2))
    radius = draw(st.integers(window, 4))
    deep = radius + draw(st.integers(0, 2))
    codes = walk_codes(field, [x] + fixed, window, deep + 1, ())
    top = codes.code(field.canon_trunc(x, radius))
    nums = [codes.code(x)] + codes.child_codes(top, radius, deep)
    e = draw(st.integers(-6, 4))
    return field, codes, nums, e, e + draw(st.integers(0, 5))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_bridge_cases())
def test_walk_code_bridge_reads_the_residue_code_of_the_truncation(case):
    # residue_code of the codes equals residue_code(canon_trunc(element, r),
    # e) of the field, None included (a nonzero digit below e)
    field, codes, nums, e, r = case
    for n in nums:
        want = field.residue_code(field.canon_trunc(codes.element(n), r), e)
        assert codes.residue_code(n, e, r) == want, (n, e, r)

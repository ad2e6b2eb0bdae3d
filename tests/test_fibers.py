"""Fiber integration: certified root finding, pushforward values, level scans.

Root sets are pinned against hand-derived residue arithmetic and a
planted-root generator; the change-of-variables identity runs as a seeded
random property loop with stabilized cell sums on both sides.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umla import fibers
from umla.cyclo import CycloScalar
from umla.fields import INF, FieldError, LaurentPoly, Polyball, make_field
from umla.fibers import (
    ClusterUnresolved,
    FiberProblem,
    LevelReport,
    OnDiscriminant,
    _Search,
    _search_forms,
    fiber_integrate,
    level_measure,
    padic_roots,
    poly_to_string,
)
from umla.polys import MultiPoly, int_form, parse_poly
from umla.schwartz import CellBudgetError, SchwartzBruhat

from conftest import FIELDS, rng_for
from oracles import (
    eval_by_fractions,
    eval_by_laurent,
    eval_coeffs_at,
    level_bounds_by_fiber_points,
    level_rows_by_fiber_integrate,
    ord_resultant_by_ring_det,
    point_by_digits,
    pushforward_by_counting,
)
from test_schwartz import random_sb

Q2 = FIELDS["Q2"]
Q3 = FIELDS["Q3"]
Q5 = FIELDS["Q5"]
F3T = FIELDS["F3t"]
F2T = make_field("equal-characteristic", 2)


def unit_ball_indicator(field):
    return SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), 0))


def scalar(field, value):
    return CycloScalar.fraction(field.p, Fraction(value))


def x_coeffs_at(field, poly, fixed):
    """The coefficients in x, as field elements, of poly(x, *fixed): each
    one's polynomial in the fixed coordinates evaluated element by element
    (``eval_by_fractions``, ``eval_by_laurent``)."""
    coeffs = []
    for i in range(poly.degree_in(0) + 1):
        part = {e[1:]: c for e, c in poly.coeffs.items() if e[0] == i}
        if field.kind == "p-adic":
            coeffs.append(eval_by_fractions(part, fixed))
        else:
            coeffs.append(eval_by_laurent(field.p, part, fixed))
    return coeffs


def roots_by_search(field, poly, fixed, k):
    """The root search on the integer form poly(x, *fixed) with the window
    0, with ord Res(h, h') of h = poly(x, *fixed) from ``ring_det`` over
    the field, as no discriminant is at hand for such forms."""
    coeffs = x_coeffs_at(field, poly, fixed)
    base = tuple(fixed)
    search = _Search(field, _search_forms(field, poly), [base], 0, k)
    return search.roots(base, lambda: ord_resultant_by_ring_det(field, coeffs))


def product_form(r):
    """prod_i (x - y_i) for i = 1..r, a form in (x, y_1, ..., y_r)."""
    n = r + 1
    poly = MultiPoly.const(n, 1)
    for i in range(1, n):
        poly = poly * (MultiPoly.var(n, 0) - MultiPoly.var(n, i))
    return poly


# ---------------------------------------------------------------------------
# root finding: frozen examples
# ---------------------------------------------------------------------------


def test_roots_square_minus_four_q3():
    # [DERIVED] x^2 = 4 in Z_3: roots 2 and -2 = ...22221, truncation 7 mod 9.
    got = padic_roots("x^2 - 4", Q3, 2)
    assert [Q3.element_to_json(r) for r in got] == ["2", "7"]


def test_roots_square_minus_one_q2():
    # [DERIVED] x^2 = 1 in Z_2: 1 and -1 = ...1111, truncation 7 mod 8; at
    # precision 1 both collapse to the single truncation 1 mod 2.
    got = padic_roots("x^2 - 1", Q2, 3)
    assert [Q2.element_to_json(r) for r in got] == ["1", "7"]
    coarse = padic_roots("x^2 - 1", Q2, 1)
    assert [Q2.element_to_json(r) for r in coarse] == ["1"]


def test_roots_square_minus_two_q3_empty():
    # [DERIVED] 2 is not a square mod 3, so x^2 = 2 has no Z_3 root.
    assert padic_roots("x^2 - 2", Q3, 3) == []


def test_roots_laurent_field():
    # [DERIVED] over F_3((t)): x^2 - 4 = x^2 - 1 = (x-1)(x+1), roots 1 and 2.
    got = padic_roots("x^2 - 4", F3T, 2)
    assert [F3T.residue_code(F3T.canon_trunc(r, 1), 0) for r in got] == [1, 2]


@pytest.mark.parametrize("key", ["Q2", "Q3", "Q5", "F3t"])
def test_fiber_points_are_truncated_at_the_requested_level(key):
    # [DERIVED] the fiber of x^2 over 1 is {1, -1}, with f' = 2x; each point
    # comes back as its level-k truncation, whatever the degree of f
    f = FIELDS[key]
    prob = FiberProblem.from_string("x^2")
    two_ord = f.ord(f.from_int(2))
    for k in (2, 3, 5):
        forms = prob.reduced(f)[2]
        search = _Search(f, forms, [(f.one(),)], 0, k)
        got = search.roots((f.one(),), lambda: prob.disc.ord_field(f, (f.one(),)))
        roots = {f.canon_trunc(r, k) for r in (f.one(), f.from_int(-1))}
        assert {root for root, _ in got} == roots
        assert all(dorder == two_ord for _, dorder in got)


def test_root_search_ends_on_exact_roots():
    # [DERIVED] over F_3((t)) x^2 - 4 is x^2 + 2 = (x - 1)(x - 2), and at
    # the codes of 1 and 2 it packs to nonzero integers whose every digit 3
    # divides (ord INF); the descent below them keeps the digit 0, so deep
    # searches end on the same exact roots
    two = F3T.from_int(2)
    for k in (1, 5, 12):
        assert padic_roots("x^2 - 4", F3T, k) == [F3T.one(), two]


@pytest.mark.parametrize("key", ["Q3", "F3t"])
def test_roots_agreeing_beyond_the_requested_level(key):
    # [DERIVED] x^2 - y x at y = pi^5 is x (x - pi^5), with the simple roots
    # 0 and pi^5 and g' = 2x - pi^5 of ord 5 at both.  Their cells are
    # decided only at level 6, deeper than k = 2, and each is cut back to
    # its level-2 truncation 0; at k = 6 they part
    f = FIELDS[key]
    pi5 = f.pow_uniformizer(5)
    poly = parse_poly("x^2 - y*x", ("x", "y"))
    assert roots_by_search(f, poly, (pi5,), 2) == [(f.zero(), 5), (f.zero(), 5)]
    assert roots_by_search(f, poly, (pi5,), 6) == [(f.zero(), 5), (pi5, 5)]


@st.composite
def _close_roots(draw):
    """(p, distinct integral roots in F_p[t], k): roots that often share
    their first digits, so the search must split cells deeper than k."""
    p = draw(st.sampled_from([2, 3, 5]))
    head = draw(st.lists(st.integers(0, p - 1), max_size=4))
    roots = set()
    for _ in range(draw(st.integers(1, 3))):
        tail = draw(st.lists(st.integers(0, p - 1), max_size=4))
        digits = (head if draw(st.booleans()) else []) + tail
        roots.add(LaurentPoly(p, list(enumerate(digits))))
    return p, sorted(roots, key=lambda r: r.coeffs), draw(st.integers(1, 6))


def _planted(field, roots, k):
    """(coefficients of g = prod (x - r_i), the root search's pairs
    (r_i mod t^k, ord g'(r_i)) sorted), with g'(r_i) = prod_{j != i}
    (r_i - r_j)."""
    coeffs = [field.one()]
    for r in roots:
        shifted = [field.zero()] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = field.sub(shifted[i], field.mul(r, c))
        coeffs = shifted
    want = sorted(
        (
            (
                field.canon_trunc(r, k),
                sum(field.ord(field.sub(r, s)) for s in roots if s != r),
            )
            for r in roots
        ),
        key=lambda item: (item[0].coeffs, item[1]),
    )
    return coeffs, want


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_close_roots())
def test_laurent_root_search_finds_planted_roots(case):
    # g = prod (x - r_i): one pair (r_i mod t^k, ord g'(r_i)) per root
    p, roots, k = case
    field = make_field("equal-characteristic", p)
    _, want = _planted(field, roots, k)
    assert roots_by_search(field, product_form(len(roots)), roots, k) == want


def _descend_by_children(field, coeffs, a, level, k):
    """The level-k truncation below a decided cell B_level(a), found on
    elements by trying its children in turn: the one child with
    ord g >= level + 1 + v', v' = ord g'(a), at every level."""
    dcoeffs = [field.mul(field.from_int(i), c) for i, c in enumerate(coeffs)][1:]
    vp = field.ord(eval_coeffs_at(field, dcoeffs, a))
    while level < k:
        step = field.pow_uniformizer(level)
        children = (
            field.add(a, field.mul(field.residue_lift(d), step)) for d in range(field.q)
        )
        a = next(
            c
            for c in children
            if field.ord(eval_coeffs_at(field, coeffs, c)) >= level + 1 + vp
        )
        level += 1
    return a


def test_hensel_step_lifts_a_fourth_root_of_two_in_q7_to_level_40():
    # [DERIVED] x^4 = 2 mod 7 at x = 2, 5 (2^4 = 16), where g' = 4x^3 is a
    # unit, so both cells are decided at level 1; one Hensel step per level
    # names the child that trying every child finds
    f = make_field("p-adic", 7)
    coeffs = [f.from_int(c) for c in (-2, 0, 0, 0, 1)]
    got = padic_roots("x^4 - 2", f, 40)
    want = [_descend_by_children(f, coeffs, f.from_int(a), 1, 40) for a in (2, 5)]
    assert got == sorted(want)
    for r in got:
        assert f.ord(eval_coeffs_at(f, coeffs, r)) >= 40


def test_hensel_step_finds_planted_laurent_roots_at_level_40():
    # three roots of 45 digits over F_7((t)), two sharing their first three
    # digits (ord g' >= 3 there), cut at level 40
    f = make_field("equal-characteristic", 7)
    rng = rng_for("fibers:hensel")
    head = [rng.randrange(7) for _ in range(3)]
    tails = [[rng.randrange(7) for _ in range(42)] for _ in range(2)]
    roots = [LaurentPoly(7, enumerate(head + tail)) for tail in tails]
    roots.append(LaurentPoly(7, [(i, rng.randrange(7)) for i in range(45)]))
    assert len(set(roots)) == 3
    coeffs, want = _planted(f, roots, 40)
    got = roots_by_search(f, product_form(len(roots)), roots, 40)
    assert got == want
    for trunc, _ in got:
        assert f.ord(eval_coeffs_at(f, coeffs, trunc)) >= 40


def test_roots_with_negative_window():
    # [DERIVED] 4x^2 = 1 has roots +-1/2 of valuation -1; -1/2 = 7/2 mod 4.
    got = padic_roots("4*x^2 - 1", Q2, 2, window=-1)
    assert [Q2.element_to_json(r) for r in got] == ["1/2", "7/2"]
    # neither root is integral
    assert padic_roots("4*x^2 - 1", Q2, 2, window=0) == []


def test_roots_multiple_root_raises_cluster():
    # (x-1)^2 has a double root: no precision can certify a unique root.
    with pytest.raises(ClusterUnresolved):
        padic_roots("x^2 - 2*x + 1", Q3, 2)
    # [DERIVED] below the integers the undecided cell is named in x: the
    # double root 1/3 of (3x - 1)^2 over Q_3, and 1 of x^2 + x + 1 =
    # (x - 1)^2 over F_3((t)), each in its level-2 cell
    cases = ((Q3, "9*x^2 - 6*x + 1", Fraction(1, 3)), (F3T, [1, 1, 1], F3T.one()))
    for field, g, center in cases:
        with pytest.raises(ClusterUnresolved) as err:
            padic_roots(g, field, 2, window=-1)
        assert (err.value.center, err.value.level) == (center, 2)


def test_roots_input_forms_and_validation():
    from_string = padic_roots("x^2 - 4", Q3, 2)
    from_coeffs = padic_roots([-4, 0, 1], Q3, 2)
    from_poly = padic_roots(parse_poly("x^2 - 4", ("x",)), Q3, 2)
    assert from_string == from_coeffs == from_poly
    with pytest.raises(FieldError):
        padic_roots("x^2 - 4", Q3, 0)
    with pytest.raises(FieldError):
        padic_roots("x^2 - 4", Q3, -1, window=-1)
    with pytest.raises(FieldError):
        padic_roots([0], Q3, 2)
    with pytest.raises(FieldError):
        padic_roots(parse_poly("x*y", ("x", "y")), Q3, 2)


def test_roots_simple_roots_sharing_a_deep_cell_q3():
    # [DERIVED] x^2 + 3x - 18 = (x - 3)(x + 6): simple roots 3 and
    # -6 = 75 mod 81, with ord f' = ord(2x + 3) = 2 at both.  The level-4
    # cell 12 mod 81 survives (f(12) = 162 = 2*81) but fails Hensel's test
    # there (f'(12) = 27); it holds no root.
    got = padic_roots("x^2 + 3*x - 18", Q3, 4)
    assert [Q3.element_to_json(r) for r in got] == ["3", "75"]


def test_roots_beside_rootless_factor_q2():
    # [DERIVED] (x - 1)(x^2 - 5) = x^3 - x^2 - 5x + 5 over Q_2: 5 = 5 mod 8
    # is not a square, so the only root is 1.  The level-3 cell 3 mod 8
    # survives (f(3) = 8) but fails Hensel's test there (f'(3) = 16); it
    # holds no root.
    got = padic_roots([5, -5, -1, 1], Q2, 3)
    assert [Q2.element_to_json(r) for r in got] == ["1"]


def test_roots_constant_and_linear():
    # [TRIVIAL] a unit constant has no roots; a linear map has exactly one.
    assert padic_roots([7], Q5, 3) == []
    got = padic_roots("3*x - 1", Q5, 2)
    assert len(got) == 1
    # 1/3 mod 25: 3*17 = 51 = 2*25 + 1
    assert Q5.element_to_json(got[0]) == "17"


# ---------------------------------------------------------------------------
# root finding: planted-root generator and two-precision consistency
# ---------------------------------------------------------------------------


def _planted_poly(field, rng, k):
    """Monic integer polynomial with known roots, pairwise distinct mod p.

    Returns (coeff list, expected truncations at level k).  A rootless
    quadratic factor (a non-residue shift) is mixed in half the time.
    """
    p = field.p
    residues = rng.sample(range(p), rng.randrange(1, min(p, 3) + 1))
    if field.kind == "p-adic":
        roots = [d + p * rng.randrange(p * p) for d in residues]
    else:
        # integer lifts collapse mod p in equal characteristic
        roots = list(residues)
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    if rng.random() < 0.5:
        nonresidue = {2: 5, 3: 2, 5: 2}[p]
        # multiply by x^2 - nonresidue, which has no root in the field
        lifted = [0, 0] + coeffs
        for i in range(len(coeffs)):
            lifted[i] -= nonresidue * coeffs[i]
        coeffs = lifted
    # content must not matter; p^2 = 0 in equal characteristic, so the
    # scaling applies over Q_p only (the draw keeps the case sequence)
    if rng.random() < 0.3 and field.kind == "p-adic":
        coeffs = [c * p**2 for c in coeffs]
    expected = {field.canon_trunc(field.from_int(r), k) for r in roots}
    return coeffs, expected


def test_roots_match_planted_roots():
    rng = rng_for("fibers:planted")
    k = 3
    for trial in range(60):
        field = [Q2, Q3, Q5, F3T][trial % 4]
        coeffs, expected = _planted_poly(field, rng, k)
        got = padic_roots(coeffs, field, k)
        assert set(got) == expected, (field, coeffs)


def test_roots_two_precision_consistency():
    # truncating a deeper root list must reproduce the shallow root list
    rng = rng_for("fibers:precision")
    for trial in range(40):
        field = [Q2, Q3, Q5, F3T][trial % 4]
        coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 5))]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        k = rng.randrange(1, 4)
        try:
            shallow = padic_roots(coeffs, field, k)
            deep = padic_roots(coeffs, field, k + 2)
        except ClusterUnresolved:
            continue  # multiple roots are legitimately unresolvable
        assert {field.canon_trunc(r, k) for r in deep} == set(shallow)
        for r in shallow:
            # every reported truncation really kills the polynomial mod pi^k
            value = sum(
                (field.mul(field.from_int(c), field.power(r, i)) for i, c in enumerate(coeffs)),
                field.zero(),
            )
            assert field.is_zero(value) or field.ord(value) >= k


def test_roots_planted_below_unit_window():
    # [DERIVED] h(px) places the planted roots at valuation -1
    rng = rng_for("fibers:window")
    for field in (Q2, Q3, Q5):
        p = field.p
        residues = rng.sample(range(1, p) if p > 2 else [1], min(p - 1, 2))
        roots = [d + p * rng.randrange(p) for d in residues]
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        scaled = [c * p**i for i, c in enumerate(coeffs)]
        got = padic_roots(scaled, field, 2, window=-1)
        expected = {
            field.canon_trunc(Fraction(r, p), 2) for r in roots
        }
        assert set(got) == expected
        # none are integral, since every planted residue is a unit
        assert padic_roots(scaled, field, 2, window=0) == []


# ---------------------------------------------------------------------------
# root search: ord Res(g, g') read off ord disc(y)
# ---------------------------------------------------------------------------

# the fiber workload's maps and x^2 + b (b = 7, 13 as the level scans draw
# it); x^3 + x^2, whose f' drops to 2x over F_3((t)) while the Sylvester
# shapes stay those of disc; and two maps whose leading coefficient 3
# vanishes over F_3((t)), where the map in the field has a lower degree and
# the search reads the discriminant of that map
RES_MAPS = [
    "x^2", "x^3 - x", "x^2 + 3*x", "x^3 + 2*x", "x^2 + 7", "x^2 + 13",
    "x^3 + x^2", "3*x^2 + x", "3*x^3 + x^2",
]


@pytest.mark.parametrize("key", ["Q2", "Q3", "Q5", "F3t"])
def test_resultant_order_from_the_discriminant_matches_ring_det(key, monkeypatch):
    # every ord Res(g, g') that the search needs at a regular y = f(x0), x0
    # in every residue class (so also where f' vanishes mod pi and a cell is
    # still undecided at the root precision), with the windows 0, -1 and -2
    # (where the content of g is nonzero), is read off ord disc_K(y) and
    # checked against ring_det on g(u) = pi^(-content) h(pi^window u), h =
    # f_K - y, built on elements
    field = FIELDS[key]
    rng = rng_for(f"fibers:res-from-disc:{key}")
    real = fibers._ord_resultant
    seen = []  # (map, content) per resultant the search needed

    def checked(n, window, content, res_ord):
        got = real(n, window, content, res_ord)
        h = [field.from_int(f_k.coeffs.get((i,), 0)) for i in range(n + 1)]
        h[0] = field.sub(h[0], y)
        g = [
            field.mul(c, field.pow_uniformizer(i * window - content))
            for i, c in enumerate(h)
        ]
        assert n == f_k.degree_in(0) and window == support
        assert got == ord_resultant_by_ring_det(field, g), (src, y, support)
        seen.append((src, content))
        return got

    monkeypatch.setattr(fibers, "_ord_resultant", checked)
    # where the field drops the degree of f, the discriminant over Z
    # vanishes identically there (the first column of its Sylvester matrix
    # is zero), while that of the map in the field does not
    drops = {"3*x^2 + x", "3*x^3 + x^2"} if key == "F3t" else set()
    reads = []
    for src in RES_MAPS:
        problem = FiberProblem.from_string(src)
        f_k, disc, forms = problem.reduced(field)
        for r in range(field.q):
            x0 = field.add(field.from_int(r), point_by_digits(field, rng, 1, 4))
            y = problem.f.eval_field(field, (x0,))
            if r % 2:
                y = field.add(y, point_by_digits(field, rng, 3, 5))
            disc_ord = disc.ord_field(field, (y,))
            if src in drops:
                assert problem.disc.ord_field(field, (y,)) == INF
                assert disc_ord != INF or field.is_zero(y)
            if disc_ord == INF:
                continue
            for support in (0, -1, -2):
                before = len(reads)
                _Search(field, forms, [(y,)], support, 1).roots(
                    (y,), lambda: reads.append(y) or disc_ord
                )
                assert len(reads) - before <= 1
    # every resultant the search needed came from one read of disc_K(y)
    assert len(reads) == len(seen) >= 10
    assert any(content for _, content in seen)
    if key == "F3t":
        assert {"x^3 + x^2", "3*x^3 + x^2"} <= {src for src, _ in seen}


# ---------------------------------------------------------------------------
# fiber integration: frozen values
# ---------------------------------------------------------------------------


def test_pushforward_square_map_q3():
    # [DERIVED] f = x^2, phi = indicator of Z_3.  At y = 4 the fiber is
    # {2, -2} with |f'| = 1, total 2.  At y = 9 it is {3, -3} with
    # |f'| = 1/3, total 6.  y = 2 is a non-square: empty fiber.
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q3)
    assert (fiber_integrate(prob, phi, 4) - scalar(Q3, 2)).is_zero()
    assert (fiber_integrate(prob, phi, 9) - scalar(Q3, 6)).is_zero()
    assert fiber_integrate(prob, phi, 2).is_zero()


def test_pushforward_square_map_q2_roots_sharing_truncations():
    # [DERIVED] f = x^2, phi = indicator of Z_2, y = 17 = 1 mod 8: the roots
    # are +-r with r = 9 mod 16 (81 = 17 + 64), so 9 and 7 mod 16, which
    # share the level-1 truncation 1 that phi's constancy level asks for.
    # |f'(+-r)| = |2r| = 1/2, so each contributes 2: total 4.
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q2)
    assert (fiber_integrate(prob, phi, 17) - scalar(Q2, 4)).is_zero()


def test_pushforward_cubic_q2_three_roots():
    # [DERIVED] f = x^3 - x, y = 336 = 7^3 - 7 over Q_2: f - y =
    # (x - 7)(x^2 + 7x + 48), and the quadratic has discriminant
    # -143 = 1 mod 8 with root product 48, so roots 0 and 9 mod 16 besides 7.
    # f' = 3x^2 - 1 has ord 0 at 0 and ord 1 at 7 and 9: total 1 + 2 + 2 = 5.
    prob = FiberProblem.from_string("x^3 - x")
    phi = unit_ball_indicator(Q2)
    assert (fiber_integrate(prob, phi, 336) - scalar(Q2, 5)).is_zero()


@pytest.mark.parametrize("field", [Q3, F3T], ids=repr)
def test_pushforward_reads_phi_from_its_cell_origin(field):
    # [DERIVED] f = x and phi = indicator of B_2(pi), whose cell codes start
    # at the origin 1 while the root search's window is 0.  The root
    # 1 + pi has the digit 1 at pi^0, below the origin, so it lies outside
    # the support: value 0, although its digit at pi^1 is phi's.  The roots
    # pi and pi + 2 pi^2 lie in B_2(pi): value 1.
    prob = FiberProblem.from_string("x")
    pi = field.pow_uniformizer(1)
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (pi,), 2))
    one, two_pi2 = field.one(), field.mul(field.from_int(2), field.pow_uniformizer(2))
    assert fiber_integrate(prob, phi, field.add(one, pi)).is_zero()
    assert fiber_integrate(prob, phi, pi) == scalar(field, 1)
    assert fiber_integrate(prob, phi, field.add(pi, two_pi2)) == scalar(field, 1)


def test_pushforward_rejects_critical_value():
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q3)
    with pytest.raises(OnDiscriminant):
        fiber_integrate(prob, phi, 0)
    assert prob.is_critical_value(Q3, Q3.zero())
    assert not prob.is_critical_value(Q3, Q3.one())


def test_pushforward_square_map_laurent():
    # [DERIVED] same square-map values over F_3((t)), plus a Hensel lift:
    # 1 + t is a unit square, both roots have |f'| = 1.
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(F3T)
    assert (fiber_integrate(prob, phi, F3T.from_int(4)) - scalar(F3T, 2)).is_zero()
    t2 = F3T.pow_uniformizer(2)
    assert (fiber_integrate(prob, phi, t2) - scalar(F3T, 6)).is_zero()
    assert fiber_integrate(prob, phi, F3T.uniformizer()).is_zero()
    one_plus_t = LaurentPoly(3, [(0, 1), (1, 1)])
    assert (fiber_integrate(prob, phi, one_plus_t) - scalar(F3T, 2)).is_zero()


def test_pushforward_square_map_negative_support():
    # [DERIVED] phi = indicator of B_{-1}(0) in Q_3; fiber over 1/9 is
    # {1/3, -1/3} with |f'(x)| = |2/3| = 3, each contributing 1/3.
    prob = FiberProblem.from_string("x^2")
    phi = SchwartzBruhat.indicator(Polyball.ball(Q3, (Q3.zero(),), -1))
    y = Q3.element_from_json("1/9")
    got = fiber_integrate(prob, phi, y)
    assert (got - scalar(Q3, Fraction(2, 3))).is_zero()
    assert (fiber_integrate(prob, phi, 4) - scalar(Q3, 2)).is_zero()
    # roots of valuation -2 fall outside the support
    assert fiber_integrate(prob, phi, Q3.element_from_json("1/81")).is_zero()


# Non-integral input to the integer root walk: y with a denominator prime to
# p (a pole over F_p((t))), and phi supported on B_{-1}(0) or B_{-2}(0), so
# that the walk starts at a negative radius, the codes carry y's
# denominator, and the content c of the search is nonzero.  Each value is a
# Hensel count by hand, checked again by counting solutions mod pi^3 on
# cells two levels finer; y is a rational over Q_p and its (exponent,
# digit) pairs over F_p((t)).
NON_INTEGRAL_FIBERS = [
    # [DERIVED] 1/7 = 1 mod 3 is a unit square: roots +-1/sqrt(7), |2x| = 1.
    ("Q3", "x^2", 0, "1/7", 2),
    # [DERIVED] roots +-1/(3 sqrt(7)) of ord -1, |2x| = 3: 1/3 each.
    ("Q3", "x^2", -1, "1/63", Fraction(2, 3)),
    # [DERIVED] 6/7 = 0 mod 3 and x^3 - x = 0 mod 3 with f' = -1 mod 3:
    # one simple root in each residue class, |f'| = 1.
    ("Q3", "x^3 - x", 0, "6/7", 3),
    # [DERIVED] 1/7 = 1 mod 3 is not a value of x^3 - x mod 3.
    ("Q3", "x^3 - x", 0, "1/7", 0),
    # [DERIVED] 1/9 = 1 mod 8 is a unit square: roots +-1/3, |2x| = 1/2.
    ("Q2", "x^2", 0, "1/9", 4),
    # [DERIVED] 1/7 = 7 mod 8 is not a square in Q_2.
    ("Q2", "x^2", 0, "1/7", 0),
    # [DERIVED] roots +-1/6 of ord -1, |2x| = 1.
    ("Q2", "x^2", -1, "1/36", 2),
    # [DERIVED] ord y = -3 forces ord x = -1; x = u/2 with u^3 - 4u = 3/7,
    # whose only root mod 2 is the simple root 1: one root, |3x^2 - 1| = 4.
    ("Q2", "x^3 - x", -1, "3/56", Fraction(1, 4)),
    # [DERIVED] 3/7 = 4 = 2^2 mod 5: two unit roots, |2x| = 1.
    ("Q5", "x^2", 0, "3/7", 2),
    # [DERIVED] 1/11 = 1 mod 5: roots +-1/(5 sqrt(11)) of ord -1, |2x| = 5.
    ("Q5", "x^2", -1, "1/275", Fraction(2, 5)),
    # [DERIVED] ord y = -3 forces ord x = -1; x = u/5 with u^3 - 25u = 8/7
    # = 4 mod 5, and cubing is a bijection mod 5 with unit derivative at the
    # root u = 4: one root, |3x^2 - 1| = 25.
    ("Q5", "x^3 - x", -1, "8/875", Fraction(1, 25)),
    # [DERIVED] y = t^-2: roots +-t^-1 of ord -1, |2x| = 3: 1/3 each.
    ("F3t", "x^2", -1, ((-2, 1),), Fraction(2, 3)),
    # [DERIVED] y = 2 t^-2: 2 is no square mod 3, so no root.
    ("F3t", "x^2", -1, ((-2, 2),), 0),
    # [DERIVED] y = t^-4 (1 + t), 1 + t a unit square: roots of ord -2,
    # |2x| = 9: 1/9 each.
    ("F3t", "x^2", -2, ((-4, 1), (-3, 1)), Fraction(2, 9)),
    # [DERIVED] y = t^-4: the roots +-t^-2 lie outside B_{-1}.
    ("F3t", "x^2", -1, ((-4, 1),), 0),
    # [DERIVED] y = t^-3 - t^-1 = f(t^-1), and f(x + r) = f(x) for r in F_3,
    # so the roots are t^-1 + r, r = 0, 1, 2; f' = 3x^2 - 1 = -1: 1 each.
    ("F3t", "x^3 - x", -1, ((-3, 1), (-1, 2)), 3),
    # [DERIVED] y = t^-3 forces ord x = -1, x = t^-1 + z with z^3 - z =
    # t^-1, which has no solution (ord z^3 - z is 3 ord z < 0 or >= 0).
    ("F3t", "x^3 - x", -2, ((-3, 1),), 0),
    # [DERIVED] x^2 + x over F_2((t)) has f' = 1.  y = t^-2 + t^-1 =
    # f(t^-1), and the other root is t^-1 + 1: 1 each.
    ("F2t", "x^2 + x", -1, ((-2, 1), (-1, 1)), 2),
    # [DERIVED] y = t^-1: ord f(x) is 2 ord x < 0 or >= 0, never -1.
    ("F2t", "x^2 + x", -1, ((-1, 1),), 0),
    # [DERIVED] y = t^-4 + t^-2 = f(t^-2): roots t^-2 and t^-2 + 1.
    ("F2t", "x^2 + x", -2, ((-4, 1), (-2, 1)), 2),
    # [DERIVED] the same roots have ord -2, outside B_{-1}.
    ("F2t", "x^2 + x", -1, ((-4, 1), (-2, 1)), 0),
    # [DERIVED] y = t^-3 + t^-1 = f(t^-1) for f = x^3 + x, and
    # f - y = (x - a)(x^2 + a x + a^2 + 1), a = t^-1, whose quadratic is
    # a^2 (z^2 + z + 1 + t^2) at x = a z, with no root mod t: one root,
    # f' = x^2 + 1 of ord -2 there, |f'| = 4.
    ("F2t", "x^3 + x", -1, ((-3, 1), (-1, 1)), Fraction(1, 4)),
    ("F2t", "x^3 + x", -2, ((-3, 1), (-1, 1)), Fraction(1, 4)),
]


def _base_point(field, y):
    return Fraction(y) if field.kind == "p-adic" else LaurentPoly(field.p, y)


@pytest.mark.parametrize("fname, f, radius, y, want", NON_INTEGRAL_FIBERS)
def test_pushforward_non_integral_base_points_and_windows(fname, f, radius, y, want):
    field = {**FIELDS, "F2t": F2T}[fname]
    prob = FiberProblem.from_string(f)
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), radius))
    y = _base_point(field, y)
    assert fiber_integrate(prob, phi, y) == scalar(field, want)
    # every fiber point here has ord f' >= -2
    assert pushforward_by_counting(prob, phi, y, 3, 2) == scalar(field, want)


def test_pushforward_cube_map():
    # [DERIVED] x^3 = 1 has the single Q_3 root 1 (the quadratic cofactor
    # x^2 + x + 1 has discriminant -3, not a square); |f'(1)| = |3| = 1/3.
    prob = FiberProblem.from_string("x^3")
    phi = unit_ball_indicator(Q3)
    assert (fiber_integrate(prob, phi, 1) - scalar(Q3, 3)).is_zero()
    assert (fiber_integrate(prob, phi, 8) - scalar(Q3, 3)).is_zero()


def test_pushforward_inseparable_map_is_all_critical():
    # x^3 over F_3((t)) has identically vanishing derivative: every base
    # point is critical and the pushforward density is nowhere defined.
    prob = FiberProblem.from_string("x^3")
    phi = unit_ball_indicator(F3T)
    with pytest.raises(OnDiscriminant):
        fiber_integrate(prob, phi, F3T.one())


# maps whose leading coefficient 3 vanishes over F_3((t)): there 3x^2 + x is
# the etale map x, and 3x^3 + x^2 is x^2, critical at 0 alone
DROPPED_DEGREE_MAPS = ["3*x^2 + x", "3*x^3 + x^2"]


@pytest.mark.parametrize("src", DROPPED_DEGREE_MAPS)
def test_pushforward_where_the_field_drops_the_degree(src):
    # the values are the pushforwards of the maps in the field, checked
    # against counting the solutions of f(x) = y mod t^L at two levels
    problem = FiberProblem.from_string(src)
    t = F3T.uniformizer()
    phi = unit_ball_indicator(F3T)
    two_cells = SchwartzBruhat.indicator(
        Polyball.ball(F3T, (F3T.one(),), 1)
    ) + SchwartzBruhat.indicator(Polyball.ball(F3T, (F3T.mul(t, t),), 2), 3)
    ys = [F3T.from_int(1), F3T.from_int(2), t, F3T.add(t, F3T.one()), F3T.mul(t, t)]
    nonzero = 0
    for g in (phi, two_cells):
        for y in ys:
            got = fiber_integrate(problem, g, y)
            for level in (5, 6):
                assert (got - pushforward_by_counting(problem, g, y, level)).is_zero(), (
                    src,
                    y,
                    level,
                )
            nonzero += not got.is_zero()
    assert nonzero >= 5
    # 0 is critical for x^2 alone
    assert problem.is_critical_value(F3T, F3T.zero()) == (src == "3*x^3 + x^2")
    assert not problem.is_critical_value(F3T, F3T.one())
    assert padic_roots(f"{src} - 1", F3T, 3) == padic_roots(
        poly_to_string(problem.reduced(F3T)[0]) + " - 1", F3T, 3
    )


def test_pushforward_where_the_field_drops_the_degree_values():
    # [DERIVED] 3x^2 + x is x over F_3((t)): f_!(1_O)(y) = 1 for integral y.
    # 3x^3 + x^2 is x^2: y = 1 has the fiber {1, -1}, |f'| = |2x| = 1, so
    # 2; y = t^2 has {t, -t}, |f'| = 1/3, so 6; y = t is no square, so 0;
    # y = 0 is the critical value
    phi = unit_ball_indicator(F3T)
    t = F3T.uniformizer()
    etale = FiberProblem.from_string("3*x^2 + x")
    for y in (F3T.one(), F3T.from_int(2), t, F3T.zero()):
        assert (fiber_integrate(etale, phi, y) - scalar(F3T, 1)).is_zero()
    square = FiberProblem.from_string("3*x^3 + x^2")
    assert square.reduced(F3T)[0] == parse_poly("x^2", ("x",))
    assert (fiber_integrate(square, phi, F3T.one()) - scalar(F3T, 2)).is_zero()
    assert (fiber_integrate(square, phi, F3T.mul(t, t)) - scalar(F3T, 6)).is_zero()
    assert fiber_integrate(square, phi, t).is_zero()
    with pytest.raises(OnDiscriminant):
        fiber_integrate(square, phi, F3T.zero())
    # over Q_3 the degree stays, and so does the discriminant over Z
    assert square.reduced(Q3)[:2] == (square.f, square.disc)


def test_reduced_map_must_stay_nonconstant():
    # [DERIVED] 3x^2 + 3x is 0 over F_3((t)), and 3x^2 + 1 the constant 1.
    # Over Q_3 both keep degree 2: 3x^2 + 3x = 6 at x = 1, -2 with
    # |f'| = |+-9| = 1/9, so 18; 3x^2 + 1 = 4 at x = +-1 with |6x| = 1/3, so 6
    for src, y, want in (("3*x^2 + 3*x", 6, 18), ("3*x^2 + 1", 4, 6)):
        problem = FiberProblem.from_string(src)
        with pytest.raises(FieldError, match="non-constant"):
            fiber_integrate(problem, unit_ball_indicator(F3T), F3T.one())
        got = fiber_integrate(problem, unit_ball_indicator(Q3), y)
        assert (got - scalar(Q3, want)).is_zero()


def test_pushforward_zero_function():
    # [TRIVIAL]
    prob = FiberProblem.from_string("x^2")
    zero = SchwartzBruhat(Q3, 1, (0,), {})
    assert fiber_integrate(prob, zero, 1).is_zero()


@pytest.mark.parametrize("field", [Q3, F3T], ids=repr)
def test_pushforward_zero_function_still_refuses_critical_values(field):
    # a zero phi has no root search to read ord disc_K(y) on, yet y = 0 is
    # still the critical value of x^2, and y = 1 a regular one
    prob = FiberProblem.from_string("x^2")
    zero = SchwartzBruhat.zero(field, 1)
    with pytest.raises(OnDiscriminant):
        fiber_integrate(prob, zero, 0)
    with pytest.raises(OnDiscriminant):
        fiber_integrate(prob, zero, field.zero())
    assert fiber_integrate(prob, zero, 1).is_zero()
    assert fiber_integrate(prob, zero, field.one()).is_zero()


@pytest.mark.parametrize("field", [Q3, F3T], ids=repr)
def test_is_critical_value_takes_an_int(field):
    # an int y is the element from_int(y), as in fiber_integrate; for x^2
    # only y = 0 is critical
    prob = FiberProblem.from_string("x^2")
    for y, want in ((0, True), (1, False), (4, False)):
        assert prob.is_critical_value(field, y) is want
        assert prob.is_critical_value(field, field.from_int(y)) is want


# (field, map, its critical values among the ints 0..5 in that field)
DISC_READS = [
    (Q3, "x^3 - 3*x", {2}),
    (F2T, "x^3 - 3*x", {0, 2, 4}),
    (F3T, "x^4 - 2*x^2", {0, 2, 3, 5}),
]


@pytest.mark.parametrize("field, src, critical", DISC_READS, ids=repr)
def test_value_paths_read_ord_disc_on_the_search_codes(field, src, critical, monkeypatch):
    # fiber_integrate with a nonzero phi and level_measure read ord disc_K(y)
    # through the root search's codes (_Search.ord_at), never by evaluating
    # disc_K on fresh codes of their own (MultiPoly.ord_field)
    def refused(*args):
        raise AssertionError("a value path evaluated disc_K with ord_field")

    monkeypatch.setattr(MultiPoly, "ord_field", refused)
    prob = FiberProblem.from_string(src)
    phi = unit_ball_indicator(field)
    for y in range(6):
        if y in critical:
            with pytest.raises(OnDiscriminant):
                fiber_integrate(prob, phi, y)
        else:
            fiber_integrate(prob, phi, y)
    level_measure(prob, phi, eps_values=(0, 1))


def test_pushforward_dimension_check():
    prob = FiberProblem.from_string("x^2")
    two_dim = SchwartzBruhat.indicator(
        Polyball.ball(Q3, (Q3.zero(), Q3.zero()), 0)
    )
    with pytest.raises(FieldError):
        fiber_integrate(prob, two_dim, 1)


def test_problem_requires_nonconstant_map():
    with pytest.raises(FieldError):
        FiberProblem.from_string("7")


# ---------------------------------------------------------------------------
# change of variables: integral of g(f(x)) phi(x) dx equals
# integral of g(y) f_!(phi)(y) dy, both sides by stabilized cell sums
# ---------------------------------------------------------------------------


def _cell_sum_left(problem, phi, g, level):
    field = phi.field
    flat = phi.refine((level,))
    total = CycloScalar.zero(field.p)
    for (c,), coef in flat.cells.items():
        y = problem.f.eval_field(field, (c,))
        total = total + coef * g.eval_at((y,))
    return total.q_shift(-2 * level)


def _cell_sum_right(problem, phi, g, level):
    field = phi.field
    flat = g.refine((level,))
    total = CycloScalar.zero(field.p)
    for (c,), coef in flat.cells.items():
        total = total + coef * fiber_integrate(problem, phi, c)
    return total.q_shift(-2 * level)


def _stabilized(summand, start, cap=8):
    level = start
    value = summand(level)
    for _ in range(cap):
        nxt = summand(level + 1)
        if (nxt - value).is_zero():
            return value
        value = nxt
        level += 1
    raise AssertionError("cell sums failed to stabilize")


def _away_from_critical(problem, g):
    """Drop the cells of g whose closure meets the critical-value set."""
    field = g.field
    if g.is_zero():
        return g
    support, _ = g.alpha_bounds()
    level = g.levels[0]
    # a unit-constant locus polynomial simply has no roots; any FieldError
    # here (a repeated root of the locus) must fail the test, not hide
    critical = padic_roots(problem.disc, field, level + 1, window=min(support, 0))
    cells = {
        (c,): coef
        for (c,), coef in g.cells.items()
        if all(field.ord(field.sub(c, z)) < level for z in critical)
    }
    return SchwartzBruhat(field, 1, g.levels, cells)


def test_change_of_variables_random():
    rng = rng_for("fibers:change-of-variables")
    fields = [Q2, Q3, Q5, F3T]
    maps = [FiberProblem.from_string("x^2"), FiberProblem.from_string("x^3 - x")]
    checked = 0
    for trial in range(32):
        field = fields[trial % 4]
        problem = maps[trial % 2]
        phi = random_sb(field, rng, sizes=(0, 1, 0))
        g = _away_from_critical(problem, random_sb(field, rng, sizes=(0, 1, 0)))
        start = max(phi.levels[0], g.levels[0], 1)
        left = _stabilized(lambda L: _cell_sum_left(problem, phi, g, L), start)
        right = _stabilized(lambda L: _cell_sum_right(problem, phi, g, L), start)
        assert (left - right).is_zero(), (field, poly_to_string(problem.f))
        if not left.is_zero():
            checked += 1
    assert checked >= 8  # the loop must exercise nontrivial instances


def test_change_of_variables_shifted_supports():
    # same identity with phi and g living on shifted balls
    rng = rng_for("fibers:change-of-variables-shift")
    problem = FiberProblem.from_string("x^2")
    for field in (Q2, Q3, F3T):
        shift = field.from_int(1 + field.p)
        ball = Polyball.ball(field, (shift,), 1)
        phi = SchwartzBruhat.indicator(ball)
        g = _away_from_critical(problem, random_sb(field, rng, sizes=(0, 1, 0)))
        left = _stabilized(lambda L: _cell_sum_left(problem, phi, g, L), 2)
        right = _stabilized(lambda L: _cell_sum_right(problem, phi, g, L), 2)
        assert (left - right).is_zero()


# ---------------------------------------------------------------------------
# level scans
# ---------------------------------------------------------------------------


def test_level_measure_square_map_small_grid():
    # [DERIVED] f = x^2 on Z_3.  At eps = 0 the scan sees only unit y,
    # where square/non-square is decided mod 3: mu = 1.  At eps = 2 the
    # cells 9 mod 27 (value 6) and 18 mod 27 (value 0) force mu = 3.
    # Restricting phi to B_1(1) makes the density the indicator of B_1(1)
    # (the square map is a bijection there): mu = 1 on every eps row.
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q3)
    rep = level_measure(prob, phi, eps_values=(0, 1, 2), m_values=(0, 1))
    assert [rep.mu(e, 0) for e in (0, 1, 2)] == [1, 1, 3]
    assert [rep.mu(e, 1) for e in (0, 1, 2)] == [1, 1, 1]
    a, b, c = rep.fit
    assert (a, b, c) == (Fraction(2), Fraction(0), Fraction(1))
    assert rep.fit_dominates()
    assert rep.window == 0
    # the eps = 2 region strictly contains the eps = 0 region
    assert rep.cells[(2, 0)] > rep.cells[(0, 0)]


def test_level_measure_rows_monotone_in_eps():
    # shrinking the excluded neighborhood can only refine the level
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q3)
    rep = level_measure(prob, phi, eps_values=(0, 1, 2, 3), m_values=(0,))
    mus = [rep.mu(e, 0) for e in (0, 1, 2, 3)]
    assert mus == sorted(mus)


def test_level_measure_json_round_trip():
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q3)
    rep = level_measure(prob, phi, eps_values=(0, 1), m_values=(0, 1))
    back = LevelReport.from_json(rep.to_json())
    assert back.rows == rep.rows
    assert back.cells == rep.cells
    assert back.fit == rep.fit
    assert back.f_text == rep.f_text == "x^2"
    assert back.field is rep.field
    assert back.fit_dominates()


def test_level_measure_budget_overrun_is_a_cell_budget_error():
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q3)
    with pytest.raises(CellBudgetError, match="level scan: 27 cells requested, 10 allowed"):
        level_measure(prob, phi, eps_values=(0,), cell_budget=10)


def test_level_measure_validation():
    prob = FiberProblem.from_string("x^2")
    phi = unit_ball_indicator(Q3)
    with pytest.raises(FieldError):
        level_measure(prob, phi, eps_values=())
    with pytest.raises(FieldError):
        level_measure(prob, phi, eps_values=(0, 4), resolution=3)
    with pytest.raises(FieldError):
        level_measure(prob, phi, eps_values=(0,), cell_budget=10)
    two_dim = SchwartzBruhat.indicator(
        Polyball.ball(Q3, (Q3.zero(), Q3.zero()), 0)
    )
    with pytest.raises(FieldError):
        level_measure(prob, two_dim, eps_values=(0,))


def test_level_measure_etale_map_is_flat():
    # [DERIVED] f = x^3 - x over F_3((t)) has unit derivative everywhere
    # (f' = -1), so the density is determined at level max(1, m) and no
    # eps dependence appears.
    prob = FiberProblem.from_string("x^3 - x")
    phi = unit_ball_indicator(F3T)
    rep = level_measure(prob, phi, eps_values=(0, 1, 2), m_values=(0,))
    mus = [rep.mu(e, 0) for e in (0, 1, 2)]
    assert mus[0] == mus[1] == mus[2]
    a, _, _ = rep.fit
    assert a == 0


@pytest.mark.parametrize("field", [Q3, F3T], ids=["Q3", "F3t"])
def test_level_measure_shared_critical_value(field):
    # [DERIVED] f = x^4 - 2x^2 has critical points 0 and +-1 with critical
    # values 0 and -1; the two points +-1 share a value, so
    # disc = -256*y*(1 + y)^2 has a repeated root and only its squarefree
    # part y*(1 + y) gives the critical values.  With u = x^2 the fiber
    # equation is (u - 1)^2 = y + 1.  The resolution is 3, so the region is
    # Z mod pi^3 (27 cells).  eps = 0 keeps the 9 cells with y = 1 mod pi,
    # where y + 1 = 2 is no square mod 3; eps = 1 adds the 12 cells with
    # ord y = 1 or ord(y + 1) = 1.  At ord(y + 1) = 1 the valuation is odd;
    # at ord y = 1, u = 1 + s or 1 - s with s = 1 mod pi, giving u = 2 mod pi
    # (no square) or ord u = 1 (odd).  So the pushforward of 1_Z vanishes on
    # the whole scanned region and is constant already at level 0.
    prob = FiberProblem.from_string("x^4 - 2*x^2")
    rep = level_measure(prob, unit_ball_indicator(field), eps_values=(0, 1))
    assert isinstance(rep, LevelReport)
    assert rep.rows == {(0, 0): 0, (1, 0): 0}
    assert rep.cells == {(0, 0): 9, (1, 0): 21}
    assert rep.fit == (0, 0, 0)
    locus = prob.critical_locus(field)
    assert locus.degree_in(0) == 2
    coeffs = x_coeffs_at(field, locus, ())
    assert field.is_zero(eval_coeffs_at(field, coeffs, field.zero()))
    assert field.is_zero(eval_coeffs_at(field, coeffs, field.from_int(-1)))


def test_level_measure_discriminant_inseparable_mod_p():
    # [DERIVED] f = x^3 - 3x has disc = -27*(y^2 - 4) over Z, squarefree
    # over Q, but over F_2((t)) it is y^2: a repeated root at 0 with a
    # vanishing derivative, so its squarefree part is y.  Over F_2,
    # f = x(x + 1)^2 maps Z into (t), so the pushforward of 1_Z vanishes on
    # units (mu = 0 at eps = 0).  On (t), f' = x^2 + 1 is a unit and f is
    # an isometry of (t) onto itself, while x = 1 mod t gives ord f even:
    # every y of valuation 1 has exactly one fiber point, with |f'| = 1, so
    # the density is 1 on (t) \ (t^2) and 0 on units, constant mod t
    # (mu = 1 at eps = 1).  The resolution is 4: 8, 12 and 14 of the 16
    # cells have ord y <= 0, 1 and 2.
    f2t = make_field("equal-characteristic", 2)
    prob = FiberProblem.from_string("x^3 - 3*x")
    rep = level_measure(prob, unit_ball_indicator(f2t), eps_values=(0, 1, 2))
    assert rep.mu(0, 0) == 0
    assert rep.mu(1, 0) == 1
    assert rep.cells == {(0, 0): 8, (1, 0): 12, (2, 0): 14}
    assert rep.fit_dominates()
    locus = prob.critical_locus(f2t)
    assert locus.degree_in(0) == 1
    coeffs = x_coeffs_at(f2t, locus, ())
    assert f2t.is_zero(eval_coeffs_at(f2t, coeffs, f2t.zero()))


# the critical loci the element-level squarefree algebra printed, pinned as
# exact integer polynomials: the locus is the same polynomial, not just one
# with the same roots.  An empty dict is the zero polynomial, where disc_K
# vanishes identically (f_K' = 0).
CRITICAL_LOCI = {
    ("x^4 - 2*x^2", "Q3"): {1: -9, 2: -9},
    ("x^4 - 2*x^2", "F2t"): {},
    ("x^4 - 2*x^2", "F3t"): {1: 1, 2: 1},
    ("x^3 - 3*x", "Q3"): {0: 4, 2: -1},
    ("x^3 - 3*x", "F2t"): {1: 1},
    ("x^3 - 3*x", "F3t"): {},
    ("x^3 - x", "Q3"): {0: 4, 2: -27},
    ("x^3 - x", "F2t"): {1: 1},
    ("x^3 - x", "F3t"): {0: 2},
    ("x^2", "Q3"): {1: 1},
    ("x^2", "F2t"): {},
    ("x^2", "F3t"): {1: 1},
}


@pytest.mark.parametrize("src, key", CRITICAL_LOCI, ids=[f"{s}:{k}" for s, k in CRITICAL_LOCI])
def test_critical_locus_pins(src, key):
    field = {"Q3": Q3, "F2t": F2T, "F3t": F3T}[key]
    locus = FiberProblem.from_string(src).critical_locus(field)
    assert locus == MultiPoly(1, {(i,): c for i, c in CRITICAL_LOCI[src, key].items()})


# (field, map, support radius of phi, eps values, m values): the inputs of
# the level_measure tests above, the fiber workload's x^2 + b for every b it
# draws (b = r p + s, 0 < r < p, 0 <= s < p), phi on B_{-1}(0), and m up to 2
LEVEL_SCANS = (
    [
        (Q3, "x^2", 0, (0, 1, 2), (0, 1)),
        (Q3, "x^2", 0, (0, 1, 2, 3), (0,)),
        (Q3, "x^2", 0, (0, 1), (0, 1)),
        (F3T, "x^3 - x", 0, (0, 1, 2), (0,)),
        (Q3, "x^4 - 2*x^2", 0, (0, 1), (0,)),
        (F3T, "x^4 - 2*x^2", 0, (0, 1), (0,)),
        (F2T, "x^3 - 3*x", 0, (0, 1, 2), (0,)),
    ]
    + [
        (field, f"x^2 + {r * field.p + s}", 0, eps, (0,))
        for field, eps in ((Q2, (0, 1, 2)), (Q3, (0, 1, 2)), (F3T, (0, 1, 2)), (Q5, (0, 1)))
        for r in range(1, field.p)
        for s in range(field.p)
    ]
    + [
        (Q3, "x^2", -1, (0, 1, 2), (0, 1, 2)),
        (F3T, "x^2", -1, (0, 1), (0, 1, 2)),
        (Q2, "x^3 - x", -1, (0, 1), (0, 2)),
        (Q2, "x^2 + 3*x", 0, (0, 1, 2), (0, 1, 2)),
        (Q5, "x^3 + 2*x", 0, (0, 1), (0, 1, 2)),
        (F3T, "x^2 + 3*x", 0, (0, 1, 2), (0, 1, 2)),
    ]
    # maps whose degree drops over F_3((t)), which level_measure once refused
    + [(F3T, src, 0, (0, 1, 2), (0, 1)) for src in DROPPED_DEGREE_MAPS]
    # eps below lo = min(window, 0), where no centre is at proximity <= eps
    # from a critical value, and a negative window over F_2((t))
    + [
        (Q3, "x^2", -1, (-4, -3, -2, 0), (0,)),
        (F3T, "x^2", -1, (-4, -3, -2, 0), (0,)),
        (F2T, "x^3 - x", -1, (-4, -3, 1), (0, 1)),
        (Q3, "3*x^2 - 2*x", 0, (-2, -1, 0, 1), (0,)),
    ]
)


@pytest.mark.parametrize(
    "field, src, radius, eps, ms",
    LEVEL_SCANS,
    ids=[f"{f!r}:{src}:r{r}:m{max(ms)}" for f, src, r, _, ms in LEVEL_SCANS],
)
def test_level_scan_matches_the_per_centre_reference(field, src, radius, eps, ms, monkeypatch):
    # the reference calls the public fiber_integrate at every scanned centre,
    # so it raises OnDiscriminant if the scan reaches a critical value; the
    # scan itself reads ord disc(y) at most once per centre
    problem = FiberProblem.from_string(src)
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), radius))
    reads: dict = {}
    once = fibers._once

    def counted_once(read):
        key = len(reads)
        reads[key] = 0

        def counted():
            reads[key] += 1
            return read()

        return once(counted)

    monkeypatch.setattr(fibers, "_once", counted_once)
    rep = level_measure(problem, phi, eps_values=eps, m_values=ms)
    assert (rep.rows, rep.cells) == level_rows_by_fiber_integrate(problem, phi, rep)
    assert max(reads.values(), default=0) <= 1


@pytest.mark.parametrize(
    "field, src, radius, eps, ms",
    LEVEL_SCANS,
    ids=[f"{f!r}:{src}:r{r}:m{max(ms)}" for f, src, r, _, ms in LEVEL_SCANS],
)
def test_level_rows_are_within_the_a_priori_bound(field, src, radius, eps, ms):
    """Every measured row of ``level_measure`` is at most the bound of
    ``oracles.level_bounds_by_fiber_points``.

    The bound.  Let y be a regular value, x_i its fiber points in the
    support of phi, v_i = ord f'(x_i), L the constancy level of phi and
    L_i = max(L, v_i + 1).  For integral x_i the Taylor coefficients of f
    at x_i are integral, so for ord e >= L_i > v_i the terms of degree
    >= 2 of f(x_i + e) have ord >= 2 L_i > L_i + v_i, and f maps
    B_{L_i}(x_i) one-to-one onto B_{L_i+v_i}(y): the decided-cell test of
    the ``fibers`` module docstring at w = c = 0, which the root search
    rests on.  On that ball phi is constant (L_i >= L) and ord f' = v_i
    (L_i > v_i).  So every y' in B_M(y), M = max_i (L_i + v_i), has one
    fiber point in each B_{L_i}(x_i) with the weight phi / |f'| of x_i,
    and f_!(phi)(y') = f_!(phi)(y) as long as no further fiber point of y'
    lies in the support.  Then f_!(phi) is constant on every level-B cell
    of the scanned region, B the largest M over its centres: a cell with a
    centre y that has fiber points lies in B_M(y), and a cell with none
    holds the value 0 at each centre.  Hence mu <= max(B, min(window, 0)),
    the least level the scan tries.

    The test checks the premise too: where phi reaches below the integers
    the fiber points need not be integral, and a fiber point entering the
    support from outside those balls would break the bound.
    """
    problem = FiberProblem.from_string(src)
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), radius))
    rep = level_measure(problem, phi, eps_values=eps, m_values=ms)
    bounds = level_bounds_by_fiber_points(problem, phi, rep)
    assert bounds.keys() == rep.rows.keys()
    over = {key: (mu, bounds[key]) for key, mu in rep.rows.items() if mu > bounds[key]}
    assert not over, over


# (field, map, support radius of phi): scans whose searches share one codes
# format over many centres; over F_3((t)) and F_2((t)) some centres take the
# restart past the codes' limit
SHARED_SCANS = [
    (Q3, "x^2 + 1", 0),
    (Q2, "x^3 - x", -1),
    (F3T, "x^2", 0),
    (F2T, "x^3 - x", 0),
]


@pytest.mark.parametrize(
    "field, src, radius", SHARED_SCANS, ids=[f"{f!r}:{s}:r{r}" for f, s, r in SHARED_SCANS]
)
def test_scan_shared_search_matches_one_point_searches(field, src, radius, monkeypatch):
    # every root search that level_measure runs on its scan-shared search
    # returns, once its root codes are decoded and truncated at k, the
    # (root, ord f') pairs of a search built for that centre alone; the
    # F_p((t)) scans include centres whose search restarts with codes for
    # that centre alone (a walk_codes call inside ``root_codes``)
    problem = FiberProblem.from_string(src)
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), radius))
    disc = problem.reduced(field)[1]
    real_roots, real_codes = _Search.root_codes, fibers.walk_codes
    runs, inside = [], []

    def recorded(self, base, res_ord):
        inside.append(0)
        got = real_roots(self, base, res_ord)
        runs.append((self, base, got, inside.pop()))
        return got

    def counted(*args):
        if inside:
            inside[-1] += 1
        return real_codes(*args)

    monkeypatch.setattr(_Search, "root_codes", recorded)
    monkeypatch.setattr(fibers, "walk_codes", counted)
    level_measure(problem, phi, eps_values=(0, 1, 2), m_values=(0, 1))
    per_search: dict = {}
    for run in runs:
        per_search[id(run[0])] = per_search.get(id(run[0]), 0) + 1
    scan = [run for run in runs if per_search[id(run[0])] > 1]
    assert len(scan) >= field.q**2
    monkeypatch.setattr(_Search, "root_codes", real_roots)
    for search, base, got, _ in scan:
        decoded = [
            (field.canon_trunc(codes.element(a), search.k), v) for codes, a, _, v in got
        ]
        alone = _Search(field, search.forms, [base], search.window, search.k)
        want = alone.roots(base, lambda: disc.ord_field(field, base))
        decoded.sort(key=lambda pair: (fibers._elem_sort_key(pair[0]), pair[1]))
        assert decoded == want
    restarts = sum(1 for *_, codes in scan if codes)
    if field.kind != "p-adic":
        assert restarts >= 1
    assert all(codes <= 1 for *_, codes in scan)


@pytest.mark.parametrize("field", [Q3, F3T], ids=repr)
def test_level_measure_eps_below_the_window(field):
    # [DERIVED] x^2 maps the support B_{-1}(0) of phi into B_{-2}(0):
    # window -2 and resolution 3, so 3^5 = 243 centres with digits in
    # [-2, 3).  Every one is at proximity >= -2 from the critical value 0,
    # so eps = -4 and eps = -3 scan none, and mu is the least level tried,
    # -2.  At m = 0 phi is restricted to B_0(1) = O, which x^2 maps into O:
    # the 162 centres of ord -2 that eps = -2 keeps all have the value 0.
    # eps = 0 adds the 54 centres of ord -1, also of value 0, and the 18
    # units, where the value is 2 on the squares (1 mod pi) and 0 on the
    # others, so mu = 1.
    problem = FiberProblem.from_string("x^2")
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), -1))
    rep = level_measure(problem, phi, eps_values=(-4, -3, -2, 0))
    assert (rep.window, rep.resolution) == (-2, 3)
    assert rep.rows == {(-4, 0): -2, (-3, 0): -2, (-2, 0): -2, (0, 0): 1}
    assert rep.cells == {(-4, 0): 0, (-3, 0): 0, (-2, 0): 162, (0, 0): 234}


def test_level_measure_critical_value_below_the_window():
    # [DERIVED] f = 3x^2 - 2x over Q_3 has its critical point at 1/3 and
    # its critical value f(1/3) = -1/3, of ord -1, below the window 0 of
    # phi = 1_O.  Every centre y in O is at proximity ord(y + 1/3) = -1
    # from it, so eps = -2 scans none of the 27 centres and eps >= -1 all
    # of them.  f'(x) = 6x - 2 is a unit on O and f(x) - f(x') =
    # (x - x')(3(x + x') - 2), so f maps O one-to-one onto O with |f'| = 1:
    # the pushforward is 1 on O, constant at the least level tried, 0.
    problem = FiberProblem.from_string("3*x^2 - 2*x")
    rep = level_measure(problem, unit_ball_indicator(Q3), eps_values=(-2, -1, 0, 1))
    assert (rep.window, rep.resolution) == (0, 3)
    assert rep.cells == {(-2, 0): 0, (-1, 0): 27, (0, 0): 27, (1, 0): 27}
    assert set(rep.rows.values()) == {0}
    assert fiber_integrate(problem, unit_ball_indicator(Q3), 5) == scalar(Q3, 1)


@pytest.mark.parametrize("src, field", [("x^2", F2T), ("x^3", F3T)], ids=["x^2:F2t", "x^3:F3t"])
def test_level_measure_refuses_an_identically_vanishing_discriminant(src, field):
    # f' = 0 in the field, so every value is critical (fiber_integrate
    # raises OnDiscriminant at any y); the scan says so before it searches
    # for critical values
    problem = FiberProblem.from_string(src)
    phi = unit_ball_indicator(field)
    with pytest.raises(OnDiscriminant):
        fiber_integrate(problem, phi, field.one())
    with pytest.raises(FieldError, match="discriminant of .* vanishes identically"):
        level_measure(problem, phi, eps_values=(0, 1))


# the Q_3 and F_3((t)) scans of 1_O under x^2 + 7 and x^2 + 4 at eps 0, 1, 2
# (78 centres, 3 mu rows): canon_trunc calls at every level the scan works
# on integer codes and the value kernel reads phi off the roots' walk codes;
# a kernel that truncates each root as an element makes 69 and 75, and a mu
# search that truncates the centres per candidate level over 300
TRUNCATIONS = [(Q3, "x^2 + 7", 3), (F3T, "x^2 + 4", 3)]


@pytest.mark.parametrize("field, src, calls", TRUNCATIONS, ids=["Q3", "F3t"])
def test_level_scan_truncation_count(field, src, calls, monkeypatch):
    kind = type(field)
    real = kind.canon_trunc
    count = []

    def counted(self, a, r):
        count.append(r)
        return real(self, a, r)

    problem = FiberProblem.from_string(src)
    phi = unit_ball_indicator(field)
    monkeypatch.setattr(kind, "canon_trunc", counted)
    rep = level_measure(problem, phi, eps_values=(0, 1, 2))
    assert rep.cells == {(0, 0): 54, (1, 0): 72, (2, 0): 78}
    assert len(count) == calls


@pytest.mark.parametrize(
    "field, src, radius", SHARED_SCANS, ids=[f"{f!r}:{s}:r{r}" for f, s, r in SHARED_SCANS]
)
def test_scan_search_reads_ord_disc_on_its_codes(field, src, radius):
    # a search built, as both value paths build it, on the forms of
    # FiberProblem.reduced, whose third is the discriminant's int_form,
    # reads ord disc_K(y) at each of its base points as the polynomial's
    # own evaluation does (INF at a critical value, such as 1 for x^2 + 1
    # over Q_3 or 0 for x^2 over F_3((t)))
    problem = FiberProblem.from_string(src)
    _, disc, forms = problem.reduced(field)
    assert forms[2] == int_form(field, disc.coeffs)
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), radius))
    ys = [c for (c,) in Polyball.ball(field, (field.zero(),), -2).cells_at_level(2)]
    search = fibers._value_search(forms, phi, ys)
    got = [search.ord_at(forms[2], (y,)) for y in ys]
    assert got == [disc.ord_field(field, (y,)) for y in ys]


@pytest.mark.parametrize("field", [Q3, F2T, F3T], ids=repr)
def test_level_measure_takes_an_int_x0(field):
    # an int x0 is the element from_int(x0), as y is in fiber_integrate
    problem = FiberProblem.from_string("x^3 - x")
    phi = unit_ball_indicator(field)
    for x0 in (3, 1, -2):
        got = level_measure(problem, phi, (0, 1), (0, 1), x0=x0)
        want = level_measure(problem, phi, (0, 1), (0, 1), x0=field.from_int(x0))
        assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# problem serialization and rendering
# ---------------------------------------------------------------------------


def test_problem_json_round_trip():
    prob = FiberProblem.from_string("x^3 - x")
    back = FiberProblem.from_json(prob.to_json())
    assert back.f == prob.f
    assert back.disc == prob.disc


def test_poly_rendering_round_trip():
    rng = rng_for("fibers:poly-text")
    for _ in range(50):
        coeffs = {
            (e,): rng.randrange(-9, 10)
            for e in range(rng.randrange(1, 5))
            if rng.random() < 0.8
        }
        poly = MultiPoly(1, coeffs)
        text = poly_to_string(poly)
        assert parse_poly(text, ("x",)) == poly, text


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.integers(-9, 9).filter(bool),
)
def test_poly_text_round_trips_with_negative_leading_coefficients(low, lead):
    poly = MultiPoly(1, {(e,): c for e, c in enumerate(low + [lead])})
    assert parse_poly(poly_to_string(poly), ("x",)) == poly
    problem = FiberProblem(poly)
    assert FiberProblem.from_json(problem.to_json()) == problem


def test_poly_rendering_examples():
    # [TRIVIAL]
    assert poly_to_string(parse_poly("x^2", ("x",))) == "x^2"
    assert poly_to_string(parse_poly("x^3 - x", ("x",))) == "x^3 - x"
    assert poly_to_string(parse_poly("0 - x", ("x",))) == "-x"
    assert poly_to_string(parse_poly("2*x^2 - 3*x + 7", ("x",))) == "2*x^2 - 3*x + 7"
    assert poly_to_string(parse_poly("x - x", ("x",))) == "0"

"""Cell calculus for locally constant compactly supported functions.

Transform and convolution results are pinned against brute-force Riemann-sum
oracles; structural identities run as seeded random property loops.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umla.cyclo import CycloScalar
from umla.fields import FieldError, LocalField, Polyball, make_field, vec_add
from umla.schwartz import CellBudgetError, SchwartzBruhat, make_sb

from conftest import CELL_FIELDS, FIELDS, rng_for, sample_element, sample_scalar
from oracles import (
    children_by_field_ops,
    convolve_by_pairs,
    fourier_by_pairs,
    refine_by_field_ops,
    riemann_fourier,
    riemann_integral,
)


def spread(field):
    """(level_lo, level_hi, ord_lo) sized so transforms stay within budget."""
    return (0, 1, 0) if field.q >= 5 else (-1, 2, -1)


def random_sb(field, rng, n=1, max_cells=3, sizes=None):
    """Random small cell function with centers of controlled valuation."""
    level_lo, level_hi, ord_lo = sizes if sizes is not None else spread(field)
    levels = tuple(rng.randrange(level_lo, level_hi + 1) for _ in range(n))
    cells = {}
    for _ in range(rng.randrange(1, max_cells + 1)):
        center = tuple(
            sample_element(field, rng, ord_lo, max(levels) + 1) for _ in range(n)
        )
        num = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        cells[center] = CycloScalar.fraction(field.p, num)
    return SchwartzBruhat(field, n, levels, cells)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_alpha_bounds_ball_indicator_q3():
    # [DERIVED] indicator of B_2(1) in Q_3: support bound 0, constancy level 2.
    field = make_field("p-adic", 3)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(1),), 2))
    assert f.alpha_bounds() == (0, 2)


def test_alpha_bounds_modulated_unit_ball_q2():
    # [DERIVED] psi(x) on Z_2 refines to level 1 and has support bound 0.
    field = make_field("p-adic", 2)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), 0))
    g = f.modulate((field.one(),))
    assert g.alpha_bounds() == (0, 1)
    # its mean vanishes: psi(0) + psi(1) = 1 - 1 = 0 on the two level-1 cells
    assert g.integrate().is_zero()


def test_fourier_of_small_ball_q2():
    # [DERIVED] transform of 1_{B_1(1)} over Q_2 is (1/2) psi(xi) 1_{B_0}(xi):
    # value -1/2 at xi=1, +1/2 at xi=0, and 0 outside the unit ball.
    field = make_field("p-adic", 2)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(1),), 1))
    g = f.fourier()
    assert g.eval_at((Fraction(1),)).as_fraction() == Fraction(-1, 2)
    assert g.eval_at((Fraction(0),)).as_fraction() == Fraction(1, 2)
    assert g.eval_at((Fraction(1, 2),)).is_zero()
    assert g.alpha_bounds() == (1 - 1, 1 - 0)  # (1-alpha^+, 1-alpha^-)


def test_double_fourier_unit_ball_q3():
    # [DERIVED] applying the transform twice to 1_{Z_3} gives (1/3) 1_{Z_3}.
    field = make_field("p-adic", 3)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), 0))
    g = f.fourier().fourier()
    assert g.equals(f.scale(Fraction(1, 3)))


def test_convolution_of_nested_balls_q3():
    # [DERIVED] 1_{B_1(0)} * 1_{B_0(0)} = vol(B_1) 1_{B_0(0)} over Q_3.
    field = make_field("p-adic", 3)
    small = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), 1))
    big = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), 0))
    got = small.convolve(big)
    assert got.equals(big.scale(Fraction(1, 3)))


def test_integrate_laurent_big_ball():
    # [TRIVIAL] vol(B_{-1}(0)) = 3 over F_3((t)).
    field = make_field("equal-characteristic", 3)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), -1))
    assert f.integrate().as_fraction() == 3


def test_normalized_merges_full_sibling_sets():
    field = make_field("p-adic", 5)
    parent = Polyball.ball(field, (Fraction(2),), 1)
    f = make_sb((child, Fraction(3, 7)) for child in children_by_field_ops(parent))
    g = f.normalized()
    assert g.levels == (1,)
    assert g.equals(SchwartzBruhat.indicator(parent, Fraction(3, 7)))
    assert f.alpha_bounds() == (0, 1)


NORMAL_FIELDS = [
    make_field(kind, p)
    for kind, p in [("p-adic", 2), ("p-adic", 3)]
    + [("equal-characteristic", 2), ("equal-characteristic", 3)]
]


@pytest.mark.parametrize("field", NORMAL_FIELDS, ids=repr)
def test_normal_form_is_kept_and_matches_a_fresh_function(field):
    # random functions refined one or two levels past their own, so the
    # normal form coarsens; the kept normal form, its bounds and the
    # transform that reads it equal those of a freshly built equal function
    rng = rng_for(f"schwartz:normal-form:{field!r}")
    coarsened = 0
    for _ in range(25):
        f = random_sb(field, rng, n=rng.choice([1, 2]))
        if f.is_zero():
            continue
        f = f.refine(tuple(r + rng.randrange(0, 3) for r in f.levels))
        g = f.normalized()
        assert f.normalized() is g
        assert g.normalized() is g
        assert f.alpha_bounds() == g.alpha_bounds()
        fresh = SchwartzBruhat(field, f.n, f.levels, dict(f.cells))
        want = fresh.normalized()
        assert (g.levels, g.cells) == (want.levels, want.cells)
        assert f.alpha_bounds() == fresh.alpha_bounds()
        assert f.fourier().cells == fresh.fourier().cells
        assert f.normalized() is g
        coarsened += g.levels != f.levels
    assert coarsened >= 10


def test_normal_form_of_a_normal_or_zero_function_is_itself():
    field = make_field("p-adic", 3)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(1),), 2))
    assert f.normalized() is f
    zero = SchwartzBruhat.zero(field, 2)
    assert zero.normalized() is zero


@pytest.mark.parametrize("field", NORMAL_FIELDS, ids=repr)
def test_cell_coefficients_are_coerced(field):
    # ints and Fractions become rational scalars, as in ``indicator``
    zero = (field.zero(),)
    f = SchwartzBruhat(field, 1, 0, {zero: 1})
    assert f.cells == {zero: CycloScalar.fraction(field.p, Fraction(1))}
    g = SchwartzBruhat(field, 1, 0, {zero: Fraction(-2, 3), (field.one(),): 0})
    assert g.cells == {zero: CycloScalar.fraction(field.p, Fraction(-2, 3))}
    assert f.equals(SchwartzBruhat.indicator(Polyball.ball(field, zero, 0)))


def test_cell_coefficients_of_other_types_are_refused():
    field = make_field("p-adic", 3)
    assert SchwartzBruhat(field, 1, 0, {(0,): 1}).integrate().as_fraction() == 1
    for bad in (0.5, "1", None, CycloScalar.fraction(2, Fraction(1))):
        with pytest.raises(FieldError):
            SchwartzBruhat(field, 1, 0, {(0,): bad})


@pytest.mark.parametrize("key", ["Q3", "F3t"])
def test_points_and_balls_of_another_space_are_refused(key):
    # a 2-D function refuses points and cell centres of 1 or 3 coordinates,
    # where zip would read a truncated point, and balls over the other field
    # of the same p or of another dimension
    field = FIELDS[key]
    other = FIELDS["F3t" if key == "Q3" else "Q3"]
    zero, one = field.zero(), field.one()
    f = SchwartzBruhat.indicator(Polyball.ball(field, (zero, zero), 0))
    for xs in ((zero,), (zero, zero, zero)):
        with pytest.raises(FieldError, match="expected 2 coordinates"):
            SchwartzBruhat(field, 2, 0, {xs: 1})
        for op in (f.eval_at, f.translate, f.modulate):
            with pytest.raises(FieldError, match="expected 2 coordinates"):
                op(xs)
    for ball in (
        Polyball.ball(other, (other.zero(), other.zero()), 0),
        Polyball.ball(field, (zero,), 0),
        Polyball.ball(field, (zero, zero, zero), 0),
    ):
        with pytest.raises(FieldError, match="different space"):
            f.restrict(ball)
    assert f.eval_at([one, zero]) == f.eval_at((zero, one)) == CycloScalar.one(3)
    # the ball B_1(1) x B_1(0) inside the unit polydisc, of measure q^-2
    ball = Polyball.ball(field, (one, zero), 1)
    assert f.restrict(ball).integrate() == CycloScalar.fraction(3, Fraction(1, 9))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from(CELL_FIELDS), st.sampled_from([1, 2]), st.integers(0, 10**6)
)
def test_fourier_additive_angles_match_the_per_pair_angles(field, n, seed):
    # cells with centres of negative ord and coefficients with angles of
    # their own: the grid angles read by additivity of psi give the same
    # transform as psi_angle(center * xi) for every (cell, frequency) pair;
    # at most q^2 frequencies per cell and coordinate
    rng = random.Random(seed)
    levels = tuple(rng.randrange(0, 2) for _ in range(n))
    cells = {}
    for _ in range(rng.randrange(1, 4)):
        center = tuple(sample_element(field, rng, -1, max(levels) + 1) for _ in range(n))
        cells[center] = sample_scalar(field.p, rng)
    f = SchwartzBruhat(field, n, levels, cells)
    g = f.fourier()
    assert (g.levels, g.cells) == fourier_by_pairs(f)


def test_fourier_budget_overrun_raises_before_building_the_grid(monkeypatch):
    # one Q_2 cell at level 2 centred at 2^-18: 2^20 frequencies against a
    # budget of 2^18, refused before a single frequency is built
    field = make_field("p-adic", 2)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(1, 2**18),), 2))

    def no_grid(*args):
        raise AssertionError("the frequency grid was built")

    monkeypatch.setattr(LocalField, "cell_reps", no_grid)
    with pytest.raises(CellBudgetError, match="1048576 cells requested, 262144 allowed"):
        f.fourier()


def test_refine_budget_guard():
    field = make_field("p-adic", 2)
    f = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), 0))
    with pytest.raises(CellBudgetError):
        f.refine((40,), budget=100)


def test_alpha_bounds_of_zero_function_rejected():
    field = make_field("p-adic", 2)
    with pytest.raises(FieldError):
        SchwartzBruhat.zero(field, 1).alpha_bounds()


def test_json_round_trip():
    for field in FIELDS.values():
        rng = rng_for(f"sb-json:{field!r}")
        for _ in range(10):
            f = random_sb(field, rng, n=2)
            g = SchwartzBruhat.from_json(field, f.to_json())
            assert g.equals(f)


# ---------------------------------------------------------------------------
# oracle comparisons
# ---------------------------------------------------------------------------


def test_integrate_matches_riemann_sums():
    for field in FIELDS.values():
        rng = rng_for(f"sb-int:{field!r}")
        for _ in range(25):
            f = random_sb(field, rng, n=rng.choice([1, 2]))
            if f.is_zero():
                continue
            radii = f.support_radii()
            ball = Polyball(field, tuple(field.zero() for _ in radii), radii)
            level = max(f.levels)
            got = riemann_integral(
                field, lambda c: f.eval_at(c), ball, level
            )
            assert (got - f.integrate()).is_zero()


def test_fourier_matches_riemann_sums():
    for field in FIELDS.values():
        rng = rng_for(f"sb-four:{field!r}")
        for _ in range(12):
            f = random_sb(field, rng, n=1, max_cells=2)
            if f.is_zero():
                continue
            g = f.fourier()
            radii = f.support_radii()
            ball = Polyball(field, (field.zero(),), radii)
            for _ in range(3):
                xi = (sample_element(field, rng, -2, 2),)
                # fine enough for f and for the character x -> psi(x xi)
                level = max(max(f.levels), 1 - min(0, field.ord(xi[0])))
                want = riemann_fourier(
                    field, lambda c: f.eval_at(c), ball, level, xi
                )
                assert (want - g.eval_at(xi)).is_zero()


# ---------------------------------------------------------------------------
# property loops
# ---------------------------------------------------------------------------


def test_double_transform_is_scaled_reflection():
    for field in FIELDS.values():
        rng = rng_for(f"sb-inv:{field!r}")
        for _ in range(20):
            n = rng.choice([1, 2])
            f = random_sb(field, rng, n=n)
            gg = f.fourier().fourier()
            want = f.reflect().scale(Fraction(1, field.q**n))
            assert gg.equals(want)


def test_alpha_bounds_exchange_under_transform():
    for field in FIELDS.values():
        rng = rng_for(f"sb-alpha:{field!r}")
        for _ in range(20):
            f = random_sb(field, rng, n=rng.choice([1, 2]))
            if f.is_zero():
                continue
            am, ap = f.alpha_bounds()
            g = f.fourier()
            assert g.alpha_bounds() == (1 - ap, 1 - am)


def test_convolution_theorem():
    for field in FIELDS.values():
        rng = rng_for(f"sb-convthm:{field!r}")
        for _ in range(15):
            f = random_sb(field, rng, max_cells=2)
            g = random_sb(field, rng, max_cells=2)
            lhs = f.convolve(g).fourier()
            rhs = f.fourier().mul(g.fourier())
            assert lhs.equals(rhs)


def test_translation_modulation_exchange():
    for field in FIELDS.values():
        rng = rng_for(f"sb-shift:{field!r}")
        for _ in range(15):
            f = random_sb(field, rng)
            v = (sample_element(field, rng, -1, 2),)
            lhs = f.translate(v).fourier()
            rhs = f.fourier().modulate(v)
            assert lhs.equals(rhs)


def test_linearity_and_pointwise_ring_laws():
    for field in FIELDS.values():
        rng = rng_for(f"sb-ring:{field!r}")
        for _ in range(15):
            f = random_sb(field, rng)
            g = random_sb(field, rng)
            h = random_sb(field, rng)
            assert (f + g).equals(g + f)
            assert ((f + g) + h).equals(f + (g + h))
            assert (f - f).is_zero()
            assert f.mul(g + h).equals(f.mul(g) + f.mul(h))
            x = (sample_element(field, rng, -2, 3),)
            want = f.eval_at(x) * g.eval_at(x)
            assert (f.mul(g).eval_at(x) - want).is_zero()


def test_restrict_agrees_with_indicator_product():
    for field in FIELDS.values():
        rng = rng_for(f"sb-restrict:{field!r}")
        for _ in range(15):
            f = random_sb(field, rng, n=2)
            ball = Polyball(
                field,
                tuple(sample_element(field, rng, -1, 2) for _ in range(2)),
                tuple(rng.randrange(-1, 3) for _ in range(2)),
            )
            lhs = f.restrict(ball)
            rhs = f.mul(SchwartzBruhat.indicator(ball))
            assert lhs.equals(rhs)


def test_convolution_translation_covariance():
    for field in FIELDS.values():
        rng = rng_for(f"sb-convshift:{field!r}")
        for _ in range(10):
            f = random_sb(field, rng, max_cells=2)
            g = random_sb(field, rng, max_cells=2)
            v = (sample_element(field, rng, -1, 2),)
            assert f.translate(v).convolve(g).equals(f.convolve(g).translate(v))
            assert f.convolve(g).equals(g.convolve(f))


def test_eval_agrees_after_refinement_and_translation():
    for field in FIELDS.values():
        rng = rng_for(f"sb-eval:{field!r}")
        for _ in range(15):
            f = random_sb(field, rng, n=2)
            x = tuple(sample_element(field, rng, -2, 3) for _ in range(2))
            fine = f.refine(tuple(r + 2 for r in f.levels))
            assert (fine.eval_at(x) - f.eval_at(x)).is_zero()
            v = tuple(sample_element(field, rng, -1, 2) for _ in range(2))
            shifted = f.translate(v)
            y = vec_add(field, x, v)
            assert (shifted.eval_at(y) - f.eval_at(x)).is_zero()


# ---------------------------------------------------------------------------
# code-keyed cells (module docstring of umla.schwartz)
# ---------------------------------------------------------------------------


@st.composite
def _code_cases(draw):
    """(field, f, g): two cell functions on K^n, n <= 2, over a field of
    ``CELL_FIELDS``, with levels from -3 up and centres of ord at least a
    base b <= every level, so a transform scans at most q^d frequencies per
    cell and coordinate (d = 2, or 1 for q = 5)."""
    field = draw(st.sampled_from(CELL_FIELDS))
    n = draw(st.sampled_from([1, 2]))
    d = 1 if field.q >= 5 else 2

    def function():
        b = draw(st.integers(-3, 1))
        levels = tuple(b + draw(st.integers(0, d)) for _ in range(n))
        cells = {}
        for _ in range(draw(st.integers(0, 3))):
            center = []
            for _ in range(n):
                x = field.zero()
                for e in range(b, max(levels)):
                    digit = field.from_int(draw(st.integers(0, field.p - 1)))
                    x = field.add(x, field.mul(digit, field.pow_uniformizer(e)))
                center.append(x)
            coef = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            cells[tuple(center)] = CycloScalar.fraction(field.p, coef)
        return SchwartzBruhat(field, n, levels, cells)

    return field, function(), function()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_code_cases())
def test_cell_codes_round_trip_and_decode_to_the_element_dict(case):
    field, f, _ = case
    lo, codes = f._coded()
    assert all(e <= r for e, r in zip(lo, f.levels))
    # each code decodes to its centre, and the centre encodes to it
    assert list(codes.values()) == list(f.cells.values())
    for key, center in zip(codes, f.cells):
        assert tuple(map(field.residue_lift, key, lo)) == center
        assert tuple(map(field.residue_code, center, lo)) == key
    # a function built from codes decodes to the dict the element
    # constructor builds, in the same order, and keeps that view
    coded = SchwartzBruhat._trusted(field, f.n, f.levels, lo=lo, codes=codes)
    fresh = SchwartzBruhat(field, f.n, f.levels, dict(coded.cells))
    assert list(coded.cells.items()) == list(fresh.cells.items())
    assert coded.cells is coded.cells
    assert fresh._coded() == (lo, codes)
    assert coded.support_radii() == fresh.support_radii() == f.support_radii()
    if f.cells:
        radii = [
            min([r] + [field.ord(c[i]) for c in f.cells if not field.is_zero(c[i])])
            for i, r in enumerate(f.levels)
        ]
        assert f.support_radii() == tuple(radii)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_code_cases())
def test_refine_fourier_and_convolve_on_codes_match_the_element_references(case):
    field, f, g = case
    fine = tuple(r + 1 for r in f.levels)
    got = f.refine(fine)
    assert got.levels == fine
    assert got.cells == refine_by_field_ops(f, fine)
    h = f.fourier()
    assert (h.levels, h.cells) == fourier_by_pairs(f)
    # a function built from codes transforms as its element copy does
    copy = SchwartzBruhat(field, got.n, got.levels, dict(got.cells))
    assert got.fourier().cells == copy.fourier().cells == h.cells
    c = f.convolve(g)
    assert (c.levels, c.cells) == convolve_by_pairs(f, g)
    assert f.equals(copy) and (f - copy).is_zero()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_code_cases(), st.integers(0, 10**6))
def test_fourier_inversion_on_codes(case, seed):
    # F(F phi)(x) = q^(-n) phi(-x), at the centres of phi and at points
    # drawn around its support
    field, f, _ = case
    gg = f.fourier().fourier()
    scale = CycloScalar.q_pow(field.p, -2 * f.n)
    rng = random.Random(seed)
    points = list(f.cells) + [
        tuple(sample_element(field, rng, -4, 3) for _ in range(f.n)) for _ in range(4)
    ]
    for x in points:
        minus = tuple(field.neg(c) for c in x)
        assert gg.eval_at(x) == f.eval_at(minus) * scale
    assert gg.equals(f.reflect().scale(Fraction(1, field.q ** f.n)))


def test_cell_reps_children_of_a_fixed_refine_and_fourier(monkeypatch):
    # the transform path enumerates cells through LocalField.cell_reps: a
    # refinement calls it once per cell and coordinate, a transform once per
    # coordinate for its frequency grid.  Over Q_3, three level-1 cells with
    # unit coordinates: refining to level 2 lists 3 cells x 2 coordinates x
    # 3 children; the transform's grids at r - a = 1 list 3 frequencies each
    field = make_field("p-adic", 3)
    cells = {(1, 0): 1, (0, 2): 2, (2, 1): Fraction(1, 3)}
    f = SchwartzBruhat(field, 2, 1, {tuple(map(Fraction, c)): v for c, v in cells.items()})
    counted = []
    cell_reps = LocalField.cell_reps

    def counting(self, *args):
        out = cell_reps(self, *args)
        counted.append(len(out))
        return out

    monkeypatch.setattr(LocalField, "cell_reps", counting)
    f.refine(2)
    assert (len(counted), sum(counted)) == (6, 18)
    counted.clear()
    g = f.fourier()
    assert g.levels == (1, 1)
    assert (len(counted), sum(counted)) == (2, 6)

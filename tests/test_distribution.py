"""Mixed-cell distribution calculus: pairings, transforms, convolution.

Closed-form rules are checked against pairings computed through the plain
cell-function layer, and against hand-derived frozen values.
"""

from fractions import Fraction

import pytest

from umla.cyclo import CycloScalar
from umla.distribution import (
    BallF,
    ConvolutionDivergence,
    DeltaF,
    FULL,
    MixedCellDistribution,
    NonCompactSupport,
    SeriesDistribution,
)
from umla.fields import FieldError, Polyball, make_field
from umla.schwartz import SchwartzBruhat

from conftest import CELL_FIELDS, rng_for, sample_element, sample_nonzero
from oracles import children_by_field_ops, riemann_integral
from test_schwartz import random_sb


def dict_of(u):
    return {(mod, fs): coef for coef, mod, fs in u.terms}


def same_terms(u, v):
    du, dv = dict_of(u), dict_of(v)
    if set(du) != set(dv):
        return False
    return all((du[k] - dv[k]).is_zero() for k in du)


def random_dist(field, rng, n=1, max_terms=2):
    """Random mixed-cell distribution with small conductors."""
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        mod = []
        factors = []
        for _ in range(n):
            kind = rng.choice(["ball", "full", "delta"])
            lo, hi = (0, 2) if field.q >= 5 else (-1, 2)
            a = sample_element(field, rng, lo, hi) if rng.random() < 0.7 else field.zero()
            mod.append(a)
            if kind == "ball":
                factors.append(
                    BallF(sample_element(field, rng, lo, hi + 1), rng.randrange(lo, hi + 1))
                )
            elif kind == "delta":
                factors.append(DeltaF(sample_element(field, rng, lo, hi + 1)))
            else:
                factors.append(FULL)
        coef = CycloScalar.fraction(
            field.p, Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 5))
        )
        terms.append((coef, tuple(mod), tuple(factors)))
    return MixedCellDistribution(field, n, terms)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_ball_pairings_of_modulated_constant_q3():
    # [DERIVED] for u = psi(x) dx on Q_3 the ball pairing at 0 is
    # q^(-r) when r >= 1 (character trivial on the ball) and 0 otherwise.
    field = make_field("p-adic", 3)
    u = MixedCellDistribution.modulated_constant(field, (Fraction(1),))
    for r in range(-2, 4):
        got = u.b_function((Fraction(0),), r)
        if r >= 1:
            assert got.as_fraction() == Fraction(1, 3**r)
        else:
            assert got.is_zero()


def test_mean_of_modulated_constant_vanishes_q2():
    # [DERIVED] <psi(x) dx, 1_{Z_2}> = 0.
    field = make_field("p-adic", 2)
    u = MixedCellDistribution.modulated_constant(field, (Fraction(1),))
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), 0))
    assert u.evaluate(phi).is_zero()


def test_transform_of_constant_is_scaled_point_mass():
    # [DERIVED] the transform of dx on K^n is q^(-n) delta_0.
    for field in CELL_FIELDS:
        for n in (1, 2):
            u = MixedCellDistribution.constant(field, n)
            g = u.fourier_dist()
            want = MixedCellDistribution.delta(
                field, (field.zero(),) * n
            ).scale(Fraction(1, field.q**n))
            assert same_terms(g, want)


def test_point_mass_convolution_translates():
    # [DERIVED] delta_1 * 1_{B_0} is the indicator of B_0(1).
    field = make_field("p-adic", 3)
    u = MixedCellDistribution.delta(field, (Fraction(1),))
    v = MixedCellDistribution.from_sb(
        SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), 0))
    )
    w = u.convolve_dist(v)
    assert w.pointwise_eval((Fraction(1),)).as_fraction() == 1
    assert w.pointwise_eval((Fraction(3),)).as_fraction() == 1
    assert w.pointwise_eval((Fraction(1, 3),)).is_zero()


def test_point_mass_cancellation_is_exact():
    field = make_field("p-adic", 2)
    u = MixedCellDistribution.delta(field, (Fraction(1),))
    assert (u - u).is_zero()
    v = u + MixedCellDistribution.delta(field, (Fraction(0),))
    assert v.singular_points() == {(Fraction(1),), (Fraction(0),)}


def test_paley_wiener_of_point_mass_q2():
    # [DERIVED] transform of delta_1 over Q_2 is the function psi(xi):
    # value -1 at xi=1, +1 at xi=0.
    field = make_field("p-adic", 2)
    u = MixedCellDistribution.delta(field, (Fraction(1),))
    R = u.paley_wiener()
    assert R.is_density()
    assert R.pointwise_eval((Fraction(1),)).as_fraction() == -1
    assert R.pointwise_eval((Fraction(0),)).as_fraction() == 1
    with pytest.raises(NonCompactSupport):
        MixedCellDistribution.constant(field, 1).paley_wiener()


def test_constant_convolution_diverges():
    field = make_field("p-adic", 2)
    u = MixedCellDistribution.constant(field, 1)
    with pytest.raises(ConvolutionDivergence):
        u.convolve_dist(u)


def test_wavelet_normalization():
    # [TRIVIAL] the volume-normalized pairing of dx is identically 1.
    field = make_field("p-adic", 5)
    u = MixedCellDistribution.constant(field, 2)
    for r in (-1, 0, 2):
        assert u.wavelet((Fraction(0), Fraction(1)), r).as_fraction() == 1


# ---------------------------------------------------------------------------
# consistency with the cell-function layer
# ---------------------------------------------------------------------------


def test_density_pairing_matches_cell_integration():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-pair:{field!r}")
        for _ in range(15):
            f = random_sb(field, rng, n=2)
            phi = random_sb(field, rng, n=2)
            u = MixedCellDistribution.from_sb(f)
            want = f.mul(phi).integrate()
            assert (u.evaluate(phi) - want).is_zero()


def test_transform_adjoint_identity():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-adj:{field!r}")
        for _ in range(15):
            n = rng.choice([1, 2])
            u = random_dist(field, rng, n=n)
            phi = random_sb(field, rng, n=n)
            lhs = u.fourier_dist().evaluate(phi)
            rhs = u.evaluate(phi.fourier())
            assert (lhs - rhs).is_zero()


def test_double_transform_is_scaled_reflection():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-inv:{field!r}")
        for _ in range(20):
            n = rng.choice([1, 2])
            u = random_dist(field, rng, n=n)
            lhs = u.fourier_dist().fourier_dist()
            rhs = u.reflect().scale(Fraction(1, field.q**n))
            assert same_terms(lhs, rhs)


def test_convolution_matches_cell_layer():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-conv:{field!r}")
        for _ in range(10):
            f = random_sb(field, rng, max_cells=2)
            g = random_sb(field, rng, max_cells=2)
            phi = random_sb(field, rng)
            lhs = MixedCellDistribution.from_sb(f).convolve_dist(
                MixedCellDistribution.from_sb(g)
            )
            rhs = MixedCellDistribution.from_sb(f.convolve(g))
            assert (lhs.evaluate(phi) - rhs.evaluate(phi)).is_zero()


def test_point_mass_convolution_is_translation():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-delta-conv:{field!r}")
        for _ in range(10):
            u = random_dist(field, rng)
            v = (sample_element(field, rng, -1, 2),)
            d = MixedCellDistribution.delta(field, v)
            assert same_terms(d.convolve_dist(u), u.translate(v))


def test_localization_is_adjoint_to_cell_product():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-mul:{field!r}")
        for _ in range(12):
            u = random_dist(field, rng)
            p1 = random_sb(field, rng)
            p2 = random_sb(field, rng)
            lhs = u.mul_by_sb(p1).evaluate(p2)
            rhs = u.evaluate(p1.mul(p2))
            assert (lhs - rhs).is_zero()


def test_tensor_pairing_factorizes():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-tensor:{field!r}")
        for _ in range(10):
            u1 = random_dist(field, rng)
            u2 = random_dist(field, rng)
            p1 = random_sb(field, rng)
            p2 = random_sb(field, rng)
            lhs = u1.tensor(u2).evaluate(p1.tensor(p2))
            rhs = u1.evaluate(p1) * u2.evaluate(p2)
            assert (lhs - rhs).is_zero()


def test_translation_adjoint():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-shift:{field!r}")
        for _ in range(10):
            u = random_dist(field, rng)
            v = (sample_element(field, rng, -1, 2),)
            phi = random_sb(field, rng)
            lhs = u.translate(v).evaluate(phi)
            rhs = u.evaluate(phi.translate(tuple(field.neg(w) for w in v)))
            assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# ball pairing structure
# ---------------------------------------------------------------------------


def test_ball_pairing_additivity():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-addit:{field!r}")
        for _ in range(10):
            n = rng.choice([1, 2])
            u = random_dist(field, rng, n=n)
            xs = tuple(sample_element(field, rng, -1, 2) for _ in range(n))
            r = rng.randrange(-1, 3)
            parent = u.b_function(xs, r)
            ball = Polyball.ball(field, xs, r)
            total = CycloScalar.zero(field.p)
            for child in children_by_field_ops(ball):
                total = total + u.b_function(child.centers, r + 1)
            assert (parent - total).is_zero()


def test_mollification_stabilizes_at_constancy_level():
    # convolving with the normalized indicator of B_l(0) leaves pairings
    # unchanged exactly once l reaches the test function's constancy level
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-mollify:{field!r}")
        for _ in range(10):
            u = random_dist(field, rng)
            phi = random_sb(field, rng)
            if phi.is_zero():
                continue
            _, ap = phi.alpha_bounds()
            want = u.evaluate(phi)
            for lev in (ap, ap + 1, ap + 2):
                mol = MixedCellDistribution.from_sb(
                    SchwartzBruhat.indicator(
                        Polyball.ball(field, (field.zero(),), lev),
                        Fraction(field.q) ** lev,
                    )
                )
                got = u.convolve_dist(mol).evaluate(phi)
                assert (got - want).is_zero()


def test_convolution_associativity():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-assoc:{field!r}")
        for _ in range(8):
            f = random_sb(field, rng, max_cells=2)
            g = random_sb(field, rng, max_cells=2)
            u = random_dist(field, rng)
            df = MixedCellDistribution.from_sb(f)
            dg = MixedCellDistribution.from_sb(g)
            phi = random_sb(field, rng)
            lhs = u.convolve_dist(df).convolve_dist(dg).evaluate(phi)
            rhs = u.convolve_dist(df.convolve_dist(dg)).evaluate(phi)
            assert (lhs - rhs).is_zero()


def test_series_distribution_partial_sums():
    field = make_field("p-adic", 3)

    def term(k):
        return MixedCellDistribution.from_sb(
            SchwartzBruhat.indicator(
                Polyball.ball(field, (field.pow_uniformizer(-k),), k + 1)
            )
        )

    # term k sits at ord -k, so 1_{B_{-m}(0)} meets terms 0..m only
    series = SeriesDistribution(
        field, 1, term, lambda phi: range(0, 1 - min(phi.support_radii())) if not phi.is_zero() else []
    )
    phi = SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),), -2))
    got = series.evaluate(phi)
    want = term(0).evaluate(phi) + term(1).evaluate(phi) + term(2).evaluate(phi)
    assert (got - want).is_zero()
    assert (want - series.partial_sum(5).evaluate(phi)).is_zero()


def test_json_round_trip():
    for field in CELL_FIELDS:
        rng = rng_for(f"dist-json:{field!r}")
        for _ in range(8):
            u = random_dist(field, rng, n=2)
            v = MixedCellDistribution.from_json(field, u.to_json())
            assert same_terms(u, v)


def test_singular_point_set_requires_atomic():
    field = make_field("p-adic", 2)
    u = MixedCellDistribution.constant(field, 1)
    with pytest.raises(FieldError):
        u.singular_points()


# ---------------------------------------------------------------------------
# dimension checks
# ---------------------------------------------------------------------------


def test_pointwise_eval_rejects_short_points():
    field = make_field("p-adic", 3)
    u = MixedCellDistribution.from_sb(
        SchwartzBruhat.indicator(Polyball.ball(field, (Fraction(0),) * 2, 0))
    )
    for xs in ((Fraction(1, 3),), (Fraction(0),)):
        with pytest.raises(FieldError):
            u.pointwise_eval(xs)


def test_translate_rejects_wrong_length():
    field = make_field("p-adic", 3)
    u = MixedCellDistribution.delta(field, (Fraction(0),) * 2)
    with pytest.raises(FieldError):
        u.translate((Fraction(1),) * 3)


# ---------------------------------------------------------------------------
# laws of the per-coordinate factor rules
# ---------------------------------------------------------------------------


def random_factor(field, rng):
    kind = rng.choice(["ball", "full", "delta"])
    if kind == "ball":
        return BallF(sample_element(field, rng, -1, 3), rng.randrange(-1, 3))
    if kind == "delta":
        return DeltaF(sample_element(field, rng, -1, 3))
    return FULL


def test_push_then_inverse_push_is_identity(field):
    rng = rng_for(f"factor-push:{field!r}")
    for _ in range(30):
        fac = random_factor(field, rng)
        s = field.mul(
            field.from_int(rng.randrange(1, field.p)),
            field.pow_uniformizer(rng.randrange(-2, 3)),
        )
        b = sample_element(field, rng, -2, 3)
        inv = field.invert(s)
        image, e2 = fac.push(field, s, b)
        back, e2_back = image.push(field, inv, field.neg(field.mul(inv, b)))
        assert back == fac
        assert e2 + e2_back == 0
        assert e2 == (0 if isinstance(fac, DeltaF) else 2 * field.ord(s))


def test_meet_agrees_with_contains(field):
    rng = rng_for(f"factor-meet:{field!r}")
    for _ in range(30):
        fac = random_factor(field, rng)
        z, lev = sample_element(field, rng, -1, 3), rng.randrange(-1, 3)
        met = fac.meet(field, z, lev)
        ball = BallF(z, lev)
        # random points, plus the ball's centre and the factor's own centre
        # or point, so that the inside of both supports is probed too
        probes = [sample_element(field, rng, -2, 4) for _ in range(12)] + [z]
        probes += [getattr(fac, name) for name in ("center", "point") if hasattr(fac, name)]
        for x in probes:
            want = fac.contains(field, x) and ball.contains(field, x)
            assert (met is not None and met.contains(field, x)) == want


def test_ball_mass_matches_riemann_sum(field):
    rng = rng_for(f"factor-mass:{field!r}")
    for _ in range(12):
        r = rng.randrange(-1, 2)
        fac = BallF(sample_element(field, rng, -1, 2), r)
        a = sample_nonzero(field, rng, -r - 1, 3) if rng.random() < 0.8 else field.zero()
        level = r if field.is_zero(a) else max(r, 1 - field.ord(a))
        got = fac.mass(field, a)
        want = riemann_integral(
            field,
            lambda c: field.psi(field.mul(a, c[0])),
            Polyball.ball(field, (fac.center,), r),
            level,
        )
        if got is None:
            assert want.is_zero()
        else:
            e2, angle = got
            assert CycloScalar.q_pow(field.p, e2).rotate(angle) == want


@pytest.mark.parametrize("field", CELL_FIELDS, ids=repr)
def test_canonical_fast_cases_equal_the_full_rule(field):
    # the full rules: a ball truncates its centre at r and its modulation at
    # 1 - r, and gains psi of the discarded modulation times the centre; a
    # point mass absorbs psi(a * point)
    rng = rng_for(f"factor-canonical:{field!r}")
    zero = field.zero()
    fast = 0
    for _ in range(60):
        r = rng.randrange(-1, 3)
        a = sample_element(field, rng, -2, 4) if rng.random() < 0.8 else zero
        ball = BallF(sample_element(field, rng, -1, 4), r)
        z = field.canon_trunc(ball.center, r)
        a2 = field.canon_trunc(a, 1 - r)
        angle = field.psi_angle(field.mul(field.sub(a, a2), z))
        assert ball.canonical(field, a) == (0, angle, a2, BallF(z, r))
        delta = DeltaF(sample_element(field, rng, -1, 4))
        want = (0, field.psi_angle(field.mul(a, delta.point)), zero, delta)
        assert delta.canonical(field, a) == want
        # canonical inputs come back as the same objects, with angle 0
        canon = BallF(z, r)
        e2, angle, got_a, got = canon.canonical(field, a2)
        assert (e2, angle, got_a) == (0, 0, a2) and got is canon
        e2, angle, got_a, got = delta.canonical(field, zero)
        assert (e2, angle, got_a) == (0, 0, zero) and got is delta
        fast += ball.center == z or a == a2
    assert 0 < fast < 60


@pytest.mark.parametrize("field", CELL_FIELDS, ids=repr)
def test_canonical_terms_build_the_same_distribution_as_shifted_copies(field):
    # each canonical term is shifted off its canonical form, by digits that
    # the ball drops in its centre and in its modulation and by a modulation
    # on a point mass; the coefficient undoes the angle the full rule adds
    rng = rng_for(f"dist-shifted-copies:{field!r}")
    moved = 0
    for _ in range(10):
        u = random_dist(field, rng, n=2, max_terms=3)
        shifted = []
        for coef, mod, fs in u.terms:
            mod2, fs2 = [], []
            for a, f in zip(mod, fs):
                if isinstance(f, BallF):
                    d = sample_element(field, rng, 1 - f.r, 3 - f.r)
                    e = sample_element(field, rng, f.r, f.r + 2)
                    coef = coef * field.psi(field.neg(field.mul(d, f.center)))
                    a, f = field.add(a, d), BallF(field.add(f.center, e), f.r)
                elif isinstance(f, DeltaF):
                    d = sample_element(field, rng, -2, 3)
                    coef = coef * field.psi(field.neg(field.mul(d, f.point)))
                    a = field.add(a, d)
                mod2.append(a)
                fs2.append(f)
            shifted.append((coef, tuple(mod2), tuple(fs2)))
            moved += (tuple(mod2), tuple(fs2)) != (mod, fs)
        v = MixedCellDistribution(field, 2, shifted)
        w = MixedCellDistribution(field, 2, u.terms)
        assert v.to_json() == w.to_json() == u.to_json()
    assert moved >= 5

"""Mixed-cell distribution calculus: pairings, transforms, convolution.

Closed-form rules are checked against pairings computed through the plain
cell-function layer, and against hand-derived frozen values.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umla.cyclo import CycloScalar
from umla.distribution import (
    BallF,
    ConvolutionDivergence,
    DeltaF,
    FULL,
    MixedCellDistribution,
    NonCompactSupport,
    SeriesDistribution,
    _contains,
)
from umla.fields import FieldError, Polyball, make_field
from umla.microlocal.maps import AffineMap, MapError, pullback, pushforward
from umla.schwartz import SchwartzBruhat

from conftest import CELL_FIELDS, rng_for, sample_element, sample_nonzero
from oracles import (
    children_by_field_ops,
    evaluate_by_field_ops,
    factor_canonical,
    factor_contains,
    factor_mass,
    factor_meet,
    factor_push,
    fourier_dist_by_field_ops,
    mul_by_sb_by_field_ops,
    pullback_by_field_ops,
    pushforward_by_field_ops,
    riemann_integral,
    terms_by_field_ops,
)
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
# laws of the per-coordinate rules on codes, each against its element
# reference in tests/oracles.py
# ---------------------------------------------------------------------------


def random_factor(field, rng):
    kind = rng.choice(["ball", "full", "delta"])
    if kind == "ball":
        return BallF(sample_element(field, rng, -1, 3), rng.randrange(-1, 3))
    if kind == "delta":
        return DeltaF(sample_element(field, rng, -1, 3))
    return FULL


def one_term(field, fac, a=None, coef=1):
    """The distribution coef * psi(a x) * fac on the line."""
    a = field.zero() if a is None else a
    return MixedCellDistribution(field, 1, [(coef, (a,), (fac,))])


def test_push_then_inverse_push_is_identity(field):
    # pushforward along x -> s x + b moves the factor as oracles.factor_push
    # does and scales a density by |s|^-1; the inverse map moves it back
    rng = rng_for(f"factor-push:{field!r}")
    for _ in range(30):
        fac = random_factor(field, rng)
        s = field.mul(
            field.from_int(rng.randrange(1, field.p)),
            field.pow_uniformizer(rng.randrange(-2, 3)),
        )
        b = sample_element(field, rng, -2, 3)
        inv = field.invert(s)
        u = one_term(field, fac)
        image = pushforward(AffineMap(field, ((s,),), (b,)), u)
        want, e2 = factor_push(field, fac, s, b)
        assert e2 == (0 if isinstance(fac, DeltaF) else 2 * field.ord(s))
        ((coef, mod, fs),) = image.terms
        assert fs == factor_canonical(field, want, field.zero())[3:]
        assert coef == CycloScalar.q_pow(field.p, e2)
        back = pushforward(AffineMap(field, ((inv,),), (field.neg(field.mul(inv, b)),)), image)
        assert back.to_json() == u.to_json()


def test_meet_agrees_with_contains(field):
    # the coded meet (mul_by_sb with one ball) against the coded contains,
    # and against oracles.factor_meet
    rng = rng_for(f"factor-meet:{field!r}")
    for _ in range(30):
        fac = random_factor(field, rng)
        z, lev = sample_element(field, rng, -1, 3), rng.randrange(-1, 3)
        u = one_term(field, fac)
        met = u.mul_by_sb(SchwartzBruhat.indicator(Polyball.ball(field, (z,), lev)))
        ref = factor_meet(field, fac, z, lev)
        if ref is None:
            assert met.is_zero()
        else:
            ref = factor_canonical(field, ref, field.zero())[3]
            assert met.terms == ((CycloScalar.one(field.p), (field.zero(),), (ref,)),)
        ball = BallF(z, lev)
        # random points, plus the ball's centre and the factor's own centre
        # or point, so that the inside of both supports is probed too
        probes = [sample_element(field, rng, -2, 4) for _ in range(12)] + [z]
        probes += [getattr(fac, name) for name in ("center", "point") if hasattr(fac, name)]
        for x in probes:
            want = factor_contains(field, fac, x) and factor_contains(field, ball, x)
            got = any(
                _contains(field, e, entry, x)
                for _, key in met._coded
                for entry, e in zip(key, met._lo)
            )
            assert got == want
            assert _contains(field, u._lo[0], u._coded[0][1][0], x) == factor_contains(field, fac, x)


def test_ball_mass_matches_riemann_sum(field):
    # the coded mass, read by pairing psi(a x) 1_B with the indicator of B
    rng = rng_for(f"factor-mass:{field!r}")
    for _ in range(12):
        r = rng.randrange(-1, 2)
        fac = BallF(sample_element(field, rng, -1, 2), r)
        a = sample_nonzero(field, rng, -r - 1, 3) if rng.random() < 0.8 else field.zero()
        level = r if field.is_zero(a) else max(r, 1 - field.ord(a))
        ball = Polyball.ball(field, (fac.center,), r)
        got = one_term(field, fac, a).evaluate(SchwartzBruhat.indicator(ball))
        want = riemann_integral(
            field, lambda c: field.psi(field.mul(a, c[0])), ball, level
        )
        assert got == want
        ref = factor_mass(field, fac, a)
        assert want == (
            CycloScalar.zero(field.p)
            if ref is None
            else CycloScalar.q_pow(field.p, ref[0]).rotate(ref[1])
        )


@pytest.mark.parametrize("field", CELL_FIELDS, ids=repr)
def test_canonical_fast_cases_equal_the_full_rule(field):
    # the full rules (oracles.factor_canonical): a ball truncates its centre
    # at r and its modulation at 1 - r, and gains psi of the discarded
    # modulation times the centre; a point mass absorbs psi(a * point)
    rng = rng_for(f"factor-canonical:{field!r}")
    zero = field.zero()
    one = CycloScalar.one(field.p)
    fast = 0
    for _ in range(60):
        r = rng.randrange(-1, 3)
        a = sample_element(field, rng, -2, 4) if rng.random() < 0.8 else zero
        ball = BallF(sample_element(field, rng, -1, 4), r)
        z = field.canon_trunc(ball.center, r)
        a2 = field.canon_trunc(a, 1 - r)
        angle = field.psi_angle(field.mul(field.sub(a, a2), z))
        assert factor_canonical(field, ball, a) == (0, angle, a2, BallF(z, r))
        assert one_term(field, ball, a).terms == ((one.rotate(angle), (a2,), (BallF(z, r),)),)
        delta = DeltaF(sample_element(field, rng, -1, 4))
        angle = field.psi_angle(field.mul(a, delta.point))
        assert one_term(field, delta, a).terms == ((one.rotate(angle), (zero,), (delta,)),)
        # canonical inputs come back as they are, with angle 0
        assert one_term(field, BallF(z, r), a2).terms == ((one, (a2,), (BallF(z, r),)),)
        assert one_term(field, delta).terms == ((one, (zero,), (delta,)),)
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


# ---------------------------------------------------------------------------
# the coded store against the element rules, term by term
# ---------------------------------------------------------------------------


def any_element(field, rng, lo=-3, hi=3):
    """A random element, zero a fifth of the time; over Q_p sometimes a
    Fraction with no finite expansion, such as 1/3 in Q_2."""
    if rng.random() < 0.2:
        return field.zero()
    x = sample_element(field, rng, lo, hi)
    if field.kind == "p-adic" and rng.random() < 0.3:
        unit = rng.choice([u for u in range(2, 3 * field.p) if u % field.p])
        x += Fraction(rng.randrange(1, field.p), unit) * Fraction(field.p) ** rng.randrange(lo, hi)
    return x


def coded_case(field, rng, n, max_terms=3):
    """Raw terms with negative radii, zero and nonzero modulations, and
    every kind of factor."""
    raw = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        mod, fs = [], []
        for _ in range(n):
            kind = rng.choice(["ball", "ball", "full", "delta"])
            mod.append(any_element(field, rng))
            if kind == "ball":
                fs.append(BallF(any_element(field, rng, -2, 4), rng.randrange(-3, 4)))
            elif kind == "delta":
                fs.append(DeltaF(any_element(field, rng, -2, 4)))
            else:
                fs.append(FULL)
        coef = CycloScalar.root(
            field.p, Fraction(rng.randrange(field.p), field.p), Fraction(rng.randrange(1, 5))
        )
        raw.append((coef, tuple(mod), tuple(fs)))
    return raw


def random_cells(field, rng, n):
    """A cell function with levels from -2 to 2 and centres near 0."""
    levels = tuple(rng.randrange(-2, 3) for _ in range(n))
    cells = {}
    for _ in range(rng.randrange(1, 4)):
        center = tuple(sample_element(field, rng, -3, max(levels) + 1) for _ in range(n))
        cells[center] = CycloScalar.fraction(field.p, Fraction(rng.randrange(1, 9), rng.randrange(1, 4)))
    return SchwartzBruhat(field, n, levels, cells)


def random_scale(field, rng):
    """A coordinate scale u pi^k: u a digit, or over Q_p a unit Fraction."""
    u = field.from_int(rng.randrange(1, field.p))
    if field.kind == "p-adic" and rng.random() < 0.5:
        u = Fraction(rng.choice([1, field.p + 1, 2 * field.p - 1]), rng.choice([1, field.p + 1]))
    return field.mul(u, field.pow_uniformizer(rng.randrange(-2, 3)))


def random_coordinate_map(field, rng, n_in):
    """A map whose rows each read at most one coordinate: a permuted
    diagonal iso, a projection dropping the last coordinate, or an
    inclusion with one constant row."""
    kind = rng.choice(["iso", "iso", "projection", "inclusion"] if n_in == 2 else ["iso", "inclusion"])
    zero = field.zero()
    cols = list(range(n_in))
    rng.shuffle(cols)
    if kind == "projection":
        cols = cols[:1]
    # only an iso scales; projections and inclusions read coordinates as they are
    scale = (lambda: random_scale(field, rng)) if kind == "iso" else field.one
    rows = [tuple(scale() if j == c else zero for j in range(n_in)) for c in cols]
    if kind == "inclusion":
        rows.insert(rng.randrange(len(rows) + 1), (zero,) * n_in)
    shift = tuple(any_element(field, rng) for _ in rows)
    return AffineMap(field, tuple(rows), shift)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(CELL_FIELDS), st.sampled_from([1, 2]), st.integers(0, 10**6))
def test_coded_terms_and_operations_match_the_element_rules(field, n, seed):
    rng = random.Random(seed)
    raw = coded_case(field, rng, n)
    u = MixedCellDistribution(field, n, raw)
    assert u.terms == terms_by_field_ops(
        field, [(coef, [(0, 0, a, f) for a, f in zip(mod, fs)]) for coef, mod, fs in raw]
    )
    phi = random_cells(field, rng, n)
    assert u.mul_by_sb(phi).terms == mul_by_sb_by_field_ops(u, phi)
    assert u.evaluate(phi) == evaluate_by_field_ops(u, phi)
    assert u.fourier_dist().terms == fourier_dist_by_field_ops(u)
    if u.is_density():
        x = tuple(sample_element(field, rng, -3, 4) for _ in range(n))
        want = CycloScalar.sum(field.p, [
            coef * field.psi_pair(mod, x)
            for coef, mod, fs in u.terms
            if all(factor_contains(field, f, c) for f, c in zip(fs, x))
        ])
        assert u.pointwise_eval(x) == want
    # translation and reflection are pushforwards along x -> x + v, x -> -x
    v = tuple(any_element(field, rng) for _ in range(n))
    one, zero = field.one(), field.zero()
    diag = lambda s: tuple(tuple(s if i == j else zero for j in range(n)) for i in range(n))
    assert u.translate(v).terms == pushforward_by_field_ops(AffineMap(field, diag(one), v), u)
    assert u.reflect().terms == pushforward_by_field_ops(
        AffineMap(field, diag(field.neg(one)), (zero,) * n), u
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(CELL_FIELDS), st.sampled_from([1, 2]), st.integers(0, 10**6))
def test_coded_monomial_maps_match_the_element_rules(field, n, seed):
    rng = random.Random(seed)
    u = MixedCellDistribution(field, n, coded_case(field, rng, n))
    f_map = random_coordinate_map(field, rng, n)
    try:
        got = pushforward(f_map, u)
    except MapError:
        # a full line in a dropped coordinate
        assert f_map.n_out < n and not u.is_compact()
    else:
        assert got.terms == pushforward_by_field_ops(f_map, u)
    w = MixedCellDistribution(field, f_map.n_out, coded_case(field, rng, f_map.n_out))
    try:
        got = pullback(f_map, w)
    except MapError:
        # the conormal check of an inclusion: a point mass on its image
        assert f_map.n_out > n and not w.is_density()
    else:
        assert got.terms == pullback_by_field_ops(f_map, w)


@pytest.mark.parametrize("kind", ["p-adic", "equal-characteristic"])
def test_constructors_check_their_elements(kind):
    field = make_field(kind, 3)
    other = make_field("equal-characteristic" if kind == "p-adic" else "p-adic", 3)
    wrong = [other.one(), 0.5, "1", True]
    if kind == "equal-characteristic":
        wrong.append(make_field(kind, 5).one())  # a Fraction has no p to check
    for x in wrong:
        with pytest.raises(FieldError, match="point mass in coordinate 1"):
            MixedCellDistribution.delta(field, [field.one(), x])
        with pytest.raises(FieldError, match="modulation of coordinate 0"):
            MixedCellDistribution.modulated_constant(field, [x])
        with pytest.raises(FieldError, match="ball centre in coordinate 0"):
            MixedCellDistribution(field, 1, [(1, (field.zero(),), (BallF(x, 0),))])
    # ints are lifted with from_int on both kinds
    assert MixedCellDistribution.delta(field, [2]).to_json() == (
        MixedCellDistribution.delta(field, [field.from_int(2)]).to_json()
    )
    u = MixedCellDistribution(field, 1, [(1, (1,), (BallF(4, -1),))])
    v = MixedCellDistribution(
        field, 1, [(1, (field.one(),), (BallF(field.from_int(4), -1),))]
    )
    assert u.to_json() == v.to_json()
    assert MixedCellDistribution.delta(field, [field.one()]).translate([1]).to_json() == (
        MixedCellDistribution.delta(field, [2]).to_json()
    )

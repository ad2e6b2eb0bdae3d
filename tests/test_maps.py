"""Affine-map calculus: pullback, pushforward, products, conormal guards."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import CELL_FIELDS, rng_for, sample_element, sample_nonzero
from umla.cyclo import CycloScalar
from umla.distribution import BallF, DeltaF, FULL, MixedCellDistribution
from umla.fields import FieldError, Polyball, make_field
from umla.microlocal import (
    AffineMap,
    NfIntersectsWF,
    NotProperOnSupport,
    UnsupportedMap,
    WFCollision,
    normal_cone,
    product_dist,
    pullback,
    pushforward,
    wavefront_exact,
)
from umla.microlocal import maps as maps_module
from umla.schwartz import CellBudgetError, SchwartzBruhat


def compose(g: AffineMap, f: AffineMap) -> AffineMap:
    fld = g.field
    rows = tuple(
        tuple(
            _dot(fld, g.rows[i], [f.rows[j][k] for j in range(f.n_out)])
            for k in range(f.n_in)
        )
        for i in range(g.n_out)
    )
    return AffineMap(fld, rows, g.apply(f.shift))


def _dot(fld, xs, ys):
    acc = fld.zero()
    for x, y in zip(xs, ys):
        acc = fld.add(acc, fld.mul(x, y))
    return acc


def indicator(field, center, r):
    return SchwartzBruhat.indicator(Polyball.ball(field, center, r))


def scale_shift_map(field, e: int, shift) -> AffineMap:
    return AffineMap(
        field, ((field.pow_uniformizer(e),),), (shift,)
    )


def swap_scale_map(field) -> AffineMap:
    """The permuted, scaled map (x, y) -> (pi y + 1 + pi, pi^2 x + pi^-1)."""
    f = field
    zero, pi = f.zero(), f.uniformizer()
    return AffineMap(
        f,
        ((zero, pi), (f.pow_uniformizer(2), zero)),
        (f.add(f.one(), pi), f.pow_uniformizer(-1)),
    )


def mixed_plane_sample(field):
    """A point mass times a ball, plus a ball times a ball under a character."""
    f = field
    zero, pi = f.zero(), f.uniformizer()
    return MixedCellDistribution(
        f,
        2,
        [
            (1, (zero, zero), (DeltaF(f.one()), BallF(zero, 1))),
            (
                1,
                (f.pow_uniformizer(-1), f.pow_uniformizer(-3)),
                (BallF(zero, 0), BallF(pi, 2)),
            ),
        ],
    )


def mixed_sample(field):
    f = field
    a = f.pow_uniformizer(-1)
    return (
        MixedCellDistribution.delta(f, (f.one(),))
        + MixedCellDistribution.modulated_constant(f, (a,)).mul_by_sb(
            indicator(f, (f.zero(),), 0)
        )
        + MixedCellDistribution.from_sb(indicator(f, (f.uniformizer(),), 1))
    )


class TestAffineMapBasics:
    def test_apply_and_from_ints(self, field):
        f = field
        m = scale_shift_map(f, 1, f.one())
        got = m.apply((f.one(),))
        assert f.is_zero(f.sub(got[0], f.add(f.uniformizer(), f.one())))
        m2 = AffineMap.from_ints(f, [[1, 1], [0, 1]], [0, 0])
        y = m2.apply((f.one(), f.one()))
        assert f.is_zero(f.sub(y[0], f.from_int(2)))

    def test_classification(self, field):
        f = field
        one, zero = f.one(), f.zero()
        assert scale_shift_map(f, 2, zero).classify() == "iso"
        assert AffineMap(f, ((one, zero),), (zero,)).classify() == "projection"
        assert AffineMap(f, ((one,), (zero,)), (zero, one)).classify() == "inclusion"
        assert AffineMap(f, ((zero,),), (one,)).classify() == "constant"
        with pytest.raises(UnsupportedMap):
            AffineMap(f, ((one, one), (one, one)), (zero, zero)).classify()
        with pytest.raises(UnsupportedMap):
            AffineMap(f, ((f.uniformizer(), zero),), (zero,)).classify()

    def test_monomial_inverse_round_trip(self, field):
        f = field
        rng = rng_for("maps-inverse")
        m = AffineMap(
            f,
            ((f.zero(), f.pow_uniformizer(2)), (f.pow_uniformizer(-1), f.zero())),
            (f.one(), f.uniformizer()),
        )
        inv = m.inverse()
        for _ in range(10):
            x = (sample_element(f, rng), sample_element(f, rng))
            back = inv.apply(m.apply(x))
            assert all(f.is_zero(f.sub(a, b)) for a, b in zip(back, x))

    def test_general_inverse_rational_prime_field(self):
        f = make_field("p-adic", 3)
        rng = rng_for("maps-geninv")
        m = AffineMap.from_ints(f, [[1, 1], [0, 3]], [2, 1])
        assert f.is_zero(f.sub(m.det(), f.from_int(3)))
        inv = m.inverse()
        for _ in range(10):
            x = (sample_element(f, rng), sample_element(f, rng))
            back = inv.apply(m.apply(x))
            assert all(f.is_zero(f.sub(a, b)) for a, b in zip(back, x))

    def test_general_inverse_rejected_equal_characteristic(self):
        f = make_field("equal-characteristic", 3)
        one, zero = f.one(), f.zero()
        m = AffineMap(f, ((one, one), (zero, one)), (zero, zero))
        with pytest.raises(UnsupportedMap):
            m.inverse()

    def test_json_round_trip(self, field):
        f = field
        m = AffineMap(
            f,
            ((f.uniformizer(), f.one()), (f.zero(), f.one())),
            (f.one(), f.zero()),
        )
        back = AffineMap.from_json(f, m.to_json())
        assert back == m


class TestPullback:
    def test_atom_gains_jacobian_modulus(self, field):
        f = field
        m = scale_shift_map(f, 1, f.zero())
        got = pullback(m, MixedCellDistribution.delta(f, (f.zero(),)))
        want = MixedCellDistribution.delta(f, (f.zero(),)).scale(
            CycloScalar.q_pow(f.p, 2)
        )
        assert (got - want).is_zero()

    def test_atom_pullback_matches_density_approximation(self, field):
        # delta is the pairing limit of q^r 1_{B_r}; the pullback of the
        # approximants stabilizes to the pullback of the atom
        f = field
        m = scale_shift_map(f, 1, f.zero())
        atom = pullback(m, MixedCellDistribution.delta(f, (f.zero(),)))
        for s in (0, 1, 2):
            phi = indicator(f, (f.zero(),), s)
            want = atom.evaluate(phi)
            for r in range(s + 1, s + 4):
                approx = MixedCellDistribution.from_sb(
                    indicator(f, (f.zero(),), r)
                ).scale(CycloScalar.q_pow(f.p, 2 * r))
                assert pullback(m, approx).evaluate(phi) == want

    def test_density_pullback_is_composition(self, field):
        f = field
        rng = rng_for("maps-comp")
        m = scale_shift_map(f, 1, f.one())
        u = MixedCellDistribution.from_sb(indicator(f, (f.zero(),), 1)) + (
            MixedCellDistribution.modulated_constant(f, (f.pow_uniformizer(-2),))
        )
        v = pullback(m, u)
        for _ in range(20):
            x = (sample_element(f, rng),)
            assert v.pointwise_eval(x) == u.pointwise_eval(m.apply(x))

    def test_projection_pullback_tensors_full_line(self, field):
        f = field
        proj = AffineMap(f, ((f.one(), f.zero()),), (f.zero(),))
        v = pullback(proj, MixedCellDistribution.delta(f, (f.zero(),)))
        for r in range(4):
            assert v.b_function((f.zero(), f.zero()), r) == CycloScalar.q_pow(
                f.p, -2 * r
            )

    def test_inclusion_pullback_restricts(self, field):
        f = field
        zero, one = f.zero(), f.one()
        incl = AffineMap(f, ((one,), (zero,)), (zero, zero))
        sq = MixedCellDistribution.from_sb(
            SchwartzBruhat.indicator(Polyball(f, (zero, zero), (0, 0)))
        )
        got = pullback(incl, sq)
        want = MixedCellDistribution.from_sb(indicator(f, (zero,), 0))
        assert (got - want).is_zero()
        # a ball in the dropped coordinate that misses the section dies
        off = MixedCellDistribution.from_sb(
            SchwartzBruhat.indicator(Polyball(f, (zero, one), (0, 1)))
        )
        assert pullback(incl, off).is_zero()

    def test_inclusion_pullback_of_off_section_atom_is_zero(self, field):
        f = field
        zero, one = f.zero(), f.one()
        incl = AffineMap(f, ((one,), (zero,)), (zero, zero))
        u = MixedCellDistribution.delta(f, (one, one))
        assert pullback(incl, u).is_zero()

    def test_inclusion_pullback_of_on_section_atom_rejected(self, field):
        f = field
        zero, one = f.zero(), f.one()
        incl = AffineMap(f, ((one,), (zero,)), (zero, zero))
        u = MixedCellDistribution.delta(f, (one, zero))
        with pytest.raises(NfIntersectsWF):
            pullback(incl, u)

    def test_constant_pullback_evaluates_at_point(self, field):
        f = field
        cmap = AffineMap(f, ((f.zero(),),), (f.one(),))
        u = (
            MixedCellDistribution.from_sb(indicator(f, (f.zero(),), 0))
            + MixedCellDistribution.modulated_constant(f, (f.uniformizer(),))
            # psi(1 + pi^-1) at the point is not 1
            + MixedCellDistribution.modulated_constant(
                f, (f.add(f.one(), f.pow_uniformizer(-1)),)
            )
        )
        got = pullback(cmap, u)
        val = u.pointwise_eval((f.one(),))
        want = MixedCellDistribution.constant(f, 1).scale(val)
        assert (got - want).is_zero()
        with pytest.raises(NfIntersectsWF):
            pullback(cmap, MixedCellDistribution.delta(f, (f.one(),)))

    def test_general_matrix_pullback(self):
        f = make_field("p-adic", 3)
        rng = rng_for("maps-general")
        m = AffineMap.from_ints(f, [[3, 1], [0, 1]], [0, 0])
        u = MixedCellDistribution.from_sb(
            SchwartzBruhat.indicator(Polyball(f, (f.zero(), f.zero()), (0, 0)))
        )
        v = pullback(m, u)
        cover = SchwartzBruhat.indicator(
            Polyball(f, (f.zero(), f.zero()), (-1, 0))
        )
        assert v.evaluate(cover) == CycloScalar.fraction(3, 3)
        for _ in range(20):
            x = (sample_element(f, rng), sample_element(f, rng))
            assert v.pointwise_eval(x) == u.pointwise_eval(m.apply(x))
        with pytest.raises(
            CellBudgetError, match="preimage subdivision: 2 cells requested, 1 allowed"
        ):
            pullback(m, u, budget=1)

    def test_general_matrix_rejected_equal_characteristic(self):
        f = make_field("equal-characteristic", 3)
        one, zero = f.one(), f.zero()
        m = AffineMap(f, ((one, one), (zero, one)), (zero, zero))
        u = MixedCellDistribution.from_sb(
            SchwartzBruhat.indicator(Polyball(f, (zero, zero), (0, 0)))
        )
        with pytest.raises(UnsupportedMap):
            pullback(m, u)

    def test_pullback_transports_wavefront(self, field):
        f = field
        rng = rng_for("maps-wf")
        m = scale_shift_map(f, 1, f.one())
        s = f.uniformizer()
        u = MixedCellDistribution.delta(f, (f.one(),))
        wf_u = wavefront_exact(u)
        wf_v = wavefront_exact(pullback(m, u))
        for x in (f.zero(), f.one(), f.uniformizer()):
            for _ in range(5):
                eta = sample_nonzero(f, rng)
                assert wf_v.contains((x,), (f.mul(s, eta),)) == wf_u.contains(
                    m.apply((x,)), (eta,)
                )

    def test_point_masses_share_one_determinant(self, monkeypatch):
        # pulling back along a non-monomial matrix takes |det|^-1 once for
        # all point masses, beside the determinants that classifying (twice:
        # pullback and its conormal check) and inverting the map compute
        f = make_field("p-adic", 3)
        m = AffineMap.from_ints(f, [[1, 1], [0, 1]], [0, 0])
        u = MixedCellDistribution.zero(f, 2)
        for i in range(20):
            u = u + MixedCellDistribution.delta(f, (f.from_int(i), f.from_int(2 * i)))
        assert len(u.terms) == 20
        calls = []
        ring_det = maps_module.ring_det

        def counted(*args):
            calls.append(args)
            return ring_det(*args)

        monkeypatch.setattr(maps_module, "ring_det", counted)
        m.classify()
        m.classify()
        m.inverse()
        own = len(calls)
        calls.clear()
        got = pullback(m, u)
        assert len(calls) - own == 1
        inv = m.inverse()  # det = 1, so every coefficient stays
        want = MixedCellDistribution(
            f,
            2,
            [
                (coef, mod, tuple(DeltaF(c) for c in inv.apply([a.point for a in fs])))
                for coef, mod, fs in u.terms
            ],
        )
        assert (got - want).is_zero()


class TestPushforward:
    def test_monomial_atom_moves_without_jacobian(self, field):
        f = field
        m = scale_shift_map(f, 1, f.one())
        got = pushforward(m, MixedCellDistribution.delta(f, (f.zero(),)))
        want = MixedCellDistribution.delta(f, (f.one(),))
        assert (got - want).is_zero()

    def test_monomial_density_gains_jacobian(self, field):
        f = field
        m = scale_shift_map(f, 1, f.one())
        got = pushforward(
            m, MixedCellDistribution.from_sb(indicator(f, (f.zero(),), 0))
        )
        want = MixedCellDistribution.from_sb(indicator(f, (f.one(),), 1)).scale(
            CycloScalar.q_pow(f.p, 2)
        )
        assert (got - want).is_zero()

    def test_projection_integrates_dropped_coordinate(self, field):
        f = field
        zero, one = f.zero(), f.one()
        proj = AffineMap(f, ((one, zero),), (zero,))
        got = pushforward(proj, MixedCellDistribution.delta(f, (one, f.uniformizer())))
        assert (got - MixedCellDistribution.delta(f, (one,))).is_zero()
        sq = MixedCellDistribution.from_sb(
            SchwartzBruhat.indicator(Polyball(f, (zero, zero), (0, 0)))
        )
        assert (
            pushforward(proj, sq)
            - MixedCellDistribution.from_sb(indicator(f, (zero,), 0))
        ).is_zero()

    def test_projection_conductor_rule_on_dropped_modulation(self, field):
        f = field
        zero = f.zero()
        proj = AffineMap(f, ((f.one(), zero),), (zero,))
        box = SchwartzBruhat.indicator(Polyball(f, (zero, zero), (0, 1)))
        alive = MixedCellDistribution.modulated_constant(
            f, (zero, f.one())
        ).mul_by_sb(box)
        got = pushforward(proj, alive)
        want = MixedCellDistribution.from_sb(indicator(f, (zero,), 0)).scale(
            CycloScalar.q_pow(f.p, -2)
        )
        assert (got - want).is_zero()
        dead = MixedCellDistribution.modulated_constant(
            f, (zero, f.pow_uniformizer(-5))
        ).mul_by_sb(box)
        assert pushforward(proj, dead).is_zero()

    def test_projection_full_line_not_proper(self, field):
        f = field
        proj = AffineMap(f, ((f.one(), f.zero()),), (f.zero(),))
        with pytest.raises(NotProperOnSupport):
            pushforward(proj, MixedCellDistribution.constant(f, 2))

    def test_inclusion_places_atoms(self, field):
        f = field
        zero, one = f.zero(), f.one()
        incl = AffineMap(f, ((one,), (zero,)), (zero, one))
        got = pushforward(
            incl, MixedCellDistribution.from_sb(indicator(f, (zero,), 0))
        )
        for r in range(3):
            assert got.b_function((zero, one), r) == CycloScalar.q_pow(f.p, -2 * r)
        atom = pushforward(incl, MixedCellDistribution.delta(f, (zero,)))
        assert (atom - MixedCellDistribution.delta(f, (zero, one))).is_zero()

    def test_constant_map_collects_mass(self, field):
        f = field
        cmap = AffineMap(f, ((f.zero(),),), (f.one(),))
        got = pushforward(
            cmap, MixedCellDistribution.from_sb(indicator(f, (f.zero(),), 2))
        )
        want = MixedCellDistribution.delta(f, (f.one(),)).scale(
            CycloScalar.q_pow(f.p, -4)
        )
        assert (got - want).is_zero()
        with pytest.raises(NotProperOnSupport):
            pushforward(cmap, MixedCellDistribution.constant(f, 1))

    def test_functoriality_of_composition(self, field):
        f = field
        w = mixed_sample(f)
        fm = scale_shift_map(f, 1, f.one())
        gm = scale_shift_map(f, 2, f.uniformizer())
        hm = compose(gm, fm)
        # pullback is contravariant
        lhs = pullback(hm, pullback_target := mixed_sample(f))
        rhs = pullback(fm, pullback(gm, pullback_target))
        assert (lhs - rhs).is_zero()
        # pushforward is covariant
        lhs = pushforward(hm, w)
        rhs = pushforward(gm, pushforward(fm, w))
        assert (lhs - rhs).is_zero()

    def test_round_trip_scales_by_jacobian_modulus(self, field):
        f = field
        for m, w in (
            (scale_shift_map(f, 1, f.one()), mixed_sample(f)),
            (swap_scale_map(f), mixed_plane_sample(f)),
        ):
            want = w.scale(CycloScalar.q_pow(f.p, 2 * f.ord(m.det())))  # |det|^-1
            assert (pullback(m, pushforward(m, w)) - want).is_zero()
            assert (pushforward(m, pullback(m, w)) - want).is_zero()

    def test_shifted_projection_is_translated_projection(self, field):
        # (x0, x1, x2) -> (x2 + b0, x0 + b1) is the unshifted projection
        # followed by the translation by b
        f = field
        zero, one, pi = f.zero(), f.one(), f.uniformizer()
        b = (f.add(one, pi), f.pow_uniformizer(-1))
        rows = ((zero, zero, one), (one, zero, zero))
        proj_b = AffineMap(f, rows, b)
        proj_0 = AffineMap(f, rows, (zero, zero))
        u = MixedCellDistribution(
            f,
            3,
            [
                (1, (f.pow_uniformizer(-1), zero, zero),
                 (BallF(zero, 0), DeltaF(pi), BallF(one, 1))),
                (2, (zero, zero, f.pow_uniformizer(-2)),
                 (DeltaF(one), BallF(pi, 1), BallF(zero, 0))),
                # a character on the integrated ball: no mass
                (1, (zero, f.pow_uniformizer(-1), zero),
                 (BallF(zero, 0), BallF(zero, 0), BallF(zero, 0))),
            ],
        )
        got = pushforward(proj_b, u)
        assert not got.is_zero()
        assert (got - pushforward(proj_0, u).translate(b)).is_zero()
        v = MixedCellDistribution(
            f,
            2,
            [
                (1, (f.pow_uniformizer(-1), zero), (BallF(pi, 0), DeltaF(one))),
                (1, (one, f.pow_uniformizer(-2)), (FULL, BallF(zero, 1))),
            ],
        )
        got = pullback(proj_b, v)
        assert not got.is_zero()
        assert (got - pullback(proj_0, v.translate(tuple(f.neg(c) for c in b)))).is_zero()

    def test_shifted_inclusion_is_translated_inclusion(self, field):
        # x -> (x + b, pi^-1) is the inclusion at (0, pi^-1) followed by the
        # translation by (b, 0)
        f = field
        zero, one, pi = f.zero(), f.one(), f.uniformizer()
        b, c = f.add(one, pi), f.pow_uniformizer(-1)
        incl_b = AffineMap(f, ((one,), (zero,)), (b, c))
        incl_0 = AffineMap(f, ((one,), (zero,)), (zero, c))
        u = mixed_sample(f)
        got = pushforward(incl_b, u)
        assert not got.is_zero()
        assert (got - pushforward(incl_0, u).translate((b, zero))).is_zero()
        v = MixedCellDistribution(
            f,
            2,
            [
                # the constant row reads the character at pi^-1
                (1, (f.pow_uniformizer(-1), f.pow_uniformizer(-2)),
                 (BallF(pi, 0), BallF(c, 1))),
                (1, (zero, one), (DeltaF(one), FULL)),
                # terms that miss the line y = pi^-1
                (1, (zero, zero), (BallF(zero, 0), BallF(zero, 0))),
                (1, (zero, zero), (FULL, DeltaF(zero))),
            ],
        )
        got = pullback(incl_b, v)
        assert len(got.terms) == 2
        assert (got - pullback(incl_0, v.translate((f.neg(b), zero)))).is_zero()

    def test_constant_map_cancelling_masses(self, field):
        f = field
        cmap = AffineMap(f, ((f.zero(),),), (f.one(),))
        u = MixedCellDistribution.from_sb(
            indicator(f, (f.zero(),), 1)
        ) - MixedCellDistribution.from_sb(indicator(f, (f.one(),), 1))
        assert not u.is_zero()
        assert pushforward(cmap, u).is_zero()

    def test_general_round_trip_via_pairings(self):
        f = make_field("p-adic", 3)
        m = AffineMap.from_ints(f, [[3, 1], [0, 1]], [0, 0])
        u = MixedCellDistribution.from_sb(
            SchwartzBruhat.indicator(Polyball(f, (f.zero(), f.zero()), (0, 0)))
        )
        want = u.scale(CycloScalar.fraction(3, 3))
        probes = [
            SchwartzBruhat.indicator(Polyball(f, (f.zero(), f.zero()), (-1, -1)))
        ]
        for c1 in f.cell_reps(f.zero(), 0, 1):
            for c2 in f.cell_reps(f.zero(), 0, 1):
                probes.append(
                    SchwartzBruhat.indicator(Polyball(f, (c1, c2), (1, 1)))
                )
        for got in (
            pullback(m, pushforward(m, u)),
            pushforward(m, pullback(m, u)),
        ):
            for phi in probes:
                assert got.evaluate(phi) == want.evaluate(phi)


def random_monomial_map(field, rng) -> AffineMap:
    """(x, y) -> permuted (pi^k u x, pi^l v y) plus a shift, u and v units
    that invert exactly: integers prime to p over Q_p, nonzero constants
    over F_p((t))."""
    f = field
    bound = 3 * f.p if f.kind == "p-adic" else f.p
    units = [a for a in range(1, bound) if a % f.p]
    scales = [
        f.mul(f.pow_uniformizer(rng.randrange(-2, 3)), f.from_int(rng.choice(units)))
        for _ in range(2)
    ]
    rows = [[f.zero(), f.zero()], [f.zero(), f.zero()]]
    perm = rng.choice([(0, 1), (1, 0)])
    for i, j in enumerate(perm):
        rows[i][j] = scales[i]
    shift = tuple(sample_element(f, rng, -1, 2) for _ in range(2))
    return AffineMap(f, tuple(map(tuple, rows)), shift)


def random_integer_map(field, rng) -> AffineMap:
    """An invertible 2 x 2 integer matrix with small entries and shift."""
    while True:
        rows = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]:
            shift = [rng.randrange(-2, 3) for _ in range(2)]
            return AffineMap.from_ints(field, rows, shift)


def random_plane_distribution(field, rng) -> MixedCellDistribution:
    """A sum of one to three ball densities with small integer weights, and
    in one case of two a point mass."""
    f = field
    u = MixedCellDistribution.zero(f, 2)
    for _ in range(rng.randrange(1, 4)):
        center = tuple(sample_element(f, rng, -1, 2) for _ in range(2))
        radii = tuple(rng.randrange(-1, 2) for _ in range(2))
        ball = SchwartzBruhat.indicator(Polyball(f, center, radii))
        u = u + MixedCellDistribution.from_sb(ball.scale(rng.randrange(1, 4)))
    if rng.randrange(2):
        point = tuple(sample_element(f, rng, -1, 2) for _ in range(2))
        u = u + MixedCellDistribution.delta(f, point)
    return u


def random_probes(field, rng, count: int) -> list:
    """Indicators of balls of mixed radii around sampled centres."""
    f = field
    return [
        SchwartzBruhat.indicator(
            Polyball(
                f,
                tuple(sample_element(f, rng, -1, 2) for _ in range(2)),
                tuple(rng.randrange(-2, 3) for _ in range(2)),
            )
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "field, kind",
    [(f, "monomial") for f in CELL_FIELDS]
    + [(f, "integer") for f in CELL_FIELDS if f.kind == "p-adic"],
    ids=repr,
)
def test_round_trips_on_random_maps_pair_as_the_jacobian_modulus(field, kind):
    # pullback after pushforward, and pushforward after pullback, along an
    # invertible affine map m pair with every probe as q^(ord det m) u does:
    # seeded monomial maps over every field of the cell tests, and seeded
    # integer matrices over Q_p, which go through the preimage subdivision
    f = field
    rng = rng_for(f"maps-round-trip:{f!r}:{kind}")
    make_map = random_monomial_map if kind == "monomial" else random_integer_map
    for _ in range(20):
        m = make_map(f, rng)
        u = random_plane_distribution(f, rng)
        jac = CycloScalar.q_pow(f.p, 2 * f.ord(m.det()))
        probes = random_probes(f, rng, 6)
        want = [u.evaluate(phi) * jac for phi in probes]
        for got in (pullback(m, pushforward(m, u)), pushforward(m, pullback(m, u))):
            assert [got.evaluate(phi) for phi in probes] == want


class TestProducts:
    def test_modulations_multiply_to_sum_frequency(self, field):
        f = field
        a, b = f.pow_uniformizer(-1), f.one()
        got = product_dist(
            MixedCellDistribution.modulated_constant(f, (a,)),
            MixedCellDistribution.modulated_constant(f, (b,)),
        )
        want = MixedCellDistribution.modulated_constant(f, (f.add(a, b),))
        assert (got - want).is_zero()

    def test_atom_times_density(self, field):
        f = field
        d0 = MixedCellDistribution.delta(f, (f.zero(),))
        inside = MixedCellDistribution.from_sb(indicator(f, (f.zero(),), 0))
        assert (product_dist(d0, inside) - d0).is_zero()
        outside = MixedCellDistribution.from_sb(indicator(f, (f.one(),), 1))
        assert product_dist(d0, outside).is_zero()

    def test_opposing_singularities_collide(self, field):
        f = field
        d0 = MixedCellDistribution.delta(f, (f.zero(),))
        with pytest.raises(WFCollision):
            product_dist(d0, d0)

    def test_separated_atoms_multiply_to_zero(self, field):
        f = field
        d0 = MixedCellDistribution.delta(f, (f.zero(),))
        d1 = MixedCellDistribution.delta(f, (f.one(),))
        assert product_dist(d0, d1).is_zero()

    def test_dimension_mismatch_rejected(self, field):
        f = field
        with pytest.raises(FieldError):
            product_dist(
                MixedCellDistribution.delta(f, (f.zero(),)),
                MixedCellDistribution.delta(f, (f.zero(), f.zero())),
            )


class TestNormalCone:
    def test_iso_and_projection_are_conormal_free(self, field):
        f = field
        assert normal_cone(scale_shift_map(f, 2, f.one())).is_empty()
        proj = AffineMap(f, ((f.one(), f.zero()),), (f.zero(),))
        assert normal_cone(proj).is_empty()

    def test_constant_map_conormal_is_full_fiber(self, field):
        f = field
        cmap = AffineMap(f, ((f.zero(),),), (f.one(),))
        cone = normal_cone(cmap)
        assert cone.contains((f.one(),), (f.uniformizer(),))
        assert not cone.contains((f.zero(),), (f.one(),))

    def test_inclusion_conormal_pins_kept_codirections(self, field):
        f = field
        zero, one = f.zero(), f.one()
        incl = AffineMap(f, ((one,), (zero,)), (zero, zero))
        cone = normal_cone(incl)
        assert cone.contains((f.uniformizer(), zero), (zero, one))
        assert not cone.contains((zero, one), (zero, one))
        assert not cone.contains((zero, zero), (one, zero))


class TestScalesOutsideTheFragment:
    """y = (1 + t) x over F_3((t)): a monomial matrix that ``classify`` calls
    "iso", whose scale has no inverse among Laurent polynomials."""

    def _map(self):
        f = make_field("equal-characteristic", 3)
        return f, AffineMap(f, ((f.add(f.one(), f.uniformizer()),),), (f.zero(),))

    def test_classified_as_iso(self):
        _, m = self._map()
        assert m.classify() == "iso"

    def test_inverse_raises_unsupported_map(self):
        _, m = self._map()
        with pytest.raises(UnsupportedMap, match="no exact inverse"):
            m.inverse()

    def test_pullback_raises_unsupported_map(self):
        f, m = self._map()
        with pytest.raises(UnsupportedMap, match="no exact inverse"):
            pullback(m, MixedCellDistribution.delta(f, (f.one(),)))

    def test_pushforward_raises_unsupported_map(self):
        f, m = self._map()
        with pytest.raises(UnsupportedMap, match="no exact inverse"):
            pushforward(m, MixedCellDistribution.delta(f, (f.one(),)))


def _three_balls_q3():
    """The map [[3, 1], [0, 1]] over Q_3 and a sum of three ball densities."""
    f = make_field("p-adic", 3)
    m = AffineMap.from_ints(f, [[3, 1], [0, 1]], [0, 0])
    u = MixedCellDistribution.zero(f, 2)
    for center, radii in [((0, 0), (0, 0)), ((1, 2), (1, 1)), ((Fraction(1, 3), 0), (0, 2))]:
        ball = Polyball(f, tuple(map(Fraction, center)), radii)
        u = u + MixedCellDistribution.from_sb(SchwartzBruhat.indicator(ball))
    return f, m, u


def _sorted_json_digest(u) -> str:
    obj = u.to_json()
    obj["terms"] = sorted(obj["terms"], key=lambda t: json.dumps(t, sort_keys=True))
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "entry, digest",
    [
        (pullback, "5919e4427353ddece8556f586ebf26722f146c5d0bd10a18f9b8918d07354985"),
        (pushforward, "56b1d13b83840618be06cc24334d74adabcd497624d4c42ed8f79558279013fb"),
    ],
    ids=["pullback", "pushforward"],
)
def test_general_matrix_inverts_once_per_call(monkeypatch, entry, digest):
    # one inverse() per call, not one more per ball term; the result's JSON
    # text (terms sorted) is the one the per-term inversions gave
    f, m, u = _three_balls_q3()
    calls = []
    inverse = AffineMap.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(AffineMap, "inverse", counted)
    got = entry(m, u)
    assert len(calls) == 1
    assert _sorted_json_digest(got) == digest
    x = (Fraction(1, 3), Fraction(5))
    if entry is pullback:
        assert got.pointwise_eval(x) == u.pointwise_eval(m.apply(x))

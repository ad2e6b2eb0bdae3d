"""Oscillatory integrals and certified stationary-phase support bounds."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import FIELDS, rng_for
from umla.cyclo import CycloScalar
from umla.fields import FieldError, Polyball
from umla.microlocal import (
    PhaseCertificationError,
    oscillatory_integral,
    stationary_phase_bound,
)
from umla.polys import parse_poly
from umla.schwartz import CellBudgetError, SchwartzBruhat


def indicator(field, center, r):
    return SchwartzBruhat.indicator(Polyball.ball(field, center, r))


def unit_eta_ball(field):
    return Polyball.ball(field, (field.one(),), 1)


def brute_integral(field, p, center, r, level, eta, lam):
    """Riemann refinement: exact once the phase is locally constant.

    ``r`` is the radius of the support, or a tuple of per-coordinate radii.
    The psi values are counted per angle and summed in one exact scalar, as
    adding thousands of them one at a time takes over a minute.
    """
    from collections import Counter
    from itertools import product as iproduct

    radii = r if isinstance(r, tuple) else (r,) * len(center)
    axes = [field.cell_reps(c, rc, level) for c, rc in zip(center, radii)]
    hist = Counter(
        field.psi_angle(field.mul(lam, p.eval_field(field, tuple(point) + tuple(eta))))
        for point in iproduct(*axes)
    )
    e2 = -2 * level * len(center)
    return CycloScalar(field.p, [(e2, a, k) for a, k in hist.items()])


class TestOscillatoryIntegral:
    def test_linear_phase_follows_conductor_rule(self, field):
        f = field
        p = parse_poly("x*e", ("x", "e"))
        rng = rng_for("phase-linear")
        for _ in range(30):
            r = rng.randrange(0, 3)
            c = f.mul(f.pow_uniformizer(rng.randrange(-1, 2)), f.from_int(1 + rng.randrange(3)))
            lam = f.mul(
                f.pow_uniformizer(rng.randrange(-2, 3)),
                f.residue_lift(rng.choice(f.unit_classes(1))),
            )
            eta = f.residue_lift(rng.choice(f.unit_classes(1)))
            got = oscillatory_integral(p, indicator(f, (c,), r), (eta,), lam)
            if f.ord(f.mul(lam, eta)) >= 1 - r:
                want = CycloScalar.q_pow(f.p, -2 * r) * f.psi(
                    f.mul(lam, f.mul(c, eta))
                )
            else:
                want = CycloScalar.zero(f.p)
            assert got == want

    def test_matches_riemann_refinement(self, field):
        f = field
        rng = rng_for("phase-riemann")
        pool = [
            parse_poly("x^2*e + x", ("x", "e")),
            parse_poly("x^3", ("x", "e")),
            parse_poly("x^2 + x*e", ("x", "e")),
        ]
        for _ in range(8):
            p = pool[rng.randrange(len(pool))]
            r = rng.randrange(0, 2)
            c = f.pow_uniformizer(rng.randrange(0, 2))
            lam = f.pow_uniformizer(rng.randrange(-2, 2))
            eta = f.residue_lift(rng.choice(f.unit_classes(1)))
            got = oscillatory_integral(p, indicator(f, (c,), r), (eta,), lam)
            deep = brute_integral(f, p, (c,), r, r + 3, (eta,), lam)
            deeper = brute_integral(f, p, (c,), r, r + 4, (eta,), lam)
            assert deep == deeper  # refinement has stabilized
            assert got == deep

    def test_two_dimensional_riemann_agreement(self, field):
        f = field
        p = parse_poly("x^2 + x*y + y*e", ("x", "y", "e"))
        phi = SchwartzBruhat.indicator(
            Polyball(f, (f.zero(), f.one()), (0, 0))
        )
        lam = f.pow_uniformizer(-1)
        eta = f.one()
        got = oscillatory_integral(p, phi, (eta,), lam)
        from itertools import product as iproduct

        total = CycloScalar.zero(f.p)
        vol = CycloScalar.q_pow(f.p, -2 * 3 * 2)
        for x, y in iproduct(
            f.cell_reps(f.zero(), 0, 3), f.cell_reps(f.one(), 0, 3)
        ):
            val = p.eval_field(f, (x, y, eta))
            total = total + vol * f.psi(f.mul(lam, val))
        assert got == total

    def test_oscillating_linear_character_is_skipped(self, field):
        # x*e has no Taylor term of degree >= 2, so the support is integrated
        # at its own level: one cell, on which the linear character oscillates
        # (ord(lam * e) = -8 < 1).  Refining until the linear term is constant
        # would take q^9 cells.
        f = field
        p = parse_poly("x*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)
        got = oscillatory_integral(
            p, phi, (f.one(),), f.pow_uniformizer(-8), budget=1
        )
        assert got == CycloScalar.zero(f.p)

    def test_skipped_cells_around_a_critical_point(self, field):
        # x^2*e on O at ord(lam) = -3: the quadratic term fixes level 2, the
        # cells with ord(2x) < 2 are skipped, and the critical point x = 0
        # lies in the support.  The budget admits the q^2 cells of level 2
        # only; level 4, where the phase is constant on every cell, checks it.
        f = field
        p = parse_poly("x^2*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)
        lam = f.pow_uniformizer(-3)
        got = oscillatory_integral(p, phi, (f.one(),), lam, budget=f.q**2)
        want = brute_integral(f, p, (f.zero(),), 0, 4, (f.one(),), lam)
        assert not want.is_zero()
        assert got == want

    def test_two_dimensional_skipped_cells(self, field):
        # x^2 + x*y + y*e on O x pi*O at ord(lam) = -2, eta = pi: level 2
        # (q^3 cells) skips every cell with x a unit; the critical point
        # (-pi, 2*pi) lies in the support.  Level 3 makes the phase constant
        # on every cell.
        f = field
        p = parse_poly("x^2 + x*y + y*e", ("x", "y", "e"))
        phi = SchwartzBruhat.indicator(
            Polyball(f, (f.zero(), f.zero()), (0, 1))
        )
        eta = (f.uniformizer(),)
        lam = f.pow_uniformizer(-2)
        got = oscillatory_integral(p, phi, eta, lam, budget=f.q**3)
        from itertools import product as iproduct

        total = CycloScalar.zero(f.p)
        vol = CycloScalar.q_pow(f.p, -2 * 3 * 2)
        for x, y in iproduct(
            f.cell_reps(f.zero(), 0, 3), f.cell_reps(f.zero(), 1, 3)
        ):
            val = p.eval_field(f, (x, y) + eta)
            total = total + vol * f.psi(f.mul(lam, val))
        assert not total.is_zero()
        assert got == total

    def test_cubic_phases_are_exact(self, field):
        # The gradient of a cubic phase has Taylor terms of degree 2, and the
        # dominant-term test that drops whole cells must weigh them too.
        # Every Taylor term of degree >= 1 has integral coefficients on the
        # support, so the Riemann sum at level 1 - ord(lam) is exact.
        f = field
        eta = (f.one(),)
        phi = indicator(f, (f.zero(),), 0)
        for src in ("x^3 + x*e", "-2*x^3 - x"):
            p = parse_poly(src, ("x", "e"))
            for o in (-2, -3, -4):
                lam = f.pow_uniformizer(o)
                got = oscillatory_integral(p, phi, eta, lam)
                assert got == brute_integral(f, p, (f.zero(),), 0, 1 - o, eta, lam)
        # two dimensions, mixed radii: O x pi*O
        p = parse_poly("x^3 + y^3 + x*y*e", ("x", "y", "e"))
        phi = SchwartzBruhat.indicator(Polyball(f, (f.zero(), f.zero()), (0, 1)))
        lam = f.pow_uniformizer(-2)
        got = oscillatory_integral(p, phi, eta, lam)
        want = brute_integral(f, p, (f.zero(), f.zero()), (0, 1), 3, eta, lam)
        assert not want.is_zero()
        assert got == want

    def test_zero_scale_reduces_to_volume(self, field):
        f = field
        p = parse_poly("x^2*e", ("x", "e"))
        phi = indicator(f, (f.one(),), 2)
        got = oscillatory_integral(p, phi, (f.one(),), f.zero())
        assert got == phi.integrate()

    def test_wrong_arity_rejected(self, field):
        f = field
        p = parse_poly("x^2", ("x",))
        with pytest.raises(FieldError):
            oscillatory_integral(p, indicator(f, (f.zero(),), 0), (f.one(),), f.one())

    def test_budget_guard(self, field):
        f = field
        p = parse_poly("x^2*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)
        with pytest.raises(FieldError):
            oscillatory_integral(
                p, phi, (f.one(),), f.pow_uniformizer(-8), budget=2
            )

    def test_budget_overrun_reports_requested_and_allowed(self, field):
        f = field
        p = parse_poly("x^2*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)
        with pytest.raises(CellBudgetError, match=r"\d+ cells requested, 2 allowed"):
            oscillatory_integral(
                p, phi, (f.one(),), f.pow_uniformizer(-8), budget=2
            )


class TestStationaryPhaseBound:
    def test_linear_phase_unit_ball(self, field):
        f = field
        p = parse_poly("x*e", ("x", "e"))
        rep = stationary_phase_bound(p, indicator(f, (f.zero(),), 0), unit_eta_ball(f), 1)
        assert rep.threshold == 1
        assert rep.r == -1
        assert rep.grad_ord_bound == 0
        assert rep.verification["all_zero"] is True
        assert rep.verification["integrals_checked"] > 0
        # tight: at the threshold order the integral is nonzero
        lam = f.uniformizer()
        assert not oscillatory_integral(p, indicator(f, (f.zero(),), 0), (f.one(),), lam).is_zero()

    def test_deeper_support_shifts_window(self, field):
        f = field
        p = parse_poly("x*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 2)
        rep = stationary_phase_bound(p, phi, unit_eta_ball(f), 1)
        assert rep.threshold == -1
        assert rep.r == 1
        assert not oscillatory_integral(p, phi, (f.one(),), f.pow_uniformizer(-1)).is_zero()
        assert oscillatory_integral(p, phi, (f.one(),), f.pow_uniformizer(-2)).is_zero()

    def test_quadratic_phase_tight_threshold(self, field):
        f = field
        p = parse_poly("x^2*e", ("x", "e"))
        phi = indicator(f, (f.one(),), 1)  # units congruent to 1
        two_ord = f.ord(f.from_int(2))  # the gradient carries a factor 2
        delta = Fraction(1, f.q**two_ord)
        rep = stationary_phase_bound(p, phi, unit_eta_ball(f), delta)
        assert rep.grad_ord_bound == two_ord
        want_threshold = 1 - max(1, two_ord + 1) - two_ord
        assert rep.threshold == want_threshold
        # tightness on both sides of the certified threshold
        at = f.pow_uniformizer(rep.threshold)
        below = f.pow_uniformizer(rep.threshold - 1)
        assert not oscillatory_integral(p, phi, (f.one(),), at).is_zero()
        assert oscillatory_integral(p, phi, (f.one(),), below).is_zero()

    def test_two_dimensional_linear_phase(self, field):
        f = field
        p = parse_poly("x*e + y*e", ("x", "y", "e"))
        phi = SchwartzBruhat.indicator(Polyball(f, (f.zero(), f.zero()), (0, 0)))
        rep = stationary_phase_bound(p, phi, unit_eta_ball(f), 1)
        assert rep.r == -1
        lam = f.uniformizer()
        assert not oscillatory_integral(p, phi, (f.one(),), lam).is_zero()

    def test_vanishing_gradient_cannot_certify(self, field):
        f = field
        p = parse_poly("x^2*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)  # support contains the critical point
        with pytest.raises(PhaseCertificationError) as exc:
            stationary_phase_bound(p, phi, unit_eta_ball(f), Fraction(1, f.q**3), budget=60)
        assert exc.value.witness is not None

    @pytest.mark.parametrize("src", ["4*x^2 + 4*x*e", "x^2*e"])
    def test_refuted_center_is_a_point_witness(self, src):
        # over Q_2 on pi*O x (1 + pi*O), delta = 1 (d0 = 0): at (0, 1) every
        # ord(d_x p) > 0, so |grad_x p| < delta there and no split can certify
        # the cell; the certificate stops at once, whatever the budget
        f = FIELDS["Q2"]
        p = parse_poly(src, ("x", "e"))
        support, V = Polyball.ball(f, (f.zero(),), 1), unit_eta_ball(f)
        with pytest.raises(PhaseCertificationError) as exc:
            stationary_phase_bound(p, SchwartzBruhat.indicator(support), V, 1, budget=1)
        point = exc.value.witness
        assert support.contains(point[:1]) and V.contains(point[1:])
        assert f.ord(p.derivative(0).eval_field(f, point)) > 0

    def test_certificate_budget_overrun_is_a_cell_budget_error(self):
        # the phase of test_cubic_phases_are_exact over Q_5: d_x p = e + 3x^2
        # is a unit on O x (1 + pi*O) (-1/3 = 3 is not a square mod 5), but the
        # root cell fails the dominant-term test, so certifying splits it
        f = FIELDS["Q5"]
        p = parse_poly("x^3 + x*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)
        rep = stationary_phase_bound(p, phi, unit_eta_ball(f), 1)
        assert rep.certified_cells >= 2
        with pytest.raises(
            CellBudgetError, match="gradient certificate: 2 cells requested, 1 allowed"
        ):
            stationary_phase_bound(p, phi, unit_eta_ball(f), 1, budget=1)

    def test_one_budget_bounds_the_verification_integrals(self, field):
        # one cell certifies x^2*e on 1 + pi*O, but each verification
        # integral needs q cells or more, and the same budget bounds them
        f = field
        p = parse_poly("x^2*e", ("x", "e"))
        delta = Fraction(1, f.q ** f.ord(f.from_int(2)))
        phi = indicator(f, (f.one(),), 1)
        assert stationary_phase_bound(p, phi, unit_eta_ball(f), delta).certified_cells == 1
        with pytest.raises(
            CellBudgetError, match=r"oscillatory integral: \d+ cells requested, 1 allowed"
        ):
            stationary_phase_bound(p, phi, unit_eta_ball(f), delta, budget=1)

    def test_constant_phase_rejected(self, field):
        f = field
        p = parse_poly("e", ("x", "e"))
        with pytest.raises(PhaseCertificationError):
            stationary_phase_bound(p, indicator(f, (f.zero(),), 0), unit_eta_ball(f), 1)

    def test_nonpositive_delta_rejected(self, field):
        f = field
        p = parse_poly("x*e", ("x", "e"))
        with pytest.raises(FieldError):
            stationary_phase_bound(p, indicator(f, (f.zero(),), 0), unit_eta_ball(f), 0)

    def test_certified_window_spot_checks(self, field):
        # independent re-check of the certificate: random scalings strictly
        # below the threshold integrate to zero for every sampled parameter
        f = field
        rng = rng_for("phase-window")
        p = parse_poly("x^2*e", ("x", "e"))
        phi = indicator(f, (f.one(),), 1)
        two_ord = f.ord(f.from_int(2))
        rep = stationary_phase_bound(
            p, phi, unit_eta_ball(f), Fraction(1, f.q**two_ord)
        )
        for _ in range(10):
            e = rep.threshold - 1 - rng.randrange(3)
            lam = f.mul(
                f.pow_uniformizer(e),
                f.residue_lift(rng.choice(f.unit_classes(1))),
            )
            eta = f.add(f.one(), f.mul(f.uniformizer(), f.from_int(rng.randrange(3))))
            assert oscillatory_integral(p, phi, (eta,), lam).is_zero()

    def test_report_serialization(self, field):
        f = field
        p = parse_poly("x*e", ("x", "e"))
        rep = stationary_phase_bound(p, indicator(f, (f.zero(),), 0), unit_eta_ball(f), 1)
        obj = rep.to_json()
        assert obj["r"] == rep.r
        assert obj["threshold"] == rep.threshold
        assert obj["verification"]["all_zero"] is True
        assert isinstance(obj["rest_profile"], list)

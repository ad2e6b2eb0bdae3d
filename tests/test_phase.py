"""Oscillatory integrals and certified stationary-phase support bounds."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIELDS, rng_for
from oracles import (
    children_by_field_ops,
    eval_by_fractions,
    eval_by_laurent,
    psi_by_digits,
    quadratic_gauss_integral,
    quadratic_gauss_integral_q2,
)
from umla.cyclo import CycloScalar
from umla.fields import FieldError, LaurentPoly, Polyball, make_field
from umla.microlocal import (
    PhaseCertificationError,
    oscillatory_integral,
    stationary_phase_bound,
)
from umla.microlocal import phase as phase_mod
from umla.microlocal.phase import (
    _OrdsAt,
    _Phase,
    _angles,
    _certify_gradient,
    _dominant,
    _sum,
    _twist,
    _unit_scale_integrals,
    _walk,
)
from umla.polys import MultiPoly, int_form, monomial_ints, parse_poly, walk_codes
from umla.schwartz import DEFAULT_CELL_BUDGET, CellBudgetError, SchwartzBruhat


def indicator(field, center, r):
    return SchwartzBruhat.indicator(Polyball.ball(field, center, r))


def unit_eta_ball(field):
    return Polyball.ball(field, (field.one(),), 1)


def grid_values(field, p, center, r, level, eta):
    """p(x, eta) at every level-``level`` cell center x of the support.

    ``r`` is the radius of the support, or a tuple of per-coordinate radii.
    """
    radii = r if isinstance(r, tuple) else (r,) * len(center)
    axes = [field.cell_reps(c, rc, level) for c, rc in zip(center, radii)]
    return [p.eval_field(field, tuple(point) + tuple(eta)) for point in product(*axes)]


def riemann_sum(field, values, n, level, lam):
    """q^(-n level) times the sum of psi(lam v) over ``values``.

    The psi values are counted per angle and summed in one exact scalar, as
    adding thousands of them one at a time takes over a minute.
    """
    hist = Counter(field.psi_angle(field.mul(lam, v)) for v in values)
    e2 = -2 * level * n
    return CycloScalar(field.p, [(e2, a, k) for a, k in hist.items()])


def brute_integral(field, p, center, r, level, eta, lam):
    """Riemann refinement: exact once the phase is locally constant."""
    values = grid_values(field, p, center, r, level, eta)
    return riemann_sum(field, values, len(center), level, lam)


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


# the deepest ord(lam) at which the default budget admits the level-L cells
# the quadratic term requests (q^L <= DEFAULT_CELL_BUDGET, L = ceil((1 - o)/2))
_GAUSS_DEEPEST = {"Q3": -21, "Q5": -13, "Q7": -11, "F3t": -21, "F5t": -13}
_GAUSS_FIELDS = {"Q7": ("p-adic", 7), "F5t": ("equal-characteristic", 5)}


def _gauss_field(name):
    return FIELDS.get(name) or make_field(*_GAUSS_FIELDS[name])


@pytest.mark.parametrize("name", sorted(_GAUSS_DEEPEST))
def test_quadratic_phase_matches_the_gauss_sum_closed_form(name):
    # integral_O psi(pi^(-k) u a x^2) dx for the form a x^2 at lam = pi^(-k) u,
    # from ord(lam) = 1 down to where the default budget stops the walk
    f = _gauss_field(name)
    phi = indicator(f, (f.zero(),), 0)
    for a in (1, 2):
        p = parse_poly(f"{a}*x^2", ("x",))
        for u in (1, 2):
            deepest = None
            for o in range(1, -41, -1):
                lam = f.mul(f.pow_uniformizer(o), f.from_int(u))
                try:
                    got = oscillatory_integral(p, phi, (), lam)
                except CellBudgetError:
                    break
                assert got == quadratic_gauss_integral(f, -o, u * a), (a, u, o)
                deepest = o
            assert deepest <= _GAUSS_DEEPEST[name], (a, u)


@pytest.mark.parametrize("a", [1, 3, 5, 7])
def test_quadratic_phase_over_q2_matches_the_gauss_sum_closed_form(a):
    # integral_{Z_2} psi(lam a x^2) dx at lam = 2^o, k = 1 - o: the closed
    # form of the Gauss sum G(a; 2^k), itself checked against the plain sum
    # over x mod 2^k for k <= 10
    f = make_field("p-adic", 2)
    phi = indicator(f, (f.zero(),), 0)
    p = parse_poly(f"{a}*x^2", ("x",))
    for k in range(1, 11):
        plain = CycloScalar(2, [(-2 * k, Fraction(a * x * x % 2**k, 2**k), 1) for x in range(2**k)])
        assert plain == quadratic_gauss_integral_q2(k, a), k
    for o in range(1, -25, -1):
        got = oscillatory_integral(p, phi, (), f.pow_uniformizer(o))
        assert got == quadratic_gauss_integral_q2(1 - o, a), o


# the order each diagonal form must at least reach; where the budget stops
# the walk below it is left open (the budget may come to count visited cells)
_GAUSS_2D_DEEPEST = {"Q3": -9, "Q5": -5, "Q7": -5, "F3t": -9, "F5t": -5}


@pytest.mark.parametrize("name", sorted(_GAUSS_2D_DEEPEST))
def test_diagonal_quadratic_phase_is_the_product_of_gauss_sums(name):
    # x^2 + 2 y^2 on O^2 factors into the 1-D integrals of x^2 and 2 y^2
    f = _gauss_field(name)
    phi = indicator(f, (f.zero(), f.zero()), 0)
    p = parse_poly("x^2 + 2*y^2", ("x", "y"))
    deepest = None
    for o in range(1, -41, -1):
        try:
            got = oscillatory_integral(p, phi, (), f.pow_uniformizer(o))
        except CellBudgetError:
            break
        want = quadratic_gauss_integral(f, -o, 1) * quadratic_gauss_integral(f, -o, 2)
        assert got == want, o
        deepest = o
    assert deepest <= _GAUSS_2D_DEEPEST[name]


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

    @pytest.mark.parametrize(
        "option, count",
        [
            ("verify_window", 0),
            ("verify_window", -2),
            ("verify_eta_samples", 0),
            ("verify_eta_samples", -1),
        ],
    )
    def test_verification_that_checks_nothing_is_rejected(self, field, option, count):
        # an empty scale window or no eta sample would check no integral
        # and still report all_zero; a negative window would report an
        # inverted lambda_orders range
        f = field
        p = parse_poly("x*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)
        with pytest.raises(FieldError, match=f"{option} must be at least 1, got {count}"):
            stationary_phase_bound(p, phi, unit_eta_ball(f), 1, **{option: count})
        assert stationary_phase_bound(p, phi, unit_eta_ball(f), 1, **{option: 1})

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


def riemann_by_digits(field, p, phi, eta, lam, level):
    """integral of phi(x) psi(lam p(x, eta)) dx as the Riemann sum over the
    level-``level`` cells of each support cell, with the values summed
    monomial by monomial on elements (``oracles.eval_by_fractions`` or
    ``eval_by_laurent``) and psi read off their digits
    (``oracles.psi_by_digits``); exact once psi(lam p) is constant on
    every cell."""
    terms = []
    for ball, coef in phi.terms():
        hist = Counter()
        for c in ball.cells_at_level(level):
            point = tuple(c) + tuple(eta)
            if field.kind == "p-adic":
                v = eval_by_fractions(p.coeffs, point)
            else:
                v = eval_by_laurent(field.p, p.coeffs, point)
            hist[psi_by_digits(field, field.mul(lam, v))] += 1
        e2 = -2 * level * phi.n
        terms.append(coef * CycloScalar(field.p, [(e2, a, k) for a, k in hist.items()]))
    return CycloScalar.sum(field.p, terms)


@pytest.mark.parametrize(
    "key, eta, o, unit",
    [
        ("Q3", (1, 1), -3, (1, 2)),
        ("F3t", (1, 1), -3, (1, 2)),
        ("Q3", Fraction(1, 2), -2, (2, 1)),
    ],
    ids=["Q3", "F3t", "Q3-eta-1/2"],
)
def test_integer_angles_match_riemann_sums_by_digits(key, eta, o, unit):
    # lam = pi^o u with u = u_0 + u_1 pi (two nonzero digits), so the angles
    # read several digits of lam p(c, eta) and twist them by both digits of
    # u.  eta is 1 + pi, or 1/2 in Q_3, a denominator prime to 3 that
    # enters the walk's D.  Every Taylor term of degree
    # >= 1 of x^2*e + x*e + e^2 is integral on O x {eta}, so psi(lam p) is
    # constant on the cells of level 1 - o, where the Riemann sum is exact.
    # The support cells carry a root of unity and a sqrt(q)
    f = FIELDS[key]

    def two_digits(d0, d1):
        return f.add(f.from_int(d0), f.mul(f.from_int(d1), f.uniformizer()))

    eta_el = (eta,) if isinstance(eta, Fraction) else (two_digits(*eta),)
    lam = f.mul(f.pow_uniformizer(o), two_digits(*unit))
    p = parse_poly("x^2*e + x*e + e^2", ("x", "e"))
    coef = CycloScalar(f.p, [(1, Fraction(1, f.p**2), Fraction(2, 3))])
    phi = SchwartzBruhat(
        f, 1, (1,), {(f.zero(),): coef, (f.one(),): CycloScalar.one(f.p)}
    )
    got = oscillatory_integral(p, phi, eta_el, lam)
    assert got == riemann_by_digits(f, p, phi, eta_el, lam, 1 - o)
    assert not got.is_zero()


def certify_by_elements(field, cert, n, cell, d0):
    """(cells certified, cells visited) of the gradient certificate in the
    first n variables walked on field elements: each centre's ords by
    ``eval_field``, each split by ``children_by_field_ops``."""
    grads = cert.grads_in(n)
    stack, done, spent = [cell], 0, 0
    while stack:
        cur = stack.pop()
        spent += 1
        ords = {
            a: field.ord(q.eval_field(field, cur.centers)) for a, q in cert.tay.items()
        }
        if _dominant(grads, ords, cur.radii, d0):
            done += 1
        else:
            assert not all(ords[ei] > d0 for ei, _ in grads)
            stack.extend(children_by_field_ops(cur))
    return done, spent


def test_certificate_deeper_than_its_first_codes_matches_the_element_walk():
    # [DERIVED] over F_2((t)), d_x (x^3 + x*e) = x^2 + e.  On O x B_18(t^17)
    # with d0 = 17, a cell whose centre has x = 0 has ord(x^2 + e) = 17 and
    # passes the dominant-term test only once 17 < 2 r_x: nine splits, one
    # more than the first codes hold, so the walk starts again with deeper
    # codes.  It must certify and visit the same cells as the element walk,
    # and overrun a budget one short of them with the same count
    f = make_field("equal-characteristic", 2)
    p = parse_poly("x^3 + x*e", ("x", "e"))
    cert = _Phase.of(f, p, 2)
    cell = Polyball(f, (f.zero(), f.pow_uniformizer(17)), (0, 18))
    done, spent = certify_by_elements(f, cert, 1, cell, 17)
    assert _certify_gradient(
        f, cert, 1, cell.centers, cell.radii, 17, DEFAULT_CELL_BUDGET
    ) == done
    with pytest.raises(
        CellBudgetError,
        match=f"gradient certificate: {spent} cells requested, {spent - 1} allowed",
    ):
        _certify_gradient(f, cert, 1, cell.centers, cell.radii, 17, spent - 1)


class TestOneWalkPerScale:
    """The cell walk reads lam only through ord(lam): one walk per (scale
    order, eta) serves every unit class of that order."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_shared_walk_matches_riemann_sums(self, field, dim):
        # x^2*e on O has its critical point at 0; x^2 + x*y + y*e on O x pi*O
        # has one at (-pi, 2*pi) for eta = pi.  Every Taylor term of degree >= 1
        # is integral on the support, so the Riemann sum at level 1 - ord(lam)
        # is exact.  The scales hold two orders, each at unit depths 1 and 2.
        f = field
        pi = f.uniformizer()
        if dim == 1:
            p = parse_poly("x^2*e", ("x", "e"))
            center, radii, e = (f.zero(),), (0,), -3
            etas = [(f.one(),), (f.add(f.one(), pi),)]
        else:
            p = parse_poly("x^2 + x*y + y*e", ("x", "y", "e"))
            center, radii, e = (f.zero(), f.zero()), (0, 1), -2
            etas = [(pi,), (f.add(pi, f.mul(pi, pi)),)]
        phi = SchwartzBruhat.indicator(Polyball(f, center, radii))
        phase = _Phase.of(f, p, dim)
        scales = [(e, 1), (e, 2), (e + 1, 2)]
        got = list(
            _unit_scale_integrals(f, phase, phi, etas, scales, DEFAULT_CELL_BUDGET)
        )
        want = []
        for order, depth in scales:
            level = 1 - order
            grids = [grid_values(f, p, center, radii, level, eta) for eta in etas]
            for u in f.unit_classes(depth):
                lam = f.mul(f.pow_uniformizer(order), f.residue_lift(u))
                for eta, values in zip(etas, grids):
                    want.append(
                        (order, u, lam, eta, riemann_sum(f, values, dim, level, lam))
                    )
        assert len(got) == len(want)
        for (e_got, u_got, eta, val), (order, u, lam, eta_w, val_w) in zip(got, want):
            assert (e_got, u_got) == (order, u) and eta == eta_w
            assert val == val_w
            assert val == oscillatory_integral(p, phi, eta, lam)
        assert sum(not val.is_zero() for *_, val in want) > len(want) // 2

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_twisted_histograms_match_riemann_sums(self, field, dim, depth):
        # the phases of test_shared_walk_matches_riemann_sums with a term in
        # eta alone, so that pi^e times the kept values has digits below
        # t^0 (angles up to 1/p^4 over Q_p); every Taylor term of degree >= 1
        # is integral on the support, so the Riemann sum at level 1 - e is
        # exact.  A support cell carries a root of unity and a sqrt(q), so
        # the fold adds its angle; in 1-D the cell B_1(1) keeps no value for
        # odd p.  For every unit u, the twisted counts of the one walk at
        # pi^e must be the psi-angle counts of lam = pi^e u times the kept
        # values, and their sum the Riemann sum at lam
        f = field
        pi = f.uniformizer()
        coef = CycloScalar(f.p, [(1, Fraction(1, f.p**2), Fraction(2, 3))])
        if dim == 1:
            p = parse_poly("x^2*e + e^2", ("x", "e"))
            cells = {(f.zero(),): coef, (f.one(),): CycloScalar.one(f.p)}
            eta = (f.add(f.add(f.one(), pi), f.mul(f.from_int(2), f.mul(pi, pi))),)
            levels, e = (1,), -3
        else:
            p = parse_poly("x^2 + x*y + y*e + e", ("x", "y", "e"))
            cells = {(f.zero(), f.zero()): coef}
            levels, e, eta = (0, 1), -2, (f.add(pi, f.mul(pi, pi)),)
        phi = SchwartzBruhat(f, dim, levels, cells)
        phase = _Phase.of(f, p, dim)
        walk = _walk(f, phase, phi, eta, e, DEFAULT_CELL_BUDGET)
        angles = _angles(f, walk, f.pow_uniformizer(e), depth)
        # the kept values are ints; decode them to elements
        kept = [
            [walk.codes.element(v, walk.deg) for v in values]
            for _, _, values in walk.cells
        ]
        assert any(kept)
        if f.kind != "p-adic" and depth == 2:
            # the second digit of u is read: some key has a nonzero x_{-1}
            assert any(xs[1] for *_, hist in angles for xs in hist)
        level = 1 - e
        grids = [
            (c, grid_values(f, p, ball.centers, ball.radii, level, eta))
            for ball, c in phi.terms()
        ]
        for u in f.unit_classes(depth):
            lam = f.mul(f.pow_uniformizer(e), f.residue_lift(u))
            for values, (_, _, den, hist) in zip(kept, angles):
                want = Counter(f.psi_angle(f.mul(lam, v)) * den for v in values)
                assert _twist(f, den, hist, u) == {int(a): k for a, k in want.items()}
            want = CycloScalar.sum(
                f.p, [c * riemann_sum(f, values, dim, level, lam) for c, values in grids]
            )
            assert _sum(f, dim, angles, u) == want
            assert want == oscillatory_integral(p, phi, eta, lam)

    def test_walks_keeping_no_value_sum_to_zero_and_are_counted(self, field):
        # x*e on O with a unit eta: the gradient oscillates on every cell at
        # every ord(lam) <= 0, so no walk keeps a value
        f = field
        p = parse_poly("x*e", ("x", "e"))
        phi = indicator(f, (f.zero(),), 0)
        V = unit_eta_ball(f)
        etas = list(V.child_centers())[:4]
        phase = _Phase.of(f, p, 1)
        scales = [(-1, 2), (0, 1)]
        for e, _ in scales:
            for eta in etas:
                walk = _walk(f, phase, phi, eta, e, DEFAULT_CELL_BUDGET)
                assert [values for _, _, values in walk.cells] == [[]]
        got = list(
            _unit_scale_integrals(f, phase, phi, etas, scales, DEFAULT_CELL_BUDGET)
        )
        want = [
            (e, u, eta)
            for e, depth in scales
            for u in f.unit_classes(depth)
            for eta in etas
        ]
        assert [(e, u, eta) for e, u, eta, _ in got] == want
        assert all(val == CycloScalar.zero(f.p) for *_, val in got)
        # the bound's verification runs exactly these scales: threshold 1,
        # window 2 and every value of order >= 0 on supp x V
        rep = stationary_phase_bound(p, phi, V, 1)
        assert rep.verification["lambda_orders"] == [-1, 0]
        assert rep.verification["integrals_checked"] == len(want)

    def test_contradiction_witness_is_pi_e_times_the_unit(self, field, monkeypatch):
        # skip the gradient certificate and claim delta = q (d0 = -1), so the
        # threshold is 0 and the window is ord(lam) in {-2, -1}.  phi is
        # 1_{B_2(0)} - 1_{B_2(1)}; for x*e at eta = 1, I(lam) at ord -1 is
        # q^-2 (1 - psi(lam)), which over Q_p is nonzero at u = 1 but over
        # F_p((t)) first at u = 1 + t, where lam = t^-1 + 1 has a t^0 digit
        f = field
        monkeypatch.setattr(phase_mod, "_certify_gradient", lambda *args: 1)
        p = parse_poly("x*e", ("x", "e"))
        phi = SchwartzBruhat(
            f,
            1,
            (2,),
            {(f.zero(),): CycloScalar.one(f.p), (f.one(),): CycloScalar.fraction(f.p, -1)},
        )
        with pytest.raises(PhaseCertificationError) as exc:
            stationary_phase_bound(p, phi, unit_eta_ball(f), f.q, verify_eta_samples=1)
        lam, eta, val = exc.value.witness
        # the first nonzero integral in the loop order: unit depth 1 - e,
        # every value on supp x V having order >= 0
        def integrals():
            for e in (-2, -1):
                for u in f.unit_classes(1 - e):
                    lam_u = f.mul(f.pow_uniformizer(e), f.residue_lift(u))
                    yield lam_u, oscillatory_integral(p, phi, (f.one(),), lam_u)

        lam_w, val_w = next((l, v) for l, v in integrals() if not v.is_zero())
        assert f.is_zero(f.sub(lam, lam_w)) and eta == (f.one(),)
        assert val == val_w and not val.is_zero()
        unit = f.one() if f.kind == "p-adic" else f.add(f.one(), f.uniformizer())
        assert lam == f.mul(f.pow_uniformizer(-1), unit)


# (field, phase, variables, support centre, support radii, delta, options) and
# the report, captured before the verification shared one walk per scale
SPB_PINS = [
    (
        ('Q2', 'x*e', ('x', 'e'), (0,), (0,), 1, {}),
        {'r': -1,
         'threshold': 1,
         'cell_level': 0,
         'grad_ord_bound': 0,
         'rest_profile': [[0, None, 1], [1, None, 0], [2, None, -1], [3, None, -2]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-1, 0],
                          'eta_samples': 2,
                          'integrals_checked': 6,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 0; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('Q2', 'x^2*e', ('x', 'e'), (1,), (1,), Fraction(1, 2), {}),
        {'r': 2,
         'threshold': -2,
         'cell_level': 2,
         'grad_ord_bound': 1,
         'rest_profile': [[2, 4, -2], [3, 6, -3], [4, 8, -4], [5, 10, -5]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-4, -3],
                          'eta_samples': 2,
                          'integrals_checked': 32,
                          'unit_depth_capped': True,
                          'all_zero': True},
         'detail': 'windows chain downward from level 2; gradient valuation bound 1 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('Q2', 'x^2*e + x', ('x', 'e'), (0,), (1,), 1, {'verify_eta_samples': 2}),
        {'r': 0,
         'threshold': 0,
         'cell_level': 1,
         'grad_ord_bound': 0,
         'rest_profile': [[1, 2, 0], [2, 4, -1], [3, 6, -2], [4, 8, -3]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-2, -1],
                          'eta_samples': 2,
                          'integrals_checked': 12,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 1; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('Q3', 'x*e + y*e', ('x', 'y', 'e'), (0, 0), (0, 0), 1, {}),
        {'r': -1,
         'threshold': 1,
         'cell_level': 0,
         'grad_ord_bound': 0,
         'rest_profile': [[0, None, 1], [1, None, 0], [2, None, -1], [3, None, -2]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-1, 0],
                          'eta_samples': 3,
                          'integrals_checked': 24,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 0; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('Q3', '2*x^2 + x*e', ('x', 'e'), (3,), (1,), 1, {'verify_window': 3}),
        {'r': 0,
         'threshold': 0,
         'cell_level': 1,
         'grad_ord_bound': 0,
         'rest_profile': [[1, 2, 0], [2, 4, -1], [3, 6, -2], [4, 8, -3]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-3, -1],
                          'eta_samples': 3,
                          'integrals_checked': 234,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 1; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('Q3', 'x^3 + x*e', ('x', 'e'), (0,), (0,), 1, {}),
        {'r': 0,
         'threshold': 0,
         'cell_level': 1,
         'grad_ord_bound': 0,
         'rest_profile': [[1, 3, 0], [2, 5, -1], [3, 7, -2], [4, 9, -3]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-2, -1],
                          'eta_samples': 3,
                          'integrals_checked': 72,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 1; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('Q5', 'x^3 + x*e', ('x', 'e'), (0,), (0,), 1, {}),
        {'r': 0,
         'threshold': 0,
         'cell_level': 1,
         'grad_ord_bound': 0,
         'rest_profile': [[1, 2, 0], [2, 4, -1], [3, 6, -2], [4, 8, -3]],
         'certified_cells': 25,
         'verification': {'lambda_orders': [-2, -1],
                          'eta_samples': 4,
                          'integrals_checked': 480,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 1; gradient valuation bound 0 '
                   'certified on 25 cell(s)'},
    ),
    (
        ('Q5', '3*x*e', ('x', 'e'), (2,), (0,), 1, {'verify_eta_samples': 3}),
        {'r': -1,
         'threshold': 1,
         'cell_level': 0,
         'grad_ord_bound': 0,
         'rest_profile': [[0, None, 1], [1, None, 0], [2, None, -1], [3, None, -2]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-1, 0],
                          'eta_samples': 3,
                          'integrals_checked': 72,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 0; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('Q5', 'x^2 + 2*x*e', ('x', 'e'), (5,), (1,), 1, {}),
        {'r': 0,
         'threshold': 0,
         'cell_level': 1,
         'grad_ord_bound': 0,
         'rest_profile': [[1, 2, 0], [2, 4, -1], [3, 6, -2], [4, 8, -3]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-2, -1],
                          'eta_samples': 4,
                          'integrals_checked': 480,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 1; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('F3t', 'x*e', ('x', 'e'), (0,), (2,), 1, {}),
        {'r': 1,
         'threshold': -1,
         'cell_level': 2,
         'grad_ord_bound': 0,
         'rest_profile': [[2, None, -1], [3, None, -2], [4, None, -3], [5, None, -4]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-3, -2],
                          'eta_samples': 3,
                          'integrals_checked': 216,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 2; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('F3t', 'x^2*e', ('x', 'e'), (1,), (1,), 1, {}),
        {'r': 0,
         'threshold': 0,
         'cell_level': 1,
         'grad_ord_bound': 0,
         'rest_profile': [[1, 2, 0], [2, 4, -1], [3, 6, -2], [4, 8, -3]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-2, -1],
                          'eta_samples': 3,
                          'integrals_checked': 72,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 1; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
    (
        ('F3t', 'x^2 + y^2 + x*e', ('x', 'y', 'e'), (0, 0), (1, 1), 1, {}),
        {'r': 0,
         'threshold': 0,
         'cell_level': 1,
         'grad_ord_bound': 0,
         'rest_profile': [[1, 2, 0], [2, 4, -1], [3, 6, -2], [4, 8, -3]],
         'certified_cells': 1,
         'verification': {'lambda_orders': [-2, -1],
                          'eta_samples': 3,
                          'integrals_checked': 72,
                          'unit_depth_capped': False,
                          'all_zero': True},
         'detail': 'windows chain downward from level 1; gradient valuation bound 0 '
                   'certified on 1 cell(s)'},
    ),
]


@pytest.mark.parametrize(
    "case, want", SPB_PINS, ids=[f"{c[0]} {c[1]}" for c, _ in SPB_PINS]
)
def test_stationary_phase_reports_are_pinned(case, want):
    key, src, names, center, radii, delta, options = case
    f = FIELDS[key]
    p = parse_poly(src, names)
    phi = SchwartzBruhat.indicator(Polyball(f, tuple(map(f.from_int, center)), radii))
    V = Polyball.ball(f, (f.one(),), 1)
    assert stationary_phase_bound(p, phi, V, delta, **options).to_json() == want


# the report of x^4 + x*e on the two-cell support 1_{B_2(1)} + 1_{B_2(pi)},
# captured while the x bounds of the remainder profile were read off the
# hull of the support cells.  The centres have ords 0 and 1, so the support
# radius is 0 and B(2) is 5 over Q_3 (6 x^2 and 4 x at ord x >= 0) and 6
# over F_3((t)) (4 x); the cell B_2(pi) alone would give 7 on both
TWO_CELL_PIN = {
    'r': 1,
    'threshold': -1,
    'cell_level': 2,
    'grad_ord_bound': 0,
    'certified_cells': 2,
    'verification': {'lambda_orders': [-3, -2],
                     'eta_samples': 3,
                     'integrals_checked': 216,
                     'unit_depth_capped': False,
                     'all_zero': True},
    'detail': 'windows chain downward from level 2; gradient valuation bound 0 '
              'certified on 2 cell(s)',
}
TWO_CELL_PROFILES = {
    'Q3': [[2, 5, -1], [3, 7, -2], [4, 9, -3], [5, 11, -4]],
    'F3t': [[2, 6, -1], [3, 9, -2], [4, 12, -3], [5, 15, -4]],
}


@pytest.mark.parametrize("key", sorted(TWO_CELL_PROFILES))
def test_stationary_phase_report_on_two_support_cells_is_pinned(key):
    f = FIELDS[key]
    p = parse_poly("x^4 + x*e", ("x", "e"))
    phi = indicator(f, (f.one(),), 2) + indicator(f, (f.uniformizer(),), 2)
    assert len(phi.cells) == 2 and phi.support_radii() == (0,)
    want = dict(TWO_CELL_PIN, rest_profile=TWO_CELL_PROFILES[key])
    assert stationary_phase_bound(p, phi, unit_eta_ball(f), 1).to_json() == want


def test_one_phase_over_several_fields_matches_fresh_phases():
    # the expansion kept on p holds no field data: one MultiPoly used in
    # turn over Q_3, F_3((t)) and Q_3 gives what a fresh equal one gives.
    # The terms divisible by 3 count over Q_3 and vanish over F_3((t)), so
    # the integrals at the stationary point 0 differ between the fields.
    # The phase data is kept per field, keyed by the field and not by p:
    # the second Q_3 pass reads the objects of the first, F_3((t)) has its
    # own, and neither hash nor == reads them
    src, names = "x^2*e + 3*x^3 + 3*x*e", ("x", "e")
    shared = parse_poly(src, names)
    fresh_hash = hash(shared)
    values = {}
    kept = []
    for key in ("Q3", "F3t", "Q3"):
        f = FIELDS[key]
        phi = indicator(f, (f.zero(),), 0)
        for o in (-1, -2, -3):
            lam = f.mul(f.pow_uniformizer(o), f.from_int(2))
            for eta in ((f.one(),), (f.add(f.one(), f.uniformizer()),)):
                got = oscillatory_integral(shared, phi, eta, lam)
                assert got == oscillatory_integral(parse_poly(src, names), phi, eta, lam)
                values.setdefault(key, []).append(got)
        # away from 0 the gradient 2xe + 9x^2 + 3e is a unit
        phi, V = indicator(f, (f.one(),), 1), unit_eta_ball(f)
        want = stationary_phase_bound(parse_poly(src, names), phi, V, 1).to_json()
        assert stationary_phase_bound(shared, phi, V, 1).to_json() == want
        kept.append({k: shared._phases[f, k] for k in (1, 2)})
    assert values["Q3"][:6] == values["Q3"][6:] != values["F3t"]
    assert set(shared._taylor) == {1, 2}
    q3, f3t, q3_again = kept
    assert all(q3_again[k] is q3[k] for k in (1, 2))
    assert all(f3t[k] is not q3[k] for k in (1, 2))
    assert set(shared._phases) == {(FIELDS[key], k) for key in ("Q3", "F3t") for k in (1, 2)}
    assert hash(shared) == fresh_hash == hash(parse_poly(src, names))
    assert shared == parse_poly(src, names) and parse_poly(src, names) == shared
    assert shared != parse_poly("x^2*e", names)


@st.composite
def _elements(draw, key):
    """Zero, integers, and elements with p-power, prime-to-p and mixed
    denominators (over F_p((t)): Laurent polynomials with poles)."""
    f = FIELDS[key]
    kind = draw(st.sampled_from(["zero", "int", "p-power", "prime-to-p", "mixed"]))
    if kind == "zero":
        return f.zero()
    if f.kind != "p-adic":
        lo = {"int": 0, "p-power": -3, "prime-to-p": 0, "mixed": -3}[kind]
        digits = draw(st.lists(st.integers(0, f.p - 1), min_size=1, max_size=5))
        return LaurentPoly(f.p, [(lo + i, d) for i, d in enumerate(digits)])
    num = draw(st.integers(-60, 60))
    if kind == "int":
        return Fraction(num)
    unit = draw(st.sampled_from([u for u in (2, 3, 7, 11, 25, 49) if u % f.p]))
    k = draw(st.integers(1, 4))
    den = {"p-power": f.p**k, "prime-to-p": unit, "mixed": f.p**k * unit}[kind]
    return Fraction(num, den)


@st.composite
def _ords_cases(draw):
    """(field key, Taylor expansion, point).  Half the time the phase gets a
    factor x_0 - x_1 and the point has x_0 = x_1, so some values are 0 (INF)."""
    key = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(2, 3))
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        expo = tuple(draw(st.integers(0, 3)) for _ in range(n))
        coeffs[expo] = draw(st.integers(-9, 9))
    poly = MultiPoly(n, coeffs)
    point = [draw(_elements(key)) for _ in range(n)]
    if draw(st.booleans()):
        poly = poly * (MultiPoly.var(n, 0) - MultiPoly.var(n, 1))
        point[1] = point[0]
    return key, poly.taylor(draw(st.integers(1, n))), tuple(point)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ords_cases())
def test_ords_at_matches_field_valuations(case):
    key, tay, point = case
    f = FIELDS[key]
    forms = {a: int_form(f, q.coeffs) for a, q in tay.items()}
    codes = walk_codes(f, point, 0, 0, forms.values())
    deg = max((m for _, m in forms.values()), default=0)
    ords = _OrdsAt(codes, forms, tuple(map(codes.code, point)), deg)
    for a, q in tay.items():
        assert ords[a] == f.ord(q.eval_field(f, point))


TABLE_FIELDS = [
    make_field(kind, p)
    for kind in ("p-adic", "equal-characteristic")
    for p in (2, 3)
]


@st.composite
def _table_cases(draw):
    """(field, polynomials, point, lo): two to four polynomials of distinct
    total degree read at one point.  Coordinates may be zero or carry
    denominators (poles over F_p((t))), and the walk's least radius lo may
    be negative, so the codes often have den > 1.  Some coefficients are
    multiples of p, and some polynomials are p times another, so over
    F_p((t)) a form may drop in degree or be zero."""
    f = draw(st.sampled_from(TABLE_FIELDS))
    p, n = f.p, draw(st.integers(1, 3))
    polys = []
    for deg in draw(st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True)):
        cuts = sorted(draw(st.lists(st.integers(0, deg), min_size=n - 1, max_size=n - 1)))
        top = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        coeffs = {top: draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))}
        for _ in range(draw(st.integers(0, 4))):
            expo = tuple(draw(st.integers(0, deg)) for _ in range(n))
            if sum(expo) <= deg:
                coeffs[expo] = draw(st.integers(-9, 9))
        poly = MultiPoly(n, coeffs)
        polys.append(poly.scale(p) if draw(st.integers(0, 3)) == 0 else poly)
    point = []
    for _ in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            point.append(f.zero())
        elif f.kind == "p-adic":
            den = p ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 5, 7]))
            point.append(Fraction(draw(st.integers(-40, 40)), den))
        else:
            lo = draw(st.integers(-3, 0))
            digits = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
            point.append(LaurentPoly(p, [(lo + i, d) for i, d in enumerate(digits)]))
    return f, polys, tuple(point), draw(st.integers(-2, 0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_table_cases())
def test_point_table_reads_every_form_as_its_own_evaluation(case):
    # one power table of the point, built to the largest degree, serves
    # every form: each is homogenised with its own degree, so its N is that
    # of the one-shot kernel, its value that of eval_field and its ord that
    # of the field, whatever the table's degree and the walk's den
    f, polys, point, lo = case
    forms = {i: int_form(f, poly.coeffs) for i, poly in enumerate(polys)}
    codes = walk_codes(f, point, lo, 1, forms.values())
    nums = tuple(map(codes.code, point))
    deg = max((m for _, m in forms.values()), default=0)
    ords = _OrdsAt(codes, forms, nums, deg)
    for i, poly in enumerate(polys):
        cs, m = forms[i]
        num = ords.value(forms[i])
        want = poly.eval_field(f, point)
        assert num == monomial_ints(cs, nums, codes.den)
        assert codes.element(num, m) == want
        assert ords[i] == codes.ord(forms[i], nums) == f.ord(want)

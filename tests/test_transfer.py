"""Transfer between Q_p and F_p((t)) where agreement is provable for the p used.

Exponential integrals defined over Z agree between Q_p and F_p((t)) once p
is large (Cluckers and Loeser, Ann. Math. 2010).  The cases here are the
ones where the agreement follows from Hensel's lemma alone, so a mismatch is
a program defect.

Let g be an integer polynomial and p a prime with p > deg g, p not dividing
lc(g) and p not dividing disc(g).  Then the reduction of g mod p has the
degree of g and simple roots.  Over either field, every root of g is
integral (p does not divide lc(g)), its residue is a root of the reduction
in F_p, and each such residue lifts to exactly one root, at which
|g'| = 1.  So ``padic_roots`` finds as many roots over Q_p as over
F_p((t)), with the same residues mod pi, and for g = f - y the pushforward
f_!(1_O)(y) is that number on both sides.  Both sides are also checked
against the roots of the reduction, counted in F_p.

For f = x^2 and p odd, f_!(1_O)(y) = 2 q^(ord y / 2) when y is a nonzero
square in O and 0 elsewhere, on both sides: y = u pi^k with u a unit is a
square exactly when k is even and u is a square mod p, and then its two
square roots +-x have ord x = k / 2 and |f'(x)| = |2x| = q^(-k/2).  That
test reads only the parity of ord y and the residue of ac y, so the levels
that ``level_measure`` finds agree too.

The oscillatory integral of b x^2 over O at lam = pi^o u, for p odd and p
not dividing b u, is the Gauss integral of ``oracles.quadratic_gauss_integral``
on both sides, a value fixed by p, o and b u alone.  The stationary-phase
report of a x^2 + b x e with integer centres reads the same ords on both
sides when the x-gradient is a unit on the support (see the test).
"""

import pytest

from umla.cyclo import CycloScalar
from umla.distribution import MixedCellDistribution
from umla.fibers import FiberProblem, fiber_integrate, level_measure, padic_roots
from umla.fields import Polyball, make_field
from umla.microlocal import oscillatory_integral, stationary_phase_bound
from umla.polys import MultiPoly, ring_det, sylvester_matrix
from umla.schwartz import SchwartzBruhat

from conftest import rng_for
from oracles import quadratic_gauss_integral

PRIMES = (7, 11, 13)
# the fields of these tests only: Q_p and F_p((t)) for p = 7, 11, 13
FIELD_PAIRS = {
    p: (make_field("p-adic", p), make_field("equal-characteristic", p)) for p in PRIMES
}


def _discriminant_free(coeffs: list, p: int) -> bool:
    """p divides neither lc(g) nor Res(g, g') = +-lc(g) disc(g), for g with
    the integer ``coeffs`` (degree order)."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    res = ring_det(sylvester_matrix(coeffs, deriv, 0), 0, 1)
    return coeffs[-1] % p != 0 and res % p != 0


def _residue_roots(coeffs: list, p: int) -> set:
    """The roots in F_p of g mod p, by trying every residue."""
    return {
        r for r in range(p) if sum(c * r**i for i, c in enumerate(coeffs)) % p == 0
    }


def _transfer_polys(p: int, count: int) -> list:
    """``count`` integer coefficient lists (degree order) of degree 2 to 4
    that satisfy the hypotheses of the module docstring at p."""
    rng = rng_for(f"transfer:{p}")
    out = []
    while len(out) < count:
        deg = rng.randrange(2, 5)
        coeffs = [rng.randrange(-30, 31) for _ in range(deg)] + [rng.choice((-3, -1, 1, 2, 5))]
        if _discriminant_free(coeffs, p):
            out.append(coeffs)
    return out


def _residues(field, roots) -> list:
    return sorted(field.residue_code(field.canon_trunc(r, 1), 0) for r in roots)


@pytest.mark.parametrize("p", PRIMES)
def test_root_counts_and_residues_agree(p):
    qp, fpt = FIELD_PAIRS[p]
    with_roots = 0
    for coeffs in _transfer_polys(p, 24):
        g = MultiPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})
        want = sorted(_residue_roots(coeffs, p))
        over_qp = padic_roots(g, qp, 3)
        over_fpt = padic_roots(g, fpt, 3)
        assert _residues(qp, over_qp) == want, coeffs
        assert _residues(fpt, over_fpt) == want, coeffs
        with_roots += bool(want)
    assert with_roots >= 8


@pytest.mark.parametrize("p", PRIMES)
def test_fiber_values_agree(p):
    qp, fpt = FIELD_PAIRS[p]
    ones = [SchwartzBruhat.indicator(Polyball.ball(F, (F.zero(),), 0)) for F in (qp, fpt)]
    checked = nonzero = 0
    for coeffs in _transfer_polys(p, 6):
        problem = FiberProblem(MultiPoly(1, {(i,): c for i, c in enumerate(coeffs) if c}))
        for y in range(-12, 13):
            shifted = [coeffs[0] - y] + coeffs[1:]
            if not _discriminant_free(shifted, p):
                continue
            want = CycloScalar.fraction(p, len(_residue_roots(shifted, p)))
            got = [fiber_integrate(problem, one, y) for one in ones]
            assert got == [want, want], (coeffs, y)
            checked += 1
            nonzero += not want.is_zero()
    assert checked >= 100 and nonzero >= 30


# [DERIVED] x^2 with phi = 1_O and eps (0, 1) at the default resolution 3:
# the region is O mod pi^3, the one critical value is 0, and eps keeps the
# q^3 - q^(2 - eps) cells with ord y <= eps.  The value at a unit y is 2 or
# 0 by whether y is a square mod p, and 0 at ord y = 1 (odd), so it is
# constant on the level-1 cells and not on O: mu = 1 at both eps.
LEVEL_CELLS = {7: (294, 336), 11: (1210, 1320), 13: (2028, 2184)}


@pytest.mark.parametrize("p", PRIMES)
def test_square_map_levels_agree(p):
    problem = FiberProblem.from_string("x^2")
    reports = []
    for field in FIELD_PAIRS[p]:
        one = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), 0))
        reports.append(level_measure(problem, one, eps_values=(0, 1)))
    qp_rep, fpt_rep = reports
    assert (qp_rep.rows, qp_rep.cells, qp_rep.fit) == (fpt_rep.rows, fpt_rep.cells, fpt_rep.fit)
    assert qp_rep.rows == {(0, 0): 1, (1, 0): 1}
    assert tuple(qp_rep.cells[eps, 0] for eps in (0, 1)) == LEVEL_CELLS[p]


@pytest.mark.parametrize("p", PRIMES)
def test_square_map_values_agree(p):
    problem = FiberProblem.from_string("x^2")
    squares = {r * r % p for r in range(1, p)}
    checked = nonzero = 0
    for field in FIELD_PAIRS[p]:
        one = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), 0))
        for k in (-2, -1, 0, 1, 2, 3):
            for u in (1, 2, 3, p - 1):
                y = field.mul(field.from_int(u), field.pow_uniformizer(k))
                if k >= 0 and k % 2 == 0 and u in squares:
                    want = CycloScalar.fraction(p, 2 * p ** (k // 2))
                else:
                    want = CycloScalar.zero(p)
                assert fiber_integrate(problem, one, y) == want, (field, k, u)
                checked += 1
                nonzero += not want.is_zero()
    assert checked == 48 and nonzero >= 8


# -- Fourier transforms of integral balls ---------------------------------------
#
# The transform of 1_{B_r(z)} is q^(-r) psi(z xi) on B_(1-r)(0), constant on
# the cells of level 1 - a, a = min(r, ord z).  For z = c pi^k with c a digit
# the cells are the same digit codes over both fields, and psi(z xi) reads
# the L = r - a digits of xi at 1 - r to -a.  For L <= 1 that is the one
# digit d at -k, and psi(z xi) = exp(2 pi i c d / p) over Q_p and over
# F_p((t)) alike.  For L >= 2 the two characters differ by construction:
# over Q_p the lower digits add p^L-th roots of unity, and over F_p((t))
# psi reads the digit at t^0 alone.  So the coefficients are compared only
# for k >= r - 1; the cells are compared for every r and k.

_ORIGIN = -8  # below every centre and level of these cases


def _codes(field, point) -> tuple:
    return tuple(field.residue_code(x, _ORIGIN) for x in point)


def _ball_cases():
    for p in PRIMES:
        for r in range(-1, 3):
            for k in range(-1, 3):
                for c in (0, 1, p - 1):
                    yield p, r, k, c


def _dist_rendering(field, u) -> list:
    """The terms of u as (coef, modulation codes, (radius, centre code))."""
    return [
        (
            coef,
            _codes(field, mod),
            tuple((f.r, field.residue_code(f.center, _ORIGIN)) for f in fs),
        )
        for coef, mod, fs in u.terms
    ]


@pytest.mark.parametrize("p, r, k, c", list(_ball_cases()))
def test_fourier_of_integral_balls_agrees_between_the_field_kinds(p, r, k, c):
    got = []
    for field in FIELD_PAIRS[p]:
        z = field.mul(field.from_int(c), field.pow_uniformizer(k))
        phi = SchwartzBruhat.indicator(Polyball.ball(field, (z,), r))
        hat = phi.fourier()
        cells = {_codes(field, key): coef for key, coef in hat.cells.items()}
        u = MixedCellDistribution.from_sb(phi).fourier_dist()
        got.append((hat.levels, cells, _dist_rendering(field, u)))
    (levels_q, cells_q, dist_q), (levels_t, cells_t, dist_t) = got
    assert levels_q == levels_t
    assert cells_q.keys() == cells_t.keys()
    assert [t[1:] for t in dist_q] == [t[1:] for t in dist_t]
    if k >= r - 1 or c == 0:
        assert cells_q == cells_t
        assert dist_q == dist_t


# The Gauss integral: for p odd and b prime to p, integral over O of
# psi(pi^(-k) b x^2) dx depends on p, k and b alone (the classical evaluation
# of ``oracles.quadratic_gauss_integral``, its G(b) kept as its p terms), so
# both field kinds must give the same scalar.
@pytest.mark.parametrize("p", PRIMES)
def test_gauss_integrals_agree_between_the_field_kinds(p):
    nonzero = 0
    for a in (1, 2, 3):
        for u in (1, 2, p - 1):
            got = []
            for field in FIELD_PAIRS[p]:
                phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.zero(),), 0))
                phase = MultiPoly(1, {(2,): a})
                row = []
                for o in range(1, -5, -1):
                    lam = field.mul(field.pow_uniformizer(o), field.from_int(u))
                    val = oscillatory_integral(phase, phi, (), lam)
                    assert val == quadratic_gauss_integral(field, -o, u * a), (field, a, u, o)
                    row.append(val)
                got.append(row)
            assert got[0] == got[1]
            nonzero += sum(not v.is_zero() for v in got[0])
    assert nonzero == 9 * 6


# A Z-phase a x^2 + b x e with p dividing neither 2a nor b, on phi = 1 on
# c + pi O and eta in u + pi O for integers c, u with 2 a c + b u prime to
# p: the x-gradient 2 a x + b e is a unit on supp x V on both sides, every
# Taylor coefficient is an integer form with unit coefficients, so the
# certificate, the threshold and the verification read the same ords, and
# the reports must be equal.
@pytest.mark.parametrize("p", PRIMES)
def test_stationary_phase_reports_agree_between_the_field_kinds(p):
    rng = rng_for(f"transfer-phase:{p}")
    checked = 0
    while checked < 6:
        a, b = rng.randrange(1, 3 * p), rng.randrange(1, 3 * p)
        c, u = rng.randrange(p), rng.randrange(1, p)
        if (2 * a) % p == 0 or b % p == 0 or (2 * a * c + b * u) % p == 0:
            continue
        phase = MultiPoly(2, {(2, 0): a, (1, 1): b})
        reports = []
        for field in FIELD_PAIRS[p]:
            phi = SchwartzBruhat.indicator(Polyball.ball(field, (field.from_int(c),), 1))
            V = Polyball.ball(field, (field.from_int(u),), 1)
            reports.append(stationary_phase_bound(phase, phi, V, 1).to_json())
        assert reports[0] == reports[1], (a, b, c, u)
        assert reports[0]["verification"]["all_zero"] is True
        checked += 1

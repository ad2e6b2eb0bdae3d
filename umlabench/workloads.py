"""Seeded call lists for the three workloads, each call paired with its oracle.

``build(name, seed, smoke)`` imports ``umla`` and constructs every input
with the library's own constructors (fields, ``parse_poly``,
``FiberProblem``, ``SchwartzBruhat``, distributions, cexp ``parse``), so
that the benchmark's set-up time covers that work.  Each ``Call`` holds a
zero-argument ``run`` that makes one public entry-point call, and a
``check`` that judges its result with the independent oracles of
``oracle.py`` after the timed region.

``build`` returns two lists: the calls of the timed region, and a probe of
the calls that hit a known program defect (see KNOWN_DEFECTS).  Both come
from one pass of the same seeded generator; a fixed rule, not the oracle,
decides which list a call joins.

The seed chooses coefficients, base points, units and centers.  The shape
of each call (field, phase, order of lambda, map, workload mix) is fixed by
its slot in the plans below, so that the mix and the cost of each slot, and
with them the timings, barely depend on the seed.  The few slots whose cost
swings far with the input draw from a fixed stream (see build_charsum and
_fiber_y).
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction
from types import SimpleNamespace

import oracle as O

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


class Call:
    """One entry-point call; ``meta`` holds inputs the self-test needs."""

    __slots__ = ("kind", "label", "run", "check", "meta")

    def __init__(self, kind, label, run, check, meta=None):
        self.kind, self.label, self.run, self.check = kind, label, run, check
        self.meta = meta or {}


def load_umla() -> SimpleNamespace:
    """Import the package fresh (callers may have purged it from sys.modules)."""
    names = {
        "fields": "umla.fields",
        "cyclo": "umla.cyclo",
        "polys": "umla.polys",
        "schwartz": "umla.schwartz",
        "dist": "umla.distribution",
        "fibers": "umla.fibers",
        "ml": "umla.microlocal",
        "cexp": "umla.cexp",
    }
    importlib.import_module("umla")
    return SimpleNamespace(**{k: importlib.import_module(v) for k, v in names.items()})


def _coef(F, rng) -> int:
    """An integer coefficient in [1, p^2) prime to p, so a unit of the field."""
    while True:
        v = rng.randrange(1, F.p * F.p)
        if v % F.p:
            return v


def _elem(F, digits, lo: int = 0):
    """sum d_i * uniformizer^(lo + i), built with the library's own field ops."""
    acc = F.zero()
    for i, d in enumerate(digits):
        if d % F.p:
            acc = F.add(acc, F.mul(F.from_digit(d % F.p), F.pow_uniformizer(lo + i)))
    return acc


def _rand_elem(F, rng, lo: int, hi: int, unit_lead: bool = False):
    digits = [rng.randrange(F.p) for _ in range(lo, hi)]
    if unit_lead:
        digits[0] = rng.randrange(1, F.p)
    return _elem(F, digits, lo)


def _unit(F, rng, depth: int = 2):
    return F.residue_lift(rng.choice(F.unit_classes(depth)))


def _ofield(F) -> O.OField:
    return O.OField(F.kind, F.p)


def _fields(U):
    mk = U.fields.make_field
    return SimpleNamespace(
        Q2=mk("p-adic", 2), Q3=mk("p-adic", 3), Q5=mk("p-adic", 5),
        F3=mk("equal-characteristic", 3),
    )


# ---------------------------------------------------------------------------
# charsum: oscillatory integrals and stationary-phase bounds
# ---------------------------------------------------------------------------

PHASES_1D = {"A": "{a}*x^2*e + {b}*x", "B": "{a}*x^3 + {b}*x*e"}
PHASE_2D = "{a}*x^2 + x*y + {b}*y*e"

# (field, phase shape, ord lambda, calls per round).  The counts put the
# median call inside the block of ~30 ms calls (Q_3 at ord -3 and the
# Q_3/F_3/Q_2 bounds) and the 90th percentile inside the block of four
# ~185 ms calls (Q_3 2-D at ord -2), so neither quantile sits on a jump
# between cost classes.
CHARSUM_1D = [
    ("Q5", "A", -1, 1), ("Q5", "B", -1, 1), ("Q5", "A", -2, 2), ("Q5", "B", -2, 2),
    ("Q5", "A", -3, 1),
    ("Q3", "A", -1, 1), ("Q3", "B", -1, 1), ("Q3", "A", -2, 1), ("Q3", "B", -2, 1),
    ("Q3", "A", -3, 2), ("Q3", "B", -3, 2),
    ("F3", "A", -1, 1), ("F3", "B", -1, 1), ("F3", "A", -2, 1), ("F3", "B", -2, 1),
    ("F3", "A", -3, 2), ("F3", "B", -3, 2),
]
CHARSUM_2D = [("Q3", -1, 2), ("Q3", -2, 4), ("F3", -1, 2), ("F3", -2, 2), ("Q5", -1, 2)]
# stationary_phase_bound: (field, linear?, calls per round)
CHARSUM_SPB = [("Q5", True, 2), ("Q3", True, 3), ("F3", True, 3),
               ("Q3", False, 3), ("F3", False, 3), ("Q2", False, 3)]


def _osc_call(U, F, rng, shape_src, nvars, o):
    names = ("x", "e") if nvars == 1 else ("x", "y", "e")
    P = U.polys.parse_poly(shape_src.format(a=_coef(F, rng), b=_coef(F, rng)), names)
    center = tuple(_rand_elem(F, rng, 0, 2) for _ in range(nvars))
    phi = U.schwartz.SchwartzBruhat.indicator(U.fields.Polyball.ball(F, center, 0))
    eta = (_unit(F, rng),)
    lam = F.mul(F.pow_uniformizer(o), _unit(F, rng))
    ml = U.ml

    def run():
        return ml.oscillatory_integral(P, phi, eta, lam)

    def check(res):
        OF = _ofield(F)
        want, mass = O.osc_integral(
            OF, dict(P.coeffs), O.sb_cells(OF, phi), [OF.lift(v) for v in eta], OF.lift(lam)
        )
        got = O.scalar_value(F.p, res.terms)
        O.expect(O.close(got, want, mass), f"integral {got} != brute {want}")

    return Call("oscillatory_integral", f"{F} {nvars}D ord(lam)={o}", run, check)


def _spb_call(U, F, rng, linear: bool):
    Pb, SB = U.fields.Polyball, U.schwartz.SchwartzBruhat
    if linear:
        src, phi_r, delta, vw, es = "{a}*x*e", 0, 1, 2, 4
        src = src.format(a=_coef(F, rng))
    elif F.p == 2:
        src, phi_r, delta, vw, es = "x^2*e", 1, Fraction(1, 2), 2, 4
    else:
        src, phi_r, delta, vw, es = "{a}*x^2 + {b}*x*e", 1, 1, 2, 1
        src = src.format(a=_coef(F, rng), b=_coef(F, rng))
    P = U.polys.parse_poly(src, ("x", "e"))
    center = F.one() if F.p == 2 and not linear else _rand_elem(F, rng, phi_r, phi_r + 1)
    phi = SB.indicator(Pb.ball(F, (center,), phi_r))
    V = Pb.ball(F, (_unit(F, rng, 1),), 1)
    ml = U.ml

    def run():
        return ml.stationary_phase_bound(
            P, phi, V, delta, verify_window=vw, verify_eta_samples=es
        )

    def check(rep):
        check_phase_bound(F, P, phi, V, rep)

    kind = "linear" if linear else "quadratic"
    return Call("stationary_phase_bound", f"{F} {kind} {src}", run, check)


def check_phase_bound(F, P, phi, V, rep):
    """The certified claim: I_eta(lam) = 0 whenever ord(lam) < threshold."""
    O.expect(rep.r == -rep.threshold, "r must be minus the threshold")
    OF = _ofield(F)
    cells = O.sb_cells(OF, phi)
    c = OF.lift(V.centers[0])
    etas = [c, OF.add(c, OF.mono(1, V.radii[0]))]
    for o in (rep.threshold - 1, rep.threshold - 2):
        for code in (1, F.p - 1, F.p + 1):
            lam = OF.mul(OF.mono(1, o), OF.from_code(code))
            for eta in etas:
                val, mass = O.osc_integral(OF, dict(P.coeffs), cells, [eta], lam)
                O.expect(O.close(val, 0, mass), f"I({o}) = {val} below the threshold")


def build_charsum(U, rng, smoke: bool) -> tuple:
    """Every call is seeded except the three Q_5 calls that take over half a second.

    Their cost swings by tens of percent with the coefficients (the number
    of distinct angles in the running sum), and three calls are too few to
    average that out, so they draw from a fixed stream instead.
    """
    FS = _fields(U)
    fixed = random.Random("umlabench:charsum:heavy")
    calls = []
    for fname, shape, o, count in CHARSUM_1D:
        if smoke and (fname == "Q5" or o < -1):
            continue
        src = fixed if (fname, o) == ("Q5", -3) else rng
        for _ in range(1 if smoke else count):
            calls.append(_osc_call(U, getattr(FS, fname), src, PHASES_1D[shape], 1, o))
    for fname, o, count in CHARSUM_2D:
        if smoke and (fname == "Q5" or o < -1):
            continue
        for _ in range(1 if smoke else count):
            calls.append(_osc_call(U, getattr(FS, fname), rng, PHASE_2D, 2, o))
    for fname, linear, count in CHARSUM_SPB:
        if smoke and fname == "Q5":
            continue
        src = fixed if fname == "Q5" else rng
        for _ in range(1 if smoke else count):
            calls.append(_spb_call(U, getattr(FS, fname), src, linear))
    return calls, []


# ---------------------------------------------------------------------------
# fiber: pushforward values, root search, local-constancy scans
# ---------------------------------------------------------------------------

FIBER_MAPS = ["x^2", "x^3 - x", "x^2 + 3*x", "x^3 + 2*x"]
# base points y = f(x0), so every fiber is nonempty.  The cost of a call
# (root clusters, precision escalations) follows the valuation of the
# discriminant of f - y, so each seeded slot takes the first of up to
# FIBER_DRAWS seeded unit x0 where that valuation is 0: a fiber without
# clusters.  Where no x0 gives 0 (x^2 and x^3 - x over Q_2), it takes the
# least valuation drawn.  Fibers with clusters come from the last two slots, where x0 = pi*(1 + k*pi) is
# fixed: roots of positive valuation escalate the precision, and that cost
# swings by 100x with how close the roots are.  No map has an integral
# critical point here, so every y is a regular value.
FIBER_SEEDED_SLOTS = 6
FIBER_SLOTS = FIBER_SEEDED_SLOTS + 2
FIBER_DRAWS = 64
# padic_roots runs on f - y at the first fixed base point, at precision 4.
# level_measure: (field, eps values)
FIBER_LEVEL = [("Q2", (0, 1, 2)), ("Q3", (0, 1, 2)), ("F3", (0, 1, 2)), ("Q5", (0, 1))]


def _fiber_y(U, F, problem, rng, slot: int):
    if slot >= FIBER_SEEDED_SLOTS:
        x0 = _elem(F, [1, slot - FIBER_SEEDED_SLOTS], 1)
        return problem.f.eval_field(F, (x0,))
    best = None
    for _ in range(FIBER_DRAWS):
        y = problem.f.eval_field(F, (_rand_elem(F, rng, 0, 4, unit_lead=True),))
        v = F.ord(problem.disc.eval_field(F, (y,)))
        if best is None or v < best[0]:
            best = (v, y)
        if v == 0:
            break
    return best[1]


def _fiber_phis(U, F, rng):
    Pb, SB = U.fields.Polyball, U.schwartz.SchwartzBruhat
    unit_ball = SB.indicator(Pb.ball(F, (F.zero(),), 0))
    two_cells = SB.indicator(Pb.ball(F, (_unit(F, rng, 1),), 1)) + SB.indicator(
        Pb.ball(F, (_rand_elem(F, rng, 0, 2),), 2), 3
    )
    return [unit_ball, two_cells]


def _poly_dict(problem) -> dict:
    return dict(problem.f.coeffs)


def _fiber_call(U, F, problem, phi, y):
    fib = U.fibers

    def run():
        return fib.fiber_integrate(problem, phi, y)

    def check(res):
        OF = _ofield(F)
        cells = [
            (OF.lift(c[0]), phi.levels[0], O.scalar_fraction(F.p, v.terms))
            for c, v in phi.cells.items()
        ]
        want = O.fiber_value(OF, _poly_dict(problem), cells, OF.lift(y))
        got = O.scalar_fraction(F.p, res.terms)
        O.expect(got == want, f"fiber value {got} != solution count {want}")

    label = f"{F} f={U.fibers.poly_to_string(problem.f)} y={F.element_to_json(y)}"
    return Call("fiber_integrate", label, run, check)


def _roots_call(U, F, problem, y: int, k: int):
    fib = U.fibers
    src = f"{fib.poly_to_string(problem.f)} - {y}"
    poly = U.polys.parse_poly(src, ("x",))

    def run():
        return fib.padic_roots(poly, F, k)

    def check(res):
        OF = _ofield(F)
        keys = [OF.key(OF.lift(r), k) for r in res]
        O.expect(len(set(keys)) == len(keys), "duplicate roots")
        want = O.root_classes(OF, dict(poly.coeffs), k)
        O.expect(set(keys) == want, f"roots {sorted(map(str, keys))} != {sorted(map(str, want))}")

    return Call("padic_roots", f"{F} {src} k={k}", run, check)


def _level_call(U, F, rng, eps):
    fib, Pb, SB = U.fibers, U.fields.Polyball, U.schwartz.SchwartzBruhat
    b = rng.randrange(1, F.p) * F.p + rng.randrange(F.p)
    problem = fib.FiberProblem.from_string(f"x^2 + {b}")
    phi = SB.indicator(Pb.ball(F, (F.zero(),), 0))

    def run():
        return fib.level_measure(problem, phi, eps)

    def check(rep):
        OF = _ofield(F)
        check_level(OF, _poly_dict(problem), [OF.const(b)], phi, rep)

    return Call("level_measure", f"{F} f=x^2 + {b} eps={eps}", run, check)


def check_level(OF, poly, crit, phi, rep):
    """Recompute each (eps, m) row of a level report from oracle fiber values."""
    R, w = rep.resolution, rep.window
    O.expect(R > max(rep.eps_values) and R > w, "resolution too small")
    x0 = OF.from_json(rep.x0_json)
    cells = [
        (OF.lift(c[0]), phi.levels[0], O.scalar_fraction(OF.p, v.terms))
        for c, v in phi.cells.items()
    ]
    centers = OF.grid(OF.const(0), w, R)
    prox = [max((OF.ord(OF.sub(c, z)) for z in crit), default=None) for c in centers]
    for m in rep.m_values:
        local = O.restrict_cells(OF, cells, x0, m)
        values: dict = {}
        for eps in rep.eps_values:
            included = [i for i, d in enumerate(prox) if d is None or d <= eps]
            for i in included:
                if i not in values:
                    values[i] = O.fiber_value(OF, poly, local, centers[i])
            mu = R
            for cand in range(min(w, 0), R + 1):
                groups: dict = {}
                if all(
                    groups.setdefault(OF.key(centers[i], cand), values[i]) == values[i]
                    for i in included
                ):
                    mu = cand
                    break
            O.expect(rep.cells[(eps, m)] == len(included), f"cell count at eps={eps}")
            O.expect(rep.rows[(eps, m)] == mu, f"mu({eps},{m}) = {rep.rows[(eps, m)]} != {mu}")
    a, b, c = rep.fit
    O.expect(
        all(Fraction(mu) <= a * e + b * m + c for (e, m), mu in rep.rows.items()),
        "affine fit does not dominate",
    )


# (entry point, field, map) combinations that hit the root-separation defect
# of fibers._unit_window_roots (ROADMAP item 1) at the commit that added the
# benchmark; their calls form the probe, not the timed region.
# fiber_integrate over Q_2 undercounts the fibers of x^2 and
# x^3 - x, whose distinct roots share a truncation (x^2 = 9 gives 2, not 4),
# and padic_roots raises ClusterUnresolved on x^2 + 3*x - 18 over Q_3 at
# k = 4.  The same generator draws these inputs on every seed, so the probe
# shows the defect on every run until it is fixed.
KNOWN_DEFECTS = {
    ("fiber_integrate", "Q2", "x^2"),
    ("fiber_integrate", "Q2", "x^3 - x"),
    ("padic_roots", "Q3", "x^2 + 3*x"),
}
# The same defect on a clustered fiber over Q_5, which the seeded slots never
# draw: x0 = 451 (base-5 digits below) gives two roots of
# x^3 + 2x = f(x0) in one residue class, and fiber_integrate on 1_{Z_5}
# returns 6 where the solution count is 11.  (field, map, digits of x0)
FIBER_DEFECT_POINTS = [("Q5", "x^3 + 2*x", [1, 0, 3, 3])]


def build_fiber(U, rng, smoke: bool) -> tuple:
    FS = _fields(U)
    problems = [U.fibers.FiberProblem.from_string(src) for src in FIBER_MAPS]
    calls, probe = [], []

    def add(call, fname, src):
        (probe if (call.kind, fname, src) in KNOWN_DEFECTS else calls).append(call)

    for fname in ("Q2", "Q3", "Q5", "F3"):
        F = getattr(FS, fname)
        phis = _fiber_phis(U, F, rng)
        for pi, (src, problem) in enumerate(zip(FIBER_MAPS, problems)):
            for slot in range(FIBER_SLOTS) if not smoke else (0, 6):
                y = _fiber_y(U, F, problem, rng, slot)
                add(_fiber_call(U, F, problem, phis[slot % 2], y), fname, src)
            if F.kind == "p-adic":
                if not (smoke and pi):
                    y = int(_fiber_y(U, F, problem, rng, FIBER_SEEDED_SLOTS))
                    add(_roots_call(U, F, problem, y, 4), fname, src)
    for fname, eps in FIBER_LEVEL:
        if smoke and fname == "Q5":
            continue
        calls.append(_level_call(U, getattr(FS, fname), rng, eps))
    for fname, src, digits in FIBER_DEFECT_POINTS:
        F = getattr(FS, fname)
        problem = problems[FIBER_MAPS.index(src)]
        unit_ball = U.schwartz.SchwartzBruhat.indicator(U.fields.Polyball.ball(F, (F.zero(),), 0))
        y = problem.f.eval_field(F, (_elem(F, digits),))
        probe.append(_fiber_call(U, F, problem, unit_ball, y))
    return calls, probe


# ---------------------------------------------------------------------------
# transform: cell and distribution transforms, verdicts, maps, cexp families
# ---------------------------------------------------------------------------

TRANSFORM_FIELDS = ("Q3", "F3", "Q5", "Q2")


# The seed moves points and coefficients but not the geometry that sets the
# cost of a transform call: cell functions have distinct cells and support
# radius 0, and each distribution places its pieces at fixed offsets.


def _rand_sb(U, F, rng, n: int, level: int, ncells: int):
    """ncells distinct level-`level` cells in the unit ball, the first at a unit."""
    SB, CS = U.schwartz.SchwartzBruhat, U.cyclo.CycloScalar
    cells = {}
    while len(cells) < ncells:
        center = tuple(
            _rand_elem(F, rng, 0, level, unit_lead=not cells and i == 0) for i in range(n)
        )
        key = tuple(F.canon_trunc(c, level) for c in center)
        if key in cells:
            continue
        if len(cells) % 2:
            coef = CS.root(F.p, Fraction(rng.randrange(1, F.p), F.p), Fraction(rng.randrange(1, 4)))
        else:
            coef = CS.fraction(F.p, Fraction(rng.randrange(1, 7), rng.randrange(1, 4)))
        cells[key] = coef
    return SB(F, n, level, cells)


def _rand_dist(U, F, rng):
    """A point mass at a, a scaled ball density on B_1(a + 1) and a modulated
    unit-ball density, on the line."""
    D, SB, Pb, CS = U.dist.MixedCellDistribution, U.schwartz.SchwartzBruhat, U.fields.Polyball, U.cyclo.CycloScalar
    a = _rand_elem(F, rng, 0, 2)
    mod = F.mul(F.pow_uniformizer(-1), _unit(F, rng, 1))
    unit_ball = SB.indicator(Pb.ball(F, (F.zero(),), 0))
    u = D.delta(F, (a,)).scale(rng.randrange(1, 4))
    u = u + D.from_sb(SB.indicator(Pb.ball(F, (F.add(a, F.one()),), 1))).scale(
        CS.root(F.p, Fraction(rng.randrange(1, F.p), F.p))
    )
    u = u + D.modulated_constant(F, (mod,)).mul_by_sb(unit_ball)
    return u, (a,)


def _mixed_dist_2d(U, F, rng):
    """delta(a) (x) 1_{B_1(c)}, a 2-D cell function and a point mass at (a + 1, c)."""
    D, SB, Pb = U.dist.MixedCellDistribution, U.schwartz.SchwartzBruhat, U.fields.Polyball
    a = _rand_elem(F, rng, 0, 2)
    c = _rand_elem(F, rng, 0, 2)
    line = D.delta(F, (a,)).tensor(D.from_sb(SB.indicator(Pb.ball(F, (c,), 1))))
    blob = D.from_sb(_rand_sb(U, F, rng, 2, 1, 2))
    return line + blob + D.delta(F, (F.add(a, F.one()), c)).scale(2)


def _test_balls(points, radii=(-1, 0, 1, 2)):
    """Test polyballs (one radius for all coordinates) around given points."""
    return [tuple((x, r) for x in pt) for pt in points for r in radii]


def _dist_points(OF, u) -> list:
    """Support anchors of every term: atoms, ball centers, zero on full lines."""
    pts = []
    for _, _, facs in u.terms:
        pt = []
        for f in facs:
            kind = O.factor_kind(f)
            pt.append(OF.lift(f.point if kind == "DeltaF" else f.center) if kind != "FullF" else OF.const(0))
        pts.append(tuple(pt))
    return pts


def check_pairings(OF, got_terms, want_fn, balls, what):
    for ball in balls:
        got, m1 = O.pair_terms(OF, got_terms, ball)
        want, m2 = want_fn(ball)
        O.expect(O.close(got, want, m1 + m2), f"{what}: <result, 1_B> = {got} != {want} on {ball}")


def _sb_calls(U, F, rng):
    calls = []
    for n, level, ncells in ((1, 2, 3), (2, 1, 2)):
        phi = _rand_sb(U, F, rng, n, level, ncells)
        calls.append(Call("SchwartzBruhat.fourier", f"{F} n={n}", lambda phi=phi: phi.fourier(),
                          lambda res, phi=phi: check_fourier(F, phi, res)))
        fine = tuple(level + 1 for _ in range(n))
        calls.append(Call("SchwartzBruhat.refine", f"{F} n={n}", lambda phi=phi, fine=fine: phi.refine(fine),
                          lambda res, phi=phi: check_refine(F, phi, res)))
    f = _rand_sb(U, F, rng, 1, 1, 2)
    g = _rand_sb(U, F, rng, 1, 2, 2)
    calls.append(Call("SchwartzBruhat.convolve", f"{F} n=1", lambda: f.convolve(g),
                      lambda res: check_convolve(F, f, g, res)))
    return calls


def check_fourier(F, phi, res):
    """Brute transform at every output cell, and inversion: F(F phi)(x) = q^-n phi(-x)."""
    OF = _ofield(F)
    src = O.sb_cells(OF, phi)
    out = O.sb_cells(OF, res)
    for center, _, coef in out:
        want, mass = O.sb_transform_at(OF, src, center)
        O.expect(O.close(coef, want, mass), f"transform at {center}: {coef} != {want}")
    scale = float(F.p) ** (-phi.n)
    for center, _, coef in src + [(tuple(OF.mono(1, -1) for _ in range(phi.n)), None, 0j)]:
        back, mass = O.sb_transform_at(OF, out, tuple(OF.neg(x) for x in center))
        want = scale * O.sb_value_at(OF, src, center)
        O.expect(O.close(back, want, mass), f"inversion at {center}: {back} != {want}")


def check_refine(F, phi, res):
    OF = _ofield(F)
    src = O.sb_cells(OF, phi)
    fan = 1
    for new, old in zip(res.levels, phi.levels):
        fan *= F.p ** (new - old)
    O.expect(len(res.cells) == len(phi.cells) * fan, "refinement lost or added cells")
    for center, _, coef in O.sb_cells(OF, res):
        O.expect(O.close(coef, O.sb_value_at(OF, src, center)), f"refined value at {center}")


def check_convolve(F, f, g, res):
    """Convolution theorem: F(f*g)(xi) = F(f)(xi) F(g)(xi) on the dual grid."""
    OF = _ofield(F)
    cf, cg, cr = O.sb_cells(OF, f), O.sb_cells(OF, g), O.sb_cells(OF, res)
    r = max(f.levels[0], g.levels[0])
    for xi in OF.grid(OF.const(0), 1 - r, 2):
        lhs, m1 = O.sb_transform_at(OF, cr, (xi,))
        a, m2 = O.sb_transform_at(OF, cf, (xi,))
        b, m3 = O.sb_transform_at(OF, cg, (xi,))
        O.expect(O.close(lhs, a * b, m1 + m2 * m3), f"convolution theorem at {xi}: {lhs} != {a * b}")


def _dist_calls(U, F, rng):
    D, SB, Pb = U.dist.MixedCellDistribution, U.schwartz.SchwartzBruhat, U.fields.Polyball
    ml = U.ml
    calls = []
    u, atom = _rand_dist(U, F, rng)
    chi = SB.indicator(Pb.ball(F, (_rand_elem(F, rng, 0, 1),), 0)) + SB.indicator(
        Pb.ball(F, (atom[0],), 2), 2
    )

    def check_fd(res):
        OF = _ofield(F)
        balls = _test_balls(_dist_points(OF, res) + _dist_points(OF, u))

        def want(ball):
            # <F u, 1_B> = <u, F 1_B>, F 1_{B_s(x)} = q^-s psi(x .) 1_{B_{1-s}(0)}
            s = sum(r for _, r in ball)
            test = [(OF.const(0), 1 - r) for _, r in ball]
            v, m = O.pair_terms(OF, u.terms, test, [x for x, _ in ball])
            return v * float(F.p) ** (-s), m * float(F.p) ** (-s)

        check_pairings(OF, res.terms, want, balls, "fourier_dist")

    calls.append(Call("MixedCellDistribution.fourier_dist", f"{F}", lambda: u.fourier_dist(), check_fd))

    def check_mul(res):
        OF = _ofield(F)
        cells = O.sb_cells(OF, chi)
        balls = _test_balls(_dist_points(OF, u) + [c for c, _, _ in cells])

        def want(ball):
            tot, mass = 0j, 0.0
            for center, levels, coef in cells:
                meet = [O.ball_meet(OF, c, r, bc, br) for c, r, (bc, br) in zip(center, levels, ball)]
                if any(mm is False for mm in meet):
                    continue
                v, m = O.pair_terms(OF, u.terms, meet)
                tot += coef * v
                mass += abs(coef) * m
            return tot, mass

        check_pairings(OF, res.terms, want, balls, "mul_by_sb")

    calls.append(Call("MixedCellDistribution.mul_by_sb", f"{F}", lambda: u.mul_by_sb(chi), check_mul))

    full = ml.LambdaSubgroup.full(F, m=1)
    xi0 = (F.one(),)
    for x0, tag in ((atom, "atom"), ((F.add(atom[0], F.one()),), "off-atom")):
        calls.append(Call(
            "is_smooth_at", f"{F} {tag}",
            lambda x0=x0: ml.is_smooth_at(u, x0, xi0, full),
            lambda res, x0=x0: check_smooth(F, u, x0, xi0, res),
            {"field": F},
        ))

    # maps: a diagonal scale-and-shift iso in both directions
    scale = F.mul(F.uniformizer(), F.from_digit(rng.randrange(1, F.p)))
    shift = _rand_elem(F, rng, 0, 2)
    amap = ml.AffineMap(F, ((scale,),), (shift,))
    calls.append(Call("pullback", f"{F} x -> {F.element_to_json(scale)} x + b",
                      lambda: ml.pullback(amap, u), lambda res: check_map(F, u, amap, res, pull=True)))
    calls.append(Call("pushforward", f"{F} x -> {F.element_to_json(scale)} x + b",
                      lambda: ml.pushforward(amap, u), lambda res: check_map(F, u, amap, res, pull=False)))

    # wavefront cones cost ~0.03 ms; with the 1-D one the round's median call
    # falls inside the dense block of 0.25-0.3 ms calls, not at its top edge
    u2 = _mixed_dist_2d(U, F, rng)
    for v, n in ((u, 1), (u2, 2)):
        calls.append(Call("wavefront_exact", f"{F} n={n}", lambda v=v: ml.wavefront_exact(v),
                          lambda res, v=v: check_wavefront(F, v, res)))
    proj = ml.AffineMap(F, ((F.one(), F.zero()),), (shift,))
    calls.append(Call("pushforward", f"{F} projection", lambda: ml.pushforward(proj, u2),
                      lambda res: check_projection(F, u2, proj, res)))
    return calls


def _ray_transform(OF, u, x0, s, lam_xi):
    """F(1_{B_s(x0)} u)(lam xi0): the pairing of u with a modulated ball."""
    return O.pair_terms(OF, u.terms, [(x, s) for x in x0], lam_xi)


def check_smooth(F, u, x0, xi0, v):
    OF = _ofield(F)
    X0 = [OF.lift(x) for x in x0]
    XI = [OF.lift(x) for x in xi0]
    s = v.localization_level
    if v.kind == "not_smooth":
        O.expect(bool(v.witnesses), "a not_smooth verdict needs witnesses")
        for lam, val in v.witnesses:
            L = OF.lift(lam)
            got, mass = _ray_transform(OF, u, X0, s, [OF.mul(L, x) for x in XI])
            want = O.scalar_value(F.p, val.terms)
            O.expect(abs(want) > 1e-6, "witness value is zero")
            O.expect(O.close(got, want, mass), f"witness {want} != transform {got}")
        return
    start = v.threshold if v.threshold is not None else 0
    O.expect(v.kind == "smooth" or v.kind == "undecided", f"unknown verdict {v.kind}")
    for o in (start - 1, start - 2, start - 4):
        for code in (1, F.p - 1):
            L = OF.mul(OF.mono(1, o), OF.from_code(code))
            got, mass = _ray_transform(OF, u, X0, s, [OF.mul(L, x) for x in XI])
            O.expect(O.close(got, 0, mass), f"transform {got} on the ray at ord {o} of a {v.kind} pair")


def check_map(F, u, amap, res, pull: bool):
    """<f^* u, 1_B> = q^ord(a) <u, 1_f(B)>;  <f_* u, 1_B> = <u, 1_f^-1(B)>."""
    OF = _ofield(F)
    a, b = OF.lift(amap.rows[0][0]), OF.lift(amap.shift[0])
    k = OF.ord(a)
    balls = _test_balls(_dist_points(OF, res) + _dist_points(OF, u))

    def want(ball):
        ((x, r),) = ball
        if pull:
            v, m = O.pair_terms(OF, u.terms, [(OF.add(OF.mul(a, x), b), r + k)])
            return v * float(F.p) ** k, m * float(F.p) ** k
        return O.pair_terms(OF, u.terms, [(OF.div_mono(OF.sub(x, b), a), r - k)])

    check_pairings(OF, res.terms, want, balls, "pullback" if pull else "pushforward")


def check_projection(F, u2, proj, res):
    """<pi_* u, 1_B> = <u, 1_{B - b} (x) 1>."""
    OF = _ofield(F)
    b = OF.lift(proj.shift[0])
    pts = [(p[0],) for p in _dist_points(OF, u2)] + _dist_points(OF, res)
    balls = _test_balls(pts)

    def want(ball):
        ((x, r),) = ball
        return O.pair_terms(OF, u2.terms, [(OF.sub(x, b), r), None])

    check_pairings(OF, res.terms, want, balls, "projection pushforward")


def check_wavefront(F, u2, cone):
    """Every atom is singular in every direction; every cell shows a singular ray."""
    OF = _ofield(F)
    atoms = [
        tuple(OF.lift(f.point) for f in facs)
        for _, _, facs in u2.terms
        if all(O.factor_kind(f) == "DeltaF" for f in facs)
    ]

    def in_cell(cell, x, cofree_needed):
        for base, xc in zip(cell.base, x):
            kind = type(base).__name__
            if kind == "BasePoint" and OF.lift(base.value) != xc:
                return False
            if kind == "BaseBall" and not OF.in_ball(xc, OF.lift(base.center), base.radius):
                return False
        return all(cell.cofree[i] for i in cofree_needed)

    for x in atoms:
        O.expect(any(in_cell(c, x, range(len(x))) for c in cone.cells), f"atom {x} missing from the cone")
    for cell in cone.cells:
        x0 = []
        for base in cell.base:
            kind = type(base).__name__
            x0.append(OF.lift(base.value) if kind == "BasePoint" else OF.lift(base.center) if kind == "BaseBall" else OF.const(0))
        free = [i for i, c in enumerate(cell.cofree) if c]
        O.expect(bool(free), "cone cell with no free codirection")
        xi = [OF.const(1) if i == free[0] else OF.const(0) for i in range(len(x0))]
        s = 4
        rough = False
        for o in (-6, -7):
            lam = OF.mono(1, o)
            val, mass = _ray_transform(OF, u2, x0, s, [OF.mul(lam, c) for c in xi])
            rough = rough or not O.close(val, 0, mass)
        O.expect(rough, f"cone cell at {x0} shows no singular ray")


# -- cexp families, each with a closed form its reports are judged against ----

FAMILIES = [
    # (term, radius range, is a distribution, closed form b(OF, x, r))
    ("[ord(x - {c}) >= r]", (-2, 3), True, lambda OF, x, r, c: 1.0 if OF.in_ball(x, OF.const(c), r) else 0.0),
    ("q^(-r)", (-2, 3), True, lambda OF, x, r, c: float(OF.p) ** (-r)),
    ("q^(-r) * psi(x)", (-2, 3), False, lambda OF, x, r, c: float(OF.p) ** (-r) * OF.psi(x)),
    ("q^(-r) + [r >= 0]", (-2, 3), False, lambda OF, x, r, c: float(OF.p) ** (-r) + (1.0 if r >= 0 else 0.0)),
]


def _dis_call(U, fields, rng, fam, trials):
    src, radii, is_dist, closed = fam
    c = rng.randrange(1, 5)
    family = U.cexp.FamilyDistribution(U.cexp.parse(src.format(c=c)), ("x",))
    seed = rng.randrange(10**6)
    cexp = U.cexp

    def run():
        return cexp.dis_sample(family, fields, trials=trials, radius_range=radii, seed=seed)

    def check(rep):
        O.expect(len(rep.rows) == len(fields), "one row per field")
        for row, F in zip(rep.rows, fields):
            OF = _ofield(F)
            O.expect(not row.error and row.trials == trials, f"row error {row.error!r}")
            if is_dist:
                O.expect(row.passed, f"{src} is a distribution but the probe failed over {F}")
            for w in row.witnesses:
                x = OF.from_json(w["x"][0])
                r = w["r"]
                b = lambda z, rr: closed(OF, z, rr, c)
                if w["law"] == "additivity":
                    # the probe sums the subcells at their canonical centers
                    kids = sum(b(OF.trunc(z, r + 1), r + 1) for z in OF.grid(OF.trunc(x, r), r, r + 1))
                    O.expect(abs(b(x, r) - kids) > 1e-9, "additivity witness is not a violation")
                else:
                    moved = OF.from_json(w["x_moved"][0])
                    O.expect(OF.in_ball(moved, x, r), "moved center left the ball")
                    O.expect(abs(b(x, r) - b(moved, r)) > 1e-9, "center witness is not a violation")
            O.expect(row.additivity_failures + row.center_failures <= trials, "more failures than trials")

    return Call("dis_sample", f"{src.format(c=c)} over {[str(f) for f in fields]}", run, check,
                {"family": fam, "c": c})


def build_transform(U, rng, smoke: bool) -> tuple:
    FS = _fields(U)
    calls = []
    for fname in TRANSFORM_FIELDS[:2] if smoke else TRANSFORM_FIELDS:
        F = getattr(FS, fname)
        calls += _sb_calls(U, F, rng)
        calls += _dist_calls(U, F, rng)
    for fam in FAMILIES:
        calls.append(_dis_call(U, [FS.Q2, FS.F3], rng, fam, 4 if smoke else 8))
    return calls, []


BUILDERS = {"charsum": build_charsum, "fiber": build_fiber, "transform": build_transform}
# A fiber or transform round holds this many copies of the call plan, each
# with its own seeded inputs.  Their call costs follow the inputs, and more
# draws per slot narrow how far the latency quantiles move with the seed.
# A charsum slot's cost is fixed by its shape, and its round is long already.
COPIES = {"charsum": 1, "fiber": 2, "transform": 2}


def build(name: str, seed: int, smoke: bool = False) -> tuple:
    """(timed calls, known-defect probe calls) of a workload."""
    U = load_umla()
    rng = random.Random(f"umlabench:{name}:{seed}")
    calls, probe = [], []
    for _ in range(1 if smoke else COPIES[name]):
        c, p = BUILDERS[name](U, rng, smoke)
        calls += c
        probe += p
    return calls, probe

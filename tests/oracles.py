"""Independent brute-force oracles used to pin derived test values.

Everything here recomputes quantities through a different path than the
package implementation: digit-by-digit expansions instead of one-shot modular
inverses, Riemann sums over refined cells instead of closed-form transform
rules. Oracles are deliberately slow and simple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from umla.cexp.syntax import (
    Add,
    And,
    Cmp,
    Const,
    Indicator,
    Mul,
    Neg,
    Not,
    Or,
    Ord,
    Pow,
    Psi,
    QPow,
    Sub,
    SumZ,
    Var,
)
from umla.cyclo import CycloScalar
from umla.distribution import FULL, BallF, DeltaF, NonCompactSupport
from umla.fibers import _Search, _critical_values, fiber_integrate
from umla.fields import LaurentPoly, LocalField, Polyball, ball_intersect_1d
from umla.polys import ring_det, sylvester_matrix


def digits(field: LocalField, x, lo: int, hi: int) -> list[int]:
    """Digit expansion d_lo..d_{hi-1} of x, requiring ord(x) >= lo.

    Extracted greedily: at each exponent try all q digits and keep the one
    whose subtraction raises the valuation.
    """
    assert field.is_zero(x) or field.ord(x) >= lo
    out = []
    rest = x
    for e in range(lo, hi):
        d = 0
        if not field.is_zero(rest) and field.ord(rest) == e:
            for cand in range(1, field.q):
                trial = field.sub(
                    rest, field.mul(field.from_int(cand), field.pow_uniformizer(e))
                )
                if field.is_zero(trial) or field.ord(trial) > e:
                    d = cand
                    rest = trial
                    break
            else:  # pragma: no cover - a digit always exists
                raise AssertionError("no digit found")
        out.append(d)
    return out


def ac_by_digits(field: LocalField, x, m: int) -> int:
    """Angular component via digit expansion of the unit part."""
    v = field.ord(x)
    ds = digits(field, x, v, v + m)
    return sum(d * field.q**i for i, d in enumerate(ds))


def psi_by_digits(field: LocalField, x) -> Fraction:
    """Character angle via digit expansion (p-adic) or constant term (Laurent)."""
    if field.is_zero(x):
        return Fraction(0)
    if field.kind == "p-adic":
        v = field.ord(x)
        if v >= 1:
            return Fraction(0)
        ds = digits(field, x, v, 1)
        ang = Fraction(0)
        for i, d in enumerate(ds):
            e = v + i  # digit exponent; x/p contributes p^(e-1)
            if e <= 0:
                ang += Fraction(d, field.p ** (1 - e))
        return ang % 1
    v = x.ord()
    if v > 0:
        return Fraction(0)
    ds = digits(field, x, v, 1)
    return Fraction(ds[-v], field.p) if len(ds) > -v else Fraction(0)


def canonical_terms(p: int, raw) -> tuple:
    """Canonical term tuple of (e2, angle, coef) triples, on Fractions only.

    The reduction ``CycloScalar`` used before it moved to integer angle
    indices: angles are taken mod 1 and summed in Fraction-keyed dicts, then
    rewritten on the basis {zeta^j : 0 <= j < phi(p^K)} of Q(zeta_{p^K}).
    """

    def ppow_exp(ang: Fraction) -> int:
        d, k = ang.denominator, 0
        while d % p == 0:
            d //= p
            k += 1
        if d != 1:
            raise ValueError(f"angle {ang} is not of p-power order for p={p}")
        return k

    slices: dict = {}
    for e2, ang, coef in raw:
        if not coef:
            continue
        k, r = divmod(int(e2), 2)
        coef = Fraction(coef) * Fraction(p) ** k
        ang = ang % 1
        slices.setdefault(r, {})
        slices[r][ang] = slices[r].get(ang, Fraction(0)) + coef
    out = []
    for e2 in sorted(slices):
        angs = slices[e2]
        K = max((ppow_exp(a) for a in angs), default=0)
        if K == 0:
            c = sum(angs.values(), Fraction(0))
            if c:
                out.append((e2, Fraction(0), c))
            continue
        pK = p**K
        phi = pK // p * (p - 1)
        vec: dict = {}
        for ang, c in angs.items():
            j = int(ang * pK)
            vec[j] = vec.get(j, Fraction(0)) + c
        for j in [j for j in vec if j >= phi]:
            c = vec.pop(j)
            if not c:
                continue
            t = j - phi
            for i in range(p - 1):
                jj = t + i * (pK // p)
                vec[jj] = vec.get(jj, Fraction(0)) - c
        for j in sorted(vec):
            if vec[j]:
                out.append((e2, Fraction(j, pK), vec[j]))
    return tuple(out)


def eval_by_fractions(coeffs: dict, xs) -> Fraction:
    """sum_e c_e x^e over Q, monomial by monomial on Fractions.

    ``coeffs`` maps exponent tuples to int or Fraction coefficients; the
    point's coordinates are rationals.  No common denominator, no shared
    powers: each monomial is its own product of Fraction powers.
    """
    total = Fraction(0)
    for e, c in coeffs.items():
        term = Fraction(c)
        for x, k in zip(xs, e, strict=True):
            term *= Fraction(x) ** k
        total += term
    return total


def eval_by_laurent(p: int, coeffs: dict, xs) -> LaurentPoly:
    """sum_e c_e x^e over F_p((t)), element by element on ``LaurentPoly``.

    ``coeffs`` maps exponent tuples to int or ``LaurentPoly`` coefficients.
    Horner's rule in the first variable, whose coefficients are evaluated
    the same way in the others; every step is one ``LaurentPoly`` product or
    sum.  Nothing is packed into an integer.
    """
    if not xs:
        total = LaurentPoly(p)
        for c in coeffs.values():
            total = total + (c if isinstance(c, LaurentPoly) else LaurentPoly(p, [(0, c)]))
        return total
    by_degree: dict = {}
    for e, c in coeffs.items():
        by_degree.setdefault(e[0], {})[e[1:]] = c
    acc = LaurentPoly(p)
    for k in range(max(by_degree, default=-1), -1, -1):
        acc = acc * xs[0] + eval_by_laurent(p, by_degree.get(k, {}), xs[1:])
    return acc


def eval_coeffs_at(field: LocalField, coeffs, x):
    """sum_k coeffs[k] x^k for field-element coefficients in degree order,
    by ``eval_by_fractions`` over Q_p and ``eval_by_laurent`` over F_p((t))."""
    cs = {(k,): c for k, c in enumerate(coeffs)}
    if field.kind == "p-adic":
        return eval_by_fractions(cs, (x,))
    return eval_by_laurent(field.p, cs, (x,))


def cell_reps_by_field_ops(field: LocalField, center, r: int, level: int) -> list:
    """The level-`level` subcell centres of B_r(center) in the order of
    ``LocalField.cell_reps``, each built by field operations:
    canon_trunc(c0 + residue_lift(k) * pi^r, level), c0 the centre cut at
    `level`."""
    if level < r:
        raise ValueError("refinement level must be at least the radius")
    c0 = field.canon_trunc(center, level)
    step = field.pow_uniformizer(r)
    return [
        field.canon_trunc(field.add(c0, field.mul(field.residue_lift(k), step)), level)
        for k in range(field.q ** (level - r))
    ]


def children_by_field_ops(ball: Polyball) -> list[Polyball]:
    """The q^n sub-polyballs of every radius plus one, their centres from
    ``cell_reps_by_field_ops``, the last coordinate varying fastest."""
    radii = tuple(r + 1 for r in ball.radii)
    axes = [
        cell_reps_by_field_ops(ball.field, c, r, r + 1)
        for c, r in zip(ball.centers, ball.radii)
    ]
    return [Polyball(ball.field, cs, radii) for cs in product(*axes)]


def fourier_by_pairs(f) -> tuple[tuple, dict]:
    """(levels, cells) of ``SchwartzBruhat.fourier`` of f, the angle of
    every (cell, frequency) pair read as psi_angle(center * xi), the
    frequencies xi from ``cell_reps_by_field_ops``."""
    field, p = f.field, f.field.p
    g = f.normalized()
    levels, cells = list(g.levels), g.cells
    for i in range(g.n):
        r = levels[i]
        a = min([r] + [field.ord(c[i]) for c in cells if not field.is_zero(c[i])])
        raw: dict = {}
        for center, coef in cells.items():
            for xi in cell_reps_by_field_ops(field, field.zero(), 1 - r, 1 - a):
                angle = field.psi_angle(field.mul(center[i], xi))
                key = center[:i] + (xi,) + center[i + 1 :]
                raw.setdefault(key, []).extend(
                    (e2 - 2 * r, ang + angle, c) for e2, ang, c in coef
                )
        cells = {k: CycloScalar(p, b) for k, b in raw.items()}
        cells = {k: v for k, v in cells.items() if not v.is_zero()}
        levels[i] = 1 - a
    return tuple(levels), cells


def refine_by_field_ops(f, levels) -> dict:
    """The cells of f refined to ``levels``, keyed by element tuples: the
    children of each cell from ``cell_reps_by_field_ops``, per coordinate."""
    out = {}
    for center, coef in f.cells.items():
        axes = [
            cell_reps_by_field_ops(f.field, c, r, s)
            for c, r, s in zip(center, f.levels, levels)
        ]
        for combo in product(*axes):
            out[combo] = coef
    return out


def convolve_by_pairs(f, g) -> tuple[tuple, dict]:
    """(levels, cells) of ``SchwartzBruhat.convolve`` of f and g: both
    refined by ``refine_by_field_ops`` to the common levels, the cell of a
    pair of centres their field sum cut by ``canon_trunc``, its coefficient
    the product times the cell volume q^(-sum levels)."""
    field = f.field
    levels = tuple(max(a, b) for a, b in zip(f.levels, g.levels))
    fine_g = refine_by_field_ops(g, levels)
    raw: dict = {}
    for c1, v1 in refine_by_field_ops(f, levels).items():
        for c2, v2 in fine_g.items():
            key = tuple(
                field.canon_trunc(field.add(x, y), r) for x, y, r in zip(c1, c2, levels)
            )
            raw.setdefault(key, []).extend(
                (e2 - 2 * sum(levels), ang, c) for e2, ang, c in v1 * v2
            )
    cells = {k: CycloScalar(field.p, b) for k, b in raw.items()}
    return levels, {k: v for k, v in cells.items() if not v.is_zero()}


def riemann_integral(field: LocalField, fn, ball, level: int) -> CycloScalar:
    """Sum fn(center)*q^(-level*n) over the level-`level` cells of a polyball."""
    total = CycloScalar.zero(field.p)
    n = ball.n
    for center in ball.cells_at_level(level):
        total += fn(center).q_shift(-2 * level * n)
    return total


def riemann_fourier(field: LocalField, fn, support_ball, level: int, xi) -> CycloScalar:
    """Direct cell-sum Fourier transform of a function given pointwise.

    `level` must be fine enough that fn and x -> psi(<x, xi>) are constant on
    the cells; the caller is responsible for choosing it.
    """

    def integrand(center):
        return fn(center) * field.psi_pair(center, xi)

    return riemann_integral(field, integrand, support_ball, level)


def _scanned_centres(problem, field: LocalField, report) -> dict:
    """{eps: the centres ``level_measure`` scans at eps} for the resolution,
    the window and the eps values of ``report``, with the proximities to
    the critical values taken by field subtraction.  A critical value of
    ord at most the least eps is at proximity <= eps from every centre, so
    the critical values of ord above it are enough."""
    lowest = min(report.window, 0, report.eps_values[0] + 1)
    critical = _critical_values(problem, field, lowest, report.resolution)
    region = Polyball.ball(field, (field.zero(),), report.window)
    prox = {}
    for (c,) in region.cells_at_level(report.resolution):
        ords = [field.ord(field.sub(c, z)) for z in critical]
        prox[c] = max(ords) if ords else None
    return {
        eps: [c for c, d in prox.items() if d is None or d <= eps]
        for eps in report.eps_values
    }


def level_rows_by_fiber_integrate(problem, phi, report) -> tuple[dict, dict]:
    """(rows, cells) of ``level_measure`` for phi, with the resolution, the
    window, the eps and m values and x0 of ``report``, by the per-centre
    loop: one public ``fiber_integrate`` per scanned centre and level-m
    restriction, proximities by field subtraction, and each level's groups
    keyed on ``canon_trunc`` of the centre.  ``fiber_integrate`` raises
    OnDiscriminant at a critical value, so a scan that reaches one fails."""
    field = phi.field
    resolution = report.resolution
    lo = min(report.window, 0)
    scanned = _scanned_centres(problem, field, report)
    x0 = field.element_from_json(report.x0_json)
    rows, cells = {}, {}
    for m in report.m_values:
        local = phi.restrict(Polyball.ball(field, (x0,), m))
        values = {}
        for eps in report.eps_values:
            included = scanned[eps]
            for c in included:
                if c not in values:
                    values[c] = fiber_integrate(problem, local, c)
            mu = resolution
            for cand in range(lo, resolution + 1):
                groups: dict = {}
                if all(
                    groups.setdefault(field.canon_trunc(c, cand), values[c]) == values[c]
                    for c in included
                ):
                    mu = cand
                    break
            rows[(eps, m)] = mu
            cells[(eps, m)] = len(included)
    return rows, cells


def level_bounds_by_fiber_points(problem, phi, report) -> dict:
    """{(eps, m): the a-priori bound on the row's mu} for ``level_measure``
    of phi with the settings of ``report``: the largest
    max(L, v_i + 1) + v_i over the fiber points x_i in the support of the
    level-m restriction of phi of every centre scanned at eps, with
    v_i = ord f'(x_i) and L the restriction's constancy level, and at least
    the least level the scan tries, min(window, 0).  The fiber points come
    from ``_Search.roots`` at the restriction's constancy level."""
    field = phi.field
    lo = min(report.window, 0)
    scanned = _scanned_centres(problem, field, report)
    _, disc, forms = problem.reduced(field)
    x0 = field.element_from_json(report.x0_json)
    bounds = {}
    for m in report.m_values:
        local = phi.restrict(Polyball.ball(field, (x0,), m))
        per_centre = {}
        if not local.is_zero():
            support, level = local.alpha_bounds()
            for c in scanned[report.eps_values[-1]]:
                search = _Search(
                    field, forms, [(c,)], min(support, 0), max(level, support + 1, 1)
                )
                points = search.roots((c,), lambda: disc.ord_field(field, (c,)))
                per_centre[c] = max(
                    [lo]
                    + [
                        max(level, v + 1) + v
                        for x, v in points
                        if not local.eval_at((x,)).is_zero()
                    ]
                )
        for eps in report.eps_values:
            bounds[(eps, m)] = max(
                [per_centre[c] for c in scanned[eps] if c in per_centre], default=lo
            )
    return bounds


def pushforward_by_counting(problem, phi, y, level: int, finer: int = 0) -> CycloScalar:
    """f_!(phi)(y) by counting the solutions of f(x) = y mod pi^level: the
    sum of phi(c) over the level-(level + finer) cells c of the support of
    phi with ord(f(c) - y) >= level, times q^(-finer), that is q^level
    times the phi-weighted volume of {x : ord(f(x) - y) >= level}.

    At a regular value y this equals the sum of phi(x) / |f'(x)| over the
    fiber once the level is deep enough: phi constant on the cells around
    each fiber point x, on which f is a bijection scaled by |f'(x)|.  The
    count reads that volume exactly when f maps each cell around a fiber
    point into one level-``level`` ball, which holds where ord f' >= -finer.
    f is evaluated as its integer coefficients give it, by
    ``eval_coeffs_at`` on their images in the field, with no reduction of
    its own.
    """
    field = phi.field
    f = problem.f
    coeffs = [field.from_int(f.coeffs.get((i,), 0)) for i in range(f.degree_in(0) + 1)]
    (radius,) = phi.levels
    total = CycloScalar.zero(field.p)
    for (center,), coef in phi.cells.items():
        ball = Polyball.ball(field, (center,), radius)
        for (c,) in ball.cells_at_level(level + finer):
            if field.ord(field.sub(eval_coeffs_at(field, coeffs, c), y)) >= level:
                total += coef
    return total.q_shift(-2 * finer)


def ord_resultant_by_ring_det(field: LocalField, coeffs) -> int:
    """ord Res(h, h') for the polynomial h with field-element coefficients
    ``coeffs`` (degree order), at its formal degrees (n, n - 1): ``ring_det``
    of the Sylvester matrix over the field, the formal derivative keeping a
    zero leading coefficient where the field kills n."""
    dcoeffs = [field.mul(field.from_int(i), c) for i, c in enumerate(coeffs)][1:]
    zero = field.zero()
    return field.ord(ring_det(sylvester_matrix(coeffs, dcoeffs, zero), zero, field.one()))


def point_by_digits(field: LocalField, rng, lo: int, hi: int):
    """sum_e d_e pi^e over e in [lo, hi), one ``rng.randrange(q)`` draw per
    digit from the lowest exponent up, added one monomial at a time."""
    acc = field.zero()
    for e in range(lo, hi):
        d = rng.randrange(field.q)
        if d:
            acc = field.add(acc, field.mul(field.from_int(d), field.pow_uniformizer(e)))
    return acc


def eval_per_node(term, field: LocalField, env: dict) -> CycloScalar:
    """Value of a scalar term with one ``CycloScalar`` operation per node.

    Covers Const, Var, Ord, QPow (integer and half-integer exponents), Psi,
    Indicator of integer comparisons (with and, or, not), +, -, negation,
    * (eager: every factor is evaluated), ^ and ``sum`` over a range.  Field
    variables are bound to field elements, integer ones to ints.  Each node
    canonicalises its value, and a sum adds its terms with ``+`` one by one.
    """
    p = field.p

    def fv(node):
        if isinstance(node, Const):
            return field.from_int(int(node.value))
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, (Add, Sub, Mul)):
            op = {Add: field.add, Sub: field.sub, Mul: field.mul}[type(node)]
            return op(fv(node.lhs), fv(node.rhs))
        if isinstance(node, Neg):
            return field.neg(fv(node.arg))
        if isinstance(node, Pow):
            return field.power(fv(node.base), node.k)
        raise TypeError(f"no field value for {type(node).__name__}")

    def num(node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return Fraction(env[node.name])
        if isinstance(node, Ord):
            return field.ord(fv(node.arg))
        if isinstance(node, Add):
            return num(node.lhs) + num(node.rhs)
        if isinstance(node, Sub):
            return num(node.lhs) - num(node.rhs)
        if isinstance(node, Mul):
            return num(node.lhs) * num(node.rhs)
        if isinstance(node, Neg):
            return -num(node.arg)
        raise TypeError(f"no number for {type(node).__name__}")

    def truth(node) -> bool:
        if isinstance(node, And):
            return truth(node.lhs) and truth(node.rhs)
        if isinstance(node, Or):
            return truth(node.lhs) or truth(node.rhs)
        if isinstance(node, Not):
            return not truth(node.arg)
        a, b = num(node.lhs), num(node.rhs)
        return {
            "==": a == b,
            "!=": a != b,
            "<=": a <= b,
            "<": a < b,
            ">=": a >= b,
            ">": a > b,
        }[node.op]

    def scalar(node) -> CycloScalar:
        if isinstance(node, (Const, Var, Ord)):
            return CycloScalar.fraction(p, num(node))
        if isinstance(node, QPow):
            e2 = 2 * num(node.exponent)
            assert e2.denominator == 1, "q-exponent is not a half-integer"
            return CycloScalar.q_pow(p, int(e2))
        if isinstance(node, Psi):
            return field.psi(fv(node.arg))
        if isinstance(node, Indicator):
            return CycloScalar.one(p) if truth(node.cond) else CycloScalar.zero(p)
        if isinstance(node, Add):
            return scalar(node.lhs) + scalar(node.rhs)
        if isinstance(node, Sub):
            return scalar(node.lhs) - scalar(node.rhs)
        if isinstance(node, Mul):
            return scalar(node.lhs) * scalar(node.rhs)
        if isinstance(node, Neg):
            return -scalar(node.arg)
        if isinstance(node, Pow):
            out = CycloScalar.one(p)
            for _ in range(node.k):
                out = out * scalar(node.base)
            return out
        if isinstance(node, SumZ):
            saved = env.get(node.var)
            total = CycloScalar.zero(p)
            for i in range(int(num(node.lo)), int(num(node.hi)) + 1):
                env[node.var] = i
                total = total + scalar(node.body)
            env.pop(node.var, None)
            if saved is not None:
                env[node.var] = saved
            return total
        raise TypeError(f"no scalar value for {type(node).__name__}")

    env = dict(env)
    return scalar(term)


def quadratic_gauss_integral(field: LocalField, k: int, b: int) -> CycloScalar:
    """integral over O of psi(pi^(-k) b x^2) dx, for odd p and b prime to p.

    The classical evaluation by quadratic Gauss sums, for the character psi
    trivial on pi*O and not on O.  With s = k + 1 it is 1 if s <= 0,
    q^(-s/2) if s is even, and q^(-(s+1)/2) G(b) if s is odd, where
    G(b) = sum_{x mod p} e(b x^2 / p) is kept as its p terms (``CycloScalar``
    does not identify G(b) with a multiple of sqrt(p)).  The units of O add
    nothing once s >= 2, so each step s -> s - 2 is a factor q^(-1); at
    s = 1 the phase is constant on the cosets of pi*O.
    """
    p = field.p
    assert p % 2 and b % p, "needs odd p and a unit b"
    s = k + 1
    if s <= 0:
        return CycloScalar.one(p)
    if s % 2 == 0:
        return CycloScalar.q_pow(p, -s)
    return CycloScalar(p, [(-(s + 1), Fraction(b * x * x % p, p), 1) for x in range(p)])


def quadratic_gauss_integral_q2(k: int, a: int) -> CycloScalar:
    """integral over Z_2 of psi(2^(1-k) a x^2) dx, for odd a: the Q_2 case
    that ``quadratic_gauss_integral`` leaves out.

    psi(2^(1-k) y) = e(y / 2^k), so for k >= 1 the integral is
    2^(-k) G(a; 2^k), G(a; 2^k) = sum_{x mod 2^k} e(a x^2 / 2^k) the
    quadratic Gauss sum: 0 for k = 1, (1 + i^a) 2^(k/2) for even k, and
    e(a/8) 2^((k+1)/2) for odd k >= 3 (Berndt, Evans and Williams, *Gauss
    and Jacobi Sums*, 1998, ch. 1).  For k <= 0 the phase is trivial on Z_2
    and the integral is 1.  i and e(1/8) are 2-power roots of unity, so the
    value is exact: (1 + i^a) 2^(-k/2) for even k and e(a/8) 2^((1-k)/2)
    for odd k >= 3.
    """
    assert a % 2, "needs odd a"
    if k <= 0:
        return CycloScalar.one(2)
    if k == 1:
        return CycloScalar.zero(2)
    if k % 2 == 0:
        return CycloScalar(2, [(-k, Fraction(0), 1), (-k, Fraction(a % 4, 4), 1)])
    return CycloScalar(2, [(1 - k, Fraction(a % 8, 8), 1)])


# -- mixed-cell distributions on field elements ---------------------------------
#
# The per-coordinate factor rules as they ran on field elements before the
# distribution terms moved to integer codes, and the operations of
# ``MixedCellDistribution`` rebuilt from them: references that the coded
# rules are checked against term by term.  A term is (coef, mod, factors)
# with element modulations, as ``MixedCellDistribution.terms`` lists them.


def factor_canonical(field: LocalField, fac, a) -> tuple:
    """(e2, angle, a', fac'): a ball truncates its centre at r and its
    modulation at the conductor 1 - r and gains psi of the discarded digits
    times the centre; a point mass absorbs psi(a * point); a line keeps a."""
    if isinstance(fac, BallF):
        z = field.canon_trunc(fac.center, fac.r)
        a2 = field.canon_trunc(a, 1 - fac.r)
        return 0, field.psi_angle(field.mul(field.sub(a, a2), z)), a2, BallF(z, fac.r)
    if isinstance(fac, DeltaF):
        return 0, field.psi_angle(field.mul(a, fac.point)), field.zero(), fac
    return 0, Fraction(0), a, fac


def factor_push(field: LocalField, fac, s, b) -> tuple:
    """(fac', e2): the image under x -> s x + b, with e2 = 2 ord(s) for a
    density and 0 for a point mass."""
    if isinstance(fac, BallF):
        center = field.add(field.mul(s, fac.center), b)
        return BallF(center, fac.r + field.ord(s)), 2 * field.ord(s)
    if isinstance(fac, DeltaF):
        return DeltaF(field.add(field.mul(s, fac.point), b)), 0
    return fac, 2 * field.ord(s)


def factor_meet(field: LocalField, fac, z, lev):
    """The factor times the indicator of B_lev(z), or None when it is 0."""
    if isinstance(fac, BallF):
        got = ball_intersect_1d(field, z, lev, fac.center, fac.r)
        return None if got is None else BallF(*got)
    if isinstance(fac, DeltaF):
        return None if field.ord(field.sub(fac.point, z)) < lev else fac
    return BallF(z, lev)


def factor_mass(field: LocalField, fac, a):
    """(e2, angle) with the integral of psi(a x) against the factor equal to
    q^(e2/2) psi(angle), or None when it is 0."""
    if isinstance(fac, BallF):
        if not field.is_zero(a) and field.ord(a) < 1 - fac.r:
            return None
        return -2 * fac.r, field.psi_angle(field.mul(a, fac.center))
    if isinstance(fac, DeltaF):
        return 0, field.psi_angle(field.mul(a, fac.point))
    raise NonCompactSupport("the line has infinite mass")


def factor_fourier(field: LocalField, fac, a) -> tuple:
    """(e2, angle, a', fac') of the transform of psi(a x) times the factor."""
    if isinstance(fac, BallF):
        angle = field.psi_angle(field.mul(fac.center, a))
        return -2 * fac.r, angle, fac.center, BallF(field.neg(a), 1 - fac.r)
    if isinstance(fac, DeltaF):
        return 0, Fraction(0), fac.point, FULL
    return -2, Fraction(0), field.zero(), DeltaF(field.neg(a))


def factor_contains(field: LocalField, fac, x) -> bool:
    if isinstance(fac, BallF):
        return field.ord(field.sub(x, fac.center)) >= fac.r
    if isinstance(fac, DeltaF):
        return field.is_zero(field.sub(x, fac.point))
    return True


def terms_by_field_ops(field: LocalField, raw) -> tuple:
    """The canonical terms of raw (coef, parts) pairs, parts per coordinate
    (e2, angle, a, factor): each coordinate canonicalised by
    ``factor_canonical``, the coefficient times q^(sum e2 / 2) psi(sum
    angle), equal (mod, factors) merged in order of first nonzero term."""
    merged: dict = {}
    for coef, parts in raw:
        e2, angle, mod, fs = 0, Fraction(0), [], []
        for de2, dangle, a, fac in parts:
            ce2, cangle, a, fac = factor_canonical(field, fac, a)
            e2 += de2 + ce2
            angle += dangle + cangle
            mod.append(a)
            fs.append(fac)
        coef = coef.q_shift(e2).rotate(angle)
        if not coef.is_zero():
            merged.setdefault((tuple(mod), tuple(fs)), []).append(coef)
    out = []
    for (mod, fs), coefs in merged.items():
        coef = CycloScalar.sum(field.p, coefs)
        if not coef.is_zero():
            out.append((coef, mod, fs))
    return tuple(out)


def mul_by_sb_by_field_ops(u, phi) -> tuple:
    """The terms of ``u.mul_by_sb(phi)``: every factor met with every cell."""
    field, raw = u.field, []
    for coef, mod, fs in u.terms:
        for center, cphi in phi.cells.items():
            met = [factor_meet(field, f, z, lev) for f, z, lev in zip(fs, center, phi.levels)]
            if None not in met:
                raw.append((coef * cphi, [(0, 0, a, f) for a, f in zip(mod, met)]))
    return terms_by_field_ops(field, raw)


def evaluate_by_field_ops(u, phi) -> CycloScalar:
    """``u.evaluate(phi)``: the mass of every factor met with every cell."""
    field, raw = u.field, []
    for coef, mod, fs in u.terms:
        for center, cphi in phi.cells.items():
            e2, angle = 0, Fraction(0)
            for a, f, z, lev in zip(mod, fs, center, phi.levels):
                g = factor_meet(field, f, z, lev)
                got = None if g is None else factor_mass(field, g, a)
                if got is None:
                    break
                e2 += got[0]
                angle += got[1]
            else:
                raw += [(e2 + t, angle + ang, c) for t, ang, c in coef * cphi]
    return CycloScalar(field.p, raw)


def fourier_dist_by_field_ops(u) -> tuple:
    """The terms of ``u.fourier_dist()``, factor by factor."""
    field = u.field
    raw = [
        (coef, [factor_fourier(field, f, a) for a, f in zip(mod, fs)])
        for coef, mod, fs in u.terms
    ]
    return terms_by_field_ops(field, raw)


def pushforward_by_field_ops(f_map, u) -> tuple:
    """The terms of ``pushforward(f_map, u)`` for a map whose rows each read
    at most one coordinate (``AffineMap.coordinate_parts``)."""
    field = u.field
    parts = f_map.coordinate_parts()
    read = {part[0] for part in parts if part is not None}
    raw = []
    for coef, mod, fs in u.terms:
        e2, angle = 0, Fraction(0)
        for j in range(f_map.n_in):
            if j in read:
                continue
            got = factor_mass(field, fs[j], mod[j])
            if got is None:
                break
            e2 += got[0]
            angle += got[1]
        else:
            out = []
            for part, b in zip(parts, f_map.shift):
                if part is None:
                    out.append((0, 0, field.zero(), DeltaF(b)))
                    continue
                j, s = part
                na = field.mul(mod[j], field.invert(s))
                fac, de2 = factor_push(field, fs[j], s, b)
                out.append((de2, -field.psi_angle(field.mul(na, b)), na, fac))
            raw.append((coef.q_shift(e2).rotate(angle), out))
    return terms_by_field_ops(field, raw)


def pullback_by_field_ops(f_map, u) -> tuple:
    """The terms of ``pullback(f_map, u)`` for a map whose rows each read
    at most one coordinate, its constant rows meeting no point mass."""
    field = u.field
    parts = f_map.coordinate_parts()
    raw = []
    for coef, mod, fs in u.terms:
        out = [(0, 0, field.zero(), FULL)] * f_map.n_in
        angle = Fraction(0)
        for part, a, fac, b in zip(parts, mod, fs, f_map.shift):
            if part is None:
                if not factor_contains(field, fac, b):
                    break
                angle += field.psi_angle(field.mul(a, b))
                continue
            j, s = part
            si = field.invert(s)
            nfac, de2 = factor_push(field, fac, si, field.neg(field.mul(b, si)))
            out[j] = (de2 + 2 * field.ord(s), field.psi_angle(field.mul(a, b)), field.mul(a, s), nfac)
        else:
            raw.append((coef.rotate(angle), out))
    return terms_by_field_ops(field, raw)

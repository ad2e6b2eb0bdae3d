"""Independent oracles for the benchmark's correctness gate.

Nothing here calls into ``umla``'s arithmetic.  Library values are only
read: field elements (``Fraction`` or the ``coeffs`` of a Laurent
polynomial), the ``terms`` of exact scalars, and the cells or terms of
functions and distributions.  Everything is then recomputed by brute force:

* character sums as Riemann sums over a grid fine enough that the phase is
  constant modulo the conductor, summed as complex floats;
* fiber values as the stable count of solutions of f(x) = y modulo the
  uniformizer^L, which is q^L times the volume of {x : ord(f(x) - y) >= L};
* transforms, products and pushforwards of distributions through pairings
  with (modulated) ball indicators, each a product of one-dimensional
  Riemann sums.

Float comparisons use ``TOL`` relative to the L1 mass of the sum that
produced the value, so a defect shows as a mismatch of order one, far above
rounding.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product

TOL = 1e-9
INF = math.inf


class OracleError(Exception):
    """The oracle could not settle a value (e.g. a fiber count never stabilised)."""


class Reject(Exception):
    """The oracle disagrees with the result under test."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Reject(msg)


def close(got: complex, want: complex, mass: float = 1.0) -> bool:
    return abs(got - want) <= TOL * max(1.0, mass)


# ---------------------------------------------------------------------------
# field arithmetic, written from the definitions
# ---------------------------------------------------------------------------


class OField:
    """Q_p (elements: Fraction) or F_p((t)) (elements: dict exponent -> digit)."""

    def __init__(self, kind: str, p: int):
        self.kind, self.p = kind, p
        self.padic = kind == "p-adic"

    def lift(self, el):
        """Oracle element from a library element (read-only)."""
        if self.padic:
            return Fraction(el)
        return {e: c % self.p for e, c in el.coeffs if c % self.p}

    def const(self, n: int):
        if self.padic:
            return Fraction(n)
        n %= self.p
        return {0: n} if n else {}

    def mono(self, d: int, e: int):
        """d * uniformizer^e."""
        if self.padic:
            return Fraction(d) * Fraction(self.p) ** e
        d %= self.p
        return {e: d} if d else {}

    def add(self, a, b):
        if self.padic:
            return a + b
        out = dict(a)
        for e, c in b.items():
            v = (out.get(e, 0) + c) % self.p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return out

    def neg(self, a):
        if self.padic:
            return -a
        return {e: (-c) % self.p for e, c in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.padic:
            return a * b
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % self.p
        return {e: c for e, c in out.items() if c}

    def div_mono(self, a, m):
        """a / m for a monomial (Laurent) or nonzero rational (p-adic) m."""
        if self.padic:
            return a / m
        ((e, c),) = m.items()
        inv = pow(c, -1, self.p)
        return {k - e: v * inv % self.p for k, v in a.items()}

    def from_code(self, code: int):
        """The residue with base-p digits of ``code`` at exponents 0, 1, ..."""
        if self.padic:
            return Fraction(code)
        out, e = {}, 0
        while code:
            if code % self.p:
                out[e] = code % self.p
            code //= self.p
            e += 1
        return out

    def from_json(self, obj):
        """Element from its JSON rendering (a rational string or Laurent digits)."""
        if self.padic:
            return Fraction(obj)
        return {int(e): c % self.p for e, c in obj["coeffs"].items() if c % self.p}

    def is_zero(self, a) -> bool:
        return not a

    def ord(self, a):
        if self.padic:
            if a == 0:
                return INF
            v, num, den = 0, a.numerator, a.denominator
            while num % self.p == 0:
                num //= self.p
                v += 1
            while den % self.p == 0:
                den //= self.p
                v -= 1
            return v
        return min(a) if a else INF

    def psi_angle(self, a) -> Fraction:
        """Angle of psi(a): frac_p(a/p) on Q_p, a_0/p on F_p((t))."""
        if not self.padic:
            return Fraction(a.get(0, 0), self.p)
        v = self.ord(a)
        if v >= 1:
            return Fraction(0)
        m = 1 - v
        mod = self.p**m
        y = a * Fraction(self.p) ** (m - 1)  # a/p * p^m, a p-adic unit or integer
        return Fraction(y.numerator * pow(y.denominator, -1, mod) % mod, mod)

    def psi(self, a) -> complex:
        ang = self.psi_angle(a)
        return cmath.exp(2j * math.pi * ang.numerator / ang.denominator)

    def key(self, a, level: int):
        """Hashable class of a modulo uniformizer^level."""
        if not self.padic:
            return tuple(sorted((e, c) for e, c in a.items() if e < level))
        v = self.ord(a)
        if v >= level:
            return Fraction(0)
        m = level - v
        u = a / Fraction(self.p) ** v
        w = u.numerator * pow(u.denominator, -1, self.p**m) % self.p**m
        return w * Fraction(self.p) ** v

    def trunc(self, a, level: int):
        """The canonical representative of a modulo uniformizer^level (digits below level)."""
        if not self.padic:
            return {e: c for e, c in a.items() if e < level}
        return self.key(a, level)

    def grid(self, center, r: int, level: int) -> list:
        """One point of each level-`level` subcell of B_r(center)."""
        pts = [center]
        for e in range(r, level):
            pts = [self.add(x, self.mono(d, e)) for x in pts for d in range(self.p)]
        return pts

    def in_ball(self, x, center, r) -> bool:
        return self.ord(self.sub(x, center)) >= r

    def eval_poly(self, coeffs: dict, xs) -> object:
        """Value of an integer polynomial {exponent tuple: int} at xs."""
        total = self.const(0)
        for expo, c in coeffs.items():
            term = self.const(c)
            for x, k in zip(xs, expo):
                for _ in range(k):
                    term = self.mul(term, x)
            total = self.add(total, term)
        return total


def scalar_value(p: int, terms) -> complex:
    """Complex value of an exact scalar read from its stored terms."""
    z = 0j
    for e2, ang, c in terms:
        z += float(c) * p ** (e2 / 2) * cmath.exp(2j * math.pi * float(ang))
    return z


def scalar_fraction(p: int, terms) -> Fraction | None:
    """Exact value of a rational scalar, or None if it is not rational."""
    total = Fraction(0)
    for e2, ang, c in terms:
        if ang or e2 % 2:
            return None
        total += c * Fraction(p) ** (e2 // 2)
    return total


# ---------------------------------------------------------------------------
# oscillatory integrals
# ---------------------------------------------------------------------------


def osc_integral(F: OField, poly: dict, cells, eta, lam) -> tuple[complex, float]:
    """Riemann sum of integral phi(x) psi(lam p(x, eta)) dx.

    ``cells`` lists (center tuple, level tuple, complex coefficient).  Each
    cell is refined to a level L at which lam * (p(x + e) - p(x)) has order
    >= 1 for every e of order >= L, bounded from the coefficients alone.
    Returns (value, L1 mass of the sum).
    """
    if F.is_zero(lam):
        lam_ord = None
    else:
        lam_ord = F.ord(lam)
    eta_ord = [F.ord(v) for v in eta]
    total, mass = 0j, 0.0
    for center, levels, coef in cells:
        n = len(center)
        low = min([0] + [min(F.ord(c), r) for c, r in zip(center, levels)])
        level = max(levels)
        if lam_ord is not None:
            worst = INF
            for expo, c in poly.items():
                deg_x = sum(expo[:n])
                if deg_x == 0:
                    continue
                eta_part = 0
                for k, v in zip(expo[n:], eta_ord):
                    if k:
                        eta_part = INF if v == INF else eta_part + k * v
                worst = min(worst, F.ord(F.const(c)) + (deg_x - 1) * low + eta_part)
            if worst != INF:
                level = max(level, 1 - lam_ord - worst)
        vol = float(F.p) ** (-n * level)
        axes = [F.grid(c, r, level) for c, r in zip(center, levels)]
        for xs in product(*axes):
            val = F.eval_poly(poly, tuple(xs) + tuple(eta))
            total += coef * vol * F.psi(F.mul(lam, val))
            mass += abs(coef) * vol
    return total, mass


# ---------------------------------------------------------------------------
# fiber values
# ---------------------------------------------------------------------------


def _deriv(poly: dict) -> dict:
    out: dict = {}
    for (k,), c in poly.items():
        if k:
            out[(k - 1,)] = out.get((k - 1,), 0) + k * c
    return out


def _solution_classes(F: OField, poly: dict, y, center, r: int, until: int):
    """Classes x mod uniformizer^l inside B_r(center) with ord(f(x) - y) >= l.

    Lifts digit by digit from level r and stops at the first level
    l >= ``until`` where every surviving class x satisfies l > 2 ord f'(x)
    and l >= r + ord f'(x).  By Hensel's lemma the solutions are then the
    disjoint balls B_{l - ord f'}(root), each inside the cell, so every
    simple root contributes exactly q^(ord f') classes and the count is
    final.
    Returns (level, classes, ord f' at each class).
    """
    if r < 0:
        raise OracleError("fiber oracle needs cells inside the ring of integers")
    dpoly = _deriv(poly)
    level = r
    cur = [center] if F.ord(F.sub(F.eval_poly(poly, (center,)), y)) >= r else []
    for _ in range(64):
        dords = [F.ord(F.eval_poly(dpoly, (x,))) for x in cur]
        if level >= until and all(level > 2 * d and level >= r + d for d in dords):
            return level, cur, dords
        nxt = []
        for x in cur:
            for d in range(F.p):
                x2 = F.add(x, F.mono(d, level))
                if F.ord(F.sub(F.eval_poly(poly, (x2,)), y)) >= level + 1:
                    nxt.append(x2)
        cur = nxt
        level += 1
    raise OracleError("solution count did not stabilise")


def fiber_value(F: OField, poly: dict, cells, y) -> Fraction:
    """f_!(phi)(y) for phi = sum of coef * 1_{B_r(center)} with rational coefs.

    The pushforward density at a regular value is the limit of the number
    of solution classes of f(x) = y mod uniformizer^L inside each cell.
    """
    total = Fraction(0)
    for center, r, coef in cells:
        _, classes, _ = _solution_classes(F, poly, y, center, r, max(r, 1))
        total += coef * len(classes)
    return total


def root_classes(F: OField, poly: dict, k: int) -> set:
    """Level-k classes of the integral roots of a squarefree polynomial."""
    zero = F.const(0)
    level, classes, dords = _solution_classes(F, poly, zero, zero, 0, k)
    need = k + max(dords, default=0)
    if level < need:
        level, classes, dords = _solution_classes(F, poly, zero, zero, 0, need)
    return {F.key(x, k) for x in classes}


# ---------------------------------------------------------------------------
# pairings of mixed-cell distributions with modulated ball indicators
# ---------------------------------------------------------------------------


def restrict_cells(F: OField, cells, x0, m: int) -> list:
    """Cells (center, level, coef) of phi * 1_{B_m(x0)}."""
    out = []
    for c, r, coef in cells:
        if r >= m and F.in_ball(c, x0, m):
            out.append((c, r, coef))
        elif r < m and F.in_ball(x0, c, r):
            out.append((x0, m, coef))
    return out


def ball_meet(F: OField, c1, r1, c2, r2):
    """Intersection of two balls (None for the whole line): (center, r) or False."""
    if c2 is None:
        return (c1, r1)
    if c1 is None:
        return (c2, r2)
    if F.ord(F.sub(c1, c2)) >= min(r1, r2):
        return (c1, r1) if r1 >= r2 else (c2, r2)
    return False


def ball_char_integral(F: OField, center, r: int, b) -> tuple[complex, float]:
    """Riemann sum of integral over B_r(center) of psi(b t) dt."""
    level = r if F.is_zero(b) else max(r, 1 - F.ord(b))
    vol = float(F.p) ** (-level)
    pts = F.grid(center, r, level)
    return sum(F.psi(F.mul(b, t)) for t in pts) * vol, len(pts) * vol


def factor_kind(fac) -> str:
    return type(fac).__name__  # BallF / DeltaF / FullF


def pair_terms(F: OField, terms, test, xi=None) -> tuple[complex, float]:
    """Pairing of sum coef psi(<a,x>) prod factor_i(x_i) with 1_test psi(<xi,x>).

    ``terms`` are library (coef, mod, factors) triples, read only.  ``test``
    lists per coordinate (center, radius), or None for the whole line.
    """
    p = F.p
    total, mass = 0j, 0.0
    for coef, mod, facs in terms:
        val = scalar_value(p, coef.terms)
        w = 1.0
        for i, (a, fac) in enumerate(zip(mod, facs)):
            b = F.lift(a)
            if xi is not None:
                b = F.add(b, xi[i])
            tc, tr = test[i] if test[i] is not None else (None, None)
            kind = factor_kind(fac)
            if kind == "DeltaF":
                pt = F.lift(fac.point)
                if tc is not None and not F.in_ball(pt, tc, tr):
                    val = 0
                    break
                val *= F.psi(F.mul(b, pt))
                continue
            if kind == "BallF":
                dom = ball_meet(F, F.lift(fac.center), fac.r, tc, tr)
            else:
                if tc is None:
                    raise OracleError("pairing a full-line factor with the whole line")
                dom = (tc, tr)
            if dom is False:
                val = 0
                break
            v, m = ball_char_integral(F, dom[0], dom[1], b)
            val *= v
            w *= m
        total += val
        mass += abs(scalar_value(p, coef.terms)) * w
    return total, mass


def sb_cells(F: OField, phi) -> list:
    """(center, levels, complex coef) of a library cell function, read only."""
    return [
        (tuple(F.lift(c) for c in center), tuple(phi.levels), scalar_value(F.p, coef.terms))
        for center, coef in phi.cells.items()
    ]


def sb_transform_at(F: OField, cells, xi) -> tuple[complex, float]:
    """Riemann-sum transform integral phi(x) psi(<x, xi>) dx at one point."""
    total, mass = 0j, 0.0
    for center, levels, coef in cells:
        val, w = coef, abs(coef)
        for c, r, x in zip(center, levels, xi):
            v, m = ball_char_integral(F, c, r, x)
            val *= v
            w *= m
        total += val
        mass += w
    return total, mass


def sb_value_at(F: OField, cells, xs) -> complex:
    for center, levels, coef in cells:
        if all(F.in_ball(x, c, r) for x, c, r in zip(xs, center, levels)):
            return coef
    return 0j

"""Fiber integration along one-variable polynomial maps.

For a polynomial map f: K -> K and a cell function phi, the pushforward
density at a regular value y is the finite sum

    f_!(phi)(y) = sum over the fiber f(x) = y of phi(x) / |f'(x)|,

the density of the image measure of phi |dx| under f with respect to |dy|.
The engine behind it finds fiber points by adaptive refinement of residue
cells, each decided exactly, on integer codes of the cell centres: once a
cell is known to hold one root, the walk descends through the one child
that holds it down to the requested level (a Hensel descent), and reports
the exact valuation of f' at every root.

The critical-value set of f (zeros of the discriminant of f(x) - y in y) is
where fibers collide; ``fiber_integrate`` refuses those y exactly.  Away
from it, f_!(phi) is locally constant, and ``level_measure`` measures how
the level of local constancy depends on the distance to the critical values
and on the refinement of phi, reporting the measurements together with a
dominating affine bound.  Both run one kernel for the value at a regular y
(``_pushforward_value``); ``level_measure`` sets it up once per restriction
of phi.

The critical-value data is read in the field.  Over F_p((t)) the map is f
with its coefficients reduced mod p, and it has a lower degree where p
divides lc(f): 3x^2 + x is the etale map x over F_3((t)).  So
``FiberProblem.reduced`` keeps, per field K, the map f_K (f itself over
Q_p; over F_p((t)) its coefficients mod p with the zero leading ones
stripped) and its discriminant disc_K, and every critical-value test, the
critical locus and the root search read disc_K.

The root search needs ord Res(g, g') only for a cell still undecided at its
precision, and at a base point y it reads it off ord disc_K(y).  Let
n = deg f_K and h = f_K - y.  disc_K is the Sylvester determinant of
f_K(x) - y and f_K'(x) over Z[y] at the degrees (n, n - 1), and a
determinant commutes with the ring map Z[y] -> K that fixes y, so
disc_K(y) = Res(h, h') at the formal degrees (n, n - 1) over K, also where
K kills n and the zero leading entry of h' stays in the matrix.
(Res(h, h') and disc h differ only by +-lc(h); Cohen, A Course in
Computational Algebraic Number Theory, 1993, 3.3.2.)  The search runs on
g(u) = pi^(-c) h(pi^w u), with w the window and c the content of
h(pi^w u), so g'(u) = pi^(w-c) h'(pi^w u).
At formal degrees (m, k) the Sylvester determinant is homogeneous of degree
k in the first polynomial's coefficients and of degree m in the second's,
and Res(A(s x), B(s x)) = s^(m k) Res(A, B); both are identities of the
determinant, so they hold at formal degrees.  With (m, k) = (n, n - 1):

    Res(g, g') = pi^(-c (n - 1)) pi^((w - c) n) pi^(w n (n - 1)) disc_K(y),
    ord Res(g, g') = ord disc_K(y) + w n^2 - c (2 n - 1).

``padic_roots`` of g reads the same discriminant of g_K at y = 0, and
``level_measure`` finds the critical values as the roots of an integer
polynomial (``_critical_values``), so every search reads its resultant off
a discriminant, at the degree of its polynomial in the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial

from .cyclo import CycloScalar
from .fields import INF, FieldError, LocalField, Polyball, field_from_json
from .polys import (
    FieldPoly,
    MultiPoly,
    common_denominator,
    critical_value_locus,
    field_int_ord,
    field_ints,
    parse_poly,
)
from .schwartz import DEFAULT_CELL_BUDGET, SchwartzBruhat, check_budget

__all__ = [
    "ClusterUnresolved",
    "OnDiscriminant",
    "FiberProblem",
    "LevelReport",
    "padic_roots",
    "fiber_integrate",
    "level_measure",
    "poly_to_string",
]


class ClusterUnresolved(FieldError):
    """The polynomial has a repeated root, so a residue cell holding a root
    cluster cannot be certified at any precision."""

    def __init__(self, field: LocalField, center, level: int):
        super().__init__(
            f"cannot separate roots inside the level-{level} cell at "
            f"{field.element_to_json(center)}: the polynomial has a repeated root"
        )
        self.center = center
        self.level = level


class OnDiscriminant(FieldError):
    """The requested base point is a critical value of the map."""

    def __init__(self, field: LocalField, y):
        super().__init__(
            f"base point {field.element_to_json(y)} is a critical value; "
            "the fiber is not simple there"
        )
        self.y = y


def poly_to_string(f: MultiPoly, var: str = "x") -> str:
    """One-variable rendering compatible with the polynomial parser."""
    if f.n != 1:
        raise FieldError("only one-variable polynomials have a chart rendering")
    parts = []
    for exps, coef in sorted(f.coeffs.items(), reverse=True):
        e = exps[0]
        body = var if e == 1 else f"{var}^{e}" if e else ""
        mag = abs(coef)
        head = str(mag) if (mag != 1 or not body) else ""
        sep = "*" if head and body else ""
        text = f"{head}{sep}{body}"
        parts.append(("- " if coef < 0 else "+ ") + text)
    if not parts:
        return "0"
    first = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([first] + parts[1:])


# ---------------------------------------------------------------------------
# root finding: residue search + certified Hensel descent
# ---------------------------------------------------------------------------


def _elem_sort_key(x):
    """Deterministic ordering key for canonical field elements."""
    return x.coeffs if hasattr(x, "coeffs") else x


def _unit_window_roots(field: LocalField, coeffs, k: int, res_ord):
    """Roots in the ring of integers, as (truncation, ord of derivative).

    ``coeffs`` are field elements (degree order, any valuations, the
    leading one nonzero).  Returns one pair per integral root: its level-k
    truncation (distinct roots may share one) and the exact valuation of
    the derivative of the input polynomial there, sorted by truncation.

    Residue cells are refined adaptively.  A cell B_L(a) survives while
    ord g(a) >= L; once L > ord g'(a) =: v', g maps it bijectively onto
    B_{L+v'}(g(a)), so it holds one root exactly when ord g(a) >= L + v'
    and none otherwise.  Since Res(g, g') = u*g + v*g' with u and v
    integral, every surviving cell deeper than ord Res(g, g') is decided.
    Raises ClusterUnresolved only when Res(g, g') = 0, i.e. g has a
    repeated root, and a cell is still undecided at level k.  Only then is
    ord Res(g, g') needed: ``res_ord`` returns ord Res(h, h') of the input
    polynomial h at its formal degrees (deg h, deg h - 1), and the search
    shifts it by the content (see the module docstring).

    A decided cell that holds a root is followed down on codes too (a
    Hensel descent): g maps each of its q children one-to-one onto a ball
    of radius L + 1 + v', so exactly one child has ord g >= L + 1 + v', and
    the walk descends through that child alone until level k.  One Hensel
    step names it: g(a + d pi^L) = g(a) + g'(a) d pi^L mod pi^(2L), and
    2L >= L + 1 + v', so its digit is
    d = -(g(a) / pi^(L+v')) (g'(a) / pi^v')^(-1) mod pi, one evaluation of
    g per level; g'(a) / pi^v' mod pi is the same on every deeper cell, so
    it is inverted once per root.  The root's level-k truncation is then
    that cell's centre, cut to its first k digits when the cell was decided
    deeper than k.

    The walk runs on ints (``cell_codes`` of ``field_ints``): g is brought
    to integer coefficients once per search, g' is read off them
    (``derivative``), and the level-L cells are integer codes a of their
    canonical centres, whose children are a + d * radix^L.  Over Q_p the
    code is the centre itself (radix p), and ord g(a) = v_p(G(a)) for
    G = D*g with integer coefficients over their common denominator D: the
    content scaling makes every coefficient of g, and so of g', p-integral,
    so D is a p-unit and the valuation is exact for every input.  Over
    F_p((t)) the code packs the centre's digits at t = 2^W (radix 2^W),
    and ord g(a) is the first digit of G(a) that p does not divide
    (``packed_ord``).  The residues of the Hensel step are read on the same
    ints.  W holds the codes of up to ``limit`` digits, first k + 1; a
    search that must split a cell at that depth starts again with the
    limit ord Res(g, g') + 1, which no split exceeds.
    In both cases a mod radix^k is the code of the level-k truncation.
    Field elements are built only for found roots and for the centre that
    ClusterUnresolved reports.
    """
    if k < 1:
        raise FieldError("root precision must be at least 1")
    if all(field.is_zero(c) for c in coeffs):
        raise FieldError("the zero polynomial has no root locus")
    # scale to an integral polynomial with unit content; roots are unchanged
    content = min(field.ord(c) for c in coeffs if not field.is_zero(c))
    if content:
        coeffs = [field.mul(c, field.pow_uniformizer(-content)) for c in coeffs]
    g = field_ints(field, coeffs)
    gp = g.derivative()
    q = field.q
    res = None  # ord Res(g, g'), computed once a cell reaches level k
    found, cap = None, k + 1
    while found is None:
        ord_g, ord_gp, digit_g, digit_gp, radix, lift, limit = g.cell_codes(gp, cap)
        found = []
        cells = [(0, 0, ord_g(0))]
        while cells:
            a, level, va = cells.pop()
            vpa = ord_gp(a)
            if level > vpa:
                if va >= level + vpa:
                    if level < k:
                        # g'(a) / pi^v' mod pi is the same on every deeper cell
                        inv = pow(digit_gp(a, vpa), -1, q)
                    while level < k:
                        a += -digit_g(a, level + vpa) * inv % q * radix**level
                        level += 1
                    # ord h'(root) of the input h: ord g'(a) plus the content
                    found.append((lift(a % radix**k), vpa + content))
                continue
            if level >= k:
                if res is None:
                    res = _ord_resultant(coeffs, content, res_ord)
                if res == INF:
                    raise ClusterUnresolved(field, lift(a), level)
                if level >= limit:
                    # the children need level + 1 digits; no cell deeper
                    # than ord Res splits, so the new limit holds them all
                    found, cap = None, res + 1
                    break
            step = radix**level
            for d in range(q):
                child = a + d * step
                vc = ord_g(child)
                if vc > level:
                    cells.append((child, level + 1, vc))
    return sorted(found, key=lambda item: (_elem_sort_key(item[0]), item[1]))


def _ord_resultant(coeffs, content: int, res_ord) -> int:
    """ord Res(g, g') for g = pi^(-content) h with coefficients ``coeffs``,
    from ``res_ord`` (ord Res(h, h'), see ``_unit_window_roots``)."""
    n = len(coeffs) - 1
    return res_ord() - content * (2 * n - 1)


def _window_roots(field: LocalField, coeffs, window: int, k: int, res_ord):
    """One (level-k truncation, ord f') pair per root of valuation >= window.

    Requires k > window.  ``res_ord`` is as for ``_unit_window_roots``, for
    the input coefficients.
    """
    if k <= window:
        raise FieldError("precision must exceed the search window")
    if window == 0:
        return _unit_window_roots(field, coeffs, k, res_ord)
    # substitute x = uniformizer^window * u and search over integral u
    shifted = [
        field.mul(c, field.pow_uniformizer(window * i))
        for i, c in enumerate(coeffs)
    ]
    n = len(coeffs) - 1

    def shifted_res():
        # Res(h(pi^w u), d/du h(pi^w u)) = pi^(w n^2) Res(h, h')
        return res_ord() + window * n * n

    out = []
    for trunc_u, dorder in _unit_window_roots(field, shifted, k - window, shifted_res):
        root = field.canon_trunc(
            field.mul(trunc_u, field.pow_uniformizer(window)), k
        )
        # the substituted derivative picks up one factor of the shift
        out.append((root, dorder - window))
    return out


def _coerce_poly(g) -> MultiPoly:
    if isinstance(g, MultiPoly):
        if g.n != 1:
            raise FieldError("root search expects a one-variable polynomial")
        return g
    if isinstance(g, str):
        return parse_poly(g, ("x",))
    coeffs = {(i,): int(c) for i, c in enumerate(g) if int(c)}
    return MultiPoly(1, coeffs)


def padic_roots(g, field: LocalField, k: int, window: int = 0) -> list:
    """All roots of g with valuation >= window, truncated at level k.

    ``g`` is a one-variable polynomial over the integers (a ``MultiPoly``,
    a parseable string, or a coefficient sequence).  The result lists the
    canonical level-k truncations, deduplicated and deterministically
    ordered.  Raises ClusterUnresolved when g has a repeated root whose
    residue cell cannot be certified at level k.  The search reads its
    resultant, if it needs it, off the discriminant of g in the field at
    y = 0 (see the module docstring).
    """
    poly = _coerce_poly(g)
    fp = FieldPoly.from_multipoly(field, poly)

    def res_ord():
        disc = critical_value_locus(_reduce(field, poly))
        return field_int_ord(field, disc.coeffs.get((0,), 0))

    roots = _window_roots(field, list(fp.coeffs), window, k, res_ord)
    # one entry per truncation, in the sorted order of the pairs
    return list(dict.fromkeys(root for root, _ in roots))


# ---------------------------------------------------------------------------
# the fiber problem and exact pushforward values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberProblem:
    """A one-variable polynomial map with its critical-value data.

    ``f`` maps the line to the line; both sides carry the standard additive
    volume form.  ``disc`` is a polynomial in the base coordinate whose
    zeros in Q_p are exactly the critical values of f — the set away from
    which every fiber is finite with f' nonzero at each point.  A field
    reads its own discriminant, of f reduced there (``reduced``).
    """

    f: MultiPoly
    disc: MultiPoly = dc_field(init=False, compare=False)
    _reduced: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)
    _loci: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        coerced = _coerce_poly(self.f)
        object.__setattr__(self, "f", coerced)
        object.__setattr__(self, "disc", critical_value_locus(coerced))

    @classmethod
    def from_string(cls, src: str) -> "FiberProblem":
        return cls(parse_poly(src, ("x",)))

    def reduced(self, field: LocalField) -> tuple[MultiPoly, MultiPoly]:
        """(f_K, disc_K), kept per field: f reduced into ``field`` and the
        discriminant of f_K(x) - y in y (see the module docstring).

        Over Q_p they are f and ``disc``.  Over F_p((t)) f_K holds the
        coefficients of f mod p, with the zero leading ones stripped;
        FieldError when it is constant there.
        """
        got = self._reduced.get(field)
        if got is None:
            f_k = _reduce(field, self.f)
            disc = self.disc if f_k is self.f else critical_value_locus(f_k)
            got = self._reduced[field] = f_k, disc
        return got

    def is_critical_value(self, field: LocalField, y) -> bool:
        return self.reduced(field)[1].ord_field(field, (y,)) == INF

    def critical_locus(self, field: LocalField) -> FieldPoly:
        """Squarefree part of disc_K over ``field``, kept per field.

        Its roots are the critical values, each simple, so the root search
        never meets a cluster there.  Squarefreeness is decided over the
        field: disc_K has a repeated root whenever two critical points
        share a critical value, and its reduction mod p can gain more.
        """
        locus = self._loci.get(field)
        if locus is None:
            disc = self.reduced(field)[1]
            locus = FieldPoly.from_multipoly(field, disc).squarefree_part()
            self._loci[field] = locus
        return locus

    def to_json(self) -> dict:
        return {"f": poly_to_string(self.f)}

    @classmethod
    def from_json(cls, obj: dict) -> "FiberProblem":
        return cls.from_string(obj["f"])


def _fiber_points(f: MultiPoly, field: LocalField, y, support: int, k: int, disc_ord):
    """(truncated root, ord f' there) for the fiber points of the map f_K = f
    (``FiberProblem.reduced``) inside the window ord x >= min(support, 0),
    ``support`` the support radius of phi; ``disc_ord`` returns
    ord disc_K(y), read only if the root search needs it."""
    coeffs = [field.zero()] * (f.degree_in(0) + 1)
    for (i,), c in f.coeffs.items():
        coeffs[i] = field.from_int(c)
    coeffs[0] = field.sub(coeffs[0], y)
    window = min(support, 0)
    return _window_roots(field, coeffs, window, max(k, window + 1), disc_ord)


def _pushforward_value(f: MultiPoly, phi: SchwartzBruhat, bounds, y, disc_ord):
    """f_!(phi)(y) at a regular value y, for the map f_K = f in phi's field
    and phi nonzero with ``bounds`` = phi.alpha_bounds() = (support,
    constancy).

    Root precision is the constancy level of phi, so phi and |f'| are both
    exact on the truncations; the root search counts every fiber point
    once, and since f - y is squarefree at a regular value it never meets a
    repeated root (ClusterUnresolved).  ``disc_ord`` returns ord disc_K(y).
    """
    field = phi.field
    support, constancy = bounds
    points = _fiber_points(
        f, field, y, support, max(constancy, support + 1, 1), disc_ord
    )
    # 1/|f'(x)| = q^(ord f'(x)), with the doubled-exponent encoding; one
    # raw-triple construction canonicalises the shifted terms of every point
    return CycloScalar(
        field.p,
        [
            (e2 + 2 * dorder, angle, coef)
            for root, dorder in points
            for e2, angle, coef in phi.eval_at((root,)).terms
        ],
    )


def fiber_integrate(problem: FiberProblem, phi: SchwartzBruhat, y) -> CycloScalar:
    """Exact value of f_!(phi) at a regular value y.

    Sums phi(x)/|f'(x)| over the fiber points x with f(x) = y inside the
    support of phi.  Raises OnDiscriminant when y is a critical value.
    """
    if phi.n != 1:
        raise FieldError("fiber integration works along one-variable charts")
    field = phi.field
    if isinstance(y, int):
        y = field.from_int(y)
    # the critical-value test reads ord disc_K(y); the root search reuses it
    f, disc = problem.reduced(field)
    disc_ord = disc.ord_field(field, (y,))
    if disc_ord == INF:
        raise OnDiscriminant(field, y)
    if phi.is_zero():
        return CycloScalar.zero(field.p)
    return _pushforward_value(f, phi, phi.alpha_bounds(), y, lambda: disc_ord)


# ---------------------------------------------------------------------------
# local-constancy levels against distance from the critical values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelReport:
    """Measured local-constancy levels of f_!(phi) with an affine bound.

    ``rows`` maps (eps, m) to the minimal level mu such that the
    pushforward of phi restricted to the level-m ball at the probe center
    is constant on every level-mu cell of the scanned region at valuative
    distance at least q^-eps from the critical values.  The fitted
    (a, b, c) satisfy mu <= a*eps + b*m + c on every measured row.
    """

    f_text: str
    field: LocalField
    x0_json: object
    resolution: int
    window: int
    eps_values: tuple[int, ...]
    m_values: tuple[int, ...]
    rows: dict
    cells: dict
    fit: tuple[Fraction, Fraction, Fraction]

    def mu(self, eps: int, m: int) -> int:
        return self.rows[(eps, m)]

    def fit_dominates(self) -> bool:
        a, b, c = self.fit
        return all(
            Fraction(mu) <= a * eps + b * m + c
            for (eps, m), mu in self.rows.items()
        )

    def to_json(self) -> dict:
        a, b, c = self.fit
        return {
            "f": self.f_text,
            "field": self.field.to_json(),
            "x0": self.x0_json,
            "resolution": self.resolution,
            "window": self.window,
            "eps": list(self.eps_values),
            "m": list(self.m_values),
            "rows": [
                {
                    "eps": eps,
                    "m": m,
                    "mu": self.rows[(eps, m)],
                    "cells": self.cells[(eps, m)],
                }
                for eps in self.eps_values
                for m in self.m_values
            ],
            "fit": {"a": str(a), "b": str(b), "c": str(c)},
            "fit_dominates": self.fit_dominates(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LevelReport":
        rows = {}
        cells = {}
        for row in obj["rows"]:
            key = (int(row["eps"]), int(row["m"]))
            rows[key] = int(row["mu"])
            cells[key] = int(row["cells"])
        fit = obj["fit"]
        return cls(
            f_text=obj["f"],
            field=field_from_json(obj["field"]),
            x0_json=obj["x0"],
            resolution=int(obj["resolution"]),
            window=int(obj["window"]),
            eps_values=tuple(int(e) for e in obj["eps"]),
            m_values=tuple(int(m) for m in obj["m"]),
            rows=rows,
            cells=cells,
            fit=(
                Fraction(fit["a"]),
                Fraction(fit["b"]),
                Fraction(fit["c"]),
            ),
        )


def _affine_fit(rows: dict) -> tuple[Fraction, Fraction, Fraction]:
    """Small dominating affine bound: slopes from the grid, then the offset."""
    zero = Fraction(0)
    a = zero
    b = zero
    eps_values = sorted({eps for eps, _ in rows})
    m_values = sorted({m for _, m in rows})
    for m in m_values:
        col = [(eps, rows[(eps, m)]) for eps in eps_values if (eps, m) in rows]
        for (e1, mu1), (e2, mu2) in zip(col, col[1:]):
            a = max(a, Fraction(mu2 - mu1, e2 - e1))
    for eps in eps_values:
        row = [(m, rows[(eps, m)]) for m in m_values if (eps, m) in rows]
        for (m1, mu1), (m2, mu2) in zip(row, row[1:]):
            b = max(b, Fraction(mu2 - mu1, m2 - m1))
    c = max(Fraction(mu) - a * eps - b * m for (eps, m), mu in rows.items())
    return a, b, max(c, zero)


def level_measure(
    problem: FiberProblem,
    phi: SchwartzBruhat,
    eps_values,
    m_values=(0,),
    x0=None,
    resolution: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> LevelReport:
    """Measure local-constancy levels of the pushforward on shrinking regions.

    For each eps, the scanned region consists of the base points y with
    ord(y) at least the image window bound of phi and valuative proximity
    to every critical value at most eps; for each m, phi is restricted to
    the level-m ball at ``x0`` (the unit point by default).  The measured
    mu is the minimal level at which the pushforward is constant per cell
    across the region, checked exhaustively at the working resolution.
    ``cell_budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds the
    number of cells of the scanned window at that resolution.

    Every scanned centre is a regular value, so the scan calls the value
    kernel with no critical-value test.  A centre is a canonical truncation
    at the resolution R, with no digit at R or beyond.  The root search
    finds every critical value of valuation at least min(window, 0), cut at
    R, and a centre y is scanned only if ord(y - z) <= eps < R for each such
    cut z, so y differs from each of those critical values in a digit below
    R.  Any other critical value has valuation below min(window, 0), and
    every centre has valuation at least the window.
    """
    if phi.n != 1:
        raise FieldError("level measurement works along one-variable charts")
    field = phi.field
    eps_values = tuple(sorted(set(int(e) for e in eps_values)))
    m_values = tuple(sorted(set(int(m) for m in m_values)))
    if not eps_values or not m_values:
        raise FieldError("need at least one eps and one m value")
    if x0 is None:
        x0 = field.one()

    support, _ = phi.alpha_bounds()
    # ord f(x) >= window on the support of phi, so the pushforward
    # vanishes at any y below this valuation window
    f, disc = problem.reduced(field)
    window = min(
        field_int_ord(field, coef) + exps[0] * support
        for exps, coef in f.coeffs.items()
    )
    if resolution is None:
        resolution = max(
            3, eps_values[-1] + max(m_values[-1], 0) + 2, window + 1
        )
    if resolution <= max(eps_values[-1], window):
        raise FieldError(
            "resolution must exceed the largest eps and the image window"
        )
    check_budget("level scan", field.q ** (resolution - window), cell_budget)

    # critical values at the working precision; only those of valuation
    # above some eps can exclude scanned cells
    lo = min(window, 0)
    critical = _critical_values(problem, field, lo, resolution)

    region = Polyball.ball(field, (field.zero(),), window)
    centers = [c for (c,) in region.cells_at_level(resolution)]
    prox = {}
    for c in centers:
        best = None
        for z in critical:
            d = field.ord(field.sub(c, z))
            best = d if best is None else max(best, d)
        prox[c] = best
    included = {
        eps: [c for c in centers if prox[c] is None or prox[c] <= eps]
        for eps in eps_values
    }

    # the regions grow with eps, so the last one holds every scanned centre
    zero = CycloScalar.zero(field.p)
    restricted = []
    for m in m_values:
        local = phi.restrict(Polyball.ball(field, (x0,), m))
        restricted.append((local, None if local.is_zero() else local.alpha_bounds()))
    values = [{} for _ in m_values]
    for c in included[eps_values[-1]]:
        disc_ord = _once(partial(disc.ord_field, field, (c,)))
        for table, (local, bounds) in zip(values, restricted):
            table[c] = (
                zero
                if bounds is None
                else _pushforward_value(f, local, bounds, c, disc_ord)
            )

    rows = {}
    cells = {}
    for eps in eps_values:
        for m, table in zip(m_values, values):
            mu = resolution
            for cand in range(lo, resolution + 1):
                groups: dict = {}
                if all(
                    groups.setdefault(field.canon_trunc(c, cand), table[c]) == table[c]
                    for c in included[eps]
                ):
                    mu = cand
                    break
            rows[(eps, m)] = mu
            cells[(eps, m)] = len(included[eps])

    return LevelReport(
        f_text=poly_to_string(problem.f),
        field=field,
        x0_json=field.element_to_json(x0),
        resolution=resolution,
        window=window,
        eps_values=eps_values,
        m_values=m_values,
        rows=rows,
        cells=cells,
        fit=_affine_fit(rows),
    )


def _reduce(field: LocalField, f: MultiPoly) -> MultiPoly:
    """f with its coefficients reduced into ``field``: f itself over Q_p,
    mod p over F_p((t)), where the zero ones drop out."""
    if field.kind == "p-adic":
        return f
    return MultiPoly(f.n, {e: c % field.p for e, c in f.coeffs.items()})


def _critical_values(problem: FiberProblem, field: LocalField, window: int, k: int):
    """The critical values of valuation >= window, cut at level k: the roots
    of ``critical_locus``.  Its coefficients lie in the prime field, so they
    are brought to an integer polynomial with the same roots (over their
    common denominator over Q_p, as their digits in [0, p) over F_p((t))),
    and ``padic_roots`` reads its discriminant."""
    coeffs = problem.critical_locus(field).coeffs
    if field.kind == "p-adic":
        ints = common_denominator(coeffs)[0]
    else:
        ints = [c.coeff(0) for c in coeffs]
    return padic_roots(ints, field, k, window)


def _once(read):
    """A function returning read(), which it calls at most once."""
    got = []

    def value():
        if not got:
            got.append(read())
        return got[0]

    return value

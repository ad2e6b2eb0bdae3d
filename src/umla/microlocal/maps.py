"""Pullback and pushforward of distributions along affine maps.

Supported map shapes, classified from the matrix:

* ``iso`` — square invertible.  Point masses transport exactly under any
  invertible matrix.  Densities transport under any invertible matrix over
  the rational-prime field (preimages of product balls are computed exactly
  as finite unions of cells); over equal-characteristic fields, and for
  terms mixing point masses with densities, the matrix must be monomial
  (one nonzero entry per row and column) so coordinates transform
  independently.
* ``projection`` — coordinate projection plus shift.  Pullback tensors with
  the constant function on the dropped coordinates (always defined: the
  conormal set of a submersion is the zero section).  Pushforward
  integrates the dropped coordinates and requires the support to be proper
  over the target: a full-line factor in a dropped coordinate raises
  ``NotProperOnSupport``.
* ``inclusion`` — coordinate inclusion with constant values on the new
  coordinates.  Pullback restricts; it is defined only when the conormal
  cone of the inclusion misses the wavefront cone (a point mass in a
  dropped coordinate raises ``NfIntersectsWF``).  Pushforward places point
  masses on the new coordinates.
* ``constant`` — pullback needs the value of the distribution at the point,
  so any singularity at the point raises ``NfIntersectsWF``; pushforward
  sends the total mass to a point, requiring compact support.

``product_dist`` multiplies two distributions on the same space, guarded by
the wavefront collision test: the product is formed only when no singular
pair of one factor opposes a singular pair of the other.

The per-coordinate rules are the coded rules of ``umla.distribution`` (see
its docstring), run on the terms' integer codes.  Every shape but the
non-monomial isomorphism has output rows that each read at most one input
coordinate, no coordinate read twice (``AffineMap.coordinate_parts``), so
both directions run one loop over the rows.  A row y_i = s x_j + b_i
transports the entry of x_j by x -> s x + b_i (``_transport``): it moves the
factor, multiplies a density by |s|^-1 and divides the modulation by s.
Pullback transports the entry of y_i along the inverse row and multiplies
the term by |s|^-1, so a density is composed with the row and a point mass
gains |s|^-1.  A constant row y_i = b_i puts a point mass at b_i under
pushforward; pullback reads the entry of y_i at b_i (``_contains``).  An
input coordinate that no row reads is integrated out (``_mass``) by
pushforward and is the full line under pullback.  Products meet the
entries (``_meet``) and add their modulations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cyclo import CycloScalar
from ..distribution import (
    BALL,
    LINE,
    POINT,
    BallF,
    DeltaF,
    FullF,
    MixedCellDistribution,
    _add_angle,
    _angle_with,
    _build,
    _canonical_ball,
    _contains,
    _encode,
    _mass,
    _meet,
    _psi,
    _transport,
    _transport_plan,
)
from ..fields import FieldDivisionError, FieldError, LocalField, Polyball
from ..polys import ring_det
from ..schwartz import DEFAULT_CELL_BUDGET, check_budget
from .cones import BaseFull, BasePoint, LambdaCone, OrbitRayCell, TaggedCell
from .wavefront import wavefront_exact

__all__ = [
    "AffineMap",
    "MapError",
    "NfIntersectsWF",
    "NotProperOnSupport",
    "UnsupportedMap",
    "WFCollision",
    "normal_cone",
    "pullback",
    "pushforward",
    "product_dist",
]


class MapError(FieldError):
    """Base class for affine-map calculus failures."""


class NfIntersectsWF(MapError):
    """The map's conormal cone meets the wavefront cone: pullback undefined."""


class UnsupportedMap(MapError):
    """The matrix shape is outside the supported calculus."""


class NotProperOnSupport(MapError):
    """Pushforward along a map that is not proper on the support."""


class WFCollision(MapError):
    """Opposing singular codirections: the product is undefined."""


@dataclass(frozen=True)
class AffineMap:
    """x |-> A x + b from n_in to n_out coordinates, entries exact.

    ``coordinate_parts`` reads the matrix row by row; ``classify``,
    ``inverse``, ``normal_cone``, ``pullback`` and ``pushforward`` read it.
    """

    field: LocalField
    rows: tuple  # n_out rows, each a tuple of n_in field elements
    shift: tuple  # n_out field elements

    def __post_init__(self):
        if len(self.rows) != len(self.shift):
            raise FieldError("matrix and shift sizes differ")
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise FieldError("matrix rows have unequal length")

    @property
    def n_out(self) -> int:
        return len(self.rows)

    @property
    def n_in(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def from_ints(cls, field: LocalField, rows, shift) -> "AffineMap":
        conv = lambda v: v if not isinstance(v, int) else field.from_int(v)
        return cls(
            field,
            tuple(tuple(conv(e) for e in r) for r in rows),
            tuple(conv(e) for e in shift),
        )

    def apply(self, xs):
        f = self.field
        xs = tuple(xs)
        if len(xs) != self.n_in:
            raise FieldError("dimension mismatch")
        out = []
        for row, b in zip(self.rows, self.shift):
            acc = b
            for a, x in zip(row, xs):
                acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    # -- classification -----------------------------------------------------

    def is_zero_matrix(self) -> bool:
        f = self.field
        return all(f.is_zero(e) for r in self.rows for e in r)

    def det(self):
        if self.n_in != self.n_out:
            raise FieldError("determinant needs a square matrix")
        f = self.field
        return ring_det([list(r) for r in self.rows], f.zero(), f.one())

    def coordinate_parts(self):
        """Per output row, ``(j, s)`` when y_i = s x_j + b_i and None when the
        row is zero (y_i = b_i); None for the whole map when a row reads two
        coordinates or two rows read the same one."""
        f = self.field
        parts, used = [], set()
        for row in self.rows:
            nz = [j for j, e in enumerate(row) if not f.is_zero(e)]
            if not nz:
                parts.append(None)
                continue
            if len(nz) > 1 or nz[0] in used:
                return None
            used.add(nz[0])
            parts.append((nz[0], row[nz[0]]))
        return tuple(parts)

    def classify(self) -> str:
        if self.is_zero_matrix():
            return "constant"
        f = self.field
        parts = self.coordinate_parts()
        read = [] if parts is None else [p for p in parts if p is not None]
        if self.n_in == self.n_out:
            if len(read) == self.n_in or not f.is_zero(self.det()):
                return "iso"
            raise UnsupportedMap("square matrix is singular")
        if parts is not None and all(f.is_zero(f.sub(s, f.one())) for _, s in read):
            if self.n_out < self.n_in and len(read) == self.n_out:
                return "projection"
            if self.n_out > self.n_in and len(read) == self.n_in:
                return "inclusion"
        raise UnsupportedMap(
            "rectangular maps must be coordinate projections or inclusions"
        )

    def inverse(self) -> "AffineMap":
        """Exact inverse of an invertible square map."""
        f = self.field
        if self.n_in != self.n_out:
            raise UnsupportedMap("only square maps invert")
        parts = self.coordinate_parts()
        n = self.n_in
        if parts is not None and None not in parts:
            rows = [[f.zero()] * n for _ in range(n)]
            shift = [f.zero()] * n
            for i, (j, s) in enumerate(parts):
                inv = _invert_scale(f, s)
                rows[j][i] = inv
                shift[j] = f.neg(f.mul(inv, self.shift[i]))
            return AffineMap(f, tuple(tuple(r) for r in rows), tuple(shift))
        if f.kind != "p-adic":
            raise UnsupportedMap(
                "general matrix inversion needs division; over "
                "equal-characteristic fields only monomial matrices invert"
            )
        det = self.det()
        if f.is_zero(det):
            raise UnsupportedMap("square matrix is singular")
        adj = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [
                    [self.rows[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
                cof = ring_det(minor, f.zero(), f.one())
                if (i + j) % 2:
                    cof = f.neg(cof)
                adj[j][i] = cof / det  # exact rational division
        rows = tuple(tuple(r) for r in adj)
        inv_map = AffineMap(f, rows, tuple(f.zero() for _ in range(n)))
        shift = tuple(f.neg(c) for c in inv_map.apply(self.shift))
        return AffineMap(f, rows, shift)

    def to_json(self) -> dict:
        f = self.field
        return {
            "rows": [[f.element_to_json(e) for e in r] for r in self.rows],
            "shift": [f.element_to_json(e) for e in self.shift],
        }

    @classmethod
    def from_json(cls, field: LocalField, obj) -> "AffineMap":
        return cls(
            field,
            tuple(
                tuple(field.element_from_json(e) for e in r) for r in obj["rows"]
            ),
            tuple(field.element_from_json(e) for e in obj["shift"]),
        )


def _invert_scale(f: LocalField, s):
    """1/s for the scale of a coordinate row; UnsupportedMap when s has no
    exact inverse (over F_p((t)) only monomials invert, so y = (1 + t) x is
    classified "iso" but is outside the calculus)."""
    try:
        return f.invert(s)
    except FieldDivisionError:
        raise UnsupportedMap(
            f"the scale {s!r} of a coordinate row has no exact inverse"
        ) from None


# ---------------------------------------------------------------------------
# conormal cones
# ---------------------------------------------------------------------------


def normal_cone(f_map: AffineMap) -> LambdaCone:
    """The conormal cone of the map, as a cone on the target space.

    Isomorphisms and projections have conormal equal to the zero section,
    returned as the empty cone.  A coordinate inclusion or a constant map is
    conormal over its image in the codirections vanishing on the rows that
    read a coordinate: free on the constant rows, over their values.
    """
    f = f_map.field
    n = f_map.n_out
    if f_map.classify() in ("iso", "projection"):
        return LambdaCone.empty(f, n)
    parts = f_map.coordinate_parts()
    base = tuple(
        BasePoint(b) if part is None else BaseFull()
        for part, b in zip(parts, f_map.shift)
    )
    cofree = tuple(part is None for part in parts)
    return LambdaCone(f, n, (TaggedCell(f, base, cofree),))


def _check_conormal(f_map: AffineMap, u: MixedCellDistribution) -> None:
    nf = normal_cone(f_map)
    if nf.cells and wavefront_exact(u).meets(nf):
        raise NfIntersectsWF(
            "the map's conormal cone meets the wavefront cone of the operand"
        )


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------


def pullback(
    f_map: AffineMap,
    u: MixedCellDistribution,
    budget: int = DEFAULT_CELL_BUDGET,
) -> MixedCellDistribution:
    """u composed with the map, as a distribution on the source space.

    ``budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds the cells
    visited when a non-monomial invertible map subdivides a preimage.
    """
    f = f_map.field
    if u.field != f or u.n != f_map.n_out:
        raise FieldError("operand lives on a different space than the target")
    f_map.classify()  # raises UnsupportedMap on an unsupported shape
    _check_conormal(f_map, u)
    parts = f_map.coordinate_parts()
    if parts is None:
        return _pullback_general(f_map, f_map.inverse(), u, budget)
    rows, lo = [], [0] * f_map.n_in
    e2 = 0
    for i, (part, b) in enumerate(zip(parts, f_map.shift)):
        if part is None:
            rows.append(None)
            continue
        # the factor of y_i moves along the inverse row x_j = y_i / s - b / s
        j, s = part
        si = _invert_scale(f, s)
        lo[j], plan = _transport_plan(f, u._lo[i], _column(u, i), si, s, f.neg(f.mul(b, si)))
        rows.append((j, plan))
        e2 += 2 * f.ord(s)
    full = (LINE, f.zero())
    items = []
    for coef, key in u._coded:
        out = [full] * f_map.n_in
        total, angle, den = e2, 0, 1
        for x, e, row, b in zip(key, u._lo, rows, f_map.shift):
            if row is not None:
                # a density's Jacobian exponent cancels 2 ord(s); a point
                # mass keeps |s|^-1
                j, plan = row
                de2, j2, den2, out[j] = _transport(f, e, lo[j], plan, x)
                total += de2
            else:
                if not _contains(f, e, x, b):
                    break
                if x[0] == POINT:
                    # guarded by the conormal check; defensive
                    raise NfIntersectsWF("a constant row meets a point mass")
                j2, den2 = _angle_with(f, e, x[3], b) if x[0] == BALL else _psi(f, x[1], b)
            angle, den = _add_angle(angle, den, j2, den2)
        else:
            items.append((coef, None, total, angle, den, tuple(out)))
    return _build(f, f_map.n_in, lo, items)


def _pullback_general(f_map, inv, u, budget) -> MixedCellDistribution:
    """Pullback along an invertible map over Q_p whose matrix is not
    monomial, ``inv`` its inverse: point masses move to the preimage point
    and products of balls to the cells of their preimage."""
    f = f_map.field
    # |det|^{-1}, the scale of every pulled-back point mass
    scale = CycloScalar.q_pow(f.p, 2 * f.ord(f_map.det()))
    out_terms = []
    for coef, mod, fs in u.terms:
        if all(isinstance(fac, DeltaF) for fac in fs):
            # |det|^{-1} delta at the preimage point
            point = inv.apply(tuple(fac.point for fac in fs))
            nfs = tuple(DeltaF(c) for c in point)
            nmod = tuple(mod)  # canonical zero on point coordinates
            out_terms.append((coef * scale, nmod, nfs))
        elif all(not isinstance(fac, DeltaF) for fac in fs):
            # psi(<a, Ax + b>) = psi(<a, b>) psi(<A^T a, x>)
            rot = f.psi_pair(mod, f_map.shift)
            nmod = _transpose_apply(f_map, mod)
            if all(isinstance(fac, FullF) for fac in fs):
                out_terms.append((coef * rot, nmod, tuple(fs)))
            elif any(isinstance(fac, FullF) for fac in fs):
                raise UnsupportedMap(
                    "density terms mixing balls and full lines need a "
                    "monomial matrix"
                )
            else:
                for center, level in _preimage_cells(f_map, inv, fs, budget):
                    nfs = tuple(BallF(c, level) for c in center)
                    out_terms.append((coef * rot, nmod, nfs))
        else:
            raise UnsupportedMap(
                "terms mixing point masses and densities need a monomial matrix"
            )
    return MixedCellDistribution(f, f_map.n_in, out_terms)


def _transpose_apply(f_map, vec):
    f = f_map.field
    return tuple(
        _dot(f, [f_map.rows[r][c] for r in range(f_map.n_out)], vec)
        for c in range(f_map.n_in)
    )


def _dot(f, xs, ys):
    acc = f.zero()
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _preimage_cells(f_map, inv, fs, budget):
    """Exact cell decomposition of the preimage of a product of balls under
    the map, ``inv`` its inverse.

    Full-line factors pass through an invertible map to the full space, so
    they only relax the target; balls constrain it.  The preimage of the
    constrained product is a compact open set, computed by subdividing a
    bounding cell until every piece maps entirely inside or outside.
    """
    f = f_map.field
    radii = [fac.r for fac in fs]
    centers = [fac.center for fac in fs]
    z0 = inv.apply(centers)
    vmin = min(
        (f.ord(e) for r in f_map.rows for e in r if not f.is_zero(e)),
    )
    vmin_inv = min(
        (f.ord(e) for r in inv.rows for e in r if not f.is_zero(e)),
    )
    rmin = min(radii)
    rmax = max(radii)
    start = vmin_inv + rmin
    out = []
    queue = [(tuple(f.canon_trunc(c, start) for c in z0), start)]
    spent = 0
    while queue:
        center, t = queue.pop()
        spent += 1
        check_budget("preimage subdivision", spent, budget)
        img = f_map.apply(center)
        inside = True
        disjoint = False
        for yi, ci, ri in zip(img, centers, radii):
            d = f.ord(f.sub(yi, ci))
            if d < ri:
                inside = False
                if d < t + vmin:
                    disjoint = True
                    break
        if disjoint:
            continue
        if inside and t + vmin >= rmax:
            out.append((center, t))
            continue
        for child in Polyball.ball(f, center, t).cells_at_level(t + 1):
            queue.append((child, t + 1))
    return out


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def pushforward(
    f_map: AffineMap,
    u: MixedCellDistribution,
    budget: int = DEFAULT_CELL_BUDGET,
) -> MixedCellDistribution:
    """Image distribution: pairs with phi as u pairs with phi composed with the map.

    ``budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds the cells
    visited when a non-monomial invertible map subdivides a preimage.
    """
    f = f_map.field
    if u.field != f or u.n != f_map.n_in:
        raise FieldError("operand lives on a different space than the source")
    f_map.classify()  # raises UnsupportedMap on an unsupported shape
    parts = f_map.coordinate_parts()
    if parts is None:
        # pull along the inverse, times the inverse Jacobian modulus
        pulled = _pullback_general(f_map.inverse(), f_map, u, budget)
        return pulled.scale(CycloScalar.q_pow(f.p, 2 * f.ord(f_map.det())))
    read = {part[0] for part in parts if part is not None}
    unread = [j for j in range(f_map.n_in) if j not in read]
    rows, lo = [], []
    for part, b in zip(parts, f_map.shift):
        if part is None:
            rows.append(None)
            lo.append(0)
            continue
        j, s = part
        lo2, plan = _transport_plan(f, u._lo[j], _column(u, j), s, _invert_scale(f, s), b)
        rows.append((j, plan))
        lo.append(lo2)
    items = []
    for coef, key in u._coded:
        e2 = _integrate_out(key, unread)
        if e2 is None:
            continue
        angle, den, out = 0, 1, []
        for row, b, lo2 in zip(rows, f_map.shift, lo):
            if row is None:
                out.append((POINT, b))
                continue
            j, plan = row
            de2, j2, den2, y = _transport(f, u._lo[j], lo2, plan, key[j])
            e2 += de2
            angle, den = _add_angle(angle, den, j2, den2)
            out.append(y)
        items.append((coef, None, e2, angle, den, tuple(out)))
    return _build(f, f_map.n_out, lo, items)


def _column(u: MixedCellDistribution, j: int) -> list:
    """The entries of coordinate j, one per term."""
    return [key[j] for _, key in u._coded]


def _integrate_out(key, coords):
    """The exponent e2 of the integral q^(e2/2) of one term over the given
    coordinates, or None when it is 0 (``_mass``); a full line is not
    integrable."""
    e2 = 0
    for j in coords:
        if key[j][0] == LINE:
            raise NotProperOnSupport("support is a full line in an integrated axis")
        got = _mass(key[j])
        if got is None:
            return None
        e2 += got
    return e2


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def _reflect_cone(cone: LambdaCone) -> LambdaCone:
    """The cone with every codirection negated."""
    f = cone.field
    cells = []
    for c in cone.cells:
        if isinstance(c, OrbitRayCell):
            cells.append(
                OrbitRayCell(f, c.x0, tuple(f.neg(t) for t in c.theta), c.subgroup)
            )
        else:
            cells.append(c)  # tagged codirection sets are symmetric under negation
    return LambdaCone(f, cone.n, tuple(cells))


def product_dist(
    u1: MixedCellDistribution, u2: MixedCellDistribution
) -> MixedCellDistribution:
    """Exact pointwise product, guarded by the wavefront collision test."""
    f = u1.field
    if u2.field != f or u2.n != u1.n:
        raise FieldError("operands live on different spaces")
    w1 = wavefront_exact(u1)
    w2 = _reflect_cone(wavefront_exact(u2))
    if w1.meets(w2):
        raise WFCollision(
            "wavefront cones contain opposing codirections over a common point"
        )
    lo = tuple(
        min(u1._origins_below(i, (LINE,)), u2._origins_below(i, (LINE,)))
        for i in range(u1.n)
    )
    mine, theirs = u1._rebased(lo), u2._rebased(lo)
    items = []
    for c1, k1 in mine:
        for c2, k2 in theirs:
            angle, den, out = 0, 1, []
            for x, y, e in zip(k1, k2, lo):
                got = _mul_entries(f, e, x, y)
                if got is None:
                    break
                angle, den = _add_angle(angle, den, got[0], got[1])
                out.append(got[2])
            else:
                items.append((c1, c2, 0, angle, den, tuple(out)))
    return _build(f, u1.n, lo, items)


def _mul_entries(f, lo, x, y):
    """(j, den, entry): the product of two canonical entries at origin lo,
    their modulations added; None when their supports are disjoint."""
    if x[0] == POINT and y[0] == POINT:
        if f.is_zero(f.sub(x[1], y[1])):
            raise WFCollision("product of coinciding point masses")
        return None
    if y[0] == POINT:
        x, y = y, x
    if x[0] == POINT:
        # the character is a constant on the point mass: absorb it
        if not _contains(f, lo, y, x[1]):
            return None
        if y[0] == BALL:
            return (*_angle_with(f, lo, y[3], x[1]), x)
        return (*_psi(f, y[1], x[1]), x)
    if x[0] == LINE and y[0] == LINE:
        return 0, 1, (LINE, f.add(x[1], y[1]))
    if x[0] == LINE or (y[0] == BALL and y[1] > x[1]):
        x, y = y, x
    # x is the smaller ball, y a ball around it or a line: x met with y's
    # ball (``_meet``), with the sum of the two modulations
    q = f.q
    _, r, c, m = x
    other = y[3] if y[0] == BALL else _encode(f, y[1], lo, 1 - min(r, lo))
    m = f.residue_add(m, other, max(1 - min(r, lo) - lo, 0))
    if y[0] == BALL and _meet(f, q, lo, x, None, y[2], y[1]) is None:
        return None
    return _canonical_ball(f, q, lo, r, c, m)

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

The per-coordinate rules live on the factor classes of ``umla.distribution``
(see its docstring).  A monomial map y_i = s_i x_perm(i) + b_i pushes the
factor of coordinate perm(i) by ``push(field, s_i, b_i)``, which moves it by
x -> s_i x + b_i and multiplies a density by |s_i|^-1; pullback pushes along
the inverse and multiplies by |det|^-1.  Integrating a coordinate out takes
the factor's ``mass``, restriction and products its ``contains`` and
``meet``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cyclo import CycloScalar
from ..distribution import FULL, BallF, DeltaF, FullF, MixedCellDistribution, _term
from ..fields import FieldError, LocalField, Polyball, vec_add, vec_neg
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
    """x |-> A x + b from n_in to n_out coordinates, entries exact."""

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

    def is_monomial(self) -> bool:
        """One nonzero entry in every row and every column (square only)."""
        f = self.field
        if self.n_in != self.n_out:
            return False
        seen_cols = set()
        for row in self.rows:
            nz = [j for j, e in enumerate(row) if not f.is_zero(e)]
            if len(nz) != 1 or nz[0] in seen_cols:
                return False
            seen_cols.add(nz[0])
        return len(seen_cols) == self.n_in

    def monomial_parts(self):
        """(perm, scales) with f(x)_i = scales[i] * x[perm[i]] + shift[i]."""
        if not self.is_monomial():
            raise UnsupportedMap("matrix is not monomial")
        f = self.field
        perm, scales = [], []
        for row in self.rows:
            j = next(j for j, e in enumerate(row) if not f.is_zero(e))
            perm.append(j)
            scales.append(row[j])
        return tuple(perm), tuple(scales)

    def projection_parts(self):
        """Kept input coordinate per output row, for a coordinate projection."""
        f = self.field
        if self.n_out >= self.n_in:
            return None
        keep = []
        for row in self.rows:
            nz = [j for j, e in enumerate(row) if not f.is_zero(e)]
            if len(nz) != 1 or not f.is_zero(f.sub(row[nz[0]], f.one())):
                return None
            keep.append(nz[0])
        if len(set(keep)) != len(keep):
            return None
        return tuple(keep)

    def inclusion_parts(self):
        """Per output row: input coordinate index or None (constant row)."""
        f = self.field
        if self.n_out <= self.n_in:
            return None
        src = []
        used = set()
        for row in self.rows:
            nz = [j for j, e in enumerate(row) if not f.is_zero(e)]
            if not nz:
                src.append(None)
                continue
            if len(nz) != 1 or nz[0] in used:
                return None
            if not f.is_zero(f.sub(row[nz[0]], f.one())):
                return None
            used.add(nz[0])
            src.append(nz[0])
        if len(used) != self.n_in:
            return None
        return tuple(src)

    def classify(self) -> str:
        if self.is_zero_matrix():
            return "constant"
        if self.n_in == self.n_out:
            if not self.field.is_zero(self.det()):
                return "iso"
            raise UnsupportedMap("square matrix is singular")
        if self.projection_parts() is not None:
            return "projection"
        if self.inclusion_parts() is not None:
            return "inclusion"
        raise UnsupportedMap(
            "rectangular maps must be coordinate projections or inclusions"
        )

    def inverse(self) -> "AffineMap":
        """Exact inverse of an invertible square map."""
        f = self.field
        if self.n_in != self.n_out:
            raise UnsupportedMap("only square maps invert")
        if self.is_monomial():
            perm, scales = self.monomial_parts()
            n = self.n_in
            rows = [[f.zero()] * n for _ in range(n)]
            shift = [f.zero()] * n
            for i in range(n):
                inv = f.invert(scales[i])
                rows[perm[i]][i] = inv
                shift[perm[i]] = f.neg(f.mul(inv, self.shift[i]))
            return AffineMap(f, tuple(tuple(r) for r in rows), tuple(shift))
        if f.kind != "p-adic":
            raise UnsupportedMap(
                "general matrix inversion needs division; over "
                "equal-characteristic fields only monomial matrices invert"
            )
        det = self.det()
        if f.is_zero(det):
            raise UnsupportedMap("square matrix is singular")
        n = self.n_in
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


# ---------------------------------------------------------------------------
# conormal cones
# ---------------------------------------------------------------------------


def normal_cone(f_map: AffineMap) -> LambdaCone:
    """The conormal cone of the map, as a cone on the target space.

    Isomorphisms and projections have conormal equal to the zero section,
    returned as the empty cone.  A coordinate inclusion is conormal over its
    image in the codirections vanishing on the kept coordinates; a constant
    map is conormal over its value point in every codirection.
    """
    f = f_map.field
    kind = f_map.classify()
    n = f_map.n_out
    if kind in ("iso", "projection"):
        return LambdaCone.empty(f, n)
    if kind == "constant":
        base = tuple(BasePoint(c) for c in f_map.shift)
        return LambdaCone(f, n, (TaggedCell(f, base, tuple([True] * n)),))
    src = f_map.inclusion_parts()
    base = []
    cofree = []
    for row, b in zip(src, f_map.shift):
        if row is None:
            base.append(BasePoint(b))
            cofree.append(True)
        else:
            base.append(BaseFull())
            cofree.append(False)
    return LambdaCone(f, n, (TaggedCell(f, tuple(base), tuple(cofree)),))


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
    kind = f_map.classify()
    _check_conormal(f_map, u)
    if kind == "iso":
        return _pullback_iso(f_map, u, budget)
    if kind == "projection":
        keep = f_map.projection_parts()
        v = u.translate(vec_neg(f, f_map.shift)) if _nonzero_vec(f, f_map.shift) else u
        out = []
        for coef, mod, fs in v.terms:
            nmod = [f.zero()] * f_map.n_in
            nfs = [FULL] * f_map.n_in
            for row, j in enumerate(keep):
                nmod[j] = mod[row]
                nfs[j] = fs[row]
            out.append((coef, tuple(nmod), tuple(nfs)))
        return MixedCellDistribution(f, f_map.n_in, out)
    if kind == "inclusion":
        src = f_map.inclusion_parts()
        v = u.translate(vec_neg(f, f_map.shift)) if _nonzero_vec(f, f_map.shift) else u
        zero = f.zero()
        out = []
        for coef, mod, fs in v.terms:
            nmod = [None] * f_map.n_in
            nfs = [None] * f_map.n_in
            dead = False
            for row, j in enumerate(src):
                if j is not None:
                    nmod[j] = mod[row]
                    nfs[j] = fs[row]
                    continue
                # the dropped coordinate is evaluated at 0 after the shift,
                # so the modulation contributes psi(a * 0) = 1
                if not fs[row].contains(f, zero):
                    dead = True
                    break
                if isinstance(fs[row], DeltaF):
                    # guarded by the conormal check; defensive
                    raise NfIntersectsWF(
                        "restriction meets a point mass in a dropped coordinate"
                    )
            if not dead:
                out.append((coef, tuple(nmod), tuple(nfs)))
        return MixedCellDistribution(f, f_map.n_in, out)
    # constant map: the value at the point scales the constant function
    val = _value_at(u, f_map.shift)
    return MixedCellDistribution.constant(f, f_map.n_in, 1).scale(val)


def _pullback_iso(f_map, u, budget) -> MixedCellDistribution:
    f = f_map.field
    if f_map.is_monomial():
        # push along the inverse, times |det|^-1
        return _push_monomial(f_map.inverse(), u, 2 * f.ord(f_map.det()))
    if f.kind != "p-adic":
        raise UnsupportedMap(
            "over equal-characteristic fields only monomial matrices are supported"
        )
    inv = f_map.inverse()
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
                for center, level in _preimage_cells(f_map, fs, budget):
                    nfs = tuple(BallF(c, level) for c in center)
                    out_terms.append((coef * rot, nmod, nfs))
        else:
            raise UnsupportedMap(
                "terms mixing point masses and densities need a monomial matrix"
            )
    return MixedCellDistribution(f, f_map.n_in, out_terms)


def _push_monomial(f_map, u, e2: int) -> MixedCellDistribution:
    """The image of u under the monomial map, times q^(e2/2).

    Output coordinate i is s x_perm[i] + b, so the factor of input
    coordinate perm[i] is pushed by (s, b), and psi(a x) = psi(-a b / s)
    psi((a / s) y) on y = s x + b.
    """
    f = f_map.field
    perm, scales = f_map.monomial_parts()
    inv = [f.invert(s) for s in scales]
    out = []
    for coef, mod, fs in u.terms:
        parts = []
        for j, s, si, b in zip(perm, scales, inv, f_map.shift):
            na = f.mul(mod[j], si)
            fac, de2 = fs[j].push(f, s, b)
            parts.append((de2, -f.psi_angle(f.mul(na, b)), na, fac))
        out.append(_term(coef.q_shift(e2), parts))
    return MixedCellDistribution(f, f_map.n_in, out)


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


def _preimage_cells(f_map, fs, budget):
    """Exact cell decomposition of the preimage of a product of balls.

    Full-line factors pass through an invertible map to the full space, so
    they only relax the target; balls constrain it.  The preimage of the
    constrained product is a compact open set, computed by subdividing a
    bounding cell until every piece maps entirely inside or outside.
    """
    f = f_map.field
    radii = [fac.r for fac in fs]
    inv = f_map.inverse()
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


def _nonzero_vec(f, vec) -> bool:
    return any(not f.is_zero(c) for c in vec)


def _value_at(u: MixedCellDistribution, point) -> CycloScalar:
    """Pointwise value at a point where u carries no atom."""
    f = u.field
    values = []
    for coef, mod, fs in u.terms:
        dead = False
        for x, fac in zip(point, fs):
            if not fac.contains(f, x):
                dead = True
                break
            if isinstance(fac, DeltaF):
                raise NfIntersectsWF("the distribution has an atom at the point")
        if not dead:
            values.append(coef * f.psi_pair(mod, point))
    return CycloScalar.sum(f.p, values)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def pushforward(
    f_map: AffineMap,
    u: MixedCellDistribution,
    budget: int = DEFAULT_CELL_BUDGET,
) -> MixedCellDistribution:
    """Image distribution: pairs with phi as u pairs with phi composed with the map.

    ``budget`` (default the shared ``DEFAULT_CELL_BUDGET``) is passed to
    :func:`pullback` along the inverse of an invertible map.
    """
    f = f_map.field
    if u.field != f or u.n != f_map.n_in:
        raise FieldError("operand lives on a different space than the source")
    kind = f_map.classify()
    if kind == "iso":
        return _pushforward_iso(f_map, u, budget)
    if kind == "projection":
        keep = f_map.projection_parts()
        dropped = [j for j in range(f_map.n_in) if j not in keep]
        out = []
        for coef, mod, fs in u.terms:
            c2 = _integrate_out(f, coef, mod, fs, dropped)
            if c2 is not None:
                nmod = tuple(mod[j] for j in keep)
                nfs = tuple(fs[j] for j in keep)
                out.append((c2, nmod, nfs))
        res = MixedCellDistribution(f, f_map.n_out, out)
        if _nonzero_vec(f, f_map.shift):
            res = res.translate(f_map.shift)
        return res
    if kind == "inclusion":
        src = f_map.inclusion_parts()
        out = []
        for coef, mod, fs in u.terms:
            nmod = []
            nfs = []
            for row, j in enumerate(src):
                if j is None:
                    nmod.append(f.zero())
                    nfs.append(DeltaF(f_map.shift[row]))
                else:
                    nmod.append(mod[j])
                    nfs.append(fs[j])
            out.append((coef, tuple(nmod), tuple(nfs)))
        res = MixedCellDistribution(f, f_map.n_out, out)
        if any(
            j is not None and not f.is_zero(f_map.shift[row])
            for row, j in enumerate(src)
        ):
            shift = tuple(
                f_map.shift[row] if j is not None else f.zero()
                for row, j in enumerate(src)
            )
            res = res.translate(shift)
        return res
    # constant map: total mass at the value point
    mass = _total_mass(u)
    point = tuple(f_map.shift)
    return MixedCellDistribution.delta(f, point).scale(mass)


def _pushforward_iso(f_map, u, budget) -> MixedCellDistribution:
    f = f_map.field
    if f_map.is_monomial():
        return _push_monomial(f_map, u, 0)
    # general invertible: push along f = pull along the inverse, scaled by
    # the inverse Jacobian modulus
    inv = f_map.inverse()
    pulled = pullback(inv, u, budget)
    return pulled.scale(CycloScalar.q_pow(f.p, 2 * f.ord(f_map.det())))


def _integrate_out(f, coef, mod, fs, coords):
    """coef times the integral of one term over the given coordinates, or
    None when it is 0: a ball B_r(c) contributes psi(a c) q^(-r) unless
    psi(a x) oscillates on it, a point mass 1 (its modulation is zero), and
    a full line is not integrable."""
    e2, angle = 0, 0
    for j in coords:
        if isinstance(fs[j], FullF):
            raise NotProperOnSupport("support is a full line in an integrated axis")
        got = fs[j].mass(f, mod[j])
        if got is None:
            return None
        e2 += got[0]
        angle += got[1]
    return coef.q_shift(e2).rotate(angle)


def _total_mass(u: MixedCellDistribution) -> CycloScalar:
    f = u.field
    masses = (_integrate_out(f, c, mod, fs, range(u.n)) for c, mod, fs in u.terms)
    return CycloScalar.sum(f.p, [m for m in masses if m is not None])


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
    out = []
    for c1, m1, fs1 in u1.terms:
        for c2, m2, fs2 in u2.terms:
            coef = c1 * c2
            nmod = vec_add(f, m1, m2)
            nfs = []
            dead = False
            for fac1, fac2 in zip(fs1, fs2):
                fac = _mul_factors(f, fac1, fac2)
                if fac is None:
                    dead = True
                    break
                nfs.append(fac)
            if dead:
                continue
            out.append((coef, tuple(nmod), tuple(nfs)))
    return MixedCellDistribution(f, u1.n, out)


def _mul_factors(f, a, b):
    """Product of two per-coordinate factors; None when disjoint."""
    if isinstance(a, DeltaF) and isinstance(b, DeltaF):
        if f.is_zero(f.sub(a.point, b.point)):
            raise WFCollision("product of coinciding point masses")
        return None
    if isinstance(b, DeltaF):
        a, b = b, a
    if isinstance(b, BallF):
        return a.meet(f, b.center, b.r)
    return a  # times the constant 1 of the line

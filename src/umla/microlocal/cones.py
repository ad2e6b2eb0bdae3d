"""Scaling-invariant cones over base-times-codirection space.

A cone is a finite union of cells.  Two cell shapes are supported:

* ``TaggedCell`` — a product base region (each coordinate a point, a ball, or
  the whole line) together with a per-coordinate codirection tag.  A tag of
  ``True`` leaves that codirection coordinate free; ``False`` pins it to zero.
  The cell is the set of pairs ``(x, xi)`` with ``x`` in the base region,
  ``xi_i = 0`` on pinned coordinates, and ``xi != 0``.

* ``OrbitRayCell`` — a single base point together with the exact orbit of a
  direction vector under a scaling subgroup: ``{(x0, lam * theta)}`` for
  ``lam`` in the subgroup.

Cell membership, pairwise intersection, and pairwise inclusion are exact for
these shapes.  Cone-level inclusion is checked cell-by-cell and is therefore
a sufficient condition (a union can be covered without any single cell being
contained in a single cell of the other cone); cone-level intersection is
exact because a union meets a union exactly when some pair of cells meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from ..fields import INF, FieldError, LocalField, field_from_json
from .subgroup import LambdaSubgroup

__all__ = [
    "BasePoint",
    "BaseBall",
    "BaseFull",
    "TaggedCell",
    "OrbitRayCell",
    "LambdaCone",
]


# ---------------------------------------------------------------------------
# per-coordinate base descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasePoint:
    value: object

    def contains(self, field, x) -> bool:
        return field.is_zero(field.sub(x, self.value))


@dataclass(frozen=True)
class BaseBall:
    center: object
    radius: int

    def contains(self, field, x) -> bool:
        return field.ord(field.sub(x, self.center)) >= self.radius


@dataclass(frozen=True)
class BaseFull:
    def contains(self, field, x) -> bool:
        return True


def _base_subset(field, a, b) -> bool:
    if isinstance(b, BaseFull):
        return True
    if isinstance(a, BasePoint):
        return b.contains(field, a.value)
    if isinstance(a, BaseBall):
        if isinstance(b, BaseBall):
            return a.radius >= b.radius and b.contains(field, a.center)
        return False  # a ball is never inside a point
    return False  # Full only inside Full


def _base_meets(field, a, b) -> bool:
    if isinstance(a, BaseFull) or isinstance(b, BaseFull):
        return True
    if isinstance(a, BasePoint):
        return b.contains(field, a.value)
    if isinstance(b, BasePoint):
        return a.contains(field, b.value)
    # two balls are nested or disjoint
    d = field.ord(field.sub(a.center, b.center))
    return d >= min(a.radius, b.radius)


def _base_to_json(field, a):
    if isinstance(a, BasePoint):
        return {"kind": "point", "value": field.element_to_json(a.value)}
    if isinstance(a, BaseBall):
        return {
            "kind": "ball",
            "center": field.element_to_json(a.center),
            "radius": a.radius,
        }
    return {"kind": "full"}


def _base_from_json(field, obj):
    kind = obj["kind"]
    if kind == "point":
        return BasePoint(field.element_from_json(obj["value"]))
    if kind == "ball":
        return BaseBall(field.element_from_json(obj["center"]), int(obj["radius"]))
    if kind == "full":
        return BaseFull()
    raise FieldError(f"unknown base descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaggedCell:
    field: LocalField
    base: tuple  # per-coordinate BasePoint / BaseBall / BaseFull
    cofree: tuple  # per-coordinate bool; True = codirection free, False = pinned to 0

    def __post_init__(self):
        if len(self.base) != len(self.cofree):
            raise FieldError("base and codirection tags must have equal length")

    @property
    def n(self) -> int:
        return len(self.base)

    def is_empty(self) -> bool:
        # xi must be nonzero, but every coordinate is pinned to zero.
        return not any(self.cofree)

    def contains(self, x, xi) -> bool:
        f = self.field
        if len(x) != self.n or len(xi) != self.n:
            raise FieldError("dimension mismatch")
        if all(f.is_zero(c) for c in xi):
            return False
        for b, xc in zip(self.base, x):
            if not b.contains(f, xc):
                return False
        for free, xic in zip(self.cofree, xi):
            if not free and not f.is_zero(xic):
                return False
        return True

    def subset_of(self, other) -> bool:
        if self.is_empty():
            return True
        if isinstance(other, TaggedCell):
            if other.n != self.n:
                return False
            for a, b in zip(self.base, other.base):
                if not _base_subset(self.field, a, b):
                    return False
            for fa, fb in zip(self.cofree, other.cofree):
                if fa and not fb:
                    return False
            return True
        return False  # a tagged cell is never inside a single ray orbit

    def meets(self, other) -> bool:
        if isinstance(other, TaggedCell):
            if other.n != self.n or self.is_empty() or other.is_empty():
                return False
            for a, b in zip(self.base, other.base):
                if not _base_meets(self.field, a, b):
                    return False
            return any(fa and fb for fa, fb in zip(self.cofree, other.cofree))
        if isinstance(other, OrbitRayCell):
            return other.meets(self)
        return False

    def pullback_iso(self, perm, scales, shift):
        """Transform the cell along the linear change of frame of an
        invertible monomial map f(x)_i = scales[i] * x[perm[i]] + shift[i].

        Returns the cell of pairs (x, xi) with (f(x), eta) in this cell and
        xi the transpose image of eta.
        """
        f = self.field
        n = self.n
        base = [None] * n
        cofree = [None] * n
        for i in range(n):
            j = perm[i]
            s = scales[i]
            inv = f.invert(s)
            b = self.base[i]
            if isinstance(b, BasePoint):
                nb = BasePoint(f.mul(f.sub(b.value, shift[i]), inv))
            elif isinstance(b, BaseBall):
                nb = BaseBall(
                    f.mul(f.sub(b.center, shift[i]), inv),
                    b.radius - f.ord(s),
                )
            else:
                nb = BaseFull()
            base[j] = nb
            cofree[j] = self.cofree[i]
        return TaggedCell(f, tuple(base), tuple(cofree))

    def to_json(self) -> dict:
        return {
            "type": "tagged",
            "base": [_base_to_json(self.field, b) for b in self.base],
            "cofree": list(self.cofree),
        }


@dataclass(frozen=True)
class OrbitRayCell:
    field: LocalField
    x0: tuple
    theta: tuple
    subgroup: LambdaSubgroup

    def __post_init__(self):
        f = self.field
        if len(self.x0) != len(self.theta):
            raise FieldError("base point and direction must have equal length")
        if all(f.is_zero(t) for t in self.theta):
            raise FieldError("orbit direction must be nonzero")

    @property
    def n(self) -> int:
        return len(self.x0)

    def is_empty(self) -> bool:
        return False

    def _pivot(self) -> int:
        f = self.field
        best, best_ord = None, INF
        for i, t in enumerate(self.theta):
            if not f.is_zero(t):
                o = f.ord(t)
                if best is None or o < best_ord:
                    best, best_ord = i, o
        return best

    def scaling_class_of(self, xi, m: int | None = None):
        """(ord, unit-code) of the scalar lam with xi = lam * theta, or None.

        The scalar is identified through cross products, so it never requires
        a field division; its class is computed at depth ``m`` (default: the
        subgroup's depth).
        """
        f = self.field
        if m is None:
            m = self.subgroup.m
        if all(f.is_zero(c) for c in xi):
            return None
        for i in range(self.n):
            for j in range(i + 1, self.n):
                lhs = f.mul(xi[i], self.theta[j])
                rhs = f.mul(xi[j], self.theta[i])
                if not f.is_zero(f.sub(lhs, rhs)):
                    return None
        i0 = self._pivot()
        t, x = self.theta[i0], xi[i0]
        if f.is_zero(x):
            return None
        e = f.ord(x) - f.ord(t)
        # strip uniformizer powers so the residue inversion sees units
        t_unit = f.mul(t, f.pow_uniformizer(-f.ord(t)))
        x_unit = f.mul(x, f.pow_uniformizer(-f.ord(x)))
        inv = f.unit_inverse_mod(t_unit, m)
        u = f.ac(f.mul(x_unit, inv), m)
        return (e, u)

    def contains(self, x, xi) -> bool:
        f = self.field
        if len(x) != self.n or len(xi) != self.n:
            raise FieldError("dimension mismatch")
        for a, b in zip(self.x0, x):
            if not f.is_zero(f.sub(a, b)):
                return False
        cls = self.scaling_class_of(xi)
        if cls is None:
            return False
        return self.subgroup.contains_class(*cls)

    def subset_of(self, other) -> bool:
        f = self.field
        if isinstance(other, TaggedCell):
            if other.n != self.n:
                return False
            for b, xc in zip(other.base, self.x0):
                if not b.contains(f, xc):
                    return False
            for free, t in zip(other.cofree, self.theta):
                if not free and not f.is_zero(t):
                    return False
            return True
        if isinstance(other, OrbitRayCell):
            if other.n != self.n:
                return False
            for a, b in zip(self.x0, other.x0):
                if not f.is_zero(f.sub(a, b)):
                    return False
            cls = other.scaling_class_of(self.theta)
            if cls is None or not other.subgroup.contains_class(*cls):
                return False
            return _subgroup_leq(self.subgroup, other.subgroup)
        return False

    def meets(self, other) -> bool:
        f = self.field
        if isinstance(other, TaggedCell):
            if other.n != self.n or other.is_empty():
                return False
            # the whole orbit has the same zero pattern, so it either lies in
            # the tagged codirection set or misses it entirely
            for b, xc in zip(other.base, self.x0):
                if not b.contains(f, xc):
                    return False
            return all(
                free or f.is_zero(t) for free, t in zip(other.cofree, self.theta)
            )
        if isinstance(other, OrbitRayCell):
            if other.n != self.n:
                return False
            for a, b in zip(self.x0, other.x0):
                if not f.is_zero(f.sub(a, b)):
                    return False
            # theta = mu * theta' with class(mu) = cls; orbits meet exactly
            # when mu lies in the product subgroup (the group is abelian)
            d, m, classes = _product_subgroup(self.subgroup, other.subgroup)
            cls = other.scaling_class_of(self.theta, m)
            if cls is None:
                return False
            e, u = cls
            return (e % d, u) in classes
        return False

    def pullback_iso(self, perm, scales, shift):
        f = self.field
        n = self.n
        x0 = [None] * n
        theta = [None] * n
        for i in range(n):
            j = perm[i]
            inv = f.invert(scales[i])
            x0[j] = f.mul(f.sub(self.x0[i], shift[i]), inv)
            theta[j] = f.mul(scales[i], self.theta[i])
        return OrbitRayCell(f, tuple(x0), tuple(theta), self.subgroup)

    def to_json(self) -> dict:
        f = self.field
        return {
            "type": "ray",
            "x0": [f.element_to_json(c) for c in self.x0],
            "theta": [f.element_to_json(c) for c in self.theta],
            "subgroup": self.subgroup.to_json(),
        }


def _lift_classes(field, sub: LambdaSubgroup, d: int, m: int) -> set:
    """Classes of ``sub`` presented at the finer invariants (d, m)."""
    out = set()
    # a unit code's digits are base q, so its depth-m reduction is mod q^m
    mod = field.q**sub.m
    for e in range(d):
        for u in field.unit_classes(m):
            if sub.contains_class(e, u % mod):
                out.add((e, u))
    return out


def _subgroup_leq(a: LambdaSubgroup, b: LambdaSubgroup) -> bool:
    """Whether subgroup a is contained in subgroup b (exact on classes).

    Containment of the described groups holds exactly when every class of a,
    re-presented at the common refinement of the invariants, lies in the
    lifted classes of b.
    """
    field = a.field
    d = lcm(a.d, b.d)
    m = max(a.m, b.m)
    la = _lift_classes(field, a, d, m)
    lb = _lift_classes(field, b, d, m)
    return la <= lb


def _product_subgroup(a: LambdaSubgroup, b: LambdaSubgroup):
    """Classes of the product group a*b at the common refinement (d, m)."""
    field = a.field
    d = lcm(a.d, b.d)
    m = max(a.m, b.m)
    la = _lift_classes(field, a, d, m)
    lb = _lift_classes(field, b, d, m)
    prod = set()
    for (e1, u1) in la:
        for (e2, u2) in lb:
            prod.add(((e1 + e2) % d, field.residue_mul(u1, u2, m)))
    return d, m, prod


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaCone:
    field: LocalField
    n: int
    cells: tuple

    @classmethod
    def empty(cls, field: LocalField, n: int) -> "LambdaCone":
        return cls(field, n, ())

    def __post_init__(self):
        for c in self.cells:
            if c.n != self.n:
                raise FieldError("cone cells must share the ambient dimension")

    def is_empty(self) -> bool:
        return all(c.is_empty() for c in self.cells)

    def contains(self, x, xi) -> bool:
        return any(c.contains(tuple(x), tuple(xi)) for c in self.cells)

    def union(self, other: "LambdaCone") -> "LambdaCone":
        if other.n != self.n:
            raise FieldError("cannot union cones of different dimension")
        return LambdaCone(self.field, self.n, self.cells + other.cells)

    def subset_of(self, other: "LambdaCone") -> bool:
        """Cell-by-cell inclusion: sufficient for containment, not necessary."""
        return all(
            c.is_empty() or any(c.subset_of(d) for d in other.cells)
            for c in self.cells
        )

    def meets(self, other: "LambdaCone") -> bool:
        return any(
            c.meets(d) for c in self.cells for d in other.cells
        )

    def pullback_iso(self, perm, scales, shift) -> "LambdaCone":
        return LambdaCone(
            self.field,
            self.n,
            tuple(c.pullback_iso(perm, scales, shift) for c in self.cells),
        )

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "n": self.n,
            "cells": [c.to_json() for c in self.cells],
        }

    @classmethod
    def from_json(cls, obj) -> "LambdaCone":
        field = field_from_json(obj["field"])
        cells = []
        for c in obj["cells"]:
            if c["type"] == "tagged":
                cells.append(
                    TaggedCell(
                        field,
                        tuple(_base_from_json(field, b) for b in c["base"]),
                        tuple(bool(t) for t in c["cofree"]),
                    )
                )
            elif c["type"] == "ray":
                cells.append(
                    OrbitRayCell(
                        field,
                        tuple(field.element_from_json(v) for v in c["x0"]),
                        tuple(field.element_from_json(v) for v in c["theta"]),
                        LambdaSubgroup.from_json(c["subgroup"]),
                    )
                )
            else:
                raise FieldError(f"unknown cone cell type {c['type']!r}")
        return cls(field, int(obj["n"]), tuple(cells))

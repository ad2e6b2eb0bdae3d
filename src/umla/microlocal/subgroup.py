"""Multiplicative scaling subgroups of a local field.

A scaling subgroup is described by three data: a period ``d >= 1`` for the
valuation, a depth ``m >= 1`` for the angular component, and a set ``H`` of
pairs ``(e mod d, u)`` with ``u`` an encoded unit residue mod uniformizer^m.
A nonzero field element ``lam`` belongs to the subgroup exactly when

    (ord(lam) mod d, ac_m(lam)) in H.

``H`` is required to be a subgroup of (Z/d) x (O/uniformizer^m)^*; the
constructor closes a generating set under the group operation, so every
instance satisfies this by construction.  Membership is therefore decided by
finitely many digits; all digits beyond depth ``m`` are unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fields import FieldError, LocalField, field_from_json

__all__ = ["LambdaSubgroup", "parse_subgroup_spec"]


@dataclass(frozen=True)
class LambdaSubgroup:
    """A finite-index scaling subgroup of the multiplicative group."""

    field: LocalField
    d: int
    m: int
    classes: frozenset  # of (e mod d, encoded unit residue mod uniformizer^m)

    # -- construction -----------------------------------------------------

    @classmethod
    def generate(cls, field: LocalField, d: int, m: int, generators) -> "LambdaSubgroup":
        """Close a set of (ord-class, unit-code) generator pairs into a subgroup.

        Each generator is either a nonzero field element or a pair
        ``(e, u)`` of an integer valuation class and an encoded unit residue.
        """
        if d < 1:
            raise FieldError("valuation period must be at least 1")
        if m < 1:
            raise FieldError("angular depth must be at least 1")
        units = set(field.unit_classes(m))
        pairs = []
        for g in generators:
            if isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], int):
                e, u = g
                u %= field.q**m
            else:
                if field.is_zero(g):
                    raise FieldError("zero cannot generate a scaling subgroup")
                e, u = field.ord(g), field.ac(g, m)
            if u not in units:
                raise FieldError(f"generator residue {u} is not a unit mod depth {m}")
            pairs.append((e % d, u))
        identity = (0, field.ac(field.one(), m))
        closed = {identity}
        frontier = [identity]
        gens = pairs or []
        # Breadth-first closure under multiplication by each generator.  The
        # ambient group is finite, and a finite subset closed under
        # multiplication by generators starting from the identity is the
        # generated subgroup (inverses are powers).
        while frontier:
            cur = frontier.pop()
            for (ge, gu) in gens:
                nxt = ((cur[0] + ge) % d, field.residue_mul(cur[1], gu, m))
                if nxt not in closed:
                    closed.add(nxt)
                    frontier.append(nxt)
        return cls(field, d, m, frozenset(closed))

    @classmethod
    def full(cls, field: LocalField, m: int = 1) -> "LambdaSubgroup":
        """The whole multiplicative group, presented at depth m."""
        classes = frozenset((0, u) for u in field.unit_classes(m))
        return cls(field, 1, m, classes)

    # -- membership and invariants ----------------------------------------

    def contains(self, lam) -> bool:
        if self.field.is_zero(lam):
            return False
        return self.contains_class(self.field.ord(lam), self.field.ac(lam, self.m))

    def contains_class(self, e: int, u: int) -> bool:
        return (e % self.d, u) in self.classes

    def index(self) -> int:
        """Index in the full group, at the presentation depth (d, m)."""
        total = self.d * len(self.field.unit_classes(self.m))
        return total // len(self.classes)

    def ord_classes(self) -> frozenset:
        return frozenset(e for (e, _) in self.classes)

    def units_at_ord(self, e: int) -> list:
        """Sorted unit codes attainable at valuation e."""
        c = e % self.d
        return sorted(u for (cc, u) in self.classes if cc == c)

    def min_positive_ord(self) -> int:
        """Smallest positive valuation attained by a subgroup element."""
        classes = self.ord_classes()
        candidates = [c for c in classes if c > 0]
        # class 0 is always attainable (identity) and contains the positive
        # valuation d.
        return min(candidates + [self.d])

    def rep_with_ord(self, e: int):
        """A canonical subgroup element of valuation exactly e."""
        units = self.units_at_ord(e)
        if not units:
            raise FieldError(f"no subgroup element has valuation {e}")
        f = self.field
        return f.residue_lift(units[0], e)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "d": self.d,
            "m": self.m,
            "classes": sorted(list(c) for c in self.classes),
        }

    @classmethod
    def from_json(cls, obj) -> "LambdaSubgroup":
        field = field_from_json(obj["field"])
        classes = frozenset((int(e), int(u)) for e, u in obj["classes"])
        sub = cls(field, int(obj["d"]), int(obj["m"]), classes)
        sub._validate()
        return sub

    def _validate(self) -> None:
        units = set(self.field.unit_classes(self.m))
        ident = (0, self.field.ac(self.field.one(), self.m))
        if ident not in self.classes:
            raise FieldError("subgroup classes must contain the identity")
        for (e, u) in self.classes:
            if not (0 <= e < self.d) or u not in units:
                raise FieldError("malformed subgroup class")
        for (e1, u1) in self.classes:
            for (e2, u2) in self.classes:
                prod = ((e1 + e2) % self.d, self.field.residue_mul(u1, u2, self.m))
                if prod not in self.classes:
                    raise FieldError("subgroup classes are not closed under product")


def parse_subgroup_spec(field: LocalField, spec: str) -> LambdaSubgroup:
    """Parse ``"d,m,e:u,e:u,..."`` into a scaling subgroup.

    ``d`` is the valuation period, ``m`` the angular depth, and each ``e:u``
    pair is a generator given by its valuation class ``e`` and encoded unit
    residue ``u`` (an integer in [1, q^m) coprime to the residue structure).
    ``"full"`` denotes the whole multiplicative group.
    """
    spec = spec.strip()
    if spec == "full":
        return LambdaSubgroup.full(field)
    parts = [s.strip() for s in spec.split(",") if s.strip()]
    if len(parts) < 2:
        raise FieldError("subgroup spec needs at least 'd,m'")
    try:
        d, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FieldError(f"bad subgroup spec {spec!r}: {exc}") from None
    gens = []
    for tok in parts[2:]:
        if ":" not in tok:
            raise FieldError(f"generator {tok!r} must look like 'e:u'")
        e_s, u_s = tok.split(":", 1)
        try:
            gens.append((int(e_s), int(u_s)))
        except ValueError as exc:
            raise FieldError(f"bad generator {tok!r}: {exc}") from None
    return LambdaSubgroup.generate(field, d, m, gens)

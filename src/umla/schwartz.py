"""Compactly supported locally constant functions on K^n with exact values.

A function is stored as a finite linear combination of indicator functions of
disjoint cells.  All cells share one per-coordinate refinement level vector
``levels``: the cell with center ``c`` is the product of the one-dimensional
balls B_{levels[i]}(c_i).  Centers are kept canonically truncated, so the cell
dictionary is a canonical representation once zero coefficients are dropped.

Coefficients are exact cyclotomic scalars, so additive-character values and
half-integer powers of q coming from transforms never lose precision.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .cyclo import CycloScalar
from .fields import FieldError, LocalField, Polyball, vec_add, vec_neg

# the one cell budget: every cell-enumerating operation and every cexp
# summation range defaults to it, and every cell guard calls check_budget
DEFAULT_CELL_BUDGET = 1 << 18


class CellBudgetError(FieldError):
    """An operation would materialize more cells than the allowed budget."""


def check_budget(what: str, cells: int, budget: int) -> None:
    """Raise :class:`CellBudgetError` naming both counts if cells > budget."""
    if cells > budget:
        raise CellBudgetError(f"{what}: {cells} cells requested, {budget} allowed")


def coerce_scalar(p: int, value) -> CycloScalar:
    """``value`` as an exact scalar of residue characteristic p: a
    ``CycloScalar`` of that p as it is, an int or a ``Fraction`` as a
    rational one; FieldError for anything else."""
    if isinstance(value, CycloScalar):
        if value.p != p:
            raise FieldError("scalar belongs to a different residue characteristic")
        return value
    if not isinstance(value, (int, Fraction)):
        raise FieldError(f"a {type(value).__name__} is not an exact scalar")
    return CycloScalar.fraction(p, Fraction(value))


class SchwartzBruhat:
    """Finite exact cell decomposition of a test function on K^n."""

    __slots__ = ("field", "n", "levels", "cells", "_normal")

    def __init__(self, field: LocalField, n: int, levels, cells: dict):
        if n < 1:
            raise FieldError("dimension must be at least 1")
        self.field = field
        self.n = n
        self.levels = self._levels_tuple(n, levels)
        # (normal form, alpha bounds), filled by the first ``normalized`` call;
        # read-only
        self._normal = None
        canon: dict = {}
        for center, coef in cells.items():
            coef = coerce_scalar(field.p, coef)
            key = tuple(
                field.canon_trunc(c, r) for c, r in zip(center, self.levels)
            )
            if len(key) != n:
                raise FieldError("cell center has wrong dimension")
            if key in canon:
                canon[key] = canon[key] + coef
            else:
                canon[key] = coef
        self.cells = {k: v for k, v in canon.items() if not v.is_zero()}

    @staticmethod
    def _levels_tuple(n: int, levels) -> tuple[int, ...]:
        if isinstance(levels, int):
            return (levels,) * n
        out = tuple(int(r) for r in levels)
        if len(out) != n:
            raise FieldError("levels vector has wrong dimension")
        return out

    @classmethod
    def _trusted(cls, field, n, levels, cells) -> "SchwartzBruhat":
        """Construct from already-canonical centers (internal fast path)."""
        obj = object.__new__(cls)
        obj.field = field
        obj.n = n
        obj.levels = levels if isinstance(levels, tuple) else cls._levels_tuple(n, levels)
        obj.cells = {k: v for k, v in cells.items() if not v.is_zero()}
        obj._normal = None
        return obj

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: LocalField, n: int, levels=0) -> "SchwartzBruhat":
        return cls(field, n, levels, {})

    @classmethod
    def indicator(cls, ball: Polyball, coef=1) -> "SchwartzBruhat":
        c = coerce_scalar(ball.field.p, coef)
        return cls(ball.field, ball.n, ball.radii, {ball.centers: c})

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.cells

    def terms(self) -> Iterator[tuple[Polyball, CycloScalar]]:
        for center, coef in self.cells.items():
            yield Polyball(self.field, center, self.levels), coef

    def support_radii(self):
        """Per-coordinate radii a_i with support contained in prod B_{a_i}(0)."""
        if not self.cells:
            return None
        ord_ = self.field.ord  # INF at 0, so min(ord c, r) is r there
        return tuple(
            min(r, *(ord_(c[i]) for c in self.cells))
            for i, r in enumerate(self.levels)
        )

    def refine(self, levels, budget: int = DEFAULT_CELL_BUDGET) -> "SchwartzBruhat":
        """The same function on finer levels.  ``budget`` bounds the refined
        cells (default the shared ``DEFAULT_CELL_BUDGET``), here and in
        ``common_refinement``, ``modulate`` and ``restrict``."""
        levels = self._levels_tuple(self.n, levels)
        if levels == self.levels:
            return self
        fan = 1
        for new, old in zip(levels, self.levels):
            if new < old:
                raise FieldError("refinement must not coarsen any coordinate")
            fan *= self.field.q ** (new - old)
        check_budget("refinement", len(self.cells) * fan, budget)
        field = self.field
        new_cells: dict = {}
        for center, coef in self.cells.items():
            per = [
                field.cell_reps(center[i], self.levels[i], levels[i])
                for i in range(self.n)
            ]
            for combo in product(*per):
                new_cells[combo] = coef
        return SchwartzBruhat._trusted(field, self.n, levels, new_cells)

    def common_refinement(self, other: "SchwartzBruhat", budget=DEFAULT_CELL_BUDGET):
        if self.field != other.field or self.n != other.n:
            raise FieldError("operands live on different spaces")
        levels = tuple(max(a, b) for a, b in zip(self.levels, other.levels))
        return self.refine(levels, budget), other.refine(levels, budget)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        f, g = self.common_refinement(other)
        cells = dict(f.cells)
        for key, coef in g.cells.items():
            cells[key] = cells[key] + coef if key in cells else coef
        return SchwartzBruhat._trusted(f.field, f.n, f.levels, cells)

    def __neg__(self) -> "SchwartzBruhat":
        return self.scale(-1)

    def __sub__(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        return self + other.scale(-1)

    def scale(self, value) -> "SchwartzBruhat":
        c = coerce_scalar(self.field.p, value)
        if c.is_zero():
            return SchwartzBruhat._trusted(self.field, self.n, self.levels, {})
        return SchwartzBruhat._trusted(
            self.field, self.n, self.levels,
            {k: v * c for k, v in self.cells.items()},
        )

    def mul(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        """Pointwise product."""
        f, g = self.common_refinement(other)
        cells = {
            key: coef * g.cells[key] for key, coef in f.cells.items() if key in g.cells
        }
        return SchwartzBruhat._trusted(f.field, f.n, f.levels, cells)

    def translate(self, v: Sequence) -> "SchwartzBruhat":
        """x -> f(x - v), support moves by +v."""
        field = self.field
        cells = {vec_add(field, key, v): coef for key, coef in self.cells.items()}
        return SchwartzBruhat(field, self.n, self.levels, cells)

    def reflect(self) -> "SchwartzBruhat":
        """x -> f(-x)."""
        field = self.field
        cells = {vec_neg(field, key): coef for key, coef in self.cells.items()}
        return SchwartzBruhat(field, self.n, self.levels, cells)

    def modulate(self, a: Sequence, budget=DEFAULT_CELL_BUDGET) -> "SchwartzBruhat":
        """Multiply by the additive character of the pairing with a."""
        field = self.field
        levels = []
        for i in range(self.n):
            need = self.levels[i]
            if not field.is_zero(a[i]):
                need = max(need, 1 - field.ord(a[i]))
            levels.append(need)
        fine = self.refine(tuple(levels), budget)
        cells = {
            key: coef * field.psi_pair(a, key) for key, coef in fine.cells.items()
        }
        return SchwartzBruhat._trusted(field, self.n, fine.levels, cells)

    def restrict(self, ball: Polyball, budget=DEFAULT_CELL_BUDGET) -> "SchwartzBruhat":
        """Pointwise product with the indicator of a polyball."""
        levels = tuple(max(a, b) for a, b in zip(self.levels, ball.radii))
        fine = self.refine(levels, budget)
        cells = {k: v for k, v in fine.cells.items() if ball.contains(k)}
        return SchwartzBruhat._trusted(self.field, self.n, fine.levels, cells)

    def tensor(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        """Outer product f(x) g(y) on the concatenated coordinates."""
        if self.field != other.field:
            raise FieldError("operands live over different fields")
        cells = {
            c1 + c2: v1 * v2
            for c1, v1 in self.cells.items()
            for c2, v2 in other.cells.items()
        }
        return SchwartzBruhat._trusted(
            self.field, self.n + other.n, self.levels + other.levels, cells
        )

    # -- evaluation and integration -------------------------------------------

    def eval_at(self, xs: Sequence) -> CycloScalar:
        key = tuple(
            self.field.canon_trunc(x, r) for x, r in zip(xs, self.levels)
        )
        got = self.cells.get(key)
        return got if got is not None else CycloScalar.zero(self.field.p)

    def integrate(self) -> CycloScalar:
        total = CycloScalar.sum(self.field.p, self.cells.values())
        return total.q_shift(-2 * sum(self.levels))

    # -- canonical coarsening and alpha data ------------------------------------

    def normalized(self) -> "SchwartzBruhat":
        """Coarsen each coordinate to its minimal constancy level.

        The normal form is built on the first call and kept, with the
        alpha bounds read off it, in the private slot ``_normal``, so every
        later call returns the same object, and the normal form's own slot
        holds the same pair.  It is shared, so it is read-only, like the
        function itself.
        """
        if self._normal is None:
            g = self._coarsened()
            bounds = (min(g.support_radii()), max(g.levels)) if g.cells else None
            self._normal = g._normal = (g, bounds)
        return self._normal[0]

    def _coarsened(self) -> "SchwartzBruhat":
        if not self.cells:
            return self
        field, q = self.field, self.field.q
        levels = list(self.levels)
        cells = dict(self.cells)
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                groups: dict = {}
                ok = True
                for center, coef in cells.items():
                    parent = field.canon_trunc(center[i], levels[i] - 1)
                    key = center[:i] + (parent,) + center[i + 1 :]
                    groups.setdefault(key, []).append(coef)
                for members in groups.values():
                    if len(members) != q or any(c != members[0] for c in members[1:]):
                        ok = False
                        break
                if ok:
                    cells = {key: members[0] for key, members in groups.items()}
                    levels[i] -= 1
                    changed = True
        if tuple(levels) == self.levels:
            return self
        return SchwartzBruhat._trusted(field, self.n, tuple(levels), cells)

    def alpha_bounds(self) -> tuple[int, int]:
        """(support radius, constancy level), read off the normal form."""
        if not self.cells:
            raise FieldError("alpha bounds of the zero function are undefined")
        self.normalized()
        return self._normal[1]

    def equals(self, other: "SchwartzBruhat") -> bool:
        f, g = self.common_refinement(other)
        if set(f.cells) != set(g.cells):
            return False
        return all(coef == g.cells[k] for k, coef in f.cells.items())

    # -- transforms --------------------------------------------------------------

    def fourier(self, budget: int = DEFAULT_CELL_BUDGET) -> "SchwartzBruhat":
        """Additive-character transform, one coordinate at a time.

        On a cell of radius r the character x -> psi(x*xi) integrates to
        q^(-r) psi(center*xi) when ord(xi) >= 1-r and to 0 otherwise, so the
        transform of a level-r decomposition is supported on B_{1-r}(0) and is
        constant on cells of radius 1-a, where a bounds the support.
        ``budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds the
        (cell, frequency) pairs scanned for each coordinate; it is checked
        before any frequency is built.

        The frequencies are the ``cell_reps`` children xi_k = sum_d k_d
        pi^(s+d) of B_s(0) at level 1-a, s = 1-r and k_d the base-q digits
        of k < q^L, L = r-a.  psi is additive, so the angle of center*xi_k
        is sum_d k_d theta_d mod 1, from the L base angles theta_d =
        psi_angle(center*pi^(s+d)); it is summed on integer numerators j over
        the largest denominator den of the theta_d (see ``_grid_angles``).
        Each (cell, frequency) pair adds j / den to the angle indices of the
        cell's coefficient on ints (``CycloScalar.raw``), and every output
        cell's integer raw terms are canonicalised once.
        """
        field, n, p = self.field, self.n, self.field.p
        g = self.normalized()
        if not g.cells:
            return SchwartzBruhat._trusted(
                field, n, tuple(1 - r for r in g.levels), {}
            )
        levels = list(g.levels)
        cells = g.cells
        for i in range(n):
            r = levels[i]
            a = min(r, *(field.ord(c[i]) for c in cells))
            check_budget("Fourier transform", len(cells) * field.q ** (r - a), budget)
            grid = field.cell_reps(field.zero(), 1 - r, 1 - a)
            base = [field.pow_uniformizer(1 - r + d) for d in range(r - a)]
            raw: dict = {}
            for center, coef in cells.items():
                ci = center[i]
                pre = center[:i]
                post = center[i + 1 :]
                thetas = [field.psi_angle(field.mul(ci, b)) for b in base]
                den, nums = _grid_angles(p, thetas)
                for xi, j in zip(grid, nums):
                    key = pre + (xi,) + post
                    raw.setdefault(key, []).extend(coef.raw(-2 * r, j, den))
            new_cells = {}
            for key, bucket in raw.items():
                val = CycloScalar(p, bucket)
                if not val.is_zero():
                    new_cells[key] = val
            cells = new_cells
            levels[i] = 1 - a
        return SchwartzBruhat._trusted(field, n, tuple(levels), cells)

    def convolve(self, other: "SchwartzBruhat", budget=DEFAULT_CELL_BUDGET):
        """Additive convolution with respect to the self-dual measure.

        ``budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds the
        refined cells of each operand and the cell pairs scanned.
        """
        f, g = self.common_refinement(other, budget)
        check_budget("convolution", len(f.cells) * len(g.cells), budget)
        field, p = f.field, f.field.p
        shift = -2 * sum(f.levels)
        raw: dict = {}
        for c1, v1 in f.cells.items():
            for c2, v2 in g.cells.items():
                key = vec_add(field, c1, c2)
                raw.setdefault(key, []).extend((v1 * v2).raw(shift))
        cells = {}
        for key, bucket in raw.items():
            val = CycloScalar(p, bucket)
            if not val.is_zero():
                cells[key] = val
        return SchwartzBruhat(field, f.n, f.levels, cells)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        field = self.field
        return {
            "field": field.to_json(),
            "n": self.n,
            "levels": list(self.levels),
            "cells": [
                {
                    "center": [field.element_to_json(c) for c in center],
                    "coef": coef.to_json(),
                }
                for center, coef in sorted(
                    self.cells.items(), key=lambda kv: repr(kv[0])
                )
            ],
        }

    @classmethod
    def from_json(cls, field: LocalField, obj: dict) -> "SchwartzBruhat":
        n = int(obj["n"])
        levels = tuple(int(r) for r in obj["levels"])
        cells = {}
        for item in obj["cells"]:
            center = tuple(field.element_from_json(c) for c in item["center"])
            cells[center] = CycloScalar.from_json(field.p, item["coef"])
        return cls(field, n, levels, cells)

    def __repr__(self) -> str:
        return (
            f"SchwartzBruhat({self.field!r}, n={self.n}, levels={self.levels}, "
            f"cells={len(self.cells)})"
        )


def _grid_angles(p: int, thetas: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The angles sum_d k_d theta_d mod 1 for k = 0, 1, ..., p^L - 1, k_d the
    base-p digits of k and L = len(thetas), each theta_d of p-power
    denominator: (den, [numerator of angle k over den, for each k]), den the
    largest of those denominators."""
    den = max((t.denominator for t in thetas), default=1)
    nums = [0]
    for t in thetas:
        step = t.numerator * (den // t.denominator)
        nums = [(a + j * step) % den for j in range(p) for a in nums]
    return den, nums


def make_sb(pairs) -> SchwartzBruhat:
    """Sum of scaled polyball indicators; pairs of (Polyball, scalar)."""
    pairs = list(pairs)
    if not pairs:
        raise FieldError("make_sb needs at least one polyball")
    out = None
    for ball, coef in pairs:
        term = SchwartzBruhat.indicator(ball, coef)
        out = term if out is None else out + term
    return out

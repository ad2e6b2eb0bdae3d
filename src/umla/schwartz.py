"""Compactly supported locally constant functions on K^n with exact values.

A function is stored as a finite linear combination of indicator functions of
disjoint cells.  All cells share one per-coordinate refinement level vector
``levels``: the cell with center ``c`` is the product of the one-dimensional
balls B_{levels[i]}(c_i).  Centers are kept canonically truncated, so the cell
dictionary is a canonical representation once zero coefficients are dropped.

Coefficients are exact cyclotomic scalars, so additive-character values and
half-integer powers of q coming from transforms never lose precision.

Cells are keyed by integer codes, one per coordinate.  Each coordinate i has
an origin lo_i at or below its level r_i and at or below the ord of every
centre (the support radius when the codes are first made).  A centre c,
canonical at level r, has the code sum_{lo <= e < r} d_e q^(e - lo), d_e its
digit at pi^e, so 0 <= code < q^(r - lo); ``LocalField.residue_lift(code,
lo)`` decodes it and ``LocalField.residue_code(c, lo)`` encodes it; the
fiber value kernel reads the same code straight off a root search's walk
code (``residue_code`` of the ``polys`` codes), with no element built.  Over
Q_p the code is the integer c p^(-lo).  The integer rules are the same for
both field kinds:

  * ord c = lo + v_p(code), and the support radius of the coordinate is
    min(r, lo + v_p(gcd of its codes));
  * re-basing to a lower origin lo' multiplies the code by q^(lo - lo');
  * the parent code at level L - 1 is code mod q^(L - 1 - lo).

Sums differ by kind (``LocalField.residue_add``): over Q_p the code of a sum
is (a + b) mod p^(r - lo), and over F_p((t)) the digits add mod p, with no
carry.  In ``fourier`` the frequency of grid index k has code k at origin
1 - r, and with the centre's code at origin a (the support radius) and
L = r - a the angle of centre * xi_k (``LocalField.code_angle_steps``) is
(code * k mod p^L) / p^L over Q_p and (sum_i d_i k_(L-1-i) mod p) / p over
F_p((t)), d_i and k_j the base-p digits of the code and of k.

The element dict ``cells`` is a view, built from the codes when it is first
read and then kept; a function built from elements keeps the canonical dict
it was given as that view and makes its codes only when an operation on
codes first needs them.  Both dicts list the cells in the same order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterator, Sequence

from .cyclo import CycloScalar
from .fields import FieldError, LocalField, Polyball, _vp, vec_add, vec_neg

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


def _coords(n: int, xs: Sequence) -> tuple:
    """The point xs as a tuple; FieldError unless it has n coordinates."""
    xs = tuple(xs)
    if len(xs) != n:
        raise FieldError(f"expected {n} coordinates, got {len(xs)}")
    return xs


class SchwartzBruhat:
    """Finite exact cell decomposition of a test function on K^n."""

    # _cells: the element view or None; _lo and _codes: the origins and the
    # code-keyed cells, or None until first needed; at least one dict is set
    __slots__ = ("field", "n", "levels", "_cells", "_lo", "_codes", "_normal")

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
                field.canon_trunc(c, r)
                for c, r in zip(_coords(n, center), self.levels)
            )
            if key in canon:
                canon[key] = canon[key] + coef
            else:
                canon[key] = coef
        self._cells = {k: v for k, v in canon.items() if not v.is_zero()}
        self._lo = self._codes = None

    @staticmethod
    def _levels_tuple(n: int, levels) -> tuple[int, ...]:
        if isinstance(levels, int):
            return (levels,) * n
        out = tuple(int(r) for r in levels)
        if len(out) != n:
            raise FieldError("levels vector has wrong dimension")
        return out

    @classmethod
    def _trusted(cls, field, n, levels: tuple, cells=None, lo=None, codes=None):
        """Construct from already-canonical cells (internal fast path): the
        element dict ``cells``, or the ``codes`` at the origins ``lo``."""
        obj = object.__new__(cls)
        obj.field, obj.n, obj.levels, obj._lo, obj._normal = field, n, levels, lo, None
        obj._cells = obj._codes = None
        if cells is not None:
            obj._cells = {k: v for k, v in cells.items() if not v.is_zero()}
        else:
            obj._codes = {k: v for k, v in codes.items() if not v.is_zero()}
        return obj

    # -- the two views of the cells ----------------------------------------------

    @property
    def cells(self) -> dict:
        """The cells keyed by canonical centre tuples (read-only)."""
        if self._cells is None:
            lift = self.field.residue_lift
            lo = self._lo
            self._cells = {
                tuple(lift(c, e) for c, e in zip(key, lo)): v
                for key, v in self._codes.items()
            }
        return self._cells

    def _coded(self) -> tuple[tuple, dict]:
        """(origins, code-keyed cells), made on the first call (module
        docstring); the origins are the support radii then."""
        if self._codes is None:
            field, cells = self.field, self._cells
            lo = tuple(
                min([r] + [field.ord(c[i]) for c in cells if not field.is_zero(c[i])])
                for i, r in enumerate(self.levels)
            )
            code = field.residue_code
            self._codes = {
                tuple(code(x, e) for x, e in zip(center, lo)): v
                for center, v in cells.items()
            }
            self._lo = lo
        return self._lo, self._codes

    def _any_cells(self) -> dict:
        """Whichever cell dict is built: same values, same order."""
        return self._cells if self._cells is not None else self._codes

    def _rebased(self, lo: tuple) -> dict:
        """The code-keyed cells at the origins ``lo``, each at or below this
        function's own."""
        old, codes = self._coded()
        if old == lo:
            return codes
        q = self.field.q
        mult = tuple(q ** (a - b) for a, b in zip(old, lo))
        return {tuple(c * m for c, m in zip(key, mult)): v for key, v in codes.items()}

    @staticmethod
    def _common_codes(f: "SchwartzBruhat", g: "SchwartzBruhat"):
        """(origins, codes of f, codes of g) on common origins."""
        lo = tuple(map(min, f._coded()[0], g._coded()[0]))
        return lo, f._rebased(lo), g._rebased(lo)

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
        return not self._any_cells()

    def terms(self) -> Iterator[tuple[Polyball, CycloScalar]]:
        for center, coef in self.cells.items():
            yield Polyball(self.field, center, self.levels), coef

    def support_radii(self):
        """Per-coordinate radii a_i with support contained in prod B_{a_i}(0)."""
        lo, codes = self._coded()
        if not codes:
            return None
        q = self.field.q
        return tuple(
            _radius(q, r, e, [key[i] for key in codes])
            for i, (r, e) in enumerate(zip(self.levels, lo))
        )

    def refine(self, levels, budget: int = DEFAULT_CELL_BUDGET) -> "SchwartzBruhat":
        """The same function on finer levels.  ``budget`` bounds the refined
        cells (default the shared ``DEFAULT_CELL_BUDGET``), here and in
        ``common_refinement``, ``modulate`` and ``restrict``.

        The children of each cell and coordinate are the ``cell_reps`` of its
        centre, encoded at the unchanged origins."""
        levels = self._levels_tuple(self.n, levels)
        if levels == self.levels:
            return self
        fan = 1
        for new, old in zip(levels, self.levels):
            if new < old:
                raise FieldError("refinement must not coarsen any coordinate")
            fan *= self.field.q ** (new - old)
        check_budget("refinement", len(self._any_cells()) * fan, budget)
        field = self.field
        reps, code = field.cell_reps, field.residue_code
        lo = self._coded()[0]
        axes = tuple(zip(self.levels, levels, lo))
        new_cells: dict = {}
        for center, coef in self.cells.items():
            per = [
                [code(x, e) for x in reps(c, r, s)]
                for c, (r, s, e) in zip(center, axes)
            ]
            for combo in product(*per):
                new_cells[combo] = coef
        return SchwartzBruhat._trusted(field, self.n, levels, lo=lo, codes=new_cells)

    def common_refinement(self, other: "SchwartzBruhat", budget=DEFAULT_CELL_BUDGET):
        if self.field != other.field or self.n != other.n:
            raise FieldError("operands live on different spaces")
        levels = tuple(max(a, b) for a, b in zip(self.levels, other.levels))
        return self.refine(levels, budget), other.refine(levels, budget)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        f, g = self.common_refinement(other)
        lo, fc, gc = self._common_codes(f, g)
        cells = dict(fc)
        for key, coef in gc.items():
            cells[key] = cells[key] + coef if key in cells else coef
        return SchwartzBruhat._trusted(f.field, f.n, f.levels, lo=lo, codes=cells)

    def __neg__(self) -> "SchwartzBruhat":
        return self.scale(-1)

    def __sub__(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        return self + other.scale(-1)

    def scale(self, value) -> "SchwartzBruhat":
        c = coerce_scalar(self.field.p, value)
        lo, codes = self._coded()
        cells = {k: v * c for k, v in codes.items()}  # all dropped when c is 0
        return SchwartzBruhat._trusted(self.field, self.n, self.levels, lo=lo, codes=cells)

    def mul(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        """Pointwise product."""
        f, g = self.common_refinement(other)
        lo, fc, gc = self._common_codes(f, g)
        cells = {key: coef * gc[key] for key, coef in fc.items() if key in gc}
        return SchwartzBruhat._trusted(f.field, f.n, f.levels, lo=lo, codes=cells)

    def translate(self, v: Sequence) -> "SchwartzBruhat":
        """x -> f(x - v), support moves by +v."""
        field = self.field
        v = _coords(self.n, v)
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
        a = _coords(self.n, a)
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
        if ball.field != self.field or ball.n != self.n:
            raise FieldError("ball lives on a different space")
        levels = tuple(max(a, b) for a, b in zip(self.levels, ball.radii))
        fine = self.refine(levels, budget)
        cells = {k: v for k, v in fine.cells.items() if ball.contains(k)}
        return SchwartzBruhat._trusted(self.field, self.n, fine.levels, cells)

    def tensor(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        """Outer product f(x) g(y) on the concatenated coordinates."""
        if self.field != other.field:
            raise FieldError("operands live over different fields")
        lo1, codes1 = self._coded()
        lo2, codes2 = other._coded()
        cells = {
            c1 + c2: v1 * v2 for c1, v1 in codes1.items() for c2, v2 in codes2.items()
        }
        return SchwartzBruhat._trusted(
            self.field, self.n + other.n, self.levels + other.levels, lo=lo1 + lo2, codes=cells
        )

    # -- evaluation and integration -------------------------------------------

    def eval_at(self, xs: Sequence) -> CycloScalar:
        field = self.field
        lo, codes = self._coded()
        key = []
        for x, r, e in zip(_coords(self.n, xs), self.levels, lo):
            c = field.residue_code(field.canon_trunc(x, r), e)
            if c is None:  # a digit below the origin: outside every cell
                return CycloScalar.zero(field.p)
            key.append(c)
        got = codes.get(tuple(key))
        return got if got is not None else CycloScalar.zero(field.p)

    def integrate(self) -> CycloScalar:
        total = CycloScalar.sum(self.field.p, self._any_cells().values())
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
            bounds = (min(g.support_radii()), max(g.levels)) if g._any_cells() else None
            self._normal = g._normal = (g, bounds)
        return self._normal[0]

    def _coarsened(self) -> "SchwartzBruhat":
        if not self._any_cells():
            return self
        q = self.field.q
        levels = list(self.levels)
        lo, cells = self._coded()
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                if lo[i] == levels[i]:
                    continue  # every code is 0: one cell per parent, no merge
                mod = q ** (levels[i] - 1 - lo[i])
                groups: dict = {}
                ok = True
                for key, coef in cells.items():
                    parent = key[:i] + (key[i] % mod,) + key[i + 1 :]
                    groups.setdefault(parent, []).append(coef)
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
        return SchwartzBruhat._trusted(self.field, self.n, tuple(levels), lo=lo, codes=cells)

    def alpha_bounds(self) -> tuple[int, int]:
        """(support radius, constancy level), read off the normal form."""
        if not self._any_cells():
            raise FieldError("alpha bounds of the zero function are undefined")
        self.normalized()
        return self._normal[1]

    def equals(self, other: "SchwartzBruhat") -> bool:
        f, g = self.common_refinement(other)
        _, fc, gc = self._common_codes(f, g)
        if fc.keys() != gc.keys():
            return False
        return all(coef == gc[k] for k, coef in fc.items())

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
        of k < q^L, L = r-a, encoded at origin s (code k).  psi is additive,
        so the angle of center*xi_k is sum_d k_d theta_d mod 1, from the L
        base angles theta_d = j_d / den of center*pi^(s+d), read off the
        centre's code (``LocalField.code_angle_steps``) and summed on
        integer numerators (``_grid_angles``).  Each (cell, frequency) pair
        adds j / den to the angle indices of the cell's coefficient on ints
        (``CycloScalar.raw``), and every output cell's integer raw terms are
        canonicalised once.
        """
        field, n, p, q = self.field, self.n, self.field.p, self.field.q
        g = self.normalized()
        if not g._any_cells():
            return SchwartzBruhat._trusted(
                field, n, tuple(1 - r for r in g.levels), {}
            )
        levels = list(g.levels)
        lo, cells = g._coded()
        lo = list(lo)
        angle_steps = field.code_angle_steps
        for i in range(n):
            r, e = levels[i], lo[i]
            a = _radius(q, r, e, [key[i] for key in cells])
            check_budget("Fourier transform", len(cells) * q ** (r - a), budget)
            s = 1 - r
            ks = [field.residue_code(xi, s) for xi in field.cell_reps(field.zero(), s, 1 - a)]
            shift, e2 = q ** (a - e), -2 * r
            raw: dict = {}
            for key, coef in cells.items():
                den, steps = angle_steps(key[i] // shift, r - a)
                pre, post, terms = key[:i], key[i + 1 :], coef.raw
                for k, j in zip(ks, _grid_angles(p, den, steps)):
                    raw.setdefault(pre + (k,) + post, []).extend(terms(e2, j, den))
            new_cells = {}
            for key, bucket in raw.items():
                val = CycloScalar(p, bucket)
                if not val.is_zero():
                    new_cells[key] = val
            cells = new_cells
            levels[i], lo[i] = 1 - a, s
        return SchwartzBruhat._trusted(field, n, tuple(levels), lo=tuple(lo), codes=cells)

    def convolve(self, other: "SchwartzBruhat", budget=DEFAULT_CELL_BUDGET):
        """Additive convolution with respect to the self-dual measure.

        ``budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds the
        refined cells of each operand and the cell pairs scanned.  The cell
        of a pair of centres is their sum, added on codes at common origins.
        """
        f, g = self.common_refinement(other, budget)
        check_budget("convolution", len(f._any_cells()) * len(g._any_cells()), budget)
        lo, fc, gc = self._common_codes(f, g)
        field, p = f.field, f.field.p
        add = field.residue_add
        widths = tuple(r - e for r, e in zip(f.levels, lo))
        shift = -2 * sum(f.levels)
        raw: dict = {}
        for c1, v1 in fc.items():
            for c2, v2 in gc.items():
                key = tuple(map(add, c1, c2, widths))
                raw.setdefault(key, []).extend((v1 * v2).raw(shift))
        cells = {}
        for key, bucket in raw.items():
            val = CycloScalar(p, bucket)
            if not val.is_zero():
                cells[key] = val
        return SchwartzBruhat._trusted(field, f.n, f.levels, lo=lo, codes=cells)

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
            f"cells={len(self._any_cells())})"
        )


def _radius(q: int, r: int, e: int, codes: Sequence[int]) -> int:
    """The support radius min(r, ord of every centre) of one coordinate at
    level r from its codes at origin e: ord c = e + v_p(code), and the least
    v_p of the codes is v_p of their gcd."""
    w = gcd(*codes)
    return min(r, e + _vp(w, q)) if w else r


def _grid_angles(p: int, den: int, steps: Sequence[int]) -> list[int]:
    """The numerators over den of the angles sum_d k_d theta_d mod 1, for
    k = 0, 1, ..., p^L - 1, k_d the base-p digits of k, L = len(steps) and
    theta_d = steps[d] / den."""
    nums = [0]
    for step in steps:
        nums = [(a + j * step) % den for j in range(p) for a in nums]
    return nums


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

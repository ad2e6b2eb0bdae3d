"""Distributions on K^n closed under transform, product, and convolution.

A distribution here is a finite sum of *modulated mixed cells*

    coef * psi(<a, x>) * prod_i factor_i(x_i)

where each per-coordinate factor is the indicator density of a ball, the
constant density on the whole line, or a unit point mass.  The class is closed
under the additive-character transform, multiplication by cell functions,
convolution (away from divergent constant*constant pairs), tensor products,
translation and reflection, and pairing with cell functions — all with exact
cyclotomic scalars.

Canonical form: point-mass coordinates absorb their modulation into the
coefficient; ball coordinates truncate the centre to the radius and the
modulation to the conductor of the ball; terms with identical factor/modulation
data merge.  Zero tests on the scalars make the merge exact, so e.g. a point
mass minus itself is the empty sum.

Terms are stored on integer codes, as ``SchwartzBruhat`` cells are (the
``schwartz`` docstring gives the code of a canonical element at an origin).
Each coordinate i has an origin lo_i at or below the ord of every ball centre
and every nonzero ball modulation in it.  A term is a coefficient and a key
of one entry per coordinate:

  * a ball is ``(BALL, r, c, m)``: c the code of the centre at lo, cut at r
    (c < q^(r - lo)), and m the code of the modulation at lo, cut at the
    conductor 1 - r (m < q^(1 - r - lo));
  * a point mass is ``(POINT, x)``, its modulation absorbed;
  * a line is ``(LINE, a)``, a its modulation.

Point masses and line modulations stay exact field elements.  Over Q_p they
are arbitrary Fractions, such as the point -1/2 that the transform makes of
psi(x/2) dx, and such an element has no finite code at any origin; a ball's
centre and modulation do, since they are cut at the radius and the conductor.

The rules on codes, the same for both field kinds but for the digit sums of
``LocalField.residue_add``, ``residue_neg`` and ``residue_mul``:

  * canonical (``_canonical_ball``): the centre code mod q^(r - lo) and the
    modulation code mod q^(1 - r - lo); the discarded modulation digits d
    (the quotient, at origin 1 - r) times the centre give the angle
    ``LocalField.code_angle(d, c, 1 - r + lo)``.  A modulation code handed
    to the rule carries its digits below 1 - min(r, lo), which is all this
    angle reads: a higher digit times a centre of ord >= lo has ord >= 1;
  * meet with B_lev(z), z's code at lo (``_meet``): a ball of radius
    r >= lev survives when its centre code mod q^(lev - lo) is z, one of
    radius r < lev when z mod q^(r - lo) is its centre, and becomes
    (lev, z, m) re-cut at the finer conductor; a point survives when its
    code cut at lev is z, and a line becomes the ball (lev, z) with its
    modulation's code;
  * transport by x -> s x + b, s = pi^v u (``_transport``): the modulation a
    goes to A = a / s and the coefficient gains psi(-A b); a ball's centre
    code becomes ``residue_mul(c, code of u)`` at origin lo + v plus the
    code of b, its radius r + v and its Jacobian exponent e2 = 2 v, and A's
    code is ``residue_mul(m, code of 1/u)`` at origin lo - v;
  * Fourier (``_fourier``): (r, c, m) goes to (1 - r, -m, c) with q^(-r) and
    the angle ``code_angle(c, m, 2 lo)`` of z a; a line with modulation a
    goes to the point -a with q^-1, and a point x to the line modulated by x;
  * mass (``_mass``): q^(-r) for a ball whose cut modulation is 0 and 0 for
    any other ball, 1 for a point; the line has no finite mass;
  * contains (``_contains``): x lies in the ball when its code cut at r is c.

Each term's coefficient is gathered as integer raw terms, with the q-powers
and angles of its coordinates and any product of two scalars, and the terms
of one key are canonicalised once (``_build``).  The public form ``terms``,
triples (coef, mod, factors) with element modulations and
``BallF``/``FullF``/``DeltaF`` factors, is a view, built from the codes when
it is first read and then kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cyclo import CycloScalar
from .fields import INF, FieldError, LocalField, Polyball
from .schwartz import SchwartzBruhat, _coords, coerce_scalar


class ConvolutionDivergence(FieldError):
    """Both convolution operands have infinite mass in some coordinate."""


class NonCompactSupport(FieldError):
    """The operation requires a compactly supported distribution."""


@dataclass(frozen=True, slots=True)
class BallF:
    """Indicator density of the one-dimensional ball B_r(center)."""

    center: object
    r: int

    def to_json(self, field) -> dict:
        return {
            "type": "ball",
            "center": field.element_to_json(self.center),
            "radius": self.r,
        }


@dataclass(frozen=True, slots=True)
class FullF:
    """Constant density 1 on the whole coordinate line."""

    def to_json(self, field) -> dict:
        return {"type": "full"}


@dataclass(frozen=True, slots=True)
class DeltaF:
    """Unit point mass at a fixed coordinate value."""

    point: object

    def to_json(self, field) -> dict:
        return {"type": "delta", "point": field.element_to_json(self.point)}


FULL = FullF()

# the kinds of a coded entry (module docstring)
BALL, POINT, LINE = 0, 1, 2


# -- the rules on coded entries ------------------------------------------------


def _element(field: LocalField, x, what: str):
    """x as an element of the field, an int lifted with ``from_int``;
    FieldError naming ``what`` for anything else."""
    if isinstance(x, int) and not isinstance(x, bool):
        return field.from_int(x)
    zero = field.zero()
    if type(x) is type(zero) and getattr(x, "p", field.p) == field.p:
        return x
    raise FieldError(f"{what}: {x!r} is not an element of {field!r}")


def _encode(field: LocalField, x, lo: int, level: int):
    """The code at origin lo of x cut at level; None when the cut x has a
    nonzero digit below lo."""
    return field.residue_code(field.canon_trunc(x, level), lo)


def _add_angle(j: int, den: int, j2: int, den2: int) -> tuple[int, int]:
    """j/den + j2/den2 on ints, both denominators powers of p."""
    if den2 > den:
        return j * (den2 // den) + j2, den2
    return j + j2 * (den // den2), den


def _psi(field: LocalField, a, x) -> tuple[int, int]:
    """(j, den) of psi(a x) for elements a and x."""
    angle = field.psi_angle(field.mul(a, x))
    return angle.numerator, angle.denominator


def _canonical_ball(field: LocalField, q: int, lo: int, r: int, c: int, m: int):
    """(j, den, entry): the canonical ball of radius r from a centre code c
    and a modulation code m at origin lo, m with its digits below
    1 - min(r, lo), and the angle j/den of the discarded modulation digits
    times the centre (module docstring); q is the field's."""
    c = c % q ** (r - lo) if r > lo else 0
    w = 1 - r - lo
    if w > 0:
        d, m = divmod(m, q**w)
        e = 1 - r
    else:
        d, m, e = m, 0, lo
    j, den = field.code_angle(d, c, e + lo) if d and c else (0, 1)
    return j, den, (BALL, r, c, m)


def _entry(field: LocalField, lo: int, a, fac) -> tuple:
    """(j, den, entry): the canonical entry at origin lo of the factor
    ``fac`` modulated by the element a, and the angle it adds."""
    if isinstance(fac, BallF):
        r = fac.r
        c = _encode(field, fac.center, lo, r)
        m = _encode(field, a, lo, 1 - min(r, lo))
        return _canonical_ball(field, field.q, lo, r, c, m)
    if isinstance(fac, DeltaF):
        # the character is a constant on a point mass: absorb it
        j, den = (0, 1) if field.is_zero(a) else _psi(field, a, fac.point)
        return j, den, (POINT, fac.point)
    return 0, 1, (LINE, a)


def _angle_with(field: LocalField, lo: int, m: int, x) -> tuple[int, int]:
    """(j, den) of psi(a x), a the element of the modulation code m at lo
    and x an element."""
    if not m or field.is_zero(x):
        return 0, 1
    e = field.ord(x)
    return field.code_angle(m, _encode(field, x, e, 1 - lo), lo + e)


def _meet_prep(field: LocalField, lo: int, entry, lev: int):
    """What ``_meet`` reads of an entry for cells of level lev: a point's
    code cut at lev, a line modulation's code, or None for a ball."""
    kind = entry[0]
    if kind == POINT:
        return _encode(field, entry[1], lo, lev)
    if kind == LINE:
        return _encode(field, entry[1], lo, 1 - min(lev, lo))
    return None


def _meet(field: LocalField, q: int, lo: int, entry, pre, z: int, lev: int):
    """(j, den, entry') of the canonical entry times the indicator of
    B_lev(z), z the cell's code at lo and pre what ``_meet_prep`` read;
    None when they are disjoint."""
    kind = entry[0]
    if kind == BALL:
        _, r, c, m = entry
        if r >= lev:
            return (0, 1, entry) if (c % q ** (lev - lo) if lev > lo else 0) == z else None
        if (z % q ** (r - lo) if r > lo else 0) != c:
            return None
        return _canonical_ball(field, q, lo, lev, z, m)
    if kind == POINT:
        return (0, 1, entry) if pre == z else None
    return _canonical_ball(field, q, lo, lev, z, pre)


def _mass(entry):
    """e2 with the integral of the canonical entry equal to q^(e2/2), or
    None when it is 0: psi(a x) runs over full character sums on a ball
    whose cut modulation is not 0."""
    kind = entry[0]
    if kind == BALL:
        return None if entry[3] else -2 * entry[1]
    if kind == POINT:
        return 0
    raise NonCompactSupport("the line has infinite mass")


def _contains(field: LocalField, lo: int, entry, x) -> bool:
    """Does the support of the entry contain the element x?"""
    kind = entry[0]
    if kind == BALL:
        return _encode(field, x, lo, entry[1]) == entry[2]
    if kind == POINT:
        return field.is_zero(field.sub(x, entry[1]))
    return True


def _fourier(field: LocalField, lo: int, entry) -> tuple:
    """(e2, j, den, entry'): the transform of the canonical entry, with the
    coefficient gaining q^(e2/2) psi(j/den).  A modulated ball goes to a
    modulated ball of reciprocal radius, a modulated constant to a point
    mass at minus the modulation, and a point mass to a modulated constant."""
    kind = entry[0]
    if kind == BALL:
        _, r, c, m = entry
        j, den = field.code_angle(c, m, 2 * lo) if c and m else (0, 1)
        return -2 * r, j, den, (BALL, 1 - r, field.residue_neg(m, 1 - r - lo), c)
    if kind == LINE:
        return -2, 0, 1, (POINT, field.neg(entry[1]))
    return 0, 0, 1, (LINE, entry[1])


def _transport_plan(field: LocalField, lo: int, entries, s, s_inv, b) -> tuple:
    """(lo2, plan) for ``_transport`` of one coordinate at origin lo by
    x -> s x + b, s_inv = 1/s: lo2 the new origin, and the codes of the unit
    part of s, of 1/s and of b, taken as far as the ball entries read them."""
    v = field.ord(s)
    lo2 = min(lo + v, lo - v)
    if not field.is_zero(b):
        lo2 = min(lo2, field.ord(b))
    radii = [x[1] for x in entries if x[0] == BALL]
    if not radii:
        return lo2, (s, s_inv, b, v, None, None, None)
    top, low = max(radii), min(radii) + v
    unit = field.ac(s, max(top - lo, 1))
    unit_inv = field.ac(s_inv, max(1 - min(low, lo2) - lo + v, 1))
    shift = _encode(field, b, lo2, max(top + v, 1 - lo + v))
    return lo2, (s, s_inv, b, v, unit, unit_inv, shift)


def _transport(field: LocalField, lo: int, lo2: int, plan, entry) -> tuple:
    """(e2, j, den, entry'): the canonical entry at origin lo pushed by the
    plan's x -> s x + b to origin lo2, with its modulation a going to
    A = a / s and the coefficient gaining q^(e2/2) psi(-A b)."""
    s, s_inv, b, v, unit, unit_inv, shift = plan
    kind = entry[0]
    if kind == POINT:
        return 0, 0, 1, (POINT, field.add(field.mul(s, entry[1]), b))
    if kind == LINE:
        a = field.mul(entry[1], s_inv)
        j, den = _psi(field, a, b)
        return 2 * v, -j, den, (LINE, a)
    q = field.q
    _, r, c, m = entry
    r2 = r + v
    centre = 0
    if r2 > lo2:
        if c:
            centre = field.residue_mul(c, unit, r - lo) * q ** (lo + v - lo2)
        centre = field.residue_add(centre, shift % q ** (r2 - lo2), r2 - lo2)
    j0, d0 = 0, 1
    if m:
        m = field.residue_mul(m, unit_inv, 1 - min(r2, lo2) - lo + v)
        j0, d0 = field.code_angle(m, shift, lo - v + lo2)
        m *= q ** (lo - v - lo2)
    j, den, out = _canonical_ball(field, q, lo2, r2, centre, m)
    j, den = _add_angle(j, den, -j0, d0)
    return 2 * v, j, den, out


def _fineness(entry) -> float:
    """Order of the convolution rule: point mass, then balls by radius, then line."""
    kind = entry[0]
    if kind == BALL:
        return entry[1]
    return INF if kind == POINT else -INF


def _convolved(field: LocalField, lo: int, x, y):
    """(e2, j, den, entry): the convolution of two canonical entries at
    origin lo, or None when it is 0.  The finer entry contributes its mass
    against the difference of the modulations, and the other entry moves to
    its location."""
    if _fineness(y) > _fineness(x):
        x, y = y, x
    if x[0] == LINE:
        raise ConvolutionDivergence("both operands have infinite mass in a coordinate")
    if x[0] == POINT:
        at = x[1]
        e2 = 0
        if y[0] == BALL:
            j, den = _angle_with(field, lo, y[3], at)
        else:
            j, den = (0, 1) if y[0] == POINT else _psi(field, y[1], at)
        j = -j
        at_code = None
    else:
        _, r, c, m = x
        w = max(1 - min(r, lo) - lo, 0)
        b = y[3] if y[0] == BALL else _encode(field, y[1], lo, 1 - min(r, lo))
        diff = field.residue_add(m, field.residue_neg(b, w), w)
        j, den, met = _canonical_ball(field, field.q, lo, r, c, diff)
        if met[3]:
            return None
        e2, at_code = -2 * r, c
    if y[0] == BALL:
        _, r, c, m = y
        if r > lo:
            move = at_code if at_code is not None else _encode(field, at, lo, r)
            c = field.residue_add(c, move % field.q ** (r - lo), r - lo)
        return e2, j, den, (BALL, r, c, m)
    if y[0] == POINT:
        return e2, j, den, (POINT, field.add(y[1], at))
    return e2, j, den, y


def _build(field: LocalField, n: int, lo, items) -> "MixedCellDistribution":
    """The distribution of coded items (coef, other, e2, j, den, key): the
    term coef * other * q^(e2/2) * exp(2 pi i j/den) on the canonical key,
    other None for 1.  The items of one key are canonicalised once, as
    integer raw terms; a lone item with no q-power or angle keeps its
    scalar.  Keys come in order of their first item with a nonzero coef."""
    merged: dict = {}
    for item in items:
        if not item[0].is_zero():
            # one hash per item: a key holding Fractions hashes slowly
            merged.setdefault(item[5], []).append(item)
    p = field.p
    coded = []
    for key, its in merged.items():
        if len(its) == 1 and not its[0][2] and not its[0][3]:
            coef, other = its[0][:2]
            val = coef if other is None else coef * other
        else:
            raw = []
            for coef, other, e2, j, den, _ in its:
                raw += coef.raw(e2, j, den) if other is None else coef.raw_times(other, e2, j, den)
            val = CycloScalar(p, raw)
        if not val.is_zero():
            coded.append((val, key))
    obj = object.__new__(MixedCellDistribution)
    obj.field, obj.n, obj._lo, obj._coded, obj._terms = field, n, tuple(lo), tuple(coded), None
    return obj


def _checked(field: LocalField, n: int, coef, mod, factors) -> tuple:
    """A raw term with its scalar coerced and its elements checked."""
    if len(mod) != n or len(factors) != n:
        raise FieldError("term has wrong dimension")
    for f in factors:
        if not isinstance(f, (BallF, DeltaF, FullF)):
            raise FieldError(f"unknown factor {f!r}")
    coef = coerce_scalar(field.p, coef)
    mod = tuple(_element(field, a, f"modulation of coordinate {i}") for i, a in enumerate(mod))
    fs = []
    for i, f in enumerate(factors):
        if isinstance(f, BallF):
            f = BallF(_element(field, f.center, f"ball centre in coordinate {i}"), f.r)
        elif isinstance(f, DeltaF):
            f = DeltaF(_element(field, f.point, f"point mass in coordinate {i}"))
        fs.append(f)
    return coef, mod, tuple(fs)


class MixedCellDistribution:
    """Finite sum of modulated mixed cells on K^n."""

    # _lo: the origin of each coordinate; _coded: the terms as (coef, key),
    # in order; _terms: the element view, or None until it is first read
    __slots__ = ("field", "n", "_lo", "_coded", "_terms")

    def __init__(self, field: LocalField, n: int, raw_terms):
        """raw_terms: iterable of (coef, mod_vector, factor_tuple), with
        field elements (ints are lifted) and ``BallF``/``FullF``/``DeltaF``
        factors."""
        if n < 1:
            raise FieldError("dimension must be at least 1")
        terms = [_checked(field, n, coef, mod, fs) for coef, mod, fs in raw_terms]
        lo = []
        for i in range(n):
            ords = [
                field.ord(x)
                for _, mod, fs in terms
                if isinstance(fs[i], BallF)
                for x in (fs[i].center, mod[i])
                if not field.is_zero(x)
            ]
            lo.append(min(ords, default=0))
        items = []
        for coef, mod, fs in terms:
            j, den, key = 0, 1, []
            for a, f, e in zip(mod, fs, lo):
                j2, den2, entry = _entry(field, e, a, f)
                if j2:
                    j, den = _add_angle(j, den, j2, den2)
                key.append(entry)
            items.append((coef, None, 0, j, den, tuple(key)))
        got = _build(field, n, lo, items)
        self.field, self.n, self._lo, self._coded, self._terms = field, n, got._lo, got._coded, None

    @property
    def terms(self) -> tuple:
        """The terms as (coef, mod, factors): element modulations and
        ``BallF``/``FullF``/``DeltaF`` factors, decoded from the codes when
        first read (read-only)."""
        if self._terms is None:
            field = self.field
            lift, zero = field.residue_lift, field.zero()
            out = []
            for coef, key in self._coded:
                mod, fs = [], []
                for x, e in zip(key, self._lo):
                    if x[0] == BALL:
                        mod.append(lift(x[3], e))
                        fs.append(BallF(lift(x[2], e), x[1]))
                    elif x[0] == POINT:
                        mod.append(zero)
                        fs.append(DeltaF(x[1]))
                    else:
                        mod.append(x[1])
                        fs.append(FULL)
                out.append((coef, tuple(mod), tuple(fs)))
            self._terms = tuple(out)
        return self._terms

    def _rebased(self, lo) -> tuple:
        """The coded terms at the origins lo, each at or below this
        distribution's own."""
        if tuple(lo) == self._lo:
            return self._coded
        q = self.field.q
        mult = [q ** (a - b) for a, b in zip(self._lo, lo)]
        return tuple(
            (
                coef,
                tuple(
                    (BALL, x[1], x[2] * k, x[3] * k) if x[0] == BALL else x
                    for x, k in zip(key, mult)
                ),
            )
            for coef, key in self._coded
        )

    def _origins_below(self, i: int, kinds) -> int:
        """The least ord of the elements of the given kinds of entry in
        coordinate i, or the origin of i if lower."""
        field = self.field
        return min(
            [self._lo[i]]
            + [
                field.ord(key[i][1])
                for _, key in self._coded
                if key[i][0] in kinds and not field.is_zero(key[i][1])
            ]
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: LocalField, n: int) -> "MixedCellDistribution":
        return cls(field, n, [])

    @classmethod
    def delta(cls, field: LocalField, point: Sequence) -> "MixedCellDistribution":
        point = tuple(point)
        n = len(point)
        zero_mod = (field.zero(),) * n
        factors = tuple(DeltaF(c) for c in point)
        return cls(field, n, [(CycloScalar.one(field.p), zero_mod, factors)])

    @classmethod
    def constant(cls, field: LocalField, n: int, coef=1) -> "MixedCellDistribution":
        zero_mod = (field.zero(),) * n
        return cls(field, n, [(coef, zero_mod, (FULL,) * n)])

    @classmethod
    def modulated_constant(cls, field, a: Sequence, coef=1) -> "MixedCellDistribution":
        a = tuple(a)
        return cls(field, len(a), [(coef, a, (FULL,) * len(a))])

    @classmethod
    def from_sb(cls, phi: SchwartzBruhat) -> "MixedCellDistribution":
        """The cells of phi as unmodulated balls, on phi's codes."""
        lo, cells = phi._coded()
        items = [
            (coef, None, 0, 0, 1, tuple((BALL, r, c, 0) for c, r in zip(key, phi.levels)))
            for key, coef in cells.items()
        ]
        return _build(phi.field, phi.n, lo, items)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coded

    def is_density(self) -> bool:
        """No point-mass factors: the distribution is a locally constant function."""
        return all(x[0] != POINT for _, key in self._coded for x in key)

    def is_compact(self) -> bool:
        return all(x[0] != LINE for _, key in self._coded for x in key)

    def __add__(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        if self.field != other.field or self.n != other.n:
            raise FieldError("operands live on different spaces")
        lo = tuple(map(min, self._lo, other._lo))
        items = [
            (coef, None, 0, 0, 1, key)
            for coef, key in self._rebased(lo) + other._rebased(lo)
        ]
        return _build(self.field, self.n, lo, items)

    def scale(self, value) -> "MixedCellDistribution":
        c = coerce_scalar(self.field.p, value)
        items = [(coef, c, 0, 0, 1, key) for coef, key in self._coded]
        return _build(self.field, self.n, self._lo, items)

    def __neg__(self) -> "MixedCellDistribution":
        return self.scale(-1)

    def __sub__(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        return self + other.scale(-1)

    def _moved(self, rows) -> "MixedCellDistribution":
        """Every coordinate i transported by its row (s, 1/s, b), x -> s x + b
        (``_transport``), the Jacobian factors left out."""
        field = self.field
        plans = [
            _transport_plan(field, e, [key[i] for _, key in self._coded], *row)
            for i, (e, row) in enumerate(zip(self._lo, rows))
        ]
        items = []
        for coef, key in self._coded:
            j, den, out = 0, 1, []
            for x, e, (lo2, plan) in zip(key, self._lo, plans):
                _, j2, den2, y = _transport(field, e, lo2, plan, x)
                if j2:
                    j, den = _add_angle(j, den, j2, den2)
                out.append(y)
            items.append((coef, None, 0, j, den, tuple(out)))
        return _build(field, self.n, [lo2 for lo2, _ in plans], items)

    def reflect(self) -> "MixedCellDistribution":
        """Pullback along x -> -x."""
        field = self.field
        minus_one = field.neg(field.one())
        return self._moved([(minus_one, minus_one, field.zero())] * self.n)

    def translate(self, v: Sequence) -> "MixedCellDistribution":
        """Shift support by +v (pullback along x -> x - v); psi(<a, x>)
        composed with x -> x - v picks up psi(-<a, v>)."""
        field = self.field
        one = field.one()
        v = [_element(field, w, f"shift of coordinate {i}") for i, w in enumerate(_coords(self.n, v))]
        return self._moved([(one, one, w) for w in v])

    # -- pairing ----------------------------------------------------------------

    def _met(self, phi: SchwartzBruhat) -> tuple:
        """(origins, items): the items (coef, cphi, 0, j, den, key) of the
        product with the cell function phi, per term and then per cell of
        phi, for each pair that meets (``_meet``), on common origins."""
        field = self.field
        lo = tuple(
            min(a, b, self._origins_below(i, (LINE,)))
            for i, (a, b) in enumerate(zip(self._lo, phi._coded()[0]))
        )
        cells = phi._rebased(lo)
        levels, q = phi.levels, field.q
        items = []
        for coef, key in self._rebased(lo):
            pre = [_meet_prep(field, e, x, lev) for x, e, lev in zip(key, lo, levels)]
            for zs, cphi in cells.items():
                j, den, out = 0, 1, []
                for x, got, z, e, lev in zip(key, pre, zs, lo, levels):
                    got = _meet(field, q, e, x, got, z, lev)
                    if got is None:
                        break
                    if got[0]:
                        j, den = _add_angle(j, den, got[0], got[1])
                    out.append(got[2])
                else:
                    items.append((coef, cphi, 0, j, den, tuple(out)))
        return lo, items

    def evaluate(self, phi: SchwartzBruhat) -> CycloScalar:
        """Exact pairing with a cell function: the mass of each term met
        with each cell, summed as raw terms and canonicalised once."""
        if phi.field != self.field or phi.n != self.n:
            raise FieldError("test function lives on a different space")
        raw = []
        for coef, cphi, _, j, den, key in self._met(phi)[1]:
            e2 = 0
            for x in key:
                got = _mass(x)
                if got is None:
                    break
                e2 += got
            else:
                raw += coef.raw_times(cphi, e2, j, den)
        return CycloScalar(self.field.p, raw)

    def pointwise_eval(self, xs: Sequence) -> CycloScalar:
        """Value at a point; only densities have one."""
        if not self.is_density():
            raise FieldError("pointwise values need a density")
        field = self.field
        xs = _coords(self.n, xs)
        raw = []
        for coef, key in self._coded:
            if all(_contains(field, e, x, v) for x, e, v in zip(key, self._lo, xs)):
                j, den = 0, 1
                for x, e, v in zip(key, self._lo, xs):
                    if x[0] == BALL:
                        j2, den2 = _angle_with(field, e, x[3], v)
                    else:
                        j2, den2 = _psi(field, x[1], v)
                    j, den = _add_angle(j, den, j2, den2)
                raw += coef.raw(0, j, den)
        return CycloScalar(field.p, raw)

    def b_function(self, xs: Sequence, r: int) -> CycloScalar:
        """Pairing against the indicator of the radius-r polyball at xs."""
        ball = Polyball.ball(self.field, tuple(xs), r)
        return self.evaluate(SchwartzBruhat.indicator(ball))

    def wavelet(self, xs: Sequence, r: int) -> CycloScalar:
        """Volume-normalized ball pairing q^(r n) <u, 1_{B_r(xs)}>."""
        return self.b_function(xs, r).q_shift(2 * r * self.n)

    # -- calculus ------------------------------------------------------------------

    def fourier_dist(self) -> "MixedCellDistribution":
        """Additive-character transform, term by term (``_fourier`` per entry)."""
        field = self.field
        items = []
        for coef, key in self._coded:
            e2, j, den, out = 0, 0, 1, []
            for x, e in zip(key, self._lo):
                de2, j2, den2, y = _fourier(field, e, x)
                e2 += de2
                if j2:
                    j, den = _add_angle(j, den, j2, den2)
                out.append(y)
            items.append((coef, None, e2, j, den, tuple(out)))
        return _build(field, self.n, self._lo, items)

    def mul_by_sb(self, phi: SchwartzBruhat) -> "MixedCellDistribution":
        """Localize by a cell function (exact product), on phi's codes."""
        if phi.field != self.field or phi.n != self.n:
            raise FieldError("cell function lives on a different space")
        lo, items = self._met(phi)
        return _build(self.field, self.n, lo, items)

    def convolve_dist(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        """Exact convolution; diverges only for constant*constant coordinates
        (``_convolved`` per coordinate)."""
        if self.field != other.field or self.n != other.n:
            raise FieldError("operands live on different spaces")
        field = self.field
        lo = tuple(
            min(u._origins_below(i, (POINT, LINE)) for u in (self, other))
            for i in range(self.n)
        )
        mine, theirs = self._rebased(lo), other._rebased(lo)
        items = []
        for coef1, key1 in mine:
            for coef2, key2 in theirs:
                e2, j, den, out = 0, 0, 1, []
                for x, y, e in zip(key1, key2, lo):
                    got = _convolved(field, e, x, y)
                    if got is None:
                        break
                    e2 += got[0]
                    if got[1]:
                        j, den = _add_angle(j, den, got[1], got[2])
                    out.append(got[3])
                else:
                    items.append((coef1, coef2, e2, j, den, tuple(out)))
        return _build(field, self.n, lo, items)

    def tensor(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        if self.field != other.field:
            raise FieldError("operands live over different fields")
        items = [
            (coef1, coef2, 0, 0, 1, key1 + key2)
            for coef1, key1 in self._coded
            for coef2, key2 in other._coded
        ]
        return _build(self.field, self.n + other.n, self._lo + other._lo, items)

    # -- support data ---------------------------------------------------------------

    def singular_points(self) -> set:
        """Exact point set for purely atomic distributions."""
        if not all(x[0] == POINT for _, key in self._coded for x in key):
            raise FieldError("singular point set needs a purely atomic distribution")
        return {tuple(x[1] for x in key) for _, key in self._coded}

    def paley_wiener(self) -> "MixedCellDistribution":
        """Transform of a compactly supported distribution, as a function.

        The result carries no point masses, so pointwise_eval is available.
        """
        if not self.is_compact():
            raise NonCompactSupport(
                "the transform is a function only for compact support"
            )
        return self.fourier_dist()

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        field = self.field
        terms = [
            {
                "coef": coef.to_json(),
                "mod": [field.element_to_json(a) for a in mod],
                "factors": [f.to_json(field) for f in fs],
            }
            for coef, mod, fs in self.terms
        ]
        return {"field": field.to_json(), "n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, field: LocalField, obj: dict) -> "MixedCellDistribution":
        raw = []
        for t in obj["terms"]:
            coef = CycloScalar.from_json(field.p, t["coef"])
            mod = tuple(field.element_from_json(a) for a in t["mod"])
            factors = []
            for f in t["factors"]:
                if f["type"] == "ball":
                    factors.append(
                        BallF(field.element_from_json(f["center"]), int(f["radius"]))
                    )
                elif f["type"] == "delta":
                    factors.append(DeltaF(field.element_from_json(f["point"])))
                elif f["type"] == "full":
                    factors.append(FULL)
                else:
                    raise FieldError(f"unknown factor type {f['type']!r}")
            raw.append((coef, mod, tuple(factors)))
        return cls(field, int(obj["n"]), raw)

    def __repr__(self) -> str:
        return (
            f"MixedCellDistribution({self.field!r}, n={self.n}, "
            f"terms={len(self._coded)})"
        )


class SeriesDistribution:
    """Lazily summed series of mixed-cell terms with exact finite pairings.

    ``term_fn(k)`` returns the k-th summand; ``active_fn(phi)`` returns the
    finite set of indices that can pair nonzero with the cell function phi.
    Pairings are therefore finite sums of exact pairings.
    """

    __slots__ = ("field", "n", "term_fn", "active_fn")

    def __init__(self, field: LocalField, n: int, term_fn, active_fn):
        self.field = field
        self.n = n
        self.term_fn = term_fn
        self.active_fn = active_fn

    def evaluate(self, phi: SchwartzBruhat) -> CycloScalar:
        return CycloScalar.sum(
            self.field.p, [self.term_fn(k).evaluate(phi) for k in self.active_fn(phi)]
        )

    def b_function(self, xs: Sequence, r: int) -> CycloScalar:
        ball = Polyball.ball(self.field, tuple(xs), r)
        return self.evaluate(SchwartzBruhat.indicator(ball))

    def partial_sum(self, count: int) -> MixedCellDistribution:
        out = MixedCellDistribution.zero(self.field, self.n)
        for k in range(count):
            out = out + self.term_fn(k)
        return out


class BFunctionView:
    """A distribution presented through its ball function.

    ``fn(xs, r)`` must return the pairing of the underlying distribution
    with the indicator of the radius-r polyball at xs; it therefore has to
    depend only on the ball (not on the chosen center) and be additive
    across a partition of the ball into cosets.  ``additivity_check``
    verifies the latter for a concrete ball; ``evaluate`` extends the view
    to arbitrary cell functions by refining them to a single level and
    summing the per-cell ball values.
    """

    __slots__ = ("field", "n", "fn", "label")

    def __init__(self, field: LocalField, n: int, fn, label: str = ""):
        self.field = field
        self.n = int(n)
        self.fn = fn
        self.label = label

    def b_function(self, xs: Sequence, r: int) -> CycloScalar:
        return coerce_scalar(self.field.p, self.fn(_coords(self.n, xs), int(r)))

    def wavelet(self, xs: Sequence, r: int) -> CycloScalar:
        """Volume-normalized ball pairing q^(r n) <u, 1_{B_r(xs)}>."""
        return self.b_function(xs, r).q_shift(2 * int(r) * self.n)

    def evaluate(self, phi: SchwartzBruhat) -> CycloScalar:
        """Pair with a cell function cell by cell at its finest level."""
        if phi.field != self.field or phi.n != self.n:
            raise FieldError("test function lives on a different space")
        p = self.field.p
        if not phi.cells:
            return CycloScalar.zero(p)
        level = max(phi.levels)
        flat = phi.refine(level)
        return CycloScalar.sum(
            p,
            [
                coerce_scalar(p, coef) * self.fn(center, level)
                for center, coef in flat.cells.items()
            ],
        )

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<ball-function view{tag} on {self.field!r}^{self.n}>"


def additivity_check(u, ball: Polyball) -> bool:
    """Does the ball function split across the coset partition of the ball?

    Compares the value on the ball with the sum of the values on its
    q^n immediate subcells, read at the centre tuples of
    ``Polyball.child_centers`` (no child ``Polyball`` is built).  ``u`` is
    anything with a ``b_function`` method; the ball must have equal radii
    in all coordinates so that the subcells are again polyballs of a
    single radius.
    """
    radii = set(ball.radii)
    if len(radii) != 1:
        raise FieldError("additivity check needs a ball with uniform radii")
    r = radii.pop()
    parent = u.b_function(ball.centers, r)
    total = CycloScalar.sum(
        ball.field.p, [u.b_function(cs, r + 1) for cs in ball.child_centers()]
    )
    return parent == total

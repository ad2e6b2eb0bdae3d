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
coefficient; ball coordinates truncate the modulation to the conductor of the
ball; terms with identical factor/modulation data merge.  Zero tests on the
scalars make the merge exact, so e.g. a point mass minus itself is the empty
sum.

The rules of each kind of factor live on its class (``BallF``, ``FullF``,
``DeltaF``); the methods here and in ``microlocal.maps`` combine them
coordinate by coordinate, with ``a`` the coordinate's modulation:

* ``canonical(field, a)`` and ``fourier(field, a)`` return a part
  ``(e2, angle, a', factor')``: the term's coefficient gains
  q^(e2/2) psi(angle) and the coordinate becomes ``(a', factor')``.
* ``push(field, s, b)`` returns ``(factor', e2)``: factor' is the image under
  x -> s x + b, and q^(e2/2) the Jacobian factor of that image, e2 = 2 ord(s)
  for a density (dx goes to |s|^-1 dy) and 0 for a point mass.  A pullback
  along the map pushes along its inverse and multiplies by |s|^-1.
* ``meet(field, z, lev)`` is the product with the indicator of B_lev(z), or
  None when it is zero.
* ``mass(field, a)`` is ``(e2, angle)`` with integral of psi(a x) against the
  factor equal to q^(e2/2) psi(angle), or None when that integral is 0; the
  line has no finite mass.
* ``contains(field, x)`` tests x against the support; ``to_json`` writes the
  factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cyclo import CycloScalar
from .fields import INF, FieldError, LocalField, Polyball, ball_intersect_1d, vec_neg
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

    def contains(self, field, x) -> bool:
        return field.ord(field.sub(x, self.center)) >= self.r

    def canonical(self, field, a):
        """Centre truncated to the radius, modulation to the conductor 1 - r;
        the discarded digits of a are constant on the ball.  A canonical
        centre or modulation comes back as it is, with angle 0: its
        discarded digits are empty."""
        z = field.canon_trunc(self.center, self.r)
        ball = self if z == self.center else BallF(z, self.r)
        a2 = field.canon_trunc(a, 1 - self.r)
        if a2 == a:
            return 0, 0, a, ball
        return 0, field.psi_angle(field.mul(field.sub(a, a2), z)), a2, ball

    def push(self, field, s, b):
        center = field.add(field.mul(s, self.center), b)
        return BallF(center, self.r + field.ord(s)), 2 * field.ord(s)

    def meet(self, field, z, lev):
        got = ball_intersect_1d(field, z, lev, self.center, self.r)
        return None if got is None else BallF(*got)

    def mass(self, field, a):
        if not field.is_zero(a) and field.ord(a) < 1 - self.r:
            return None  # psi(a x) runs over full character sums on the ball
        return -2 * self.r, field.psi_angle(field.mul(a, self.center))

    def fourier(self, field, a):
        """A modulated ball goes to a modulated ball of reciprocal radius."""
        angle = field.psi_angle(field.mul(self.center, a))
        return -2 * self.r, angle, self.center, BallF(field.neg(a), 1 - self.r)

    def to_json(self, field) -> dict:
        return {
            "type": "ball",
            "center": field.element_to_json(self.center),
            "radius": self.r,
        }


@dataclass(frozen=True, slots=True)
class FullF:
    """Constant density 1 on the whole coordinate line."""

    def contains(self, field, x) -> bool:
        return True

    def canonical(self, field, a):
        return 0, 0, a, self

    def push(self, field, s, b):
        return self, 2 * field.ord(s)

    def meet(self, field, z, lev):
        return BallF(z, lev)

    def mass(self, field, a):
        raise NonCompactSupport("the line has infinite mass")

    def fourier(self, field, a):
        """A modulated constant goes to a point mass at minus the modulation."""
        return -2, 0, field.zero(), DeltaF(field.neg(a))

    def to_json(self, field) -> dict:
        return {"type": "full"}


@dataclass(frozen=True, slots=True)
class DeltaF:
    """Unit point mass at a fixed coordinate value."""

    point: object

    def contains(self, field, x) -> bool:
        return field.is_zero(field.sub(x, self.point))

    def canonical(self, field, a):
        """The character is a constant on a point mass: absorb it.  A zero
        modulation gives angle 0: its absorbed digits are empty."""
        if field.is_zero(a):
            return 0, 0, a, self
        return 0, field.psi_angle(field.mul(a, self.point)), field.zero(), self

    def push(self, field, s, b):
        return DeltaF(field.add(field.mul(s, self.point), b)), 0

    def meet(self, field, z, lev):
        return None if field.ord(field.sub(self.point, z)) < lev else self

    def mass(self, field, a):
        return 0, field.psi_angle(field.mul(a, self.point))

    def fourier(self, field, a):
        """A point mass goes to a modulated constant."""
        return 0, 0, self.point, FULL

    def to_json(self, field) -> dict:
        return {"type": "delta", "point": field.element_to_json(self.point)}


FULL = FullF()


class MixedCellDistribution:
    """Finite sum of modulated mixed cells on K^n."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: LocalField, n: int, raw_terms):
        """raw_terms: iterable of (coef, mod_vector, factor_tuple)."""
        if n < 1:
            raise FieldError("dimension must be at least 1")
        self.field = field
        self.n = n
        merged: dict = {}
        for coef, mod, factors in raw_terms:
            coef, mod, factors = self._canonical_term(field, n, coef, mod, factors)
            if not coef.is_zero():
                merged.setdefault((mod, factors), []).append(coef)
        terms = []
        for (mod, factors), coefs in merged.items():
            coef = coefs[0] if len(coefs) == 1 else CycloScalar.sum(field.p, coefs)
            if not coef.is_zero():
                terms.append((coef, mod, factors))
        self.terms = tuple(terms)

    @staticmethod
    def _canonical_term(field, n, coef, mod, factors):
        if len(mod) != n or len(factors) != n:
            raise FieldError("term has wrong dimension")
        for f in factors:
            if not isinstance(f, (BallF, DeltaF, FullF)):
                raise FieldError(f"unknown factor {f!r}")
        coef = coerce_scalar(field.p, coef)
        return _term(coef, [f.canonical(field, a) for a, f in zip(mod, factors)])

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
        field = phi.field
        zero_mod = (field.zero(),) * phi.n
        raw = [
            (
                coef,
                zero_mod,
                tuple(BallF(c, r) for c, r in zip(center, phi.levels)),
            )
            for center, coef in phi.cells.items()
        ]
        return cls(field, phi.n, raw)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_density(self) -> bool:
        """No point-mass factors: the distribution is a locally constant function."""
        return all(
            not isinstance(f, DeltaF) for _, _, fs in self.terms for f in fs
        )

    def is_compact(self) -> bool:
        return all(
            not isinstance(f, FullF) for _, _, fs in self.terms for f in fs
        )

    def __add__(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        if self.field != other.field or self.n != other.n:
            raise FieldError("operands live on different spaces")
        return MixedCellDistribution(
            self.field, self.n, list(self.terms) + list(other.terms)
        )

    def scale(self, value) -> "MixedCellDistribution":
        c = coerce_scalar(self.field.p, value)
        return MixedCellDistribution(
            self.field, self.n,
            [(coef * c, mod, fs) for coef, mod, fs in self.terms],
        )

    def __neg__(self) -> "MixedCellDistribution":
        return self.scale(-1)

    def __sub__(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        return self + other.scale(-1)

    def reflect(self) -> "MixedCellDistribution":
        """Pullback along x -> -x."""
        field = self.field
        minus_one, zero = field.neg(field.one()), field.zero()
        out = []
        for coef, mod, fs in self.terms:
            nfs = tuple(f.push(field, minus_one, zero)[0] for f in fs)
            out.append((coef, vec_neg(field, mod), nfs))
        return MixedCellDistribution(field, self.n, out)

    def translate(self, v: Sequence) -> "MixedCellDistribution":
        """Shift support by +v (pullback along x -> x - v)."""
        field = self.field
        v = _coords(self.n, v)
        one = field.one()
        out = []
        for coef, mod, fs in self.terms:
            nfs = tuple(f.push(field, one, w)[0] for f, w in zip(fs, v))
            # psi(<a, x>) composed with x -> x - v picks up psi(-<a, v>)
            pair = field.zero()
            for a, w in zip(mod, v):
                pair = field.add(pair, field.mul(a, w))
            rot = field.psi_angle(field.neg(pair))
            out.append((coef.rotate(rot), mod, nfs))
        return MixedCellDistribution(field, self.n, out)

    # -- pairing ----------------------------------------------------------------

    def evaluate(self, phi: SchwartzBruhat) -> CycloScalar:
        """Exact pairing with a cell function."""
        if phi.field != self.field or phi.n != self.n:
            raise FieldError("test function lives on a different space")
        field = self.field
        raw = []
        for coef, mod, fs in self.terms:
            for center, cphi in phi.cells.items():
                e2, angle = 0, 0
                for a, f, z, lev in zip(mod, fs, center, phi.levels):
                    g = f.meet(field, z, lev)
                    got = None if g is None else g.mass(field, a)
                    if got is None:
                        break
                    e2 += got[0]
                    angle += got[1]
                else:
                    raw += (coef * cphi).raw(e2, angle.numerator, angle.denominator)
        return CycloScalar(field.p, raw)

    def pointwise_eval(self, xs: Sequence) -> CycloScalar:
        """Value at a point; only densities have one."""
        if not self.is_density():
            raise FieldError("pointwise values need a density")
        field = self.field
        xs = _coords(self.n, xs)
        values = [
            coef * field.psi_pair(mod, xs)
            for coef, mod, fs in self.terms
            if all(f.contains(field, x) for x, f in zip(xs, fs))
        ]
        return CycloScalar.sum(field.p, values)

    def b_function(self, xs: Sequence, r: int) -> CycloScalar:
        """Pairing against the indicator of the radius-r polyball at xs."""
        ball = Polyball.ball(self.field, tuple(xs), r)
        return self.evaluate(SchwartzBruhat.indicator(ball))

    def wavelet(self, xs: Sequence, r: int) -> CycloScalar:
        """Volume-normalized ball pairing q^(r n) <u, 1_{B_r(xs)}>."""
        return self.b_function(xs, r).q_shift(2 * r * self.n)

    # -- calculus ------------------------------------------------------------------

    def fourier_dist(self) -> "MixedCellDistribution":
        """Additive-character transform, term by term (``fourier`` per factor)."""
        field = self.field
        out = [
            _term(coef, [f.fourier(field, a) for a, f in zip(mod, fs)])
            for coef, mod, fs in self.terms
        ]
        return MixedCellDistribution(field, self.n, out)

    def mul_by_sb(self, phi: SchwartzBruhat) -> "MixedCellDistribution":
        """Localize by a cell function (exact product)."""
        if phi.field != self.field or phi.n != self.n:
            raise FieldError("cell function lives on a different space")
        field = self.field
        out = []
        for coef, mod, fs in self.terms:
            for center, cphi in phi.cells.items():
                nfs = tuple(
                    f.meet(field, z, lev) for f, z, lev in zip(fs, center, phi.levels)
                )
                if None not in nfs:
                    out.append((coef * cphi, mod, nfs))
        return MixedCellDistribution(field, self.n, out)

    def convolve_dist(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        """Exact convolution; diverges only for constant*constant coordinates.

        Per coordinate the finer factor (a point mass, else the smaller ball)
        contributes its mass against the difference of the modulations, and
        the other factor moves to its location.
        """
        if self.field != other.field or self.n != other.n:
            raise FieldError("operands live on different spaces")
        field = self.field
        one = field.one()
        out = []
        for coef1, mod1, fs1 in self.terms:
            for coef2, mod2, fs2 in other.terms:
                parts = []
                for a, f, b, g in zip(mod1, fs1, mod2, fs2):
                    if _fineness(g) > _fineness(f):
                        f, g, a, b = g, f, b, a
                    if isinstance(f, FullF):
                        raise ConvolutionDivergence(
                            "both operands have infinite mass in a coordinate"
                        )
                    got = f.mass(field, field.sub(a, b))
                    if got is None:
                        break
                    at = f.point if isinstance(f, DeltaF) else f.center
                    parts.append((*got, b, g.push(field, one, at)[0]))
                else:
                    out.append(_term(coef1 * coef2, parts))
        return MixedCellDistribution(field, self.n, out)

    def tensor(self, other: "MixedCellDistribution") -> "MixedCellDistribution":
        if self.field != other.field:
            raise FieldError("operands live over different fields")
        out = []
        for coef1, mod1, fs1 in self.terms:
            for coef2, mod2, fs2 in other.terms:
                out.append((coef1 * coef2, mod1 + mod2, fs1 + fs2))
        return MixedCellDistribution(self.field, self.n + other.n, out)

    # -- support data ---------------------------------------------------------------

    def singular_points(self) -> set:
        """Exact point set for purely atomic distributions."""
        if not all(
            isinstance(f, DeltaF) for _, _, fs in self.terms for f in fs
        ):
            raise FieldError("singular point set needs a purely atomic distribution")
        return {tuple(f.point for f in fs) for _, _, fs in self.terms}

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
            f"terms={len(self.terms)})"
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


def _term(coef: CycloScalar, parts) -> tuple:
    """The term (coef', mod, factors) from per-coordinate parts
    (e2, angle, modulation, factor): coef' = coef q^(sum e2 / 2) psi(sum angle)."""
    e2s, angles, mod, fs = zip(*parts)
    e2 = sum(e2s)
    return (coef.q_shift(e2) if e2 else coef).rotate(sum(angles)), mod, fs


def _fineness(f) -> float:
    """Order of the convolution rule: point mass, then balls by radius, then line."""
    if isinstance(f, BallF):
        return f.r
    return INF if isinstance(f, DeltaF) else -INF


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

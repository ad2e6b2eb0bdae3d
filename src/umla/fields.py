"""Local fields of the two classical kinds: Q_p and F_p((t)), with exact elements.

Elements of Q_p are plain `Fraction`s (every rational embeds, and every value
produced by the operations here stays rational).  Elements of F_p((t)) are
`LaurentPoly` instances: finite Laurent polynomials over Z/p, which is the
exact fragment all operations below stay inside.

Reads of a Q_p element work on ints.  ``ord``, ``ac``, ``canon_trunc``,
``psi_angle`` and ``unit_inverse_mod`` write a = p^v * num/den with p dividing
neither num nor den (``PAdicField._split``), and then take at most one modular
inverse mod a power of p; they divide or raise no `Fraction`.

Conventions (shared by everything downstream):
  * ord is the normalized valuation, ord(uniformizer) = 1, ord(0) = +inf;
  * |x| = q^(-ord x) with q = p the residue cardinality;
  * the ball B_r(c) is {x : ord(x - c) >= r}, "valuative radius" r, so larger
    r means a smaller ball and vol(B_r) = q^(-r);
  * the additive character psi is trivial on the maximal ideal and nontrivial
    on the ring of integers: psi(x) = e^(2 pi i frac(x/p)) on Q_p with frac the
    p-part fractional part, and psi(sum a_i t^i) = e^(2 pi i a_0 / p) on
    F_p((t)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Iterator, Optional, Sequence, Union

from .cyclo import CycloScalar

__all__ = [
    "INF",
    "FieldError",
    "FieldDivisionError",
    "LaurentPoly",
    "LocalField",
    "PAdicField",
    "LaurentField",
    "make_field",
    "field_from_json",
    "parse_field_spec",
    "Polyball",
]

INF = float("inf")


class FieldError(ValueError):
    """Bad element or operation for a local field."""


class FieldDivisionError(FieldError):
    """Division result is not representable exactly."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class LaurentPoly:
    """Finite Laurent polynomial over Z/p; immutable and hashable."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[tuple[int, int]] = ()):
        cleaned = {}
        for e, c in coeffs:
            c %= p
            if c:
                cleaned[int(e)] = (cleaned.get(int(e), 0) + c) % p
        object.__setattr__(self, "p", p)
        object.__setattr__(
            self, "coeffs", tuple(sorted((e, c) for e, c in cleaned.items() if c))
        )

    @classmethod
    def _trusted(cls, p: int, coeffs: tuple) -> "LaurentPoly":
        """From (exponent, digit) pairs already sorted by exponent, with
        every digit in [1, p) (internal fast path)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("LaurentPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def ord(self):
        return self.coeffs[0][0] if self.coeffs else INF

    def coeff(self, e: int) -> int:
        for ee, c in self.coeffs:
            if ee == e:
                return c
        return 0

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Merge the two sorted digit lists, adding the digits of a shared
        exponent mod p."""
        p, a, b = self.p, self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (ea, ca), (eb, cb) = a[i], b[j]
            if ea < eb:
                out.append(a[i])
                i += 1
            elif eb < ea:
                out.append(b[j])
                j += 1
            else:
                c = (ca + cb) % p
                if c:
                    out.append((ea, c))
                i += 1
                j += 1
        return LaurentPoly._trusted(p, tuple(out) + a[i:] + b[j:])

    def __neg__(self) -> "LaurentPoly":
        p = self.p
        return LaurentPoly._trusted(p, tuple((e, p - c) for e, c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        p = self.p
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                out[e] = (out.get(e, 0) + c1 * c2) % p
        return LaurentPoly._trusted(p, tuple(sorted(t for t in out.items() if t[1])))

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by t^e."""
        return LaurentPoly(self.p, [(ee + e, c) for ee, c in self.coeffs])

    def truncate(self, r: int) -> "LaurentPoly":
        """Drop all terms of exponent >= r."""
        if not self.coeffs or self.coeffs[-1][0] < r:
            return self
        return LaurentPoly._trusted(self.p, tuple(t for t in self.coeffs if t[0] < r))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return "+".join(
            (f"{c}" if e == 0 else f"{c}*t^{e}" if c != 1 else f"t^{e}")
            for e, c in self.coeffs
        )


Element = Union[Fraction, LaurentPoly]


class LocalField:
    """Base class; subclasses fix the element representation."""

    kind: str
    p: int

    @property
    def q(self) -> int:
        return self.p

    # -- element constructors -------------------------------------------

    def zero(self) -> Element:
        raise NotImplementedError

    def one(self) -> Element:
        return self.from_int(1)

    def from_int(self, n: int) -> Element:
        raise NotImplementedError

    def uniformizer(self) -> Element:
        raise NotImplementedError

    def pow_uniformizer(self, e: int) -> Element:
        raise NotImplementedError

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def invert(self, a) -> Element:
        raise NotImplementedError

    def power(self, a, e: int) -> Element:
        if e < 0:
            return self.power(self.invert(a), -e)
        out, base = self.one(), a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    # -- valuation, angular component, truncation -------------------------

    def ord(self, a):
        raise NotImplementedError

    def ac(self, a, m: int) -> int:
        """Angular component mod uniformizer^m, encoded as an int in [0, q^m).

        For Q_p the encoding is the integer residue; for F_p((t)) the residue
        polynomial c_0 + c_1 t + ... is encoded as sum c_i p^i.
        """
        raise NotImplementedError

    def canon_trunc(self, a, r: int) -> Element:
        """Canonical representative of a modulo uniformizer^r (digits below r)."""
        raise NotImplementedError

    # -- additive character ------------------------------------------------

    def psi_angle(self, a) -> Fraction:
        raise NotImplementedError

    def psi(self, a) -> CycloScalar:
        return CycloScalar.root(self.p, self.psi_angle(a))

    def psi_pair(self, xs: Sequence, ys: Sequence) -> CycloScalar:
        """psi of the standard pairing sum x_i y_i."""
        acc = self.zero()
        for x, y in zip(xs, ys, strict=True):
            acc = self.add(acc, self.mul(x, y))
        return self.psi(acc)

    # -- residue classes ----------------------------------------------------

    def unit_classes(self, m: int) -> list[int]:
        """Encodings of (O/uniformizer^m)^*, sorted: the codes in [1, p^m)
        prime to p."""
        return [a for a in range(1, self.p**m) if a % self.p]

    def residue_mul(self, a: int, b: int, m: int) -> int:
        raise NotImplementedError

    def residue_add(self, a: int, b: int, m: int) -> int:
        """The code of the sum of two encoded residues mod uniformizer^m."""
        raise NotImplementedError

    def residue_lift(self, a: int, e: int = 0) -> Element:
        """Canonical element sum_i a_i pi^(e + i), a_i the base-q digits of
        a >= 0; at e = 0 the element representing an encoded residue.  It
        decodes the cell codes of ``SchwartzBruhat`` (origin e), and
        :meth:`residue_code` is its inverse."""
        raise NotImplementedError

    def residue_code(self, a, e: int) -> Optional[int]:
        """The int that :meth:`residue_lift` decodes to a at e: sum_i a_i
        q^i, a_i the digit of a at pi^(e + i), for a canonical a (finitely
        many digits, as ``canon_trunc`` returns); None if a has a nonzero
        digit below e."""
        raise NotImplementedError

    def code_angle_steps(self, code: int, L: int) -> tuple[int, list[int]]:
        """(den, [j_d for d < L]): the angle of centre * pi^(1-r+d) is
        j_d / den, for a centre of residue code ``code`` at origin a,
        canonical at level r = a + L.  Over Q_p den = p^L and j_d = code p^d
        mod p^L; over F_p((t)) den = p and j_d is the digit L-1-d of the
        code."""
        raise NotImplementedError

    def unit_inverse_mod(self, a, m: int) -> Element:
        """Inverse of the unit a modulo uniformizer^m (exact representative)."""
        raise NotImplementedError

    # -- cells --------------------------------------------------------------

    def cell_reps(self, center, r: int, level: int) -> list[Element]:
        """Canonical centers of the level-`level` subcells of B_r(center).

        Child k is canon_trunc(c0 + k pi^r, level) for k = 0, 1, ...,
        q^(level - r) - 1, where c0 is the center cut at `level` and k pi^r
        means the element whose digits from r upward are the base-q digits
        of k.  So the list starts at c0's own child and is rotated: the
        digits of child k at [r, level) are c0's plus k's, and its digits
        below r are c0's.  Each child is built from one integer code, with
        no field operation:
          * over Q_p, write c0 = N / D with D a power of p and p^r D an
            integer, and N = low + high p^r D with 0 <= low < p^r D; child k
            is (low + ((high + k) mod p^(level - r)) p^r D) / D;
          * over F_p((t)), child k has digit (d_i + k_i) mod p at each i in
            [r, level), d_i the digit of c0 and k_i the (i - r)-th base-p
            digit of k.
        """
        if level < r:
            raise ValueError("refinement level must be at least the radius")
        return self._cell_children(self.canon_trunc(center, level), r, level)

    def _cell_children(self, c0, r: int, level: int) -> list[Element]:
        """The children of :meth:`cell_reps`, c0 canonical at `level`."""
        raise NotImplementedError

    def from_digit(self, d: int) -> Element:
        """Same as :meth:`from_int`; the library no longer calls it, but
        ``umlabench/workloads.py`` builds its inputs with it."""
        return self.from_int(d)

    # -- serialization -------------------------------------------------------

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, obj) -> Element:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LocalField)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"Q_{self.p}" if self.kind == "p-adic" else f"F_{self.p}((t))"


class PAdicField(LocalField):
    kind = "p-adic"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"residue cardinality {p} is not prime")
        self.p = p

    def zero(self) -> Fraction:
        return Fraction(0)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def uniformizer(self) -> Fraction:
        return Fraction(self.p)

    def pow_uniformizer(self, e: int) -> Fraction:
        return Fraction(self.p) ** e

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def invert(self, a: Fraction) -> Fraction:
        if a == 0:
            raise FieldDivisionError("division by zero")
        return 1 / a

    def ord(self, a: Fraction):
        if not a.numerator:
            return INF
        return self._split(a)[0]

    def _split(self, a: Fraction) -> tuple[int, int, int]:
        """(v, num, den) with a = p^v * num/den and p dividing neither; a != 0.
        The numerator and the denominator are stripped of p on ints."""
        p, num, den = self.p, a.numerator, a.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v, num, den

    def ac(self, a: Fraction, m: int) -> int:
        if not a.numerator:
            raise FieldError("ac of zero undefined")
        if m < 1:
            raise ValueError("ac level must be positive")
        _, num, den = self._split(a)
        mod = self.p**m
        return num * pow(den, -1, mod) % mod

    def canon_trunc(self, a: Fraction, r: int) -> Fraction:
        p, num = self.p, a.numerator
        if a.denominator == 1 and r >= 0:
            # an integer's digits below r are its residue mod p^r
            return Fraction(num % p**r)
        if not num:
            return Fraction(0)
        v, num, den = self._split(a)
        if v >= r:
            return Fraction(0)
        mod = p ** (r - v)
        w = num * pow(den, -1, mod) % mod
        return Fraction(w * p**v) if v >= 0 else Fraction(w, p**-v)

    def psi_angle(self, a: Fraction) -> Fraction:
        if not a.numerator:
            return Fraction(0)
        v, num, den = self._split(a)
        if v >= 1:
            return Fraction(0)
        # psi(a) = e(frac(a / p)), and a / p = p^(v - 1) num/den
        mod = self.p ** (1 - v)
        return Fraction(num * pow(den, -1, mod) % mod, mod)

    def residue_mul(self, a: int, b: int, m: int) -> int:
        return a * b % self.p**m

    def residue_add(self, a: int, b: int, m: int) -> int:
        return (a + b) % self.p**m

    def residue_lift(self, a: int, e: int = 0) -> Fraction:
        return Fraction(a * self.p**e) if e >= 0 else Fraction(a, self.p**-e)

    def residue_code(self, a: Fraction, e: int) -> Optional[int]:
        # a canonical a is num / den with num >= 0 and den a power of p
        num, den = a.numerator, a.denominator
        if e >= 0:
            pe = self.p**e
            return num // pe if den == 1 and num % pe == 0 else None
        pe = self.p**-e
        return num * (pe // den) if pe % den == 0 else None

    def code_angle_steps(self, code: int, L: int) -> tuple[int, list[int]]:
        den = self.p**L
        return den, [code * self.p**d % den for d in range(L)]

    def _cell_children(self, c0: Fraction, r: int, level: int) -> list[Fraction]:
        p, den = self.p, c0.denominator
        if r < 0 and den < p**-r:
            den = p**-r
        step = den * p**r if r >= 0 else den // p**-r
        high, low = divmod(c0.numerator * (den // c0.denominator), step)
        size = p ** (level - r)
        order = chain(range(high, size), range(high))
        if den == 1:
            return [Fraction(low + j * step) for j in order]
        return [Fraction(low + j * step, den) for j in order]

    def unit_inverse_mod(self, a: Fraction, m: int) -> Fraction:
        if not a.numerator or self._split(a)[0] != 0:
            raise FieldDivisionError("unit inversion needs a unit")
        if m < 1:
            raise ValueError("ac level must be positive")
        mod = self.p**m
        return Fraction(a.denominator * pow(a.numerator, -1, mod) % mod)

    def element_to_json(self, a: Fraction) -> str:
        return str(a)

    def element_from_json(self, obj) -> Fraction:
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            return Fraction(obj)
        raise FieldError(f"cannot read p-adic element from {obj!r}")


class LaurentField(LocalField):
    kind = "equal-characteristic"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"residue cardinality {p} is not prime")
        self.p = p

    def zero(self) -> LaurentPoly:
        return LaurentPoly(self.p)

    def from_int(self, n: int) -> LaurentPoly:
        return LaurentPoly(self.p, [(0, n)])

    def uniformizer(self) -> LaurentPoly:
        return LaurentPoly(self.p, [(1, 1)])

    def pow_uniformizer(self, e: int) -> LaurentPoly:
        return LaurentPoly(self.p, [(e, 1)])

    def is_zero(self, a: LaurentPoly) -> bool:
        return a.is_zero()

    def invert(self, a: LaurentPoly) -> LaurentPoly:
        if a.is_zero():
            raise FieldDivisionError("division by zero")
        if len(a.coeffs) != 1:
            raise FieldDivisionError(
                "only monomials are exactly invertible in the Laurent-polynomial fragment"
            )
        e, c = a.coeffs[0]
        return LaurentPoly(self.p, [(-e, pow(c, -1, self.p))])

    def ord(self, a: LaurentPoly):
        return a.ord()

    def ac(self, a: LaurentPoly, m: int) -> int:
        if a.is_zero():
            raise FieldError("ac of zero undefined")
        if m < 1:
            raise ValueError("ac level must be positive")
        v = a.ord()
        return sum(c * self.p ** (e - v) for e, c in a.coeffs if e - v < m)

    def canon_trunc(self, a: LaurentPoly, r: int) -> LaurentPoly:
        return a.truncate(r)

    def psi_angle(self, a: LaurentPoly) -> Fraction:
        return Fraction(a.coeff(0), self.p)

    def _decode(self, code: int, m: int) -> LaurentPoly:
        digits = []
        for i in range(m):
            digits.append((i, code % self.p))
            code //= self.p
        return LaurentPoly(self.p, digits)

    def residue_mul(self, a: int, b: int, m: int) -> int:
        prod = self._decode(a, m) * self._decode(b, m)
        return self.residue_code(prod.truncate(m), 0)

    def residue_add(self, a: int, b: int, m: int) -> int:
        # digit by digit mod p: no carry, so the sum stays below p^m
        p = self.p
        out, place = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * place
            place *= p
        return out

    def residue_code(self, a: LaurentPoly, e: int) -> Optional[int]:
        co = a.coeffs
        if co and co[0][0] < e:
            return None
        p = self.p
        return sum(c * p ** (x - e) for x, c in co)

    def residue_lift(self, a: int, e: int = 0) -> LaurentPoly:
        digits = []
        while a:
            a, d = divmod(a, self.p)
            if d:
                digits.append((e, d))
            e += 1
        return LaurentPoly._trusted(self.p, tuple(digits))

    def code_angle_steps(self, code: int, L: int) -> tuple[int, list[int]]:
        # only the digit at pi^-1 of centre * pi^(1-r+d) counts: digit L-1-d
        p = self.p
        return p, [code // p ** (L - 1 - d) % p for d in range(L)]

    def _cell_children(self, c0: LaurentPoly, r: int, level: int) -> list[LaurentPoly]:
        p = self.p
        low = tuple(t for t in c0.coeffs if t[0] < r)
        digit = dict(t for t in c0.coeffs if t[0] >= r)
        # child k's digits below i, for k = 0, 1, ..., p^(i - r) - 1
        tails = [low]
        for i in range(r, level):
            d = digit.get(i, 0)
            terms = [((i, v),) if v else () for v in ((d + j) % p for j in range(p))]
            tails = [tail + term for term in terms for tail in tails]
        return [LaurentPoly._trusted(p, tail) for tail in tails]

    def unit_inverse_mod(self, a: LaurentPoly, m: int) -> LaurentPoly:
        if a.ord() != 0:
            raise FieldDivisionError("unit inversion needs a unit")
        a = a.truncate(m)
        inv = LaurentPoly(self.p, [(0, pow(a.coeff(0), -1, self.p))])
        # Newton iteration: inv <- inv*(2 - a*inv), doubling correct digits.
        prec = 1
        two = self.from_int(2)
        while prec < m:
            prec *= 2
            inv = (inv * (two - (a * inv).truncate(prec))).truncate(prec)
        return inv.truncate(m)

    def element_to_json(self, a: LaurentPoly) -> dict:
        return {"coeffs": {str(e): c for e, c in a.coeffs}}

    def element_from_json(self, obj) -> LaurentPoly:
        if isinstance(obj, int):
            return self.from_int(obj)
        if isinstance(obj, dict) and "coeffs" in obj:
            return LaurentPoly(
                self.p, [(int(e), int(c)) for e, c in obj["coeffs"].items()]
            )
        raise FieldError(f"cannot read Laurent element from {obj!r}")


_FIELDS: dict[tuple[str, int], LocalField] = {}


def make_field(kind: str, p: int) -> LocalField:
    key = (kind, p)
    if key not in _FIELDS:
        if kind == "p-adic":
            _FIELDS[key] = PAdicField(p)
        elif kind == "equal-characteristic":
            _FIELDS[key] = LaurentField(p)
        else:
            raise FieldError(f"unknown field kind {kind!r}")
    return _FIELDS[key]


def field_from_json(obj: dict) -> LocalField:
    return make_field(obj["kind"], int(obj["p"]))


def field_spec(field: LocalField) -> str:
    """Inverse of parse_field_spec: the Qp:<p> / Fpt:<p> descriptor."""
    tag = "Qp" if field.kind == "p-adic" else "Fpt"
    return f"{tag}:{field.p}"


def parse_field_spec(spec: str) -> LocalField:
    """Parse a CLI field descriptor: Qp:<p> or Fpt:<p>."""
    try:
        tag, pstr = spec.split(":")
        p = int(pstr)
    except ValueError:
        raise FieldError(f"bad field spec {spec!r}; expected Qp:<p> or Fpt:<p>")
    if tag == "Qp":
        return make_field("p-adic", p)
    if tag == "Fpt":
        return make_field("equal-characteristic", p)
    raise FieldError(f"bad field kind {tag!r}; expected Qp or Fpt")


# -- vectors ----------------------------------------------------------------


def vec_add(field: LocalField, xs: Sequence, ys: Sequence) -> tuple:
    return tuple(field.add(x, y) for x, y in zip(xs, ys, strict=True))


def vec_neg(field: LocalField, xs: Sequence) -> tuple:
    return tuple(field.neg(x) for x in xs)


# -- balls -------------------------------------------------------------------


def ball_intersect_1d(field: LocalField, c1, r1: int, c2, r2: int):
    """Intersection of two balls in one coordinate: None, or the smaller ball."""
    if field.ord(field.sub(c1, c2)) >= min(r1, r2):
        return (c1, r1) if r1 >= r2 else (c2, r2)
    return None


@dataclass(frozen=True)
class Polyball:
    """Product of one-dimensional balls, one per coordinate; canonical centers."""

    field: LocalField
    centers: tuple
    radii: tuple[int, ...]

    def __post_init__(self):
        if len(self.centers) != len(self.radii):
            raise ValueError("centers and radii must have equal length")
        canon = tuple(
            self.field.canon_trunc(c, r) for c, r in zip(self.centers, self.radii)
        )
        object.__setattr__(self, "centers", canon)
        object.__setattr__(self, "radii", tuple(int(r) for r in self.radii))

    @classmethod
    def ball(cls, field: LocalField, center: Sequence, r: int) -> "Polyball":
        center = tuple(center)
        return cls(field, center, (r,) * len(center))

    @property
    def n(self) -> int:
        return len(self.radii)

    def contains(self, xs: Sequence) -> bool:
        return all(
            self.field.ord(self.field.sub(x, c)) >= r
            for x, c, r in zip(xs, self.centers, self.radii, strict=True)
        )

    def intersect(self, other: "Polyball") -> Optional["Polyball"]:
        cs, rs = [], []
        for c1, r1, c2, r2 in zip(
            self.centers, self.radii, other.centers, other.radii, strict=True
        ):
            got = ball_intersect_1d(self.field, c1, r1, c2, r2)
            if got is None:
                return None
            cs.append(got[0])
            rs.append(got[1])
        return Polyball(self.field, tuple(cs), tuple(rs))

    def is_subset(self, other: "Polyball") -> bool:
        got = self.intersect(other)
        return got == self

    def _subcells(self, levels: Sequence[int]) -> Iterator[tuple]:
        """Canonical center tuples of the subcells at per-coordinate `levels`."""
        return product(
            *(
                self.field.cell_reps(c, r, level)
                for c, r, level in zip(self.centers, self.radii, levels, strict=True)
            )
        )

    def child_centers(self) -> Iterator[tuple]:
        """Canonical center tuples of the children, lazily, in their order."""
        return self._subcells(tuple(r + 1 for r in self.radii))

    def cells_at_level(self, level: int) -> Iterator[tuple]:
        """Canonical center tuples of the level-`level` cells covering self."""
        return self._subcells((level,) * self.n)

    def volume(self) -> CycloScalar:
        return CycloScalar.q_pow(self.field.p, -2 * sum(self.radii))

    def to_json(self) -> dict:
        return {
            "center": [self.field.element_to_json(c) for c in self.centers],
            "radius": list(self.radii),
        }

    @classmethod
    def from_json(cls, field: LocalField, obj: dict) -> "Polyball":
        centers = tuple(field.element_from_json(c) for c in obj["center"])
        radius = obj["radius"]
        if isinstance(radius, int):
            radii = (radius,) * len(centers)
        else:
            radii = tuple(int(r) for r in radius)
        return cls(field, centers, radii)

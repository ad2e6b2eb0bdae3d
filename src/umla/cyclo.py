"""Exact scalars for character sums: rational combinations of q-powers and p-power roots of unity.

A CycloScalar over a residue cardinality q = p represents the complex number

    sum over terms of  coef * q^(e/2) * exp(2*pi*i*angle)

with coef rational, e an integer (so q-exponents are half-integers), and angle
a rational with p-power denominator (a root of unity of p-power order).

Values are kept in a canonical form.  Integer q-powers are folded into the
rational coefficient, leaving at most two slices: the rational one and a
formal sqrt(q) one.  Within each slice the roots of unity are rewritten on
the Q-basis {zeta^j : 0 <= j < phi(p^K)} of Q(zeta_{p^K}) using the relation
sum_{i=0}^{p-1} zeta^{i*p^(K-1)} = 0; on that basis the zero test is an exact
emptiness check.  sqrt(q) stays a formal symbol: identities that relate
sqrt(p) to Gauss sums of p-power roots are (deliberately) not recognized, so
the zero test is complete on each slice and sound overall.

The form is stored on integers as ``ints`` = (p^K, D, ((r, j, n), ...)): one
term per nonzero basis coordinate, in order of (r, j), with r in {0, 1} the
sqrt(q) slice, j the angle index (angle j / p^K) and n the numerator of the
coefficient n / D over one common D > 0.  Two reductions make it unique:
gcd(D, every n) = 1, and K is minimal, that is some j is prime to p unless
K = 0.  (Lifting a reduced level-(K-1) vector to level K multiplies every
index by p and gives a reduced level-K vector, so the basis coordinates do
not depend on K, and the least K is the one where the indices are not all
multiples of p.)  So ``a == b`` compares ``ints`` and is the exact equality
test of two canonical scalars; callers use it rather than the zero test of
``a - b``, which canonicalises twice more (a negation and a sum).  Values
still held as raw terms are compared the other way round: a ball-law check
in ``umla.cexp.family.dis_sample`` is one zero test over the concatenated
terms of both sides, one side negated, one canonicalisation where a
canonical scalar per side and ``==`` would take two or more.  The ring
operations run on ``ints``; ``*`` returns the other operand, with no
canonicalisation, when one side is 1.  ``terms``, the (e2, Fraction angle,
Fraction coef) triples of the form, is built only when read.

``_canonical`` reads raw terms in two formats, mixed freely: the public
triples (e2, angle, coef) with int or Fraction angle and coefficient, and
the integer terms (e2, j, pK, n, D), for coef n / D and angle j / pK with
D > 0 and pK a power of p, which ``CycloScalar.raw`` emits.  One pass adds
every coefficient, with q^k folded in, on the largest level and the least
common denominator met so far, one dict per slice; the indices j >=
phi(p^K) are then rewritten on the basis and the two reductions taken.

Sums of many scalars should go through ``CycloScalar.sum`` or a raw-term
constructor ``CycloScalar(p, raw)``, never through a loop of ``+``: each
``+`` re-canonicalises the whole running sum, so a loop of N additions costs
O(N^2) where one canonicalisation of the concatenated terms costs O(N).  A
character sum sum_x psi(f(x)) is best built from the histogram
{psi_angle(f(x)): count} as one raw-term scalar.  The term evaluator works
the same way: a term compiled by ``umla.cexp.evaluate.compile_term`` returns
its value as integer raw terms, one closure per node, and the caller
canonicalises once at the root.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

__all__ = ["CycloScalar"]

_ONE = (1, 1, ((0, 0, 1),))  # the ``ints`` of 1


def _canonical(p: int, raw: Iterable[tuple]) -> "CycloScalar":
    """The canonical scalar of raw terms, in either format of the module
    docstring; its ``len`` is its number of stored terms."""
    level = den = 1  # p^K and D of the terms added so far
    last_pk = last_d = lift = scale = 1  # level // last_pk, den // last_d
    v0, v1 = {}, {}  # per slice: {j: numerator over den}
    for t in raw:
        if len(t) == 3:
            e2, a, c = t
            if not c:
                continue
            e2, j, pk = int(e2), a.numerator, a.denominator
            n, d = c.numerator, c.denominator
        else:
            e2, j, pk, n, d = t
            if not n:
                continue
        k = e2 >> 1
        if k:
            if k > 0:
                n *= p**k
            else:
                d *= p**-k
        if pk != last_pk:
            if pk > level:
                m = pk
                while m % p == 0:
                    m //= p
                if m != 1:
                    raise ValueError(f"angle denominator {pk} is not a power of p={p}")
                m = pk // level
                if v0:
                    v0 = {i * m: c for i, c in v0.items()}
                if v1:
                    v1 = {i * m: c for i, c in v1.items()}
                level = pk
            elif level % pk:
                raise ValueError(f"angle denominator {pk} is not a power of p={p}")
            last_pk, lift = pk, level // pk
        if d != last_d:
            if den % d:
                m = d // gcd(den, d)
                if v0:
                    v0 = {i: c * m for i, c in v0.items()}
                if v1:
                    v1 = {i: c * m for i, c in v1.items()}
                den *= m
            last_d, scale = d, den // d
        v = v1 if e2 & 1 else v0
        j = j * lift % level
        v[j] = v.get(j, 0) + n * scale
    terms = []
    g, h = den, level  # gcd of den and every n, of level and every j
    step = level // p
    phi = level - step  # phi(p^K); phi(1) = 1 leaves a rational slice as it is
    for r, v in ((0, v0), (1, v1)):
        if not v:
            continue
        if step:
            for j in [j for j in v if j >= phi]:
                c = v.pop(j)
                if c:
                    for i in range(j - phi, phi, step):
                        v[i] = v.get(i, 0) - c
        for j in sorted(v):
            c = v[j]
            if c:
                terms.append((r, j, c))
                g = gcd(g, c)
                h = gcd(h, j)
    if g > 1 or h > 1:
        terms = [(r, j // h, n // g) for r, j, n in terms]
        den //= g
        level //= h
    s = object.__new__(CycloScalar)
    s.p = p
    s.ints = (level, den, tuple(terms))
    s._hash = None
    return s


class CycloScalar:
    """Immutable exact scalar; supports +, -, *, equality and a sound zero test."""

    __slots__ = ("p", "ints", "_hash")

    def __new__(cls, p: int, raw: Iterable[tuple] = ()):
        """Canonical sum of the raw terms (module docstring).

        In a triple (e2, angle, coef) angle and coef are ints or Fractions;
        ``fraction``, ``q_pow`` and ``root`` take any value with integer
        ``numerator`` and ``denominator``.
        """
        if p < 2:
            raise ValueError("residue cardinality must be at least 2")
        return _canonical(p, raw)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycloScalar":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "CycloScalar":
        return cls(p, [(0, 0, 1, 1, 1)])

    @classmethod
    def fraction(cls, p: int, c) -> "CycloScalar":
        return cls(p, [(0, 0, 1, c.numerator, c.denominator)])

    @classmethod
    def q_pow(cls, p: int, e2: int, coef=1) -> "CycloScalar":
        """coef * q^(e2/2); e2 counts half-integer steps."""
        return cls(p, [(int(e2), 0, 1, coef.numerator, coef.denominator)])

    @classmethod
    def root(cls, p: int, angle: Fraction, coef=1) -> "CycloScalar":
        """coef * exp(2*pi*i*angle), angle of p-power order."""
        a, c = angle, coef
        return cls(p, [(0, a.numerator, a.denominator, c.numerator, c.denominator)])

    @classmethod
    def sum(cls, p: int, scalars: Iterable["CycloScalar"]) -> "CycloScalar":
        """Exact sum of the scalars, canonicalised once over all their terms."""
        raw: list = []
        for s in scalars:
            if s.p != p:
                raise ValueError(f"mixed residue cardinalities {p} and {s.p}")
            raw += s.raw()
        return _canonical(p, raw)

    def raw(self, e2: int = 0, j: int = 0, den: int = 1, k: int = 1) -> list:
        """The integer raw terms of k * q^(e2/2) * exp(2*pi*i*j/den) * self.

        ``den`` is a power of p; the terms are on the larger of the two
        levels, so they add to other raw terms without any ``Fraction``.
        """
        pk, d, ts = self.ints
        level = lcm(pk, den)
        lift, j = level // pk, j * (level // den)
        return [(r + e2, i * lift + j, level, n * k, d) for r, i, n in ts]

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        self._check(other)
        return _canonical(self.p, self.raw() + other.raw())

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        self._check(other)
        return _canonical(self.p, self.raw() + other.raw(k=-1))

    def __neg__(self) -> "CycloScalar":
        return _canonical(self.p, self.raw(k=-1))

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        self._check(other)
        if other.ints == _ONE:
            return self
        if self.ints == _ONE:
            return other
        pk, d, ts = self.ints
        qk, e, us = other.ints
        level = max(pk, qk)
        f, g, de = level // pk, level // qk, d * e
        raw = [
            (r + s, i * f + u * g, level, n * m, de)
            for r, i, n in ts
            for s, u, m in us
        ]
        return _canonical(self.p, raw)

    def times(self, c) -> "CycloScalar":
        """c * self, for c an int or a Fraction."""
        pk, d, ts = self.ints
        m, d = c.numerator, d * c.denominator
        return _canonical(self.p, [(r, i, pk, n * m, d) for r, i, n in ts])

    def rotate(self, angle: Fraction) -> "CycloScalar":
        """Multiply by the root of unity with the given angle."""
        if not angle:
            return self
        return _canonical(self.p, self.raw(j=angle.numerator, den=angle.denominator))

    def q_shift(self, e2: int) -> "CycloScalar":
        """Multiply by q^(e2/2)."""
        if not e2:
            return self
        return _canonical(self.p, self.raw(e2=int(e2)))

    def conj(self) -> "CycloScalar":
        pk, d, ts = self.ints
        return _canonical(self.p, [(r, -i, pk, n, d) for r, i, n in ts])

    def inverse(self) -> "CycloScalar":
        """Inverse of a monomial scalar coef*q^(e/2)*zeta; raises otherwise."""
        if len(self) != 1:
            raise ArithmeticError("only monomial scalars are invertible here")
        e2, a, c = self.terms[0]
        return CycloScalar(self.p, [(-e2, -a, 1 / c)])

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not self.ints[2]

    def is_rational(self) -> bool:
        return all(r == 0 and i == 0 for r, i, _ in self.ints[2])

    @property
    def terms(self) -> tuple:
        """The stored terms as (e2, angle, coef): e2 in {0, 1}, angle a
        Fraction in [0, 1), coef a nonzero Fraction; in order of (e2, angle)."""
        pk, d, ts = self.ints
        return tuple((r, Fraction(i, pk), Fraction(n, d)) for r, i, n in ts)

    def as_fraction(self) -> Fraction:
        """Exact rational value; raises if the scalar is not rational."""
        if not self.is_rational():
            raise ArithmeticError(f"{self} is not rational")
        ts = self.ints[2]
        return Fraction(ts[0][2], self.ints[1]) if ts else Fraction(0)

    def to_json(self) -> list:
        return [
            {"qpow": e2, "angle": str(a), "coef": str(c)} for e2, a, c in self.terms
        ]

    @classmethod
    def from_json(cls, p: int, obj: list) -> "CycloScalar":
        return cls(
            p, [(int(t["qpow"]), *_ratio(t["angle"]), *_ratio(t["coef"])) for t in obj]
        )

    def approx(self) -> complex:
        """Floating approximation, for diagnostics only (never for zero tests)."""
        z = 0j
        for e2, a, c in self.terms:
            z += float(c) * self.p ** (e2 / 2) * cmath.exp(2j * cmath.pi * float(a))
        return z

    def __eq__(self, other) -> bool:
        """Exact equality: ``a == b`` holds exactly when ``a - b`` is zero.

        The terms are coordinates on a basis, taken per sqrt(q)-slice, so two
        values agree exactly when their integer forms do; the formal sqrt(q)
        slice is independent of the rational one here just as in the zero
        test.
        """
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self.p == other.p and self.ints == other.ints

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.p, self.ints))
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __len__(self) -> int:
        """The number of stored terms."""
        return len(self.ints[2])

    def __iter__(self) -> Iterator[tuple[int, Fraction, Fraction]]:
        return iter(self.terms)

    def __repr__(self) -> str:
        if not self.ints[2]:
            return "0"
        parts = []
        for e2, a, c in self.terms:
            s = str(c)
            if e2:
                s += f"*q^({e2}/2)" if e2 % 2 else f"*q^{e2 // 2}"
            if a:
                s += f"*e({a})"
            parts.append(s)
        return " + ".join(parts)

    def __reduce__(self):
        return CycloScalar, (self.p, self.raw())

    def _check(self, other: "CycloScalar") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed residue cardinalities {self.p} and {other.p}")


def _ratio(text: str) -> tuple[int, int]:
    """(numerator, denominator) of a rational written as ``str(Fraction)``."""
    num, _, den = text.partition("/")
    num, den = int(num), int(den or 1)
    if den <= 0:
        raise ValueError(f"invalid rational {text!r}: the denominator must be positive")
    return num, den

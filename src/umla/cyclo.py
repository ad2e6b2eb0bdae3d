"""Exact scalars for character sums: rational combinations of q-powers and p-power roots of unity.

A CycloScalar over a residue cardinality q = p represents the complex number

    sum over stored terms of  coef * q^(e/2) * exp(2*pi*i*angle)

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

Canonicalisation runs on integer angle indices.  One pass over the raw
triples folds q^k into the coefficient and adds it under the key
(denominator, numerator mod denominator) of its angle, one dict per slice;
a reduced Fraction makes that key unique per root of unity.  Per slice the
largest denominator gives p^K, every index is lifted to j with angle = j/p^K
by an integer multiplication, and the indices j >= phi(p^K) are rewritten on
ints.  Only the stored ``terms``, (e2, Fraction(j, p^K), Fraction(coef)) in
order of j, leave ``_canonical``.  The form is independent of K (lifting a
reduced level-(K-1) vector gives a reduced level-K vector), so it is unique:
``a == b`` is the exact equality test.  Callers use it rather than the zero
test of ``a - b``, which canonicalises twice more (a negation and a sum).

Sums of many scalars should go through ``CycloScalar.sum`` or a raw-triple
constructor ``CycloScalar(p, [(e2, angle, coef), ...])``, never through a
loop of ``+``: each ``+`` re-canonicalises the whole running sum, so a loop
of N additions costs O(N^2) ``Fraction`` work where one canonicalisation of
the concatenated terms costs O(N).  A character sum sum_x psi(f(x)) is best
built from the histogram {psi_angle(f(x)): count} as one raw-triple scalar.
The term evaluator works the same way: a term compiled by
``umla.cexp.evaluate.compile_term`` returns its value as raw triples, one
closure per node, and the caller canonicalises once at the root.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = ["CycloScalar"]


def _canonical(p: int, raw: Iterable[tuple[int, Fraction, Fraction]]) -> tuple:
    """Reduce (e2, angle, coef) triples to the canonical sorted term tuple.

    Integer powers of q are folded into the coefficient, so the only surviving
    exponents are e2 = 0 and e2 = 1 (a formal factor sqrt(q)).  Angles and
    coefficients may be ints or Fractions; the terms hold Fractions only (an
    int coefficient is converted on the way out, a Fraction is kept as is).
    """
    slices: dict[int, dict[tuple[int, int], Fraction]] = {}
    for e2, ang, coef in raw:
        if not coef:
            continue
        k, r = divmod(int(e2), 2)
        if k > 0:
            coef = coef * p**k
        elif k < 0:
            coef = Fraction(coef.numerator, coef.denominator * p**-k)
        den = ang.denominator
        key = (den, ang.numerator % den)
        acc = slices.get(r)
        if acc is None:
            slices[r] = {key: coef}
        else:
            acc[key] = acc.get(key, 0) + coef
    out = []
    for r in sorted(slices):
        acc = slices[r]
        pK = max(den for den, _ in acc)
        d = pK
        while d % p == 0:
            d //= p
        if d != 1 or any(pK % den for den, _ in acc):
            dens = sorted({den for den, _ in acc})
            raise ValueError(f"angle denominators {dens} are not all powers of p={p}")
        vec = {num * (pK // den): c for (den, num), c in acc.items()}
        step = pK // p
        phi = pK - step  # phi(p^K); phi(1) = 1 leaves a rational slice as it is
        for j in [j for j in vec if j >= phi]:
            c = vec.pop(j)
            if c:
                for jj in range(j - phi, phi, step):
                    vec[jj] = vec.get(jj, 0) - c
        for j in sorted(vec):
            c = vec[j]
            if c:
                c = c if type(c) is Fraction else Fraction(c)
                out.append((r, Fraction(j, pK), c))
    return tuple(out)


class CycloScalar:
    """Immutable exact scalar; supports +, -, *, equality and a sound zero test."""

    __slots__ = ("p", "terms", "_hash")

    def __init__(self, p: int, raw: Iterable[tuple[int, Fraction, Fraction]] = ()):
        """Canonical sum of the raw (e2, angle, coef) triples.

        Angles and coefficients are ints or Fractions; ``fraction``, ``q_pow``
        and ``root`` convert any other rational coefficient first.
        """
        if p < 2:
            raise ValueError("residue cardinality must be at least 2")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", _canonical(p, raw))
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycloScalar":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "CycloScalar":
        return cls.fraction(p, Fraction(1))

    @classmethod
    def fraction(cls, p: int, c) -> "CycloScalar":
        return cls(p, [(0, Fraction(0), Fraction(c))])

    @classmethod
    def q_pow(cls, p: int, e2: int, coef=Fraction(1)) -> "CycloScalar":
        """coef * q^(e2/2); e2 counts half-integer steps."""
        return cls(p, [(int(e2), Fraction(0), Fraction(coef))])

    @classmethod
    def root(cls, p: int, angle: Fraction, coef=Fraction(1)) -> "CycloScalar":
        """coef * exp(2*pi*i*angle), angle of p-power order."""
        return cls(p, [(0, Fraction(angle), Fraction(coef))])

    @classmethod
    def sum(cls, p: int, scalars: Iterable["CycloScalar"]) -> "CycloScalar":
        """Exact sum of the scalars, canonicalised once over all their terms."""
        raw: list = []
        for s in scalars:
            if s.p != p:
                raise ValueError(f"mixed residue cardinalities {p} and {s.p}")
            raw.extend(s.terms)
        return cls(p, raw)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        self._check(other)
        return CycloScalar(self.p, list(self.terms) + list(other.terms))

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        return self + (-other)

    def __neg__(self) -> "CycloScalar":
        return CycloScalar(self.p, [(e2, a, -c) for e2, a, c in self.terms])

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        self._check(other)
        raw = [
            (e2 + f2, a + b, c * d)
            for e2, a, c in self.terms
            for f2, b, d in other.terms
        ]
        return CycloScalar(self.p, raw)

    def times(self, c) -> "CycloScalar":
        c = Fraction(c)
        return CycloScalar(self.p, [(e2, a, k * c) for e2, a, k in self.terms])

    def rotate(self, angle: Fraction) -> "CycloScalar":
        """Multiply by the root of unity with the given angle."""
        if not angle:
            return self
        return CycloScalar(self.p, [(e2, a + angle, c) for e2, a, c in self.terms])

    def q_shift(self, e2: int) -> "CycloScalar":
        """Multiply by q^(e2/2)."""
        return CycloScalar(self.p, [(f2 + e2, a, c) for f2, a, c in self.terms])

    def conj(self) -> "CycloScalar":
        return CycloScalar(self.p, [(e2, -a, c) for e2, a, c in self.terms])

    def inverse(self) -> "CycloScalar":
        """Inverse of a monomial scalar coef*q^(e/2)*zeta; raises otherwise."""
        if len(self.terms) != 1:
            raise ArithmeticError("only monomial scalars are invertible here")
        e2, a, c = self.terms[0]
        return CycloScalar(self.p, [(-e2, -a, 1 / c)])

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(a == 0 and e2 == 0 for e2, a, _ in self.terms)

    def as_fraction(self) -> Fraction:
        """Exact rational value; raises if the scalar is not rational."""
        if not self.is_rational():
            raise ArithmeticError(f"{self} is not rational")
        total = Fraction(0)
        for e2, _, c in self.terms:
            total += c * Fraction(self.p) ** (e2 // 2)
        return total

    def to_json(self) -> list:
        return [
            {"qpow": e2, "angle": str(a), "coef": str(c)} for e2, a, c in self.terms
        ]

    @classmethod
    def from_json(cls, p: int, obj: list) -> "CycloScalar":
        return cls(
            p,
            [
                (int(t["qpow"]), Fraction(t["angle"]), Fraction(t["coef"]))
                for t in obj
            ],
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
        values agree exactly when their terms do; the formal sqrt(q) slice is
        independent of the rational one here just as in the zero test.
        """
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.p, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __iter__(self) -> Iterator[tuple[int, Fraction, Fraction]]:
        return iter(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
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

    def _check(self, other: "CycloScalar") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed residue cardinalities {self.p} and {other.p}")

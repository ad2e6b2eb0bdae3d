"""Exact polynomial utilities over the integers and over a local field.

``MultiPoly`` is a sparse multivariate polynomial with integer coefficients.
It supports the pieces the analytic layers need: formal derivatives, the
Taylor expansion of p(c + e) as polynomials-in-c indexed by e-monomials
(built once per polynomial and kept on it, as it needs no field), exact
evaluation over a local field, and ultrametric lower bounds for the valuation
of the values taken where each coordinate has a given valuation lower bound.

``parse_poly`` reads the polynomial subset of the term language of
``umla.cexp.syntax`` (integer constants, variables, +, -, *, ^), so the
text of a polynomial means the same there as in a C^exp term: unary minus
binds looser than ^, and -x^2 is -(x^2).

``squarefree_ints`` takes the squarefree part of an integer polynomial in
one variable over the prime field, on integers: over Q by gcds of
``Fraction`` polynomials, returned as the numerators over their least
common denominator; over F_p on residues mod p, with the p-th-root step
where the derivative vanishes.  ``sylvester_resultant`` works over the ring
Z[y] (one-variable ``MultiPoly`` entries) via exact Laplace expansion, which
is plenty for the small degrees used here.

Over Q_p every evaluation runs on Python ints.  The point is brought to
integer numerators over one common denominator, x_i = n_i / d.  For P of
total degree m with integer coefficients c_e,

    N = d^m * P(n / d) = sum_e c_e * n^e * d^(m - |e|)

is an integer (the homogenised form), and P(x) = N / d^m.  This holds
for every rational input, whatever its denominators, so no precision has to
be chosen.  The powers come from one table per point (``power_table``): the
powers of each n_i and of d up to a degree, built once.  ``table_ints``
sums a form of degree m at most that degree off it, homogenised with its
own m, so one table serves every form read at a point, whatever their
degrees.  ``monomial_ints`` is the one-shot use, a table of the form's own
degree read once.  A caller builds at most one ``Fraction`` from the ints;
one that needs only the valuation reads it off N and m instead
(``value_ord`` of the codes below).

Over F_p((t)) the same kernel runs by Kronecker substitution.  Each
coordinate is written x_i = n_i(t) / t^K with n_i in F_p[t], its digits
taken in [0, p), and each integer coefficient is reduced mod p into [0, p).
The homogenised form N(t) = sum_e c_e n^e (t^K)^(m - |e|) then has
non-negative integer coefficients, and every one of them is at most the sum
of them all,

    B = sum_e c_e prod_i l1(n_i)^(e_i),

where l1(n) is the sum of the digits of n (l1(t^K) = 1).  Evaluating at
t = 2^W with W = bit_length(B) (at least 1) is a ring map Z[t] -> Z, so
the table kernel and ``horner_ints`` run unchanged on n_i(2^W) and
d = 2^(W K), and every W-bit digit of the integer N(2^W) is exactly one
coefficient of N(t), below 2^W, with no carry and no sign.
Reducing the digits mod p decodes N(t) in F_p[t] (``unpack``), and
P(x) = N(t) / t^(K m).  A caller that needs only the valuation reads it
without decoding (``packed_ord``): ord N(t) is the index of the first digit
that p does not divide.  A nonzero integer whose every digit p divides
packs the zero element, as x^2 - 1 at x = 1 over F_3((t)) packs to 3, so
its ord is INF.

Points are brought to ints as codes (``walk_codes``), in a format fixed
once for a whole cell walk, or for the one point of
``MultiPoly.eval_field``; walks split and evaluate cells on codes alone,
with no element built in between.  Over Q_p (``QpCodes``) a code is a
numerator over one denominator D per walk: the lcm of the denominators of
the elements the walk starts from, times p^(-lo) when the least radius lo
is negative, so the child c + k p^r of a canonical centre c of B_r is the
code n + k p^r D.  Over F_p((t)) (``LaurentCodes``) a code packs the
digits of x = n(t) / t^K at one width W: K is the largest pole order of
those elements and -lo, and a child adds k's base-p digits packed at 2^W,
shifted to digit r + K.  At the deepest level hi of the walk, every
coordinate that splits has digit sum at most s = (p - 1)(hi + K), and one
that does not has its own, at most s when s is the larger; a polynomial of
degree m in its ``int_form`` (coefficients c_e reduced into [0, p)) then
packs to at most (sum_e c_e) s^m, and W is the width for the largest of
these bounds over the polynomials the walk evaluates, so no evaluation
chooses a width of its own.  Children come in the order that the
``LocalField.cell_reps`` docstring states, k = 0, 1, ..., with no rotation
since the centres are canonical, and ``element`` decodes a code,
or a value, only where a caller returns or reports it.  A walk that splits
one coordinate and holds the others fixed (the root search) may fold the
fixed codes and the powers of d into its forms once: what is left is a
dense form in one variable, evaluated by Horner steps (``horner_ints``).
``digit`` reads one digit of a value off N, for the Hensel step: over Q_p
the residue of N / p^(j + m v_p(D)) over the unit part of D^m, over
F_p((t)) the W-bit digit j + K m of N mod p.

``residue_code`` is the bridge from a walk code to the cell codes of
``SchwartzBruhat``: for a canonical code n, the code of a canonical element
or of one of its children, it reads the ``LocalField.residue_code`` at
origin e of the element's level-r truncation, e <= r, with no element
built.  Over Q_p n / D is the element itself, whose denominator is a power
of p, so the code is n p^(-e) / D mod p^(r - e), and None when
n p^(-e) / D is not an integer: the element has a nonzero digit below e.
Over F_p((t)) every W-bit digit of a canonical code is the element's digit
there, in [0, p), with no carry, so the code is the W-bit digits of n at
t^e, ..., t^(r - 1), packed base p, and None when a digit below t^e is
nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from typing import Sequence

from .cexp.syntax import (
    Add,
    CexpSyntaxError,
    Const,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    Var,
    parse,
    render,
)
from .fields import INF, FieldError, LaurentPoly, LocalField, _vp


def horner_ints(cs: Sequence[int], n: int) -> int:
    """sum_k cs[k] n^k, by Horner's rule."""
    acc = 0
    for c in reversed(cs):
        acc = acc * n + c
    return acc


def power_table(nums: Sequence[int], d: int, m: int) -> tuple[list, list | None]:
    """The powers of one point that ``table_ints`` sums forms of degree <= m
    off: (rows, dpow), rows[i][k] = nums[i]^k and dpow[k] = d^k for k <= m,
    dpow None when d = 1."""
    rows = []
    for x in nums:
        row = [1]
        for _ in range(m):
            row.append(row[-1] * x)
        rows.append(row)
    dpow = None
    if d != 1:
        dpow = [1]
        for _ in range(m):
            dpow.append(dpow[-1] * d)
    return rows, dpow


def table_ints(coeffs: dict, m: int, table: tuple) -> int:
    """N = sum_e c_e n^e d^(m - |e|) for a form of total degree m, with n^e
    and d^(m - |e|) read off a ``power_table`` of degree at least m: the
    form is homogenised with its own degree, not the table's."""
    rows, dpow = table
    total = 0
    for e, c in coeffs.items():
        for row, k in zip(rows, e):
            if k:
                c *= row[k]
        if dpow is not None:
            c *= dpow[m - sum(e)]
        total += c
    return total


def monomial_ints(coeffs: dict, nums: Sequence[int], d: int) -> int:
    """N with sum_e c_e (nums/d)^e = N / d^m, m the total degree: one
    ``power_table`` of degree m, read once by ``table_ints``."""
    m = max(map(sum, coeffs), default=0)
    return table_ints(coeffs, m, power_table(nums, d, m))


def int_ord(v: int, p: int):
    """p-adic valuation of an integer; INF for 0."""
    return INF if v == 0 else _vp(v, p)


def field_int_ord(field: LocalField, c: int):
    """ord of the integer c as an element of ``field``, read on the int: v_p(c)
    over Q_p; over F_p((t)), 0 when p does not divide c and INF when it does
    (c is then 0 there)."""
    if field.kind == "p-adic":
        return int_ord(c, field.p)
    return INF if c % field.p == 0 else 0


def kronecker_width(bound: int) -> int:
    """The width W, at least 1, of the digits that hold integers in [0, bound]."""
    return max(bound.bit_length(), 1)


def packed_ord(v: int, w: int, p: int):
    """ord_t of the F_p[t] element packed in v >= 0 at t = 2^w: the index of
    the first w-bit digit of v that p does not divide; INF when there is none,
    which includes every nonzero v whose digits are all divisible by p."""
    mask = (1 << w) - 1
    j = 0
    while v:
        # skip the zero digits below the lowest set bit at once
        z = ((v & -v).bit_length() - 1) // w
        v >>= z * w
        j += z
        if (v & mask) % p:
            return j
        v >>= w
        j += 1
    return INF


def unpack(p: int, v: int, w: int, low: int = 0) -> LaurentPoly:
    """The element sum_j (digit_j mod p) t^(low + j) of F_p((t)), with digit_j
    the w-bit digits of v >= 0."""
    mask = (1 << w) - 1
    digits = []
    e = low
    while v:
        c = (v & mask) % p
        if c:
            digits.append((e, c))
        v >>= w
        e += 1
    return LaurentPoly(p, digits)


def int_form(field: LocalField, coeffs: dict) -> tuple[dict, int]:
    """(cs, m): the coefficients a walk evaluates on its codes, and their
    total degree m.  Over F_p((t)) they are reduced mod p into [0, p), as
    the packed kernel needs (see the module docstring)."""
    if field.kind != "p-adic":
        p = field.p
        coeffs = {e: c % p for e, c in coeffs.items() if c % p}
    return coeffs, max(map(sum, coeffs), default=0)


class _Codes:
    """What the two code formats share: the value of a form at codes, and
    its ord.

    A form is (cs, m), m its total degree.  Either cs maps exponent tuples
    to ints (an ``int_form``) and N = sum_e c_e n^e d^(m - |e|) is summed by
    ``monomial_ints``, with d = ``den``; or cs is a dense list of one
    variable whose entries already hold the powers of d and of any fixed
    coordinates (a form with those coordinates folded in), and
    N = sum_i cs[i] n^i by ``horner_ints``.  The value is N / d^m, and
    ``value_ord`` reads its ord off N and m, here and for the forms that a
    caller sums off one ``power_table`` of a point.
    """

    __slots__ = ()

    def value(self, form: tuple, nums: Sequence[int]) -> int:
        cs = form[0]
        if isinstance(cs, list):
            return horner_ints(cs, nums[0])
        return monomial_ints(cs, nums, self.den)

    def ord(self, form: tuple, nums: Sequence[int]):
        return self.value_ord(self.value(form, nums), form[1])


class QpCodes(_Codes):
    """The coordinates of one cell walk over Q_p as integer codes: x = n / D
    with one denominator D per walk (see the module docstring).

    The value of a form (cs, m) at codes n is N / D^m; its ord is
    v_p(N) - m v_p(D).  Every code depth is valid (``limit`` INF).
    """

    __slots__ = ("p", "den", "den_ord", "limit")

    def __init__(self, p: int, xs: Sequence, lo: int):
        den = lcm(*[x.denominator for x in xs])
        if lo < 0:
            den *= p**-lo
        self.p, self.den, self.den_ord, self.limit = p, den, _vp(den, p), INF

    def code(self, x: Fraction) -> int:
        return x.numerator * (self.den // x.denominator)

    def element(self, n: int, m: int = 1) -> Fraction:
        """The element of code n, or the value N / D^m of a degree-m form."""
        return Fraction(n, self.den**m)

    def child_codes(self, n: int, r: int, level: int) -> list[int]:
        """The codes c + k p^r D of the level-``level`` subcells of B_r(c),
        c = n / D canonical, for k = 0, 1, ... (the order of ``cell_reps``)."""
        p = self.p
        step = self.den * p**r if r >= 0 else self.den // p**-r
        return [n + k * step for k in range(p ** (level - r))]

    def value_ord(self, num: int, m: int):
        """ord of the value N / D^m of a degree-m form: v_p(N) - m v_p(D)."""
        if num and self.den_ord:
            return _vp(num, self.p) - self.den_ord * m
        return int_ord(num, self.p)

    def digit(self, form: tuple, nums: Sequence[int], j: int) -> int:
        """The residue mod p of the value over p^j, for a value of ord >= j:
        N / p^(j + m v_p(D)) over the unit part of D^m."""
        p, m, dv = self.p, form[1], self.den_ord
        unit = pow(self.den // p**dv, -m, p)
        return self.value(form, nums) // p ** (j + dv * m) * unit % p

    def residue_code(self, n: int, e: int, r: int):
        """The ``LocalField.residue_code`` at origin e <= r of the level-r
        truncation of the element n / D, n a canonical code:
        n p^(-e) / D mod p^(r - e), None when that is not an integer."""
        p, den = self.p, self.den
        if e >= 0:
            den *= p**e
        else:
            n *= p**-e
        code, rest = divmod(n, den)
        return None if rest else code % p ** (r - e)


class LaurentCodes(_Codes):
    """The coordinates of one cell walk over F_p((t)) as integer codes: x =
    n(t) / t^K with one shift K and one width W per walk, the code n(2^W)
    (see the module docstring).

    The value of a form (cs, m) at codes n packs as N at t = 2^W, divided by
    t^(K m) (``den`` = 2^(W K) packs t^K).  Codes hold the digits below
    ``limit``.
    """

    __slots__ = ("p", "shift", "width", "den", "limit")

    def __init__(self, p: int, xs: Sequence, lo: int, hi: int, forms):
        shift = max([-x.coeffs[0][0] for x in xs if x.coeffs] + [-lo, 0])
        # every coordinate: its own digits, or digits at [-K, hi) when split;
        # a form of degree m then packs at most sum(cs) * size^m
        size = max(
            [(p - 1) * (hi + shift), 1] + [sum(c for _, c in x.coeffs) for x in xs]
        )
        bound = max([size] + [sum(cs.values()) * size**m for cs, m in forms])
        self.p, self.shift, self.limit = p, shift, hi
        self.width = kronecker_width(bound)
        self.den = 1 << self.width * shift

    def code(self, x: LaurentPoly) -> int:
        w, k = self.width, self.shift
        return sum(c << w * (e + k) for e, c in x.coeffs)

    def element(self, n: int, m: int = 1) -> LaurentPoly:
        """The element of code n, or the value N / t^(K m) of a degree-m form."""
        return unpack(self.p, n, self.width, -self.shift * m)

    def child_codes(self, n: int, r: int, level: int) -> list[int]:
        """The codes of the level-``level`` subcells of B_r(c), c canonical:
        k's base-p digits packed at 2^W and shifted to digit r, added to n,
        for k = 0, 1, ... (the order of ``cell_reps``)."""
        steps = [0]
        for i in range(r, level):
            at = self.width * (i + self.shift)
            steps = [s + (d << at) for d in range(self.p) for s in steps]
        return [n + s for s in steps]

    def value_ord(self, num: int, m: int):
        """ord of the value N / t^(K m) of a degree-m form, N packed."""
        return packed_ord(num, self.width, self.p) - self.shift * m

    def digit(self, form: tuple, nums: Sequence[int], j: int) -> int:
        """The t^j digit of the value: the W-bit digit j + K m of N, mod p."""
        w = self.width
        at = w * (j + self.shift * form[1])
        return (self.value(form, nums) >> at & (1 << w) - 1) % self.p

    def residue_code(self, n: int, e: int, r: int):
        """The ``LocalField.residue_code`` at origin e <= r of the level-r
        truncation of the element of n, a canonical code: its W-bit digits
        at t^e, ..., t^(r - 1), packed base p, None when a digit below t^e
        is nonzero."""
        w = self.width
        at = w * (e + self.shift)
        if at > 0:
            if n & (1 << at) - 1:
                return None
            n >>= at
        else:
            n <<= -at  # the digits from t^e to t^(-K - 1) are 0
        mask, p = (1 << w) - 1, self.p
        code, place = 0, 1
        for _ in range(r - e):
            code += (n & mask) * place
            n >>= w
            place *= p
        return code


def walk_codes(
    field: LocalField, xs: Sequence, lo: int, hi: int, forms
) -> QpCodes | LaurentCodes:
    """The integer codes of one cell walk (see the module docstring).

    ``xs`` are the elements the walk starts from (canonical cell centres and
    fixed coordinates), ``lo`` the least radius of a cell and ``hi`` the
    deepest level it splits to; ``forms`` are the ``int_form`` of every
    polynomial it evaluates, which fix W over F_p((t)).
    """
    if field.kind == "p-adic":
        return QpCodes(field.p, xs, lo)
    return LaurentCodes(field.p, xs, lo, hi, forms)


class MultiPoly:
    """Sparse polynomial in n variables with integer coefficients."""

    __slots__ = ("n", "coeffs", "_taylor", "_phases")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        self._taylor = None  # {k: taylor(k)}, filled on demand
        # {(field, k): the phase data of microlocal.phase}, filled on demand
        # there; like _taylor, read-only and never read by == or hash
        self._phases = None
        clean = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo} for {n} variables")
            c = int(c)
            if c:
                clean[expo] = clean.get(expo, 0) + c
        self.coeffs = {e: c for e, c in clean.items() if c}

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, c: int) -> "MultiPoly":
        return cls(n, {(0,) * n: int(c)})

    @classmethod
    def var(cls, n: int, i: int) -> "MultiPoly":
        expo = [0] * n
        expo[i] = 1
        return cls(n, {tuple(expo): 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.n, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.n, out)

    def scale(self, c: int) -> "MultiPoly":
        return MultiPoly(self.n, {e: v * c for e, v in self.coeffs.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self, i: int) -> "MultiPoly":
        out: dict = {}
        for e, c in self.coeffs.items():
            if e[i]:
                key = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[key] = out.get(key, 0) + c * e[i]
        return MultiPoly(self.n, out)

    def taylor(self, k: int | None = None) -> dict[tuple, "MultiPoly"]:
        """Expansion of p(c + e, y) in the first k variables (default: all n).

        Returns {alpha: q_alpha} with alpha of length k and each q_alpha a
        polynomial in all n variables (c, y), such that
        p(c + e, y) = sum q_alpha(c, y) e^alpha, expanded exactly over the
        integers.

        The expansion depends on p and k alone, not on a field, so it is
        built once per k, on the first call, and kept on the polynomial:
        every later call, by any caller, returns the same dict.  It is
        shared, so it is read-only; a caller must not change it or its
        polynomials.  Equality and hashing never read it.
        """
        k = self.n if k is None else k
        if self._taylor is None:
            self._taylor = {}
        got = self._taylor.get(k)
        if got is not None:
            return got
        out: dict = {}
        for beta, c in self.coeffs.items():
            head, tail = beta[:k], beta[k:]
            for alpha in product(*(range(b + 1) for b in head)):
                weight = c * prod(comb(b, a) for b, a in zip(head, alpha))
                key = tuple(b - a for b, a in zip(head, alpha)) + tail
                bucket = out.setdefault(alpha, {})
                bucket[key] = bucket.get(key, 0) + weight
        result = {}
        for alpha, coeffs in out.items():
            poly = MultiPoly(self.n, coeffs)
            if not poly.is_zero():
                result[alpha] = poly
        self._taylor[k] = result
        return result

    def _codes_at(self, field: LocalField, xs: Sequence) -> tuple:
        """(codes, nums, form): one point's codes for this polynomial."""
        if len(xs) != self.n:
            raise FieldError("wrong number of coordinates")
        form = int_form(field, self.coeffs)
        codes = walk_codes(field, xs, 0, 0, (form,))
        return codes, [codes.code(x) for x in xs], form

    def eval_field(self, field: LocalField, xs: Sequence):
        """Exact value at a point with local-field coordinates.

        The point is brought to codes once (``walk_codes``) and the
        homogenised form is summed there by ``monomial_ints``: over Q_p one
        ``Fraction`` is built from the result, over F_p((t)) one
        ``LaurentPoly`` is decoded from it (see the module docstring).
        """
        codes, nums, form = self._codes_at(field, xs)
        return codes.element(codes.value(form, nums), form[1])

    def ord_field(self, field: LocalField, xs: Sequence):
        """ord of the value at a point, read on its codes with no element
        built (INF for a zero value)."""
        codes, nums, form = self._codes_at(field, xs)
        return codes.ord(form, nums)

    def ord_lower_bound(self, field: LocalField, coord_lo: Sequence):
        """A valid lower bound for ord(p(x)) over all x with ord(x_i) >= coord_lo[i].

        ``coord_lo[i]`` may be INF when the coordinate is identically zero;
        the monomials that use it then contribute nothing.
        """
        if len(coord_lo) != self.n:
            raise FieldError("wrong number of coordinate bounds")
        best = INF
        for e, c in self.coeffs.items():
            bound = field_int_ord(field, c)
            for k, lo in zip(e, coord_lo):
                if k:  # skipped when 0, as 0 * INF is nan
                    bound += k * lo
            best = min(best, bound)
        return best

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            vars_part = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}"
                for i, k in enumerate(e)
                if k
            )
            parts.append(f"{c}*{vars_part}" if vars_part else str(c))
        return " + ".join(parts)


def parse_poly(src: str, var_names: Sequence[str]) -> MultiPoly:
    """Read an integer polynomial over named variables.

    ``src`` is parsed by ``cexp.syntax.parse`` and its tree folded into a
    ``MultiPoly``: integer constants, the names in ``var_names``, +, -, *,
    unary minus and ^ with a non-negative integer exponent.  Any other term,
    a non-integer constant, an unknown name or unparseable text raises
    ``FieldError``; so does a variable named by a keyword of the term
    language (q, ord, ac, psi, sum, sumrf, and, or, not).
    """
    try:
        tree = parse(src)
    except CexpSyntaxError as exc:
        raise FieldError(f"polynomial {exc}") from None
    n = len(var_names)

    def fold(node: Node) -> MultiPoly:
        if isinstance(node, Const):
            if node.value.denominator != 1:
                raise FieldError(f"non-integer coefficient {node.value}")
            return MultiPoly.const(n, node.value.numerator)
        if isinstance(node, Var):
            if node.name not in var_names:
                raise FieldError(
                    f"unknown variable {node.name!r}, expected one of "
                    f"{', '.join(var_names)}"
                )
            return MultiPoly.var(n, var_names.index(node.name))
        if isinstance(node, Neg):
            return -fold(node.arg)
        if isinstance(node, Pow):
            return fold(node.base) ** node.k
        if isinstance(node, Add):
            return fold(node.lhs) + fold(node.rhs)
        if isinstance(node, Sub):
            return fold(node.lhs) - fold(node.rhs)
        if isinstance(node, Mul):
            return fold(node.lhs) * fold(node.rhs)
        raise FieldError(f"not a polynomial term: {render(node)}")

    return fold(tree)


def squarefree_ints(coeffs: Sequence[int], p: int) -> list[int]:
    """Squarefree part of the integer polynomial sum_i coeffs[i] y^i over
    Q (p = 0) or over F_p (p > 0), as integer coefficients in degree order
    with the trailing zeros dropped: the product of its distinct
    irreducible factors, up to a constant (Cohen 1993, 3.4).

    With g = gcd(f, f') and w = f / g, the part is lcm(w, rad g), rad g
    found the same way; w alone misses the factors whose multiplicity p
    divides.  In characteristic p a vanishing derivative does not make f
    squarefree: then f(y) = h(y^p) = h(y)^p, and the part is that of h.
    Over Q the steps run on ``Fraction``s and the result is their
    numerators over their least common denominator; over F_p they run mod
    p and the result is the residues in [0, p).
    """
    if p:
        norm, inv = (lambda c: c % p), (lambda c: pow(c, -1, p))
    else:
        norm, inv = Fraction, (lambda c: 1 / c)

    def poly(cs) -> list:
        cs = [norm(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        return cs

    def mul(a, b) -> list:
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return poly(out)

    def quo_rem(a, b) -> tuple[list, list]:
        rem, n = list(a), len(b) - 1
        quo = [0] * max(len(a) - n, 0)
        lead = inv(b[-1])
        for i in reversed(range(len(quo))):
            c = quo[i] = norm(rem[i + n] * lead)
            for j, x in enumerate(b):
                rem[i + j] = norm(rem[i + j] - c * x)
        return poly(quo), poly(rem)

    def gcd(a, b) -> list:
        while b:
            a, b = b, quo_rem(a, b)[1]
        return a

    def part(f) -> list:
        if len(f) < 2:
            return f
        d = poly([k * c for k, c in enumerate(f)][1:])
        if not d:
            return part(f[::p])
        g = gcd(f, d)
        w = quo_rem(f, g)[0]
        if len(g) < 2:
            return w
        r = part(g)
        return quo_rem(mul(w, r), gcd(w, r))[0]

    out = part(poly(coeffs))
    if p:
        return out
    den = lcm(*(c.denominator for c in out))
    return [c.numerator * (den // c.denominator) for c in out]


def ring_det(rows: list[list], zero, one):
    """Exact determinant by memoized Laplace expansion along the rows.

    The entries may come from any commutative ring whose elements support
    ``+``, ``*``, unary ``-`` and ``==`` (integer polynomials, local-field
    elements); ``zero`` and ``one`` are that ring's identities.
    """
    size = len(rows)
    if size == 0:
        return one
    memo: dict = {}

    def minor(row: int, cols: int):
        # determinant of rows[row:] on the columns in the bit mask cols
        if row == size - 1:
            return rows[row][cols.bit_length() - 1]
        got = memo.get(cols)
        if got is not None:
            return got
        total = None
        negate = False
        for col in range(size):
            if not cols >> col & 1:
                continue
            entry = rows[row][col]
            if entry != zero:
                term = entry * minor(row + 1, cols & ~(1 << col))
                term = -term if negate else term
                total = term if total is None else total + term
            negate = not negate
        if total is None:
            total = zero
        memo[cols] = total
        return total

    return minor(0, (1 << size) - 1)


def sylvester_matrix(a: list, b: list, zero) -> list[list]:
    """Sylvester matrix of two coefficient lists (degree 0 upward).

    The formal degrees are len(a) - 1 and len(b) - 1; a zero leading entry
    is kept, so the determinant is the resultant at those formal degrees.
    """
    m, k = len(a) - 1, len(b) - 1
    size = m + k
    rows = []
    for count, coeffs in ((k, a), (m, b)):
        for i in range(count):
            row = [zero] * size
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def sylvester_resultant(a: list[MultiPoly], b: list[MultiPoly]) -> MultiPoly:
    """Resultant of two polynomials given by coefficient lists over Z[y].

    ``a`` and ``b`` list coefficients from degree 0 upward; entries are
    one-variable integer polynomials in the parameter y.
    """
    while a and a[-1].is_zero():
        a = a[:-1]
    while b and b[-1].is_zero():
        b = b[:-1]
    if not a or not b:
        raise FieldError("resultant of the zero polynomial")
    n_vars = a[0].n
    zero = MultiPoly.zero(n_vars)
    return ring_det(sylvester_matrix(a, b, zero), zero, MultiPoly.const(n_vars, 1))


def critical_value_locus(f: MultiPoly) -> MultiPoly:
    """Polynomial in y whose roots are the critical values of x -> f(x).

    Built as the resultant of f(x) - y and f'(x) with respect to x; the
    result is a one-variable integer polynomial in y (up to a nonzero integer
    factor, which does not change the zero locus).
    """
    if f.n != 1:
        raise FieldError("expected a univariate polynomial")
    deg = f.degree_in(0)
    if deg < 1:
        raise FieldError("the map must be non-constant")
    a = []
    for kx in range(deg + 1):
        c = f.coeffs.get((kx,), 0)
        poly = MultiPoly.const(1, c)
        if kx == 0:
            poly = poly - MultiPoly.var(1, 0)  # the parameter y
        a.append(poly)
    fp = f.derivative(0)
    b = [
        MultiPoly.const(1, fp.coeffs.get((kx,), 0))
        for kx in range(max(deg - 1, 0) + 1)
    ]
    return sylvester_resultant(a, b)

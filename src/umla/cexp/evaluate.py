"""Exact evaluation of terms over a concrete local field.

``evaluate`` takes a term, a field, and an environment binding the free
variables, and produces a ``CycloScalar``.  Evaluation is sort-directed:
the checker runs first (or a pre-computed sort table is supplied), and each
subterm is then evaluated at its sort — field elements as field elements,
integers as Python ints with ``ord(0)`` represented by the infinite
valuation, residues as canonical field representatives, and scalars as
exact cyclotomic values.

Scalars are evaluated on raw triples.  A scalar subterm evaluates to a list
of raw ``(e2, angle, coef)`` triples, the input format of ``CycloScalar``,
and ``evaluate`` builds the one ``CycloScalar`` of the whole term at the
root; the canonical form is unique, so this gives the value per-node
arithmetic would.  ``+``, ``-``, negation, ``sum`` and ``sumrf`` concatenate
triple lists; a product multiplies them out term by term; a constant,
``q^e``, ``psi``, ``ord`` and an indicator emit at most one triple, and never
one with a zero coefficient.  ``e^k`` canonicalises its base and each
partial power, so a power's triples are the canonical terms of its value
and do not multiply out with k.

Two conventions matter for totality:

- Products are lazy: the factors of a scalar product are scanned with
  indicator factors first, and once any factor is exactly zero the whole
  product is zero without evaluating the rest.  ``[cond] * e`` therefore
  never evaluates ``e`` outside the locus of the condition, which is what
  lets guarded terms mention ``ord`` or ``ac`` of expressions that vanish
  elsewhere.  The zero test canonicalises a factor only when it has two or
  more triples: no triple has a zero coefficient, so one triple is never
  zero and none is zero.  A canonicalised factor enters the product by its
  canonical terms.
- The infinite valuation is a legal value inside comparisons and as a range
  endpoint (an empty range), but an error anywhere a finite number is
  required: as a scalar, inside a q-exponent, or as the finite end of a
  summation range.
"""

from __future__ import annotations

from fractions import Fraction

from ..cyclo import CycloScalar
from ..fields import INF, FieldError, LocalField
from ..schwartz import DEFAULT_CELL_BUDGET
from .check import VF, ZZ, check, classify_cmp
from .syntax import (
    Ac,
    Add,
    And,
    Cmp,
    Const,
    Indicator,
    Mul,
    Neg,
    Node,
    Not,
    Or,
    Ord,
    Pow,
    Psi,
    QPow,
    Sub,
    SumRF,
    SumZ,
    Var,
)

__all__ = ["EvalError", "evaluate"]


class EvalError(FieldError):
    """The term has no value at this point of the environment."""


def _is_inf(v) -> bool:
    return isinstance(v, float)


def _int_add(a, b):
    if _is_inf(a) or _is_inf(b):
        if _is_inf(a) and _is_inf(b) and (a > 0) != (b > 0):
            raise EvalError("indeterminate sum of opposite infinite valuations")
        return a if _is_inf(a) else b
    return a + b


def _int_neg(a):
    return -a


def _int_mul(a, b):
    if _is_inf(a) or _is_inf(b):
        if a == 0 or b == 0:
            raise EvalError("indeterminate product of zero and an infinite valuation")
        sign = (1 if a > 0 else -1) * (1 if b > 0 else -1)
        return INF * sign
    return a * b


def _int_pow(a, k: int):
    if k == 0:
        return 1
    if _is_inf(a):
        return a if (a > 0 or k % 2 == 1) else INF
    return a**k


_ONE = (0, 0, 1)


def _residue_code(field: LocalField, elem, m: int) -> int:
    """Integer encoding of an integral element modulo uniformizer^m."""
    trunc = field.canon_trunc(elem, m)
    if isinstance(trunc, Fraction):
        return int(trunc)
    return sum(c * field.p**e for e, c in trunc.coeffs)


class _Evaluator:
    def __init__(self, field: LocalField, env: dict, sorts: dict, range_budget: int):
        self.field = field
        self.env = env
        self.sorts = sorts
        self.range_budget = range_budget

    # -- typed evaluation -------------------------------------------------

    def scalar(self, node: Node) -> list:
        """The raw (e2, angle, coef) triples of a scalar subterm.

        See the module docstring for the raw-triple and zero-test rules.
        """
        if isinstance(node, Const):
            return [(0, 0, node.value)] if node.value else []
        if isinstance(node, Var):
            c = self.env[node.name]
            return [(0, 0, c)] if c else []
        if isinstance(node, Add):
            return self.scalar(node.lhs) + self.scalar(node.rhs)
        if isinstance(node, Sub):
            lhs = self.scalar(node.lhs)
            return lhs + [(e2, a, -c) for e2, a, c in self.scalar(node.rhs)]
        if isinstance(node, Mul):
            return self.lazy_product(node)
        if isinstance(node, Neg):
            return [(e2, a, -c) for e2, a, c in self.scalar(node.arg)]
        if isinstance(node, Pow):
            if node.k == 0:
                return [_ONE]
            base = CycloScalar(self.field.p, self.scalar(node.base))
            out = base
            for _ in range(node.k - 1):
                out = out * base
            return list(out.terms)
        if isinstance(node, Ord):
            v = self.field.ord(self.fieldval(node.arg))
            if _is_inf(v):
                raise EvalError("the valuation of zero has no scalar value")
            return [(0, 0, v)] if v else []
        if isinstance(node, QPow):
            e = self.qexp(node.exponent)
            if e.denominator not in (1, 2):
                raise EvalError(
                    f"q-exponent {e} is not an integer or half-integer"
                )
            return [(int(e * 2), 0, 1)]
        if isinstance(node, Psi):
            return [(0, self.field.psi_angle(self.fieldval(node.arg)), 1)]
        if isinstance(node, SumZ):
            return self.sum_range(node)
        if isinstance(node, SumRF):
            return self.sum_residues(node)
        if isinstance(node, Indicator):
            return [_ONE] if self.truth(node.cond) else []
        raise EvalError(f"cannot evaluate {type(node).__name__} as a scalar")

    def lazy_product(self, node: Mul) -> list:
        """Raw triples of a scalar product, indicator factors decided first.

        A zero factor makes the product zero even when another factor has
        no value at the point, so ``[cond] * e`` restricts ``e`` to the
        condition's locus.
        """
        factors: list[Node] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, Mul):
                stack.append(cur.rhs)
                stack.append(cur.lhs)
            else:
                factors.append(cur)
        ordered = sorted(
            range(len(factors)),
            key=lambda i: 0 if isinstance(factors[i], Indicator) else 1,
        )
        values: dict[int, list] = {}
        for i in ordered:
            value = self.scalar(factors[i])
            if len(value) > 1:
                value = CycloScalar(self.field.p, value).terms
            if not value:
                return []
            values[i] = value
        out = values[0]
        for i in range(1, len(factors)):
            out = [
                (e2 + f2, a + b, c * d)
                for e2, a, c in out
                for f2, b, d in values[i]
            ]
        return out

    def intval(self, node: Node):
        """Evaluate at the integer sort; returns int or the infinite valuation."""
        if isinstance(node, Const):
            return int(node.value)
        if isinstance(node, Var):
            return self.env[node.name]
        if isinstance(node, Add):
            return _int_add(self.intval(node.lhs), self.intval(node.rhs))
        if isinstance(node, Sub):
            return _int_add(self.intval(node.lhs), _int_neg(self.intval(node.rhs)))
        if isinstance(node, Mul):
            return _int_mul(self.intval(node.lhs), self.intval(node.rhs))
        if isinstance(node, Neg):
            return _int_neg(self.intval(node.arg))
        if isinstance(node, Pow):
            return _int_pow(self.intval(node.base), node.k)
        if isinstance(node, Ord):
            return self.field.ord(self.fieldval(node.arg))
        if isinstance(node, Indicator):
            return 1 if self.truth(node.cond) else 0
        raise EvalError(f"cannot evaluate {type(node).__name__} as an integer")

    def qexp(self, node: Node):
        """Evaluate a q-exponent to an exact rational, an int or a Fraction."""
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return self.env[node.name]
        if isinstance(node, Add):
            return self.qexp(node.lhs) + self.qexp(node.rhs)
        if isinstance(node, Sub):
            return self.qexp(node.lhs) - self.qexp(node.rhs)
        if isinstance(node, Mul):
            return self.qexp(node.lhs) * self.qexp(node.rhs)
        if isinstance(node, Neg):
            return -self.qexp(node.arg)
        if isinstance(node, Pow):
            return self.qexp(node.base) ** node.k
        if isinstance(node, Ord):
            v = self.field.ord(self.fieldval(node.arg))
            if _is_inf(v):
                raise EvalError(
                    "the valuation of zero cannot appear in a q-exponent"
                )
            return v
        raise EvalError(f"cannot evaluate {type(node).__name__} in a q-exponent")

    def fieldval(self, node: Node):
        """Evaluate at the field sort; returns a field element."""
        field = self.field
        if isinstance(node, Const):
            return field.from_int(int(node.value))
        if isinstance(node, Var):
            return self.env[node.name]
        if isinstance(node, Add):
            return field.add(self.fieldval(node.lhs), self.fieldval(node.rhs))
        if isinstance(node, Sub):
            return field.sub(self.fieldval(node.lhs), self.fieldval(node.rhs))
        if isinstance(node, Mul):
            return field.mul(self.fieldval(node.lhs), self.fieldval(node.rhs))
        if isinstance(node, Neg):
            return field.neg(self.fieldval(node.arg))
        if isinstance(node, Pow):
            return field.power(self.fieldval(node.base), node.k)
        raise EvalError(f"cannot evaluate {type(node).__name__} as a field element")

    def resval(self, node: Node, m: int):
        """Evaluate at the level-m residue sort; returns an integral element."""
        field = self.field
        if isinstance(node, Const):
            return field.from_int(int(node.value))
        if isinstance(node, Var):
            return field.residue_lift(self.env[node.name])
        if isinstance(node, Add):
            return field.add(self.resval(node.lhs, m), self.resval(node.rhs, m))
        if isinstance(node, Sub):
            return field.sub(self.resval(node.lhs, m), self.resval(node.rhs, m))
        if isinstance(node, Mul):
            return field.mul(self.resval(node.lhs, m), self.resval(node.rhs, m))
        if isinstance(node, Neg):
            return field.neg(self.resval(node.arg, m))
        if isinstance(node, Pow):
            return field.power(self.resval(node.base, m), node.k)
        if isinstance(node, Ac):
            elem = self.fieldval(node.arg)
            if field.is_zero(elem):
                raise EvalError("ac of zero has no value")
            return field.residue_lift(field.ac(elem, node.level))
        raise EvalError(f"cannot evaluate {type(node).__name__} as a residue")

    # -- summation ----------------------------------------------------------

    def sum_range(self, node: SumZ) -> list:
        lo = self.intval(node.lo)
        hi = self.intval(node.hi)
        if lo > hi:
            return []
        if _is_inf(lo) or _is_inf(hi):
            raise EvalError("summation over an unbounded integer range")
        if hi - lo + 1 > self.range_budget:
            raise EvalError(
                f"summation range of {hi - lo + 1} exceeds the budget of "
                f"{self.range_budget}"
            )
        saved = self.env.get(node.var, _MISSING)
        saved_sort = self.sorts.get(node.var, _MISSING)
        self.sorts[node.var] = ZZ
        terms = []
        try:
            for i in range(lo, hi + 1):
                self.env[node.var] = i
                terms += self.scalar(node.body)
        finally:
            _restore(self.env, node.var, saved)
            _restore(self.sorts, node.var, saved_sort)
        return terms

    def sum_residues(self, node: SumRF) -> list:
        count = self.field.q**node.level
        if count > self.range_budget:
            raise EvalError(
                f"summation over {count} residues exceeds the budget of "
                f"{self.range_budget}"
            )
        saved = self.env.get(node.var, _MISSING)
        saved_sort = self.sorts.get(node.var, _MISSING)
        self.sorts[node.var] = ("res", node.level)
        terms = []
        try:
            for code in range(count):
                self.env[node.var] = code
                terms += self.scalar(node.body)
        finally:
            _restore(self.env, node.var, saved)
            _restore(self.sorts, node.var, saved_sort)
        return terms

    # -- conditions ------------------------------------------------------------

    def truth(self, node: Node) -> bool:
        if isinstance(node, And):
            return self.truth(node.lhs) and self.truth(node.rhs)
        if isinstance(node, Or):
            return self.truth(node.lhs) or self.truth(node.rhs)
        if isinstance(node, Not):
            return not self.truth(node.arg)
        if isinstance(node, Cmp):
            sort = classify_cmp(node, self.sorts.get)
            if sort == VF:
                diff = self.field.sub(self.fieldval(node.lhs), self.fieldval(node.rhs))
                eq = self.field.is_zero(diff)
                return eq if node.op == "==" else not eq
            if isinstance(sort, tuple):
                m = sort[1]
                lc = _residue_code(self.field, self.resval(node.lhs, m), m)
                rc = _residue_code(self.field, self.resval(node.rhs, m), m)
                return (lc == rc) if node.op == "==" else (lc != rc)
            lhs = self.intval(node.lhs)
            rhs = self.intval(node.rhs)
            return {
                "==": lhs == rhs,
                "!=": lhs != rhs,
                "<=": lhs <= rhs,
                "<": lhs < rhs,
                ">=": lhs >= rhs,
                ">": lhs > rhs,
            }[node.op]
        raise EvalError(f"cannot evaluate {type(node).__name__} as a condition")


_MISSING = object()


def _restore(mapping: dict, key: str, saved) -> None:
    if saved is _MISSING:
        mapping.pop(key, None)
    else:
        mapping[key] = saved


def _coerce_env(field: LocalField, env, sorts) -> dict:
    out = {}
    for name, sort in sorts.items():
        if name not in (env or {}):
            raise EvalError(f"no value supplied for variable {name!r}")
        value = env[name]
        if sort == VF:
            if isinstance(value, int):
                value = field.from_int(value)
            out[name] = value
        elif sort == ZZ:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise EvalError(f"integer variable {name!r} bound to {value}")
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, int):
                raise EvalError(
                    f"integer variable {name!r} bound to {type(value).__name__}"
                )
            out[name] = value
        else:
            m = sort[1]
            if not isinstance(value, int) or not 0 <= value < field.q**m:
                raise EvalError(
                    f"residue variable {name!r} needs a code in [0, q^{m})"
                )
            out[name] = value
    return out


def evaluate(
    term: Node,
    field: LocalField,
    env=None,
    declared=None,
    range_budget: int = DEFAULT_CELL_BUDGET,
    sorts=None,
) -> CycloScalar:
    """Evaluate a term to an exact scalar.

    ``env`` binds free variables: field variables to field elements (ints
    are lifted), integer variables to ints, residue variables to their
    integer codes.  ``declared`` optionally fixes sorts before inference;
    ``sorts`` skips inference entirely when the caller has already checked
    the term.  Raises ``SortError`` for ill-sorted terms and ``EvalError``
    when the term has no value at the given point, or when one ``sum`` or
    ``sumrf`` would add more than ``range_budget`` terms (default the shared
    ``DEFAULT_CELL_BUDGET``).
    """
    if sorts is None:
        sorts = check(term, declared)
    work_env = _coerce_env(field, env, sorts)
    ev = _Evaluator(field, work_env, dict(sorts), range_budget)
    return CycloScalar(field.p, ev.scalar(term))

"""Exact evaluation of terms over a concrete local field.

A term is compiled once, then called.  ``compile_term(term, field, sorts,
range_budget)`` turns a sort-checked term into a function from a binding (a
dict of variable values, as ``coerce_env`` returns it) to the integer raw
terms ``(e2, j, pK, n, D)`` of its value (``umla.cyclo``); ``evaluate`` is
``check`` (unless the sorts are given), ``compile_term``, ``coerce_env`` and
one call, and it builds the one ``CycloScalar`` of the term at the root.
The term, its sorts, the field and the budget are fixed at compile time, so
one compiled function serves every point of a probe
(``instantiate_b_function`` compiles once per view).

Every node becomes one closure, chosen once.  A subterm compiles at its
sort: field elements as field elements, integers as Python ints with
``ord(0)`` represented by the infinite valuation, residues as canonical field
representatives, q-exponents as exact rationals, and scalars as lists of raw
terms.  The sort class of each comparison (integer, field or residue) is
fixed at compile time, with the variables that ``sum`` and ``sumrf`` bind
sorted in their scope; a constant becomes its raw term or its field
element once.  The closures hold only their operands' closures and
constants, so a compiled term holds no reference cycle.

Scalars are carried as integer raw terms, an input format of
``CycloScalar``: coefficient n / D and angle j / pK on ints, so no node
builds a ``Fraction``.  The canonical form is unique, so one
canonicalisation at the root gives the value per-node arithmetic would.
``+``, ``-``, negation, ``sum`` and ``sumrf`` concatenate term lists; a
constant, ``q^e``, ``psi``, ``ord`` and an indicator emit at most one term,
and no node emits a one-term list with a zero coefficient.  A product
multiplies its one-term factors as raw terms: q-exponents add, angles add
on the larger p-power level, and numerators and denominators multiply.  It
canonicalises each factor of several terms, multiplies those with ``*``
and returns their terms times the product of the one-term factors, so a
product of k sums does not grow to the product of their term counts.
``e^k`` canonicalises its base and each partial power, so a power's terms
are the canonical terms of its value and do not multiply out with k.

Errors.  ``SortError`` is raised by ``check`` (or by compiling against
sorts that do not fit the term), before any value is computed.
``EvalError`` is never raised by compiling; it is raised on each call that
meets it, even when it does not depend on the point.  ``coerce_env`` raises
it for a variable with no value or with a value of the wrong kind (a
``bool`` at any sort; an ``int`` bound to a field variable is lifted to the
field), and the compiled function for ``ord(0)`` where a finite number is
required, ``ac`` of 0, and a ``sum`` or ``sumrf`` that would add more than
``range_budget`` terms.

Two conventions matter for totality:

- Products are lazy: the factors of a scalar product are scanned with
  indicator factors first, and once any factor is exactly zero the whole
  product is zero without evaluating the rest.  ``[cond] * e`` therefore
  never evaluates ``e`` outside the locus of the condition, which is what
  lets guarded terms mention ``ord`` or ``ac`` of expressions that vanish
  elsewhere.  A factor is zero exactly when its canonical scalar is: an
  empty list always is, a single term never is, and a factor of several
  terms is canonicalised to tell.
- The infinite valuation is a legal value inside comparisons and as a range
  endpoint (an empty range), but an error anywhere a finite number is
  required: as a scalar, inside a q-exponent, or as the finite end of a
  summation range.
"""

from __future__ import annotations

import operator
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

__all__ = ["EvalError", "coerce_env", "coerce_value", "compile_term", "evaluate"]


class EvalError(FieldError):
    """The term has no value at this point of the environment."""


def _int_add(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, float) and isinstance(b, float) and (a > 0) != (b > 0):
            raise EvalError("indeterminate sum of opposite infinite valuations")
        return a if isinstance(a, float) else b
    return a + b


def _int_mul(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if a == 0 or b == 0:
            raise EvalError("indeterminate product of zero and an infinite valuation")
        sign = (1 if a > 0 else -1) * (1 if b > 0 else -1)
        return INF * sign
    return a * b


def _int_pow(a, k: int):
    if k == 0:
        return 1
    if isinstance(a, float):
        return a if (a > 0 or k % 2 == 1) else INF
    return a**k


_ONE = (0, 0, 1, 1, 1)
# exact on ints and Fractions alike, so q-exponents use them too
_INT_OPS = (_int_add, lambda a, b: _int_add(a, -b), _int_mul, operator.neg, _int_pow)
_CMP_OPS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le}
_CMP_OPS.update({"<": operator.lt, ">=": operator.ge, ">": operator.gt})


def _fail(message: str):
    """A closure that raises ``EvalError(message)`` when it is called."""

    def fail(env):
        raise EvalError(message)

    return fail


def _constant(value):
    return lambda env: value


def _ring(node: Node, sub, ops):
    """The closure of a +, -, *, negation or power node over ``ops``, its
    operands compiled by ``sub``; None for any other node."""
    add, subtract, mul, neg, power = ops
    op = {Add: add, Sub: subtract, Mul: mul}.get(type(node))
    if op is not None:
        lhs, rhs = sub(node.lhs), sub(node.rhs)
        return lambda env: op(lhs(env), rhs(env))
    if isinstance(node, Neg):
        arg = sub(node.arg)
        return lambda env: neg(arg(env))
    if isinstance(node, Pow):
        base, k = sub(node.base), node.k
        return lambda env: power(base(env), k)
    return None


def _finite_ord(node: Ord, field: LocalField, where: str):
    """The closure of ``ord(arg)`` where ord(0) has no value."""
    val, arg = field.ord, _field(node.arg, field)

    def finite_ord(env):
        v = val(arg(env))
        if isinstance(v, float):
            raise EvalError(f"the valuation of zero {where}")
        return v

    return finite_ord


# -- one compiler per sort: each returns a closure of the binding -------------


def _scalar(node: Node, field: LocalField, sorts: dict, budget: int):
    """The closure of a scalar subterm: its list of integer raw terms.

    The lists are never mutated, so a constant's list is shared.  See the
    module docstring for the raw-term and zero-test rules.
    """
    p = field.p
    if isinstance(node, Const):
        c = node.value
        return _constant([(0, 0, 1, c.numerator, c.denominator)] if c else [])
    if isinstance(node, (Var, Ord)):
        if isinstance(node, Var):
            get = operator.itemgetter(node.name)
        else:
            get = _finite_ord(node, field, "has no scalar value")
        return lambda env: [(0, 0, 1, c, 1)] if (c := get(env)) else []
    if isinstance(node, Neg):
        arg = _scalar(node.arg, field, sorts, budget)
        return lambda env: [(e2, j, pk, -n, d) for e2, j, pk, n, d in arg(env)]
    if isinstance(node, (Add, Sub)):
        rhs = node.rhs if isinstance(node, Add) else Neg(node.rhs)
        lhs, rhs = _scalar(node.lhs, field, sorts, budget), _scalar(rhs, field, sorts, budget)
        return lambda env: lhs(env) + rhs(env)
    if isinstance(node, Mul):
        return _lazy_product(node, field, sorts, budget)
    if isinstance(node, Pow):
        if node.k == 0:
            return _constant([_ONE])
        base, k = _scalar(node.base, field, sorts, budget), node.k

        def power(env):
            out = one = CycloScalar(p, base(env))
            for _ in range(k - 1):
                out = out * one
            return out.raw()

        return power
    if isinstance(node, QPow):
        return _q_power(node.exponent, field, sorts)
    if isinstance(node, Psi):
        angle, arg = field.psi_angle, _field(node.arg, field)

        def psi(env):
            a = angle(arg(env))
            return [(0, a.numerator, a.denominator, 1, 1)]

        return psi
    if isinstance(node, (SumZ, SumRF)):
        return _sum(node, field, sorts, budget)
    if isinstance(node, Indicator):
        cond, one, none = _truth(node.cond, field, sorts), [_ONE], []
        return lambda env: one if cond(env) else none
    return _fail(f"cannot evaluate {type(node).__name__} as a scalar")


def _q_power(exponent: Node, field: LocalField, sorts: dict):
    """q^e: the one raw term (2e, 0, 1, 1, 1)."""
    exp = _int(exponent, field, sorts, q_exp=True)

    def q_power(env):
        e = exp(env)
        if e.denominator not in (1, 2):
            raise EvalError(f"q-exponent {e} is not an integer or half-integer")
        return [(int(e * 2), 0, 1, 1, 1)]

    return q_power


def _lazy_product(node: Mul, field: LocalField, sorts: dict, budget: int):
    """Raw terms of a scalar product, indicator factors decided first.

    A zero factor makes the product zero even when another factor has
    no value at the point, so ``[cond] * e`` restricts ``e`` to the
    condition's locus.
    """
    nodes: list[Node] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Mul):
            stack += (cur.rhs, cur.lhs)
        else:
            nodes.append(cur)
    nodes.sort(key=lambda f: 0 if isinstance(f, Indicator) else 1)
    factors = tuple(_scalar(f, field, sorts, budget) for f in nodes)
    p = field.p

    def product(env):
        # the canonical product of the factors of several terms, and the
        # raw product of the one-term factors
        out, mono = None, _ONE
        for factor in factors:
            terms = factor(env)
            if len(terms) == 1:
                mono = _times(mono, terms[0])
                continue
            value = CycloScalar(p, terms)
            if not value:
                return []
            out = value if out is None else out * value
        if out is None:
            return [mono]
        return [_times(t, mono) for t in out.raw()]

    return product


def _times(s: tuple, t: tuple) -> tuple:
    """The raw term s * t: q-exponents add, angles add on the larger p-power
    level, and numerators and denominators multiply."""
    e2, j, pk, n, d = s
    f, i, qk, m, c = t
    level = max(pk, qk)
    return e2 + f, j * (level // pk) + i * (level // qk), level, n * m, d * c


def _sum(node, field: LocalField, sorts: dict, budget: int):
    """``sum`` over an integer range or ``sumrf`` over the residues of a
    level, the bound variable sorted in the body's scope."""
    var = node.var
    if isinstance(node, SumRF):
        count = field.q**node.level
        if count > budget:
            return _fail(f"summation over {count} residues exceeds the budget of {budget}")
        codes = range(count)
        span = lambda env: codes
        sorts = {**sorts, var: ("res", node.level)}
    else:
        lo, hi = _int(node.lo, field, sorts), _int(node.hi, field, sorts)

        def span(env):
            a, b = lo(env), hi(env)
            if a > b:
                return ()
            if isinstance(a, float) or isinstance(b, float):
                raise EvalError("summation over an unbounded integer range")
            if b - a + 1 > budget:
                raise EvalError(f"summation range of {b - a + 1} exceeds the budget of {budget}")
            return range(a, b + 1)

        sorts = {**sorts, var: ZZ}
    body = _scalar(node.body, field, sorts, budget)

    def total(env):
        inner, terms = dict(env), []
        for i in span(env):
            inner[var] = i
            terms += body(inner)
        return terms

    return total


def _int(node: Node, field: LocalField, sorts: dict, q_exp: bool = False):
    """The closure of an integer subterm, an int or the infinite valuation;
    with ``q_exp``, of a q-exponent, an exact rational where ord(0) has no
    value."""
    if isinstance(node, Const):
        return _constant(node.value if q_exp else int(node.value))
    if isinstance(node, Var):
        return operator.itemgetter(node.name)
    if isinstance(node, Ord):
        if q_exp:
            return _finite_ord(node, field, "cannot appear in a q-exponent")
        val, arg = field.ord, _field(node.arg, field)
        return lambda env: val(arg(env))
    if isinstance(node, Indicator) and not q_exp:
        cond = _truth(node.cond, field, sorts)
        return lambda env: 1 if cond(env) else 0
    sub = lambda n: _int(n, field, sorts, q_exp)
    return _ring(node, sub, _INT_OPS) or _fail(
        f"cannot evaluate {type(node).__name__} "
        + ("in a q-exponent" if q_exp else "as an integer")
    )


def _field(node: Node, field: LocalField, residue: bool = False):
    """The closure of a field subterm, a field element; with ``residue``,
    of a residue subterm, an integral representative."""
    if isinstance(node, Const):
        return _constant(field.from_int(int(node.value)))
    if isinstance(node, Var):
        get = operator.itemgetter(node.name)
        if not residue:
            return get
        lift = field.residue_lift
        return lambda env: lift(get(env))
    if isinstance(node, Ac) and residue:
        arg, ac, lift, k = _field(node.arg, field), field.ac, field.residue_lift, node.level

        def ac_lift(env):
            elem = arg(env)
            if field.is_zero(elem):
                raise EvalError("ac of zero has no value")
            return lift(ac(elem, k))

        return ac_lift
    ops = (field.add, field.sub, field.mul, field.neg, field.power)
    return _ring(node, lambda n: _field(n, field, residue), ops) or _fail(
        f"cannot evaluate {type(node).__name__} "
        + ("as a residue" if residue else "as a field element")
    )


def _truth(node: Node, field: LocalField, sorts: dict):
    """The closure of a condition, each comparison's sort fixed here."""
    if isinstance(node, (And, Or)):
        lhs, rhs = _truth(node.lhs, field, sorts), _truth(node.rhs, field, sorts)
        if isinstance(node, And):
            return lambda env: lhs(env) and rhs(env)
        return lambda env: lhs(env) or rhs(env)
    if isinstance(node, Not):
        arg = _truth(node.arg, field, sorts)
        return lambda env: not arg(env)
    if not isinstance(node, Cmp):
        return _fail(f"cannot evaluate {type(node).__name__} as a condition")
    sort, want = classify_cmp(node, sorts.get), node.op == "=="
    if sort == VF:
        lhs, rhs = _field(node.lhs, field), _field(node.rhs, field)
        sub, is_zero = field.sub, field.is_zero
        return lambda env: is_zero(sub(lhs(env), rhs(env))) == want
    if isinstance(sort, tuple):
        m = sort[1]
        lhs, rhs = _field(node.lhs, field, True), _field(node.rhs, field, True)
        code, trunc = field.residue_code, field.canon_trunc
        return lambda env: (
            code(trunc(lhs(env), m), 0) == code(trunc(rhs(env), m), 0)
        ) == want
    op, lhs, rhs = _CMP_OPS[node.op], _int(node.lhs, field, sorts), _int(node.rhs, field, sorts)
    return lambda env: op(lhs(env), rhs(env))


# -- the public entry points --------------------------------------------------


def compile_term(
    term: Node, field: LocalField, sorts: dict, range_budget: int = DEFAULT_CELL_BUDGET
):
    """The term as a function from a binding to its integer raw terms.

    ``sorts`` maps every free variable to its sort (as ``check`` returns
    it); the binding maps every free variable to its value as
    ``coerce_env`` returns it.  ``CycloScalar(field.p, run(binding))`` is
    the value of the term.  Raises ``SortError`` only when ``sorts`` do not
    fit the term; every ``EvalError`` is raised by the call.
    """
    return _scalar(term, field, dict(sorts), range_budget)


_SORT_WORDS = {VF: "field", ZZ: "integer"}


def coerce_value(field: LocalField, name: str, sort, value):
    """The value of variable ``name`` at its sort, or ``EvalError``.

    Field variables take field elements (ints are lifted), integer ones
    ints (or integral Fractions), residue ones their codes in [0, q^m).
    A ``bool`` is rejected at every sort.
    """
    if isinstance(value, bool):
        raise EvalError(f"{_SORT_WORDS.get(sort, 'residue')} variable {name!r} bound to bool")
    if sort == VF:
        return field.from_int(value) if isinstance(value, int) else value
    if sort == ZZ:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise EvalError(f"integer variable {name!r} bound to {value}")
            value = int(value)
        if not isinstance(value, int):
            raise EvalError(f"integer variable {name!r} bound to {type(value).__name__}")
        return value
    m = sort[1]
    if not isinstance(value, int) or not 0 <= value < field.q**m:
        raise EvalError(f"residue variable {name!r} needs a code in [0, q^{m})")
    return value


def coerce_env(field: LocalField, env, sorts) -> dict:
    """The binding of every variable in ``sorts``, by ``coerce_value``;
    ``EvalError`` names the first variable with no value."""
    env = env or {}
    out = {}
    for name, sort in sorts.items():
        if name not in env:
            raise EvalError(f"no value supplied for variable {name!r}")
        out[name] = coerce_value(field, name, sort, env[name])
    return out


def evaluate(
    term: Node,
    field: LocalField,
    env=None,
    declared=None,
    range_budget: int = DEFAULT_CELL_BUDGET,
    sorts=None,
) -> CycloScalar:
    """Evaluate a term to an exact scalar: compile it, then call it once.

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
    run = compile_term(term, field, sorts, range_budget)
    return CycloScalar(field.p, run(coerce_env(field, env, sorts)))

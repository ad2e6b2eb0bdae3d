"""Sort checking for the term language.

Every expression position carries a sort:

- ``VF``: an element of the field,
- ``ZZ``: an integer (values of ``ord``, summation indices),
- ``RF(m)``: a residue modulo the m-th uniformizer power,
- ``SC``: the scalar values the whole term produces.

Integers embed into scalars, so a ``ZZ``-sorted subterm is accepted wherever
a scalar is expected.  Exponents of ``q`` live in a restricted context: they
must be integer-linear — sums of integer constants, integer variables, and
``ord``-terms with constant coefficients (half-integer constants are allowed
so that ``q^(1/2)`` is expressible).

``check`` infers the sorts of the free variables, raising ``SortError`` when
a subterm is used inconsistently.  The error carries the path of attribute
names from the root to the offending node.
"""

from __future__ import annotations

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
    walk,
)

__all__ = ["SortError", "VF", "ZZ", "SC", "check", "classify_cmp"]

VF = "field"
ZZ = "int"
SC = "scalar"
_QI = "q-exponent"


def RF(level: int) -> tuple:
    """Sort of residues modulo the level-th uniformizer power."""
    return ("res", int(level))


def sort_name(sort) -> str:
    if isinstance(sort, tuple) and sort and sort[0] == "res":
        return f"residue(level {sort[1]})"
    if sort == _QI:
        return "q-exponent (integer-linear)"
    return str(sort)


class SortError(ValueError):
    """A subterm is used at an incompatible sort; path locates the node."""

    def __init__(self, message: str, path: tuple = ()):
        where = ".".join(path) if path else "root"
        super().__init__(f"{message} (at {where})")
        self.path = tuple(path)


_CONST_NODES = (Const, Add, Sub, Mul, Neg, Pow)


def is_const_expr(node: Node) -> bool:
    """True when the expression is built purely from constants."""
    return all(isinstance(n, _CONST_NODES) for n in walk(node))


class _Checker:
    def __init__(self, declared):
        self.vars: dict[str, object] = dict(declared or {})
        self.bound: list[dict[str, object]] = []

    # -- variable handling ---------------------------------------------------

    def lookup(self, name: str):
        for frame in reversed(self.bound):
            if name in frame:
                return frame[name]
        return self.vars.get(name)

    def pin(self, name: str, sort, path):
        for frame in reversed(self.bound):
            if name in frame:
                if frame[name] != sort:
                    raise SortError(
                        f"bound variable {name!r} has sort "
                        f"{sort_name(frame[name])}, used as {sort_name(sort)}",
                        path,
                    )
                return
        known = self.vars.get(name)
        if known is None:
            self.vars[name] = sort
        elif known != sort:
            raise SortError(
                f"variable {name!r} has sort {sort_name(known)}, "
                f"used as {sort_name(sort)}",
                path,
            )

    # -- expression checking ---------------------------------------------------

    def expr(self, node: Node, expected, path: tuple) -> None:
        if isinstance(node, Const):
            if expected in (SC, _QI):
                return
            if node.value.denominator != 1:
                raise SortError(
                    f"non-integer constant {node.value} at sort {sort_name(expected)}",
                    path,
                )
            return
        if isinstance(node, Var):
            if expected == SC:
                # scalars have no variables of their own; an unknown name
                # becomes an integer, which embeds into scalars
                known = self.lookup(node.name)
                if known is None:
                    self.pin(node.name, ZZ, path)
                elif known not in (ZZ,) and not (
                    isinstance(known, tuple) and known[0] == "res"
                ):
                    raise SortError(
                        f"variable {node.name!r} has sort {sort_name(known)}, "
                        "used as a scalar",
                        path,
                    )
                return
            if expected == _QI:
                known = self.lookup(node.name)
                if known is None:
                    self.pin(node.name, ZZ, path)
                elif known != ZZ:
                    raise SortError(
                        f"variable {node.name!r} has sort {sort_name(known)}, "
                        "used in a q-exponent",
                        path,
                    )
                return
            self.pin(node.name, expected, path)
            return
        if isinstance(node, (Add, Sub)):
            self.expr(node.lhs, expected, path + ("lhs",))
            self.expr(node.rhs, expected, path + ("rhs",))
            return
        if isinstance(node, Mul):
            if expected == _QI:
                # linearity: at least one factor must be constant
                if not (is_const_expr(node.lhs) or is_const_expr(node.rhs)):
                    raise SortError(
                        "q-exponent must be integer-linear: a product needs "
                        "a constant factor",
                        path,
                    )
            self.expr(node.lhs, expected, path + ("lhs",))
            self.expr(node.rhs, expected, path + ("rhs",))
            return
        if isinstance(node, Neg):
            self.expr(node.arg, expected, path + ("arg",))
            return
        if isinstance(node, Pow):
            if expected == _QI and not is_const_expr(node):
                raise SortError(
                    "q-exponent must be integer-linear: powers of "
                    "non-constants are not allowed",
                    path,
                )
            self.expr(node.base, expected, path + ("base",))
            return
        if isinstance(node, Ord):
            if expected not in (ZZ, SC, _QI):
                raise SortError(
                    f"ord produces an integer, not {sort_name(expected)}", path
                )
            self.expr(node.arg, VF, path + ("arg",))
            return
        if isinstance(node, Ac):
            if not (isinstance(expected, tuple) and expected[0] == "res"):
                raise SortError(
                    f"ac produces a residue, not {sort_name(expected)}", path
                )
            if expected[1] != node.level:
                raise SortError(
                    f"ac level {node.level} where a level-{expected[1]} "
                    "residue is expected",
                    path,
                )
            self.expr(node.arg, VF, path + ("arg",))
            return
        if isinstance(node, QPow):
            if expected != SC:
                raise SortError(
                    f"q-power produces a scalar, not {sort_name(expected)}", path
                )
            self.expr(node.exponent, _QI, path + ("exponent",))
            return
        if isinstance(node, Psi):
            if expected != SC:
                raise SortError(
                    f"psi produces a scalar, not {sort_name(expected)}", path
                )
            self.expr(node.arg, VF, path + ("arg",))
            return
        if isinstance(node, SumZ):
            if expected != SC:
                raise SortError(
                    f"sum produces a scalar, not {sort_name(expected)}", path
                )
            self.expr(node.lo, ZZ, path + ("lo",))
            self.expr(node.hi, ZZ, path + ("hi",))
            self.bound.append({node.var: ZZ})
            try:
                self.expr(node.body, SC, path + ("body",))
            finally:
                self.bound.pop()
            return
        if isinstance(node, SumRF):
            if expected != SC:
                raise SortError(
                    f"sumrf produces a scalar, not {sort_name(expected)}", path
                )
            self.bound.append({node.var: RF(node.level)})
            try:
                self.expr(node.body, SC, path + ("body",))
            finally:
                self.bound.pop()
            return
        if isinstance(node, Indicator):
            if expected not in (SC, ZZ):
                raise SortError(
                    f"indicator produces 0 or 1, not {sort_name(expected)}", path
                )
            self.cond(node.cond, path + ("cond",))
            return
        raise SortError("condition node in expression position", path)

    # -- condition checking ------------------------------------------------------

    def cond(self, node: Node, path: tuple) -> None:
        if isinstance(node, (And, Or)):
            self.cond(node.lhs, path + ("lhs",))
            self.cond(node.rhs, path + ("rhs",))
            return
        if isinstance(node, Not):
            self.cond(node.arg, path + ("arg",))
            return
        if isinstance(node, Cmp):
            sort = classify_cmp(node, self.lookup, path)
            if sort == VF or (isinstance(sort, tuple) and sort[0] == "res"):
                if node.op not in ("==", "!="):
                    raise SortError(
                        f"order comparison {node.op!r} on "
                        f"{sort_name(sort)} operands",
                        path,
                    )
            self.expr(node.lhs, sort, path + ("lhs",))
            self.expr(node.rhs, sort, path + ("rhs",))
            return
        raise SortError("expression node in condition position", path)


def _cmp_evidence(node: Node, lookup, path, out: set) -> None:
    """Collect sort evidence from a comparison operand.

    Only the outer arithmetic shell is examined: the arguments of ``ord``
    and ``ac`` live in the field regardless of what the comparison is
    about, so the walk does not descend into them.
    """
    if isinstance(node, Const):
        return
    if isinstance(node, Var):
        known = lookup(node.name)
        if known is not None:
            out.add(("res", known[1]) if isinstance(known, tuple) else known)
        return
    if isinstance(node, (Add, Sub, Mul)):
        _cmp_evidence(node.lhs, lookup, path, out)
        _cmp_evidence(node.rhs, lookup, path, out)
        return
    if isinstance(node, Neg):
        _cmp_evidence(node.arg, lookup, path, out)
        return
    if isinstance(node, Pow):
        _cmp_evidence(node.base, lookup, path, out)
        return
    if isinstance(node, Ord):
        out.add(ZZ)
        return
    if isinstance(node, Ac):
        out.add(("res", node.level))
        return
    raise SortError(
        "conditions compare valuations, residues, or polynomials; "
        f"{type(node).__name__.lower()} is not allowed in a comparison",
        path,
    )


def classify_cmp(node: Cmp, lookup, path: tuple = ()) -> str | tuple:
    """The operand sort of a comparison: ``ZZ``, ``VF`` or ``RF(level)``.

    ``lookup`` maps a variable name to its known sort or None.  Residue
    evidence wins (all residue levels must agree); bare field evidence makes
    a field equality; otherwise the comparison is between integers.
    """
    evidence: set = set()
    _cmp_evidence(node.lhs, lookup, path + ("lhs",), evidence)
    _cmp_evidence(node.rhs, lookup, path + ("rhs",), evidence)
    res_levels = {s[1] for s in evidence if isinstance(s, tuple)}
    if res_levels:
        if len(res_levels) > 1:
            raise SortError(
                f"residue levels {sorted(res_levels)} mixed in one comparison",
                path,
            )
        level = next(iter(res_levels))
        others = evidence - {("res", level)}
        if others:
            raise SortError(
                "residues compared against "
                f"{', '.join(sort_name(s) for s in sorted(others, key=str))}",
                path,
            )
        return RF(level)
    if VF in evidence:
        if ZZ in evidence:
            raise SortError("field and integer operands mixed in one comparison", path)
        return VF
    return ZZ


def check(term: Node, declared=None) -> dict:
    """Infer free-variable sorts; raises SortError on inconsistent use.

    ``declared`` optionally pre-assigns sorts (``VF``, ``ZZ``, or
    ``RF(m)``) to named variables.  Returns a dict mapping every free
    variable to its inferred sort.
    """
    checker = _Checker(declared)
    checker.expr(term, SC, ())
    return dict(checker.vars)

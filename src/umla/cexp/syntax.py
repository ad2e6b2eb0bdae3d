"""Term language for exact scalar-valued functions on a local field.

The grammar covers the concrete formulas the rest of the library works with:
integer and rational constants, polynomials in field variables, ``ord(e)``,
``ac[m](e)``, ``psi(e)``, ``q^(L)`` with an integer-linear exponent, products
and sums, bounded summation ``sum(i, a..b, e)`` over an integer range and
``sumrf(r, m, e)`` over the residues modulo the m-th power of the
uniformizer, and indicator factors ``[cond]`` whose conditions are boolean
combinations of valuation comparisons, residue equalities, and polynomial
equalities.

Unary minus binds looser than ``^`` and tighter than ``*``: ``-x^2`` is
``-(x^2)`` and ``2*-x`` is ``2*(-x)``.  The polynomial subset (integer
constants, variables, ``+``, ``-``, ``*`` and ``^``) is also what
``umla.polys.parse_poly`` reads, so integer polynomials have one grammar in
the library.

The printer is canonical: ``parse(render(t))`` reproduces ``t`` node for
node.  Constants are kept non-negative (a leading minus parses as a ``Neg``
node), which is what makes the round trip structural rather than merely
semantic.

Node shapes are declared once, by the dataclass fields of each node class:
``children``, ``substitute`` and the JSON form all read them from there.  A
node's JSON keys are its field names, plus ``"node"`` holding its tag, the
lower-cased class name (``"sum"`` for ``SumZ``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, Mapping

__all__ = [
    "CexpSyntaxError",
    "Node",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Neg",
    "Pow",
    "Ord",
    "Ac",
    "QPow",
    "Psi",
    "SumZ",
    "SumRF",
    "Indicator",
    "Cmp",
    "And",
    "Or",
    "Not",
    "parse",
    "render",
    "walk",
    "substitute",
    "term_to_json",
    "term_from_json",
]


class CexpSyntaxError(ValueError):
    """Unparseable source text; ``offset`` is the failing position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Node:
    """Base class for every expression and condition node."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Node):
    """Non-negative rational constant; negatives are spelled with Neg."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise ValueError("constants are non-negative; wrap with Neg")


@dataclass(frozen=True, slots=True)
class Var(Node):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Sub(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Mul(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True, slots=True)
class Pow(Node):
    base: Node
    k: int

    def __post_init__(self):
        if int(self.k) < 0:
            raise ValueError("powers take non-negative integer exponents")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True, slots=True)
class Ord(Node):
    """Valuation of a field expression (integer-sorted value)."""

    arg: Node


@dataclass(frozen=True, slots=True)
class Ac(Node):
    """Angular component modulo the level-th uniformizer power."""

    level: int
    arg: Node

    def __post_init__(self):
        if int(self.level) < 1:
            raise ValueError("ac level must be positive")
        object.__setattr__(self, "level", int(self.level))


@dataclass(frozen=True, slots=True)
class QPow(Node):
    """q raised to an integer-linear exponent (half-integers allowed)."""

    exponent: Node


@dataclass(frozen=True, slots=True)
class Psi(Node):
    """Standard additive character of a field expression."""

    arg: Node


@dataclass(frozen=True, slots=True)
class SumZ(Node):
    """Sum of the body over an inclusive integer range."""

    var: str
    lo: Node
    hi: Node
    body: Node


@dataclass(frozen=True, slots=True)
class SumRF(Node):
    """Sum of the body over all residues modulo uniformizer^level."""

    var: str
    level: int
    body: Node

    def __post_init__(self):
        if int(self.level) < 1:
            raise ValueError("residue level must be positive")
        object.__setattr__(self, "level", int(self.level))


@dataclass(frozen=True, slots=True)
class Indicator(Node):
    """0/1 valued truth value of a condition."""

    cond: Node


@dataclass(frozen=True, slots=True)
class Cmp(Node):
    """Atomic condition comparing two expressions."""

    op: str
    lhs: Node
    rhs: Node

    def __post_init__(self):
        if self.op not in ("==", "!=", "<=", "<", ">=", ">"):
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class And(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Or(Node):
    lhs: Node
    rhs: Node


@dataclass(frozen=True, slots=True)
class Not(Node):
    arg: Node


_RESERVED = {"q", "ord", "ac", "psi", "sum", "sumrf", "and", "or", "not"}


# Each node's shape is its dataclass fields: (name, annotation) pairs in field
# order, where the annotation is one of "Node", "str", "int" and "Fraction".
_NODE_CLASSES = (
    Const, Var, Add, Sub, Mul, Neg, Pow, Ord, Ac, QPow, Psi,
    SumZ, SumRF, Indicator, Cmp, And, Or, Not,
)
_SHAPES = {cls: tuple((f.name, f.type) for f in fields(cls)) for cls in _NODE_CLASSES}
_BINDERS = (SumZ, SumRF)  # bind ``var`` in ``body`` only
_TAGS = {cls: "sum" if cls is SumZ else cls.__name__.lower() for cls in _NODE_CLASSES}
_CLASS_OF_TAG = {tag: cls for cls, tag in _TAGS.items()}
_COERCE = {"str": str, "int": int, "Fraction": Fraction}


def _shape(node: Node) -> tuple:
    try:
        return _SHAPES[type(node)]
    except KeyError:
        raise TypeError(f"not a term node: {node!r}") from None


def children(node: Node) -> tuple[Node, ...]:
    """Immediate sub-nodes, in field order."""
    return tuple(getattr(node, name) for name, kind in _shape(node) if kind == "Node")


def walk(node: Node) -> Iterator[Node]:
    """Yield the node and all descendants, depth first."""
    yield node
    for child in children(node):
        yield from walk(child)


def substitute(node: Node, subs: Mapping[str, Node]) -> Node:
    """Replace free variables by terms; binders shadow their own names."""
    if isinstance(node, Var):
        return subs.get(node.name, node)
    shape = _shape(node)
    inner = subs
    if isinstance(node, _BINDERS):
        inner = {k: v for k, v in subs.items() if k != node.var}
    return type(node)(
        *(
            substitute(getattr(node, name), inner if name == "body" else subs)
            if kind == "Node"
            else getattr(node, name)
            for name, kind in shape
        )
    )


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\.\.|==|!=|<=|>=|[-+*^/()\[\],<>]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, offset); kind in {'int', 'name', 'op', 'end'}."""
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = pos
            while stripped < len(src) and src[stripped].isspace():
                stripped += 1
            if stripped == len(src):
                break
            raise CexpSyntaxError(
                f"unexpected character {src[stripped]!r}", stripped
            )
        for kind in ("int", "name", "op"):
            text = m.group(kind)
            if text is not None:
                out.append((kind, text, m.start(kind)))
                break
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


# ---------------------------------------------------------------------------
# Parser (recursive descent, conditions with local backtracking)
# ---------------------------------------------------------------------------

_REL_OPS = ("==", "!=", "<=", ">=", "<", ">")


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> CexpSyntaxError:
        kind, text, offset = self.peek()
        seen = "end of input" if kind == "end" else repr(text)
        return CexpSyntaxError(f"{message}, found {seen}", offset)

    def expect_op(self, op: str) -> None:
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            self.advance()
            return
        raise self.fail(f"expected {op!r}")

    def expect_int(self) -> int:
        kind, text, _ = self.peek()
        if kind == "int":
            self.advance()
            return int(text)
        raise self.fail("expected an integer")

    def expect_name(self) -> str:
        kind, text, _ = self.peek()
        if kind == "name" and text not in _RESERVED:
            self.advance()
            return text
        raise self.fail("expected a variable name")

    def at_op(self, *ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def at_name(self, *names: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "name" and text in names

    # -- expressions ---------------------------------------------------------

    def expr(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.at_op("*"):
            self.advance()
            node = Mul(node, self.unary())
        return node

    def unary(self) -> Node:
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            return Pow(node, self.expect_int())
        return node

    def atom(self) -> Node:
        kind, text, offset = self.peek()
        if kind == "int":
            self.advance()
            value = Fraction(int(text))
            if self.at_op("/"):
                self.advance()
                denom = self.expect_int()
                if denom == 0:
                    raise CexpSyntaxError("zero denominator", offset)
                value = Fraction(int(text), denom)
            return Const(value)
        if kind == "name":
            return self.named_atom(text)
        if kind == "op" and text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and text == "[":
            self.advance()
            cond = self.cond()
            self.expect_op("]")
            return Indicator(cond)
        raise self.fail("expected an expression")

    def named_atom(self, text: str) -> Node:
        if text == "q":
            self.advance()
            if self.at_op("^"):
                self.advance()
                self.expect_op("(")
                exponent = self.expr()
                self.expect_op(")")
                return QPow(exponent)
            return QPow(Const(Fraction(1)))
        if text == "ord":
            self.advance()
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Ord(arg)
        if text == "ac":
            self.advance()
            self.expect_op("[")
            level = self.expect_int()
            self.expect_op("]")
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Ac(level, arg)
        if text == "psi":
            self.advance()
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Psi(arg)
        if text == "sum":
            self.advance()
            self.expect_op("(")
            var = self.expect_name()
            self.expect_op(",")
            lo = self.expr()
            self.expect_op("..")
            hi = self.expr()
            self.expect_op(",")
            body = self.expr()
            self.expect_op(")")
            return SumZ(var, lo, hi, body)
        if text == "sumrf":
            self.advance()
            self.expect_op("(")
            var = self.expect_name()
            self.expect_op(",")
            level = self.expect_int()
            self.expect_op(",")
            body = self.expr()
            self.expect_op(")")
            return SumRF(var, level, body)
        if text in _RESERVED:
            raise self.fail("keyword in expression position")
        self.advance()
        return Var(text)

    # -- conditions ------------------------------------------------------------

    def cond(self) -> Node:
        node = self.cond_and()
        while self.at_name("or"):
            self.advance()
            node = Or(node, self.cond_and())
        return node

    def cond_and(self) -> Node:
        node = self.cond_not()
        while self.at_name("and"):
            self.advance()
            node = And(node, self.cond_not())
        return node

    def cond_not(self) -> Node:
        if self.at_name("not"):
            self.advance()
            return Not(self.cond_not())
        return self.cond_atom()

    def cond_atom(self) -> Node:
        if self.at_op("("):
            # either a parenthesized condition or a parenthesized expression
            # starting a comparison; try the condition reading first
            saved = self.pos
            try:
                self.advance()
                inner = self.cond()
                self.expect_op(")")
                return inner
            except CexpSyntaxError:
                self.pos = saved
        return self.cmp()

    def cmp(self) -> Node:
        lhs = self.expr()
        kind, text, _ = self.peek()
        if kind == "op" and text in _REL_OPS:
            self.advance()
            rhs = self.expr()
            return Cmp(text, lhs, rhs)
        raise self.fail("expected a comparison operator")


def parse(src: str) -> Node:
    """Parse source text into a term; raises CexpSyntaxError with an offset."""
    parser = _Parser(src)
    node = parser.expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise parser.fail("trailing input")
    return node


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5
_CLEVEL_OR, _CLEVEL_AND, _CLEVEL_NOT, _CLEVEL_CMP = 1, 2, 3, 4


def _pe(node: Node, min_level: int) -> str:
    text, level = _render_expr(node)
    return f"({text})" if level < min_level else text


def _render_expr(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        return str(node.value), _LEVEL_ATOM
    if isinstance(node, Var):
        return node.name, _LEVEL_ATOM
    if isinstance(node, Add):
        return f"{_pe(node.lhs, _LEVEL_ADD)} + {_pe(node.rhs, _LEVEL_MUL)}", _LEVEL_ADD
    if isinstance(node, Sub):
        return f"{_pe(node.lhs, _LEVEL_ADD)} - {_pe(node.rhs, _LEVEL_MUL)}", _LEVEL_ADD
    if isinstance(node, Mul):
        return f"{_pe(node.lhs, _LEVEL_MUL)} * {_pe(node.rhs, _LEVEL_NEG)}", _LEVEL_MUL
    if isinstance(node, Neg):
        return f"-{_pe(node.arg, _LEVEL_NEG)}", _LEVEL_NEG
    if isinstance(node, Pow):
        return f"{_pe(node.base, _LEVEL_ATOM)}^{node.k}", _LEVEL_POW
    if isinstance(node, Ord):
        return f"ord({_pe(node.arg, 0)})", _LEVEL_ATOM
    if isinstance(node, Ac):
        return f"ac[{node.level}]({_pe(node.arg, 0)})", _LEVEL_ATOM
    if isinstance(node, Psi):
        return f"psi({_pe(node.arg, 0)})", _LEVEL_ATOM
    if isinstance(node, QPow):
        return f"q^({_pe(node.exponent, 0)})", _LEVEL_ATOM
    if isinstance(node, SumZ):
        parts = (node.var, _pe(node.lo, 0), _pe(node.hi, 0), _pe(node.body, 0))
        return "sum({}, {}..{}, {})".format(*parts), _LEVEL_ATOM
    if isinstance(node, SumRF):
        return f"sumrf({node.var}, {node.level}, {_pe(node.body, 0)})", _LEVEL_ATOM
    if isinstance(node, Indicator):
        return f"[{_pc(node.cond, 0)}]", _LEVEL_ATOM
    raise TypeError(f"not an expression node: {node!r}")


def _pc(node: Node, min_level: int) -> str:
    text, level = _render_cond(node)
    return f"({text})" if level < min_level else text


def _render_cond(node: Node) -> tuple[str, int]:
    if isinstance(node, Or):
        return f"{_pc(node.lhs, _CLEVEL_OR)} or {_pc(node.rhs, _CLEVEL_AND)}", _CLEVEL_OR
    if isinstance(node, And):
        return f"{_pc(node.lhs, _CLEVEL_AND)} and {_pc(node.rhs, _CLEVEL_NOT)}", _CLEVEL_AND
    if isinstance(node, Not):
        return f"not {_pc(node.arg, _CLEVEL_NOT)}", _CLEVEL_NOT
    if isinstance(node, Cmp):
        return f"{_pe(node.lhs, 0)} {node.op} {_pe(node.rhs, 0)}", _CLEVEL_CMP
    raise TypeError(f"not a condition node: {node!r}")


def render(node: Node) -> str:
    """Canonical text; parse(render(t)) == t node for node."""
    return _pe(node, 0)


# ---------------------------------------------------------------------------
# JSON form (alternative input/output format for ASTs)
# ---------------------------------------------------------------------------


def term_to_json(node: Node) -> dict:
    shape = _shape(node)
    out = {"node": _TAGS[type(node)]}
    for name, kind in shape:
        value = getattr(node, name)
        if kind == "Node":
            value = term_to_json(value)
        elif kind == "Fraction":
            value = str(value)
        out[name] = value
    return out


def term_from_json(obj: dict) -> Node:
    if not isinstance(obj, dict) or "node" not in obj:
        raise ValueError(f"not a term object: {obj!r}")
    tag = obj["node"]
    cls = _CLASS_OF_TAG.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"unknown term node tag {tag!r}")
    return cls(
        *(
            term_from_json(obj[name]) if kind == "Node" else _COERCE[kind](obj[name])
            for name, kind in _SHAPES[cls]
        )
    )

"""Term language: parsing, sorts, exact evaluation, and term-defined families.

Frozen values are computed by hand from the evaluation rules (geometric sums,
character values, residue counts); structural laws (round trips, sum
splitting, substitution) run as seeded random property loops.
"""

import gc
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umla.cexp import (
    Ac,
    Add,
    And,
    CexpSyntaxError,
    Cmp,
    Const,
    EvalError,
    FamilyDistribution,
    Indicator,
    Mul,
    Neg,
    Not,
    Or,
    Ord,
    Pow,
    Psi,
    QPow,
    RF,
    SortError,
    Sub,
    SumRF,
    SumZ,
    VF,
    Var,
    ZZ,
    check,
    dis_sample,
    evaluate,
    instantiate_b_function,
    parse,
    render,
    substitute,
    term_from_json,
    term_to_json,
    walk,
)
from umla.cexp.family import _ball_raw, _random_point
from umla.cyclo import CycloScalar
from umla.distribution import MixedCellDistribution, additivity_check
from umla.fields import FieldError, Polyball, make_field

from conftest import FIELDS, rng_for, sample_element, sample_nonzero
from oracles import children_by_field_ops, eval_per_node, point_by_digits
from test_schwartz import random_sb

Q2 = FIELDS["Q2"]
Q3 = FIELDS["Q3"]
Q5 = FIELDS["Q5"]
F3 = FIELDS["F3t"]


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def test_parse_basic_shapes():
    assert parse("x + 2*y") == Add(Var("x"), Mul(Const(Fraction(2)), Var("y")))
    assert parse("-x^2") == Neg(Pow(Var("x"), 2))
    assert parse("(-x)^2") == Pow(Neg(Var("x")), 2)
    assert parse("1/2") == Const(Fraction(1, 2))
    assert parse("q") == QPow(Const(Fraction(1)))
    assert parse("q^(-ord(x))") == QPow(Neg(Ord(Var("x"))))
    assert parse("ac[2](x - 1)") == Ac(2, Sub(Var("x"), Const(Fraction(1))))
    assert parse("sum(i, 0..3, q^(-i))") == SumZ(
        "i", Const(Fraction(0)), Const(Fraction(3)), QPow(Neg(Var("i")))
    )
    assert parse("sumrf(u, 1, u)") == SumRF("u", 1, Var("u"))
    assert parse("[x == 0]") == Indicator(Cmp("==", Var("x"), Const(Fraction(0))))


def test_parse_condition_connectives():
    got = parse("[not (x == 0 or y == 0) and ord(x) >= 1]")
    want = Indicator(
        And(
            Not(
                Or(
                    Cmp("==", Var("x"), Const(Fraction(0))),
                    Cmp("==", Var("y"), Const(Fraction(0))),
                )
            ),
            Cmp(">=", Ord(Var("x")), Const(Fraction(1))),
        )
    )
    assert got == want


def test_parse_parenthesized_comparison_operand():
    # '(' opens both conditions and expressions; the parser must back off
    # to the expression reading when a comparison operator follows.
    got = parse("[(x + 1) == 0]")
    assert got == Indicator(
        Cmp("==", Add(Var("x"), Const(Fraction(1))), Const(Fraction(0)))
    )


def test_parse_error_offsets():
    # [DERIVED] unclosed call: the failure is at the end of the 7-char input.
    with pytest.raises(CexpSyntaxError) as info:
        parse("ac[1](x")
    assert info.value.offset == 7
    with pytest.raises(CexpSyntaxError) as info:
        parse("q^2")  # exponent of q needs parentheses
    assert info.value.offset == 2
    with pytest.raises(CexpSyntaxError) as info:
        parse("x + $y")
    assert info.value.offset == 4
    with pytest.raises(CexpSyntaxError) as info:
        parse("sum(0, 1..2, x)")  # binder must be a variable name
    assert info.value.offset == 4
    with pytest.raises(CexpSyntaxError) as info:
        parse("x y")
    assert info.value.offset == 2
    with pytest.raises(CexpSyntaxError) as info:
        parse("1/0")
    assert info.value.offset == 0


def test_keywords_rejected_as_variables():
    for bad in ("sum", "ord", "psi", "and"):
        with pytest.raises(CexpSyntaxError):
            parse(f"{bad} + 1")


def test_render_canonical_examples():
    assert render(parse("x + -y")) == "x + -y"
    assert render(parse("-(x * y)")) == "-(x * y)"
    assert render(parse("(x^2)^3")) == "(x^2)^3"
    assert render(parse("x - (y - z)")) == "x - (y - z)"
    assert render(parse("(x - y) - z")) == "x - y - z"
    assert render(parse("q^( 1/2+3*ord( x ) )")) == "q^(1/2 + 3 * ord(x))"


def test_walk_counts_nodes():
    term = parse("q^(-2*ord(x)) * psi(x)")
    assert sum(1 for node in walk(term) if isinstance(node, Ord)) == 1
    assert sum(1 for node in walk(term) if isinstance(node, Var)) == 2


def test_const_rejects_negative_values():
    with pytest.raises(ValueError):
        Const(Fraction(-1))


# ---------------------------------------------------------------------------
# random round trips: text and JSON
# ---------------------------------------------------------------------------

_FIELD_VARS = ("x", "y", "z")
_INT_VARS = ("i0", "j0", "k0")


def _gen_field(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Var(rng.choice(_FIELD_VARS))
        return Const(Fraction(rng.randrange(0, 9)))
    pick = rng.randrange(5)
    if pick == 0:
        return Add(_gen_field(rng, depth - 1), _gen_field(rng, depth - 1))
    if pick == 1:
        return Sub(_gen_field(rng, depth - 1), _gen_field(rng, depth - 1))
    if pick == 2:
        return Mul(_gen_field(rng, depth - 1), _gen_field(rng, depth - 1))
    if pick == 3:
        return Neg(_gen_field(rng, depth - 1))
    return Pow(_gen_field(rng, depth - 1), rng.randrange(0, 4))


def _gen_int(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        pick = rng.randrange(3)
        if pick == 0:
            return Const(Fraction(rng.randrange(0, 9)))
        if pick == 1:
            return Var(rng.choice(_INT_VARS))
        return Ord(_gen_field(rng, depth - 1))
    pick = rng.randrange(4)
    if pick == 0:
        return Add(_gen_int(rng, depth - 1), _gen_int(rng, depth - 1))
    if pick == 1:
        return Sub(_gen_int(rng, depth - 1), _gen_int(rng, depth - 1))
    if pick == 2:
        return Neg(_gen_int(rng, depth - 1))
    return Mul(Const(Fraction(rng.randrange(0, 5))), _gen_int(rng, depth - 1))


def _gen_qexp(rng: random.Random, depth: int):
    base = _gen_int(rng, depth)
    if rng.random() < 0.3:
        return Add(Const(Fraction(rng.randrange(0, 3), rng.choice((1, 2)))), base)
    return base


def _gen_res(rng: random.Random, depth: int, level: int, binders):
    usable = [name for name, m in binders if m == level]
    if depth <= 0 or rng.random() < 0.5:
        if usable and rng.random() < 0.5:
            return Var(rng.choice(usable))
        if rng.random() < 0.5:
            return Ac(level, _gen_field(rng, depth - 1))
        return Const(Fraction(rng.randrange(0, 5)))
    pick = rng.randrange(3)
    if pick == 0:
        return Add(
            _gen_res(rng, depth - 1, level, binders),
            _gen_res(rng, depth - 1, level, binders),
        )
    if pick == 1:
        return Mul(
            _gen_res(rng, depth - 1, level, binders),
            _gen_res(rng, depth - 1, level, binders),
        )
    return Neg(_gen_res(rng, depth - 1, level, binders))


def _gen_cmp(rng: random.Random, depth: int, binders):
    pick = rng.randrange(3)
    if pick == 0:
        op = rng.choice(("==", "!=", "<=", "<", ">=", ">"))
        return Cmp(op, _gen_int(rng, depth), _gen_int(rng, depth))
    if pick == 1:
        op = rng.choice(("==", "!="))
        lhs = _gen_field(rng, depth)
        if not any(isinstance(n, Var) for n in walk(lhs)):
            lhs = Add(lhs, Var(rng.choice(_FIELD_VARS)))
        return Cmp(op, lhs, _gen_field(rng, depth))
    level = rng.choice((1, 2))
    op = rng.choice(("==", "!="))
    lhs = Ac(level, _gen_field(rng, depth))
    return Cmp(op, lhs, _gen_res(rng, depth, level, binders))


def _gen_cond(rng: random.Random, depth: int, binders):
    if depth <= 0 or rng.random() < 0.5:
        return _gen_cmp(rng, depth, binders)
    pick = rng.randrange(3)
    if pick == 0:
        return And(_gen_cond(rng, depth - 1, binders), _gen_cond(rng, depth - 1, binders))
    if pick == 1:
        return Or(_gen_cond(rng, depth - 1, binders), _gen_cond(rng, depth - 1, binders))
    return Not(_gen_cond(rng, depth - 1, binders))


def _gen_scalar(rng: random.Random, depth: int, binders=(), next_id=(0,)):
    if depth <= 0 or rng.random() < 0.25:
        pick = rng.randrange(4)
        if pick == 0:
            return Const(Fraction(rng.randrange(0, 9), rng.randrange(1, 5)))
        if pick == 1:
            return Ord(_gen_field(rng, 1))
        if pick == 2:
            return QPow(_gen_qexp(rng, 1))
        return Psi(_gen_field(rng, 1))
    pick = rng.randrange(8)
    if pick == 0:
        return Add(
            _gen_scalar(rng, depth - 1, binders, next_id),
            _gen_scalar(rng, depth - 1, binders, next_id),
        )
    if pick == 1:
        return Sub(
            _gen_scalar(rng, depth - 1, binders, next_id),
            _gen_scalar(rng, depth - 1, binders, next_id),
        )
    if pick == 2:
        return Mul(
            _gen_scalar(rng, depth - 1, binders, next_id),
            _gen_scalar(rng, depth - 1, binders, next_id),
        )
    if pick == 3:
        return Neg(_gen_scalar(rng, depth - 1, binders, next_id))
    if pick == 4:
        return Pow(_gen_scalar(rng, depth - 1, binders, next_id), rng.randrange(0, 3))
    if pick == 5:
        return Indicator(_gen_cond(rng, depth - 1, binders))
    if pick == 6:
        name = f"s{next_id[0]}"
        next_id[0] += 1
        return SumZ(
            name,
            _gen_int(rng, 1),
            _gen_int(rng, 1),
            _gen_scalar(rng, depth - 1, binders, next_id),
        )
    name = f"u{next_id[0]}"
    next_id[0] += 1
    level = rng.choice((1, 2))
    return SumRF(
        name,
        level,
        _gen_scalar(rng, depth - 1, binders + ((name, level),), next_id),
    )


_DECLARED = {name: VF for name in _FIELD_VARS} | {name: ZZ for name in _INT_VARS}


def test_random_ast_text_and_json_round_trips():
    # spec invariant: the canonical printer inverts the parser node for node
    rng = rng_for("cexp-roundtrip")
    for _ in range(1000):
        term = _gen_scalar(rng, rng.randrange(1, 5), next_id=[0])
        text = render(term)
        assert parse(text) == term, text
        packed = json.dumps(term_to_json(term))
        assert term_from_json(json.loads(packed)) == term, text
        check(term, _DECLARED)  # generated terms are well-sorted


# one term with every node class; the JSON text was captured when each class
# still had its own hand-written encoder, and must stay byte-for-byte the same
_ALL_NODES_TEXT = (
    "sum(i, 0..n, q^(-i) * [ord(x) >= i and (not ac[2](x) == 1 or psi(x^2 - y) != 0)])"
    " + sumrf(u, 1, 1/2 * u)"
)
_ALL_NODES_JSON = (
    '{"node": "add", "lhs": {"node": "sum", "var": "i", '
    '"lo": {"node": "const", "value": "0"}, "hi": {"node": "var", '
    '"name": "n"}, "body": {"node": "mul", "lhs": {"node": "qpow", '
    '"exponent": {"node": "neg", "arg": {"node": "var", "name": "i"}}}, '
    '"rhs": {"node": "indicator", "cond": {"node": "and", '
    '"lhs": {"node": "cmp", "op": ">=", "lhs": {"node": "ord", '
    '"arg": {"node": "var", "name": "x"}}, "rhs": {"node": "var", '
    '"name": "i"}}, "rhs": {"node": "or", "lhs": {"node": "not", '
    '"arg": {"node": "cmp", "op": "==", "lhs": {"node": "ac", "level": 2, '
    '"arg": {"node": "var", "name": "x"}}, "rhs": {"node": "const", '
    '"value": "1"}}}, "rhs": {"node": "cmp", "op": "!=", '
    '"lhs": {"node": "psi", "arg": {"node": "sub", "lhs": {"node": "pow", '
    '"base": {"node": "var", "name": "x"}, "k": 2}, "rhs": {"node": "var", '
    '"name": "y"}}}, "rhs": {"node": "const", "value": "0"}}}}}}}, '
    '"rhs": {"node": "sumrf", "var": "u", "level": 1, '
    '"body": {"node": "mul", "lhs": {"node": "const", "value": "1/2"}, '
    '"rhs": {"node": "var", "name": "u"}}}}'
)


def test_term_json_is_pinned_on_every_node_class():
    term = parse(_ALL_NODES_TEXT)
    kinds = {type(node) for node in walk(term)}
    assert kinds == {
        Const, Var, Add, Sub, Mul, Neg, Pow, Ord, Ac, QPow, Psi, SumZ, SumRF,
        Indicator, Cmp, And, Or, Not,
    }
    assert json.dumps(term_to_json(term)) == _ALL_NODES_JSON
    assert term_from_json(json.loads(_ALL_NODES_JSON)) == term


@pytest.mark.parametrize(
    "obj",
    [
        ["node", "var"],  # not a dict
        "var",
        {"name": "x"},  # no "node" key
        {"node": "lambda", "arg": {}},  # unknown tag
        {"node": ["var"]},
    ],
)
def test_term_from_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        term_from_json(obj)


# ---------------------------------------------------------------------------
# sort checking
# ---------------------------------------------------------------------------


def test_check_infers_variable_sorts():
    sorts = check(parse("q^(-2*ord(x)) * psi(y) * [ac[1](z) == 1] * q^(n0)"))
    assert sorts == {"x": VF, "y": VF, "z": VF, "n0": ZZ}


def test_check_residue_binder_and_levels():
    sorts = check(parse("sumrf(u, 2, [u == ac[2](x)])"))
    assert sorts == {"x": VF}
    sorts = check(parse("[v == ac[1](x)]"))
    assert sorts == {"x": VF, "v": RF(1)}


def test_sort_errors_carry_node_paths():
    with pytest.raises(SortError) as info:
        check(parse("psi(i0)"), {"i0": ZZ})
    assert info.value.path == ("arg",)

    with pytest.raises(SortError) as info:
        check(parse("ord(ord(x))"))
    assert info.value.path == ("arg",)
    assert "integer" in str(info.value)

    with pytest.raises(SortError) as info:
        check(parse("1 + q^(psi(x))"))
    assert info.value.path == ("rhs", "exponent")

    with pytest.raises(SortError) as info:
        check(parse("sum(i, 0..2, psi(i))"))
    assert info.value.path == ("body", "arg")
    assert "bound variable 'i'" in str(info.value)


def test_sort_error_mixed_residue_levels():
    with pytest.raises(SortError) as info:
        check(parse("[ac[1](x) == ac[2](y)]"))
    assert "levels" in str(info.value)


def test_sort_error_field_against_integer():
    with pytest.raises(SortError):
        check(parse("[x == ord(y)]"), {"x": VF})


def test_sort_error_order_comparison_on_field():
    with pytest.raises(SortError) as info:
        check(parse("[x < y]"), {"x": VF, "y": VF})
    assert "order comparison" in str(info.value)


def test_sort_error_nonlinear_q_exponent():
    with pytest.raises(SortError) as info:
        check(parse("q^(ord(x) * ord(y))"))
    assert "integer-linear" in str(info.value)
    with pytest.raises(SortError):
        check(parse("q^(([x == 0]))"))
    check(parse("q^(3 * ord(x) - 1/2)"))  # linear forms are fine


def test_sort_error_non_integer_constant_in_field_position():
    with pytest.raises(SortError) as info:
        check(parse("psi(x + 1/2)"))
    assert "non-integer constant" in str(info.value)


def test_sort_error_residue_at_scalar_and_ac_level_mismatch():
    with pytest.raises(SortError):
        check(parse("ac[1](x)"))
    with pytest.raises(SortError):
        check(parse("sumrf(u, 2, [u == ac[1](x)])"))


def test_sort_error_condition_forbids_scalar_operators():
    with pytest.raises(SortError) as info:
        check(parse("[psi(x) == 1]"))
    assert "not allowed in a comparison" in str(info.value)
    with pytest.raises(SortError):
        check(parse("[q^(1) == 1]"))


def test_declared_sort_conflicts_are_rejected():
    with pytest.raises(SortError):
        check(parse("ord(i0)"), {"i0": ZZ})
    with pytest.raises(SortError):
        check(parse("psi(x) * q^(x)"))


# ---------------------------------------------------------------------------
# evaluation: frozen values
# ---------------------------------------------------------------------------


def test_eval_geometric_sum_of_valuation():
    # [DERIVED] x = 9 in Q_3: ord = 2, sum_{i=0..2} 3^-i = 1 + 1/3 + 1/9.
    value = evaluate(parse("sum(i, 0..ord(x), q^(-i))"), Q3, {"x": 9})
    assert value.as_fraction() == Fraction(13, 9)


def test_eval_character_times_power():
    # [DERIVED] at a unit, q^(-2 ord) = 1 and psi(1) is the primitive p-th root.
    expected = CycloScalar.root(3, Fraction(1, 3))
    for field in (Q3, F3):
        value = evaluate(parse("q^(-2*ord(x)) * psi(x)"), field, {"x": 1})
        assert (value - expected).is_zero()


def test_eval_half_integer_q_powers_multiply_exactly():
    value = evaluate(parse("q^(1/2) * q^(1/2)"), Q2, {})
    assert value.as_fraction() == 2
    with pytest.raises(EvalError):
        evaluate(parse("q^(1/2 + 1/3)"), Q2, {})


def test_eval_residue_arithmetic_and_counting():
    # [DERIVED] ac_1(2) * ac_1(5) = 4 = 1 mod 3.
    assert evaluate(
        parse("[ac[1](x) * ac[1](y) == 1]"), Q3, {"x": 2, "y": 5}
    ).as_fraction() == 1
    # [DERIVED] counting: exactly one residue code matches ac_1(x).
    assert evaluate(
        parse("sumrf(u, 1, [u == ac[1](x)])"), Q3, {"x": 5}
    ).as_fraction() == 1
    # [DERIVED] sum of all level-2 codes over Q2: 0+1+2+3 = 6.
    assert evaluate(parse("sumrf(u, 2, u)"), Q2, {}).as_fraction() == 6


def test_eval_laurent_residues_match_padic_convention():
    # [DERIVED] in F_3((t)), 2 * 2 = 4 = 1 + t*0, and codes are base-3 digits.
    assert evaluate(
        parse("[ac[1](x) * ac[1](y) == 1]"), F3, {"x": 2, "y": 2}
    ).as_fraction() == 1
    t = F3.uniformizer()
    one_plus_t = F3.add(F3.one(), t)
    # code of 1 + t at level 2 is 1 + 3*1 = 4
    assert evaluate(
        parse("sumrf(u, 2, [u == ac[2](x)] * u)"), F3, {"x": one_plus_t}
    ).as_fraction() == 4


def test_eval_indicator_on_vanishing_argument():
    # ord(0) compares as the infinite valuation
    assert evaluate(parse("[ord(x) >= 5]"), Q2, {"x": 0}).as_fraction() == 1
    assert evaluate(parse("[ord(x) <= 5]"), Q2, {"x": 0}).is_zero()


def test_eval_lazy_product_masks_undefined_factors():
    # the indicator vanishes, so ord(x) and ac of x = 0 are never needed
    assert evaluate(parse("[ord(x) <= 3] * q^(-ord(x))"), Q2, {"x": 0}).is_zero()
    assert evaluate(
        parse("[ord(x) == 0] * sumrf(u, 1, [u == ac[1](x)])"), Q3, {"x": 0}
    ).is_zero()
    # zero scalar factors also short-circuit, whatever their position
    assert evaluate(parse("(1 - 1) * q^(ord(x))"), Q2, {"x": 0}).is_zero()


def test_eval_zero_factor_of_two_triples_masks_undefined_factors():
    # psi(x) - psi(x) is two raw triples that cancel; the zero test must
    # canonicalise it, and q^(ord(x)) at x = 0 is then never evaluated
    term = parse("(psi(x) - psi(x)) * q^(ord(x))")
    for field in (Q2, Q3, F3):
        assert evaluate(term, field, {"x": 0}) == CycloScalar.zero(field.p)


# random scalar terms, total at every point with x and y nonzero: ord enters
# q-exponents only through a variable, and comparisons accept ord(0)
_XY = {"x": VF, "y": VF}


@st.composite
def _field_terms(draw, depth: int = 2):
    if depth <= 0 or draw(st.booleans()):
        return draw(st.sampled_from((Var("x"), Var("y"), Const(1), Const(2))))
    op = draw(st.sampled_from((Add, Sub, Mul)))
    return op(draw(_field_terms(depth - 1)), draw(_field_terms(depth - 1)))


@st.composite
def _qexps(draw, ints: tuple):
    half = Const(Fraction(draw(st.integers(0, 5)), 2))
    choices = [half, Neg(half), Ord(Var("x")), Neg(Ord(Var("y")))]
    choices += [Add(Var(i), half) for i in ints]
    return draw(st.sampled_from(choices))


@st.composite
def _conditions(draw, ints: tuple):
    op = draw(st.sampled_from(("==", "!=", "<=", "<", ">=", ">")))
    lhs = draw(st.sampled_from([Ord(draw(_field_terms(1)))] + [Var(i) for i in ints]))
    cond = Cmp(op, lhs, Const(draw(st.integers(0, 3))))
    if draw(st.integers(0, 3)) == 0:
        cond = draw(st.sampled_from((Not(cond), And(cond, cond), Or(cond, Not(cond)))))
    return cond


@st.composite
def _scalar_terms(draw, depth: int = 3, ints: tuple = ()):
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        pick = draw(st.integers(0, 4 if ints else 3))
        if pick == 0:
            return Const(Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 3))))
        if pick == 1:
            return QPow(draw(_qexps(ints)))
        if pick == 2:
            return Psi(draw(_field_terms()))
        if pick == 3:
            return Indicator(draw(_conditions(ints)))
        return Var(draw(st.sampled_from(ints)))
    sub = _scalar_terms(depth - 1, ints)
    pick = draw(st.integers(0, 6))
    if pick == 0:
        return Add(draw(sub), draw(sub))
    if pick == 1:
        return Sub(draw(sub), draw(sub))
    if pick == 2:
        return Mul(draw(sub), draw(sub))
    if pick == 3:
        return Neg(draw(sub))
    if pick == 4:
        return Pow(draw(sub), draw(st.integers(0, 3)))
    if pick == 5:
        # a zero factor of two or more raw triples
        t = draw(sub)
        return Mul(Sub(t, t), draw(sub))
    var = f"i{len(ints)}"
    lo = draw(st.integers(-2, 2))
    lo_node = Neg(Const(-lo)) if lo < 0 else Const(lo)
    hi = Const(max(lo, 0) + draw(st.integers(0, 2)))
    return SumZ(var, lo_node, hi, draw(_scalar_terms(depth - 1, ints + (var,))))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(("Q2", "Q3", "F3t")), _scalar_terms(), st.integers(0, 10**6))
def test_evaluate_matches_per_node_arithmetic(name, term, seed):
    field = FIELDS[name]
    rng = random.Random(seed)
    env = {"x": sample_nonzero(field, rng), "y": sample_nonzero(field, rng)}
    assert evaluate(term, field, env, declared=_XY) == eval_per_node(term, field, env)


def test_eval_errors_on_unguarded_vanishing():
    with pytest.raises(EvalError):
        evaluate(parse("ord(x)"), Q2, {"x": 0})
    with pytest.raises(EvalError):
        evaluate(parse("q^(ord(x))"), Q2, {"x": 0})
    with pytest.raises(EvalError):
        evaluate(parse("sumrf(u, 1, [u == ac[1](x)])"), Q3, {"x": 0})


def test_eval_indeterminate_valuation_arithmetic():
    with pytest.raises(EvalError):
        evaluate(parse("[ord(x) - ord(y) >= 0]"), Q2, {"x": 0, "y": 0})
    with pytest.raises(EvalError):
        evaluate(parse("[0 * ord(x) == 0]"), Q2, {"x": 0})
    # but same-sign sums and comparisons against the infinite valuation work
    assert evaluate(
        parse("[ord(x) + ord(y) >= 10]"), Q2, {"x": 0, "y": 0}
    ).as_fraction() == 1


def test_eval_ranges_empty_reversed_unbounded_budgeted():
    assert evaluate(parse("sum(i, 3..2, q^(-i))"), Q2, {}).is_zero()
    # an infinite lower end makes the range empty
    assert evaluate(parse("sum(i, ord(x)..5, 1)"), Q2, {"x": 0}).is_zero()
    with pytest.raises(EvalError):
        evaluate(parse("sum(i, 0..ord(x), 1)"), Q2, {"x": 0})
    with pytest.raises(EvalError):
        evaluate(parse("sum(i, 0..100, 1)"), Q2, {}, range_budget=50)
    with pytest.raises(EvalError):
        evaluate(parse("sumrf(u, 4, 1)"), Q5, {}, range_budget=500)


def test_eval_environment_coercion_and_errors():
    with pytest.raises(EvalError):
        evaluate(parse("psi(x)"), Q2, {})
    with pytest.raises(EvalError):
        evaluate(parse("q^(n0)"), Q2, {"n0": Fraction(1, 2)})
    with pytest.raises(EvalError):
        evaluate(parse("sumrf(u, 1, [u == v])"), Q3, {"v": 7})
    # ints lift to field elements; exact Fractions pass through
    a = evaluate(parse("psi(x)"), Q3, {"x": 1})
    b = evaluate(parse("psi(x)"), Q3, {"x": Fraction(1)})
    assert (a - b).is_zero()


def test_eval_field_equality_conditions():
    # polynomial equalities classify over the field once the variable's
    # sort is known (declared here; inferred from context inside families)
    term = parse("[x^2 - 1 == 0] * q^(1)")
    assert evaluate(term, Q3, {"x": -1}, declared={"x": VF}).as_fraction() == 3
    assert evaluate(term, Q3, {"x": 2}, declared={"x": VF}).is_zero()
    t = F3.uniformizer()
    declared = {"x": VF, "y": VF}
    assert evaluate(parse("[x == y]"), F3, {"x": t, "y": t}, declared=declared).as_fraction() == 1
    assert evaluate(parse("[x == y]"), F3, {"x": t, "y": F3.one()}, declared=declared).is_zero()
    # without a declaration, a bare equality is an integer comparison
    assert check(parse("[x == 0]")) == {"x": ZZ}


# ---------------------------------------------------------------------------
# evaluation: structural laws as seeded property loops
# ---------------------------------------------------------------------------


def test_sum_splitting_law():
    # spec invariant: sum over a..b equals the two-piece split at any cut
    rng = rng_for("cexp-sum-split")
    body_texts = ("q^(-s0) + s0^2", "psi(x) * q^(-s0)", "[s0 >= 2] * s0")
    for _ in range(60):
        a = rng.randrange(-4, 4)
        b = a + rng.randrange(0, 6)
        c = rng.randrange(a, b + 1)
        body = rng.choice(body_texts)
        whole = parse(f"sum(s0, {a}..{b}, {body})")
        first = parse(f"sum(s0, {a}..{c}, {body})")
        rest = parse(f"sum(s0, {c + 1}..{b}, {body})")
        env = {"x": 1}
        got = evaluate(whole, Q3, env)
        split = evaluate(first, Q3, env) + evaluate(rest, Q3, env)
        assert (got - split).is_zero(), (a, b, c, body)


def test_substitution_commutes_with_evaluation():
    # spec invariant: substituting a constant equals binding it in the env
    rng = rng_for("cexp-subst")
    texts = (
        "q^(-2*ord(x)) * psi(x)",
        "[ord(x) >= 1] * q^(1/2)",
        "sum(i, 0..3, [ord(x) >= i] * q^(-i))",
        "sumrf(u, 1, [u == ac[1](x)]) * q^(ord(x))",
    )
    for _ in range(60):
        text = rng.choice(texts)
        term = parse(text)
        c = rng.randrange(-12, 13)
        substituted = substitute(term, {"x": parse(str(c))})
        try:
            direct = evaluate(term, Q3, {"x": c})
            failed = None
        except EvalError as exc:
            failed = type(exc)
        if failed is None:
            again = evaluate(substituted, Q3, {})
            assert (direct - again).is_zero(), (text, c)
        else:
            with pytest.raises(failed):
                evaluate(substituted, Q3, {})


def test_substitution_respects_binders():
    term = parse("sum(i, 0..2, q^(-i))")
    assert substitute(term, {"i": Const(Fraction(5))}) == term
    grown = substitute(parse("sum(i, 0..n0, q^(-i))"), {"n0": Const(Fraction(3))})
    assert grown == parse("sum(i, 0..3, q^(-i))")
    assert evaluate(grown, Q3, {}).as_fraction() == Fraction(40, 27)
    # sumrf binds its variable in the body only
    rf = parse("sumrf(u, 1, [u == ac[1](x)])")
    assert substitute(rf, {"u": Const(Fraction(2))}) == rf
    assert substitute(rf, {"u": Const(Fraction(2)), "x": Var("y")}) == parse(
        "sumrf(u, 1, [u == ac[1](y)])"
    )
    # a sum's bound name is free in its bounds, so it is replaced there
    upper = substitute(parse("sum(i, 0..i, q^(-i))"), {"i": Const(Fraction(2))})
    assert upper == parse("sum(i, 0..2, q^(-i))")
    assert evaluate(upper, Q3, {}).as_fraction() == Fraction(13, 9)


# ---------------------------------------------------------------------------
# families of distributions and the ball-function view
# ---------------------------------------------------------------------------


def test_point_mass_family_matches_distribution_everywhere():
    # spec example: the family [ord(x - 0) >= r] is the unit point mass at 0
    family = FamilyDistribution(parse("[ord(x - 0) >= r]"), ("x",))
    for name in ("Q2", "Q3", "Q5", "F3t"):
        field = FIELDS[name]
        view = instantiate_b_function(family, field)
        delta = MixedCellDistribution.delta(field, [field.zero()])
        rng = rng_for(f"cexp-delta-{name}")
        for _ in range(100):
            r = rng.randrange(-3, 4)
            x = sample_element(field, rng)
            got = view.b_function((x,), r)
            want = delta.b_function((x,), r)
            assert (got - want).is_zero(), (name, x, r)


def test_volume_family_matches_constant_density():
    family = FamilyDistribution(parse("q^(-r)"), ("x",))
    view = instantiate_b_function(family, Q3)
    const = MixedCellDistribution.constant(Q3, 1)
    rng = rng_for("cexp-const")
    for _ in range(50):
        r = rng.randrange(-3, 4)
        x = sample_element(Q3, rng)
        assert (view.b_function((x,), r) - const.b_function((x,), r)).is_zero()


def test_modulated_family_matches_only_at_positive_radius():
    # [DERIVED] <psi dx, 1_{B_r(c)}> = psi(c) q^(-r) for r >= 1 and 0 for
    # r <= 0 (the character is nontrivial on the unit ball), so the term
    # q^(-r) psi(x) agrees with the density at r >= 1 and differs at every
    # center when r <= 0.
    family = FamilyDistribution(parse("q^(-r) * psi(x)"), ("x",))
    view = instantiate_b_function(family, Q3)
    dist = MixedCellDistribution.modulated_constant(Q3, [Q3.one()])
    rng = rng_for("cexp-modulated")
    for _ in range(40):
        x = sample_element(Q3, rng)
        for r in (1, 2, 3):
            assert (view.b_function((x,), r) - dist.b_function((x,), r)).is_zero()
        for r in (0, -1, -2):
            assert not (view.b_function((x,), r) - dist.b_function((x,), r)).is_zero()


def test_view_evaluate_agrees_with_distribution_pairing():
    family = FamilyDistribution(parse("[ord(x - 0) >= r]"), ("x",))
    rng = rng_for("cexp-view-eval")
    for name in ("Q2", "Q3", "F3t"):
        field = FIELDS[name]
        view = instantiate_b_function(family, field)
        delta = MixedCellDistribution.delta(field, [field.zero()])
        for _ in range(25):
            phi = random_sb(field, rng)
            got = view.evaluate(phi)
            want = delta.evaluate(phi)
            assert (got - want).is_zero(), name


def test_view_wavelet_is_volume_normalized():
    family = FamilyDistribution(parse("q^(-r)"), ("x",))
    view = instantiate_b_function(family, Q2)
    for r in range(-2, 4):
        assert view.wavelet((Fraction(0),), r).as_fraction() == 1


def test_view_validates_dimension_and_field():
    family = FamilyDistribution(parse("[ord(x - 0) >= r]"), ("x",))
    view = instantiate_b_function(family, Q2)
    with pytest.raises(Exception):
        view.b_function((Fraction(0), Fraction(1)), 0)
    phi = random_sb(Q3, rng_for("cexp-wrong-field"))
    with pytest.raises(Exception):
        view.evaluate(phi)


def test_family_json_round_trip_and_free_variable_guard():
    family = FamilyDistribution(
        parse("[ord(x - a) >= r]"), ("x",), "r", ("a",)
    )
    assert family.sorts["a"] == VF
    packed = family.to_json()
    again = FamilyDistribution.from_json(json.loads(json.dumps(packed)))
    assert again.term == family.term
    assert again.point_vars == ("x",)
    assert again.param_vars == ("a",)
    with pytest.raises(Exception):
        FamilyDistribution(parse("q^(-r) * psi(w)"), ("x",))
    with pytest.raises(Exception):
        instantiate_b_function(family, Q2)  # parameter a missing
    # the parametrized family is the point mass at the parameter
    view = instantiate_b_function(family, Q3, {"a": 6})
    delta = MixedCellDistribution.delta(Q3, [Q3.from_int(6)])
    rng = rng_for("cexp-param-delta")
    for _ in range(30):
        r = rng.randrange(-2, 4)
        x = sample_element(Q3, rng)
        assert (view.b_function((x,), r) - delta.b_function((x,), r)).is_zero()


def test_additivity_check_on_mixed_and_viewed_distributions():
    # spec invariant: ball pairings are additive across the coset partition
    rng = rng_for("cexp-additivity")
    family = FamilyDistribution(parse("[ord(x - 0) >= r]"), ("x",))
    for name in ("Q2", "Q3", "F3t"):
        field = FIELDS[name]
        view = instantiate_b_function(family, field)
        delta = MixedCellDistribution.delta(field, [field.zero()])
        for _ in range(20):
            r = rng.randrange(-2, 3)
            center = sample_element(field, rng)
            ball = Polyball.ball(field, (center,), r)
            assert additivity_check(view, ball)
            assert additivity_check(delta, ball)
    with pytest.raises(Exception):
        additivity_check(delta, Polyball(Q2, (Fraction(0), Fraction(0)), (0, 1)))


# ---------------------------------------------------------------------------
# sampling probe for the distribution locus
# ---------------------------------------------------------------------------


def test_dis_sample_accepts_point_mass_family():
    family = FamilyDistribution(parse("[ord(x - 0) >= r]"), ("x",))
    report = dis_sample(family, ["Qp:2", "Qp:3", "Qp:5"], trials=20, seed=3)
    assert report.passed
    packed = report.to_json()
    assert packed["passed"] is True
    assert [row["field"] for row in packed["rows"]] == ["Qp:2", "Qp:3", "Qp:5"]
    assert all(row["witnesses"] == [] for row in packed["rows"])


def test_dis_sample_accepts_zero_family():
    family = FamilyDistribution(parse("0"), ("x",))
    assert dis_sample(family, [Q2, F3], trials=10, seed=1).passed


def test_dis_sample_rejects_non_additive_family_with_witness():
    # [DERIVED] q^(-r) + [r >= 0] breaks additivity on every ball of radius
    # r >= -1: the parent value q^(-r) + [r >= 0] never equals the children's
    # sum q^(-r) + q [r >= -1].
    family = FamilyDistribution(parse("q^(-r) + [r >= 0]"), ("x",))
    report = dis_sample(family, [Q2, Q3], trials=30, seed=5)
    assert not report.passed
    row = next(r for r in report.rows if not r.passed)
    assert row.additivity_failures > 0
    witness = row.witnesses[0]
    assert witness["law"] == "additivity"
    # the witness re-checks: evaluate the family at the recorded ball
    view = instantiate_b_function(family, row.field)
    x = tuple(row.field.element_from_json(s) for s in witness["x"])
    ball = Polyball.ball(row.field, x, witness["r"])
    total = CycloScalar.zero(row.field.p)
    for child in children_by_field_ops(ball):
        total = total + view.b_function(child.centers, witness["r"] + 1)
    assert not (view.b_function(x, witness["r"]) - total).is_zero()
    # the witness text is the view's canonical values
    assert witness["ball_value"] == repr(view.b_function(x, witness["r"]))
    assert witness["subcell_sum"] == repr(total)


def test_dis_sample_rejects_modulated_family_at_radius_zero():
    # [DERIVED] at r = 0 the children's character values sum to zero, so
    # psi(x) q^(-r) fails additivity on every unit-radius ball.
    family = FamilyDistribution(parse("q^(-r) * psi(x)"), ("x",))
    report = dis_sample(family, [Q3], trials=10, radius_range=(0, 0), seed=2)
    assert not report.passed
    row = report.rows[0]
    assert row.additivity_failures == row.trials
    # restricted to radii >= 1 the same family is an honest density
    report = dis_sample(family, [Q3], trials=20, radius_range=(1, 3), seed=2)
    assert report.passed


def test_dis_sample_flags_center_dependence():
    # the leading residue of x is not a function of the ball B_1(x) when
    # ord(x) = 1, so this guarded indicator fails center-independence on
    # balls where it happens to satisfy additivity
    family = FamilyDistribution(
        parse("[ord(x) <= 10] * [ac[1](x) == 1]"), ("x",)
    )
    report = dis_sample(family, [Q3], trials=40, radius_range=(1, 1), seed=2)
    assert not report.passed
    row = report.rows[0]
    assert row.center_failures > 0
    witness = next(w for w in row.witnesses if w["law"] == "center-independence")
    view = instantiate_b_function(family, Q3)
    x = tuple(Q3.element_from_json(s) for s in witness["x"])
    moved = tuple(Q3.element_from_json(s) for s in witness["x_moved"])
    lhs = view.b_function(x, witness["r"])
    rhs = view.b_function(moved, witness["r"])
    assert not (lhs - rhs).is_zero()
    assert witness["value_at_x"] == repr(lhs)
    assert witness["value_at_moved"] == repr(rhs)


def test_dis_sample_decides_each_law_by_the_zero_test():
    # psi(x) - psi(x) + q^(-r) has the value of q^(-r) on every ball, but its
    # raw terms carry psi at the chosen point: at a moved centre the raw term
    # lists differ while the values agree.  List equality is only the center
    # law's fast path, so both families get the same rows.
    plain = FamilyDistribution(parse("q^(-r)"), ("x",))
    padded = FamilyDistribution(parse("psi(x) - psi(x) + q^(-r)"), ("x",))
    for seed in (1, 5):
        want = dis_sample(plain, [Q2, Q3, F3], trials=30, seed=seed)
        got = dis_sample(padded, [Q2, Q3, F3], trials=30, seed=seed)
        assert want.passed and got.passed
        assert [row.to_json() for row in got.rows] == [row.to_json() for row in want.rows]
    raw = _ball_raw(padded, Q3, {})
    x, moved = Fraction(1, 9), Fraction(4, 9)  # one ball of radius -1 over Q_3
    assert raw((x,), -1) != raw((moved,), -1)
    assert CycloScalar(3, raw((x,), -1)) == CycloScalar(3, raw((moved,), -1))


# (term, point variables, radius range, trials, {seed: (sha256 of the sorted
# to_json text, [(additivity failures, center failures) per field])}) over
# [Q_2, F_3((t))]: the four benchmark families, a center-dependent one and a
# 2-D one.  Computed with per-node scalar arithmetic in the evaluator, a child
# Polyball per subcell and digit-by-digit sample points.
_DIS_SAMPLE_PINS = [
    ("[ord(x - 1) >= r]", ("x",), (-2, 3), 8, {
        1: ("f01b4ed454f0f051935254af7c7cc5786914f409c021caac20bbc5ebe7eb9efe", [(0, 0), (0, 0)]),
        2: ("f01b4ed454f0f051935254af7c7cc5786914f409c021caac20bbc5ebe7eb9efe", [(0, 0), (0, 0)]),
        3: ("f01b4ed454f0f051935254af7c7cc5786914f409c021caac20bbc5ebe7eb9efe", [(0, 0), (0, 0)]),
    }),
    ("q^(-r)", ("x",), (-2, 3), 8, {
        1: ("888bfea6bdfc2fd78825bfbce6b676b0861282d3073e45a2b2cf905662f10136", [(0, 0), (0, 0)]),
        2: ("888bfea6bdfc2fd78825bfbce6b676b0861282d3073e45a2b2cf905662f10136", [(0, 0), (0, 0)]),
        3: ("888bfea6bdfc2fd78825bfbce6b676b0861282d3073e45a2b2cf905662f10136", [(0, 0), (0, 0)]),
    }),
    ("q^(-r) * psi(x)", ("x",), (-2, 3), 8, {
        1: ("3682bd08c62a9536d3f9d85b15eb54c143676eeb5c1c32bcd32d963c494036d4", [(5, 0), (1, 0)]),
        2: ("93bd553a4c9825c028a1057704aa583fa9ff900e1e5136524cd17be040ca6135", [(5, 0), (2, 0)]),
        3: ("41896ff1ae193108b5b38d230b215bc62c3e7e52c7dc46cf0f8afef8a0bfa314", [(3, 0), (3, 0)]),
    }),
    ("q^(-r) + [r >= 0]", ("x",), (-2, 3), 8, {
        1: ("dfc6d308ada9e9a0e7bacc75ddc3ec3f67e478cad97b2dee460fb71a7ad058e4", [(6, 0), (8, 0)]),
        2: ("0e9a6dd5c6e53ed5f5b2dbcffd9452cc4677939ed40d33232f21995394dc0451", [(6, 0), (8, 0)]),
        3: ("3083df40cd26bbcc6458eafd2512c198d409ea0bd9a48ec4861d57afb3cfcecf", [(7, 0), (8, 0)]),
    }),
    ("[ord(x) <= 10] * [ac[1](x) == 1]", ("x",), (0, 2), 40, {
        1: ("47f2712ddc0424fb3a80a7a83da3cacbb5dd2d2c2bab2df522c5d33b488b6490", [(39, 0), (23, 0)]),
        2: ("a7bece330f713e0c96318f785da52af377bd9ba1d4cd166fc802441763e0f963", [(38, 0), (18, 2)]),
        3: ("a1ddc5dd4298d2f8d0eafc87fe5dc90c127e63e059617e1e9d4b8ba233cd9d9a", [(38, 0), (20, 0)]),
    }),
    ("q^(-2*r) * psi(x*y) * [ord(x - y) >= r]", ("x", "y"), (-1, 2), 6, {
        1: ("b82a4925c0bea50bab5fb13651fa3aa34acbc7b8ba05b003071def10202e315e", [(1, 0), (0, 0)]),
        2: ("6b0e4ef4ec445dd633b9c5bba25406306a7b5320b96c0e3130ad8dc33d8f0e2f", [(2, 0), (1, 0)]),
        3: ("010d11ee85fc44852fcc6334fab8097c4df006efeabcecefebc468202e26d070", [(2, 0), (1, 0)]),
    }),
]


@pytest.mark.parametrize("text, points, radii, trials, pins", _DIS_SAMPLE_PINS)
def test_dis_sample_reports_are_pinned(text, points, radii, trials, pins):
    family = FamilyDistribution(parse(text), points)
    for seed, (digest, failures) in pins.items():
        report = dis_sample(
            family, ["Qp:2", "Fpt:3"], trials=trials, radius_range=radii, seed=seed
        )
        got = [(row.additivity_failures, row.center_failures) for row in report.rows]
        assert got == failures, (text, seed)
        packed = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(packed.encode()).hexdigest() == digest, (text, seed)


@pytest.mark.parametrize(
    "field",
    [make_field("p-adic", 2), Q3, make_field("equal-characteristic", 2), F3],
    ids=str,
)
def test_random_point_is_the_digit_by_digit_sum(field):
    # the same draws, in the same order, give the same element
    for lo, hi in ((-2, 3), (0, 3), (-5, -1), (2, 6), (0, 0), (-1, 8)):
        ours = random.Random(f"{field}:{lo}:{hi}")
        ref = random.Random(f"{field}:{lo}:{hi}")
        for _ in range(25):
            assert _random_point(field, ours, lo, hi) == point_by_digits(field, ref, lo, hi)
        assert ours.getstate() == ref.getstate()


def test_dis_sample_reports_evaluation_errors():
    # q^(1/3) has no exact value, so every probe trial errors out
    family = FamilyDistribution(parse("q^(1/3)"), ("x",))
    report = dis_sample(family, [Q2], trials=5, seed=4)
    assert not report.passed
    assert report.rows[0].error
    assert "error" in report.rows[0].to_json()


def test_binding_errors_surface_per_call_through_a_view():
    # a parameter that fails its sort instantiates; each ball value raises
    family = FamilyDistribution(
        parse("[ord(x - a) >= r] * q^(n)"), ("x",), param_vars=("a", "n")
    )
    params = {"a": 1, "n": Fraction(1, 2)}
    view = instantiate_b_function(family, Q3, params)
    message = "integer variable 'n' bound to 1/2"
    for _ in range(2):
        with pytest.raises(EvalError, match=message):
            view.b_function((Q3.one(),), 0)
    report = dis_sample(family, [Q3], [params], trials=5, seed=1)
    assert report.rows[0].error == message
    assert not report.passed
    # a missing parameter is caught when the view is made
    with pytest.raises(FieldError, match="no values supplied"):
        instantiate_b_function(family, Q3, {"a": 1})
    # a residue sum over the range budget raises on every call
    over = FamilyDistribution(parse("q^(-r) * sumrf(u, 12, 1)"), ("x",))
    view = instantiate_b_function(over, Q3)
    for _ in range(2):
        with pytest.raises(EvalError, match="exceeds the budget"):
            view.b_function((Q3.one(),), 0)
    assert "exceeds the budget" in dis_sample(over, [Q3], trials=3).rows[0].error


def test_bool_bindings_are_rejected_at_every_sort():
    cases = [
        ("[x == 1]", {"x": VF}),
        ("q^(-n0)", {"n0": ZZ}),
        ("sumrf(u, 1, [u == v])", None),
    ]
    for text, declared in cases:
        term = parse(text)
        (name,) = set(check(term, declared))
        with pytest.raises(EvalError, match=f"variable '{name}' bound to bool"):
            evaluate(term, Q3, {name: True}, declared=declared)


def test_views_leave_no_cyclic_garbage():
    family = FamilyDistribution(parse("q^(-r) * psi(x)"), ("x",))
    xs = (Q3.from_int(5),)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            view = instantiate_b_function(family, Q3)
            assert not view.b_function(xs, 1).is_zero()
            del view
        assert gc.collect() == 0
    finally:
        gc.enable()

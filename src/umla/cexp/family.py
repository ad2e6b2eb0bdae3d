"""Term-defined families of distributions across fields.

A ``FamilyDistribution`` is a term ``E(y, x, r)`` read as a candidate ball
function: for each choice of field, parameter values ``y``, point ``x``, and
radius ``r``, the term evaluates to the pairing of a distribution with the
indicator of the radius-r ball at ``x``.  ``instantiate_b_function`` turns
one (field, parameters) choice into a concrete ``BFunctionView``.

Not every term is a ball function of anything: it must not depend on the
choice of center inside the ball, and it must be additive across the coset
partition of each ball.  ``dis_sample`` probes both properties on randomly
sampled balls over a list of fields and reports concrete counterexamples
when they fail.  It is a sampling procedure — passing is evidence, not a
decision — but every reported failure is an exactly re-checkable witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from ..cyclo import CycloScalar
from ..distribution import BFunctionView
from ..fields import FieldError, LocalField, Polyball, field_spec, parse_field_spec
from .check import VF, ZZ, check
from .evaluate import EvalError, coerce_env, coerce_value, compile_term
from .syntax import Node, parse, render

__all__ = [
    "FamilyDistribution",
    "instantiate_b_function",
    "dis_sample",
    "DisSampleReport",
    "DisSampleRow",
]


@dataclass(frozen=True)
class FamilyDistribution:
    """A term together with its reading as a family of ball functions.

    ``point_vars`` are the field-sorted coordinates of the ball center,
    ``radius_var`` is the integer-sorted ball radius, and ``param_vars``
    name the remaining free variables (their sorts are inferred).
    """

    term: Node
    point_vars: tuple[str, ...]
    radius_var: str = "r"
    param_vars: tuple[str, ...] = ()
    sorts: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "point_vars", tuple(self.point_vars))
        object.__setattr__(self, "param_vars", tuple(self.param_vars))
        names = (*self.point_vars, self.radius_var, *self.param_vars)
        if len(set(names)) != len(names):
            raise FieldError("family variable names must be distinct")
        declared = {x: VF for x in self.point_vars}
        declared[self.radius_var] = ZZ
        sorts = check(self.term, declared)
        extra = set(sorts) - set(names)
        if extra:
            raise FieldError(
                f"term has free variables {sorted(extra)} beyond the "
                "declared point, radius, and parameter names"
            )
        object.__setattr__(self, "sorts", sorts)

    @property
    def n(self) -> int:
        return len(self.point_vars)

    def to_json(self) -> dict:
        return {
            "term": render(self.term),
            "point": list(self.point_vars),
            "radius": self.radius_var,
            "params": list(self.param_vars),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FamilyDistribution":
        return cls(
            parse(obj["term"]),
            tuple(obj["point"]),
            str(obj.get("radius", "r")),
            tuple(obj.get("params", ())),
        )


def instantiate_b_function(
    family: FamilyDistribution, field: LocalField, params=None
) -> BFunctionView:
    """The family member at one field and parameter choice, as a ball view.

    The view's ball value is ``CycloScalar(p, raw(xs, r))`` over the raw
    terms of ``_ball_raw``, the one evaluation path that ``dis_sample``
    reads too: the term is compiled once for the view, and each ball value
    canonicalises its raw terms once.  A missing parameter raises
    ``FieldError`` here.  A parameter of the wrong kind, like any other
    ``EvalError``, is raised by every ball value, so ``dis_sample`` reports
    it as the row's error.
    """
    raw, p = _ball_raw(family, field, params), field.p
    return BFunctionView(
        field, family.n, lambda xs, r: CycloScalar(p, raw(xs, r)), label=render(family.term)
    )


def _ball_raw(family: FamilyDistribution, field: LocalField, params):
    """The compiled ball function ``raw(xs, r)``: the integer raw terms of
    the family's value on B_r(xs), ``umla.cyclo``'s input format.

    The term is compiled and the parameters are coerced once
    (``cexp.evaluate``); each call binds only the radius and the point.
    Raises ``FieldError`` for a missing parameter; a parameter of the wrong
    kind raises its ``EvalError`` on every call.
    """
    params = dict(params or {})
    missing = set(family.param_vars) - set(params)
    if missing:
        raise FieldError(f"no values supplied for parameters {sorted(missing)}")
    run = compile_term(family.term, field, family.sorts)
    param_sorts = {
        name: sort for name, sort in family.sorts.items() if name in family.param_vars
    }
    error = ""
    try:
        bound = coerce_env(field, params, param_sorts)
    except EvalError as exc:
        error = str(exc)
    points, radius = family.point_vars, family.radius_var

    def raw(xs, r):
        if error:
            raise EvalError(error)
        env = dict(bound)
        env[radius] = int(r)
        for name, x in zip(points, xs, strict=True):
            env[name] = coerce_value(field, name, VF, x) if isinstance(x, int) else x
        return run(env)

    return raw


# ---------------------------------------------------------------------------
# Sampling probe for the locus where the family is a distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisSampleRow:
    """Outcome of the probe for one (field, parameters) pair."""

    field: LocalField
    params: dict
    trials: int
    additivity_failures: int
    center_failures: int
    witnesses: tuple[dict, ...]
    error: str = ""

    @property
    def passed(self) -> bool:
        return (
            not self.error
            and self.additivity_failures == 0
            and self.center_failures == 0
        )

    def to_json(self) -> dict:
        return {
            "field": field_spec(self.field),
            "params": dict(self.params),
            "trials": self.trials,
            "additivity_failures": self.additivity_failures,
            "center_failures": self.center_failures,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            **({"error": self.error} if self.error else {}),
        }


@dataclass(frozen=True)
class DisSampleReport:
    """All probe rows; passes only when every row passes."""

    family: FamilyDistribution
    rows: tuple[DisSampleRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json(self) -> dict:
        return {
            "family": self.family.to_json(),
            "passed": self.passed,
            "rows": [row.to_json() for row in self.rows],
        }


def _random_point(field: LocalField, rng: random.Random, lo: int = -2, hi: int = 3):
    """A field element with digits in the exponent window [lo, hi).

    One ``rng.randrange(q)`` draw per exponent, lowest first, gives the
    digit d_e; the element sum_e d_e pi^e is built at once from the residue
    code sum_e d_e q^(e - lo), as ``residue_lift(code, lo)``.
    """
    q = field.q
    code = sum(rng.randrange(q) * q**i for i in range(hi - lo))
    return field.residue_lift(code, lo)


def dis_sample(
    family: FamilyDistribution,
    fields,
    param_sets=None,
    trials: int = 40,
    radius_range: tuple[int, int] = (-2, 3),
    seed: int = 0,
    max_witnesses: int = 3,
) -> DisSampleReport:
    """Probe whether the family defines distributions over the given fields.

    For each field (a ``LocalField`` or a spec string) and each parameter
    assignment, random balls are tested for the two ball-function laws:
    the value on a ball must equal the sum of the values on its immediate
    subcells (read at ``Polyball.child_centers``), and it must not change
    when the center is moved within the ball.  Both laws are checked on the
    raw terms of ``_ball_raw``, the evaluation path of
    ``instantiate_b_function``'s view: each is one zero test of
    ``CycloScalar(p, lhs + negated rhs)``, and the center law needs none
    when the moved point gives the parent's raw terms.  Canonical scalars
    are built only for a witness's text.  Failures are counted and up to
    ``max_witnesses`` exact witnesses per law and row are kept, each
    re-checkable by evaluating the family at the recorded centers and radii.
    """
    resolved = [
        f if isinstance(f, LocalField) else parse_field_spec(f) for f in fields
    ]
    rows = []
    for f_index, field in enumerate(resolved):
        p = field.p
        for p_index, params in enumerate(param_sets or [{}]):
            rng = random.Random(f"{seed}:{f_index}:{p_index}")
            raw = _ball_raw(family, field, params)
            add_fail = 0
            center_fail = 0
            witnesses: list[dict] = []
            error = ""
            try:
                for _ in range(trials):
                    r = rng.randrange(radius_range[0], radius_range[1] + 1)
                    xs = tuple(_random_point(field, rng) for _ in range(family.n))
                    parent = raw(xs, r)
                    children = [
                        t
                        for cs in Polyball.ball(field, xs, r).child_centers()
                        for t in raw(cs, r + 1)
                    ]
                    if CycloScalar(p, parent + _negated(children)):
                        add_fail += 1
                        if add_fail <= max_witnesses:
                            witnesses.append(
                                {
                                    "law": "additivity",
                                    "x": [field.element_to_json(x) for x in xs],
                                    "r": r,
                                    "ball_value": repr(CycloScalar(p, parent)),
                                    "subcell_sum": repr(CycloScalar(p, children)),
                                }
                            )
                        continue

                    shifted = tuple(
                        field.add(x, _random_point(field, rng, r, r + 3))
                        for x in xs
                    )
                    moved = raw(shifted, r)
                    if moved != parent and CycloScalar(p, parent + _negated(moved)):
                        center_fail += 1
                        if center_fail <= max_witnesses:
                            witnesses.append(
                                {
                                    "law": "center-independence",
                                    "x": [field.element_to_json(x) for x in xs],
                                    "x_moved": [
                                        field.element_to_json(x) for x in shifted
                                    ],
                                    "r": r,
                                    "value_at_x": repr(CycloScalar(p, parent)),
                                    "value_at_moved": repr(CycloScalar(p, moved)),
                                }
                            )
            except FieldError as exc:
                error = str(exc)
            rows.append(
                DisSampleRow(
                    field=field,
                    params=dict(params),
                    trials=trials,
                    additivity_failures=add_fail,
                    center_failures=center_fail,
                    witnesses=tuple(witnesses),
                    error=error,
                )
            )
    return DisSampleReport(family=family, rows=tuple(rows))


def _negated(terms: list) -> list:
    """The raw terms of minus their sum."""
    return [(e2, j, pk, -n, d) for e2, j, pk, n, d in terms]

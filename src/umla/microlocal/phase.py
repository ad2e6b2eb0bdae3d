"""Support bounds for oscillatory integrals with polynomial phases.

For a polynomial phase ``p(x, eta)`` in ``n + r`` variables, a cell function
``phi`` on the ``x``-space, and a parameter polyball ``V`` in the
``eta``-space, consider

    I_eta(lam) = integral of phi(x) * psi(lam * p(x, eta)) dx.

When the ``x``-gradient of ``p`` stays bounded away from zero on
``supp(phi) x V``, the integral vanishes for all sufficiently scaled ``lam``,
uniformly in ``eta``.  :func:`stationary_phase_bound` certifies the gradient
bound cell by cell, derives an explicit vanishing threshold from the exact
ultrametric Taylor data, and confirms the bound by exhaustive integration
over a window of scales.

Mechanism, on one cell ``B_s(c)`` of the support at level ``s``: writing
``x = c + e`` with ``ord(e) >= s``,

    p(c + e, eta) = p(c, eta) + <grad_x p(c, eta), e> + sum_{|a| >= 2} q_a e^a.

If ``ord(lam) + ord(q_a) + |a| s >= 1`` for every higher term, the remainder
character is identically 1 on the cell, so the cell integral factors through
the linear character and vanishes as soon as some gradient coordinate
oscillates: ``ord(lam) + ord(grad_i) < 1 - s``.  With a certified gradient
valuation bound ``d0`` (``min_i ord(grad_i) <= d0`` everywhere) and a lower
bound ``B(s)`` on ``min_{|a|>=2} (ord(q_a) + |a| s)``, every scale in the
window ``1 - B(s) <= ord(lam) < 1 - s - d0`` is killed at level ``s``.
Because ``B`` grows at slope at least 2 in ``s`` while the upper edge falls
at slope 1, the windows chain downward from the first admissible level
``s0`` and cover the half line ``ord(lam) < 1 - s0 - d0``.

:func:`oscillatory_integral` computes the exact value with the same lemma.
It splits each support cell into subcells ``B_L(c)`` at the least level
``L`` at which the terms of degree ``|a| >= 2`` alone satisfy
``ord(lam) + ord(q_a) + |a| L >= 1``; the linear term does not enter the
level.  On ``B_L(c)`` the integral is ``q^(-n L) psi(lam p(c, eta))`` times
a product over the gradient coordinates of
``q^L * integral over pi^L O of psi(lam grad_i e) de``, which is 1 when
``ord(lam grad_i) >= 1 - L`` and 0 otherwise (a nontrivial character of a
compact group integrates to 0).  So a subcell whose gradient oscillates is
skipped without evaluating the phase, and each other subcell contributes
one character value.

The same skip applies to whole cells above level ``L``.  On a cell
``B_s(c)`` with ``s < L``, expand ``grad_i p(c + e, eta) = sum_b t_b(c) e^b``.
If one term dominates, ``ord(t_0(c)) < ord(t_b(c)) + sum_j b_j s_j`` for
every ``b != 0``, then ``ord(grad_i p)`` equals ``ord(t_0(c))`` at every
point of the cell.  When moreover ``ord(lam) + ord(t_0(c)) < 1 - L``, every
level-``L`` subcell of ``B_s(c)`` is skipped by the rule above, so the whole
subtree adds exactly 0 and is never enumerated.  The integral therefore
walks each support cell top-down: it drops such a subtree, splits any other
cell above level ``L`` by one level, and at level ``L`` applies the skip
rule to each subcell.  The level rule and the skip rule are unchanged by the
walk, and so is the value: it is a sum over the same subcells.  The cell
budget still counts the level-``L`` subcells requested, skipped ones
included, before the walk starts.  The dominant-term test is the one that
certifies the gradient bound in :func:`stationary_phase_bound`; both read
the gradient and its Taylor coefficients off one Taylor expansion of ``p``.

The phase is fixed while ``lam``, ``eta`` and ``phi`` vary, so what is
read off it lives on ``p`` itself and is built once, on first use:
``MultiPoly.taylor`` keeps the expansion in the first k variables, which
needs no field, and ``_Phase.of`` keeps, per field and k, the ``int_form``
of each Taylor coefficient and the gradient's Taylor terms with the orders
of their weights, read on ints (``polys.field_int_ord``).  A call reads two
of them: the certificate the one in all variables, the walks the one in
x alone.  The key is the field itself, since Q_p and F_p((t)) share p.

Every decision of the walk reads ``lam`` only through ``ord(lam)``: the
level ``L``, the budget check, the dropped subtrees and the skip rule.  The
integral is therefore computed in two steps.  A walk (``_Plan.walk``)
takes ``ord(lam)``, makes every decision, and keeps, per support cell, the
phase values ``p(c, eta)`` at the level-``L`` centres that are not
skipped; ``_angles`` counts, once per walk, what psi reads from
``m * p(c, eta)`` for a multiplier ``m`` of order ``ord(lam)``, and
``_sum`` adds ``q^(-n L) psi(u m p(c, eta))`` for a unit ``u`` from those
counts alone.

From the split to the psi angle a walk runs on integer codes, in one
format per call (``polys.walk_codes``): every coordinate of a cell, centre
and ``eta`` alike, is one int; a child is its parent's code plus a step.
At each point, ``_OrdsAt`` builds one power table of its codes and of the
walk's denominator, up to the largest degree of the phase's forms, on its
first read (``polys.power_table``).  Every form read at the point is
summed off that table: the ords of the gradient and of its Taylor terms
for the dominant-term test, those of the skip rule, and the kept value.
Each form is homogenised with its own degree, so its N is the one that
``monomial_ints`` gives, and ``codes.value_ord`` reads its ord.  A kept
value stays an int N: over Q_p, p(c, eta) = N / D^m, D the walk's
denominator and m the degree of p; over F_p((t)), N packs the digits v_k
of p(c, eta) at 2^W, v_k the digit k + K m of N mod p, K the walk's
shift.  The angle rule on ints: over Q_p, for ``mult = a / b`` write
T = b D^m p = p^t T' with T' prime to p; then
``psi_angle(mult * N / D^m) = j / p^t`` with j = a N T'^(-1) mod p^t, one
modular inverse per walk.  Over F_p((t)),
the digits of w = mult * v that psi reads are
w_{-i} = sum_j mult_j v_{-i-j} mod p, read off the digits of N.  No field
element is built between a split and its angle: elements are built only
for the ``eta`` samples of :func:`stationary_phase_bound`, which it
reports, and for the witness of a :class:`PhaseCertificationError`.

With psi as in ``fields.psi_angle`` (trivial on ``pi O`` over Q_p; the
``t^0`` digit over F_p((t))), the twist rule is: over Q_p, a unit code
``u`` is an integer, so psi(u w) = psi(w)^u, and an angle ``j / p^K`` of
``w`` becomes ``u j mod p^K``; over F_p((t)), ``u = sum_{i<d} u_i t^i``
gives psi(u w) = zeta_p^(sum_i u_i w_{-i}), so the counts are kept per
digit vector ``(w_0, w_{-1}, ..., w_{1-d})`` and a unit is one dot product
mod p.  :func:`oscillatory_integral` is one walk and one sum, with
``m = lam`` and ``u = 1``.  The verification of
:func:`stationary_phase_bound` makes one walk per (scale order ``e``,
``eta``), counts it once with ``m = pi^e``, and sums it for every unit
class of that order without building ``lam``.  A walk that keeps no value
is 0 at every unit class, the empty sum: its unit classes all get one zero
scalar, built once per call, and nothing is twisted or summed.

What the walks of one call share is set up once, in a plan (``_plan``):
one code format for every walk, at the deepest level over all its scales
and ``eta``; the codes of the support centres and of each ``eta``; and the
ord bounds (lb, |a|) of the higher Taylor terms on each (support cell,
``eta``), read by ``MultiPoly.ord_lower_bound``.  A walk adds only
``ord(lam)``: each cell's level in closed form, the least
``L >= max(levels)`` with ``lb + |a| L >= 1 - ord(lam)`` for every bound,
and the budget check, made when the walk runs, in the order of the walks.
:func:`oscillatory_integral` plans its one (lam, eta) the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from operator import mul
from typing import Iterator, NamedTuple

from ..cyclo import CycloScalar
from ..fields import INF, FieldError, LocalField, Polyball, _vp
from ..polys import (
    LaurentCodes,
    MultiPoly,
    QpCodes,
    field_int_ord,
    int_form,
    power_table,
    table_ints,
    walk_codes,
)
from ..schwartz import DEFAULT_CELL_BUDGET, SchwartzBruhat, check_budget


class PhaseCertificationError(FieldError):
    """Raised when the gradient bound fails at some point, or when exact
    integration contradicts the certified vanishing bound."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class PhaseBoundReport:
    """Certified vanishing bound for the scaled oscillatory integral.

    ``I_eta(lam) = 0`` whenever ``ord(lam) < threshold``, for every ``eta``
    in the parameter ball.  ``r = -threshold`` so the support in ``lam`` is
    contained in the ball of valuative radius ``-r``.
    """

    r: int
    threshold: int
    cell_level: int
    grad_ord_bound: int
    rest_profile: tuple
    certified_cells: int
    verification: dict
    detail: str

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "threshold": self.threshold,
            "cell_level": self.cell_level,
            "grad_ord_bound": self.grad_ord_bound,
            "rest_profile": [list(row) for row in self.rest_profile],
            "certified_cells": self.certified_cells,
            "verification": dict(self.verification),
            "detail": self.detail,
        }


def _grad_ord_from_delta(field: LocalField, delta) -> int:
    """Largest integer d0 with q**(-d0) >= delta, for a positive rational."""
    delta = Fraction(delta)
    if delta <= 0:
        raise FieldError("gradient lower bound must be positive")
    a, b = delta.numerator, delta.denominator
    q = field.q
    d0 = 0
    if b >= a:
        while b >= a * q ** (d0 + 1):
            d0 += 1
    else:
        while b < a * q**d0:
            d0 -= 1
    return d0


def _ball_coord_lo(field: LocalField, centers, radii) -> list:
    return [min(field.ord(c), r) for c, r in zip(centers, radii)]


def _term_bounds(field: LocalField, terms, coord_lo) -> list:
    """(lb, |a|) for each Taylor term (a, q_a) of ``terms`` whose lower bound
    lb on ord q_a, for coordinates of ord at least ``coord_lo``
    (``MultiPoly.ord_lower_bound``), is finite."""
    bounds = ((q.ord_lower_bound(field, coord_lo), sum(a)) for a, q in terms)
    return [(lb, w) for lb, w in bounds if lb != INF]


class _Phase:
    """Taylor data of a phase p over one field, read off its expansion
    ``tay`` in its first k variables (``p.taylor(k)``).

    ``tay`` is the expansion {a: q_a} with p(c + e) = sum_a q_a(c) e^a, and
    ``higher`` lists its terms of degree |a| >= 2.  For each expanded
    coordinate i < k with a nonzero derivative, ``grads`` holds (e_i, terms):
    d_i p = q_{e_i} and

        d_i p(c + e) = sum_b (b_i + 1) q_{b + e_i}(c) e^b,

    so ``terms`` lists (b, ord(b_i + 1), b + e_i) for every b != 0 there.
    ``forms`` holds the ``int_form`` of each q_a and ``pform`` that of p,
    which a walk evaluates on its codes, and ``deg`` the largest of their
    degrees, that of the power table of a point (``_OrdsAt``).

    The data depends on p, the field and k alone, not on lam, eta or phi, so
    :meth:`of` builds it once per (field, k) and keeps it on p.
    """

    __slots__ = ("tay", "higher", "grads", "forms", "pform", "deg")

    def __init__(self, field: LocalField, p: MultiPoly, k: int):
        self.tay = tay = p.taylor(k)
        self.forms = {a: int_form(field, q.coeffs) for a, q in tay.items()}
        self.pform = int_form(field, p.coeffs)
        self.deg = max(m for _, m in [self.pform, *self.forms.values()])
        self.higher = [(a, qpoly) for a, qpoly in tay.items() if sum(a) >= 2]
        self.grads = []
        for ei in tay:
            if sum(ei) != 1:
                continue
            i = ei.index(1)
            terms = [
                (a[:i] + (a[i] - 1,) + a[i + 1 :], field_int_ord(field, a[i]), a)
                for a in tay
                if a[i] and a != ei
            ]
            self.grads.append((ei, terms))

    @classmethod
    def of(cls, field: LocalField, p: MultiPoly, k: int) -> "_Phase":
        """The data of p over ``field`` expanded in its first k variables,
        built on the first call and kept on p (``MultiPoly._phases``).  The
        key is the field itself, not p: Q_3 and F_3((t)) share p = 3."""
        kept = p._phases
        if kept is None:
            kept = p._phases = {}
        got = kept.get((field, k))
        if got is None:
            got = kept[field, k] = cls(field, p, k)
        return got

    def grads_in(self, n: int) -> list:
        """The entries of ``grads`` for the first n coordinates."""
        return [(ei, terms) for ei, terms in self.grads if ei.index(1) < n]


class _OrdsAt(dict):
    """ord q_a at a point for the Taylor coefficients of a phase, on demand,
    read off the integer codes ``nums`` of the point (module docstring).

    The first read builds one ``power_table`` of the point's codes and of
    the walk's den, up to ``deg``, the largest degree of the forms read
    there; every form, ``value`` of the kept phase value included, is then
    summed off that table, homogenised with its own degree, and its ord read
    by ``codes.value_ord``.  No element is built.
    """

    __slots__ = ("codes", "forms", "nums", "deg", "table")

    def __init__(
        self, codes: QpCodes | LaurentCodes, forms: dict, nums: tuple, deg: int
    ):
        super().__init__()
        self.codes, self.forms, self.nums, self.deg = codes, forms, nums, deg
        self.table = None

    def value(self, form: tuple) -> int:
        """N of an ``int_form`` of degree <= ``deg`` at the point."""
        if self.table is None:
            self.table = power_table(self.nums, self.codes.den, self.deg)
        return table_ints(form[0], form[1], self.table)

    def __missing__(self, a):
        form = self.forms[a]
        o = self[a] = self.codes.value_ord(self.value(form), form[1])
        return o


def _dominant(grads: list, ords: _OrdsAt, radii, cap) -> bool:
    """Dominant-term test on the cell of the given radii around the point of
    ``ords``, read on its codes (module docstring).

    True when some gradient coordinate d_i p has ord <= ``cap`` at the center
    and every other term of its expansion there is strictly larger over the
    cell, so that ord(d_i p) is the same at every point of the cell.
    """
    for ei, terms in grads:
        o0 = ords[ei]
        if o0 > cap:
            continue
        if all(
            k_ord + ords[a] + sum(b * r for b, r in zip(beta, radii)) > o0
            for beta, k_ord, a in terms
        ):
            return True
    return False


def _subcells(
    codes: QpCodes | LaurentCodes, nums: tuple, radii, levels
) -> Iterator[tuple]:
    """Codes of the subcells at per-coordinate ``levels`` of the cell with
    codes ``nums``, in the order of ``Polyball`` (the last coordinate
    varies fastest)."""
    return product(*map(codes.child_codes, nums, radii, levels))


def _certify_gradient(
    field: LocalField, cert: _Phase, n: int, centers, levels, d0: int, budget: int
) -> int:
    """Certify min_i ord(grad_i) <= d0 over every point of the cell, i < n.

    The cell is the product of the balls of radii ``levels`` around the
    canonical ``centers``; :func:`stationary_phase_bound` passes each support
    cell of phi joined with V as the tuples (centre + V.centers, phi.levels +
    V.radii), with no ``Polyball`` built.  ``cert`` holds the expansion of
    the phase in all its variables, and the gradient is that of its first n,
    the integration variables.  A cell passing the dominant-term test at its
    center with cap ``d0`` is certified.  A center with every ord(grad_i) >
    d0 refutes the bound, and is the witness of the
    :class:`PhaseCertificationError` raised; any other cell is subdivided one
    level in every coordinate, at most ``budget`` cells in all.  Returns the
    number of cells certified.

    The cells are integer codes (module docstring).  Over F_p((t)) the codes
    hold the digits down to a depth fixed in advance; a cell that must split
    deeper starts the walk again with codes holding twice as many levels
    below the cell, and the walk visits the same cells in the same order.
    """
    grads = cert.grads_in(n)
    extra = 8  # levels below the cell that the first codes hold
    while True:
        codes = walk_codes(
            field, centers, min(levels), max(levels) + extra, cert.forms.values()
        )
        stack = [(tuple(map(codes.code, centers)), levels)]
        done = 0
        spent = 0
        while stack:
            nums, radii = stack.pop()
            spent += 1
            check_budget("gradient certificate", spent, budget)
            ords = _OrdsAt(codes, cert.forms, nums, cert.deg)
            if _dominant(grads, ords, radii, d0):
                done += 1
            elif all(ords[ei] > d0 for ei, _ in grads):
                raise PhaseCertificationError(
                    "gradient bound fails at a cell center",
                    witness=tuple(map(codes.element, nums)),
                )
            elif max(radii) < codes.limit:
                split = tuple(r + 1 for r in radii)
                kids = _subcells(codes, nums, radii, split)
                stack.extend((sub, split) for sub in kids)
            else:
                break  # the children would not fit the codes
        else:
            return done
        extra *= 2


def stationary_phase_bound(
    p: MultiPoly,
    phi: SchwartzBruhat,
    V: Polyball,
    delta,
    *,
    budget: int = DEFAULT_CELL_BUDGET,
    verify_window: int = 2,
    verify_eta_samples: int = 4,
) -> PhaseBoundReport:
    """Certified support bound for lam -> I_eta(p, phi)(lam), uniform in eta.

    ``p`` is a polynomial in ``phi.n + V.n`` variables (the first ``phi.n``
    are integration variables, the rest parameters ranging over ``V``), and
    ``delta`` is a positive rational lower bound for the sup-norm of the
    ``x``-gradient on ``supp(phi) x V``, supplied by the caller and checked
    here cell by cell.  Returns a report whose ``r`` satisfies: the support
    of lam -> I_eta(lam) is contained in the ball of valuative radius -r,
    i.e. the integral vanishes whenever ord(lam) < -r.  The bound is then
    confirmed by exhaustive exact integration over ``verify_window`` scale
    orders below the threshold at the exact unit depth, for
    ``verify_eta_samples`` sampled eta; both must be at least 1, or
    :class:`FieldError` is raised, as a check of nothing is no confirmation.
    The cell walk of an integral reads lam only through ord(lam), so the
    verification makes one walk per (scale order e, eta), when the first
    unit class of that order needs it, counts once what psi reads from
    pi^e times its kept values, and sums those counts for every unit class
    u by an integer twist: with psi as in ``fields.psi_angle``, an angle
    j / p^K becomes u j mod p^K over Q_p, and over F_p((t)) a digit vector
    (w_0, ..., w_{1-d}) becomes sum_i u_i w_{-i} mod p.  lam = pi^e u is
    built as a field element only for the witness of a contradiction.  A
    walk that keeps no value makes the integral 0 at every unit class of its
    order, so those integrals are one zero built once per call, with no
    twist.  The walks share one plan (module docstring): the code format at
    the deepest level of the window, the centre and eta codes, and the
    Taylor-term ord bounds per (support cell, eta); each walk adds ord(lam).

    The threshold reads the Taylor terms' ord bounds at the coordinate
    bounds of supp(phi) x V: over x ``phi.support_radii()``, the least
    min(ord c_i, r_i) over the support cells, and over eta min(ord c, r) of V.

    One ``budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds both
    the cells the gradient certificate visits per support cell and, as in
    :func:`oscillatory_integral`, the cells of each verification integral;
    exceeding it raises :class:`CellBudgetError`.
    """
    field = phi.field
    n, r_par = phi.n, V.n
    if p.n != n + r_par:
        raise FieldError("phase has wrong number of variables")
    if V.field != field:
        raise FieldError("parameter ball lives over a different field")
    for name, count in (
        ("verify_window", verify_window),
        ("verify_eta_samples", verify_eta_samples),
    ):
        if count < 1:
            raise FieldError(f"{name} must be at least 1, got {count}")
    d0 = _grad_ord_from_delta(field, delta)

    if phi.is_zero():
        raise FieldError("cell function has empty support")
    levels = phi.levels
    s_min = max(levels)

    # --- gradient certification over every support cell x V -----------------
    # the expansion of p in all its variables certifies the gradient; the
    # walks read the expansion in x alone, p.taylor(n), which is that one
    # restricted to the terms constant in the parameters
    cert = _Phase.of(field, p, p.n)
    if not cert.grads_in(n):
        raise PhaseCertificationError(
            "phase has identically vanishing gradient in the integration "
            "variables",
            witness=None,
        )
    phase = _Phase.of(field, p, n)
    certified = 0
    for center in phi.cells:
        certified += _certify_gradient(
            field, cert, n, center + V.centers, levels + V.radii, d0, budget
        )

    # --- remainder profile ---------------------------------------------------
    # ord bounds of the Taylor terms over supp(phi) x V: per x coordinate the
    # least min(ord c_i, r_i) over the support cells, the support radius
    coord_lo = list(phi.support_radii()) + _ball_coord_lo(field, V.centers, V.radii)
    bounds = _term_bounds(field, phase.tay.items(), coord_lo)
    rest_orders = [(lb, w) for lb, w in bounds if w >= 2]

    def rest_bound(s: int):
        if not rest_orders:
            return None  # no higher terms: remainder vanishes identically
        return min(lb + w * s for lb, w in rest_orders)

    # --- window chaining -----------------------------------------------------
    # the least s0 >= s_min with a nonempty kill window whose successors chain
    # downward forever: B(s0) > s0 + d0, i.e. lb + (w - 1) s0 > d0 for every
    # branch.  Every w >= 2, so this holds for all s >= s0 once it holds at
    # s0, and it implies B(s0 + 1) >= s0 + d0.
    s0 = max([s_min] + [(d0 - lb) // (w - 1) + 1 for lb, w in rest_orders])
    threshold = 1 - s0 - d0
    profile = tuple(
        (s, rest_bound(s), 1 - s - d0) for s in range(s0, s0 + 4)
    )

    # --- exhaustive confirmation over a scale window -------------------------
    # orders of p-values over supp x V bound the exact unit depth needed for
    # lam-orbit exhaustiveness at each scale order.
    p_min_ord = min((lb for lb, _ in bounds), default=0)

    # the first children of V, on codes; only the samples become elements
    vcodes = walk_codes(
        field, V.centers, min(V.radii, default=0), max(V.radii, default=0) + 1, ()
    )
    vnums = tuple(map(vcodes.code, V.centers))
    samples = _subcells(vcodes, vnums, V.radii, [r + 1 for r in V.radii])
    etas = [
        tuple(map(vcodes.element, nums))
        for nums in islice(samples, verify_eta_samples)
    ]
    scales = []
    depth_capped = False
    for e_ord in range(threshold - verify_window, threshold):
        depth = max(1, 1 - e_ord - p_min_ord)
        if depth > 4:
            depth = 4
            depth_capped = True
        scales.append((e_ord, depth))
    checked = 0
    for e_ord, ucode, eta, val in _unit_scale_integrals(
        field, phase, phi, etas, scales, budget
    ):
        checked += 1
        if not val.is_zero():
            lam = field.residue_lift(ucode, e_ord)
            raise PhaseCertificationError(
                "certified bound contradicted by exact integration",
                witness=(lam, eta, val),
            )
    verification = {
        "lambda_orders": [threshold - verify_window, threshold - 1],
        "eta_samples": len(etas),
        "integrals_checked": checked,
        "unit_depth_capped": depth_capped,
        "all_zero": True,
    }

    return PhaseBoundReport(
        r=-threshold,
        threshold=threshold,
        cell_level=s0,
        grad_ord_bound=d0,
        rest_profile=profile,
        certified_cells=certified,
        verification=verification,
        detail=(
            "windows chain downward from level %d; gradient valuation bound "
            "%d certified on %d cell(s)" % (s0, d0, certified)
        ),
    )


def oscillatory_integral(
    p: MultiPoly,
    phi: SchwartzBruhat,
    eta,
    lam,
    *,
    budget: int = DEFAULT_CELL_BUDGET,
) -> CycloScalar:
    """Exact value of integral_x phi(x) psi(lam * p(x, eta)) dx.

    Each support cell is split into subcells ``B_L(c)`` at the least level
    ``L`` where the Taylor terms of degree >= 2 are trivial under psi (see
    the module docstring).  A subcell with ``ord(lam * grad_i p(c, eta)) <
    1 - L`` for some ``i`` is skipped, since a nontrivial character
    integrates to 0 over ``pi^L O``; every other subcell adds
    ``q^(-n L) psi(lam * p(c, eta))``.  The level rule and the skip rule are
    those of the module docstring, unchanged by the order of the walk: each
    support cell is walked top-down, and a cell above level ``L`` on which a
    dominant Taylor term makes ``ord(lam * grad_i p)`` constant and below
    ``1 - L`` is dropped whole, because every level-``L`` subcell in it would
    be skipped.  ``budget`` bounds the number of level-``L`` subcells of one
    support cell that the level requests, skipped ones included, whether the
    walk visits them or not (default the shared ``DEFAULT_CELL_BUDGET``);
    exceeding it raises :class:`CellBudgetError`.  The walk reads lam only
    through ord(lam); the psi values of lam times the kept phase values are
    then counted once and summed, as the unit class u = 1 of the
    verification in :func:`stationary_phase_bound`.  An int ``lam`` or
    ``eta`` coordinate is read as ``field.from_int``.
    """
    field = phi.field
    eta = tuple(field.from_int(v) if isinstance(v, int) else v for v in eta)
    if isinstance(lam, int):
        lam = field.from_int(lam)
    if p.n != phi.n + len(eta):
        raise FieldError("phase has wrong number of variables")
    if field.is_zero(lam):
        return phi.integrate()
    phase = _Phase.of(field, p, phi.n)
    walk = _walk(field, phase, phi, eta, field.ord(lam), budget)
    return _sum(field, phi.n, _angles(field, walk, lam, 1), 1)


def _unit_scale_integrals(
    field: LocalField,
    phase: _Phase,
    phi: SchwartzBruhat,
    etas: list,
    scales: list,
    budget: int,
):
    """Yield (e, u, eta, I_eta(pi^e u)) for each (e, depth) in ``scales``,
    each unit class code u at that depth and each eta, in this order.

    The walk of each eta is made once per scale, when the first unit needs
    it, and its psi values at pi^e times the kept phase values are counted
    once (``_angles`` at depth d).  Each unit class then twists those counts
    on ints (``_sum``): over Q_p the unit code u is an integer and an angle
    j / p^K becomes u j mod p^K; over F_p((t)), u = sum_{i<d} u_i t^i and a
    digit vector (w_0, ..., w_{1-d}) becomes sum_i u_i w_{-i} mod p, psi
    reading the t^0 digit.  No lam is built here.

    When the walk keeps no value, every unit class of its order yields the
    same zero, built once per call: the integral is the empty sum.  The
    walks share one ``_plan`` of every eta and scale order, and each adds
    its ord(lam) and its budget check, made when the walk runs.
    """
    plan = _plan(field, phase, phi, etas, [e_ord for e_ord, _ in scales])
    zero = CycloScalar.zero(field.p)
    for e_ord, depth in scales:
        pi_e = field.pow_uniformizer(e_ord)
        counts = [None] * len(etas)
        for ucode in field.unit_classes(depth):
            for i, eta in enumerate(etas):
                if counts[i] is None:
                    walk = plan.walk(field, phase, i, e_ord, budget)
                    counts[i] = _angles(field, walk, pi_e, depth)
                val = _sum(field, phi.n, counts[i], ucode) if counts[i] else zero
                yield e_ord, ucode, eta, val


class _Walk(NamedTuple):
    """What a walk keeps: its ``codes`` (``polys.walk_codes``), the degree
    ``deg`` of the phase's ``int_form``, and per support cell (coef, L,
    values), the kept values as ints (module docstring); the value N of a
    cell is ``codes.element(N, deg)``."""

    codes: QpCodes | LaurentCodes
    deg: int
    cells: list


class _Plan(NamedTuple):
    """What the walks of one call share, built once by :func:`_plan`: one
    ``codes`` format for every walk, the support cells as (centre codes,
    coef), the ``levels`` of ``phi``, and per eta (its codes, the ord
    bounds (lb, |a|) of the higher Taylor terms on each support cell with
    that eta).  A walk adds only ord(lam) (:meth:`walk`)."""

    codes: QpCodes | LaurentCodes
    cells: list
    levels: tuple
    etas: list

    def walk(
        self, field: LocalField, phase: _Phase, i: int, lam_ord: int, budget: int
    ) -> _Walk:
        """The cell walk of :func:`oscillatory_integral` at the i-th eta for
        every lam of order ``lam_ord``, on phase data expanded in x alone.

        Keeps, per support cell, (coef, L, values): the cell's coefficient,
        its level L and the phase values p(c, eta) at the level-L centres c
        that the skip rule keeps.  Every level and budget check comes first;
        the cells are then split and the values kept on the plan's codes
        alone (module docstring).
        """
        codes, levels = self.codes, self.levels
        eta_codes, steps = self.etas[i]
        todo = [_level(s, levels, lam_ord) for s in steps]
        for level in todo:
            cells = field.q ** sum(level - r for r in levels)
            check_budget("oscillatory integral", cells, budget)
        out = []
        for (nums, coef), level in zip(self.cells, todo):
            # walk the cell top-down: drop a subtree on which some lam * d_i p
            # has one valuation below 1 - level, split any other cell above
            # the level, and at the level keep p(c, eta) unless a gradient
            # coordinate oscillates
            values = []
            stack = [(nums, levels)]
            while stack:
                nums, radii = stack.pop()
                point = nums + eta_codes
                ords = _OrdsAt(codes, phase.forms, point, phase.deg)
                if min(radii) == level:
                    if all(ords[ei] + lam_ord >= 1 - level for ei, _ in phase.grads):
                        values.append(ords.value(phase.pform))
                elif not _dominant(phase.grads, ords, radii, -level - lam_ord):
                    split = tuple(min(r + 1, level) for r in radii)
                    kids = _subcells(codes, nums, radii, split)
                    stack.extend((sub, split) for sub in kids)
            out.append((coef, level, values))
        return _Walk(codes, phase.pform[1], out)


def _level(steps: list, levels: tuple, lam_ord: int) -> int:
    """The level L of a support cell: the least L >= max(levels) with
    lb + w L >= 1 - lam_ord for every (lb, w) in ``steps``."""
    return max([max(levels)] + [-((lb + lam_ord - 1) // w) for lb, w in steps])


def _plan(
    field: LocalField, phase: _Phase, phi: SchwartzBruhat, etas: list, lam_ords
) -> _Plan:
    """The :class:`_Plan` of the walks at every eta of ``etas`` and every
    order of ``lam_ords``: the codes hold the deepest level of them all,
    and the ord bounds of each (support cell, eta) are read once, by
    ``MultiPoly.ord_lower_bound`` (``_term_bounds``)."""
    levels = phi.levels
    cells = phi.cells  # keyed by canonical centres already
    center_lo = [_ball_coord_lo(field, c, levels) for c in cells]
    steps = []
    for eta in etas:
        eta_lo = [field.ord(v) for v in eta]  # exact; INF for zero coordinates
        steps.append(
            [_term_bounds(field, phase.higher, lo + eta_lo) for lo in center_lo]
        )
    deepest = max(
        (_level(s, levels, o) for o in lam_ords for row in steps for s in row),
        default=max(levels),  # phi = 0 has no cell
    )
    xs = [x for c in cells for x in c] + [x for eta in etas for x in eta]
    codes = walk_codes(field, xs, min(levels), deepest, phase.forms.values())
    return _Plan(
        codes,
        [(tuple(map(codes.code, c)), coef) for c, coef in cells.items()],
        levels,
        [(tuple(map(codes.code, eta)), row) for eta, row in zip(etas, steps)],
    )


def _walk(
    field: LocalField,
    phase: _Phase,
    phi: SchwartzBruhat,
    eta: tuple,
    lam_ord: int,
    budget: int,
) -> _Walk:
    """The walk of one (lam, eta): :meth:`_Plan.walk` on a plan of its own."""
    plan = _plan(field, phase, phi, [eta], [lam_ord])
    return plan.walk(field, phase, 0, lam_ord, budget)


def _angles(field: LocalField, walk: _Walk, mult, depth: int) -> list:
    """What psi reads from ``mult`` times each kept value of a walk, counted
    once per support cell: (coef, L, den, hist) per cell, read on the ints
    by the angle rule of the module docstring.

    Over Q_p, ``hist`` counts the numerators (j,) of the angles
    ``psi_angle(mult v) = j / den``, den = p^t for T = b D^m p = p^t T'.
    Over F_p((t)), it counts the digit vectors (w_0, w_{-1}, ...,
    w_{1-depth}) of w = mult v, and den = p.  A walk that keeps no value
    counts nothing, and the list is empty.
    """
    codes, deg, cells = walk
    p = field.p
    if not any(values for _, _, values in cells):
        return []
    if field.kind == "p-adic":
        scale = mult.denominator * codes.den**deg * p
        den = p ** _vp(scale, p)
        # one inverse per walk: j = a N T'^(-1) mod p^t
        factor = mult.numerator * pow(scale // den, -1, den) % den
        return [
            (coef, level, den, Counter((v * factor % den,) for v in values))
            for coef, level, values in cells
        ]
    width, low = codes.width, codes.shift * deg
    mask = (1 << width) - 1
    # w_{-i} = sum_j mult_j v_{-i-j}, v_k the digit k + low of N
    reads = [
        [(c, width * (low - i - j)) for j, c in mult.coeffs if low - i - j >= 0]
        for i in range(depth)
    ]

    def digits(v: int) -> tuple:
        return tuple(sum(c * (v >> at & mask) for c, at in row) % p for row in reads)

    return [
        (coef, level, p, Counter(map(digits, values))) for coef, level, values in cells
    ]


def _twist(field: LocalField, den: int, hist: dict, ucode: int) -> dict:
    """The counts of ``_angles`` for the multiplier times the unit class
    ``ucode``: {numerator j of the psi angle j / den: count}.

    A key is a vector x and the unit a vector u of the same kind, and the
    twisted numerator is sum_i u_i x_i mod den: over Q_p u = (ucode,), the
    unit code itself; over F_p((t)) u holds the base-p digits of ucode,
    low first, the coefficients of residue_lift(ucode).
    """
    if field.kind == "p-adic":
        us = (ucode,)
    else:
        us = []
        while ucode:
            ucode, digit = divmod(ucode, field.p)
            us.append(digit)
    out = {}
    for xs, k in hist.items():
        j = sum(map(mul, us, xs)) % den
        out[j] = out.get(j, 0) + k
    return out


def _sum(field: LocalField, n: int, angles: list, ucode: int) -> CycloScalar:
    """I_eta(pi^e u) from the counts of ``_angles`` at the multiplier pi^e
    (or lam, with u = 1), for the unit class code ``ucode``.

    Per support cell, coef times q^(-n L) times the sum of psi(u w) over the
    kept w, read off the counts by the integer twist of ``_twist``: with
    psi as in ``fields.psi_angle``, j / p^K becomes u j mod p^K over Q_p,
    and (w_0, ..., w_{1-d}) becomes sum_i u_i w_{-i} mod p over F_p((t)).
    The twisted counts, the cell coefficient and the q-shift of every cell
    fold into the integer raw terms of one scalar (``CycloScalar.raw``: the
    count times the coefficient, rotated by j / den), canonicalised once.
    """
    raw = []
    for coef, level, den, hist in angles:
        shift = -2 * n * level
        for j, k in _twist(field, den, hist, ucode).items():
            raw += coef.raw(shift, j, den, k)
    return CycloScalar(field.p, raw)

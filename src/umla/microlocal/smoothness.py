"""Directional smoothness verdicts for mixed-cell distributions.

``is_smooth_at(u, x0, xi0, subgroup)`` decides whether the pair
``(x0, xi0)`` is a smooth point of ``u`` in the scaling sense: whether some
cell-function localization ``chi`` around ``x0`` makes the transform of
``chi * u`` vanish along the orbit ``lam * xi0`` for all subgroup elements
``lam`` of sufficiently negative valuation.

The decision is structural, not numeric.  After localizing at a stabilizing
level, every term of the transform is a product of per-coordinate factors
whose restriction to the ray is either

* an indicator window in ``ord(lam)`` (ball factor on a coordinate where
  ``xi0`` is nonzero) — the term vanishes identically below an explicit
  threshold;
* a constant (ball factor on a coordinate where ``xi0`` is zero); or
* a unit-modulus character ``psi(beta * lam)`` (factor coming from a point
  mass).

Terms that keep a vanishing window die below the threshold ``N``; the
remaining "survivor" terms sum to an exact finite character sum in ``lam``.
If the merged character sum is identically zero the verdict is ``smooth``
with certificate ``(s, N)``.  Otherwise the sum is evaluated at subgroup
representatives of decreasing valuation: a nonzero value is an explicit
witness of non-smoothness.  If no witness is found in the search window the
verdict is ``undecided`` — the subgroup's classes may be too thin for the
character sum to be resolved by representatives, and the checker never
upgrades absence of a witness into a smoothness claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from ..cyclo import CycloScalar
from ..distribution import BALL, LINE, POINT, MixedCellDistribution
from ..fields import FieldError, _vp
from ..schwartz import SchwartzBruhat
from .subgroup import LambdaSubgroup

__all__ = ["SmoothnessVerdict", "is_smooth_at"]

# subgroup representatives tried per valuation in the ray-witness search
_REPS_PER_ORD = 64


@dataclass(frozen=True)
class SmoothnessVerdict:
    kind: str  # "smooth" | "not_smooth" | "undecided"
    localization_level: int
    threshold: int | None  # transform vanishes on the ray below this ord
    witnesses: tuple  # ((lam, value) pairs for not_smooth)
    detail: str = ""

    def to_json(self, field=None) -> dict:
        wit = []
        for lam, val in self.witnesses:
            wit.append(
                {
                    "lam": field.element_to_json(lam) if field else repr(lam),
                    "value": val.to_json(),
                }
            )
        return {
            "kind": self.kind,
            "localization_level": self.localization_level,
            "threshold": self.threshold,
            "witnesses": wit,
            "detail": self.detail,
        }


def _stabilizing_level(u: MixedCellDistribution, x0) -> int:
    """A localization level at which the term structure along rays is stable.

    Fine enough to (a) separate every point mass not exactly at x0, (b) be at
    least as fine as every ball factor, and (c) absorb every modulation on a
    density coordinate into a constant.  Ball data is read on the codes: a
    modulation code m at origin lo has ord lo + v_q(m).
    """
    f, q = u.field, u.field.q
    s = 1
    for _, key in u._coded:
        for x, e, c in zip(key, u._lo, x0):
            if x[0] == POINT:
                d = f.sub(x[1], c)
                if not f.is_zero(d):
                    s = max(s, f.ord(d) + 1)
            elif x[0] == BALL:
                s = max(s, x[1])
                if x[3]:
                    s = max(s, 1 - e - _vp(x[3], q))
            elif not f.is_zero(x[1]):
                s = max(s, 1 - f.ord(x[1]))
    return s


def _ray_profile(w: MixedCellDistribution, xi0):
    """Classify the transform's terms along the ray lam * xi0.

    Returns (threshold, survivors): ``threshold`` is the valuation below
    which every windowed term vanishes identically (None if there are none),
    and ``survivors`` maps character frequencies beta to their merged scalar
    coefficients; along the ray, below the threshold, the transform equals
    sum_beta survivors[beta] * psi(beta * lam) exactly.  A ball's centre is
    read on its code at origin lo: 0 exactly when the code is, and of ord
    lo + v_q(code) otherwise.
    """
    f, q = w.field, w.field.q
    ords = [None if f.is_zero(c) else f.ord(c) for c in xi0]
    thresholds = []
    coefs = {}  # beta -> its terms' coefficients, betas in order of first use
    for coef, key in w._coded:
        kill = None  # widest vanishing window over the term's coordinates
        alive = True
        for x, e, o in zip(key, w._lo, ords):
            if x[0] == BALL:
                _, radius, c, _ = x
                if o is None:
                    # constant factor: does the ball contain 0?
                    if c:
                        alive = False
                        break
                else:
                    t = (min(e + _vp(c, q), radius) if c else radius) - o
                    kill = t if kill is None else max(kill, t)
            # lines restrict to unit-modulus characters; point masses cannot
            # appear in the transform of a compactly supported localization
        if not alive:
            continue
        if kill is not None:
            thresholds.append(kill)
            continue
        # on a survivor every ball sits where xi0 is 0: only lines add to beta
        beta = f.zero()
        for x, c in zip(key, xi0):
            if x[0] == LINE:
                beta = f.add(beta, f.mul(x[1], c))
        coefs.setdefault(beta, []).append(coef)
    # a lone coefficient is canonical already
    sums = ((b, cs[0] if len(cs) == 1 else CycloScalar.sum(f.p, cs)) for b, cs in coefs.items())
    survivors = {b: c for b, c in sums if not c.is_zero()}
    threshold = min(thresholds) if thresholds else None
    return threshold, survivors


def _ray_value(f, survivors: dict, lam) -> CycloScalar:
    """sum_beta survivors[beta] * psi(beta * lam), canonicalised once."""
    raw = []
    for beta, c in survivors.items():
        angle = f.psi_angle(f.mul(beta, lam))
        raw += c.raw(0, angle.numerator, angle.denominator)
    return CycloScalar(f.p, raw)


def _ray_witnesses(f, survivors: dict, threshold, subgroup, search_depth: int):
    """(lam, value) with the first nonzero ray value per valuation.

    Valuations run down from just below ``threshold`` (from -1 when there is
    none) over ``search_depth`` steps, trying at most ``_REPS_PER_ORD``
    subgroup representatives at each.
    """
    start = (threshold - 1) if threshold is not None else -1
    for e in range(start, start - search_depth, -1):
        for lam in _reps_at_ord(subgroup, e, _REPS_PER_ORD):
            total = _ray_value(f, survivors, lam)
            if not total.is_zero():
                yield lam, total
                break


def is_smooth_at(
    u: MixedCellDistribution,
    x0,
    xi0,
    subgroup: LambdaSubgroup,
    search_depth: int = 6,
) -> SmoothnessVerdict:
    """Three-valued directional smoothness verdict at (x0, xi0).

    Every ball-indicator localization level from 1 up to the stabilizing
    level is tried; the pair is smooth as soon as one level leaves no
    survivor characters.  Beyond the stabilizing level the survivor sum only
    rescales by a fixed nonzero factor (deeper digits of the base point
    rotate every term by a trivial character), so levels above it certify or
    fail together with it, and witnesses found there are conclusive for all
    finer localizations.  Coarser levels are each checked individually for a
    witness before the verdict may be ``not_smooth``.
    """
    f = u.field
    x0, xi0 = tuple(x0), tuple(xi0)
    if len(x0) != u.n or len(xi0) != u.n:
        raise FieldError("dimension mismatch")
    if all(f.is_zero(c) for c in xi0):
        raise FieldError("probe codirection must be nonzero")
    if subgroup.field != f:
        raise FieldError("scaling subgroup lives on a different field")

    s_max = _stabilizing_level(u, x0)
    one = CycloScalar.one(f.p)
    profiles = []  # (level, threshold, survivors)
    for s in range(1, s_max + 1):
        loc = u.mul_by_sb(_ball_indicator(f, x0, s, one))
        if loc.is_zero():
            return SmoothnessVerdict(
                "smooth", s, None, (), "distribution vanishes near the base point"
            )
        threshold, survivors = _ray_profile(loc.fourier_dist(), xi0)
        if not survivors:
            return SmoothnessVerdict(
                "smooth",
                s,
                threshold,
                (),
                "all windowed terms vanish below the threshold; no survivors",
            )
        profiles.append((s, threshold, survivors))

    # no level certified smoothness; hunt for a nonzero ray value per level
    witnesses_by_level = [
        list(islice(_ray_witnesses(f, survivors, threshold, subgroup, search_depth), 3))
        for _, threshold, survivors in profiles
    ]

    if all(witnesses_by_level):
        s, threshold, survivors = profiles[-1]
        return SmoothnessVerdict(
            "not_smooth",
            s,
            threshold,
            tuple(witnesses_by_level[-1]),
            f"{len(survivors)} survivor character(s) at the stabilizing level; "
            "nonzero ray values exhibited at every localization level",
        )
    s, threshold, _ = profiles[-1]
    if all(
        not subgroup.units_at_ord(e) for e in range(-1, -1 - search_depth, -1)
    ):
        detail = "subgroup has no elements in the probed valuation window"
    else:
        detail = "survivor character sum vanished on all probed subgroup classes"
    return SmoothnessVerdict("undecided", s, threshold, (), detail)


def _ball_indicator(f, x0, s: int, one: CycloScalar) -> SchwartzBruhat:
    """The indicator of B_s(x0) on codes (``schwartz`` docstring): its one
    cell's centre cut at s, coded at the origin min(s, ord of the cut
    centre) of each coordinate."""
    centre = [f.canon_trunc(x, s) for x in x0]
    lo = tuple(s if f.is_zero(c) else min(s, f.ord(c)) for c in centre)
    key = tuple(f.residue_code(c, e) for c, e in zip(centre, lo))
    return SchwartzBruhat._trusted(f, len(lo), (s,) * len(lo), lo=lo, codes={key: one})


def _reps_at_ord(subgroup: LambdaSubgroup, e: int, cap: int):
    f = subgroup.field
    units = subgroup.units_at_ord(e)[:cap]
    return [f.residue_lift(u, e) for u in units]

"""Convergence diagnostics for sequences of distributions relative to a cone.

Membership in the cone-constrained space asks for the wave front set of every
member to lie inside a closed scaling cone Gamma; convergence there asks for
two things beyond the space membership:

1. plain distributional convergence: pairings against test functions settle,
2. uniform frequency decay off the cone: for each probe (x0, eta0) outside
   Gamma there is a localization window around x0 and a single threshold N,
   independent of the sequence index, such that every localized transform
   vanishes on the scaled ray below N.

Both are properties of the full infinite sequence; this module inspects a
finite window of it and reports exact per-index data together with a window
diagnosis.  A "fails" verdict is an exact exhibit (values or drifting
thresholds inside the window); a "holds" verdict certifies the window only —
a deeper window can still reveal drift, which is the honest limit of finite
inspection.

The classical counterexample lives here as well: the sequence
``q**(r/2) * 1_{B_r(0)}`` pairs to zero in the limit yet its localized
transforms vanish only below thresholds that drift to minus infinity with
``r``, so uniform decay fails — and its pullback under a constant map
diverges pointwise, which is exactly why pullback continuity needs the finer
topology that condition 2 encodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cyclo import CycloScalar
from ..distribution import MixedCellDistribution
from ..fields import FieldError, Polyball
from ..schwartz import SchwartzBruhat
from .cones import LambdaCone
from .smoothness import _ray_profile, _ray_witnesses
from .subgroup import LambdaSubgroup
from .wavefront import wavefront_exact


@dataclass(frozen=True)
class PairingProbeReport:
    """Exact pairings of the sequence window against one test function."""

    values: tuple  # CycloScalar per index, pairing with (u_j - limit)
    magnitudes: tuple  # float magnitude per index
    diagnosis: str  # constant_equal | stabilizes | tends_to_limit |
    #                 diverges | inconclusive

    def to_json(self) -> dict:
        return {
            "values": [v.to_json() for v in self.values],
            "magnitudes": list(self.magnitudes),
            "diagnosis": self.diagnosis,
        }


@dataclass(frozen=True)
class RayProbeReport:
    """Uniform-decay data for one probe point off the cone."""

    x0: tuple
    eta0: tuple
    levels: tuple  # per localization level: dict with thresholds + verdict
    diagnosis: str  # holds_in_window | fails_in_window
    uniform_level: object  # level certifying uniformity, or None
    uniform_threshold: object  # the j-independent N at that level, or None

    def to_json(self, field) -> dict:
        return {
            "x0": [field.element_to_json(c) for c in self.x0],
            "eta0": [field.element_to_json(c) for c in self.eta0],
            "levels": [dict(row) for row in self.levels],
            "diagnosis": self.diagnosis,
            "uniform_level": self.uniform_level,
            "uniform_threshold": self.uniform_threshold,
        }


@dataclass(frozen=True)
class ConvergenceReport:
    membership: tuple  # per index: wave front set inside the cone (bool)
    pairings: tuple  # PairingProbeReport per test function
    rays: tuple  # RayProbeReport per probe point
    verdict: str  # converges_in_window | fails_uniform_decay |
    #               fails_pairings | fails_both | no_probes

    def to_json(self, field) -> dict:
        return {
            "membership": list(self.membership),
            "pairings": [p.to_json() for p in self.pairings],
            "rays": [r.to_json(field) for r in self.rays],
            "verdict": self.verdict,
        }


def _magnitude(value: CycloScalar) -> float:
    return abs(value.approx())


def _pairing_diagnosis(mags) -> str:
    if all(m == 0.0 for m in mags):
        return "constant_equal"
    tail = max(2, len(mags) // 3)
    if len(mags) > tail and all(m == 0.0 for m in mags[-tail:]):
        return "stabilizes"
    if len(mags) >= 3:
        last = mags[-tail - 1 :]
        if all(a > b for a, b in zip(last, last[1:])) and last[-1] < mags[0]:
            return "tends_to_limit"
        if all(a < b for a, b in zip(last, last[1:])) and last[-1] > mags[0]:
            return "diverges"
        if all(a == b for a, b in zip(last, last[1:])):
            # settled, but at a nonzero distance from the declared limit
            return "stabilizes_off_limit"
    return "inconclusive"


def _localized_threshold(u, eta0, subgroup, search_depth):
    """(kind, payload) for one member at one localization level.

    kind "vacuous": the localization vanishes;
    kind "threshold": transform vanishes on the ray below payload;
    kind "nonvanishing": exact nonzero ray values below every threshold
      (payload is a witness);
    kind "unresolved": survivors whose character sum vanished on every
      probed class.
    """
    f = u.field
    if u.is_zero():
        return ("vacuous", None)
    threshold, survivors = _ray_profile(u.fourier_dist(), eta0)
    if not survivors:
        return ("threshold", threshold)
    witnesses = _ray_witnesses(f, survivors, threshold, subgroup, search_depth)
    witness = next(witnesses, None)
    if witness is not None:
        return ("nonvanishing", witness)
    return ("unresolved", None)


def sgamma_convergence_check(
    members,
    gamma: LambdaCone,
    subgroup: LambdaSubgroup,
    *,
    test_functions=(),
    ray_probes=(),
    limit: MixedCellDistribution | None = None,
    search_depth: int = 6,
) -> ConvergenceReport:
    """Inspect a window of a distribution sequence for cone-aware convergence.

    ``members`` is the finite window u_0 .. u_{J-1}; ``limit`` defaults to
    the zero distribution.  ``test_functions`` drive the plain-convergence
    probes; ``ray_probes`` is an iterable of (x0, eta0) points expected to
    lie outside ``gamma`` and drives the uniform-decay probes, scanning
    localization levels 1 .. ``search_depth``.
    """
    members = list(members)
    if not members:
        raise FieldError("empty sequence window")
    f = members[0].field
    n = members[0].n
    for u in members:
        if u.field != f or u.n != n:
            raise FieldError("sequence members live on different spaces")
    if limit is None:
        limit = MixedCellDistribution.zero(f, n)

    membership = tuple(
        wavefront_exact(u).subset_of(gamma) for u in members
    )

    pairings = []
    for phi in test_functions:
        values = tuple((u - limit).evaluate(phi) for u in members)
        mags = tuple(_magnitude(v) for v in values)
        pairings.append(
            PairingProbeReport(values, mags, _pairing_diagnosis(mags))
        )

    rays = []
    for x0, eta0 in ray_probes:
        x0, eta0 = tuple(x0), tuple(eta0)
        if gamma.contains(x0, eta0):
            raise FieldError("ray probe lies inside the cone")
        level_rows = []
        uniform_level = None
        uniform_threshold = None
        for s in range(1, search_depth + 1):
            chi = SchwartzBruhat.indicator(Polyball.ball(f, x0, s))
            kinds = []
            thresholds = []
            witness = None
            for u in members:
                kind, payload = _localized_threshold(
                    u.mul_by_sb(chi), eta0, subgroup, search_depth
                )
                kinds.append(kind)
                if kind == "threshold":
                    thresholds.append(payload)
                elif kind == "vacuous":
                    thresholds.append(None)
                else:
                    witness = (len(kinds) - 1, kind, payload)
                    break
            if witness is not None:
                level_rows.append(
                    {
                        "level": s,
                        "verdict": witness[1],
                        "member": witness[0],
                        "thresholds": thresholds,
                    }
                )
                continue
            finite = [t for t in thresholds if t is not None]
            if not finite:
                uniform = True
                nval = None
            else:
                tail = max(2, len(finite) // 2)
                uniform = len(set(finite[-tail:])) == 1
                nval = min(finite)
            level_rows.append(
                {
                    "level": s,
                    "verdict": "uniform" if uniform else "drifting",
                    "thresholds": thresholds,
                }
            )
            if uniform and uniform_level is None:
                uniform_level = s
                uniform_threshold = nval
        diagnosis = (
            "holds_in_window" if uniform_level is not None else "fails_in_window"
        )
        rays.append(
            RayProbeReport(
                x0, eta0, tuple(level_rows), diagnosis,
                uniform_level, uniform_threshold,
            )
        )

    pair_ok = all(
        p.diagnosis in ("constant_equal", "stabilizes", "tends_to_limit")
        for p in pairings
    )
    ray_ok = all(r.diagnosis == "holds_in_window" for r in rays)
    if not pairings and not rays:
        verdict = "no_probes"
    elif pair_ok and ray_ok:
        verdict = "converges_in_window"
    elif pair_ok:
        verdict = "fails_uniform_decay"
    elif ray_ok:
        verdict = "fails_pairings"
    else:
        verdict = "fails_both"
    return ConvergenceReport(membership, tuple(pairings), tuple(rays), verdict)

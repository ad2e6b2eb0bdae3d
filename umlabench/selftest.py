"""The correctness gate must not be vacuous: each oracle rejects a wrong result.

For every call of the smoke-size workloads, the true result is computed and
judged, then a deliberately wrong result of the same type is built and the
oracle must reject it.  A true result that the oracle rejects is reported
(it is either a program defect or an oracle defect); a wrong result that it
accepts makes the self-test fail.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import oracle as O
import workloads as W


def wrong(call, res, U):
    """A result of the same shape as `res` that a correct oracle must reject."""
    kind = call.kind
    CS = U.cyclo.CycloScalar
    D = U.dist.MixedCellDistribution
    if kind in ("oscillatory_integral", "fiber_integrate"):
        return CS(res.p, list(res.terms) + [(0, Fraction(0), Fraction(1))])
    if kind == "stationary_phase_bound":
        t = res.threshold + 2
        return dataclasses.replace(res, threshold=t, r=-t)
    if kind == "padic_roots":
        return res[1:] if res else [Fraction(1, 3)]
    if kind == "level_measure":
        rows = dict(res.rows)
        key = min(rows)
        rows[key] += 1
        return dataclasses.replace(res, rows=rows)
    if kind.startswith("SchwartzBruhat."):
        return res.scale(2)
    if kind in ("MixedCellDistribution.fourier_dist", "MixedCellDistribution.mul_by_sb",
                "pullback", "pushforward"):
        return res + D.delta(res.field, (res.field.zero(),) * res.n)
    if kind == "is_smooth_at":
        if res.kind == "not_smooth":
            return dataclasses.replace(res, kind="smooth", witnesses=())
        F = call.meta["field"]
        lam = F.pow_uniformizer(-5)
        return dataclasses.replace(res, kind="not_smooth", witnesses=((lam, CS.one(F.p)),))
    if kind == "wavefront_exact":
        return dataclasses.replace(res, cells=())
    if kind == "dis_sample":
        return _wrong_dis(call, res)
    raise AssertionError(f"no wrong-result rule for {kind}")


def _wrong_dis(call, rep):
    """Claim a law failure on a ball where the family obeys the law."""
    _, _, _, closed = call.meta["family"]
    row = rep.rows[0]
    F = row.field
    OF = O.OField(F.kind, F.p)
    x = OF.const(0)
    for r in range(-5, 6):
        b = lambda z, rr: closed(OF, z, rr, call.meta["c"])
        if abs(b(x, r) - sum(b(z, r + 1) for z in OF.grid(x, r, r + 1))) < 1e-9:
            break
    fake = {"law": "additivity", "x": [F.element_to_json(F.zero())], "r": r,
            "ball_value": "0", "subcell_sum": "0"}
    bad = dataclasses.replace(row, additivity_failures=row.additivity_failures + 1,
                              witnesses=row.witnesses + (fake,))
    return dataclasses.replace(rep, rows=(bad,) + rep.rows[1:])


def main(seed: int) -> int:
    vacuous = 0
    total = 0
    for name in ("charsum", "fiber", "transform"):
        timed, probe = W.build(name, seed, smoke=True)
        calls = timed + probe
        U = W.load_umla()  # the modules the calls were built from
        for call in calls:
            total += 1
            try:
                res = call.run()
            except Exception as exc:
                print(f"RAISED   {name} {call.kind} [{call.label}]: {type(exc).__name__}: {exc}")
                continue
            try:
                call.check(res)
            except O.Reject as exc:
                print(f"DEFECT   {name} {call.kind} [{call.label}]: true result rejected: {exc}")
            bad = wrong(call, res, U)
            try:
                call.check(bad)
            except O.Reject:
                print(f"ok       {name} {call.kind} [{call.label}]: wrong result rejected")
                continue
            vacuous += 1
            print(f"VACUOUS  {name} {call.kind} [{call.label}]: wrong result accepted")
    print(f"selftest: {total} calls, {vacuous} wrong results accepted")
    return 1 if vacuous else 0

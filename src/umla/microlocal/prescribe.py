"""Distributions with a prescribed wavefront cone.

Given a scaling subgroup and a finite list of pairs (base point, unit
codirection), this module builds a distribution series whose wavefront cone
is exactly the union of the prescribed scaling orbits.

The k-th term cycles through the prescribed pairs.  With ``v`` the smallest
positive valuation attained in the subgroup and ``lam_k`` a subgroup element
of valuation ``-3 k v``, the term is the modulated indicator

    q^(-2 k v) * psi(-lam_k * <theta, x>) * 1_{B_{k v}(x0)^n}(x).

Three exponents govern the construction: the support radius grows like
``k v`` (terms concentrate at the base point), the coefficient decays like
``q^(-2 k v)`` (the series converges as a distribution: against a fixed test
function all but finitely many terms pair to zero by the conductor rule),
and the frequency grows like ``q^(3 k v)``.  The tripled frequency exponent
keeps the frequency supports of distinct terms disjoint, so at every probe
frequency at most one term contributes and all transform values are exact
single-term evaluations.

At the probe frequency ``lam_k * theta`` the unit-ball localized transform
has modulus exactly ``q^(-k v (n + 2))``, which certifies that every
prescribed orbit direction is singular; away from the prescribed orbits an
exact congruence analysis (``ray_hits``) bounds the valuations at which any
term can meet the ray, certifying vanishing below an explicit threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cyclo import CycloScalar
from ..distribution import BallF, MixedCellDistribution, SeriesDistribution
from ..fields import FieldError, LocalField, Polyball
from ..schwartz import SchwartzBruhat
from .cones import LambdaCone, OrbitRayCell
from .subgroup import LambdaSubgroup

__all__ = ["PrescribedDistribution", "prescribe_wavefront"]


@dataclass(frozen=True)
class _Pair:
    x: tuple
    theta: tuple


class PrescribedDistribution:
    """A series distribution realizing a prescribed wavefront cone."""

    def __init__(self, field: LocalField, subgroup: LambdaSubgroup, pairs):
        if subgroup.field != field:
            raise FieldError("subgroup lives on a different field")
        norm = []
        n = None
        for x, theta in pairs:
            x, theta = tuple(x), tuple(theta)
            if n is None:
                n = len(x)
            if len(x) != n or len(theta) != n:
                raise FieldError("prescribed pairs must share one dimension")
            ords = [field.ord(t) for t in theta]
            if min(ords) != 0:
                raise FieldError(
                    "prescribed codirections must be unit vectors "
                    "(smallest coordinate valuation 0)"
                )
            norm.append(_Pair(x, theta))
        self.field = field
        self.subgroup = subgroup
        self.pairs = tuple(norm)
        self.n = n if n is not None else 1
        self.v = subgroup.min_positive_ord()
        self._terms: dict[int, MixedCellDistribution] = {}

    # -- series structure ---------------------------------------------------

    def scaling_element(self, k: int):
        """The subgroup element lam_k of valuation -3 k v used by term k."""
        return self.subgroup.rep_with_ord(-3 * k * self.v)

    def term(self, k: int) -> MixedCellDistribution:
        if k < 0:
            raise FieldError("series terms are indexed by k >= 0")
        got = self._terms.get(k)
        if got is not None:
            return got
        f = self.field
        if not self.pairs:
            t = MixedCellDistribution.zero(f, self.n)
        else:
            pair = self.pairs[k % len(self.pairs)]
            lam = self.scaling_element(k)
            r = k * self.v
            mod = tuple(f.neg(f.mul(lam, t)) for t in pair.theta)
            coef = CycloScalar.q_pow(f.p, -4 * k * self.v)  # q^(-2 k v)
            fs = tuple(BallF(c, r) for c in pair.x)
            t = MixedCellDistribution(f, self.n, [(coef, mod, fs)])
        self._terms[k] = t
        return t

    def _active_for(self, phi: SchwartzBruhat) -> range:
        if not self.pairs or phi.is_zero():
            return range(0)
        # the pairing of term k against a cell of level L vanishes unless the
        # modulation conductor fits: 3 k v - min ord(theta) < L  (generous)
        lmax = max(phi.levels)
        kmax = max(0, (lmax + 1) // (3 * self.v) + 1)
        return range(kmax + 1)

    @property
    def series(self) -> SeriesDistribution:
        return SeriesDistribution(self.field, self.n, self.term, self._active_for)

    def evaluate(self, phi: SchwartzBruhat) -> CycloScalar:
        return self.series.evaluate(phi)

    def b_function(self, xs, r: int) -> CycloScalar:
        return self.series.b_function(xs, r)

    def partial_sum(self, count: int) -> MixedCellDistribution:
        return self.series.partial_sum(count)

    # -- transform values ---------------------------------------------------

    def transform_value(self, eta, loc_point=None, loc_level: int = 0) -> CycloScalar:
        """Exact transform value at eta, optionally localized first.

        When ``loc_point`` is given the distribution is multiplied by the
        indicator of the level-``loc_level`` ball at that point before
        transforming; ``loc_level <= 0`` keeps the term structure exact
        (every term ball of radius k v >= 0 is kept or dropped whole).
        """
        f = self.field
        eta = tuple(eta)
        if len(eta) != self.n:
            raise FieldError("dimension mismatch")
        if not self.pairs:
            return CycloScalar.zero(f.p)
        if loc_point is not None and loc_level > 0:
            raise FieldError("localization level must be at most 0")
        finite = [f.ord(c) for c in eta if not f.is_zero(c)]
        if not finite:
            kmax = 0
        else:
            kmax = max(0, (-min(finite)) // (3 * self.v) + 1)
        chi = None
        if loc_point is not None:
            chi = SchwartzBruhat.indicator(
                Polyball.ball(f, tuple(loc_point), loc_level)
            )
        values = []
        for k in range(kmax + 1):
            t = self.term(k)
            if chi is not None:
                t = t.mul_by_sb(chi)
            if t.is_zero():
                continue
            values.append(t.fourier_dist().pointwise_eval(eta))
        return CycloScalar.sum(f.p, values)

    def anchor_values(self, count: int):
        """For k = 0..count-1: the localized transform at lam_k * theta.

        Localization is the unit ball at the term's own base point.  Returns
        (k, value, expected_sqrt_q_exponent) triples; the value's squared
        modulus equals q to the expected exponent, exactly.
        """
        out = []
        f = self.field
        for k in range(count):
            pair = self.pairs[k % len(self.pairs)]
            lam = self.scaling_element(k)
            eta = tuple(f.mul(lam, t) for t in pair.theta)
            val = self.transform_value(eta, loc_point=pair.x, loc_level=0)
            out.append((k, val, -2 * k * self.v * (self.n + 2)))
        return out

    # -- cone and off-cone analysis ------------------------------------------

    def cone(self) -> LambdaCone:
        cells = tuple(
            OrbitRayCell(self.field, p.x, p.theta, self.subgroup)
            for p in self.pairs
        )
        return LambdaCone(self.field, self.n, cells)

    def ray_hits(self, x0, xi0, e: int, loc_level: int = 0):
        """All (k, pair index) whose term can meet the ray at ord(lam) = e.

        Exact decision: a scaling lam of valuation e with lam * xi0 inside
        the frequency ball of term k exists if and only if the per-coordinate
        valuation alignments hold and the induced unit-residue congruences
        are mutually consistent and compatible with some subgroup class.
        """
        f = self.field
        x0, xi0 = tuple(x0), tuple(xi0)
        if loc_level > 0:
            raise FieldError("localization level must be at most 0")
        hits = []
        P = len(self.pairs)
        for idx, pair in enumerate(self.pairs):
            if any(
                f.ord(f.sub(a, b)) < loc_level for a, b in zip(pair.x, x0)
            ):
                continue  # localized away
            k = self._aligned_k(pair, xi0, e)
            if k is None or k % P != idx:
                continue
            if self._hit_consistent(pair, xi0, e, k):
                hits.append((k, idx))
        return hits

    def _aligned_k(self, pair: _Pair, xi0, e: int):
        """The unique candidate term index k for a hit at valuation e."""
        f = self.field
        c0 = None
        for t, x in zip(pair.theta, xi0):
            if not f.is_zero(t) and not f.is_zero(x):
                c = f.ord(t) - f.ord(x)
                if c0 is None:
                    c0 = c
                elif c != c0:
                    return None  # inconsistent alignment across coordinates
        if c0 is None:
            return None  # disjoint supports: no frequency ball meets the ray
        num = c0 - e
        if num <= 0 or num % (3 * self.v) != 0:
            # k = 0 only when e = c0; handle separately
            if num == 0:
                return 0
            return None
        return num // (3 * self.v)

    def _hit_consistent(self, pair: _Pair, xi0, e: int, k: int) -> bool:
        f = self.field
        v = self.v
        lam_k = self.scaling_element(k)
        reqs = []  # (required unit code, depth)
        for j in range(self.n):
            t, x = pair.theta[j], xi0[j]
            t_zero, x_zero = f.is_zero(t), f.is_zero(x)
            if t_zero and x_zero:
                continue
            if t_zero:
                # need ord(lam * xi0_j) >= 1 - k v
                if e + f.ord(x) < 1 - k * v:
                    return False
                continue
            if x_zero:
                # need the fixed center coordinate inside the ball
                if -3 * k * v + f.ord(t) < 1 - k * v:
                    return False
                continue
            depth = 1 + 2 * k * v - f.ord(t)
            if depth <= 0:
                continue  # both sides already inside the ball
            target = f.mul(lam_k, t)
            inv = f.unit_inverse_mod(x, depth)
            req = f.ac(f.mul(target, inv), depth)
            reqs.append((req, depth))
        # pairwise consistency of the unit-residue requirements; a unit
        # code's digits are base q, so its depth-d reduction is mod q^d
        q = f.q
        for i in range(len(reqs)):
            for j in range(i + 1, len(reqs)):
                d = min(reqs[i][1], reqs[j][1])
                if reqs[i][0] % q**d != reqs[j][0] % q**d:
                    return False
        # compatibility with some subgroup class at valuation e
        m = self.subgroup.m
        for u in self.subgroup.units_at_ord(e):
            ok = True
            for req, depth in reqs:
                d = min(m, depth)
                if u % q**d != req % q**d:
                    ok = False
                    break
            if ok:
                return True
        return False

    def off_cone_report(self, x0, xi0, lo: int, hi: int, loc_level: int = 0) -> dict:
        """Exact hit set for the ray over the valuation window [lo, hi)."""
        f = self.field
        hits = []
        for e in range(lo, hi):
            for k, idx in self.ray_hits(x0, xi0, e, loc_level):
                hits.append({"ord": e, "term": k, "pair": idx})
        hit_ords = [h["ord"] for h in hits]
        return {
            "window": [lo, hi],
            "hits": hits,
            "vanishes_below": min(hit_ords) if hit_ords else hi,
            "on_cone": self.cone().contains(x0, xi0)
            if not all(f.is_zero(c) for c in xi0)
            else False,
        }

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        f = self.field
        return {
            "field": f.to_json(),
            "subgroup": self.subgroup.to_json(),
            "pairs": [
                {
                    "x": [f.element_to_json(c) for c in p.x],
                    "theta": [f.element_to_json(c) for c in p.theta],
                }
                for p in self.pairs
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "PrescribedDistribution":
        sub = LambdaSubgroup.from_json(obj["subgroup"])
        f = sub.field
        pairs = [
            (
                tuple(f.element_from_json(c) for c in p["x"]),
                tuple(f.element_from_json(c) for c in p["theta"]),
            )
            for p in obj["pairs"]
        ]
        return cls(f, sub, pairs)


def prescribe_wavefront(
    field: LocalField, subgroup: LambdaSubgroup, pairs
) -> PrescribedDistribution:
    """Build a distribution whose wavefront cone is the prescribed orbit set."""
    return PrescribedDistribution(field, subgroup, pairs)

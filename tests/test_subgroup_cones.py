"""Scaling subgroups and cone algebra: membership, lattice ops, round-trips."""

from __future__ import annotations

import pytest

from conftest import FIELDS, rng_for, sample_nonzero
from umla.fields import FieldError, make_field
from umla.microlocal import (
    BaseBall,
    BaseFull,
    BasePoint,
    LambdaCone,
    LambdaSubgroup,
    OrbitRayCell,
    TaggedCell,
    parse_subgroup_spec,
)


class TestLambdaSubgroup:
    def test_full_group_contains_everything(self, field):
        g = LambdaSubgroup.full(field, m=1)
        assert g.index() == 1
        rng = rng_for("subgroup-full")
        for _ in range(20):
            lam = sample_nonzero(field, rng)
            assert g.contains(lam)

    def test_generated_by_square_of_uniformizer(self, field):
        pi2 = field.power(field.uniformizer(), 2)
        g = LambdaSubgroup.generate(field, 2, 1, [pi2])
        assert sorted(g.classes) == [(0, 1)]
        assert g.min_positive_ord() == 2
        assert g.contains(field.power(field.uniformizer(), 4))
        assert not g.contains(field.uniformizer())

    def test_closure_under_products(self, field):
        rng = rng_for("subgroup-closure")
        for trial in range(10):
            gens = [sample_nonzero(field, rng) for _ in range(2)]
            g = LambdaSubgroup.generate(field, 6, 1, gens)
            classes = sorted(g.classes)
            for e1, u1 in classes:
                for e2, u2 in classes:
                    e = (e1 + e2) % g.d
                    u = field.residue_mul(u1, u2, g.m)
                    assert (e, u) in g.classes

    def test_membership_matches_class_data(self, field):
        rng = rng_for("subgroup-member")
        g = LambdaSubgroup.generate(
            field, 4, 2, [sample_nonzero(field, rng) for _ in range(2)]
        )
        for _ in range(30):
            lam = sample_nonzero(field, rng)
            cls = (field.ord(lam) % g.d, field.ac(lam, g.m))
            assert g.contains(lam) == (cls in g.classes)

    def test_index_times_order_is_group_size(self, field):
        g = LambdaSubgroup.generate(field, 2, 1, [field.uniformizer()])
        assert g.index() * len(g.classes) == 2 * len(field.unit_classes(1))

    def test_rep_with_ord_lands_in_group(self, field):
        pi2 = field.power(field.uniformizer(), 2)
        g = LambdaSubgroup.generate(field, 2, 1, [pi2])
        for e in (-4, -2, 0, 2, 6):
            lam = g.rep_with_ord(e)
            assert field.ord(lam) == e
            assert g.contains(lam)
        with pytest.raises(FieldError):
            g.rep_with_ord(1)

    def test_spec_parsing_round_trip(self, field):
        g = parse_subgroup_spec(field, "2,1,0:1")
        assert g.d == 2 and g.m == 1
        assert sorted(g.classes) == [(0, 1)]
        full = parse_subgroup_spec(field, "full")
        assert full.index() == 1

    def test_json_round_trip(self, field):
        g = LambdaSubgroup.generate(field, 3, 1, [field.uniformizer()])
        back = LambdaSubgroup.from_json(g.to_json())
        assert back.d == g.d and back.m == g.m and back.classes == g.classes

    def test_units_at_ord_filters_by_valuation_class(self, field):
        g = LambdaSubgroup.generate(field, 2, 1, [field.power(field.uniformizer(), 2)])
        assert g.units_at_ord(2) == g.units_at_ord(0)
        assert g.units_at_ord(1) == []


@pytest.mark.parametrize("kind", ["p-adic", "equal-characteristic"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_unit_code_truncation_is_a_residue_mod_q_power(kind, p):
    # unit codes hold base-q digits, so the depth-d reduction that the cone
    # lattice and the prescription take as code mod q^d is the angular
    # component of the lifted unit
    field = make_field(kind, p)
    for m in (1, 2, 3):
        for u in field.unit_classes(m):
            for d in range(1, m + 1):
                assert u % field.q**d == field.ac(field.residue_lift(u), d)


class TestTaggedCell:
    def test_point_cell_membership(self, field):
        cell = TaggedCell(field, (BasePoint(field.zero()),), (True,))
        assert cell.contains((field.zero(),), (field.one(),))
        assert not cell.contains((field.one(),), (field.one(),))

    def test_pinned_codirection_blocks(self, field):
        cell = TaggedCell(
            field,
            (BasePoint(field.zero()), BasePoint(field.zero())),
            (True, False),
        )
        zero, one = field.zero(), field.one()
        assert cell.contains((zero, zero), (one, zero))
        assert not cell.contains((zero, zero), (one, one))
        assert not cell.contains((zero, zero), (zero, zero))

    def test_ball_and_full_bases(self, field):
        cell = TaggedCell(
            field,
            (BaseBall(field.zero(), 0), BaseFull()),
            (True, True),
        )
        pi = field.uniformizer()
        inv = field.invert(pi) if field.kind == "p-adic" else None
        assert cell.contains((field.one(), field.zero()), (field.one(), field.one()))
        if inv is not None:
            assert not cell.contains((inv, field.zero()), (field.one(), field.one()))

    def test_subset_and_meets(self, field):
        small = TaggedCell(field, (BaseBall(field.zero(), 1),), (True,))
        big = TaggedCell(field, (BaseBall(field.zero(), 0),), (True,))
        assert small.subset_of(big)
        assert not big.subset_of(small)
        assert small.meets(big)
        far = TaggedCell(field, (BasePoint(field.one()),), (True,))
        assert not far.meets(small)

    def test_empty_cell_when_all_pinned(self, field):
        cell = TaggedCell(field, (BasePoint(field.zero()),), (False,))
        assert cell.is_empty


class TestOrbitRayCell:
    def _subgroup(self, field):
        return LambdaSubgroup.generate(
            field, 2, 1, [field.power(field.uniformizer(), 2)]
        )

    def test_ray_membership_scales_by_group(self, field):
        g = self._subgroup(field)
        ray = OrbitRayCell(field, (field.zero(),), (field.one(),), g)
        pi = field.uniformizer()
        assert ray.contains((field.zero(),), (field.one(),))
        assert ray.contains((field.zero(),), (field.power(pi, 2),))
        assert not ray.contains((field.zero(),), (pi,))
        assert not ray.contains((field.one(),), (field.one(),))

    def test_ray_membership_in_two_dims(self, field):
        g = self._subgroup(field)
        theta = (field.one(), field.uniformizer())
        ray = OrbitRayCell(field, (field.zero(), field.zero()), theta, g)
        lam = field.power(field.uniformizer(), 2)
        scaled = tuple(field.mul(lam, t) for t in theta)
        assert ray.contains((field.zero(), field.zero()), scaled)
        # breaking proportionality leaves the ray
        bent = (scaled[0], field.add(scaled[1], field.one()))
        assert not ray.contains((field.zero(), field.zero()), bent)

    def test_ray_meets_itself_and_refinements(self, field):
        g = self._subgroup(field)
        ray = OrbitRayCell(field, (field.zero(),), (field.one(),), g)
        assert ray.meets(ray)
        assert ray.subset_of(ray)
        full = LambdaSubgroup.full(field, m=1)
        bigger = OrbitRayCell(field, (field.zero(),), (field.one(),), full)
        assert ray.subset_of(bigger)
        assert not bigger.subset_of(ray)

    def test_disjoint_rays(self, field):
        g = self._subgroup(field)
        r1 = OrbitRayCell(field, (field.zero(),), (field.one(),), g)
        r2 = OrbitRayCell(field, (field.zero(),), (field.uniformizer(),), g)
        assert not r1.meets(r2)


class TestLambdaCone:
    def test_union_and_membership(self, field):
        tc = TaggedCell(field, (BasePoint(field.zero()),), (True,))
        g = LambdaSubgroup.full(field, m=1)
        ray = OrbitRayCell(field, (field.one(),), (field.one(),), g)
        cone = LambdaCone(field, 1, (tc,)).union(LambdaCone(field, 1, (ray,)))
        assert cone.contains((field.zero(),), (field.one(),))
        assert cone.contains((field.one(),), (field.uniformizer(),))
        assert not cone.contains((field.uniformizer(),), (field.one(),))

    def test_scaling_invariance_of_membership(self, field):
        rng = rng_for("cone-scaling")
        g = LambdaSubgroup.generate(field, 2, 1, [field.power(field.uniformizer(), 2)])
        ray = OrbitRayCell(field, (field.zero(),), (field.one(),), g)
        cone = LambdaCone(field, 1, (ray,))
        for _ in range(25):
            xi = sample_nonzero(field, rng)
            if not cone.contains((field.zero(),), (xi,)):
                continue
            lam = g.rep_with_ord(2 * rng.randrange(-2, 3))
            assert cone.contains((field.zero(),), (field.mul(lam, xi),))

    def test_empty_cone(self, field):
        cone = LambdaCone.empty(field, 2)
        assert cone.is_empty()
        assert not cone.contains(
            (field.zero(), field.zero()), (field.one(), field.zero())
        )

    def test_subset_sufficiency_and_meets(self, field):
        tc = TaggedCell(field, (BaseBall(field.zero(), 1),), (True,))
        big = TaggedCell(field, (BaseFull(),), (True,))
        c1 = LambdaCone(field, 1, (tc,))
        c2 = LambdaCone(field, 1, (big,))
        assert c1.subset_of(c2)
        assert c1.meets(c2)
        assert not c1.meets(LambdaCone.empty(field, 1))

    def test_pullback_by_coordinate_scaling(self, field):
        tc = TaggedCell(field, (BasePoint(field.one()),), (True,))
        cone = LambdaCone(field, 1, (tc,))
        pi = field.uniformizer()
        moved = cone.pullback_iso((0,), (pi,), (field.zero(),))
        # base point x with pi * x = 1
        if field.kind == "p-adic":
            want = field.invert(pi)
            assert moved.contains((want,), (field.one(),))

    def test_json_round_trip(self, field):
        g = LambdaSubgroup.generate(field, 2, 1, [field.power(field.uniformizer(), 2)])
        cells = (
            TaggedCell(field, (BasePoint(field.zero()), BaseFull()), (True, True)),
            OrbitRayCell(field, (field.zero(), field.one()),
                         (field.one(), field.zero()), g),
        )
        cone = LambdaCone(field, 2, cells)
        back = LambdaCone.from_json(cone.to_json())
        rng = rng_for("cone-json")
        for _ in range(20):
            x = (sample_nonzero(field, rng), sample_nonzero(field, rng))
            xi = (sample_nonzero(field, rng), sample_nonzero(field, rng))
            assert cone.contains(x, xi) == back.contains(x, xi)

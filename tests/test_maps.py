"""Affine map construction: closed-form coefficients and endpoint identities."""

import dataclasses

import numpy as np
import pytest

from gdfif import (
    CONDITION3_MODES,
    AffineMap,
    DataSet,
    GifsSystem,
    InvalidSystemError,
    WiringPlan,
    apply_map,
    build_system,
    endpoint_residuals,
    iterate_attractor,
    validate,
)
from conftest import EX1_POINTS, EX1_SCALES, make_plan
from support import classic_coefficients, random_dataset, random_two_vertex

# Published coefficient table for the four-point single-vertex example.
EX1_MAPS = (
    (0.3, 0.475, 0.25, 0.0, 0.0),
    (0.3, -0.15, 0.5, 3.0, 5.0),
    (0.4, -0.325, 0.25, 6.0, 4.0),
)


def coeffs(m: AffineMap):
    return (m.a, m.c, m.d, m.e, m.f)


def test_example1_coefficient_table(ex1_system):
    got = [coeffs(m) for m in ex1_system.maps_for(1)]
    assert np.allclose(got, EX1_MAPS, rtol=0.0, atol=1e-12)


def test_example2_cross_vertex_map(ex2_system):
    # Interval 1 of vertex 2 pulls from vertex 1: source span (0,5)..(5,5),
    # target knots (0,1)..(1,2). Hand evaluation of the closed forms gives
    # a = 0.2, e = 0, c = 0.2, f = -2/3.
    m = ex2_system.maps_for(2)[0]
    assert m.source_vertex == 1
    assert m.a == pytest.approx(0.2, abs=1e-15)
    assert m.e == pytest.approx(0.0, abs=1e-15)
    assert m.c == pytest.approx(0.2, abs=1e-15)
    assert m.f == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert m.d == 1.0 / 3.0


def test_flat_system_coefficients(flat_system):
    for m in flat_system.maps_for(1):
        assert m.c == 0.0
        assert m.f == 0.0
        assert m.a == 0.5
        assert m.e in (0.0, 1.0)


def test_contraction_factor_is_max_abs_d(ex1_system, ex2_system, ex2b_system):
    assert ex1_system.r == 0.5
    assert ex2_system.r == 1.0 / 3.0
    assert ex2b_system.r == 0.5


def test_map_layout_follows_plan(ex2_system, ex2_plan):
    for alpha in (1, 2):
        row = ex2_plan.for_vertex(alpha)
        for i, m in enumerate(ex2_system.maps_for(alpha), start=1):
            assert m.source_vertex == row[i - 1].source
            assert m.d == row[i - 1].d


def test_apply_map_endpoint_images(ex1_system):
    first = ex1_system.maps_for(1)[0]
    assert apply_map(first, (10.0, 1.0)) == pytest.approx((3.0, 5.0), abs=1e-12)
    assert apply_map(first, (0.0, 0.0)) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_apply_map_identity_coefficients():
    ident = AffineMap(a=1.0, c=0.0, d=1.0, e=0.0, f=0.0, source_vertex=1)
    assert apply_map(ident, (1.7, -2.3)) == (1.7, -2.3)


def test_affine_map_is_an_immutable_record_of_its_six_fields():
    m = AffineMap(a=0.5, c=0.1, d=0.3, e=0.0, f=-0.2, source_vertex=2)
    assert tuple(m) == (0.5, 0.1, 0.3, 0.0, -0.2, 2)
    with pytest.raises(AttributeError):
        m.d = 0.4
    moved = m._replace(f=0.2)
    assert (moved.f, m.f) == (0.2, -0.2)
    assert moved is not m
    twin = AffineMap(0.5, 0.1, 0.3, 0.0, -0.2, 2)
    assert twin == m and hash(twin) == hash(m)
    assert moved != m and AffineMap(0.5, 0.1, 0.3, 0.0, -0.2, 1) != m
    assert len({m, twin, moved}) == 2


def test_endpoint_residuals_examples(ex1_system, ex2_system, flat_system):
    assert endpoint_residuals(ex1_system) <= 1e-12
    assert endpoint_residuals(ex2_system) <= 1e-12
    assert endpoint_residuals(flat_system) == 0.0


# Interval 2 of example1 reads a source that starts at x = 0, so e and f
# move both images and a and c only the image of the source's last point;
# the left knot is checked first. A shift 1e4 times smaller passes.
@pytest.mark.parametrize("field, miss, knot, coordinate, tol", [
    ("e", "1.000e-03", "left", "x", "3.000e-06"),
    ("a", "1.000e-02", "right", "x", "3.000e-06"),
    ("f", "1.000e-03", "left", "y", "6.000e-06"),
    ("c", "1.000e-02", "right", "y", "6.000e-06"),
])
@pytest.mark.parametrize("make", ["direct", "replace"])
def test_a_map_that_misses_its_knot_is_refused(ex1_system, field, miss, knot, coordinate, tol,
                                               make):
    def system(shift):
        row = list(ex1_system.maps_for(1))
        row[1] = row[1]._replace(**{field: getattr(row[1], field) + shift})
        if make == "direct":
            return GifsSystem(ex1_system.datasets, (tuple(row),))
        return dataclasses.replace(ex1_system, maps=(tuple(row),))

    with pytest.raises(ValueError) as exc:
        system(1e-3)
    assert str(exc.value) == (f"interval 2 of vertex 1 lands {miss} off its {knot} knot in "
                              f"{coordinate}, past the tolerance {tol}")
    assert endpoint_residuals(system(1e-7)) > 0.0


def test_data_far_from_the_origin_is_refused_where_its_maps_miss_the_knots():
    # The closed form multiplies abscissas together: near 1e9 the products
    # lose the knots, and the same data shifted to start at 0 keep them.
    points = ((1e9, 0.0), (1e9 + 1, 1.0), (1e9 + 2, -0.5), (1e9 + 3, 0.25))
    plan = WiringPlan.from_pairs([[(1, 0.5), (1, -0.3), (1, 0.4)]])
    assert validate([DataSet(points)], plan).ok
    with pytest.raises(ValueError, match=r"^interval 2 of vertex 1 lands 1\.000e\+00 off its "
                                         r"left knot in x, past the tolerance 1\.000e-06$"):
        iterate_attractor(build_system([DataSet(points)], plan), 6, 0.0)
    shifted = build_system([DataSet(tuple((x - 1e9, y) for x, y in points))], plan)
    assert endpoint_residuals(shifted) <= 1e-15


def test_endpoint_residuals_random_systems(rng):
    for _ in range(25):
        datasets, plan = random_two_vertex(rng)
        system = build_system(datasets, plan)
        assert endpoint_residuals(system) <= 1e-9


def test_consecutive_maps_join_at_shared_knots(ex2_system):
    # Interval i's right image point and interval i+1's left image point are
    # the same knot; this is what keeps iterated curves continuous.
    for alpha in (1, 2):
        ds = ex2_system.dataset(alpha)
        maps = ex2_system.maps_for(alpha)
        for i in range(len(maps) - 1):
            left = apply_map(maps[i], ex2_system.dataset(maps[i].source_vertex).last)
            right = apply_map(maps[i + 1], ex2_system.dataset(maps[i + 1].source_vertex).first)
            knot = ds.points[i + 1]
            assert left == pytest.approx(knot, abs=1e-12)
            assert right == pytest.approx(knot, abs=1e-12)


def test_horizontal_contraction(rng):
    # Every map shrinks horizontally: 0 < a < 1 under a valid plan.
    for _ in range(10):
        datasets, plan = random_two_vertex(rng)
        system = build_system(datasets, plan)
        for alpha in (1, 2):
            for m in system.maps_for(alpha):
                assert 0.0 < m.a < 1.0


def test_single_vertex_reduces_to_classic_formulas(rng):
    for _ in range(5):
        ds = random_dataset(rng, span=2.0)
        scales = rng.uniform(-0.8, 0.8, ds.n_intervals)
        plan = WiringPlan.from_pairs([[(1, d) for d in scales]])
        system = build_system([ds], plan)
        expect = classic_coefficients(ds.points, scales)
        got = [(m.a, m.c, m.d, m.e, m.f) for m in system.maps_for(1)]
        assert np.allclose(got, expect, rtol=0.0, atol=1e-12)


def test_build_system_rejects_invalid_input():
    wide = DataSet(((0.0, 0.0), (2.0, 1.0), (2.5, 0.0)))
    narrow = DataSet(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    plan = make_plan(((1, 1), (1, 2)), ((0.3, 0.3), (0.3, 0.3)))
    with pytest.raises(ValueError, match="width"):
        build_system([narrow, wide], plan)


def test_invalid_system_error_carries_the_report():
    wide = DataSet(((0.0, 0.0), (2.0, 1.0), (2.5, 0.0)))
    narrow = DataSet(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    plan = make_plan(((1, 1), (1, 2)), ((0.3, 0.3), (0.3, 0.3)))
    with pytest.raises(InvalidSystemError) as exc:
        build_system([narrow, wide], plan)
    assert isinstance(exc.value, ValueError)
    assert exc.value.report == validate([narrow, wide], plan)
    assert "data/width-ratio" in exc.value.report.codes()


@pytest.mark.parametrize("mode", CONDITION3_MODES)
def test_an_interval_as_wide_as_its_own_span_is_refused(mode):
    # Interval 2 is 1 - 1e-20 wide, which rounds to the span 1.0: its map
    # would get a = 1.0 and not contract.
    ds = DataSet(((0.0, 0.0), (1e-20, 0.5), (1.0, 1.0)))
    with pytest.raises(InvalidSystemError) as exc:
        build_system([ds], WiringPlan.from_pairs([[(1, 0.5), (1, 0.5)]]), mode)
    violations = exc.value.report.violations
    assert [(v.code, v.indices) for v in violations] == [("data/width-ratio", (1, 1, 2))]


def test_transform_points_matches_apply_map(ex1_system):
    from gdfif.maps import transform_points

    m = ex1_system.maps_for(1)[1]
    pts = np.array([[0.0, 0.0], [10.0, 1.0], [4.0, -2.0]])
    out = transform_points(m, pts)
    for row, pt in zip(out, pts):
        assert tuple(row) == pytest.approx(apply_map(m, tuple(pt)), abs=1e-14)

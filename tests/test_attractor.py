"""Set-valued attractor iteration and Hausdorff comparison."""

import numpy as np
import pytest

from gdfif import (
    USED_EDGES_MODE,
    AttractorCloud,
    CloudBudgetError,
    DataSet,
    WiringPlan,
    build_system,
    chaos_game,
    data_clouds,
    directed_hausdorff,
    evaluate_exact,
    hausdorff_distance,
    hutchinson_step,
    iterate_attractor,
)
from gdfif import attractor


def test_data_clouds_start_from_data_points(ex2_system):
    clouds = data_clouds(ex2_system)
    assert len(clouds) == 2
    for alpha, cloud in zip((1, 2), clouds):
        assert cloud.vertex == alpha
        assert cloud.generation == 0
        assert np.array_equal(cloud.points, np.array(ex2_system.dataset(alpha).points))


def test_an_image_past_the_float_range_raises_naming_the_vertex():
    # The curve peaks above 1.7e308: the second generation's images overflow.
    system = build_system([DataSet(((0.0, 1e308), (0.5, 1.7e308), (1.0, 1e308)))],
                          WiringPlan.from_pairs([[(1, 0.5)] * 2]))
    clouds = hutchinson_step(system, data_clouds(system))
    with pytest.raises(ValueError, match="^the maps of vertex 1 leave the float range$"):
        hutchinson_step(system, clouds)
    # the walk's Python floats overflow without a warning
    with pytest.raises(ValueError, match="^the maps of vertex 1 leave the float range$"):
        chaos_game(system, 2000, 0, 1)


def test_a_walk_past_the_float_range_names_the_vertex_whose_maps_overflow():
    # Vertex 1 reads only vertex 2, whose maps overflow; vertex 1's maps do
    # not. Both data sets sit at one scale, so every map lands on its knots.
    system = build_system([DataSet(((0.0, 1e308), (0.5, 1e308), (1.0, 1e308))),
                           DataSet(((0.0, 1e308), (0.5, 1.7e308), (1.0, 1e308)))],
                          WiringPlan.from_pairs([[(2, 0.5)] * 2] * 2), USED_EDGES_MODE)
    for sample in (lambda: iterate_attractor(system, 3, 0), lambda: chaos_game(system, 2000)):
        with pytest.raises(ValueError, match="^the maps of vertex 2 leave the float range$"):
            sample()


def test_hutchinson_step_endpoint_cloud(ex1_system):
    start = AttractorCloud(1, np.array([[0.0, 0.0], [10.0, 1.0]]), 0)
    (image,) = hutchinson_step(ex1_system, (start,))
    assert image.generation == 1
    assert len(image) == 6
    got = {tuple(p) for p in np.round(image.points, 9)}
    assert (3.0, 5.0) in got
    assert (6.0, 4.0) in got


def test_hutchinson_step_flat_stays_flat(flat_system):
    start = data_clouds(flat_system)
    stepped = hutchinson_step(flat_system, start)
    assert np.all(stepped[0].points[:, 1] == 0.0)


def test_successive_step_deltas_shrink_geometrically(ex1_system):
    # Once past the first couple of generations the cloud's per-step movement
    # dies off by roughly the horizontal contraction factor.
    clouds = data_clouds(ex1_system)
    deltas = []
    prev = None
    for _ in range(8):
        clouds = hutchinson_step(ex1_system, clouds)
        if prev is not None:
            deltas.append(hausdorff_distance(prev[0].points, clouds[0].points))
        prev = clouds
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert max(b / a for a, b in zip(deltas[2:], deltas[3:])) <= 0.7


def test_iterate_attractor_generation_one_count_bound(ex2_system, ex2_plan):
    clouds = iterate_attractor(ex2_system, 1, 1e-12)
    initial = {1: 6, 2: 5}
    for alpha, cloud in zip((1, 2), clouds):
        sources = [a.source for a in ex2_plan.for_vertex(alpha)]
        assert len(cloud) <= sum(initial[s] for s in sources)
        assert cloud.generation == 1


def test_iterate_attractor_x_marginal(ex2_system):
    clouds = iterate_attractor(ex2_system, 3, 1e-9)
    for alpha, cloud in zip((1, 2), clouds):
        ds = ex2_system.dataset(alpha)
        xs = cloud.points[:, 0]
        assert xs.min() >= ds.xs[0] - 1e-12
        assert xs.max() <= ds.xs[-1] + 1e-12
        # knots are images of source endpoints, so they are always present
        for knot in ds.xs:
            assert np.min(np.abs(xs - knot)) <= 1e-9


def test_iterate_attractor_points_lie_on_interpolant(ex1_system):
    clouds = iterate_attractor(ex1_system, 10, 1e-3)
    pts = clouds[0].points
    sample = pts[np.linspace(0, len(pts) - 1, 150).astype(int)]
    for x, y in sample:
        assert abs(y - evaluate_exact(ex1_system, 1, x, 50)) <= 1e-9


def test_iterate_attractor_flat_cloud_on_segment(flat_system):
    clouds = iterate_attractor(flat_system, 8, 1e-6)
    assert np.all(clouds[0].points[:, 1] == 0.0)


def test_iterate_attractor_dedup_spacing(ex1_system):
    tol = 5e-3
    clouds = iterate_attractor(ex1_system, 8, tol)
    keys = np.round(clouds[0].points / tol).astype(np.int64)
    assert np.unique(keys, axis=0).shape[0] == keys.shape[0]


@pytest.mark.parametrize("tol", [-1.0, -np.inf, np.nan])
def test_iterate_attractor_refuses_a_negative_or_nan_tolerance(ex1_system, tol):
    # Only 0 disables the dedup; these skipped it without a word.
    with pytest.raises(ValueError, match=r"^dedup_tolerance must be at least 0, got "):
        iterate_attractor(ex1_system, 6, tol)
    assert [len(c) for c in iterate_attractor(ex1_system, 6, 0.0)] == [4 * 3**6]


@pytest.mark.parametrize("generations, tol, message", [
    (4, np.inf, "dedup_tolerance must be finite, got inf"),
    (0, 1e-3, "generations must be at least 1"),
], ids=["infinite-tolerance", "no-generation"])
def test_iterate_attractor_refuses_an_infinite_tolerance_or_no_generation(ex1_system, generations,
                                                                          tol, message):
    # An infinite tolerance collapsed each cloud to one point.
    with pytest.raises(ValueError, match=f"^{message}$"):
        iterate_attractor(ex1_system, generations, tol)


def test_hutchinson_step_refuses_clouds_of_the_wrong_count_or_order(ex2_system):
    clouds = data_clouds(ex2_system)
    with pytest.raises(ValueError, match=r"^expected 2 clouds, got 1$"):
        hutchinson_step(ex2_system, clouds[:1])
    with pytest.raises(ValueError, match=r"^expected vertex 1 at position 0, got 2$"):
        hutchinson_step(ex2_system, clouds[::-1])


def test_iterate_attractor_budget_guard(ex1_system, monkeypatch):
    monkeypatch.setattr(attractor, "_MAX_POINTS", 10_000)
    with pytest.raises(CloudBudgetError, match="cap is 10000; use fewer generations or a larger"):
        iterate_attractor(ex1_system, 20, 1e-9)


def test_chaos_game_flat(flat_system):
    clouds = chaos_game(flat_system, 5000, burn_in=50, seed=3)
    assert np.all(clouds[0].points[:, 1] == 0.0)


def test_chaos_game_deterministic(ex1_system):
    a = chaos_game(ex1_system, 4000, burn_in=100, seed=11)
    b = chaos_game(ex1_system, 4000, burn_in=100, seed=11)
    c = chaos_game(ex1_system, 4000, burn_in=100, seed=12)
    assert np.array_equal(a[0].points, b[0].points)
    assert not np.array_equal(a[0].points, c[0].points)


def test_chaos_game_close_to_deterministic_cloud(ex1_system):
    # One-sided only: the random walk visits a subset of the attractor, so
    # walk points must be near the deterministic cloud, not vice versa.
    det = iterate_attractor(ex1_system, 10, 1e-3)
    walk = chaos_game(ex1_system, 10**5, burn_in=100, seed=0)
    assert directed_hausdorff(walk[0].points, det[0].points) <= 5e-2


def test_chaos_game_respects_burn_in(ex2_system):
    clouds = chaos_game(ex2_system, 3000, burn_in=40, seed=5)
    total = sum(len(c) for c in clouds)
    assert total == 3000 - 40 * 2
    for cloud in clouds:
        assert len(cloud) > 0


def test_directed_hausdorff_basics():
    p = np.array([[0.0, 0.0]])
    q = np.array([[3.0, 4.0]])
    assert hausdorff_distance(p, q) == 4.0  # max-norm: max(|3|, |4|)
    assert hausdorff_distance(p, p) == 0.0
    sub = np.array([[0.0, 0.0], [1.0, 1.0]])
    sup = np.vstack([sub, [[5.0, 0.0]]])
    assert directed_hausdorff(sub, sup) == 0.0
    assert directed_hausdorff(sup, sub) == 4.0


def test_hausdorff_is_max_of_directed(ex1_system, rng):
    p = rng.uniform(0, 1, (40, 2))
    q = rng.uniform(0, 1, (30, 2))
    expect = max(directed_hausdorff(p, q), directed_hausdorff(q, p))
    assert hausdorff_distance(p, q) == expect


def test_hausdorff_rejects_empty():
    pts = np.array([[0.0, 0.0]])
    with pytest.raises(ValueError):
        hausdorff_distance(pts, np.empty((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_hausdorff_rejects_a_coordinate_that_is_not_finite(bad, column):
    good = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    broken = good.copy()
    broken[1, column] = bad
    for distance in (directed_hausdorff, hausdorff_distance):
        for p, q in ((broken, good), (good, broken)):
            with pytest.raises(ValueError, match="finite"):
                distance(p, q)


def test_cloud_requires_points():
    with pytest.raises(ValueError):
        AttractorCloud(1, np.empty((0, 2)), 0)


def test_cloud_copies_the_callers_array():
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    cloud = AttractorCloud(1, pts, 0)
    pts[0, 0] = 9.0
    assert np.array_equal(cloud.points, [[0.0, 1.0], [2.0, 3.0]])
    assert pts.flags.writeable
    assert not cloud.points.flags.writeable
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0


def test_generated_clouds_are_read_only(ex2_system):
    clouds = (hutchinson_step(ex2_system, data_clouds(ex2_system))
              + iterate_attractor(ex2_system, 2, 1e-3) + chaos_game(ex2_system, 500, 10, 1))
    assert not any(c.points.flags.writeable for c in clouds)

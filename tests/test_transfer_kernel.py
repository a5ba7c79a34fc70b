"""The batched transfer operator against the per-interval code it replaced.

The reference functions below are the earlier implementations of `apply_T`
and `fixed_point`, kept verbatim as oracles. The batched kernel does the
same floating-point operations in the same order, so every value, every
delta, the final delta and the sweep count must be equal, not just close:
values are compared bit for bit, so a zero must keep its sign too.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from gdfif import (
    USED_EDGES_MODE,
    ConvergenceError,
    DataSet,
    FunctionFamily,
    SampledFunction,
    WiringPlan,
    apply_T,
    build_system,
    family_distance,
    fixed_point,
    initial_family,
    standard_grid,
)
from gdfif.cli import bundled_config_path, load_config
from gdfif.funcspace import _check_family, _Transfer
from conftest import EX2_POINTS_1, EX2_POINTS_2
from support import random_admissible_family, random_dataset, random_narrow_system

BUNDLED = ("example1", "example2", "example2b", "flat")
RESOLUTIONS = (2, 3, 64, 257)


def apply_T_reference(system, family, resolution):
    _check_family(system, family)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    out = []
    for alpha in range(1, system.n + 1):
        ds = system.dataset(alpha)
        k = ds.n_intervals
        size = k * (resolution - 1) + 1
        grid = np.empty(size)
        values = np.empty(size)
        scale = 1.0 + float(np.max(np.abs(ds.fs)))
        worst_knot_dev = 0.0
        for i, m in enumerate(system.maps_for(alpha), start=1):
            block_x = np.linspace(ds.xs[i - 1], ds.xs[i], resolution)
            t = (block_x - m.e) / m.a
            source_fn = family.get(m.source_vertex)
            block_v = m.c * t + m.d * source_fn.evaluate(t) + m.f
            worst_knot_dev = max(
                worst_knot_dev,
                abs(block_v[0] - ds.fs[i - 1]),
                abs(block_v[-1] - ds.fs[i]),
            )
            lo = (i - 1) * (resolution - 1)
            grid[lo:lo + resolution] = block_x
            values[lo:lo + resolution] = block_v
        if not worst_knot_dev <= 1e-6 * scale:
            raise ValueError(
                f"one-sided knot values for vertex {alpha} deviate by {worst_knot_dev:.3e}"
            )
        knot_pos = np.arange(k + 1) * (resolution - 1)
        values[knot_pos] = ds.fs
        out.append(SampledFunction(alpha, grid, values))
    return FunctionFamily(tuple(out))


def fixed_point_reference(system, resolution, tol, max_iters):
    """(values per vertex, deltas, iterations) of the per-interval sweep loop."""
    current = initial_family(system, resolution)
    deltas = []
    for iteration in range(1, max_iters + 1):
        nxt = apply_T_reference(system, current, resolution)
        delta = family_distance(nxt, current)
        deltas.append(delta)
        current = nxt
        if delta <= tol:
            return current, deltas, iteration
    raise ConvergenceError(max_iters, deltas[-1], tol)


def assert_same_family(got, want):
    assert got.n == want.n
    for g, w in zip(got, want):
        assert g.vertex == w.vertex
        assert not (g.grid.flags.writeable or g.values.flags.writeable)
        np.testing.assert_array_equal(g.grid, w.grid)
        np.testing.assert_array_equal(g.values, w.values)
        assert g.values.tobytes() == w.values.tobytes()


def assert_same_blocks(system, family, resolution):
    """Every one-sided block value, the ones at knots included, is np.interp's.

    The knot samples of the result are overwritten by the knot ordinates,
    so a pullback at or past a source domain end shows only here.
    """
    sweep = _Transfer(system, resolution, [fn.grid for fn in family])
    got = sweep(np.concatenate([fn.values for fn in family]))
    # the sweep keeps the knot columns' values from before the knot write
    got[:, ::resolution - 1] = sweep._ends
    maps = [m for row in system.maps for m in row]
    want = [m.c * t + m.d * family.get(m.source_vertex).evaluate(t) + m.f
            for m, t in zip(maps, pullbacks(system, resolution))]
    assert got.tobytes() == np.array(want).tobytes()


def pullbacks(system, resolution):
    """One row of pullbacks (x - e) / a per map, in the order of `system.maps`."""
    rows = []
    for alpha in range(1, system.n + 1):
        xs = system.dataset(alpha).xs
        for i, m in enumerate(system.maps_for(alpha), start=1):
            rows.append((np.linspace(xs[i - 1], xs[i], resolution) - m.e) / m.a)
    return np.array(rows)


def assert_same_solve(system, resolution, tol=1e-9, max_iters=200):
    got = fixed_point(system, resolution, tol, max_iters)
    family, deltas, iterations = fixed_point_reference(system, resolution, tol, max_iters)
    assert_same_family(got.family, family)
    assert list(got.deltas) == deltas
    assert got.final_delta == deltas[-1]
    assert got.iterations == iterations


def bundled_system(name):
    cfg = load_config(bundled_config_path(name))
    return build_system(cfg.datasets, cfg.plan, cfg.condition3_mode)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("name", BUNDLED)
def test_fixed_point_matches_reference_on_bundled_configs(name, resolution):
    assert_same_solve(bundled_system(name), resolution)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("name", BUNDLED)
def test_apply_T_matches_reference_on_random_families(name, resolution, rng):
    system = bundled_system(name)
    family = random_admissible_family(system, resolution, rng)
    assert_same_family(apply_T(system, family, resolution),
                       apply_T_reference(system, family, resolution))


def test_wide_system_matches_reference(rng):
    # 8 vertices x 40 intervals, every interval far narrower than any span
    datasets = [random_dataset(rng, n_points=41, span=float(rng.uniform(8.0, 12.0)))
                for _ in range(8)]
    plan = WiringPlan.from_pairs([
        [(int(rng.integers(1, 9)), float(rng.uniform(-0.5, 0.5))) for _ in range(40)]
        for _ in range(8)
    ])
    system = build_system(datasets, plan)
    assert_same_solve(system, 64)
    family = random_admissible_family(system, 33, rng)
    assert_same_family(apply_T(system, family, 33), apply_T_reference(system, family, 33))


def test_vertex_no_interval_reads_from():
    datasets = [DataSet(EX2_POINTS_1), DataSet(EX2_POINTS_2)]
    plan = WiringPlan.from_pairs([[(1, 0.3)] * 5, [(1, -0.4)] * 4])
    assert_same_solve(build_system(datasets, plan, USED_EDGES_MODE), 17)


def test_source_grid_other_than_the_standard_grid(ex2b_system, rng):
    # A finer source grid than the output grid: the family is resampled.
    family = random_admissible_family(ex2b_system, 97, rng)
    assert_same_family(apply_T(ex2b_system, family, 16),
                       apply_T_reference(ex2b_system, family, 16))


def nodes_at_pullbacks(system, resolution, rng, inside=None):
    """A family sampled at exactly the pullbacks that land in each domain.

    Every interior interpolation of the next sweep then hits a node.
    `inside` fills the interior values (random in [-2, 2] by default).
    """
    every = pullbacks(system, resolution)
    sources = np.array([m.source_vertex for row in system.maps for m in row])
    fns = []
    for beta in range(1, system.n + 1):
        ds = system.dataset(beta)
        t = every[sources == beta].ravel()
        grid = np.union1d(t[(t > ds.xs[0]) & (t < ds.xs[-1])], [ds.xs[0], ds.xs[-1]])
        values = rng.uniform(-2.0, 2.0, grid.size) if inside is None else np.full(grid.size, inside)
        values[[0, -1]] = ds.fs[[0, -1]]
        fns.append(SampledFunction(beta, grid, values))
    return FunctionFamily(tuple(fns))


def test_pullbacks_on_source_nodes(ex2_system, rng):
    family = nodes_at_pullbacks(ex2_system, 24, rng)
    assert_same_family(apply_T(ex2_system, family, 24),
                       apply_T_reference(ex2_system, family, 24))
    assert_same_blocks(ex2_system, family, 24)


def test_a_node_hit_returns_the_node_value_with_its_sign():
    # A flat data set on a negative domain, c = 0 and f = -0.0: each block
    # value is c t + d s + f = -0.0 + d s + -0.0, which keeps the sign of
    # s = -0.0 at a node hit. np.interp returns the node's -0.0 there, while
    # its interpolation formula would give slope * 0 + -0.0 = +0.0.
    ds = DataSet(((-3.0, 0.0), (-2.0, 0.0), (-1.2, 0.0), (0.0, 0.0)))
    system = build_system([ds], WiringPlan.from_pairs([[(1, 0.5)] * 3]))
    maps = tuple(dataclasses.replace(m, c=0.0, f=-0.0) for m in system.maps_for(1))
    system = dataclasses.replace(system, maps=(maps,))
    family = nodes_at_pullbacks(system, 24, None, inside=-0.0)
    got = apply_T(system, family, 24)
    assert np.signbit(got.get(1).values).sum() > 40
    assert_same_family(got, apply_T_reference(system, family, 24))


def nudged(system, vertex, interval, **coefficients):
    """`system` with some coefficients of one map replaced."""
    row = list(system.maps_for(vertex))
    row[interval - 1] = dataclasses.replace(row[interval - 1], **coefficients)
    maps = list(system.maps)
    maps[vertex - 1] = tuple(row)
    return dataclasses.replace(system, maps=tuple(maps))


def test_pullbacks_one_ulp_outside_the_source_domain(ex1_system, rng):
    # Nudge the first map's e until its first pullback lands just below the
    # source domain, so the interpolation clamps to the end value there.
    m = ex1_system.maps_for(1)[0]
    e = m.e
    while (0.0 - e) / m.a >= 0.0:
        e = np.nextafter(e, np.inf)
    system = nudged(ex1_system, 1, 1, e=float(e))
    assert pullbacks(system, 32)[0, 0] < 0.0
    family = random_admissible_family(system, 32, rng)
    assert_same_family(apply_T(system, family, 32), apply_T_reference(system, family, 32))
    assert_same_blocks(system, family, 32)
    assert_same_solve(system, 32)


def test_pullbacks_one_ulp_past_the_right_end_of_the_source_domain(ex2_system, rng):
    # Shrink the a of vertex 2's last map, which reads vertex 2, until its
    # last pullback lands just above the source domain's right end.
    m = ex2_system.maps_for(2)[-1]
    right = ex2_system.dataset(m.source_vertex).xs[-1]
    x = ex2_system.dataset(2).xs[-1]
    a = m.a
    while not (x - m.e) / a > right:
        a = np.nextafter(a, 0.0)
    system = nudged(ex2_system, 2, 4, a=float(a))
    assert pullbacks(system, 32)[-1, -1] == np.nextafter(right, np.inf)
    family = random_admissible_family(system, 32, rng)
    assert_same_family(apply_T(system, family, 32), apply_T_reference(system, family, 32))
    assert_same_blocks(system, family, 32)
    assert_same_solve(system, 32)


def test_source_grid_coarser_than_the_output_grid(ex2b_system, rng):
    family = random_admissible_family(ex2b_system, 5, rng)
    assert_same_family(apply_T(ex2b_system, family, 64),
                       apply_T_reference(ex2b_system, family, 64))
    assert_same_blocks(ex2b_system, family, 64)


def test_resolution_two_reads_only_the_knots(rng):
    # Every pullback is a source domain end, up to round-off: each lands on
    # a node, below the grid, at or past its end, or an ulp inside.
    system = random_narrow_system(rng)
    assert_same_solve(system, 2)
    family = random_admissible_family(system, 2, rng)
    assert_same_family(apply_T(system, family, 2), apply_T_reference(system, family, 2))
    assert_same_blocks(system, family, 2)


@pytest.fixture(scope="module")
def fine_system():
    """A seeded 4 x 16 system, |d| <= 0.5, spans 8 to 12: the fine-solve shape."""
    rng = np.random.default_rng(4096)
    datasets = [random_dataset(rng, n_points=17, span=float(rng.uniform(8.0, 12.0)))
                for _ in range(4)]
    plan = WiringPlan.from_pairs([
        [(int(rng.integers(1, 5)), float(rng.uniform(-0.5, 0.5))) for _ in range(16)]
        for _ in range(4)
    ])
    return build_system(datasets, plan)


def test_fine_system_matches_reference_at_resolution_4096(fine_system):
    # At this size consecutive pullbacks of a row sit about 16 source nodes
    # apart, so np.interp's search guess misses on nearly every one.
    assert_same_solve(fine_system, 4096)


def test_fixed_point_memory_peak_at_resolution_4096(fine_system):
    """The traced peak of one solve stays at the np.interp kernel's.

    The np.interp kernel this one replaced peaked at 13.2 MB (13,181,510
    bytes) on this system. A naive gather kernel, with an int64 index,
    stored differences and slopes and full-size gather temporaries, peaked
    at 21.5 MB on the benchmark's system of the same shape. The grids and
    the pullbacks hold about 2.1 MB each at this size, so one stray
    full-size array shows. The margin is 2%.
    """
    fixed_point(fine_system, 4096)
    tracemalloc.start()
    try:
        fixed_point(fine_system, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_181_510 * 1.02


def test_knot_deviation_still_raises(ex2_system):
    maps = list(ex2_system.maps_for(2))
    maps[2] = dataclasses.replace(maps[2], f=maps[2].f + 1e-3)
    broken = dataclasses.replace(ex2_system, maps=(ex2_system.maps_for(1), tuple(maps)))
    family = initial_family(broken, 16)
    with pytest.raises(ValueError) as want:
        apply_T_reference(broken, family, 16)
    with pytest.raises(ValueError) as got:
        apply_T(broken, family, 16)
    assert str(got.value) == str(want.value)
    assert "vertex 2 deviate" in str(got.value)
    with pytest.raises(ValueError, match="vertex 2 deviate"):
        fixed_point(broken, 16)


def test_maps_past_the_float_range_raise_naming_the_vertex():
    # The pullbacks and c t overflow: an error, and no NumPy warning first.
    ds = DataSet(((0.0, 0.0), (1e308, 1.5e308), (1.7e308, -1.5e308)))
    system = build_system([ds], WiringPlan.from_pairs([[(1, 0.5)] * 2]))
    family = initial_family(system, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: fixed_point(system, 16), lambda: apply_T(system, family, 16)):
            with pytest.raises(ValueError, match="^the maps of vertex 1 leave the float range$"):
                solve()


def test_finite_maps_whose_c_t_overflows_raise_naming_the_vertex(ex2_system):
    # the map table holds only finite coefficients: the stencil finds c t
    maps = list(ex2_system.maps_for(2))
    maps[2] = dataclasses.replace(maps[2], c=1e308)
    broken = dataclasses.replace(ex2_system, maps=(ex2_system.maps_for(1), tuple(maps)))
    family = initial_family(broken, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: fixed_point(broken, 16), lambda: apply_T(broken, family, 16)):
            with pytest.raises(ValueError, match="^the maps of vertex 2 leave the float range$"):
                solve()


def test_apply_T_refuses_a_result_past_the_float_range(ex2_system):
    # interior values alternate at +-1.5e308, so slopes overflow between
    # nodes; the pullbacks of the knots hit the pinned ends, which stay finite
    fns = []
    for alpha in (1, 2):
        ds = ex2_system.dataset(alpha)
        grid = standard_grid(ds, 16)
        values = np.where(np.arange(grid.size) % 2 == 1, 1.5e308, -1.5e308)
        values[[0, -1]] = ds.fs[[0, -1]]
        fns.append(SampledFunction(alpha, grid, values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the maps of vertex 1 leave the float range$"):
            apply_T(ex2_system, FunctionFamily(tuple(fns)), 7)


def test_non_convergence_matches_reference(ex1_system):
    with pytest.raises(ConvergenceError) as got:
        fixed_point(ex1_system, 64, 1e-15, 3)
    with pytest.raises(ConvergenceError) as want:
        fixed_point_reference(ex1_system, 64, 1e-15, 3)
    assert got.value.final_delta == want.value.final_delta


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_fixed_point_rejects_a_tol_that_is_not_positive(ex2_system, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        fixed_point(ex2_system, 64, tol, 50)

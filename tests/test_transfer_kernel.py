"""The batched transfer operator against the per-interval code it replaced.

The reference functions below are the earlier implementations of `apply_T`
and `fixed_point`, kept verbatim as oracles. The batched kernel does the
same floating-point operations in the same order, so every value, every
delta, the final delta and the sweep count must be equal, not just close.
"""

import dataclasses

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
)
from gdfif.cli import bundled_config_path, load_config
from gdfif.funcspace import _check_family, _Transfer
from conftest import EX2_POINTS_1, EX2_POINTS_2
from support import random_admissible_family, random_dataset

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
        np.testing.assert_array_equal(g.grid, w.grid)
        np.testing.assert_array_equal(g.values, w.values)


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


def test_pullbacks_on_source_nodes(ex2_system, rng):
    # Each source function is sampled at exactly the pullbacks that land in
    # its domain, so every interpolation hits a node.
    resolution = 24
    pullbacks = _Transfer(ex2_system, resolution)._t
    sources = np.sort([m.source_vertex for row in ex2_system.maps for m in row])
    fns = []
    for beta in range(1, ex2_system.n + 1):
        ds = ex2_system.dataset(beta)
        t = pullbacks[sources == beta].ravel()
        grid = np.union1d(t[(t > ds.xs[0]) & (t < ds.xs[-1])], [ds.xs[0], ds.xs[-1]])
        values = rng.uniform(-2.0, 2.0, grid.size)
        values[[0, -1]] = ds.fs[[0, -1]]
        fns.append(SampledFunction(beta, grid, values))
    family = FunctionFamily(tuple(fns))
    assert_same_family(apply_T(ex2_system, family, resolution),
                       apply_T_reference(ex2_system, family, resolution))


def test_pullbacks_one_ulp_outside_the_source_domain(ex1_system, rng):
    # Nudge the first map's e until its first pullback lands just below the
    # source domain, so the interpolation clamps to the end value there.
    m = ex1_system.maps_for(1)[0]
    e = m.e
    while (0.0 - e) / m.a >= 0.0:
        e = np.nextafter(e, np.inf)
    maps = (dataclasses.replace(m, e=float(e)),) + ex1_system.maps_for(1)[1:]
    system = dataclasses.replace(ex1_system, maps=(maps,))
    assert _Transfer(system, 32)._t.min() < 0.0
    family = random_admissible_family(system, 32, rng)
    assert_same_family(apply_T(system, family, 32), apply_T_reference(system, family, 32))
    assert_same_solve(system, 32)


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


def test_non_convergence_matches_reference(ex1_system):
    with pytest.raises(ConvergenceError) as got:
        fixed_point(ex1_system, 64, 1e-15, 3)
    with pytest.raises(ConvergenceError) as want:
        fixed_point_reference(ex1_system, 64, 1e-15, 3)
    assert got.value.final_delta == want.value.final_delta

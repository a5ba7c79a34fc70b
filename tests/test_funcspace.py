"""Function-space operator, fixed-point iteration, and exact evaluation."""

import dataclasses

import numpy as np
import pytest

from gdfif import (
    ConvergenceError,
    DataSet,
    FunctionFamily,
    SampledFunction,
    WiringPlan,
    apply_T,
    build_system,
    evaluate_exact,
    family_distance,
    fixed_point,
    initial_family,
    interpolation_residual,
    standard_grid,
    sup_distance,
)
from support import (
    classic_fixed_point,
    pl_sup,
    random_admissible_family,
    random_dataset,
    random_narrow_system,
    random_two_vertex,
)


def test_standard_grid_shape_and_knots(ex1_system):
    ds = ex1_system.dataset(1)
    grid = standard_grid(ds, 64)
    assert grid.size == 3 * 63 + 1
    assert np.all(np.diff(grid) > 0)
    for knot in ds.xs:
        assert knot in grid


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(1, np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledFunction(1, np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledFunction(1, np.array([0.0]), np.array([1.0]))


def test_sampled_function_keeps_read_only_copies_of_its_arrays():
    grid, values = np.array([0.0, 1.0]), np.array([2.0, 3.0])
    fn = SampledFunction(1, grid, values)
    grid[1] = values[0] = 9.0
    assert fn.grid.tolist() == [0.0, 1.0] and fn.values.tolist() == [2.0, 3.0]
    assert not (fn.grid.flags.writeable or fn.values.flags.writeable)


def test_initial_family_is_endpoint_chord(ex1_system):
    fam = initial_family(ex1_system, 16)
    fn = fam.get(1)
    assert fn.values[0] == 0.0
    assert fn.values[-1] == 1.0
    # chord from (0,0) to (10,1) is x/10
    assert np.allclose(fn.values, fn.grid / 10.0, atol=1e-15)


def test_initial_family_refuses_a_grid_that_repeats_nodes():
    # interval 1 is one ulp wide, so at resolution 64 its grid repeats nodes
    ds = DataSet(((1.0, 0.0), (1.0000000000000002, 1.0), (2.0, 0.0), (3.0, 1.0)))
    system = build_system([ds], WiringPlan.from_pairs([[(1, 0.5)] * 3]))
    with pytest.raises(ValueError, match="grid must be strictly increasing"):
        initial_family(system, 64)


def test_sup_distance_basics():
    a = SampledFunction(1, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    b = SampledFunction(1, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert sup_distance(a, a) == 0.0
    assert sup_distance(a, b) == 1.0


def test_sup_distance_crossing_lines():
    # u rises 0..1, v falls 1..0: |u-v| = |2x-1| peaks at the ends.
    u = SampledFunction(1, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    v = SampledFunction(1, np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 0.0]))
    assert sup_distance(u, v) == 1.0


def test_sup_distance_uses_union_grid():
    # Same nodes where they share them, but v adds a midpoint bump that only
    # the union grid can see.
    u = SampledFunction(1, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    v = SampledFunction(1, np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0, 0.0]))
    assert sup_distance(u, v) == 2.0


def test_sup_distance_vertex_mismatch():
    a = SampledFunction(1, np.array([0.0, 1.0]), np.zeros(2))
    b = SampledFunction(2, np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        sup_distance(a, b)


def test_family_distance_is_max_over_vertices(ex2_system):
    fam = initial_family(ex2_system, 32)
    bumped = []
    for alpha, shift in ((1, 0.2), (2, 0.7)):
        fn = fam.get(alpha)
        vals = fn.values.copy()
        vals[1:-1] += shift
        bumped.append(SampledFunction(alpha, fn.grid, vals))
    other = FunctionFamily(tuple(bumped))
    assert family_distance(fam, other) == pytest.approx(0.7, abs=1e-12)
    assert family_distance(fam, fam) == 0.0


def test_apply_T_initial_family_knot_value(ex1_system):
    # Hand check: output on interval 1 at its right knot x=3 pulls the chord
    # value at the source's right end: 0.475*10 + 0.25*1 + 0 = 5.
    fam = apply_T(ex1_system, initial_family(ex1_system, 64), 64)
    fn = fam.get(1)
    idx = np.flatnonzero(fn.grid == 3.0)[0]
    assert fn.values[idx] == 5.0


def test_apply_T_flat_system_yields_zero(flat_system, rng):
    fam = random_admissible_family(flat_system, 32, rng)
    out = apply_T(flat_system, fam, 32)
    assert np.all(out.get(1).values == 0.0)


def test_apply_T_pins_domain_endpoints(ex2_system, rng):
    fam = random_admissible_family(ex2_system, 32, rng)
    out = apply_T(ex2_system, fam, 32)
    for alpha in (1, 2):
        ds = ex2_system.dataset(alpha)
        fn = out.get(alpha)
        assert fn.values[0] == ds.fs[0]
        assert fn.values[-1] == ds.fs[-1]


def test_apply_T_knot_values_exact_over_iterations(ex2_system):
    fam = initial_family(ex2_system, 48)
    for _ in range(6):
        fam = apply_T(ex2_system, fam, 48)
    for alpha in (1, 2):
        ds = ex2_system.dataset(alpha)
        fn = fam.get(alpha)
        for x, F in ds.points:
            idx = np.flatnonzero(fn.grid == x)[0]
            assert fn.values[idx] == F


def test_apply_T_rejects_maps_that_miss_the_knots(ex1_system):
    # Shifting f moves both one-sided values at the middle interval's knots.
    maps = list(ex1_system.maps_for(1))
    maps[1] = dataclasses.replace(maps[1], f=maps[1].f + 0.5)
    broken = dataclasses.replace(ex1_system, maps=(tuple(maps),))
    with pytest.raises(ValueError, match="one-sided knot values for vertex 1 deviate"):
        apply_T(broken, initial_family(broken, 16), 16)


def test_operator_contracts_function_pairs(ex2_system, rng):
    r = ex2_system.r
    for _ in range(20):
        a = random_admissible_family(ex2_system, 128, rng)
        b = random_admissible_family(ex2_system, 128, rng)
        before = family_distance(a, b)
        after = family_distance(apply_T(ex2_system, a, 128), apply_T(ex2_system, b, 128))
        assert after <= r * before + 1e-12


def test_operator_contracts_on_random_systems(rng):
    for _ in range(10):
        datasets, plan = random_two_vertex(rng)
        system = build_system(datasets, plan)
        a = random_admissible_family(system, 64, rng)
        b = random_admissible_family(system, 64, rng)
        after = family_distance(apply_T(system, a, 64), apply_T(system, b, 64))
        assert after <= system.r * family_distance(a, b) + 1e-12


def test_fixed_point_flat_converges_immediately(flat_system):
    res = fixed_point(flat_system, 64, 1e-9, 200)
    assert res.iterations == 1
    assert res.final_delta == 0.0
    assert res.error_bound == 0.0
    assert np.all(res.family.get(1).values == 0.0)


def test_fixed_point_example2_converges_geometrically(ex2_system):
    res = fixed_point(ex2_system, 64, 1e-9, 200)
    assert res.iterations <= 40
    assert res.final_delta <= 1e-9
    ratios = [res.deltas[k + 1] / res.deltas[k] for k in range(1, len(res.deltas) - 1)]
    assert max(ratios) <= ex2_system.r + 0.05
    assert res.error_bound == res.final_delta * ex2_system.r / (1 - ex2_system.r)
    assert len(res.deltas) == res.iterations


def test_fixed_point_example1_interpolates(ex1_system):
    res = fixed_point(ex1_system, 64, 1e-9, 200)
    fn = res.family.get(1)
    assert fn.evaluate(3.0) == pytest.approx(5.0, abs=1e-9)
    assert fn.evaluate(6.0) == pytest.approx(4.0, abs=1e-9)


def test_fixed_point_reports_non_convergence(ex1_system):
    with pytest.raises(ConvergenceError) as err:
        fixed_point(ex1_system, 64, 1e-15, 3)
    assert err.value.iterations == 3
    assert err.value.final_delta > 1e-15
    assert err.value.tol == 1e-15


def test_interpolation_residual_examples(ex1_system, ex2_system, flat_system):
    for system in (ex1_system, ex2_system):
        res = fixed_point(system, 64, 1e-9, 200)
        assert interpolation_residual(system, res.family) <= 1e-9
    res = fixed_point(flat_system, 64, 1e-9, 200)
    assert interpolation_residual(flat_system, res.family) == 0.0


def test_evaluate_exact_at_knots(ex2_system):
    for alpha in (1, 2):
        for x, F in ex2_system.dataset(alpha).points:
            for depth in (1, 7):
                assert evaluate_exact(ex2_system, alpha, x, depth) == pytest.approx(F, abs=1e-12)


def test_evaluate_exact_is_exact_at_knots_of_narrow_intervals(rng):
    # With 30 intervals per data set each pullback stretches round-off about
    # 30-fold, so recursing through a knot used to miss its ordinate.
    system = random_narrow_system(rng)
    for alpha, ds in enumerate(system.datasets, start=1):
        for x, F in ds.points:
            assert evaluate_exact(system, alpha, x, 30) == F


def test_evaluate_exact_flat_is_zero(flat_system):
    for x in (0.0, 0.3, 1.0, 1.999, 2.0):
        assert evaluate_exact(flat_system, 1, x, 20) == 0.0


def test_evaluate_exact_local_extremum(ex1_system):
    # The middle map fixes x = 30/7; unwinding the self-referential value
    # equation there gives (c*x + f)/(1 - d) = 61/7.
    assert evaluate_exact(ex1_system, 1, 30.0 / 7.0, 60) == pytest.approx(61.0 / 7.0, abs=1e-9)


def test_evaluate_exact_against_sampled_fixed_point(ex1_system):
    # Deep recursion and the dense solver approximate the same function, so
    # they must agree within the sum of both error budgets.
    res64 = fixed_point(ex1_system, 64, 1e-9, 200)
    res512 = fixed_point(ex1_system, 512, 1e-9, 200)
    grid_error = family_distance(res64.family, res512.family)
    r = ex1_system.r
    budget = r**30 / (1 - r) * res64.deltas[0] + 2 * grid_error
    diff = abs(evaluate_exact(ex1_system, 1, 1.5, 30) - res64.family.get(1).evaluate(1.5))
    assert diff <= budget


def test_evaluate_exact_argument_errors(ex1_system):
    with pytest.raises(ValueError):
        evaluate_exact(ex1_system, 1, -0.1, 10)
    with pytest.raises(ValueError):
        evaluate_exact(ex1_system, 1, 10.1, 10)
    with pytest.raises(ValueError):
        evaluate_exact(ex1_system, 1, 5.0, 0)


@pytest.mark.parametrize("alpha", [0, -1, 3])
def test_evaluate_exact_rejects_vertex_outside_system(ex2_system, alpha):
    # vertex 0 would otherwise index the last data set and return its value
    with pytest.raises(ValueError, match="outside 1..2"):
        evaluate_exact(ex2_system, alpha, 2.5, 10)


def test_single_vertex_fixed_point_matches_classic_construction(rng):
    for _ in range(3):
        ds = random_dataset(rng, span=2.0)
        scales = rng.uniform(-0.8, 0.8, ds.n_intervals)
        plan = WiringPlan.from_pairs([[(1, s) for s in scales]])
        system = build_system([ds], plan)
        mine = fixed_point(system, 128, 1e-12, 2000).family.get(1)
        oracle_grid, oracle_vals = classic_fixed_point(ds.points, scales, 128)
        assert pl_sup(mine.grid, mine.values, oracle_grid, oracle_vals) <= 1e-8

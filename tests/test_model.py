"""Data-set and wiring validation."""

import math

import numpy as np
import pytest

from gdfif import (
    DataSet,
    IntervalAssignment,
    STRICT_MODE,
    USED_EDGES_MODE,
    WiringPlan,
    edge_counts,
    validate,
)
from conftest import EX2_POINTS_1, EX2_POINTS_2, EX2_SOURCES, FLAT_POINTS, make_plan
from support import random_two_vertex


def ex2_input():
    scales = ((1 / 3,) * 5, (1 / 3,) * 4)
    return (
        [DataSet(EX2_POINTS_1), DataSet(EX2_POINTS_2)],
        make_plan(EX2_SOURCES, scales),
    )


def test_dataset_normalizes_to_float_tuples():
    ds = DataSet(((0, 0), (1, 2), (3, 1)))
    assert ds.points == ((0.0, 0.0), (1.0, 2.0), (3.0, 1.0))
    assert ds.n_intervals == 2
    assert ds.span == 3.0
    assert ds.first == (0.0, 0.0)
    assert ds.last == (3.0, 1.0)


def test_dataset_arrays_are_readonly():
    ds = DataSet(((0, 0), (1, 1), (2, 0)))
    with pytest.raises(ValueError):
        ds.xs[0] = 5.0
    with pytest.raises(ValueError):
        ds.fs[1] = 5.0


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        DataSet(())


def test_two_vertex_wiring_accepted():
    datasets, plan = ex2_input()
    report = validate(datasets, plan)
    assert report.ok
    assert report.violations == ()
    assert report.strongly_connected
    assert report.condition3_mode == STRICT_MODE


def test_single_flat_dataset_accepted():
    # n=1 holds only the self-pair to the width condition, which ordered
    # points pass unless rounding makes a width equal the span.
    ds = DataSet(FLAT_POINTS)
    plan = WiringPlan.from_pairs([[(1, 0.0), (1, 0.0)]])
    report = validate([ds], plan)
    assert report.ok
    assert report.strongly_connected


def test_wide_interval_reported():
    # Data set 2 has an interval of width 2 wired against a span of 1:
    # the ratio 2/1 fails the strict inequality.
    d1 = DataSet(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    d2 = DataSet(((0.0, 0.0), (2.0, 1.0), (2.5, 0.0)))
    plan = WiringPlan.from_pairs([
        [(1, 0.3), (1, 0.3)],
        [(1, 0.3), (2, 0.3)],
    ])
    report = validate([d1, d2], plan)
    assert not report.ok
    widths = [v for v in report.violations if v.code == "data/width-ratio"]
    assert len(widths) == 1
    assert widths[0].indices == (1, 2, 1)  # span vertex, width vertex, interval


def test_used_edges_mode_skips_unwired_pairs():
    d1 = DataSet(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    d2 = DataSet(((0.0, 0.0), (2.0, 1.0), (2.5, 0.0)))
    self_only = WiringPlan.from_pairs([
        [(1, 0.3), (1, 0.3)],
        [(2, 0.3), (2, 0.3)],
    ])
    assert validate([d1, d2], self_only, USED_EDGES_MODE).ok
    # Wiring the wide data set to pull from the narrow one brings the
    # offending pair into scope.
    wired = WiringPlan.from_pairs([
        [(1, 0.3), (1, 0.3)],
        [(1, 0.3), (2, 0.3)],
    ])
    report = validate([d1, d2], wired, USED_EDGES_MODE)
    assert "data/width-ratio" in report.codes()


def test_strict_mode_implies_used_edges_mode(rng):
    for _ in range(30):
        datasets, plan = random_two_vertex(rng)
        strict = validate(datasets, plan, STRICT_MODE)
        loose = validate(datasets, plan, USED_EDGES_MODE)
        if strict.ok:
            assert loose.ok


def test_point_count_violation():
    report = validate(
        [DataSet(((0, 0), (1, 1)))],
        WiringPlan.from_pairs([[(1, 0.2)]]),
    )
    assert not report.ok
    assert "points/count" in report.codes()


def test_order_and_finite_violations():
    ds = DataSet(((0, 0), (0, 1), (2, math.inf)))
    report = validate([ds], WiringPlan.from_pairs([[(1, 0.2), (1, 0.2)]]))
    codes = report.codes()
    assert "points/order" in codes
    assert "points/finite" in codes


def test_point_violations_of_every_vertex_come_before_wiring_violations():
    ds = DataSet(((0, 0), (1, 1), (2, 0)))
    repeated = DataSet(((0, 0), (0, 1), (2, 0)))
    plan = WiringPlan.from_pairs([[(1, 0.2), (1, 1.5)], [(1, 0.2), (2, 0.2)]])
    report = validate([ds, repeated], plan)
    assert [(v.code, v.indices) for v in report.violations[:2]] == [
        ("points/order", (2, 1)), ("wiring/factor", (1, 2))]


def test_scaling_factor_bound():
    ds = DataSet(((0, 0), (1, 1), (2, 0)))
    report = validate([ds], WiringPlan.from_pairs([[(1, 1.0), (1, -1.2)]]))
    assert report.codes().count("wiring/factor") == 2


def test_bad_source_vertex():
    ds = DataSet(((0, 0), (1, 1), (2, 0)))
    report = validate([ds], WiringPlan.from_pairs([[(1, 0.2), (3, 0.2)]]))
    assert "wiring/source" in report.codes()


def test_assignment_length_mismatch():
    ds = DataSet(((0, 0), (1, 1), (2, 0)))
    report = validate([ds], WiringPlan.from_pairs([[(1, 0.2)]]))
    assert "wiring/length" in report.codes()


def test_validate_is_pure():
    datasets, plan = ex2_input()
    assert validate(datasets, plan) == validate(datasets, plan)


def test_validate_structural_errors_raise():
    ds = DataSet(((0, 0), (1, 1), (2, 0)))
    plan = WiringPlan.from_pairs([[(1, 0.2), (1, 0.2)]])
    with pytest.raises(ValueError):
        validate([], plan)
    with pytest.raises(ValueError):
        validate([ds, ds], plan)
    with pytest.raises(ValueError):
        validate([ds], plan, mode="strictest")


def test_not_strongly_connected_is_reported_not_rejected():
    # Vertex 1 never pulls from vertex 2, so 2 is unreachable backwards.
    d1 = DataSet(((0.0, 0.0), (0.4, 1.0), (1.0, 0.0)))
    d2 = DataSet(((0.0, 0.0), (0.5, 1.0), (0.9, 0.0)))
    plan = WiringPlan.from_pairs([
        [(1, 0.2), (1, 0.2)],
        [(1, 0.2), (2, 0.2)],
    ])
    report = validate([d1, d2], plan)
    assert report.ok
    assert not report.strongly_connected


def test_edge_counts_example2():
    _, plan = ex2_input()
    assert edge_counts(plan) == [[3, 2], [1, 3]]


def test_edge_counts_single_vertex():
    plan = WiringPlan.from_pairs([[(1, 0.1), (1, 0.1), (1, 0.1)]])
    assert edge_counts(plan) == [[3]]


def test_edge_counts_alternating():
    plan = WiringPlan.from_pairs([
        [(2, 0.1), (1, 0.1), (2, 0.1), (1, 0.1)],
        [(1, 0.1), (2, 0.1)],
    ])
    counts = edge_counts(plan)
    assert counts[0] == [2, 2]
    assert sum(counts[0]) == 4 and sum(counts[1]) == 2


def test_edge_counts_rejects_out_of_range_source():
    plan = WiringPlan.from_pairs([[(1, 0.1), (2, 0.1)]])
    with pytest.raises(ValueError):
        edge_counts(plan)


def test_wiring_plan_needs_a_vertex():
    with pytest.raises(ValueError):
        WiringPlan(())
    with pytest.raises(TypeError):
        WiringPlan((((1, 0.2),),))  # bare tuples are not assignments


def test_a_source_vertex_is_an_integer_where_the_plan_is_made():
    # from_pairs used to truncate 1.9 to source 1, and a directly built 1.5
    # made validate raise a bare TypeError from its connectivity search.
    with pytest.raises(TypeError, match=r"^interval 1 of vertex 1 names source vertex 1\.9, "
                                        r"which is not an integer$"):
        WiringPlan.from_pairs([[(1.9, 0.3), (1, -0.3)]])
    rows = ((IntervalAssignment(1, 0.3), IntervalAssignment(2, 0.3)),
            (IntervalAssignment(1, 0.3), IntervalAssignment(1.5, 0.3)))
    with pytest.raises(TypeError, match=r"^interval 2 of vertex 2 names source vertex 1\.5, "):
        WiringPlan(rows)
    numpy_sources = WiringPlan.from_pairs([[(np.int64(1), 0.3), (np.int64(2), -0.3)],
                                           [(np.int64(1), 0.3), (np.int64(2), 0.3)]])
    plan = WiringPlan.from_pairs([[(1, 0.3), (2, -0.3)], [(1, 0.3), (2, 0.3)]])
    assert numpy_sources == plan
    datasets = [DataSet(FLAT_POINTS), DataSet(FLAT_POINTS)]
    assert validate(datasets, numpy_sources) == validate(datasets, plan)


def test_interval_assignment_is_value_like():
    assert IntervalAssignment(1, 0.5) == IntervalAssignment(1, 0.5)

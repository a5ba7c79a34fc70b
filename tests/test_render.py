"""Artifact emission: CSV, SVG, PGM. Everything must be byte-deterministic."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from gdfif import (
    AttractorCloud,
    DataSet,
    export_csv,
    fixed_point,
    iterate_attractor,
    render_pgm,
    render_svg,
)
from gdfif.cli import read_points_csv
from gdfif.render import _padded


def read_pgm(path):
    data = path.read_bytes()
    header, raster = data.split(b"\n", 1)
    magic, w, h, maxval = header.split()
    assert magic == b"P5" and maxval == b"255"
    return np.frombuffer(raster, dtype=np.uint8).reshape(int(h), int(w))


def test_export_csv_flat_family(flat_system, tmp_path):
    res = fixed_point(flat_system, 32, 1e-9, 50)
    out = tmp_path / "flat.csv"
    export_csv(out, family=res.family)
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex,x,y"
    assert all(line.endswith(",0") for line in lines[1:])


def test_export_csv_contains_example2_endpoints(ex2_system, tmp_path):
    res = fixed_point(ex2_system, 64, 1e-9, 200)
    out = tmp_path / "ex2.csv"
    export_csv(out, family=res.family)
    rows = read_points_csv(out)
    assert (1, 0.0, 5.0) in rows
    assert (1, 5.0, 5.0) in rows


def test_export_csv_sorted_and_deterministic(ex2_system, tmp_path):
    clouds = iterate_attractor(ex2_system, 4, 1e-6)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    export_csv(a, clouds=clouds)
    export_csv(b, clouds=clouds)
    assert a.read_bytes() == b.read_bytes()
    rows = read_points_csv(a)
    assert rows == sorted(rows)


def test_export_csv_requires_exactly_one_input(ex2_system, tmp_path):
    res = fixed_point(ex2_system, 32, 1e-9, 200)
    clouds = iterate_attractor(ex2_system, 2, 1e-6)
    with pytest.raises(ValueError):
        export_csv(tmp_path / "x.csv")
    with pytest.raises(ValueError):
        export_csv(tmp_path / "x.csv", family=res.family, clouds=clouds)


def test_export_csv_round_trips_exactly(ex1_system, tmp_path):
    res = fixed_point(ex1_system, 64, 1e-9, 200)
    out = tmp_path / "roundtrip.csv"
    export_csv(out, family=res.family)
    rows = read_points_csv(out)
    fn = res.family.get(1)
    assert len(rows) == fn.grid.size
    xs = np.array([r[1] for r in rows])
    ys = np.array([r[2] for r in rows])
    order = np.argsort(fn.grid, kind="stable")
    assert np.array_equal(xs, fn.grid[order])
    assert np.array_equal(ys, fn.values[order])


def test_render_svg_marks_data_points(ex1_system, tmp_path):
    res = fixed_point(ex1_system, 64, 1e-9, 200)
    out = tmp_path / "ex1.svg"
    render_svg(out, datasets=ex1_system.datasets, family=res.family)
    text = out.read_text()
    assert text.count('class="knot"') == 4


def test_render_svg_deterministic(ex2_system, tmp_path):
    res = fixed_point(ex2_system, 64, 1e-9, 200)
    clouds = iterate_attractor(ex2_system, 6, 1e-3)
    paths = [tmp_path / "r1.svg", tmp_path / "r2.svg"]
    for p in paths:
        render_svg(p, datasets=ex2_system.datasets, family=res.family, clouds=clouds)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_render_svg_needs_input(tmp_path):
    with pytest.raises(ValueError):
        render_svg(tmp_path / "none.svg")


def test_render_pgm_flat_darkens_one_row(flat_system, tmp_path):
    clouds = iterate_attractor(flat_system, 8, 1e-3)
    out = tmp_path / "flat.pgm"
    render_pgm(out, clouds=clouds)
    img = read_pgm(out)
    dark_rows = np.unique(np.nonzero(img < 255)[0])
    assert dark_rows.size == 1


def test_render_pgm_covers_all_interval_bands(ex1_system, tmp_path):
    clouds = iterate_attractor(ex1_system, 10, 1e-3)
    out = tmp_path / "ex1.pgm"
    render_pgm(out, clouds=clouds)
    img = read_pgm(out)
    cols = np.unique(np.nonzero(img < 255)[1])
    lo, hi = cols.min(), cols.max()
    # data spans [0, 10]; interval ends 3 and 6 split the used columns 30/60%
    split1 = lo + 0.3 * (hi - lo)
    split2 = lo + 0.6 * (hi - lo)
    assert np.any(cols < split1)
    assert np.any((cols >= split1) & (cols < split2))
    assert np.any(cols >= split2)


def test_render_pgm_deterministic(ex1_system, tmp_path):
    clouds = iterate_attractor(ex1_system, 6, 1e-3)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    render_pgm(a, clouds=clouds)
    render_pgm(b, clouds=clouds)
    assert a.read_bytes() == b.read_bytes()


def test_render_pgm_dimensions(flat_system, tmp_path):
    clouds = iterate_attractor(flat_system, 4, 1e-3)
    out = tmp_path / "dims.pgm"
    render_pgm(out, clouds=clouds)
    assert read_pgm(out).shape == (600, 900)


def test_a_flat_cloud_past_2_53_draws_across_the_panel_middle(tmp_path):
    # Past 2**53 a pad of one half leaves a flat range empty; 4% of the
    # value widens it, so the dots project to the middle, not to 0 / 0.
    y = 2.0**60
    lo, hi = _padded(y, y)
    assert np.isfinite((lo, hi)).all() and lo < y < hi
    cloud = AttractorCloud(1, np.column_stack((np.linspace(0.0, 1.0, 5), np.full(5, y))), 0)
    render_svg(tmp_path / "flat.svg", clouds=(cloud,))
    dots = re.findall(r"M([\d.]+) ([\d.]+)h0", (tmp_path / "flat.svg").read_text())
    assert len(dots) == 5 and {py for _, py in dots} == {"300.00"}
    render_pgm(tmp_path / "flat.pgm", clouds=(cloud,))
    rows, cols = np.nonzero(read_pgm(tmp_path / "flat.pgm") < 255)
    assert set(rows.tolist()) == {300} and len(set(cols.tolist())) == 5


def test_rendering_does_not_mutate_inputs(ex1_system, tmp_path):
    clouds = iterate_attractor(ex1_system, 5, 1e-3)
    before = clouds[0].points.copy()
    render_svg(tmp_path / "m.svg", clouds=clouds)
    render_pgm(tmp_path / "m.pgm", clouds=clouds)
    export_csv(tmp_path / "m.csv", clouds=clouds)
    assert np.array_equal(clouds[0].points, before)


def test_two_clouds_of_a_vertex_draw_as_one_cloud_of_both(ex1_system, tmp_path):
    # Both renderers drew only the last cloud given for a vertex.
    (first,) = iterate_attractor(ex1_system, 4, 1e-3)
    second = AttractorCloud(1, first.points[::-1] * 0.5 + 3.0, 0)
    both = AttractorCloud(1, np.vstack((first.points, second.points)), 0)
    for render in (render_svg, render_pgm):
        render(tmp_path / "two", clouds=(first, second))
        render(tmp_path / "one", clouds=(both,))
        assert (tmp_path / "two").read_bytes() == (tmp_path / "one").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1], ids=["x", "y"])
def test_content_that_is_not_finite_is_refused(bad, column, tmp_path):
    # Neither renderer raised: a NaN made the panel's range NaN and every
    # point was clipped away, the finite ones too; an infinity was clipped
    # and the finite points were crowded onto one column.
    finite = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
    pts = finite.copy()
    pts[1, column] = bad
    good_cloud = AttractorCloud(1, finite, 0)
    bad_cloud = AttractorCloud(1, pts, 0)
    # A stand-in for a SampledFunction, whose grid could hold no NaN.
    curve = SimpleNamespace(vertex=1, grid=pts[:, 0], values=pts[:, 1])
    scenes = [dict(clouds=(bad_cloud,)),
              dict(family=(curve,), clouds=(good_cloud,)),
              dict(datasets=(DataSet(tuple(map(tuple, pts))),), clouds=(good_cloud,))]
    for k, scene in enumerate(scenes):
        with pytest.raises(ValueError, match="vertex 1: cannot draw a coordinate that is not "):
            render_svg(tmp_path / f"{k}.svg", **scene)
        assert not (tmp_path / f"{k}.svg").exists()
    with pytest.raises(ValueError, match="vertex 1: cannot draw a coordinate that is not "):
        render_pgm(tmp_path / "cloud.pgm", clouds=(bad_cloud,))
    assert not (tmp_path / "cloud.pgm").exists()

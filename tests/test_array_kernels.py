"""The array kernels for the attractor and export against the code they replaced.

The reference functions below are the earlier scalar implementations,
kept as oracles (the Hausdorff reference is plain brute force). The
arithmetic is unchanged, so results must be equal array for array and byte
for byte, on inputs chosen to hit every boundary: range ends, exact .5
pixel coordinates, clamped rows and columns, dedup cell boundaries and key
widths, duplicates, signed zeros, ties in x and crowded x-strips.

The chaos game draws all its picks in one array call of `Generator.integers`;
the loop it replaced calls `integers` twice per step, so equal clouds mean
the seeded stream is the same. `evaluate_exact` walks the system's cached
map table where its reference walks the `AffineMap` objects, with the same
arithmetic, so values must be equal bit for bit.
The SVG's cloud dots are printed from digit tables, not by `%`, and must
match `%.2f` byte for byte, ties and near-ties included; so must the CSVs'
floats match `%.17g`, against `%` value by value and file by file.
"""

import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

from gdfif import (
    USED_EDGES_MODE,
    AttractorCloud,
    DataSet,
    GifsSystem,
    WiringPlan,
    build_system,
    chaos_game,
    evaluate_exact,
    export_csv,
    fixed_point,
    hutchinson_step,
    iterate_attractor,
    render_pgm,
    render_svg,
    validate,
)
import gdfif
from gdfif import attractor, render
from gdfif.attractor import (
    _dedup, _draws, data_clouds, directed_hausdorff, hausdorff_distance,
)
from gdfif.maps import apply_map, endpoint_residuals
from gdfif.cli import bundled_config_path, load_config
from gdfif.render import _layout
from conftest import EX2_POINTS_1, EX2_POINTS_2
from support import export_csv_percent, random_dataset, random_narrow_system, random_two_vertex

BUNDLED = ("example1", "example2", "example2b", "flat")


def bundled_system(name):
    cfg = load_config(bundled_config_path(name))
    return cfg, build_system(cfg.datasets, cfg.plan, cfg.condition3_mode)


def dedup_reference(points, tol):
    keys = np.round(points / tol).astype(np.int64)
    _, index = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(index)]


def dedup_float_reference(points, tol):
    """Groups by the float cell numbers, so no cast can merge two cells."""
    _, index = np.unique(np.round(points / tol), axis=0, return_index=True)
    return points[np.sort(index)]


def bits(points):
    """The bytes of a C-ordered copy: equal bits whatever the memory layout."""
    return np.ascontiguousarray(points).tobytes()


def transform_points_reference(m, points):
    x = points[:, 0]
    y = points[:, 1]
    return np.column_stack((m.a * x + m.e, m.c * x + m.d * y + m.f))


def hutchinson_step_reference(system, clouds):
    out = []
    for alpha in range(1, system.n + 1):
        parts = [
            transform_points_reference(m, clouds[m.source_vertex - 1].points)
            for m in system.maps_for(alpha)
        ]
        out.append(AttractorCloud(alpha, np.vstack(parts), clouds[alpha - 1].generation + 1))
    return tuple(out)


def chaos_game_reference(system, total_points, burn_in=0, seed=0):
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if total_points <= burn_in:
        raise ValueError("total_points must exceed burn_in")
    rng = np.random.default_rng(seed)
    n = system.n
    current = [system.dataset(alpha).first for alpha in range(1, n + 1)]
    kept: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    emitted = [0] * n
    for _ in range(total_points):
        alpha = int(rng.integers(1, n + 1))
        vertex_maps = system.maps_for(alpha)
        m = vertex_maps[int(rng.integers(0, len(vertex_maps)))]
        point = apply_map(m, current[m.source_vertex - 1])
        current[alpha - 1] = point
        emitted[alpha - 1] += 1
        if emitted[alpha - 1] > burn_in:
            kept[alpha - 1].append(point)
    for alpha, pts in enumerate(kept, start=1):
        if not pts:
            raise ValueError(
                f"vertex {alpha} kept no points past burn-in; "
                "increase total_points (chaos_points for gdfif run)"
            )
    return tuple(
        AttractorCloud(alpha, np.array(pts), total_points)
        for alpha, pts in enumerate(kept, start=1)
    )


def directed_hausdorff_reference(p, q, rows=32):
    qx, qy = q[:, 0].copy(), q[:, 1].copy()
    best = []
    for lo in range(0, len(p), rows):
        dx = np.abs(qx - p[lo:lo + rows, 0, None])
        dy = np.abs(qy - p[lo:lo + rows, 1, None])
        best.append(np.maximum(dx, dy, out=dx).min(axis=1))
    return float(np.concatenate(best).max())


def directed_hausdorff_on_a_vertical_line(p, q):
    """directed_hausdorff_reference for points that all share one x: each
    max-norm distance is then |dy|, and each p's nearest q is a neighbour
    of it in sorted y."""
    assert (p[:, 0] == q[0, 0]).all() and (q[:, 0] == q[0, 0]).all()
    qy = np.concatenate(([-np.inf], np.sort(q[:, 1]), [np.inf]))
    j = np.searchsorted(qy, p[:, 1])  # qy[j - 1] < py <= qy[j]
    return float(np.minimum(qy[j] - p[:, 1], p[:, 1] - qy[j - 1]).max())


def export_csv_reference(path, family=None, clouds=None):
    rows = []
    if family is not None:
        for fn in family:
            for x, y in zip(fn.grid, fn.values):
                rows.append((fn.vertex, float(x), float(y)))
    else:
        for cloud in clouds:
            for x, y in cloud.points:
                rows.append((cloud.vertex, float(x), float(y)))
    rows.sort()
    with open(path, "w", newline="\n") as fh:
        fh.write("vertex,x,y\n")
        for vertex, x, y in rows:
            fh.write(f"{vertex},{x:.17g},{y:.17g}\n")


def _to_px(panel, x, y):
    fx = (x - panel.x_range[0]) / (panel.x_range[1] - panel.x_range[0])
    fy = (y - panel.y_range[0]) / (panel.y_range[1] - panel.y_range[0])
    return panel.px0 + fx * panel.pw, panel.py0 + (1.0 - fy) * panel.ph


def _by_vertex_reference(parts):
    """{vertex: (x, y)} of (vertex, points) parts, in vertex order, each
    vertex's points taken part by part in the order given."""
    points = {}
    for vertex, pts in parts:
        points.setdefault(vertex, []).extend(map(tuple, pts))
    return {v: tuple(np.array(points[v]).T) for v in sorted(points)}


def _scene_reference(datasets=None, family=None, clouds=None):
    """The data points, cloud dots and curves of a scene, each by vertex."""
    return (_by_vertex_reference((k, ds.points) for k, ds in enumerate(datasets or (), 1)),
            _by_vertex_reference((c.vertex, c.points) for c in clouds or ()),
            _by_vertex_reference((fn.vertex, zip(fn.grid, fn.values)) for fn in family or ()))


def render_pgm_reference(path, clouds):
    width, height = render._WIDTH, render._HEIGHT
    _, dots, _ = _scene_reference(clouds=clouds)
    panels = _layout(dots)
    img = np.full((height, width), 255, dtype=np.uint8)
    for alpha, panel in panels.items():
        for x, y in zip(*dots[alpha]):
            px, py = _to_px(panel, x, y)
            col = min(max(int(round(px)), 0), width - 1)
            row = min(max(int(round(py)), 0), height - 1)
            img[row, col] = 0
    with open(path, "wb") as fh:
        fh.write(f"P5 {width} {height} 255\n".encode("ascii"))
        fh.write(img.tobytes())


def _dot_paths_reference(xs, ys, panel, chunk_size=2000):
    moves = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        px, py = _to_px(panel, x, y)
        moves.append(f"M{px:.2f} {py:.2f}h0")
    for lo in range(0, len(moves), chunk_size):
        yield "".join(moves[lo:lo + chunk_size])


def _polyline_reference(curve, panel):
    return " ".join("{:.3f},{:.3f}".format(*_to_px(panel, x, y)) for x, y in zip(*curve))


def render_svg_reference(path, datasets=None, family=None, clouds=None):
    width, height, radius = render._WIDTH, render._HEIGHT, render._POINT_RADIUS
    data, dots, curves = _scene_reference(datasets, family, clouds)
    panels = _layout(data, dots, curves)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for alpha, panel in panels.items():
        color = render.PALETTE[(alpha - 1) % len(render.PALETTE)]
        parts.append(
            f'<rect x="{panel.px0:.3f}" y="{panel.py0:.3f}" width="{panel.pw:.3f}" '
            f'height="{panel.ph:.3f}" fill="none" stroke="#cccccc"/>'
        )
        if alpha in dots:
            for chunk in _dot_paths_reference(*dots[alpha], panel):
                parts.append(
                    f'<path d="{chunk}" stroke="{color}" stroke-opacity="0.55" '
                    f'stroke-width="{radius * 0.6:.3f}" '
                    f'stroke-linecap="round" fill="none"/>'
                )
        if alpha in curves:
            parts.append(
                f'<polyline points="{_polyline_reference(curves[alpha], panel)}" '
                f'fill="none" stroke="{color}" stroke-width="1.4"/>'
            )
        if alpha in data:
            for x, y in zip(*data[alpha]):
                px, py = _to_px(panel, x, y)
                parts.append(
                    f'<circle class="knot" cx="{px:.3f}" cy="{py:.3f}" '
                    f'r="{radius:.3f}" fill="none" stroke="#222222" '
                    f'stroke-width="1.2"/>'
                )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


# Canvases as the render attributes to patch: {} is the one canvas the
# renderers draw. On a 64 x 64 canvas without margin, with panel ranges
# (0, 64), world and pixel coordinates coincide exactly (py = 64 - y), so
# .5 coordinates stay .5.
EXACT = {"_WIDTH": 64, "_HEIGHT": 64, "_MARGIN": 0,
         "_panel_range": lambda alpha, entry: ((0.0, 64.0), (0.0, 64.0))}


def _use_canvas(monkeypatch, spec):
    for name, value in spec.items():
        monkeypatch.setattr(render, name, value)


def _edge_points(rng):
    below, above = np.nextafter(0.0, -1.0), np.nextafter(64.0, 65.0)
    halves = np.arange(0.0, 64.5, 0.5)
    edges = np.array([0.0, 64.0, below, above, -0.0, 63.5, 0.5, 1.5, 2.5])
    inner = np.full(edges.size, 32.5)
    xs = np.concatenate([halves, edges, edges, inner, rng.uniform(-1, 65, 300)])
    ys = np.concatenate([halves[::-1], edges, inner - 1.0, edges, rng.uniform(-1, 65, 300)])
    pts = np.column_stack((xs, ys))
    return np.vstack([pts, pts[:40]])  # duplicates


@pytest.fixture
def edge_clouds(rng):
    pts = _edge_points(rng)
    return (AttractorCloud(1, pts, 0), AttractorCloud(2, pts[::-1] * 0.5 + 1.0, 0))


def _dedup_spied(points, tol, monkeypatch):
    """_dedup's result, and whether it took the np.unique fallback for unpackable cells."""
    calls = []
    unique = np.unique
    with monkeypatch.context() as m:
        m.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        got = _dedup(points, tol)
    return got, bool(calls)


def _sorted_rows(points, tol, monkeypatch):
    """The row numbers of the keys that the packed dedup sorted, in key order.

    The sorted keys go through `np.compress` once, as they are picked.
    """
    keys = []
    compress = np.compress
    with monkeypatch.context() as m:
        m.setattr(np, "compress", lambda flags, a: keys.append(a.copy()) or compress(flags, a))
        _dedup(points, tol)
    (key,) = keys
    return key & ((1 << (len(points) - 1).bit_length()) - 1), key


def _cell_starts(points, tol):
    """The rows whose cell differs from the cell of the row before."""
    cells = np.round(points / tol)
    return np.flatnonzero(np.concatenate(([True], (cells[1:] != cells[:-1]).any(axis=1))))


def test_dedup_matches_unique_reference(rng, monkeypatch):
    tol = 0.25
    cells = rng.integers(-8, 8, size=(4000, 2)) * tol
    on_boundaries = cells + tol / 2  # points / tol lands exactly on .5
    jittered = cells + rng.uniform(-tol, tol, size=cells.shape)
    pts = np.vstack([on_boundaries, jittered, cells, cells[:100], [[-0.0, 0.0], [0.0, -0.0]]])
    # 2**31 x 2**30 cells above 2 row-index bits fill the 63 bits exactly: the
    # last row, in the last cell, packs to 2**63 - 1. One more row of cells
    # does not fit and takes the lexsort.
    lo, hi = -2.0**30, 2.0**30 - 1
    at_limit = np.array([[lo, 0.0], [hi, 2.0**30 - 1], [lo, 0.0], [hi, 2.0**30 - 1]])
    past_limit = at_limit + [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 1.0]]
    cases = [(pts, t, False) for t in (tol, 1e-3, 3.0)]
    cases += [(pts, 1e-15, True), (at_limit, 1.0, False), (past_limit, 1.0, True),
              (np.array([[1.0, 2.0]]), tol, False)]
    for points, t, lexsorted in cases:
        # row-major input, and the column-major clouds that the step makes
        for layout in (points, np.asfortranarray(points)):
            got, took_lexsort = _dedup_spied(layout, t, monkeypatch)
            assert bits(got) == bits(dedup_reference(points, t))
            assert got.flags.f_contiguous
            assert took_lexsort == lexsorted
    assert np.array_equal(_dedup(at_limit, 1.0), at_limit[:2])


def test_dedup_keeps_cells_numbered_past_int64(rng, monkeypatch):
    # Cell numbers of about 1e19 to 1e301 overflow an int64 cast, which
    # merged distinct cells. Near +-1e4 a tol of 1e-15 numbers the cells past
    # int64 too, though few enough to pack: points 4 doubles apart are about
    # 7300 cells apart, where the cell numbers' own doubles are 2048 apart.
    uniform = rng.uniform(0.0, 10.0, size=(1000, 2))
    uniform = np.vstack([uniform, uniform[:50]])
    k = np.arange(12)[:, None]
    near = 1e4 + 4 * np.spacing(1e4) * np.hstack([k // 2, k % 3])
    for points, tol in ((uniform, 1e-18), (uniform, 1e-300), (near, 1e-15), (-near, 1e-15)):
        got, took_lexsort = _dedup_spied(points, tol, monkeypatch)
        assert took_lexsort
        assert np.array_equal(got, dedup_float_reference(points, tol))
    assert len(_dedup(uniform, 1e-300)) == 1000
    assert len(_dedup(near, 1e-15)) == 12
    with pytest.raises(ValueError, match=r"^dedup tolerance 1e-320 is too small"):
        _dedup(uniform, 1e-320)


# Coordinates / tol with ties at both ends of the y range: 0.5 rounds down to even
# and 1.5 up, so a range taken with floor would be one cell short at the
# top, and the cells (0, 2) and (1, 0) would pack to one key.
_RANGE_TIES = np.array([[0.0, 1.5], [1.0, 0.5], [-1.5, 0.5], [-0.5, 1.5]])


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocked_dedup_matches_references_across_block_edges(block, rng, monkeypatch):
    # Each random coordinate / tol is k, k + 0.25, k + 0.75 or a tie k + 0.5,
    # for k in -3..3: a few cells with many points each, so the sorted runs
    # of one cell cross the block edges.
    monkeypatch.setattr(attractor, "_KEY_BLOCK", block)
    tol = 0.25
    sizes = sorted({n for k in (1, 2, 3) for n in (k * block - 1, k * block, k * block + 1) if n})
    for n in sizes:
        pts = rng.integers(-12, 13, size=(n, 2)) / 4 * tol
        ties = np.resize(_RANGE_TIES, (n, 2)) * tol
        one_cell = np.full((n, 2), -1.0) + rng.uniform(-0.4, 0.4, size=(n, 2)) * tol
        jitter = rng.uniform(-0.4, 0.4, size=(n, 2)) * tol
        # Runs of block + 1 rows in one cell, so every run crosses a seam.
        runs = np.repeat(rng.integers(-3, 4, size=(n, 2)), block + 1, axis=0)[:n] * tol + jitter
        # Cell A, A, B, A, A, B, ...: a cell comes back after another.
        back = np.resize([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0]], (n, 2)) * tol + jitter
        # The first row of every block after the first repeats the row before's
        # cell; the cells number on and come back every 5 and 35 rows.
        cell = np.cumsum(np.arange(n) % block != 0)
        seams = np.column_stack((cell % 5, cell // 5 % 7)) * tol + jitter
        cases = [(pts, tol, False), (ties, tol, False), (-ties, tol, False),
                 (one_cell, tol, False), (pts + 1.0, 1e-19, True),  # cells past int64
                 (runs, tol, False), (back, tol, False), (seams, tol, False)]
        for points, t, lexsorted in cases:
            for layout in (points, np.asfortranarray(points)):
                got, took_lexsort = _dedup_spied(layout, t, monkeypatch)
                assert took_lexsort == lexsorted
                assert bits(got) == bits(dedup_float_reference(points, t))
                if not lexsorted:
                    assert bits(got) == bits(dedup_reference(points, t))
                    # The sort sees each row that starts a new cell, and no other.
                    rows, key = _sorted_rows(layout, t, monkeypatch)
                    assert np.array_equal(np.sort(rows), _cell_starts(points, t))
                    assert (np.diff(key) > 0).all()
        assert len(_dedup(one_cell, tol)) == 1
        assert len(_sorted_rows(one_cell, tol, monkeypatch)[0]) == 1
    assert bits(_dedup(np.array([[-0.375, 0.125]]), tol)) == bits([[-0.375, 0.125]])


@pytest.mark.parametrize("points", [
    [[1.0, 0.0], [1e300, 0.0]],
    [[-1e300, 0.0], [1.0, 0.0]],
    [[0.0, 1.0], [0.0, 1e300]],
    [[0.0, -1e300], [0.0, 1.0]],
])
def test_dedup_reports_an_overflow_at_one_end_of_the_range(points):
    # Only the largest or only the smallest coordinate overflows its cell
    # number; the message is the one a full pass of the cell numbers gave.
    with pytest.raises(ValueError) as err:
        _dedup(np.array(points), 1e-10)
    assert str(err.value) == (
        "dedup tolerance 1e-10 is too small: a point's cell number "
        "(coordinate / tolerance) is not finite; use a larger dedup_tol")


def _three_vertex_system():
    # No map reads from vertex 3, which is built from vertices 1 and 2 only.
    datasets = [DataSet(EX2_POINTS_1), DataSet(EX2_POINTS_2),
                DataSet(((0.0, 0.0), (1.0, 1.5), (2.0, -0.5)))]
    plan = WiringPlan.from_pairs([[(1, 0.3), (2, -0.2), (2, 0.4), (1, 0.1), (2, 0.5)],
                                  [(2, 0.3), (1, 0.2), (1, -0.6), (2, 0.25)],
                                  [(1, 0.5), (2, -0.3)]])
    return build_system(datasets, plan)


def iterate_attractor_reference(system, generations, tol):
    """The step and dedup of the row-layout references, with no budget check."""
    clouds = data_clouds(system)
    for _ in range(generations):
        clouds = tuple(AttractorCloud(c.vertex, dedup_float_reference(c.points, tol), c.generation)
                       for c in hutchinson_step_reference(system, clouds))
    return clouds


@pytest.mark.parametrize("name", BUNDLED + ("three-vertex", "wide", "two-vertex-1",
                                             "two-vertex-2", "two-vertex-3"))
def test_hutchinson_step_matches_vstack_reference(name):
    # The step and the dedup store clouds column-major; the references are
    # row-major. Their bytes in C order, and so every bit, must be equal.
    if name == "three-vertex":
        system, generations, tol = _three_vertex_system(), 6, 1e-3
    else:
        system, _, generations, tol = _clouds_and_curves(name)
    clouds = data_clouds(system)
    for _ in range(generations):
        got = hutchinson_step(system, clouds)
        want = hutchinson_step_reference(system, clouds)
        for g, w in zip(got, want):
            assert (g.vertex, g.generation) == (w.vertex, w.generation)
            assert bits(g.points) == bits(w.points)
            assert g.points.flags.f_contiguous and not g.points.flags.writeable
        clouds = tuple(AttractorCloud._adopt(c.vertex, _dedup(c.points, tol), c.generation)
                       for c in got)
        assert all(c.points.flags.f_contiguous for c in clouds)
    got = iterate_attractor(system, generations, tol)
    want = iterate_attractor_reference(system, generations, tol)
    assert [bits(c.points) for c in got] == [bits(c.points) for c in want]
    assert [bits(c.points) for c in got] == [bits(c.points) for c in clouds]


def test_traced_iterate_attractor_calls_the_public_step_once_per_generation(monkeypatch):
    # perfbench times `attractor.hutchinson_step` and counts its points by
    # rebinding the module's public name, as this wrapper does.
    system, _, generations, tol = _clouds_and_curves("example2")
    untraced = iterate_attractor(system, generations, tol)
    calls = []
    step = attractor.hutchinson_step
    monkeypatch.setattr(attractor, "hutchinson_step",
                        lambda s, clouds: calls.append(clouds) or step(s, clouds))
    traced = iterate_attractor(system, generations, tol)
    assert len(calls) == generations
    assert [c.generation for c in calls[-1]] == [generations - 1] * system.n
    assert [bits(c.points) for c in traced] == [bits(c.points) for c in untraced]


def _exact_box(points):
    return tuple(float(v) for v in (points[:, 0].min(), points[:, 0].max(),
                                    points[:, 1].min(), points[:, 1].max()))


def _encloses(cloud):
    x0, x1, y0, y1 = cloud._box
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    return bool(((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)).all())


def _boxed_case(name):
    """(system, generations, dedup tolerance) of one case."""
    if name == "three-vertex":
        return _three_vertex_system(), 6, 1e-3
    if name.startswith("narrow"):
        return random_narrow_system(np.random.default_rng(int(name[-1]))), 2, 1e-3
    system, _, generations, tol = _clouds_and_curves(name)
    return system, generations, tol


@pytest.mark.parametrize("dedup", ["config", "none"])
@pytest.mark.parametrize("name", BUNDLED + ("wide", "narrow-1", "narrow-2"))
def test_a_cloud_steps_back_in_x_only_within_the_knot_tolerance(name, dedup):
    # A cloud is x-ordered but for the seams between map images, where the
    # next image may start behind the last by the maps' misses at their
    # shared knot. The constructor holds each x miss within 1e-6 of its
    # interval's width, so no step back passes that tolerance of the
    # vertex's narrowest interval (measured worst: 1.7e-8 of it, on wide
    # with no dedup). Without a dedup, 6 generations keep the bundled
    # clouds below 10^5 points.
    system, generations, tol = _boxed_case(name)
    if dedup == "none":
        generations, tol = min(generations, 6), 0.0
    for cloud in iterate_attractor(system, generations, tol):
        x = cloud.points[:, 0]
        assert np.max(x[:-1] - x[1:]) <= 1e-6 * np.diff(system.dataset(cloud.vertex).xs).min()


@pytest.mark.parametrize("name", BUNDLED + ("wide", "three-vertex", "two-vertex-1",
                                             "two-vertex-2", "two-vertex-3", "narrow-1",
                                             "narrow-2"))
def test_every_step_and_dedup_keeps_its_cloud_inside_a_finite_box(name, monkeypatch):
    # Each step derives its clouds' boxes from its sources' boxes, and each
    # dedup hands its input's box on. Every box is finite here, so no step
    # scans its images and no dedup reads a cloud's extremes.
    system, generations, tol = _boxed_case(name)
    steps = []
    step = attractor.hutchinson_step
    monkeypatch.setattr(attractor, "hutchinson_step",
                        lambda s, clouds: steps.append((clouds, step(s, clouds))) or steps[-1][1])
    final = iterate_attractor(system, generations, tol)
    assert len(steps) == generations
    deduped = [before for before, _ in steps[1:]] + [final]
    for (before, images), after in zip(steps, deduped):
        for cloud in (*before, *images, *after):
            assert np.isfinite(cloud._box).all()
            assert _encloses(cloud)
        assert [c._box for c in after] == [c._box for c in images]
    # From the data's exact boxes, the first step's x ranges are exact.
    for cloud in steps[0][1]:
        assert cloud._box[:2] == _exact_box(cloud.points)[:2]


def test_a_cloud_made_anew_takes_its_box_from_its_own_points(ex2_system):
    # The first step's box of vertex 1 reaches y = 5.67 where its images
    # stop at 5.17: a copy must not keep it, nor a cloud with other points.
    image = hutchinson_step(ex2_system, data_clouds(ex2_system))[0]
    assert image._box != _exact_box(image.points)
    moved = image.points * 3.0 - 1.0
    for cloud, points in ((dataclasses.replace(image), image.points),
                          (dataclasses.replace(image, points=moved), moved),
                          (AttractorCloud._adopt(1, moved.copy(), 1), moved),
                          (AttractorCloud(1, moved, 1), moved)):
        assert cloud._box == _exact_box(points)
    assert image._box != _exact_box(image.points)


def _d_zero_system():
    # Both maps scale y by 0, and inf * 0 is NaN: a cloud that reaches
    # y = +-inf makes its box's y terms (0, NaN) or (NaN, 0), whose NaN
    # Python's min and max keep or drop by its place.
    return build_system([DataSet(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))],
                        WiringPlan.from_pairs([[(1, 0.0), (1, 0.0)]]))


@pytest.mark.parametrize("name", ["example2", "three-vertex", "d-zero"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_cloud_holding_nan_or_inf_leaves_the_float_range_as_before(name, bad):
    # The first vertex whose reference images are not all finite is named;
    # a vertex no map reads (vertex 3 of three-vertex) raises nothing.
    system = {"example2": lambda: bundled_system("example2")[1],
              "three-vertex": _three_vertex_system, "d-zero": _d_zero_system}[name]()
    start = data_clouds(system)
    for k in range(system.n):
        for row in (0, 1, len(start[k]) - 1):
            for col in (0, 1):
                points = np.array(start[k].points)
                points[row, col] = bad
                clouds = list(start)
                clouds[k] = AttractorCloud(k + 1, points, 0)
                with np.errstate(all="ignore"):
                    want = hutchinson_step_reference(system, clouds)
                named = [c.vertex for c in want if not np.isfinite(c.points).all()]
                if named:
                    with pytest.raises(ValueError, match=f"^the maps of vertex {named[0]} "
                                                         "leave the float range$"):
                        hutchinson_step(system, clouds)
                else:
                    got = hutchinson_step(system, clouds)
                    assert [bits(c.points) for c in got] == [bits(c.points) for c in want]
                    assert all(_encloses(c) for c in got)
    if name == "three-vertex":
        assert not named  # the last case: vertex 3, whose cloud no map reads


class _NoExtremes(np.ndarray):
    """Points whose min and max raise, so a dedup that reads them fails."""

    def min(self, *args, **kwargs):
        raise AssertionError("extremes read")

    max = min


def test_a_dedup_given_a_finite_box_reads_no_extremes(rng):
    points = np.asfortranarray(rng.uniform(-1.0, 1.0, size=(3000, 2)))
    tol = 1e-2
    want = bits(dedup_reference(points, tol))
    # the exact box, and a wider one, number the same cells alike
    for box in (_exact_box(points), (-7.0, 3.0, -1.5, 40.0)):
        assert bits(_dedup(points.view(_NoExtremes), tol, box)) == want
    with pytest.raises(AssertionError, match="extremes read"):
        _dedup(points.view(_NoExtremes), tol, (-1.0, np.inf, -1.0, 1.0))


def test_a_box_whose_cell_numbers_overflow_gives_the_points_cell_range(rng):
    # Near 1.5e298 the points' cell numbers at tol 1e-10 are finite; the
    # box's y end at 3e298 is not, so the dedup reads the points' extremes.
    tol = 1e-10
    points = rng.uniform(-1.5e298, 1.5e298, size=(500, 2))
    points = np.vstack([points, points[:50]])
    box = (*_exact_box(points)[:3], 3e298)
    assert not np.isfinite(box[3] / tol)
    got = _dedup(points, tol, box)
    assert bits(got) == bits(dedup_float_reference(points, tol)) == bits(_dedup(points, tol))
    assert len(got) == 500
    with pytest.raises(ValueError, match=r"^dedup tolerance 1e-11 is too small"):
        _dedup(points, 1e-11, box)


def test_iterate_attractor_memory_peak_on_example2b():
    """The traced peak holds the images and one n-long key and flag array.

    The peak comes in the last generation's dedup of vertex 2. Then both
    vertices' images, 590,216 and 525,692 rows, hold 17.9 MB; vertex 1's
    kept cloud holds 1.6 MB; vertex 2's int64 keys and flags hold 4.7 MB;
    its kept rows, as keys and as the cloud, hold 3.4 MB; the block
    buffers hold 0.4 MB. That is 28.0 MB (28,014,248 bytes traced). A
    dedup that held the float cell numbers and the row numbers n-long
    beside the keys peaked at 36.0 MB (36,031,296 bytes): one stray n-long
    array of vertex 2 adds 4.2 MB. The margin is 2%.
    """
    system = bundled_system("example2b")[1]
    iterate_attractor(system, 12, 1e-3)
    tracemalloc.start()
    try:
        iterate_attractor(system, 12, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28_014_248 * 1.02


def test_directed_hausdorff_matches_brute_force(rng, monkeypatch):
    finished = []
    finish = attractor._finish_brute
    monkeypatch.setattr(attractor, "_finish_brute",
                        lambda *a: finished.append(len(a[-1])) or finish(*a))
    grid = rng.integers(-3, 4, size=(300, 2)) * 0.5  # ties in x, equal distances, duplicates
    line = np.column_stack((np.linspace(-1.0, 1.0, 501), np.full(501, 0.25)))
    column = np.full((20_000, 2), 0.5)
    column[:, 1] = rng.uniform(0.0, 1.0, 20_000)
    column_q = column.copy()
    column_q[:, 1] = rng.uniform(0.0, 1.0, 20_000)
    cases = [
        (grid, grid[::-1]),
        (grid, np.vstack([grid[:50], grid[:50]])),
        (np.array([[0.5, -0.5]]), np.array([[0.5, -0.5]])),
        (np.array([[0.0, 0.0]]), grid),
        (grid, np.array([[0.0, 0.0]])),
        (line, line[::7] + [0.0, 0.125]),
        (line, grid),
        (rng.normal(size=(2000, 2)), rng.normal(size=(3000, 2)) * [1e-3, 1e3]),
        (rng.uniform(size=(2000, 2)), rng.uniform(size=(3000, 2))),
        # The first candidates are far; the next one on the right (left) is nearest.
        (np.array([[0.0, 0.0]]), np.array([[0.0, 10.0], [0.5, 0.0], [20.0, 0.0]])),
        (np.array([[0.0, 0.0]]), np.array([[-20.0, 0.0], [-0.5, 0.0], [-0.1, 10.0], [0.0, 10.0]])),
    ]
    for p, q in cases:
        assert directed_hausdorff(p, q) == directed_hausdorff_reference(p, q)
        assert directed_hausdorff(q, p) == directed_hausdorff_reference(q, p)
    finished.clear()
    # Every point of one vertical line has all of the other in its x-strip.
    # The scan in y order finishes them: only the one probe is finished
    # against all of Q.
    want = directed_hausdorff_on_a_vertical_line(column, column_q)
    assert directed_hausdorff(column, column_q) == want
    assert finished == [1]
    # Points in the gap at the centre of a cross have one arm in their
    # x-strip and the other in their y-strip, so both scans leave them all
    # to the finish against all of Q.
    finished.clear()
    arm = rng.uniform(0.1, 1.0, 5000) * rng.choice((-1.0, 1.0), 5000)
    cross = np.vstack((np.column_stack((np.zeros(5000), arm)),
                       np.column_stack((arm[::-1], np.zeros(5000)))))
    centre = rng.uniform(-0.05, 0.05, size=(200, 2))
    assert directed_hausdorff(centre, cross) == directed_hausdorff_reference(centre, cross)
    assert finished == [200]
    assert_hausdorff_matches_reference(centre, cross)


@pytest.mark.parametrize("name", BUNDLED)
def test_directed_hausdorff_matches_ckdtree_on_bundled_clouds(name):
    spatial = pytest.importorskip("scipy.spatial")
    cfg, system = bundled_system(name)
    family = fixed_point(system, cfg.resolution, cfg.tol, cfg.max_iters).family
    clouds = iterate_attractor(system, cfg.generations, cfg.dedup_tol)
    for cloud, fn in zip(clouds, family):
        graph = fn.as_points()
        for p, q in ((cloud.points, graph), (graph, cloud.points)):
            want = float(np.max(spatial.cKDTree(q).query(p, k=1, p=np.inf)[0]))
            assert directed_hausdorff(p, q) == want


def assert_hausdorff_matches_reference(p, q):
    """Both directions and the symmetric distance both ways, bit for bit."""
    pq = directed_hausdorff_reference(p, q)
    qp = directed_hausdorff_reference(q, p)
    assert directed_hausdorff(p, q).hex() == pq.hex()
    assert directed_hausdorff(q, p).hex() == qp.hex()
    assert hausdorff_distance(p, q).hex() == max(pq, qp).hex()
    assert hausdorff_distance(q, p).hex() == max(pq, qp).hex()


def _clouds_and_curves(name):
    """(system, resolution, generations, dedup tolerance) of one case."""
    if name == "wide":
        return _wide_system(np.random.default_rng(808)), 8, 2, 1e-3
    if name.startswith("two-vertex"):
        datasets, plan = random_two_vertex(np.random.default_rng(int(name[-1])))
        return build_system(datasets, plan), 32, 4, 1e-3
    cfg, system = bundled_system(name)
    return system, cfg.resolution, cfg.generations, cfg.dedup_tol


@functools.lru_cache(maxsize=None)
def _solved(name):
    """(family, clouds) of one case, solved once for every test that reads it."""
    system, resolution, generations, tol = _clouds_and_curves(name)
    return fixed_point(system, resolution).family, iterate_attractor(system, generations, tol)


@pytest.mark.parametrize("name", BUNDLED + ("wide", "two-vertex-1", "two-vertex-2", "two-vertex-3"))
def test_hausdorff_distance_matches_brute_force_on_clouds(name):
    family, clouds = _solved(name)
    for cloud, fn in zip(clouds, family):
        assert_hausdorff_matches_reference(cloud.points, fn.as_points())


def test_hausdorff_maximum_held_by_a_point_that_is_no_probe(monkeypatch):
    # For every decoy on x = 0 the two neighbours in x order are about 100
    # away, and a point 1/128 away waits one step further out. So the
    # decoys have the largest bounds after the first window step and are
    # the probes, and they lift the floor to 1/128. The maximum is held by
    # the last point, one ulp above that floor.
    probed = []
    finish = attractor._finish_brute
    monkeypatch.setattr(attractor, "_finish_brute",
                        lambda *a: probed.append(a[-1].copy()) or finish(*a))
    decoys = np.column_stack((np.zeros(2000), np.linspace(-1 / 256, 1 / 256, 2000)))
    top = np.nextafter(1 / 128, 1.0)
    p = np.vstack((decoys, [[-50.0, top]]))
    q = np.array([[0.0, 100.0], [-1 / 1024, 100.0], [1 / 128, 0.0], [-50.0, 0.0]])
    assert directed_hausdorff(p, q) == top
    assert len(probed[0]) == attractor._PROBES and len(p) - 1 not in probed[0]
    assert_hausdorff_matches_reference(p, q)


def test_probes_cost_no_more_than_the_first_window_step(monkeypatch):
    # A probe costs |Q| + 2 distances, the first window step 2 per point of
    # P, so a small P against a large Q runs no probe at all.
    probed = []
    finish = attractor._finish_brute
    monkeypatch.setattr(attractor, "_finish_brute",
                        lambda *a: probed.append(len(a[-1])) or finish(*a))
    curve = np.column_stack((np.linspace(0.0, 1.0, 300), np.zeros(300)))
    cloud = np.column_stack((np.linspace(0.0, 1.0, 9000), np.sin(np.arange(9000.0))))
    directed_hausdorff(curve, cloud)
    assert probed == []
    directed_hausdorff(cloud, curve)
    assert probed == [2 * 9000 // 302]
    assert_hausdorff_matches_reference(curve, cloud)


def test_hausdorff_adversarial_cases(rng):
    row = np.column_stack((np.arange(1000.0), np.zeros(1000)))
    grid = rng.integers(-3, 4, size=(300, 2)) * 0.5
    cloud = rng.normal(size=(5000, 2))
    cases = [
        (row + [0.0, 0.25], row),  # every point ties at the floor, 0.25
        (cloud, cloud),  # P equals Q
        (grid, grid[::-1]),
        (np.array([[0.5, -0.5]]), cloud),  # one point
        (np.array([[0.5, -0.5]]), np.array([[2.0, 1.0]])),
        (np.repeat(cloud[:700], 3, axis=0), cloud[::-1]),  # duplicates
        (np.repeat(grid, 2, axis=0), np.vstack((grid[:40], grid[:40]))),
    ]
    for p, q in cases:
        assert_hausdorff_matches_reference(p, q)


def _count_argsort(monkeypatch):
    """A list that grows by one at each call of np.argsort from here on."""
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    return calls


def test_hausdorff_on_inputs_already_in_x_order(rng, monkeypatch):
    # Q ascending in x is scanned as given; P ascending in x and longer
    # than Q is located by searching Q into P. Neither may move a bit.
    calls = _count_argsort(monkeypatch)
    nodes = np.linspace(-1.0, 1.0, 41)
    curve = np.column_stack((nodes, np.sin(3 * nodes)))
    # P's abscissas hit every node of Q, most of them three times over.
    on_nodes = np.sort(np.concatenate((np.repeat(nodes, 3), rng.uniform(-1.2, 1.2, 200))))
    cloud = np.column_stack((on_nodes, np.sin(3 * on_nodes) + rng.normal(0.0, 0.05, len(on_nodes))))
    zeros = np.array([[-1.0, 0.5], [-0.0, 0.25], [0.0, -0.25], [-0.0, 0.125], [0.0, 0.75],
                      [0.0, 2.0], [-0.0, -1.0], [0.5, 0.0]])
    signed = np.column_stack((np.repeat([-0.5, -0.0, 0.0, -0.0, 0.0, 0.5], 4),
                              rng.normal(size=24)))
    one = np.array([[0.25, 0.5]])
    cases = [
        (cloud, curve),  # ascending P longer than Q
        (curve, cloud),  # ascending P shorter than Q
        (signed, zeros),  # -0.0 and 0.0 in the scan column, both sides
        (zeros, signed),
        (one, curve),
        (curve, one),
        (one, one),
        (cloud[:1], cloud[-1:]),
    ]
    for p, q in cases:
        assert_hausdorff_matches_reference(p, q)
    # A P whose halves come in the wrong order steps back in x once. It is
    # located point by point: located as if ascending, nearly every point
    # would start half the span away, scan on in y and sort Q by y.
    nodes = np.linspace(-1.0, 1.0, 2001)
    fine = np.column_stack((nodes, np.sin(3 * nodes)))
    x = np.sort(rng.uniform(-1.0, 1.0, 5000))
    halves = np.column_stack((x, np.sin(3 * x) + rng.normal(0.0, 0.01, 5000)))
    halves = np.vstack((halves[2500:], halves[:2500]))
    calls.clear()
    assert directed_hausdorff(halves, fine).hex() == directed_hausdorff_reference(halves, fine).hex()
    assert calls == []
    # One Q given sorted and shuffled; P has too few points to scan in y.
    want = directed_hausdorff_reference(curve, cloud).hex()
    assert directed_hausdorff(curve, cloud).hex() == want
    assert calls == []
    assert directed_hausdorff(curve, rng.permutation(cloud)).hex() == want
    assert calls == [1]


@pytest.mark.parametrize("name", ["example2b", "wide"])
def test_summary_query_sorts_nothing(name, monkeypatch):
    # Every deduplicated cloud and every curve grid is ascending in x, so
    # the summary's query scans both as given. A cloud that lost its x
    # order would be sorted instead, and still measured exactly: only this
    # count shows it.
    family, clouds = _solved(name)
    calls = _count_argsort(monkeypatch)
    for cloud, fn in zip(clouds, family):
        hausdorff_distance(cloud.points, fn.as_points())
    assert calls == []


@pytest.mark.parametrize("spec", [EXACT, {"_WIDTH": 300, "_HEIGHT": 200, "_MARGIN": 7}, {}])
def test_render_pgm_matches_scalar_reference(spec, edge_clouds, tmp_path, monkeypatch):
    _use_canvas(monkeypatch, spec)
    render_pgm(tmp_path / "new.pgm", clouds=edge_clouds)
    render_pgm_reference(tmp_path / "ref.pgm", edge_clouds)
    assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


def test_exact_spec_clamps_to_the_last_row_and_column(edge_clouds, tmp_path, monkeypatch):
    _use_canvas(monkeypatch, EXACT)
    render_pgm(tmp_path / "a.pgm", clouds=edge_clouds[:1])
    img = np.frombuffer((tmp_path / "a.pgm").read_bytes().split(b"\n", 1)[1], dtype=np.uint8)
    img = img.reshape(64, 64)
    assert img[0, 63] == 0  # (64, 64) clamps to column width-1 and lands on row 0
    assert img[63, 0] == 0  # (0, 0) clamps to row height-1


@pytest.fixture(scope="module")
def solved_scenes():
    """The 8 x 40 system and three random two-vertex systems, each drawn
    with its data, its fixed-point family and its attractor clouds."""
    scenes = []
    for name in ("wide", "two-vertex-1", "two-vertex-2", "two-vertex-3"):
        system, resolution, generations, tol = _clouds_and_curves(name)
        scenes.append(dict(datasets=system.datasets,
                           family=fixed_point(system, resolution).family,
                           clouds=iterate_attractor(system, generations, tol)))
    return scenes


@pytest.mark.parametrize("spec", [
    EXACT,
    {"_WIDTH": 640, "_HEIGHT": 160, "_MARGIN": 10,
     "_panel_range": lambda alpha, entry: ((0.0, 4.0), (1.5, 4.5))},
    {},
])
def test_render_svg_matches_scalar_reference(spec, ex2_system, edge_clouds, solved_scenes,
                                             tmp_path, monkeypatch):
    family = fixed_point(ex2_system, 64, 1e-9, 200).family
    datasets = [DataSet(((0.0, 0.0), (64.0, 64.0), (32.0, np.nextafter(64.0, 65.0)), (4.0, 1.5))),
                ex2_system.dataset(2)]
    scenes = [
        dict(datasets=datasets, family=family, clouds=edge_clouds),
        dict(family=family),
        dict(clouds=edge_clouds[1:] + edge_clouds[:1]),
        *solved_scenes,
    ]
    _use_canvas(monkeypatch, spec)
    for k, scene in enumerate(scenes):
        render_svg(tmp_path / f"new{k}.svg", **scene)
        render_svg_reference(tmp_path / f"ref{k}.svg", **scene)
        assert (tmp_path / f"new{k}.svg").read_bytes() == (tmp_path / f"ref{k}.svg").read_bytes()


class _Identity:
    """A panel whose pixel coordinates are the world coordinates."""

    def project(self, x, y):
        return x, y


def assert_dot_paths_match_percent(points):
    """`_dot_paths` against "M%.2f %.2fh0" applied dot by dot."""
    dots = ["M%.2f %.2fh0" % (x, y) for x, y in points.tolist()]
    chunk = render._DOT_CHUNK
    want = ["".join(dots[lo:lo + chunk]) for lo in range(0, len(dots), chunk)]
    assert list(render._dot_paths(*points.T, _Identity())) == want


_EIGHTHS = np.arange(7201) / 8  # [0, 900]: the odd ones are .xx5 ties, exact in binary
# The nearest doubles to the decimal ties x.xx5 in [0, 1000): each lies within
# an ulp of its tie, and for 43,414 of them rint(100 * v) is not the cents
# that `%.2f` prints.
_DECIMAL_TIES = np.arange(1, 200_000, 2) / 200
_SPECIALS = (-0.0, -0.001, -0.004999, 5e-324, 999.994, 999.995, 999.99500002, -999.999, 1000.0,
             1e5, np.nan, np.inf, -np.inf, 0.125, 0.005)


@pytest.mark.parametrize("values", [
    _EIGHTHS, np.nextafter(_EIGHTHS, -1.0), np.nextafter(_EIGHTHS, 1000.0), _DECIMAL_TIES,
    _EIGHTHS[::2], np.nextafter(_EIGHTHS[::2], -1.0), np.nextafter(_EIGHTHS[::2], 1000.0),
], ids=["eighths", "below", "above", "decimal-ties", "quarters", "below-quarters",
        "above-quarters"])
def test_dot_paths_match_percent_near_ties(values):
    # Quarters and their neighbours lie far from ties, so whole chunks of
    # them, positive and negative, take the digit tables.
    for v in (values, -values):
        assert_dot_paths_match_percent(np.column_stack((v, v[::-1])))


@pytest.mark.parametrize("n", [1, 1999, 2000, 2001, 4001])
def test_dot_paths_match_percent_at_chunk_edges(n):
    rng = np.random.default_rng(n)
    plain = rng.uniform(-999.0, 999.0, size=(n, 2))
    assert_dot_paths_match_percent(plain)
    for k, special in enumerate(_SPECIALS):
        for row in sorted({0, min(1999, n - 1), min(2000, n - 1), n - 1}):
            points = plain.copy()
            points[row, k % 2] = special
            assert_dot_paths_match_percent(points)


class _NoRows:
    """A vertex with no points, which export_csv must pass over."""

    def __init__(self, vertex):
        self.vertex = vertex
        self.points = np.empty((0, 2))

    def __len__(self):
        return 0


def test_export_csv_matches_tuple_sort_reference(ex2_system, rng, tmp_path):
    # Signed zeros tie with each other, equal x with different y, repeated
    # rows, and vertices listed out of order.
    a = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [1.0, 3.0], [1.0, -3.0],
                  [1.0, 3.0], [-0.0, -0.0], [0.0, 0.0]])
    b = np.vstack([a[::-1], rng.integers(-3, 3, size=(200, 2)) * 0.5])
    # Infinities anywhere; NaN only where an earlier key decides the order,
    # because NaN compares neither less nor greater in the tuple sort.
    inf, nan = np.inf, np.nan
    c = np.array([[inf, 1.0], [-inf, -0.0], [inf, -inf], [-inf, inf], [2.0, nan],
                  [-0.0, inf], [0.0, -inf], [-2.0, -0.0]])
    cases = [
        dict(clouds=(AttractorCloud(2, b, 0), AttractorCloud(1, a, 0), AttractorCloud(2, a, 0))),
        dict(clouds=(AttractorCloud(1, rng.normal(size=(500, 2)), 3),)),
        dict(clouds=()),
        dict(clouds=(AttractorCloud(3, [[nan, nan]], 0), _NoRows(2), AttractorCloud(1, c, 0))),
        dict(clouds=(AttractorCloud(1, rng.normal(size=(25_000, 2)), 0), _NoRows(2))),
        dict(family=fixed_point(ex2_system, 64, 1e-9, 200).family),
    ]
    for k, case in enumerate(cases):
        export_csv(tmp_path / f"new{k}.csv", **case)
        export_csv_reference(tmp_path / f"ref{k}.csv", **case)
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()


def _signed(rng, values):
    """values with the sign of each flipped at random, so zeros come as 0.0 and -0.0."""
    return np.where(rng.random(len(values)) < 0.5, values, -values)


def test_export_csv_sorts_each_vertex_as_the_tuple_sort_reference(rng, tmp_path):
    # 25,000 rows over about 50 x values: the runs of equal x are about 500
    # rows long, so some straddle the 10,000-row block, and x and y hold
    # both signed zeros, whose rows keep their input order.
    n = 25_000
    x = _signed(rng, rng.integers(-25, 26, n) * 0.5)
    y = _signed(rng, rng.integers(-3, 4, n) * 0.25)
    tied = np.column_stack((x, y))
    assert np.sort(x)[render._CSV_BLOCK - 1] == np.sort(x)[render._CSV_BLOCK]
    inf = np.inf
    infinite = np.array([[inf, 1.0], [-inf, 0.0], [inf, -0.0], [-inf, -0.0], [inf, 0.0],
                         [-inf, -2.0], [0.0, 0.0], [inf, -inf], [-inf, inf], [inf, 1.0]])
    part = [tied[k::3][:40] for k in range(3)]
    wide = _chaos_system("wide")
    cases = [
        dict(clouds=(AttractorCloud(1, tied, 0),)),
        # vertex 2 in three parts, given after vertex 1 and between its parts
        dict(clouds=(AttractorCloud(2, part[2], 0), AttractorCloud(1, part[0], 0),
                     AttractorCloud(2, part[1][::-1], 0), AttractorCloud(2, part[0], 0))),
        dict(clouds=(AttractorCloud(1, infinite, 0), AttractorCloud(2, infinite[::-1], 0))),
        # x ascends, but not strictly
        dict(clouds=(AttractorCloud(1, [[0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, -0.0],
                                        [1.0, 0.0], [2.0, 5.0]], 0),)),
        # a walk's exact ties in x, a few hundred per vertex
        dict(clouds=chaos_game(wide, 20_000, 0, 5)),
    ]
    for k, case in enumerate(cases):
        export_csv(tmp_path / f"new{k}.csv", **case)
        export_csv_reference(tmp_path / f"ref{k}.csv", **case)
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()
    # NaN compares neither less nor greater in the tuple sort, so the
    # three-key sort of the `%` writer says where its rows go: last, in
    # (y, row) order.
    nan = np.nan
    with_nan = np.array([[nan, 1.0], [0.0, 2.0], [nan, -0.0], [-0.0, 1.0], [nan, 0.0],
                         [nan, -1.0], [1.0, 0.0], [0.0, 2.0], [nan, 1.0]])
    assert_export_csv_matches_percent(tmp_path, clouds=(AttractorCloud(1, with_nan, 0),))


def test_a_family_export_keeps_the_grid_order(ex2_system, tmp_path):
    # Every curve grid ascends strictly in x, so the one row order is the
    # identity there and the rows go out as they are.
    family = fixed_point(ex2_system, 64, 1e-9, 200).family
    for fn in family:
        assert np.array_equal(render._row_order(fn.grid, fn.values), np.arange(fn.grid.size))
    export_csv(tmp_path / "new.csv", family=family)
    export_csv_reference(tmp_path / "ref.csv", family=family)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_csv_rows_match_percent(values):
    """`_csv_rows` against "%d,%.17g,%.17g\\n" applied row by row."""
    xy = np.column_stack((values, values[::-1]))
    want = [b"%d,%.17g,%.17g\n" % (1, x, y) for x, y in xy.tolist()]
    got = render._csv_rows(b"1", xy).splitlines(keepends=True)
    assert len(got) == len(want)
    bad = [(x, y, g) for (x, y), g, w in zip(xy.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


_POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
# Exact decimal ties at the 18th significant digit, which `%` rounds half
# to even: j/8 + 1e15 for j = 2 mod 4, j/128 + 1e12 for j = 4 mod 8.
_TIES = np.concatenate(([123456789012345.625], np.arange(-4000, 4000) / 8 + 1e15,
                        np.arange(-4000, 4000) / 128 + 1e12))
_CSV_SPECIALS = np.array([
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1e-4, 9.9999e-5, 1.5e-4, 1e16,
    1e17, 9999.999999999998, 99999999999999984.0, 100.0, 0.5, 1.7976931348623157e308,
    np.nan, np.inf, -np.inf])


def _csv_randoms():
    rng = np.random.default_rng(1712)
    signs = rng.choice((-1.0, 1.0), 20_000)
    return np.concatenate((signs * 10 ** rng.uniform(-7, 19, 20_000),
                           rng.uniform(-10.0, 10.0, 20_000),
                           rng.integers(0, 10**17, 20_000).astype(float),
                           [10.0**k - 1 for k in range(18)], np.arange(2000.0)))


@pytest.mark.parametrize("values", [
    _POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, np.inf), _TIES, _CSV_SPECIALS,
    _csv_randoms(),
], ids=["powers", "below-powers", "above-powers", "ties", "specials", "random"])
def test_csv_rows_match_percent_value_by_value(values):
    for v in (values, -values):
        assert_csv_rows_match_percent(v)


def test_csv_fixed_notation_takes_the_digit_tables():
    # Every value `%g` writes in fixed notation takes the tables, but for
    # a few ulp below a power of ten, where log10 may round up (as it does
    # for 1e15 - 2).
    ties = _TIES[(_TIES < 1e13) | (_TIES >= 1e15)]
    fixed_notation = np.concatenate((ties, [1e-4, 1.5e-4, 0.00012345, 1.5e16, 9.5e16,
                                             99999999999999984.0, 100.0, 1.0]))
    for v in (fixed_notation, -fixed_notation):
        assert render._fixed_fields(v)[1].all()
    other = np.array([9.9999e-5, 1e-5, 1e17, 1.5e17, 0.0, -0.0, 5e-324, np.nan, np.inf])
    assert not render._fixed_fields(other)[1].any()
    rng = np.random.default_rng(7)
    assert render._fixed_fields(rng.uniform(-10.0, 10.0, 10_000))[1].all()


def assert_export_csv_matches_percent(tmp_path, **case):
    export_csv(tmp_path / "new.csv", **case)
    export_csv_percent(tmp_path / "ref.csv", **case)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("name", BUNDLED + ("wide", "two-vertex-1", "two-vertex-2"))
def test_export_csv_matches_percent_writer(name, tmp_path):
    family, clouds = _solved(name)
    assert_export_csv_matches_percent(tmp_path, family=family)
    # At most about 50,000 cloud rows, which bounds the `%` writer's time.
    step = 1 + sum(map(len, clouds)) // 50_000
    clouds = [AttractorCloud(c.vertex, c.points[::step], 0) for c in clouds]
    assert_export_csv_matches_percent(tmp_path, clouds=clouds)


@pytest.mark.parametrize("n", [1, 9999, 10_000, 10_001, 20_001])
def test_export_csv_matches_percent_writer_at_block_edges(n, tmp_path):
    # Sorted x over every notation and sign; odd y values on the rows next
    # to the block edges, and a vertex run that ends inside a block.
    rng = np.random.default_rng(n)
    x = np.sort(rng.choice((-1.0, 1.0), n) * 10 ** rng.uniform(-7, 19, n))
    y = rng.uniform(-5.0, 5.0, n)
    for k, row in enumerate(r for r in (0, 9998, 9999, 10_000, 10_001, n - 1) if r < n):
        y[row] = _CSV_SPECIALS[(3 * k + n) % len(_CSV_SPECIALS)]
    points = np.column_stack((x, y))
    clouds = (AttractorCloud(12345, points[::-1], 0), AttractorCloud(1, points, 0))
    assert_export_csv_matches_percent(tmp_path, clouds=clouds)


def _wide_system(rng):
    # 8 vertices x 40 intervals, every interval far narrower than any span
    datasets = [random_dataset(rng, n_points=41, span=float(rng.uniform(8.0, 12.0)))
                for _ in range(8)]
    plan = WiringPlan.from_pairs([
        [(int(rng.integers(1, 9)), float(rng.uniform(-0.5, 0.5))) for _ in range(40)]
        for _ in range(8)
    ])
    return build_system(datasets, plan)


def _relabel(maps, alpha, i, **fields):
    """`maps` with interval i's map of vertex alpha given other field values."""
    rows = [list(row) for row in maps]
    rows[alpha - 1][i - 1] = rows[alpha - 1][i - 1]._replace(**fields)
    return tuple(map(tuple, rows))


def _malformed(case):
    s = _three_vertex_system()
    two_points = DataSet(((0.0, 0.0), (2.0, -0.5)))
    nan_point = ((0.0, 0.0), (1.0, np.nan), (2.0, -0.5))
    repeated_x = ((0.0, 0.0), (0.0, 1.5), (2.0, -0.5))
    return {
        "no-data-sets": lambda: GifsSystem((), ()),
        "too-few-map-tuples": lambda: GifsSystem(s.datasets, s.maps[:2]),
        "one-map-for-two-intervals": lambda: GifsSystem(
            s.datasets, (*s.maps[:2], s.maps[2][:1])),
        "two-point-data-set": lambda: GifsSystem(
            (*s.datasets[:2], two_points), (*s.maps[:2], s.maps[2][:1])),
        "source-0": lambda: GifsSystem(s.datasets, _relabel(s.maps, 1, 2, source_vertex=0)),
        "source-n-plus-1": lambda: GifsSystem(
            s.datasets, _relabel(s.maps, 3, 1, source_vertex=4)),
        # vertex 2's e = (uS p - u0 q) / du overflows
        "build-e-overflows": lambda: build_system(
            [DataSet(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0))),
             DataSet(((0.0, 0.0), (1e308, 1.5e308), (1.7e308, -1.5e308)))],
            WiringPlan.from_pairs([[(1, 0.5)] * 2, [(2, 0.5)] * 2]), USED_EDGES_MODE),
        # vertex 2's intervals, 1e-323 wide, read vertex 1's span of 3e150
        "build-a-underflows": lambda: build_system(
            [DataSet(((0.0, 0.0), (1e150, 1.0), (2e150, 0.0), (3e150, 1.0))),
             DataSet(((0.0, 0.0), (1e-323, 1.0), (2e-323, 0.0)))],
            WiringPlan.from_pairs([[(1, 0.5)] * 3, [(1, 0.5)] * 2]), USED_EDGES_MODE),
        "direct-e-overflows": lambda: GifsSystem(
            s.datasets, _relabel(s.maps, 2, 3, e=1e308 * 10)),
        "direct-a-underflows": lambda: GifsSystem(
            s.datasets, _relabel(s.maps, 2, 3, a=5e-324 / 2)),
        "replace-e-overflows": lambda: dataclasses.replace(
            s, maps=_relabel(s.maps, 2, 3, e=-1e308 * 10)),
        "replace-a-underflows": lambda: dataclasses.replace(
            s, maps=_relabel(s.maps, 2, 3, a=5e-324 / 2)),
        # a map that does not contract in x
        "direct-a-1": lambda: GifsSystem(s.datasets, _relabel(s.maps, 2, 3, a=1.0)),
        "replace-a-1": lambda: dataclasses.replace(s, maps=_relabel(s.maps, 2, 3, a=1.0)),
        "direct-a-1.5": lambda: GifsSystem(s.datasets, _relabel(s.maps, 2, 3, a=1.5)),
        "replace-a-1.5": lambda: dataclasses.replace(s, maps=_relabel(s.maps, 2, 3, a=1.5)),
        "direct-nan-point": lambda: GifsSystem(_repoint(s, nan_point), s.maps),
        "replace-nan-point": lambda: dataclasses.replace(s, datasets=_repoint(s, nan_point)),
        "direct-repeated-abscissa": lambda: GifsSystem(_repoint(s, repeated_x), s.maps),
        "replace-repeated-abscissa": lambda: dataclasses.replace(
            s, datasets=_repoint(s, repeated_x)),
    }[case]


def _repoint(system, points):
    """`system`'s data sets with vertex 3's points replaced."""
    return (*system.datasets[:2], DataSet(points))


VERTEX_2_FLOAT_RANGE = "^the maps of vertex 2 leave the float range$"


@pytest.mark.parametrize("case, names", [
    ("no-data-sets", "at least one data set"), ("too-few-map-tuples", r"\bvertex 3\b"),
    ("one-map-for-two-intervals", r"\bvertex 3\b"), ("two-point-data-set", r"\bvertex 3\b"),
    ("source-0", r"\bvertex 1\b"), ("source-n-plus-1", r"\bvertex 3\b"),
    ("build-e-overflows", VERTEX_2_FLOAT_RANGE), ("build-a-underflows", VERTEX_2_FLOAT_RANGE),
    ("direct-e-overflows", VERTEX_2_FLOAT_RANGE), ("direct-a-underflows", VERTEX_2_FLOAT_RANGE),
    ("replace-e-overflows", VERTEX_2_FLOAT_RANGE), ("replace-a-underflows", VERTEX_2_FLOAT_RANGE),
    *((f"{how}-a-{a}", f"^interval 3 of vertex 2 has a = {a}, must be < 1$")
      for how in ("direct", "replace") for a in ("1", "1.5")),
    *((f"{how}-nan-point", "^point 1 of data set 3 has a non-finite coordinate$")
      for how in ("direct", "replace")),
    *((f"{how}-repeated-abscissa",
       "^abscissas of data set 3 are not strictly increasing at index 1$")
      for how in ("direct", "replace")),
])
def test_a_malformed_system_is_refused_where_it_is_made(case, names):
    # Each message names the offending vertex, when the system has one.
    build = _malformed(case)
    with pytest.raises(ValueError, match=names):
        build()


@pytest.mark.parametrize("d", [np.nan, 1.0, -1.0, 1.5])
@pytest.mark.parametrize("how", ["direct", "replace"])
def test_a_vertical_factor_of_one_or_more_is_refused_where_the_system_is_made(how, d):
    # The words of validate's wiring/factor rule. A NaN d would hide from
    # `r`, since max skips the NaN that abs returns.
    s = _three_vertex_system()
    maps = _relabel(s.maps, 2, 3, d=d)
    with pytest.raises(ValueError, match=rf"^interval 3 of vertex 2 has \|d\| = {abs(d):g}, "
                                         r"must be < 1$"):
        GifsSystem(s.datasets, maps) if how == "direct" else dataclasses.replace(s, maps=maps)


# Vertex 3's points, and its maps' (source, d) pairs, breaking one
# per-vertex rule each.
VERTEX_3_POINTS = ((0.0, 0.0), (1.0, 1.5), (2.0, -0.5))


@pytest.mark.parametrize("code, points, wiring", [
    ("points/count", ((0.0, 0.0), (2.0, -0.5)), [(1, 0.5)]),
    ("points/finite", ((0.0, 0.0), (1.0, np.inf), (2.0, -0.5)), [(1, 0.5), (2, -0.3)]),
    ("points/order", ((0.0, 0.0), (2.0, 1.5), (1.0, -0.5)), [(1, 0.5), (2, -0.3)]),
    ("wiring/length", VERTEX_3_POINTS, [(1, 0.5)]),
    ("wiring/source", VERTEX_3_POINTS, [(1, 0.5), (4, -0.3)]),
    ("wiring/factor", VERTEX_3_POINTS, [(1, 0.5), (2, -1.0)]),
])
def test_the_constructor_raises_the_first_violation_validate_reports(code, points, wiring):
    s = _three_vertex_system()
    datasets = _repoint(s, points)
    row = tuple(s.maps[2][0]._replace(source_vertex=source, d=d) for source, d in wiring)
    maps = (*s.maps[:2], row)
    plan = WiringPlan.from_pairs([[(m.source_vertex, m.d) for m in r] for r in maps])
    first = validate(datasets, plan).violations[0]
    assert first.code == code
    with pytest.raises(ValueError) as exc:
        GifsSystem(datasets, maps)
    assert str(exc.value) == first.message


def test_a_malformed_system_is_refused_under_python_O():
    # The checks raise, so `python -O`, which strips asserts, keeps them.
    code = (
        "import sys\n"
        "from gdfif import DataSet, GifsSystem, WiringPlan, build_system\n"
        "s = build_system([DataSet(((0, 0), (1, 1), (2, 0)))],\n"
        "                 WiringPlan.from_pairs([[(1, 0.5), (1, 0.5)]]))\n"
        "try:\n"
        "    GifsSystem(s.datasets, (s.maps[0][:1],))\n"
        "except ValueError as exc:\n"
        "    print(__debug__, exc)\n"
        "try:\n"
        "    GifsSystem((DataSet(((0, 0), (0, 1), (2, 0))),), s.maps)\n"
        "except ValueError as exc:\n"
        "    print(__debug__, exc, file=sys.stderr)\n"
        "try:\n"
        "    GifsSystem(s.datasets, ((s.maps[0][0]._replace(f=0.5), s.maps[0][1]),))\n"
        "except ValueError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    src = str(Path(gdfif.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert done.stdout == ("False vertex 1 has 1 maps for 2 intervals\n"
                           "False interval 1 of vertex 1 lands 5.000e-01 off its left knot in y, "
                           "past the tolerance 2.000e-06\n")
    assert done.stderr == "False abscissas of data set 1 are not strictly increasing at index 1\n"


def _chaos_system(name):
    if name == "wide":
        return _wide_system(np.random.default_rng(808))
    if name == "three-vertex":
        return _three_vertex_system()
    return bundled_system(name)[1]


def assert_same_chaos(system, total_points, burn_in, seed):
    got = chaos_game(system, total_points, burn_in, seed)
    want = chaos_game_reference(system, total_points, burn_in, seed)
    assert len(got) == len(want) == system.n
    for g, w in zip(got, want):
        assert (g.vertex, g.generation) == (w.vertex, w.generation)
        assert g.points.tobytes() == w.points.tobytes()
        assert not g.points.flags.writeable


@pytest.mark.parametrize("name", BUNDLED + ("wide", "three-vertex"))
def test_chaos_game_matches_loop_reference(name):
    system = _chaos_system(name)
    for seed in (0, 7, 2024):
        assert_same_chaos(system, 3001, 0, seed)
        assert_same_chaos(system, 3001, 25, seed)
    # The largest burn-in a one-vertex system allows keeps one point.
    if system.n == 1:
        assert_same_chaos(system, 500, 499, 3)


@pytest.mark.parametrize("steps", [attractor._WALK_BLOCK + 1, 2 * attractor._WALK_BLOCK + 1])
@pytest.mark.parametrize("name", ["wide", "three-vertex"])
def test_chaos_game_matches_loop_reference_across_walk_blocks(name, steps):
    # The walk fills its points a block at a time, carrying each vertex's
    # current point over the seams.
    system = _chaos_system(name)
    for burn_in in (0, 25):
        assert_same_chaos(system, steps, burn_in, 11)


def draws_reference(seed, n, counts, steps):
    rng = np.random.default_rng(seed)
    offsets = [sum(counts[:v]) for v in range(n)]
    vertex, index = [], []
    for _ in range(steps):
        v = int(rng.integers(1, n + 1)) - 1
        vertex.append(v)
        index.append(offsets[v] + int(rng.integers(0, counts[v])))
    return vertex, index


@pytest.mark.parametrize("n, counts", [
    (1, [2**31 + 1]), (2, [3, 2**31 + 1]), (3, [3 * 2**30, 2, 2**32 - 1]), (3, [2, 3, 4]),
])
def test_draws_match_scalar_integers(n, counts):
    # Span 2**31 + 1 rejects about half its words and 3 * 2**30 a quarter,
    # so the drawn vertices disagree with the first guess many times over.
    for seed in (0, 5, 11):
        vertex, index = _draws(seed, n, counts, 400)
        assert (vertex.tolist(), index.tolist()) == draws_reference(seed, n, counts, 400)


@pytest.mark.parametrize("args", [(1000, -1), (100, 100), (100, 200), (4, 3)])
def test_chaos_game_errors_match_loop_reference(args):
    system = _wide_system(np.random.default_rng(808))
    with pytest.raises(ValueError) as want:
        chaos_game_reference(system, *args, seed=1)
    with pytest.raises(ValueError) as got:
        chaos_game(system, *args, seed=1)
    assert str(got.value) == str(want.value)


def apply_map_reference(m, point):
    x, y = point
    return (m.a * x + m.e, m.c * x + m.d * y + m.f)


def endpoint_residuals_reference(system):
    worst = 0.0
    for alpha in range(1, system.n + 1):
        target = system.dataset(alpha)
        for i, m in enumerate(system.maps_for(alpha), start=1):
            source = system.dataset(m.source_vertex)
            for src_pt, want in (
                (source.first, target.points[i - 1]),
                (source.last, target.points[i]),
            ):
                gx, gy = apply_map_reference(m, src_pt)
                worst = max(worst, abs(gx - want[0]), abs(gy - want[1]))
    return worst


def test_endpoint_residuals_match_scalar_reference(rng):
    systems = [bundled_system(name)[1] for name in BUNDLED]
    systems += [_wide_system(np.random.default_rng(808)), _three_vertex_system()]
    systems += [_wide_system(rng) for _ in range(5)]
    worst = [endpoint_residuals(system) for system in systems]
    assert worst == [endpoint_residuals_reference(system) for system in systems]
    # Most endpoints miss by round-off, so the maximum itself is compared.
    assert sum(w > 0 for w in worst) > len(systems) // 2


def test_apply_map_matches_the_scalar_formula(rng):
    system = _wide_system(np.random.default_rng(808))
    maps = [m for row in system.maps for m in row]
    points = [(0.0, -0.0), (1.5, 2), (np.inf, 1.0), (-3e300, 7e-310)]
    points += [tuple(p) for p in rng.normal(scale=10.0, size=(40, 2))]
    for m in maps[::7]:
        for point in points:
            got = apply_map(m, point)
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(apply_map_reference(m, point)).tobytes()


def evaluate_exact_reference(system, alpha, x, depth):
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not 1 <= alpha <= system.n:
        raise ValueError(f"vertex {alpha} is outside 1..{system.n}")
    ds = system.dataset(alpha)
    x = float(x)
    if not ds.xs[0] <= x <= ds.xs[-1]:
        raise ValueError(
            f"x = {x:g} is outside [{ds.xs[0]:g}, {ds.xs[-1]:g}] for vertex {alpha}"
        )
    chain = []
    for _ in range(depth):
        points = system.dataset(alpha).points
        i = bisect_left(points, x, key=itemgetter(0))
        if points[i][0] == x:
            value = points[i][1]
            break
        m = system.maps_for(alpha)[i - 1]
        source = system.dataset(m.source_vertex)
        t = (x - m.e) / m.a
        # round-off can push the pullback a few ulp past the source domain
        t = min(max(t, source.first[0]), source.last[0])
        chain.append((m, t))
        alpha, x = m.source_vertex, t
    else:
        value = _chord_value_reference(system.dataset(alpha), x)
    for m, t in reversed(chain):
        value = m.c * t + m.d * value + m.f
    return value


def _chord_value_reference(ds, x):
    (x0, F0), (xN, FN) = ds.first, ds.last
    return F0 + (x - x0) * (FN - F0) / (xN - x0)


def _exact_system(name):
    if name == "wide":
        return _wide_system(np.random.default_rng(808))
    if name == "narrow":
        return random_narrow_system(np.random.default_rng(31))
    return bundled_system(name)[1]


def assert_same_exact(system, rng, depths=(1, 30, 60)):
    """evaluate_exact equals its reference bit for bit at every knot, each
    knot's neighbouring doubles inside the domain, and random abscissas."""
    for alpha in range(1, system.n + 1):
        xs = system.dataset(alpha).xs
        lo, hi = float(xs[0]), float(xs[-1])
        queries = [*xs.tolist(), *np.nextafter(xs, -np.inf)[1:].tolist(),
                   *np.nextafter(xs, np.inf)[:-1].tolist(), *rng.uniform(lo, hi, 40).tolist()]
        queries += [xs[0], 0]  # NumPy and int inputs; every domain here starts at 0
        for depth in depths:
            got = [evaluate_exact(system, alpha, x, depth) for x in queries]
            want = [evaluate_exact_reference(system, alpha, x, depth) for x in queries]
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", BUNDLED + ("wide", "narrow"))
def test_evaluate_exact_matches_pullback_reference(name):
    assert_same_exact(_exact_system(name), np.random.default_rng(4242))


@pytest.mark.parametrize("seed, alpha, x", [
    (2, 2, 0.8171729244784234), (11, 1, 0.08980988886058743), (11, 1, 0.6590612039882996),
])
def test_evaluate_exact_clamps_pullbacks_as_the_reference_does(seed, alpha, x):
    # Found by search: a pullback down each chain rounds past its source
    # domain and is clamped back onto it.
    system = random_narrow_system(np.random.default_rng(seed))
    for depth in (30, 60):
        got = evaluate_exact(system, alpha, x, depth)
        assert np.float64(got).tobytes() == np.float64(
            evaluate_exact_reference(system, alpha, x, depth)).tobytes()


def test_evaluate_exact_clamps_a_pullback_below_its_source_domain():
    # Data away from 0: one ulp above interval 2's left knot, the pullback
    # rounds below its source's first abscissa and is clamped up onto it.
    rng = np.random.default_rng(0)
    datasets = [random_dataset(rng, span=float(rng.uniform(1, 3)), x0=float(rng.uniform(-55, 55)))
                for _ in range(2)]
    plan = WiringPlan.from_pairs([[(int(rng.integers(1, 3)), float(rng.uniform(-0.9, 0.9)))
                                   for _ in range(ds.n_intervals)] for ds in datasets])
    system = build_system(datasets, plan, USED_EDGES_MODE)
    x = float(np.nextafter(system.dataset(1).xs[1], np.inf))
    m = system.maps_for(1)[1]
    assert (x - m.e) / m.a < system.dataset(m.source_vertex).first[0]
    for depth in (1, 30):
        got = evaluate_exact(system, 1, x, depth)
        assert np.float64(got).tobytes() == np.float64(
            evaluate_exact_reference(system, 1, x, depth)).tobytes()


@pytest.mark.parametrize("args", [
    (1, 5.0, 0), (0, 5.0, 10), (3, 5.0, 10), (1, -0.1, 10), (1, 10.1, 10),
    (1, float("nan"), 10), (1, float("inf"), 10),
])
def test_evaluate_exact_errors_match_pullback_reference(ex1_system, args):
    with pytest.raises(ValueError) as want:
        evaluate_exact_reference(ex1_system, *args)
    with pytest.raises(ValueError) as got:
        evaluate_exact(ex1_system, *args)
    assert str(got.value) == str(want.value)


def test_a_directly_built_system_builds_its_map_table_once_on_first_use(rng):
    built = _three_vertex_system()
    system = GifsSystem(built.datasets, built.maps)
    assert [f.name for f in dataclasses.fields(system)] == ["datasets", "maps"]
    assert system.r == built.r == 0.6
    assert "table" not in vars(system)
    table = system.table
    assert system.table is table
    assert len(table) == system.n + 1 and table[0] is None
    for alpha in range(1, system.n + 1):
        xs, fs, maps, lo, hi = table[alpha]
        ds = system.dataset(alpha)
        assert (xs, fs) == (ds.xs.tolist(), ds.fs.tolist())
        assert maps is system.maps_for(alpha)
        assert (lo, hi) == (ds.first[0], ds.last[0])
    assert [len(maps) for _, _, maps, _, _ in table[1:]] == [5, 4, 2]
    assert_same_exact(system, rng)
    assert_same_chaos(system, 3001, 25, 7)
    assert system.table is table

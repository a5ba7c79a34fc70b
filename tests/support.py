"""Shared helpers: independent oracles and random input generators.

The single-curve construction here is written from scratch (textbook
whole-span formulas and a plain numpy sweep loop) so the package's
system builder and solver can be checked against code that shares none
of their internals.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gdfif import (
    DataSet,
    FunctionFamily,
    IntervalAssignment,
    SampledFunction,
    WiringPlan,
    build_system,
    standard_grid,
)


def classic_coefficients(points, scales):
    """Affine coefficients of the classic single-curve construction.

    Every interval pulls from the whole data span [x_0, x_N]. Returns one
    (a, c, d, e, f) tuple per interval.
    """
    pts = [(float(x), float(y)) for x, y in points]
    x0, f0 = pts[0]
    xn, fn = pts[-1]
    span = xn - x0
    out = []
    for i in range(1, len(pts)):
        (xl, yl), (xr, yr) = pts[i - 1], pts[i]
        d = float(scales[i - 1])
        a = (xr - xl) / span
        e = (xn * xl - x0 * xr) / span
        c = (yr - yl) / span - d * (fn - f0) / span
        f = (xn * yl - x0 * yr) / span - d * (xn * f0 - x0 * fn) / span
        out.append((a, c, d, e, f))
    return out


def classic_fixed_point(points, scales, resolution=128, sweeps=600):
    """Dense piecewise-linear fixed point of the single-curve operator.

    Returns (grid, values). Iterates from the endpoint chord until the
    sweep-to-sweep change drops under 1e-13 (or `sweeps` runs out, which
    for |d| < 0.95 is far beyond convergence).
    """
    coeffs = classic_coefficients(points, scales)
    xs = np.array([p[0] for p in points], dtype=float)
    fs = np.array([p[1] for p in points], dtype=float)
    blocks = [np.linspace(xs[i], xs[i + 1], resolution) for i in range(xs.size - 1)]
    grid = np.concatenate([blocks[0]] + [b[1:] for b in blocks[1:]])
    vals = np.interp(grid, [xs[0], xs[-1]], [fs[0], fs[-1]])
    for _ in range(sweeps):
        nxt = np.empty_like(vals)
        pos = 0
        for i, (a, c, d, e, f) in enumerate(coeffs):
            t = (blocks[i] - e) / a
            block_vals = c * t + d * np.interp(t, grid, vals) + f
            if i == 0:
                nxt[: block_vals.size] = block_vals
                pos = block_vals.size
            else:
                nxt[pos : pos + block_vals.size - 1] = block_vals[1:]
                pos += block_vals.size - 1
        moved = float(np.max(np.abs(nxt - vals)))
        vals = nxt
        if moved < 1e-13:
            break
    return grid, vals


def pl_sup(grid_a, vals_a, grid_b, vals_b):
    """Sup distance of two piecewise-linear functions, via their union grid."""
    xs = np.union1d(np.asarray(grid_a), np.asarray(grid_b))
    return float(np.max(np.abs(
        np.interp(xs, grid_a, vals_a) - np.interp(xs, grid_b, vals_b)
    )))


def random_dataset(rng, n_points=None, span=1.0, x0=0.0, y_range=(-2.0, 3.0)):
    """Random data set with strictly increasing abscissas over exactly `span`.

    Gap lengths are drawn from [0.4, 1.6] before normalization, so no gap
    degenerates and no single interval swallows the span.
    """
    if n_points is None:
        n_points = int(rng.integers(3, 9))
    gaps = rng.uniform(0.4, 1.6, n_points - 1)
    xs = x0 + np.concatenate(([0.0], np.cumsum(gaps))) * (span / gaps.sum())
    ys = rng.uniform(y_range[0], y_range[1], n_points)
    return DataSet(tuple(zip(xs.tolist(), ys.tolist())))


def random_two_vertex(rng, d_range=(-0.9, 0.9)):
    """Random valid two-vertex system input: (datasets, plan).

    Spans vary in [0.8, 1.25]; a draw is rejected until every interval of
    either data set is narrower than both spans, which is the strict-mode
    width condition.
    """
    while True:
        dsets = [
            random_dataset(rng, span=float(rng.uniform(0.8, 1.25)))
            for _ in range(2)
        ]
        narrowest_span = min(ds.span for ds in dsets)
        if all(float(np.diff(ds.xs).max()) < narrowest_span for ds in dsets):
            break
    rows = []
    for ds in dsets:
        rows.append(tuple(
            IntervalAssignment(int(rng.integers(1, 3)), float(rng.uniform(*d_range)))
            for _ in range(ds.n_intervals)
        ))
    return dsets, WiringPlan(tuple(rows))


def random_narrow_system(rng):
    """Random valid system of 3 vertices x 30 intervals, each |d| = 0.5.

    Every pullback stretches round-off about 30-fold.
    """
    datasets = [random_dataset(rng, n_points=31, span=float(rng.uniform(0.8, 1.25)))
                for _ in range(3)]
    plan = WiringPlan.from_pairs([
        [(int(rng.integers(1, 4)), float(rng.choice((-0.5, 0.5)))) for _ in range(30)]
        for _ in range(3)
    ])
    return build_system(datasets, plan)


def random_admissible_family(system, resolution, rng, amplitude=4.0):
    """Random member of the solution space: arbitrary interior values, pinned ends."""
    fns = []
    for alpha in range(1, system.n + 1):
        ds = system.dataset(alpha)
        grid = standard_grid(ds, resolution)
        vals = rng.uniform(-amplitude, amplitude, grid.size)
        vals[0] = ds.fs[0]
        vals[-1] = ds.fs[-1]
        fns.append(SampledFunction(alpha, grid, vals))
    return FunctionFamily(tuple(fns))


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def strict_finite_json(text: str):
    """The one JSON value in `text`, with no NaN or Infinity, and every number finite."""
    value = json.loads(text, parse_constant=_reject)

    def walk(v):
        if isinstance(v, dict):
            for item in v.values():
                walk(item)
        elif isinstance(v, list):
            for item in v:
                walk(item)
        elif isinstance(v, float):
            assert math.isfinite(v), text
    walk(value)
    return value


def export_csv_percent(path, family=None, clouds=None):
    """`render.export_csv` as it was before the digit tables: Python's `%`
    formats every row, 10,000 rows per call. Its bytes are the contract.
    """
    if family is not None:
        parts = [(np.full(fn.grid.size, fn.vertex), fn.grid, fn.values) for fn in family]
    else:
        parts = [(np.full(len(c), c.vertex), c.points[:, 0], c.points[:, 1]) for c in clouds]
    vertex, x, y = (np.concatenate(col) for col in zip(*parts)) if parts else (np.empty(0),) * 3
    order = np.lexsort((y, x, vertex))
    flat = [None] * (3 * len(order))
    flat[0::3] = vertex[order].tolist()
    flat[1::3] = x[order].tolist()
    flat[2::3] = y[order].tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write("vertex,x,y\n")
        for lo in range(0, len(order), 10_000):
            hi = min(lo + 10_000, len(order))
            fh.write("%d,%.17g,%.17g\n" * (hi - lo) % tuple(flat[3 * lo:3 * hi]))

"""Deterministic exporters: CSV samples, SVG plots, and PGM rasters.

All output is a pure function of the input values, with fixed float
formatting and fixed element order, so writing the same scene twice gives
byte-identical files. Worlds are drawn one panel per vertex, side by side;
the vertical flip between world and pixel coordinates happens only here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

PALETTE = ("#1f6fb4", "#c23b22", "#2c8c4b", "#8a56a5", "#b8860b", "#3aa0a0")


@dataclass(frozen=True)
class PlotSpec:
    """Canvas geometry and styling shared by the SVG and PGM renderers.

    Explicit axis ranges apply to every panel and clip content outside them;
    otherwise each panel gets a snug range around its own content.
    """

    width: int = 900
    height: int = 600
    margin: int = 40
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None
    point_radius: float = 3.0
    colors: tuple[str, ...] = PALETTE

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if 2 * self.margin >= self.width or 2 * self.margin >= self.height:
            raise ValueError("margins leave no drawing area")
        if self.point_radius <= 0:
            raise ValueError("point_radius must be positive")
        for rng in (self.x_range, self.y_range):
            if rng is not None and not rng[1] > rng[0]:
                raise ValueError(f"axis range {rng} is empty")

    def color(self, alpha: int) -> str:
        return self.colors[(alpha - 1) % len(self.colors)]


# Rows formatted by one `%` call each time.
_CSV_BLOCK = 10_000
# Cloud dots per SVG path element, which keeps the lines a sane length.
_DOT_CHUNK = 2000


def export_csv(path, family=None, clouds=None) -> None:
    """Write `vertex,x,y` rows with 17 significant digits, sorted by (vertex, x, y).

    Exactly one of `family` (curve samples) or `clouds` (attractor points)
    must be given. 17 significant digits round-trip every float exactly.
    """
    if (family is None) == (clouds is None):
        raise ValueError("pass exactly one of family or clouds")
    if family is not None:
        parts = [(np.full(fn.grid.size, fn.vertex), fn.grid, fn.values) for fn in family]
    else:
        parts = [(np.full(len(c), c.vertex), c.points[:, 0], c.points[:, 1]) for c in clouds]
    vertex, x, y = (np.concatenate(col) for col in zip(*parts)) if parts else (np.empty(0),) * 3
    # Stable, and -0.0 ties with 0.0, exactly as sorting (vertex, x, y) tuples does.
    order = np.lexsort((y, x, vertex))
    flat = [None] * (3 * len(order))
    flat[0::3] = vertex[order].tolist()
    flat[1::3] = x[order].tolist()
    flat[2::3] = y[order].tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write("vertex,x,y\n")
        for lo in range(0, len(order), _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, len(order))
            fh.write("%d,%.17g,%.17g\n" * (hi - lo) % tuple(flat[3 * lo:3 * hi]))


def _content_by_vertex(datasets, family, clouds):
    """Collect drawable content per vertex: (data points, curve, cloud points)."""
    content: dict[int, dict] = {}

    def slot(alpha):
        return content.setdefault(alpha, {"data": None, "curve": None, "cloud": None})

    if datasets is not None:
        for alpha, ds in enumerate(datasets, start=1):
            slot(alpha)["data"] = np.array(ds.points)
    if family is not None:
        for fn in family:
            slot(fn.vertex)["curve"] = (fn.grid, fn.values)
    if clouds is not None:
        for cloud in clouds:
            slot(cloud.vertex)["cloud"] = cloud.points
    if not content:
        raise ValueError("nothing to draw")
    return dict(sorted(content.items()))


def _panel_range(entry, spec: PlotSpec):
    """World ranges for one panel: explicit spec ranges win, else snug + pad."""
    xs, ys = [], []
    for key in ("data", "cloud"):
        if entry[key] is not None:
            xs.append(entry[key][:, 0])
            ys.append(entry[key][:, 1])
    if entry["curve"] is not None:
        xs.append(entry["curve"][0])
        ys.append(entry["curve"][1])
    all_x = np.concatenate(xs)
    all_y = np.concatenate(ys)
    x_range = spec.x_range or _padded(float(all_x.min()), float(all_x.max()))
    y_range = spec.y_range or _padded(float(all_y.min()), float(all_y.max()))
    return x_range, y_range


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        pad = 0.04 * (hi - lo)
    else:
        pad = 0.5
        if lo - pad == hi + pad:  # past 2**53 a half no longer widens the range
            pad = 0.04 * abs(lo)
    # near the float range the pad would take an end to an infinity
    big = sys.float_info.max
    return (max(lo - pad, -big), min(hi + pad, big))


class _Panel:
    """World-to-pixel transform for one vertex's drawing area."""

    def __init__(self, px0, py0, pw, ph, x_range, y_range):
        self.px0, self.py0, self.pw, self.ph = px0, py0, pw, ph
        self.x_range, self.y_range = x_range, y_range

    def project(self, points):
        """Clip a (k, 2) array to the closed axis ranges, then map it to pixels.

        Returns the indices of the kept rows and their pixel x and y arrays.
        """
        (x0, x1), (y0, y1) = self.x_range, self.y_range
        x, y = points[:, 0], points[:, 1]
        kept = np.flatnonzero((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
        return (kept, self.px0 + _fraction(x[kept], x0, x1) * self.pw,
                self.py0 + (1.0 - _fraction(y[kept], y0, y1)) * self.ph)


def _fraction(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(v - lo) / (hi - lo), all halved first where hi - lo overflows."""
    if hi - lo > sys.float_info.max:
        v, lo, hi = v * 0.5, lo * 0.5, hi * 0.5
    return (v - lo) / (hi - lo)


def _layout(content, spec: PlotSpec):
    n = len(content)
    pw = (spec.width - spec.margin * (n + 1)) / n
    ph = spec.height - 2 * spec.margin
    if pw <= 0 or ph <= 0:
        raise ValueError("canvas too small for the requested panel count")
    panels = {}
    for k, (alpha, entry) in enumerate(content.items()):
        px0 = spec.margin + k * (pw + spec.margin)
        x_range, y_range = _panel_range(entry, spec)
        panels[alpha] = _Panel(px0, spec.margin, pw, ph, x_range, y_range)
    return panels


def render_svg(path, spec: PlotSpec = PlotSpec(), datasets=None, family=None, clouds=None) -> None:
    """Write an SVG scene: curves as polylines, clouds as round dots, data
    points as open circles of class "knot". At least one of the three inputs
    must be given; content outside explicit axis ranges is clipped away.
    """
    content = _content_by_vertex(datasets, family, clouds)
    panels = _layout(content, spec)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
    ]
    for alpha, entry in content.items():
        panel = panels[alpha]
        color = spec.color(alpha)
        parts.append(
            f'<rect x="{panel.px0:.3f}" y="{panel.py0:.3f}" width="{panel.pw:.3f}" '
            f'height="{panel.ph:.3f}" fill="none" stroke="#cccccc"/>'
        )
        if entry["cloud"] is not None:
            for chunk in _dot_paths(entry["cloud"], panel):
                parts.append(
                    f'<path d="{chunk}" stroke="{color}" stroke-opacity="0.55" '
                    f'stroke-width="{spec.point_radius * 0.6:.3f}" '
                    f'stroke-linecap="round" fill="none"/>'
                )
        if entry["curve"] is not None:
            for run in _polyline_runs(entry["curve"], panel):
                parts.append(
                    f'<polyline points="{run}" fill="none" stroke="{color}" '
                    f'stroke-width="1.4"/>'
                )
        if entry["data"] is not None:
            _, pxs, pys = panel.project(entry["data"])
            for px, py in zip(pxs.tolist(), pys.tolist()):
                parts.append(
                    f'<circle class="knot" cx="{px:.3f}" cy="{py:.3f}" '
                    f'r="{spec.point_radius:.3f}" fill="none" stroke="#222222" '
                    f'stroke-width="1.2"/>'
                )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _dot_paths(points, panel):
    """Cloud dots as zero-length path segments, `_DOT_CHUNK` per path."""
    _, px, py = panel.project(points)
    flat = np.column_stack((px, py)).ravel().tolist()
    for lo in range(0, len(px), _DOT_CHUNK):
        hi = min(lo + _DOT_CHUNK, len(px))
        yield "M%.2f %.2fh0" * (hi - lo) % tuple(flat[2 * lo:2 * hi])


def _polyline_runs(curve, panel):
    """Curve samples as runs of consecutive in-range points."""
    kept, px, py = panel.project(np.column_stack(curve))
    coords = list(map("{:.3f},{:.3f}".format, px.tolist(), py.tolist()))
    breaks = (np.flatnonzero(np.diff(kept) > 1) + 1).tolist()
    for lo, hi in zip([0, *breaks], [*breaks, len(coords)]):
        if hi > lo:
            yield " ".join(coords[lo:hi])


def render_pgm(path, spec: PlotSpec = PlotSpec(), clouds=None) -> None:
    """Write a binary 8-bit grayscale raster of the clouds.

    White background, one black pixel per point, same panel layout as the
    SVG renderer. Points outside explicit axis ranges are clipped.
    """
    if not clouds:
        raise ValueError("nothing to draw")
    content = _content_by_vertex(None, None, clouds)
    panels = _layout(content, spec)
    img = np.full((spec.height, spec.width), 255, dtype=np.uint8)
    for alpha, entry in content.items():
        _, px, py = panels[alpha].project(entry["cloud"])
        # np.rint rounds half to even, as Python's round does.
        cols = np.clip(np.rint(px), 0, spec.width - 1).astype(np.intp)
        rows = np.clip(np.rint(py), 0, spec.height - 1).astype(np.intp)
        img[rows, cols] = 0
    with open(path, "wb") as fh:
        fh.write(f"P5 {spec.width} {spec.height} 255\n".encode("ascii"))
        fh.write(img.tobytes())

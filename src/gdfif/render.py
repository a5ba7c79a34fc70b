"""Deterministic exporters: CSV samples, SVG plots, and PGM rasters.

All output is a pure function of the input values, with fixed float
formatting and fixed element order, so writing the same scene twice gives
byte-identical files. Worlds are drawn on one 900 x 600 canvas, one panel
per vertex, side by side; the vertical flip between world and pixel
coordinates happens only here.
"""

from __future__ import annotations

import sys

import numpy as np

PALETTE = ("#1f6fb4", "#c23b22", "#2c8c4b", "#8a56a5", "#b8860b", "#3aa0a0")

# Rows formatted by one `%` call each time.
_CSV_BLOCK = 10_000
# Cloud dots per SVG path element, which keeps the lines a sane length.
_DOT_CHUNK = 2000
# The one canvas both renderers draw, in pixels.
_WIDTH, _HEIGHT, _MARGIN = 900, 600, 40
_POINT_RADIUS = 3.0


def _word_table(texts) -> np.ndarray:
    """Four-byte ASCII texts as native uint32 words, which `tobytes` writes back."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint32)


# The digit tables of `_dot_paths`. A dot is five words: "M" and the sign of
# x, the whole part of x and its ".", the cents of x, " " and the sign of y,
# the whole part of y, the cents of y and "h0"; or, for a dot that `%` must
# format, its template. NUL bytes pad them and are deleted from each path.
_LEAD = _word_table(["M\0\0\0", "M-\0\0"])
_WHOLE = _word_table([("%3d." % k).replace(" ", "\0") for k in range(1000)])
_MID = _word_table(["%02d %s" % (k, sign) for sign in "\0-" for k in range(100)])
_TAIL = _word_table(["%02dh0" % k for k in range(100)])
_PERCENT = _word_table(["M%.2f %.2fh0" + "\0" * 8])


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


def _panel_range(alpha, entry):
    """Snug, padded world ranges around all of one panel's content.

    Raises ValueError when a coordinate is not finite.
    """
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
    bounds = all_x.min(), all_x.max(), all_y.min(), all_y.max()
    if not np.isfinite(bounds).all():
        raise ValueError(f"vertex {alpha}: cannot draw a coordinate that is not finite")
    x_lo, x_hi, y_lo, y_hi = map(float, bounds)
    return _padded(x_lo, x_hi), _padded(y_lo, y_hi)


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

    def project(self, x, y):
        """Pixel x and y arrays of the world coordinate arrays x and y."""
        (x0, x1), (y0, y1) = self.x_range, self.y_range
        return (self.px0 + _fraction(x, x0, x1) * self.pw,
                self.py0 + (1.0 - _fraction(y, y0, y1)) * self.ph)


def _fraction(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(v - lo) / (hi - lo), all halved first where hi - lo overflows."""
    if hi - lo > sys.float_info.max:
        v, lo, hi = v * 0.5, lo * 0.5, hi * 0.5
    return (v - lo) / (hi - lo)


def _layout(content):
    n = len(content)
    pw = (_WIDTH - _MARGIN * (n + 1)) / n
    ph = _HEIGHT - 2 * _MARGIN
    if pw <= 0:
        raise ValueError("canvas too small for the requested panel count")
    panels = {}
    for k, (alpha, entry) in enumerate(content.items()):
        px0 = _MARGIN + k * (pw + _MARGIN)
        x_range, y_range = _panel_range(alpha, entry)
        panels[alpha] = _Panel(px0, _MARGIN, pw, ph, x_range, y_range)
    return panels


def render_svg(path, datasets=None, family=None, clouds=None) -> None:
    """Write an SVG scene: curves as polylines, clouds as round dots, data
    points as open circles of class "knot". At least one of the three inputs
    must be given, and every coordinate must be finite (else ValueError).
    """
    content = _content_by_vertex(datasets, family, clouds)
    panels = _layout(content)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for alpha, entry in content.items():
        panel = panels[alpha]
        color = PALETTE[(alpha - 1) % len(PALETTE)]
        parts.append(
            f'<rect x="{panel.px0:.3f}" y="{panel.py0:.3f}" width="{panel.pw:.3f}" '
            f'height="{panel.ph:.3f}" fill="none" stroke="#cccccc"/>'
        )
        if entry["cloud"] is not None:
            for chunk in _dot_paths(entry["cloud"], panel):
                parts.append(
                    f'<path d="{chunk}" stroke="{color}" stroke-opacity="0.55" '
                    f'stroke-width="{_POINT_RADIUS * 0.6:.3f}" '
                    f'stroke-linecap="round" fill="none"/>'
                )
        if entry["curve"] is not None:
            px, py = panel.project(*entry["curve"])
            coords = " ".join(map("{:.3f},{:.3f}".format, px.tolist(), py.tolist()))
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.4"/>'
            )
        if entry["data"] is not None:
            pxs, pys = panel.project(*entry["data"].T)
            for px, py in zip(pxs.tolist(), pys.tolist()):
                parts.append(
                    f'<circle class="knot" cx="{px:.3f}" cy="{py:.3f}" '
                    f'r="{_POINT_RADIUS:.3f}" fill="none" stroke="#222222" '
                    f'stroke-width="1.2"/>'
                )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _dot_paths(points, panel):
    """Cloud dots as zero-length path segments, `_DOT_CHUNK` per path.

    Each dot reads "M%.2f %.2fh0" % (px, py), byte for byte. A dot is
    printed from the digit tables when, for both its coordinates v,
    s = 100 |v| lies below 99999.5 and more than 1e-6 from a half-integer:
    s is then within 2**-37 of the exact product, so `rint` gives the cents
    that `%.2f` rounds to. Any other dot (a tie or near-tie, a coordinate
    of 999.995 or more, a NaN or an infinity) is written as that `%`
    template and formatted by `%` in place.
    """
    v = np.column_stack(panel.project(*points.T))
    for lo in range(0, len(v), _DOT_CHUNK):
        chunk = v[lo:lo + _DOT_CHUNK]
        s = np.fmin(np.abs(chunk) * 100, 1e5)  # a NaN or an infinity reads 1e5
        plain = (s < 99999.5) & (np.abs(s - np.floor(s) - 0.5) > 1e-6)
        whole, cents = np.divmod(np.rint(s).astype(np.intp), 100)
        minus = np.signbit(chunk)
        words = np.empty((len(chunk), 5), dtype=np.uint32)
        words[:, 0] = _LEAD.take(minus[:, 0])
        words[:, 1::2] = _WHOLE.take(whole, mode="clip")  # past 999 only in a template dot
        words[:, 2] = _MID.take(cents[:, 0] + 100 * minus[:, 1])
        words[:, 4] = _TAIL.take(cents[:, 1])
        other = ~(plain[:, 0] & plain[:, 1])
        words[other] = _PERCENT
        text = words.tobytes().translate(None, b"\0").decode("ascii")
        yield text % tuple(chunk[other].ravel().tolist())


def render_pgm(path, clouds) -> None:
    """Write a binary 8-bit grayscale raster of the clouds.

    White background, one black pixel per point, same panel layout as the
    SVG renderer. Every coordinate must be finite (else ValueError).
    """
    content = _content_by_vertex(None, None, clouds)
    panels = _layout(content)
    img = np.full((_HEIGHT, _WIDTH), 255, dtype=np.uint8)
    for alpha, entry in content.items():
        px, py = panels[alpha].project(*entry["cloud"].T)
        # np.rint rounds half to even, as Python's round does.
        cols = np.clip(np.rint(px), 0, _WIDTH - 1).astype(np.intp)
        rows = np.clip(np.rint(py), 0, _HEIGHT - 1).astype(np.intp)
        img[rows, cols] = 0
    with open(path, "wb") as fh:
        fh.write(f"P5 {_WIDTH} {_HEIGHT} 255\n".encode("ascii"))
        fh.write(img.tobytes())

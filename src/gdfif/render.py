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

# Rows the CSV writer formats at a time.
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
    must be given. Each row reads "%d,%.17g,%.17g" % (vertex, x, y), byte
    for byte, and 17 significant digits round-trip every float exactly.
    Rows that tie on (vertex, x, y), as -0.0 and 0.0 do, keep the order of
    the input, a vertex's parts taken in the order given. The floats that
    `%g` prints in fixed notation are written from exact digit tables (see
    `_fixed_fields`); the others (zeros, |v| below 1e-4 or from 1e17 up,
    NaN and the infinities) are formatted by `%` in place.
    """
    if (family is None) == (clouds is None):
        raise ValueError("pass exactly one of family or clouds")
    if family is not None:
        columns = _by_vertex((fn.vertex, fn.grid, fn.values) for fn in family)
    else:
        columns = _by_vertex((c.vertex, *c.points.T) for c in clouds)
    with open(path, "wb") as fh:
        fh.write(b"vertex,x,y\n")
        for vertex, (x, y) in columns.items():
            for rows in np.split(_row_order(x, y), range(_CSV_BLOCK, len(x), _CSV_BLOCK)):
                fh.write(_csv_rows(b"%d" % vertex, np.column_stack((x[rows], y[rows]))))


def _row_order(x, y):
    """The stable order of one vertex's rows by (x, y).

    A quicksort of x alone, whose runs of equal x (-0.0 and 0.0, or two
    infinities, among them) are then put in (y, row) order by one lexsort
    over the rows in those runs. The quicksort puts NaN last, and a run of
    NaN counts as a run of equal x.
    """
    order = np.argsort(x)
    sorted_x = x[order]
    tie = (sorted_x[1:] == sorted_x[:-1]) | np.isnan(sorted_x[:-1])
    after = np.r_[False, tie]  # equal to the x before; a run starts where it is not
    at = np.flatnonzero(after | np.r_[tie, False])
    rows = order[at]
    order[at] = rows[np.lexsort((rows, y[rows], np.cumsum(~after[at])))]
    return order


def _csv_rows(label, xy) -> bytes:
    """The bytes of "%s,%.17g,%.17g\n" % (label, x, y) over the rows of xy."""
    width = len(label)
    line = np.zeros((len(xy), width + 2 * _FIELD + 3), dtype=np.uint8)
    line[:, :width] = np.frombuffer(label, dtype=np.uint8)
    fields, fixed = _fixed_fields(xy.ravel())
    other = ~fixed
    fields[other] = _PERCENT_FIELD
    fields = fields.reshape(len(xy), 2, _FIELD)
    line[:, width] = line[:, width + _FIELD + 1] = ord(",")
    line[:, width + 1:width + _FIELD + 1] = fields[:, 0]
    line[:, width + _FIELD + 2:-1] = fields[:, 1]
    line[:, -1] = ord("\n")
    text = line.tobytes().translate(None, b"\0")
    return text % tuple(xy.ravel()[other].tolist()) if other.any() else text


def _fixed_fields(v):
    """The `%.17g` texts of the values v that `%g` writes in fixed notation.

    Returns NUL-padded `_FIELD`-byte rows and a mask of the values they
    hold; the other rows are garbage. The texts are laid out from each
    value's exponent and 17 digits (see `_decimal`).
    """
    e, n, fixed = _decimal(v)
    lead, rest = np.divmod(n, 10**16)
    rest, w4 = np.divmod(rest, 10_000)
    rest, w3 = np.divmod(rest, 10_000)
    w1, w2 = np.divmod(rest, 10_000)
    src = np.zeros((len(v), 6), dtype=np.uint32)
    src[:, 0] = _HEAD[lead + 10 * np.signbit(v)]
    for k, w in enumerate((w1, w2, w3, w4), start=1):
        src[:, k] = _DIGITS.take(w)
    # Trailing zeros of the 17 digits, whose lead is never 0.
    zeros = _ZEROS.take(w1)
    for w in (w2, w3, w4):
        zeros = _ZEROS.take(w) + (w == 0) * zeros
    place = _PLACE[17 * e + 16 - zeros]
    place += np.arange(0, 24 * len(v), 24)[:, None]
    return src.view(np.uint8).ravel().take(place), fixed


def _decimal(v):
    """E + 4, the 17-digit integer n and a mask of the values v that `%g`
    writes in fixed notation; n is 10**16 for the others.

    A value qualifies when its decimal exponent E after rounding to 17
    digits lies in [-4, 16]. For such a value s = 10**(16 - E) is an exact
    double, and Dekker's two-product (with Veltkamp's split, since NumPy
    has no FMA) gives |v| s = p + err exactly, where p, at least 1e16, is
    an even integer. So n = p + rint(err) is the 17-digit integer that `%`
    rounds to, half to even. E is taken from `log10` and kept only when
    1e16 <= |v| s, checked on the unrounded product, and n < 1e17; a value
    one ulp below a power of ten, where `log10` rounds up, fails the check.
    """
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)  # zeros, NaN and the rest never reach log10
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp) + 4
    s = _SCALE[e]
    p = a * s
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(s)
    err = a_lo * s_lo - (((p - a_hi * s_hi) - a_lo * s_hi) - a_hi * s_lo)
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fixed &= ((p > 1e16) | ((p == 1e16) & (err >= 0))) & (n < 10**17)
    n[~fixed] = 10**16
    return e, n, fixed


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _text_order(e):
    """Source bytes of the text of a value with exponent e and 17 digits.

    A value's source is 24 bytes: its sign (or NUL), "0", ".", its 17
    digits, and NULs from byte 20 on.
    """
    if e < 0:
        order = [0, 1, 2] + [1] * (-1 - e) + list(range(3, 20))
    else:
        order = [0] + list(range(3, 4 + e)) + [2] + list(range(4 + e, 20))
    return order + [20] * (_FIELD - len(order))


def _digit_tables():
    """The tables of `_fixed_fields`, built by array arithmetic to keep
    import cheap.

    - scale[E + 4] is 10**(16 - E), exact since 5**20 < 2**53;
    - head[lead + 10 * minus] is a value's first source word: its sign,
      "0", "." and its lead digit;
    - digits holds the words "0000" to "9999", zeros their trailing zeros;
    - place[17 * (E + 4) + kept - 1] lays out a value's text from its
      source: its trailing zeros stripped, and a bare point, but never an
      integer digit, so 100.0 prints "100".
    """
    scale = np.array([float(10**k) for k in range(20, -1, -1)])
    head = np.zeros((2, 10, 4), dtype=np.uint8)
    head[1, :, 0] = ord("-")
    head[:, :, 1:3] = np.frombuffer(b"0.", dtype=np.uint8)
    head[:, :, 3] = np.arange(ord("0"), ord("0") + 10)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    zero = (digits == ord("0")).astype(np.intp)
    zeros = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    # A text's length: the sign, then "0.", the zeros after the point and
    # the kept digits, or the integer digits, and a point when a kept
    # digit follows them.
    e, kept = np.arange(-4, 17)[:, None], np.arange(1, 18)
    length = np.where(e < 0, 2 - e + kept, 1 + np.maximum(kept, e + 1) + (kept > e + 1))
    full = np.array([_text_order(k) for k in range(-4, 17)], dtype=np.intp)
    place = np.where(np.arange(_FIELD) < length[..., None], full[:, None], 20)
    return (scale, head.view(np.uint32).ravel(), np.ascontiguousarray(digits).view(np.uint32).ravel(),
            zeros, place.reshape(-1, _FIELD))


# A value's text is at most 23 bytes: "-0.000" and 17 digits.
_FIELD = 23
_SCALE, _HEAD, _DIGITS, _ZEROS, _PLACE = _digit_tables()
_PERCENT_FIELD = np.frombuffer(b"%.17g".ljust(_FIELD, b"\0"), dtype=np.uint8)


def _by_vertex(parts):
    """Each vertex's x and y columns from (vertex, x, y) parts, in vertex
    order: its parts joined in the order given, as contiguous arrays."""
    columns: dict[int, list] = {}
    for vertex, x, y in parts:
        columns.setdefault(vertex, []).append((x, y))
    return {v: tuple(np.concatenate(c) if len(c) > 1 else np.ascontiguousarray(*c)
                     for c in zip(*columns[v])) for v in sorted(columns)}


def _panel_range(alpha, columns):
    """Snug, padded world ranges around the (x, y) columns of one panel.

    Raises ValueError when a coordinate is not finite.
    """
    ends = np.array([(x.min(), x.max(), y.min(), y.max()) for x, y in columns])
    bounds = ends[:, 0].min(), ends[:, 1].max(), ends[:, 2].min(), ends[:, 3].max()
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


def _layout(*layers):
    """One panel per vertex of the `_by_vertex` layers, side by side in vertex order."""
    vertices = sorted(set().union(*layers))
    if not vertices:
        raise ValueError("nothing to draw")
    n = len(vertices)
    pw = (_WIDTH - _MARGIN * (n + 1)) / n
    ph = _HEIGHT - 2 * _MARGIN
    if pw <= 0:
        raise ValueError("canvas too small for the requested panel count")
    panels = {}
    for k, alpha in enumerate(vertices):
        px0 = _MARGIN + k * (pw + _MARGIN)
        columns = [layer[alpha] for layer in layers if alpha in layer]
        x_range, y_range = _panel_range(alpha, columns)
        panels[alpha] = _Panel(px0, _MARGIN, pw, ph, x_range, y_range)
    return panels


def render_svg(path, datasets=None, family=None, clouds=None) -> None:
    """Write an SVG scene: curves as polylines, clouds as round dots, data
    points as open circles of class "knot". At least one of the three inputs
    must be given, and every coordinate must be finite (else ValueError).
    A vertex's clouds, as its curves, are joined in the order given and drawn as one.
    """
    data = _by_vertex((alpha, *np.array(ds.points).T) for alpha, ds in enumerate(datasets or (), 1))
    dots = _by_vertex((c.vertex, *c.points.T) for c in clouds or ())
    curves = _by_vertex((fn.vertex, fn.grid, fn.values) for fn in family or ())
    panels = _layout(data, dots, curves)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for alpha, panel in panels.items():
        color = PALETTE[(alpha - 1) % len(PALETTE)]
        parts.append(
            f'<rect x="{panel.px0:.3f}" y="{panel.py0:.3f}" width="{panel.pw:.3f}" '
            f'height="{panel.ph:.3f}" fill="none" stroke="#cccccc"/>'
        )
        if alpha in dots:
            for chunk in _dot_paths(*dots[alpha], panel):
                parts.append(
                    f'<path d="{chunk}" stroke="{color}" stroke-opacity="0.55" '
                    f'stroke-width="{_POINT_RADIUS * 0.6:.3f}" '
                    f'stroke-linecap="round" fill="none"/>'
                )
        if alpha in curves:
            px, py = panel.project(*curves[alpha])
            coords = " ".join(map("{:.3f},{:.3f}".format, px.tolist(), py.tolist()))
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.4"/>'
            )
        if alpha in data:
            pxs, pys = panel.project(*data[alpha])
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


def _dot_paths(x, y, panel):
    """Cloud dots as zero-length path segments, `_DOT_CHUNK` per path.

    Each dot reads "M%.2f %.2fh0" % (px, py), byte for byte. A dot is
    printed from the digit tables when, for both its coordinates v,
    s = 100 |v| lies below 99999.5 and more than 1e-6 from a half-integer:
    s is then within 2**-37 of the exact product, so `rint` gives the cents
    that `%.2f` rounds to. Any other dot (a tie or near-tie, a coordinate
    of 999.995 or more, a NaN or an infinity) is written as that `%`
    template and formatted by `%` in place; a path with no such dot skips
    the `%` pass.
    """
    v = np.column_stack(panel.project(x, y))
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
        yield text % tuple(chunk[other].ravel().tolist()) if other.any() else text


def render_pgm(path, clouds) -> None:
    """Write a binary 8-bit grayscale raster of the clouds.

    White background, one black pixel per point, same panel layout as the
    SVG renderer, a vertex's clouds drawn as one. Every coordinate must be
    finite (else ValueError).
    """
    dots = _by_vertex((c.vertex, *c.points.T) for c in clouds)
    img = np.full((_HEIGHT, _WIDTH), 255, dtype=np.uint8)
    for alpha, panel in _layout(dots).items():
        px, py = panel.project(*dots[alpha])
        # np.rint rounds half to even, as Python's round does.
        cols = np.clip(np.rint(px), 0, _WIDTH - 1).astype(np.intp)
        rows = np.clip(np.rint(py), 0, _HEIGHT - 1).astype(np.intp)
        img[rows, cols] = 0
    with open(path, "wb") as fh:
        fh.write(f"P5 {_WIDTH} {_HEIGHT} 255\n".encode("ascii"))
        fh.write(img.tobytes())

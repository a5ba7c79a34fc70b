"""Set-valued attractor iteration, a chaos-game sampler, and Hausdorff metrics.

The family of affine maps determines one compact attractor per vertex, each
the union of map images of the others. Starting the set iteration from the
data points themselves is convenient because every data point already lies
on its attractor (the graphs interpolate the data), so each generation stays
on the attractor exactly and only has to fill it in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .maps import GifsSystem, _refuse_non_finite, transform_points


class CloudBudgetError(RuntimeError):
    """The next generation would exceed the configured point budget."""


@dataclass(frozen=True, eq=False)
class AttractorCloud:
    """A finite point set approximating one vertex's attractor."""

    vertex: int
    points: np.ndarray
    generation: int

    def __post_init__(self):
        self._keep(np.array(self.points, dtype=float))

    @classmethod
    def _adopt(cls, vertex: int, points: np.ndarray, generation: int,
               box: tuple[float, float, float, float] | None = None) -> AttractorCloud:
        """A cloud that keeps `points`, a fresh float64 array no caller holds,
        uncopied, and `box`, when given, as its `_box`."""
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "vertex", vertex)
        object.__setattr__(cloud, "generation", generation)
        cloud._keep(points)
        if box is not None:
            # cached_property has no __set__: this fills its slot in __dict__.
            object.__setattr__(cloud, "_box", box)
        return cloud

    def _keep(self, pts: np.ndarray) -> None:
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (k, 2) array")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @cached_property
    def _box(self) -> tuple[float, float, float, float]:
        """(x lo, x hi, y lo, y hi), a box that encloses every point.

        The step and the dedup hand theirs on (see `_image_box`); any other
        cloud takes its points' exact extremes, NaN when a point holds one.
        """
        x = self.points[:, 0]
        y = self.points[:, 1]
        return float(x.min()), float(x.max()), float(y.min()), float(y.max())

    def __len__(self) -> int:
        return self.points.shape[0]


def data_clouds(system: GifsSystem) -> tuple[AttractorCloud, ...]:
    """Generation-0 clouds: each vertex's data points."""
    return tuple(
        AttractorCloud(alpha, np.array(system.dataset(alpha).points), 0)
        for alpha in range(1, system.n + 1)
    )


def _check_clouds(system: GifsSystem, clouds):
    clouds = tuple(clouds)
    if len(clouds) != system.n:
        raise ValueError(f"expected {system.n} clouds, got {len(clouds)}")
    for k, cloud in enumerate(clouds, start=1):
        if cloud.vertex != k:
            raise ValueError(f"expected vertex {k} at position {k - 1}, got {cloud.vertex}")
    return clouds


@np.errstate(over="ignore", invalid="ignore")  # an image past the float range raises below
def hutchinson_step(system: GifsSystem, clouds) -> tuple[AttractorCloud, ...]:
    """One set-valued step: each vertex becomes the union of its maps' images.

    The images are stored column-major, so each coordinate is one
    contiguous run for the step that reads it next. Each new cloud carries
    the box its sources' boxes map to (`_image_box`); only when that box
    is not finite are the images scanned. Raises ValueError naming the
    vertex when an image leaves the float range.
    """
    clouds = _check_clouds(system, clouds)
    out = []
    for alpha in range(1, system.n + 1):
        maps = system.maps_for(alpha)
        sources = [clouds[m.source_vertex - 1] for m in maps]
        images = np.empty((sum(map(len, sources)), 2), order="F")
        lo = 0
        for m, src in zip(maps, sources):
            transform_points(m, src.points, out=images[lo:lo + len(src)])
            lo += len(src)
        box = _image_box(maps, sources)
        if box is None:
            _refuse_non_finite(images, alpha)
        out.append(AttractorCloud._adopt(alpha, images, clouds[alpha - 1].generation + 1, box))
    return tuple(out)


def _image_box(maps, sources) -> tuple[float, float, float, float] | None:
    """A box that encloses every image of the sources' points under the
    maps, or None when one of its terms is not finite.

    Each term of `transform_points` is monotone in x and in y (a > 0, c and
    d of either sign), and so is its rounding. Evaluated on the source
    box's ends in the same order of rounding, x*a + e and (y*d + c*x) + f
    bound every image as it is rounded. The x ends map to the x ends, so an
    exact x range stays exact; the y range can widen, as the two terms may
    take their extremes at different corners. Python's min and max can
    drop a NaN, so every term is checked before they are taken.
    """
    terms = []
    for (a, c, d, e, f, _), src in zip(maps, sources):
        x0, x1, y0, y1 = src._box
        dy = (y0 * d, y1 * d)
        cx = (c * x0, c * x1)
        terms += (x0 * a + e, x1 * a + e, (min(dy) + min(cx)) + f, (max(dy) + max(cx)) + f,
                  *dy, *cx)
    if not all(map(math.isfinite, terms)):
        return None
    return (min(terms[0::8]), max(terms[1::8]), min(terms[2::8]), max(terms[3::8]))


# Packed dedup keys are int64: the cell number above the row index.
_KEY_LIMIT = 1 << 63
# Rows keyed at a time through the packed dedup's block-sized buffers.
_KEY_BLOCK = 1 << 14


def _dedup(points: np.ndarray, tol: float, box=None) -> np.ndarray:
    """Keep one representative per tol-sized grid cell, in first-seen order.

    Representatives are original points, not cell centers, so deduplication
    never moves a point; it only thins clusters closer than about tol.
    Each point's cell number goes above its row index in one int64 key, so
    a single sort groups the cells with the first-seen row leading each;
    cells too many to pack, or numbered past int64 (a tiny tol), go to
    `np.unique` as finite x + iy cell numbers, sorted by x, then y, with
    each one's first row. The kept rows are returned column-major. Raises
    ValueError, before either grouping, when a cell number is not finite.

    v -> round(v / tol) is monotone for tol > 0, and NaN and inf go through
    it as themselves, so the cell numbers of `box`, (x lo, x hi, y lo, y hi)
    enclosing the points, enclose theirs. The cell range is taken from the
    box; with no box, or one whose cell numbers are not finite, from the
    extreme coordinates, bit for bit. The keys are built _KEY_BLOCK rows at
    a time in block-sized buffers. A row in the cell of the row before it
    is never the first of its cell, so it is dropped before the sort: the
    images keep their source's order along the graph, and about half the
    rows repeat the cell before. The keys, filled only for the rows kept,
    and their first-of-cell flags are the packed path's only n-long arrays.
    """
    n = len(points)
    x = points[:, 0]
    y = points[:, 1]
    with np.errstate(over="ignore"):  # an overflow is reported below
        span = None if box is None else np.round(np.array(box) / tol)
        if span is None or not np.isfinite(span).all():
            span = np.round(np.array((x.min(), x.max(), y.min(), y.max())) / tol)
    if not np.isfinite(span).all():
        raise ValueError(f"dedup tolerance {tol!r} is too small: a point's cell number "
                         f"(coordinate / tolerance) is not finite; use a larger dedup_tol")
    x0, x1, y0, y1 = span
    bits = (n - 1).bit_length()
    nx = int(x1) - int(x0) + 1
    ny = int(y1) - int(y0) + 1
    in_int64 = -_KEY_LIMIT <= min(x0, y0) and max(x1, y1) < _KEY_LIMIT
    if (nx * ny) << bits > _KEY_LIMIT or not in_int64:
        cells = np.round(x / tol) + 1j * np.round(y / tol)
        return _take_rows(points, np.sort(np.unique(cells, return_index=True)[1]))
    # One block's float cell numbers, its flags of the rows that start a
    # new cell, and its cells after the cell of the row before it (-1
    # before the first row: cells number from 0), reused for the flags'
    # shifted keys. The keys of the m rows kept so far fill key[:m], so
    # key[lo:hi] is free to hold the block's int64 y cells.
    size = min(n, _KEY_BLOCK)
    cells = np.empty(size)
    new = np.empty(size, dtype=bool)
    kc = np.empty(size + 1, dtype=np.int64)
    kc[0] = -1
    key = np.empty(n, dtype=np.int64)
    m = 0
    for lo in range(0, n, _KEY_BLOCK):
        hi = min(lo + _KEY_BLOCK, n)
        c, fresh, k, r = cells[:hi - lo], new[:hi - lo], kc[1:hi - lo + 1], key[lo:hi]
        np.divide(x[lo:hi], tol, out=c)
        np.round(c, out=c)
        k[...] = c
        k -= int(x0)
        k *= ny
        np.divide(y[lo:hi], tol, out=c)
        np.round(c, out=c)
        r[...] = c
        r -= int(y0)
        k += r
        np.not_equal(k, kc[:hi - lo], out=fresh)
        rows = np.flatnonzero(fresh)
        out = key[m:m + len(rows)]
        np.take(k, rows, out=out, mode="clip")
        out <<= bits
        out += rows
        out += lo
        m += len(rows)
        kc[0] = k[-1]
    key = key[:m]
    key.sort()
    first = np.empty(m, dtype=bool)
    first[0] = True
    for lo in range(1, m, _KEY_BLOCK):
        hi = min(lo + _KEY_BLOCK, m)
        c = np.right_shift(key[lo - 1:hi], bits, out=kc[:hi - lo + 1])
        np.not_equal(c[1:], c[:-1], out=first[lo:hi])
    keep = np.compress(first, key)
    keep &= (1 << bits) - 1
    keep.sort()
    return _take_rows(points, keep)


def _take_rows(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """points[rows], gathered column by column into a column-major array."""
    out = np.empty((len(rows), 2), order="F")
    # Every row is in range; "clip" lets take write into `out` unbuffered.
    for j in range(2):
        np.take(points[:, j], rows, out=out[:, j], mode="clip")
    return out


# The most points one generation may hold before deduplication.
_MAX_POINTS = 10_000_000


def iterate_attractor(
    system: GifsSystem,
    generations: int,
    dedup_tolerance: float,
) -> tuple[AttractorCloud, ...]:
    """Iterate the set-valued step from the data points.

    Clouds are deduplicated on a grid of size `dedup_tolerance`, finite and
    at least 0, after each generation (pass 0 to disable). Before each step
    the undeduplicated size of the next generation is predicted from the
    wiring; if it exceeds `_MAX_POINTS` a CloudBudgetError is raised instead
    of allocating it.
    """
    if generations < 1:
        raise ValueError("generations must be at least 1")
    if not dedup_tolerance >= 0:
        raise ValueError(f"dedup_tolerance must be at least 0, got {dedup_tolerance}")
    if dedup_tolerance == math.inf:
        raise ValueError("dedup_tolerance must be finite, got inf")
    clouds = data_clouds(system)
    for _ in range(generations):
        predicted = sum(len(clouds[m.source_vertex - 1]) for row in system.maps for m in row)
        if predicted > _MAX_POINTS:
            raise CloudBudgetError(
                f"next generation would hold {predicted} points, cap is {_MAX_POINTS}; "
                f"use fewer generations or a larger dedup_tol"
            )
        clouds = hutchinson_step(system, clouds)
        if dedup_tolerance > 0:
            clouds = tuple(
                AttractorCloud._adopt(c.vertex, _dedup(c.points, dedup_tolerance, c._box),
                                      c.generation, c._box)
                for c in clouds
            )
    return clouds


# Chaos steps walked between copies of their points into one array.
_WALK_BLOCK = 8192


def chaos_game(
    system: GifsSystem,
    total_points: int,
    burn_in: int = 0,
    seed: int = 0,
) -> tuple[AttractorCloud, ...]:
    """Random-walk sampler honoring the wiring direction.

    Keeps one current point per vertex, seeded with the data set's first
    point. Each of the `total_points` steps picks a target vertex and one of
    its maps uniformly, applies the map to the current point of the map's
    source vertex, and makes the image the target's new current point. A
    vertex's first `burn_in` emissions are discarded. Fully deterministic
    for a given seed: the picks are those of `integers(1, n + 1)` and then
    `integers(0, maps)` on `np.random.default_rng(seed)`, all drawn by one
    array call of NumPy's own (see `_draws`). The walk reads `system.maps`
    as it is, with finite coefficients; when a step still leaves the float
    range, burn-in or not, raises ValueError naming the vertex whose map
    first took a finite point past it.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if total_points <= burn_in:
        raise ValueError("total_points must exceed burn_in")
    n = system.n
    vertex, index = _draws(seed, n, [len(row) for row in system.maps], total_points)
    rows = [(a, c, d, e, f, source - 1, target) for target, row in enumerate(system.maps)
            for a, c, d, e, f, source in row]
    # Each vertex's current point, its x in cx and its y in cy. A block's
    # images go into one list, x and y in turn, as flat holds the rows.
    cx, cy = (list(col) for col in zip(*(ds.first for ds in system.datasets)))
    points = np.empty((total_points, 2))
    flat = points.reshape(-1)
    for lo in range(0, total_points, _WALK_BLOCK):
        walk = []
        add = walk.append
        # transform_points's products and sums; addition commutes, so the same rounding.
        for a, c, d, e, f, source, target in map(
                rows.__getitem__, index[lo:lo + _WALK_BLOCK].tolist()):
            x = cx[source]
            cy[target] = y = c * x + d * cy[source] + f
            cx[target] = x = a * x + e
            add(x)
            add(y)
        flat[2 * lo:2 * lo + len(walk)] = walk
    # the walk's first point past the range had a finite source
    _refuse_non_finite(points, vertex + 1)
    clouds = []
    for alpha in range(1, n + 1):
        pts = np.compress(vertex == alpha - 1, points, axis=0)[burn_in:]
        if not len(pts):
            raise ValueError(
                f"vertex {alpha} kept no points past burn-in; "
                "increase total_points (chaos_points for gdfif run)"
            )
        clouds.append(AttractorCloud._adopt(alpha, pts, total_points))
    return tuple(clouds)


def _draws(seed: int, n: int, counts: list[int], steps: int):
    """Each step's target vertex (from 0) and flat map index, as drawn by
    `integers(1, n + 1)` and then `integers(0, counts[vertex])` per step
    on `np.random.default_rng(seed)`.

    `integers(0, spans)` draws element by element in C order, on the same
    stream and by the same rule as those scalar calls, so with a row of
    [n, counts[vertex]] spans per step it returns exactly their picks once
    every vertex it was given is the one it draws. The vertices start as a
    guess and are replaced by the drawn ones until the two agree: all the
    steps before the first that differs had their right spans, so that
    step's vertex, drawn with span n, is right too, and each repeat fixes
    at least one more step. A vertex span of 1 (one vertex) reads no word,
    in the scalar calls and in the array call alike.
    """
    counts = np.array(counts)
    offsets = np.cumsum(counts) - counts
    spans = np.full((steps, 2), n)
    # A guess, right unless a pick rejected a word: each pick then reads one.
    vertex = np.random.default_rng(seed).integers(0, n, spans.shape)[:, 0]
    while True:
        spans[:, 1] = counts[vertex]
        drawn = np.random.default_rng(seed).integers(0, spans)
        if np.array_equal(drawn[:, 0], vertex):
            return vertex, offsets[vertex] + drawn[:, 1]
        vertex = drawn[:, 0]


# Window steps double the candidates scanned per side: 1, 2, 4, ...  Points
# still scanning after the last step in x order (many points of Q in their
# x-strip, as on a near-vertical cloud) scan again in y order, when there
# are more than _PROBES of them, and any left after that are finished
# against all of Q. Distances are taken in blocks of about _BLOCK at a time.
# After the first step up to _PROBES points with the largest bounds are
# finished against all of Q, to lift the floor early.
_WINDOW_STEPS = 8
_BLOCK = 1 << 16
_PROBES = 64


def directed_hausdorff(p_points, q_points) -> float:
    """max over p of min over q of the max-norm distance, exactly.

    Q is put in x order (kept as given when it is already ascending in x,
    as a deduplicated cloud and a curve grid are), and each p scans
    outward from its place in that order, on both sides, until the next
    candidate on each side is at least its best distance so far away in x:
    no later candidate can then be nearer, so its best is exact. Only
    points that can still raise the maximum are scanned that far. A floor,
    the largest exact best so far, rises as points finish (and as a few
    probes with the largest bounds are finished first), and a point whose
    best is at most the floor leaves the scan. Points that crowd one
    x-strip scan again in y order, where the same stopping rule holds.
    Every distance is max(|dx|, |dy|) of the input doubles, so the result
    is the exact nearest-neighbour maximum, whatever the order of the
    input. Raises ValueError on an empty set or a coordinate that is not
    finite.
    """
    return _directed(_as_point_array(p_points), _as_point_array(q_points), 0.0)


def _directed(P, Q, floor):
    """max(floor, directed_hausdorff(P, Q)) of checked point arrays.

    Q is scanned as given along an axis on which it is already ascending,
    which one pass of comparisons shows, and sorted by that axis
    otherwise. The result is the same double for any ascending order of
    Q: ties in the scan axis may come in any order, and a point still
    stops scanning only at its exact nearest distance.
    """
    best = np.full(len(P), np.inf)
    active = np.arange(len(P))
    for axis in (0, 1):
        if axis and active.size <= _PROBES:
            break  # a few points cost less against all of Q than sorting Q by y
        # Scan along u, the axis'th coordinate; w is the other one.
        qu, qw = Q[:, axis], Q[:, 1 - axis]
        if not (qu[1:] >= qu[:-1]).all():
            order = np.argsort(qu)
            qu, qw = qu[order], qw[order]
        # -inf/+inf sentinels end both sides: infinitely far in u and in distance.
        qu = np.concatenate(([-np.inf], qu, [np.inf]))
        qw = np.concatenate(([0.0], qw, [0.0]))
        pu, pw = np.ascontiguousarray(P[:, axis]), np.ascontiguousarray(P[:, 1 - axis])
        floor, active = _window_scan(pu, pw, qu, qw, best, active, floor, probe=not axis)
        if not active.size:
            return floor
    _finish_brute(pu, pw, qu, qw, best, active)
    return max(floor, float(best[active].max()))


def _window_scan(pu, pw, qu, qw, best, active, floor, probe):
    """Scan the active points along u; return the raised floor and the
    points still scanning after the last window step.

    active holds rows of P in ascending order. When it holds every row,
    the first step runs on whole columns, and an ascending P with more
    points than Q and its two sentinels is located by searching Q into P
    instead of P into Q.
    """
    every = active.size == len(pu)  # active is then range(len(pu))
    if every and len(pu) > len(qu) and (pu[1:] >= pu[:-1]).all():
        # The start below, found by the fewer searches of Q into P: start
        # is j on the run of P from the place of qu[j - 1] to that of qu[j].
        place = np.searchsorted(pu, qu, side="right")
        start = np.repeat(np.arange(len(qu)), np.diff(place, prepend=0))
    else:
        start = np.zeros(len(pu), dtype=np.intp)
        start[active] = np.searchsorted(qu, pu[active])  # qu[start - 1] < pu <= qu[start]
    for step in range(_WINDOW_STEPS):
        width = 1 << step  # the steps before covered width - 1 per side
        if step == 0 and every:
            # Each point's two neighbours in u, start - 1 and start, which
            # the sentinels keep in range: no row gathers and no clip.
            for j in (start - 1, start):
                du, dw = qu[j], qw[j]
                du -= pu
                dw -= pw
                np.abs(du, out=du)
                np.abs(dw, out=dw)
                np.minimum(best, np.maximum(du, dw, out=du), out=best)
        else:
            offsets = np.arange(width - 1, 2 * width - 1)
            offsets = np.concatenate((offsets, -1 - offsets))[:, None]
            # Candidates run down axis 0, so the min is elementwise across rows.
            for k in _blocks(active, len(offsets)):
                j = np.clip(start[k] + offsets, 0, len(qu) - 1)
                du, dw = qu[j], qw[j]
                du -= pu[k]
                dw -= pw[k]
                best[k] = np.minimum(best[k], _max_norm_min(du, dw, axis=0))
        if probe and step == 0:
            floor = _probe(pu, pw, qu, qw, best, active, floor)
        # A point at or below the floor cannot raise the maximum.
        b = best[active]
        above = b > floor
        active, b = active[above], b[above]
        u, c = pu[active], start[active]
        right = np.minimum(c + 2 * width - 1, len(qu) - 1)
        left = np.maximum(c - 2 * width, 0)
        scanning = (qu[right] - u < b) | (u - qu[left] < b)
        # A point that stopped scanning has its exact nearest distance.
        floor = float(b.max(initial=floor, where=~scanning))
        active = active[scanning]
        if not active.size:
            break
    return floor, active


def _probe(px, py, qx, qy, best, rows, floor):
    """Finish against all of Q the rows, of the few with the largest bounds,
    that are above the floor; return the floor raised to their largest
    exact distance.

    At most _PROBES rows are finished, and no more than make the work of
    the first window step, two distances per point of P: a P much smaller
    than Q runs no probe.
    """
    count = min(_PROBES, 2 * len(px) // len(qx))
    if rows.size > count:
        rows = rows[np.argpartition(best[rows], -count)[rows.size - count:]]
    rows = rows[best[rows] > floor]
    if not rows.size:
        return floor
    _finish_brute(px, py, qx, qy, best, rows)
    return max(floor, float(best[rows].max()))


def _finish_brute(px, py, qx, qy, best, rows):
    """Set best[rows] to each p's nearest max-norm distance over all of q."""
    for k in _blocks(rows, len(qx)):
        best[k] = _max_norm_min(qx - px[k, None], qy - py[k, None], axis=1)


def _blocks(rows, width):
    """Split rows into blocks of about _BLOCK // width."""
    step = max(1, _BLOCK // width)
    return (rows[lo:lo + step] for lo in range(0, len(rows), step))


def _max_norm_min(dx, dy, axis):
    """min over `axis` of max(|dx|, |dy|), computed in place in dx and dy."""
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    return np.maximum(dx, dy, out=dx).min(axis=axis)


def hausdorff_distance(p_points, q_points) -> float:
    """Symmetric Hausdorff distance between two point sets in the max norm.

    The direction from P to Q is taken first; its value is the floor of
    the direction from Q to P, whose points at or below it are not scanned.
    """
    P = _as_point_array(p_points)
    Q = _as_point_array(q_points)
    return _directed(Q, P, _directed(P, Q, 0.0))


def _as_point_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty (k, 2) array of points")
    if not np.isfinite(arr).all():
        raise ValueError("points must have finite coordinates")
    return arr

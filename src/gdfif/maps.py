"""Affine contractions of the graph-directed system, solved in closed form.

Interval i of vertex alpha, wired to source vertex beta with scaling factor
d, gets one planar affine map

    (x, y) -> (a x + e,  c x + d y + f)

that carries the source data set's span onto the target interval: the
source's first point lands on the interval's left knot and its last point on
the right knot. Writing (u0, U0) and (uS, US) for the source's first and
last points and (p, P), (q, Q) for the target interval's knots, those two
endpoint constraints determine the coefficients:

    a = (q - p) / (uS - u0)
    e = (uS p - u0 q) / (uS - u0)
    c = (Q - P) / (uS - u0) - d (US - U0) / (uS - u0)
    f = (uS P - u0 Q) / (uS - u0) - d (uS U0 - u0 US) / (uS - u0)

With a single vertex wired to itself this reduces to the classic fractal
interpolation construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .model import STRICT_MODE, DataSet, WiringPlan, validate, vertex_violations


class AffineMap(NamedTuple):
    """(x, y) -> (a x + e, c x + d y + f) with a lower-triangular linear part.

    Its target is its place: `GifsSystem.maps[k][i]` maps onto interval i+1
    of vertex k+1. A named tuple, so the kernels unpack it as it is.
    """

    a: float
    c: float
    d: float
    e: float
    f: float
    source_vertex: int


class InvalidSystemError(ValueError):
    """The inputs violate a construction hypothesis; `.report` lists them."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


def apply_map(m: AffineMap, point) -> tuple[float, float]:
    """The image of one (x, y) point, as Python floats."""
    x, y = transform_points(m, np.array(point, dtype=float).reshape(1, 2))[0].tolist()
    return x, y


def transform_points(m: AffineMap, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the map to a (k, 2) array of points.

    The images go into `out`, a (k, 2) float array, when it is given, else
    into a new array; that array is returned.
    """
    if out is None:
        out = np.empty((len(points), 2))
    x, y = points[:, 0], points[:, 1]
    # (d y + c x) + f rounds exactly as (c x + d y) + f: addition commutes.
    np.multiply(y, m.d, out=out[:, 1])
    out[:, 1] += m.c * x
    out[:, 1] += m.f
    np.multiply(x, m.a, out=out[:, 0])
    out[:, 0] += m.e
    return out


@dataclass(frozen=True)
class GifsSystem:
    """Data sets and the full family of affine maps, checked where it is made.

    `maps[k]` holds vertex k+1's maps in interval order. The constructor
    raises the first violation of `vertex_violations`' per-vertex rules,
    in `validate`'s words, then requires finite `a, c, e, f`, `0 < a < 1`
    and the interpolation rule: each map carries its source's end points
    onto its interval's knots, within 1e-6 of the interval's width in x and
    1e-6 (1 + max |F|) in y. So the kernels read the maps as they are,
    `r < 1`, and every attractor is the graph of an interpolant.
    `build_system` runs `validate` first, for the width rule.
    """

    datasets: tuple[DataSet, ...]
    maps: tuple[tuple[AffineMap, ...], ...]

    def __post_init__(self):
        n = len(self.datasets)
        if not n:
            raise ValueError("a system needs at least one data set")
        if len(self.maps) != n:
            k = min(len(self.maps), n) + 1
            raise ValueError(f"{len(self.maps)} map tuples for {n} data sets: vertex {k} has "
                             + ("no maps" if k <= n else "no data set"))
        for alpha, (ds, row) in enumerate(zip(self.datasets, self.maps), start=1):
            for v in vertex_violations(alpha, n, ds, [(m.source_vertex, m.d) for m in row]):
                raise ValueError(v.message)
        y_tols = [1e-6 * (1.0 + max(abs(F) for _, F in ds.points)) for ds in self.datasets]
        for (alpha, i, misses), m in zip(_knot_misses(self), chain(*self.maps)):
            # a, c, e and f each reach an image, so a non-finite one shows here
            if not (m.a > 0 and all(map(math.isfinite, misses))):
                raise ValueError(f"the maps of vertex {alpha} leave the float range")
            if not m.a < 1:
                raise ValueError(f"interval {i} of vertex {alpha} has a = {m.a:g}, must be < 1")
            (p, _), (q, _) = self.datasets[alpha - 1].points[i - 1:i + 1]
            for k, (miss, tol) in enumerate(zip(misses, (1e-6 * (q - p), y_tols[alpha - 1]) * 2)):
                if not miss <= tol:
                    raise ValueError(f"interval {i} of vertex {alpha} lands {miss:.3e} off its "
                                     f"{('left', 'right')[k // 2]} knot in {'xy'[k % 2]}, "
                                     f"past the tolerance {tol:.3e}")

    @property
    def r(self) -> float:
        """The largest |d| over the maps, the transfer operator's contraction factor."""
        return max(abs(m.d) for row in self.maps for m in row)

    @property
    def n(self) -> int:
        return len(self.datasets)

    def dataset(self, alpha: int) -> DataSet:
        return self.datasets[alpha - 1]

    def maps_for(self, alpha: int) -> tuple[AffineMap, ...]:
        return self.maps[alpha - 1]

    @cached_property
    def table(self) -> tuple[tuple, ...]:
        """`evaluate_exact`'s per-vertex cache, built on first use.

        `table[alpha]` is (xs, fs, maps, lo, hi) for vertex alpha and
        `table[0]` is None: the knot abscissas and ordinates as lists of
        floats, `self.maps_for(alpha)` itself, and the domain [lo, hi].
        """
        return (None, *(
            ([x for x, _ in ds.points], [F for _, F in ds.points], maps, ds.first[0], ds.last[0])
            for ds, maps in zip(self.datasets, self.maps)
        ))


def build_system(datasets, plan: WiringPlan, mode: str = STRICT_MODE) -> GifsSystem:
    """Validate the inputs and construct every affine map in closed form.

    Raises InvalidSystemError, a ValueError, when validation reports any
    violation; its message carries the first few violation messages and
    its `report` the full ValidationReport. The width rule, each data
    set's own span included, gives every map 0 < a < 1 after rounding. The
    closed form multiplies abscissas together, so maps of data far from the
    origin can miss their knots: `GifsSystem` then raises ValueError.
    """
    report = validate(datasets, plan, mode)
    if not report.ok:
        shown = "; ".join(v.message for v in report.violations[:5])
        more = len(report.violations) - 5
        if more > 0:
            shown += f"; and {more} more"
        raise InvalidSystemError(
            f"invalid construction input ({len(report.violations)} violations): {shown}", report
        )

    datasets = tuple(datasets)
    all_maps = []
    for alpha, row in enumerate(plan.assignments, start=1):
        target = datasets[alpha - 1]
        vertex_maps = []
        for i, asg in enumerate(row, start=1):
            source = datasets[asg.source - 1]
            u0, U0 = source.first
            uS, US = source.last
            p, P = target.points[i - 1]
            q, Q = target.points[i]
            du = uS - u0
            a = (q - p) / du
            e = (uS * p - u0 * q) / du
            c = (Q - P) / du - asg.d * (US - U0) / du
            f = (uS * P - u0 * Q) / du - asg.d * (uS * U0 - u0 * US) / du
            vertex_maps.append(AffineMap(a=a, c=c, d=asg.d, e=e, f=f, source_vertex=asg.source))
        all_maps.append(tuple(vertex_maps))
    return GifsSystem(datasets, tuple(all_maps))


def _knot_misses(system: GifsSystem) -> list[tuple[int, int, tuple[float, ...]]]:
    """(alpha, i, misses) for each map onto interval i of vertex alpha, in order.

    The misses are |x0 - p|, |y0 - P|, |x1 - q|, |y1 - Q|, from the images
    (x0, y0) and (x1, y1) of the source's first and last points, rounded as
    by `transform_points`, to the interval's knots (p, P) and (q, Q).
    """
    out = []
    with np.errstate(all="ignore"):  # the coefficients may be NumPy floats
        for alpha, (target, row) in enumerate(zip(system.datasets, system.maps), start=1):
            for i, m in enumerate(row, start=1):
                source = system.datasets[m.source_vertex - 1]
                (u0, U0), (u1, U1) = source.first, source.last
                (p, P), (q, Q) = target.points[i - 1:i + 1]
                out.append((alpha, i, (abs(u0 * m.a + m.e - p), abs(U0 * m.d + m.c * u0 + m.f - P),
                                       abs(u1 * m.a + m.e - q), abs(U1 * m.d + m.c * u1 + m.f - Q))))
    return out


def _refuse_non_finite(values: np.ndarray, vertex) -> None:
    """Raise ValueError naming the vertex of the first row of the 2-d `values`
    that holds a value past the float range; `vertex` is one for every row
    or an array of one per row. The row is located only when one min/max pass fails."""
    if not np.isfinite((values.min(), values.max())).all():
        row = np.argmin(np.isfinite(values).all(axis=1))
        alpha = np.broadcast_to(vertex, len(values))[row]
        raise ValueError(f"the maps of vertex {alpha} leave the float range")


def endpoint_residuals(system: GifsSystem) -> float:
    """Worst absolute endpoint mismatch over every map in the system: the
    largest of the misses at the knots that the constructor checked."""
    return max(max(misses) for *_, misses in _knot_misses(system))

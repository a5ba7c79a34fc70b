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
from typing import NamedTuple

import numpy as np

from .model import STRICT_MODE, DataSet, WiringPlan, validate


@dataclass(frozen=True)
class AffineMap:
    """(x, y) -> (a x + e, c x + d y + f) with a lower-triangular linear part.

    Its target is its place: `GifsSystem.maps[k][i]` maps onto interval i+1
    of vertex k+1.
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


class VertexTable(NamedTuple):
    """One vertex's knots and maps as plain Python values.

    `xs` and `fs` are the knot abscissas and ordinates as lists of floats;
    `maps[i - 1]` is interval i's map as the tuple
    (a, c, d, e, f, source index from 0, source domain lo, hi).
    """

    xs: list[float]
    fs: list[float]
    maps: list[tuple[float, float, float, float, float, int, float, float]]


@dataclass(frozen=True)
class GifsSystem:
    """Data sets and the full family of affine maps, checked where it is made.

    `maps[k]` holds vertex k+1's maps in interval order. `build_system` runs
    `validate` first, for the hypotheses that `__post_init__` leaves out.
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
            if len(ds.points) < 3:
                raise ValueError(
                    f"the data set of vertex {alpha} has {len(ds.points)} points, need at least 3")
            if len(row) != ds.n_intervals:
                raise ValueError(
                    f"vertex {alpha} has {len(row)} maps for {ds.n_intervals} intervals")
            for i, m in enumerate(row, start=1):
                if not 1 <= m.source_vertex <= n:
                    raise ValueError(
                        f"interval {i} of vertex {alpha} names source vertex "
                        f"{m.source_vertex}, valid range is 1..{n}")

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
    def table(self) -> tuple[VertexTable, ...]:
        """`table[k]` is vertex k+1's knots and maps, built on first use.

        Raises ValueError naming the first vertex with a map whose
        coefficients overflowed or whose `a` underflowed to 0.
        """
        for alpha, maps in enumerate(self.maps, start=1):
            if not all(m.a > 0 and all(map(math.isfinite, (m.a, m.c, m.e, m.f))) for m in maps):
                raise ValueError(f"the maps of vertex {alpha} leave the float range")
        domains = [(ds.first[0], ds.last[0]) for ds in self.datasets]
        return tuple(
            VertexTable(
                [x for x, _ in ds.points],
                [F for _, F in ds.points],
                [(m.a, m.c, m.d, m.e, m.f, m.source_vertex - 1, *domains[m.source_vertex - 1])
                 for m in maps],
            )
            for ds, maps in zip(self.datasets, self.maps)
        )


def build_system(datasets, plan: WiringPlan, mode: str = STRICT_MODE) -> GifsSystem:
    """Validate the inputs and construct every affine map in closed form.

    Raises InvalidSystemError, a ValueError, when validation reports any
    violation; its message carries the first few violation messages and
    its `report` the full ValidationReport. On success the returned
    system's maps satisfy the endpoint constraints to round-off and every
    horizontal coefficient obeys 0 < a < 1.
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


def endpoint_residuals(system: GifsSystem) -> float:
    """Worst absolute endpoint mismatch over every map in the system.

    Each map must send the source's first point to its target interval's left
    knot and the source's last point to the right knot; the residual is the
    largest coordinate-wise error over all maps and both endpoints. Zero up
    to round-off for any system built by `build_system`.
    """
    worst = 0.0
    for alpha in range(1, system.n + 1):
        knots = np.array(system.dataset(alpha).points)
        for i, m in enumerate(system.maps_for(alpha)):
            source = system.dataset(m.source_vertex)
            got = transform_points(m, np.array([source.first, source.last]))
            want = knots[i:i + 2]
            worst = max(worst, float(np.abs(got - want).max()))
    return worst

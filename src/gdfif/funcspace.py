"""Candidate interpolants, the interval-wise transfer operator, and its fixed point.

Candidates live in the space of continuous functions on each data set's
domain that take the prescribed values at the two domain endpoints. They are
represented as densely sampled piecewise-linear functions on a fixed grid
that contains every knot, which makes the sup metric between two samplings
exact: the difference of two piecewise-linear functions is piecewise linear,
so its maximum is attained at a node of the union grid.

The transfer operator rewrites each target interval from its wired source
function: for interval i of vertex alpha with map (a, c, d, e, f) and source
beta, the new value at x in the interval is

    c t + d F_beta(t) + f,   t = (x - e) / a.

The operator is applied by resampling onto the same fixed output grid every
time, so grids never grow across iterations, and it contracts the family sup
metric by the factor r = max |d| < 1. Iterating from the straight-chord
family therefore converges geometrically to the unique fixed family, which
interpolates every knot of every data set. The pullbacks never change from
sweep to sweep, so each is computed and located on its source grid once
per system and resolution, and every quantity of its interpolation that
does not depend on the source values is rounded then: a precomputed
stencil. A sweep is then one gather of the source values at those stencil
entries, with np.interp's own rounding, so every value is bit-identical to
interpolating interval by interval with np.interp. `fixed_point` iterates
in the stencil's block layout, one row per map with the knot at both ends,
and lays the result out on the grids once, at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .maps import GifsSystem, _refuse_non_finite
from .model import DataSet


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach the requested tolerance."""

    def __init__(self, iterations: int, final_delta: float, tol: float):
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"last delta {final_delta:.3e} is above tol {tol:.3e}"
        )
        self.iterations = iterations
        self.final_delta = final_delta
        self.tol = tol


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """One vertex's candidate, sampled on a strictly increasing grid.

    Evaluation between nodes is piecewise linear; outside the grid the value
    clamps to the nearest endpoint (only round-off ever lands there).
    """

    vertex: int
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        values = np.array(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if grid.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def evaluate(self, x):
        return np.interp(x, self.grid, self.values)

    def as_points(self) -> np.ndarray:
        """Graph samples as a (k, 2) array."""
        return np.column_stack((self.grid, self.values))


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """One SampledFunction per vertex, ordered 1..n."""

    functions: tuple[SampledFunction, ...]

    def __post_init__(self):
        fns = tuple(self.functions)
        if not fns:
            raise ValueError("a family needs at least one function")
        for k, fn in enumerate(fns, start=1):
            if fn.vertex != k:
                raise ValueError(f"expected vertex {k} at position {k - 1}, got {fn.vertex}")
        object.__setattr__(self, "functions", fns)

    @property
    def n(self) -> int:
        return len(self.functions)

    def get(self, alpha: int) -> SampledFunction:
        return self.functions[alpha - 1]

    def __iter__(self):
        return iter(self.functions)


def _blocks(dataset: DataSet, resolution: int) -> np.ndarray:
    """Row i - 1 holds `resolution` equally spaced abscissas over interval i."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    return np.linspace(dataset.xs[:-1], dataset.xs[1:], resolution, axis=1)


def standard_grid(dataset: DataSet, resolution: int) -> np.ndarray:
    """Per-interval grid: `resolution` equally spaced samples per interval.

    Both interval endpoints are included, shared knots once, so the grid has
    n_intervals * (resolution - 1) + 1 nodes and contains every knot exactly.
    """
    return np.append(_blocks(dataset, resolution)[:, :-1], dataset.xs[-1])


def _chords(datasets, resolution: int) -> np.ndarray:
    """Straight chords between each data set's endpoint ordinates, in block layout."""
    return np.concatenate([
        np.interp(_blocks(ds, resolution), [ds.xs[0], ds.xs[-1]], [ds.fs[0], ds.fs[-1]])
        for ds in datasets
    ])


def _as_family(datasets, blocks: np.ndarray) -> FunctionFamily:
    """The family on the standard grids whose values `blocks` holds in block layout.

    Block layout has one row of `resolution` values per map, in target
    order, with the knot at both ends. A vertex's grid values are its rows
    less their right knots, then its domain's right end.
    """
    fns, lo = [], 0
    for alpha, ds in enumerate(datasets, start=1):
        rows = blocks[lo:lo + ds.n_intervals]
        lo += ds.n_intervals
        fns.append(SampledFunction(alpha, standard_grid(ds, blocks.shape[1]),
                                   np.append(rows[:, :-1], rows[-1, -1])))
    return FunctionFamily(tuple(fns))


def initial_family(system: GifsSystem, resolution: int) -> FunctionFamily:
    """Straight chords between each data set's endpoint ordinates."""
    return _as_family(system.datasets, _chords(system.datasets, resolution))


def _check_family(system: GifsSystem, family: FunctionFamily):
    if family.n != system.n:
        raise ValueError(f"family covers {family.n} vertices, system has {system.n}")
    for alpha in range(1, system.n + 1):
        fn = family.get(alpha)
        ds = system.dataset(alpha)
        if fn.grid[0] != ds.xs[0] or fn.grid[-1] != ds.xs[-1]:
            raise ValueError(f"function for vertex {alpha} does not span its data set's domain")
        if fn.values[0] != ds.fs[0] or fn.values[-1] != ds.fs[-1]:
            raise ValueError(
                f"function for vertex {alpha} is not pinned to the endpoint ordinates"
            )


class _Transfer:
    """The transfer operator of one system at one resolution, as a stencil.

    Its output is in block layout: one row of `resolution` values per map,
    in target order, over the map's target interval with the knot at both
    ends. Each pullback t = (x - e) / a of a row's abscissas is located on
    its source grid once, as the index j of the node at or below it, so a
    sweep gathers the source values with no search and reproduces np.interp
    bit for bit. What does not change between sweeps is rounded here once,
    as a sweep would round it: dg = g[j+1] - g[j], dt = t - g[j] (kept in
    place of t) and ct = c t. A pullback strictly between g[j] and g[j + 1]
    takes np.interp's formula (v[j+1] - v[j]) / dg * dt + v[j]; the few
    that np.interp answers with a node value instead (an exact node hit, t
    below the grid, or t at or past its end) are marked where they are
    located, with j at that node, and take v[j] itself, signed zero
    included. np.interp's retry of a NaN result, which only an
    infinite source value can cause, is not reproduced. The gather runs in
    chunks of whole rows through reused buffers.

    With no `sources` the operator reads its own block layout, so each
    sweep's output is the next one's input. The pullbacks are then located
    among the block abscissas, where every interior knot appears twice. A
    row's right end is never the node at or below a pullback: the next
    row's copy of its knot is, and the last row's end is clipped away. So
    v[j + 1] is always the element after v[j], and the two copies of a knot
    hold equal values. Otherwise it reads the values of the grids
    `sources`, laid end to end. It reads its maps from `system.maps` as is.
    """

    _CHUNK = 16384  # pullbacks per gather: the chunk buffers stay in cache

    def __init__(self, system: GifsSystem, resolution: int, sources=None):
        datasets = system.datasets
        maps = np.fromiter(chain.from_iterable(chain(*system.maps)), float).reshape(-1, 6)
        a, c, self._d, e, self._f = np.split(maps[:, :5], 5, axis=1)
        firsts = np.cumsum([0] + [ds.n_intervals for ds in datasets])
        self._vertex = np.repeat(np.arange(1, len(datasets) + 1), np.diff(firsts))
        # the abscissas in C order, unlike the blocks, so that row slices are views
        x = np.concatenate([_blocks(ds, resolution) for ds in datasets],
                           out=np.empty((len(maps), resolution)))
        # a repeated node would be a zero step, and a sweep would divide 0 by 0
        narrow = ~(np.diff(x, axis=1) > 0).all(axis=1)
        if narrow.any():
            row = int(np.argmax(narrow))
            alpha = int(self._vertex[row])
            raise ValueError(
                f"interval {row - firsts[alpha - 1] + 1} of vertex {alpha} is too narrow to "
                f"sample at resolution {resolution}: its grid repeats nodes")
        if sources is None:
            sources = [x[lo:hi].ravel() for lo, hi in zip(firsts[:-1], firsts[1:])]
        starts = np.cumsum([0] + [g.size for g in sources])
        j = np.empty(x.shape, dtype=np.int32 if starts[-1] < 2**31 else np.intp)
        dg = np.empty(x.shape)
        hit = np.empty(x.shape, dtype=bool)
        read_from = maps[:, 5].astype(int) - 1
        per = max(1, self._CHUNK // resolution)
        # data near the float range may overflow here: the callers report it
        with np.errstate(all="ignore"):
            t = x - e
            t /= a
            ct = c * t
            for beta, grid in enumerate(sources):
                readers = np.flatnonzero(read_from == beta)
                # a few rows at a time, so the temporaries stay chunk-sized
                for k in range(0, readers.size, per):
                    rows = readers[k:k + per]
                    tb = t[rows]
                    jb = np.searchsorted(grid, tb, side="right") - 1
                    np.clip(jb, 0, grid.size - 2, out=jb)
                    g0 = grid[jb]
                    # np.interp reads a node value below the grid, on a node and
                    # at or past the grid's end: a hit, whose j is then that node
                    past = tb >= grid[-1]
                    hit[rows] = (g0 >= tb) | past
                    dg[rows] = grid[jb + 1] - g0
                    t[rows] = tb - g0
                    j[rows] = jb + past + starts[beta]
        self._chunks = [(slice(r0, r0 + per), np.flatnonzero(hit[r0:r0 + per]))
                        for r0 in range(0, len(maps), per)]
        self._j, self._dg, self._dt, self._ct = j, dg, t, ct
        self._idx = np.empty(t[:per].size, dtype=np.intp)
        self._buf = np.empty((2, self._idx.size))
        self._knots = np.concatenate([np.column_stack((ds.fs[:-1], ds.fs[1:]))
                                      for ds in datasets])
        self._step = resolution - 1

    # np.interp's formula runs at every entry, also where a node value then
    # replaces it: there a slope may overflow, and its product with dt = 0 is NaN.
    @np.errstate(all="ignore")
    def __call__(self, values: np.ndarray) -> np.ndarray:
        """New values in block layout from the source values, read in C order.

        The knot samples take the knot ordinates, on which the system's
        constructor checks that its maps land; the callers check the rest.
        """
        values = values.ravel()
        after = values[1:]
        idx, (v0_buf, v1_buf) = self._idx, self._buf
        new = np.empty(self._ct.shape)
        for rows, hits in self._chunks:
            dt = self._dt[rows]
            n = dt.size
            j = idx[:n]
            j[...] = self._j[rows].ravel()
            v0 = values.take(j, out=v0_buf[:n], mode="clip")
            s = after.take(j, out=v1_buf[:n], mode="clip")
            # np.interp's rounding: (v1 - v0) / dg * dt + v0
            s -= v0
            s /= self._dg[rows].ravel()
            s *= dt.ravel()
            s += v0
            s[hits] = v0[hits]
            # c t + d F(t) + f, rounded as the per-map formula (addition commutes)
            s = s.reshape(dt.shape)
            s *= self._d[rows]
            s += self._ct[rows]
            np.add(s, self._f[rows], out=new[rows])
        new[:, ::self._step] = self._knots
        return new


def apply_T(system: GifsSystem, family: FunctionFamily, resolution: int) -> FunctionFamily:
    """One application of the transfer operator, resampled on the standard grid.

    Each interval's block is computed from its wired source function via the
    pullback t = (x - e) / a. The system's maps land on their knots, so the
    knot samples are written exactly, and the result is admissible and
    interpolates all knots from the first application on. A result past
    the float range raises ValueError naming the vertex.
    """
    _check_family(system, family)
    sweep = _Transfer(system, resolution, [fn.grid for fn in family])
    new = sweep(np.concatenate([fn.values for fn in family]))
    _refuse_non_finite(new, sweep._vertex)
    return _as_family(system.datasets, new)


def sup_distance(u: SampledFunction, v: SampledFunction) -> float:
    """Exact sup distance between two piecewise-linear samplings.

    The grids may differ; the maximum of |u - v| is attained at a node of
    the union grid because the difference is piecewise linear there.
    """
    if u.vertex != v.vertex:
        raise ValueError(f"vertex mismatch: {u.vertex} vs {v.vertex}")
    union = np.union1d(u.grid, v.grid)
    return float(np.max(np.abs(u.evaluate(union) - v.evaluate(union))))


def family_distance(a: FunctionFamily, b: FunctionFamily) -> float:
    """Largest per-vertex sup distance."""
    if a.n != b.n:
        raise ValueError(f"family size mismatch: {a.n} vs {b.n}")
    return max(sup_distance(u, v) for u, v in zip(a, b))


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Converged family plus the iteration record.

    `error_bound` is the a posteriori bound final_delta * r / (1 - r) on the
    sup distance to the fixed family of the discretised operator, the one
    that resamples on the standard grid. It does not bound the distance to
    the true interpolants: the grid's own sampling error comes on top.
    """

    family: FunctionFamily
    iterations: int
    final_delta: float
    error_bound: float
    deltas: tuple[float, ...]


def fixed_point(
    system: GifsSystem,
    resolution: int = 64,
    tol: float = 1e-9,
    max_iters: int = 200,
) -> FixedPointResult:
    """Iterate the transfer operator from the chord family until it settles.

    Successive iterates share the same grids, so each delta is an exact sup
    distance and shrinks at least by the factor r per step. Stops once a
    delta drops to `tol`; raises ConvergenceError (carrying the iteration
    count and last delta) if `max_iters` steps are not enough. `tol` must be
    positive and finite.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    sweep = _Transfer(system, resolution)
    values = _chords(system.datasets, resolution)
    deltas: list[float] = []
    for iteration in range(1, max_iters + 1):
        nxt = sweep(values)
        # the old values are done with: take |old - new| in their place
        np.subtract(values, nxt, out=values)
        deltas.append(float(np.max(np.abs(values, out=values))))
        if not math.isfinite(deltas[-1]):
            _refuse_non_finite(values, sweep._vertex)
        values = nxt
        if deltas[-1] <= tol:
            break
    else:
        raise ConvergenceError(max_iters, deltas[-1], tol)
    del sweep  # the stencil goes before the grid layout is built
    delta = deltas[-1]
    return FixedPointResult(
        family=_as_family(system.datasets, values),
        iterations=iteration,
        final_delta=delta,
        error_bound=delta * system.r / (1.0 - system.r),
        deltas=tuple(deltas),
    )


def _knot_residual(dataset: DataSet, fn: SampledFunction) -> float:
    """Largest |fn(x_j) - F_j| over the data set's knots."""
    return float(np.max(np.abs(fn.evaluate(dataset.xs) - dataset.fs)))


def interpolation_residual(system: GifsSystem, family: FunctionFamily) -> float:
    """Largest |family(x_j) - F_j| over every knot of every data set."""
    return max(_knot_residual(system.dataset(alpha), family.get(alpha))
               for alpha in range(1, system.n + 1))


# The deepest pullback chain evaluate_exact walks. The chain holds one
# entry per level, about 100 bytes: depth 2**20 took 0.9 s and 151 MiB
# max RSS on a 2-vCPU Xeon VM, and depth 10**8 would hold about 10 GB.
# For r <= 0.99996, r**(2**20) is already below 2**-53, so a deeper walk
# could not change a value by more than round-off.
_MAX_DEPTH = 1 << 20


def evaluate_exact(system: GifsSystem, alpha: int, x: float, depth: int) -> float:
    """Pointwise value by repeated pullback, with no sampling grid at all.

    Follows the interval containing x back through its wired source `depth`
    times and bottoms out on the straight chord, which reproduces the value
    of the depth-fold operator power applied to the chord family. The error
    against the true interpolant is at most r**depth times the chord
    family's distance to it. Every operator power interpolates the data, so
    an abscissa that is exactly a knot, at the top or anywhere down the
    chain with depth left, takes the knot's ordinate: knots evaluate to
    their data ordinates at every depth, free of the round-off that further
    pullbacks would amplify. The walk reads its cache `GifsSystem.table` by
    vertex number: knot lists, domain ends and the `AffineMap` tuples
    themselves, unpacked as (a, c, d, e, f, source). A value past the float
    range, or a depth past _MAX_DEPTH, raises ValueError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth must be at most {_MAX_DEPTH} (2**20)")
    if not 1 <= alpha <= system.n:
        raise ValueError(f"vertex {alpha} is outside 1..{system.n}")
    table = system.table
    xs, fs, maps, lo, hi = table[alpha]
    x = float(x)
    if not lo <= x <= hi:
        raise ValueError(f"x = {x:g} is outside [{lo:g}, {hi:g}] for vertex {alpha}")
    levels = []
    for _ in range(depth):
        i = bisect_left(xs, x)
        if xs[i] == x:
            value = fs[i]
            break
        a, c, d, e, f, source = maps[i - 1]
        xs, fs, maps, lo, hi = table[source]
        t = (x - e) / a
        # round-off can push the pullback a few ulp past the source domain
        if t < lo:
            t = lo
        elif t > hi:
            t = hi
        levels.append((c, d, f, t))
        x = t
    else:
        value = fs[0] + (x - xs[0]) * (fs[-1] - fs[0]) / (xs[-1] - xs[0])
    for c, d, f, t in reversed(levels):
        value = c * t + d * value + f
    if not math.isfinite(value):
        _refuse_non_finite(np.array([[value]]), alpha)
    return value

"""Data sets and directed-graph wiring for graph-directed fractal interpolation.

A construction starts from n planar data sets and a wiring plan that gives
every interval of every data set a source vertex and a vertical scaling
factor. Everything here is immutable, and `validate` collects every
violation into a report instead of raising on the first one, so a caller
can show all problems at once. Only structurally malformed input (vertex
count mismatch, unknown mode) raises.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

STRICT_MODE = "paper-strict"
USED_EDGES_MODE = "used-edges-only"
CONDITION3_MODES = (STRICT_MODE, USED_EDGES_MODE)


@dataclass(frozen=True)
class DataSet:
    """Ordered interpolation points (x_j, F_j) for one vertex.

    Downstream construction needs at least 3 finite points with strictly
    increasing abscissas. `validate` and a `GifsSystem` check that, not the
    data set, so that suspect input can still be loaded and diagnosed.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(F)) for x, F in self.points)
        if not pts:
            raise ValueError("a data set needs at least one point")
        object.__setattr__(self, "points", pts)

    @cached_property
    def xs(self) -> np.ndarray:
        arr = np.array([p[0] for p in self.points], dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def fs(self) -> np.ndarray:
        arr = np.array([p[1] for p in self.points], dtype=float)
        arr.setflags(write=False)
        return arr

    @property
    def n_intervals(self) -> int:
        return len(self.points) - 1

    @property
    def span(self) -> float:
        return self.points[-1][0] - self.points[0][0]

    @property
    def first(self) -> tuple[float, float]:
        return self.points[0]

    @property
    def last(self) -> tuple[float, float]:
        return self.points[-1]


@dataclass(frozen=True)
class IntervalAssignment:
    """One interval's source vertex (1-based) and vertical scaling factor."""

    source: int
    d: float


@dataclass(frozen=True)
class WiringPlan:
    """Ordered interval assignments per vertex; encodes the directed graph.

    `assignments[k]` holds the assignments for vertex k+1, one per interval,
    in interval order. Vertex indices are 1-based throughout the public API.
    """

    assignments: tuple[tuple[IntervalAssignment, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.assignments)
        if not rows:
            raise ValueError("a wiring plan needs at least one vertex")
        for alpha, row in enumerate(rows, start=1):
            for i, asg in enumerate(row, start=1):
                if not isinstance(asg, IntervalAssignment):
                    raise TypeError(f"expected IntervalAssignment, got {type(asg).__name__}")
                if not isinstance(asg.source, numbers.Integral):
                    raise TypeError(f"interval {i} of vertex {alpha} names source vertex "
                                    f"{asg.source!r}, which is not an integer")
        object.__setattr__(self, "assignments", rows)

    @property
    def n(self) -> int:
        return len(self.assignments)

    def for_vertex(self, alpha: int) -> tuple[IntervalAssignment, ...]:
        return self.assignments[alpha - 1]

    @classmethod
    def from_pairs(cls, per_vertex) -> "WiringPlan":
        """Build a plan from [[(source, d), ...], ...], one inner list per vertex."""
        return cls(tuple(
            tuple(IntervalAssignment(s, float(d)) for s, d in row)
            for row in per_vertex
        ))


def _check_vertex_order(vertices) -> None:
    """Raise ValueError unless the vertices run 1, 2, ... in order."""
    for k, v in enumerate(vertices, start=1):
        if v != k:
            raise ValueError(f"expected vertex {k} at position {k - 1}, got {v}")


@dataclass(frozen=True)
class Violation:
    """One failed check: a stable code, a human message, and the indices involved.

    Codes in use: points/count, points/finite, points/order, wiring/length,
    wiring/source, wiring/factor (the per-vertex rules of
    `vertex_violations`, whose messages a `GifsSystem` raises too) and
    data/width-ratio, whose indices are (span_vertex, width_vertex, interval).
    """

    code: str
    message: str
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    strongly_connected: bool
    condition3_mode: str

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


def vertex_violations(alpha: int, n: int, ds: DataSet, wiring):
    """Yield vertex alpha's violations of the per-vertex rules, in report order.

    `ds` is the vertex's data set and `wiring` holds one (source, d) pair per
    interval, in a system of n vertices. The rules: at least 3 points, finite
    coordinates, strictly increasing abscissas, one pair per interval, a
    source in 1..n and |d| < 1. `validate` reports every violation and a
    `GifsSystem` raises the first, so each rule has one wording.
    """
    points = ds.points
    if len(points) < 3:
        yield Violation("points/count", f"the data set of vertex {alpha} has {len(points)} "
                                        "points, need at least 3", (alpha,))
    for j, (x, F) in enumerate(points):
        if not (math.isfinite(x) and math.isfinite(F)):
            yield Violation("points/finite", f"point {j} of data set {alpha} has a non-finite "
                                             "coordinate", (alpha, j))
    for j in range(1, len(points)):
        if not points[j][0] > points[j - 1][0]:
            yield Violation("points/order", f"abscissas of data set {alpha} are not strictly "
                                            f"increasing at index {j}", (alpha, j))
    if len(wiring) != ds.n_intervals:
        yield Violation("wiring/length", f"vertex {alpha} has {len(wiring)} maps for "
                                         f"{ds.n_intervals} intervals", (alpha,))
    for i, (source, d) in enumerate(wiring, start=1):
        if not 1 <= source <= n:
            yield Violation("wiring/source", f"interval {i} of vertex {alpha} names source "
                                             f"vertex {source}, valid range is 1..{n}", (alpha, i))
        if not abs(d) < 1.0:  # NaN compares false too
            yield Violation("wiring/factor",
                            f"interval {i} of vertex {alpha} has |d| = {abs(d):g}, must be < 1",
                            (alpha, i))


def validate(datasets, plan: WiringPlan, mode: str = STRICT_MODE) -> ValidationReport:
    """Check every hypothesis the construction needs; report, don't raise.

    Reports every violation of `vertex_violations`' per-vertex rules: the
    point rules of every data set first, then the wiring rules of every
    vertex. Then the width rule: every interval must be narrower than the
    span of every data set, its own included (strict mode), or of each data
    set it is wired to (used-edges mode, where only wired source/target
    pairs are held to the rule). That makes every map's `a` lie in (0, 1)
    even after rounding. Strong connectivity of the induced digraph is
    reported as information, not as a violation.

    Raises ValueError only for structural errors: empty input, unknown mode,
    or a vertex-count mismatch between `datasets` and `plan`.
    """
    if mode not in CONDITION3_MODES:
        raise ValueError(f"unknown width-condition mode {mode!r}, expected one of {CONDITION3_MODES}")
    datasets = tuple(datasets)
    if not datasets:
        raise ValueError("no data sets given")
    if plan.n != len(datasets):
        raise ValueError(
            f"wiring plan covers {plan.n} vertices but {len(datasets)} data sets were given"
        )

    n = plan.n
    violations: list[Violation] = []
    for alpha, (ds, row) in enumerate(zip(datasets, plan.assignments), start=1):
        violations.extend(vertex_violations(alpha, n, ds, [(a.source, a.d) for a in row]))
    # A stable sort: every data set's point violations before any wiring one.
    violations.sort(key=lambda v: v.code.startswith("wiring/"))

    for span_vertex, width_vertex in sorted(_width_condition_pairs(plan, mode)):
        src = datasets[span_vertex - 1]
        tgt = datasets[width_vertex - 1]
        for j in range(1, len(tgt.points)):
            width = tgt.points[j][0] - tgt.points[j - 1][0]
            if not width < src.span:
                violations.append(Violation(
                    "data/width-ratio",
                    f"interval {j} of data set {width_vertex} (width {width:g}) must be "
                    f"narrower than the span of data set {span_vertex} ({src.span:g})",
                    (span_vertex, width_vertex, j),
                ))

    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        strongly_connected=_strongly_connected(plan),
        condition3_mode=mode,
    )


def _edges(plan: WiringPlan):
    """Yield (source, target) for every assignment whose source lies in 1..n."""
    for target, row in enumerate(plan.assignments, start=1):
        for asg in row:
            if 1 <= asg.source <= plan.n:
                yield asg.source, target


def _width_condition_pairs(plan: WiringPlan, mode: str) -> set[tuple[int, int]]:
    """Ordered (span_vertex, width_vertex) pairs the width condition covers.

    Strict mode takes all ordered pairs, self-pairs included. Used-edges mode
    takes the pair (source, target) of every wired interval, a self-wired one
    included: the target's intervals must be narrower than the source's span,
    which is exactly what makes the horizontal part of each wired map a
    contraction. A self-pair fails only when rounding makes a width equal
    the span; without it such an interval would get a = 1.0. When the
    rounded width is below the rounded span, their rounded quotient is at
    most 1 - 2**-53.
    """
    if mode == STRICT_MODE:
        return {(a, b) for a in range(1, plan.n + 1) for b in range(1, plan.n + 1)}
    return set(_edges(plan))


def _strongly_connected(plan: WiringPlan) -> bool:
    """True when every vertex reaches every other along wired assignments."""
    n = plan.n
    fwd = [set() for _ in range(n)]
    rev = [set() for _ in range(n)]
    for source, target in _edges(plan):
        fwd[target - 1].add(source - 1)
        rev[source - 1].add(target - 1)

    def reaches_all(adj) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reaches_all(fwd) and reaches_all(rev)


def edge_counts(plan: WiringPlan) -> list[list[int]]:
    """n-by-n matrix K with K[a][b] = number of intervals of vertex a+1 wired to b+1.

    Row sums equal the interval counts whenever the plan matches its data
    sets. Raises ValueError if an assignment names a source outside 1..n.
    """
    n = plan.n
    counts = [[0] * n for _ in range(n)]
    for alpha, row in enumerate(plan.assignments):
        for i, asg in enumerate(row, start=1):
            if not 1 <= asg.source <= n:
                raise ValueError(
                    f"interval {i} of vertex {alpha + 1} names source vertex "
                    f"{asg.source}, valid range is 1..{n}"
                )
            counts[alpha][asg.source - 1] += 1
    return counts

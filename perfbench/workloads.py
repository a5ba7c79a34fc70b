"""Seeded workload inputs for the gdfif benchmark.

The generators run in the benchmark's parent process; the program under
test receives only what they produce: point lists and wiring for
fine-solve, a YAML config for wide-system, and for every workload a batch
of evaluate_exact abscissas. bundled-run runs the bundled configs as
shipped; only its abscissas depend on the seed.

Each synthetic workload draws one base system from a fixed stream. The
seed then draws a relabelling of its vertices, a reflection y -> -y and
the abscissas. Relabelling and reflection change every output but none of
the arithmetic, so the solver's sweep count and the cloud sizes are the
same for every seed. On freshly drawn random systems the sweep count to
tol 1e-9 ranges over 19-24 with the data, which alone would spread
solve_s by about 10% from seed to seed. A seed selects one of `VARIANTS`
variants (seed modulo `VARIANTS`), so outputs can be checked against
digests recorded once per variant in `expected.json`.
"""

from __future__ import annotations

import numpy as np

VARIANTS = 32
BUNDLED = ("example1", "example2", "example2b", "flat")

# Why each workload exists and what it predicts. The first string of each
# entry is the `why` in BENCHMARK.json.
WHY = {
    "bundled-run": (
        "gdfif run on the four bundled configs, what users run: dedup and "
        "SVG/PGM export do nearly all the work, the solver under 1%",
        "Dedup, CSV, SVG and PGM changes move pass_s and peak_rss_mib here; "
        "a solver change must leave pass_s unchanged. Every artifact is "
        "checked byte for byte against digests recorded at the seed commit.",
    ),
    "fine-solve": (
        "4x16 synthetic system solved at resolution 4096 to tol 1e-9 plus a "
        "2000-point evaluate_exact batch: funcspace does all the work",
        "A gather kernel for apply_T or an array evaluate_exact moves solve_s "
        "and eval_s here; dedup and render changes must move nothing.",
    ),
    "wide-system": (
        "8x40 synthetic config (320 maps) through gdfif run: per-interval, "
        "per-map and per-point Python overhead dominates",
        "Same layers as bundled-run used differently: apply_T over 320 "
        "intervals, hutchinson_step over 320 maps, the 100k-step chaos loop, "
        "CSV export and the summary's Hausdorff query over about 500k points.",
    ),
}

FINE = {"vertices": 4, "intervals": 16, "d_max": 0.5, "resolution": 4096,
        "tol": 1e-9, "max_iters": 200}
WIDE = {"vertices": 8, "intervals": 40, "d_max": 0.5, "resolution": 64,
        "tol": 1e-9, "max_iters": 200, "generations": 2, "dedup_tol": 1e-3,
        "chaos_points": 100_000, "burn_in": 100}
EVAL_POINTS = 2000
EVAL_DEPTH = 30


def variant(seed: int) -> int:
    return int(seed) % VARIANTS


def _stream(workload: str, *key: int) -> np.random.Generator:
    return np.random.default_rng([sum(workload.encode()), *key])


def base_system(rng: np.random.Generator, vertices: int, intervals: int,
                d_max: float) -> tuple[list, list]:
    """Random data sets and wiring that meet the strict width condition.

    Spans lie in [8, 12] and interval widths within one data set differ by
    at most 3x, so no interval is wider than 3/(intervals + 2) of its span,
    far below any other data set's span. Every vertex has one interval with
    |d| = d_max and the rest uniform in [-d_max, d_max]. Returns
    (points per vertex, [(source, d), ...] per vertex).
    """
    points, wiring = [], []
    for _ in range(vertices):
        span = rng.uniform(8.0, 12.0)
        x0 = rng.uniform(-5.0, 5.0)
        steps = np.cumsum(rng.uniform(0.5, 1.5, intervals))
        xs = np.concatenate(([x0], x0 + span * steps / steps[-1]))
        ys = np.cumsum(rng.normal(0.0, 1.0, intervals + 1))
        points.append([(float(x), float(y)) for x, y in zip(xs, ys)])
        sources = rng.integers(1, vertices + 1, intervals)
        ds = rng.uniform(-d_max, d_max, intervals)
        ds[rng.integers(0, intervals)] = d_max * rng.choice((-1.0, 1.0))
        wiring.append([(int(s), float(d)) for s, d in zip(sources, ds)])
    return points, wiring


def relabel(points, wiring, rng: np.random.Generator) -> tuple[list, list]:
    """Permute the vertices and reflect y -> -y with probability 1/2.

    Both are exact in floating point, so the solver and the attractor
    iteration do the same arithmetic on the result as on the input.
    """
    n = len(points)
    new_of_old = rng.permutation(n)
    sign = float(rng.choice((-1.0, 1.0)))
    out_points, out_wiring = [None] * n, [None] * n
    for old in range(n):
        new = int(new_of_old[old])
        out_points[new] = [(x, sign * y) for x, y in points[old]]
        out_wiring[new] = [(int(new_of_old[s - 1]) + 1, d) for s, d in wiring[old]]
    return out_points, out_wiring


def abscissas(rng: np.random.Generator, domains, count: int) -> list[tuple[int, float]]:
    """`count` (vertex, x) pairs: vertex uniform, x uniform in its domain."""
    out = []
    for k, u in zip(rng.integers(0, len(domains), count), rng.uniform(0.0, 1.0, count)):
        lo, hi = domains[k]
        out.append((int(k) + 1, float(min(hi, lo + u * (hi - lo)))))
    return out


def _synthetic(workload: str, shape: dict, seed: int):
    points, wiring = base_system(_stream(workload, 0), shape["vertices"],
                                 shape["intervals"], shape["d_max"])
    rng = _stream(workload, 1, variant(seed))
    points, wiring = relabel(points, wiring, rng)
    queries = abscissas(rng, [(p[0][0], p[-1][0]) for p in points], EVAL_POINTS)
    return points, wiring, queries


def fine_inputs(seed: int) -> dict:
    points, wiring, queries = _synthetic("fine-solve", FINE, seed)
    return {"points": points, "wiring": wiring, "queries": queries}


def wide_inputs(seed: int) -> dict:
    """The wide-system config as YAML text, plus its evaluate_exact queries."""
    points, wiring, queries = _synthetic("wide-system", WIDE, seed)
    lines = [f"name: wide-{variant(seed)}", "datasets:"]
    for pts in points:
        lines.append("  - points: [" + ", ".join(f"[{x!r}, {y!r}]" for x, y in pts) + "]")
    lines.append("wiring:")
    for row in wiring:
        lines.append("  - intervals:")
        lines.extend(f"      - {{source: {s}, d: {d!r}}}" for s, d in row)
    lines += [
        f"solver: {{resolution: {WIDE['resolution']}, tol: {WIDE['tol']!r}, "
        f"max_iters: {WIDE['max_iters']}}}",
        f"attractor: {{generations: {WIDE['generations']}, dedup_tol: {WIDE['dedup_tol']!r}, "
        f"chaos_points: {WIDE['chaos_points']}, burn_in: {WIDE['burn_in']}, "
        f"seed: {variant(seed)}}}",
        "condition3_mode: paper-strict",
        "outputs:",
        "  csv: wide_curve.csv",
        "  chaos_csv: wide_chaos.csv",
        "  summary: wide_summary.json",
    ]
    return {"yaml": "\n".join(lines) + "\n", "queries": queries}


def bundled_inputs(seed: int, domains: dict) -> dict:
    """evaluate_exact queries over the vertices of all bundled configs.

    `domains` maps each bundled config name to its vertices' (lo, hi)
    domains in vertex order. The configs themselves run as shipped, in a
    fixed order, so every seed does the same work in the same order.
    """
    rng = _stream("bundled-run", 1, int(seed))
    slots = [(name, vertex) for name in BUNDLED for vertex in range(1, len(domains[name]) + 1)]
    picks = abscissas(rng, [domains[name][v - 1] for name, v in slots], EVAL_POINTS)
    queries = [(*slots[k - 1], x) for k, x in picks]
    return {"queries": queries}

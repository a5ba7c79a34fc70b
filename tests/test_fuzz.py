"""Seeded fuzz of the command line's exit-code contract.

After Claessen and Hughes, "QuickCheck" (ICFP 2000): each seed of a fixed
list draws configs from numpy's generator, with 1-3 vertices, coordinates
scaled from 1e-300 to 1e300, |d| from 0 to 1 - 2**-52, intervals one ulp
wide, resolutions 2-64, extreme `tol` and `dedup_tol`, and the overflow
shape of tests/test_cli.py (ordinates Y, -Y over an interval 1e-8 wide).
Each config goes through `gdfif run` and `gdfif eval` in-process with
every warning an error. Whatever the config, the run must end in one of
the documented exits, in the documented form, with nothing else on stderr.
"""

import warnings

import numpy as np
import yaml

from gdfif.cli import main
from support import strict_finite_json

SEEDS = (17, 29, 31, 43)
CONFIGS_PER_SEED = 30
TOLS = (5e-324, 1e-300, 1e-12, 1e-9, 1e-3, 1.0, 1e300)
DEDUP_TOLS = (0.0, 5e-324, 1e-300, 1e-9, 1e-3, 1.0, 1e300)
POINT_CAP = 4000  # keeps each run to milliseconds


def random_points(rng, x0, span, scale_y):
    """4-6 points over [x0, x0 + span]; now and then one interval is one ulp wide."""
    k = int(rng.integers(4, 7))
    gaps = rng.uniform(0.4, 1.6, k - 1)
    xs = x0 + np.concatenate(([0.0], np.cumsum(gaps))) * (span / gaps.sum())
    xs[-1] = x0 + span
    if rng.random() < 0.2:
        i = int(rng.integers(0, k - 2))
        xs[i + 1] = np.nextafter(xs[i], np.inf)
    ys = rng.uniform(-1.0, 1.0, k) * scale_y
    return [[float(x), float(y)] for x, y in zip(xs, ys)]


def random_d(rng) -> float:
    d = rng.choice([0.0, float(rng.uniform(0.0, 1.0)), 0.5, 1.0 - 2.0**-52])
    return float(d) * float(rng.choice([-1.0, 1.0]))


def overflow_shape(rng) -> dict:
    """One vertex rising to Y over 1e-8, then down to -Y: the sweep's slopes overflow."""
    y = 10.0 ** rng.uniform(299.0, 308.0)
    return {"datasets": [{"points": [[0, 0], [1.0e-8, y], [1, -y], [2, 0]]}],
            "wiring": [{"intervals": [{"source": 1, "d": 0.5}] * 3}]}


def random_config(rng) -> dict:
    if rng.random() < 0.15:
        config = overflow_shape(rng)
    else:
        n = int(rng.integers(1, 4))
        # half the scales moderate; now and then each vertex at its own
        exponents = rng.uniform(-300.0, 300.0, (2, n if rng.random() < 0.2 else 1))
        scale_x, scale_y = np.broadcast_to(10.0 ** (exponents * rng.choice([0.01, 1.0])), (2, n))
        # now and then far from 0, so that intervals are some ulps wide
        far = 10.0 ** rng.choice([0.0, 13.0])
        x0 = np.minimum(scale_x, 1e300 / far) * rng.uniform(-3.0, 3.0) * far
        points = [random_points(rng, x0[k], scale_x[k] * rng.uniform(0.8, 1.25), scale_y[k])
                  for k in range(n)]
        config = {
            "datasets": [{"points": p} for p in points],
            "wiring": [{"intervals": [{"source": int(rng.integers(1, n + 1)), "d": random_d(rng)}
                                      for _ in range(len(p) - 1)]} for p in points],
        }
    maps = sum(len(p["points"]) - 1 for p in config["datasets"])
    generations = int(rng.integers(1, 5))
    while generations > 1 and maps ** generations > POINT_CAP:
        generations -= 1
    config["solver"] = {"resolution": int(rng.integers(2, 65)),
                        "tol": float(rng.choice(TOLS)),
                        "max_iters": int(rng.integers(1, 201))}
    config["attractor"] = {"generations": generations,
                           "dedup_tol": float(rng.choice(DEDUP_TOLS))}
    config["condition3_mode"] = str(rng.choice(["paper-strict", "used-edges-only"]))
    if rng.random() < 0.3:
        config["outputs"] = {"csv": "f.csv", "cloud_csv": "c.csv", "svg": "a.svg", "pgm": "a.pgm"}
    return config


def check_exit(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        strict_finite_json(out)
        assert err == ""
    elif code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert out == ""
        assert strict_finite_json(err)["error"] == "no-convergence"
    return code


def test_every_config_ends_in_a_documented_exit(tmp_path, capsys):
    codes = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for k in range(CONFIGS_PER_SEED):
            config = random_config(rng)
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(yaml.safe_dump(config))
            points = config["datasets"][0]["points"]
            x = points[0][0] + float(rng.uniform(0.0, 1.0)) * (points[-1][0] - points[0][0])
            try:
                codes.append(check_exit(["run", str(cfg), "--outdir", str(tmp_path / "out")],
                                        capsys))
                check_exit(["eval", str(cfg), f"--x={x!r}"], capsys)
            except BaseException:
                print(f"seed {seed}, config {k}:\n{yaml.safe_dump(config)}")
                raise
    # the draws reach every exit, so each form above is checked
    assert set(codes) == {0, 1, 2, 3}

"""gdfif benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. The workload's inputs are generated here from the seed
and handed to a fresh worker process (perfbench/worker.py), which sets up,
runs one warm-up pass and then passes for S seconds, one operation at a
time, and checks every output. With --trace 0 set-up is also timed in
PROBES further fresh interpreters, half before and half after the run.
All times are CPU seconds. Those of operations are scaled to a reference
host speed by a calibration kernel timed around every operation (see
host_scale); unscaled and wall-clock medians go to the details line.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it holds the details: the machine, the operation count each
median rests on, and the first failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PROBES = 4
# Median CPU seconds of worker.calibrate() on the machine the bounds were
# set on: 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6.
CALIBRATION_REF_S = 0.0183
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def machine() -> dict:
    """What a result was measured on, so results from two machines are never mixed."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        cpu = platform.processor() or cpu
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _bundled_domains() -> dict:
    out = {}
    for name in workloads.BUNDLED:
        raw = yaml.safe_load((ROOT / "src/gdfif/configs" / f"{name}.yaml").read_text())
        out[name] = [(float(d["points"][0][0]), float(d["points"][-1][0]))
                     for d in raw["datasets"]]
    return out


def make_spec(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
              expected: dict) -> dict:
    """Generate the workload's inputs and pick the outputs they are checked against.

    `expected` is the content of expected.json.
    """
    key = str(workloads.variant(seed))
    spec = {"workload": workload, "root": str(ROOT), "workdir": str(workdir),
            "seconds": seconds, "trace": trace, "depth": workloads.EVAL_DEPTH}
    if workload == "bundled-run":
        spec["bundled"] = workloads.BUNDLED
        spec["inputs"] = workloads.bundled_inputs(seed, _bundled_domains())
        spec["expected"] = expected["bundled-run"]
    elif workload == "fine-solve":
        spec["inputs"] = workloads.fine_inputs(seed)
        spec["solver"] = {k: workloads.FINE[k] for k in ("resolution", "tol", "max_iters")}
        spec["expected"] = expected["fine-solve"].get(key)
    else:
        generated = workloads.wide_inputs(seed)
        config = workdir / "wide.yaml"
        config.write_text(generated["yaml"])
        spec["inputs"] = {"config": str(config), "queries": generated["queries"]}
        spec["expected"] = expected["wide-system"].get(key)
    return spec


def worker(spec: dict, workdir: Path, mode: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result_path = workdir / f"result-{mode}.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), str(spec_path), str(result_path), mode],
        stdout=subprocess.DEVNULL, timeout=timeout, cwd=workdir,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(result: dict, probes: list[dict]) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the operation count each rests on, and raw times.

    The times of operations are CPU seconds at the reference host speed
    (see `host_scale`); set-up time is plain CPU seconds. The unscaled
    medians and the wall-clock medians are returned for the details line.
    """
    measured = [op for op in result["ops"] if op["group"] != "warmup"]
    passes = sorted({op["group"] for op in measured if isinstance(op["group"], int)})
    typical = _median([op["cal_before_s"] for op in measured])

    def per_pass(time_of):
        return [sum(time_of(op) for op in measured if op["group"] == g and not op["extra"])
                for g in passes]

    def times(time_of):
        return {"pass_s": _median(per_pass(time_of)),
                **{f"{kind}_s": _median([time_of(op) for op in measured if op["kind"] == kind])
                   for kind in ("solve", "eval")}}

    scaled = times(lambda op: op["s"] * host_scale(op, typical))
    metrics = {
        **{name: (value, "s") for name, value in scaled.items()},
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
        "setup_s": (_median([p["setup_s"] for p in probes]), "s"),
    }
    counts = {"pass_s": len(passes),
              "solve_s": sum(op["kind"] == "solve" for op in measured),
              "eval_s": sum(op["kind"] == "eval" for op in measured),
              "peak_rss_mib": 1, "setup_s": len(probes)}
    raw = {"unscaled_s": times(lambda op: op["s"]),
           "calibration_s": typical,
           "wall_s": _median(per_pass(lambda op: op["wall_s"])),
           "setup_wall_s": _median([p["setup_wall_s"] for p in probes])}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, counts, raw


def host_scale(op: dict, typical: float) -> float:
    """Factor by which an operation's CPU time is scaled.

    The shared host's speed changes by 10-50% for seconds to minutes at a
    time, for CPU time as much as for wall time, so the same operation
    reads differently from run to run. The worker times a calibration
    kernel just before and just after every operation. An operation's
    factor is CALIBRATION_REF_S over the median of those two readings and
    `typical`, the run's median reading: when both readings show the host
    fast or slow, the operation ran at that speed too, and a single reading
    off on its own is outvoted. The kernel
    runs no gdfif code, so a change to gdfif moves scaled times as it moves
    unscaled ones.
    """
    return CALIBRATION_REF_S / statistics.median(
        [op["cal_before_s"], op["cal_after_s"], typical])


# Per-layer metrics: span name -> metric of its summed span time.
TIMED = {
    "cli.load_config": "cli.load_config.s",
    "funcspace.fixed_point": "funcspace.fixed_point.s",
    "funcspace.apply_T": "funcspace.apply_T.s",
    "funcspace.family_distance": "funcspace.family_distance.s",
    "funcspace.evaluate_exact": "funcspace.evaluate_exact.s",
    "funcspace.interpolation_residual": "funcspace.interpolation_residual.s",
    "attractor.hausdorff_distance": "attractor.hausdorff_distance.s",
    "attractor.iterate_attractor": "attractor.iterate_attractor.s",
    "attractor.hutchinson_step": "attractor.hutchinson_step.s",
    "attractor.chaos_game": "attractor.chaos_game.s",
    "render.render_svg": "render.render_svg.s",
    "render.render_pgm": "render.render_pgm.s",
    "render.export_csv": "render.export_csv.s",
}
# Summed span counts: (span name, count key) -> metric.
COUNTED = {
    ("funcspace.fixed_point", "iterations"): "funcspace.fixed_point.iterations",
    ("funcspace.fixed_point", "samples"): "funcspace.samples",
    ("attractor.hausdorff_distance", "points"): "attractor.hausdorff_distance.points",
    ("attractor.hutchinson_step", "before"): "attractor.points_before_dedup",
    ("attractor.hutchinson_step", "after"): "attractor.points_after_dedup",
    ("attractor.iterate_attractor", "after"): "attractor.points_after_dedup",
    ("render.render_svg", "bytes"): "render.render_svg.bytes",
    ("render.render_pgm", "points"): "render.render_pgm.points",
    ("render.export_csv", "rows"): "render.export_csv.rows",
}
PER_LAYER_UNITS = {
    "import.s": "s", "model.validate.s": "s", "maps.build_system.s": "s", "maps.maps": "count",
    "cli.main.self_s": "s", "funcspace.apply_T.s_per_sweep": "s",
    "funcspace.evaluate_exact.us_per_point": "us", "attractor.dedup_s": "s",
    "attractor.dedup_keep_ratio": "ratio", "attractor.chaos_game.points_per_s": "1/s",
    "trace.pass_s": "s", "trace.coverage": "ratio",
    **{m: "s" for m in TIMED.values()},
    **{m: "bytes" if m.endswith("bytes") else "count" for m in COUNTED.values()},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_layers(spans: list) -> tuple[dict, dict]:
    """Per-layer values of one pass, from the spans inside its operations,
    and the self time of each layer: its spans' time minus their children's."""
    by_id = {s[0]: s for s in spans}
    ops = [s for s in spans if s[3] == "op"]
    op_ids = {s[0] for s in ops}

    def in_op(span) -> bool:
        while span[1] is not None:
            if span[1] in op_ids:
                return True
            span = by_id[span[1]]
        return False

    inner = [s for s in spans if s[3] != "op" and in_op(s)]
    child_time: dict[int, float] = {}
    for s in inner:
        child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    v = {m: 0.0 for m in PER_LAYER_UNITS}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in inner:
        name, duration = s[3], s[5] - s[4]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration - child_time.get(s[0], 0.0)
        if name in TIMED:
            v[TIMED[name]] += duration
        for key, count in s[6].items():
            metric = COUNTED.get((name, key))
            if metric:
                v[metric] += count
    wall = sum(s[5] - s[4] for s in ops)
    v["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    v["trace.pass_s"] = wall
    v["trace.coverage"] = _ratio(sum(child_time.get(s[0], 0.0) for s in ops), wall)
    v["funcspace.apply_T.s_per_sweep"] = _ratio(v["funcspace.apply_T.s"],
                                                calls.get("funcspace.apply_T", 0))
    v["funcspace.evaluate_exact.us_per_point"] = 1e6 * _ratio(
        v["funcspace.evaluate_exact.s"], calls.get("funcspace.evaluate_exact", 0))
    v["attractor.dedup_s"] = v["attractor.iterate_attractor.s"] - v["attractor.hutchinson_step.s"]
    v["attractor.dedup_keep_ratio"] = _ratio(v["attractor.points_after_dedup"],
                                             v["attractor.points_before_dedup"])
    v["attractor.chaos_game.points_per_s"] = _ratio(
        sum(s[6].get("points", 0) for s in inner if s[3] == "attractor.chaos_game"),
        v["attractor.chaos_game.s"])
    return v, self_s


def per_layer(result: dict) -> tuple[dict, int, dict]:
    """Median per-pass layer values of a traced run, plus the set-up layers.

    Returns the metrics, the number of passes they are medians of, and
    each layer's median self time.
    """
    spans = result["spans"]
    groups = sorted({s[2] for s in spans if isinstance(s[2], int)})
    passes, selfs = zip(*[_pass_layers([s for s in spans if s[2] == g]) for g in groups])
    values = {m: _median([p[m] for p in passes]) for m in PER_LAYER_UNITS}
    self_s = {name: _median([p.get(name, 0.0) for p in selfs])
              for name in sorted(set().union(*selfs))}
    setup = [s for s in spans if s[2] == "setup"]
    values["import.s"] = result["import_s"]
    values["model.validate.s"] = sum(s[5] - s[4] for s in setup if s[3] == "model.validate")
    values["maps.build_system.s"] = sum(s[5] - s[4] for s in setup
                                        if s[3] == "maps.build_system")
    values["maps.maps"] = sum(s[6].get("maps", 0) for s in setup if s[3] == "maps.build_system")
    metrics = {m: {"value": values[m], "unit": PER_LAYER_UNITS[m]} for m in PER_LAYER_UNITS}
    return metrics, len(passes), self_s


def _steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, or (0, 0) if unknown."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(t) for t in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under .perfbench_work in the checkout, removed afterwards."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload once; return (result line, details)."""
    steal_before = _steal_ticks()
    with work_dir(f"{workload}-") as workdir:
        expected = json.loads((HERE / "expected.json").read_text())
        spec = make_spec(workload, seed, seconds, trace, workdir, expected)
        probes, failures = [], []

        def probe(count):
            for _ in range(0 if trace else count):
                try:
                    probes.append(worker(spec, workdir, "setup", PROBE_TIMEOUT_S))
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    failures.append(f"set-up probe: {exc}")

        probe(PROBES // 2)
        result = worker(spec, workdir, "run", RUN_TIMEOUT_S)
        probe(PROBES - PROBES // 2)
    steal = [after - before for after, before in zip(_steal_ticks(), steal_before)]
    ops = result["ops"]
    failures += [f"{op['kind']} {op['label']} (pass {op['group']}): {'; '.join(op['problems'])}"
                 for op in ops if not op["ok"]]
    details = {"workload": workload, "seed": seed, "variant": workloads.variant(seed),
               "trace": trace, "machine": machine(),
               "steal_share": _ratio(steal[0], steal[1])}
    if trace:
        metrics, passes, details["self_s"] = per_layer(result)
        details["median_of"] = {"passes": passes}
        details["pass_s"] = end_to_end(result, [])[0]["pass_s"]["value"]
    else:
        metrics, details["median_of"], raw = end_to_end(result, probes)
        details.update(raw)
    attempted = len(ops) + (0 if trace else PROBES)
    details["failed_ratio"] = len(failures) / attempted
    details["failures"] = failures[:10]
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src/gdfif/__init__.py").is_file():
        print(f"error: no gdfif package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        line, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

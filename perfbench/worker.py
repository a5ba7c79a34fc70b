"""One benchmark process: set up, run the workload's passes, check outputs.

    python3 -I perfbench/worker.py SPEC RESULT MODE

SPEC is the JSON the parent wrote (workload, generated inputs, expected
outputs, run length, tracing), RESULT the JSON this process writes back.
MODE is `setup` (time the set-up only), `run` (set up, one warm-up pass,
then passes for the run length, at least MIN_PASSES) or `record` (set up
and one pass without comparisons, to record expected outputs). Each
process measures its own peak RSS, because ru_maxrss only grows.

In an untraced run of bundled-run or wide-system, every config run is
followed by one solve and one evaluate_exact batch on that workload's
systems, which give solve_s and eval_s. Interleaving spreads their samples
over the whole run, as the passes' are, so a change of the shared host's
speed during a run moves every metric alike.

Times are CPU seconds of the main thread (time.thread_time). They leave
out the time a shared virtual machine's host takes the CPU away, and the
spinning of numpy's BLAS threads after import, which would make process
CPU time exceed wall time. Wall times are kept beside them, and so is the
CPU time of a calibration kernel run before every operation, which the
parent uses to scale the times to a reference host speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

# A bundled-run pass takes 10-16 s, so a run length alone would give it one
# pass on a slow stretch of the host and two on a fast one.
MIN_PASSES = 2
RESIDUAL_LIMIT = 1e-9
KNOT_LIMIT = 1e-9


def calibrate() -> float:
    """CPU seconds of a fixed kernel that runs no gdfif code.

    It mixes interpreter work with small- and mid-sized numpy calls, as the
    workloads do, so the host's speed changes move it as they move them.
    numpy is imported here, not at the top, so that it counts in the timed
    import of gdfif.
    """
    import numpy as np

    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    x = np.arange(5000.0)
    for _ in range(200):
        np.interp(x, x, x)
    np.sort(np.random.default_rng(0).random(50000))
    return time.thread_time() - start


class Run:
    """Times operations, runs their output checks, and keeps the record."""

    def __init__(self, tracer, extras: bool):
        self.tracer = tracer
        self.extras = extras
        self.ops: list[dict] = []
        self.group = "warmup"

    def op(self, kind: str, label: str, call, check, extra: bool = False):
        """Time `call()`, then check its result outside the timed region.

        `check(result)` returns (problems, observed). An exception in either
        marks the operation failed. `extra` operations are not part of a pass.
        The calibration kernel runs just before and just after, untimed.
        """
        record = {"group": self.group, "kind": kind, "label": label, "extra": extra,
                  "ok": False, "cal_before_s": calibrate()}
        if self.tracer is not None:
            self.tracer.trace = self.group
            span = self.tracer.begin("op")
        start, wall = time.thread_time(), time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            result, record["problems"] = None, [f"{type(exc).__name__}: {exc}"]
        record["s"] = time.thread_time() - start
        record["wall_s"] = time.perf_counter() - wall
        if self.tracer is not None:
            self.tracer.end(span, {"kind": kind, "label": label})
        record["cal_after_s"] = calibrate()
        if result is not None:
            try:
                problems, record["observed"] = check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            record["problems"] = problems
            record["ok"] = not problems
        self.ops.append(record)
        return result


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _compare(observed: dict, expected: dict | None) -> list[str]:
    if expected is None or observed == expected:
        return []
    return [f"{name}: digest {observed.get(name)} != recorded {expected.get(name)}"
            for name in sorted(set(observed) | set(expected))
            if observed.get(name) != expected.get(name)]


def _cli_run(gdfif, config: str, outdir: Path):
    """`gdfif run CONFIG --outdir OUTDIR` in-process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gdfif.cli.main(["run", config, "--outdir", str(outdir)])
    return code, buf.getvalue()


def _artifact_digests(outdir: Path, stdout: str) -> dict:
    digests = {p.name: _sha256(p.read_bytes()) for p in sorted(outdir.iterdir())}
    digests["<stdout>"] = _sha256(stdout.encode())
    return digests


def _knot_problems(gdfif, system, depth: int) -> list[str]:
    problems = []
    for alpha in range(1, system.n + 1):
        for x, f in system.dataset(alpha).points:
            got = gdfif.funcspace.evaluate_exact(system, alpha, x, depth)
            if not abs(got - f) <= KNOT_LIMIT:
                problems.append(f"evaluate_exact(vertex {alpha}, knot {x!r}) = {got!r}, not {f!r}")
    return problems


def _finite_problems(values) -> list[str]:
    bad = sum(1 for v in values if not math.isfinite(v))
    return [f"{bad} evaluate_exact values are not finite"] if bad else []


class Workload:
    """Base of the workloads. bundled-run and wide-system share its config
    runs through the CLI, each followed in an untraced run by a solve and an
    evaluate_exact batch on the same systems."""

    def __init__(self, gdfif, spec):
        self.gdfif = gdfif
        self.spec = spec
        self.inputs = spec["inputs"]
        self.workdir = Path(spec["workdir"])
        self.systems = {}
        self.first_values = None

    def _setup_config(self, key: str, config_arg: str) -> None:
        cli = self.gdfif.cli
        cfg = cli.load_config(cli.resolve_config_arg(config_arg))
        self.gdfif.model.validate(cfg.datasets, cfg.plan, cfg.condition3_mode)
        system = self.gdfif.maps.build_system(cfg.datasets, cfg.plan, cfg.condition3_mode)
        self.systems[key] = (system, cfg)

    def _run_config(self, run: Run, config_arg: str, label: str, expected) -> None:
        outdir = self.workdir / f"out-{len(run.ops)}"
        outdir.mkdir()

        def check(result):
            code, stdout = result
            if code != 0:
                return [f"exit code {code}"], {}
            observed = _artifact_digests(outdir, stdout)
            problems = _compare(observed, expected)
            residual = json.loads(stdout)["interpolation_residual"]
            if not residual <= RESIDUAL_LIMIT:
                problems.append(f"interpolation_residual {residual!r} > {RESIDUAL_LIMIT}")
            return problems, observed

        run.op("run", label, lambda: _cli_run(self.gdfif, config_arg, outdir), check)
        shutil.rmtree(outdir)
        if run.extras:
            self._solve_and_evaluate(run)

    def _solve_and_evaluate(self, run: Run) -> None:
        funcspace = self.gdfif.funcspace

        def solve():
            return [funcspace.fixed_point(s, c.resolution, c.tol, c.max_iters)
                    for s, c in self.systems.values()]

        def check_solve(results):
            return [f"final_delta {r.final_delta!r} > tol {c.tol!r}"
                    for r, (_, c) in zip(results, self.systems.values())
                    if not r.final_delta <= c.tol], {}

        def evaluate():
            return [funcspace.evaluate_exact(self.systems[key][0], v, x, self.spec["depth"])
                    for key, v, x in self.queries()]

        def check_eval(values):
            self.first_values = self.first_values or values
            problems = _finite_problems(values)
            if values != self.first_values:
                problems.append("evaluate_exact values differ between repetitions")
            return problems, {}

        run.op("solve", "fixed_point", solve, check_solve, extra=True)
        run.op("eval", "evaluate_exact", evaluate, check_eval, extra=True)


class BundledRun(Workload):
    def setup(self):
        for name in self.spec["bundled"]:
            self._setup_config(name, name)

    def run_pass(self, run: Run):
        for name in self.spec["bundled"]:
            self._run_config(run, name, name, (self.spec["expected"] or {}).get(name))

    def queries(self):
        return self.inputs["queries"]


class WideSystem(Workload):
    def setup(self):
        self._setup_config("wide", self.inputs["config"])

    def run_pass(self, run: Run):
        self._run_config(run, self.inputs["config"], "wide", self.spec["expected"])

    def queries(self):
        return [("wide", v, x) for v, x in self.inputs["queries"]]


class FineSolve(Workload):
    """The solve and the evaluate_exact batch are the pass itself."""

    def setup(self):
        g = self.gdfif
        datasets = [g.model.DataSet(tuple(map(tuple, pts))) for pts in self.inputs["points"]]
        plan = g.model.WiringPlan.from_pairs(self.inputs["wiring"])
        g.model.validate(datasets, plan)
        self.system = g.maps.build_system(datasets, plan)

    def run_pass(self, run: Run):
        g, p = self.gdfif, self.spec["solver"]
        expected = self.spec["expected"]

        def check_solve(result):
            problems = []
            if not result.final_delta <= p["tol"]:
                problems.append(f"final_delta {result.final_delta!r} > tol {p['tol']!r}")
            residual = g.funcspace.interpolation_residual(self.system, result.family)
            if not residual <= RESIDUAL_LIMIT:
                problems.append(f"interpolation_residual {residual!r} > {RESIDUAL_LIMIT}")
            observed = {"iterations": result.iterations}
            return problems + _compare(observed, expected), observed

        def check_eval(values):
            return (_finite_problems(values)
                    + _knot_problems(g, self.system, self.spec["depth"])), {}

        run.op("solve", "fixed_point",
               lambda: g.funcspace.fixed_point(self.system, p["resolution"], p["tol"],
                                               p["max_iters"]),
               check_solve)
        run.op("eval", "evaluate_exact",
               lambda: [g.funcspace.evaluate_exact(self.system, v, x, self.spec["depth"])
                        for v, x in self.inputs["queries"]],
               check_eval)


WORKLOADS = {"bundled-run": BundledRun, "fine-solve": FineSolve, "wide-system": WideSystem}


def main(spec_path: str, result_path: str, mode: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    start, wall = time.thread_time(), time.perf_counter()
    importlib.import_module("gdfif.cli")
    gdfif = sys.modules["gdfif"]
    import_s = time.thread_time() - start
    if not Path(gdfif.__file__).resolve().is_relative_to(Path(spec["root"]).resolve()):
        raise SystemExit(f"imported gdfif from {gdfif.__file__}, outside {spec['root']}")

    tracer = None
    if spec["trace"] and mode == "run":
        from tracing import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    workload = WORKLOADS[spec["workload"]](gdfif, spec)
    workload.setup()
    result = {"import_s": import_s, "setup_s": time.thread_time() - start,
              "setup_wall_s": time.perf_counter() - wall}

    run = Run(tracer, extras=mode == "run" and tracer is None)
    if mode != "setup":
        if mode == "run":
            workload.run_pass(run)
        passes, min_passes = 0, MIN_PASSES if mode == "run" else 1
        began = time.perf_counter()
        while passes < min_passes or time.perf_counter() - began < spec["seconds"]:
            run.group = passes
            workload.run_pass(run)
            passes += 1
    result["ops"] = run.ops
    if tracer is not None:
        result["spans"] = tracer.spans
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))

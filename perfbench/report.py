"""Print every benchmark metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload this runs the benchmark twice, once with tracing off for
the end-to-end metrics and once traced for the per-layer table, and prints
the operation count each median rests on, the wall-clock times, the share
of the traced pass_s the spans cover, and the tracing overhead: traced
pass_s minus untraced pass_s, both scaled to the reference host speed.
The machine is printed first; compare numbers only between reports from
the same machine.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads


def _row(name: str, metric: dict, note: str = "") -> str:
    return f"  {name:40s} {metric['value']:>14.6g} {metric['unit']:6s} {note}"


def report(workload: str, seed: int, seconds: float) -> None:
    untraced, details = run.measure(workload, seed, seconds, trace=False)
    traced, traced_details = run.measure(workload, seed, seconds, trace=True)
    why, predicts = workloads.WHY[workload]
    print(f"\n== {workload}  (seed {seed}, variant {details['variant']}, "
          f"{seconds:g} s per run)")
    print(f"why:      {why}\npredicts: {predicts}")
    print(f"end-to-end, tracing off: correct={untraced['correct']} "
          f"failed_ratio={details['failed_ratio']:g} "
          f"({untraced['failed']} of {untraced['attempted']} operations)")
    for name, metric in untraced["metrics"].items():
        print(_row(name, metric, f"median of {details['median_of'][name]}"))
    unscaled = ", ".join(f"{k} {v:.4f} s" for k, v in details["unscaled_s"].items())
    print(f"  unscaled CPU: {unscaled}; calibration kernel {1e3 * details['calibration_s']:.2f} ms "
          f"(reference {1e3 * run.CALIBRATION_REF_S:.2f} ms)")
    print(f"  wall clock: pass {details['wall_s']:.4f} s, set-up {details['setup_wall_s']:.4f} s; "
          f"host steal {100 * details['steal_share']:.1f}% of machine CPU time")
    layers = traced["metrics"]
    print(f"per-layer, traced: correct={traced['correct']}, "
          f"median of {traced_details['median_of']['passes']} passes")
    for name, metric in layers.items():
        print(_row(name, metric))
    print("self time per layer (span time minus child spans), median per pass:")
    for name, value in traced_details["self_s"].items():
        print(_row(name, {"value": value, "unit": "s"}))
    base, traced_s = untraced["metrics"]["pass_s"]["value"], traced_details["pass_s"]
    print(f"span coverage of traced pass_s: {100 * layers['trace.coverage']['value']:.1f}%")
    print(f"tracing overhead: {traced_s:.4f} s - {base:.4f} s = "
          f"{traced_s - base:+.4f} s ({100 * (traced_s - base) / base:+.1f}%)")
    for failure in details["failures"] + traced_details["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WHY))
    args = parser.parse_args(argv)
    print("machine:", json.dumps(run.machine()))
    for workload in args.workload or list(workloads.WHY):
        report(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

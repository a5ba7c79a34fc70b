"""Record the outputs the benchmark checks against, into expected.json.

    python3 perfbench/record.py

Run once at the commit whose outputs are the reference. It records the
sha256 of every artifact and of the printed summary of the four bundled
configs, the sweep count of fine-solve, and the digests of wide-system's
artifacts and summary, for every input variant. Re-recording at a later
commit would hide a changed output, so do it only when a change of output
is intended and named in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads


def _observed(workload: str, seed: int) -> list[dict]:
    with run.work_dir(f"record-{workload}-") as workdir:
        spec = run.make_spec(workload, seed, 0, False, workdir,
                             {"bundled-run": None, "fine-solve": {}, "wide-system": {}})
        result = run.worker(spec, workdir, "record", run.RUN_TIMEOUT_S)
    failed = [op for op in result["ops"] if not op["ok"]]
    if failed:
        raise SystemExit(f"{workload} seed {seed}: {failed[0]['problems']}")
    return result["ops"]


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    expected = {"recorded_at": commit, "machine": run.machine(),
                "bundled-run": {op["label"]: op["observed"] for op in _observed("bundled-run", 0)}}
    for workload, pick in (("fine-solve", "solve"), ("wide-system", "run")):
        expected[workload] = {}
        for v in range(workloads.VARIANTS):
            (op,) = [op for op in _observed(workload, v) if op["kind"] == pick]
            expected[workload][str(v)] = op["observed"]
            print(workload, v, file=sys.stderr)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

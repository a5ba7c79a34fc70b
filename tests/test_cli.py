"""Config parsing, subcommands, exit codes, and pipeline determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import gdfif
from gdfif import CONDITION3_MODES, STRICT_MODE, PlotSpec, validate
from gdfif.cli import (
    OUTPUT_KEYS,
    SETTINGS,
    ConfigError,
    bundled_config_path,
    load_config,
    main,
    read_points_csv,
    resolve_config_arg,
)
from support import strict_finite_json

MINIMAL = """\
datasets:
  - points: [[0, 0], [1, 1], [2, 0]]
wiring:
  - intervals:
      - {source: 1, d: 0.3}
      - {source: 1, d: -0.3}
"""


def write_config(tmp_path: Path, text: str, name="cfg.yaml") -> Path:
    p = tmp_path / name
    p.write_text(text)
    return p


def test_bundled_example1_loads():
    cfg = load_config(bundled_config_path("example1"))
    assert cfg.name == "example1"
    assert len(cfg.datasets) == 1
    assert cfg.datasets[0].points == ((0.0, 0.0), (3.0, 5.0), (6.0, 4.0), (10.0, 1.0))
    assert [a.d for a in cfg.plan.for_vertex(1)] == [0.25, 0.5, 0.25]


def test_bundled_example2_wiring_blocks_expand():
    cfg = load_config(bundled_config_path("example2"))
    assert cfg.plan.n == 2
    assert [a.source for a in cfg.plan.for_vertex(1)] == [1, 1, 1, 2, 2]
    assert [a.source for a in cfg.plan.for_vertex(2)] == [1, 2, 2, 2]
    for alpha in (1, 2):
        for a in cfg.plan.for_vertex(alpha):
            assert a.d == 1.0 / 3.0


def test_bundled_example2b_scaling_blocks():
    cfg = load_config(bundled_config_path("example2b"))
    assert [a.d for a in cfg.plan.for_vertex(1)] == [0.25, 0.25, 0.25, 1 / 3, 1 / 3]
    assert [a.d for a in cfg.plan.for_vertex(2)] == [0.25, 0.5, 0.5, 0.5]


def test_defaults_fill_in(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert cfg.name == "cfg"
    assert cfg.resolution == 64
    assert cfg.tol == 1e-9
    assert cfg.max_iters == 200
    assert cfg.generations == 12
    assert cfg.dedup_tol == 1e-3
    assert cfg.chaos_points == 0
    assert cfg.burn_in == 100
    assert cfg.seed == 7
    assert cfg.condition3_mode == STRICT_MODE
    assert cfg.outputs == ()


def test_resolve_config_arg_prefers_real_paths(tmp_path):
    p = write_config(tmp_path, MINIMAL)
    assert resolve_config_arg(str(p)) == p
    assert resolve_config_arg("example1") == bundled_config_path("example1")
    with pytest.raises(ConfigError):
        resolve_config_arg("no-such-config-anywhere")


def test_parse_error_carries_position(tmp_path):
    p = write_config(tmp_path, "datasets: [points: [[0,0]\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(p)


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")


@needs_libyaml
@pytest.mark.parametrize("text", [
    "datasets: [points: [[0,0]\n",
    "datasets: {points: [[0, 0]\n",
    "datasets: a: b\n",
    "datasets:\n\t- 1\n",
    "datasets: &x 1\nwiring: *y\n",
    "- a\nb: c\n",
])
def test_parse_error_is_the_same_with_and_without_libyaml(tmp_path, monkeypatch, text):
    p = write_config(tmp_path, text)
    messages = []
    for with_libyaml in (True, False):
        monkeypatch.setattr(yaml, "__with_libyaml__", with_libyaml)
        with pytest.raises(ConfigError, match="parse error") as exc:
            load_config(p)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@needs_libyaml
def test_valid_config_is_read_by_libyaml(monkeypatch):
    loaded = []

    class Counting(yaml.CSafeLoader):
        def __init__(self, stream):
            loaded.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Counting)
    for name in ("example1", "example2", "example2b", "flat"):
        with_libyaml = load_config(bundled_config_path(name))
        monkeypatch.setattr(yaml, "__with_libyaml__", False)
        assert load_config(bundled_config_path(name)) == with_libyaml
        monkeypatch.setattr(yaml, "__with_libyaml__", True)
    assert len(loaded) == 4


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write_config(tmp_path, MINIMAL + "extra: 1\n"))
    bad_solver = MINIMAL + "solver: {resolutoin: 64}\n"
    with pytest.raises(ConfigError, match="solver"):
        load_config(write_config(tmp_path, bad_solver))
    bad_output = MINIMAL + "outputs: {csvv: out.csv}\n"
    with pytest.raises(ConfigError, match="output"):
        load_config(write_config(tmp_path, bad_output))


@pytest.mark.parametrize("text, message", [
    (MINIMAL + "1: x\nfoo: y\n", "top level: unknown keys ['1', 'foo']"),
    (MINIMAL + "solver: {1: x, foo: y}\n", "section 'solver': unknown keys ['1', 'foo']"),
    (MINIMAL + "outputs: {1: x, foo: y}\n", "section 'outputs': unknown keys ['1', 'foo']"),
    (MINIMAL.replace("- points: [[0, 0], [1, 1], [2, 0]]",
                     "- {points: [[0, 0], [1, 1], [2, 0]], colour: red}"),
     "dataset 1: unknown keys ['colour']"),
    (MINIMAL.replace("- intervals:", "- extra: 1\n    intervals:"),
     "wiring 1: unknown keys ['extra']"),
    (MINIMAL.replace("d: 0.3}", "d: 0.3, count: 5}"),
     "wiring 1 interval 1: unknown keys ['count']"),
    (MINIMAL.replace("intervals:", "blocks:").replace("d: 0.3}", "d: 0.3, count: 1, n: 2}"),
     "wiring 1 block 1: unknown keys ['n']"),
], ids=["top", "section", "outputs", "dataset", "wiring", "interval", "block"])
def test_unknown_keys_of_any_type_at_any_depth_are_one_error(tmp_path, capsys, text, message):
    assert main(["validate", str(write_config(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("setting", [
    "outputs: {csv: }", "outputs: {csv: ''}", "outputs: {pgm: [a, b]}", "outdir: ", "outdir: 5",
])
def test_output_names_must_be_nonempty_strings(tmp_path, capsys, setting):
    cfg = write_config(tmp_path, MINIMAL + setting + "\n")
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    assert "must be a nonempty string" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", ["name: ", "name: 5"], ids=["empty", "number"])
def test_name_must_be_a_nonempty_string(tmp_path, capsys, setting):
    cfg = write_config(tmp_path, MINIMAL + setting + "\n")
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: name must be a nonempty string, got ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_missing_name_falls_back_to_the_file_stem(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL, name="unnamed.yaml")
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "unnamed"


def test_block_needs_a_count(tmp_path):
    text = MINIMAL.replace("intervals:", "blocks:")
    with pytest.raises(ConfigError, match="wiring 1 block 1 count: expected an integer, got None"):
        load_config(write_config(tmp_path, text))


def test_vertex_count_mismatch_rejected(tmp_path):
    text = MINIMAL + """\
  - intervals:
      - {source: 1, d: 0.1}
"""
    with pytest.raises(ConfigError, match="wiring"):
        load_config(write_config(tmp_path, text))


def test_fraction_strings_parse_exactly(tmp_path):
    text = """\
datasets:
  - points: [[0, 0], [1, 1], [2, 0]]
wiring:
  - intervals:
      - {source: 1, d: 1/3}
      - {source: 1, d: -2/7}
"""
    cfg = load_config(write_config(tmp_path, text))
    ds = [a.d for a in cfg.plan.for_vertex(1)]
    assert ds[0] == 1.0 / 3.0
    assert ds[1] == -2.0 / 7.0


def test_boolean_is_not_a_number(tmp_path):
    text = MINIMAL + "solver: {resolution: true}\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))


def test_dataset_csv_reference(tmp_path):
    (tmp_path / "pts.csv").write_text("x,y\n0,0\n1,2\n2,0\n")
    text = """\
datasets:
  - csv: pts.csv
wiring:
  - intervals:
      - {source: 1, d: 0.2}
      - {source: 1, d: 0.2}
"""
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.datasets[0].points == ((0.0, 0.0), (1.0, 2.0), (2.0, 0.0))


def test_dataset_csv_of_several_vertices_is_rejected(tmp_path):
    rows = "vertex,x,y\n1,0,0\n1,1,2\n1,2,0\n2,0,1\n2,3,0\n2,4,1\n"
    (tmp_path / "curve.csv").write_text(rows)
    text = MINIMAL.replace("points: [[0, 0], [1, 1], [2, 0]]", "csv: curve.csv")
    with pytest.raises(ConfigError, match=r"dataset 1: curve.csv holds rows of vertices \[1, 2\]"):
        load_config(write_config(tmp_path, text))
    # One vertex's rows load, whatever its label.
    (tmp_path / "curve.csv").write_text("vertex,x,y\n2,0,1\n2,3,0\n2,4,1\n")
    assert load_config(tmp_path / "cfg.yaml").datasets[0].points == ((0, 1), (3, 0), (4, 1))


def test_read_points_csv_three_column(tmp_path):
    p = tmp_path / "rows.csv"
    p.write_text("vertex,x,y\n2,0.5,1.5\n1,0.25,-3\n")
    assert read_points_csv(p) == [(2, 0.5, 1.5), (1, 0.25, -3.0)]


def test_validate_subcommand_ok(capsys):
    assert main(["validate", "example2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["strongly_connected"] is True
    assert report["violations"] == []


def test_validate_subcommand_width_violation(tmp_path, capsys):
    text = """\
datasets:
  - points: [[0, 0], [0.5, 1], [1, 0]]
  - points: [[0, 0], [2, 1], [2.5, 0]]
wiring:
  - intervals:
      - {source: 1, d: 0.3}
      - {source: 1, d: 0.3}
  - intervals:
      - {source: 1, d: 0.3}
      - {source: 2, d: 0.3}
"""
    assert main(["validate", str(write_config(tmp_path, text))]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert "data/width-ratio" in [v["code"] for v in report["violations"]]


def test_missing_config_is_structural_error(capsys):
    assert main(["validate", "/nonexistent/nowhere.yaml"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_example1(tmp_path, capsys):
    assert main(["run", "example1", "--outdir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["name"] == "example1"
    assert summary["r"] == 0.5
    assert summary["interpolation_residual"] <= 1e-9
    assert summary["final_delta"] <= 1e-9
    assert {v["vertex"] for v in summary["per_vertex"]} == {1}
    for rel in ("example1_curve.csv", "example1_chaos.csv", "example1.svg",
                "example1_attractor.pgm", "example1_summary.json"):
        assert (tmp_path / rel).is_file()
    on_disk = json.loads((tmp_path / "example1_summary.json").read_text())
    assert on_disk == summary


def test_run_example2_contraction_factor(tmp_path, capsys):
    assert main(["run", "example2", "--outdir", str(tmp_path),
                 "--generations", "6"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["r"] == 1.0 / 3.0
    assert summary["iterations"] <= 40


def test_run_flat_hausdorff_below_dedup_tolerance(tmp_path, capsys):
    assert main(["run", "flat", "--outdir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["hausdorff"] <= 0.02


def test_run_is_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", "flat", "--outdir", str(d1)]) == 0
    assert main(["run", "flat", "--outdir", str(d2)]) == 0
    capsys.readouterr()
    for rel in ("flat_curve.csv", "flat.pgm", "flat_summary.json"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()


def test_eval_subcommand_at_knot(capsys):
    assert main(["eval", "example1", "--x", "3", "--depth", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(5.0, abs=1e-12)


def test_eval_flat_is_zero(capsys):
    assert main(["eval", "flat", "--x", "1.37"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


def test_eval_out_of_range_is_structural(capsys):
    assert main(["eval", "example1", "--x", "11"]) == 2
    assert "error:" in capsys.readouterr().err


def test_render_subcommand_writes_artifacts_only(tmp_path, capsys):
    assert main(["render", "flat", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "flat_curve.csv").is_file()
    assert (tmp_path / "flat.pgm").is_file()
    assert not (tmp_path / "flat_summary.json").exists()


def test_overrides_change_settings(tmp_path, capsys):
    assert main(["run", "flat", "--outdir", str(tmp_path),
                 "--resolution", "16", "--generations", "3"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["per_vertex"][0]["samples"] == 2 * 15 + 1


def test_outdir_env_fallback(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("GDFIF_OUTDIR", str(env_dir))
    assert main(["run", "flat"]) == 0
    capsys.readouterr()
    assert (env_dir / "flat_summary.json").is_file()
    # explicit flag wins over the environment
    flag_dir = tmp_path / "from-flag"
    assert main(["run", "flat", "--outdir", str(flag_dir)]) == 0
    capsys.readouterr()
    assert (flag_dir / "flat_summary.json").is_file()


def test_non_convergence_exit_code(tmp_path, capsys):
    text = MINIMAL + "solver: {max_iters: 2, tol: 1.0e-15}\n"
    assert main(["run", str(write_config(tmp_path, text)),
                 "--outdir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "no-convergence"
    assert err["iterations"] == 2


def test_entry_raises_system_exit(capsys, monkeypatch):
    import sys

    from gdfif.cli import entry

    monkeypatch.setattr(sys, "argv", ["gdfif", "validate", "example1"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    capsys.readouterr()


def _run_python(*args, cwd, stdout=subprocess.PIPE):
    src = str(Path(gdfif.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.mark.parametrize("command", [["validate", "example1"], ["run", "example1"],
                                     ["eval", "example1", "--x", "5"]])
def test_a_closed_stdout_pipe_exits_141_with_nothing_on_stderr(command, tmp_path):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        proc = _run_python("-X", "dev", "-W", "error", "-m", "gdfif", *command,
                           "--outdir", str(tmp_path), cwd=tmp_path, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("module", ["gdfif", "gdfif.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    proc = _run_python("-m", module, "run", "flat", "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "flat_summary.json").is_file()


BUNDLED_CONFIGS = sorted(p.stem for p in (Path(gdfif.__file__).parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_bundled_run_is_warnings_clean(name, tmp_path):
    # -X dev shows ResourceWarning (an unclosed file) and -W error makes any
    # warning, a NumPy RuntimeWarning too, an exception.
    proc = _run_python("-X", "dev", "-W", "error", "-m", "gdfif", "run", name,
                       "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _bundled(name: str, **changes) -> dict:
    """The bundled config `name`'s data and wiring, with `changes` added."""
    raw = yaml.safe_load(bundled_config_path(name).read_text())
    return {"datasets": raw["datasets"], "wiring": raw["wiring"], **changes}


def _panels(n: int) -> dict:
    """`n` copies of example1's data set, each wired to itself like example1."""
    raw = _bundled("example1")
    return {
        "datasets": raw["datasets"] * n,
        "wiring": [{"intervals": [{**item, "source": k} for item in raw["wiring"][0]["intervals"]]}
                   for k in range(1, n + 1)],
        "attractor": {"generations": 2},
        "outputs": {"svg": "panels.svg"},
    }


# The maps' e overflows.
FLOAT_RANGE = {"datasets": [{"points": [[0, 0], [1e308, 1.5e308], [1.7e308, -1.5e308]]}],
               "wiring": [{"intervals": [{"source": 1, "d": 0.5}] * 2}]}
FLOAT_RANGE_ERROR = "the maps of vertex 1 leave the float range"
# Interval 1 of vertex 1, 1e-323 wide, reads vertex 2's span of 3e300, so
# its map's a underflows to 0.
A_UNDERFLOWS = {"datasets": [{"points": [[0, 0], [1e-323, 1], [2e-323, 0]]},
                             {"points": [[0, 0], [1e300, 1], [2e300, 0], [3e300, 1]]}],
                "wiring": [{"intervals": [{"source": 2, "d": 0.5}] * 2},
                           {"intervals": [{"source": 2, "d": 0.5}] * 3}],
                "condition3_mode": "used-edges-only"}
# Interval 1 is one ulp wide, so at resolution 64 its grid repeats nodes.
REPEATED_NODES = {"datasets": [{"points": [[1, 0], [1.0000000000000002, 1], [2, 0], [3, 1]]}],
                  "wiring": [{"intervals": [{"source": 1, "d": 0.5}] * 3}],
                  "solver": {"resolution": 64}}
REPEATED_NODES_ERROR = ("interval 2 of vertex 1 reads repeated grid nodes of vertex 1 at "
                        "resolution 64: an interval is too narrow to sample at that resolution")


@pytest.mark.parametrize("config, message", [
    (FLOAT_RANGE, FLOAT_RANGE_ERROR),
    (_bundled("example2", attractor={"chaos_points": 150, "burn_in": 100},
              outputs={"chaos_csv": "c.csv"}),
     "vertex 1 kept no points past burn-in; "
     "increase total_points (chaos_points for gdfif run)"),
    # (900 - 40 * 23) / 22 < 0: no room for a panel on the 900-px canvas
    (_panels(22), "canvas too small for the requested panel count"),
    (REPEATED_NODES, REPEATED_NODES_ERROR),
], ids=["float-range", "chaos-vertex-left-empty", "22-panels", "repeated-grid-nodes"])
def test_a_check_the_data_fails_past_validate_is_one_error_line(tmp_path, capsys, config,
                                                                message):
    cfg = str(write_config(tmp_path, yaml.safe_dump(config)))
    assert main(["validate", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    proc = _run_python("-m", "gdfif", "run", cfg, "--outdir", str(tmp_path / "out"),
                       cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_the_float_range_failure_is_warnings_clean(tmp_path):
    # NumPy's overflow warnings, raised as errors, must not get past the check
    cfg = str(write_config(tmp_path, yaml.safe_dump(FLOAT_RANGE)))
    proc = _run_python("-X", "dev", "-W", "error", "-m", "gdfif", "run", cfg,
                       "--outdir", str(tmp_path / "out"), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {FLOAT_RANGE_ERROR}\n")


@pytest.mark.parametrize("config, x", [(FLOAT_RANGE, 5e307), (A_UNDERFLOWS, 5e-324)],
                         ids=["e-overflows", "a-underflows"])
def test_eval_past_the_float_range_is_one_error_line(tmp_path, capsys, config, x):
    # the walk read a NaN pullback, or divided by a = 0
    cfg = str(write_config(tmp_path, yaml.safe_dump(config)))
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    assert main(["eval", cfg, f"--x={x!r}"]) == 2
    assert capsys.readouterr() == ("", f"error: {FLOAT_RANGE_ERROR}\n")


def test_repeated_grid_nodes_are_one_error_line_and_warnings_clean(tmp_path):
    # the sweep's 0 / 0, raised as an error, must not get past the check
    cfg = str(write_config(tmp_path, yaml.safe_dump(REPEATED_NODES)))
    proc = _run_python("-X", "dev", "-W", "error", "-m", "gdfif", "run", cfg,
                       "--outdir", str(tmp_path / "out"), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {REPEATED_NODES_ERROR}\n")


def _steep(y: float) -> dict:
    """One vertex rising to y over 1e-8, then down to -y: the sweep's slopes overflow."""
    return {"datasets": [{"points": [[0, 0], [1.0e-8, y], [1, -y], [2, 0]]}],
            "wiring": [{"intervals": [{"source": 1, "d": 0.5}] * 3}],
            "outputs": {"csv": "c.csv"}}


# The curve CSV at y = 1e300, recorded when NumPy still warned of the
# overflow in the entries that node values replace (x86-64, numpy 2.4).
STEEP_CSV_SHA256 = "4c8bec7f2090003febeec80786627e788669a08fdb8e5fc048458a3889711830"


@pytest.mark.parametrize("y, code, stderr", [
    (1e300, 0, ""),
    (1e305, 3, None),
    (1e306, 2, "error: dedup tolerance 0.001 is too small: a point's cell number "
               "(coordinate / tolerance) is not finite; use a larger dedup_tol\n"),
    (1e307, 2, f"error: {FLOAT_RANGE_ERROR}\n"),
], ids=["1e300", "1e305", "1e306", "1e307"])
def test_overflow_in_the_sweep_is_warnings_clean(tmp_path, capsys, y, code, stderr):
    cfg = str(write_config(tmp_path, yaml.safe_dump(_steep(y))))
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    proc = _run_python("-X", "dev", "-W", "error", "-m", "gdfif", "run", cfg,
                       "--outdir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        digest = hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest()
        assert digest == STEEP_CSV_SHA256
    elif code == 3:
        assert proc.stdout == ""
        assert strict_finite_json(proc.stderr)["error"] == "no-convergence"
    else:
        assert (proc.stdout, proc.stderr) == ("", stderr)


def test_a_one_valued_panel_past_2_53_renders_finite(tmp_path):
    # A fixed pad of 0.5 around 1e17 leaves the range empty: each ordinate
    # is 1e17, so the y range must be padded in proportion to it.
    config = _bundled("flat", outputs={"svg": "flat.svg", "pgm": "flat.pgm"})
    config["datasets"] = [{"points": [[x, 1e17] for x, _ in config["datasets"][0]["points"]]}]
    cfg = str(write_config(tmp_path, yaml.safe_dump(config)))
    proc = _run_python("-X", "dev", "-W", "error", "-m", "gdfif", "run", cfg,
                       "--outdir", str(tmp_path), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    svg = (tmp_path / "flat.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    assert svg.count('class="knot"') == 3 and "<polyline" in svg and "<path" in svg
    spec = PlotSpec()
    header, pixels = (tmp_path / "flat.pgm").read_bytes().split(b"\n", 1)
    assert header == f"P5 {spec.width} {spec.height} 255".encode()
    rows = np.flatnonzero((np.frombuffer(pixels, np.uint8).reshape(spec.height, -1) == 0).any(1))
    assert rows.tolist() == [spec.height // 2]  # the cloud, one level line mid-panel


def test_import_does_not_load_scipy(tmp_path):
    proc = _run_python(
        "-c", "import sys, gdfif.cli; print('scipy.spatial' in sys.modules)", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_does_not_load_scipy(tmp_path):
    code = ("import sys; from gdfif.cli import main; "
            f"code = main(['run', 'example1', '--outdir', {str(tmp_path)!r}]); "
            "print(code, 'scipy' in sys.modules)")
    proc = _run_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# Width-ratio violation: vertex 2's first interval (width 2) is wider than
# vertex 1's span (1).
WIDTH_VIOLATION = """\
datasets:
  - points: [[0, 0], [0.5, 1], [1, 0]]
  - points: [[0, 0], [2, 1], [2.5, 0]]
wiring:
  - intervals:
      - {source: 1, d: 0.3}
      - {source: 1, d: 0.3}
  - intervals:
      - {source: 1, d: 0.3}
      - {source: 2, d: 0.3}
"""

# One value below its minimum (or outside its range) for every setting flag.
BELOW_MINIMUM = {
    "resolution": "1",
    "tol": "0",
    "max_iters": "0",
    "generations": "0",
    "dedup_tol": "-1",
    "chaos_points": "-1",
    "burn_in": "-1",
    "seed": "-1",
}


def test_every_setting_flag_has_a_below_minimum_case():
    assert set(BELOW_MINIMUM) == {key for _, key, *_ in SETTINGS}


@pytest.mark.parametrize("flag, value", [
    *BELOW_MINIMUM.items(),
    ("tol", "nan"),
    ("dedup_tol", "nan"),
    ("chaos_points", "50"),  # not above the default burn_in of 100
])
def test_flag_below_minimum_is_a_config_error(tmp_path, capsys, flag, value):
    outdir = tmp_path / "out"
    code = main(["run", "example1", "--outdir", str(outdir),
                 "--" + flag.replace("_", "-"), value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not outdir.exists()


@pytest.mark.parametrize("setting", [
    "solver: {tol: .nan}",
    "attractor: {dedup_tol: .nan}",
    # Only a chaos_csv output makes these errors; the ids name the setting.
    pytest.param("attractor: {chaos_points: 100, burn_in: 100}\noutputs: {chaos_csv: c.csv}",
                 id="attractor: {chaos_points: 100, burn_in: 100}"),
    pytest.param("attractor: {chaos_points: 5}\noutputs: {chaos_csv: c.csv}",
                 id="attractor: {chaos_points: 5}"),
])
def test_config_value_out_of_range_is_rejected(tmp_path, setting):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, MINIMAL + setting + "\n"))


def test_chaos_points_above_burn_in_or_zero_load(tmp_path):
    text = MINIMAL + "attractor: {chaos_points: 101, burn_in: 100}\n"
    assert load_config(write_config(tmp_path, text)).chaos_points == 101
    text = MINIMAL + "attractor: {chaos_points: 0, burn_in: 100}\n"
    assert load_config(write_config(tmp_path, text)).chaos_points == 0


@pytest.mark.parametrize("setting, points", [
    ("{chaos_points: 100, burn_in: 100}", 100),
    ("{chaos_points: 5}", 5),
])
def test_chaos_points_need_not_exceed_burn_in_without_a_chaos_csv(tmp_path, setting, points):
    # No walk runs without a chaos_csv output, so its length is not checked.
    text = MINIMAL + "attractor: " + setting + "\n"
    assert load_config(write_config(tmp_path, text)).chaos_points == points


def test_chaos_csv_without_chaos_points_is_a_config_error(tmp_path, capsys):
    text = MINIMAL + "attractor: {chaos_points: 0}\noutputs: {chaos_csv: chaos.csv}\n"
    runs = [[str(write_config(tmp_path, text))], ["example1", "--chaos-points", "0"]]
    for args in runs:
        outdir = tmp_path / "out"
        assert main(["run", *args, "--outdir", str(outdir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: outputs.chaos_csv needs attractor.chaos_points (0) "
                                "above attractor.burn_in (100)\n")
        assert captured.out == ""
        assert not outdir.exists()


def test_run_walks_the_chaos_game_only_for_a_chaos_csv(tmp_path, capsys, monkeypatch):
    import gdfif.cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return gdfif.chaos_game(*args, **kwargs)

    monkeypatch.setattr(gdfif.cli, "chaos_game", counting)
    # example2.yaml lists no chaos_csv output, so no output reads a walk.
    assert main(["run", "example2", "--chaos-points", "5000", "--outdir", str(tmp_path)]) == 0
    assert calls == []
    assert main(["run", "example1", "--chaos-points", "500", "--outdir", str(tmp_path)]) == 0
    assert calls == [(500, 100, 7)]
    capsys.readouterr()


def test_flag_and_config_value_get_the_same_message(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL + "attractor: {dedup_tol: -1}\n")
    assert main(["validate", str(cfg)]) == 2
    from_config = capsys.readouterr().err
    assert main(["validate", str(write_config(tmp_path, MINIMAL, "plain.yaml")),
                 "--dedup-tol", "-1"]) == 2
    assert capsys.readouterr().err == from_config


def test_flags_override_config_values(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL + "solver:\nattractor: {generations: 0}\n")
    assert main(["run", str(cfg), "--outdir", str(tmp_path),
                 "--generations", "2", "--resolution", "8"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["per_vertex"][0]["samples"] == 2 * 7 + 1
    # a flag into a section that is not a mapping gets the section's message
    cfg = write_config(tmp_path, MINIMAL + "solver: 5\n", "scalar.yaml")
    assert main(["validate", str(cfg), "--tol", "1e-3"]) == 2
    assert "section 'solver' must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["render"], ["eval", "--x", "0.25"]])
def test_violating_config_prints_the_validate_report(tmp_path, capsys, command):
    cfg = str(write_config(tmp_path, WIDTH_VIOLATION))
    assert main(["validate", cfg]) == 1
    report = capsys.readouterr().out
    outdir = tmp_path / "out"
    assert main([command[0], cfg, "--outdir", str(outdir), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == report
    assert captured.err == ""
    assert not outdir.exists()


def _report_dict(report) -> dict:
    """The validation report's JSON object, field by field: the reference serialiser."""
    return {
        "ok": report.ok,
        "strongly_connected": report.strongly_connected,
        "condition3_mode": report.condition3_mode,
        "violations": [
            {"code": v.code, "message": v.message, "indices": list(v.indices)}
            for v in report.violations
        ],
    }


def _reference_report(cfg: str, mode: str) -> str:
    config = load_config(resolve_config_arg(cfg), {"condition3_mode": mode})
    report = validate(config.datasets, config.plan, mode)
    return json.dumps(_report_dict(report), sort_keys=True, indent=2) + "\n"


# Every violation code: vertex 1 has two points and three assignments, one
# naming vertex 4 and one with |d| >= 1; vertex 2 has a NaN and decreasing
# abscissas; vertex 3, wired from vertex 1, has intervals wider than its span.
EVERY_VIOLATION = """\
datasets:
  - points: [[0, 0], [1, 1]]
  - points: [[0, .nan], [2, 1], [1, 0]]
  - points: [[0, 0], [5, 1], [6, 0]]
wiring:
  - intervals:
      - {source: 4, d: 0.3}
      - {source: 1, d: 1.5}
      - {source: 1, d: 0.3}
  - intervals:
      - {source: 2, d: 0.3}
      - {source: 2, d: 0.3}
  - intervals:
      - {source: 1, d: 0.3}
      - {source: 1, d: 0.3}
"""


@pytest.mark.parametrize("mode", CONDITION3_MODES)
@pytest.mark.parametrize("name", BUNDLED_CONFIGS + ["every-violation"])
def test_the_validate_report_is_the_reference_serialisation(tmp_path, capsys, name, mode):
    violating = name == "every-violation"
    cfg = str(write_config(tmp_path, EVERY_VIOLATION)) if violating else name
    expected = _reference_report(cfg, mode)
    assert main(["validate", cfg, "--condition3-mode", mode]) == int(violating)
    assert capsys.readouterr().out == expected
    if violating:
        codes = {v["code"] for v in json.loads(expected)["violations"]}
        assert codes == {"points/count", "points/finite", "points/order", "wiring/source",
                         "wiring/factor", "wiring/length", "data/width-ratio"}
        assert main(["run", cfg, "--condition3-mode", mode, "--outdir", str(tmp_path)]) == 1
        assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("command", [["validate"], ["eval", "--x", "1.5"]])
def test_commands_that_write_nothing_create_no_directory(tmp_path, capsys, command):
    outdir = tmp_path / "out"
    assert main([command[0], "flat", "--outdir", str(outdir), *command[1:]]) == 0
    capsys.readouterr()
    assert not outdir.exists()


@pytest.mark.parametrize("command", [
    ["validate"], ["run"], ["render"], ["eval", "--x", "1.5"],
])
def test_validate_runs_once_per_command(tmp_path, capsys, monkeypatch, command):
    import gdfif.cli
    import gdfif.maps
    from gdfif.model import validate

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(gdfif.maps, "validate", counting)
    monkeypatch.setattr(gdfif.cli, "validate", counting)
    assert main([command[0], "flat", "--outdir", str(tmp_path), *command[1:]]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("vertex", ["0", "3"])
def test_eval_vertex_outside_system_is_structural(capsys, vertex):
    assert main(["eval", "example2", "--vertex", vertex, "--x", "2.5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: vertex " + vertex + " is outside 1..2\n"
    assert captured.out == ""


def test_cloud_budget_overrun_is_a_config_error(tmp_path, capsys):
    # 999 self-wired maps without dedup: generation 1 holds 999,000 points,
    # generation 2 would hold about 1e9, past the cloud budget of 1e7.
    knots = ", ".join(f"[{k}, {k % 7}]" for k in range(1000))
    text = f"""\
datasets:
  - points: [{knots}]
wiring:
  - blocks:
      - {{source: 1, count: 999, d: 0.3}}
solver: {{resolution: 2}}
attractor: {{generations: 2, dedup_tol: 0}}
outputs: {{summary: summary.json}}
"""
    code = main(["run", str(write_config(tmp_path, text)), "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: next generation would hold")
    assert captured.out == ""
    assert not (tmp_path / "summary.json").exists()


def test_a_dedup_tol_past_the_cell_range_is_a_config_error(tmp_path, capsys):
    # 1e-300 still numbers every cell (past int64, so by float cell numbers)
    # and keeps every distinct point; 1e-320 overflows them to infinity.
    assert main(["run", "example1", "--dedup-tol", "1e-300", "--generations", "3",
                 "--outdir", str(tmp_path)]) == 0
    kept = json.loads(capsys.readouterr().out)["per_vertex"][0]["cloud_points"]
    assert main(["run", "example1", "--dedup-tol", "0", "--generations", "3",
                 "--outdir", str(tmp_path)]) == 0
    all_points = json.loads(capsys.readouterr().out)["per_vertex"][0]["cloud_points"]
    assert 2 < kept <= all_points
    code = main(["run", "example1", "--dedup-tol", "1e-320", "--outdir", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: dedup tolerance 1e-320 is too small")
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


def test_main_parses_through_load_config_with_its_flags(tmp_path, capsys, monkeypatch):
    import gdfif.cli

    calls = []

    def counting(path, flags=None):
        calls.append(flags)
        return load_config(path, flags)

    monkeypatch.setattr(gdfif.cli, "load_config", counting)
    assert main(["validate", "example2", "--generations", "3",
                 "--condition3-mode", "used-edges-only"]) == 0
    capsys.readouterr()
    assert calls == [{"generations": 3, "condition3_mode": "used-edges-only"}]
    cfg = load_config(bundled_config_path("example2"), calls[0])
    assert (cfg.generations, cfg.condition3_mode) == (3, "used-edges-only")
    assert load_config(bundled_config_path("example2")).generations != 3


def test_checks_hold_under_python_O(tmp_path):
    bad_flag = _run_python("-O", "-m", "gdfif", "run", "example1", "--resolution", "1",
                           "--outdir", str(tmp_path / "out"), cwd=tmp_path)
    assert bad_flag.returncode == 2, bad_flag.stderr
    assert bad_flag.stderr.startswith("error: ")
    cfg = str(write_config(tmp_path, WIDTH_VIOLATION))
    violating = _run_python("-O", "-m", "gdfif", "run", cfg, "--outdir", str(tmp_path / "out"),
                            cwd=tmp_path)
    assert violating.returncode == 1, violating.stderr
    assert json.loads(violating.stdout)["ok"] is False
    assert not (tmp_path / "out").exists()


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Annotated example:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    (tmp_path / "other_vertex.csv").write_text("x,y\n0,1\n1,3\n2,2\n3,4\n4,1\n")
    cfg = load_config(write_config(tmp_path, block, "demo.yaml"))
    assert cfg.name == "demo"
    assert cfg.plan.n == len(cfg.datasets) == 2
    assert [key for key, _ in cfg.outputs] == list(OUTPUT_KEYS)

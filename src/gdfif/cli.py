"""Config-driven command line: validate, run, eval, and render subcommands.

Configs are YAML (schema documented in the README); a setting flag replaces
the config's value and is checked like it. `main` alone picks the exit
code: 0 success, 1 validation violations, 2 structural, parse or range
errors, a path that cannot be read or written (an OSError), clouds past
their point budget, any check of the library that the data fails (a
ValueError) and a run out of memory (a MemoryError), 3 solver
non-convergence, 141 a stdout pipe whose reader has closed. All JSON is
strict, with no NaN or infinity, and all emitted artifacts are
deterministic: the same config run twice gives byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from .attractor import CloudBudgetError, chaos_game, hausdorff_distance, iterate_attractor
from .funcspace import ConvergenceError, _knot_residual, evaluate_exact, fixed_point
from .maps import InvalidSystemError, build_system
from .model import CONDITION3_MODES, STRICT_MODE, DataSet, WiringPlan, validate
from .render import export_csv, render_pgm, render_svg

OUTDIR_ENV = "GDFIF_OUTDIR"
CONFIG_KEYS = ("name", "datasets", "wiring", "solver", "attractor",
               "condition3_mode", "outputs", "outdir")
OUTPUT_KEYS = ("csv", "cloud_csv", "chaos_csv", "svg", "pgm", "summary")
# The most a count that sizes arrays may be. One row of 2**40 floats is 8 TiB,
# so a larger count could not run, and a smaller one that does not fit in
# memory is a MemoryError. Below the bound, NumPy's own limit (2**63 bytes an
# array) is reached only by 2**20 or more maps at resolution 2**40.
_MOST_COUNT = 2**40
# (section, key, flag type, default, least allowed value, most allowed value
# or None) of every solver and attractor setting: the table gives each
# section's allowed keys, the flags (max_iters -> --max-iters), and each
# value's default and inclusive bounds. 5e-324 is the least positive float,
# so `tol` must be positive.
SETTINGS = (
    ("solver", "resolution", int, 64, 2, _MOST_COUNT),
    ("solver", "tol", float, 1e-9, 5e-324, None),
    ("solver", "max_iters", int, 200, 1, None),
    ("attractor", "generations", int, 12, 1, None),
    ("attractor", "dedup_tol", float, 1e-3, 0.0, None),
    ("attractor", "chaos_points", int, 0, 0, _MOST_COUNT),
    ("attractor", "burn_in", int, 100, 0, None),
    ("attractor", "seed", int, 7, 0, None),
)
# Each wiring form lists items of these keys; an interval is a block of count 1.
WIRING_FORMS = {"intervals": ("interval", ("source", "d")),
                "blocks": ("block", ("source", "count", "d"))}


class ConfigError(Exception):
    """Unreadable, unparsable, or structurally invalid configuration."""


@dataclass(frozen=True)
class ProjectConfig:
    name: str
    datasets: tuple[DataSet, ...]
    plan: WiringPlan
    resolution: int
    tol: float
    max_iters: int
    generations: int
    dedup_tol: float
    chaos_points: int
    burn_in: int
    seed: int
    condition3_mode: str
    outputs: tuple[tuple[str, str], ...]
    outdir: str | None
    inputs: tuple[Path, ...]  # the config file and the data CSVs it reads


def bundled_config_path(name: str) -> Path | None:
    """Path of a config shipped with the package, or None."""
    candidate = Path(__file__).with_name("configs") / f"{name}.yaml"
    return candidate if candidate.is_file() else None


def resolve_config_arg(arg: str) -> Path:
    """Treat the argument as a path first, then as a bundled config name."""
    path = Path(arg)
    path = path if path.is_file() else bundled_config_path(arg)
    if path is None:
        raise ConfigError(f"no config file at {arg!r} and no bundled config of that name")
    return path


def _number(value, what: str) -> float:
    """Accept YAML numbers plus "p/q" fraction strings (exact float division)."""
    if isinstance(value, bool):
        raise ConfigError(f"{what}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError as exc:  # an integer past the float range
            raise ConfigError(f"{what}: {exc}") from None
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                return float(num) / float(den)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{what}: bad fraction {value!r} ({exc})") from None
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{what}: cannot parse number {value!r}") from None
    raise ConfigError(f"{what}: expected a number, got {type(value).__name__}")


def _bounded(value, what: str, kind: type, least, most=None):
    """An integer (kind int) or a finite number (kind float) no less than
    `least` and, unless `most` is None, no more than `most`."""
    if kind is float:
        value = _number(value, what)
        if not math.isfinite(value):
            raise ConfigError(f"{what} must be finite, got {value}")
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what}: expected an integer, got {value!r}")
    if not value >= least:
        raise ConfigError(f"{what} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ConfigError(f"{what} must be at most {most}")
    return value


def _mapping(value, what: str, keys) -> dict:
    """The mapping `value` (None reads as empty), with no key outside `keys`."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a mapping")
    unknown = sorted(str(key) for key in value if key not in keys)
    if unknown:
        raise ConfigError(f"{what}: unknown keys {unknown}; known keys are {list(keys)}")
    return value


def _text(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a nonempty string, got {value!r}")
    return value


def read_points_csv(path) -> list[tuple[int, float, float]]:
    """Read exported samples back: `vertex,x,y` rows (header optional).

    Two-column `x,y` files are accepted too and get vertex 1; blank rows are
    skipped. Together with the 17-significant-digit export format this
    round-trips floats exactly.
    """
    rows: list[tuple[int, float, float]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = [(lineno, rec) for lineno, rec in enumerate(csv.reader(fh), start=1) if rec]
            for k, (lineno, rec) in enumerate(records):
                if k == 0 and not any(map(_is_number, rec)):
                    continue  # header row
                try:
                    if len(rec) == 3:
                        rows.append((int(rec[0]), float(rec[1]), float(rec[2])))
                    elif len(rec) == 2:
                        rows.append((1, float(rec[0]), float(rec[1])))
                    else:
                        raise ValueError(f"{len(rec)} columns")
                except ValueError as exc:
                    raise ConfigError(f"{path}: bad row {lineno}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_datasets(raw, base_dir: Path) -> tuple[tuple[DataSet, ...], tuple[Path, ...]]:
    """The data sets, one per vertex, and the paths of the data CSVs read."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'datasets' must be a nonempty list, one entry per vertex")
    datasets, paths = [], []
    for k, entry in enumerate(raw, start=1):
        if len(_mapping(entry, f"dataset {k}", ("points", "csv"))) != 1:
            raise ConfigError(f"dataset {k}: give exactly one of 'points' or 'csv'")
        if "points" in entry:
            pts = entry["points"]
            if not isinstance(pts, list) or not pts:
                raise ConfigError(f"dataset {k}: 'points' must be a nonempty list of [x, y]")
            parsed = []
            for j, pair in enumerate(pts):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"dataset {k}: point {j} must be a [x, y] pair")
                parsed.append((
                    _number(pair[0], f"dataset {k} point {j} x"),
                    _number(pair[1], f"dataset {k} point {j} y"),
                ))
            datasets.append(DataSet(tuple(parsed)))
        else:
            paths.append(base_dir / str(entry["csv"]))
            rows = read_points_csv(paths[-1])
            vertices = sorted({v for v, _, _ in rows})
            if len(vertices) > 1:
                raise ConfigError(
                    f"dataset {k}: {entry['csv']} holds rows of vertices {vertices}; "
                    f"a data set is one vertex's points"
                )
            datasets.append(DataSet(tuple((x, y) for _, x, y in rows)))
    return tuple(datasets), tuple(paths)


def _parse_wiring(raw) -> WiringPlan:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'wiring' must be a nonempty list, one entry per vertex")
    per_vertex = []
    for k, entry in enumerate(raw, start=1):
        if len(_mapping(entry, f"wiring {k}", WIRING_FORMS)) != 1:
            raise ConfigError(f"wiring {k}: give exactly one of 'intervals' or 'blocks'")
        ((form, items),) = entry.items()
        if not isinstance(items, list) or not items:
            raise ConfigError(f"wiring {k}: {form!r} must be a nonempty list")
        noun, keys = WIRING_FORMS[form]
        pairs: list[tuple[int, float]] = []
        for i, item in enumerate(items, start=1):
            what = f"wiring {k} {noun} {i}"
            item = _mapping(item, what, keys)
            count = (_bounded(item.get("count"), f"{what} count", int, 1, _MOST_COUNT)
                     if "count" in keys else 1)
            source = _bounded(item.get("source"), f"{what} source", int, 1)
            pairs.extend([(source, _number(item.get("d"), f"{what} d"))] * count)
        per_vertex.append(pairs)
    return WiringPlan.from_pairs(per_vertex)


def load_config(path, flags=None) -> ProjectConfig:
    """Parse and structurally check a YAML config; see the README for the schema.

    A setting in `flags` replaces the config's value. Raises ConfigError with
    line and column for parse errors, and for missing files, unknown keys,
    bad types, or a dataset/wiring count mismatch. Mathematical violations
    are left to `validate`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = _safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if isinstance(exc, yaml.reader.ReaderError):
            # No mark; before the first forbidden character, splitlines breaks as YAML does.
            head = (text[:exc.position] + "^").splitlines()
            mark = yaml.Mark(str(path), exc.position, len(head) - 1, len(head[-1]) - 1, None, None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise ConfigError(f"parse error in {path}{where}: {problem}") from None
    return _parse_config(raw, path, flags or {})


class _UniqueKeys:
    """A loader mixin that refuses a mapping which repeats a key, where PyYAML
    keeps the last value, and a tagged scalar its constructor cannot read.
    A mapping's own keys are checked the first time PyYAML flattens it, to build
    it or to merge it (<<) into another, so merged keys may repeat them, and after
    the parent hook, which retags a value key (=) as a string. The first repeat in
    build order (outer mappings first, a merged one before its host) is named."""

    def __init__(self, stream):
        super().__init__(stream)
        self._flattened = set()

    def flatten_mapping(self, node):
        own = [] if node in self._flattened else [
            key for key, _ in node.value
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge"]
        self._flattened.add(node)
        super().flatten_mapping(node)
        keys = set()
        for key_node in own:
            key = self.construct_object(key_node)
            if key in keys:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found a repeated key {key!r}", key_node.start_mark)
            keys.add(key)

    def construct_object(self, node, deep=False):
        # What a scalar constructor raises on text it cannot read, as `!!timestamp x`.
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError):
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {node.value!r} as {node.tag}", node.start_mark) from None


_LOADER = type("Loader", (_UniqueKeys, yaml.SafeLoader), {})
_CLOADER = type("CLoader", (_UniqueKeys, yaml.CSafeLoader), {}) if yaml.__with_libyaml__ else None


def _safe_load(text: str):
    """yaml.safe_load through `_UniqueKeys`, by libyaml when PyYAML has it. A document
    libyaml rejects is parsed again in pure Python, whose wording and marks are reported."""
    if yaml.__with_libyaml__:
        try:
            return yaml.load(text, Loader=_CLOADER)
        except yaml.YAMLError:
            pass
    return yaml.load(text, Loader=_LOADER)


def _parse_config(raw, path: Path, flags: dict) -> ProjectConfig:
    """Check the parsed YAML `raw`; a setting in `flags` replaces the config's value."""
    raw = _mapping(raw, f"{path}: top level", CONFIG_KEYS)
    datasets, data_csvs = _parse_datasets(raw.get("datasets"), path.parent)
    plan = _parse_wiring(raw.get("wiring"))
    if plan.n != len(datasets):
        raise ConfigError(
            f"{path}: {len(datasets)} datasets but wiring for {plan.n} vertices"
        )

    sections = {s: _mapping(raw.get(s), f"section {s!r}", [k for t, k, *_ in SETTINGS if t == s])
                for s in dict.fromkeys(row[0] for row in SETTINGS)}
    settings = {key: _bounded(flags.get(key, sections[s].get(key, default)), f"{s}.{key}",
                              kind, least, most)
                for s, key, kind, default, least, most in SETTINGS}

    mode = flags.get("condition3_mode", raw.get("condition3_mode", STRICT_MODE))
    if mode not in CONDITION3_MODES:
        raise ConfigError(
            f"{path}: condition3_mode must be one of {list(CONDITION3_MODES)}, got {mode!r}"
        )

    outputs = _mapping(raw.get("outputs"), "section 'outputs'", OUTPUT_KEYS)
    if "chaos_csv" in outputs and not settings["chaos_points"] > settings["burn_in"]:
        raise ConfigError(
            f"outputs.chaos_csv needs attractor.chaos_points ({settings['chaos_points']}) "
            f"above attractor.burn_in ({settings['burn_in']})"
        )
    outputs = tuple((k, _text(outputs[k], f"outputs.{k}")) for k in OUTPUT_KEYS if k in outputs)

    return ProjectConfig(
        name=_text(raw["name"], "name") if "name" in raw else path.stem,
        datasets=datasets,
        plan=plan,
        condition3_mode=mode,
        outputs=outputs,
        outdir=_text(raw["outdir"], "outdir") if "outdir" in raw else None,
        inputs=(path, *data_csvs),
        **settings,
    )


def _check_outputs(cfg: ProjectConfig, outdir: Path) -> None:
    """Refuse an output that resolves, symlinks followed, to an input or an earlier output."""
    claimed = {os.path.realpath(p): p for p in cfg.inputs}  # an input's Path, an output's key
    for key, rel in cfg.outputs:
        other = claimed.setdefault(os.path.realpath(outdir / rel), key)
        if isinstance(other, Path):
            raise ConfigError(f"outputs.{key} names {str(other)!r}, an input of this config")
        if other != key:
            raise ConfigError(f"outputs.{other} and outputs.{key} both name {rel!r}")


def _json(obj) -> str:
    """The CLI's one JSON form: strict, so that NaN or an infinity raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _emit_json(obj, stream=None) -> None:
    print(_json(obj), file=stream or sys.stdout)


def cmd_validate(cfg: ProjectConfig, outdir: Path, args) -> int:
    report = validate(cfg.datasets, cfg.plan, cfg.condition3_mode)
    _emit_json(asdict(report))
    return 0 if report.ok else 1


def _emit_artifacts(cfg: ProjectConfig, outdir: Path, result, clouds, chaos,
                    summary: str | None) -> None:
    for key, rel in cfg.outputs:
        if key == "summary" and summary is None:
            continue
        target = outdir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        if key == "csv":
            export_csv(target, family=result.family)
        elif key == "cloud_csv":
            export_csv(target, clouds=clouds)
        elif key == "chaos_csv":
            export_csv(target, clouds=chaos)
        elif key == "svg":
            render_svg(target, datasets=cfg.datasets, family=result.family, clouds=clouds)
        elif key == "pgm":
            render_pgm(target, clouds=clouds)
        elif key == "summary":
            with open(target, "w", newline="\n") as fh:
                fh.write(summary + "\n")


def _summary(cfg: ProjectConfig, system, result, clouds) -> dict:
    if not math.isfinite(result.error_bound):
        raise ValueError("error_bound = final_delta * r / (1 - r) is past the float range")
    per_vertex = []
    for alpha in range(1, system.n + 1):
        fn = result.family.get(alpha)
        ds = system.dataset(alpha)
        per_vertex.append({
            "vertex": alpha,
            "knots": len(ds.points),
            "samples": int(fn.grid.size),
            "cloud_points": len(clouds[alpha - 1]),
            "hausdorff": hausdorff_distance(clouds[alpha - 1].points, fn.as_points()),
            "interpolation_residual": _knot_residual(ds, fn),
        })
    return {
        "name": cfg.name,
        "r": system.r,
        "iterations": result.iterations,
        "final_delta": result.final_delta,
        "error_bound": result.error_bound,
        "interpolation_residual": max(v["interpolation_residual"] for v in per_vertex),
        "hausdorff": max(v["hausdorff"] for v in per_vertex),
        "per_vertex": per_vertex,
    }


def cmd_run(cfg: ProjectConfig, outdir: Path, args) -> int:
    """Solve, iterate the attractor and write the artifacts; `run` adds the summary."""
    system = build_system(cfg.datasets, cfg.plan, cfg.condition3_mode)
    result = fixed_point(system, cfg.resolution, cfg.tol, cfg.max_iters)
    clouds = iterate_attractor(system, cfg.generations, cfg.dedup_tol)
    chaos = None
    if "chaos_csv" in dict(cfg.outputs):  # the one output that reads the chaos clouds
        chaos = chaos_game(system, cfg.chaos_points, cfg.burn_in, cfg.seed)
    summary = None
    if args.command == "run":
        summary = _json(_summary(cfg, system, result, clouds))
    _emit_artifacts(cfg, outdir, result, clouds, chaos, summary)
    if summary is not None:
        print(summary)
    return 0


def cmd_eval(cfg: ProjectConfig, outdir: Path, args) -> int:
    system = build_system(cfg.datasets, cfg.plan, cfg.condition3_mode)
    value = evaluate_exact(system, args.vertex, args.x, args.depth)
    _emit_json({"vertex": args.vertex, "x": args.x, "depth": args.depth, "value": value})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdfif",
        description="Graph-directed fractal interpolation pipeline",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="config file path or bundled config name")
    common.add_argument("--outdir", help=f"output directory (overrides ${OUTDIR_ENV})")
    for _, key, kind, *_ in SETTINGS:
        common.add_argument("--" + key.replace("_", "-"), type=kind)
    common.add_argument("--condition3-mode", choices=CONDITION3_MODES)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="check the construction hypotheses").set_defaults(handler=cmd_validate)
    sub.add_parser("run", parents=[common],
                   help="solve, iterate the attractor, emit artifacts and a summary"
                   ).set_defaults(handler=cmd_run)
    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate the interpolant at one abscissa")
    p_eval.add_argument("--vertex", type=int, default=1)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--depth", type=int, default=30)
    p_eval.set_defaults(handler=cmd_eval)
    sub.add_parser("render", parents=[common],
                   help="like run, but write every output except the summary"
                   ).set_defaults(handler=cmd_run)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            keys = [row[1] for row in SETTINGS] + ["condition3_mode"]
            flags = {key: vars(args)[key] for key in keys if vars(args)[key] is not None}
            cfg = load_config(resolve_config_arg(args.config), flags)
            outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or cfg.outdir or ".")
            _check_outputs(cfg, outdir)
            return args.handler(cfg, outdir, args)
        except InvalidSystemError as exc:  # a ValueError, so caught before the next clause
            _emit_json(asdict(exc.report))
            return 1
        except BrokenPipeError:
            raise
        except (ConfigError, CloudBudgetError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"error: the run ran out of memory: {exc}", file=sys.stderr)
            return 2
        except ConvergenceError as exc:
            _emit_json({
                "error": "no-convergence",
                "iterations": exc.iterations,
                "final_delta": exc.final_delta,
                "tol": exc.tol,
            }, stream=sys.stderr)
            return 3
        finally:
            sys.stdout.flush()  # so that a closed pipe fails here, not at shutdown
    except BrokenPipeError:
        # The reader of stdout has gone: what is left goes to os.devnull, so
        # the flush at shutdown stays quiet. 141 is a shell's 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

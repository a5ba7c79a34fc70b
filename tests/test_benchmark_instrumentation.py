"""perfbench's tracing layer against the library it instruments.

`perfbench/tracing.py` names each traced function by module and attribute
and reads some of its arguments by name. A renamed function or parameter
would not fail a library test, only a later benchmark run, so this loads
the tracing module by file path and checks every name it uses.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import gdfif.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# The arguments the count functions read, each by name.
READ_ARGUMENTS = {"clouds", "total_points", "p_points", "q_points", "path", "family"}

ALL_OUTPUTS = """\
datasets:
  - points: [[0, 0], [3, 5], [6, 4], [10, 1]]
wiring:
  - intervals: [{source: 1, d: 0.25}, {source: 1, d: 0.5}, {source: 1, d: 0.25}]
solver: {resolution: 16}
attractor: {generations: 3, chaos_points: 300, burn_in: 10}
outputs: {csv: c.csv, cloud_csv: k.csv, chaos_csv: h.csv, svg: a.svg, pgm: a.pgm,
          summary: s.json}
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Reads(dict):
    """Arguments by name, recording each name read."""

    def __init__(self, arguments, read):
        super().__init__(arguments)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_traced_function_resolves(tracing):
    for module, attr, _, _ in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_every_count_reads_parameters_of_the_function_it_wraps(tracing, tmp_path,
                                                                monkeypatch):
    originals = {span: getattr(importlib.import_module(module), attr)
                 for module, attr, span, _ in tracing.LAYERS}
    reads = {span: set() for span in originals}

    def recording(span, counts):
        return lambda p, r: counts(_Reads(p, reads[span]), r)

    layers = tuple((module, attr, span, counts and recording(span, counts))
                   for module, attr, span, counts in tracing.LAYERS)
    monkeypatch.setattr(tracing, "LAYERS", layers)
    # instrument rebinds the traced functions in every gdfif module; monkeypatch
    # puts each binding back afterwards.
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gdfif" or name.startswith("gdfif.")):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in originals.values()):
                    monkeypatch.setattr(module, key, value)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)

    config = tmp_path / "all_outputs.yaml"
    config.write_text(ALL_OUTPUTS)
    assert gdfif.cli.main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0

    counted = {span[3]: span[6] for span in tracer.spans if span[6]}
    assert counted["maps.build_system"]["maps"] == 3  # build_system's result has .maps
    assert {span for _, _, span, counts in layers if counts} <= set(counted)
    for span, names in reads.items():
        parameters = inspect.signature(originals[span]).parameters
        assert names <= set(parameters), (span, names - set(parameters))
    assert set().union(*reads.values()) == READ_ARGUMENTS

"""In-memory spans around the public calls of each gdfif layer.

`instrument` replaces every binding of a traced function in the loaded
`gdfif` modules, so each caller hits the wrapper: `iterate_attractor`,
for example, is wrapped both in `gdfif.attractor` and in `gdfif.cli`,
which imported it. Spans are kept in a list and written out when the run ends.
Span times are CPU seconds of the main thread, like the end-to-end times
they are compared with.
"""

from __future__ import annotations

import inspect
import os
import sys
import time


def _points(clouds) -> int:
    return sum(len(c) for c in clouds) if clouds is not None else 0


def _csv_rows(p) -> int:
    if p["family"] is not None:
        return sum(fn.grid.size for fn in p["family"])
    return _points(p["clouds"])


# (module, function, span name, counts(arguments by name, result) -> dict)
LAYERS = (
    ("gdfif.cli", "main", "cli.main", None),
    ("gdfif.cli", "load_config", "cli.load_config", None),
    ("gdfif.model", "validate", "model.validate", None),
    ("gdfif.maps", "build_system", "maps.build_system",
     lambda p, r: {"maps": sum(len(m) for m in r.maps)}),
    ("gdfif.funcspace", "fixed_point", "funcspace.fixed_point",
     lambda p, r: {"iterations": r.iterations,
                   "samples": sum(fn.grid.size for fn in r.family)}),
    ("gdfif.funcspace", "apply_T", "funcspace.apply_T", None),
    ("gdfif.funcspace", "family_distance", "funcspace.family_distance", None),
    ("gdfif.funcspace", "evaluate_exact", "funcspace.evaluate_exact", None),
    ("gdfif.funcspace", "interpolation_residual", "funcspace.interpolation_residual", None),
    ("gdfif.attractor", "iterate_attractor", "attractor.iterate_attractor",
     lambda p, r: {"after": _points(r)}),
    # A step's input clouds of generation 1 and up are the previous step's
    # deduplicated output.
    ("gdfif.attractor", "hutchinson_step", "attractor.hutchinson_step",
     lambda p, r: {"before": _points(r),
                   "after": sum(len(c) for c in p["clouds"] if c.generation >= 1)}),
    ("gdfif.attractor", "chaos_game", "attractor.chaos_game",
     lambda p, r: {"points": p["total_points"]}),
    ("gdfif.attractor", "hausdorff_distance", "attractor.hausdorff_distance",
     lambda p, r: {"points": len(p["p_points"]) + len(p["q_points"])}),
    ("gdfif.render", "render_svg", "render.render_svg",
     lambda p, r: {"bytes": os.path.getsize(p["path"])}),
    ("gdfif.render", "render_pgm", "render.render_pgm",
     lambda p, r: {"points": _points(p["clouds"])}),
    ("gdfif.render", "export_csv", "render.export_csv",
     lambda p, r: {"rows": _csv_rows(p)}),
)


class Tracer:
    """Spans as [id, parent id, trace id, name, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace = "setup"
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self.trace, name, time.thread_time(), None, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list, counts: dict | None = None) -> None:
        span[5] = time.thread_time()
        if counts:
            span[6].update(counts)
        self._stack.pop()

    def wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                params = signature.bind(*args, **kwargs)
                params.apply_defaults()
                span[6].update(counts(params.arguments, result))
            return result
        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a gdfif module binds it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "gdfif" or name.startswith("gdfif."))]
    for module_name, attr, span_name, counts in LAYERS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, counts)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

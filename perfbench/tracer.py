"""Run one sparse-curves CLI invocation in-process with timing spans.

    python perfbench/tracer.py SPANS_JSON OP_ID -- <cli args>

Wraps the public functions listed in TRACED in every sparsecurves module that
holds them, so a caller finds the wrapper whichever name it looks up
(`bounds.plan_composite`, `cli.verify_sparsity`, the `intersections`
attribute `curves` reads, ...).  Spans (name, start, end, parent, op id and
counters) stay in memory and are written to SPANS_JSON once, when the
invocation ends.  Exit code, stdout and stderr are those of
`python -m sparsecurves.cli <cli args>`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# Per-layer metric fields reported for each traced function.  `exactint.self_s`
# (the three exactint functions together) and `trace.pass_s` are added by run.py.
LAYER_FIELDS = {
    "intersections.total_crossings_explicit": ("self_s", "calls", "pairs", "word_sets"),
    "intersections.total_crossings_analytic": ("self_s", "calls"),
    "homology.certify_distinct": ("self_s", "curves", "rss_rise_mb"),
    "homology.certify_generated": ("self_s",),
    "curves.generate_system": ("self_s", "curves", "rss_rise_mb"),
    "curves.verify_sparsity": ("self_s",),
    "document.save_document": ("self_s", "bytes"),
    "document.load_document": ("self_s", "bytes", "rss_rise_mb"),
    "surfaces.plan_composite": ("self_s", "calls"),
    "bounds.lower_bound": ("self_s",),
    "bounds.construction_count": ("self_s",),
    "bounds.upper_bound": ("self_s",),
    "bounds.certified_le": ("self_s", "calls"),
    "bounds.bounds_table": ("self_s",),
    "bounds.render_table_csv": ("self_s",),
    "bounds.crossing_inequality_check": ("self_s", "calls", "settled_digits"),
    "logspace.interval_context": ("calls",),
    "logspace.log10_int": ("calls",),
    "cli.main": ("self_s",),
}
EXACTINT_FUNCTIONS = (
    "exactint.floor_scaled_power",
    "exactint.le_scaled_power",
    "exactint.is_exact_power",
)
TRACED = tuple(LAYER_FIELDS) + EXACTINT_FUNCTIONS


def _word_set_counts(system) -> dict[str, int]:
    """Distinct per-necklace word sets and the pairs inside them: the work the
    explicit counter does after its per-necklace cache."""
    by_necklace: dict[int, list] = {}
    for curve in system.curves:
        by_necklace.setdefault(curve.necklace, []).append(curve.word)
    sizes = {tuple(sorted(words)): len(words) for words in by_necklace.values()}
    return {
        "word_sets": len(sizes),
        "pairs": sum(k * (k - 1) // 2 for k in sizes.values()),
    }


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# name -> (positional args, result) -> counters, read at the end of the span.
# Counters needing a pass over the curves are deferred to write time
# (see Tracer.write), so their cost lands in no span.
_COUNTERS = {
    "homology.certify_distinct": lambda a, r: {"curves": len(a[0].curves)},
    "curves.generate_system": lambda a, r: {"curves": len(r.curves)},
    "document.save_document": lambda a, r: {"bytes": _file_bytes(a[1])},
    "document.load_document": lambda a, r: {"bytes": _file_bytes(a[0])},
    "bounds.crossing_inequality_check": lambda a, r: {"settled_digits": r.digits},
}
_DEFERRED = {"intersections.total_crossings_explicit": lambda a: _word_set_counts(a[0])}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.deferred: list[tuple[int, object, tuple]] = []

    def wrap(self, name: str, func):
        counters = _COUNTERS.get(name)
        deferred = _DEFERRED.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": name,
                "op": self.op_id,
                "parent": self.stack[-1] if self.stack else None,
                "rss_start_mb": _maxrss_mb(),
            }
            self.spans.append(span)
            self.stack.append(index)
            returned, result = False, None
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                returned = True
                return result
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self.stack.pop()
                span["rss_rise_mb"] = _maxrss_mb() - span.pop("rss_start_mb")
                if returned and counters is not None:
                    span.update(counters(args, result))
                if returned and deferred is not None:
                    self.deferred.append((index, deferred, args))

        traced.__wrapped__ = func
        return traced

    def install(self, names=TRACED) -> None:
        """Replace each function wherever a sparsecurves module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "sparsecurves" or n.startswith("sparsecurves.")]
        for name in names:
            module_name, func_name = name.split(".")
            func = getattr(sys.modules[f"sparsecurves.{module_name}"], func_name)
            wrapper = self.wrap(name, func)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, wrapper)

    def write(self, path: Path) -> None:
        for index, deferred, args in self.deferred:
            self.spans[index].update(deferred(args))
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON OP_ID -- <cli args>", file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    from sparsecurves import cli

    tracer = Tracer(op_id)
    tracer.install()
    main_span = cli.main  # wrapped by install()
    try:
        return main_span(cli_args)
    except SystemExit as exc:  # argparse errors, as under `python -m`
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error: traceback and exit 1, as under `python -m`
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

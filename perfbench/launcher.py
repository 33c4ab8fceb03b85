"""Traced stand-in for ``python -m lir``.

Usage: python3 perfbench/launcher.py SPANS_JSON -- <lir arguments>

The launcher wraps lir's public functions at every name that binds them
(``cli`` imports ``from .io import ...``, so patching ``lir.io`` alone would
miss its calls), runs ``lir.cli.main(argv)``, and writes the spans and
counters to SPANS_JSON once, when the command has finished. Nothing in
``src/`` knows about tracing.

A span is ``[name, start_s, end_s, parent_index]`` with times from
``time.perf_counter`` and ``parent_index`` -1 for a root. Counters are
computed work counts (rows, bytes, flops, calls), not timings.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter

# Functions timed as spans, by module. Internal calls resolve through module
# globals, so svd -> jacobi_eigh and evaluate_retrieval -> average_precision
# nest as child spans.
SPANNED = {
    "linalg": ("svd", "jacobi_eigh", "pca_project"),
    "removal": ("fit_decomposition", "remove_batch"),
    "evaluation": (
        "evaluate_retrieval",
        "average_precision",
        "evaluate_transfer",
        "train_logistic",
        "predict_logistic",
        "export_projection",
    ),
    "io": (
        "read_embeddings",
        "write_embeddings",
        "read_components",
        "read_components_dir",
        "write_components",
        "read_qrels",
        "read_labels",
        "write_qrels",
        "write_labels",
        "write_report",
        "write_projection_csv",
    ),
    "core": ("corpus_fingerprint", "check_collection"),
    "synth": ("generate",),
}
# Per-record functions: counted, not timed, so tracing stays cheap.
COUNTED = {"linalg": ("project_out",)}
MODULES = ("cli", "core", "evaluation", "io", "linalg", "removal", "synth")


def _count_svd(counters, args, result):
    n, d = args[0].shape
    small, large = min(n, d), max(n, d)
    counters["linalg.gram_flops"] += large * small * small
    counters["linalg.eig_dim"] = max(counters["linalg.eig_dim"], small)


def _count_read_embeddings(counters, args, result):
    counters["io.bytes_read"] += os.path.getsize(args[0])
    counters["io.rows_read"] += len(result)


def _count_read_file(counters, args, result):
    counters["io.bytes_read"] += os.path.getsize(args[0])


def _count_write_embeddings(counters, args, result):
    counters["io.bytes_written"] += os.path.getsize(args[0])
    counters["io.rows_written"] += len(args[1])


def _count_write_file(counters, args, result):
    counters["io.bytes_written"] += os.path.getsize(args[0])


def _count_retrieval(counters, args, result):
    dataset = args[0]
    counters["evaluation.scores"] += len(dataset.queries) * len(dataset.candidates)


def _count_remove_batch(counters, args, result):
    counters["removal.remove_batch.rows"] += len(result.records)


COUNT_HOOKS = {
    "linalg.svd": _count_svd,
    "io.read_embeddings": _count_read_embeddings,
    "io.read_components": _count_read_file,
    "io.read_qrels": _count_read_file,
    "io.read_labels": _count_read_file,
    "io.write_embeddings": _count_write_embeddings,
    "io.write_components": _count_write_file,
    "io.write_qrels": _count_write_file,
    "io.write_labels": _count_write_file,
    "io.write_report": _count_write_file,
    "io.write_projection_csv": _count_write_file,
    "evaluation.evaluate_retrieval": _count_retrieval,
    "removal.remove_batch": _count_remove_batch,
}


class Tracer:
    """In-memory span recorder for one CLI invocation."""

    def __init__(self, lir_error):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._lir_error = lir_error

    def span(self, name, module, func, hook=None):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except self._lir_error as exc:
                self._count_error(exc, module)
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def counted(self, name, func):
        counters = self.counters
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def _count_error(self, exc, module):
        # An exception is counted once, in the module of the innermost
        # wrapped function it escaped from.
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.errors[module] += 1

    def dump(self, path) -> None:
        payload = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "errors": {module: self.errors[module] for module in MODULES},
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def _rebind(original, replacement) -> None:
    """Point every lir-module name bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "lir" and not mod_name.startswith("lir."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the traced functions; returns the wrapped ``lir.cli.main``."""
    import lir.cli
    import lir.core

    for module_name, names in SPANNED.items():
        module = importlib.import_module(f"lir.{module_name}")
        for fname in names:
            qual = f"{module_name}.{fname}"
            original = getattr(module, fname)
            _rebind(original, tracer.span(qual, module_name, original, COUNT_HOOKS.get(qual)))
    for module_name, names in COUNTED.items():
        module = importlib.import_module(f"lir.{module_name}")
        for fname in names:
            original = getattr(module, fname)
            _rebind(original, tracer.counted(f"{module_name}.{fname}", original))
    # Command handlers are looked up when the parser is built inside main(),
    # so wrapping them catches errors raised by the CLI's own glue code.
    for attr in [a for a in vars(lir.cli) if a.startswith("_cmd_")]:
        setattr(lir.cli, attr, tracer.span(f"cli.{attr}", "cli", getattr(lir.cli, attr)))

    record_init = lir.core.EmbeddingRecord.__post_init__
    counters = tracer.counters

    def counted_init(self):
        counters["core.records"] += 1
        record_init(self)

    lir.core.EmbeddingRecord.__post_init__ = counted_init
    return tracer.span("cli.main", "cli", lir.cli.main)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py SPANS_JSON -- <lir arguments>", file=sys.stderr)
        return 2
    spans_path, lir_args = argv[0], argv[2:]
    from lir.errors import LirError

    tracer = Tracer(LirError)
    traced_main = install(tracer)
    try:
        return traced_main(lir_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

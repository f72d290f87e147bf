"""Traced run of one cryptodep command, in process.

Usage: python3 benchmark/traced.py SPANS.json OUTPUT OP_ID -- <cryptodep arguments>

Imports ``cryptodep.cli``, wraps the public functions ``main`` reaches
(looked up where the caller looks them up, so the code path is the CLI's),
calls ``main`` with stdout going to OUTPUT, and writes the spans to
SPANS.json when it ends.  A span is ``[name, start, end, parent, op]``
with times in seconds from process start, ``parent`` the index of the
enclosing span or -1, and ``op`` the OP_ID of the operation.  The file
also holds counts taken at span ends and each garbage collection's pause.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time

T0 = time.perf_counter()


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.gc_pauses: list[list] = []  # [generation, seconds]
        self.blocks_peak = 0
        self._stack: list[int] = []
        self._gc_start = 0.0

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, func, measure=None):
        """``func`` wrapped to record a span; ``measure(result)`` adds counts."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter() - T0, None, self._stack[-1] if self._stack else -1, self.op])
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter() - T0
                self.blocks_peak = max(self.blocks_peak, sys.getallocatedblocks())
            if measure is not None:
                measure(result)
            return result

        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append([info["generation"], time.perf_counter() - self._gc_start])


def install(tracer: Tracer) -> None:
    from cryptodep import analysis, cli, ingest, rules

    def patch(module, attr: str, name: str, measure=None) -> None:
        setattr(module, attr, tracer.span(name, getattr(module, attr), measure))

    def count_records(result) -> None:
        tracer.add("ingest.rows", len(result[0]))

    def count_graph(graph) -> None:
        tracer.add("rules.vertices", len(graph.vertices))
        tracer.add("rules.edges", len(graph.edges))

    def count_findings(result) -> None:
        tracer.add("analysis.findings", len(result[0]))

    patch(cli, "text_digest", "cli.digest")
    patch(cli, "file_digest", "cli.digest")
    patch(cli, "default_registry_text", "ingest.registry")
    patch(cli, "parse_registry_text", "ingest.registry")
    patch(cli, "load_bundle", "ingest.load")
    patch(ingest, "parse_tabular", "ingest.parse", count_records)
    patch(ingest, "assemble_bundle", "ingest.assemble")
    patch(cli, "validate_bundle", "ingest.validate")
    patch(cli, "build_graph", "rules.build", count_graph)
    patch(cli, "find_violations", "analysis.find", count_findings)
    patch(analysis, "score_finding", "analysis.score")
    patch(cli, "apply_overlay", "analysis.overlay")
    patch(cli, "make_report", "report.make")
    patch(cli, "render_json", "report.render")
    patch(cli, "render_whatif_json", "report.render")
    for method in ("vertex_map", "adjacency"):
        original = getattr(rules.DependencyGraph, method)

        def counted(self, _original=original, _name=f"rules.{method}_calls"):
            tracer.add(_name, 1)
            return _original(self)

        setattr(rules.DependencyGraph, method, counted)


def main(argv: list[str]) -> int:
    spans_path, output_path, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(op_id)
    gc.callbacks.append(tracer.on_gc)
    start = time.perf_counter()
    import cryptodep.cli

    import_s = time.perf_counter() - start
    install(tracer)
    with open(output_path, "w", encoding="utf-8") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            code = tracer.span("cli.main", cryptodep.cli.main)(cli_args)
        finally:
            sys.stdout = saved
    gc.callbacks.remove(tracer.on_gc)
    doc = {
        "import_s": import_s,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "gc_pauses": tracer.gc_pauses,
        "blocks_peak": tracer.blocks_peak,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

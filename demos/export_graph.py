#!/usr/bin/env python3
"""Export the hybrid-enterprise sample as Graphviz DOT.

Writes DOT to stdout with the finding path highlighted in red, so you can
render it directly:

    python demos/export_graph.py | dot -Tsvg -o deps.svg
"""

import sys
from pathlib import Path

from cryptodep import (
    build_graph,
    find_violations,
    load_bundle,
    load_default_registry,
    parse_profiles,
    render_dot,
)

SAMPLE = Path(__file__).resolve().parent.parent / "sample_inventories" / "hybrid_enterprise"
FILES = ["classifications.csv", "data.csv", "assets.csv", "crypto.csv", "access.csv"]


def main():
    bundle, _ = load_bundle(
        [SAMPLE / f for f in FILES],
        profiles=parse_profiles(SAMPLE / "profiles.json"),
        registry=load_default_registry(),
    )
    graph = build_graph(bundle)
    findings, _ = find_violations(graph, bundle)
    render_dot(graph, sys.stdout, highlight=list(findings))


if __name__ == "__main__":
    main()

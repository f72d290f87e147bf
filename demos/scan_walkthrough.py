#!/usr/bin/env python3
"""Walk through one scan of the bundled cloud example, step by step.

Run from the repository root:

    python demos/scan_walkthrough.py
"""

from pathlib import Path

from cryptodep import (
    build_graph,
    find_violations,
    load_bundle,
    parse_registry,
)

SAMPLE = Path(__file__).resolve().parent.parent / "sample_inventories" / "cloud_minimal"
FILES = ["classifications.csv", "data.csv", "cloudconfig.csv", "cryptoinventory.csv"]


def main():
    registry, _ = parse_registry(SAMPLE / "crypto.json")
    bundle, diagnostics = load_bundle(
        [SAMPLE / f for f in FILES],
        profiles=[],
        registry=registry,
        use_builtin_profiles=True,
    )
    print(f"loaded {len(bundle.data)} data record(s), {len(bundle.assets)} asset(s), "
          f"{len(bundle.crypto_objects)} crypto object(s); "
          f"{len(bundle.undeclared_assets)} asset(s) only referenced: {', '.join(sorted(bundle.undeclared_assets))}")
    for diag in diagnostics:
        print(" ", diag.render())

    graph = build_graph(bundle)
    print(f"\ngraph: {len(graph.vertices)} vertices, {len(graph.edges)} edges")
    for edge in graph.edges:
        print(f"  {edge.frm} -[{edge.rule}]-> {edge.to}")

    findings, warnings = find_violations(graph, bundle)
    print(f"\n{len(findings)} finding(s)")
    for finding in findings:
        print(f"  required {finding.required.display}, "
              f"provided {finding.provided.display}")
        print("  witness:", " -> ".join(finding.display_path))
        print(f"  score: {finding.score.total:g}")
    for warning in warnings:
        print(" ", warning.render())


if __name__ == "__main__":
    main()

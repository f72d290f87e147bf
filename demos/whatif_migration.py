#!/usr/bin/env python3
"""Try a migration before committing to it.

Applies an overlay that swaps the weak RSA-1024 configuration for ML-KEM-768
and shows how the finding list changes.  Run from the repository root:

    python demos/whatif_migration.py
"""

from pathlib import Path

from cryptodep import (
    Overlay,
    apply_overlay,
    build_graph,
    find_violations,
    load_bundle,
    load_default_registry,
)

SAMPLE = Path(__file__).resolve().parent.parent / "sample_inventories" / "cloud_minimal"
FILES = ["classifications.csv", "data.csv", "cloudconfig.csv", "cryptoinventory.csv"]


def scan(bundle):
    graph = build_graph(bundle)
    findings, _ = find_violations(graph, bundle)
    return findings


def main():
    # the default registry rates both the old and the new algorithm
    bundle, _ = load_bundle(
        [SAMPLE / f for f in FILES],
        profiles=[],
        registry=load_default_registry(),
        use_builtin_profiles=True,
    )

    baseline = scan(bundle)
    print(f"baseline: {len(baseline)} finding(s)")
    for finding in baseline:
        print("  ", " -> ".join(finding.display_path))

    overlay = Overlay(replace_algorithms=(("RSA[1024]", "ML-KEM[768]"),))
    migrated = scan(apply_overlay(bundle, overlay)[0])
    print(f"\nafter replacing RSA[1024] with ML-KEM[768]: {len(migrated)} finding(s)")
    for finding in migrated:
        print("  ", " -> ".join(finding.display_path))

    resolved = {f.id for f in baseline} - {f.id for f in migrated}
    print(f"\nresolved {len(resolved)} finding(s); the original files are untouched")


if __name__ == "__main__":
    main()

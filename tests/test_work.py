"""Work counts: how many times each stage runs for a fixed input.

A count on a fixed input does not vary from run to run, so these catch a
stage that runs twice, or a search that runs once per pair instead of once
per level, where a timing would not.  Each wraps the name its caller looks
up, so it counts every call the command makes."""

from __future__ import annotations

import csv
import random
from collections import Counter
from pathlib import Path

import pytest

import cryptodep.analysis as analysis
import cryptodep.ingest as ingest
import cryptodep.rules as rules
from cryptodep import InventoryBundle, build_graph, cli, find_violations, load_bundle, load_default_registry
from cryptodep.ingest import parse_profiles
from cryptodep.model import RefOrigin

from conftest import HYBRID, HYBRID_FILES, hybrid_args, run_cli
import inventory_gen

OVERLAY = Path(__file__).resolve().parent / "golden" / "overlay.json"


def _count(monkeypatch, owner, name: str, calls: Counter, key=None) -> None:
    """Wrap ``owner.name`` so each call adds one to ``calls[key(*args)]``,
    or to ``calls[name]`` without ``key``."""
    wrapped = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key(*args) if key else name] += 1
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_whatif_loads_once_and_assembles_validates_and_builds_each_side_once(monkeypatch):
    """One rule pass per side both builds the graph and gives the
    diagnostics, so no side is validated apart from its build."""
    calls: Counter = Counter()
    _count(monkeypatch, cli, "load_bundle", calls)
    # load_bundle assembles the rows, apply_overlay the edit: each module binds its own name
    _count(monkeypatch, ingest, "assemble_bundle", calls)
    _count(monkeypatch, analysis, "assemble_bundle", calls)
    _count(monkeypatch, cli, "validate_bundle", calls)
    _count(monkeypatch, cli, "build_graph", calls)
    _count(monkeypatch, rules._Builder, "__init__", calls, key=lambda *args: "_Builder")
    code, _, _ = run_cli(hybrid_args("whatif", "--overlay", str(OVERLAY), "--format", "json"))
    assert code == 1
    assert calls == {"load_bundle": 1, "assemble_bundle": 2, "build_graph": 2, "_Builder": 2}


@pytest.mark.parametrize("command", ["scan", "graph", "validate"])
def test_every_other_command_runs_the_rules_once(monkeypatch, command):
    calls: Counter = Counter()
    _count(monkeypatch, rules._Builder, "__init__", calls, key=lambda *args: "_Builder")
    code, _, _ = run_cli(hybrid_args(command))
    assert code == (1 if command == "scan" else 0)
    assert calls == {"_Builder": 1}


def test_load_bundle_reads_and_splits_each_file_once(monkeypatch):
    paths = [HYBRID / name for name in HYBRID_FILES]
    profiles = parse_profiles(HYBRID / "profiles.json")
    reads: Counter = Counter()
    readers: Counter = Counter()
    _count(monkeypatch, ingest, "read_input", reads, key=lambda path, what: path)
    _count(monkeypatch, csv, "reader", readers)
    bundle, diags = load_bundle(paths, profiles, load_default_registry())
    assert bundle.assets and diags == []
    assert reads == dict.fromkeys(paths, 1)
    assert readers == {"reader": len(paths)}


def test_a_scan_resolves_each_reference_cell_at_most_once(monkeypatch):
    """The rule pass resolves a cell once, for the graph and the diagnostics
    alike: a scan resolves no target more often than cells name it."""
    bundle, _ = load_bundle(
        [HYBRID / name for name in HYBRID_FILES], parse_profiles(HYBRID / "profiles.json"), load_default_registry()
    )
    cells = Counter(
        ref.target for asset in bundle.assets for ref in asset.accesses if ref.origin is RefOrigin.ASSET_FIELD
    )
    assert 0 < sum(1 for target in cells if target not in bundle.asset_map) < len(cells)
    calls: Counter = Counter()
    _count(monkeypatch, InventoryBundle, "resolve", calls, key=lambda bundle, target: target)
    code, _, _ = run_cli(hybrid_args("scan"))
    assert code == 1
    assert calls.keys() == cells.keys()
    assert not calls - cells


def test_a_scan_claims_each_id_for_a_record_kind_no_more_often_than_the_bundle_declares_it(monkeypatch):
    """The rule pass claims ids in its declare phase only: once per record,
    serves target and access-record target naming one.  Its link phase
    uses a declared id as it is, so a reference claims nothing again."""
    bundle, _ = load_bundle(
        [HYBRID / name for name in HYBRID_FILES], parse_profiles(HYBRID / "profiles.json"), load_default_registry()
    )
    declared = Counter(binding.label for binding in bundle.classifications)
    declared.update(record.id for record in (*bundle.data, *bundle.assets, *bundle.crypto_objects))
    for asset in bundle.assets:
        declared.update(asset.serves)
        declared.update(ref.target for ref in asset.accesses if ref.origin is RefOrigin.ACCESS_RECORD)
    made = (rules.VertexKind.SECURITY_LEVEL, rules.VertexKind.PRIMITIVE_CONFIG)
    calls: Counter = Counter()
    _count(monkeypatch, rules._Builder, "vertex", calls, key=lambda builder, ident, kind, *_: None if kind in made else ident)
    code, _, _ = run_cli(hybrid_args("scan"))
    assert code == 1
    del calls[None]
    assert calls and not calls - declared, calls - declared


def test_validate_builds_no_graph(monkeypatch):
    calls: Counter = Counter()
    _count(monkeypatch, cli, "build_graph", calls)
    _count(monkeypatch, rules._Builder, "finish", calls)
    code, _, _ = run_cli(hybrid_args("validate"))
    assert code == 0
    assert calls == {}


@pytest.mark.parametrize("seed", range(4))
def test_detection_searches_back_from_each_provided_level_at_most_twice(monkeypatch, seed):
    """One search that stops at the other levels, and one plain search for
    the required levels it misses."""
    bundle, _, _ = inventory_gen.random_bundle(
        random.Random(seed), n_classes=len(inventory_gen.LABELS), n_data=40, n_assets=40, n_crypto=30
    )
    graph = build_graph(bundle)
    searches: Counter = Counter()
    _count(monkeypatch, analysis, "_distances_to", searches, key=lambda graph, goal, stop, wanted: goal)
    findings, _ = find_violations(graph, bundle)
    assert findings
    assert {f.provided.key for f in findings} <= searches.keys()
    assert max(searches.values()) <= 2


def test_a_reverse_search_that_finds_every_wanted_level_stops_within_a_hop_of_the_farthest(monkeypatch):
    """``_distances_to`` returns once it has recorded every wanted vertex,
    so it records nothing more than one hop past the farthest of them; a
    search that ran on would record everything behind the provided level."""
    complete = []
    search = analysis._distances_to

    def recorded(graph, goal, stop, wanted):
        dist = search(graph, goal, stop, wanted)
        if wanted and all(vertex in dist for vertex in wanted):
            complete.append((max(dist.values()), max(dist[vertex] for vertex in wanted)))
        return dist

    monkeypatch.setattr(analysis, "_distances_to", recorded)
    for seed in range(4):
        bundle, _, _ = inventory_gen.random_bundle(
            random.Random(seed), n_classes=len(inventory_gen.LABELS), n_data=40, n_assets=40, n_crypto=30
        )
        findings, _ = find_violations(build_graph(bundle), bundle)
        assert findings
    assert len(complete) >= 10
    assert all(deepest <= farthest + 1 for deepest, farthest in complete), complete


@pytest.mark.parametrize("command", [("scan",), ("whatif", "--overlay", str(OVERLAY))])
def test_scan_and_whatif_read_the_vertex_index_and_make_no_vertex_list(monkeypatch, command):
    """Detection, scoring and the report ask the graph's id -> kind index;
    ``DependencyGraph.vertices`` makes a ``Vertex`` per vertex, for DOT."""
    calls: Counter = Counter()
    vertices = rules.DependencyGraph.vertices.fget

    def counted(graph):
        calls["vertices"] += 1
        return vertices(graph)

    monkeypatch.setattr(rules.DependencyGraph, "vertices", property(counted))
    code, _, _ = run_cli(hybrid_args(*command, "--format", "json"))
    assert code == 1
    assert calls == {}


def test_the_build_keeps_a_vertex_only_for_levels_configurations_and_named_records(monkeypatch):
    bundle, _ = load_bundle(
        [HYBRID / name for name in HYBRID_FILES], parse_profiles(HYBRID / "profiles.json"), load_default_registry()
    )
    calls: Counter = Counter()
    _count(monkeypatch, rules, "Vertex", calls)
    graph = build_graph(bundle)
    kept = list(graph.named.values())
    assert calls["Vertex"] == len(kept) < len(graph.kinds)
    held = (rules.VertexKind.SECURITY_LEVEL, rules.VertexKind.PRIMITIVE_CONFIG)
    assert all(v.kind in held or v.display != v.id for v in kept)

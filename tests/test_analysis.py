from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cryptodep import (
    AccessRef,
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    DataRecord,
    DependencyGraph,
    HorizonConfig,
    Overlay,
    OverlayError,
    ScoringPolicy,
    SecurityRating,
    Source,
    VulnerabilityClass,
    apply_overlay,
    assemble_bundle,
    build_graph,
    check_longevity,
    explain_edge,
    find_violations,
    load_default_registry,
    parse_overlay,
)
from cryptodep.registry import parse_registry_text
from cryptodep.model import RefOrigin
from cryptodep.analysis import _distances_to
from cryptodep.rules import Edge, Vertex, VertexKind

import inventory_gen
from oracle import violation_pairs_oracle, witnesses_oracle


def src(name="t.csv", ref="r"):
    return Source(name, ref)


def graph_of(vertices, edges):
    """The graph with these vertices and edges, naming the vertices a build
    would: those with a display other than their id or a payload."""
    return DependencyGraph(
        {v.id: v.kind for v in vertices}, tuple(sorted(edges)),
        {v.id: v for v in vertices if v.display != v.id or v.payload is not None},
    )


def scan_records(records, registry=None, **kwargs):
    bundle, _ = assemble_bundle(records, registry or load_default_registry())
    graph = build_graph(bundle)
    findings, diags = find_violations(graph, bundle, **kwargs)
    return graph, findings, diags


def chain_records(algorithm, flags, *, label="High", level="quantum-safe", retention=None):
    """classification -> data -> host -> key -> configuration."""
    rating = SecurityRating.parse(level)
    return [
        ClassificationBinding(label, (rating,), rank=0, source=src("c.csv", label)),
        DataRecord(
            id="D1", classification=label, storage_locations=("Host",),
            retention_years=retention, source=src("d.csv", "D1"),
        ),
        AssetRecord(id="Host", kind=AssetKind.PROCESSOR, source=src("a.csv", "Host")),
        CryptoObjectRecord(
            id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, location="Host",
            algorithm=algorithm, config_flags=flags, source=src("k.csv", "K1"),
        ),
    ]


# --------------------------------------------------------------------------
# end-to-end detection on the bundled fixture
# --------------------------------------------------------------------------

def test_fixture_scan_yields_the_known_finding(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    findings, diags = find_violations(graph, cloud_minimal_bundle)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == (
        "Approval:approved", "High", "Data1", "DB1", "WWW1",
        "certkey1", "RSA[1024]", "Approval:not-approved",
    )
    assert finding.display_path[0] == "approved"
    assert finding.display_path[-1] == "not-approved"
    assert [t.rule for t in finding.rule_trail] == [
        "SL1", "DC1", "D1", "AC1", "M1", "K4", "SL2",
    ]
    assert finding.affected_data == ("Data1",)
    assert re.fullmatch(r"[0-9a-f]{16}", finding.id)
    assert finding.score.total == 3.0
    assert [d.code for d in diags] == ["retention-unknown"]


def test_detection_is_repeatable(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    first = find_violations(graph, cloud_minimal_bundle)
    second = find_violations(graph, cloud_minimal_bundle)
    assert first == second


# --------------------------------------------------------------------------
# oracle equivalence on synthetic graphs
# --------------------------------------------------------------------------

ratings = st.one_of(
    st.sampled_from([80, 112, 128, 256]).map(SecurityRating.bits),
    st.sampled_from(["approved", "not-approved"]).map(SecurityRating.approval),
    st.sampled_from(["quantum-safe", "quantum-vulnerable"]).map(SecurityRating.quantum),
)


@st.composite
def synthetic_graphs(draw, dense=False, fan=0):
    """Random digraphs with the structural property the rules guarantee:
    level vertices are entered only by SL2 edges and left only by SL1.  A
    ``dense`` graph has at least 10 other edges and 3 of each level rule, so
    that a pair of levels often has several shortest paths.  With ``fan``, up
    to that many parallel vertices lead from m0 to m1, and every level has an
    edge to m0 and one from m1, so that a pair of levels can have more
    shortest paths than a witness limit keeps."""
    n = draw(st.integers(min_value=2, max_value=7))
    mids = [f"m{i}" for i in range(n)]
    fans = [f"f{i}" for i in range(draw(st.integers(min_value=0, max_value=fan)))]
    levels = draw(
        st.lists(ratings, min_size=2, max_size=5, unique_by=lambda r: r.key)
    )
    level_ids = [r.key for r in levels]
    mid_edges = draw(
        st.lists(
            st.tuples(st.sampled_from(mids), st.sampled_from(mids)), min_size=10 * dense, max_size=16
        )
    )
    sl1 = draw(
        st.lists(
            st.tuples(st.sampled_from(level_ids), st.sampled_from(mids)), min_size=3 * dense, max_size=6
        )
    )
    sl2 = draw(
        st.lists(
            st.tuples(st.sampled_from(mids), st.sampled_from(level_ids)), min_size=3 * dense, max_size=6
        )
    )
    if fans:
        # SL1 from every level into m0, SL2 from m1 into every level
        mid_edges = [e for e in mid_edges if e != ("m0", "m1")]
        mid_edges += [("m0", f) for f in fans] + [(f, "m1") for f in fans]
        sl1 += [(l, "m0") for l in level_ids]
        sl2 += [("m1", l) for l in level_ids]
    vertices = [Vertex(m, VertexKind.PROCESSOR, m) for m in mids + fans] + [
        Vertex(r.key, VertexKind.SECURITY_LEVEL, r.display, r) for r in levels
    ]
    mark = (Source("gen", "e"),)
    seen = set()
    edges = []
    for frm, to, rule in (
        [(a, b, "X") for a, b in mid_edges if a != b]
        + [(l, m, "SL1") for l, m in sl1]
        + [(m, l, "SL2") for m, l in sl2]
    ):
        if (frm, to, rule) not in seen:
            seen.add((frm, to, rule))
            edges.append(Edge(frm, to, rule, mark))
    return graph_of(vertices, edges)


@given(synthetic_graphs(fan=3))
@settings(max_examples=150)
def test_pairs_match_the_transitive_closure_oracle(graph):
    findings, _ = find_violations(graph)
    got = {(f.required.key, f.provided.key) for f in findings}
    assert got == violation_pairs_oracle(graph)


@given(synthetic_graphs(fan=3))
@settings(max_examples=150)
def test_witness_is_the_level_free_shortest_lexicographic_path(graph):
    findings, diags = find_violations(graph)
    edge_pairs = {(e.frm, e.to) for e in graph.edges}
    through = 0
    for finding in findings:
        assert finding.path[0] == finding.required.key
        assert finding.path[-1] == finding.provided.key
        assert all(pair in edge_pairs for pair in zip(finding.path, finding.path[1:]))
        expected, through_levels = witnesses_oracle(
            graph, finding.required.key, finding.provided.key
        )
        assert [finding.path] == expected
        through += through_levels
    assert through == sum(1 for d in diags if d.code == "witness-through-level")


def fanned_graph():
    """128 bits reaches 80 bits over four equally short paths, one through
    each of the vertices f0 to f3."""
    high, low = SecurityRating.bits(128), SecurityRating.bits(80)
    fans = ["f0", "f1", "f2", "f3"]
    mark = (src(),)
    edges = [Edge(high.key, "a", "SL1", mark), Edge("b", low.key, "SL2", mark)]
    edges += [Edge("a", f, "X", mark) for f in fans] + [Edge(f, "b", "X", mark) for f in fans]
    vertices = [Vertex(r.key, VertexKind.SECURITY_LEVEL, r.display, r) for r in (high, low)]
    vertices += [Vertex(v, VertexKind.PROCESSOR, v) for v in ["a", "b", *fans]]
    return graph_of(vertices, edges)


@given(synthetic_graphs(dense=True, fan=5), st.sampled_from([1, 3, 50]))
@example(fanned_graph(), 3)  # four shortest paths, so the limit drops one
@settings(max_examples=150)
def test_witnesses_are_the_first_k_level_free_shortest_paths(graph, limit):
    findings, _ = find_violations(graph, max_witnesses=limit)
    by_pair: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for finding in findings:
        by_pair.setdefault((finding.required.key, finding.provided.key), []).append(finding.path)
    for (high, low), paths in by_pair.items():
        assert sorted(paths) == witnesses_oracle(graph, high, low, limit)[0]


@given(synthetic_graphs(), st.text(max_size=3))
def test_edge_lookups_match_a_scan_of_the_edges(graph, absent):
    ids = [v.id for v in graph.vertices]
    if absent not in ids:
        ids.append(absent)
    for frm in ids:
        assert graph.out_edges(frm) == tuple(e for e in graph.edges if e.frm == frm)
        for to in ids:
            assert graph.edges_between(frm, to) == tuple(e for e in graph.edges if (e.frm, e.to) == (frm, to))


def test_reverse_search_stops_once_the_required_levels_are_recorded():
    """The required level is two hops from the provided one; 3,000 more
    vertices reach the provided level from three hops or more."""
    high, low = SecurityRating.bits(128), SecurityRating.bits(80)
    fan = [f"x{i:04}" for i in range(3000)]
    vertices = [Vertex(r.key, VertexKind.SECURITY_LEVEL, r.display, r) for r in (high, low)] + [
        Vertex(v, VertexKind.PROCESSOR, v) for v in ["hub", "key", "mid", *fan]
    ]
    mark = (src(),)
    edges = [
        Edge(high.key, "mid", "SL1", mark), Edge("mid", low.key, "SL2", mark),
        Edge("key", low.key, "SL2", mark), Edge("hub", "key", "X", mark),
        *(Edge(v, "hub", "X", mark) for v in fan),
    ]
    graph = graph_of(vertices, edges)
    dist = _distances_to(graph, low.key, {high.key, low.key}, [high.key])
    assert dist[high.key] == 2
    assert len(dist) < 10 < len(graph.vertices)
    findings, _ = find_violations(graph)
    assert [f.path for f in findings] == [(high.key, "mid", low.key)]


def crossing_records():
    """Two classifications whose levels (128 and 112 bits) are provided by
    weaker keys; the 128-bit level reaches 80 bits only through 112 bits.
    Neither data record has a retention period."""
    registry, _ = parse_registry_text(
        '[{"name": "Y", "configurations": [{"flags": ["1"], "security": 112}]},'
        ' {"name": "X", "configurations": [{"flags": ["1"], "security": 80}]}]',
        "r",
    )
    records = [
        ClassificationBinding("A", (SecurityRating.bits(128),), rank=0, source=src("c.csv", "A")),
        ClassificationBinding("B", (SecurityRating.bits(112),), rank=1, source=src("c.csv", "B")),
        DataRecord(id="Da", classification="A", storage_locations=("H1",), source=src("d.csv", "Da")),
        DataRecord(id="Db", classification="B", storage_locations=("H2",), source=src("d.csv", "Db")),
        AssetRecord(id="H1", kind=AssetKind.PROCESSOR, source=src("a.csv", "H1")),
        AssetRecord(id="H2", kind=AssetKind.PROCESSOR, source=src("a.csv", "H2")),
        CryptoObjectRecord(
            id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, location="H1",
            algorithm="Y", config_flags=("1",), source=src("k.csv", "K1"),
        ),
        CryptoObjectRecord(
            id="K2", object_type=CryptoObjectType.SYMMETRIC_KEY, location="H2",
            algorithm="X", config_flags=("1",), source=src("k.csv", "K2"),
        ),
    ]
    return records, registry


def test_through_level_fallback_on_a_real_inventory():
    records, registry = crossing_records()
    graph, findings, diags = scan_records(records, registry)
    pairs = {(f.required.key, f.provided.key): f for f in findings}
    assert set(pairs) == {
        ("Bits:128", "Bits:112"),
        ("Bits:128", "Bits:80"),
        ("Bits:112", "Bits:80"),
    }
    crossing = pairs[("Bits:128", "Bits:80")]
    assert "Bits:112" in crossing.path
    assert [d.code for d in diags].count("witness-through-level") == 1


def test_max_witnesses_enumerates_equal_length_paths():
    records = [
        ClassificationBinding("High", (SecurityRating.approval("approved"),), source=src("c.csv", "High")),
        DataRecord(id="D1", classification="High", storage_locations=("S1", "S2"), source=src("d.csv", "D1")),
        AssetRecord(id="S1", kind=AssetKind.PROCESSOR, source=src("a.csv", "S1")),
        AssetRecord(id="S2", kind=AssetKind.PROCESSOR, source=src("a.csv", "S2")),
        CryptoObjectRecord(
            id="K1", object_type=CryptoObjectType.SYMMETRIC_KEY, location="S1",
            algorithm="RSA", config_flags=("1024",), source=src("k.csv", "K1"),
        ),
        CryptoObjectRecord(
            id="K2", object_type=CryptoObjectType.SYMMETRIC_KEY, location="S2",
            algorithm="RSA", config_flags=("1024",), source=src("k.csv", "K2"),
        ),
    ]
    _, narrow, _ = scan_records(records)
    assert len(narrow) == 1
    assert "S1" in narrow[0].path  # lexicographically first witness

    _, wide, _ = scan_records(records, max_witnesses=3)
    assert len(wide) == 2  # only two distinct shortest paths exist
    assert {f.path[3] for f in wide} == {"S1", "S2"}
    assert len({f.id for f in wide}) == 2


@pytest.mark.parametrize("limit", [0, -2])
def test_max_witnesses_below_one_is_rejected(cloud_minimal_bundle, limit):
    graph = build_graph(cloud_minimal_bundle)
    with pytest.raises(ValueError, match=f"max_witnesses must be at least 1, got {limit}"):
        find_violations(graph, cloud_minimal_bundle, max_witnesses=limit)


def test_witness_search_follows_a_1200_hop_process_chain():
    hops = 1200
    records = [
        ClassificationBinding("High", (SecurityRating.approval("approved"),), source=src("c.csv", "High")),
        DataRecord(id="D1", classification="High", storage_locations=("P0000",), source=src("d.csv", "D1")),
    ]
    for i in range(hops):
        target = f"P{i + 1:04d}" if i + 1 < hops else "RSA[1024]"
        records.append(
            AssetRecord(
                id=f"P{i:04d}", kind=AssetKind.PROCESS,
                accesses=(AccessRef(target, origin=RefOrigin.ASSET_FIELD),),
                source=src("a.csv", f"P{i:04d}"),
            )
        )
    _, findings, _ = scan_records(records)
    assert len(findings) == 1
    path = findings[0].path
    assert len(path) == hops + 5
    assert path[:4] == ("Approval:approved", "High", "D1", "P0000")
    assert path[-3:] == ("P1199", "RSA[1024]", "Approval:not-approved")


def test_findings_and_diagnostics_come_out_in_pair_order():
    # pairs in (required, provided) order are 112->80, 128->112, 128->80;
    # the per-pair diagnostics follow that order, not the provided level's
    records, registry = crossing_records()
    _, findings, diags = scan_records(records, registry)
    assert [(f.required.key, f.provided.key, f.score.total) for f in findings] == [
        ("Bits:128", "Bits:80", 2.0),
        ("Bits:128", "Bits:112", 2.0),
        ("Bits:112", "Bits:80", 1.0),
    ]
    assert findings[0].path == (
        "Bits:128", "A", "Da", "H1", "K1", "Y[1]", "Bits:112",
        "B", "Db", "H2", "K2", "X[1]", "Bits:80",
    )
    # each diagnostic once, where it first arises
    assert [(d.code, d.message) for d in diags] == [
        ("retention-unknown", "no retention period for Db, longevity not assessed"),
        ("retention-unknown", "no retention period for Da, longevity not assessed"),
        ("witness-through-level", "every path from 128-bit to 80-bit crosses another security level"),
    ]


def test_rule_trails_agree_with_explain_edge():
    hops = 0
    for seed in range(60):
        bundle, _, _ = inventory_gen.random_bundle(random.Random(seed))
        graph = build_graph(bundle)
        findings, _ = find_violations(graph, bundle, max_witnesses=3)
        for finding in findings:
            assert finding.path == tuple(t.frm for t in finding.rule_trail) + (finding.path[-1],)
            for trace in finding.rule_trail:
                explained = explain_edge(graph, trace.frm, trace.to)
                assert trace.rule == "/".join(sorted({rule for rule, _ in explained}))
                assert trace.provenance == tuple(
                    sorted({source for _, source in explained}, key=lambda s: (s.file, s.ref))
                )
                hops += 1
    assert hops > 100


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------

def test_longevity_rule():
    horizon = HorizonConfig()
    mk = lambda years: DataRecord(id="D", retention_years=years, source=src())
    assert check_longevity(mk(None), horizon) == (False, False)
    assert check_longevity(mk(5.0), horizon) == (False, True)
    assert check_longevity(mk(10.0), horizon) == (False, True)  # 10 + 5 is not > 15
    assert check_longevity(mk(10.5), horizon) == (True, True)
    tight = HorizonConfig(migration_years=0.0, quantum_horizon_years=9.0)
    assert check_longevity(mk(10.0), tight) == (True, True)


def test_horizon_rejects_negative_years():
    with pytest.raises(ValueError):
        HorizonConfig(migration_years=-1.0)


def test_vulnerability_class_weights_order_findings():
    totals = {}
    for algorithm, flags in (("ECDSA", ("P-256",)), ("RSA", ("2048",)), ("AES", ("128",))):
        _, findings, _ = scan_records(chain_records(algorithm, flags))
        assert len(findings) == 1
        totals[algorithm] = findings[0].score.total
    assert totals == {"ECDSA": 4.0, "RSA": 3.0, "AES": 2.0}


def test_sensitivity_follows_classification_rank():
    low_rank = ClassificationBinding(
        "Low", (SecurityRating.quantum("quantum-safe"),), rank=1, source=src("c.csv", "Low")
    )
    base = chain_records("AES", ("128",))
    _, findings, _ = scan_records(base + [low_rank])
    # two labels, path passes the rank-0 one: weight 2 - 0 = 2
    assert findings[0].score.sensitivity_weight == 2.0
    assert findings[0].score.total == 4.0  # 2 * symmetric-search 2

    relabeled = [r for r in base]
    relabeled[1] = DataRecord(
        id="D1", classification="Low", storage_locations=("Host",), source=src("d.csv", "D1")
    )
    relabeled[0] = ClassificationBinding(
        "High", (SecurityRating.quantum("quantum-safe"),), rank=0, source=src("c.csv", "High")
    )
    # make Low the required chain instead
    relabeled.append(low_rank)
    _, findings, _ = scan_records(relabeled)
    assert findings[0].score.sensitivity_weight == 1.0  # 2 - rank 1


def test_longevity_doubles_the_score():
    _, patient, _ = scan_records(chain_records("AES", ("128",), retention=5.0))
    assert patient[0].score.longevity_flag is False
    assert patient[0].score.total == 2.0

    _, urgent, _ = scan_records(chain_records("AES", ("128",), retention=30.0))
    assert urgent[0].score.longevity_flag is True
    assert urgent[0].score.total == 4.0


def test_unknown_retention_warns_instead_of_guessing():
    _, findings, diags = scan_records(chain_records("AES", ("128",)))
    finding = findings[0]
    assert finding.score.longevity_flag is False
    assert any("retention" in w for w in finding.score.warnings)
    assert [d.code for d in diags] == ["retention-unknown"]


def test_scan_without_bundle_degrades_to_neutral_sensitivity():
    bundle, _ = assemble_bundle(chain_records("ECDSA", ("P-256",)), load_default_registry())
    graph = build_graph(bundle)
    findings, _ = find_violations(graph)  # no bundle
    assert findings[0].score.sensitivity_weight == 1.0
    assert findings[0].score.total == 4.0
    assert any("no classification on the witness path" in w for w in findings[0].score.warnings)


def test_custom_policy_weights():
    policy = ScoringPolicy.from_dict(
        {"class_weights": {"SymmetricSearch": 9.0}, "longevity_multiplier": 5.0}
    )
    assert policy.weight_for(VulnerabilityClass.SYMMETRIC_SEARCH) == 9.0
    assert policy.weight_for(VulnerabilityClass.ELLIPTIC_CURVE) == 4.0  # defaults kept
    _, findings, _ = scan_records(
        chain_records("AES", ("128",), retention=30.0), policy=policy
    )
    assert findings[0].score.total == 45.0  # 1 * 9 * 5
    round_tripped = ScoringPolicy.from_dict(policy.to_dict())
    assert round_tripped == policy


def test_findings_sorted_by_score_then_id():
    records = (
        chain_records("ECDSA", ("P-256",))
        + [
            DataRecord(
                id="D2", classification="High", storage_locations=("Host2",),
                source=src("d.csv", "D2"),
            ),
            AssetRecord(id="Host2", kind=AssetKind.PROCESSOR, source=src("a.csv", "Host2")),
            CryptoObjectRecord(
                id="K2", object_type=CryptoObjectType.SYMMETRIC_KEY, location="Host2",
                algorithm="AES", config_flags=("128",), source=src("k.csv", "K2"),
            ),
        ]
    )
    # both chains answer the same (quantum-safe, quantum-vulnerable) pair, so
    # force distinct pairs with a second dimension on the low chain
    records[0] = ClassificationBinding(
        "High",
        (SecurityRating.quantum("quantum-safe"), SecurityRating.bits(256)),
        rank=0,
        source=src("c.csv", "High"),
    )
    _, findings, _ = scan_records(records)
    totals = [f.score.total for f in findings]
    assert totals == sorted(totals, reverse=True)
    same_score = [f.id for f in findings if f.score.total == totals[-1]]
    assert same_score == sorted(same_score)


# --------------------------------------------------------------------------
# overlays
# --------------------------------------------------------------------------

def test_parse_overlay_shapes():
    overlay = parse_overlay(
        '{"replace_algorithms": [{"from": "RSA[1024]", "to": "ML-KEM[768]"}],'
        ' "remove_records": ["K1"],'
        ' "add_records": [{"record_kind": "data", "id": "D9"}]}'
    )
    assert overlay.replace_algorithms == (("RSA[1024]", "ML-KEM[768]"),)
    assert overlay.remove_records == ("K1",)
    assert overlay != Overlay()
    assert parse_overlay("{}") == Overlay()


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"replace": []}',
        '{"replace_algorithms": [{"from": "RSA[1024]"}]}',
        '{"replace_algorithms": [{"from": "RSA[", "to": "X"}]}',
        '{"remove_records": [3]}',
        '{"add_records": [{"id": "D9"}]}',
        "nonsense",
    ],
)
def test_parse_overlay_rejects(text):
    with pytest.raises(OverlayError):
        parse_overlay(text)


def test_empty_overlay_is_identity(cloud_minimal_bundle):
    assert apply_overlay(cloud_minimal_bundle, Overlay())[0] == cloud_minimal_bundle


def test_replace_algorithm_rewrites_crypto_records(cloud_minimal_bundle):
    from dataclasses import replace

    # the fixture registry only rates RSA[1024]; swap in the shipped registry
    # so the replacement target is rated
    bundle = replace(cloud_minimal_bundle, registry=load_default_registry())
    overlay = Overlay(replace_algorithms=(("RSA[1024]", "RSA[2048]"),))
    patched, _ = apply_overlay(bundle, overlay)
    assert patched.crypto_objects[0].algorithm == "RSA"
    assert patched.crypto_objects[0].config_flags == ("2048",)
    # the original bundle is untouched
    assert cloud_minimal_bundle.crypto_objects[0].config_flags == ("1024",)


def test_replacement_must_be_rated(cloud_minimal_bundle):
    overlay = Overlay(replace_algorithms=(("RSA[1024]", "WISHFUL[1]"),))
    with pytest.raises(OverlayError, match="WISHFUL\\[1\\] is not in the registry"):
        apply_overlay(cloud_minimal_bundle, overlay)


def test_overlay_reports_every_problem_at_once(cloud_minimal_bundle):
    overlay = Overlay(
        replace_algorithms=(("RSA[1024]", "WISHFUL[1]"),),
        remove_records=("NotThere",),
    )
    with pytest.raises(OverlayError) as exc:
        apply_overlay(cloud_minimal_bundle, overlay)
    message = str(exc.value)
    assert "WISHFUL[1]" in message
    assert "NotThere" in message


def test_removing_the_bridge_asset_clears_the_finding(cloud_minimal_bundle):
    overlay = Overlay(remove_records=("WWW1",))
    patched, _ = apply_overlay(cloud_minimal_bundle, overlay)
    graph = build_graph(patched)
    findings, _ = find_violations(graph, patched)
    assert findings == []


def test_added_records_join_the_bundle(cloud_minimal_bundle):
    overlay = Overlay(
        add_records=(
            {"record_kind": "data", "id": "Audit1", "classification": "High"},
            {"record_kind": "classification", "label": "Internal",
             "required": [{"dimension": "Bits", "value": 128}]},
        )
    )
    patched, _ = apply_overlay(cloud_minimal_bundle, overlay)
    assert "Audit1" in patched.data_map
    added = patched.classification_map["Internal"]
    assert added.rank == 1  # appended below the existing ranking
    assert [d.id for d in patched.data] == sorted(d.id for d in patched.data)

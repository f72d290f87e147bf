from __future__ import annotations

import json

from cryptodep import (
    DependencyGraph,
    HorizonConfig,
    ScoringPolicy,
    build_graph,
    find_violations,
    load_default_registry,
)
from cryptodep.report import (
    ScanReport,
    make_report,
    render_dot,
    render_json,
    render_text,
    render_whatif_json,
    render_whatif_text,
)
from cryptodep.rules import Edge, Vertex, VertexKind

from oracle import read_dot


def report_for(bundle, digests=None):
    graph = build_graph(bundle)
    findings, diags = find_violations(graph, bundle)
    return make_report(
        graph, findings, diags, ScoringPolicy(), HorizonConfig(), digests or {}
    ), graph, findings


# --------------------------------------------------------------------------
# DOT
# --------------------------------------------------------------------------

def test_dot_is_well_formed_and_complete(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    nodes, edges = read_dot(render_dot(graph))
    assert set(nodes) == {v.id for v in graph.vertices}
    assert len(edges) == len(graph.edges)
    assert {(f, t) for f, t, _ in edges} == {(e.frm, e.to) for e in graph.edges}

    level = nodes["Approval:approved"]
    assert level["shape"] == "diamond"
    assert level["fillcolor"] == "lightyellow"
    assert level["label"] == "approved"
    assert level["style"] == "filled"
    assert nodes["certkey1"]["shape"] == "note"
    assert nodes["RSA[1024]"]["shape"] == "box"

    sl2 = next(a for f, t, a in edges if (f, t) == ("RSA[1024]", "Approval:not-approved"))
    assert sl2["label"] == "SL2"


def test_dot_escapes_awkward_identifiers():
    vertex = Vertex('we"ird\\name', VertexKind.PROCESSOR, 'display "x"')
    other = Vertex("plain", VertexKind.KEY, "plain")
    graph = DependencyGraph(
        (other, vertex),
        (Edge('we"ird\\name', "plain", "K1"),),
    )
    nodes, edges = read_dot(render_dot(graph))
    assert set(nodes) == {'we"ird\\name', "plain"}
    assert nodes['we"ird\\name']["label"] == 'display "x"'
    assert edges[0][:2] == ('we"ird\\name', "plain")


def test_dot_empty_graph():
    assert render_dot(DependencyGraph()) == "digraph G {\n}\n"


def test_dot_highlight_marks_only_the_witness(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    findings, _ = find_violations(graph, cloud_minimal_bundle)
    nodes, edges = read_dot(render_dot(graph, highlight=findings))
    on_path = set(findings[0].path)
    for vertex_id, attrs in nodes.items():
        assert (attrs.get("color") == "red") == (vertex_id in on_path)
    hot_pairs = set(zip(findings[0].path, findings[0].path[1:]))
    for frm, to, attrs in edges:
        assert (attrs.get("color") == "red") == ((frm, to) in hot_pairs)
    # the reverse AC1 edge exists but stays cold
    assert ("DB1", "WWW1") in hot_pairs
    assert ("WWW1", "DB1") not in hot_pairs


def test_dot_output_is_stable(cloud_minimal_bundle):
    one = render_dot(build_graph(cloud_minimal_bundle))
    two = render_dot(build_graph(cloud_minimal_bundle))
    assert one == two


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------

def test_json_report_shape(cloud_minimal_bundle):
    report, _, _ = report_for(cloud_minimal_bundle, {"a.csv": "deadbeef"})
    doc = json.loads(render_json(report))
    assert doc["schema_version"] == 1
    assert doc["input_digests"] == {"a.csv": "deadbeef"}
    assert doc["graph_stats"]["vertices"] == 8
    assert doc["graph_stats"]["edges_by_rule"]["AC1"] == 2
    assert doc["config_echo"]["horizon"]["quantum_horizon_years"] == 15.0
    assert len(doc["findings"]) == 1
    assert doc["findings"][0]["rule_trail"][0]["rule"] == "SL1"


# --------------------------------------------------------------------------
# text
# --------------------------------------------------------------------------

def test_text_report_layout(cloud_minimal_bundle):
    report, _, _ = report_for(cloud_minimal_bundle)
    text = render_text(report)
    lines = text.splitlines()
    assert lines[0] == "dependency scan (8 vertices, 9 edges)"
    assert lines[1].startswith("policy: class weights EllipticCurve=4 IntegerFactoring=3")
    assert lines[2] == "horizon: migration 5y, quantum horizon 15y"
    assert lines[3] == "1 finding"
    assert (
        "    approved → High → Data1 → DB1 → WWW1 → certkey1 → RSA[1024] → not-approved"
        in lines
    )
    assert "    score: sensitivity 1 x class 3 = 3" in lines
    assert "    affected data: Data1" in lines


def test_text_verbosity_levels(cloud_minimal_bundle):
    report, _, _ = report_for(cloud_minimal_bundle)
    quiet = render_text(report, verbosity=0)
    assert "[1]" not in quiet
    assert quiet.splitlines()[3] == "1 finding"

    loud = render_text(report, verbosity=2)
    assert "WWW1 -[M1]-> certkey1  (cryptoinventory.csv:certkey1)" in loud
    assert "Approval:approved -[SL1]-> High  (classifications.csv:High)" in loud


def test_text_pluralises_findings(cloud_minimal_bundle):
    report, _, _ = report_for(cloud_minimal_bundle)
    empty = ScanReport(
        tool_version=report.tool_version,
        input_digests={},
        policy=report.policy,
        horizon=report.horizon,
        findings=(),
        diagnostics=(),
        graph_stats=report.graph_stats,
    )
    assert "0 findings" in render_text(empty)


# --------------------------------------------------------------------------
# what-if rendering
# --------------------------------------------------------------------------

def _baseline_and_cleared(bundle):
    from cryptodep import Overlay, apply_overlay

    baseline, _, _ = report_for(bundle)
    patched, _ = apply_overlay(bundle, Overlay(remove_records=("WWW1",)))
    scenario, _, _ = report_for(patched)
    return baseline, scenario


def test_whatif_text(cloud_minimal_bundle):
    baseline, scenario = _baseline_and_cleared(cloud_minimal_bundle)
    text = render_whatif_text(baseline, scenario)
    lines = text.splitlines()
    assert lines[0] == "what-if comparison: baseline 1 finding, scenario 0"
    assert "resolved (1):" in lines
    assert "introduced (0):" in lines
    assert "unchanged (0):" in lines
    assert any(line.startswith("    approved → High") for line in lines)


def test_whatif_json(cloud_minimal_bundle):
    baseline, scenario = _baseline_and_cleared(cloud_minimal_bundle)
    doc = json.loads(render_whatif_json(baseline, scenario))
    assert doc["diff"]["resolved"] == [baseline.findings[0].id]
    assert doc["diff"]["introduced"] == []
    assert doc["diff"]["unchanged"] == []
    assert doc["baseline"]["graph_stats"]["vertices"] == 8

from __future__ import annotations

import io
import json
import random

import pytest

from cryptodep import (
    AssetKind,
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    CryptoObjectType,
    DataRecord,
    DependencyGraph,
    HorizonConfig,
    ScoringPolicy,
    SecurityRating,
    Source,
    assemble_bundle,
    build_graph,
    find_violations,
    load_default_registry,
)
from cryptodep.model import Diagnostic, Severity
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

import inventory_gen
from oracle import read_dot


def rendered(render, *args, **kwargs) -> str:
    """What ``render`` writes to a stream, as one string."""
    out = io.StringIO()
    render(*args, out, **kwargs)
    return out.getvalue()


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
    nodes, edges = read_dot(rendered(render_dot, graph))
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
        {other.id: other.kind, vertex.id: vertex.kind},
        (Edge('we"ird\\name', "plain", "K1"),),
        {vertex.id: vertex},  # its display is not its id
    )
    nodes, edges = read_dot(rendered(render_dot, graph))
    assert set(nodes) == {'we"ird\\name', "plain"}
    assert nodes['we"ird\\name']["label"] == 'display "x"'
    assert edges[0][:2] == ('we"ird\\name', "plain")


def test_dot_empty_graph():
    assert rendered(render_dot, DependencyGraph()) == "digraph G {\n}\n"


def test_dot_highlight_marks_only_the_witness(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    findings, _ = find_violations(graph, cloud_minimal_bundle)
    nodes, edges = read_dot(rendered(render_dot, graph, highlight=findings))
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
    one = rendered(render_dot, build_graph(cloud_minimal_bundle))
    two = rendered(render_dot, build_graph(cloud_minimal_bundle))
    assert one == two


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------

def test_json_report_shape(cloud_minimal_bundle):
    report, _, _ = report_for(cloud_minimal_bundle, {"a.csv": "deadbeef"})
    doc = json.loads(rendered(render_json, report))
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
    text = rendered(render_text, report)
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
    quiet = rendered(render_text, report, verbosity=0)
    assert "[1]" not in quiet
    assert quiet.splitlines()[3] == "1 finding"

    loud = rendered(render_text, report, verbosity=2)
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
    assert "0 findings" in rendered(render_text, empty)


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
    text = rendered(render_whatif_text, baseline, scenario)
    lines = text.splitlines()
    assert lines[0] == "what-if comparison: baseline 1 finding, scenario 0"
    assert "resolved (1):" in lines
    assert "introduced (0):" in lines
    assert "unchanged (0):" in lines
    assert any(line.startswith("    approved → High") for line in lines)


def test_whatif_json(cloud_minimal_bundle):
    baseline, scenario = _baseline_and_cleared(cloud_minimal_bundle)
    doc = json.loads(rendered(render_whatif_json, baseline, scenario))
    assert doc["diff"]["resolved"] == [baseline.findings[0].id]
    assert doc["diff"]["introduced"] == []
    assert doc["diff"]["unchanged"] == []
    assert doc["baseline"]["graph_stats"]["vertices"] == 8


def test_report_dict_is_fresh_on_every_call(cloud_minimal_bundle):
    graph = build_graph(cloud_minimal_bundle)
    findings, _ = find_violations(graph, cloud_minimal_bundle)
    diagnostic = Diagnostic(Severity.WARNING, "a.csv", "retention-unknown", "no retention", line=2)
    report = make_report(graph, findings, [diagnostic], ScoringPolicy(), HorizonConfig(), {"a.csv": "deadbeef"})
    first = report.to_dict()
    assert first["diagnostics"] == [
        {"severity": "warning", "file": "a.csv", "line": 2, "code": "retention-unknown", "message": "no retention"}
    ]
    expected = json.dumps(first, sort_keys=True)

    def spoil(value):
        if isinstance(value, dict):
            for item in value.values():
                spoil(item)
            value["spoiled"] = True
        elif isinstance(value, list):
            for item in value:
                spoil(item)
            value.append("spoiled")

    spoil(first)
    assert "spoiled" in first["findings"][0]["score"]["warnings"]
    assert json.dumps(report.to_dict(), sort_keys=True) == expected


# --------------------------------------------------------------------------
# writing
# --------------------------------------------------------------------------

class RecordingStream(io.StringIO):
    """A text stream that keeps the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes: list[int] = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


def _fanned_report(servers: int):
    """One High data item on ``servers`` servers, each holding an RSA-1024
    key: as many equal-length witnesses as servers."""
    records = [
        ClassificationBinding("High", (SecurityRating.approval("approved"),), source=Source("c.csv", "High")),
        DataRecord(
            id="D1", classification="High", source=Source("d.csv", "D1"),
            storage_locations=tuple(f"S{i:03d}" for i in range(servers)),
        ),
    ]
    for i in range(servers):
        records.append(AssetRecord(id=f"S{i:03d}", kind=AssetKind.PROCESSOR, source=Source("a.csv", f"S{i:03d}")))
        records.append(CryptoObjectRecord(
            id=f"K{i:03d}", object_type=CryptoObjectType.SYMMETRIC_KEY, location=f"S{i:03d}",
            algorithm="RSA", config_flags=("1024",), source=Source("k.csv", f"K{i:03d}"),
        ))
    bundle, diags = assemble_bundle(records, load_default_registry())
    graph = build_graph(bundle)
    findings, more = find_violations(graph, bundle, max_witnesses=servers)
    assert len(findings) == servers
    return make_report(graph, findings, diags + more, ScoringPolicy(), HorizonConfig(), {})


def _json_case():
    report = _fanned_report(500)
    out = RecordingStream()
    render_json(report, out)
    assert out.getvalue() == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return out


def _dot_case():
    bundle, _, _ = inventory_gen.random_bundle(
        random.Random(3), n_classes=4, n_data=2700, n_assets=2700, n_crypto=1700
    )
    graph = build_graph(bundle)
    out = RecordingStream()
    render_dot(graph, out)
    nodes, edges = read_dot(out.getvalue())
    assert set(nodes) == {v.id for v in graph.vertices}
    assert [(f, t, a["label"]) for f, t, a in edges] == [(e.frm, e.to, e.rule) for e in graph.edges]
    return out


@pytest.mark.parametrize("case", [_json_case, _dot_case], ids=["json", "dot"])
def test_a_large_report_is_written_in_bounded_batches(case):
    """The document reaches the stream whole, neither as one string nor as
    one write per line or encoder piece."""
    out = case()
    total = len(out.getvalue())
    assert total >= 1 << 20
    assert max(out.sizes) <= 256 << 10
    assert len(out.sizes) <= total >> 10

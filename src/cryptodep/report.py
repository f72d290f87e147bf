"""Rendering of graphs, findings, and diagnostics.

Three output surfaces: prose text for terminals, a versioned JSON schema for
machines, and DOT for graph tooling.  Every renderer is a pure function of
its arguments, and all collections are emitted in canonical order, so
identical inputs render byte-identically.

The text renderer deliberately omits input digests: they are raw content
hashes, so they vary under reorderings that leave the analysis unchanged.
The JSON report carries them for provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .analysis import Finding, HorizonConfig, ScoringPolicy
from .ingest import Diagnostic
from .model import VulnerabilityClass
from .rules import DependencyGraph, VertexKind

__all__ = [
    "GraphStats",
    "ScanReport",
    "render_dot",
    "render_json",
    "render_text",
    "render_whatif_text",
    "render_whatif_json",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GraphStats:
    vertices: int = 0
    edges: int = 0
    edges_by_rule: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, graph: DependencyGraph) -> "GraphStats":
        return cls(len(graph.vertices), len(graph.edges), graph.edges_by_rule())

    def to_dict(self) -> dict:
        return {
            "vertices": self.vertices,
            "edges": self.edges,
            "edges_by_rule": dict(sorted(self.edges_by_rule.items())),
        }


@dataclass(frozen=True)
class ScanReport:
    """Everything one scan produced, with enough context to reproduce it."""

    tool_version: str
    input_digests: dict[str, str]
    policy: ScoringPolicy
    horizon: HorizonConfig
    findings: tuple[Finding, ...]
    diagnostics: tuple[Diagnostic, ...]
    graph_stats: GraphStats

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "input_digests": dict(sorted(self.input_digests.items())),
            "config_echo": {
                "policy": self.policy.to_dict(),
                "horizon": self.horizon.to_dict(),
            },
            "findings": [f.to_dict() for f in self.findings],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "graph_stats": self.graph_stats.to_dict(),
        }


def make_report(
    graph: DependencyGraph,
    findings,
    diagnostics,
    policy: ScoringPolicy,
    horizon: HorizonConfig,
    input_digests: dict[str, str],
) -> ScanReport:
    return ScanReport(
        tool_version=__version__,
        input_digests=dict(input_digests),
        policy=policy,
        horizon=horizon,
        findings=tuple(findings),
        diagnostics=tuple(diagnostics),
        graph_stats=GraphStats.from_graph(graph),
    )


# --------------------------------------------------------------------------
# DOT
# --------------------------------------------------------------------------

_DOT_SHAPES = {
    VertexKind.SECURITY_LEVEL: ("diamond", "lightyellow"),
    VertexKind.CLASSIFICATION: ("hexagon", "lightpink"),
    VertexKind.DATA_ASSET: ("folder", "lightcyan"),
    VertexKind.PROCESSOR: ("box3d", "lightgrey"),
    VertexKind.PROCESS: ("oval", "lightgrey"),
    VertexKind.CHANNEL: ("trapezium", "lightgrey"),
    VertexKind.KEY: ("note", "palegreen"),
    VertexKind.CERTIFICATE: ("tab", "palegreen"),
    VertexKind.PRIMITIVE_CONFIG: ("box", "lavender"),
}


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(graph: DependencyGraph, highlight: list[Finding] | None = None) -> str:
    """Stable DOT text: one node statement per vertex (sorted by id), one
    edge statement per edge (sorted by from, to, rule).  Vertices and edges
    on a highlighted finding path are drawn in red."""
    hot_vertices: set[str] = set()
    hot_edges: set[tuple[str, str]] = set()
    for finding in highlight or []:
        hot_vertices.update(finding.path)
        hot_edges.update(zip(finding.path, finding.path[1:]))

    lines = ["digraph G {"]
    if not graph.vertices:
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines.append("  rankdir=LR;")
    for vertex in graph.vertices:
        shape, fill = _DOT_SHAPES[vertex.kind]
        attrs = [
            f"label={_dot_quote(vertex.display)}",
            f"shape={shape}",
            'style="filled"',
            f'fillcolor="{fill}"',
        ]
        if vertex.id in hot_vertices:
            attrs.append('color="red"')
            attrs.append("penwidth=2")
        lines.append(f"  {_dot_quote(vertex.id)} [{', '.join(attrs)}];")
    for edge in graph.edges:
        attrs = [f'label="{edge.rule}"']
        if (edge.frm, edge.to) in hot_edges:
            attrs.append('color="red"')
            attrs.append("penwidth=2")
        lines.append(
            f"  {_dot_quote(edge.frm)} -> {_dot_quote(edge.to)} [{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------

def render_json(report: ScanReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# text
# --------------------------------------------------------------------------

def _num(value: float) -> str:
    return f"{value:g}"


def _policy_echo(policy: ScoringPolicy) -> str:
    order = [
        VulnerabilityClass.ELLIPTIC_CURVE,
        VulnerabilityClass.INTEGER_FACTORING,
        VulnerabilityClass.SYMMETRIC_SEARCH,
        VulnerabilityClass.PQC,
        VulnerabilityClass.HASH_BASED,
        VulnerabilityClass.UNKNOWN,
    ]
    weights = " ".join(f"{c.value}={_num(policy.weight_for(c))}" for c in order)
    return f"policy: class weights {weights}; longevity multiplier {_num(policy.longevity_multiplier)}"


def _finding_lines(index: int, finding: Finding, verbosity: int) -> list[str]:
    score = finding.score
    head = f"[{index}] required {finding.required.display}, provided {finding.provided.display}"
    if score is not None:
        head += f" (score {_num(score.total)})"
    lines = ["", head, "    " + " → ".join(finding.display_path)]
    if score is not None:
        parts = [
            f"sensitivity {_num(score.sensitivity_weight)}",
            f"class {_num(score.vuln_class_weight)}",
        ]
        if score.longevity_flag:
            parts.append("longevity urgent")
        lines.append(f"    score: {' x '.join(parts)} = {_num(score.total)}")
    if finding.affected_data:
        lines.append("    affected data: " + ", ".join(finding.affected_data))
    if score is not None:
        for warning in score.warnings:
            lines.append("    warning: " + warning)
    if verbosity >= 2:
        for trace in finding.rule_trail:
            where = "; ".join(str(s) for s in trace.provenance) or "inferred"
            lines.append(f"    {trace.frm} -[{trace.rule}]-> {trace.to}  ({where})")
    return lines


def render_text(report: ScanReport, verbosity: int = 1) -> str:
    """Human-readable report.  Verbosity 0 is the summary block alone, 1
    adds a block per finding, 2 adds each finding's rule trail with record
    provenance."""
    count = len(report.findings)
    lines = [
        f"dependency scan ({report.graph_stats.vertices} vertices, "
        f"{report.graph_stats.edges} edges)",
        _policy_echo(report.policy),
        f"horizon: migration {_num(report.horizon.migration_years)}y, "
        f"quantum horizon {_num(report.horizon.quantum_horizon_years)}y",
        f"{count} finding" + ("" if count == 1 else "s"),
    ]
    if verbosity >= 1:
        for index, finding in enumerate(report.findings, start=1):
            lines.extend(_finding_lines(index, finding, verbosity))
    return "\n".join(lines) + "\n"


def _diff_ids(baseline: ScanReport, scenario: ScanReport) -> tuple[list[str], list[str], list[str]]:
    base = {f.id: f for f in baseline.findings}
    over = {f.id: f for f in scenario.findings}
    resolved = sorted(set(base) - set(over))
    introduced = sorted(set(over) - set(base))
    unchanged = sorted(set(base) & set(over))
    return resolved, introduced, unchanged


def render_whatif_text(baseline: ScanReport, scenario: ScanReport, verbosity: int = 1) -> str:
    resolved, introduced, unchanged = _diff_ids(baseline, scenario)
    base = {f.id: f for f in baseline.findings}
    over = {f.id: f for f in scenario.findings}

    lines = [
        f"what-if comparison: baseline {len(baseline.findings)} finding"
        + ("" if len(baseline.findings) == 1 else "s")
        + f", scenario {len(scenario.findings)}",
        _policy_echo(scenario.policy),
        f"horizon: migration {_num(scenario.horizon.migration_years)}y, "
        f"quantum horizon {_num(scenario.horizon.quantum_horizon_years)}y",
    ]

    def section(title: str, ids: list[str], table: dict) -> None:
        lines.append(f"{title} ({len(ids)}):")
        if verbosity >= 1:
            for finding_id in ids:
                lines.append("    " + " → ".join(table[finding_id].display_path))

    section("resolved", resolved, base)
    section("introduced", introduced, over)
    section("unchanged", unchanged, over)
    return "\n".join(lines) + "\n"


def render_whatif_json(baseline: ScanReport, scenario: ScanReport) -> str:
    resolved, introduced, unchanged = _diff_ids(baseline, scenario)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "baseline": baseline.to_dict(),
        "scenario": scenario.to_dict(),
        "diff": {
            "resolved": resolved,
            "introduced": introduced,
            "unchanged": unchanged,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

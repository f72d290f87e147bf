"""Rendering of graphs, findings, and diagnostics.

Three output surfaces: prose text for terminals, a versioned JSON schema for
machines, and DOT for graph tooling.  Every renderer writes to the text
stream it is given, a batch of lines or encoder pieces at a time, so no
report is ever built as one string.  What it writes depends on its
arguments alone, and all collections are emitted in canonical order, so
identical inputs render byte-identically.

The text renderer deliberately omits input digests: they are raw content
hashes, so they vary under reorderings that leave the analysis unchanged.
The JSON report carries them for provenance.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import TextIO

from . import __version__
from .analysis import Finding, HorizonConfig, ScoringPolicy
from .model import Diagnostic, VulnerabilityClass
from .rules import DependencyGraph, VertexKind

__all__ = [
    "ScanReport",
    "render_dot",
    "render_json",
    "render_text",
    "render_whatif_text",
    "render_whatif_json",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScanReport:
    """Everything one scan produced, with enough context to reproduce it.
    ``graph_stats`` is the graph's ``vertices``, ``edges`` and
    ``edges_by_rule`` counts, as the JSON report prints them."""

    tool_version: str
    input_digests: dict[str, str]
    policy: ScoringPolicy
    horizon: HorizonConfig
    findings: tuple[Finding, ...]
    diagnostics: tuple[Diagnostic, ...]
    graph_stats: dict

    def to_dict(self) -> dict:
        """The JSON report as fresh dicts and lists.  A score, a diagnostic
        and the horizon are written as their fields."""
        stats = self.graph_stats
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "input_digests": dict(sorted(self.input_digests.items())),
            "config_echo": {"policy": self.policy.to_dict(), "horizon": dict(vars(self.horizon))},
            "findings": [_finding_json(f) for f in self.findings],
            "diagnostics": [
                {"severity": d.severity.value, "file": d.file, "code": d.code, "message": d.message, "line": d.line}
                for d in self.diagnostics
            ],
            "graph_stats": {**stats, "edges_by_rule": dict(stats["edges_by_rule"])},
        }


def _finding_json(finding: Finding) -> dict:
    return {
        "id": finding.id,
        "required": finding.required.to_dict(),
        "provided": finding.provided.to_dict(),
        "path": list(finding.path),
        "display_path": list(finding.display_path),
        "rule_trail": [
            {
                "from": t.frm, "to": t.to, "rule": t.rule,
                "provenance": [{"file": s.file, "ref": s.ref} for s in t.provenance],
            }
            for t in finding.rule_trail
        ],
        "affected_data": list(finding.affected_data),
        "score": {**vars(finding.score), "warnings": list(finding.score.warnings)},
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
        graph_stats={
            "vertices": len(graph.kinds), "edges": len(graph.edges), "edges_by_rule": graph.edges_by_rule()
        },
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


def render_dot(graph: DependencyGraph, out: TextIO, highlight: list[Finding] | None = None) -> None:
    """Write stable DOT text to ``out``: one node statement per vertex
    (sorted by id), one edge statement per edge (sorted by from, to, rule).
    Vertices and edges on a highlighted finding path are drawn in red."""
    _write(out, _dot_lines(graph, highlight or []))


def _dot_lines(graph: DependencyGraph, highlight: list[Finding]) -> Iterator[str]:
    hot_vertices: set[str] = set()
    hot_edges: set[tuple[str, str]] = set()
    for finding in highlight:
        hot_vertices.update(finding.path)
        hot_edges.update(zip(finding.path, finding.path[1:]))

    yield "digraph G {\n"
    if not graph.kinds:
        yield "}\n"
        return
    yield "  rankdir=LR;\n"
    for vertex in map(graph.vertex, sorted(graph.kinds)):  # made one at a time
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
        yield f"  {_dot_quote(vertex.id)} [{', '.join(attrs)}];\n"
    for edge in graph.edges:
        attrs = [f'label="{edge.rule}"']
        if (edge.frm, edge.to) in hot_edges:
            attrs.append('color="red"')
            attrs.append("penwidth=2")
        yield f"  {_dot_quote(edge.frm)} -> {_dot_quote(edge.to)} [{', '.join(attrs)}];\n"
    yield "}\n"


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------

def render_json(report: ScanReport, out: TextIO) -> None:
    _write_json(report.to_dict(), out)


def _write_json(doc: dict, out: TextIO) -> None:
    _write(out, chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc), ("\n",)))


# --------------------------------------------------------------------------
# text
# --------------------------------------------------------------------------

def _num(value: float) -> str:
    return f"{value:g}"


def _config_lines(report: ScanReport) -> list[str]:
    """The policy and horizon lines of a text report."""
    policy, horizon = report.policy, report.horizon
    weights = " ".join(f"{c.value}={_num(policy.weight_for(c))}" for c in VulnerabilityClass)
    return [
        f"policy: class weights {weights}; longevity multiplier {_num(policy.longevity_multiplier)}",
        f"horizon: migration {_num(horizon.migration_years)}y, quantum horizon {_num(horizon.quantum_horizon_years)}y",
    ]


def _finding_lines(index: int, finding: Finding, verbosity: int) -> Iterator[str]:
    score = finding.score
    head = f"[{index}] required {finding.required.display}, provided {finding.provided.display}"
    yield ""
    yield f"{head} (score {_num(score.total)})"
    yield "    " + " → ".join(finding.display_path)
    parts = [
        f"sensitivity {_num(score.sensitivity_weight)}",
        f"class {_num(score.vuln_class_weight)}",
    ]
    if score.longevity_flag:
        parts.append("longevity urgent")
    yield f"    score: {' x '.join(parts)} = {_num(score.total)}"
    if finding.affected_data:
        yield "    affected data: " + ", ".join(finding.affected_data)
    for warning in score.warnings:
        yield "    warning: " + warning
    if verbosity >= 2:
        for trace in finding.rule_trail:
            where = "; ".join(str(s) for s in trace.provenance) or "inferred"
            yield f"    {trace.frm} -[{trace.rule}]-> {trace.to}  ({where})"


def render_text(report: ScanReport, out: TextIO, verbosity: int = 1) -> None:
    """Write the human-readable report to ``out``.  Verbosity 0 is the
    summary block alone, 1 adds a block per finding, 2 adds each finding's
    rule trail with record provenance."""
    _write(out, _ended(_text_lines(report, verbosity)))


def _text_lines(report: ScanReport, verbosity: int) -> Iterator[str]:
    count = len(report.findings)
    yield f"dependency scan ({report.graph_stats['vertices']} vertices, {report.graph_stats['edges']} edges)"
    yield from _config_lines(report)
    yield f"{count} finding" + ("" if count == 1 else "s")
    if verbosity >= 1:
        for index, finding in enumerate(report.findings, start=1):
            yield from _finding_lines(index, finding, verbosity)


def _diff(baseline: ScanReport, scenario: ScanReport) -> dict[str, list[Finding]]:
    """The findings the scenario resolved (as the baseline has them),
    introduced and left unchanged (as the scenario has them), by id."""
    base = {f.id: f for f in baseline.findings}
    over = {f.id: f for f in scenario.findings}
    return {
        "resolved": [base[i] for i in sorted(base.keys() - over.keys())],
        "introduced": [over[i] for i in sorted(over.keys() - base.keys())],
        "unchanged": [over[i] for i in sorted(base.keys() & over.keys())],
    }


def render_whatif_text(baseline: ScanReport, scenario: ScanReport, out: TextIO, verbosity: int = 1) -> None:
    _write(out, _ended(_whatif_lines(baseline, scenario, verbosity)))


def _whatif_lines(baseline: ScanReport, scenario: ScanReport, verbosity: int) -> Iterator[str]:
    yield (
        f"what-if comparison: baseline {len(baseline.findings)} finding"
        + ("" if len(baseline.findings) == 1 else "s")
        + f", scenario {len(scenario.findings)}"
    )
    yield from _config_lines(scenario)
    for title, findings in _diff(baseline, scenario).items():
        yield f"{title} ({len(findings)}):"
        if verbosity >= 1:
            for f in findings:
                yield "    " + " → ".join(f.display_path)


def render_whatif_json(baseline: ScanReport, scenario: ScanReport, out: TextIO) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "baseline": baseline.to_dict(),
        "scenario": scenario.to_dict(),
        "diff": {title: [f.id for f in findings] for title, findings in _diff(baseline, scenario).items()},
    }
    _write_json(doc, out)


# --------------------------------------------------------------------------
# writing
# --------------------------------------------------------------------------

_BATCH = 1024  # pieces per write: about 8 KB of JSON or 100 KB of DOT


def _ended(lines: Iterable[str]) -> Iterator[str]:
    return (line + "\n" for line in lines)


# Not json.dump(doc, out): one write per encoder piece, each a system call on an unbuffered stdout.
def _write(out: TextIO, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to ``out``, ``_BATCH`` of them joined per call."""
    pieces = iter(pieces)
    while batch := list(islice(pieces, _BATCH)):
        out.write("".join(batch))

"""Output checks computed apart from the program.

The program's graph comes from ``cryptodep.rules.build_graph``; everything
asked of it (which level pairs violate, the shortest level-avoiding
distances, how many shortest witnesses exist and which come first, the
finding ids and order) is recomputed here with this module's own level
order and traversals.  ``check_report`` returns a list of problems, empty
when the report agrees.
"""

from __future__ import annotations

import copy
import hashlib
from collections import deque

# Strength of each level value within its dimension, written out here
# rather than taken from cryptodep.model.
_NAMED_STRENGTH = {
    ("Approval", "approved"): 1,
    ("Approval", "not-approved"): 0,
    ("QuantumSafety", "quantum-safe"): 1,
    ("QuantumSafety", "quantum-vulnerable"): 0,
}

REGISTRY_RULES = {"SL2", "P2"}


def _level(vertex_id: str) -> tuple[str, int]:
    dimension, _, value = vertex_id.partition(":")
    if dimension == "Bits":
        return dimension, int(value)
    return dimension, _NAMED_STRENGTH[(dimension, value)]


class GraphView:
    """Successor lists and level sets of a built graph, as plain dicts."""

    def __init__(self, graph):
        self.vertex_ids = {v.id for v in graph.vertices}
        self.levels = {v.id for v in graph.vertices if v.kind.value == "SecurityLevel"}
        self.succ: dict[str, set[str]] = {v: set() for v in self.vertex_ids}
        self.edges: dict[tuple[str, str], list] = {}
        by_rule: dict[str, int] = {}
        for edge in graph.edges:
            self.succ[edge.frm].add(edge.to)
            self.edges.setdefault((edge.frm, edge.to), []).append(edge)
            by_rule[edge.rule] = by_rule.get(edge.rule, 0) + 1
        self.stats = {"vertices": len(graph.vertices), "edges": len(graph.edges), "edges_by_rule": by_rule}
        self.required = {e.frm for e in graph.edges if e.rule == "SL1"}
        self.provided = {e.to for e in graph.edges if e.rule == "SL2"}
        self.sorted_succ = {v: sorted(s) for v, s in self.succ.items()}
        self.pred: dict[str, list[str]] = {v: [] for v in self.vertex_ids}
        for frm, to in self.edges:
            self.pred[to].append(frm)
        self._pairs: set[tuple[str, str]] | None = None
        self._witnesses: dict[tuple, tuple | None] = {}

    def violating_pairs(self) -> set[tuple[str, str]]:
        if self._pairs is None:
            self._pairs = self._violating_pairs()
        return self._pairs

    def shortest_witnesses(self, start: str, goal: str, limit: int, avoid_levels: bool):
        """(distance, shortest-path count, first ``limit`` shortest paths in
        ascending order), or None when ``goal`` is unreachable."""
        key = (start, goal, limit, avoid_levels)
        if key not in self._witnesses:
            self._witnesses[key] = self._shortest_witnesses(*key)
        return self._witnesses[key]

    def _violating_pairs(self) -> set[tuple[str, str]]:
        pairs = set()
        for high in self.required:
            seen = {high}
            queue = deque([high])
            while queue:
                for nxt in self.succ[queue.popleft()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            h_dim, h_strength = _level(high)
            for low in seen & self.provided:
                l_dim, l_strength = _level(low)
                if low != high and l_dim == h_dim and h_strength > l_strength:
                    pairs.add((high, low))
        return pairs

    def _shortest_witnesses(self, start: str, goal: str, limit: int, avoid_levels: bool):
        blocked = (self.levels - {start, goal}) if avoid_levels else set()
        # distance to goal over usable vertices, by reverse BFS
        to_goal = {goal: 0}
        queue = deque([goal])
        while queue:
            vertex = queue.popleft()
            for prev in self.pred[vertex]:
                if prev not in to_goal and prev not in blocked:
                    to_goal[prev] = to_goal[vertex] + 1
                    queue.append(prev)
        if start not in to_goal:
            return None
        # count shortest paths layer by layer from the start
        count = {start: 1}
        layer = [start]
        for _ in range(to_goal[start]):
            nxt: dict[str, int] = {}
            for vertex in layer:
                for succ in self.succ[vertex]:
                    if to_goal.get(succ) == to_goal[vertex] - 1:
                        nxt[succ] = nxt.get(succ, 0) + count[vertex]
            count.update(nxt)
            layer = list(nxt)
        # lexicographic enumeration with an explicit stack
        paths = []
        stack = [(start, 0)]
        path = [start]
        while stack and len(paths) < limit:
            vertex, index = stack[-1]
            if vertex == goal:
                paths.append(tuple(path))
                stack.pop()
                path.pop()
                continue
            options = [s for s in self.sorted_succ[vertex] if to_goal.get(s) == to_goal[vertex] - 1]
            if index < len(options):
                stack[-1] = (vertex, index + 1)
                stack.append((options[index], 0))
                path.append(options[index])
            else:
                stack.pop()
                path.pop()
        return to_goal[start], count[goal], paths


def finding_id(path) -> str:
    return hashlib.sha256("\x1f".join(path).encode("utf-8")).hexdigest()[:16]


def _pair(finding: dict) -> tuple[str, str]:
    return tuple(f"{finding[side]['dimension']}:{finding[side]['value']}" for side in ("required", "provided"))


def same_graph_and_pairs(report: dict, view: GraphView) -> bool:
    """Whether the report's graph_stats and violating pairs are the view's."""
    return report["graph_stats"] == view.stats and {_pair(f) for f in report["findings"]} == view.violating_pairs()


def check_report(report: dict, view: GraphView, witnesses: int, sources: set, registry_file: str) -> list[str]:
    """Problems with one scan report (or one side of a what-if) against the
    graph it should describe; empty when it agrees."""
    problems: list[str] = []
    stats = report["graph_stats"]
    if stats != view.stats:
        problems.append(f"graph_stats {stats['vertices']}/{stats['edges']} != built graph "
                        f"{view.stats['vertices']}/{view.stats['edges']}")

    findings = report["findings"]
    by_pair: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for finding in findings:
        by_pair.setdefault(_pair(finding), []).append(tuple(finding["path"]))
        if finding["id"] != finding_id(finding["path"]):
            problems.append(f"finding {finding['id']} does not hash its path")
        trail = finding["rule_trail"]
        hops = list(zip(finding["path"], finding["path"][1:]))
        if [(t["from"], t["to"]) for t in trail] != hops:
            problems.append(f"finding {finding['id']} rule trail does not follow its path")
        for step in trail:
            edges = view.edges.get((step["from"], step["to"]), [])
            rules = "/".join(sorted({e.rule for e in edges})) or "?"
            if step["rule"] != rules:
                problems.append(f"finding {finding['id']} hop {step['from']}->{step['to']} rule "
                                f"{step['rule']} != {rules}")
            for source in step["provenance"]:
                if (source["file"], source["ref"]) not in sources and source["file"] != registry_file:
                    problems.append(f"finding {finding['id']} cites unwritten row {source}")

    expected_pairs = view.violating_pairs()
    if set(by_pair) != expected_pairs:
        problems.append(f"violating pairs {sorted(by_pair)} != expected {sorted(expected_pairs)}")

    for pair in sorted(expected_pairs & set(by_pair)):
        result = view.shortest_witnesses(*pair, witnesses, avoid_levels=True)
        if result is None:
            result = view.shortest_witnesses(*pair, witnesses, avoid_levels=False)
        distance, count, expected = result
        got = sorted(by_pair[pair])
        if len(expected) != min(witnesses, count):
            problems.append(f"{pair}: enumerated {len(expected)} witnesses, counted {count}")
        if got != expected:
            wrong = [p for p in got if len(p) - 1 != distance or p not in expected]
            problems.append(f"{pair}: {len(got)} witnesses, expected {len(expected)} shortest "
                            f"(distance {distance}); {len(wrong)} not among them")

    order = [(-f["score"]["total"], f["id"]) for f in findings]
    if order != sorted(order):
        problems.append("findings are not sorted by score, then id")
    return problems


def check_provenance(view: GraphView, sources: set, registry_file: str) -> list[str]:
    """Every edge names rows the generator wrote; registry rules name the registry."""
    problems = []
    for (frm, to), edges in view.edges.items():
        for edge in edges:
            for source in edge.provenance:
                if edge.rule in REGISTRY_RULES:
                    ok = source.file == registry_file
                else:
                    ok = (source.file, source.ref) in sources
                if not ok:
                    problems.append(f"edge {frm}->{to} [{edge.rule}] cites {source.file}:{source.ref}")
    return problems[:10]


def self_test(report: dict, view: GraphView, witnesses: int, sources: set, registry_file: str) -> list[str]:
    """The checks must reject a report with one finding dropped and one with
    one witness hop altered; returns what they failed to reject."""
    misses = []
    if not report["findings"]:
        return ["self-test needs a report with findings"]
    dropped = copy.deepcopy(report)
    dropped["findings"].pop(len(dropped["findings"]) // 2)
    if not check_report(dropped, view, witnesses, sources, registry_file):
        misses.append("a report with one finding dropped passed the checks")

    altered = copy.deepcopy(report)
    finding = next(f for f in altered["findings"] if len(f["path"]) > 2)
    hop = finding["path"][1]
    finding["path"][1] = next(v for v in sorted(view.vertex_ids) if v not in finding["path"] and v != hop)
    if not check_report(altered, view, witnesses, sources, registry_file):
        misses.append("a report with one witness hop altered passed the checks")
    return misses

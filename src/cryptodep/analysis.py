"""Violation detection, prioritisation, and what-if overlays.

A violation exists when a security level that some classification requires
can reach, along directed edges, a strictly lower provided level in the same
dimension.  Detection runs one reverse breadth-first search from each
provided level over the graph's index; it records level vertices but does
not pass through them, so it reaches every required level that has a path
whose interior avoids other levels.  The reported witness path is the
lexicographically smallest among those shortest paths, so the chain reads as
the actual chain of custody rather than hopping through the level layer.  A
required level the search misses may still reach the provided level through
another level vertex: a plain reverse search decides that, the plain
shortest path is reported, and the finding carries a warning.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import deque
from dataclasses import dataclass, field, replace

from .ingest import Diagnostic, Severity, _record_from_dict, assemble_bundle
from .model import (
    AssetRecord,
    ClassificationBinding,
    Comparison,
    CryptoObjectRecord,
    DataRecord,
    InventoryBundle,
    RefOrigin,
    SecurityRating,
    Source,
    VulnerabilityClass,
    compare_ratings,
    parse_primitive_spec,
    primitive_key,
)
from .rules import DependencyGraph, VertexKind

__all__ = [
    "ScoringPolicy",
    "HorizonConfig",
    "ScoreBreakdown",
    "EdgeTrace",
    "Finding",
    "check_longevity",
    "find_violations",
    "score_finding",
    "Overlay",
    "OverlayError",
    "parse_overlay",
    "apply_overlay",
]


DEFAULT_CLASS_WEIGHTS: dict[VulnerabilityClass, float] = {
    VulnerabilityClass.ELLIPTIC_CURVE: 4.0,
    VulnerabilityClass.INTEGER_FACTORING: 3.0,
    VulnerabilityClass.SYMMETRIC_SEARCH: 2.0,
    VulnerabilityClass.PQC: 1.0,
    VulnerabilityClass.HASH_BASED: 1.0,
    VulnerabilityClass.UNKNOWN: 1.0,
}


@dataclass(frozen=True)
class ScoringPolicy:
    """Weights for ranking findings.

    Sensitivity comes from the classification ranking: with K classification
    labels, data ranked r (0 = most sensitive) weighs K - r.  The
    vulnerability class weight is the maximum over the classes of the
    primitive configurations on the witness path.  Urgent longevity doubles
    the score.
    """

    class_weights: dict[VulnerabilityClass, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_WEIGHTS)
    )
    longevity_multiplier: float = 2.0

    def weight_for(self, vuln_class: VulnerabilityClass) -> float:
        return self.class_weights.get(vuln_class, 1.0)

    def to_dict(self) -> dict:
        return {
            "class_weights": {c.value: w for c, w in sorted(self.class_weights.items(), key=lambda i: i[0].value)},
            "longevity_multiplier": self.longevity_multiplier,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ScoringPolicy":
        """Raises ValueError unless ``raw`` is an object whose
        ``class_weights`` is an object and whose values are numbers."""
        raw = _json_object(raw, "a policy")
        weights = dict(DEFAULT_CLASS_WEIGHTS)
        class_weights = _json_object(raw.get("class_weights", {}), "class_weights")
        for name in class_weights:
            weights[VulnerabilityClass(name)] = _number(class_weights, name)
        return cls(weights, _number(raw, "longevity_multiplier", 2.0))


@dataclass(frozen=True)
class HorizonConfig:
    """Timeline for the longevity check: data is urgent when its retention
    plus the migration lead time outlasts the quantum horizon."""

    migration_years: float = 5.0
    quantum_horizon_years: float = 15.0

    def __post_init__(self) -> None:
        if self.migration_years < 0 or self.quantum_horizon_years < 0:
            raise ValueError("horizon years must be non-negative")

    def to_dict(self) -> dict:
        return {
            "migration_years": self.migration_years,
            "quantum_horizon_years": self.quantum_horizon_years,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "HorizonConfig":
        """Raises ValueError unless ``raw`` is an object of numbers."""
        raw = _json_object(raw, "a horizon")
        return cls(
            _number(raw, "migration_years", 5.0),
            _number(raw, "quantum_horizon_years", 15.0),
        )


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _number(raw: dict, key: str, default: float | None = None) -> float:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def check_longevity(data: DataRecord, horizon: HorizonConfig) -> tuple[bool, bool]:
    """(urgent, assessed).  Unknown retention cannot be assessed."""
    if data.retention_years is None:
        return False, False
    urgent = data.retention_years + horizon.migration_years > horizon.quantum_horizon_years
    return urgent, True


@dataclass(frozen=True)
class ScoreBreakdown:
    sensitivity_weight: float
    vuln_class_weight: float
    longevity_flag: bool
    total: float
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "sensitivity_weight": self.sensitivity_weight,
            "vuln_class_weight": self.vuln_class_weight,
            "longevity_flag": self.longevity_flag,
            "total": self.total,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class EdgeTrace:
    frm: str
    to: str
    rule: str
    provenance: tuple[Source, ...] = ()

    def to_dict(self) -> dict:
        return {
            "from": self.frm,
            "to": self.to,
            "rule": self.rule,
            "provenance": [s.to_dict() for s in self.provenance],
        }


@dataclass(frozen=True)
class Finding:
    """One reliance of a required level on a strictly lower provided level.

    ``path`` holds vertex ids from the required level to the provided one;
    ``display_path`` the human labels.  ``score`` is filled in by
    ``score_finding``.
    """

    required: SecurityRating
    provided: SecurityRating
    path: tuple[str, ...]
    display_path: tuple[str, ...]
    rule_trail: tuple[EdgeTrace, ...]
    affected_data: tuple[str, ...]
    score: ScoreBreakdown | None = None

    @property
    def id(self) -> str:
        return hashlib.sha256("\x1f".join(self.path).encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        raw = {
            "id": self.id,
            "required": self.required.to_dict(),
            "provided": self.provided.to_dict(),
            "path": list(self.path),
            "display_path": list(self.display_path),
            "rule_trail": [t.to_dict() for t in self.rule_trail],
            "affected_data": list(self.affected_data),
        }
        if self.score is not None:
            raw["score"] = self.score.to_dict()
        return raw


# --------------------------------------------------------------------------
# detection
# --------------------------------------------------------------------------

def _distances_to(graph: DependencyGraph, goal: str, stop) -> dict[str, int]:
    """Hops from each vertex that reaches ``goal`` to ``goal``, by a reverse
    breadth-first search that records the vertices in ``stop`` but does
    not search past them."""
    predecessors = graph.index.predecessors
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        vertex = queue.popleft()
        hops = dist[vertex] + 1
        for pred in predecessors.get(vertex, ()):
            if pred not in dist:
                dist[pred] = hops
                if pred not in stop:
                    queue.append(pred)
    return dist


def _witness_paths(
    graph: DependencyGraph, start: str, goal: str, dist: dict[str, int], blocked, limit: int
) -> list[tuple[str, ...]]:
    """Up to ``limit`` shortest paths start -> goal whose interior avoids
    ``blocked``, in lexicographic order on the vertex-id sequence, given
    the distances to ``goal`` of a search that did not pass ``blocked``.

    Any walk that decreases the distance by one at every step is a shortest
    path, so a depth-first walk over sorted successors enumerates them in
    order.  The walk keeps its own stack, so path length is not bounded by
    recursion.
    """
    out_edges = graph.index.out_edges

    def nexts(current: str):
        step = dist[current] - 1
        return iter(sorted({
            e.to for e in out_edges.get(current, ())
            if dist.get(e.to) == step and (e.to == goal or e.to not in blocked)
        }))

    found: list[tuple[str, ...]] = []
    path = [start]
    pending = [nexts(start)]  # the successors still to try, one iterator per vertex on path
    while pending:
        succ = next(pending[-1], None)
        if succ is None:
            pending.pop()
            path.pop()
        elif succ == goal:
            found.append((*path, goal))
            if len(found) >= limit:
                break
        else:
            path.append(succ)
            pending.append(nexts(succ))
    return found


def _witnesses_to(graph: DependencyGraph, low: str, highs: list[str], level_ids: set[str], limit: int):
    """(high, low) -> (witness paths, whether they cross another level) for
    each level in ``highs`` that reaches ``low``.  The distance maps die on
    return, so only one provided level's are alive at a time."""
    dist = _distances_to(graph, low, level_ids)
    plain = None
    found = {}
    for high in highs:
        if high in dist:
            found[high, low] = _witness_paths(graph, high, low, dist, level_ids, limit), False
            continue
        if plain is None:
            plain = _distances_to(graph, low, ())
        if high in plain:
            found[high, low] = _witness_paths(graph, high, low, plain, (), limit), True
    return found


def _trace(path: tuple[str, ...], graph: DependencyGraph) -> tuple[EdgeTrace, ...]:
    trail = []
    for frm, to in zip(path, path[1:]):
        edges = graph.edges_between(frm, to)
        rule = "/".join(sorted({e.rule for e in edges})) if edges else "?"
        provenance = tuple(sorted({s for e in edges for s in e.provenance}, key=lambda s: (s.file, s.ref)))
        trail.append(EdgeTrace(frm, to, rule, provenance))
    return tuple(trail)


def find_violations(
    graph: DependencyGraph,
    bundle: InventoryBundle | None = None,
    policy: ScoringPolicy | None = None,
    horizon: HorizonConfig | None = None,
    max_witnesses: int = 1,
) -> tuple[list[Finding], list[Diagnostic]]:
    """All pairs (required level, strictly lower provided level in the same
    dimension) connected by a directed path, each with up to
    ``max_witnesses`` witness paths; a limit below 1 raises ValueError.

    One reverse search runs from each provided level; it gives the
    distance to that level from every required level whose path avoids the
    other levels.  A required level it misses is checked by a plain reverse
    search, run at most once per provided level, which gives the
    through-level witnesses.  Pairs and their diagnostics come out in
    (required, provided) order; findings are sorted by descending score,
    then by id.  When ``bundle`` is given the scores use its classification
    ranking and data retention; otherwise all findings get neutral
    sensitivity.
    """
    if max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, got {max_witnesses}")
    policy = policy or ScoringPolicy()
    horizon = horizon or HorizonConfig()
    diagnostics: list[Diagnostic] = []

    levels = [v for v in graph.vertices if v.kind is VertexKind.SECURITY_LEVEL]
    level_ids = {v.id for v in levels}
    required_ids = {e.frm for e in graph.edges if e.rule == "SL1"}
    provided_ids = {e.to for e in graph.edges if e.rule == "SL2"}
    pairs = [
        (high, low)
        for high in levels if high.id in required_ids
        for low in levels if low.id in provided_ids
        and compare_ratings(high.payload, low.payload) is Comparison.A_HIGHER
    ]
    # searched per provided level, reported below in pair order
    witnesses = {}
    for low in dict.fromkeys(low.id for _, low in pairs):
        highs = [high.id for high, provided in pairs if provided.id == low]
        witnesses.update(_witnesses_to(graph, low, highs, level_ids, max_witnesses))

    vertex_map = graph.vertex_map()
    findings: list[Finding] = []
    for high, low in pairs:
        if (high.id, low.id) not in witnesses:
            continue
        paths, through_level = witnesses[high.id, low.id]
        if through_level:
            # reachable only through another level vertex: report the
            # plain shortest path rather than staying silent
            diagnostics.append(Diagnostic(
                Severity.WARNING, "analysis", "witness-through-level",
                f"every path from {high.display} to {low.display} crosses another security level",
            ))
        for path in paths:
            finding = Finding(
                required=high.payload,
                provided=low.payload,
                path=path,
                display_path=tuple(vertex_map[v].display for v in path),
                rule_trail=_trace(path, graph),
                affected_data=tuple(
                    sorted(v for v in path if vertex_map[v].kind is VertexKind.DATA_ASSET)
                ),
            )
            findings.append(score_finding(finding, graph, bundle, policy, horizon, diagnostics))

    findings.sort(key=lambda f: (-(f.score.total if f.score else 0.0), f.id))
    return findings, diagnostics


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------

def score_finding(
    finding: Finding,
    graph: DependencyGraph,
    bundle: InventoryBundle | None,
    policy: ScoringPolicy,
    horizon: HorizonConfig,
    diagnostics: list[Diagnostic] | None = None,
) -> Finding:
    """Attach a ScoreBreakdown.  Inputs the bundle cannot answer (no
    classification on the path, unknown retention) degrade to neutral
    weights with a warning recorded on the breakdown."""
    vertex_map = graph.vertex_map()
    warnings: list[str] = []

    vuln_weight = 1.0
    for vertex_id in finding.path:
        vertex = vertex_map[vertex_id]
        if vertex.kind is VertexKind.PRIMITIVE_CONFIG and vertex.payload is not None:
            vuln_weight = max(vuln_weight, policy.weight_for(vertex.payload.vulnerability_class))

    sensitivity = 1.0
    urgent = False
    if bundle is None:
        warnings.append("no bundle available, sensitivity and longevity not assessed")
    else:
        labels = bundle.classification_map()
        ranks = [
            labels[v].rank for v in finding.path
            if v in labels and vertex_map[v].kind is VertexKind.CLASSIFICATION
        ]
        if ranks:
            sensitivity = float(max(len(bundle.classifications) - r for r in ranks))
        else:
            warnings.append("no classification on the witness path, neutral sensitivity")
        data_map = bundle.data_map()
        for data_id in finding.affected_data:
            record = data_map.get(data_id)
            if record is None:
                continue
            flagged, assessed = check_longevity(record, horizon)
            if not assessed:
                message = f"no retention period for {data_id}, longevity not assessed"
                warnings.append(message)
                if diagnostics is not None:
                    diagnostics.append(
                        Diagnostic(
                            Severity.WARNING, record.source.file, "retention-unknown", message
                        )
                    )
            urgent = urgent or flagged

    total = sensitivity * vuln_weight * (policy.longevity_multiplier if urgent else 1.0)
    return replace(
        finding,
        score=ScoreBreakdown(sensitivity, vuln_weight, urgent, total, tuple(warnings)),
    )


# --------------------------------------------------------------------------
# what-if overlays
# --------------------------------------------------------------------------

class OverlayError(ValueError):
    """Raised when an overlay file is malformed or names unknown entities."""


@dataclass(frozen=True)
class Overlay:
    """A hypothetical edit of the inventory files: swap algorithms, drop
    records, add records.

    ``replace_algorithms`` maps full primitive spellings like ``RSA[1024]``
    to replacements that must exist in the registry.  ``remove_records``
    names record ids or classification labels.  ``add_records`` holds JSON
    objects, one record each, whose ``record_kind`` is ``classification``,
    ``data``, ``asset`` or ``crypto``.  ``apply_overlay`` makes the edit on
    the parsed records.
    """

    replace_algorithms: tuple[tuple[str, str], ...] = ()
    remove_records: tuple[str, ...] = ()
    add_records: tuple[dict, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.replace_algorithms or self.remove_records or self.add_records)


def parse_overlay(text: str) -> Overlay:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise OverlayError(f"overlay is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise OverlayError("overlay must be a JSON object")
    known = {"replace_algorithms", "remove_records", "add_records"}
    unknown = set(raw) - known
    if unknown:
        raise OverlayError(f"unknown overlay keys: {', '.join(sorted(unknown))}")
    for key in sorted(known):
        if not isinstance(raw.get(key, []), list):
            raise OverlayError(f"{key} must be a list")

    replacements = []
    for entry in raw.get("replace_algorithms", []):
        if not isinstance(entry, dict) or set(entry) != {"from", "to"}:
            raise OverlayError('replace_algorithms entries need exactly "from" and "to"')
        for spec in (entry["from"], entry["to"]):
            if not isinstance(spec, str):
                raise OverlayError(f"algorithm spec {spec!r} is not a string")
            try:
                parse_primitive_spec(spec)
            except ValueError as exc:
                raise OverlayError(str(exc)) from exc
        replacements.append((entry["from"], entry["to"]))

    removals = raw.get("remove_records", [])
    if not all(isinstance(r, str) for r in removals):
        raise OverlayError("remove_records must be a list of record ids")

    additions = raw.get("add_records", [])
    for entry in additions:
        if not isinstance(entry, dict) or "record_kind" not in entry:
            raise OverlayError('add_records entries need a "record_kind" field')

    return Overlay(tuple(replacements), tuple(removals), tuple(additions))


def _record_key(record) -> str:
    return record.label if isinstance(record, ClassificationBinding) else record.id


def _rewrite(record, replacements: dict[str, str], resolved):
    """``record`` with each replaced algorithm spec written in its new
    spelling: the algorithm of a crypto row, and every asset-field reference
    that resolves to an algorithm."""
    if isinstance(record, CryptoObjectRecord) and record.algorithm is not None:
        new = replacements.get(primitive_key(record.algorithm, record.config_flags))
        if new is not None:
            name, flags = parse_primitive_spec(new)
            return replace(record, algorithm=name, config_flags=flags)
    elif isinstance(record, AssetRecord):
        accesses = tuple(_rewrite_ref(ref, replacements, resolved) for ref in record.accesses)
        if accesses != record.accesses:
            return replace(record, accesses=accesses)
    return record


def _rewrite_ref(ref, replacements: dict[str, str], resolved):
    # rules._typed_reference reads a target as an algorithm only when it
    # names no crypto object, data or asset (the ids in ``resolved``)
    if ref.origin is RefOrigin.ASSET_FIELD and ref.target not in resolved:
        new = replacements.get(_spec_key(ref.target))
        if new is not None:
            return replace(ref, target=new)
    return ref


def _spec_key(target: str) -> str | None:
    try:
        return primitive_key(*parse_primitive_spec(target))
    except ValueError:
        return None


def apply_overlay(
    bundle: InventoryBundle, overlay: Overlay
) -> tuple[InventoryBundle, list[Diagnostic]]:
    """The bundle the overlay's hand edit of the input files would give,
    with the diagnostics of assembling it.  The original is untouched.

    Every named algorithm, replacement, and removal target must exist and
    every added record must be well formed; otherwise the full set of
    offenders is reported in one error.  The edit runs on
    ``bundle.records``: drop the records whose id or label is removed,
    rewrite replaced specs, append the added records, and assemble the
    result with ``assemble_bundle``.  So an added asset with an existing id
    merges, an added data or crypto record with one is a ``duplicate-id``,
    an added classification ranks below the existing ones, and a removed id
    that other records still reference comes back as an undeclared asset,
    with a warning.
    """
    problems: list[str] = []

    replacements: dict[str, str] = {}
    for old, new in overlay.replace_algorithms:
        new_name, new_flags = parse_primitive_spec(new)
        if bundle.registry.lookup(new_name, new_flags) is None:
            problems.append(f"replacement {new} is not in the registry")
        replacements[_spec_key(old)] = new

    resolved = bundle.crypto_map().keys() | bundle.data_map().keys() | bundle.asset_map().keys()
    ids = resolved | bundle.classification_map().keys()
    missing = [r for r in overlay.remove_records if r not in ids]
    problems.extend(f"cannot remove unknown record {r}" for r in missing)

    added = []
    for entry in overlay.add_records:
        try:
            added.append(_record_from_dict(entry))
        except KeyError as exc:
            problems.append(f"bad added record: missing field {exc}")
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            problems.append(f"bad added record: {exc}")

    if problems:
        raise OverlayError("; ".join(problems))

    drop = set(overlay.remove_records)
    edited = [
        _rewrite(record, replacements, resolved)
        for record in bundle.records
        if _record_key(record) not in drop
    ]
    edited.extend(added)
    overlaid, diagnostics = assemble_bundle(edited, bundle.registry)

    readded = {_record_key(record) for record in added}
    for ident in overlay.remove_records:
        if ident in overlaid.asset_map() and ident not in readded:
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING, "overlay", "removed-but-referenced",
                    f"removed record {ident!r} is still referenced by other records "
                    f"and stays as an undeclared asset",
                )
            )
    return overlaid, diagnostics

"""Violation detection, prioritisation, and what-if overlays.

A violation exists when a security level that some classification requires
can reach, along directed edges, a strictly lower provided level in the same
dimension.  Detection runs one reverse breadth-first search from each
provided level over ``graph.predecessors``; it records level vertices but does
not pass through them, and stops once it has recorded every required level
it looks for, so it finds each one that has a path whose interior avoids
other levels.  The witness path is the lexicographically smallest of those
shortest paths, walked over out-edges that the graph finds by bisection, so
the chain reads as the actual chain of custody rather than hopping through
the level layer.  A required level the search misses may still reach the
provided level through another level vertex: a plain reverse search for the
missing levels decides that, the plain shortest path is reported, and the
finding carries a warning.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field, fields, replace

from .ingest import _json_document, _json_fields, assemble_bundle, parse_entry, text_digest
from .model import (
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    DataRecord,
    Diagnostic,
    InventoryBundle,
    RefOrigin,
    SecurityRating,
    VulnerabilityClass,
    _warning,
    parse_primitive_spec,
    primitive_key,
    spec_key,
)
from .rules import DependencyGraph, Edge, VertexKind

__all__ = [
    "ScoringPolicy",
    "HorizonConfig",
    "ScoreBreakdown",
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
        """Raises ValueError unless ``raw`` is an object of known keys whose
        ``class_weights`` is an object and whose values are numbers."""
        raw = _json_fields(raw, [f.name for f in fields(cls)], "a policy")
        weights = dict(DEFAULT_CLASS_WEIGHTS)
        classes = [c.value for c in VulnerabilityClass]
        class_weights = _json_fields(raw.get("class_weights", {}), classes, "class_weights")
        for name in class_weights:
            weights[VulnerabilityClass(name)] = _number(class_weights, name)
        return cls(weights, **{key: _number(raw, key) for key in raw if key != "class_weights"})


@dataclass(frozen=True)
class HorizonConfig:
    """Timeline for the longevity check: data is urgent when its retention
    plus the migration lead time outlasts the quantum horizon."""

    migration_years: float = 5.0
    quantum_horizon_years: float = 15.0

    def __post_init__(self) -> None:
        if self.migration_years < 0 or self.quantum_horizon_years < 0:
            raise ValueError("horizon years must be non-negative")

    @classmethod
    def from_dict(cls, raw: dict) -> "HorizonConfig":
        """Raises ValueError unless ``raw`` is an object of numbers under known keys."""
        raw = _json_fields(raw, [f.name for f in fields(cls)], "a horizon")
        return cls(**{key: _number(raw, key) for key in raw})


def _number(raw: dict, key: str) -> float:
    value = raw[key]
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


@dataclass(frozen=True)
class Finding:
    """One reliance of a required level on a strictly lower provided level.

    ``path`` holds vertex ids from the required level to the provided one;
    ``display_path`` the human labels.  ``rule_trail`` holds one edge per
    hop, whose rule joins the hop's rules with ``/``.  ``score`` is the
    breakdown ``score_finding`` gives.
    """

    required: SecurityRating
    provided: SecurityRating
    path: tuple[str, ...]
    display_path: tuple[str, ...]
    rule_trail: tuple[Edge, ...]
    affected_data: tuple[str, ...]
    score: ScoreBreakdown

    @property
    def id(self) -> str:
        return _path_id(self.path)


def _path_id(path: tuple[str, ...]) -> str:
    return text_digest("\x1f".join(path))[:16]


# --------------------------------------------------------------------------
# detection
# --------------------------------------------------------------------------

def _distances_to(graph: DependencyGraph, goal: str, stop, wanted) -> dict[str, int]:
    """Hops to ``goal`` from the vertices that reach it, by a reverse
    breadth-first search that records the vertices in ``stop`` but does not
    search past them.  It returns once it has recorded all of ``wanted``:
    if the last lies d hops away, every vertex fewer hops away, which is
    all a shortest path from a wanted vertex reads, is recorded by then."""
    predecessors = graph.predecessors
    dist = {goal: 0}
    missing = set(wanted)
    queue = deque([goal])
    while queue and missing:
        vertex = queue.popleft()
        hops = dist[vertex] + 1
        for pred in predecessors.get(vertex, ()):
            if pred not in dist:
                dist[pred] = hops
                missing.discard(pred)
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
    def nexts(current: str):
        step = dist[current] - 1
        return iter(sorted({
            e.to for e in graph.out_edges(current)
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
    dist = _distances_to(graph, low, level_ids, highs)
    plain = _distances_to(graph, low, (), [high for high in highs if high not in dist])
    found = {}
    for high in highs:
        if high in dist:
            found[high, low] = _witness_paths(graph, high, low, dist, level_ids, limit), False
        elif high in plain:
            found[high, low] = _witness_paths(graph, high, low, plain, (), limit), True
    return found


def _trace(path: tuple[str, ...], graph: DependencyGraph) -> tuple[Edge, ...]:
    trail = []
    for frm, to in zip(path, path[1:]):
        edges = graph.edges_between(frm, to)
        rule = "/".join(sorted({e.rule for e in edges})) or "?"
        trail.append(Edge(frm, to, rule, tuple(sorted({s for e in edges for s in e.provenance}))))
    return tuple(trail)


def find_violations(
    graph: DependencyGraph,
    bundle: InventoryBundle = InventoryBundle(),
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
    (required, provided) order, each diagnostic once, where it first
    arises; findings are sorted by descending score, then by id.  The
    scores use the classification ranking and data retention of ``bundle``;
    without one every finding gets neutral sensitivity.
    """
    if max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, got {max_witnesses}")
    policy = policy or ScoringPolicy()
    horizon = horizon or HorizonConfig()
    diagnostics: list[Diagnostic] = []

    # a level carries its rating, so it is named; only SL1 edges leave a level and only SL2
    # edges enter one, so it is required when it has out-edges and provided when it has predecessors
    levels = [v for _, v in sorted(graph.named.items()) if v.kind is VertexKind.SECURITY_LEVEL]
    level_ids = {v.id for v in levels}
    required = [v for v in levels if graph.out_edges(v.id)]
    provided = [v for v in levels if v.id in graph.predecessors]
    pairs = [(high, low) for high in required for low in provided if high.payload.outranks(low.payload)]
    # searched per provided level, reported below in pair order
    witnesses = {}
    for low in dict.fromkeys(low.id for _, low in pairs):
        highs = [high.id for high, provided in pairs if provided.id == low]
        witnesses.update(_witnesses_to(graph, low, highs, level_ids, max_witnesses))

    findings: list[Finding] = []
    for high, low in pairs:
        if (high.id, low.id) not in witnesses:
            continue
        paths, through_level = witnesses[high.id, low.id]
        if through_level:
            # reachable only through another level vertex: report the
            # plain shortest path rather than staying silent
            _warning(
                diagnostics, "analysis", None, "witness-through-level",
                f"every path from {high.display} to {low.display} crosses another security level",
            )
        for path in paths:
            affected = tuple(sorted(v for v in path if graph.kinds[v] is VertexKind.DATA_ASSET))
            findings.append(Finding(
                required=high.payload, provided=low.payload, path=path, affected_data=affected,
                display_path=tuple(graph.vertex(v).display for v in path), rule_trail=_trace(path, graph),
                score=score_finding(path, affected, graph, bundle, policy, horizon, diagnostics),
            ))

    findings.sort(key=lambda f: (-f.score.total, f.id))
    return findings, list(dict.fromkeys(diagnostics))


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------

def score_finding(
    path: tuple[str, ...], affected_data: tuple[str, ...], graph: DependencyGraph, bundle: InventoryBundle,
    policy: ScoringPolicy, horizon: HorizonConfig, diagnostics: list[Diagnostic],
) -> ScoreBreakdown:
    """The score of the finding with witness ``path`` and ``affected_data``.
    Inputs the bundle cannot answer (no classification on the path, unknown
    retention) degrade to neutral weights with a warning recorded on the
    breakdown, and an unknown retention adds one to ``diagnostics``.  Raises
    OverflowError when the policy's weights make the score infinite or NaN."""
    warnings: list[str] = []

    vuln_weight = 1.0
    for vertex in map(graph.vertex, path):
        if vertex.kind is VertexKind.PRIMITIVE_CONFIG and vertex.payload is not None:
            vuln_weight = max(vuln_weight, policy.weight_for(vertex.payload.vulnerability_class))

    labels = bundle.classification_map
    ranks = [labels[v].rank for v in path if v in labels and graph.kinds[v] is VertexKind.CLASSIFICATION]
    sensitivity = float(max((len(bundle.classifications) - r for r in ranks), default=1))
    if not ranks:
        warnings.append("no classification on the witness path, neutral sensitivity")
    urgent = False
    for data_id in affected_data:
        record = bundle.data_map.get(data_id)
        if record is None:
            continue
        flagged, assessed = check_longevity(record, horizon)
        if not assessed:
            message = f"no retention period for {data_id}, longevity not assessed"
            warnings.append(message)
            _warning(diagnostics, record.source.file, None, "retention-unknown", message)
        urgent = urgent or flagged

    total = sensitivity * vuln_weight * (policy.longevity_multiplier if urgent else 1.0)
    if not abs(total) <= sys.float_info.max:
        raise OverflowError(
            f"its weights give finding {_path_id(path)} the score {total}, which is not a finite number"
        )
    return ScoreBreakdown(sensitivity, vuln_weight, urgent, total, tuple(warnings))


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


def parse_overlay(text: str) -> Overlay:
    """The overlay ``text`` holds; raises OverlayError naming its first problem."""
    keys = ("replace_algorithms", "remove_records", "add_records")
    try:
        raw = _json_fields(_json_document(text, "the overlay"), keys, "the overlay")
        for key in sorted(keys):
            if not isinstance(raw.get(key, []), list):
                raise ValueError(f"{key} must be a list")

        replacements = []
        for entry in raw.get("replace_algorithms", []):
            if set(_json_fields(entry, ("from", "to"), "a replace_algorithms entry")) != {"from", "to"}:
                raise ValueError('replace_algorithms entries need exactly "from" and "to"')
            for spec in (entry["from"], entry["to"]):
                if not isinstance(spec, str):
                    raise ValueError(f"algorithm spec {spec!r} is not a string")
                parse_primitive_spec(spec)
            replacements.append((entry["from"], entry["to"]))

        removals = raw.get("remove_records", [])
        if not all(isinstance(r, str) for r in removals):
            raise ValueError("remove_records must be a list of record ids")

        additions = raw.get("add_records", [])
        for entry in additions:
            if not isinstance(entry, dict) or "record_kind" not in entry:
                raise ValueError('add_records entries need a "record_kind" field')
    except ValueError as exc:
        raise OverlayError(str(exc)) from None
    return Overlay(tuple(replacements), tuple(removals), tuple(additions))


def _record_key(record) -> str:
    return record.label if isinstance(record, ClassificationBinding) else record.id


def _rewrite(record, replacements: dict[str, str], bundle: InventoryBundle):
    """``record`` with each replaced algorithm spec written in its new
    spelling: the algorithm of a crypto row, and every asset-field reference
    that ``bundle`` resolves to an algorithm."""
    if isinstance(record, CryptoObjectRecord) and record.algorithm is not None:
        new = replacements.get(primitive_key(record.algorithm, record.config_flags))
        if new is not None:
            name, flags = parse_primitive_spec(new)
            return replace(record, algorithm=name, config_flags=flags)
    elif isinstance(record, AssetRecord):
        accesses = tuple(_rewrite_ref(ref, replacements, bundle) for ref in record.accesses)
        if accesses != record.accesses:
            return replace(record, accesses=accesses)
    return record


def _rewrite_ref(ref, replacements: dict[str, str], bundle: InventoryBundle):
    resolved = bundle.resolve(ref.target) if ref.origin is RefOrigin.ASSET_FIELD else None
    new = replacements.get(primitive_key(*resolved)) if isinstance(resolved, tuple) else None
    return ref if new is None else replace(ref, target=new)


def apply_overlay(
    bundle: InventoryBundle, overlay: Overlay
) -> tuple[InventoryBundle, list[Diagnostic]]:
    """The bundle the overlay's hand edit of the input files would give,
    with the diagnostics of assembling it.  The original is untouched.

    Replacement targets must exist in the registry, no spec may be replaced
    by two different targets, removal ids must exist in the bundle, and
    every added record must be well formed; otherwise the full set of
    offenders is reported in one error.  A replaced spec that no record
    uses changes nothing.  The edit runs on ``bundle.records``: drop the
    records whose id or label is removed, rewrite replaced specs, append
    the added records, and assemble the result with ``assemble_bundle``.
    So an added asset with an existing id merges, an added data or crypto
    record with one is a ``duplicate-id``, an added classification ranks
    below the existing ones, and a removed id that other records still
    reference stays one of the result's ``undeclared_assets``, with a warning.
    """
    problems: list[str] = []

    replacements: dict[str, str] = {}
    for old, new in overlay.replace_algorithms:
        new_name, new_flags = parse_primitive_spec(new)
        if bundle.registry.lookup(new_name, new_flags) is None:
            problems.append(f"replacement {new} is not in the registry")
        earlier = replacements.get(spec_key(old))
        if earlier is not None and spec_key(earlier) != spec_key(new):
            problems.append(f"{old} is replaced by both {earlier} and {new}")
        replacements[spec_key(old)] = new

    named = (bundle.crypto_map, bundle.data_map, bundle.asset_map, bundle.undeclared_assets, bundle.classification_map)
    missing = [r for r in overlay.remove_records if not any(r in ids for ids in named)]
    problems.extend(f"cannot remove unknown record {r}" for r in missing)

    added = []
    for entry in overlay.add_records:
        try:
            added.append(parse_entry(entry))
        except KeyError as exc:
            problems.append(f"bad added record: missing field {exc}")
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            problems.append(f"bad added record: {exc}")

    if problems:
        raise OverlayError("; ".join(problems))

    drop = set(overlay.remove_records)
    edited = [
        _rewrite(record, replacements, bundle)
        for record in bundle.records
        if _record_key(record) not in drop
    ]
    edited.extend(added)
    overlaid, diagnostics = assemble_bundle(edited, bundle.registry)

    readded = {_record_key(record) for record in added}
    for ident in overlay.remove_records:
        if ident in overlaid.undeclared_assets and ident not in readded:
            _warning(
                diagnostics, "overlay", None, "removed-but-referenced",
                f"removed record {ident!r} is still referenced by other records and stays as an undeclared asset",
            )
    return overlaid, diagnostics

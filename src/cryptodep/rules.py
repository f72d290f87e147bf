"""Compilation of an inventory bundle into a typed security dependency graph.

An edge ``a -> b`` means the security of ``a`` relies on the security of
``b``.  Every edge is tagged with the rule that produced it and carries the
provenance of the records that forced it; identical edges produced by
several records merge into one multi-provenance edge.

Each rule is named and described in :data:`RULES`.

Which rule fires for a reference column on an asset row depends on the kind
of the source asset and on what the target resolves to (crypto object,
algorithm, data, or another asset).  Dedicated access-record rows always
produce AC1 edges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .model import (
    AssetKind,
    AssetRecord,
    Configuration,
    CryptoObjectRecord,
    CryptoObjectType,
    DataRecord,
    Diagnostic,
    Direction,
    InventoryBundle,
    RefOrigin,
    SecurityRating,
    Source,
    _error,
    _warning,
    parse_primitive_spec,
    primitive_key,
    spec_key,
)

__all__ = [
    "VertexKind",
    "Vertex",
    "Edge",
    "DependencyGraph",
    "UnknownVertexError",
    "RULES",
    "build_graph",
    "validate_bundle",
    "explain_edge",
]


#: every rule that produces edges, by id, with what its edges mean
RULES: dict[str, str] = {
    "SL1": "a required security level supports each classification requiring it",
    "SL2": "a primitive configuration provides the levels the registry rates it at",
    "DC1": "a classification covers each data asset carrying it",
    "D1": "data relies on the assets it is stored on",
    "D2": "data relies on the channels it moves over",
    "D3": "data relies on the processes that use it",
    "K1": "secret and private keys rely on the assets holding or using them, "
        "including key-management locations for any crypto object",
    "K3": "public keys rely on their matched private key and storage asset",
    "K4": "keys rely on the primitive configuration they are used with",
    "K5": "keys and certificates rely on the process that created them",
    "K6": "certificates rely on their signature algorithm, embedded public key, "
        "and issuing certificate (self-signed certificates stop the chain)",
    "K7": "CA certificates additionally rely on their storage asset",
    "P2": "protocol configurations rely on their member primitives",
    "M1": "processors rely on the symmetric/private keys they store",
    "M2": "processors rely on the public keys and certificates they store",
    "M3": "a processor stands in for its unlisted processes: references from a "
        "processor to crypto objects or algorithms become reliance edges",
    "PR1": "processes rely on the primitives and protocols they use",
    "PR2": "processes rely on the processor they run on",
    "PR3": "processes rely on their sub-processes and software",
    "PR4": "processes rely on the keys they use",
    "CH1": "channels rely on the protocols, primitives, and keys securing them",
    "CH2": "channels and the entities communicating over them rely on each other",
    "AC1": "access relations couple an asset and a service (two-way, or a single "
        "service-to-asset edge for read-only access)",
}


class VertexKind(str, Enum):
    SECURITY_LEVEL = "SecurityLevel"
    CLASSIFICATION = "Classification"
    DATA_ASSET = "DataAsset"
    PROCESSOR = "Processor"
    PROCESS = "Process"
    CHANNEL = "Channel"
    KEY = "Key"
    CERTIFICATE = "Certificate"
    PRIMITIVE_CONFIG = "PrimitiveConfig"


_ASSET_VERTEX_KIND = {
    None: VertexKind.PROCESSOR,
    AssetKind.PROCESSOR: VertexKind.PROCESSOR,
    AssetKind.SERVICE: VertexKind.PROCESSOR,
    AssetKind.CHANNEL: VertexKind.CHANNEL,
    AssetKind.PROCESS: VertexKind.PROCESS,
    AssetKind.SOFTWARE: VertexKind.PROCESS,
}

_DATA_LOCATION_RULE = {
    VertexKind.PROCESSOR: "D1",
    VertexKind.CHANNEL: "D2",
    VertexKind.PROCESS: "D3",
}


class CryptoRule(NamedTuple):
    """A crypto object type's vertex kind and the rule each field gives, or None."""

    kind: VertexKind
    location: str | None
    held: str
    algorithm: str
    matched_key: str | None
    issuer_cert: str | None


#: each crypto object type's rules, which the build, the row reader and validation
#: read: ``location`` is the edge to the holder, ``held`` a processor holder's edge
#: to the object; every type takes K1 to ``key_locations`` and K5 to ``created_by``
CRYPTO_RULES: dict[CryptoObjectType, CryptoRule] = {
    CryptoObjectType.SYMMETRIC_KEY: CryptoRule(VertexKind.KEY, "K1", "M1", "K4", None, None),
    CryptoObjectType.PRIVATE_KEY: CryptoRule(VertexKind.KEY, "K1", "M1", "K4", None, None),
    CryptoObjectType.PUBLIC_KEY: CryptoRule(VertexKind.KEY, "K3", "M2", "K4", "K3", None),
    CryptoObjectType.CERTIFICATE: CryptoRule(VertexKind.CERTIFICATE, None, "M2", "K6", "K6", "K6"),
    CryptoObjectType.CA_CERTIFICATE: CryptoRule(VertexKind.CERTIFICATE, "K7", "M2", "K6", "K6", "K6"),
}

# reference columns naming a crypto object or an algorithm; M3 otherwise
_CRYPTO_REF_RULE = {VertexKind.PROCESS: "PR4", VertexKind.CHANNEL: "CH1"}
_ALGORITHM_REF_RULE = {VertexKind.PROCESS: "PR1", VertexKind.CHANNEL: "CH1"}


class UnknownVertexError(KeyError):
    """Raised when an operation names a vertex that is not in the graph."""


@dataclass(frozen=True, slots=True)
class Vertex:
    id: str
    kind: VertexKind
    display: str
    payload: SecurityRating | Configuration | None = None


class Edge(NamedTuple):
    """A tuple, so edges sort by (from, to, rule, provenance) natively."""

    frm: str
    to: str
    rule: str
    provenance: tuple[Source, ...] = ()


_FRM, _TO, _RULE = itemgetter(0), itemgetter(1), itemgetter(2)


@dataclass(frozen=True)
class DependencyGraph:
    """Immutable digraph.  ``kinds``, id -> kind, is its one vertex index; ``named`` holds the
    ``Vertex`` of each vertex with a display other than its id or a payload (levels, rated
    configurations, named records).  Edges are sorted by (from, to, rule).  Two-cycles are
    legal; the graph need not be acyclic."""

    kinds: dict[str, VertexKind] = field(default_factory=dict)
    edges: tuple[Edge, ...] = ()
    named: dict[str, Vertex] = field(default_factory=dict)

    @cached_property
    def predecessors(self) -> dict[str, list[str]]:
        """Each vertex's predecessors, listed once, built on first use and kept
        with the graph, outside equality; a vertex without any has no entry."""
        predecessors: dict[str, list[str]] = {}
        for frm, to, _, _ in self.edges:
            preds = predecessors.get(to)
            if preds is None:
                predecessors[to] = [frm]
            elif preds[-1] != frm:  # one entry per rule otherwise
                preds.append(frm)
        return predecessors

    def vertex(self, vertex_id: str) -> Vertex:
        """The vertex ``vertex_id``, made on each call unless named; raises UnknownVertexError if absent."""
        if vertex_id not in self.kinds:
            raise UnknownVertexError(f"no vertex {vertex_id!r} in the graph")
        return self.named.get(vertex_id) or Vertex(vertex_id, self.kinds[vertex_id], vertex_id)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """Every vertex, sorted by id, made on each read."""
        return tuple(map(self.vertex, sorted(self.kinds)))

    def vertex_map(self) -> dict[str, Vertex]:
        """Vertex by id, made on each call."""
        return {v.id: v for v in self.vertices}

    def out_edges(self, frm: str) -> tuple[Edge, ...]:
        """The edges from ``frm``, in graph order (so grouped by target, then
        rule): a run of ``edges``, which are sorted by source."""
        start = bisect_left(self.edges, frm, key=_FRM)
        return self.edges[start:bisect_right(self.edges, frm, start, key=_FRM)]

    def adjacency(self) -> dict[str, list[str]]:
        """Sorted successor lists, deduplicated across rules."""
        return {v: sorted({e.to for e in self.out_edges(v)}) for v in sorted(self.kinds)}

    def edges_between(self, frm: str, to: str) -> tuple[Edge, ...]:
        run = self.out_edges(frm)
        start = bisect_left(run, to, key=_TO)
        return run[start:bisect_right(run, to, start, key=_TO)]

    def edges_by_rule(self) -> dict[str, int]:
        return dict(sorted(Counter(map(_RULE, self.edges)).items()))


def explain_edge(graph: DependencyGraph, frm: str, to: str) -> list[tuple[str, Source]]:
    """Every (rule, provenance) pair justifying the edge ``frm -> to``.

    Returns an empty list when the vertices exist but the edge does not;
    raises UnknownVertexError when either vertex is absent.
    """
    for vertex_id in (frm, to):
        graph.vertex(vertex_id)  # raises for an absent vertex
    return [(edge.rule, source) for edge in graph.edges_between(frm, to) for source in edge.provenance]


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

_LEVEL = "level or configuration"
#: the namespace of each vertex kind's ids
_NAMESPACE = {
    VertexKind.CLASSIFICATION: "classification", VertexKind.DATA_ASSET: "data", VertexKind.PROCESSOR: "asset",
    VertexKind.CHANNEL: "asset", VertexKind.PROCESS: "asset", VertexKind.KEY: "crypto",
    VertexKind.CERTIFICATE: "crypto", VertexKind.SECURITY_LEVEL: _LEVEL, VertexKind.PRIMITIVE_CONFIG: _LEVEL,
}
_LOCATED = "crypto object {!r} names location {!r} but no such asset exists"


class _Builder:
    """Vertices, edges and diagnostics as the rules add them, in two phases.
    Declare: each record claims its id; the first claim on an id gives it
    its vertex, and a claim in a second namespace is a collision.  Link: a
    reference uses a declared id, and ``ref`` gives an undeclared one a
    vertex that stands for no record (``dangled``), so no claim collides
    with it.  Edges go into one list, duplicates and all, each holding the
    provenance tuple its record shares among all of its edges; ``finish``
    sorts the list once and merges the duplicates, so most edges keep that
    shared tuple.  Validation passes an edge list that keeps none, and a
    build whose caller wants no diagnostics a diagnostics list that keeps none."""

    def __init__(self, bundle: InventoryBundle, diagnostics: list[Diagnostic] | None = None, edges=None):
        self.bundle = bundle
        self.diagnostics = [] if diagnostics is None else diagnostics
        # levels exist only for the dimensions some classification requires
        self.active_dims = {rating.dimension for binding in bundle.classifications for rating in binding.required}
        # bound once: the rules consult them for nearly every record
        self.labels = bundle.classification_map
        self.assets = bundle.asset_map
        self.crypto = bundle.crypto_map
        bundle.data_map  # for resolve: made now, not mid-pass on top of the graph (2 MB of scan_100k's peak RSS)
        self.kinds: dict[str, VertexKind] = {}  # the graph's vertex index
        self.named: dict[str, Vertex] = {}
        self.edges: list[Edge] = [] if edges is None else edges
        self._configs: dict[tuple[str, tuple[str, ...]], str] = {}
        self.unrated: set[str] = set()  # the configurations the registry does not rate
        self.dangled: set[str] = set()
        self.spelled: set[str] = set()  # ids claimed as a level or configuration too, reported last
        self.reported: set[tuple[str, ...]] = set()  # collisions and unrated uses, each reported once

    def vertex(self, vertex_id: str, kind: VertexKind, display: str | None = None, payload=None) -> str:
        held = self.kinds.get(vertex_id)
        if held is None:
            self.kinds[vertex_id] = kind
            if (display and display != vertex_id) or payload is not None:
                self.named[vertex_id] = Vertex(vertex_id, kind, display or vertex_id, payload)
        elif held is not kind:
            self._claim(vertex_id, held, _NAMESPACE[kind])
        return vertex_id

    def _claim(self, ident: str, held: VertexKind, namespace: str) -> None:
        """A claim in ``namespace`` on ``ident``, which holds a ``held`` vertex."""
        first = _NAMESPACE[held]
        if first == namespace or ident in self.dangled:
            return
        if _LEVEL in (first, namespace):
            self.spelled.add(ident)
        elif (ident, first, namespace) not in self.reported:
            self.reported.add((ident, first, namespace))
            message = f"identifier {ident!r} appears in both {first}/{namespace} inventories"
            _error(self.diagnostics, "<bundle>", None, "namespace-collision", message)

    def ref(self, ident: str, records, kind: VertexKind, record, message: str, code="dangling-reference") -> str:
        """``record``'s reference to ``ident``, which may name only one of ``records``; naming none,
        it is an error, ``message`` given the two ids, and a ``kind`` vertex unless the id has one."""
        if ident not in records:
            _error(self.diagnostics, record.source.file, None, code, message.format(record.id, ident))
            if ident not in self.kinds:
                self.kinds[ident] = kind
                self.dangled.add(ident)
        return ident

    def edge(self, frm: str, to: str, rule: str, provenance: tuple[Source]) -> None:
        if frm != to:
            self.edges.append(Edge(frm, to, rule, provenance))

    # -- vertex helpers ----------------------------------------------------

    def level(self, rating: SecurityRating) -> str:
        return self.vertex(rating.key, VertexKind.SECURITY_LEVEL, rating.display, rating)

    def config(self, algorithm: str, flags: tuple[str, ...]) -> str:
        """Vertex for a primitive configuration, expanding registry ratings
        (SL2) and protocol members (P2) once per spelling of it; a second
        spelling adds nothing new, and the memo entry, made before the
        members expand, ends protocol cycles.  Members expand depth first,
        in order, from an explicit stack, so no chain of them is too deep."""
        key = self._configs.get((algorithm, flags))
        if key is not None:
            return key
        pending = [(None, algorithm, flags, None)]  # (user, name, flags, provenance)
        while pending:
            user, name, name_flags, provenance = pending.pop()
            key = self._configs.get((name, name_flags))
            if key is None:
                key = self._configs[name, name_flags] = primitive_key(name, name_flags)
                configuration = self.bundle.registry.lookup(name, name_flags)
                self.vertex(key, VertexKind.PRIMITIVE_CONFIG, payload=configuration)
                if configuration is None:
                    self.unrated.add(key)
                else:
                    source = (configuration.source,)
                    for rating in configuration.ratings:
                        if rating.dimension in self.active_dims:
                            self.edge(key, self.level(rating), "SL2", source)
                    pending += [(key, *parse_primitive_spec(spec), source) for spec in reversed(configuration.uses)]
            if user is not None:
                self.edge(user, key, "P2", provenance)
        return self._configs[algorithm, flags]

    def used(self, key: str, user: str, source: Source) -> str:
        """The configuration ``key`` that ``user`` names; an unrated one is reported once per user."""
        if key in self.unrated and (user, key) not in self.reported:
            self.reported.add((user, key))
            message = f"{key} used by {user!r} is not rated in the registry"
            _warning(self.diagnostics, source.file, None, "unknown-algorithm", message)
        return key

    def report_spellings(self) -> None:
        """Claims, adding no vertex, the ids the registry spells for each configuration, its members and
        its levels in the active dimensions; then reports each id claimed as one and as something else."""
        for name, configurations in self.bundle.registry.algorithms.items():
            for c in configurations:
                levels = [r.key for r in c.ratings if r.dimension in self.active_dims]
                for ident in {primitive_key(name, c.flags), *map(spec_key, c.uses), *levels} & self.kinds.keys():
                    self._claim(ident, self.kinds[ident], _LEVEL)
        for ident in sorted(self.spelled):
            message = f"identifier {ident!r} is also a level or configuration"
            _error(self.diagnostics, "<bundle>", None, "namespace-collision", message)

    def finish(self) -> DependencyGraph:
        """Each run of equal (from, to, rule) becomes one edge; the sort breaks
        ties by source, so its provenance is the run's sources in order, once each."""
        edges, kept, key = self.edges, 0, None
        edges.sort()
        for edge in edges:  # merged in place: edges[:kept] holds the runs so far
            if edge[:3] != key:
                key = edge[:3]
                edges[kept] = edge
                kept += 1
            elif edges[kept - 1].provenance[-1] != edge.provenance[0]:
                last = edges[kept - 1]
                edges[kept - 1] = last._replace(provenance=last.provenance + edge.provenance)
        del edges[kept:]
        return DependencyGraph(self.kinds, tuple(edges), self.named)


def build_graph(bundle: InventoryBundle, diagnostics: list[Diagnostic] | None = None) -> DependencyGraph:
    """Apply the rule catalogue to every record in the bundle; a reference
    cell naming nothing builds as the undeclared asset assembly makes of it.
    What the pass cannot place, the diagnostics :func:`validate_bundle`
    returns, is appended to ``diagnostics`` when it is given.

    Construction is additive: each record only ever contributes vertices and
    edges, so growing the bundle grows the graph.  Security levels are
    created only for dimensions some classification requires; a registry
    rating in a dimension nothing requires stays out of the graph.
    """
    return _rule_pass(bundle, deque(maxlen=0) if diagnostics is None else diagnostics).finish()


def validate_bundle(bundle: InventoryBundle) -> list[Diagnostic]:
    """What the rule pass of :func:`build_graph` cannot place, making no graph, in the order it meets it: ids
    two record kinds declare, then data, asset and crypto references, then ids spelled like a level or config."""
    return _rule_pass(bundle, edges=deque(maxlen=0)).diagnostics  # drops each edge as it is made


def _rule_pass(bundle: InventoryBundle, diagnostics: list[Diagnostic] | None = None, edges=None) -> _Builder:
    """Declare, then link: every record claims its id, with its own kind, before any reference is followed."""
    builder = _Builder(bundle, diagnostics, edges)

    # declare: the only claims a record kind makes
    for binding in bundle.classifications:
        classification = builder.vertex(binding.label, VertexKind.CLASSIFICATION)
        provenance = (binding.source,)
        for rating in binding.required:
            builder.edge(builder.level(rating), classification, "SL1", provenance)
    for record in bundle.data:
        builder.vertex(record.id, VertexKind.DATA_ASSET, record.display)
    for record in bundle.assets:
        builder.vertex(record.id, _ASSET_VERTEX_KIND[record.kind], record.name)
    # assembly makes each serves and access-record target an asset, so each is claimed as one
    for record in bundle.assets:
        for target in record.serves:
            builder.vertex(target, VertexKind.PROCESSOR)
        for ref in record.accesses:
            if ref.origin is RefOrigin.ACCESS_RECORD:
                builder.vertex(ref.target, VertexKind.PROCESSOR)
    for record in bundle.crypto_objects:
        builder.vertex(record.id, CRYPTO_RULES[record.object_type].kind, record.display)

    # link: a reference uses a declared id as it is, and reports one that names no record it may name
    for record in bundle.data:
        provenance = (record.source,)
        if record.classification:
            message = "data {!r} uses classification {!r} which is not in the classification map"
            label = builder.ref(
                record.classification, builder.labels, VertexKind.CLASSIFICATION, record, message,
                "unknown-classification",
            )
            builder.edge(label, record.id, "DC1", provenance)
        for location in record.storage_locations:
            message = "data {!r} names storage location {!r} but no such asset exists"
            target = builder.ref(location, builder.assets, VertexKind.PROCESSOR, record, message)
            builder.edge(record.id, target, _DATA_LOCATION_RULE.get(builder.kinds[target], "D1"), provenance)
    for record in bundle.assets:
        _apply_asset_rules(builder, record)
    for record in bundle.crypto_objects:
        _apply_crypto_rules(builder, record)

    builder.report_spellings()
    return builder


def _apply_asset_rules(builder: _Builder, record: AssetRecord) -> None:
    src = record.id
    src_kind = builder.kinds[src]
    own = (record.source,)
    for target in record.serves:
        builder.edge(src, target, "AC1", own)
        builder.edge(target, src, "AC1", own)
    for ref in record.accesses:
        provenance = (ref.source,) if ref.source else own
        if ref.origin is RefOrigin.ACCESS_RECORD:
            _access_pair(builder, src, ref.target, ref.direction, provenance)
        else:
            _typed_reference(builder, record, src_kind, ref, provenance)


def _access_pair(builder: _Builder, asset: str, service: str, direction: Direction, provenance: tuple[Source]) -> None:
    # read-only access means only the service leans on the asset
    builder.edge(service, asset, "AC1", provenance)
    if direction is Direction.TWO_WAY:
        builder.edge(asset, service, "AC1", provenance)


def _typed_reference(builder: _Builder, record, src_kind: VertexKind, ref, provenance: tuple[Source]) -> None:
    """Link a reference column on an asset row by what the bundle resolves
    its target to.  A record's id already has its vertex and is used as it
    is; an algorithm makes its configuration; a target naming nothing is
    reported and read as the undeclared asset that ``assemble_bundle``
    would have made of it."""
    src, target = record.id, ref.target
    resolved = builder.bundle.resolve(target)
    if isinstance(resolved, CryptoObjectRecord):
        builder.edge(src, target, _CRYPTO_REF_RULE.get(src_kind, "M3"), provenance)
    elif isinstance(resolved, DataRecord):
        builder.edge(target, src, _DATA_LOCATION_RULE.get(src_kind, "D1"), provenance)
    elif isinstance(resolved, tuple):
        config = builder.used(builder.config(*resolved), src, provenance[0])
        builder.edge(src, config, _ALGORITHM_REF_RULE.get(src_kind, "M3"), provenance)
    else:  # an asset, declared or not
        message = "asset {!r} references {!r} but no such record or algorithm exists"
        builder.ref(target, builder.assets, VertexKind.PROCESSOR, record, message)
        target_kind = builder.kinds[target]
        if src_kind is VertexKind.CHANNEL or target_kind is VertexKind.CHANNEL:
            builder.edge(src, target, "CH2", provenance)
            builder.edge(target, src, "CH2", provenance)
        elif src_kind is VertexKind.PROCESS:
            rule = "PR2" if target_kind is VertexKind.PROCESSOR else "PR3"
            builder.edge(src, target, rule, provenance)
        else:
            _access_pair(builder, src, target, ref.direction, provenance)


def _apply_crypto_rules(builder: _Builder, record) -> None:
    """A field the record's row gives no rule is reported by assembly."""
    row = CRYPTO_RULES[record.object_type]
    obj = record.id
    provenance = (record.source,)
    if record.location:
        holder = builder.ref(record.location, builder.assets, VertexKind.PROCESSOR, record, _LOCATED)
        holder_kind = builder.kinds[holder]
        if row.location:
            builder.edge(obj, holder, row.location, provenance)
        if holder_kind is VertexKind.PROCESSOR:
            builder.edge(holder, obj, row.held, provenance)
        elif not row.location and holder_kind in _DATA_LOCATION_RULE:  # an asset
            _warning(
                builder.diagnostics, record.source.file, None, "location-unused",
                f"crypto object {record.id!r} names location {holder!r}, a {holder_kind.value}, "
                f"but only a processor gives a {record.object_type.value} an edge",
            )
    # key-management locations hold the underlying key material, so every
    # kind of crypto object leans on them
    for key_location in record.key_locations:
        holder = builder.ref(key_location, builder.assets, VertexKind.PROCESSOR, record, _LOCATED)
        builder.edge(obj, holder, "K1", provenance)
    if record.algorithm is not None:
        config = builder.used(builder.config(record.algorithm, record.config_flags), record.id, record.source)
        builder.edge(obj, config, row.algorithm, provenance)
    if record.created_by:
        message = "crypto object {!r} was created by {!r} but no such asset exists"
        creator = builder.ref(record.created_by, builder.assets, VertexKind.PROCESSOR, record, message)
        builder.edge(obj, creator, "K5", provenance)
    if record.matched_key and row.matched_key:
        message = "crypto object {!r} references matched key {!r} which is not in the inventory"
        key = builder.ref(record.matched_key, builder.crypto, VertexKind.KEY, record, message)
        builder.edge(obj, key, row.matched_key, provenance)
    if record.issuer_cert and row.issuer_cert and record.issuer_cert != record.id:
        message = "crypto object {!r} references issuer {!r} which is not in the inventory"
        issuer = builder.ref(record.issuer_cert, builder.crypto, VertexKind.CERTIFICATE, record, message)
        builder.edge(obj, issuer, row.issuer_cert, provenance)

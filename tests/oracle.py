"""Brute-force reference implementations used to cross-check the fast code.

Everything here trades speed for obviousness: a cubic Floyd-Warshall closure
instead of per-pair BFS, exhaustive simple-path enumeration instead of the
guided witness search, a dict-keyed merge of duplicate edges instead of
the builder's in-place merge of sorted runs, a from-scratch reader for the
DOT subset the renderer emits, an assembly that turns every asset
reference into a stub record and merges all rows of an id, and the edges
of a bundle read off the text of the rule catalogue.  None of it imports
the search, rendering, assembly or rule internals it checks.
"""

from __future__ import annotations

import re

from cryptodep import (
    AssetRecord,
    ClassificationBinding,
    CryptoObjectRecord,
    DataRecord,
    DependencyGraph,
    Diagnostic,
    Direction,
    InventoryBundle,
    Severity,
    VertexKind,
)
from cryptodep.model import RefOrigin, parse_primitive_spec, primitive_key

# Strength within a dimension: bits by value, approved above not-approved,
# quantum-safe above quantum-vulnerable.  Kept apart from the program's own
# ordering so the oracle does not share the code it checks.
_RANK = {"approved": 1, "not-approved": 0, "quantum-safe": 1, "quantum-vulnerable": 0}


def strictly_higher(hi, lo) -> bool:
    """``hi`` is strictly stronger than ``lo``; different dimensions never compare."""
    if hi.dimension != lo.dimension:
        return False
    if isinstance(hi.value, int):
        return hi.value > lo.value
    return _RANK[hi.value] > _RANK[lo.value]


def closure_matrix(vertex_ids, edge_pairs):
    """Boolean reachability by Floyd-Warshall over explicit (frm, to) pairs."""
    index = {vid: i for i, vid in enumerate(vertex_ids)}
    n = len(vertex_ids)
    reach = [[False] * n for _ in range(n)]
    for frm, to in edge_pairs:
        reach[index[frm]][index[to]] = True
    for k in range(n):
        row_k = reach[k]
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return index, reach


def violation_pairs_oracle(graph: DependencyGraph) -> set[tuple[str, str]]:
    """Every (higher level, lower level) pair of the same dimension joined by a path.

    Defined purely on the closure and the rating order; it knows nothing about
    which rule produced which edge.
    """
    ids = [v.id for v in graph.vertices]
    index, reach = closure_matrix(ids, [(e.frm, e.to) for e in graph.edges])
    levels = [v for v in graph.vertices if v.kind is VertexKind.SECURITY_LEVEL]
    pairs = set()
    for hi in levels:
        for lo in levels:
            if hi.id == lo.id:
                continue
            if not strictly_higher(hi.payload, lo.payload):
                continue
            if reach[index[hi.id]][index[lo.id]]:
                pairs.add((hi.id, lo.id))
    return pairs


def simple_paths(graph: DependencyGraph, start: str, goal: str, cap: int = 20000):
    """All simple paths start..goal by exhaustive DFS.  Small graphs only."""
    succ: dict[str, list[str]] = {v.id: [] for v in graph.vertices}
    for e in graph.edges:
        if e.to not in succ[e.frm]:
            succ[e.frm].append(e.to)
    out: list[tuple[str, ...]] = []

    def walk(node, seen, trail):
        if len(out) >= cap:
            raise RuntimeError("path explosion; shrink the test graph")
        if node == goal:
            out.append(tuple(trail))
            return
        for nxt in succ[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, trail + [nxt])

    walk(start, {start}, [start])
    return out


def witnesses_oracle(graph: DependencyGraph, start: str, goal: str, k: int = 1):
    """The witnesses the search should pick: the first ``k`` of the shortest
    paths in lexicographic order, from the paths whose interior avoids level
    vertices if there are any, else from all paths.

    Returns (paths, through_levels), or ([], False) when unreachable.
    """
    levels = {v.id for v in graph.vertices if v.kind is VertexKind.SECURITY_LEVEL}
    paths = simple_paths(graph, start, goal)
    if not paths:
        return [], False
    clean = [p for p in paths if not any(v in levels for v in p[1:-1])]
    pool, through = (clean, False) if clean else (paths, True)
    best_len = min(len(p) for p in pool)
    return sorted(p for p in pool if len(p) == best_len)[:k], through


_EDGE_RE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[(.+)\];$')
_NODE_RE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[(.+)\];$')
# one attribute: quoted string (escapes allowed) or a bare word/number
_ATTR_ITEM_RE = re.compile(r'([a-z]+)=("(?:[^"\\]|\\.)*"|[A-Za-z0-9.]+)(, |$)')


def _unquote(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw)


def _attrs(raw: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        m = _ATTR_ITEM_RE.match(raw, pos)
        if not m:
            raise AssertionError(f"malformed DOT attributes at {raw[pos:]!r}")
        key, value = m.group(1), m.group(2)
        if key in pairs:
            raise AssertionError(f"attribute {key!r} repeated in {raw!r}")
        pairs[key] = _unquote(value[1:-1]) if value.startswith('"') else value
        pos = m.end()
    return pairs


def read_dot(text: str):
    """Validate the emitted DOT subset and return (nodes, edges).

    nodes maps id -> attribute dict; edges is a list of (frm, to, attrs).
    Raises AssertionError on anything outside the expected grammar.
    """
    lines = text.split("\n")
    if lines[0] != "digraph G {" or lines[-2:] != ["}", ""]:
        raise AssertionError("missing digraph wrapper")
    nodes: dict[str, dict] = {}
    edges: list[tuple[str, str, dict]] = []
    for line in lines[1:-2]:
        if line == "  rankdir=LR;":
            continue
        m = _EDGE_RE.match(line)
        if m:
            edges.append((_unquote(m.group(1)), _unquote(m.group(2)), _attrs(m.group(3))))
            continue
        m = _NODE_RE.match(line)
        if not m:
            raise AssertionError(f"unparseable DOT line {line!r}")
        ident = _unquote(m.group(1))
        if ident in nodes:
            raise AssertionError(f"node {ident!r} declared twice")
        nodes[ident] = _attrs(m.group(2))
    for frm, to, _ in edges:
        if frm not in nodes or to not in nodes:
            raise AssertionError(f"edge {frm!r} -> {to!r} references an undeclared node")
    return nodes, edges


def _source_key(source):
    return (source.file, source.ref)


def merged_edges_oracle(edges):
    """``(frm, to, rule, provenance)`` for each distinct (frm, to, rule) of
    ``edges``, in that order, as the graph should hold it: provenance is
    every source of the triple's edges, once each, in (file, ref) order."""
    sources = {}
    for frm, to, rule, provenance in edges:
        sources.setdefault((frm, to, rule), set()).update(provenance)
    return [(*key, tuple(sorted(found, key=_source_key))) for key, found in sorted(sources.items())]


def assemble_oracle(records, registry):
    """``(bundle, diagnostics)`` as ``assemble_bundle`` should give them.

    Every serves target and every reference naming no crypto object, data
    record or registry algorithm (or any access-record target) adds a stub
    ``AssetRecord(id=target, source=<referring row's source>)`` to the rows
    of its target; then all rows of each asset id merge.  The merged source
    is the first, by (file, ref), of the rows giving a kind or name, else
    of the rows with references, else of all rows and stubs.  A kind
    conflict is blamed on the first file among the rows giving a kind.
    """
    records = tuple(records)
    diags = []
    labels = {}  # label -> [source, {dimension: rating}], in first-seen order
    tables = {DataRecord: {}, CryptoObjectRecord: {}}
    rows = {}  # asset id -> its rows, then its stubs
    for record in records:
        if isinstance(record, ClassificationBinding):
            source, ratings = labels.setdefault(record.label, [record.source, {}])
            for rating in record.required:
                held = ratings.setdefault(rating.dimension, rating)
                if held != rating:
                    diags.append(Diagnostic(
                        Severity.ERROR, record.source.file, "conflicting-level",
                        f"classification {record.label!r} already requires {held.display}; "
                        f"ignoring conflicting level {rating.display}",
                    ))
        elif isinstance(record, AssetRecord):
            rows.setdefault(record.id, []).append(record)
        else:
            table = tables[type(record)]
            held = table.setdefault(record.id, record)
            if held != record:
                keep, drop = sorted((held, record), key=lambda r: (r.source.file, r.source.ref, repr(r)))
                table[record.id] = keep
                noun = "data" if isinstance(record, DataRecord) else "crypto"
                diags.append(Diagnostic(
                    Severity.ERROR, drop.source.file, "duplicate-id",
                    f"{noun} id {record.id!r} is defined more than once; keeping the copy from {keep.source.file}",
                ))
            # a certificate's signature algorithm is required, whoever built the record
            certificate = isinstance(record, CryptoObjectRecord) and not record.object_type.value.endswith("Key")
            if certificate and not record.algorithm:
                diags.append(Diagnostic(
                    Severity.ERROR, record.source.file, "missing-algorithm",
                    f"certificate {record.id!r} must name its signature algorithm",
                ))
    data, crypto = tables[DataRecord], tables[CryptoObjectRecord]

    for row in [row for parts in rows.values() for row in parts]:
        targets = list(row.serves) + [
            ref.target for ref in row.accesses
            if ref.origin is RefOrigin.ACCESS_RECORD
            or (ref.target not in crypto and ref.target not in data and registry.algorithm_ref(ref.target) is None)
        ]
        for target in targets:
            rows.setdefault(target, []).append(AssetRecord(id=target, source=row.source))

    assets = {}
    for ident, parts in rows.items():
        kinds = sorted({p.kind for p in parts if p.kind is not None}, key=lambda k: k.value)
        if len(kinds) > 1:
            diags.append(Diagnostic(
                Severity.ERROR, min(p.source.file for p in parts if p.kind is not None), "conflicting-kind",
                f"asset {ident!r} is declared with kinds {', '.join(k.value for k in kinds)}; "
                f"keeping {kinds[0].value}",
            ))
        refs = {ref for p in parts for ref in p.accesses}
        names = sorted(p.name for p in parts if p.name)
        identity = [p.source for p in parts if p.kind is not None or p.name]
        relation = [p.source for p in parts if p.serves or p.accesses]
        assets[ident] = AssetRecord(
            id=ident,
            kind=kinds[0] if kinds else None,
            serves=tuple(sorted({t for p in parts for t in p.serves})),
            accesses=tuple(sorted(refs, key=lambda r: (
                r.target, r.direction.value, r.origin.value, _source_key(r.source) if r.source else ("", ""),
            ))),
            name=names[0] if names else None,
            source=min(identity or relation or [p.source for p in parts], key=_source_key),
        )

    classifications = tuple(
        ClassificationBinding(
            label, tuple(sorted(ratings.values(), key=lambda r: r.sort_key())), rank=rank, source=source,
        )
        for rank, (label, (source, ratings)) in enumerate(labels.items())
    )
    bundle = InventoryBundle(
        classifications=classifications,
        data=tuple(data[k] for k in sorted(data)),
        assets=tuple(assets[k] for k in sorted(assets)),
        crypto_objects=tuple(crypto[k] for k in sorted(crypto)),
        registry=registry,
        records=records,
    )
    return bundle, diags


# The vertex kind of each asset kind, and the rules a reference from an asset
# of each vertex kind takes, as the README's rule table states them.
_ASSET_VERTEX_KINDS = {
    "Processor": VertexKind.PROCESSOR, "Service": VertexKind.PROCESSOR, "Channel": VertexKind.CHANNEL,
    "Process": VertexKind.PROCESS, "Software": VertexKind.PROCESS,
}
_DATA_RULES = {VertexKind.PROCESSOR: "D1", VertexKind.CHANNEL: "D2", VertexKind.PROCESS: "D3"}
_CRYPTO_REF_RULES = {VertexKind.PROCESS: "PR4", VertexKind.CHANNEL: "CH1"}  # M3 from a processor
_ALGORITHM_REF_RULES = {VertexKind.PROCESS: "PR1", VertexKind.CHANNEL: "CH1"}  # M3 from a processor


def edges_oracle(bundle):
    """``(kinds, edges)`` as ``build_graph`` should give them for a bundle
    whose namespaces do not collide: each vertex's kind by id, and the
    merged ``(frm, to, rule, provenance)`` of every edge the text of each
    rule asks for, with no self-loop.  A declared id takes its record's
    kind; an id only referred to is a processor asset, a key (a matched
    key) or a certificate (an issuer).  Only configurations some record
    names, and the members they use, are vertices, and only levels of a
    dimension some classification requires."""
    registry = bundle.registry
    crypto = {r.id: r for r in bundle.crypto_objects}
    data = {r.id: r for r in bundle.data}
    assets = {r.id: r for r in bundle.assets}
    active = {rating.dimension for binding in bundle.classifications for rating in binding.required}
    declared = {ident: VertexKind.DATA_ASSET for ident in data}
    declared.update(
        (r.id, VertexKind.KEY if r.object_type.value.endswith("Key") else VertexKind.CERTIFICATE)
        for r in bundle.crypto_objects
    )
    declared.update((r.id, _ASSET_VERTEX_KINDS[r.kind.value if r.kind else "Processor"]) for r in bundle.assets)
    kinds: dict = {}
    found: list = []
    expanded: set = set()

    def vertex(ident, kind):
        kinds[ident] = declared.get(ident, kind)
        return ident

    def edge(frm, to, rule, source):
        if frm != to:
            found.append((frm, to, rule, (source,)))

    def config(name, flags):
        key = vertex(primitive_key(name, flags), VertexKind.PRIMITIVE_CONFIG)
        configuration = registry.lookup(name, flags)
        if key not in expanded and configuration is not None:
            expanded.add(key)
            for rating in configuration.ratings:  # SL2
                if rating.dimension in active:
                    edge(key, vertex(rating.key, VertexKind.SECURITY_LEVEL), "SL2", configuration.source)
            for spec in configuration.uses:  # P2
                edge(key, config(*parse_primitive_spec(spec)), "P2", configuration.source)
        return key

    def access(asset, service, direction, source):  # AC1
        edge(service, asset, "AC1", source)
        if direction is Direction.TWO_WAY:
            edge(asset, service, "AC1", source)

    for binding in bundle.classifications:
        label = vertex(binding.label, VertexKind.CLASSIFICATION)
        for rating in binding.required:
            edge(vertex(rating.key, VertexKind.SECURITY_LEVEL), label, "SL1", binding.source)

    for record in bundle.data:
        me = vertex(record.id, VertexKind.DATA_ASSET)
        if record.classification:
            edge(vertex(record.classification, VertexKind.CLASSIFICATION), me, "DC1", record.source)
        for location in record.storage_locations:  # D1, D2, D3 by the kind of asset
            holder = vertex(location, VertexKind.PROCESSOR)
            edge(me, holder, _DATA_RULES[kinds[holder]], record.source)

    for record in bundle.assets:
        me = vertex(record.id, VertexKind.PROCESSOR)
        mine = kinds[me]
        for target in record.serves:
            other = vertex(target, VertexKind.PROCESSOR)
            edge(me, other, "AC1", record.source)
            edge(other, me, "AC1", record.source)
        for ref in record.accesses:
            source, target = ref.source or record.source, ref.target
            if ref.origin is RefOrigin.ACCESS_RECORD:
                access(me, vertex(target, VertexKind.PROCESSOR), ref.direction, source)
            elif target in crypto:
                edge(me, vertex(target, VertexKind.KEY), _CRYPTO_REF_RULES.get(mine, "M3"), source)
            elif target in data:
                edge(vertex(target, VertexKind.DATA_ASSET), me, _DATA_RULES[mine], source)
            elif target in assets:
                other = vertex(target, VertexKind.PROCESSOR)
                if VertexKind.CHANNEL in (mine, kinds[other]):  # CH2, both ways
                    edge(me, other, "CH2", source)
                    edge(other, me, "CH2", source)
                elif mine is VertexKind.PROCESS:
                    edge(me, other, "PR2" if kinds[other] is VertexKind.PROCESSOR else "PR3", source)
                else:
                    access(me, other, ref.direction, source)
            else:
                edge(me, config(*registry.algorithm_ref(target)), _ALGORITHM_REF_RULES.get(mine, "M3"), source)

    for obj in bundle.crypto_objects:
        me, source = vertex(obj.id, None), obj.source
        key = kinds[me] is VertexKind.KEY
        public = obj.object_type.value == "PublicKey"
        if obj.location:
            holder = vertex(obj.location, VertexKind.PROCESSOR)
            # K1: secret and private keys, K3: public keys, K7: CA certificates;
            # a plain certificate takes no edge to where it is stored
            rule = "K3" if public else "K1" if key else "K7" if obj.object_type.value == "CACertificate" else None
            if rule:
                edge(me, holder, rule, source)
            if kinds[holder] is VertexKind.PROCESSOR:  # M1: symmetric and private keys, M2: the rest
                edge(holder, me, "M1" if key and not public else "M2", source)
        for location in obj.key_locations:
            edge(me, vertex(location, VertexKind.PROCESSOR), "K1", source)
        if obj.algorithm is not None:
            edge(me, config(obj.algorithm, obj.config_flags), "K4" if key else "K6", source)
        if obj.created_by:
            edge(me, vertex(obj.created_by, VertexKind.PROCESSOR), "K5", source)
        if obj.matched_key and (public or not key):
            edge(me, vertex(obj.matched_key, VertexKind.KEY), "K3" if public else "K6", source)
        if obj.issuer_cert and not key:
            edge(me, vertex(obj.issuer_cert, VertexKind.CERTIFICATE), "K6", source)
    return kinds, merged_edges_oracle(found)
